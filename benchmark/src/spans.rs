//! Spans recorded by the benchmark's own code around each call into a
//! layer. They live in memory for the whole run and are written out once
//! at exit; only the traced repetition records any.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// The request id or step index the work was for (spans of one
    /// request share it).
    pub subject: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, subject: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            subject,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, subject: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, subject);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span self time: its duration minus the part its direct children
/// cover. Children of one parent never overlap (one thread records), so
/// the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Calls, total and self nanoseconds per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The span file: one object per span, in start order.
pub fn spans_json(workload: &str, spans: &[Span]) -> Value {
    obj([
        ("workload", Value::from(workload)),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", Value::from(s.name)),
                            ("id", Value::from(s.id as usize)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::from(p as usize)),
                            ),
                            ("subject", Value::from(s.subject)),
                            ("start_ns", Value::from(s.start_ns)),
                            ("end_ns", Value::from(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            subject: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) holds attention [10,40) and pager [50,70);
        // attention holds dram [15,25). A sibling shadow [100,160).
        let spans = vec![
            span(0, None, "step", 0, 100),
            span(1, Some(0), "attention", 10, 40),
            span(2, Some(1), "dram", 15, 25),
            span(3, Some(0), "pager", 50, 70),
            span(4, None, "shadow", 100, 160),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 60]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["step"],
            NameTotals {
                calls: 1,
                busy_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["attention"].self_ns, 20);
        // Self times partition the roots' wall time.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), roots);
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        let v = t.time("inner", 7, || 41 + 1);
        assert_eq!(v, 42);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
