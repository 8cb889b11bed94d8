//! `--compare A.json B.json`: a verdict per (end-to-end metric, workload)
//! for result file B against reference A, by the bounds in
//! [`metrics`](crate::metrics) and each side's quartiles.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_SHARE};
use crate::stats::{median, quartiles, sorted};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// samples overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::WithinBound => "within-bound",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        let (q1, q3) = quartiles(&v);
        Self {
            median: median(&v),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// Inter-quartile spread as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, in the metric's unit (negative:
/// better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

pub fn verdict(m: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let allowed = (m.bound * a.median.abs()).max(m.floor);
    let worse = worsening(m, a.median, b.median);
    let overlap = a.min <= b.max && b.min <= a.max;
    let resolved = |v: Verdict| {
        // A difference the runs cannot resolve: the spread of either side
        // is wider than the bound and the samples interleave.
        if a.spread().max(b.spread()) > m.bound && overlap && m.bound > 0.0 {
            Verdict::Unresolved
        } else {
            v
        }
    };
    if worse > allowed {
        resolved(Verdict::Regressed)
    } else if -worse > allowed {
        resolved(Verdict::Improved)
    } else {
        Verdict::WithinBound
    }
}

fn side_of(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let samples: Vec<f64> = m
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!samples.is_empty()).then(|| Side::of(&samples))
}

/// Prints one line per (workload, metric) and returns how many pairs
/// regressed. A workload or metric present on one side only is reported
/// and skipped.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no \"workloads\" object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut regressed = 0;
    println!("# verdict of B against A; ratio = B median / A median (base: A median)");
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name} - only-in-A");
            continue;
        };
        for key in ["stream_digest", "event_digest"] {
            if ra.str(key) != rb.str(key) {
                println!(
                    "{name} {key} differs: A {} B {}",
                    ra.str(key).unwrap_or("?"),
                    rb.str(key).unwrap_or("?")
                );
            }
        }
        for m in END_TO_END.iter().chain(std::iter::once(&FAILED_SHARE)) {
            let (Some(sa), Some(sb)) = (side_of(ra, m.name), side_of(rb, m.name)) else {
                println!("{name} {} - missing on one side", m.name);
                continue;
            };
            let v = verdict(m, &sa, &sb);
            regressed += usize::from(v == Verdict::Regressed);
            let ratio = if sa.median == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            let mut line = format!(
                "{name} {} {} ratio {ratio} base {} {} B {} bound {}",
                m.name,
                v.name(),
                sa.median,
                m.unit,
                sb.median,
                m.bound
            );
            if v == Verdict::Unresolved {
                line.push_str(&format!(
                    " A[q1 {} q3 {} min {} max {}] B[q1 {} q3 {} min {} max {}]",
                    sa.q1, sa.q3, sa.min, sa.max, sb.q1, sb.q3, sb.min, sb.max
                ));
            }
            println!("{line}");
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name} - only-in-B");
        }
    }
    println!("# {regressed} regressed");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            floor,
            meaning: "",
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let m = metric(Better::Higher, 0.10, 0.0);
        let a = Side::of(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // 3 % lower: inside the bound.
        assert_eq!(
            verdict(&m, &a, &Side::of(&[97.0, 97.5, 96.5])),
            Verdict::WithinBound
        );
        // 20 % lower, tight samples: regressed.
        assert_eq!(
            verdict(&m, &a, &Side::of(&[80.0, 80.5, 79.5])),
            Verdict::Regressed
        );
        // 20 % higher: improved.
        assert_eq!(
            verdict(&m, &a, &Side::of(&[120.0, 121.0, 119.0])),
            Verdict::Improved
        );
        // Median 15 % lower, but B swings +-20 % and overlaps A: unresolved.
        let noisy = Side::of(&[68.0, 85.0, 102.0, 70.0, 100.0]);
        assert_eq!(verdict(&m, &a, &noisy), Verdict::Unresolved);
        // The same swing with no overlap is still a regression.
        let low = Side::of(&[50.0, 60.0, 70.0, 52.0, 68.0]);
        assert_eq!(verdict(&m, &a, &low), Verdict::Regressed);
    }

    #[test]
    fn lower_is_better_metrics_and_floors() {
        let lower = metric(Better::Lower, 0.02, 0.0);
        let one = |v: f64| Side::of(&[v, v, v]);
        assert_eq!(
            verdict(&lower, &one(100.0), &one(100.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&lower, &one(100.0), &one(103.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, &one(100.0), &one(90.0)), Verdict::Improved);
        // A 50 % rise of a 1 ms set-up is under a 0.02 s floor.
        let floored = metric(Better::Lower, 0.25, 0.02);
        assert_eq!(
            verdict(&floored, &one(0.001), &one(0.0015)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&floored, &one(1.0), &one(1.5)), Verdict::Regressed);
        // failed_share: bound 0, any rise regresses.
        assert_eq!(
            verdict(&FAILED_SHARE, &one(0.0), &one(0.001)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&FAILED_SHARE, &one(0.0), &one(0.0)),
            Verdict::WithinBound
        );
    }
}
