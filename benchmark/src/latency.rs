//! Modeled latency, rebuilt from the run's own event stream: time to
//! first token, inter-token gaps and goodput, all on the *modeled* clock
//! (accelerator cycles), exact rather than sampled.

use std::collections::HashMap;

use topick_accel::{ServeEvent, ServingRequest};

use crate::stats::percentile;
use crate::workloads::Limits;

/// One request's modeled latencies, in cycles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestLatency {
    /// Cycles of every step from the request's arrival step through the
    /// step that produced its first token (`None`: it never produced one).
    pub ttft_cycles: Option<u64>,
    /// Cycles between consecutive tokens, waits after a preemption
    /// included.
    pub gap_cycles: Vec<u64>,
    pub tokens: usize,
    /// Finished with exactly the tokens it asked for (a rejected,
    /// unfinished or never-enqueued request is not complete).
    pub complete: bool,
}

/// Rebuilds per-request latencies from the requests, the events they
/// caused and the modeled cycles of every step. Steps are global (a
/// cluster's shards run in lockstep), so events from all shards mix
/// freely; ids must be unique.
pub fn reconstruct<'a>(
    requests: &[ServingRequest],
    events: impl IntoIterator<Item = &'a ServeEvent>,
    step_cycles: &[u64],
) -> Vec<RequestLatency> {
    // before[s] = cycles of all steps before step s.
    let mut before = Vec::with_capacity(step_cycles.len() + 1);
    before.push(0u64);
    for c in step_cycles {
        before.push(before.last().expect("seeded with 0") + c);
    }
    let through = |step: usize| before[(step + 1).min(step_cycles.len())];

    let index: HashMap<u64, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id, i))
        .collect();
    let mut token_steps: Vec<Vec<usize>> = vec![Vec::new(); requests.len()];
    let mut finished: Vec<Option<usize>> = vec![None; requests.len()];
    for e in events {
        let Some(&i) = index.get(&e.id()) else {
            continue;
        };
        match *e {
            ServeEvent::TokenGenerated { step, .. } => token_steps[i].push(step),
            ServeEvent::Finished { generated, .. } => finished[i] = Some(generated),
            _ => {}
        }
    }
    requests
        .iter()
        .zip(token_steps)
        .zip(finished)
        .map(|((req, steps), finished)| {
            let arrival = (req.arrival_step as usize).min(step_cycles.len());
            RequestLatency {
                ttft_cycles: steps.first().map(|&s| through(s) - before[arrival]),
                gap_cycles: steps
                    .windows(2)
                    .map(|w| through(w[1]) - through(w[0]))
                    .collect(),
                tokens: steps.len(),
                complete: finished == Some(req.max_new_tokens) && steps.len() == req.max_new_tokens,
            }
        })
        .collect()
}

/// The five modeled latency metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub ttft_us_p50: f64,
    pub ttft_us_p99: f64,
    pub itl_us_p50: f64,
    pub itl_us_p99: f64,
    pub goodput_tokens_per_s: f64,
    pub ttft_samples: usize,
    pub itl_samples: usize,
    /// Requests that met both limits on every token.
    pub good_requests: usize,
}

/// Percentiles are nearest-rank over every sample; goodput counts the
/// tokens of requests that completed with TTFT and every gap inside the
/// limits, over the run's modeled seconds.
pub fn summarize(
    latencies: &[RequestLatency],
    limits: Limits,
    total_cycles: u64,
    clock_hz: f64,
) -> LatencySummary {
    let us = |cycles: u64| cycles as f64 / clock_hz * 1e6;
    let mut ttft: Vec<u64> = latencies.iter().filter_map(|l| l.ttft_cycles).collect();
    let mut gaps: Vec<u64> = latencies
        .iter()
        .flat_map(|l| l.gap_cycles.iter().copied())
        .collect();
    ttft.sort_unstable();
    gaps.sort_unstable();
    let good: Vec<&RequestLatency> = latencies
        .iter()
        .filter(|l| {
            l.complete
                && l.ttft_cycles.is_some_and(|c| us(c) <= limits.ttft_us)
                && l.gap_cycles.iter().all(|&c| us(c) <= limits.itl_us)
        })
        .collect();
    let good_tokens: usize = good.iter().map(|l| l.tokens).sum();
    let seconds = total_cycles as f64 / clock_hz;
    let pct = |v: &[u64], p: f64| percentile(v, p).map_or(0.0, us);
    LatencySummary {
        ttft_us_p50: pct(&ttft, 50.0),
        ttft_us_p99: pct(&ttft, 99.0),
        itl_us_p50: pct(&gaps, 50.0),
        itl_us_p99: pct(&gaps, 99.0),
        goodput_tokens_per_s: if seconds > 0.0 {
            good_tokens as f64 / seconds
        } else {
            0.0
        },
        ttft_samples: ttft.len(),
        itl_samples: gaps.len(),
        good_requests: good.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(id: u64, step: usize, generated: usize) -> ServeEvent {
        ServeEvent::TokenGenerated {
            id,
            step,
            context: 0,
            generated,
        }
    }

    /// Three requests over six steps of 100, 200, 0 (idle), 400, 500 and
    /// 600 cycles:
    /// * A arrives at 0, tokens at steps 0, 1, 3 — finishes;
    /// * B arrives at 1, tokens at steps 3 and 5 (preempted in between) —
    ///   finishes, but its 1100-cycle gap breaks the ITL limit;
    /// * C arrives at 4 and is still waiting when the run stops.
    #[test]
    fn hand_built_three_request_timeline() {
        let requests = [
            ServingRequest::new(10, 8, 3),
            ServingRequest::new(11, 8, 2).arriving_at(1),
            ServingRequest::new(12, 8, 1).arriving_at(4),
        ];
        let events = [
            ServeEvent::Enqueued { id: 10, step: 0 },
            token(10, 0, 1),
            token(10, 1, 2),
            token(11, 3, 1),
            token(10, 3, 3),
            ServeEvent::Finished {
                id: 10,
                step: 3,
                generated: 3,
            },
            ServeEvent::Preempted {
                id: 11,
                step: 4,
                generated: 1,
                retained_tokens: 0,
                dropped_tokens: 9,
            },
            token(11, 5, 2),
            ServeEvent::Finished {
                id: 11,
                step: 5,
                generated: 2,
            },
            token(99, 5, 1), // an id that is not ours is ignored
        ];
        let cycles = [100, 200, 0, 400, 500, 600];
        let lat = reconstruct(&requests, &events, &cycles);
        assert_eq!(
            lat[0],
            RequestLatency {
                ttft_cycles: Some(100),
                gap_cycles: vec![200, 400],
                tokens: 3,
                complete: true,
            }
        );
        assert_eq!(
            lat[1],
            RequestLatency {
                // steps 1..=3: 200 + 0 + 400
                ttft_cycles: Some(600),
                // steps 4..=5: 500 + 600
                gap_cycles: vec![1100],
                tokens: 2,
                complete: true,
            }
        );
        assert_eq!(lat[2], RequestLatency::default());

        // 1 MHz clock: one cycle is one microsecond.
        let limits = Limits {
            ttft_us: 600.0,
            itl_us: 400.0,
        };
        let s = summarize(&lat, limits, 1800, 1e6);
        assert_eq!((s.ttft_samples, s.itl_samples), (2, 3));
        assert_eq!(s.ttft_us_p50, 100.0);
        assert_eq!(s.ttft_us_p99, 600.0);
        assert_eq!(s.itl_us_p50, 400.0);
        assert_eq!(s.itl_us_p99, 1100.0);
        // Only A is good: 3 tokens over 1800 us.
        assert_eq!(s.good_requests, 1);
        assert!((s.goodput_tokens_per_s - 3.0 / 1800e-6).abs() < 1e-6);

        // Loosen ITL and B counts too; C never does.
        let loose = Limits {
            ttft_us: 600.0,
            itl_us: 1100.0,
        };
        assert_eq!(summarize(&lat, loose, 1800, 1e6).good_requests, 2);
        // Tighten TTFT below B's and it drops out again.
        let tight = Limits {
            ttft_us: 599.0,
            itl_us: 1100.0,
        };
        assert_eq!(summarize(&lat, tight, 1800, 1e6).good_requests, 1);
    }

    #[test]
    fn a_short_finish_is_not_complete() {
        let requests = [ServingRequest::new(1, 8, 3)];
        let events = [
            token(1, 0, 1),
            ServeEvent::Finished {
                id: 1,
                step: 0,
                generated: 1,
            },
        ];
        let lat = reconstruct(&requests, &events, &[10]);
        assert!(!lat[0].complete);
    }
}
