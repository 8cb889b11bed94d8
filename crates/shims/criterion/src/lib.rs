//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion's API this workspace's benches use —
//! [`Criterion::benchmark_group`], [`Criterion::bench_function`],
//! `bench_with_input`, [`Bencher::iter`], [`BenchmarkId`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — backed by a simple
//! median-of-samples wall-clock timer. No statistics engine, no plots;
//! results print as `name ... median time/iter`.

#![warn(unreachable_pub)]

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifies one benchmark within a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new(function_id: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Builds an id from a parameter value only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Drives one benchmark's timing loop.
#[derive(Debug)]
pub struct Bencher {
    samples: u32,
    min_sample_time: Duration,
    last_median: Duration,
}

impl Bencher {
    /// Times `routine`, printing the median per-iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration: find an iteration count that fills the
        // minimum sample time.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters_per_sample =
            (self.min_sample_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            per_iter.push(t.elapsed() / iters_per_sample);
        }
        per_iter.sort_unstable();
        self.last_median = per_iter[per_iter.len() / 2];
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = self.criterion.bencher();
        f(&mut b, input);
        println!("bench {}/{}: {:>12.3?}/iter", self.name, id, b.last_median);
        self
    }

    /// Runs one benchmark without an input parameter.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = self.criterion.bencher();
        f(&mut b);
        println!("bench {}/{}: {:>12.3?}/iter", self.name, id, b.last_median);
        self
    }

    /// Finishes the group (printing only; kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Debug)]
pub struct Criterion {
    samples: u32,
    min_sample_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            samples: 11,
            min_sample_time: Duration::from_millis(20),
        }
    }
}

impl Criterion {
    fn bencher(&self) -> Bencher {
        Bencher {
            samples: self.samples,
            min_sample_time: self.min_sample_time,
            last_median: Duration::ZERO,
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = self.bencher();
        f(&mut b);
        println!("bench {}: {:>12.3?}/iter", name, b.last_median);
        self
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion {
            samples: 3,
            min_sample_time: Duration::from_micros(50),
        };
        let mut calls = 0u64;
        c.bench_function("noop", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion {
            samples: 3,
            min_sample_time: Duration::from_micros(50),
        };
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("f", 4), &4usize, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
    }
}
