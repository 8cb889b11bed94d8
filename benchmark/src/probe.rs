//! The host-speed probe: a fixed piece of work of the benchmark's own,
//! timed in short bursts between the steps of whatever is being measured.
//!
//! The hosts this benchmark runs on are shared: the same code runs 20-40 %
//! slower for minutes at a time and flips between speeds several times a
//! second, so two runs of one commit a quarter of an hour apart differ by
//! more than any bound worth having. The probe measures that speed where
//! and when the workload runs, and the host-clock metrics are reported at
//! the *reference speed*: host seconds x ([`REFERENCE_BURST_NS`] / mean
//! burst time). On a host as fast as the reference the factor is 1 and the
//! metric is plain wall time.
//!
//! The burst touches none of the program's code, so a change to the
//! program cannot move it, and its time is kept out of what is measured.

use std::time::{Duration, Instant};

/// 64 KiB of `f32`: larger than an L1 cache, inside an L2.
const WORDS: usize = 16 * 1024;
/// Dependent steps per burst: about half a millisecond.
const BURST_STEPS: usize = 200_000;
/// A burst is due this long after the previous one: about 2 % of the
/// time goes to probing.
const BURST_EVERY: Duration = Duration::from_millis(25);
/// What a burst takes on the host that defined the benchmark in its usual
/// state. Only a scale: it sets what "1.0" means, not how anything
/// compares.
pub const REFERENCE_BURST_NS: f64 = 550_000.0;

pub struct SpeedProbe {
    buf: Vec<f32>,
    state: u64,
    last: Instant,
    burst_ns: u64,
    bursts: u64,
    spent: Duration,
}

impl SpeedProbe {
    /// Allocates the buffer and runs one burst unrecorded, to warm up.
    pub fn new() -> Self {
        let mut probe = Self {
            buf: (0..WORDS).map(|i| i as f32 * 1e-3).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            last: Instant::now(),
            burst_ns: 0,
            bursts: 0,
            spent: Duration::ZERO,
        };
        probe.burst();
        probe.take();
        probe
    }

    /// One burst: a chain of dependent xorshift steps, each reading and
    /// rewriting one pseudo-random word of the buffer. Serial integer and
    /// floating-point work with scattered memory access, like the
    /// program's own inner loops, and nothing a compiler can shorten.
    pub fn burst(&mut self) {
        let start = Instant::now();
        let mut s = self.state;
        let mut acc = 0.0f32;
        for _ in 0..BURST_STEPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s >> 20) as usize % WORDS;
            let v = self.buf[i];
            acc += v;
            self.buf[i] = v * 0.5 + (s >> 40) as f32 * 1e-9;
        }
        self.state = s ^ u64::from(std::hint::black_box(acc).to_bits());
        let now = Instant::now();
        let took = now - start;
        self.burst_ns += u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.bursts += 1;
        self.spent += took;
        self.last = now;
    }

    /// Host time all bursts so far took: what a caller timing across
    /// them leaves out.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// A burst if one is due.
    pub fn poll(&mut self) {
        if self.last.elapsed() >= BURST_EVERY {
            self.burst();
        }
    }

    /// Closes a measured stretch with a last burst and returns the host's
    /// speed over it against the reference: below 1 on a slower host, and
    /// host seconds times it are seconds at the reference speed. The next
    /// stretch starts empty.
    pub fn finish(&mut self) -> f64 {
        self.burst();
        self.take()
    }

    fn take(&mut self) -> f64 {
        let mean_ns = self.burst_ns as f64 / self.bursts.max(1) as f64;
        self.burst_ns = 0;
        self.bursts = 0;
        REFERENCE_BURST_NS / mean_ns.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_reports_its_speed_and_starts_the_next_one_empty() {
        let mut probe = SpeedProbe::new();
        let before = probe.spent();
        probe.burst();
        probe.burst();
        assert_eq!(probe.bursts, 2);
        let speed = probe.finish();
        // speed = reference / mean time of the three bursts
        let mean_ns = (probe.spent() - before).as_nanos() as f64 / 3.0;
        assert!(mean_ns > 0.0);
        assert!((speed - REFERENCE_BURST_NS / mean_ns).abs() < 1e-6 * speed);
        assert_eq!(probe.bursts, 0);
    }

    #[test]
    fn poll_waits_until_a_burst_is_due() {
        let mut probe = SpeedProbe::new();
        probe.poll();
        assert_eq!(probe.bursts, 0, "a burst just ran");
        std::thread::sleep(BURST_EVERY);
        probe.poll();
        assert_eq!(probe.bursts, 1);
    }
}
