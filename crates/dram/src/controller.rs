//! The cycle-level DRAM controller: per-channel FR-FCFS scheduling over
//! bank state machines, with a simple analytic command-timing model.
//!
//! Every per-channel buffer is bounded — `queue_depth` pending requests,
//! 16 issued transactions — and allocated to its bound when the simulator
//! is built; only completions a caller leaves unpopped can outgrow theirs.

use std::collections::VecDeque;

use crate::address::AddressMap;
use crate::config::DramConfig;
use crate::stats::DramStats;

/// A completed transaction: the data for request `id` finished moving at
/// `finish_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-assigned request id.
    pub id: u64,
    /// Byte address of the transaction.
    pub addr: u64,
    /// Cycle at which the data burst finished.
    pub finish_cycle: u64,
    /// Cycle at which the request entered the queue.
    pub enqueued_at: u64,
    /// Whether this was a write.
    pub is_write: bool,
}

impl Completion {
    /// The order in which transactions retiring on the same cycle are
    /// reported. The channel is a function of `addr`, so this is the order
    /// of `(finish, id, addr, enqueued_at, channel, is_write)`.
    fn order_key(&self) -> (u64, u64, u64, u64, bool) {
        (
            self.finish_cycle,
            self.id,
            self.addr,
            self.enqueued_at,
            self.is_write,
        )
    }
}

/// Transactions one channel keeps in flight. A real controller keeps a
/// bounded set (its CAM); commands for different banks pipeline freely
/// within that window, which is what lets activates overlap.
const MAX_IN_FLIGHT: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    addr: u64,
    enqueued_at: u64,
    is_write: bool,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    ready_at: u64,
    activated_at: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    /// FR-FCFS scan keys `(bank, row)`, one per `queue` entry, kept apart
    /// from the payload so the scan reads 16 bytes per request. The
    /// pending requests are `[head..]` of both, oldest first: at most
    /// `queue_depth` of them in a buffer of twice that, so taking one near
    /// the front shifts the few older ones up and a push compacts only
    /// when the buffer's end is reached.
    targets: Vec<(usize, u64)>,
    queue: Vec<Pending>,
    head: usize,
    /// The first `known_misses` pending targets miss their bank's open
    /// row. Only an activate can turn a miss into a hit, so after a row
    /// hit at `i` the next scan starts at `i`; after an activate it starts
    /// over.
    known_misses: usize,
    /// Open row per bank; `None` while the bank is precharged.
    open_rows: Vec<Option<u64>>,
    banks: Vec<Bank>,
    bus_free_at: u64,
    /// Issued transactions in issue order. Each one's data starts no
    /// earlier than `bus_free_at`, the previous one's finish, so finish
    /// cycles never decrease along the queue.
    in_flight: VecDeque<Completion>,
    /// `finish_cycle` of the front of `in_flight`, `u64::MAX` while it is
    /// empty: most channel-ticks retire nothing, and this is all they read.
    next_finish: u64,
    next_refresh_at: u64,
    /// The first tick at or after the current cycle at which the channel
    /// can issue, retire or refresh: every tick before it would leave the
    /// channel as it is, so stepping visits only this one.
    next_tick: u64,
}

impl Channel {
    fn new(cfg: &DramConfig) -> Self {
        Self {
            targets: Vec::with_capacity(2 * cfg.queue_depth),
            queue: Vec::with_capacity(2 * cfg.queue_depth),
            head: 0,
            known_misses: 0,
            open_rows: vec![None; cfg.banks_per_channel],
            banks: vec![Bank::default(); cfg.banks_per_channel],
            bus_free_at: 0,
            in_flight: VecDeque::with_capacity(MAX_IN_FLIGHT),
            next_finish: u64::MAX,
            next_refresh_at: cfg.t_refi,
            next_tick: 0,
        }
    }

    /// Returns the channel to the state [`Channel::new`] builds, keeping
    /// its buffers.
    fn reset(&mut self, cfg: &DramConfig) {
        self.targets.clear();
        self.queue.clear();
        self.head = 0;
        self.known_misses = 0;
        self.open_rows.fill(None);
        self.banks.fill(Bank::default());
        self.bus_free_at = 0;
        self.in_flight.clear();
        self.next_finish = u64::MAX;
        self.next_refresh_at = cfg.t_refi;
        self.next_tick = 0;
    }

    fn pending(&self) -> usize {
        self.queue.len() - self.head
    }

    fn push(&mut self, target: (usize, u64), request: Pending) {
        if self.queue.len() == self.queue.capacity() {
            self.targets.drain(..self.head);
            self.queue.drain(..self.head);
            self.head = 0;
        }
        self.targets.push(target);
        self.queue.push(request);
    }

    /// Removes pending request `i` (0 = oldest), keeping the rest in order.
    fn take(&mut self, i: usize) -> ((usize, u64), Pending) {
        let at = self.head + i;
        let taken = (self.targets[at], self.queue[at]);
        // Close the gap from whichever side has fewer requests to move.
        let newer = self.pending() - 1 - i;
        if i <= newer {
            if i > 0 {
                self.targets.copy_within(self.head..at, self.head + 1);
                self.queue.copy_within(self.head..at, self.head + 1);
            }
            self.head += 1;
        } else {
            if newer > 0 {
                self.targets.copy_within(at + 1.., at);
                self.queue.copy_within(at + 1.., at);
            }
            self.targets.pop();
            self.queue.pop();
        }
        if self.head == self.queue.len() {
            self.targets.clear();
            self.queue.clear();
            self.head = 0;
        }
        taken
    }

    /// FR-FCFS: prefer the oldest row-hit request; otherwise the oldest
    /// request overall. Issues at most one transaction.
    fn issue_one(&mut self, cfg: &DramConfig, stats: &mut DramStats, now: u64) {
        // All-bank refresh: when tREFI elapses, close every row and block
        // the channel for tRFC (counted as activates for energy).
        if cfg.t_refi > 0 && now >= self.next_refresh_at {
            self.next_refresh_at = now + cfg.t_refi;
            let busy_until = now + cfg.t_rfc;
            self.open_rows.fill(None);
            for bank in &mut self.banks {
                bank.ready_at = bank.ready_at.max(busy_until);
            }
            self.bus_free_at = self.bus_free_at.max(busy_until);
            stats.refreshes += 1;
            return;
        }
        if self.pending() == 0 || self.in_flight.len() >= MAX_IN_FLIGHT {
            return;
        }
        let open_rows = &self.open_rows;
        let hit = self.targets[self.head + self.known_misses..]
            .iter()
            .position(|&(bank, row)| open_rows[bank] == Some(row));
        // A hit leaves the open rows as they are; the oldest request, a
        // miss, activates a row.
        self.known_misses = hit.map_or(0, |i| self.known_misses + i);
        let ((b, row), p) = self.take(self.known_misses);
        let bank = &mut self.banks[b];
        let open_row = &mut self.open_rows[b];
        let col_ready = match *open_row {
            Some(open) if open == row => {
                stats.row_hits += 1;
                now.max(bank.ready_at)
            }
            Some(_) => {
                stats.row_misses += 1;
                stats.activates += 1;
                let start = now.max(bank.ready_at).max(bank.activated_at + cfg.t_ras);
                let activated = start + cfg.t_rp;
                *open_row = Some(row);
                bank.activated_at = activated;
                activated + cfg.t_rcd
            }
            None => {
                stats.row_misses += 1;
                stats.activates += 1;
                let start = now.max(bank.ready_at);
                *open_row = Some(row);
                bank.activated_at = start;
                start + cfg.t_rcd
            }
        };
        let data_start = (col_ready + cfg.t_cl).max(self.bus_free_at);
        let finish = data_start + cfg.t_burst;
        self.bus_free_at = finish;
        bank.ready_at = col_ready + cfg.t_burst;
        if self.in_flight.is_empty() {
            self.next_finish = finish;
        }
        self.in_flight.push_back(Completion {
            id: p.id,
            addr: p.addr,
            finish_cycle: finish,
            enqueued_at: p.enqueued_at,
            is_write: p.is_write,
        });
    }

    /// Moves every transaction finished by `cycle` to `out`, in issue
    /// order — which, finishes being nondecreasing, is all of them.
    fn retire(&mut self, cycle: u64, stats: &mut DramStats, out: &mut Vec<Completion>) {
        if self.next_finish > cycle {
            return;
        }
        while let Some(&c) = self.in_flight.front() {
            if c.finish_cycle > cycle {
                self.next_finish = c.finish_cycle;
                return;
            }
            self.in_flight.pop_front();
            let latency = c.finish_cycle - c.enqueued_at;
            if c.is_write {
                stats.writes += 1;
            } else {
                stats.reads += 1;
            }
            stats.total_latency += latency;
            stats.max_latency = stats.max_latency.max(latency);
            out.push(c);
        }
        self.next_finish = u64::MAX;
    }

    /// Runs tick `now`: issue, then retire what finishes by the end of it.
    /// Afterwards `next_tick` is the next tick that can change anything:
    /// the next refresh, the tick before the front transaction finishes,
    /// or the next one when a pending request can issue.
    fn visit(
        &mut self,
        cfg: &DramConfig,
        stats: &mut DramStats,
        now: u64,
        out: &mut Vec<Completion>,
    ) {
        self.issue_one(cfg, stats, now);
        self.retire(now + 1, stats, out);
        let mut next = self.next_finish.saturating_sub(1);
        if cfg.t_refi > 0 {
            next = next.min(self.next_refresh_at);
        }
        if self.pending() > 0 && self.in_flight.len() < MAX_IN_FLIGHT {
            next = now + 1;
        }
        self.next_tick = next;
    }
}

/// A cycle-level multi-channel DRAM simulator.
///
/// Reads model the KV-streaming traffic of the generation phase. Writes
/// are timed and counted like reads; no model in this workspace issues
/// one, since the accelerator only streams KV data out of DRAM.
///
/// # Examples
///
/// ```
/// use topick_dram::{DramConfig, DramSim};
///
/// let mut sim = DramSim::new(DramConfig::hbm2());
/// assert!(sim.try_enqueue(1, 0x0));
/// let done = sim.run_until_idle(10_000);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].finish_cycle > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramConfig,
    map: AddressMap,
    channels: Vec<Channel>,
    /// Retired transactions; `[read..]` are not yet popped. The buffer
    /// empties whenever the caller has popped them all.
    completions: Vec<Completion>,
    read: usize,
    cycle: u64,
    stats: DramStats,
}

impl DramSim {
    /// Creates a simulator for the given configuration.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        let map = AddressMap::new(&cfg);
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        Self {
            // Everything in flight, the most a caller that pops after every
            // few ticks finds waiting.
            completions: Vec::with_capacity(MAX_IN_FLIGHT * cfg.channels),
            read: 0,
            cfg,
            map,
            channels,
            cycle: 0,
            stats: DramStats::default(),
        }
    }

    /// Returns the simulator to the state [`DramSim::new`] builds for its
    /// configuration — cycle 0, empty queues, closed rows, zeroed
    /// statistics, nothing to pop — keeping every buffer it has grown.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.reset(&self.cfg);
        }
        self.completions.clear();
        self.read = 0;
        self.cycle = 0;
        self.stats = DramStats::default();
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Current simulation cycle (memory clock).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Enqueues a read of one burst at `addr`. Returns `false` when the
    /// target channel queue is full (caller should retry next cycle).
    #[inline]
    pub fn try_enqueue(&mut self, id: u64, addr: u64) -> bool {
        self.enqueue_inner(id, addr, false)
    }

    /// Enqueues a write of one burst at `addr`. Returns `false` when the
    /// target channel queue is full.
    pub fn try_enqueue_write(&mut self, id: u64, addr: u64) -> bool {
        self.enqueue_inner(id, addr, true)
    }

    #[inline]
    fn enqueue_inner(&mut self, id: u64, addr: u64, is_write: bool) -> bool {
        let loc = self.map.decode(addr);
        let ch = &mut self.channels[loc.channel];
        if ch.pending() >= self.cfg.queue_depth {
            return false;
        }
        let request = Pending {
            id,
            addr,
            enqueued_at: self.cycle,
            is_write,
        };
        ch.push((loc.bank, loc.row), request);
        ch.next_tick = ch.next_tick.min(self.cycle);
        true
    }

    /// Number of requests still queued or in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.pending() + c.in_flight.len())
            .sum()
    }

    /// Whether all traffic has drained (completions may still be unread).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Advances one memory-clock cycle: schedules at most one transaction
    /// per channel and retires finished bursts. The same as `advance(1)`.
    pub fn tick(&mut self) {
        self.advance(1);
    }

    /// Advances `ticks` memory-clock cycles, each of which schedules at
    /// most one transaction per channel and retires the bursts finished by
    /// its end — the same as calling [`tick`](Self::tick) `ticks` times,
    /// down to the order in which [`pop_completed`](Self::pop_completed)
    /// reports completions.
    ///
    /// Each channel runs only the ticks at which it can issue, retire or
    /// refresh, so idle channels and the cycles between a burst's issue
    /// and its finish cost nothing. Completions retired during the span
    /// are sorted once by `(finish, id, addr, enqueued_at, is_write)`:
    /// when `t_cl + t_burst > 0` a transaction retired at tick `t`
    /// finishes at `t + 1`, so that is the order per-tick sorting gives.
    /// Without CAS or burst time a transaction can finish on its issue
    /// tick, and the span is stepped one tick at a time.
    pub fn advance(&mut self, ticks: u64) {
        if self.read > 0 {
            self.completions.drain(..self.read);
            self.read = 0;
        }
        let end = self.cycle.saturating_add(ticks);
        let span = if self.cfg.t_cl + self.cfg.t_burst == 0 {
            1
        } else {
            ticks
        };
        while self.cycle < end {
            let to = self.cycle.saturating_add(span).min(end);
            let first = self.completions.len();
            // A channel's issue reads only its own in-flight count, so
            // running one channel through the span before the next equals
            // running every channel through each tick.
            for ch in &mut self.channels {
                while ch.next_tick < to {
                    let now = ch.next_tick;
                    ch.visit(&self.cfg, &mut self.stats, now, &mut self.completions);
                }
            }
            // A span usually retires nothing or one channel's bursts, which
            // are already in order; sort only the spans that are not.
            let fresh = &mut self.completions[first..];
            if !fresh.is_sorted_by_key(Completion::order_key) {
                fresh.sort_unstable_by_key(Completion::order_key);
            }
            self.cycle = to;
        }
    }

    /// Pops the next completed transaction, if any.
    #[inline]
    pub fn pop_completed(&mut self) -> Option<Completion> {
        let c = *self.completions.get(self.read)?;
        self.read += 1;
        if self.read == self.completions.len() {
            self.completions.clear();
            self.read = 0;
        }
        Some(c)
    }

    /// Runs until all outstanding traffic drains (or `max_cycles` elapse),
    /// returning every completion produced.
    ///
    /// # Panics
    ///
    /// Panics if traffic fails to drain within `max_cycles` — that would be
    /// a scheduling deadlock, which the model cannot produce by design.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        let deadline = self.cycle.saturating_add(max_cycles);
        while !self.is_idle() {
            assert!(
                self.cycle < deadline,
                "dram failed to drain in {max_cycles} cycles"
            );
            self.tick();
            while let Some(c) = self.pop_completed() {
                out.push(c);
            }
        }
        while let Some(c) = self.pop_completed() {
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_read_latency_is_activate_plus_cas() {
        let cfg = DramConfig::test_tiny();
        let (t_rcd, t_cl, t_burst) = (cfg.t_rcd, cfg.t_cl, cfg.t_burst);
        let mut sim = DramSim::new(cfg);
        assert!(sim.try_enqueue(7, 0));
        let done = sim.run_until_idle(1000);
        assert_eq!(done.len(), 1);
        // Issued at cycle 0: closed bank -> tRCD + tCL + tBURST.
        assert_eq!(done[0].finish_cycle, t_rcd + t_cl + t_burst);
        assert_eq!(done[0].id, 7);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let cfg = DramConfig::test_tiny();
        // Same channel/bank/row: sequential columns.
        let col_stride = 32 * 2; // access * channels * banks
        let mut sim = DramSim::new(cfg.clone());
        for i in 0..4u64 {
            assert!(sim.try_enqueue(i, i * col_stride));
        }
        sim.run_until_idle(10_000);
        assert_eq!(sim.stats().row_hits, 3);
        assert_eq!(sim.stats().row_misses, 1);

        // Alternating rows on the same bank: all conflicts.
        let row_stride = col_stride * u64::from(cfg.row_bytes / cfg.access_bytes);
        let mut sim2 = DramSim::new(cfg);
        for i in 0..4u64 {
            assert!(sim2.try_enqueue(i, (i % 2) * row_stride));
        }
        sim2.run_until_idle(10_000);
        // FR-FCFS reorders [r0,r1,r0,r1] into [r0,r0,r1,r1]: 2 hits.
        assert_eq!(sim2.stats().row_hits, 2);
        assert!(sim2.stats().activates >= 2);
        assert!(sim2.stats().mean_latency() > sim.stats().mean_latency());
    }

    #[test]
    fn channels_work_in_parallel() {
        let cfg = DramConfig::hbm2();
        let mut sim = DramSim::new(cfg.clone());
        // One burst per channel: all should finish at the same cycle.
        for i in 0..8u64 {
            assert!(sim.try_enqueue(i, i * u64::from(cfg.access_bytes)));
        }
        let done = sim.run_until_idle(1000);
        assert_eq!(done.len(), 8);
        let first = done[0].finish_cycle;
        assert!(done.iter().all(|c| c.finish_cycle == first));
    }

    #[test]
    fn queue_backpressure() {
        let cfg = DramConfig::test_tiny();
        let depth = cfg.queue_depth;
        let mut sim = DramSim::new(cfg);
        let mut accepted = 0;
        for i in 0..depth as u64 + 5 {
            if sim.try_enqueue(i, 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, depth);
        // After draining, the queue opens up again.
        sim.run_until_idle(100_000);
        assert!(sim.try_enqueue(999, 0));
    }

    #[test]
    fn streaming_throughput_approaches_bus_limit() {
        // Sequential addresses across all channels: the controller should
        // sustain close to one burst per channel-cycle.
        let cfg = DramConfig::hbm2();
        let mut sim = DramSim::new(cfg.clone());
        let bursts = 1024u64;
        let mut issued = 0u64;
        let mut next_addr = 0u64;
        while issued < bursts || !sim.is_idle() {
            while issued < bursts && sim.try_enqueue(issued, next_addr) {
                issued += 1;
                next_addr += u64::from(cfg.access_bytes);
            }
            sim.tick();
            while sim.pop_completed().is_some() {}
        }
        let bw = sim.stats().achieved_bandwidth_gbps(&cfg, sim.cycle());
        // Peak is 256 GB/s; streaming row-hit traffic should get close.
        let peak = cfg.total_bandwidth_gbps();
        assert!(bw > 0.6 * peak, "bandwidth {bw} GB/s too low (peak {peak})");
    }

    #[test]
    fn refresh_fires_periodically_and_blocks_banks() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 100;
        cfg.t_rfc = 20;
        let mut sim = DramSim::new(cfg.clone());
        // Idle ticking across several tREFI periods still performs refresh.
        for _ in 0..350 {
            sim.tick();
        }
        assert!(sim.stats().refreshes >= 3, "{}", sim.stats().refreshes);
        // A request right after refresh sees a closed bank.
        assert!(sim.try_enqueue(1, 0));
        let done = sim.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(sim.stats().row_misses, 1);
    }

    #[test]
    fn refresh_disabled_when_trefi_zero() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 0;
        let mut sim = DramSim::new(cfg);
        for _ in 0..10_000 {
            sim.tick();
        }
        assert_eq!(sim.stats().refreshes, 0);
    }

    #[test]
    fn writes_complete_and_are_counted() {
        let cfg = DramConfig::hbm2();
        let mut sim = DramSim::new(cfg.clone());
        assert!(sim.try_enqueue(1, 0));
        assert!(sim.try_enqueue_write(2, 4096));
        let done = sim.run_until_idle(10_000);
        assert_eq!(done.len(), 2);
        let w = done.iter().find(|c| c.id == 2).unwrap();
        assert!(w.is_write);
        assert_eq!(sim.stats().reads, 1);
        assert_eq!(sim.stats().writes, 1);
        assert_eq!(sim.stats().bytes(&cfg), 64);
        assert_eq!(sim.stats().read_bytes(&cfg), 32);
        assert_eq!(sim.stats().write_bytes(&cfg), 32);
    }

    #[test]
    fn stats_latency_consistency() {
        let cfg = DramConfig::hbm2();
        let mut sim = DramSim::new(cfg);
        for i in 0..64u64 {
            sim.try_enqueue(i, i * 4096);
            sim.tick();
        }
        let done = sim.run_until_idle(100_000);
        assert_eq!(done.len() as u64, sim.stats().reads);
        let total: u64 = done.iter().map(|c| c.finish_cycle - c.enqueued_at).sum();
        assert_eq!(total, sim.stats().total_latency);
    }

    #[test]
    fn run_until_idle_takes_any_budget_after_a_tick() {
        let mut sim = DramSim::new(DramConfig::test_tiny());
        sim.tick();
        assert!(sim.try_enqueue(1, 0));
        let done = sim.run_until_idle(u64::MAX);
        assert_eq!(done.len(), 1);
        assert!(sim.is_idle());
    }

    /// Refresh on, reads and writes across banks and rows, popped in
    /// batches: what one simulator reports over its whole run.
    fn run_traffic(sim: &mut DramSim) -> (Vec<Completion>, DramStats, u64) {
        let mut done = Vec::new();
        for i in 0..200u64 {
            let addr = (i.wrapping_mul(0x9E37_79B9) % (1 << 20)) & !31;
            if i % 5 == 0 {
                sim.try_enqueue_write(i, addr);
            } else {
                sim.try_enqueue(i, addr);
            }
            sim.advance(1 + i % 7);
            done.extend(std::iter::from_fn(|| sim.pop_completed()));
        }
        done.extend(sim.run_until_idle(100_000));
        (done, sim.stats().clone(), sim.cycle())
    }

    #[test]
    fn reset_equals_a_fresh_simulator() {
        let mut cfg = DramConfig::test_tiny();
        cfg.t_refi = 37;
        cfg.t_rfc = 5;
        let fresh = run_traffic(&mut DramSim::new(cfg.clone()));
        let mut sim = DramSim::new(cfg);
        run_traffic(&mut sim);
        // Leave traffic queued, in flight and unpopped before the reset.
        for i in 0..8 {
            sim.try_enqueue(i, i * 4096);
        }
        sim.advance(20);
        assert!(!sim.is_idle());
        sim.reset();
        assert_eq!((sim.cycle(), sim.outstanding()), (0, 0));
        assert_eq!(sim.pop_completed(), None);
        assert_eq!(run_traffic(&mut sim), fresh);
    }
}
