//! Property tests of the DRAM simulator: every accepted request completes,
//! accounting is exact, and timing never violates device minimums.

mod reference;

use proptest::prelude::*;
use reference::HeapDramSim;
use topick_dram::{Completion, DramConfig, DramSim};

fn drain(mut pop: impl FnMut() -> Option<Completion>) -> Vec<Completion> {
    std::iter::from_fn(&mut pop).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted request completes exactly once with its own id, and
    /// the statistics agree with the completion stream.
    #[test]
    fn all_requests_complete_exactly_once(
        addrs in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let cfg = DramConfig::hbm2();
        let mut sim = DramSim::new(cfg);
        let mut accepted = Vec::new();
        let mut completions = Vec::new();
        let mut queue: std::collections::VecDeque<(u64, u64)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (i as u64, a & !31)) // burst aligned
            .collect();
        let mut guard = 0u64;
        while !queue.is_empty() || !sim.is_idle() {
            guard += 1;
            prop_assert!(guard < 1_000_000, "simulation did not drain");
            while let Some(&(id, addr)) = queue.front() {
                if sim.try_enqueue(id, addr) {
                    accepted.push(id);
                    queue.pop_front();
                } else {
                    break;
                }
            }
            sim.tick();
            while let Some(c) = sim.pop_completed() {
                completions.push(c.id);
            }
        }
        completions.sort_unstable();
        accepted.sort_unstable();
        prop_assert_eq!(&completions, &accepted);
        prop_assert_eq!(sim.stats().reads, addrs.len() as u64);
    }

    /// No request can complete faster than CAS latency + burst time, and
    /// latency accounting matches the completion stream.
    #[test]
    fn latency_lower_bound_holds(
        addrs in prop::collection::vec(0u64..100_000, 1..64),
    ) {
        let cfg = DramConfig::hbm2();
        let floor = cfg.t_cl + cfg.t_burst;
        let mut sim = DramSim::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            // Feed slowly so queue acceptance is guaranteed.
            while !sim.try_enqueue(i as u64, a & !31) {
                sim.tick();
            }
        }
        let done = sim.run_until_idle(1_000_000);
        let mut total = 0u64;
        for c in &done {
            let lat = c.finish_cycle - c.enqueued_at;
            prop_assert!(lat >= floor, "latency {} below floor {}", lat, floor);
            total += lat;
        }
        prop_assert_eq!(total, sim.stats().total_latency);
        prop_assert!(sim.stats().max_latency >= floor);
    }

    /// Row hits + misses equals total reads; hit rate is in [0, 1].
    #[test]
    fn hit_accounting_is_consistent(
        addrs in prop::collection::vec(0u64..262_144, 1..128),
    ) {
        let mut sim = DramSim::new(DramConfig::hbm2());
        for (i, &a) in addrs.iter().enumerate() {
            while !sim.try_enqueue(i as u64, a & !31) {
                sim.tick();
            }
        }
        sim.run_until_idle(1_000_000);
        let s = sim.stats();
        prop_assert_eq!(s.row_hits + s.row_misses, s.reads);
        let rate = s.row_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        prop_assert!(s.activates >= 1);
        prop_assert!(s.activates <= s.row_misses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `DramSim` against the heap-based controller it replaced, over random
    /// geometry (non-power-of-two channels, banks and columns), timing
    /// (zero CAS, burst and activate delays; refresh off or every few
    /// cycles) and interleavings of reads, writes and ticks, with ids that
    /// repeat so ties are broken past the id: after every tick both report
    /// the same completions in the same order, the same statistics and the
    /// same cycle.
    #[test]
    fn controller_equals_the_heap_reference(
        channels in 1usize..=5,
        banks in 1usize..=7,
        queue_depth in 1usize..=8,
        burst_log2 in 0u32..=6,
        columns in 1u32..=5,
        timing in prop::collection::vec(0u64..=4, 5),
        t_refi in 0u64..=40,
        t_rfc in 0u64..=12,
        ops in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        let access_bytes = 1u32 << burst_log2;
        let cfg = DramConfig {
            channels,
            banks_per_channel: banks,
            access_bytes,
            row_bytes: access_bytes * columns,
            t_rcd: timing[0],
            t_rp: timing[1],
            t_cl: timing[2],
            t_burst: timing[3],
            t_ras: timing[4] * 3,
            queue_depth,
            // Every third case runs without refresh; the others refresh
            // every 4..=40 cycles.
            t_refi: if t_refi.is_multiple_of(3) { 0 } else { t_refi.max(4) },
            t_rfc,
            ..DramConfig::hbm2()
        };
        // Four rows per bank, so requests hit, conflict and meet closed
        // banks.
        let span = u64::from(cfg.row_bytes) * (channels * banks) as u64 * 4;
        let mut sim = DramSim::new(cfg.clone());
        let mut reference = HeapDramSim::new(cfg);
        let check = |sim: &mut DramSim, reference: &mut HeapDramSim| {
            sim.tick();
            reference.tick();
            let got = drain(|| sim.pop_completed());
            prop_assert_eq!(&got, &drain(|| reference.pop_completed()));
            prop_assert_eq!(sim.stats(), reference.stats());
            prop_assert_eq!(sim.cycle(), reference.cycle());
        };
        for op in ops {
            // Half the requests go to four fixed bursts, so equal ids,
            // addresses and finish cycles meet.
            let addr = if op & 0x80 == 0 {
                (op >> 8) % span
            } else {
                (op >> 8) % 4 * u64::from(access_bytes)
            };
            let id = (op >> 48) % 4;
            match op % 8 {
                0..=2 => prop_assert_eq!(sim.try_enqueue(id, addr), reference.try_enqueue(id, addr)),
                3 => prop_assert_eq!(
                    sim.try_enqueue_write(id, addr),
                    reference.try_enqueue_write(id, addr)
                ),
                _ => check(&mut sim, &mut reference),
            }
        }
        // Drain; refresh every few cycles can hold a channel for long.
        for _ in 0..2_000 {
            if sim.is_idle() && reference.is_idle() {
                break;
            }
            check(&mut sim, &mut reference);
        }
        prop_assert_eq!(sim.is_idle(), reference.is_idle());
    }
}
