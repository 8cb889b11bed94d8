//! The DRAM controller as it was before each channel kept its own in-flight
//! FIFO: one global binary heap of in-flight transactions and FR-FCFS over
//! the full pending entries. Kept verbatim, less what the differential
//! test does not drive (`run_until_idle`, `outstanding`, the unit tests),
//! as the model `DramSim` must match completion for completion.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use topick_dram::{AddressMap, Completion, DramConfig, DramStats, Location};

#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    addr: u64,
    loc: Location,
    enqueued_at: u64,
    is_write: bool,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
    activated_at: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    queue: VecDeque<Pending>,
    banks: Vec<Bank>,
    bus_free_at: u64,
    in_flight: usize,
    next_refresh_at: u64,
}

/// In-flight transaction key: `(finish, id, addr, enqueued_at, channel,
/// is_write)` — ordered by finish cycle.
type InFlight = (u64, u64, u64, u64, usize, bool);

/// The heap-based controller.
#[derive(Debug, Clone)]
pub struct HeapDramSim {
    cfg: DramConfig,
    map: AddressMap,
    channels: Vec<Channel>,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    completions: VecDeque<Completion>,
    cycle: u64,
    stats: DramStats,
}

impl HeapDramSim {
    pub fn new(cfg: DramConfig) -> Self {
        let map = AddressMap::new(&cfg);
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                queue: VecDeque::new(),
                banks: vec![Bank::default(); cfg.banks_per_channel],
                bus_free_at: 0,
                in_flight: 0,
                next_refresh_at: cfg.t_refi,
            })
            .collect();
        Self {
            cfg,
            map,
            channels,
            in_flight: BinaryHeap::new(),
            completions: VecDeque::new(),
            cycle: 0,
            stats: DramStats::default(),
        }
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    pub fn try_enqueue(&mut self, id: u64, addr: u64) -> bool {
        self.enqueue_inner(id, addr, false)
    }

    pub fn try_enqueue_write(&mut self, id: u64, addr: u64) -> bool {
        self.enqueue_inner(id, addr, true)
    }

    fn enqueue_inner(&mut self, id: u64, addr: u64, is_write: bool) -> bool {
        let loc = self.map.decode(addr);
        let ch = &mut self.channels[loc.channel];
        if ch.queue.len() >= self.cfg.queue_depth {
            return false;
        }
        ch.queue.push_back(Pending {
            id,
            addr,
            loc,
            enqueued_at: self.cycle,
            is_write,
        });
        true
    }

    pub fn is_idle(&self) -> bool {
        self.channels.iter().map(|c| c.queue.len()).sum::<usize>() + self.in_flight.len() == 0
    }

    pub fn tick(&mut self) {
        let now = self.cycle;
        for ch_idx in 0..self.channels.len() {
            self.issue_one(ch_idx, now);
        }
        self.cycle += 1;
        while let Some(&Reverse((finish, id, addr, enq, ch, is_write))) = self.in_flight.peek() {
            if finish > self.cycle {
                break;
            }
            self.in_flight.pop();
            self.channels[ch].in_flight -= 1;
            let latency = finish - enq;
            if is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            self.stats.total_latency += latency;
            self.stats.max_latency = self.stats.max_latency.max(latency);
            self.completions.push_back(Completion {
                id,
                addr,
                finish_cycle: finish,
                enqueued_at: enq,
                is_write,
            });
        }
    }

    pub fn pop_completed(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// FR-FCFS: prefer the oldest row-hit request; otherwise the oldest
    /// request overall. Issues at most one transaction.
    fn issue_one(&mut self, ch_idx: usize, now: u64) {
        let cfg = &self.cfg;
        let ch = &mut self.channels[ch_idx];
        // All-bank refresh: when tREFI elapses, close every row and block
        // the channel for tRFC (counted as activates for energy).
        if cfg.t_refi > 0 && now >= ch.next_refresh_at {
            ch.next_refresh_at = now + cfg.t_refi;
            let busy_until = now + cfg.t_rfc;
            for bank in &mut ch.banks {
                bank.open_row = None;
                bank.ready_at = bank.ready_at.max(busy_until);
            }
            ch.bus_free_at = ch.bus_free_at.max(busy_until);
            self.stats.refreshes += 1;
            return;
        }
        if ch.queue.is_empty() {
            return;
        }
        // A real controller keeps a bounded set of transactions in flight
        // (its CAM); commands for different banks pipeline freely within
        // that window, which is what lets activates overlap.
        if ch.in_flight >= 16 {
            return;
        }
        let pick = ch
            .queue
            .iter()
            .position(|p| ch.banks[p.loc.bank].open_row == Some(p.loc.row))
            .unwrap_or(0);
        let p = ch.queue.remove(pick).expect("index valid");
        let bank = &mut ch.banks[p.loc.bank];
        let col_ready = match bank.open_row {
            Some(row) if row == p.loc.row => {
                self.stats.row_hits += 1;
                now.max(bank.ready_at)
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.stats.activates += 1;
                let start = now.max(bank.ready_at).max(bank.activated_at + cfg.t_ras);
                let activated = start + cfg.t_rp;
                bank.open_row = Some(p.loc.row);
                bank.activated_at = activated;
                activated + cfg.t_rcd
            }
            None => {
                self.stats.row_misses += 1;
                self.stats.activates += 1;
                let start = now.max(bank.ready_at);
                bank.open_row = Some(p.loc.row);
                bank.activated_at = start;
                start + cfg.t_rcd
            }
        };
        let data_start = (col_ready + cfg.t_cl).max(ch.bus_free_at);
        let finish = data_start + cfg.t_burst;
        ch.bus_free_at = finish;
        bank.ready_at = col_ready + cfg.t_burst;
        ch.in_flight += 1;
        self.in_flight.push(Reverse((
            finish,
            p.id,
            p.addr,
            p.enqueued_at,
            ch_idx,
            p.is_write,
        )));
    }
}
