//! The cycle-level ToPick engine: out-of-order step-0 score calculation
//! over on-demand DRAM chunk requests, followed by the step-1 weighted
//! value sum — plus the baseline, estimate-only and blocking variants used
//! in the paper's evaluation.
//!
//! The simulator co-simulates function and timing: every pruning decision
//! is one `topick_core::Estimator::evaluate` call — the estimator the
//! reference pruner runs — made in DRAM *arrival order*, exactly as the
//! hardware's RPDU sees it. All four modes run the same lane pipeline
//! ([`ToPickAccelerator::attention_cost`] holds the table of what differs).

use std::cell::Cell;
use std::mem;

use topick_core::{
    softmax, weighted_value_sum, CoreError, Decision, Estimator, EstimatorScratch, KeptToken,
    QMatrix, QVector, Rows, ScanOrder,
};
use topick_dram::DramSim;
use topick_energy::{EnergyBreakdown, EventCounts, EventEnergies};

use crate::config::{AccelConfig, AccelMode, CLOCK_RATIO};
use crate::layout::KvLayout;
use crate::result::{AttentionCost, AttentionStepResult};

const V_FLAG: u64 = 1 << 63;

/// Accelerator cycles the Margin Generator takes before step 0 of a
/// chunked mode starts. The paper gives no figure for it; 4 is this
/// model's assumption, and `run_attention_is_pinned_bit_for_bit` pins the
/// cycle counts it yields.
const MARGIN_GEN_LATENCY: u64 = 4;

// A request id carries the chunk and the burst index in eight bits each;
// `RunState::new` rejects a layout that needs more.
fn k_req_id(token: usize, chunk: u32, burst: u64) -> u64 {
    ((token as u64) << 16) | (u64::from(chunk) << 8) | burst
}

fn v_req_id(token: usize, burst: u64) -> u64 {
    V_FLAG | ((token as u64) << 16) | burst
}

fn decode_req(id: u64) -> (bool, usize, u32, u64) {
    let is_v = id & V_FLAG != 0;
    let id = id & !V_FLAG;
    let token = (id >> 16) as usize;
    let chunk = ((id >> 8) & 0xFF) as u32;
    let burst = id & 0xFF;
    (is_v, token, chunk, burst)
}

/// The ToPick accelerator simulator.
///
/// # Examples
///
/// ```
/// use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
/// use topick_core::{PrecisionConfig, QMatrix, QVector};
///
/// let pc = PrecisionConfig::paper();
/// let query = QVector::quantize(&vec![0.5; 64], pc);
/// let rows: Vec<f32> = (0..32).flat_map(|i| vec![0.01 * i as f32; 64]).collect();
/// let keys = QMatrix::quantize_flat(&rows, 64, pc)?;
/// let values = vec![1.0f32; 32 * 64];
///
/// let accel = ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?);
/// let result = accel.run_attention(&query, &keys, topick_core::Rows::new(&values, 64))?;
/// assert!(result.cycles > 0);
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ToPickAccelerator {
    cfg: AccelConfig,
}

/// Energy of one run: DRAM from the simulator's statistics over its elapsed
/// cycles, buffer and compute from the on-chip events at the 65 nm node.
pub(crate) fn energy_breakdown(events: &EventCounts, dram: &DramSim) -> EnergyBreakdown {
    let energies = EventEnergies::node_65nm();
    EnergyBreakdown {
        dram_pj: dram.stats().energy_pj(dram.config(), dram.cycle()),
        buffer_pj: events.buffer_energy_pj(&energies),
        compute_pj: events.compute_energy_pj(&energies),
    }
}

/// One FIFO per lane, all in one buffer: lane `l` owns the ring
/// `buf[l * cap..(l + 1) * cap]`. A token is in at most one place of its
/// lane's pipeline at a time, so `cap` — the most tokens one lane holds —
/// bounds every queue, and a call sizes them all once.
#[derive(Debug, Default)]
struct LaneQueues<T> {
    buf: Vec<T>,
    cap: usize,
    rings: Vec<Ring>,
    /// Entries over all lanes, so a cycle with nothing queued skips them.
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Ring {
    /// `buf` index of the lane's first slot and of its front entry.
    start: usize,
    head: usize,
    len: usize,
    /// Bursts of the front transfer already issued, when the queue is a
    /// stream of multi-burst DRAM transfers.
    burst: u64,
}

impl<T: Copy + Default> LaneQueues<T> {
    /// The queues emptied, with room for `cap` entries in each lane: the
    /// buffer grows only past the largest size it has had. A slot is always
    /// written before it is read, so stale entries never show.
    fn reset(mut self, lanes: usize, cap: usize) -> Self {
        if self.buf.len() < lanes * cap {
            self.buf.resize(lanes * cap, T::default());
        }
        self.cap = cap;
        self.rings.clear();
        self.rings.extend((0..lanes).map(|lane| Ring {
            start: lane * cap,
            head: lane * cap,
            len: 0,
            burst: 0,
        }));
        self.len = 0;
        self
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `buf` index of entry `i` of a lane's queue.
    #[inline]
    fn slot(&self, ring: &Ring, i: usize) -> usize {
        let at = ring.head + i;
        if at >= ring.start + self.cap {
            at - self.cap
        } else {
            at
        }
    }

    #[inline]
    fn front(&self, lane: usize) -> Option<T> {
        let ring = &self.rings[lane];
        (ring.len > 0).then(|| self.buf[ring.head])
    }

    #[inline]
    fn push_back(&mut self, lane: usize, item: T) {
        let ring = self.rings[lane];
        assert!(ring.len < self.cap, "lane queue over capacity");
        let at = self.slot(&ring, ring.len);
        self.buf[at] = item;
        self.rings[lane].len += 1;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self, lane: usize) -> Option<T> {
        let item = self.front(lane)?;
        let next = self.slot(&self.rings[lane], 1);
        let ring = &mut self.rings[lane];
        ring.head = next;
        ring.len -= 1;
        self.len -= 1;
        Some(item)
    }

    /// Index of the first entry of `lane`'s queue that satisfies `pred`.
    fn position(&self, lane: usize, pred: impl Fn(T) -> bool) -> Option<usize> {
        let ring = &self.rings[lane];
        (0..ring.len).find(|&i| pred(self.buf[self.slot(ring, i)]))
    }

    /// Removes entry `i` of `lane`'s queue, keeping the rest in order: the
    /// `i` entries ahead of it move back one place.
    #[inline]
    fn remove(&mut self, lane: usize, i: usize) -> Option<T> {
        let ring = self.rings[lane];
        if i >= ring.len {
            return None;
        }
        let item = self.buf[self.slot(&ring, i)];
        for j in (0..i).rev() {
            let (from, to) = (self.slot(&ring, j), self.slot(&ring, j + 1));
            self.buf[to] = self.buf[from];
        }
        self.pop_front(lane);
        Some(item)
    }

    /// Tries to issue the next burst of `lane`'s front transfer; returns
    /// the transfer once its last burst has been accepted. First K chunks,
    /// next K chunks, full K rows and V rows all issue through this.
    #[inline]
    fn issue(
        &mut self,
        lane: usize,
        dram: &mut DramSim,
        bursts_per_transfer: u64,
        request: impl Fn(T, u64) -> (u64, u64),
    ) -> Option<T> {
        let front = self.front(lane)?;
        let burst = self.rings[lane].burst;
        let (id, addr) = request(front, burst);
        if !dram.try_enqueue(id, addr) {
            return None;
        }
        if burst + 1 < bursts_per_transfer {
            self.rings[lane].burst = burst + 1;
            return None;
        }
        self.rings[lane].burst = 0;
        self.pop_front(lane)
    }
}

/// The buffers of [`RunState`] that a thread hands from one call to the
/// next, plus the estimator's working memory. A call takes them out for
/// its duration and puts them back when it succeeds, so a call that
/// panics or errors drops them instead of leaving half-run state for the
/// next one.
#[derive(Debug, Default)]
struct Spare {
    /// Reused only by a call whose DRAM configuration equals its own.
    dram: Option<DramSim>,
    k_arrivals: Vec<u8>,
    v_arrivals: Vec<u8>,
    k_first: LaneQueues<usize>,
    k_next: LaneQueues<(usize, u32)>,
    k_ready: LaneQueues<(usize, u32)>,
    v_rows: LaneQueues<usize>,
    v_ready: LaneQueues<usize>,
    sb_used: Vec<usize>,
    inflight: Vec<usize>,
    scratch: EstimatorScratch,
}

thread_local! {
    static SPARE: Cell<Spare> = Cell::new(Spare::default());
}

/// `v` emptied and refilled with `len` defaults, keeping its allocation.
fn zeroed<T: Copy + Default>(mut v: Vec<T>, len: usize) -> Vec<T> {
    v.clear();
    v.resize(len, T::default());
    v
}

/// Mutable machinery shared by every mode during one run, sized once from
/// the context and the configuration — a thread's first run allocates the
/// same number of times at any context, and later runs reset the buffers
/// an earlier one left in [`Spare`].
#[derive(Debug)]
struct RunState<'a> {
    cfg: &'a AccelConfig,
    dram: DramSim,
    layout: KvLayout,
    cycle: u64,
    events: EventCounts,
    /// Bursts that complete one K transfer / one V row.
    k_bursts: u8,
    v_bursts: u8,
    chunks_per_row: usize,
    /// Bursts arrived per K transfer, indexed `token · chunks_per_row + chunk`.
    k_arrivals: Vec<u8>,
    /// Bursts arrived per V row, indexed by token.
    v_arrivals: Vec<u8>,
    /// Per lane: the tokens whose first K chunk is still to be requested,
    /// in scan order.
    k_first: LaneQueues<usize>,
    /// Per lane: `(token, chunks_known)` of survivors whose next chunk is
    /// still to be requested.
    k_next: LaneQueues<(usize, u32)>,
    /// K chunk evaluations whose data is fully on-chip, per lane.
    k_ready: LaneQueues<(usize, u32)>,
    /// Per lane: kept tokens whose V row is still to be requested.
    v_rows: LaneQueues<usize>,
    /// V rows fully on-chip awaiting the weighted-sum MAC, per lane.
    v_ready: LaneQueues<usize>,
    /// Per lane: scoreboard entries held, and (blocking mode) tokens
    /// issued but not yet resolved.
    sb_used: Vec<usize>,
    inflight: Vec<usize>,
}

impl<'a> RunState<'a> {
    /// Builds the run's state from the buffers in `spare`, leaving it the
    /// estimator's scratch; [`recycle`](Self::recycle) hands them back.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a transfer is longer, or a
    /// row has more chunks, than a request id can name; `spare` is then
    /// untouched.
    fn new(
        cfg: &'a AccelConfig,
        layout: KvLayout,
        n: usize,
        chunks_per_row: u32,
        start_cycle: u64,
        spare: &mut Spare,
    ) -> Result<Self, CoreError> {
        let id_field = |count: u64| {
            u8::try_from(count).map_err(|_| {
                CoreError::InvalidConfig(
                    "a K chunk, K row or V row of more than 255 DRAM bursts (or a row of \
                     more than 255 chunks) does not fit a request id",
                )
            })
        };
        let chunks_per_row = usize::from(id_field(u64::from(chunks_per_row))?);
        let k_bursts = id_field(layout.k_bursts_per_chunk())?;
        let v_bursts = id_field(layout.v_bursts_per_row())?;
        let (lanes, per_lane) = (cfg.lanes, n.div_ceil(cfg.lanes));
        let dram = match spare.dram.take() {
            Some(mut dram) if *dram.config() == cfg.dram => {
                dram.reset();
                dram
            }
            _ => DramSim::new(cfg.dram.clone()),
        };
        Ok(Self {
            cfg,
            dram,
            layout,
            cycle: start_cycle,
            events: EventCounts::default(),
            k_bursts,
            v_bursts,
            chunks_per_row,
            k_arrivals: zeroed(mem::take(&mut spare.k_arrivals), n * chunks_per_row),
            v_arrivals: zeroed(mem::take(&mut spare.v_arrivals), n),
            k_first: mem::take(&mut spare.k_first).reset(lanes, per_lane),
            k_next: mem::take(&mut spare.k_next).reset(lanes, per_lane),
            k_ready: mem::take(&mut spare.k_ready).reset(lanes, per_lane),
            v_rows: mem::take(&mut spare.v_rows).reset(lanes, per_lane),
            v_ready: mem::take(&mut spare.v_ready).reset(lanes, per_lane),
            sb_used: zeroed(mem::take(&mut spare.sb_used), lanes),
            inflight: zeroed(mem::take(&mut spare.inflight), lanes),
        })
    }

    /// Hands the run's buffers back to `spare` for the thread's next call.
    fn recycle(self, spare: &mut Spare) {
        spare.dram = Some(self.dram);
        spare.k_arrivals = self.k_arrivals;
        spare.v_arrivals = self.v_arrivals;
        spare.k_first = self.k_first;
        spare.k_next = self.k_next;
        spare.k_ready = self.k_ready;
        spare.v_rows = self.v_rows;
        spare.v_ready = self.v_ready;
        spare.sb_used = self.sb_used;
        spare.inflight = self.inflight;
    }

    /// Advances one accelerator cycle: runs the DRAM for [`CLOCK_RATIO`]
    /// memory cycles and routes completions to the lane ready queues.
    fn advance_cycle(&mut self) {
        let lanes = self.cfg.lanes;
        self.dram.advance(CLOCK_RATIO);
        while let Some(c) = self.dram.pop_completed() {
            self.events.buffer_write_bytes += u64::from(self.cfg.dram.access_bytes);
            let (is_v, token, chunk, _burst) = decode_req(c.id);
            if is_v {
                let cnt = &mut self.v_arrivals[token];
                *cnt += 1;
                if *cnt == self.v_bursts {
                    self.v_ready.push_back(token % lanes, token);
                }
            } else {
                let cnt = &mut self.k_arrivals[token * self.chunks_per_row + chunk as usize];
                *cnt += 1;
                if *cnt == self.k_bursts {
                    // chunks_known for the evaluation = chunk index + 1.
                    self.k_ready.push_back(token % lanes, (token, chunk + 1));
                }
            }
        }
        self.cycle += 1;
    }

    /// Step 0, the lane pipeline of §4: every cycle each lane issues at most
    /// one DRAM burst (a requested next chunk before a new first chunk), the
    /// DRAM advances, and each lane hands at most one arrived transfer to
    /// `arrive`, whose decision retires the token or requests its next
    /// chunk. With `chunks_per_row == 1` nothing ever needs a scoreboard
    /// entry and `arrive` never asks for more, so the same loop streams
    /// full-precision rows. A cycle in which no lane has a transfer to
    /// issue, or none has an arrival to evaluate, skips that lane loop.
    fn k_phase(
        &mut self,
        n: usize,
        order: ScanOrder,
        chunks_per_row: u32,
        blocking: bool,
        mut arrive: impl FnMut(&mut EventCounts, usize, u32) -> Decision,
    ) {
        let lanes = self.cfg.lanes;
        let layout = self.layout;
        let bursts = layout.k_bursts_per_chunk();
        let request = |(tok, chunk): (usize, u32), burst: u64| {
            (
                k_req_id(tok, chunk, burst),
                layout.k_addr(tok, chunk, burst),
            )
        };
        for tok in order.indices(n) {
            self.k_first.push_back(tok % lanes, tok);
        }
        let mut resolved = 0usize;
        let mut guard = 0u64;

        while resolved < n {
            guard += 1;
            assert!(
                guard < 100_000_000,
                "step 0 failed to converge: resolved {resolved}/{n}"
            );
            // (1) Issue at most one DRAM request per lane, next-chunk first.
            // In blocking mode a lane may not start a new first chunk while
            // it still has an unresolved token in flight.
            let issuing = !(self.k_next.is_empty() && self.k_first.is_empty());
            for (lane, unresolved) in self.inflight.iter_mut().enumerate().take_while(|_| issuing) {
                if self.k_next.front(lane).is_some() {
                    self.k_next.issue(lane, &mut self.dram, bursts, request);
                } else if !(blocking && *unresolved > 0)
                    && self
                        .k_first
                        .issue(lane, &mut self.dram, bursts, |tok, burst| {
                            request((tok, 0), burst)
                        })
                        .is_some()
                {
                    *unresolved += 1;
                }
            }

            // (2) DRAM progress.
            self.advance_cycle();

            // (3) Compute: each lane evaluates at most one arrived chunk.
            if self.k_ready.is_empty() {
                continue;
            }
            for lane in 0..lanes {
                // A surviving first-chunk evaluation needs a scoreboard
                // entry. When the scoreboard is full, the RPDU services a
                // deeper-chunk refinement instead (it already owns an entry
                // and will free it) — otherwise a stalled first chunk at the
                // queue head would deadlock the lane.
                let ready = &mut self.k_ready;
                let needs_entry = |ck: u32| ck == 1 && ck < chunks_per_row;
                let pick = match ready.front(lane) {
                    None => continue,
                    Some((_, ck))
                        if needs_entry(ck) && self.sb_used[lane] >= self.cfg.scoreboard_entries =>
                    {
                        match ready.position(lane, |(_, ck)| ck > 1) {
                            Some(i) => i,
                            None => continue, // all arrivals need entries; wait
                        }
                    }
                    Some(_) => 0,
                };
                let (tok, chunks_known) = ready.remove(lane, pick).expect("index valid");
                if arrive(&mut self.events, tok, chunks_known) == Decision::RequestNextChunk {
                    self.sb_used[lane] += usize::from(chunks_known == 1);
                    self.k_next.push_back(lane, (tok, chunks_known));
                } else {
                    self.sb_used[lane] -= usize::from(chunks_known > 1);
                    self.inflight[lane] -= 1;
                    resolved += 1;
                }
            }
        }
    }

    /// Step 1: fetches the V rows of the kept tokens and MACs them.
    fn v_phase(&mut self, kept: &[KeptToken], dim: usize, row_bytes: u64) {
        let lanes = self.cfg.lanes;
        let layout = self.layout;
        for k in kept {
            self.v_rows.push_back(k.index % lanes, k.index);
        }
        let mut maced = 0usize;
        let mut guard = 0u64;
        while maced < kept.len() {
            guard += 1;
            assert!(guard < 100_000_000, "step 1 failed to converge");
            let issuing = !self.v_rows.is_empty();
            for lane in (0..lanes).take_while(|_| issuing) {
                self.v_rows.issue(
                    lane,
                    &mut self.dram,
                    layout.v_bursts_per_row(),
                    |tok, burst| (v_req_id(tok, burst), layout.v_addr(tok, burst)),
                );
            }
            self.advance_cycle();
            if self.v_ready.is_empty() {
                continue;
            }
            for lane in 0..lanes {
                if self.v_ready.pop_front(lane).is_some() {
                    self.events.mac_12x12 += dim as u64;
                    self.events.buffer_read_bytes += row_bytes;
                    maced += 1;
                }
            }
        }
    }
}

impl ToPickAccelerator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(cfg: AccelConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Simulates one attention step (one query over one head's KV cache):
    /// [`attention_cost`](Self::attention_cost) plus the one thing that
    /// reads value *data* — the output vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the query length differs
    /// from the key dimension or the values are not one row per key of that
    /// same width, and [`CoreError::InvalidConfig`] /
    /// [`CoreError::InvalidThreshold`] exactly where
    /// [`attention_cost`](Self::attention_cost) does: a configuration field
    /// the model cannot run with, or a head so wide that one transfer takes
    /// more than 255 DRAM bursts.
    pub fn run_attention(
        &self,
        query: &QVector,
        keys: &QMatrix,
        values: Rows<'_>,
    ) -> Result<AttentionStepResult, CoreError> {
        // A broken configuration is reported before a broken operand.
        self.cfg.validate()?;
        keys.check_attention([query], Some(values))?;
        let cost = self.attention_cost(query, keys)?;
        Ok(AttentionStepResult {
            cycles: cost.cycles,
            output: weighted_value_sum(&cost.kept, values),
            kept: cost.kept.iter().map(|&(t, _)| t).collect(),
            prune: cost.prune,
            events: cost.events,
            dram_stats: cost.dram_stats,
            dram_cycles: cost.dram_cycles,
            energy: cost.energy,
        })
    }

    /// Simulates what one attention step *costs* — cycles, pruning, DRAM
    /// traffic, events and energy — from the query and keys alone:
    /// validate → lay K out for the mode → K phase → V phase → result.
    /// The V phase fetches the kept tokens' rows through the DRAM model but
    /// never reads their contents, so no value matrix is needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the query length differs
    /// from the key dimension, and [`CoreError::InvalidConfig`] /
    /// [`CoreError::InvalidThreshold`] if a configuration field was assigned
    /// a value the model cannot run with (zero `lanes`, a chunked mode
    /// with zero `scoreboard_entries`, a threshold outside `(0, 1)`, zero
    /// DRAM channels, banks, bus width, burst duration or queue depth, a
    /// DRAM burst that is not a power of two or a DRAM row shorter than
    /// one burst) or the head is so wide that one K chunk, K
    /// row or V row takes more than 255 DRAM bursts.
    pub fn attention_cost(
        &self,
        query: &QVector,
        keys: &QMatrix,
    ) -> Result<AttentionCost, CoreError> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let n = keys.check_attention([query], None)?;
        let (dim, pc) = (keys.dim(), cfg.precision);
        let row_bytes = pc.row_bytes(dim);

        // The four modes are one pipeline under four settings. Unchunked K
        // rows are one full-width transfer, so an arrival carries every
        // chunk; threshold 0 never prunes; Baseline alone runs a softmax
        // pass over all scores after step 0 instead of estimating in it.
        #[rustfmt::skip]
        let (chunked, order, threshold, blocking, softmax_pass) = match cfg.mode {
            AccelMode::Baseline     => (false, ScanOrder::Sequential, 0.0,           false, true),
            AccelMode::EstimateOnly => (false, cfg.order,             cfg.threshold, false, false),
            AccelMode::OutOfOrder   => (true,  cfg.order,             cfg.threshold, false, false),
            AccelMode::Blocking     => (true,  cfg.order,             cfg.threshold, true,  false),
        };
        let (chunks_per_row, k_bytes, start_cycle) = if chunked {
            (pc.num_chunks(), pc.chunk_bytes(dim), MARGIN_GEN_LATENCY)
        } else {
            (1, row_bytes, 0)
        };
        let burst = u64::from(cfg.dram.access_bytes);
        let layout = KvLayout::new(n, k_bytes, row_bytes, chunks_per_row, burst);
        let mut spare = SPARE.with(Cell::take);
        let mut st = RunState::new(cfg, layout, n, chunks_per_row, start_cycle, &mut spare)?;
        let mut estimator = Estimator::new(query, keys, pc, threshold, &mut spare.scratch)?;
        let arrive = |events: &mut EventCounts, tok: usize, arrived: u32| {
            events.buffer_read_bytes += k_bytes;
            if chunked {
                events.mac_12x4 += dim as u64;
                events.exp += 1; // PEC partial-exp
                events.scoreboard += if arrived > 1 { 2 } else { 1 };
                estimator.evaluate(tok, arrived)
            } else {
                events.mac_12x12 += dim as u64;
                events.exp += u64::from(!softmax_pass);
                estimator.evaluate(tok, pc.num_chunks())
            }
        };
        st.k_phase(n, order, chunks_per_row, blocking, arrive);
        let (kept, mut stats) = estimator.finish();
        if !chunked {
            // A full row carries every chunk of its token.
            stats.chunk_fetches.fill(n as u64);
        }
        if softmax_pass {
            // One EXP per token through the lanes' 2 EXP units each.
            st.events.exp += n as u64;
            st.cycle += (n as u64).div_ceil(cfg.lanes as u64 * 2);
        }

        let scores: Vec<f64> = kept.iter().map(|k| k.score_real).collect();
        let probs = softmax(&scores);
        // Probability Generator: one EXP per surviving token.
        st.events.exp += kept.len() as u64;
        st.v_phase(&kept, dim, row_bytes);
        let cost = AttentionCost {
            cycles: st.cycle,
            kept: kept.iter().map(|k| k.index).zip(probs).collect(),
            prune: stats,
            energy: energy_breakdown(&st.events, &st.dram),
            events: st.events,
            dram_stats: st.dram.stats().clone(),
            dram_cycles: st.dram.cycle(),
        };
        st.recycle(&mut spare);
        SPARE.with(|cell| cell.set(spare));
        Ok(cost)
    }
}
