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

use std::collections::VecDeque;

use topick_core::{
    softmax, weighted_value_sum, CoreError, Decision, Estimator, KeptToken, QMatrix, QVector, Rows,
    ScanOrder,
};
use topick_dram::DramSim;
use topick_energy::{EnergyBreakdown, EventCounts, EventEnergies};

use crate::config::{AccelConfig, AccelMode};
use crate::layout::KvLayout;
use crate::result::{AttentionCost, AttentionStepResult};

const V_FLAG: u64 = 1 << 63;

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

/// One lane's in-order stream of multi-burst DRAM transfers: first K chunks,
/// next K chunks, full K rows and V rows all issue through this.
#[derive(Debug, Clone, Default)]
struct LaneStream<T> {
    queue: VecDeque<T>,
    /// Bursts of the front transfer already issued.
    burst: u64,
}

impl<T: Copy> LaneStream<T> {
    /// Tries to issue the front transfer's next burst; returns the transfer
    /// once its last burst has been accepted.
    fn issue(
        &mut self,
        dram: &mut DramSim,
        bursts_per_transfer: u64,
        request: impl Fn(T, u64) -> (u64, u64),
    ) -> Option<T> {
        let (id, addr) = request(*self.queue.front()?, self.burst);
        if !dram.try_enqueue(id, addr) {
            return None;
        }
        self.burst += 1;
        if self.burst < bursts_per_transfer {
            return None;
        }
        self.burst = 0;
        self.queue.pop_front()
    }
}

/// Mutable machinery shared by every mode during one run.
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
    /// K chunk evaluations whose data is fully on-chip, per lane.
    k_ready: Vec<VecDeque<(usize, u32)>>,
    /// V rows fully on-chip awaiting the weighted-sum MAC, per lane.
    v_ready: Vec<VecDeque<usize>>,
}

impl<'a> RunState<'a> {
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a transfer is longer, or a
    /// row has more chunks, than a request id can name.
    fn new(
        cfg: &'a AccelConfig,
        layout: KvLayout,
        n: usize,
        chunks_per_row: u32,
        start_cycle: u64,
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
        Ok(Self {
            cfg,
            dram: DramSim::new(cfg.dram.clone()),
            layout,
            cycle: start_cycle,
            events: EventCounts::default(),
            k_bursts,
            v_bursts,
            chunks_per_row,
            k_arrivals: vec![0; n * chunks_per_row],
            v_arrivals: vec![0; n],
            k_ready: vec![VecDeque::new(); cfg.lanes],
            v_ready: vec![VecDeque::new(); cfg.lanes],
        })
    }

    /// Advances one accelerator cycle: runs the DRAM for `clock_ratio`
    /// memory cycles and routes completions to the lane ready queues.
    fn advance_cycle(&mut self) {
        let lanes = self.cfg.lanes;
        for _ in 0..self.cfg.clock_ratio {
            self.dram.tick();
        }
        while let Some(c) = self.dram.pop_completed() {
            self.events.buffer_write_bytes += u64::from(self.cfg.dram.access_bytes);
            let (is_v, token, chunk, _burst) = decode_req(c.id);
            if is_v {
                let cnt = &mut self.v_arrivals[token];
                *cnt += 1;
                if *cnt == self.v_bursts {
                    self.v_ready[token % lanes].push_back(token);
                }
            } else {
                let cnt = &mut self.k_arrivals[token * self.chunks_per_row + chunk as usize];
                *cnt += 1;
                if *cnt == self.k_bursts {
                    // chunks_known for the evaluation = chunk index + 1.
                    self.k_ready[token % lanes].push_back((token, chunk + 1));
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
    /// full-precision rows.
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
        let mut first = vec![LaneStream::default(); lanes];
        for tok in order.indices(n) {
            first[tok % lanes].queue.push_back((tok, 0));
        }
        let mut next = vec![LaneStream::default(); lanes];
        let mut sb_used = vec![0usize; lanes];
        // In blocking mode a lane may not start a new first chunk while it
        // still has an unresolved token in flight.
        let mut inflight = vec![0usize; lanes];
        let mut resolved = 0usize;
        let mut guard = 0u64;

        while resolved < n {
            guard += 1;
            assert!(
                guard < 100_000_000,
                "step 0 failed to converge: resolved {resolved}/{n}"
            );
            // (1) Issue at most one DRAM request per lane, next-chunk first.
            for lane in 0..lanes {
                if !next[lane].queue.is_empty() {
                    next[lane].issue(&mut self.dram, bursts, request);
                } else if !(blocking && inflight[lane] > 0)
                    && first[lane].issue(&mut self.dram, bursts, request).is_some()
                {
                    inflight[lane] += 1;
                }
            }

            // (2) DRAM progress.
            self.advance_cycle();

            // (3) Compute: each lane evaluates at most one arrived chunk.
            for lane in 0..lanes {
                // A surviving first-chunk evaluation needs a scoreboard
                // entry. When the scoreboard is full, the RPDU services a
                // deeper-chunk refinement instead (it already owns an entry
                // and will free it) — otherwise a stalled first chunk at the
                // queue head would deadlock the lane.
                let queue = &mut self.k_ready[lane];
                let needs_entry = |ck: u32| ck == 1 && ck < chunks_per_row;
                let pick = match queue.front() {
                    None => continue,
                    Some(&(_, ck))
                        if needs_entry(ck) && sb_used[lane] >= self.cfg.scoreboard_entries =>
                    {
                        match queue.iter().position(|&(_, ck)| ck > 1) {
                            Some(i) => i,
                            None => continue, // all arrivals need entries; wait
                        }
                    }
                    Some(_) => 0,
                };
                let (tok, chunks_known) = queue.remove(pick).expect("index valid");
                if arrive(&mut self.events, tok, chunks_known) == Decision::RequestNextChunk {
                    sb_used[lane] += usize::from(chunks_known == 1);
                    next[lane].queue.push_back((tok, chunks_known));
                } else {
                    sb_used[lane] -= usize::from(chunks_known > 1);
                    inflight[lane] -= 1;
                    resolved += 1;
                }
            }
        }
    }

    /// Step 1: fetches the V rows of the kept tokens and MACs them.
    fn v_phase(&mut self, kept: &[KeptToken], dim: usize, row_bytes: u64) {
        let lanes = self.cfg.lanes;
        let layout = self.layout;
        let mut rows = vec![LaneStream::default(); lanes];
        for k in kept {
            rows[k.index % lanes].queue.push_back(k.index);
        }
        let mut maced = 0usize;
        let mut guard = 0u64;
        while maced < kept.len() {
            guard += 1;
            assert!(guard < 100_000_000, "step 1 failed to converge");
            for lane in &mut rows {
                lane.issue(&mut self.dram, layout.v_bursts_per_row(), |tok, burst| {
                    (v_req_id(tok, burst), layout.v_addr(tok, burst))
                });
            }
            self.advance_cycle();
            for lane in 0..lanes {
                if self.v_ready[lane].pop_front().is_some() {
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
    /// a value the model cannot run with (zero `lanes` or `clock_ratio`, a
    /// chunked mode with zero `scoreboard_entries`, a threshold outside
    /// `(0, 1)`) or the head is so wide that one K chunk, K row or V row
    /// takes more than 255 DRAM bursts.
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
            (pc.num_chunks(), pc.chunk_bytes(dim), cfg.margin_gen_latency)
        } else {
            (1, row_bytes, 0)
        };
        let burst = u64::from(cfg.dram.access_bytes);
        let layout = KvLayout::new(n, k_bytes, row_bytes, chunks_per_row, burst);
        let mut st = RunState::new(cfg, layout, n, chunks_per_row, start_cycle)?;

        let mut bounds = Vec::new();
        let mut estimator = Estimator::new(query, keys, pc, threshold, &mut bounds)?;
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
        Ok(AttentionCost {
            cycles: st.cycle,
            kept: kept.iter().map(|k| k.index).zip(probs).collect(),
            prune: stats,
            energy: energy_breakdown(&st.events, &st.dram),
            events: st.events,
            dram_stats: st.dram.stats().clone(),
            dram_cycles: st.dram.cycle(),
        })
    }
}
