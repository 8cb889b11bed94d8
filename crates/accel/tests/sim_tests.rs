//! Integration tests of the cycle-level accelerator: functional
//! correctness against exact attention, estimator soundness in arrival
//! order, and the architectural claims (speedup ordering of the modes).

use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
use topick_core::{
    exact_probabilities, weighted_value_sum, CoreError, PrecisionConfig, QMatrix, QVector, Rows,
};
use topick_model::{SynthInstance, SynthProfile};

const ALL_MODES: [AccelMode; 4] = [
    AccelMode::Baseline,
    AccelMode::EstimateOnly,
    AccelMode::OutOfOrder,
    AccelMode::Blocking,
];

fn quantized_instance(n: usize, seed: u64) -> (QVector, QMatrix, Vec<f32>) {
    let pc = PrecisionConfig::paper();
    let inst = SynthInstance::generate(&SynthProfile::realistic(n, 64), seed);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty");
    (q, keys, inst.into_values())
}

fn run(mode: AccelMode, thr: f64, n: usize, seed: u64) -> topick_accel::AttentionStepResult {
    let (q, keys, values) = quantized_instance(n, seed);
    let accel = ToPickAccelerator::new(AccelConfig::paper(mode, thr).expect("valid thr"));
    accel
        .run_attention(&q, &keys, Rows::new(&values, 64))
        .expect("valid run")
}

#[test]
fn baseline_output_matches_exact_attention() {
    let (q, keys, values) = quantized_instance(128, 1);
    let accel = ToPickAccelerator::new(AccelConfig::baseline());
    let values = Rows::new(&values, 64);
    let result = accel.run_attention(&q, &keys, values).unwrap();
    let probs = exact_probabilities(&q, &keys);
    let pairs: Vec<(usize, f64)> = probs.into_iter().enumerate().collect();
    let expect = weighted_value_sum(&pairs, values);
    for (a, b) in result.output.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
    assert_eq!(result.kept.len(), 128);
}

#[test]
fn out_of_order_output_close_to_exact() {
    let (q, keys, values) = quantized_instance(256, 2);
    let thr = 1e-4;
    let accel = ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, thr).unwrap());
    let values = Rows::new(&values, 64);
    let result = accel.run_attention(&q, &keys, values).unwrap();
    let probs = exact_probabilities(&q, &keys);
    let pairs: Vec<(usize, f64)> = probs.into_iter().enumerate().collect();
    let expect = weighted_value_sum(&pairs, values);
    for (a, b) in result.output.iter().zip(&expect) {
        assert!((a - b).abs() < 0.1, "{a} vs {b}");
    }
}

#[test]
fn soundness_in_arrival_order() {
    // No token with true probability above thr may be pruned, regardless of
    // the DRAM arrival order driving the decisions.
    for seed in 0..4 {
        let (q, keys, values) = quantized_instance(192, 100 + seed);
        let thr = 1e-3;
        let accel = ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, thr).unwrap());
        let result = accel
            .run_attention(&q, &keys, Rows::new(&values, 64))
            .unwrap();
        let exact = exact_probabilities(&q, &keys);
        for (t, &p) in exact.iter().enumerate() {
            if p > thr {
                assert!(
                    result.kept.contains(&t),
                    "seed {seed}: token {t} with p={p} pruned"
                );
            }
        }
    }
}

#[test]
fn topick_is_faster_than_baseline() {
    let n = 512;
    let baseline = run(AccelMode::Baseline, 0.5, n, 7);
    let topick = run(AccelMode::OutOfOrder, 1e-3, n, 7);
    let speedup = topick.speedup_vs(&baseline);
    assert!(
        speedup > 1.5,
        "expected >1.5x speedup, got {speedup:.2} ({} vs {} cycles)",
        baseline.cycles,
        topick.cycles
    );
}

#[test]
fn mode_ordering_matches_paper() {
    // Baseline slowest; estimate-only in between; full ToPick fastest.
    let n = 512;
    let baseline = run(AccelMode::Baseline, 0.5, n, 8);
    let est = run(AccelMode::EstimateOnly, 1e-3, n, 8);
    let ooo = run(AccelMode::OutOfOrder, 1e-3, n, 8);
    assert!(
        est.cycles < baseline.cycles,
        "estimate-only should beat baseline"
    );
    assert!(
        ooo.cycles < est.cycles,
        "out-of-order should beat estimate-only"
    );
}

#[test]
fn blocking_is_slower_than_out_of_order_with_same_traffic_shape() {
    let n = 256;
    let ooo = run(AccelMode::OutOfOrder, 1e-3, n, 9);
    let blocking = run(AccelMode::Blocking, 1e-3, n, 9);
    assert!(
        blocking.cycles > ooo.cycles,
        "blocking {} should exceed ooo {}",
        blocking.cycles,
        ooo.cycles
    );
    // Both prune V heavily; K chunk traffic is within 2x of each other
    // (decision order differs slightly).
    let pc = PrecisionConfig::paper();
    let k_ooo = ooo.prune.k_bits_fetched(64, &pc);
    let k_blk = blocking.prune.k_bits_fetched(64, &pc);
    let ratio = k_ooo as f64 / k_blk as f64;
    assert!(ratio > 0.5 && ratio < 2.0, "K traffic ratio {ratio}");
}

#[test]
fn energy_breakdown_is_dram_dominated() {
    // The generation phase is memory-bound: DRAM should dominate energy in
    // the baseline (paper Fig. 10b shows ~70-90% DRAM).
    let baseline = run(AccelMode::Baseline, 0.5, 512, 10);
    let (d, _s, _c) = baseline.energy.fractions();
    assert!(d > 0.5, "DRAM fraction {d} unexpectedly low");
}

#[test]
fn topick_saves_energy() {
    let baseline = run(AccelMode::Baseline, 0.5, 512, 11);
    let topick = run(AccelMode::OutOfOrder, 1e-3, 512, 11);
    let gain = topick.energy_gain_vs(&baseline);
    assert!(gain > 1.3, "energy gain {gain:.2} too small");
}

#[test]
fn traffic_accounting_consistent_with_dram() {
    // Bits counted by PruneStats must equal the bytes the DRAM actually
    // moved (modulo per-burst padding).
    let result = run(AccelMode::OutOfOrder, 1e-3, 128, 12);
    let pc = PrecisionConfig::paper();
    let k_bits = result.prune.k_bits_fetched(64, &pc);
    let v_bits = result.prune.v_bits_fetched(64, &pc);
    let dram_bits = result.dram_stats.reads * 32 * 8;
    assert_eq!(dram_bits, k_bits + v_bits, "DRAM traffic mismatch");
}

#[test]
fn single_token_context_works() {
    let pc = PrecisionConfig::paper();
    let q = QVector::quantize(&vec![0.5; 64], pc);
    let keys = QMatrix::quantize_flat(&[0.5; 64], 64, pc).unwrap();
    let values = vec![2.0f32; 64];
    for mode in [
        AccelMode::Baseline,
        AccelMode::EstimateOnly,
        AccelMode::OutOfOrder,
        AccelMode::Blocking,
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).unwrap());
        let r = accel
            .run_attention(&q, &keys, Rows::new(&values, 64))
            .unwrap();
        assert_eq!(r.kept, vec![0], "{mode:?}");
        assert!((r.output[0] - 2.0).abs() < 1e-5, "{mode:?}");
    }
}

#[test]
fn dimension_mismatch_rejected() {
    let pc = PrecisionConfig::paper();
    let q = QVector::quantize(&[0.5; 32], pc);
    let keys = QMatrix::quantize_flat(&[0.5; 64], 64, pc).unwrap();
    let values = vec![1.0f32; 64];
    let accel = ToPickAccelerator::new(AccelConfig::baseline());
    assert!(accel
        .run_attention(&q, &keys, Rows::new(&values, 64))
        .is_err());
}

#[test]
fn wider_head_dimension_is_supported() {
    // OPT/LLaMa shapes use 128-dim heads: chunks span multiple bursts.
    let pc = PrecisionConfig::paper();
    let inst = SynthInstance::generate(&SynthProfile::realistic(64, 128), 13);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), 128, pc).unwrap();
    let accel = ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap());
    let r = accel.run_attention(&q, &keys, inst.values()).unwrap();
    assert!(!r.kept.is_empty());
    assert!(r.cycles > 0);
}

/// Runs a 32-token step under `cfg` after `edit` assigned one of its public
/// fields; every such run must end in a typed error, not a panic or a spin.
fn run_edited(mode: AccelMode, edit: impl FnOnce(&mut AccelConfig)) -> CoreError {
    let (q, keys, values) = quantized_instance(32, 5);
    let mut cfg = AccelConfig::paper(mode, 1e-3).unwrap();
    edit(&mut cfg);
    ToPickAccelerator::new(cfg)
        .run_attention(&q, &keys, Rows::new(&values, 64))
        .expect_err("the edited field must be rejected")
}

#[test]
fn zero_lanes_is_a_typed_error() {
    for mode in ALL_MODES {
        let err = run_edited(mode, |cfg| cfg.lanes = 0);
        assert!(matches!(err, CoreError::InvalidConfig(rule) if rule.contains("lanes")));
    }
}

#[test]
fn zero_clock_ratio_is_a_typed_error() {
    for mode in ALL_MODES {
        let err = run_edited(mode, |cfg| cfg.clock_ratio = 0);
        assert!(matches!(err, CoreError::InvalidConfig(rule) if rule.contains("clock_ratio")));
    }
}

#[test]
fn zero_scoreboard_entries_is_a_typed_error_in_chunked_modes_only() {
    for mode in [AccelMode::OutOfOrder, AccelMode::Blocking] {
        let err = run_edited(mode, |cfg| cfg.scoreboard_entries = 0);
        assert!(matches!(err, CoreError::InvalidConfig(rule) if rule.contains("scoreboard")));
    }
    // Full-row modes never touch the scoreboard.
    for mode in [AccelMode::Baseline, AccelMode::EstimateOnly] {
        let (q, keys, values) = quantized_instance(32, 5);
        let mut cfg = AccelConfig::paper(mode, 1e-3).unwrap();
        cfg.scoreboard_entries = 0;
        let r = ToPickAccelerator::new(cfg).run_attention(&q, &keys, Rows::new(&values, 64));
        assert!(r.is_ok(), "{mode:?}");
    }
}

#[test]
fn threshold_assigned_outside_the_unit_interval_is_a_typed_error() {
    for thr in [0.0, 1.0, -0.5, f64::NAN] {
        let err = run_edited(AccelMode::OutOfOrder, |cfg| cfg.threshold = thr);
        assert!(matches!(err, CoreError::InvalidThreshold(_)), "{thr}");
    }
}

/// Request ids name a burst in eight bits, so a head whose row takes more
/// than 255 bursts used to alias into the chunk field, never complete and
/// spin to the convergence guard. It is rejected before anything runs; the
/// widest row that still fits runs.
#[test]
fn a_row_longer_than_the_burst_field_is_a_typed_error() {
    let pc = PrecisionConfig::paper();
    let run_at = |mode: AccelMode, dim: usize| {
        let q = QVector::quantize(&vec![0.5; dim], pc);
        let keys = QMatrix::quantize_flat(&vec![0.25; 2 * dim], dim, pc).unwrap();
        let values = vec![1.0f32; 2 * dim];
        let cfg = AccelConfig::paper(mode, 1e-3).unwrap();
        ToPickAccelerator::new(cfg).run_attention(&q, &keys, Rows::new(&values, dim))
    };
    for mode in ALL_MODES {
        // 5504 dims x 12 bits = 8256 B = 258 bursts of 32 B.
        let err = run_at(mode, 5504).expect_err("258 bursts do not fit");
        assert!(matches!(err, CoreError::InvalidConfig(rule) if rule.contains("255 DRAM bursts")));
        // 5440 dims = 8160 B = 255 bursts.
        assert_eq!(run_at(mode, 5440).expect("255 bursts fit").kept.len(), 2);
    }
}

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        ws.into_iter().for_each(|w| self.word(w));
    }
}

/// Every number one `run_attention` call reports, folded into one word.
fn result_digest(r: &topick_accel::AttentionStepResult) -> u64 {
    let mut h = Fnv::new();
    h.words([r.cycles, r.dram_cycles, r.kept.len() as u64]);
    h.words(r.kept.iter().map(|&t| t as u64));
    h.words(r.prune.chunk_fetches.iter().copied());
    h.words(r.prune.pruned_at.iter().copied());
    h.word(r.prune.kept as u64);
    let e = &r.events;
    h.words([
        e.mac_12x4,
        e.mac_12x12,
        e.exp,
        e.scoreboard,
        e.buffer_read_bytes,
        e.buffer_write_bytes,
    ]);
    let d = &r.dram_stats;
    h.words([d.reads, d.row_hits, d.row_misses, d.total_latency]);
    h.words(r.output.iter().map(|x| u64::from(x.to_bits())));
    h.words([
        r.energy.dram_pj.to_bits(),
        r.energy.buffer_pj.to_bits(),
        r.energy.compute_pj.to_bits(),
    ]);
    h.0
}

#[test]
fn run_attention_is_pinned_bit_for_bit() {
    use AccelMode::{Baseline, Blocking, EstimateOnly, OutOfOrder};
    // Captured at the commit before the estimator / lane-pipeline refactor;
    // a change to any constant is a change to the modeled hardware.
    // (mode, context, seed) -> digest, all at dim 64, threshold 1e-3.
    const DIM64: [(AccelMode, usize, u64, u64); 32] = [
        (Baseline, 1, 11, 0x1d74_25bc_ed19_ff6a),
        (Baseline, 1, 12, 0x3eb9_a862_94d4_cabc),
        (Baseline, 17, 11, 0xf14f_17a1_8a93_31fb),
        (Baseline, 17, 12, 0x4047_93cd_c575_726a),
        (Baseline, 256, 11, 0x22bb_39d9_efb6_ccb1),
        (Baseline, 256, 12, 0x4cfb_d4d7_d699_3e54),
        (Baseline, 1024, 11, 0x0172_fb62_72eb_2efd),
        (Baseline, 1024, 12, 0x8335_98d0_323e_2a41),
        (EstimateOnly, 1, 11, 0x4e18_e8d3_ebcb_6dd7),
        (EstimateOnly, 1, 12, 0xd721_76ba_5810_83d1),
        (EstimateOnly, 17, 11, 0xdb6f_cdf6_9f47_40d1),
        (EstimateOnly, 17, 12, 0x51a8_a7d0_97be_d2b0),
        (EstimateOnly, 256, 11, 0x9674_17f0_63fe_8308),
        (EstimateOnly, 256, 12, 0xc08f_42ac_e805_d3e3),
        (EstimateOnly, 1024, 11, 0x2e0a_e767_ab7f_bf22),
        (EstimateOnly, 1024, 12, 0x633f_2490_c625_c3b2),
        (OutOfOrder, 1, 11, 0x6255_c296_8b18_7450),
        (OutOfOrder, 1, 12, 0x706b_787c_4495_f17e),
        (OutOfOrder, 17, 11, 0x3549_30a2_83e7_7512),
        (OutOfOrder, 17, 12, 0xbc26_f36c_32e4_3204),
        (OutOfOrder, 256, 11, 0xc027_3c84_c359_023e),
        (OutOfOrder, 256, 12, 0x1278_15be_99e5_6ac6),
        (OutOfOrder, 1024, 11, 0x38be_537c_358a_cd94),
        (OutOfOrder, 1024, 12, 0x5760_8d62_67fe_a98f),
        (Blocking, 1, 11, 0x6255_c296_8b18_7450),
        (Blocking, 1, 12, 0x706b_787c_4495_f17e),
        (Blocking, 17, 11, 0x8b88_48f9_202c_7075),
        (Blocking, 17, 12, 0x0cb6_0da3_d2b5_6352),
        (Blocking, 256, 11, 0xa755_42d9_c75d_cfea),
        (Blocking, 256, 12, 0xb270_7dbf_a460_d992),
        (Blocking, 1024, 11, 0xa180_4986_4760_285a),
        (Blocking, 1024, 12, 0x3dc9_0b8c_3ed2_de36),
    ];
    // Chunks spanning two bursts (dim 128, context 96) and a one-entry
    // scoreboard (dim 64, context 256), both chunked modes each.
    const DIM128: [(AccelMode, u64); 2] = [
        (OutOfOrder, 0x192e_6245_8a7d_6398),
        (Blocking, 0x49d9_439b_2569_b99b),
    ];
    const ONE_ENTRY: [(AccelMode, u64); 2] = [
        (OutOfOrder, 0x23a6_6ca6_d7bb_8042),
        (Blocking, 0x73ae_6706_7b11_3c7c),
    ];

    let mut got = Vec::new();
    let mut want = Vec::new();
    for (mode, n, seed, digest) in DIM64 {
        got.push(result_digest(&run(mode, 1e-3, n, seed)));
        want.push(digest);
    }
    let pc = PrecisionConfig::paper();
    let wide = SynthInstance::generate(&SynthProfile::realistic(96, 128), 13);
    let wide_q = QVector::quantize(&wide.query, pc);
    let wide_keys = QMatrix::quantize_flat(wide.keys().data(), 128, pc).unwrap();
    for (mode, digest) in DIM128 {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).unwrap());
        let r = accel
            .run_attention(&wide_q, &wide_keys, wide.values())
            .unwrap();
        got.push(result_digest(&r));
        want.push(digest);
    }
    let (q, keys, values) = quantized_instance(256, 14);
    for (mode, digest) in ONE_ENTRY {
        let mut cfg = AccelConfig::paper(mode, 1e-3).unwrap();
        cfg.scoreboard_entries = 1;
        let r = ToPickAccelerator::new(cfg)
            .run_attention(&q, &keys, Rows::new(&values, 64))
            .unwrap();
        got.push(result_digest(&r));
        want.push(digest);
    }
    // Captured before the DRAM controller kept one in-flight FIFO per
    // channel, in two regimes no pin above reaches: at context 4096 the
    // chunk-0 and chunk-1 K rows share banks on different DRAM rows, so
    // FR-FCFS reorders (at <= 1024 every chunk sits in row 0), and a
    // Baseline run at 8192 (like Blocking at 4096) outlasts tREFI, so
    // refresh fires.
    const LONG: [(AccelMode, usize, u64, u64); 5] = [
        (OutOfOrder, 4096, 11, 0xc157_a1d9_52dd_992d),
        (OutOfOrder, 4096, 12, 0x434f_3b19_fab5_2628),
        (Blocking, 4096, 11, 0xc041_698f_37a9_487f),
        (Blocking, 4096, 12, 0x9eec_ed40_46f5_b9c5),
        (Baseline, 8192, 11, 0x0f71_fd4c_d625_a7f1),
    ];
    for (mode, n, seed, digest) in LONG {
        let r = run(mode, 1e-3, n, seed);
        let d = &r.dram_stats;
        // More activates than banks: some bank switched rows.
        assert!(d.activates > 8 * 16, "{mode:?} {n}: {d:?}");
        assert!(n < 8192 || d.refreshes > 0, "{mode:?} {n}: {d:?}");
        got.push(result_digest(&r));
        want.push(digest);
    }
    let hex = |v: &[u64]| v.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>();
    assert_eq!(hex(&got), hex(&want));
}
