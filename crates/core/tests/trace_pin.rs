//! Bit-level pin of the decision trace: every evaluation the progressive
//! pruner makes — which token, at what depth, with what bound and running
//! denominator — folded into one FNV word per (workload, scan order).
//!
//! The constants were captured before the §3 decision was written once
//! under the pruner, its tracer and the accelerator; they move only when the
//! algorithm (or its floating-point operation order) does.

use topick_core::{
    trace_pruning, Decision, PrecisionConfig, PrunerConfig, QMatrix, QVector, ScanOrder,
};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Uniform random codes: little to prune, deep refinement everywhere.
fn uniform_codes(n: usize, dim: usize) -> (QVector, QMatrix) {
    let pc = PrecisionConfig::paper();
    let mut next = xorshift(0xFEED);
    let mut code = move || ((next() >> 33) as i32 % 1500) as i16;
    let q = QVector::from_codes((0..dim).map(|_| code()).collect(), 0.01, pc);
    let keys = QMatrix::from_codes((0..n * dim).map(|_| code()).collect(), dim, 0.01, pc);
    (q, keys.expect("well-formed"))
}

/// Two query-aligned tokens among weak noise: most tokens go at chunk 1.
fn peaky(n: usize, dim: usize) -> (QVector, QMatrix) {
    let pc = PrecisionConfig::paper();
    let mut next = xorshift(0x2545_F491_4F6C_DD1D);
    let mut unit = move || (next() >> 40) as f32 / 16_777_216.0 - 0.5;
    let qv: Vec<f32> = (0..dim).map(|_| unit()).collect();
    let mut rows = Vec::with_capacity(n * dim);
    for t in 0..n {
        if t == 0 || t == n - 1 {
            rows.extend(qv.iter().map(|&x| x * 2.0));
        } else {
            rows.extend((0..dim).map(|_| unit() * 0.3));
        }
    }
    let keys = QMatrix::quantize_flat(&rows, dim, pc).expect("non-empty");
    (QVector::quantize(&qv, pc), keys)
}

/// A recency ramp: alignment with the query grows towards the newest
/// token, so the scan order decides how early the denominator fills.
fn ramp(n: usize, dim: usize) -> (QVector, QMatrix) {
    let pc = PrecisionConfig::paper();
    let mut next = xorshift(0xB00F);
    let mut unit = move || (next() >> 40) as f32 / 16_777_216.0 - 0.5;
    let qv: Vec<f32> = (0..dim).map(|_| unit() * 4.0).collect();
    let mut rows = Vec::with_capacity(n * dim);
    for t in 0..n {
        let pull = t as f32 / n as f32;
        rows.extend(qv.iter().map(|&x| x * pull + unit()));
    }
    let keys = QMatrix::quantize_flat(&rows, dim, pc).expect("non-empty");
    (QVector::quantize(&qv, pc), keys)
}

fn trace_digest(cfg: &PrunerConfig, q: &QVector, keys: &QMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace_pruning(cfg, q, keys).expect("valid workload") {
        word(e.step as u64);
        word(e.token as u64);
        word(u64::from(e.chunks_known));
        word(match e.decision {
            Decision::Pruned => 0,
            Decision::RequestNextChunk => 1,
            Decision::Kept => 2,
        });
        word(e.estimate.to_bits());
        word(e.ln_denominator.to_bits());
    }
    h
}

#[test]
fn trace_pruning_is_pinned_bit_for_bit() {
    const ORDERS: [ScanOrder; 3] = [
        ScanOrder::FirstAndReverse,
        ScanOrder::ReverseChronological,
        ScanOrder::Sequential,
    ];
    // One row per workload, one column per scan order (in `ORDERS` order).
    const PINS: [[u64; 3]; 3] = [
        [
            0x038e_1d78_5c66_61ab,
            0x9574_1f93_981b_c8b2,
            0xa317_c024_5e26_663a,
        ],
        [
            0xcb6e_6efc_256c_b409,
            0xee3b_7401_d6e5_e27d,
            0x6d64_2171_0bcc_392c,
        ],
        [
            0x951c_4da9_63c2_f94d,
            0x4633_07d0_312f_65bc,
            0x159e_d774_e74d_683f,
        ],
    ];
    let workloads = [
        (uniform_codes(48, 16), 1e-3),
        (peaky(128, 32), 1e-2),
        (ramp(300, 64), 1e-4),
    ];
    let got: Vec<Vec<String>> = workloads
        .iter()
        .map(|((q, keys), thr)| {
            let cfg = PrunerConfig::new(*thr).expect("valid threshold");
            ORDERS
                .iter()
                .map(|&o| format!("{:#018x}", trace_digest(&cfg.with_order(o), q, keys)))
                .collect()
        })
        .collect();
    let want: Vec<Vec<String>> = PINS
        .iter()
        .map(|row| row.iter().map(|d| format!("{d:#018x}")).collect())
        .collect();
    assert_eq!(got, want);
}
