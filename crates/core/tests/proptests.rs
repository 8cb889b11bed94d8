//! Property-based tests for the Token-Picker core invariants.
//!
//! The paper's central safety claim (§3.1) is that the estimator is
//! *conservative*: a pruned token provably has true attention probability
//! below the threshold. These tests exercise that claim on randomized
//! queries, keys, precisions and thresholds.

use proptest::prelude::*;
use topick_core::{
    exact_probabilities, MarginTable, PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix,
    QVector, ScanOrder,
};

fn code_vec(pc: PrecisionConfig, len: usize) -> impl Strategy<Value = Vec<i16>> {
    prop::collection::vec(pc.min_value()..=pc.max_value(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Margins always bracket the exact score, at every chunk depth.
    #[test]
    fn margins_bracket_exact(
        q in code_vec(PrecisionConfig::paper(), 16),
        k in code_vec(PrecisionConfig::paper(), 16),
        chunks in 1u32..=3,
    ) {
        let pc = PrecisionConfig::paper();
        let qv = QVector::from_codes(q, 1.0, pc);
        let table = MarginTable::from_query(&qv);
        let exact = qv.dot_codes(&k);
        let ps = qv.dot_known(&k, chunks);
        let m = table.pair(chunks);
        prop_assert!(ps + m.min <= exact);
        prop_assert!(exact <= ps + m.max);
    }

    /// Margin widths shrink monotonically with chunk depth.
    #[test]
    fn margin_width_monotone(q in code_vec(PrecisionConfig::paper(), 32)) {
        let pc = PrecisionConfig::paper();
        let qv = QVector::from_codes(q, 1.0, pc);
        let table = MarginTable::from_query(&qv);
        let mut prev_width = i64::MAX;
        for c in 1..=3 {
            let m = table.pair(c);
            let width = m.max - m.min;
            prop_assert!(width >= 0);
            prop_assert!(width <= prev_width);
            prev_width = width;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SOUNDNESS: no token with true probability above the threshold is ever
    /// pruned, for any scan order and threshold.
    #[test]
    fn estimator_never_prunes_dominant_tokens(
        seed in any::<u64>(),
        n in 2usize..48,
        dim in 1usize..24,
        thr_exp in 1.0f64..6.0,
        order_idx in 0usize..3,
    ) {
        let pc = PrecisionConfig::paper();
        // Deterministic pseudo-random codes from the seed (xorshift).
        let mut s = seed | 1;
        let mut next_code = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 32) as i32 % 2048) as i16
        };
        let q: Vec<i16> = (0..dim).map(|_| next_code()).collect();
        let k: Vec<i16> = (0..n * dim).map(|_| next_code()).collect();
        let qv = QVector::from_codes(q, 0.01, pc);
        let keys = QMatrix::from_codes(k, dim, 0.01, pc).unwrap();
        let thr = 10f64.powf(-thr_exp);
        let order = [
            ScanOrder::FirstAndReverse,
            ScanOrder::ReverseChronological,
            ScanOrder::Sequential,
        ][order_idx];
        let cfg = PrunerConfig::new(thr).unwrap().with_order(order);
        let outcome = ProgressivePruner::new(cfg).run(&qv, &keys).unwrap();

        let exact = exact_probabilities(&qv, &keys);
        let kept: std::collections::HashSet<usize> =
            outcome.kept.iter().map(|kt| kt.index).collect();
        for (t, &p) in exact.iter().enumerate() {
            if p > thr {
                prop_assert!(kept.contains(&t), "token {} with p={} pruned (thr={})", t, p, thr);
            }
        }
    }

    /// The attention output computed over survivors is close to the exact
    /// attention output: pruning error is bounded by the pruned mass.
    #[test]
    fn pruned_attention_output_error_bounded(
        seed in any::<u64>(),
        n in 4usize..40,
        dim in 2usize..16,
    ) {
        let pc = PrecisionConfig::paper();
        let mut s = seed | 1;
        let mut next_code = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 32) as i32 % 2048) as i16
        };
        let q: Vec<i16> = (0..dim).map(|_| next_code()).collect();
        let k: Vec<i16> = (0..n * dim).map(|_| next_code()).collect();
        let qv = QVector::from_codes(q, 0.02, pc);
        let keys = QMatrix::from_codes(k, dim, 0.02, pc).unwrap();
        let thr = 1e-4;
        let cfg = PrunerConfig::new(thr).unwrap();
        let outcome = ProgressivePruner::new(cfg).run(&qv, &keys).unwrap();

        // Values in [-1, 1]; compare exact vs pruned attention outputs.
        let values: Vec<f32> = (0..n * dim)
            .map(|i| ((i / dim * 7 + i % dim * 13) % 17) as f32 / 8.5 - 1.0)
            .collect();
        let values = topick_core::Rows::new(&values, dim);
        let exact_p = exact_probabilities(&qv, &keys);
        let exact_pairs: Vec<(usize, f64)> = exact_p.iter().cloned().enumerate().collect();
        let exact_out = topick_core::weighted_value_sum(&exact_pairs, values);
        let pruned_out = topick_core::weighted_value_sum(&outcome.probability_pairs(), values);
        // Pruned mass <= n * thr; renormalization adds the same order.
        // |v| <= 1, so output error is bounded by ~2 * n * thr.
        let bound = 2.0 * n as f64 * thr + 1e-6;
        for (a, b) in exact_out.iter().zip(&pruned_out) {
            prop_assert!(
                (f64::from(*a) - f64::from(*b)).abs() <= bound,
                "output error {} exceeds bound {}",
                (a - b).abs(),
                bound
            );
        }
    }

    /// Scan order never affects soundness, only efficiency; the kept set is
    /// always a superset of the truly-dominant set and stats stay consistent.
    #[test]
    fn stats_consistency_all_orders(
        seed in any::<u64>(),
        n in 1usize..64,
    ) {
        let dim = 8;
        let pc = PrecisionConfig::paper();
        let mut s = seed | 1;
        let mut next_code = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 32) as i32 % 2048) as i16
        };
        let q: Vec<i16> = (0..dim).map(|_| next_code()).collect();
        let k: Vec<i16> = (0..n * dim).map(|_| next_code()).collect();
        let qv = QVector::from_codes(q, 0.01, pc);
        let keys = QMatrix::from_codes(k, dim, 0.01, pc).unwrap();
        for order in [
            ScanOrder::FirstAndReverse,
            ScanOrder::ReverseChronological,
            ScanOrder::Sequential,
        ] {
            let cfg = PrunerConfig::new(1e-3).unwrap().with_order(order);
            let o = ProgressivePruner::new(cfg).run(&qv, &keys).unwrap();
            prop_assert_eq!(o.stats.tokens, n);
            prop_assert_eq!(o.stats.kept, o.kept.len());
            prop_assert_eq!(o.stats.chunk_fetches[0], n as u64);
            prop_assert_eq!(
                o.stats.pruned_at.iter().sum::<u64>() as usize,
                o.stats.pruned()
            );
            // Kept tokens sorted, unique, in range.
            for w in o.kept.windows(2) {
                prop_assert!(w[0].index < w[1].index);
            }
        }
    }

    /// Quantization round-trip error is within half an LSB per element.
    #[test]
    fn quantization_error_bounded(vals in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let pc = PrecisionConfig::paper();
        let q = QVector::quantize(&vals, pc);
        let back = q.dequantize();
        let half_lsb = q.scale() as f32 * 0.5 + 1e-6;
        for (a, b) in vals.iter().zip(&back) {
            prop_assert!((a - b).abs() <= half_lsb);
        }
    }

    /// Lower thresholds can only keep more tokens (monotonicity in thr).
    #[test]
    fn threshold_monotonicity(seed in any::<u64>(), n in 4usize..48) {
        let dim = 8;
        let pc = PrecisionConfig::paper();
        let mut s = seed | 1;
        let mut next_code = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 32) as i32 % 2048) as i16
        };
        let q: Vec<i16> = (0..dim).map(|_| next_code()).collect();
        let k: Vec<i16> = (0..n * dim).map(|_| next_code()).collect();
        let qv = QVector::from_codes(q, 0.01, pc);
        let keys = QMatrix::from_codes(k, dim, 0.01, pc).unwrap();
        let run = |thr: f64| {
            ProgressivePruner::new(PrunerConfig::new(thr).unwrap())
                .run(&qv, &keys)
                .unwrap()
                .stats
                .kept
        };
        let strict = run(1e-5);
        let loose = run(1e-2);
        prop_assert!(strict >= loose, "kept(1e-5)={} < kept(1e-2)={}", strict, loose);
    }
}

/// Every precision a code fits: `total_bits` in 1..=15, one chunk each
/// (the chunking does not enter quantization).
fn every_precision() -> impl Iterator<Item = PrecisionConfig> {
    (1..=15).map(|bits| PrecisionConfig::new(bits, bits).expect("valid precision"))
}

/// The scalar formula `QVector::quantize` and `QMatrix::quantize_flat`
/// were written as before their loops were made vectorizable: a NaN-aware
/// `f64` max fold, then `round` and `clamp` per element. Kept as the
/// reference the rewritten loops must equal bit for bit.
fn scalar_quantize(values: &[f32], pc: PrecisionConfig) -> (Vec<i16>, f64) {
    let max_abs = values.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
    let qmax = f64::from(pc.max_value());
    let qmin = f64::from(pc.min_value());
    let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
    let codes = values
        .iter()
        .map(|&v| (f64::from(v) / scale).round().clamp(qmin, qmax) as i16)
        .collect();
    (codes, scale)
}

/// Both quantizers against [`scalar_quantize`]: equal codes and a scale
/// equal in its bits (`==` would let `-0.0` and NaN scales slip).
fn assert_quantizes_as_the_scalar_formula(values: &[f32], pc: PrecisionConfig, what: &str) {
    let (codes, scale) = scalar_quantize(values, pc);
    let label = format!("{what}, {} bits", pc.total_bits());
    let vector = QVector::quantize(values, pc);
    assert_eq!(vector.codes(), codes, "{label}: vector codes");
    assert_eq!(
        vector.scale().to_bits(),
        scale.to_bits(),
        "{label}: vector scale"
    );
    let matrix = QMatrix::quantize_flat(values, values.len(), pc).expect("one non-empty row");
    assert_eq!(matrix.row(0), codes, "{label}: matrix codes");
    assert_eq!(
        matrix.scale().to_bits(),
        scale.to_bits(),
        "{label}: matrix scale"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random data — magnitudes from subnormal to huge, raw finite bit
    /// patterns included — at every precision.
    #[test]
    fn quantization_equals_the_scalar_formula_on_random_data(
        seed in any::<u64>(),
        len in 1usize..200,
        spread in -40i32..=38,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let magnitude = 10f32.powi(spread);
        let scaled: Vec<f32> = (0..len)
            .map(|_| ((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0) as f32 * magnitude)
            .collect();
        let raw: Vec<f32> = (0..len)
            .map(|_| f32::from_bits(next() as u32))
            .filter(|v| v.is_finite())
            .chain([1.0])
            .collect();
        for pc in every_precision() {
            assert_quantizes_as_the_scalar_formula(&scaled, pc, "scaled uniform");
            assert_quantizes_as_the_scalar_formula(&raw, pc, "raw bit patterns");
        }
    }
}

/// Every value whose quotient sits on a rounding boundary: for each code
/// `c`, `(c ± 0.5)·scale` rounded to `f32` and that value's two `f32`
/// neighbours, next to a maximum that fixes the scale. A maximum of `qmax`
/// makes the scale exactly 1 and the boundaries exact ties; the others
/// make them near-ties on either side.
#[test]
fn quantization_equals_the_scalar_formula_at_every_rounding_boundary() {
    for pc in every_precision() {
        let qmax = f64::from(pc.max_value());
        for max in [qmax.max(1.0) as f32, 1.0, 3.7, 1.1e-3, 6.5e4, 1e-40] {
            let scale = f64::from(max) / qmax.max(1.0);
            let mut values = vec![max];
            for c in pc.min_value()..=pc.max_value() {
                for half in [-0.5, 0.5] {
                    let v = ((f64::from(c) + half) * scale) as f32;
                    values.extend([v.next_down(), v, v.next_up()]);
                }
            }
            // Nothing may outgrow the maximum, or the scale moves off the
            // boundaries just built.
            values.retain(|v| v.abs() <= max);
            assert_quantizes_as_the_scalar_formula(
                &values,
                pc,
                &format!("boundaries under {max:e}"),
            );
        }
    }
}

#[test]
fn quantization_equals_the_scalar_formula_on_special_values() {
    let tiny = f32::from_bits(1);
    let table: [(&str, &[f32]); 12] = [
        ("all zero", &[0.0; 5]),
        ("signed zeros", &[0.0, -0.0, -0.0]),
        (
            "only subnormals",
            &[tiny, -tiny, f32::MIN_POSITIVE / 2.0, 0.0],
        ),
        (
            "subnormals under a normal",
            &[tiny, -tiny, 1.0, -f32::MIN_POSITIVE / 4.0],
        ),
        ("lone positive maximum", &[0.0, 0.0, 7.25, 0.0]),
        ("lone negative maximum", &[0.0, -7.25, 0.0, -0.0]),
        ("largest finite", &[f32::MAX, f32::MIN, 1.0, -1.0, 0.0]),
        ("a NaN", &[0.5, f32::NAN, -2.0, 1.0]),
        ("only NaNs", &[f32::NAN, -f32::NAN]),
        (
            "infinities",
            &[1.0, f32::INFINITY, -3.0, f32::NEG_INFINITY, 0.0],
        ),
        ("negative infinity alone", &[1.0, f32::NEG_INFINITY, -1.0]),
        (
            "NaN with infinities",
            &[f32::NAN, f32::INFINITY, 2.0, f32::NEG_INFINITY, -0.0],
        ),
    ];
    for pc in every_precision() {
        for (what, values) in table {
            assert_quantizes_as_the_scalar_formula(values, pc, what);
        }
    }
}

/// Every precision `PrecisionConfig::new` admits: every width up to 15
/// bits, split into every chunk width that divides it.
fn every_chunking() -> impl Iterator<Item = PrecisionConfig> {
    (1..=15)
        .flat_map(|bits| (1..=bits).filter_map(move |chunk| PrecisionConfig::new(bits, chunk).ok()))
}

/// `dot_known` as it was written before its loop was made vectorizable:
/// one `known_value` per element, summed in `i64`.
fn scalar_dot_known(q: &QVector, k: &[i16], chunks_known: u32) -> i64 {
    let pc = q.precision();
    q.codes()
        .iter()
        .zip(k)
        .map(|(&a, &b)| i64::from(a) * i64::from(pc.known_value(b, chunks_known)))
        .sum()
}

fn assert_dot_known_equals_the_scalar_sum(q: &[i16], k: &[i16], pc: PrecisionConfig) {
    let qv = QVector::from_codes(q.to_vec(), 1.0, pc);
    for chunks in 0..=pc.num_chunks() {
        assert_eq!(
            qv.dot_known(k, chunks),
            scalar_dot_known(&qv, k, chunks),
            "{}/{} bits, {chunks} chunks known, dim {}",
            pc.total_bits(),
            pc.chunk_bits(),
            q.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked `i32` partial dot equals the scalar `i64` sum at every
    /// precision and chunk depth, for dims 1-600 and keys anywhere in
    /// `i16` (`QMatrix::from_codes` does not range-check), with the extreme
    /// codes that make the largest products mixed in.
    #[test]
    fn dot_known_equals_the_scalar_sum(seed in any::<u64>(), dim in 1usize..=600) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let keys: Vec<i16> = (0..dim)
            .map(|_| match next() % 8 {
                0 => i16::MIN,
                1 => -(1 << 14),
                2 => (1 << 14) - 1,
                3 => 1 << 14,
                _ => next() as i16,
            })
            .collect();
        for pc in every_chunking() {
            let (lo, hi) = (i64::from(pc.min_value()), i64::from(pc.max_value()));
            let query: Vec<i16> = (0..dim)
                .map(|_| match next() % 4 {
                    0 => lo as i16,
                    1 => hi as i16,
                    _ => (lo + (next() % (hi - lo + 1) as u64) as i64) as i16,
                })
                .collect();
            assert_dot_known_equals_the_scalar_sum(&query, &keys, pc);
        }
    }
}

/// The overflow guard: every term at the largest positive product a
/// precision allows — the most negative query code against the most
/// negative key — over 600 terms, at every precision.
#[test]
fn dot_known_does_not_overflow_at_the_largest_products() {
    for pc in every_chunking() {
        let query = vec![pc.min_value(); 600];
        for key in [i16::MIN, pc.min_value(), -(1 << 14)] {
            assert_dot_known_equals_the_scalar_sum(&query, &vec![key; 600], pc);
        }
    }
}
