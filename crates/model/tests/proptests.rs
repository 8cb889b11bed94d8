//! Property tests of the transformer substrate and synthetic workloads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topick_core::{PrecisionConfig, QMatrix, QVector, QuantBuffer};
use topick_model::rng::standard_normal;
use topick_model::{
    nll_from_logits, CodeScratch, ExactAttention, HeadCache, KvCache, ModelSpec, PagedKvStore,
    SynthInstance, SynthProfile, TransformerModel,
};

const PROFILES: [fn(usize, usize) -> SynthProfile; 3] = [
    SynthProfile::realistic,
    SynthProfile::wide_spread,
    SynthProfile::narrow_spread,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Synthetic instances realize their target scores to high precision,
    /// for any profile in the supported range.
    #[test]
    fn synth_scores_match_targets(
        seed in any::<u64>(),
        n in 1usize..128,
        dim_pow in 3u32..8, // 8..128
        std in 0.0f64..4.0,
        locality in 0.0f64..6.0,
    ) {
        let dim = 1usize << dim_pow;
        let profile = SynthProfile {
            score_std: std,
            locality_strength: locality,
            ..SynthProfile::realistic(n, dim)
        };
        let inst = SynthInstance::generate(&profile, seed);
        let realized = inst.realized_scores();
        for (t, r) in inst.target_scores.iter().zip(&realized) {
            prop_assert!((t - r).abs() < 1e-2, "target {} vs realized {}", t, r);
        }
    }

    /// The values come last in the seed's stream: they start where the
    /// query, the target scores and the keys end.
    #[test]
    fn values_start_where_the_keys_end(
        seed in any::<u64>(),
        n in 1usize..=300,
        dim_idx in 0usize..4,
        profile_idx in 0usize..3,
    ) {
        let dim = [1, 8, 64, 128][dim_idx];
        let profile = PROFILES[profile_idx](n, dim);
        let full = SynthInstance::generate(&profile, seed);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One normal per query element, per score and per key element come
        // before the first value. Replayed with the scalar formula, not
        // `normal_vec`, which is the path under test.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..dim + n + n * dim {
            standard_normal(&mut rng);
        }
        let values: Vec<u32> = (0..n * dim)
            .map(|_| (standard_normal(&mut rng) as f32).to_bits())
            .collect();
        prop_assert_eq!(bits(full.values().data()), values);
    }

    /// Key codes drawn straight from an instance's draws,
    /// `SynthProfile::generate_codes`, into a scratch and a code buffer
    /// that a different instance used last, are the three calls they
    /// replace bit for bit — `SynthInstance::generate`'s query and float
    /// keys, then `QVector::quantize` and `QMatrix::quantize_flat` — at any
    /// context (1–600, 1 024, 4 096), width (1, 7, 64, OPT-2.7B's 80, 128)
    /// and precision; and, keys to codes end to end, those equal the scalar
    /// formula the quantizer was first written as (`round` and `clamp` per
    /// element under a NaN-aware `f64` max).
    #[test]
    fn codes_drawn_into_recycled_buffers_equal_the_three_calls(
        seed in any::<u64>(),
        n in 1usize..=602,
        dim_idx in 0usize..5,
        profile_idx in 0usize..3,
        bits in 1u32..=15,
        spare_seed in any::<u64>(),
        spare_n in 1usize..=300,
        spare_dim_idx in 0usize..5,
    ) {
        let n = match n {
            601 => 1024,
            602 => 4096,
            n => n,
        };
        let dims = [1, 7, 64, 80, 128];
        let dim = dims[dim_idx];
        let pc = PrecisionConfig::new(bits, bits).expect("1 to 15 bits");
        let profile = PROFILES[profile_idx](n, dim);
        let (mut scratch, mut buf) = (CodeScratch::default(), QuantBuffer::new());
        let spare = PROFILES[profile_idx](spare_n, dims[spare_dim_idx]);
        let (_, used) = spare.generate_codes(spare_seed, pc, &mut scratch, &mut buf);
        buf.reclaim(used);
        let (q, keys) = profile.generate_codes(seed, pc, &mut scratch, &mut buf);

        let fresh = SynthInstance::generate(&profile, seed);
        let want_q = QVector::quantize(&fresh.query, pc);
        prop_assert_eq!(q.codes(), want_q.codes());
        prop_assert_eq!(q.scale().to_bits(), want_q.scale().to_bits());
        let data = fresh.keys().data();
        let want = QMatrix::quantize_flat(data, dim, pc).expect("non-empty");
        prop_assert_eq!(keys.scale().to_bits(), want.scale().to_bits());
        for token in 0..n {
            prop_assert_eq!(keys.row(token), want.row(token), "token {}", token);
        }

        let max_abs = data.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
        let (qmin, qmax) = (f64::from(pc.min_value()), f64::from(pc.max_value()));
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        prop_assert_eq!(want.scale().to_bits(), scale.to_bits());
        for (token, row) in data.chunks(dim).enumerate() {
            let codes: Vec<i16> = row
                .iter()
                .map(|&v| (f64::from(v) / scale).round().clamp(qmin, qmax) as i16)
                .collect();
            prop_assert_eq!(want.row(token), &codes[..]);
        }
    }

    /// Attention probabilities from any instance form a distribution.
    #[test]
    fn synth_probabilities_are_a_distribution(seed in any::<u64>(), n in 1usize..96) {
        let inst = SynthInstance::generate(&SynthProfile::realistic(n, 32), seed);
        let p = inst.exact_probabilities();
        prop_assert_eq!(p.len(), n);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    /// NLL is non-negative for any target and consistent with a direct
    /// softmax computation.
    #[test]
    fn nll_nonnegative_and_consistent(
        logits in prop::collection::vec(-20.0f32..20.0, 2..64),
        target_frac in 0.0f64..1.0,
    ) {
        let target = ((logits.len() as f64 - 1.0) * target_frac) as usize;
        let nll = nll_from_logits(&logits, target);
        prop_assert!(nll >= -1e-9, "nll {}", nll);
        let probs = topick_core::softmax(&logits.iter().map(|&l| f64::from(l)).collect::<Vec<_>>());
        prop_assert!((nll - (-probs[target].ln())).abs() < 1e-6);
    }

    /// The KV cache returns exactly what was pushed, in order.
    #[test]
    fn head_cache_roundtrip(
        rows in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4), 1..32),
    ) {
        let mut cache = HeadCache::new(4);
        for r in &rows {
            cache.push(r, r);
        }
        prop_assert_eq!(cache.len(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(cache.key_row(i), r.as_slice());
            prop_assert_eq!(cache.value_row(i), r.as_slice());
        }
    }

    /// The contiguous cache views are semantically identical to the old
    /// row-of-rows representation: `keys()`/`values()`/`view()` expose
    /// exactly the nested structure a `Vec<Vec<f32>>` cache would, for any
    /// push sequence.
    #[test]
    fn head_cache_views_match_row_of_rows_semantics(
        keys in prop::collection::vec(prop::collection::vec(-8.0f32..8.0, 3), 1..40),
        value_bias in -2.0f32..2.0,
    ) {
        // Reference: the nested representation built alongside the cache.
        let mut cache = HeadCache::new(3);
        let mut nested_keys: Vec<Vec<f32>> = Vec::new();
        let mut nested_values: Vec<Vec<f32>> = Vec::new();
        for k in &keys {
            let v: Vec<f32> = k.iter().map(|&x| x * 0.5 + value_bias).collect();
            cache.push(k, &v);
            nested_keys.push(k.clone());
            nested_values.push(v);
        }

        // Row views equal the nested rows, element for element.
        prop_assert_eq!(cache.keys().data(), nested_keys.concat().as_slice());
        prop_assert_eq!(cache.values().data(), nested_values.concat().as_slice());

        // The combined view agrees in shape and contents.
        let view = cache.view();
        prop_assert_eq!(view.len(), nested_keys.len());
        prop_assert_eq!(view.dim(), 3);
        for (i, (nk, nv)) in nested_keys.iter().zip(&nested_values).enumerate() {
            prop_assert_eq!(view.keys().row(i), nk.as_slice());
            prop_assert_eq!(view.values().row(i), nv.as_slice());
        }

        // And the flat buffers are the exact concatenation of the rows.
        let flat_keys: Vec<f32> = nested_keys.concat();
        prop_assert_eq!(cache.keys().data(), flat_keys.as_slice());
    }

    /// Copy-on-write page sharing is invisible to reads: under arbitrary
    /// interleavings of push / fork-at-prefix / truncate / release across
    /// several sequences, every sequence reads back exactly like the
    /// naive, fully private row list it mirrors, and page refcounts
    /// conserve.
    #[test]
    fn paged_store_matches_private_mirrors_under_any_interleaving(
        seed in any::<u64>(),
        page_size in 1usize..6,
        ops in prop::collection::vec(0u8..8, 4..48),
    ) {
        const DIM: usize = 3;
        const SLOTS: usize = 4;
        let mut store = PagedKvStore::new(DIM, page_size);
        let mut seqs: Vec<_> = (0..SLOTS).map(|_| store.new_seq()).collect();
        let mut mirrors: Vec<Vec<(Vec<f32>, Vec<f32>)>> = vec![Vec::new(); SLOTS];
        let mut stamp = 0f32;
        for (i, op) in ops.iter().enumerate() {
            let mix = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let slot = (mix % SLOTS as u64) as usize;
            let other = ((mix >> 8) % SLOTS as u64) as usize;
            match op {
                // Push is the common case: weight it like the engine does.
                0..=3 => {
                    stamp += 1.0;
                    let k = vec![stamp, stamp + 0.25, stamp + 0.5];
                    let v = vec![-stamp, stamp * 2.0, stamp * 0.125];
                    store.push(&mut seqs[slot], &k, &v);
                    mirrors[slot].push((k, v));
                }
                4 if slot != other => {
                    // Fork `other` at an arbitrary prefix of `slot`,
                    // releasing whatever `other` held.
                    let prefix = (mix >> 16) as usize % (seqs[slot].len() + 1);
                    let mut old = std::mem::replace(&mut seqs[other], store.new_seq());
                    store.release(&mut old);
                    seqs[other] = store.fork(&seqs[slot], prefix);
                    mirrors[other] = mirrors[slot][..prefix].to_vec();
                }
                4 => {} // self-fork: no-op
                5 => {
                    let len = (mix >> 16) as usize % (seqs[slot].len() + 1);
                    store.truncate(&mut seqs[slot], len);
                    mirrors[slot].truncate(len);
                }
                _ => {
                    store.release(&mut seqs[slot]);
                    mirrors[slot].clear();
                }
            }
            // Every sequence equals its private mirror, every time.
            let live: Vec<_> = seqs.iter().collect();
            store.validate(&live);
            for (seq, mirror) in seqs.iter().zip(&mirrors) {
                prop_assert_eq!(seq.len(), mirror.len());
                for (j, (k, v)) in mirror.iter().enumerate() {
                    prop_assert_eq!(store.key_row(seq, j), k.as_slice());
                    prop_assert_eq!(store.value_row(seq, j), v.as_slice());
                }
            }
        }
        for mut seq in seqs {
            store.release(&mut seq);
        }
        prop_assert_eq!(store.allocated_pages(), 0);
    }

    /// `PagedKvStore::gather` (the contiguous bridge the paged decode
    /// path attends over) matches a [`HeadCache`] oracle built from the
    /// same logical history, under arbitrary fork / push / truncate /
    /// release interleavings — so a kernel reading gathered paged rows
    /// sees bit-identical buffers to the contiguous cache path.
    #[test]
    fn paged_gather_matches_head_cache_oracle_under_any_interleaving(
        seed in any::<u64>(),
        page_size in 1usize..6,
        ops in prop::collection::vec(0u8..8, 4..48),
    ) {
        const DIM: usize = 3;
        const SLOTS: usize = 4;
        let mut store = PagedKvStore::new(DIM, page_size);
        let mut seqs: Vec<_> = (0..SLOTS).map(|_| store.new_seq()).collect();
        let mut oracles: Vec<HeadCache> = (0..SLOTS).map(|_| HeadCache::new(DIM)).collect();
        // The oracle has no fork, so mirror forks by replaying the
        // parent's retained rows into a fresh cache.
        let refork = |parent: &HeadCache, prefix: usize| {
            let mut c = HeadCache::new(DIM);
            for i in 0..prefix {
                c.push(parent.key_row(i), parent.value_row(i));
            }
            c
        };
        let mut stamp = 0f32;
        let mut key_scratch = Vec::new();
        let mut value_scratch = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let mix = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let slot = (mix % SLOTS as u64) as usize;
            let other = ((mix >> 8) % SLOTS as u64) as usize;
            match op {
                0..=3 => {
                    stamp += 1.0;
                    let k = [stamp, stamp + 0.25, stamp + 0.5];
                    let v = [-stamp, stamp * 2.0, stamp * 0.125];
                    store.push(&mut seqs[slot], &k, &v);
                    oracles[slot].push(&k, &v);
                }
                4 if slot != other => {
                    let prefix = (mix >> 16) as usize % (seqs[slot].len() + 1);
                    let mut old = std::mem::replace(&mut seqs[other], store.new_seq());
                    store.release(&mut old);
                    seqs[other] = store.fork(&seqs[slot], prefix);
                    oracles[other] = refork(&oracles[slot], prefix);
                }
                4 => {}
                5 => {
                    let len = (mix >> 16) as usize % (seqs[slot].len() + 1);
                    store.truncate(&mut seqs[slot], len);
                    oracles[slot].truncate(len);
                }
                _ => {
                    store.release(&mut seqs[slot]);
                    oracles[slot].truncate(0);
                }
            }
            for (seq, oracle) in seqs.iter().zip(&oracles) {
                store.gather_into(seq, &mut key_scratch, &mut value_scratch);
                prop_assert_eq!(key_scratch.as_slice(), oracle.keys().data());
                prop_assert_eq!(value_scratch.as_slice(), oracle.values().data());
            }
        }
        let live: Vec<_> = seqs.iter().collect();
        store.validate(&live);
    }
}

#[test]
fn model_forward_is_pure_given_cache_state() {
    // Two models from the same seed must produce identical logits on
    // identical inputs, independently of each other.
    let spec = ModelSpec::toy();
    let m1 = TransformerModel::new_random(spec.clone(), 5);
    let m2 = TransformerModel::new_random(spec.clone(), 5);
    let mut c1 = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut c2 = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut k1 = ExactAttention::new();
    let mut k2 = ExactAttention::new();
    for (pos, tok) in [3usize, 14, 15, 92].iter().enumerate() {
        let l1 = m1.decode_step(*tok, &mut c1, &mut k1);
        let l2 = m2.decode_step(*tok, &mut c2, &mut k2);
        assert_eq!(l1, l2, "divergence at pos {pos}");
    }
}

#[test]
fn different_seeds_give_different_models() {
    let spec = ModelSpec::toy();
    let m1 = TransformerModel::new_random(spec.clone(), 1);
    let m2 = TransformerModel::new_random(spec.clone(), 2);
    let mut c1 = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut c2 = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut k = ExactAttention::new();
    let l1 = m1.decode_step(7, &mut c1, &mut k);
    let l2 = m2.decode_step(7, &mut c2, &mut k);
    assert_ne!(l1, l2);
}

#[test]
fn truncate_then_reprefill_resumes_the_model_exactly() {
    // Preemption with partial KV retention, at the storage level: drop a
    // suffix of a request's cache (`KvCache::truncate`), replay only the
    // dropped tokens, and the model must continue exactly as if it had
    // never been interrupted — same cache contents, same logits. This is
    // the contract the serving layer's re-prefill charge prices.
    let spec = ModelSpec::toy();
    let model = TransformerModel::new_random(spec.clone(), 11);
    let tokens = [3usize, 14, 15, 92, 65, 35];

    let mut kernel = ExactAttention::new();
    let mut uninterrupted = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut full_logits = Vec::new();
    for &tok in &tokens {
        full_logits = model.decode_step(tok, &mut uninterrupted, &mut kernel);
    }

    let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    for &tok in &tokens {
        model.decode_step(tok, &mut cache, &mut kernel);
    }
    // Preempt, retaining a 2-token prefix (as the pager's retention
    // policy would decide), then re-prefill the dropped suffix.
    cache.truncate(2);
    assert_eq!(cache.context_len(), 2);
    let mut resumed_logits = Vec::new();
    for &tok in &tokens[2..] {
        resumed_logits = model.decode_step(tok, &mut cache, &mut kernel);
    }

    assert_eq!(cache, uninterrupted, "re-prefill must rebuild the cache");
    assert_eq!(
        resumed_logits, full_logits,
        "resumed generation must match the uninterrupted run"
    );
}
