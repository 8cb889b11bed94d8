//! Workspace-level integration tests spanning every crate: the reference
//! pruner, the transformer substrate, the cycle-level accelerator, the
//! DRAM model, the energy model, and the SpAtten baseline must all agree
//! on the same workloads.

use token_picker::accel::{
    AccelConfig, AccelMode, ServingEngine, ServingRequest, ToPickAccelerator,
};
use token_picker::core::{
    exact_probabilities, weighted_value_sum, PrecisionConfig, ProgressivePruner, PrunerConfig,
    QMatrix, QVector,
};
use token_picker::energy::AreaPowerModel;
use token_picker::model::{
    AttentionBackend, ExactAttention, InstanceSampler, ModelSpec, SynthInstance, SynthProfile,
    TokenPickerAttention, TransformerModel,
};
use token_picker::spatten::TopKAttention;

fn quantized(n: usize, dim: usize, seed: u64) -> (QVector, QMatrix, SynthInstance) {
    let pc = PrecisionConfig::paper();
    let inst = SynthInstance::generate(&SynthProfile::realistic(n, dim), seed);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).expect("non-empty");
    (q, keys, inst)
}

#[test]
fn reference_pruner_and_accelerator_agree_functionally() {
    // The cycle-level OoO accelerator and the reference pruner make
    // decisions in different orders, but both must (a) retain every
    // dominant token and (b) produce outputs close to exact attention.
    let (q, keys, inst) = quantized(256, 64, 9);
    let thr = 1e-3;
    let reference = ProgressivePruner::new(PrunerConfig::new(thr).expect("thr"))
        .run(&q, &keys)
        .expect("reference run");
    let accel =
        ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, thr).expect("cfg"));
    let hw = accel
        .run_attention(&q, &keys, inst.values())
        .expect("accel run");

    let exact = exact_probabilities(&q, &keys);
    let ref_kept: std::collections::HashSet<usize> =
        reference.kept.iter().map(|k| k.index).collect();
    let hw_kept: std::collections::HashSet<usize> = hw.kept.iter().copied().collect();
    for (t, &p) in exact.iter().enumerate() {
        if p > thr {
            assert!(ref_kept.contains(&t), "reference pruned dominant token {t}");
            assert!(
                hw_kept.contains(&t),
                "accelerator pruned dominant token {t}"
            );
        }
    }

    let ref_out = weighted_value_sum(&reference.probability_pairs(), inst.values());
    for (a, b) in ref_out.iter().zip(&hw.output) {
        assert!((a - b).abs() < 0.05, "reference {a} vs accelerator {b}");
    }
}

#[test]
fn end_to_end_generation_with_all_kernels() {
    let model = TransformerModel::new_random(ModelSpec::toy(), 11);
    let prompt = [3usize, 5, 7];
    let mut exact = ExactAttention::new();
    let base = model.generate(&prompt, 12, 0.0, 0, &mut exact);

    // A tight Token-Picker threshold must not change greedy generation.
    let mut tp = TokenPickerAttention::new(PrunerConfig::new(1e-7).expect("thr"));
    assert_eq!(base, model.generate(&prompt, 12, 0.0, 0, &mut tp));

    // Fixed-ratio top-k at ratio 1.0 must not change it either.
    let mut topk = TopKAttention::new(1.0);
    assert_eq!(base, model.generate(&prompt, 12, 0.0, 0, &mut topk));
}

#[test]
fn adaptive_beats_fixed_ratio_on_varied_instances() {
    // The core claim of the paper in miniature: over a population with
    // varying dominant-token counts, an adaptive threshold keeps fewer
    // tokens than any fixed ratio that never drops a dominant token.
    let ctx = 384;
    let dim = 64;
    let thr = 1e-3;
    let sampler = InstanceSampler::realistic(ctx, dim);
    let pc = PrecisionConfig::paper();
    let pruner = ProgressivePruner::new(PrunerConfig::new(thr).expect("thr"));

    let mut adaptive_kept = 0usize;
    let mut worst_dominant_frac = 0.0f64;
    let instances = 12usize;
    for i in 0..instances as u64 {
        let inst = sampler.sample(i);
        let q = QVector::quantize(&inst.query, pc);
        let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).expect("non-empty");
        adaptive_kept += pruner.run(&q, &keys).expect("run").stats.kept;
        worst_dominant_frac =
            worst_dominant_frac.max(inst.dominant_tokens(thr) as f64 / ctx as f64);
    }
    // The safe fixed ratio must be provisioned for the worst instance.
    let fixed_kept = (worst_dominant_frac * ctx as f64).ceil() as usize * instances;
    assert!(
        adaptive_kept < fixed_kept,
        "adaptive {adaptive_kept} should keep fewer than fixed {fixed_kept}"
    );
}

#[test]
fn accelerator_energy_consistent_with_area_power_model() {
    // The energy breakdown and the Table 2 model come from the same 65nm
    // calibration; the accelerator's buffer energy per byte must match the
    // SRAM law the area/power model uses.
    let table = AreaPowerModel::paper().table2();
    let total = table.last().expect("total row");
    assert!(total.area_mm2 > 5.0 && total.area_mm2 < 12.0);

    let (q, keys, inst) = quantized(128, 64, 13);
    let accel = ToPickAccelerator::new(AccelConfig::baseline());
    let r = accel.run_attention(&q, &keys, inst.values()).expect("run");
    assert!(r.energy.dram_pj > 0.0);
    assert!(r.energy.buffer_pj > 0.0);
    assert!(r.energy.compute_pj > 0.0);
    // Memory-bound workload: DRAM dominates.
    let (d, _, _) = r.energy.fractions();
    assert!(d > 0.5, "DRAM fraction {d}");
}

#[test]
fn spatten_and_token_picker_process_identical_caches() {
    // Both kernels must be drop-in replacements over the same KV cache.
    let model = TransformerModel::new_random(ModelSpec::toy(), 17);
    let corpus: Vec<usize> = (0..24).map(|i| (i * 7) % 256).collect();

    let mut tp = TokenPickerAttention::new(PrunerConfig::new(1e-3).expect("thr"));
    let mut topk = TopKAttention::new(0.5);
    let a = token_picker::model::evaluate_perplexity(&model, &corpus, &mut tp);
    let b = token_picker::model::evaluate_perplexity(&model, &corpus, &mut topk);
    assert!(a.perplexity.is_finite());
    assert!(b.perplexity.is_finite());
    assert_eq!(a.tokens_scored, b.tokens_scored);
    // Both tracked their accesses.
    assert!(tp.accumulated_stats().expect("stats").tokens > 0);
    assert!(topk.accumulated_stats().expect("stats").tokens > 0);
}

#[test]
fn every_mode_is_sound_on_the_same_instance() {
    let (q, keys, inst) = quantized(192, 64, 21);
    let thr = 1e-3;
    let exact = exact_probabilities(&q, &keys);
    for mode in [
        AccelMode::EstimateOnly,
        AccelMode::OutOfOrder,
        AccelMode::Blocking,
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, thr).expect("cfg"));
        let r = accel.run_attention(&q, &keys, inst.values()).expect("run");
        for (t, &p) in exact.iter().enumerate() {
            if p > thr {
                assert!(r.kept.contains(&t), "{mode:?} pruned dominant token {t}");
            }
        }
    }
}

#[test]
fn value_chunk_extension_composes_with_pruning() {
    // Run the pruner, then plan progressive V fetching over the survivors
    // and verify the truncated output honors its error bound end to end.
    let (q, keys, inst) = quantized(256, 64, 31);
    let pc = PrecisionConfig::paper();
    let outcome = ProgressivePruner::new(PrunerConfig::new(1e-3).expect("thr"))
        .run(&q, &keys)
        .expect("run");
    let pairs = outcome.probability_pairs();
    let qvalues = QMatrix::quantize_flat(inst.values().data(), inst.dim(), pc).expect("non-empty");
    let budget = 1e-2;
    let plan =
        token_picker::core::ValuePlan::compute(&pairs, pc, qvalues.scale(), budget).expect("plan");
    let (approx, bound) = token_picker::core::truncated_weighted_sum(&plan, &pairs, &qvalues);
    assert!(bound <= budget + 1e-12);
    let exact = weighted_value_sum(&pairs, inst.values());
    for (a, b) in approx.iter().zip(&exact) {
        // Budget + quantization slack.
        assert!((a - b).abs() < (budget + 0.05) as f32, "{a} vs {b}");
    }
    assert!(plan.extra_reduction(64) >= 1.0);
}

#[test]
fn decision_trace_explains_accelerator_traffic_shape() {
    // The reference trace's chunk-depth distribution must match the
    // reference pruner's chunk-fetch counters.
    let (q, keys, _) = quantized(128, 64, 37);
    let cfg = PrunerConfig::new(1e-3).expect("thr");
    let events = token_picker::core::trace_pruning(&cfg, &q, &keys).expect("trace");
    let outcome = ProgressivePruner::new(cfg).run(&q, &keys).expect("run");
    let mut per_depth = [0u64; 3];
    for e in &events {
        per_depth[(e.chunks_known - 1) as usize] += 1;
    }
    assert_eq!(per_depth.to_vec(), outcome.stats.chunk_fetches);
}

#[test]
fn prompt_then_generation_pipeline() {
    // Prompt phase preloads and computes causally; generation phase prunes.
    // Run both on consistent shapes to validate the full inference flow.
    let pc = PrecisionConfig::paper();
    let n = 64;
    let inst = SynthInstance::generate(&SynthProfile::realistic(n, 64), 41);
    let queries: Vec<token_picker::core::QVector> = (0..n)
        .map(|i| {
            token_picker::core::QVector::quantize(
                inst.key_row(i), // reuse keys as stand-in queries
                pc,
            )
        })
        .collect();
    let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).expect("non-empty");
    let cfg = AccelConfig::baseline();
    let prompt = token_picker::accel::run_prompt_phase(&cfg, &queries, &keys, inst.values())
        .expect("prompt phase");
    assert_eq!(prompt.outputs.len(), n);

    // Generation step over the same cache.
    let q = QVector::quantize(&inst.query, pc);
    let gen_cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("cfg");
    let gen = ToPickAccelerator::new(gen_cfg)
        .run_attention(&q, &keys, inst.values())
        .expect("generation step");
    assert!(gen.cycles > 0);
}

/// The paper's §2.2.1 argument on the serving engine's step: the FC/FFN
/// weights stream once per step while every request streams its own KV,
/// so attention's share of the step — and ToPick's payoff — grows with
/// the batch.
#[test]
fn batched_step_simulation_uses_model_specs() {
    const PROMPT: usize = 256;
    let spec = ModelSpec::opt_6_7b();
    // The first step of `batch` requests that all joined at step 0.
    let first_step = |accel: AccelConfig, batch: usize| {
        let mut engine = ServingEngine::builder(accel)
            .weight_bytes(spec.weight_bytes())
            .heads(spec.n_layers * spec.n_heads)
            .max_batch(batch)
            .max_batch_tokens(batch * (PROMPT + 16))
            .build();
        for id in 0..batch as u64 {
            engine
                .enqueue(ServingRequest::new(id, PROMPT, 1))
                .expect("enqueue");
        }
        let step = engine.step().expect("step").expect("a busy step");
        assert_eq!(step.batch, batch);
        step
    };
    let tp_cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("cfg");
    let mut prev: Option<(u64, f64, f64)> = None;
    for batch in [1usize, 8, 64] {
        let base = first_step(AccelConfig::baseline(), batch);
        let tp = first_step(tp_cfg.clone(), batch);
        let share = base.attention_cycles as f64 / base.total_cycles() as f64;
        let speedup = base.total_cycles() as f64 / tp.total_cycles() as f64;
        assert_eq!(base.weight_cycles, tp.weight_cycles);
        if let Some((prev_weight_cycles, prev_share, prev_speedup)) = prev {
            assert_eq!(base.weight_cycles, prev_weight_cycles, "batch {batch}");
            assert!(
                share > prev_share,
                "batch {batch}: share {share} <= {prev_share}"
            );
            assert!(
                speedup > prev_speedup,
                "batch {batch}: speedup {speedup} <= {prev_speedup}"
            );
        }
        prev = Some((base.weight_cycles, share, speedup));
    }
    // At context 256 (1/8th of the paper's S=2048) the KV share of a
    // 64-request step is small but must still be visible, and ToPick must
    // shrink the step.
    let (_, share, speedup) = prev.expect("three batches");
    assert!(share > 0.05, "attention share {share}");
    assert!(speedup > 1.0, "batched speedup {speedup}");
}
