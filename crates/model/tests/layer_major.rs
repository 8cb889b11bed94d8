//! Differential test of the layer-major forward run: `prefill` of a run of
//! tokens must leave exactly what feeding the same tokens one at a time
//! leaves — logits to the bit, every K/V row to the bit, the kernel's
//! pruning statistics and, for the simulator, its cycles — for every
//! attention backend of the workspace, over the contiguous `KvCache` and
//! over paged sequences that were forked and truncated first.

use proptest::prelude::*;
use topick_accel::{AccelConfig, AccelMode, SimulatedAttention};
use topick_core::{PruneStats, PrunerConfig};
use topick_model::{
    AttentionBackend, DecodeKv, ExactAttention, KvCache, ModelSpec, PagedKvBinding, PagedKvStore,
    PagedSeq, TokenPickerAttention, TransformerModel,
};
use topick_spatten::TopKAttention;

/// The reference: the token-at-a-time loop `prefill` ran before forward
/// runs were layer-major, kept verbatim.
fn prefill_token_at_a_time(
    model: &TransformerModel,
    tokens: &[usize],
    kv: &mut dyn DecodeKv,
    kernel: &mut dyn AttentionBackend,
) -> Vec<f32> {
    assert!(!tokens.is_empty(), "prefill needs at least one token");
    let mut logits = Vec::new();
    for &t in tokens {
        logits = model.decode_step(t, kv, kernel);
    }
    logits
}

const BACKENDS: usize = 4;

/// A backend, kept concrete where it has more to compare than statistics.
enum Kernel {
    Functional(Box<dyn AttentionBackend>),
    Simulated(Box<SimulatedAttention>),
}

impl Kernel {
    /// A fresh backend of kind `which`: Exact, TokenPicker, SpAtten's
    /// top-k, and the cycle-level simulator.
    fn new(which: usize, spec: &ModelSpec) -> Self {
        let threshold = PrunerConfig::new(1e-3).expect("valid threshold");
        Self::Functional(match which {
            0 => Box::new(ExactAttention::new()),
            1 => Box::new(TokenPickerAttention::new(threshold)),
            2 => Box::new(TopKAttention::new(0.5)),
            _ => return Self::Simulated(Box::new(simulated(spec))),
        })
    }

    fn as_dyn(&mut self) -> &mut dyn AttentionBackend {
        match self {
            Self::Functional(k) => k.as_mut(),
            Self::Simulated(k) => k.as_mut(),
        }
    }

    /// The accumulated statistics and, for the simulator, cycles.
    fn observed(&self) -> (Option<PruneStats>, Option<u64>) {
        match self {
            Self::Functional(k) => (k.accumulated_stats().cloned(), None),
            Self::Simulated(k) => (k.accumulated_stats().cloned(), Some(k.cycles())),
        }
    }
}

fn simulated(spec: &ModelSpec) -> SimulatedAttention {
    let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    cfg.dim = spec.head_dim();
    SimulatedAttention::new(cfg)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every row of a contiguous cache, as bits, layer-major.
fn cache_rows(cache: &KvCache, spec: &ModelSpec) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rows = Vec::new();
    for layer in 0..spec.n_layers {
        for head in cache.layer(layer) {
            rows.push((bits(head.keys().data()), bits(head.values().data())));
        }
    }
    rows
}

/// Every row of every paged sequence, as bits.
fn paged_rows(store: &PagedKvStore, seqs: &[&[PagedSeq]]) -> Vec<(Vec<u32>, Vec<u32>)> {
    seqs.iter()
        .flat_map(|bundle| bundle.iter())
        .map(|seq| {
            let (mut keys, mut values) = (Vec::new(), Vec::new());
            store.gather_into(seq, &mut keys, &mut values);
            (bits(&keys), bits(&values))
        })
        .collect()
}

/// The tokens of a case: `0..len` drawn from `seed`, inside the vocabulary.
fn tokens(seed: u64, len: usize, vocab: usize) -> Vec<usize> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % vocab
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over a contiguous cache that already holds `built` tokens (then
    /// truncated to `kept` of them), two runs back to back — `run` tokens,
    /// then the rest — through `prefill` and through the token-at-a-time
    /// loop, for every backend.
    #[test]
    fn layer_major_prefill_equals_token_at_a_time_over_a_cache(
        seed in any::<u64>(),
        built in 0usize..=64,
        kept_share in 0.0f64..1.0,
        run in 1usize..=64,
        second in 0usize..=16,
    ) {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), seed);
        let all = tokens(seed, built + run + second, spec.vocab);
        let kept = (built as f64 * kept_share) as usize;
        let runs = [&all[kept..kept + run], &all[kept + run..]];
        for which in 0..BACKENDS {
            let mut start = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
            if built > 0 {
                let mut warm = Kernel::new(which, &spec);
                prefill_token_at_a_time(&model, &all[..built], &mut start, warm.as_dyn());
            }
            start.truncate(kept);
            let (mut layer_major, mut reference) = (start.clone(), start);
            let mut kernels = (Kernel::new(which, &spec), Kernel::new(which, &spec));
            for tokens in runs.into_iter().filter(|r| !r.is_empty()) {
                let a = model.prefill(tokens, &mut layer_major, kernels.0.as_dyn());
                let b = prefill_token_at_a_time(&model, tokens, &mut reference, kernels.1.as_dyn());
                prop_assert_eq!(bits(&a), bits(&b), "logits, backend {}", which);
                prop_assert_eq!(
                    cache_rows(&layer_major, &spec),
                    cache_rows(&reference, &spec),
                    "rows, backend {}", which
                );
            }
            prop_assert_eq!(kernels.0.observed(), kernels.1.observed(), "backend {}", which);
        }
    }

    /// Over paged sequences: a parent of `built` tokens, a child forked
    /// from it at `fork_at` and truncated to `kept`, then two runs on the
    /// child through `prefill` and through the token-at-a-time loop — in
    /// twin stores, so every row of the child *and* of the parent (whose
    /// pages the child may share or copy on write) must agree.
    #[test]
    fn layer_major_prefill_equals_token_at_a_time_over_paged_sequences(
        seed in any::<u64>(),
        page_size in 1usize..=8,
        built in 1usize..=64,
        fork_share in 0.0f64..1.0,
        kept_share in 0.0f64..1.0,
        run in 1usize..=64,
        second in 0usize..=16,
    ) {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), seed);
        let heads = spec.n_layers * spec.n_heads;
        let fork_at = (built as f64 * fork_share) as usize;
        let kept = (fork_at as f64 * kept_share) as usize;
        let all = tokens(seed, built + run + second, spec.vocab);
        let runs = [&all[kept..kept + run], &all[kept + run..]];
        for which in 0..BACKENDS {
            let mut store = PagedKvStore::new(spec.head_dim(), page_size);
            let mut parent = vec![store.new_seq(); heads];
            let mut warm = Kernel::new(which, &spec);
            let mut binding = PagedKvBinding::new(&mut store, &mut parent, spec.n_heads);
            prefill_token_at_a_time(&model, &all[..built], &mut binding, warm.as_dyn());
            let mut child: Vec<PagedSeq> = parent.iter().map(|s| store.fork(s, fork_at)).collect();
            for seq in &mut child {
                store.truncate(seq, kept);
            }
            let mut twin = (store.clone(), child.clone());
            let mut kernels = (Kernel::new(which, &spec), Kernel::new(which, &spec));
            for tokens in runs.into_iter().filter(|r| !r.is_empty()) {
                let mut a = PagedKvBinding::new(&mut store, &mut child, spec.n_heads);
                let mut b = PagedKvBinding::new(&mut twin.0, &mut twin.1, spec.n_heads);
                let a = model.prefill(tokens, &mut a, kernels.0.as_dyn());
                let b = prefill_token_at_a_time(&model, tokens, &mut b, kernels.1.as_dyn());
                prop_assert_eq!(bits(&a), bits(&b), "logits, backend {}", which);
                prop_assert_eq!(
                    paged_rows(&store, &[&parent, &child]),
                    paged_rows(&twin.0, &[&parent, &twin.1]),
                    "rows, backend {}", which
                );
            }
            store.validate(&parent.iter().chain(&child).collect::<Vec<_>>());
            prop_assert_eq!(kernels.0.observed(), kernels.1.observed(), "backend {}", which);
        }
    }
}

/// The simulator's cycles and statistics count every call once: a layer-
/// major prefill makes exactly `layers × heads` calls per token, reading
/// each token's own prefix, so its statistics see every prefix length once
/// per head and layer.
#[test]
fn a_prefill_makes_one_call_per_token_head_and_layer() {
    let spec = ModelSpec::toy();
    let model = TransformerModel::new_random(spec.clone(), 3);
    let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut kernel = simulated(&spec);
    let n = 40;
    let _ = model.prefill(&tokens(3, n, spec.vocab), &mut cache, &mut kernel);
    let stats: PruneStats = kernel.accumulated_stats().expect("tracked").clone();
    // Σ_{t=1..n} t rows per (layer, head).
    assert_eq!(stats.tokens, spec.n_layers * spec.n_heads * n * (n + 1) / 2);
}
