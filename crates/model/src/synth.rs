//! Synthetic attention workloads with realistic score distributions.
//!
//! We do not have the paper's pretrained models; what drives every access
//! experiment is the *distribution of attention scores*, so this module
//! generates (query, keys, values) triples whose scores follow a controlled
//! profile:
//!
//! * **Locality** (Fig. 4a): recent tokens receive an exponentially decaying
//!   recency boost; the first token (attention sink) receives its own boost.
//! * **Heavy-tailed background**: remaining tokens draw Gaussian scores whose
//!   spread varies *per instance* (Fig. 3: in one instance 4.6% of tokens are
//!   dominant, in another 23.5%).
//!
//! Keys are constructed so the quantized dot products hit the target scores
//! exactly up to quantization error: `k_i = r_i + ((s_i·√d − q·r_i)/‖q‖²)·q`
//! for a random residual `r_i ⊥`-ish to `q`.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

#[cfg(target_arch = "x86_64")]
use topick_core::cpu::has_wide_lanes;
use topick_core::quant::quantize_into;
use topick_core::{PrecisionConfig, QMatrix, QVector, QuantBuffer, Quantizer, Rows};

use crate::rng::{approx_normals, extend_normal, normal_bounds, normal_vec, standard_normal};
use crate::tensor::dot;

/// Parameters of the synthetic score profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProfile {
    /// Context length (number of cached tokens).
    pub context_len: usize,
    /// Head dimension.
    pub dim: usize,
    /// Mean of the background score distribution (nats).
    pub score_mean: f64,
    /// Standard deviation of background scores. Larger spread ⇒ fewer
    /// dominant tokens after softmax (paper Fig. 3).
    pub score_std: f64,
    /// Additive boost for the most recent tokens.
    pub locality_strength: f64,
    /// Exponential decay length (tokens) of the recency boost.
    pub locality_decay: f64,
    /// Additive boost for the first token (attention sink).
    pub sink_strength: f64,
}

impl SynthProfile {
    /// A profile matching measured LLM attention at a given context length:
    /// noticeable recency locality, a strong sink, and a background spread
    /// that leaves a few percent of tokens dominant.
    #[must_use]
    pub fn realistic(context_len: usize, dim: usize) -> Self {
        Self {
            context_len,
            dim,
            score_mean: 0.0,
            score_std: 2.5,
            locality_strength: 4.0,
            locality_decay: 8.0,
            sink_strength: 3.0,
        }
    }

    /// A profile with a *wide* score spread — few dominant tokens
    /// (instance A in Fig. 3).
    #[must_use]
    pub fn wide_spread(context_len: usize, dim: usize) -> Self {
        Self {
            score_std: 3.5,
            ..Self::realistic(context_len, dim)
        }
    }

    /// A profile with a *narrow* score spread — many dominant tokens
    /// (instance B in Fig. 3).
    #[must_use]
    pub fn narrow_spread(context_len: usize, dim: usize) -> Self {
        Self {
            score_std: 1.2,
            locality_strength: 2.0,
            sink_strength: 1.5,
            ..Self::realistic(context_len, dim)
        }
    }

    /// Samples a raw score vector only (no key construction) — enough for
    /// access simulators that consume scores directly, such as the SpAtten
    /// cascade model.
    #[must_use]
    pub fn sample_scores(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0E_5EED);
        (0..self.context_len)
            .map(|i| self.deterministic_boost(i) + self.score_std * standard_normal(&mut rng))
            .collect()
    }

    /// Target score for token `i` of `n` before the Gaussian term.
    #[must_use]
    fn deterministic_boost(&self, i: usize) -> f64 {
        let n = self.context_len;
        let recency = (n - 1 - i) as f64;
        let mut s =
            self.score_mean + self.locality_strength * (-recency / self.locality_decay).exp();
        if i == 0 {
            s += self.sink_strength;
        }
        s
    }
}

/// The half of a synthetic instance that decides what an attention step
/// *costs*: the query, the target scores and the keys realizing them —
/// everything [`SynthInstance::generate`] draws before the value matrix,
/// bit for bit (values come last in the seed's stream and feed only the
/// output vector).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthKeys {
    /// The query vector (head dimension).
    pub query: Vec<f32>,
    /// Key rows, `n × dim` row-major.
    keys: Vec<f32>,
    dim: usize,
    /// The scores the construction targeted (after `1/sqrt(d)` scaling).
    pub target_scores: Vec<f64>,
}

/// The spread of a key's random residual: small, so the projection
/// dominates.
const RESIDUAL_SIGMA: f64 = 0.3;

/// Appends the key rows realizing `scores` to `keys`: each a small random
/// residual `r` projected onto its score, `k = r + ((s·√d − q·r)/‖q‖²)·q`.
fn fill_rows(rng: &mut StdRng, query: &[f32], scores: &[f64], keys: &mut Vec<f32>) {
    let projection = Projection::new(query);
    // All residuals drawn straight into the key rows (the projection draws
    // nothing, so the stream is that of drawing row by row) and projected
    // in place.
    let start = keys.len();
    extend_normal(rng, keys, scores.len() * query.len(), RESIDUAL_SIGMA);
    for (row, &s) in keys[start..].chunks_exact_mut(query.len()).zip(scores) {
        projection.apply(s, row);
    }
}

/// The projection of a residual row onto its target score, the one
/// routine every key row is built by.
struct Projection<'q> {
    query: &'q [f32],
    sqrt_d: f64,
    q_norm2: f64,
}

impl<'q> Projection<'q> {
    fn new(query: &'q [f32]) -> Self {
        Self {
            query,
            sqrt_d: (query.len() as f64).sqrt(),
            q_norm2: f64::from(dot(query, query)).max(1e-9),
        }
    }

    /// The row's coefficient `((s·√d − q·r)/‖q‖²) as f32` from `q·r` —
    /// [`dot`]'s, in `f64` — and so non-increasing in it.
    #[inline(always)]
    fn alpha(&self, s: f64, qr: f64) -> f32 {
        ((s * self.sqrt_d - qr) / self.q_norm2) as f32
    }

    /// Turns the residual `row` into its key row, `k = r + alpha·q`.
    fn apply(&self, s: f64, row: &mut [f32]) {
        let alpha = self.alpha(s, f64::from(dot(self.query, row)));
        for (k, &qi) in row.iter_mut().zip(self.query) {
            *k += alpha * qi;
        }
    }

    /// The key row of score `s` whose residuals `rng` draws next, into
    /// `row`: a row of [`fill_rows`], bit for bit.
    fn exact_row(&self, rng: &mut StdRng, s: f64, row: &mut Vec<f32>) {
        row.clear();
        extend_normal(rng, row, self.query.len(), RESIDUAL_SIGMA);
        self.apply(s, row);
    }
}

impl SynthKeys {
    /// Generates the query, target scores and keys of the instance
    /// [`SynthInstance::generate`] builds from the same profile and seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate(profile: &SynthProfile, seed: u64) -> Self {
        Self::draw(profile, &mut StdRng::seed_from_u64(seed))
    }

    /// The key construction, leaving `rng` where the value draw starts.
    fn draw(profile: &SynthProfile, rng: &mut StdRng) -> Self {
        let mut target_scores = Vec::new();
        let query = Self::draw_scores(profile, rng, &mut target_scores);
        let mut keys = Vec::with_capacity(target_scores.len() * query.len());
        fill_rows(rng, &query, &target_scores, &mut keys);
        Self {
            query,
            keys,
            dim: profile.dim,
            target_scores,
        }
    }

    /// The query, then the target scores into `scores`: every draw before
    /// the key residuals.
    fn draw_scores(profile: &SynthProfile, rng: &mut StdRng, scores: &mut Vec<f64>) -> Vec<f32> {
        assert!(profile.context_len > 0, "context_len must be positive");
        assert!(profile.dim > 0, "dim must be positive");
        let query = normal_vec(rng, profile.dim, 1.0);
        scores.clear();
        scores.extend((0..profile.context_len).map(|i| {
            let z = standard_normal(rng);
            profile.deterministic_boost(i) + profile.score_std * z
        }));
        query
    }

    /// The quantized query and keys of the instance
    /// [`generate`](Self::generate) builds — bit for bit
    /// `(QVector::quantize(&k.query, precision), codes.quantize(k.keys().data(),
    /// dim, precision))` of `k = SynthKeys::generate(profile, seed)` — with
    /// the keys' codes drawn into `codes`' allocation (take it back with
    /// [`QuantBuffer::reclaim`]) and no float key kept.
    ///
    /// Draws each key only as an interval that provably holds it, takes
    /// the interval's code where both ends get the same one (the
    /// quantizer is monotone), and recomputes a row exactly where one does
    /// not: a few rows in a hundred at paper precision.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate_codes(
        profile: &SynthProfile,
        seed: u64,
        precision: PrecisionConfig,
        scratch: &mut CodeScratch,
        codes: &mut QuantBuffer,
    ) -> (QVector, QMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = Self::draw_scores(profile, &mut rng, &mut scratch.scores);
        let mut buf = codes.take();
        let scale = draw_codes(&mut rng, &query, precision, scratch, &mut buf);
        let keys = QMatrix::from_codes(buf, profile.dim, scale, precision)
            .expect("a positive number of rows of a positive width");
        (QVector::quantize(&query, precision), keys)
    }

    /// Key rows as a zero-copy row-major view.
    #[must_use]
    pub fn keys(&self) -> Rows<'_> {
        Rows::new(&self.keys, self.dim)
    }
}

/// The buffers [`SynthKeys::generate_codes`] works in, kept from one
/// instance to the next by a caller that generates many, so that only an
/// instance larger than every earlier one allocates.
#[derive(Debug, Default)]
pub struct CodeScratch {
    /// The target scores.
    scores: Vec<f64>,
    /// Per row, `d` approximate residuals (exact keys once the row's are).
    residuals: Vec<f32>,
    /// Per row, what the second pass needs of the first.
    rows: Vec<Row>,
    /// An exactly recomputed row (all rows, on the exact path).
    exact: Vec<f32>,
}

impl CodeScratch {
    /// The bytes its buffers hold allocated: what keeping it from one
    /// instance to the next costs.
    #[must_use]
    pub fn footprint(&self) -> usize {
        use std::mem::size_of;
        self.scores.capacity() * size_of::<f64>()
            + self.residuals.capacity() * size_of::<f32>()
            + self.rows.capacity() * size_of::<Row>()
            + self.exact.capacity() * size_of::<f32>()
    }
}

/// One row of [`draw_codes`] between its passes.
#[derive(Debug, Clone)]
struct Row {
    /// The generator where the row's residual draws start.
    start: StdRng,
    /// Bounds on the row's `alpha`; `None` once its keys are exact.
    alpha: Option<(f32, f32)>,
    /// A cheap upper bound on the row's largest `|k|`.
    reach: f64,
}

/// How far inside a code's rounding interval, in code units, both ends of
/// a key's interval must lie: `CODE_MARGIN` plus `CODE_MARGIN_REL` of the
/// end's own magnitude. The ends are scaled by an `f32` multiplication by
/// `inv`, `1/scale` rounded to `f64` then `f32`, where the quantizer
/// divides in `f64`: under `2⁻²³·1.0002` of the scaled value in all
/// (three roundings, two of them `f32`'s), which the relative term covers
/// twice; the quantizer's own rounding, `2⁻⁵³` relative at codes below
/// `2¹⁵`, is far below the absolute term.
const CODE_MARGIN: f32 = 1.0 / (1u32 << 20) as f32;
const CODE_MARGIN_REL: f32 = 1.0 / (1u32 << 22) as f32;

/// `2²³·1.5`: adding it rounds an `f32` of magnitude below `2²²` to an
/// integer, which lands in the low mantissa bits as two's complement.
const TO_INT: f32 = 1.5 / f32::EPSILON;

/// The code of every value in `[lo, hi]`, and whether that is proven: with
/// `t = x·inv`, both ends round to the same integer `c` and lie more than
/// the [`CODE_MARGIN`]s inside `(c − ½, c + ½)`. Then every `x` in between
/// has `fl(x/scale)` strictly inside that interval, and
/// [`Quantizer::code`] maps it to `c` (which is in range: no key exceeds
/// the largest magnitude the scale was set from). `t − c` is exact
/// (Sterbenz), and a NaN or infinite `t` settles nothing.
#[inline(always)]
fn settled_code(lo: f32, hi: f32, inv: f32) -> (i16, bool) {
    let (t_lo, t_hi) = (lo * inv, hi * inv);
    let (r_lo, r_hi) = (t_lo + TO_INT, t_hi + TO_INT);
    let (c_lo, c_hi) = (r_lo - TO_INT, r_hi - TO_INT);
    let inside = |t: f32| (0.5 - CODE_MARGIN) - t.abs() * CODE_MARGIN_REL;
    // `&`, not `&&`: no branch, so the loop over a row vectorizes.
    let settled = (r_lo.to_bits() == r_hi.to_bits())
        & ((t_lo - c_lo).abs() < inside(t_lo))
        & ((t_hi - c_hi).abs() < inside(t_hi));
    (r_lo.to_bits() as i16, settled)
}

/// Lanes of [`dot_bounds`]' partial sums.
const LANES: usize = 16;

/// Bounds on the exact row's `q·r` — [`dot`]'s sequential `f32` sum of
/// the products `pⱼ = fl(qⱼ·rⱼ)` — from its approximate residuals, with
/// no chain of dependent additions; and the largest `|r'|` of the row.
///
/// Each `pⱼ` lies between the products of `qⱼ` with the residual's ends
/// (rounding is monotone; the ends swap where `qⱼ < 0`), so `Σ pⱼ` lies
/// between their sums. The sequential sum rounds at each of its additions
/// `k = 1 … d − 1`, by at most `u·|Ŝₖ|` (`u = 2⁻²⁴`), and each partial sum
/// `|Ŝₖ| ≤ (1 + u)ᵏ·Σ_{j≤k} |pⱼ|`: in all at most `u·(1 + u)ᵈ·Σⱼ wⱼ·|pⱼ|`,
/// `wⱼ = d − max(j, 1)` the additions term `j` is part of. The sums run in
/// `f32` lanes of `m = ⌈d/16⌉` terms each, then `f64`: a lane's roundings
/// move its sum by at most `m·u` of its terms' magnitudes, so the slack
/// adds `m·u·Σ|pⱼ|` for the two ends' sums and widens the two magnitude
/// sums by `1 + 2m·u`.
#[inline(always)]
fn dot_bounds(query: &[f32], residuals: &[f32]) -> (f64, f64, f32) {
    let (mut low, mut high) = ([0f32; LANES], [0f32; LANES]);
    let (mut size, mut weighted) = ([0f32; LANES], [0f32; LANES]);
    let mut largest = [0u32; LANES];
    let d = query.len();
    let mut add = |k: usize, j: usize, q: f32, r: f32| {
        let w = (d - j.max(1)) as f32;
        largest[k] = largest[k].max(r.to_bits() & ABS_BITS);
        let (l, h) = normal_bounds(r, RESIDUAL_SIGMA);
        let (a, b) = (q * l, q * h);
        let (a, b) = if q >= 0.0 { (a, b) } else { (b, a) };
        let m = a.abs().max(b.abs());
        low[k] += a;
        high[k] += b;
        size[k] += m;
        weighted[k] += w * m;
    };
    let (q, r) = (query.chunks_exact(LANES), residuals.chunks_exact(LANES));
    let tails = (q.remainder(), r.remainder());
    let mut j = 0;
    for (q, r) in q.zip(r) {
        // Whole lanes, so the loop is one vector step and the sums stay in
        // registers.
        let q: &[f32; LANES] = q.try_into().expect("a whole chunk");
        let r: &[f32; LANES] = r.try_into().expect("a whole chunk");
        for k in 0..LANES {
            add(k, j + k, q[k], r[k]);
        }
        j += LANES;
    }
    let (q, r) = tails;
    for k in 0..q.len() {
        add(k, j + k, q[k], r[k]);
    }
    // Pairwise in `f64`, so the four totals are four short chains.
    let total = |lanes: [f32; LANES]| {
        let mut sum = lanes.map(f64::from);
        let mut width = LANES / 2;
        while width > 0 {
            for i in 0..width {
                sum[i] += sum[i + width];
            }
            width /= 2;
        }
        sum[0]
    };
    let u = f64::from(f32::EPSILON) / 2.0;
    let (d, m) = (d as f64, d.div_ceil(LANES) as f64);
    let widen = 1.0 + 2.0 * m * u;
    let slack =
        u * (1.0 + 2.0 * u * d) * total(weighted) * widen + (m + 1.0) * u * total(size) * widen;
    let largest = f32::from_bits(largest.into_iter().max().unwrap_or(0));
    (total(low) - slack, total(high) + slack, largest)
}

/// All bits of an `f32` but its sign: its magnitude's bits, which order as
/// the magnitude does.
const ABS_BITS: u32 = 0x7fff_ffff;

/// Bounds on the key `r + alpha·q` from the approximate residual `r` and
/// bounds on `alpha`: the exact key's `f32` product and sum evaluated at
/// the ends, each monotone (the ends of `alpha` swap where `q < 0`).
#[inline(always)]
fn key_bounds(r: f32, q: f32, (alpha_lo, alpha_hi): (f32, f32)) -> (f32, f32) {
    let (lo, hi) = normal_bounds(r, RESIDUAL_SIGMA);
    let (a, b) = if q >= 0.0 {
        (alpha_lo, alpha_hi)
    } else {
        (alpha_hi, alpha_lo)
    };
    (lo + a * q, hi + b * q)
}

/// The keys' codes into `codes` and their scale, for the residual draws
/// `rng` holds next and the target scores in `scratch` — what
/// [`fill_rows`] then [`quantize_into`] give, bit for bit.
///
/// A row's residuals are drawn only as approximations ([`approx_normals`])
/// with bounds that provably hold the exact ones ([`normal_bounds`]), and
/// every later step carries the bounds instead of one value: the exact
/// row's operations — the products `qⱼ·rⱼ`, `alpha`'s `f64` formula and
/// its rounding, `rⱼ + alpha·qⱼ` — are each monotone in their inputs, so
/// evaluating them at the ends (ordered by `qⱼ`'s sign) bounds the exact
/// key; only the sequential dot's roundings need a bound of their own
/// ([`dot_bounds`]). Then:
///
/// 1. The scale needs the largest `|k|` exactly. The row with the largest
///    upper bound on `|k|` is recomputed exactly ([`Projection::exact_row`],
///    from the generator saved at the row's start); the largest of all is
///    at least its largest key, so only the rows whose upper bound reaches
///    that — usually none — can hold a larger one, and are recomputed too.
/// 2. Each key's code is the code both its ends get ([`settled_code`]);
///    a row with a key that test does not settle is recomputed exactly
///    and quantized as [`quantize_into`] does.
///
/// Any bound that is not finite sends the whole instance down the exact
/// path, [`fill_rows`] then [`quantize_into`].
///
/// Runs the body's AVX-512 copy where the running x86-64 CPU has AVX-512
/// F, DQ and VL (and AVX2), its baseline copy on every other host and
/// target. Both give the exact path's codes, so they agree; they even
/// recompute the same rows, as every step is elementwise or a sum in lanes
/// the body writes out in order, which rounds alike in any vector width.
fn draw_codes(
    rng: &mut StdRng,
    query: &[f32],
    precision: PrecisionConfig,
    scratch: &mut CodeScratch,
    codes: &mut Vec<i16>,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if has_wide_lanes() {
        // SAFETY: `has_wide_lanes` has just detected every feature
        // `draw_codes_wide` is compiled for on the running CPU.
        return unsafe { draw_codes_wide(rng, query, precision, scratch, codes) };
    }
    draw_codes_body(rng, query, precision, scratch, codes)
}

#[cfg(all(test, target_arch = "x86_64"))]
thread_local! {
    /// Calls of [`draw_codes_wide`] on this thread.
    static WIDE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// Rows [`draw_codes`] recomputed exactly on this thread, and rows it
    /// drew.
    static EXACT_ROWS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Counts `exact` recomputed rows of `rows` drawn, in tests.
#[inline(always)]
fn count_rows(exact: usize, rows: usize) {
    #[cfg(test)]
    EXACT_ROWS.with(|c| {
        let (e, r) = c.get();
        c.set((e + exact as u64, r + rows as u64));
    });
    let _ = (exact, rows);
}

/// [`draw_codes_body`] compiled for AVX-512: sixteen `f32` lanes for the
/// residual kernel, the bounds and the code test, eight 64-bit lanes for
/// the draws and their reductions.
///
/// # Safety
///
/// The running CPU must have every feature it is compiled for, as
/// [`has_wide_lanes`] reports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn draw_codes_wide(
    rng: &mut StdRng,
    query: &[f32],
    precision: PrecisionConfig,
    scratch: &mut CodeScratch,
    codes: &mut Vec<i16>,
) -> f64 {
    #[cfg(test)]
    WIDE_CALLS.with(|count| count.set(count.get() + 1));
    draw_codes_body(rng, query, precision, scratch, codes)
}

/// The one body of [`draw_codes`], inlined into each copy so each is
/// compiled for its own features.
#[inline(always)]
fn draw_codes_body(
    rng: &mut StdRng,
    query: &[f32],
    precision: PrecisionConfig,
    scratch: &mut CodeScratch,
    codes: &mut Vec<i16>,
) -> f64 {
    let d = query.len();
    let projection = Projection::new(query);
    let CodeScratch {
        scores,
        residuals,
        rows,
        exact,
    } = scratch;
    let n = scores.len();
    // Every residual is written before it is read: only growth is filled.
    residuals.resize(n * d, 0.0);
    rows.clear();
    // `|k| = |fl(r + fl(alpha·q))| ≤ (|r| + |alpha|·|q|)·(1 + u)²`: a
    // row's keys reach at most its largest residual bound plus its
    // largest `|alpha|` times the query's largest `|q|`, and `SPARE` covers
    // the roundings, in `f32` and in the bound's own `f64` arithmetic.
    const SPARE: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;
    let q_max = f64::from(query.iter().fold(0f32, |m, q| m.max(q.abs())));
    let first = rng.clone();
    let mut finite = true;
    for (r, &s) in residuals.chunks_exact_mut(d).zip(scores.iter()) {
        let start = rng.clone();
        approx_normals(rng, RESIDUAL_SIGMA, r);
        let (qr_lo, qr_hi, largest) = dot_bounds(query, r);
        let alpha = (projection.alpha(s, qr_hi), projection.alpha(s, qr_lo));
        let alpha_max = f64::from(alpha.0.abs().max(alpha.1.abs()));
        let r_max = f64::from(normal_bounds(largest, RESIDUAL_SIGMA).1);
        let reach = (r_max + alpha_max * q_max) * SPARE;
        // A reach of `f32::MAX` or more, or NaN: a key bound may not be
        // finite.
        finite &= reach < f64::from(f32::MAX);
        let alpha = Some(alpha);
        rows.push(Row {
            start,
            alpha,
            reach,
        });
    }
    if !finite {
        count_rows(n, n);
        *rng = first;
        exact.clear();
        fill_rows(rng, query, scores, exact);
        return quantize_into(exact, precision, codes);
    }

    // The largest `|k|` of all is at least the largest of any one row, so
    // only rows whose bound reaches that can hold it: the row that reaches
    // furthest, made exact, then any other whose keys' bounds reach its
    // largest key (rarely one).
    let mut make_exact = |i: usize, rows: &mut [Row], residuals: &mut [f32]| {
        let row = &mut rows[i];
        projection.exact_row(&mut row.start.clone(), scores[i], exact);
        residuals[i * d..][..d].copy_from_slice(exact);
        row.alpha = None;
        exact.iter().fold(0f32, |m, k| m.max(k.abs()))
    };
    let top = (0..n).max_by(|&a, &b| rows[a].reach.total_cmp(&rows[b].reach));
    let top = top.expect("a positive number of rows");
    let mut max_abs = make_exact(top, rows, residuals);
    let mut recomputed = 1;
    for i in 0..n {
        let Some(alpha) = rows[i]
            .alpha
            .filter(|_| rows[i].reach >= f64::from(max_abs))
        else {
            continue;
        };
        let r = residuals[i * d..][..d].iter();
        let peak = r.zip(query).fold(0f32, |peak, (&r, &q)| {
            let (lo, hi) = key_bounds(r, q, alpha);
            peak.max(lo.abs()).max(hi.abs())
        });
        if peak >= max_abs {
            recomputed += 1;
            max_abs = max_abs.max(make_exact(i, rows, residuals));
        }
    }
    let quantizer = Quantizer::new(f64::from(max_abs), precision);
    // `1/scale` as an `f32`: zero (one-bit codes, an infinite scale) or
    // normal, where [`CODE_MARGIN_REL`] holds; NaN, which settles no key,
    // for a scale too small or too large for that.
    let inv = (1.0 / quantizer.scale()) as f32;
    let inv = if inv == 0.0 || inv.is_normal() {
        inv
    } else {
        f32::NAN
    };

    codes.resize(n * d, 0);
    let keys = codes.chunks_exact_mut(d).zip(residuals.chunks_exact(d));
    for ((out, r), (row, &s)) in keys.zip(rows.iter().zip(scores.iter())) {
        let settled = match row.alpha {
            None => {
                for (c, &k) in out.iter_mut().zip(r) {
                    *c = quantizer.code(f64::from(k));
                }
                true
            }
            Some(alpha) => {
                let mut settled = true;
                for ((c, &r), &q) in out.iter_mut().zip(r).zip(query) {
                    let (lo, hi) = key_bounds(r, q, alpha);
                    let (code, ok) = settled_code(lo, hi, inv);
                    *c = code;
                    settled &= ok;
                }
                settled
            }
        };
        if !settled {
            recomputed += 1;
            projection.exact_row(&mut row.start.clone(), s, exact);
            for (c, &k) in out.iter_mut().zip(&*exact) {
                *c = quantizer.code(f64::from(k));
            }
        }
    }
    count_rows(recomputed, n);
    quantizer.scale()
}

/// One synthetic attention instance: a query, keys and values realizing a
/// target score vector.
///
/// Keys and values are stored contiguous row-major and exposed through
/// zero-copy [`Rows`] views, matching the layout the attention data path
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthInstance {
    /// The query vector (head dimension).
    pub query: Vec<f32>,
    /// Key rows, `n × dim` row-major.
    keys: Vec<f32>,
    /// Value rows, `n × dim` row-major.
    values: Vec<f32>,
    dim: usize,
    /// The scores the construction targeted (after `1/sqrt(d)` scaling).
    pub target_scores: Vec<f64>,
}

impl SynthInstance {
    /// Generates one instance from a profile and seed: [`SynthKeys`] plus
    /// the value matrix, drawn from the same stream.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate(profile: &SynthProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let SynthKeys {
            query,
            keys,
            dim,
            target_scores,
        } = SynthKeys::draw(profile, &mut rng);
        let values = normal_vec(&mut rng, keys.len(), 1.0);
        Self {
            query,
            keys,
            values,
            dim,
            target_scores,
        }
    }

    /// Number of cached tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.target_scores.len()
    }

    /// Whether the instance holds no tokens (never true: generation
    /// requires a positive context length).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.target_scores.is_empty()
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Key rows as a zero-copy row-major view.
    #[must_use]
    pub fn keys(&self) -> Rows<'_> {
        Rows::new(&self.keys, self.dim)
    }

    /// Value rows as a zero-copy row-major view.
    #[must_use]
    pub fn values(&self) -> Rows<'_> {
        Rows::new(&self.values, self.dim)
    }

    /// One key row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn key_row(&self, i: usize) -> &[f32] {
        self.keys().row(i)
    }

    /// One value row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn value_row(&self, i: usize) -> &[f32] {
        self.values().row(i)
    }

    /// Consumes the instance, returning the flat value buffer.
    #[must_use]
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// The realized (float, pre-quantization) scores `q·k_i / sqrt(d)`.
    #[must_use]
    pub fn realized_scores(&self) -> Vec<f64> {
        let sqrt_d = (self.query.len() as f64).sqrt();
        self.keys()
            .iter()
            .map(|k| f64::from(dot(&self.query, k)) / sqrt_d)
            .collect()
    }

    /// Softmax probabilities of the realized scores.
    #[must_use]
    pub fn exact_probabilities(&self) -> Vec<f64> {
        topick_core::softmax(&self.realized_scores())
    }

    /// Number of tokens whose exact probability exceeds `threshold`
    /// (the "dominant token" count of Fig. 3).
    #[must_use]
    pub fn dominant_tokens(&self, threshold: f64) -> usize {
        self.exact_probabilities()
            .iter()
            .filter(|&&p| p > threshold)
            .count()
    }
}

/// Samples instance profiles with per-instance spread variability, modeling
/// the population of (layer, head, query) combinations in a real model.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSampler {
    /// Base profile; `score_std` is re-drawn per instance.
    pub base: SynthProfile,
    /// Range of per-instance score standard deviations.
    pub std_range: (f64, f64),
}

impl InstanceSampler {
    /// A sampler covering the paper's observed variability (4.6%–23.5%
    /// dominant tokens at context 1024).
    #[must_use]
    pub fn realistic(context_len: usize, dim: usize) -> Self {
        Self {
            base: SynthProfile::realistic(context_len, dim),
            std_range: (1.2, 3.6),
        }
    }

    /// The profile of instance `seed`: the base with its spread re-drawn.
    ///
    /// The spread is biased toward the wide (peaky-softmax) end: measured
    /// LLM attention has mostly concentrated heads with an occasional flat
    /// one, which is what makes the paper's 12.1× average V pruning
    /// coexist with Fig. 3's 23.5% worst case.
    fn profile(&self, seed: u64) -> SynthProfile {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let (lo, hi) = self.std_range;
        let std = lo + (hi - lo) * rng.gen::<f64>().powf(0.45);
        SynthProfile {
            score_std: std,
            ..self.base.clone()
        }
    }

    /// Draws one instance.
    #[must_use]
    pub fn sample(&self, seed: u64) -> SynthInstance {
        SynthInstance::generate(&self.profile(seed), seed)
    }

    /// Draws the query, target scores and keys of instance `seed` — what
    /// [`sample`](Self::sample) returns, without the value matrix.
    #[must_use]
    pub fn sample_keys(&self, seed: u64) -> SynthKeys {
        SynthKeys::generate(&self.profile(seed), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{error_units, BOUND_UNITS};

    type DrawCodes =
        fn(&mut StdRng, &[f32], PrecisionConfig, &mut CodeScratch, &mut Vec<i16>) -> f64;

    /// Query codes and scale bits, then key codes and scale bits.
    type Quantized = (Vec<i16>, u64, Vec<i16>, u64);

    fn parts(q: &QVector, keys: &QMatrix) -> Quantized {
        let codes = (0..keys.num_tokens())
            .flat_map(|t| keys.row(t).to_vec())
            .collect();
        (
            q.codes().to_vec(),
            q.scale().to_bits(),
            codes,
            keys.scale().to_bits(),
        )
    }

    /// The three calls serving made before [`SynthKeys::generate_codes`].
    fn three_calls(profile: &SynthProfile, seed: u64, pc: PrecisionConfig) -> Quantized {
        let k = SynthKeys::generate(profile, seed);
        let q = QVector::quantize(&k.query, pc);
        let keys = QuantBuffer::new()
            .quantize(k.keys().data(), profile.dim, pc)
            .unwrap();
        parts(&q, &keys)
    }

    /// [`SynthKeys::generate_codes`] with `draw` in place of the
    /// dispatcher, on a scratch and code buffer kept across calls.
    fn codes_via(
        draw: DrawCodes,
        profile: &SynthProfile,
        seed: u64,
        pc: PrecisionConfig,
        scratch: &mut CodeScratch,
        buf: &mut QuantBuffer,
    ) -> Quantized {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = SynthKeys::draw_scores(profile, &mut rng, &mut scratch.scores);
        let mut codes = buf.take();
        let scale = draw(&mut rng, &query, pc, scratch, &mut codes);
        let keys = QMatrix::from_codes(codes, profile.dim, scale, pc).unwrap();
        let out = parts(&QVector::quantize(&query, pc), &keys);
        buf.reclaim(keys);
        out
    }

    const PROFILES: [fn(usize, usize) -> SynthProfile; 3] = [
        SynthProfile::realistic,
        SynthProfile::wide_spread,
        SynthProfile::narrow_spread,
    ];

    /// Contexts 1–300, 1 024 and 4 096, each at one of dims 1, 7, 64 and
    /// 128, one precision of 1–15 bits and one profile, turn by turn.
    fn sweep() -> impl Iterator<Item = (SynthProfile, u64, PrecisionConfig)> {
        (1..=300).chain([1024, 4096]).enumerate().map(|(i, n)| {
            let dim = [1, 7, 64, 128][i % 4];
            let bits = 1 + (i % 15) as u32;
            let profile = PROFILES[i % 3](n, dim);
            (profile, i as u64, PrecisionConfig::new(bits, bits).unwrap())
        })
    }

    fn assert_equals_the_three_calls(draw: DrawCodes) {
        let (mut scratch, mut buf) = (CodeScratch::default(), QuantBuffer::new());
        for (profile, seed, pc) in sweep() {
            let got = codes_via(draw, &profile, seed, pc, &mut scratch, &mut buf);
            let want = three_calls(&profile, seed, pc);
            let what = format!(
                "context {}, dim {}, {} bits, std {}",
                profile.context_len,
                profile.dim,
                pc.total_bits(),
                profile.score_std
            );
            assert_eq!(got.0, want.0, "query codes: {what}");
            assert_eq!(got.1, want.1, "query scale: {what}");
            assert_eq!(got.3, want.3, "key scale: {what}");
            let first = got.2.iter().zip(&want.2).position(|(a, b)| a != b);
            assert_eq!(first, None, "first differing key code: {what}");
        }
    }

    /// Every key's interval holds its exact key: the residual bounds, the
    /// dot's and `alpha`'s together, checked key by key against
    /// [`Projection::exact_row`] over contexts 1–300 and 1 024, each at
    /// one of dims 7, 64 and 128 and one profile in turn. The intervals do
    /// not depend on the precision, so this covers every key [`draw_codes`]
    /// settles, at paper precision or any other. The codes alone cannot
    /// show a residual bound that is too tight: the dot bound's slack
    /// covers it in almost every row.
    ///
    /// Nor can the intervals alone show a bound that is too tight by half:
    /// `f32` ends are whole ulps apart, and a residual more than half the
    /// bound off is still inside the rounded ends. So each exact residual
    /// is also held to the bound before rounding, on the draws
    /// `draw_codes` makes.
    #[test]
    fn every_key_lies_inside_its_bounds() {
        let contexts = (1..=300)
            .map(|n| (n, n))
            .chain((0..9).map(|turn| (1024, turn)));
        let (mut r, mut exact, mut scores) = (Vec::new(), Vec::new(), Vec::new());
        let mut residuals = Vec::new();
        for (n, turn) in contexts {
            let dim = [7, 64, 128][turn % 3];
            let profile = PROFILES[turn / 3 % 3](n, dim);
            let seed = (n * 10 + turn) as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let query = SynthKeys::draw_scores(&profile, &mut rng, &mut scores);
            let projection = Projection::new(&query);
            r.resize(dim, 0.0);
            for &s in &scores {
                // As `draw_codes`' first pass bounds the row.
                let start = rng.clone();
                approx_normals(&mut rng, RESIDUAL_SIGMA, &mut r);
                let (qr_lo, qr_hi, _) = dot_bounds(&query, &r);
                let alpha = (projection.alpha(s, qr_hi), projection.alpha(s, qr_lo));
                projection.exact_row(&mut start.clone(), s, &mut exact);
                residuals.clear();
                extend_normal(&mut start.clone(), &mut residuals, dim, RESIDUAL_SIGMA);
                let exact_rows = exact.iter().zip(&residuals);
                for (j, ((&r, &q), (&k, &x))) in r.iter().zip(&query).zip(exact_rows).enumerate() {
                    let (lo, hi) = key_bounds(r, q, alpha);
                    let what = format!("context {n}, dim {dim}, seed {seed}, key {j}");
                    assert!(
                        !(lo.is_finite() && hi.is_finite()) || (lo <= k && k <= hi),
                        "{what}: {k} outside [{lo}, {hi}]"
                    );
                    let units = error_units(x, r, RESIDUAL_SIGMA);
                    assert!(
                        units <= BOUND_UNITS,
                        "{what}: residual {units:.2} units off"
                    );
                }
            }
        }
    }

    /// Through the dispatcher: the AVX-512 copy where the host has it.
    #[test]
    fn generate_codes_equals_the_three_calls_bit_for_bit() {
        assert_equals_the_three_calls(draw_codes);
    }

    /// The baseline copy, called directly, so it stays covered on a host
    /// whose dispatcher picks the AVX-512 one.
    #[test]
    fn the_baseline_copy_equals_the_three_calls_bit_for_bit() {
        assert_equals_the_three_calls(draw_codes_body);
    }

    /// Spreads from zero to past `f32`'s range: tiny, huge and infinite
    /// keys, all-zero scores, and bounds that are not finite, which take
    /// the exact path.
    #[test]
    fn extreme_spreads_equal_the_three_calls() {
        let (mut scratch, mut buf) = (CodeScratch::default(), QuantBuffer::new());
        for (i, std) in [0.0, 1e-30, 1e20, 1e30, 1e38, 1e300]
            .into_iter()
            .enumerate()
        {
            for (n, dim) in [(1, 1), (9, 7), (40, 64)] {
                let profile = SynthProfile {
                    score_std: std,
                    locality_strength: if std == 0.0 { 0.0 } else { 4.0 },
                    sink_strength: if std == 0.0 { 0.0 } else { 3.0 },
                    ..SynthProfile::realistic(n, dim)
                };
                for bits in [1, 12, 15] {
                    let pc = PrecisionConfig::new(bits, bits).unwrap();
                    let seed = (i * 100 + n) as u64;
                    let got = codes_via(draw_codes, &profile, seed, pc, &mut scratch, &mut buf);
                    let want = three_calls(&profile, seed, pc);
                    assert_eq!(got, want, "std {std}, context {n}, dim {dim}, {bits} bits");
                }
            }
        }
    }

    /// A dispatcher that never picks the AVX-512 copy fails here on any
    /// host that has the features.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_wide_copy_runs_wherever_the_host_has_it() {
        // Detected here, not through `has_wide_lanes`, which is under test.
        let wide = is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl");
        let before = WIDE_CALLS.with(std::cell::Cell::get);
        let profile = SynthProfile::realistic(8, 64);
        let _ = SynthKeys::generate_codes(
            &profile,
            3,
            PrecisionConfig::paper(),
            &mut CodeScratch::default(),
            &mut QuantBuffer::new(),
        );
        let calls = WIDE_CALLS.with(std::cell::Cell::get) - before;
        assert_eq!(calls, u64::from(wide), "AVX-512 F/DQ/VL detected: {wide}");
    }

    /// At paper precision and context 1 024 the exact rows — the scale's
    /// and the rows the code test left — are under a tenth, and some are
    /// recomputed, so the fallback is exercised.
    #[test]
    fn few_rows_fall_back_at_paper_precision() {
        let (mut scratch, mut buf) = (CodeScratch::default(), QuantBuffer::new());
        let before = EXACT_ROWS.with(std::cell::Cell::get);
        for seed in 0..8 {
            let profile = SynthProfile::realistic(1024, 64);
            let pc = PrecisionConfig::paper();
            let got = codes_via(draw_codes, &profile, seed, pc, &mut scratch, &mut buf);
            assert_eq!(got, three_calls(&profile, seed, pc), "seed {seed}");
        }
        let (exact, rows) = EXACT_ROWS.with(std::cell::Cell::get);
        let (exact, rows) = (exact - before.0, rows - before.1);
        assert!(
            exact >= 8,
            "every instance recomputes its largest key's row"
        );
        assert!(exact * 10 < rows, "{exact} of {rows} rows recomputed");
    }

    #[test]
    fn realized_scores_match_targets() {
        let p = SynthProfile::realistic(128, 64);
        let inst = SynthInstance::generate(&p, 11);
        let realized = inst.realized_scores();
        for (t, r) in inst.target_scores.iter().zip(&realized) {
            assert!((t - r).abs() < 1e-3, "target {t} vs realized {r}");
        }
    }

    #[test]
    fn locality_boost_shapes_probabilities() {
        let p = SynthProfile {
            score_std: 0.0, // isolate the deterministic part
            ..SynthProfile::realistic(64, 32)
        };
        let inst = SynthInstance::generate(&p, 5);
        let probs = inst.exact_probabilities();
        // Most recent token and the sink should dominate the middle.
        let mid = probs[30];
        assert!(probs[63] > mid);
        assert!(probs[0] > mid);
    }

    #[test]
    fn spread_controls_dominant_count() {
        let n = 1024;
        let wide = SynthInstance::generate(&SynthProfile::wide_spread(n, 64), 1);
        let narrow = SynthInstance::generate(&SynthProfile::narrow_spread(n, 64), 1);
        let dw = wide.dominant_tokens(1e-3);
        let dn = narrow.dominant_tokens(1e-3);
        assert!(
            dw < dn,
            "wide spread should have fewer dominant tokens: {dw} vs {dn}"
        );
        // Paper's Fig. 3 band: instance A 4.6%, instance B 23.5%.
        assert!(
            (dw as f64) / (n as f64) < 0.12,
            "wide frac {}",
            dw as f64 / n as f64
        );
        assert!(
            (dn as f64) / (n as f64) > 0.10,
            "narrow frac {}",
            dn as f64 / n as f64
        );
    }

    #[test]
    fn sampler_produces_varied_instances() {
        let s = InstanceSampler::realistic(512, 64);
        let counts: Vec<usize> = (0..8).map(|i| s.sample(i).dominant_tokens(1e-3)).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min, "sampler produced identical dominant counts");
    }

    #[test]
    fn deterministic_generation() {
        let p = SynthProfile::realistic(32, 16);
        assert_eq!(
            SynthInstance::generate(&p, 9),
            SynthInstance::generate(&p, 9)
        );
    }
}
