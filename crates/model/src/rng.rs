//! Deterministic random-number helpers (Gaussian sampling on top of `rand`).
//!
//! Every normal here is the Box–Muller transform of two uniform draws,
//! `sqrt(-2 ln u1) · cos(2π u2)`. [`standard_normal`] evaluates it with
//! libm and returns the `f64`. The `f32` samples of [`extend_normal`] and
//! [`normal_vec`] are, **bit for bit**, `(standard_normal(rng) * sigma) as
//! f32` drawn one after another — the same values from the same stream —
//! but most of them skip libm's `ln` and `cos`, calls that cannot be
//! vectorized and once were most of a draw's cost (`cos`'s range
//! reduction branches on a uniformly random argument).
//!
//! The logarithm and the cosine are branch-free polynomials instead, the
//! radius `c' = sqrt(-2·ln' u1)` within a stated relative error of libm's
//! `c` and the cosine `d'` within a stated absolute error of libm's. That
//! alone would change samples: near a rounding boundary of `f32`, two
//! `f64`s a few ulps apart round to neighbouring `f32`s. So a sample is
//! accepted only where that provably cannot happen (Ziv's rounding test,
//! "Fast evaluation of elementary functions with correctly rounded last
//! bit", 1991): with `v' = (c'·d')·sigma` and `err` a bound on how far
//! libm's product `(c·cos x)·sigma` can lie from `v'`, both `v' − err` and
//! `v' + err` must round to `v' as f32`. Rounding is monotone, so then
//! every value between them — libm's among them — rounds to the same
//! `f32`. Everywhere else, about one draw in a million, the sample falls
//! back to libm's `ln` and `cos` and the scalar expression itself: that
//! fallback is what makes the result exact rather than merely close.
//!
//! The sampler is compiled twice from one body. On an x86-64 host with
//! AVX-512 F, DQ and VL, [`extend_normal`] runs a copy built for them:
//! eight `f64` lanes, and DQ's 64-bit multiply and integer → `f64`
//! conversion let the SplitMix64 draws vectorize too (the generator's
//! state only adds a constant per draw, so a block of draws is a block of
//! counters — the counter-based view of Salmon et al., "Parallel Random
//! Numbers: As Easy as 1, 2, 3", SC '11). Everywhere else the same body
//! runs at the target's baseline (SSE2's two lanes on x86-64). Both copies
//! give the same bits: Rust never contracts `a*b + c` into a fused
//! multiply-add, every loop is elementwise (no reduction to reorder), each
//! `+`, `*`, `/`, `sqrt` and conversion rounds correctly in any lane width,
//! the integer draws are exact, and the fallback is the same libm call.
//!
//! Where the sample is only quantized afterwards, the rounding test can
//! move to the quantizer, which keeps about half the bits: the crate's
//! `approx_normals` draws the same normals as `f32` approximations in
//! `f32` lanes, and `normal_bounds` bounds each exact sample around its
//! approximation (`BOUND_REL` derives the bound).

use std::f64::consts::{FRAC_2_PI, PI};

use rand::Rng;
#[cfg(target_arch = "x86_64")]
use topick_core::cpu::has_wide_lanes;

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use topick_model::rng::standard_normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, angle) = polar(rng);
    libm_radius(u1) * angle.cos()
}

/// The two draws of one Box–Muller normal: `u1`, whose radius is
/// [`libm_radius`], and the angle `2π u2`.
#[inline]
fn polar<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1]: a
    // multiple of 2⁻⁵³, so never below 2⁻⁵³.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, 2.0 * PI * u2)
}

/// The radius `sqrt(-2 ln u1)`, with libm's `ln`.
#[inline]
fn libm_radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// Fills a vector with `n` i.i.d. `N(0, sigma^2)` samples as `f32`: the
/// values `(standard_normal(rng) * sigma) as f32` would give, bit for bit.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, sigma: f64) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    extend_normal(rng, &mut out, n, sigma);
    out
}

/// Normals drawn per pass of [`extend_normal`].
const BLOCK: usize = 64;

/// Bound on `|poly_cos(x) − cos x|` for `x ∈ [0, 2π]`, two ulps of a
/// cosine near one. The reduction leaves `r` within half an ulp of
/// `x − kπ/2` (the first product is exact, the subtraction exact by
/// Sterbenz, the second constant's product far below an ulp of `r`); the
/// kernels approximate within 2⁻⁵⁸ of the true function and round in
/// under two ulps. `kernel_error_is_within_its_bound` holds `poly_cos` to
/// it against libm's `cos` itself (worst seen: one ulp, 2⁻⁵³).
const COS_KERNEL_ERR: f64 = 2.0 * f64::EPSILON;

/// How far libm's `cos` may stray from the true cosine: glibc documents at
/// most one ulp (2⁻⁵³ absolute); this budget allows eight.
const LIBM_COS_ERR: f64 = 4.0 * f64::EPSILON;

/// Bound on `|poly_ln(u) − ln u| / |ln u|` for `u ∈ [2⁻⁵³, 1)`, two ulps.
/// fdlibm's analysis of the same reduction and kernel (`log(1+f) = f −
/// (hfsq − s·(hfsq+R))`, the form it keeps for accuracy, with `k·ln 2`
/// split in two) bounds it below one ulp. `ln_kernel_error_is_within_its_bound`
/// holds `poly_ln` to it against libm's `ln` itself (worst seen: 2⁻⁵²).
const LN_KERNEL_ERR: f64 = 2.0 * f64::EPSILON;

/// How far libm's `ln` may stray from the true logarithm, relative: glibc
/// documents under one ulp; this budget allows two.
const LIBM_LN_ERR: f64 = 2.0 * f64::EPSILON;

/// Bound on `|c − c'| / c'` for libm's radius `c = sqrt(-2 ln u1)` and
/// `c' = sqrt(-2·poly_ln(u1))`. The two logarithms differ by at most four
/// ulps relative, which the square root halves; each `sqrt` rounds by
/// half an ulp more — under three ulps together; this budget, the
/// logarithms' whole difference, allows four.
const RADIUS_ERR: f64 = LN_KERNEL_ERR + LIBM_LN_ERR;

/// The roundings, relative to `|c'·sigma|`: two products on each side
/// (2⁻⁵³ each), `v' ± err` and `err` itself — under six times 2⁻⁵³
/// together; this budget allows eight.
const ROUNDING_ERR: f64 = 4.0 * f64::EPSILON;

/// `err = |c'·sigma| · ERR_PER_UNIT`: libm's `((c·cos x)·sigma)` lies
/// within `err` of `v' = ((c'·d')·sigma)` — `|c·cos x − c'·d'|` is at most
/// `|c − c'| + c'·|cos x − d'|` — and `v' ± err` round no further in.
const ERR_PER_UNIT: f64 = RADIUS_ERR + COS_KERNEL_ERR + LIBM_COS_ERR + ROUNDING_ERR;

/// Smallest `|c'·sigma|` the rounding test is applied at. Above it `err`,
/// `v'` and every product are normal (`|d'| > 2⁻⁶⁰` and `c' > 2⁻²⁷` for
/// every nonzero draw), so the relative bounds hold; below it — a zero
/// radius or sigma among them — the sample takes the libm path.
const MIN_SCALE: f64 = 1e-250;

/// Appends `n` i.i.d. `N(0, sigma^2)` samples as `f32` to `out` — the
/// samples [`normal_vec`] would return, without a vector of their own.
///
/// Equal bit for bit to `n` calls of `(standard_normal(rng) * sigma) as
/// f32`, leaving `rng` where they would. Works in blocks of 64 draws: the
/// draws (vectorized only in the AVX-512 copy below: SSE2 has no 64-bit
/// lane multiply), then three branch-free loops the compiler vectorizes in
/// both copies — the polynomial radius, the polynomial cosine, and the
/// product with its rounding test (one fused loop measured ≈ 6 % slower).
/// A block with a draw the test did not settle takes a last, scalar pass
/// that recomputes just those with libm's `ln` and `cos` (see the module
/// documentation).
///
/// Runs the body's AVX-512 copy where the running x86-64 CPU has AVX-512
/// F, DQ and VL (and AVX2), its baseline copy on every other host and
/// target; the two are bit-identical (see the module documentation). On a
/// 2-core x86-64 Xeon host with AVX-512 a normal costs 4–6 ns in the
/// AVX-512 copy and 14–18 ns in the baseline one (at the benchmark's
/// reference host speed).
pub fn extend_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut Vec<f32>, n: usize, sigma: f64) {
    #[cfg(target_arch = "x86_64")]
    if has_wide_lanes() {
        // SAFETY: `has_wide_lanes` has just detected every feature
        // `extend_normal_wide` is compiled for on the running CPU.
        unsafe { extend_normal_wide(rng, out, n, sigma) };
        return;
    }
    extend_normal_body(rng, out, n, sigma);
}

#[cfg(all(test, target_arch = "x86_64"))]
thread_local! {
    /// Calls of [`extend_normal_wide`] on this thread.
    static WIDE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`extend_normal_body`] compiled for AVX-512: `vpmullq` for SplitMix64's
/// two 64-bit multiplies, `vcvtqq2pd` for its 53 bits → `f64`, and wider
/// lanes for the radius, cosine and rounding loops.
///
/// # Safety
///
/// The running CPU must have every feature it is compiled for, as
/// [`has_wide_lanes`] reports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn extend_normal_wide<R: Rng + ?Sized>(rng: &mut R, out: &mut Vec<f32>, n: usize, sigma: f64) {
    #[cfg(test)]
    WIDE_CALLS.with(|count| count.set(count.get() + 1));
    extend_normal_body(rng, out, n, sigma);
}

/// The one body of [`extend_normal`], inlined into each copy so each is
/// compiled for its own features.
#[inline(always)]
fn extend_normal_body<R: Rng + ?Sized>(rng: &mut R, out: &mut Vec<f32>, n: usize, sigma: f64) {
    out.reserve(n);
    let mut uniform = [0.0; BLOCK];
    let mut angle = [0.0; BLOCK];
    let mut radius = [0.0; BLOCK];
    let mut cosine = [0.0; BLOCK];
    let mut sample = [0.0; BLOCK];
    let mut left = n;
    while left > 0 {
        let m = left.min(BLOCK);
        let (uniform, angle) = (&mut uniform[..m], &mut angle[..m]);
        let (radius, cosine, sample) = (&mut radius[..m], &mut cosine[..m], &mut sample[..m]);
        for (u, x) in uniform.iter_mut().zip(angle.iter_mut()) {
            (*u, *x) = polar(rng);
        }
        for (c, &u) in radius.iter_mut().zip(&*uniform) {
            *c = (-2.0 * poly_ln(u)).sqrt();
        }
        for (d, &x) in cosine.iter_mut().zip(&*angle) {
            *d = poly_cos(x);
        }
        let mut settled = true;
        for ((s, &c), &d) in sample.iter_mut().zip(&*radius).zip(&*cosine) {
            let (f, ok) = rounded_normal(c, d, sigma);
            *s = f;
            settled &= ok;
        }
        if !settled {
            let draws = uniform.iter().zip(&*angle).zip(&*radius).zip(&*cosine);
            for (s, (((&u, &x), &c), &d)) in sample.iter_mut().zip(draws) {
                if !rounded_normal(c, d, sigma).1 {
                    *s = libm_normal(u, x, sigma);
                }
            }
        }
        out.extend_from_slice(sample);
        left -= m;
    }
}

/// `v' as f32` from the polynomial radius `c` and cosine `d` of one draw,
/// and whether the rounding test shows it is that draw's `((libm_radius(u1)
/// * x.cos()) * sigma) as f32`.
#[inline]
fn rounded_normal(c: f64, d: f64, sigma: f64) -> (f32, bool) {
    let v = (c * d) * sigma;
    let scale = (c * sigma).abs();
    let err = scale * ERR_PER_UNIT;
    let f = v as f32;
    // `&`, not `&&`: no branch, so the loop over a block vectorizes.
    let settled = (scale >= MIN_SCALE)
        & (v != 0.0)
        & v.is_finite()
        & (((v - err) as f32).to_bits() == f.to_bits())
        & (((v + err) as f32).to_bits() == f.to_bits());
    (f, settled)
}

#[cfg(test)]
thread_local! {
    /// Samples [`extend_normal`] took from libm's `ln` and `cos` on this
    /// thread.
    static LIBM_NORMALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The scalar expression, `(standard_normal(rng) * sigma) as f32` for the
/// draw `u1 = u` whose angle is `x`.
#[cold]
#[inline(never)]
fn libm_normal(u: f64, x: f64, sigma: f64) -> f32 {
    #[cfg(test)]
    LIBM_NORMALS.with(|count| count.set(count.get() + 1));
    ((libm_radius(u) * x.cos()) * sigma) as f32
}

/// The mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;
/// The bits of `1.0`: a mantissa ORed into it reads as a value in `[1, 2)`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// Added to a mantissa, carries into bit 52 exactly when the value in
/// `[1, 2)` is at least `1 + 0x6a09c·2⁻²⁰`, just below `√2` (fdlibm's
/// `0x95f64` on the high word).
const SQRT2_CARRY: u64 = 0x0009_5f64_0000_0000;
/// The bits of `2⁵²`: ORing a small integer `n` into them reads as `2⁵² + n`.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
/// `2⁵² + 1023`: subtracted from `2⁵² + e`, leaves the unbiased exponent.
const TWO52_BIASED: f64 = 1.0 / f64::EPSILON + 1023.0;

/// fdlibm's `ln2_hi`: `ln 2` to 32 bits, so `k·LN2_HI` is exact.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// fdlibm's `ln2_lo`: `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// fdlibm's `__ieee754_log` coefficients: `R ≈ Σ LGᵢ s^(2i)` within 2⁻⁵⁸
/// for `s = f/(2+f)`, `1 + f ∈ [√2/2, √2)`.
const LG1: f64 = 6.666_666_666_666_735e-1;
const LG2: f64 = 3.999_999_999_940_942e-1;
const LG3: f64 = 2.857_142_874_366_239e-1;
const LG4: f64 = 2.222_219_843_214_978_4e-1;
const LG5: f64 = 1.818_357_216_161_805e-1;
const LG6: f64 = 1.531_383_769_920_937_3e-1;
const LG7: f64 = 1.479_819_860_511_658_6e-1;

/// The natural logarithm of a positive normal `u ≤ 1` within
/// [`LN_KERNEL_ERR`] relative, branch-free — `0` exactly at `u = 1`.
///
/// fdlibm's reduction `u = 2ᵏ·(1 + f)`, `1 + f ∈ [√2/2, √2)`, by integer
/// operations on the bits (the exponent becomes `k` through `2⁵²`'s bits,
/// not an integer conversion), then its kernel on `s = f/(2+f)`:
/// `k·ln2_hi − ((hfsq − (s·(hfsq + R) + k·ln2_lo)) − f)`, `hfsq = f²/2`.
#[inline]
fn poly_ln(u: f64) -> f64 {
    let bits = u.to_bits();
    let carry = ((bits & MANTISSA) + SQRT2_CARRY) & (1 << 52);
    let f = f64::from_bits((bits & MANTISSA) | (carry ^ ONE_BITS)) - 1.0;
    let k = f64::from_bits(TWO52_BITS | ((bits >> 52) + (carry >> 52))) - TWO52_BIASED;

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `2⁵²·1.5`: adding it rounds an `f64` in `[0, 2⁵¹)` to an integer, which
/// lands in the low mantissa bits.
const TO_INT: f64 = 1.5 / f64::EPSILON;
/// `π/2` to 33 bits, so `k·PIO2_HI` is exact for `k ≤ 4` (fdlibm's `pio2_1`).
const PIO2_HI: f64 = 1.570_796_326_734_125_6;
/// `π/2 − PIO2_HI` (fdlibm's `pio2_1t`).
const PIO2_LO: f64 = 6.077_100_506_506_192e-11;

/// fdlibm's `__kernel_cos` coefficients: `cos r ≈ 1 − r²/2 + r⁴·Σ Cᵢ r^(2i−2)`
/// within 2⁻⁵⁸ for `|r| ≤ π/4`.
const C1: f64 = 4.166_666_666_666_66e-2;
const C2: f64 = -1.388_888_888_887_411e-3;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_3e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;
/// fdlibm's `__kernel_sin` coefficients: `sin r ≈ r + r³·Σ Sᵢ r^(2i−2)`
/// within 2⁻⁵⁸ relative for `|r| ≤ π/4`.
const S1: f64 = -1.666_666_666_666_663_2e-1;
const S2: f64 = 8.333_333_333_322_49e-3;
const S3: f64 = -1.984_126_982_985_795e-4;
const S4: f64 = 2.755_731_370_707_006_8e-6;
const S5: f64 = -2.505_076_025_340_686_3e-8;
const S6: f64 = 1.589_690_995_211_55e-10;

/// The cosine of `x ∈ [0, 2π]` within [`COS_KERNEL_ERR`], branch-free.
///
/// A two-constant Cody–Waite reduction `x = kπ/2 + r`, `k ∈ 0..=4`,
/// `|r| ≤ π/4`; both kernels on `r`; then the quadrant by bit select:
/// `cos r`, `−sin r`, `−cos r`, `sin r`, `cos r` for `k` = 0 … 4.
#[inline]
fn poly_cos(x: f64) -> f64 {
    let t = x * FRAC_2_PI + TO_INT;
    let k = t - TO_INT;
    let quadrant = t.to_bits();
    let r = (x - k * PIO2_HI) - k * PIO2_LO;

    let z = r * r;
    let w = z * z;
    let cr = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos_r = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * cr);
    let sr = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin_r = r + (z * r) * (S1 + z * sr);

    let odd = (quadrant & 1).wrapping_neg();
    let negate = ((quadrant + 1) & 2) << 62;
    f64::from_bits(((sin_r.to_bits() & odd) | (cos_r.to_bits() & !odd)) ^ negate)
}

/// How far the sample `(standard_normal(rng) * sigma) as f32` may lie from
/// [`approx_normals`]' `r'` for the same draws, relative to `|r'|`; the
/// derivation is in units of `2⁻²⁴`, the relative bound of one correctly
/// rounded `f32` operation.
///
/// - The exact sample rounds `V = (libm_radius(u1)·cos x)·sigma` to `f32`
///   (1); `V` itself is within `2⁻⁵⁰` relative of `sigma·c·cos(2π·u2)`,
///   `c` the true radius, far below what follows (but see [`BOUND_ABS`]).
/// - The radius `c' = sqrt(−2·ln')`, `ln'` from [`ln_reduce`] and
///   [`ln_kernel`]: the reduction `u1 = 2ᵏ(1 + f)` is exact in `f64`, and
///   `f`'s rounding to `f32` moves `ln u1` by at most `1.21` relative
///   (`|f| / ((1 + f)·|ln(1 + f)|) ≤ 1.2` at `k = 0`, `0.85` at `k = −1`,
///   less below); the kernel, fdlibm's `logf`, is within one ulp (2).
///   Halved by the square root, which rounds once more (1): `2.61`.
/// - The cosine `d'` of [`turn_reduce`] and [`cos_kernel`]: the quarter
///   turn is exact in integers, and `ρ`'s rounding to `f32` (1), the
///   product with `π/2` (1) and that constant's own rounding (`0.47`)
///   leave `θ` within `2.47` relative. `sin θ` keeps that (`θ·cos θ ≤
///   sin θ`), plus its last addition (1) and its polynomial term (`≈ θ³/6`,
///   a few units of a twelfth of it, and `2⁻²⁸` truncation): `3.8`. `cos θ`
///   moves by `|sin θ|·|δθ| ≤ 1.37` absolute, `1.94` relative to `cos θ ≥
///   √2/2`, plus its compensated last addition (1): `3`.
/// - The two products `(c'·d')·sigma'` (2), and `sigma' = sigma as f32`
///   (1).
///
/// `1 + 2.61 + 3.8 + 2 + 1 = 10.41`, second-order terms below a
/// hundredth, and `e`'s own rounding down in [`normal_bounds`] (two `f32`
/// operations) well inside the rest; this budget allows 11.
/// `approx_normal_is_within_its_bound` holds samples to it (the worst of
/// 10⁸ is about 6.5).
const BOUND_REL: f32 = 11.0 / (1u32 << 24) as f32;

/// An absolute term per unit of `|sigma|`, for where a relative bound on
/// the cosine fails: within `2⁻⁵⁰` of a zero of `cos`, where the exact
/// sample's `f64` angle `2π·u2` and libm's `cos` are each a few `2⁻⁵³`
/// off in absolute terms. With the radius below 9, `2⁻⁴⁰` is far more
/// than that and far below any code width.
const BOUND_ABS: f64 = 1.0 / (1u64 << 40) as f64;

/// fdlibm's `e_logf.c` constants: `ln 2` split so `k·LN2_HI_F` is exact,
/// and the kernel `R ≈ Σ Lgᵢ s^(2i)` within `2⁻³⁴` for `s = f/(2+f)`.
const LN2_HI_F: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO_F: f32 = f32::from_bits(0x3717_f7d1);
const LG1_F: f32 = f32::from_bits(0x3f2a_aaaa);
const LG2_F: f32 = f32::from_bits(0x3ecc_ce13);
const LG3_F: f32 = f32::from_bits(0x3e91_e9ee);
const LG4_F: f32 = f32::from_bits(0x3e78_9e26);

/// `ln u` for a positive normal `u ≤ 1`, in `f32` from the `f64` `u`
/// without losing relative precision anywhere: [`ln_reduce`] then
/// [`ln_kernel`].
#[cfg(test)]
fn ln32(u: f64) -> f32 {
    let (f, k) = ln_reduce(u);
    ln_kernel(f, k)
}

/// [`poly_ln`]'s reduction `u = 2ᵏ·(1 + f)`, exact in `f64`, with `f`
/// then rounded to `f32` (`k`, an integer, is exact).
#[inline(always)]
fn ln_reduce(u: f64) -> (f32, f32) {
    let bits = u.to_bits();
    let carry = ((bits & MANTISSA) + SQRT2_CARRY) & (1 << 52);
    let f = f64::from_bits((bits & MANTISSA) | (carry ^ ONE_BITS)) - 1.0;
    let k = f64::from_bits(TWO52_BITS | ((bits >> 52) + (carry >> 52))) - TWO52_BIASED;
    (f as f32, k as f32)
}

/// fdlibm's `logf` kernel: `ln(2ᵏ·(1 + f))`.
#[inline(always)]
fn ln_kernel(f: f32, k: f32) -> f32 {
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1_F + w * LG3_F) + w * (LG2_F + w * LG4_F);
    let hfsq = 0.5 * f * f;
    k * LN2_HI_F - ((hfsq - (s * (hfsq + r) + k * LN2_LO_F)) - f)
}

/// Cephes' `cosf`/`sinf` coefficients for `|θ| ≤ π/4`: `cos θ ≈ 1 − θ²/2
/// + θ⁴·Σ Cᵢ θ^(2i)`, `sin θ ≈ θ + θ³·Σ Sᵢ θ^(2i)`, each within `2⁻²⁸`.
const COS_F: [f32; 3] = [4.166_664_6e-2, -1.388_731_6e-3, 2.443_315_7e-5];
const SIN_F: [f32; 3] = [-1.666_665_5e-1, 8.332_161e-3, -1.951_529_6e-4];

/// `cos(2π·u2)` in `f32` for a draw `u2 ∈ [0, 1)`, with relative
/// precision even near the cosine's zeros: [`turn_reduce`] then
/// [`cos_kernel`].
#[cfg(test)]
fn cos_turn32(u2: f64) -> f32 {
    let (rho, quadrant) = turn_reduce(((u2 * (1u64 << 53) as f64) as u64) << 11);
    cos_kernel(rho, quadrant)
}

/// For the raw draw `x` of `u2 = (x >> 11)·2⁻⁵³`, the nearest quarter turn
/// `n` of `u2` and the remainder `ρ = 4·u2 − n ∈ [−½, ½]`: exact in
/// integers, then `ρ` rounded to `f32`.
#[inline(always)]
fn turn_reduce(x: u64) -> (f32, u32) {
    const QUARTER: u32 = 51;
    let turn = x >> 11;
    let n = (turn + (1 << (QUARTER - 1))) >> QUARTER;
    let rho = (turn as i64 - (n << QUARTER) as i64) as f32 * QUARTER_STEP;
    (rho, n as u32)
}

/// `2⁻⁵¹`, the step of `4·u2`.
const QUARTER_STEP: f32 = 1.0 / (1u64 << 51) as f32;

/// `cos(2π·(n + ρ)/4)` from [`turn_reduce`]'s `ρ` and `n`: with `θ = ρ·π/2`,
/// `cos θ`, `−sin θ`, `−cos θ`, `sin θ`, `cos θ` for `n` = 0 … 4.
#[inline(always)]
fn cos_kernel(rho: f32, quadrant: u32) -> f32 {
    let theta = rho * std::f32::consts::FRAC_PI_2;
    let z = theta * theta;
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let tail = z * z * (COS_F[0] + z * (COS_F[1] + z * COS_F[2]));
    let cos_t = w + (((1.0 - w) - hz) + tail);
    let sin_t = theta + theta * z * (SIN_F[0] + z * (SIN_F[1] + z * SIN_F[2]));
    let odd = (quadrant & 1).wrapping_neg();
    let negate = ((quadrant + 1) & 2) << 30;
    f32::from_bits(((sin_t.to_bits() & odd) | (cos_t.to_bits() & !odd)) ^ negate)
}

/// The `f32` approximation `r' = (c'·d')·sigma'` of the normal whose
/// draws are `u1` and `u2 = (the second draw)·2⁻⁵³`, `sigma' = sigma as
/// f32`: within `BOUND_REL·|r'| + BOUND_ABS·|sigma|` of the sample
/// [`extend_normal`] gives for them.
#[cfg(test)]
fn approx_normal(u1: f64, u2: f64, sigma: f32) -> f32 {
    let c = (-2.0 * ln32(u1)).sqrt();
    (c * cos_turn32(u2)) * sigma
}

/// Writes to `out` the approximations `r'` of the next `out.len()`
/// samples of [`extend_normal`] at `sigma`, leaving `rng` where those
/// draws leave it; [`normal_bounds`] turns each into bounds on its sample.
/// About half the exact samples' cost (2.6 against 4.9 ns a sample in the
/// AVX-512 copies on a 2-core x86-64 Xeon host): `f32` lanes, no rounding
/// test and no fallback; the `SplitMix64` draws are a third of what is
/// left.
#[inline(always)]
pub(crate) fn approx_normals<R: Rng + ?Sized>(rng: &mut R, sigma: f64, out: &mut [f32]) {
    let sigma32 = sigma as f32;
    let (mut fraction, mut exponent) = ([0.0; BLOCK], [0.0; BLOCK]);
    let (mut remainder, mut quadrant) = ([0.0; BLOCK], [0; BLOCK]);
    for out in out.chunks_mut(BLOCK) {
        let m = out.len();
        let (fraction, exponent) = (&mut fraction[..m], &mut exponent[..m]);
        let (remainder, quadrant) = (&mut remainder[..m], &mut quadrant[..m]);
        // The draws and both exact `f64` reductions, in 64-bit lanes; the
        // rest is all 32-bit, so it runs twice as many lanes a vector.
        let reduced = fraction.iter_mut().zip(exponent.iter_mut());
        let turns = remainder.iter_mut().zip(quadrant.iter_mut());
        for ((f, k), (rho, n)) in reduced.zip(turns) {
            (*f, *k) = ln_reduce(1.0 - rng.gen::<f64>());
            (*rho, *n) = turn_reduce(rng.next_u64());
        }
        let reduced = fraction.iter().zip(&*exponent);
        let turns = remainder.iter().zip(&*quadrant);
        for (r, ((&f, &k), (&rho, &n))) in out.iter_mut().zip(reduced.zip(turns)) {
            *r = ((-2.0 * ln_kernel(f, k)).sqrt() * cos_kernel(rho, n)) * sigma32;
        }
    }
}

/// Bounds `lo ≤ (standard_normal(rng) * sigma) as f32 ≤ hi` on the sample
/// whose approximation [`approx_normals`] gave as `r`: `r ∓ e`, `e` the
/// bound [`BOUND_REL`] derives. Rounding `r ∓ e` to `f32` cannot cross the
/// sample, itself an `f32`, since rounding is monotone: so `e` need only
/// reach the sample, and its own rounding down by half an ulp is what the
/// bound's spare unit covers.
#[inline(always)]
pub(crate) fn normal_bounds(r: f32, sigma: f64) -> (f32, f32) {
    let e = r.abs() * BOUND_REL + (BOUND_ABS * sigma.abs()) as f32;
    (r - e, r + e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The scalar formula every `f32` sample must equal.
    fn scalar_normals(rng: &mut StdRng, n: usize, sigma: f64) -> Vec<u32> {
        (0..n)
            .map(|_| ((standard_normal(rng) * sigma) as f32).to_bits())
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = normal_vec(&mut StdRng::seed_from_u64(1), 8, 2.0);
        let b = normal_vec(&mut StdRng::seed_from_u64(1), 8, 2.0);
        assert_eq!(a, b);
    }

    /// `extend` against the scalar formula: block edges (0–300 draws),
    /// appends after a head it drew itself, seven sigmas, and the stream
    /// left where the scalar draws leave it.
    fn assert_equals_the_scalar_formula(extend: fn(&mut StdRng, &mut Vec<f32>, usize, f64)) {
        const SIGMAS: [f64; 7] = [0.3, 1.0, -1.5, 0.02, 0.0, 1e-30, 1e30];
        for (s, &sigma) in SIGMAS.iter().enumerate() {
            for n in 0..=300 {
                let seed = (s * 1000 + n) as u64;
                let (mut fast, mut scalar) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut head = Vec::new();
                extend(&mut fast, &mut head, n % 7, 0.5);
                assert_eq!(bits(&head), scalar_normals(&mut scalar, n % 7, 0.5));

                let mut out = head.clone();
                extend(&mut fast, &mut out, n, sigma);
                assert_eq!(bits(&out[..head.len()]), bits(&head), "prefix kept");
                assert_eq!(
                    bits(&out[head.len()..]),
                    scalar_normals(&mut scalar, n, sigma),
                    "n {n}, sigma {sigma}"
                );
                assert_eq!(
                    fast, scalar,
                    "the stream ends where the scalar draws leave it"
                );
            }
        }
    }

    /// Through the dispatcher: the AVX-512 copy where the host has it.
    #[test]
    fn extend_normal_equals_the_scalar_formula_bit_for_bit() {
        assert_equals_the_scalar_formula(extend_normal);
    }

    /// The baseline copy, called directly, so it stays covered on a host
    /// whose dispatcher picks the AVX-512 one.
    #[test]
    fn the_baseline_copy_equals_the_scalar_formula_bit_for_bit() {
        assert_equals_the_scalar_formula(extend_normal_body);
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
        normal_vec(&mut StdRng::seed_from_u64(3), 100, 1.0);
        let calls = WIDE_CALLS.with(std::cell::Cell::get) - before;
        assert_eq!(calls, u64::from(wide), "AVX-512 F/DQ/VL detected: {wide}");
    }

    #[test]
    fn a_long_run_equals_the_scalar_formula_and_takes_the_libm_path() {
        const N: usize = 10_000_000;
        let before = LIBM_NORMALS.with(std::cell::Cell::get);
        let fast = normal_vec(&mut StdRng::seed_from_u64(29), N, 1.0);
        let fallbacks = LIBM_NORMALS.with(std::cell::Cell::get) - before;
        let scalar = scalar_normals(&mut StdRng::seed_from_u64(29), N, 1.0);
        let first_mismatch = bits(&fast).iter().zip(&scalar).position(|(a, b)| a != b);
        assert_eq!(first_mismatch, None);
        assert!(
            fallbacks > 0,
            "no draw of {N} was close enough to a rounding boundary"
        );
        let mut rng = StdRng::seed_from_u64(29);
        let other_radii = (0..N)
            .filter(|_| {
                let u = polar(&mut rng).0;
                (-2.0 * poly_ln(u)).sqrt() != libm_radius(u)
            })
            .count();
        assert!(
            other_radii > N / 100,
            "only {other_radii} of {N} polynomial radii differ from libm's: \
             the rounding test's radius term went unexercised"
        );
    }

    /// `|exact − r'|` beyond [`BOUND_ABS`], in units of `2⁻²⁴·|r'|` — what
    /// [`BOUND_REL`] bounds — for the draws `u1`, `u2`.
    fn approx_error(u1: f64, u2: f64) -> f64 {
        let sigma = 0.3;
        let exact = ((libm_radius(u1) * (2.0 * PI * u2).cos()) * sigma) as f32;
        let r = approx_normal(u1, u2, sigma as f32);
        let e = (f64::from(exact) - f64::from(r)).abs() - BOUND_ABS * sigma;
        e.max(0.0) / (f64::from(r).abs() * f64::from(f32::EPSILON) / 2.0)
    }

    /// The approximation against the exact samples over two million draws,
    /// and over the edges of both reductions: `u1` at `1 − j·2⁻⁵³` (the
    /// smallest radii) and next to each `2ᵉ` and `2ᵉ·√2/2`, `u2` next to
    /// each eighth of a turn, where `θ` is largest and the kernels meet.
    /// Half the bound is crossed too (about one draw in 10⁴ passes five
    /// units), so the bound is not loose by half.
    #[test]
    fn approx_normal_is_within_its_bound() {
        let bound = f64::from(BOUND_REL / f32::EPSILON * 2.0);
        let mut rng = StdRng::seed_from_u64(37);
        let mut draws: Vec<(f64, f64)> = (0..2_000_000)
            .map(|_| (1.0 - rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let step = f64::EPSILON / 2.0;
        let reduction_edge = f64::from_bits(ONE_BITS | ((1 << 52) - SQRT2_CARRY)) / 2.0;
        let mut u1s: Vec<f64> = (0..4096).map(|j| 1.0 - f64::from(j) * step).collect();
        for e in -52..=0 {
            for edge in [2f64.powi(e), 2f64.powi(e) * reduction_edge] {
                for j in 0..8u64 {
                    u1s.push(f64::from_bits(edge.to_bits() - j));
                    u1s.push(f64::from_bits(edge.to_bits() + j));
                }
            }
        }
        u1s.retain(|u| (step..=1.0).contains(u));
        let turns: Vec<f64> = (0..=8)
            .flat_map(|k| {
                let edge = f64::from(k) / 8.0;
                (0..64).flat_map(move |j| [edge - f64::from(j) * step, edge + f64::from(j) * step])
            })
            .filter(|t| (0.0..1.0).contains(t))
            .collect();
        for (i, &u1) in u1s.iter().enumerate() {
            draws.extend(turns.iter().skip(i % 7).step_by(7).map(|&u2| (u1, u2)));
        }
        let mut worst = (0.0, (1.0, 0.0));
        let mut past_half = 0;
        for (u1, u2) in draws {
            let e = approx_error(u1, u2);
            past_half += usize::from(e > bound / 2.0);
            if e > worst.0 {
                worst = (e, (u1, u2));
            }
        }
        assert!(
            worst.0 <= bound,
            "{:.2} units at (u1, u2) = {:?}",
            worst.0,
            worst.1
        );
        assert!(
            past_half > 0,
            "no draw past half the bound (worst {:.2})",
            worst.0
        );
    }

    /// `|poly_cos(x) − x.cos()|` over a dense grid of `[0, 2π)`, its ends,
    /// and the ±1…4-ulp neighbours of every `kπ/4`, where the reduction
    /// switches quadrant or the kernels reach the edge of their range.
    #[test]
    fn kernel_error_is_within_its_bound() {
        let two_pi = 2.0 * PI;
        let mut xs = vec![0.0, f64::from_bits(two_pi.to_bits() - 1)];
        const GRID: u32 = 1 << 21;
        xs.extend((0..GRID).map(|i| two_pi * f64::from(i) / f64::from(GRID)));
        for k in 0..=8 {
            let edge = f64::from(k) * PI / 4.0;
            for ulps in 1..=4u64 {
                xs.push(f64::from_bits(edge.to_bits() + ulps));
                if edge > 0.0 {
                    xs.push(f64::from_bits(edge.to_bits() - ulps));
                }
            }
            xs.push(edge);
        }
        let mut worst = (0.0, 0.0);
        for x in xs {
            let e = (poly_cos(x) - x.cos()).abs();
            if e > worst.0 {
                worst = (e, x);
            }
        }
        assert!(
            worst.0 <= COS_KERNEL_ERR,
            "|poly_cos − cos| = {:e} at x = {:e} exceeds {COS_KERNEL_ERR:e}",
            worst.0,
            worst.1
        );
    }

    /// `|poly_ln(u) − u.ln()| / |u.ln()|` over every `u1` the draws can
    /// give near both ends (`1 − j·2⁻⁵³` and `j·2⁻⁵³`), a dense grid of
    /// `(0, 1]`, a million draws, and the ±1…4-ulp neighbours of every
    /// power of two (where `k` steps) and of every reduction edge just
    /// below `2ᵉ·√2` (where `f` flips sign).
    #[test]
    fn ln_kernel_error_is_within_its_bound() {
        let reduction_edge = f64::from_bits(ONE_BITS | ((1 << 52) - SQRT2_CARRY));
        assert!((1.414..std::f64::consts::SQRT_2).contains(&reduction_edge));
        assert_eq!(poly_ln(1.0).to_bits(), 0.0f64.to_bits(), "ln 1 is +0");
        let step = f64::EPSILON / 2.0;
        let mut us: Vec<f64> = (1..1u32 << 18)
            .flat_map(|j| [1.0 - f64::from(j) * step, f64::from(j) * step])
            .collect();
        const GRID: u32 = 1 << 20;
        us.extend((1..=GRID).map(|i| f64::from(i) / f64::from(GRID)));
        let mut rng = StdRng::seed_from_u64(31);
        us.extend((0..1_000_000).map(|_| polar(&mut rng).0));
        for e in -53..=0 {
            let power = 2f64.powi(e);
            for edge in [power, power * reduction_edge] {
                for ulps in 0..=4u64 {
                    us.push(f64::from_bits(edge.to_bits() - ulps));
                    us.push(f64::from_bits(edge.to_bits() + ulps));
                }
            }
        }
        us.retain(|&u| (step..=1.0).contains(&u));
        let mut worst = (0.0, 1.0);
        for u in us {
            let exact = u.ln();
            let e = (poly_ln(u) - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
            if e > worst.0 {
                worst = (e, u);
            }
        }
        assert!(
            worst.0 <= LN_KERNEL_ERR,
            "|poly_ln − ln| / |ln| = {:e} at u = {:e} exceeds {LN_KERNEL_ERR:e}",
            worst.0,
            worst.1
        );
    }
}
