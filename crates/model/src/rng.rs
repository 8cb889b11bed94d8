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

use std::f64::consts::{FRAC_2_PI, PI};

use rand::Rng;

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
/// draws, then three branch-free loops the compiler vectorizes — the
/// polynomial radius, the polynomial cosine, and the product with its
/// rounding test (one fused loop measured ≈ 6 % slower). A block with a
/// draw the test did not settle takes a last, scalar pass that recomputes
/// just those with libm's `ln` and `cos` (see the module documentation).
pub fn extend_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut Vec<f32>, n: usize, sigma: f64) {
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

    #[test]
    fn extend_normal_equals_the_scalar_formula_bit_for_bit() {
        const SIGMAS: [f64; 7] = [0.3, 1.0, -1.5, 0.02, 0.0, 1e-30, 1e30];
        for (s, &sigma) in SIGMAS.iter().enumerate() {
            for n in 0..=300 {
                let seed = (s * 1000 + n) as u64;
                let (mut fast, mut scalar) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let head = normal_vec(&mut fast, n % 7, 0.5);
                assert_eq!(bits(&head), scalar_normals(&mut scalar, n % 7, 0.5));

                let mut out = head.clone();
                extend_normal(&mut fast, &mut out, n, sigma);
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
