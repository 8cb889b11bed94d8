//! Deterministic random-number helpers (Gaussian sampling on top of `rand`).

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
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills a vector with `n` i.i.d. `N(0, sigma^2)` samples as `f32`.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, sigma: f64) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    extend_normal(rng, &mut out, n, sigma);
    out
}

/// Appends `n` i.i.d. `N(0, sigma^2)` samples as `f32` to `out` — the
/// samples [`normal_vec`] would return, without a vector of their own.
pub fn extend_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut Vec<f32>, n: usize, sigma: f64) {
    out.extend((0..n).map(|_| (standard_normal(rng) * sigma) as f32));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
