//! Fig. 3 — instance-to-instance variability of correlation-score
//! distributions: two contrasting instances at context 1024, plus a
//! population sweep of dominant-token fractions.

use topick_model::{InstanceSampler, SynthInstance, SynthProfile};

use crate::util::{bar, header};

/// Histogram of scores in fixed bins over `[-10, 10]`.
#[must_use]
fn score_histogram(scores: &[f64], bins: usize) -> Vec<usize> {
    let mut h = vec![0usize; bins];
    for &s in scores {
        let t = ((s + 10.0) / 20.0).clamp(0.0, 0.999_999);
        h[(t * bins as f64) as usize] += 1;
    }
    h
}

/// The two contrasting instances of the figure plus a population sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Data {
    /// Dominant-token count of the wide-spread instance (paper: 48/1024).
    pub wide_dominant: usize,
    /// Dominant-token count of the narrow-spread instance (paper: 241/1024).
    pub narrow_dominant: usize,
    /// Dominant fractions across a sampled population.
    pub population_fractions: Vec<f64>,
}

/// Computes the figure's data at the given context length.
#[must_use]
pub fn compute(context: usize, population: usize) -> Fig3Data {
    let wide = SynthInstance::generate(&SynthProfile::wide_spread(context, 64), 0xA);
    let narrow = SynthInstance::generate(&SynthProfile::narrow_spread(context, 64), 0xA);
    let sampler = InstanceSampler::realistic(context, 64);
    let population_fractions = (0..population)
        .map(|i| sampler.sample(i as u64).dominant_tokens(1e-3) as f64 / context as f64)
        .collect();
    Fig3Data {
        wide_dominant: wide.dominant_tokens(1e-3),
        narrow_dominant: narrow.dominant_tokens(1e-3),
        population_fractions,
    }
}

/// Prints the figure.
pub fn run(fast: bool) {
    let context = 1024;
    let population = if fast { 16 } else { 64 };
    header("Fig. 3 — score-distribution variability across instances");

    let wide = SynthInstance::generate(&SynthProfile::wide_spread(context, 64), 0xA);
    let narrow = SynthInstance::generate(&SynthProfile::narrow_spread(context, 64), 0xA);
    println!("score histograms (context {context}):");
    let hw = score_histogram(&wide.realized_scores(), 20);
    let hn = score_histogram(&narrow.realized_scores(), 20);
    println!(
        "{:>6}  {:<22}  {:<22}",
        "score", "instance A (wide)", "instance B (narrow)"
    );
    for (i, (a, b)) in hw.iter().zip(&hn).enumerate() {
        let lo = -10.0 + i as f64;
        println!(
            "{:>6.0}  {:<22}  {:<22}",
            lo,
            bar(*a as f64 / context as f64 * 4.0, 20),
            bar(*b as f64 / context as f64 * 4.0, 20)
        );
    }
    let data = compute(context, population);
    println!();
    println!(
        "dominant tokens (p > 1e-3): instance A = {} ({:.1}%), instance B = {} ({:.1}%)",
        data.wide_dominant,
        100.0 * data.wide_dominant as f64 / context as f64,
        data.narrow_dominant,
        100.0 * data.narrow_dominant as f64 / context as f64,
    );
    let min = data
        .population_fractions
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let max = data
        .population_fractions
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    println!(
        "population of {} instances: dominant fraction ranges {:.1}% .. {:.1}%",
        population,
        100.0 * min,
        100.0 * max
    );
    println!("paper anchors: 4.6% (instance A) vs 23.5% (instance B) at context 1024");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variability_reproduced() {
        let d = compute(1024, 16);
        assert!(d.wide_dominant < d.narrow_dominant);
        // Population must actually vary by at least 2x between extremes.
        let min = d
            .population_fractions
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = d
            .population_fractions
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(max > 2.0 * min, "variability too small: {min} .. {max}");
    }

    #[test]
    fn histogram_counts_everything() {
        let h = score_histogram(&[-100.0, 0.0, 100.0, 3.2], 10);
        assert_eq!(h.iter().sum::<usize>(), 4);
    }
}
