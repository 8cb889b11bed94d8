//! The one CPU feature test the workspace's runtime-dispatched loops share.
//!
//! A loop that pays to run wider than baseline x86-64 is compiled twice from
//! one `#[inline(always)]` body: a copy under
//! `#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]`, called
//! when [`has_wide_lanes`] holds, and the baseline copy everywhere else.
//! Today that is the `f32` normal sampler (`topick_model::rng`) and the
//! quantizer ([`QVector::quantize`](crate::QVector::quantize),
//! [`QMatrix::quantize_flat`](crate::QMatrix::quantize_flat)). One test for
//! both means the wide copies cannot drift apart in what they require.

/// Whether the running CPU has AVX2 and AVX-512 F, DQ and VL: every feature
/// the wide copy of a dispatched loop is compiled for, and so what makes
/// calling that copy sound. Detected once per feature, then a cached bit
/// test.
#[cfg(target_arch = "x86_64")]
#[inline]
#[must_use]
pub fn has_wide_lanes() -> bool {
    is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}
