//! Symmetric fixed-point quantization of attention operands.
//!
//! Queries, keys and values are quantized to signed `total_bits`-wide
//! integers with a shared per-tensor scale, matching the 12-bit operand
//! format of the ToPick hardware (§4). Keys are later streamed chunk-wise;
//! the chunk arithmetic itself lives in
//! [`PrecisionConfig`] and
//! [`MarginTable`](crate::MarginTable).

use crate::config::PrecisionConfig;
#[cfg(target_arch = "x86_64")]
use crate::cpu::has_wide_lanes;
use crate::error::CoreError;
use crate::rows::Rows;

/// The largest `|v|` in `values`, skipping NaNs, 0 if there is none: what
/// `fold(0.0, |m, v| m.max(|v|))` in `f64` returns.
#[inline(always)]
fn max_abs(values: &[f32]) -> f64 {
    // Without its sign bit a float's pattern orders as its magnitude does,
    // and an integer max vectorizes where the NaN-aware `f64::max` does
    // not (0.35 against 3.15 ns per element on the development host).
    let bits = values
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
    if bits > f32::INFINITY.to_bits() {
        // Some element is a NaN, whose patterns sit above infinity's: the
        // float fold skips it, an integer max cannot.
        return values.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
    }
    f64::from(f32::from_bits(bits))
}

/// `x.round().clamp(qmin, qmax) as i16` for integer bounds within `i16`'s,
/// bit for bit, in instructions the compiler can vectorize. `round` is a
/// libm call on baseline x86-64: the bounds being integers, clamping first
/// changes nothing, and adding the largest double below one half before
/// truncating rounds half away from zero — the lowering LLVM itself uses
/// where it has no rounding instruction. The saturating `as i16` that
/// would finish the job is a scalar max, min, convert and insert per
/// element in any copy, so the sum goes through a plain truncating
/// `f64 → i32` conversion instead, NaN first mapped to the 0 that `as`
/// gives it.
#[inline(always)]
fn round_clamped(x: f64, qmin: f64, qmax: f64) -> i16 {
    const BELOW_HALF: f64 = 0.5 - f64::EPSILON / 4.0;
    // `x.clamp(qmin, qmax)` less its `qmin <= qmax` assertion, whose panic
    // branch would keep the convert loop scalar. A NaN fails both tests and
    // passes through, as it does through `clamp`.
    let clamped = if x < qmin {
        qmin
    } else if x > qmax {
        qmax
    } else {
        x
    };
    let rounded = clamped + BELOW_HALF.copysign(x);
    let rounded = if rounded.is_nan() { 0.0 } else { rounded };
    // SAFETY: `rounded` is finite and within `[qmin - 0.5, qmax + 0.5]`, so
    // inside `i32`, and it truncates to an integer in `[qmin, qmax]`, so
    // inside `i16`: the conversion is `as i16` without its saturation.
    (unsafe { rounded.to_int_unchecked::<i32>() }) as i16
}

/// Quantizes `values` symmetrically into `codes` (replacing its contents):
/// the largest magnitude maps to the largest code, each element to
/// `round(v / scale)` clamped to the representable range. Returns the
/// scale; all-zero input gets 1.0.
///
/// Runs the body's AVX-512 copy where the running x86-64 CPU has AVX-512
/// F, DQ and VL (and AVX2), its baseline copy on every other host and
/// target. The two give the same codes and scale: every step is an
/// elementwise operation that rounds (or is exact) alike in any lane
/// width, and the max is an integer max, which no order can change. At
/// 1536 × 64 realistic keys on a 2-core x86-64 Xeon host with AVX-512 an
/// element costs 0.86–0.89 ns in the AVX-512 copy and 1.56–1.58 ns in the
/// baseline one, against 2.05–2.12 ns when the conversion was a saturating
/// `as i16` (at the benchmark's reference host speed).
pub fn quantize_into(values: &[f32], precision: PrecisionConfig, codes: &mut Vec<i16>) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if has_wide_lanes() {
        // SAFETY: `has_wide_lanes` has just detected every feature
        // `quantize_wide` is compiled for on the running CPU.
        return unsafe { quantize_wide(values, precision, codes) };
    }
    quantize_body(values, precision, codes)
}

#[cfg(all(test, target_arch = "x86_64"))]
thread_local! {
    /// Calls of [`quantize_wide`] on this thread.
    static WIDE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`quantize_body`] compiled for AVX-512: eight `f64` lanes for the
/// division and the conversion, sixteen `u32` lanes for the max.
///
/// # Safety
///
/// The running CPU must have every feature it is compiled for, as
/// [`has_wide_lanes`] reports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn quantize_wide(values: &[f32], precision: PrecisionConfig, codes: &mut Vec<i16>) -> f64 {
    #[cfg(test)]
    WIDE_CALLS.with(|count| count.set(count.get() + 1));
    quantize_body(values, precision, codes)
}

/// The one body of [`quantize_into`], inlined into each copy so each is
/// compiled for its own features.
#[inline(always)]
fn quantize_body(values: &[f32], precision: PrecisionConfig, codes: &mut Vec<i16>) -> f64 {
    let quantizer = Quantizer::new(max_abs(values), precision);
    codes.clear();
    codes.extend(values.iter().map(|&v| quantizer.code(f64::from(v))));
    quantizer.scale
}

/// The symmetric quantizer of one tensor: the scale its largest magnitude
/// sets and the map from a value to its code that [`quantize_into`]
/// applies to every element.
///
/// [`code`](Self::code) is monotone non-decreasing: a correctly rounded
/// division by a positive scale, a clamp, a signed half-add and a
/// truncation, each non-decreasing. So when both ends of an interval get
/// the same code, so does every value between them — the test that lets
/// a caller holding only bounds on a value know its code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f64,
    qmin: f64,
    qmax: f64,
}

impl Quantizer {
    /// The quantizer of a tensor whose largest magnitude is `max_abs`:
    /// scale `max_abs / qmax`, or 1.0 when every element is zero.
    #[must_use]
    #[inline(always)]
    pub fn new(max_abs: f64, precision: PrecisionConfig) -> Self {
        let qmax = f64::from(precision.max_value());
        let qmin = f64::from(precision.min_value());
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        Self { scale, qmin, qmax }
    }

    /// The scale (`real ≈ code * scale`).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The code of `v`: `round(v / scale)` clamped to the precision's range.
    #[must_use]
    #[inline(always)]
    pub fn code(&self, v: f64) -> i16 {
        round_clamped(v / self.scale, self.qmin, self.qmax)
    }
}

/// A quantized vector: `i16` codes plus the real-valued scale such that
/// `real ≈ code * scale`.
///
/// # Examples
///
/// ```
/// use topick_core::{PrecisionConfig, QVector};
///
/// let q = QVector::quantize(&[0.5, -1.0, 0.25], PrecisionConfig::paper());
/// assert_eq!(q.len(), 3);
/// let back = q.dequantize();
/// assert!((back[1] - -1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QVector {
    codes: Vec<i16>,
    scale: f64,
    precision: PrecisionConfig,
}

impl QVector {
    /// Quantizes a real-valued vector symmetrically: the largest absolute
    /// element maps to the largest representable code.
    ///
    /// A zero vector gets scale 1.0 (all codes zero).
    #[must_use]
    pub fn quantize(values: &[f32], precision: PrecisionConfig) -> Self {
        let mut codes = Vec::new();
        let scale = quantize_into(values, precision, &mut codes);
        Self {
            codes,
            scale,
            precision,
        }
    }

    /// Builds a vector from raw codes and a scale.
    ///
    /// # Panics
    ///
    /// Panics if any code is outside the representable range of `precision`.
    #[must_use]
    pub fn from_codes(codes: Vec<i16>, scale: f64, precision: PrecisionConfig) -> Self {
        for &c in &codes {
            assert!(
                c >= precision.min_value() && c <= precision.max_value(),
                "code {c} out of range for {}-bit precision",
                precision.total_bits()
            );
        }
        Self {
            codes,
            scale,
            precision,
        }
    }

    /// The integer codes.
    #[must_use]
    pub fn codes(&self) -> &[i16] {
        &self.codes
    }

    /// The quantization scale (`real ≈ code * scale`).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The precision configuration this vector was quantized under.
    #[must_use]
    pub fn precision(&self) -> PrecisionConfig {
        self.precision
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the vector has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reconstructs the real-valued vector.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| (f64::from(c) * self.scale) as f32)
            .collect()
    }

    /// Exact integer dot product with another code slice.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn dot_codes(&self, other: &[i16]) -> i64 {
        assert_eq!(self.codes.len(), other.len(), "dot length mismatch");
        self.codes
            .iter()
            .zip(other)
            .map(|(&a, &b)| i64::from(a) * i64::from(b))
            .sum()
    }

    /// Partial integer dot product using only the `chunks_known`
    /// most-significant chunks of `other` (the streamed key), i.e.
    /// `Σ q_j · known(k_j)`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `chunks_known` exceeds the chunk count.
    #[must_use]
    #[inline]
    pub fn dot_known(&self, other: &[i16], chunks_known: u32) -> i64 {
        assert_eq!(self.codes.len(), other.len(), "dot length mismatch");
        // `known_value` clears the unknown low bits: in two's complement
        // that is one mask, computed once per call.
        let pc = self.precision;
        let mask = -1i16 << pc.unknown_bits_after(chunks_known);
        // A query code is at most 2^(total_bits - 1) in magnitude and a
        // masked key at most 2^15, so 16 terms of a query of 12 bits or
        // fewer (2 terms of a wider one) sum to at most 2^30 in an `i32`.
        if pc.total_bits() <= 12 {
            masked_dot::<16>(&self.codes, other, mask)
        } else {
            masked_dot::<2>(&self.codes, other, mask)
        }
    }
}

/// `Σ a·(b & mask)`, summed in `i32` within blocks of `BLOCK` terms and in
/// `i64` across them: the caller picks `BLOCK` so no block can overflow,
/// and a constant block is what lets the inner sum vectorize (7 against
/// 29 ns per 64-wide row on the development host).
#[inline]
fn masked_dot<const BLOCK: usize>(a: &[i16], b: &[i16], mask: i16) -> i64 {
    let term = |(&a, &b): (&i16, &i16)| i32::from(a) * i32::from(b & mask);
    let (mut a_blocks, mut b_blocks) = (a.chunks_exact(BLOCK), b.chunks_exact(BLOCK));
    let blocks: i64 = (&mut a_blocks)
        .zip(&mut b_blocks)
        .map(|(a, b)| i64::from(a.iter().zip(b).map(term).sum::<i32>()))
        .sum();
    let tail = a_blocks.remainder().iter().zip(b_blocks.remainder());
    blocks + tail.map(|p| i64::from(term(p))).sum::<i64>()
}

/// A quantized key (or value) matrix: `n` token rows of dimension `dim`,
/// sharing one scale, stored row-major.
///
/// # Examples
///
/// ```
/// use topick_core::{PrecisionConfig, QMatrix};
///
/// let rows = [1.0_f32, 0.0, 0.0, -2.0];
/// let m = QMatrix::quantize_flat(&rows, 2, PrecisionConfig::paper())?;
/// assert_eq!(m.num_tokens(), 2);
/// assert_eq!(m.dim(), 2);
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QMatrix {
    codes: Vec<i16>,
    dim: usize,
    num_tokens: usize,
    scale: f64,
    precision: PrecisionConfig,
}

impl QMatrix {
    /// Quantizes a contiguous row-major buffer of `data.len() / dim` token
    /// rows with a single shared symmetric scale — the zero-copy entry
    /// point used by the attention kernels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyKeySet`] if `data` is empty, or
    /// [`CoreError::DimensionMismatch`] if `dim` is zero or does not divide
    /// `data.len()`.
    pub fn quantize_flat(
        data: &[f32],
        dim: usize,
        precision: PrecisionConfig,
    ) -> Result<Self, CoreError> {
        Self::quantize_flat_reusing(data, dim, precision, Vec::new())
    }

    /// Like [`QMatrix::quantize_flat`], but reuses `codes_buf`'s allocation
    /// for the quantized codes. Pair with [`QMatrix::into_codes`] to
    /// recycle the buffer across generation steps.
    ///
    /// # Errors
    ///
    /// Same as [`QMatrix::quantize_flat`].
    fn quantize_flat_reusing(
        data: &[f32],
        dim: usize,
        precision: PrecisionConfig,
        mut codes_buf: Vec<i16>,
    ) -> Result<Self, CoreError> {
        if data.is_empty() {
            return Err(CoreError::EmptyKeySet);
        }
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                actual: data.len(),
            });
        }
        let scale = quantize_into(data, precision, &mut codes_buf);
        Ok(Self {
            codes: codes_buf,
            dim,
            num_tokens: data.len() / dim,
            scale,
            precision,
        })
    }

    /// Consumes the matrix, returning its code buffer for reuse with
    /// [`QMatrix::quantize_flat_reusing`].
    #[must_use]
    fn into_codes(self) -> Vec<i16> {
        self.codes
    }
}

/// A recyclable quantization buffer: owns the `i16` code allocation
/// between [`QMatrix`] lifetimes so per-step quantization allocates
/// nothing once warm.
///
/// The take/restore protocol lives here so every call site follows it
/// identically: [`QuantBuffer::quantize`] moves the buffer into the
/// matrix, [`QuantBuffer::reclaim`] moves it back.
///
/// # Examples
///
/// ```
/// use topick_core::{PrecisionConfig, QuantBuffer};
///
/// let mut buf = QuantBuffer::new();
/// for step in 0..3 {
///     let data = vec![0.5f32; 8 * (step + 1)];
///     let m = buf.quantize(&data, 8, PrecisionConfig::paper())?;
///     assert_eq!(m.num_tokens(), step + 1);
///     buf.reclaim(m);
/// }
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QuantBuffer {
    codes: Vec<i16>,
}

impl QuantBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes a contiguous row-major buffer into a [`QMatrix`], reusing
    /// this buffer's allocation.
    ///
    /// # Errors
    ///
    /// Same as [`QMatrix::quantize_flat`].
    pub fn quantize(
        &mut self,
        data: &[f32],
        dim: usize,
        precision: PrecisionConfig,
    ) -> Result<QMatrix, CoreError> {
        QMatrix::quantize_flat_reusing(data, dim, precision, std::mem::take(&mut self.codes))
    }

    /// Hands over the code allocation, holding whatever codes it last
    /// held, to a caller that overwrites them itself and builds the matrix
    /// with [`QMatrix::from_codes`]; [`QuantBuffer::reclaim`] takes it
    /// back as from any matrix.
    pub fn take(&mut self) -> Vec<i16> {
        std::mem::take(&mut self.codes)
    }

    /// Takes a matrix's code allocation back for the next
    /// [`QuantBuffer::quantize`] call.
    pub fn reclaim(&mut self, matrix: QMatrix) {
        self.codes = matrix.into_codes();
    }
}

impl QMatrix {
    /// Builds a matrix from raw codes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `codes.len()` is not a
    /// multiple of `dim`, or [`CoreError::EmptyKeySet`] if `codes` is empty.
    pub fn from_codes(
        codes: Vec<i16>,
        dim: usize,
        scale: f64,
        precision: PrecisionConfig,
    ) -> Result<Self, CoreError> {
        if codes.is_empty() {
            return Err(CoreError::EmptyKeySet);
        }
        if dim == 0 || !codes.len().is_multiple_of(dim) {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                actual: codes.len(),
            });
        }
        let num_tokens = codes.len() / dim;
        Ok(Self {
            codes,
            dim,
            num_tokens,
            scale,
            precision,
        })
    }

    /// Number of token rows.
    #[must_use]
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Row dimension (head dimension `d_h`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shared quantization scale.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The precision configuration.
    #[must_use]
    pub fn precision(&self) -> PrecisionConfig {
        self.precision
    }

    /// Checks the operands of an attention call over these keys — every
    /// query as wide as a key row and, when given, one value row per token
    /// of that same width — and returns the token count (never zero: no
    /// constructor builds an empty matrix).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] naming the first offending
    /// length.
    pub fn check_attention<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q QVector>,
        values: Option<Rows<'_>>,
    ) -> Result<usize, CoreError> {
        let expect = |expected: usize, actual: usize| {
            if expected == actual {
                Ok(())
            } else {
                Err(CoreError::DimensionMismatch { expected, actual })
            }
        };
        for q in queries {
            expect(self.dim, q.len())?;
        }
        if let Some(v) = values {
            expect(self.num_tokens, v.num_rows())?;
            expect(self.dim, v.dim())?;
        }
        Ok(self.num_tokens)
    }

    /// The codes of one token row.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    #[must_use]
    #[inline]
    pub fn row(&self, token: usize) -> &[i16] {
        assert!(token < self.num_tokens, "token {token} out of range");
        &self.codes[token * self.dim..(token + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_attention_names_the_offending_length() {
        let pc = PrecisionConfig::paper();
        let keys = QMatrix::from_codes(vec![1; 3 * 4], 4, 1.0, pc).unwrap();
        let q = QVector::from_codes(vec![1; 4], 1.0, pc);
        let narrow = QVector::from_codes(vec![1; 2], 1.0, pc);
        let mismatch = |expected, actual| Err(CoreError::DimensionMismatch { expected, actual });
        let v = [0.0f32; 12];
        assert_eq!(keys.check_attention([&q], None), Ok(3));
        assert_eq!(keys.check_attention([&q], Some(Rows::new(&v, 4))), Ok(3));
        assert_eq!(keys.check_attention([&q, &narrow], None), mismatch(4, 2));
        // Two value rows for three keys, then three rows of the wrong width.
        assert_eq!(
            keys.check_attention([&q], Some(Rows::new(&v[..8], 4))),
            mismatch(3, 2)
        );
        assert_eq!(
            keys.check_attention([&q], Some(Rows::new(&v[..9], 3))),
            mismatch(4, 3)
        );
    }

    #[test]
    fn round_clamped_is_round_then_clamp_around_every_boundary() {
        let pc = PrecisionConfig::new(15, 15).unwrap();
        let (qmin, qmax) = (f64::from(pc.min_value()), f64::from(pc.max_value()));
        let reference = |x: f64| x.round().clamp(qmin, qmax) as i16;
        // Two codes past either end, so the clamp is crossed as well.
        for c in i32::from(pc.min_value()) - 2..=i32::from(pc.max_value()) + 2 {
            for centre in [f64::from(c) - 0.5, f64::from(c), f64::from(c) + 0.5] {
                for x in [centre.next_down(), centre, centre.next_up()] {
                    assert_eq!(round_clamped(x, qmin, qmax), reference(x), "{x:e}");
                }
            }
        }
        let below_half = 0.499_999_999_999_999_94_f64;
        assert_eq!(below_half.next_up(), 0.5);
        for x in [
            below_half,
            -below_half,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(round_clamped(x, qmin, qmax), reference(x), "{x:e}");
        }
    }

    /// The formula the quantizer was written as before its loops were made
    /// vectorizable: a NaN-aware `f64` max fold, then `round` and `clamp`.
    fn scalar_quantize(values: &[f32], pc: PrecisionConfig) -> (Vec<i16>, u64) {
        let max_abs = values.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
        let (qmin, qmax) = (f64::from(pc.min_value()), f64::from(pc.max_value()));
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        let codes = values
            .iter()
            .map(|&v| (f64::from(v) / scale).round().clamp(qmin, qmax) as i16)
            .collect();
        (codes, scale.to_bits())
    }

    /// Inputs for both copies: uniform data from subnormal to huge
    /// magnitudes, every rounding boundary of the widest precision, and
    /// each special value inside a 130-element run at offsets on both
    /// sides of every vector width, so the vector body sees it, not only
    /// a loop's scalar tail.
    fn hard_inputs() -> Vec<Vec<f32>> {
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut uniform = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0) as f32
        };
        let mut inputs: Vec<Vec<f32>> = (-40..=38)
            .step_by(6)
            .map(|spread| {
                let magnitude = 10f32.powi(spread);
                (0..200).map(|_| uniform() * magnitude).collect()
            })
            .collect();
        let qmax = f32::from(PrecisionConfig::new(15, 15).unwrap().max_value());
        let mut boundaries = vec![qmax * 1.37];
        for c in -qmax as i32..=qmax as i32 {
            let v = (c as f32 + 0.5) * 1.37;
            boundaries.extend([v.next_down(), v, v.next_up()]);
        }
        boundaries.retain(|v| v.abs() <= qmax * 1.37);
        inputs.push(boundaries);
        let tiny = f32::from_bits(1);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            tiny,
            -tiny,
            f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            f32::MIN,
            7.25,
            -7.25,
        ];
        let noise: Vec<f32> = (0..130).map(|_| uniform()).collect();
        let backgrounds = [vec![0.0; 130], noise, vec![tiny; 130]];
        for background in &backgrounds {
            for special in specials {
                for at in [0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 65, 100, 129] {
                    let mut run = background.clone();
                    run[at] = special;
                    inputs.push(run);
                }
            }
        }
        inputs
    }

    #[test]
    fn both_copies_equal_the_scalar_formula_bit_for_bit() {
        type Quantizer = fn(&[f32], PrecisionConfig, &mut Vec<i16>) -> f64;
        // The baseline copy, called directly, so it stays covered on a
        // host whose dispatcher picks the AVX-512 one.
        let copies: [(&str, Quantizer); 2] =
            [("baseline", quantize_body), ("dispatched", quantize_into)];
        let inputs = hard_inputs();
        for bits in 1..=15 {
            let pc = PrecisionConfig::new(bits, bits).unwrap();
            for values in &inputs {
                let (expected, scale) = scalar_quantize(values, pc);
                for (copy, quantize) in copies {
                    let mut codes = vec![7; 3];
                    let got = quantize(values, pc, &mut codes).to_bits();
                    assert_eq!((&codes, got), (&expected, scale), "{copy}, {bits} bits");
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
        let q = QVector::quantize(&[0.5, -1.0, 0.25], PrecisionConfig::paper());
        let calls = WIDE_CALLS.with(std::cell::Cell::get) - before;
        assert_eq!(q.codes(), [1024, -2047, 512]);
        assert_eq!(calls, u64::from(wide), "AVX-512 F/DQ/VL detected: {wide}");
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let pc = PrecisionConfig::paper();
        let vals = [0.37f32, -0.91, 0.004, 1.0, -1.0, 0.0];
        let q = QVector::quantize(&vals, pc);
        let back = q.dequantize();
        // One LSB of error at most: scale/2 per element.
        let lsb = q.scale() as f32;
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= 0.5 * lsb + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_vector_quantizes_to_zero() {
        let q = QVector::quantize(&[0.0; 8], PrecisionConfig::paper());
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn extreme_values_hit_range_ends() {
        let pc = PrecisionConfig::paper();
        let q = QVector::quantize(&[3.0, -3.0], pc);
        assert_eq!(q.codes()[0], pc.max_value());
        assert_eq!(q.codes()[1], -pc.max_value()); // symmetric scheme
    }

    #[test]
    fn dot_known_converges_to_exact() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![100, -200, 3], 1.0, pc);
        let k = [517i16, -1033, 2047];
        let exact = q.dot_codes(&k);
        assert_eq!(q.dot_known(&k, 3), exact);
        // Partial dots must be <= exact + something only via margins; just
        // check monotone convergence of the *known* part toward exact from
        // below-or-equal in each coordinate handled by margin tests.
        let d1 = q.dot_known(&k, 1);
        let d2 = q.dot_known(&k, 2);
        assert_ne!(d1, exact);
        assert_ne!(d1, d2);
    }

    #[test]
    fn matrix_rejects_ragged_rows() {
        let rows = [1.0f32, 2.0, 3.0];
        let err = QMatrix::quantize_flat(&rows, 2, PrecisionConfig::paper()).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn matrix_rejects_empty() {
        let err = QMatrix::quantize_flat(&[], 2, PrecisionConfig::paper()).unwrap_err();
        assert_eq!(err, CoreError::EmptyKeySet);
    }

    #[test]
    fn matrix_row_access() {
        let rows = [1.0f32, -1.0, 0.5, 0.25];
        let m = QMatrix::quantize_flat(&rows, 2, PrecisionConfig::paper()).unwrap();
        assert_eq!(m.row(0).len(), 2);
        let r1 = f64::from(m.row(1)[0]) * m.scale();
        assert!((r1 - 0.5).abs() < 1e-3);
    }
}
