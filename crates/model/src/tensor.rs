//! A deliberately small dense-matrix library — just what a decoder-only
//! transformer forward pass needs (no autograd, `f32`, row-major).

use std::fmt;

/// A row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use topick_model::tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// let y = m.gemv(&[1.0, 0.0, 0.0]);
/// assert_eq!(y, vec![0.0, 3.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Builds a matrix element-wise from `(row, col) -> value`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `y = M x` (`x.len() == cols`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn gemv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        let mut y = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            y.push(dot(row, x));
        }
        y
    }

    /// Transposed matrix–vector product `y = Mᵀ x` (`x.len() == rows`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn gemv_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "gemv_t dimension mismatch");
        let mut y = vec![0.0f32; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, &m) in y.iter_mut().zip(row) {
                *yc += xr * m;
            }
        }
        y
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// In-place element-wise addition `a += b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// The GELU activation (tanh approximation, as used by GPT-2).
#[must_use]
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_identity() {
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = [1.0, -2.0, 3.0];
        assert_eq!(id.gemv(&x), x.to_vec());
    }

    #[test]
    fn gemv_t_matches_manual_transpose() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let x = [1.0, 2.0];
        let y = m.gemv_t(&x);
        // Mᵀ = [[0,3],[1,4],[2,5]]; y = [0+6, 1+8, 2+10]
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
    }

    #[test]
    fn gelu_limits() {
        assert!(gelu(10.0) > 9.99);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert_eq!(gelu(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "gemv dimension mismatch")]
    fn gemv_rejects_bad_len() {
        let m = Matrix::from_fn(2, 3, |_, _| 0.0);
        let _ = m.gemv(&[1.0, 2.0]);
    }

    #[test]
    fn add_assign_works() {
        let mut a = vec![1.0f32, 2.0];
        add_assign(&mut a, &[0.5, -0.5]);
        assert_eq!(a, vec![1.5, 1.5]);
    }
}
