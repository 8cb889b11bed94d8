//! Borrowed row-major matrix views — the zero-copy currency of the
//! attention data path.
//!
//! Caches store contiguous row-major `f32` buffers; kernels and the
//! cycle-level simulator consume them through [`Rows`] without cloning a
//! single row. A `Rows` is `Copy` (a fat pointer plus a dimension), so it
//! is passed by value everywhere.

/// A borrowed view of `num_rows × dim` values stored row-major.
///
/// # Examples
///
/// ```
/// use topick_core::Rows;
///
/// let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let rows = Rows::new(&data, 3);
/// assert_eq!(rows.num_rows(), 2);
/// assert_eq!(rows.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rows<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> Rows<'a> {
    /// Wraps a contiguous row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `data.len()` is not a multiple of `dim`.
    #[must_use]
    pub fn new(data: &'a [f32], dim: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "buffer length {} is not a multiple of dim {dim}",
            data.len()
        );
        Self { data, dim }
    }

    /// Number of rows in the view.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Row dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the view holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole underlying buffer.
    #[must_use]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// One row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &'a [f32] {
        assert!(i < self.num_rows(), "row {i} out of range");
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accessors() {
        let data = [0.0f32; 12];
        let r = Rows::new(&data, 4);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.dim(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    fn empty_view_is_allowed() {
        let r = Rows::new(&[], 8);
        assert_eq!(r.num_rows(), 0);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_buffer_rejected() {
        let data = [0.0f32; 7];
        let _ = Rows::new(&data, 4);
    }

    #[test]
    fn rows_match_nested() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let r = Rows::new(&data, 2);
        let nested: Vec<Vec<f32>> = r.iter().map(<[f32]>::to_vec).collect();
        assert_eq!(nested, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(r.row(0), &[1.0, 2.0]);
    }
}
