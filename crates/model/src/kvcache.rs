//! Per-layer, per-head key/value caches for autoregressive generation
//! (paper §2.1.2: "KV caching").
//!
//! Storage is contiguous row-major; attention backends read it zero-copy
//! through [`KvView`] / [`Rows`] instead of materializing per-row clones.

use topick_core::Rows;

/// A borrowed, zero-copy view of one head's cache: the key and value
/// buffers an [`AttentionBackend`](crate::AttentionBackend) consumes.
///
/// Fields are private so every `KvView` goes through [`KvView::new`] (or
/// [`HeadCache::view`]) and the keys/values shape agreement can never be
/// violated by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvView<'a> {
    keys: Rows<'a>,
    values: Rows<'a>,
}

impl<'a> KvView<'a> {
    /// Builds a view over two parallel row-major buffers.
    ///
    /// # Panics
    ///
    /// Panics if the buffers disagree in shape.
    #[must_use]
    pub fn new(keys: Rows<'a>, values: Rows<'a>) -> Self {
        assert_eq!(keys.dim(), values.dim(), "key/value dimension mismatch");
        assert_eq!(
            keys.num_rows(),
            values.num_rows(),
            "key/value length mismatch"
        );
        Self { keys, values }
    }

    /// Number of cached tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.num_rows()
    }

    /// Whether the view holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.keys.dim()
    }

    /// Key rows, `len × dim` row-major.
    #[must_use]
    pub fn keys(&self) -> Rows<'a> {
        self.keys
    }

    /// Value rows, `len × dim` row-major.
    #[must_use]
    pub fn values(&self) -> Rows<'a> {
        self.values
    }

    /// The view of the first `len` tokens — what a query at position
    /// `len - 1` of a run attends over.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    #[must_use]
    pub fn prefix(&self, len: usize) -> Self {
        let n = len * self.dim();
        Self {
            keys: Rows::new(&self.keys.data()[..n], self.dim()),
            values: Rows::new(&self.values.data()[..n], self.dim()),
        }
    }
}

/// The KV cache of one attention head: `len` rows of dimension `dim`,
/// stored row-major. Rows append one per generated token;
/// [`truncate`](Self::truncate) drops a suffix, the storage-level half of
/// paged KV retention across preemptions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HeadCache {
    keys: Vec<f32>,
    values: Vec<f32>,
    dim: usize,
    len: usize,
}

impl HeadCache {
    /// An empty cache for head dimension `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            dim,
            len: 0,
        }
    }

    /// Appends one token's key and value rows.
    ///
    /// # Panics
    ///
    /// Panics if either row length differs from `dim`.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.dim, "key row dimension mismatch");
        assert_eq!(value.len(), self.dim, "value row dimension mismatch");
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
        self.len += 1;
    }

    /// Drops every cached token beyond the first `len`, keeping the
    /// prefix — the storage operation behind partial KV retention across
    /// preemptions: the serving layer's pager decides *how many* tokens
    /// of a victim's prefix survive, and this makes the retained prefix
    /// real by discarding the dropped rows. A `len` at or beyond the
    /// current length is a no-op. Re-pushing the dropped tokens
    /// reconstructs the original cache exactly (appends are
    /// deterministic), which is what re-prefill models.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.keys.truncate(len * self.dim);
        self.values.truncate(len * self.dim);
        self.len = len;
    }

    /// Number of cached tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Key row of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn key_row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "token {i} out of range");
        &self.keys[i * self.dim..(i + 1) * self.dim]
    }

    /// Value row of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn value_row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "token {i} out of range");
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// All key rows as a zero-copy row-major view.
    #[must_use]
    pub fn keys(&self) -> Rows<'_> {
        Rows::new(&self.keys, self.dim)
    }

    /// All value rows as a zero-copy row-major view.
    #[must_use]
    pub fn values(&self) -> Rows<'_> {
        Rows::new(&self.values, self.dim)
    }

    /// The whole cache as a borrowed [`KvView`].
    #[must_use]
    pub fn view(&self) -> KvView<'_> {
        KvView {
            keys: self.keys(),
            values: self.values(),
        }
    }
}

/// KV caches for every layer and head of a model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KvCache {
    layers: Vec<Vec<HeadCache>>,
}

impl KvCache {
    /// An empty cache for `n_layers` layers of `n_heads` heads with head
    /// dimension `head_dim`.
    #[must_use]
    pub fn new(n_layers: usize, n_heads: usize, head_dim: usize) -> Self {
        Self {
            layers: (0..n_layers)
                .map(|_| (0..n_heads).map(|_| HeadCache::new(head_dim)).collect())
                .collect(),
        }
    }

    /// Mutable access to one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn head_mut(&mut self, layer: usize, head: usize) -> &mut HeadCache {
        &mut self.layers[layer][head]
    }

    /// Shared access to one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn head(&self, layer: usize, head: usize) -> &HeadCache {
        &self.layers[layer][head]
    }

    /// Every head's cache of one layer, in head order.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer(&self, layer: usize) -> &[HeadCache] {
        &self.layers[layer]
    }

    /// Truncates every head of every layer to at most `len` tokens —
    /// the model-wide form of [`HeadCache::truncate`], used when a
    /// preempted request's retained KV prefix is shorter than its
    /// context.
    pub fn truncate(&mut self, len: usize) {
        for layer in &mut self.layers {
            for head in layer {
                head.truncate(len);
            }
        }
    }

    /// Context length currently cached (tokens in layer 0, head 0).
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.layers
            .first()
            .and_then(|l| l.first())
            .map_or(0, HeadCache::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut c = HeadCache::new(2);
        c.push(&[1.0, 2.0], &[3.0, 4.0]);
        c.push(&[5.0, 6.0], &[7.0, 8.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key_row(1), &[5.0, 6.0]);
        assert_eq!(c.value_row(0), &[3.0, 4.0]);
        assert_eq!(c.keys().num_rows(), 2);
        assert_eq!(c.keys().data(), &[1.0, 2.0, 5.0, 6.0]);
        let view = c.view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.dim(), 2);
        assert_eq!(view.values().row(1), &[7.0, 8.0]);
        let first = view.prefix(1);
        assert_eq!(first.keys().data(), &[1.0, 2.0]);
        assert_eq!(first.values().data(), &[3.0, 4.0]);
        assert!(view.prefix(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut c = HeadCache::new(2);
        c.push(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn truncate_keeps_the_prefix_and_repush_restores() {
        let rows: Vec<([f32; 2], [f32; 2])> = (0..4)
            .map(|i| ([i as f32, i as f32 + 0.5], [-(i as f32), i as f32 * 2.0]))
            .collect();
        let mut full = HeadCache::new(2);
        for (k, v) in &rows {
            full.push(k, v);
        }
        let mut truncated = full.clone();
        truncated.truncate(2);
        assert_eq!(truncated.len(), 2);
        assert_eq!(truncated.key_row(1), full.key_row(1));
        assert_eq!(truncated.keys().data().len(), 4);
        // Re-prefilling the dropped suffix reconstructs the cache exactly.
        for (k, v) in &rows[2..] {
            truncated.push(k, v);
        }
        assert_eq!(truncated, full);
        // At-or-beyond lengths are no-ops.
        truncated.truncate(4);
        truncated.truncate(100);
        assert_eq!(truncated, full);
    }

    #[test]
    fn full_cache_truncate_applies_to_every_head() {
        let mut c = KvCache::new(2, 2, 3);
        for _ in 0..3 {
            for layer in 0..2 {
                for head in 0..2 {
                    c.head_mut(layer, head).push(&[1.0; 3], &[2.0; 3]);
                }
            }
        }
        assert_eq!(c.context_len(), 3);
        c.truncate(1);
        assert_eq!(c.context_len(), 1);
        assert_eq!(c.head(1, 1).len(), 1);
    }

    #[test]
    fn full_cache_layout() {
        let mut c = KvCache::new(2, 3, 4);
        assert_eq!(c.context_len(), 0);
        c.head_mut(0, 0).push(&[0.0; 4], &[0.0; 4]);
        assert_eq!(c.context_len(), 1);
        assert_eq!(c.head(1, 2).len(), 0);
    }
}
