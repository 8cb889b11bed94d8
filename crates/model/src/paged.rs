//! Paged KV storage with copy-on-write prefix sharing — the storage-level
//! counterpart of the serving engine's refcounted `KvPager`.
//!
//! Where [`HeadCache`](crate::HeadCache) stores one sequence's rows
//! contiguously, a [`PagedKvStore`] stores rows in fixed-size **pages**
//! and lets several logical sequences ([`PagedSeq`]) map the same
//! physical pages. Forking a sequence at a prefix
//! ([`fork`](PagedKvStore::fork)) shares the pages covering that prefix
//! by reference count instead of copying them; the first append that
//! would write *into* a shared page copies it first
//! ([copy-on-write](PagedKvStore::push)), so no holder ever observes
//! another's writes. This is the mechanism that makes prefix caching
//! sound: the pager's accounting layer decides *which* pages to share,
//! and this layer proves the sharing is invisible to reads.
//!
//! The proof obligation — a forked sequence reads back exactly like an
//! independently built [`HeadCache`](crate::HeadCache) — is pinned by the
//! golden and property tests in this module and in
//! `crates/model/tests/proptests.rs`.

/// One physical page: up to `page_size` key/value rows, plus the number
/// of logical sequences currently mapping it. (A sequence's logical view
/// may end before the physically present rows: its own `len` governs
/// what it reads.)
#[derive(Debug, Clone, PartialEq, Default)]
struct Page {
    keys: Vec<f32>,
    values: Vec<f32>,
    refs: u32,
}

/// A logical KV sequence: a page table into a [`PagedKvStore`] plus the
/// sequence's own length. Cheap to fork; reads are bounds-checked against
/// the logical length, never the physical page fill.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PagedSeq {
    /// Page indices in position order: `pages[j]` holds rows
    /// `[j * page_size, (j + 1) * page_size)`.
    pages: Vec<usize>,
    len: usize,
}

impl PagedSeq {
    /// Cached tokens in this sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A paged key/value store shared by many logical sequences, with
/// copy-on-write page sharing.
///
/// # Examples
///
/// ```
/// use topick_model::paged::PagedKvStore;
///
/// let mut store = PagedKvStore::new(2, 2); // dim 2, 2 rows per page
/// let mut a = store.new_seq();
/// for i in 0..4 {
///     store.push(&mut a, &[i as f32; 2], &[i as f32 + 0.5; 2]);
/// }
///
/// // Fork at the full 2-page prefix: zero rows are copied.
/// let mut b = store.fork(&a, 4);
/// assert_eq!(store.allocated_pages(), 2);
///
/// // Divergent appends copy-on-write only what they touch.
/// store.push(&mut b, &[9.0; 2], &[9.9; 2]);
/// assert_eq!(store.key_row(&a, 1), &[1.0, 1.0]); // a is unaffected
/// assert_eq!(store.key_row(&b, 4), &[9.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvStore {
    dim: usize,
    page_size: usize,
    pages: Vec<Page>,
    free: Vec<usize>,
}

impl PagedKvStore {
    /// An empty store for head dimension `dim` and `page_size` rows per
    /// page (both clamped to at least 1).
    #[must_use]
    pub fn new(dim: usize, page_size: usize) -> Self {
        Self {
            dim: dim.max(1),
            page_size: page_size.max(1),
            pages: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows per page.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// An empty logical sequence.
    #[must_use]
    pub fn new_seq(&self) -> PagedSeq {
        PagedSeq::default()
    }

    /// Pages currently mapped by at least one sequence.
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Pages currently on the free list (allocated once, now reusable).
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Pages mapped by more than one sequence.
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.refs > 1).count()
    }

    /// Forks `parent` at `prefix` tokens (clamped to the parent's
    /// length): the new sequence maps every page covering the prefix by
    /// reference, copying nothing. A partial tail page is shared too —
    /// the first append into it (by either holder) copies it first, so
    /// the fork is copy-on-write all the way down.
    #[must_use]
    pub fn fork(&mut self, parent: &PagedSeq, prefix: usize) -> PagedSeq {
        let prefix = prefix.min(parent.len);
        let shared_pages = prefix.div_ceil(self.page_size);
        let pages = parent.pages[..shared_pages].to_vec();
        for &p in &pages {
            self.pages[p].refs += 1;
        }
        PagedSeq { pages, len: prefix }
    }

    /// Appends one token's key and value rows to `seq`, copying the tail
    /// page first if it is shared (copy-on-write) and allocating a fresh
    /// page when the tail is full.
    ///
    /// # Panics
    ///
    /// Panics if either row's length differs from the store dimension.
    pub fn push(&mut self, seq: &mut PagedSeq, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.dim, "key row dimension mismatch");
        assert_eq!(value.len(), self.dim, "value row dimension mismatch");
        let within = seq.len % self.page_size;
        if within == 0 {
            // Tail page full (or sequence empty): open a fresh page.
            let p = self.alloc();
            seq.pages.push(p);
        } else {
            let tail = *seq.pages.last().expect("non-empty tail");
            if self.pages[tail].refs > 1 {
                // Copy-on-write: duplicate the rows this sequence can
                // see, then drop the shared mapping.
                let p = self.alloc();
                let (keys, values) = {
                    let t = &self.pages[tail];
                    (
                        t.keys[..within * self.dim].to_vec(),
                        t.values[..within * self.dim].to_vec(),
                    )
                };
                self.pages[p].keys = keys;
                self.pages[p].values = values;
                self.unref(tail);
                *seq.pages.last_mut().expect("non-empty tail") = p;
            }
        }
        let tail = *seq.pages.last().expect("tail exists");
        let page = &mut self.pages[tail];
        // A privately mapped physical page can hold rows beyond this
        // sequence's logical end (left by a truncate); drop them before
        // appending so the new row lands at the logical position.
        page.keys.truncate(within * self.dim);
        page.values.truncate(within * self.dim);
        page.keys.extend_from_slice(key);
        page.values.extend_from_slice(value);
        seq.len += 1;
    }

    /// Truncates `seq` to at most `len` tokens, unmapping every page past
    /// the new end (the storage half of paged retention). Shared pages
    /// survive for their other holders; physical rows beyond the logical
    /// end of a still-mapped tail page are left in place and overwritten
    /// by the next append.
    pub fn truncate(&mut self, seq: &mut PagedSeq, len: usize) {
        if len >= seq.len {
            return;
        }
        let keep_pages = len.div_ceil(self.page_size);
        for p in seq.pages.drain(keep_pages..) {
            self.unref(p);
        }
        seq.len = len;
    }

    /// Releases every page of `seq`, leaving it empty.
    pub fn release(&mut self, seq: &mut PagedSeq) {
        self.truncate(seq, 0);
    }

    /// Key row of token `i` of `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= seq.len()`.
    #[must_use]
    pub fn key_row(&self, seq: &PagedSeq, i: usize) -> &[f32] {
        let (page, at) = self.locate(seq, i);
        &self.pages[page].keys[at * self.dim..(at + 1) * self.dim]
    }

    /// Value row of token `i` of `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= seq.len()`.
    #[must_use]
    pub fn value_row(&self, seq: &PagedSeq, i: usize) -> &[f32] {
        let (page, at) = self.locate(seq, i);
        &self.pages[page].values[at * self.dim..(at + 1) * self.dim]
    }

    /// Gathers `seq` into contiguous row-major key and value buffers,
    /// clearing them first (pages are not contiguous, so this copies).
    /// [`PagedKvBinding`] gathers each head once per layer of a forward
    /// run into that head's pair of scratch buffers instead of allocating.
    pub fn gather_into(&self, seq: &PagedSeq, keys: &mut Vec<f32>, values: &mut Vec<f32>) {
        keys.clear();
        values.clear();
        keys.reserve(seq.len * self.dim);
        values.reserve(seq.len * self.dim);
        for i in 0..seq.len {
            keys.extend_from_slice(self.key_row(seq, i));
            values.extend_from_slice(self.value_row(seq, i));
        }
    }

    /// Checks refcount conservation: every page's refcount equals the
    /// number of mappings across `live`, free pages have refcount 0 and
    /// no page is both free and mapped. Panics on the first violation —
    /// the oracle the property tests drive.
    pub fn validate(&self, live: &[&PagedSeq]) {
        let mut mappings = vec![0u32; self.pages.len()];
        for seq in live {
            assert!(
                seq.pages.len() == seq.len.div_ceil(self.page_size),
                "sequence of {} tokens maps {} pages",
                seq.len,
                seq.pages.len()
            );
            for &p in &seq.pages {
                mappings[p] += 1;
            }
        }
        for (p, page) in self.pages.iter().enumerate() {
            assert_eq!(
                page.refs, mappings[p],
                "page {p}: refcount {} vs {} live mappings",
                page.refs, mappings[p]
            );
        }
        for &p in &self.free {
            assert_eq!(self.pages[p].refs, 0, "free page {p} is still mapped");
        }
        assert_eq!(
            self.allocated_pages(),
            mappings.iter().filter(|&&m| m > 0).count(),
            "allocated pages disagree with live mappings"
        );
    }

    fn locate(&self, seq: &PagedSeq, i: usize) -> (usize, usize) {
        assert!(i < seq.len, "token {i} out of range");
        (seq.pages[i / self.page_size], i % self.page_size)
    }

    fn alloc(&mut self) -> usize {
        let p = match self.free.pop() {
            Some(p) => p,
            None => {
                self.pages.push(Page::default());
                self.pages.len() - 1
            }
        };
        let page = &mut self.pages[p];
        page.keys.clear();
        page.values.clear();
        page.refs = 1;
        p
    }

    fn unref(&mut self, p: usize) {
        debug_assert!(self.pages[p].refs > 0, "unref of an unmapped page");
        self.pages[p].refs -= 1;
        if self.pages[p].refs == 0 {
            self.free.push(p);
        }
    }
}

/// Binds a layer-major bundle of [`PagedSeq`] rows inside a shared
/// [`PagedKvStore`] to the model's [`DecodeKv`](crate::DecodeKv)
/// interface: `seqs[layer * n_heads + head]` is the `(layer, head)` row
/// sequence. This is what lets
/// [`decode_step`](crate::TransformerModel::decode_step) run over
/// copy-on-write paged storage — forked prefixes are physically shared
/// across requests while each request's binding reads only its own
/// logical rows.
///
/// Attending a run at one layer gathers each head's (non-contiguous) pages
/// once, into a pair of reusable scratch buffers per head, and hands the
/// kernel one batch of ordinary [`KvView`](crate::KvView) prefixes of
/// them; because [`PagedKvStore::gather_into`] preserves row order, the
/// kernel sees bit-identical inputs to the contiguous
/// [`KvCache`](crate::KvCache) path.
#[derive(Debug)]
pub struct PagedKvBinding<'a> {
    store: &'a mut PagedKvStore,
    seqs: &'a mut [PagedSeq],
    n_heads: usize,
    /// One head's gathered keys and values, per head.
    scratch: Vec<(Vec<f32>, Vec<f32>)>,
}

impl<'a> PagedKvBinding<'a> {
    /// Binds `seqs` (layer-major, `n_layers * n_heads` entries) in
    /// `store` for one request's decode steps.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty, its length is not a multiple of
    /// `n_heads`, or the sequences disagree on length (every head of
    /// every layer must hold the same number of tokens).
    #[must_use]
    pub fn new(store: &'a mut PagedKvStore, seqs: &'a mut [PagedSeq], n_heads: usize) -> Self {
        assert!(n_heads > 0, "n_heads must be positive");
        assert!(!seqs.is_empty(), "binding needs at least one sequence");
        assert_eq!(
            seqs.len() % n_heads,
            0,
            "sequence count must be n_layers * n_heads"
        );
        let len = seqs[0].len();
        assert!(
            seqs.iter().all(|s| s.len() == len),
            "all head sequences must hold the same number of tokens"
        );
        Self {
            store,
            seqs,
            n_heads,
            scratch: vec![(Vec::new(), Vec::new()); n_heads],
        }
    }
}

impl crate::DecodeKv for PagedKvBinding<'_> {
    fn context_len(&self) -> usize {
        self.seqs[0].len()
    }

    fn push_row(&mut self, layer: usize, head: usize, key: &[f32], value: &[f32]) {
        let seq = &mut self.seqs[layer * self.n_heads + head];
        self.store.push(seq, key, value);
    }

    /// One gather per head of `layer`, then every call of the run reads a
    /// prefix of its head's gathered rows.
    fn attend_run(
        &mut self,
        layer: usize,
        context: usize,
        queries: &[f32],
        kernel: &mut dyn crate::AttentionBackend,
    ) -> Vec<f32> {
        let dim = self.store.dim();
        let seqs = &self.seqs[layer * self.n_heads..(layer + 1) * self.n_heads];
        for (seq, (keys, values)) in seqs.iter().zip(&mut self.scratch) {
            self.store.gather_into(seq, keys, values);
        }
        let heads: Vec<crate::KvView<'_>> = self
            .scratch
            .iter()
            .map(|(keys, values)| {
                crate::KvView::new(
                    topick_core::Rows::new(keys, dim),
                    topick_core::Rows::new(values, dim),
                )
            })
            .collect();
        kernel.attend_batch(&crate::AttendBatch::new(&heads, queries, context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeadCache;

    fn row(i: usize, salt: f32) -> ([f32; 3], [f32; 3]) {
        let x = i as f32 + salt;
        ([x, x + 0.25, x + 0.5], [-x, x * 2.0, x * 0.125])
    }

    /// Builds the same logical sequence into a `HeadCache`, the oracle a
    /// paged sequence must read back identically to.
    fn oracle(rows: &[([f32; 3], [f32; 3])]) -> HeadCache {
        let mut c = HeadCache::new(3);
        for (k, v) in rows {
            c.push(k, v);
        }
        c
    }

    fn assert_matches_oracle(store: &PagedKvStore, seq: &PagedSeq, rows: &[([f32; 3], [f32; 3])]) {
        let o = oracle(rows);
        assert_eq!(seq.len(), o.len());
        for i in 0..o.len() {
            assert_eq!(store.key_row(seq, i), o.key_row(i), "key row {i}");
            assert_eq!(store.value_row(seq, i), o.value_row(i), "value row {i}");
        }
        let (mut keys, mut values) = (Vec::new(), Vec::new());
        store.gather_into(seq, &mut keys, &mut values);
        assert_eq!(keys, o.keys().data());
        assert_eq!(values, o.values().data());
    }

    #[test]
    fn forked_sequences_read_like_independent_caches() {
        let mut store = PagedKvStore::new(3, 4);
        let shared: Vec<_> = (0..10).map(|i| row(i, 0.0)).collect();
        let mut a = store.new_seq();
        for (k, v) in &shared {
            store.push(&mut a, k, v);
        }

        // Fork at the full prefix, then diverge both holders.
        let mut b = store.fork(&a, 10);
        let mut a_rows = shared.clone();
        let mut b_rows = shared.clone();
        for i in 0..6 {
            let (k, v) = row(100 + i, 0.5);
            store.push(&mut a, &k, &v);
            a_rows.push((k, v));
            let (k, v) = row(200 + i, 0.25);
            store.push(&mut b, &k, &v);
            b_rows.push((k, v));
        }
        assert_matches_oracle(&store, &a, &a_rows);
        assert_matches_oracle(&store, &b, &b_rows);
        store.validate(&[&a, &b]);
    }

    #[test]
    fn full_page_fork_copies_nothing_and_cow_copies_one_page() {
        let mut store = PagedKvStore::new(3, 4);
        let mut a = store.new_seq();
        for i in 0..8 {
            let (k, v) = row(i, 0.0);
            store.push(&mut a, &k, &v);
        }
        assert_eq!(store.allocated_pages(), 2);

        // Page-aligned fork: pure sharing.
        let mut b = store.fork(&a, 8);
        assert_eq!(store.allocated_pages(), 2);
        assert_eq!(store.shared_pages(), 2);

        // b's next append opens a fresh page — still nothing copied.
        let (k, v) = row(50, 0.5);
        store.push(&mut b, &k, &v);
        assert_eq!(store.allocated_pages(), 3);
        assert_eq!(store.shared_pages(), 2);
        store.validate(&[&a, &b]);
    }

    #[test]
    fn partial_page_fork_cows_on_either_holders_write() {
        let mut store = PagedKvStore::new(3, 4);
        let rows: Vec<_> = (0..6).map(|i| row(i, 0.0)).collect();
        let mut a = store.new_seq();
        for (k, v) in &rows {
            store.push(&mut a, k, v);
        }
        // Fork mid-page: both map the half-filled page 1.
        let mut b = store.fork(&a, 6);
        assert_eq!(store.allocated_pages(), 2);

        // The parent writing into the shared tail page must also COW —
        // otherwise b would observe a's row 6.
        let (k, v) = row(60, 0.5);
        store.push(&mut a, &k, &v);
        assert_eq!(store.allocated_pages(), 3, "parent write copied the tail");
        let mut a_rows = rows.clone();
        a_rows.push((k, v));
        let (k, v) = row(70, 0.25);
        store.push(&mut b, &k, &v);
        let mut b_rows = rows.clone();
        b_rows.push((k, v));
        assert_matches_oracle(&store, &a, &a_rows);
        assert_matches_oracle(&store, &b, &b_rows);
        store.validate(&[&a, &b]);
    }

    #[test]
    fn truncate_and_release_conserve_pages() {
        let mut store = PagedKvStore::new(3, 4);
        let mut a = store.new_seq();
        let rows: Vec<_> = (0..10).map(|i| row(i, 0.0)).collect();
        for (k, v) in &rows {
            store.push(&mut a, k, v);
        }
        let mut b = store.fork(&a, 8);

        // Truncating the parent below the shared prefix keeps b intact.
        store.truncate(&mut a, 3);
        assert_eq!(a.len(), 3);
        assert_matches_oracle(&store, &a, &rows[..3]);
        assert_matches_oracle(&store, &b, &rows[..8]);
        store.validate(&[&a, &b]);

        // Appending after a truncate overwrites the stale physical rows.
        let (k, v) = row(33, 0.5);
        store.push(&mut a, &k, &v);
        let mut a_rows = rows[..3].to_vec();
        a_rows.push((k, v));
        assert_matches_oracle(&store, &a, &a_rows);
        assert_matches_oracle(&store, &b, &rows[..8]);

        store.release(&mut a);
        store.release(&mut b);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(store.allocated_pages(), 0);
        store.validate(&[&a, &b]);
    }

    #[test]
    fn fork_of_fork_chains_share_soundly() {
        let mut store = PagedKvStore::new(3, 2);
        let rows: Vec<_> = (0..4).map(|i| row(i, 0.0)).collect();
        let mut a = store.new_seq();
        for (k, v) in &rows {
            store.push(&mut a, k, v);
        }
        let b = store.fork(&a, 4);
        let mut c = store.fork(&b, 2);
        let (k, v) = row(9, 0.5);
        store.push(&mut c, &k, &v);
        assert_matches_oracle(&store, &a, &rows);
        assert_matches_oracle(&store, &b, &rows);
        let mut c_rows = rows[..2].to_vec();
        c_rows.push((k, v));
        assert_matches_oracle(&store, &c, &c_rows);
        store.validate(&[&a, &b, &c]);
    }

    /// Regression pin for the audited truncate-into-shared-page case:
    /// after a fork shares a page and `truncate` makes it the (partial)
    /// tail, the next `push` must copy-on-write that page — mutating it
    /// in place would corrupt rows the sibling still reads.
    #[test]
    fn push_after_truncate_into_shared_page_cows_and_spares_the_sibling() {
        let mut store = PagedKvStore::new(3, 4);
        let rows: Vec<_> = (0..8).map(|i| row(i, 0.0)).collect();
        let mut a = store.new_seq();
        for (k, v) in &rows {
            store.push(&mut a, k, v);
        }
        // Fork at the full 8 tokens: both pages shared.
        let b = store.fork(&a, 8);
        // Truncate the parent into the middle of shared page 1...
        store.truncate(&mut a, 6);
        assert_eq!(store.shared_pages(), 2, "truncate kept the tail mapped");
        // ...then append. The tail page still has refs == 2, so this must
        // COW; the sibling's rows 6 and 7 must survive untouched.
        let (k, v) = row(60, 0.5);
        store.push(&mut a, &k, &v);
        let mut a_rows = rows[..6].to_vec();
        a_rows.push((k, v));
        assert_matches_oracle(&store, &a, &a_rows);
        assert_matches_oracle(&store, &b, &rows);
        store.validate(&[&a, &b]);

        // Same shape one level deeper: truncate to a page boundary drops
        // the shared tail entirely, and the re-append opens a fresh page.
        let mut c = store.fork(&b, 8);
        store.truncate(&mut c, 4);
        let (k, v) = row(70, 0.25);
        store.push(&mut c, &k, &v);
        let mut c_rows = rows[..4].to_vec();
        c_rows.push((k, v));
        assert_matches_oracle(&store, &c, &c_rows);
        assert_matches_oracle(&store, &b, &rows);
        store.validate(&[&a, &b, &c]);
    }

    /// The paged binding drives the *model* to the same logits as the
    /// contiguous cache — bit-identical, because gather preserves row
    /// order and the kernel is shared.
    #[test]
    fn paged_binding_matches_contiguous_cache_logits_bit_for_bit() {
        use crate::{ExactAttention, KvCache, ModelSpec, PagedKvBinding, TransformerModel};
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), 7);
        let tokens = [1usize, 2, 3, 44, 5];

        let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
        let mut k = ExactAttention::new();
        let contiguous = model.prefill(&tokens, &mut cache, &mut k);

        let mut store = PagedKvStore::new(spec.head_dim(), 4);
        let mut seqs = vec![store.new_seq(); spec.n_layers * spec.n_heads];
        let mut k = ExactAttention::new();
        let mut binding = PagedKvBinding::new(&mut store, &mut seqs, spec.n_heads);
        let paged = model.prefill(&tokens, &mut binding, &mut k);
        assert_eq!(contiguous, paged);

        // And a forked child continues from the shared prefix with the
        // exact same logits as an unshared rebuild of the same tokens.
        // Forking at the page boundary (4 tokens, page_size 4) keeps the
        // shared page physically shared: the child's appends open a fresh
        // page instead of copy-on-writing the prefix.
        let forked: Vec<_> = seqs.iter().map(|s| store.fork(s, 4)).collect();
        let mut forked_seqs = forked;
        let mut k = ExactAttention::new();
        let mut child = PagedKvBinding::new(&mut store, &mut forked_seqs, spec.n_heads);
        let child_logits = model.prefill(&tokens[4..], &mut child, &mut k);
        assert_eq!(child_logits, contiguous);
        assert!(store.shared_pages() > 0, "the fork physically shares");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reads_are_bounds_checked_against_the_logical_length() {
        let mut store = PagedKvStore::new(3, 4);
        let mut a = store.new_seq();
        let (k, v) = row(0, 0.0);
        store.push(&mut a, &k, &v);
        let _ = store.key_row(&a, 1);
    }
}
