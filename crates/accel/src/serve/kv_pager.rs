//! Paged KV-cache accounting for the serving engine, with copy-on-write
//! page sharing between requests that have a common prompt prefix.
//!
//! The engine's KV token budget
//! ([`max_batch_tokens`](super::AdmissionConfig::max_batch_tokens)) is
//! carved into fixed-size **pages** of [`page_size`](KvPager::page_size)
//! tokens each. Admission provisions
//! whole pages — a request's KV footprint is its *final* context rounded
//! up to page granularity, so partially-filled tail pages are real
//! fragmentation the budget pays for, exactly as in a paged KV allocator
//! (vLLM-style) on hardware.
//!
//! Paging is what makes **partial retention across preemptions** possible:
//! where the flat token budget forced an eviction to drop the victim's
//! whole KV state, the pager can free only a *suffix* of the victim's
//! pages ([`truncate`](KvPager::truncate)) and keep the prefix allocated
//! while the victim waits in the queue, so re-admission only re-prefills
//! the dropped tokens. The storage-level half of the same operation is
//! [`HeadCache::truncate`](topick_model::HeadCache::truncate), which drops
//! the concrete key/value rows the freed pages held.
//!
//! # Prefix caching
//!
//! With the prefix cache enabled
//! ([`with_prefix_cache`](KvPager::with_prefix_cache)), every page is
//! **reference counted** and
//! full prompt pages are labelled with a position-chained content hash
//! ([`register_prefix`](KvPager::register_prefix)). When a new request's
//! prompt shares a full-page-aligned prefix with pages already resident —
//! held by a running request, retained by a preempted request, or parked
//! in the cache after their last owner retired — admission **adopts**
//! those pages ([`adopt_prefix`](KvPager::adopt_prefix)) instead of
//! allocating and re-prefilling copies. Sharing is copy-on-write by
//! construction: only *full* prompt pages are ever shared, every token a
//! request writes (its prompt tail and generated suffix) lands in private
//! pages, so a shared page is immutable for as long as it is shared.
//!
//! Page lifecycle under the prefix cache:
//!
//! ```text
//! free ──reserve──▶ owned ──register──▶ shared (refs ≥ 1, indexed)
//!  ▲                  │                    │ release/truncate by the
//!  │              release │                ▼ last holder (refs → 0)
//!  │ (unkeyed page)  ◀────┘             cached (refs = 0, indexed, LRU)
//!  │                                       │
//!  └────────────── reclaimed ◀─────────────┘  (LRU eviction under
//!                 (unregistered)              allocation pressure, or
//!                                             re-adopted back to shared)
//! ```
//!
//! Refcount-0 cached pages are a best-effort cache, never a reservation:
//! [`reserve`](KvPager::reserve) reclaims them oldest-first when the free
//! list runs dry, so caching can only ever *add* admission capacity.
//!
//! # Host tier
//!
//! With a host tier provisioned ([`with_host_tier`](KvPager::with_host_tier)),
//! the contents of pages reclaimed from a preemption victim can survive in
//! a bounded host-memory tier instead of being dropped. The device page
//! itself returns to circulation either way — the tier models the
//! *contents* surviving off-device, so re-admission pays a priced
//! copy-back (the engine's `swap_cost_factor` charge) instead of a full
//! re-prefill of those tokens. The pager only carries the tier's capacity
//! and occupancy; which request holds how much is each request's own
//! residency ledger, whose transitions are the only thing that moves
//! occupancy — a page's contents are never resident in both tiers at once
//! (they move only as their device pages are dropped).

use std::collections::BTreeMap;

use super::residency::HostTier;

/// One owner's page table: the pages mapped to it, in token-position
/// order, plus the token count its allocation was provisioned for (the
/// basis of tail-page fragmentation accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnerTable {
    owner: u64,
    /// Page indices in position order: `pages[j]` holds tokens
    /// `[j * page_size, (j + 1) * page_size)` of the owner's context.
    pages: Vec<usize>,
    /// Tokens the current allocation was provisioned for — always at most
    /// `pages.len() * page_size`; the difference is this owner's tail
    /// fragmentation.
    covered: usize,
}

/// A fixed-size-page allocator over the serving engine's KV token budget,
/// with optional reference-counted prefix sharing.
///
/// Pages are identified by dense indices `0..total_pages` and handed out
/// from a LIFO free list, so allocation order is deterministic. Owners are
/// engine-assigned arrival sequences (unique per request lifetime, unlike
/// caller-chosen request ids). With the prefix cache enabled, one page may
/// be mapped by several owners at once (`refcount > 1`) and pages whose
/// last owner released them stay resident in an LRU cache until
/// allocation pressure reclaims them.
///
/// # Examples
///
/// ```
/// use topick_accel::serve::kv_pager::KvPager;
///
/// let mut pager = KvPager::new(16, 160); // 10 pages of 16 tokens
/// assert_eq!(pager.total_pages(), 10);
/// assert_eq!(pager.pages_needed(40), 3); // tail page half-filled
///
/// pager.reserve(1, 40);
/// assert_eq!((pager.pages_of(1), pager.free_pages()), (3, 7));
///
/// // Preemption with partial retention: keep 1 page, free the rest.
/// assert_eq!(pager.truncate(1, 1), 2);
/// assert_eq!(pager.pages_of(1), 1);
///
/// // Re-admission tops the allocation back up to the full need.
/// pager.reserve(1, 40);
/// assert_eq!(pager.pages_of(1), 3);
///
/// assert_eq!(pager.release(1), 3);
/// assert_eq!(pager.free_pages(), 10);
/// ```
///
/// Prefix sharing:
///
/// ```
/// use topick_accel::serve::kv_pager::KvPager;
///
/// let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
/// let chain = [0xAAu64, 0xBB]; // content hashes of 2 full prompt pages
///
/// pager.reserve(1, 40);
/// pager.register_prefix(1, &chain);
///
/// // A second request with the same prompt prefix adopts both pages.
/// assert_eq!(pager.adopt_prefix(2, &chain), 2);
/// pager.reserve(2, 48);
/// assert_eq!(pager.pages_of(2), 3);      // 2 shared + 1 private
/// assert_eq!(pager.allocated_pages(), 4); // distinct pages, not 6
///
/// // The last holder retiring parks the shared pages in the cache.
/// pager.release(1);
/// pager.release(2);
/// assert_eq!((pager.cached_pages(), pager.free_pages()), (2, 8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvPager {
    page_size: usize,
    total_pages: usize,
    /// LIFO free list of page indices (pop from the back).
    free: Vec<usize>,
    /// Per-owner page tables, in insertion order (deterministic iteration).
    tables: Vec<OwnerTable>,
    /// Owners currently mapping each page (0 = free or cached).
    refs: Vec<u32>,
    /// The chained content hash each page is registered under, if any.
    keys: Vec<Option<u64>>,
    /// Prefix index: chained content hash → resident page holding it.
    index: BTreeMap<u64, usize>,
    /// Refcount-0 pages kept resident for future prefix hits, oldest
    /// first — the LRU order reclamation follows.
    lru: Vec<usize>,
    cache_enabled: bool,
    /// The host swap tier's capacity and occupancy (capacity 0 = disabled).
    host: HostTier,
}

impl KvPager {
    /// A pager carving `capacity_tokens` into pages of `page_size` tokens,
    /// with the prefix cache disabled.
    ///
    /// The page count is `capacity_tokens / page_size` rounded *down*: the
    /// pager never provisions more tokens than the budget allows, so a
    /// budget that is not page-aligned loses its remainder to
    /// fragmentation. A zero `page_size` is clamped to 1.
    #[must_use]
    pub fn new(page_size: usize, capacity_tokens: usize) -> Self {
        let page_size = page_size.max(1);
        let total_pages = capacity_tokens / page_size;
        Self {
            page_size,
            total_pages,
            // Pages pop back-to-front, so page 0 is allocated first.
            free: (0..total_pages).rev().collect(),
            tables: Vec::new(),
            refs: vec![0; total_pages],
            keys: vec![None; total_pages],
            index: BTreeMap::new(),
            lru: Vec::new(),
            cache_enabled: false,
            host: HostTier::new(page_size, 0),
        }
    }

    /// Enables or disables the shared-prefix cache. Disabled (the
    /// default), the pager behaves exactly like the pre-sharing allocator:
    /// no page is ever shared or kept resident past its owner's release.
    #[must_use]
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Provisions a bounded host-memory swap tier of `pages` pages
    /// (0 disables the tier — the default, preserving the drop-and-
    /// re-prefill behavior bit for bit).
    #[must_use]
    pub fn with_host_tier(mut self, pages: usize) -> Self {
        self.host = HostTier::new(self.page_size, pages);
        self
    }

    /// Host-tier capacity in pages (0 = disabled).
    #[must_use]
    pub fn host_capacity(&self) -> usize {
        self.host.capacity()
    }

    /// Host-tier pages currently occupied across all requests.
    #[must_use]
    pub fn host_pages_used(&self) -> usize {
        self.host.used()
    }

    /// The host tier, for the residency transitions that move KV contents
    /// into and out of it.
    pub(crate) fn host_mut(&mut self) -> &mut HostTier {
        &mut self.host
    }

    /// Tokens per page.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total pages the budget was carved into.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages currently on the free list.
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Refcount-0 pages kept resident for future prefix hits. Reclaimable
    /// on demand, so they count as available capacity for admission.
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.lru.len()
    }

    /// Distinct pages currently mapped by at least one owner. Always
    /// satisfies `allocated_pages() + cached_pages() + free_pages() ==
    /// total_pages()` — the conservation invariant the property tests pin
    /// down. (With sharing, this counts distinct pages, not mappings; see
    /// [`mapped_pages`](Self::mapped_pages).)
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.total_pages - self.free.len() - self.lru.len()
    }

    /// Total page *mappings* across all owner tables — with sharing, one
    /// page mapped by `n` owners counts `n` times.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.tables.iter().map(|t| t.pages.len()).sum()
    }

    /// Owners currently mapping `page` (0 means the page is free or
    /// cached).
    ///
    /// # Panics
    ///
    /// Panics if `page >= total_pages()`.
    #[must_use]
    pub fn refcount(&self, page: usize) -> u32 {
        self.refs[page]
    }

    /// Pages held by `owner` (0 if the owner holds none).
    #[must_use]
    pub fn pages_of(&self, owner: u64) -> usize {
        self.table(owner).map_or(0, |i| self.tables[i].pages.len())
    }

    /// The number of `owner`'s pages shared with at least one other
    /// owner (pages whose refcount exceeds one) — not a count of peer
    /// owners.
    #[cfg(test)]
    fn shared_pages_of(&self, owner: u64) -> usize {
        self.table(owner).map_or(0, |i| {
            self.tables[i]
                .pages
                .iter()
                .filter(|&&p| self.refs[p] > 1)
                .count()
        })
    }

    /// Pages needed to cover `tokens` (rounded up — the tail page counts
    /// even when partially filled).
    #[must_use]
    pub fn pages_needed(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_size)
    }

    /// Whether `owner` could grow its allocation to cover `tokens`. Pages
    /// the owner already holds (e.g. retained across a preemption) count
    /// toward the need, and refcount-0 cached pages count as reclaimable
    /// capacity.
    #[must_use]
    pub fn can_reserve(&self, owner: u64, tokens: usize) -> bool {
        let need = self
            .pages_needed(tokens)
            .saturating_sub(self.pages_of(owner));
        need <= self.free.len() + self.lru.len()
    }

    /// [`can_reserve`](Self::can_reserve) with prefix-cache awareness:
    /// pages adoptable from `chain` (see
    /// [`adopt_prefix`](Self::adopt_prefix)) reduce the allocation the
    /// owner still needs, while adoptable pages that currently sit in the
    /// cache stop counting as reclaimable capacity (adopting them keeps
    /// them resident).
    #[must_use]
    pub fn can_admit(&self, owner: u64, tokens: usize, chain: &[u64]) -> bool {
        let (need, available) = self.admission_gap(owner, tokens, chain);
        need <= available
    }

    /// The arithmetic behind [`can_admit`](Self::can_admit), as `(pages
    /// the owner must still allocate, pages available to allocate)` — the
    /// preemption planner starts from the same two numbers and adds what
    /// each victim would free.
    pub(crate) fn admission_gap(&self, owner: u64, tokens: usize, chain: &[u64]) -> (usize, usize) {
        let (hits, cached_hits) = self.adoptable(owner, chain);
        let need = self
            .pages_needed(tokens)
            .saturating_sub(self.pages_of(owner) + hits);
        (need, self.free.len() + self.lru.len() - cached_hits)
    }

    /// The single definition of the adoptable-page walk: the resident
    /// pages of `chain` beyond the owner's held prefix, in position
    /// order, stopping at the first unresolved hash.
    fn adoptable_iter<'a>(
        &'a self,
        owner: u64,
        chain: &'a [u64],
    ) -> impl Iterator<Item = usize> + 'a {
        chain
            .iter()
            .skip(self.pages_of(owner))
            .map_while(|key| self.index.get(key).copied())
    }

    /// How many pages of `chain` the owner could adopt beyond the prefix
    /// it already holds, as `(hits, cached_hits)` — `cached_hits` of the
    /// hits currently sit at refcount 0 in the cache. The allocation-free
    /// counting view of [`adoptable_pages`](Self::adoptable_pages), for
    /// the admission feasibility hot path.
    #[must_use]
    pub fn adoptable(&self, owner: u64, chain: &[u64]) -> (usize, usize) {
        let mut hits = 0;
        let mut cached_hits = 0;
        for p in self.adoptable_iter(owner, chain) {
            hits += 1;
            if self.refs[p] == 0 {
                cached_hits += 1;
            }
        }
        (hits, cached_hits)
    }

    /// The resident pages the owner could adopt beyond the prefix it
    /// already holds, in position order (the page list behind
    /// [`adoptable`](Self::adoptable)).
    #[must_use]
    pub fn adoptable_pages(&self, owner: u64, chain: &[u64]) -> Vec<usize> {
        self.adoptable_iter(owner, chain).collect()
    }

    /// Maps every resident page of `chain` beyond the owner's held prefix
    /// into the owner's table, bumping refcounts (and pulling refcount-0
    /// pages back out of the cache). Stops at the first position whose
    /// hash has no resident page — chained hashes make any hit set a
    /// contiguous prefix. Returns the pages adopted.
    ///
    /// Adopted pages are shared copy-on-write: they hold full, immutable
    /// prompt pages, and every token the adopter writes lands in private
    /// pages allocated after them.
    pub fn adopt_prefix(&mut self, owner: u64, chain: &[u64]) -> usize {
        if chain.is_empty() {
            return 0;
        }
        let at = match self.table(owner) {
            Some(i) => i,
            None => {
                // Avoid creating an empty table on a guaranteed miss.
                if !self.index.contains_key(&chain[0]) {
                    return 0;
                }
                self.tables.push(OwnerTable {
                    owner,
                    pages: Vec::new(),
                    covered: 0,
                });
                self.tables.len() - 1
            }
        };
        let mut adopted = 0;
        loop {
            let pos = self.tables[at].pages.len();
            if pos >= chain.len() {
                break;
            }
            let Some(&p) = self.index.get(&chain[pos]) else {
                break;
            };
            if self.refs[p] == 0 {
                let i = self
                    .lru
                    .iter()
                    .position(|&c| c == p)
                    .expect("refcount-0 indexed page is cached");
                self.lru.remove(i);
            }
            self.refs[p] += 1;
            self.tables[at].pages.push(p);
            adopted += 1;
        }
        if adopted > 0 {
            // Adopted pages are full pages of valid tokens.
            let provisioned = self.tables[at].pages.len() * self.page_size;
            self.tables[at].covered = self.tables[at].covered.max(provisioned);
        } else if self.tables[at].pages.is_empty() {
            self.tables.remove(at);
        }
        adopted
    }

    /// Labels the owner's leading pages with the chained content hashes in
    /// `chain` and publishes them in the prefix index, making them
    /// adoptable by later admissions. Position `j` of the owner's table is
    /// labelled `chain[j]`; pages already labelled (their content was
    /// published before, possibly by another owner's identical prefix)
    /// are left as they are — first writer wins. A no-op while the prefix
    /// cache is disabled.
    pub fn register_prefix(&mut self, owner: u64, chain: &[u64]) {
        if !self.cache_enabled {
            return;
        }
        let Some(at) = self.table(owner) else {
            return;
        };
        for (pos, &key) in chain.iter().enumerate() {
            let Some(&p) = self.tables[at].pages.get(pos) else {
                break;
            };
            if self.keys[p].is_some() || self.index.contains_key(&key) {
                continue;
            }
            self.keys[p] = Some(key);
            self.index.insert(key, p);
        }
    }

    /// Ships the leading resident run of `chain` out of this pager (the
    /// donor side of cross-shard page shipping). Walks the chain in
    /// position order, stopping at the first key with no resident page,
    /// and returns the keys shipped. A hit that sits at refcount 0 in the
    /// cache **moves**: it leaves this pager's LRU and index and its page
    /// returns to the free list the same step it lands in the receiver. A
    /// hit still mapped by a running owner is **copied** — the holder
    /// keeps its page untouched.
    pub fn export_prefix(&mut self, chain: &[u64]) -> Vec<u64> {
        let mut shipped = Vec::new();
        for &key in chain {
            let Some(&p) = self.index.get(&key) else {
                break;
            };
            if self.refs[p] == 0 {
                let i = self
                    .lru
                    .iter()
                    .position(|&c| c == p)
                    .expect("refcount-0 indexed page is cached");
                self.lru.remove(i);
                self.unregister(p);
                self.free.push(p);
            }
            shipped.push(key);
        }
        shipped
    }

    /// Lands shipped prefix pages in this pager (the receiver side of
    /// cross-shard page shipping): each key gets a free page, is published
    /// in the prefix index and parked in the LRU cache, ready for the
    /// shipped request's admission to adopt. Keys already resident are
    /// skipped; landing stops when the free list runs dry (shipping never
    /// displaces resident state). Returns the pages landed. A no-op while
    /// the prefix cache is disabled.
    pub fn import_prefix(&mut self, keys: &[u64]) -> usize {
        if !self.cache_enabled {
            return 0;
        }
        let mut landed = 0;
        for &key in keys {
            if self.index.contains_key(&key) {
                continue;
            }
            let Some(p) = self.free.pop() else {
                break;
            };
            self.keys[p] = Some(key);
            self.index.insert(key, p);
            self.lru.push(p);
            landed += 1;
        }
        landed
    }

    /// Grows `owner`'s allocation until it covers `tokens`, reusing any
    /// pages it already holds (retained across a preemption, or adopted
    /// from the prefix index). Returns the pages newly allocated. When the
    /// free list runs dry, refcount-0 cached pages are reclaimed oldest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if free plus cached pages cannot cover the growth — callers
    /// gate on [`can_reserve`](Self::can_reserve) /
    /// [`can_admit`](Self::can_admit) (the engine's admission check), so
    /// running dry is an accounting bug, not a recoverable state.
    pub fn reserve(&mut self, owner: u64, tokens: usize) -> usize {
        let target = self.pages_needed(tokens);
        let at = match self.table(owner) {
            Some(i) => i,
            None => {
                self.tables.push(OwnerTable {
                    owner,
                    pages: Vec::new(),
                    covered: 0,
                });
                self.tables.len() - 1
            }
        };
        let mut grown = 0;
        while self.tables[at].pages.len() < target {
            let page = match self.free.pop() {
                Some(p) => p,
                None => self.reclaim_lru().expect(
                    "KV page reservation exceeds capacity; admission must gate on can_reserve",
                ),
            };
            self.refs[page] = 1;
            self.tables[at].pages.push(page);
            grown += 1;
        }
        self.tables[at].covered = self.tables[at].covered.max(tokens);
        grown
    }

    /// Unmaps every page of `owner` beyond the first `keep_pages` (the
    /// partial-retention half of a preemption: the retained prefix stays
    /// allocated while the owner waits in the queue). Returns the pages
    /// unmapped. Keeping zero pages removes the owner entirely.
    ///
    /// A dropped page only returns to circulation when its last mapping
    /// goes — shared pages are never reclaimed out from under another
    /// holder. A last-mapping drop frees the page, unless it is published
    /// in the prefix index and the cache is enabled, in which case it is
    /// parked in the LRU cache instead (still adoptable, reclaimed under
    /// pressure).
    pub fn truncate(&mut self, owner: u64, keep_pages: usize) -> usize {
        let Some(at) = self.table(owner) else {
            return 0;
        };
        let table = &mut self.tables[at];
        let keep = keep_pages.min(table.pages.len());
        let dropped: Vec<usize> = table.pages.drain(keep..).collect();
        table.covered = table.covered.min(keep * self.page_size);
        let n = dropped.len();
        for p in dropped {
            debug_assert!(self.refs[p] > 0, "dropping an unmapped page");
            self.refs[p] -= 1;
            if self.refs[p] > 0 {
                continue; // still mapped by another owner
            }
            if self.cache_enabled && self.keys[p].is_some() {
                self.lru.push(p);
            } else {
                self.unregister(p);
                self.free.push(p);
            }
        }
        if self.tables[at].pages.is_empty() {
            self.tables.remove(at);
        }
        n
    }

    /// Unmaps every page of `owner` (retirement, or reclaiming a queued
    /// request's retained pages under admission pressure). Returns the
    /// pages unmapped. Pages published in the prefix index outlive the
    /// release as cached pages — the shared-prefix cache that survives
    /// request retirement.
    pub fn release(&mut self, owner: u64) -> usize {
        self.truncate(owner, 0)
    }

    /// How many of the pages `truncate(owner, keep_pages)` would drop
    /// actually return to circulation (become free or cached): dropped
    /// pages at refcount 1 that are not in `exclude`. Pages shared with
    /// another holder stay allocated, and `exclude` lets a preemption plan
    /// discount pages an admission candidate is itself about to adopt.
    #[must_use]
    pub fn releasable_pages(&self, owner: u64, keep_pages: usize, exclude: &[usize]) -> usize {
        self.table(owner).map_or(0, |at| {
            let pages = &self.tables[at].pages;
            pages[keep_pages.min(pages.len())..]
                .iter()
                .filter(|&&p| self.refs[p] == 1 && !exclude.contains(&p))
                .count()
        })
    }

    /// Total tail-page fragmentation across all owners, in tokens: pages
    /// are provisioned whole, so each owner pays `pages × page_size −
    /// provisioned-for tokens`. Recomputed as allocations change — it
    /// shrinks when retention trims an owner to a page boundary and grows
    /// back when re-admission re-provisions the full context. (Shared
    /// pages count once per mapping: this is provisioning overhead, not
    /// distinct memory.)
    #[must_use]
    pub fn fragmented_tokens(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.pages.len() * self.page_size - t.covered)
            .sum()
    }

    /// Tokens `owner`'s current allocation was provisioned for (0 if the
    /// owner holds no pages).
    #[cfg(test)]
    fn covered_tokens(&self, owner: u64) -> usize {
        self.table(owner).map_or(0, |i| self.tables[i].covered)
    }

    /// Checks every internal invariant, panicking with a description of
    /// the first violation — the conservation oracle the property tests
    /// drive:
    ///
    /// * free, cached and mapped pages partition `0..total_pages`;
    /// * every page's refcount equals its number of table mappings
    ///   (no page is owned by zero holders while marked allocated, and
    ///   none is double-freed);
    /// * the prefix index and per-page keys agree both ways, and cached
    ///   pages are exactly the refcount-0 indexed pages;
    /// * no owner is provisioned for more tokens than its pages hold;
    /// * host-tier occupancy never exceeds the tier's capacity (that it
    ///   equals what the requests' holdings need is
    ///   [`ServingEngine::validate`](super::ServingEngine::validate)'s
    ///   check — the pager does not know the holders).
    pub fn validate(&self) {
        let mut mappings = vec![0u32; self.total_pages];
        for t in &self.tables {
            assert!(
                t.covered <= t.pages.len() * self.page_size,
                "owner {} provisioned for {} tokens with only {} pages",
                t.owner,
                t.covered,
                t.pages.len()
            );
            for &p in &t.pages {
                mappings[p] += 1;
            }
        }
        for (p, (&refs, &mapped)) in self.refs.iter().zip(&mappings).enumerate() {
            assert_eq!(
                refs, mapped,
                "page {p}: refcount {refs} but {mapped} table mappings"
            );
        }
        let mut seen = vec![false; self.total_pages];
        for &p in &self.free {
            assert!(!seen[p], "page {p} on the free list twice");
            seen[p] = true;
            assert_eq!(self.refs[p], 0, "free page {p} has owners");
            assert!(self.keys[p].is_none(), "free page {p} still registered");
        }
        for &p in &self.lru {
            assert!(!seen[p], "cached page {p} also free or cached twice");
            seen[p] = true;
            assert_eq!(self.refs[p], 0, "cached page {p} has owners");
            assert!(self.keys[p].is_some(), "cached page {p} not registered");
        }
        for (p, &was_seen) in seen.iter().enumerate() {
            assert!(
                was_seen || self.refs[p] > 0,
                "page {p} is neither free, cached nor mapped"
            );
            assert!(
                !(was_seen && self.refs[p] > 0),
                "page {p} is mapped while free or cached"
            );
            if let Some(key) = self.keys[p] {
                assert_eq!(
                    self.index.get(&key),
                    Some(&p),
                    "page {p} key not in the index"
                );
            }
        }
        for (&key, &p) in &self.index {
            assert_eq!(
                self.keys[p],
                Some(key),
                "index entry {key:#x} → page {p} not labelled back"
            );
        }
        assert_eq!(
            self.allocated_pages() + self.cached_pages() + self.free_pages(),
            self.total_pages(),
            "page conservation violated"
        );
        assert!(
            self.host.used() <= self.host.capacity(),
            "host tier over capacity: {} of {} pages",
            self.host.used(),
            self.host.capacity()
        );
    }

    /// Reclaims the least-recently-cached page for reallocation,
    /// unregistering it from the prefix index.
    fn reclaim_lru(&mut self) -> Option<usize> {
        if self.lru.is_empty() {
            return None;
        }
        let p = self.lru.remove(0);
        self.unregister(p);
        Some(p)
    }

    fn unregister(&mut self, page: usize) {
        if let Some(key) = self.keys[page].take() {
            self.index.remove(&key);
        }
    }

    fn table(&self, owner: u64) -> Option<usize> {
        self.tables.iter().position(|t| t.owner == owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carves_budget_into_pages_rounding_down() {
        let pager = KvPager::new(16, 100);
        assert_eq!(pager.total_pages(), 6); // 96 tokens; 4 lost to alignment
        assert_eq!(pager.free_pages(), 6);
        assert_eq!(pager.allocated_pages(), 0);
    }

    #[test]
    fn zero_page_size_is_clamped() {
        let pager = KvPager::new(0, 10);
        assert_eq!(pager.page_size(), 1);
        assert_eq!(pager.total_pages(), 10);
    }

    #[test]
    fn reserve_counts_fragmentation() {
        let mut pager = KvPager::new(16, 160);
        assert_eq!(pager.reserve(7, 17), 2); // 1 full + 1 tail page
        assert_eq!(pager.pages_of(7), 2);
        assert_eq!(pager.free_pages(), 8);
        // Growing within already-held pages allocates nothing.
        assert_eq!(pager.reserve(7, 30), 0);
        assert_eq!(pager.reserve(7, 33), 1);
        assert_eq!(pager.pages_of(7), 3);
    }

    #[test]
    fn truncate_retains_a_prefix_and_release_empties() {
        let mut pager = KvPager::new(8, 64);
        pager.reserve(1, 40); // 5 pages
        assert_eq!(pager.truncate(1, 2), 3);
        assert_eq!(pager.pages_of(1), 2);
        assert_eq!(pager.free_pages(), 6);
        // Truncating to more pages than held frees nothing.
        assert_eq!(pager.truncate(1, 9), 0);
        assert_eq!(pager.release(1), 2);
        assert_eq!(pager.pages_of(1), 0);
        assert_eq!(pager.free_pages(), 8);
        // Releasing an unknown owner is a no-op.
        assert_eq!(pager.release(42), 0);
    }

    #[test]
    fn accounting_is_leak_free_across_churn() {
        let mut pager = KvPager::new(4, 64); // 16 pages
        pager.reserve(1, 20);
        pager.reserve(2, 9);
        pager.truncate(1, 1);
        pager.reserve(3, 16);
        pager.release(2);
        pager.reserve(1, 20);
        assert_eq!(
            pager.allocated_pages() + pager.free_pages(),
            pager.total_pages()
        );
        pager.validate();
    }

    #[test]
    fn can_reserve_credits_held_pages() {
        let mut pager = KvPager::new(8, 32); // 4 pages
        pager.reserve(1, 24); // 3 pages
        assert!(!pager.can_reserve(2, 16)); // needs 2, only 1 free
        pager.truncate(1, 1);
        // Owner 1 re-reserving its original need only asks for the delta.
        assert!(pager.can_reserve(1, 24));
        assert!(pager.can_reserve(2, 16));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn reserve_past_capacity_panics() {
        let mut pager = KvPager::new(8, 16);
        pager.reserve(1, 100);
    }

    #[test]
    fn adoption_shares_pages_and_refcounts_them() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [11u64, 22, 33];
        pager.reserve(1, 56); // 4 pages: 3 full prompt pages + tail
        pager.register_prefix(1, &chain);
        assert_eq!(pager.adoptable(2, &chain), (3, 0));

        assert_eq!(pager.adopt_prefix(2, &chain), 3);
        pager.reserve(2, 60); // 4 pages total: 3 shared + 1 private
        assert_eq!(pager.pages_of(2), 4);
        assert_eq!(pager.shared_pages_of(1), 3);
        assert_eq!(pager.shared_pages_of(2), 3);
        assert_eq!(pager.allocated_pages(), 5); // 3 shared + 2 private
        assert_eq!(pager.mapped_pages(), 8);
        pager.validate();

        // Dropping one holder keeps the shared pages allocated.
        pager.release(1);
        assert_eq!(pager.allocated_pages(), 4);
        assert_eq!(pager.cached_pages(), 0);
        pager.validate();
    }

    #[test]
    fn released_prefix_pages_are_cached_then_readopted() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [7u64, 8];
        pager.reserve(1, 40);
        pager.register_prefix(1, &chain);
        pager.release(1);
        // Registered pages outlive retirement; the private tail is freed.
        assert_eq!(pager.cached_pages(), 2);
        assert_eq!(pager.free_pages(), 8);
        pager.validate();

        // A later request adopts straight out of the cache.
        assert_eq!(pager.adoptable(2, &chain), (2, 2));
        assert_eq!(pager.adopt_prefix(2, &chain), 2);
        assert_eq!(pager.cached_pages(), 0);
        assert_eq!(pager.pages_of(2), 2);
        pager.validate();
    }

    #[test]
    fn cached_pages_are_reclaimed_lru_first_under_pressure() {
        let mut pager = KvPager::new(16, 64).with_prefix_cache(true); // 4 pages
        pager.reserve(1, 16);
        pager.register_prefix(1, &[100]);
        pager.release(1);
        pager.reserve(2, 16);
        pager.register_prefix(2, &[200]);
        pager.release(2);
        assert_eq!((pager.cached_pages(), pager.free_pages()), (2, 2));

        // Needing 4 pages reclaims both cached pages, oldest first; the
        // index forgets them.
        assert!(pager.can_reserve(3, 64));
        pager.reserve(3, 64);
        assert_eq!(pager.cached_pages(), 0);
        assert_eq!(pager.adoptable(4, &[100]), (0, 0));
        assert_eq!(pager.adoptable(4, &[200]), (0, 0));
        pager.validate();
    }

    #[test]
    fn adoption_extends_a_retained_prefix() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [1u64, 2, 3];
        pager.reserve(1, 48);
        pager.register_prefix(1, &chain);

        // Owner 2 shares the prompt; preemption trimmed it to 1 page.
        pager.adopt_prefix(2, &chain);
        pager.truncate(2, 1);
        assert_eq!(pager.pages_of(2), 1);
        // Re-admission adopts positions 1..3 again (still resident).
        assert_eq!(pager.adoptable(2, &chain), (2, 0));
        assert_eq!(pager.adopt_prefix(2, &chain), 2);
        assert_eq!(pager.pages_of(2), 3);
        pager.validate();
    }

    #[test]
    fn shared_pages_are_not_releasable_and_exclusions_hold() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [5u64, 6];
        pager.reserve(1, 56); // 4 pages: 2 registered + 2 private
        pager.register_prefix(1, &chain);
        pager.adopt_prefix(2, &chain);

        // Owner 1's first two pages are shared with owner 2: truncating
        // owner 1 to nothing would only return its two private pages.
        assert_eq!(pager.releasable_pages(1, 0, &[]), 2);
        // A plan that also intends to adopt page 0 must discount it.
        let hit = pager.adoptable_pages(3, &chain);
        assert_eq!(pager.releasable_pages(2, 0, &hit), 0);
        pager.validate();
    }

    #[test]
    fn register_prefix_first_writer_wins() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [9u64];
        pager.reserve(1, 16);
        pager.register_prefix(1, &chain);
        // Owner 2 holds a private copy of identical content; registering
        // it again must not displace the canonical page.
        pager.reserve(2, 16);
        pager.register_prefix(2, &chain);
        let canonical = pager.adoptable_pages(3, &chain);
        pager.release(1);
        pager.release(2);
        // Only the canonical copy is cached; the duplicate was freed.
        assert_eq!(pager.cached_pages(), 1);
        assert_eq!(pager.adoptable_pages(3, &chain), canonical);
        pager.validate();
    }

    #[test]
    fn cache_disabled_never_retains_or_shares() {
        let mut pager = KvPager::new(16, 64);
        pager.reserve(1, 32);
        pager.register_prefix(1, &[1, 2]); // no-op while disabled
        assert_eq!(pager.adoptable(2, &[1, 2]), (0, 0));
        pager.release(1);
        assert_eq!(pager.cached_pages(), 0);
        assert_eq!(pager.free_pages(), 4);
        pager.validate();
    }

    #[test]
    fn export_moves_cached_pages_and_copies_shared_ones() {
        let mut donor = KvPager::new(16, 160).with_prefix_cache(true);
        let chain = [41u64, 42, 43];
        donor.reserve(1, 48);
        donor.register_prefix(1, &chain);

        // Shared (refcount > 0) pages are copied: the donor keeps them.
        assert_eq!(donor.export_prefix(&chain), vec![41, 42, 43]);
        assert_eq!(donor.pages_of(1), 3);
        donor.validate();

        // Cached (refcount 0) pages move: they leave the donor's cache
        // and free up the same step.
        donor.release(1);
        assert_eq!(donor.cached_pages(), 3);
        assert_eq!(donor.export_prefix(&chain[..2]), vec![41, 42]);
        assert_eq!(donor.cached_pages(), 1);
        assert_eq!(donor.free_pages(), 9);
        assert_eq!(donor.adoptable(2, &chain), (0, 0)); // chain broken at 41
        donor.validate();
    }

    #[test]
    fn import_lands_shipped_keys_as_adoptable_cache() {
        let mut receiver = KvPager::new(16, 64).with_prefix_cache(true);
        assert_eq!(receiver.import_prefix(&[41, 42]), 2);
        assert_eq!(receiver.cached_pages(), 2);
        assert_eq!(receiver.adoptable(1, &[41, 42]), (2, 2));
        // Re-importing resident keys is a no-op.
        assert_eq!(receiver.import_prefix(&[41, 42]), 0);
        // Landing stops when the free list runs dry.
        receiver.reserve(9, 32);
        assert_eq!(receiver.free_pages(), 0);
        assert_eq!(receiver.import_prefix(&[50]), 0);
        receiver.validate();

        // Cache disabled: shipping cannot land anything.
        let mut plain = KvPager::new(16, 64);
        assert_eq!(plain.import_prefix(&[1]), 0);
        plain.validate();
    }

    #[test]
    fn fragmentation_is_recomputed_after_trims_and_adoption() {
        let mut pager = KvPager::new(16, 160).with_prefix_cache(true);
        // 44 tokens over 3 pages: 4 tokens of tail fragmentation.
        pager.reserve(1, 44);
        assert_eq!(pager.fragmented_tokens(), 4);
        assert_eq!(pager.covered_tokens(1), 44);

        // Retention trims to a page boundary: fragmentation vanishes.
        pager.truncate(1, 2);
        assert_eq!(pager.fragmented_tokens(), 0);
        assert_eq!(pager.covered_tokens(1), 32);

        // Re-provisioning the full context brings the tail back.
        pager.reserve(1, 44);
        assert_eq!(pager.fragmented_tokens(), 4);

        // Shared-page adoption: adopted pages are full, so the adopter's
        // fragmentation comes only from its own tail.
        pager.register_prefix(1, &[70, 71]);
        pager.adopt_prefix(2, &[70, 71]);
        assert_eq!(pager.fragmented_tokens(), 4); // owner 2 adds none yet
        pager.reserve(2, 50); // 4 pages (64 tokens) for 50
        assert_eq!(pager.fragmented_tokens(), 4 + 14);
        pager.validate();
    }
}
