//! Where a request's KV lives, and what it owes — the one copy of that
//! decision.
//!
//! Every token of a request's context is in exactly one place: **built**
//! on the device, **parked** in the host tier, **in flight** from a
//! sibling shard, or **owed** as prompt prefill or a post-eviction
//! rebuild. A [`Residency`] is that ledger for one request, with one
//! method per transition the engine performs (enqueue, adopt, advance a
//! prefill chunk, evict, reclaim a retained tail page, ship out, settle at
//! decode) and [`built_tokens`](Residency::built_tokens) as its read
//! model. The [`HostTier`] is the shared pool the parked tokens occupy;
//! only the ledger's transitions change its occupancy, so the two cannot
//! disagree.

use super::policy::RetentionPolicy;
use super::pricing;
use super::stats::RequestStats;
use super::ServingConfig;

/// The bounded host-memory swap tier: how many pages of evicted KV
/// *contents* survive off-device. It is modeled — it counts pages, not
/// page indices — and per-request holdings are not stored here: a
/// request's holding is the pages its [`Residency`]'s host tokens need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HostTier {
    page_size: usize,
    capacity: usize,
    used: usize,
}

impl HostTier {
    /// A tier of `capacity` pages of `page_size` tokens (0 = disabled).
    pub(crate) fn new(page_size: usize, capacity: usize) -> Self {
        Self {
            page_size,
            capacity,
            used: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages occupied across all holdings.
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// Pages a holding of `tokens` occupies.
    pub(crate) fn pages(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_size)
    }

    fn room(&self) -> usize {
        self.capacity - self.used
    }

    /// Re-sizes one request's `holding` to `tokens` — the only place
    /// occupancy changes, and it changes the ledger's count with it.
    /// Callers size growth against [`room`](Self::room) first; a holding
    /// the tier cannot cover is an accounting bug.
    fn resize(&mut self, holding: &mut usize, tokens: usize) {
        self.used = self.used - self.pages(*holding) + self.pages(tokens);
        assert!(
            self.used <= self.capacity,
            "host tier over capacity: {} of {} pages",
            self.used,
            self.capacity
        );
        *holding = tokens;
    }
}

/// What a request must pay for before (or as) it next decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Debt {
    /// Every context token's KV is built.
    None,
    /// Prompt prefill: the top `owed` tokens of the prompt are not built
    /// yet (set at enqueue when the engine prices prefill; shrinks with
    /// prefix-cache adoption and chunk by chunk under chunked prefill).
    Prefill { owed: usize },
    /// Post-eviction rebuild: the top `dropped` tokens of the context left
    /// the device, and the lowest `host` of them — a contiguous region
    /// directly above the retained prefix — survive in the host tier, to
    /// be copied back instead of recomputed.
    Rebuild { dropped: usize, host: usize },
}

/// One request's KV ledger (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Residency {
    debt: Debt,
    /// KV tokens whose pages arrived (or are arriving) from a sibling
    /// shard: a migrated running request's whole built context, or a
    /// prefix pulled while queued. The next decode charges the transfer
    /// and they leave the rebuild debt.
    shipped: usize,
}

/// What a decoding slot paid this step on top of its attention, by kind,
/// and what the payment means for its KV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Settled {
    pub(crate) prefill: u64,
    pub(crate) reprefill: u64,
    pub(crate) swap: u64,
    pub(crate) ship: u64,
    /// KV tokens copied back from the host tier.
    pub(crate) swapped_tokens: usize,
    /// Whether any prompt KV was (re)built — it may now be published.
    pub(crate) built_kv: bool,
}

impl Residency {
    /// A freshly enqueued request: it owes its whole prompt if the engine
    /// prices prefill, and `shipped` tokens of that prompt are already in
    /// flight from a sibling shard.
    pub(crate) fn enqueued(prompt_len: usize, prefill_priced: bool, shipped: usize) -> Self {
        let debt = if prefill_priced {
            Debt::Prefill { owed: prompt_len }
        } else {
            Debt::None
        };
        Self { debt, shipped }
    }

    /// `(tokens owed, how many of those are parked in the host tier)`.
    fn debt_and_host(&self) -> (usize, usize) {
        match self.debt {
            Debt::None => (0, 0),
            Debt::Prefill { owed } => (owed, 0),
            Debt::Rebuild { dropped, host } => (dropped, host),
        }
    }

    /// Context tokens whose KV genuinely exists on the device right now:
    /// the prefill frontier while chunked prefill is in flight, the cap on
    /// what retention may keep across an eviction, and the bound on what
    /// the prefix cache may publish.
    pub(crate) fn built_tokens(&self, context: usize) -> usize {
        context - self.debt_and_host().0
    }

    /// Whether nothing is owed: the whole context is built.
    pub(crate) fn is_built(&self) -> bool {
        self.debt == Debt::None
    }

    /// Prompt tokens still to prefill (0 unless prefill is the debt).
    pub(crate) fn prefill_owed(&self) -> usize {
        match self.debt {
            Debt::Prefill { owed } => owed,
            _ => 0,
        }
    }

    /// Tokens parked in the host tier.
    pub(crate) fn host_tokens(&self) -> usize {
        self.debt_and_host().1
    }

    /// Tokens in flight from a sibling shard.
    pub(crate) fn shipped_tokens(&self) -> usize {
        self.shipped
    }

    /// A prefix pull landed `tokens` more of the prompt's KV on this shard.
    pub(crate) fn credit_shipped(&mut self, tokens: usize) {
        self.shipped += tokens;
    }

    /// Panics unless the debt fits inside `context` and the host holding
    /// inside the debt.
    pub(crate) fn validate(&self, context: usize) {
        let (owed, host) = self.debt_and_host();
        assert!(
            owed <= context,
            "{owed} tokens owed of a {context}-token context"
        );
        assert!(
            host <= owed,
            "{host} host tokens outside a {owed}-token debt"
        );
    }

    /// Admission adopted `cached_tokens` of already-built prompt KV from
    /// the prefix cache: the debt shrinks token for token. The adopted
    /// pages sit at the bottom of a dropped region — exactly where a host
    /// holding starts — so adoption supersedes that much of the holding;
    /// what survives still starts right above the (now longer) built
    /// prefix, and the freed host pages return to capacity immediately.
    pub(crate) fn adopt(&mut self, cached_tokens: usize, tier: &mut HostTier) {
        match &mut self.debt {
            Debt::None => {}
            Debt::Prefill { owed } => *owed = owed.saturating_sub(cached_tokens),
            Debt::Rebuild { dropped, host } => {
                *dropped = dropped.saturating_sub(cached_tokens);
                tier.resize(host, host.saturating_sub(cached_tokens));
            }
        }
    }

    /// Advances the chunked-prefill frontier by `allowance` tokens,
    /// returning the prefill debt `(before, after)`.
    pub(crate) fn advance_prefill(&mut self, allowance: usize) -> (usize, usize) {
        let Debt::Prefill { owed } = &mut self.debt else {
            unreachable!("only a slot owing prefill advances a chunk");
        };
        let before = *owed;
        *owed -= allowance;
        (before, *owed)
    }

    /// Evicts the request at `context` back to the queue, keeping a prefix
    /// of its KV on the device per `retention` and moving what it can of
    /// the rest to the host tier. Returns `(retained tokens — whose pages
    /// stay allocated —, tokens swapped out now)`; everything above the
    /// retained prefix is rebuild debt.
    ///
    /// Retention cannot keep KV that was never built: a victim evicted
    /// before the decode step that would have charged its pending prefill
    /// or rebuild only ever materialized its built prefix, so retention
    /// caps there — otherwise the skipped charge would never be billed to
    /// anyone.
    pub(crate) fn evict(
        &mut self,
        context: usize,
        retention: RetentionPolicy,
        tier: &mut HostTier,
    ) -> (usize, usize) {
        let (valid, mut host) = (self.built_tokens(context), self.host_tokens());
        let kept_pages = retention
            .retained_pages(tier.pages(context))
            .min(tier.pages(valid));
        let retained = valid.min(kept_pages * tier.page_size);
        // The dropped pages that held *valid* KV can survive off-device. A
        // full grant extends the holding contiguously above the retained
        // prefix; a partial grant is only usable when no earlier holding
        // sits above it (a hole below already-swapped pages would break
        // the copy-back prefix, so the stale holding is discarded instead).
        let swappable = tier.pages(valid) - kept_pages;
        let granted = swappable.min(tier.room());
        let (holding, swapped_now) = if granted == swappable {
            (host + (valid - retained), valid - retained)
        } else if host == 0 {
            let moved = valid.min((kept_pages + granted) * tier.page_size) - retained;
            (moved, moved)
        } else {
            (0, 0)
        };
        tier.resize(&mut host, holding);
        self.debt = Debt::Rebuild {
            dropped: context - retained,
            host,
        };
        (retained, swapped_now)
    }

    /// A queued request lost its retained tail page and keeps
    /// `kept_pages`. A shorter prefix is still a valid prefix: only the
    /// built tokens the page covered move into the rebuild debt (none, if
    /// the page held no materialized KV). The page sits directly below any
    /// tokens already in the host tier, so a granted swap keeps the
    /// holding a contiguous extension of the shorter prefix; a refused one
    /// leaves a hole, which invalidates the whole holding for copy-back.
    /// Returns `(built tokens lost, how many of them were swapped out)`.
    pub(crate) fn reclaim_tail_page(
        &mut self,
        context: usize,
        kept_pages: usize,
        tier: &mut HostTier,
    ) -> (usize, usize) {
        let Debt::Rebuild { dropped, host } = &mut self.debt else {
            unreachable!("only an evicted request retains pages while queued");
        };
        let retained = context - *dropped;
        let lost = retained - retained.min(kept_pages * tier.page_size);
        *dropped += lost;
        if tier.room() >= 1 {
            tier.resize(host, *host + lost);
            (lost, lost)
        } else {
            tier.resize(host, 0);
            (lost, 0)
        }
    }

    /// Gives the host holding back without a copy-back (the request was
    /// rejected, or is leaving this shard).
    pub(crate) fn release_host(&mut self, tier: &mut HostTier) {
        if let Debt::Rebuild { host, .. } = &mut self.debt {
            tier.resize(host, 0);
        }
    }

    /// The request migrates to a sibling shard: its whole built context
    /// travels with it, and on the receiver it is rebuild debt covered
    /// entirely by the transfer.
    pub(crate) fn ship_out(&mut self, context: usize, tier: &mut HostTier) {
        self.release_host(tier);
        self.debt = Debt::Rebuild {
            dropped: context,
            host: 0,
        };
        self.shipped = context;
    }

    /// Settles every debt the request carried into its decode step, priced
    /// off the step's measured `request_cycles` at `context`, and books
    /// the charges on `stats`.
    ///
    /// A rebuild re-prefills only what the eviction actually dropped.
    /// Tokens whose contents survived off-device — in the host tier or
    /// shipped over from a sibling shard — are copied back at their own
    /// (cheaper) price instead of being recomputed, and the host holding
    /// returns to capacity. Prompt prefill covers the share of the prompt
    /// the prefix cache did not serve; under chunking this is the *final*
    /// chunk. A prefix-pull ship (no rebuild debt) pays its transfer once,
    /// on the step the pulled pages first serve. With the tiers off every
    /// term but the rebuild is zero — bit-identical to the untiered engine.
    pub(crate) fn settle(
        &mut self,
        context: usize,
        cfg: &ServingConfig,
        request_cycles: u64,
        stats: &mut RequestStats,
        tier: &mut HostTier,
    ) -> Settled {
        let price = |factor, tokens| pricing::share(request_cycles, factor, tokens, context);
        let debt = std::mem::replace(&mut self.debt, Debt::None);
        let mut shipped_tokens = std::mem::take(&mut self.shipped);
        let (mut prefill, mut reprefill, mut swapped_tokens) = (0, 0, 0);
        match debt {
            Debt::None => {}
            Debt::Prefill { owed } => {
                let marginal = price(cfg.prefill_factor, owed);
                prefill = pricing::floor_prefill(owed, stats.prefill_cycles, marginal);
            }
            Debt::Rebuild { dropped, mut host } => {
                swapped_tokens = host;
                tier.resize(&mut host, 0);
                let transferred = shipped_tokens.min(dropped - swapped_tokens);
                if transferred > 0 {
                    shipped_tokens = transferred;
                }
                let recomputed = dropped - swapped_tokens - transferred;
                stats.reprefilled_tokens += recomputed;
                reprefill = price(cfg.preemption.reprefill_factor, recomputed);
            }
        }
        let swap = price(cfg.swap_cost_factor, swapped_tokens);
        let ship = price(cfg.ship_cost_factor, shipped_tokens);
        if matches!(debt, Debt::Rebuild { .. }) {
            reprefill = pricing::floor_reprefill(reprefill, swap, ship);
        }
        stats.prefill_cycles += prefill;
        stats.reprefill_cycles += reprefill;
        stats.swap_cycles += swap;
        stats.ship_cycles += ship;
        stats.swapped_tokens += swapped_tokens;
        stats.shipped_tokens += shipped_tokens;
        Settled {
            prefill,
            reprefill,
            swap,
            ship,
            swapped_tokens,
            built_kv: debt != Debt::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::KvPager;
    use super::*;
    use crate::config::{AccelConfig, AccelMode};
    use proptest::prelude::*;

    const PAGE: usize = 16;

    fn rebuild(dropped: usize, host: usize) -> Residency {
        Residency {
            debt: Debt::Rebuild { dropped, host },
            shipped: 0,
        }
    }

    fn built() -> Residency {
        Residency::enqueued(0, false, 0)
    }

    /// A `capacity`-page tier in which other requests hold `busy` pages and
    /// the request under test holds `own` tokens.
    fn tier(capacity: usize, busy: usize, own: usize) -> HostTier {
        let mut tier = HostTier::new(PAGE, capacity);
        tier.used = busy + tier.pages(own);
        tier
    }

    /// Prices exact in binary: prefill and rebuild at 1, copy-back at a
    /// quarter, transfer at a half.
    fn priced_cfg() -> ServingConfig {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.prefill_factor = 1.0;
        cfg.swap_cost_factor = 0.25;
        cfg.ship_cost_factor = 0.5;
        cfg
    }

    #[test]
    fn eviction_extends_trims_or_discards_the_host_holding_by_the_grant() {
        // A fully built 100-token context (7 pages) keeping 2 pages leaves
        // 5 swappable pages and no earlier holding; a victim already owing
        // its top 52 tokens (built prefix 48 = 3 pages, 20 tokens parked
        // right above it) keeping 1 page leaves 2 swappable pages *below*
        // that holding.
        let fresh = (built(), RetentionPolicy::Pages(2), 32, 68);
        let holding = (rebuild(52, 20), RetentionPolicy::Pages(1), 16, 84);
        // (start, tier capacity, pages busy elsewhere)
        //     -> (tokens swapped now, host tokens after, tier pages after)
        let cases = [
            // Full grant: the whole dropped-but-built region moves.
            (fresh, 8, 0, (68, 68, 5)),
            // Partial grant with nothing parked above: the first 3 pages.
            (fresh, 8, 5, (48, 48, 8)),
            // Refused (tier full, or no tier at all): contents are lost.
            (fresh, 8, 8, (0, 0, 8)),
            (fresh, 0, 0, (0, 0, 0)),
            // Full grant below an earlier holding extends it downwards.
            (holding, 8, 0, (32, 52, 4)),
            // A partial or refused grant below an earlier holding would
            // leave a hole under it: the stale holding is discarded.
            (holding, 8, 5, (0, 0, 5)),
            (holding, 8, 6, (0, 0, 6)),
        ];
        for ((start, retention, retained, dropped), capacity, busy, want) in cases {
            let label = format!("{start:?} in a {capacity}-page tier, {busy} busy");
            let mut kv = start;
            let mut tier = tier(capacity, busy, start.host_tokens());
            let (kept, swapped_now) = kv.evict(100, retention, &mut tier);
            assert_eq!(
                (kept, kv.built_tokens(100), kv.debt_and_host().0),
                (retained, retained, dropped),
                "{label}"
            );
            assert_eq!(
                (swapped_now, kv.host_tokens(), tier.used()),
                want,
                "{label}"
            );
            kv.validate(100);
        }
    }

    #[test]
    fn eviction_mid_prefill_retains_only_the_built_prefix() {
        // 40 of a 100-token prompt are built when the victim is evicted.
        let mid_prefill = Residency::enqueued(100, true, 0);
        let advanced = {
            let mut kv = mid_prefill;
            assert_eq!(kv.advance_prefill(40), (100, 60));
            kv
        };
        assert_eq!(advanced.built_tokens(100), 40);

        // Retention would keep all 7 pages, but only 3 hold real KV: it
        // caps at the frontier, and the prefill never charged becomes
        // rebuild debt — 60 tokens, none of them worth swapping.
        let mut kv = advanced;
        let mut host = tier(8, 0, 0);
        let out = kv.evict(100, RetentionPolicy::Fraction(1.0), &mut host);
        assert_eq!(out, (40, 0));
        assert_eq!(kv, rebuild(60, 0));
        assert_eq!(host.used(), 0);

        // Keeping one page instead: the other 24 built tokens park in the
        // host tier and the debt is those plus the 60 never built.
        let mut kv = advanced;
        let out = kv.evict(100, RetentionPolicy::Pages(1), &mut host);
        assert_eq!(out, (16, 24));
        assert_eq!(kv, rebuild(84, 24));
        assert_eq!(host.used(), 2);
        assert_eq!(kv.prefill_owed(), 0, "the prefill debt was folded in");
    }

    #[test]
    fn reclaiming_a_tail_page_moves_only_the_built_tokens_it_held() {
        // (start, kept pages, tier capacity, pages busy elsewhere)
        //     -> (lost, swapped now, debt after, tier pages after)
        let cases = [
            // The page held the top 16 built tokens; a granted swap parks
            // them, directly below (and merging with) an earlier holding.
            (rebuild(68, 0), 1, 8, 0, (16, 16, rebuild(84, 16), 1)),
            (rebuild(68, 20), 1, 8, 0, (16, 16, rebuild(84, 36), 3)),
            // Refused: the tokens are lost, and a holding above the hole
            // goes with them.
            (rebuild(68, 0), 1, 8, 8, (16, 0, rebuild(84, 0), 8)),
            (rebuild(68, 20), 1, 8, 6, (16, 0, rebuild(84, 0), 6)),
            (rebuild(68, 0), 1, 0, 0, (16, 0, rebuild(84, 0), 0)),
            // The page held no materialized KV (the built prefix ends at
            // 32 = 2 pages and 2 pages are kept): nothing moves, with the
            // tier on, whether or not something is already parked.
            (rebuild(68, 0), 2, 8, 0, (0, 0, rebuild(68, 0), 0)),
            (rebuild(68, 20), 2, 8, 0, (0, 0, rebuild(68, 20), 2)),
        ];
        for (start, kept_pages, capacity, busy, (lost, swapped, after, used)) in cases {
            let label = format!("{start:?} keeping {kept_pages} pages, {busy} busy");
            let mut kv = start;
            let mut tier = tier(capacity, busy, start.host_tokens());
            let out = kv.reclaim_tail_page(100, kept_pages, &mut tier);
            assert_eq!(out, (lost, swapped), "{label}");
            assert_eq!((kv, tier.used()), (after, used), "{label}");
            kv.validate(100);
        }
    }

    #[test]
    fn adoption_shrinks_the_debt_and_supersedes_the_bottom_of_the_holding() {
        // Built prefix 16; tokens 16..68 parked (4 pages, 1 busy elsewhere).
        let parked = rebuild(84, 52);
        let mut host = tier(8, 1, 52);
        let mut kv = parked;
        kv.adopt(32, &mut host);
        assert_eq!(kv, rebuild(52, 20), "two adopted pages replace two parked");
        assert_eq!(host.used(), 1 + 2);
        assert_eq!(kv.built_tokens(100), 48);
        kv.adopt(64, &mut host);
        assert_eq!(kv, rebuild(0, 0), "adoption past the debt saturates");
        assert_eq!(host.used(), 1);

        // Prefill debt shrinks the same way and stays a prefill debt — a
        // fully cached prompt still settles (for free) and publishes.
        let mut kv = Residency::enqueued(40, true, 0);
        kv.adopt(32, &mut host);
        assert_eq!(kv.prefill_owed(), 8);
        kv.adopt(32, &mut host);
        assert_eq!((kv.prefill_owed(), kv.is_built()), (0, false));

        let mut kv = built();
        kv.adopt(32, &mut host);
        assert!(kv.is_built());
        assert_eq!(host.used(), 1);
    }

    #[test]
    fn shipping_out_travels_the_whole_context_and_frees_the_holding() {
        let mut host = tier(8, 1, 52);
        let mut kv = rebuild(84, 52);
        kv.ship_out(100, &mut host);
        assert_eq!(
            kv,
            Residency {
                shipped: 100,
                ..rebuild(100, 0)
            }
        );
        assert_eq!(kv.shipped_tokens(), 100);
        assert_eq!(host.used(), 1, "the holding stays behind, freed");

        // The shape the engine actually ships: fully built, nothing parked.
        let mut kv = built();
        kv.ship_out(100, &mut host);
        assert_eq!((kv.built_tokens(100), kv.shipped_tokens()), (0, 100));
        assert_eq!(host.used(), 1);
    }

    #[test]
    fn settlement_prices_each_debt_kind_with_shipped_tokens_present() {
        let cfg = priced_cfg();
        let settle = |debt: Debt, shipped: usize, cfg: &ServingConfig| {
            let mut kv = Residency { debt, shipped };
            let mut host = tier(8, 1, kv.host_tokens());
            let mut stats = RequestStats::queued(&super::super::ServingRequest::new(0, 100, 1), 0);
            let settled = kv.settle(100, cfg, 1000, &mut stats, &mut host);
            assert_eq!(kv, built(), "every debt and transfer settles at once");
            assert_eq!(host.used(), 1, "the holding returns to capacity");
            assert_eq!(
                (stats.prefill_cycles, stats.reprefill_cycles),
                (settled.prefill, settled.reprefill)
            );
            assert_eq!(
                (stats.swap_cycles, stats.ship_cycles, stats.swapped_tokens),
                (settled.swap, settled.ship, settled.swapped_tokens)
            );
            (settled, stats.shipped_tokens, stats.reprefilled_tokens)
        };
        let paid = |prefill, reprefill, swap, ship, swapped_tokens, built_kv| Settled {
            prefill,
            reprefill,
            swap,
            ship,
            swapped_tokens,
            built_kv,
        };

        // A prefix pull with nothing owed pays only its transfer.
        assert_eq!(
            settle(Debt::None, 32, &cfg),
            (paid(0, 0, 0, 160, 0, false), 32, 0)
        );
        // Prefill owed with a pull in flight: the final chunk plus the pull.
        assert_eq!(
            settle(Debt::Prefill { owed: 40 }, 32, &cfg),
            (paid(400, 0, 0, 160, 0, true), 32, 0)
        );
        // A rebuild of 84 tokens: 20 copied back from host, 32 shipped, and
        // only the remaining 32 recomputed.
        assert_eq!(
            settle(
                Debt::Rebuild {
                    dropped: 84,
                    host: 20
                },
                32,
                &cfg
            ),
            (paid(0, 320, 50, 160, 20, true), 32, 32)
        );
        // More in flight than the rebuild needs: the transfer is capped at
        // what was dropped and not parked.
        assert_eq!(
            settle(
                Debt::Rebuild {
                    dropped: 40,
                    host: 20
                },
                32,
                &cfg
            ),
            (paid(0, 0, 50, 100, 20, true), 20, 0)
        );
        // The prefix-pull-without-rebuild case: the host tier covers the
        // whole rebuild, so the pull is priced in full beside it.
        assert_eq!(
            settle(
                Debt::Rebuild {
                    dropped: 20,
                    host: 20
                },
                32,
                &cfg
            ),
            (paid(0, 0, 50, 160, 20, true), 32, 0)
        );
        // A migrant: the transfer covers the whole context.
        assert_eq!(
            settle(
                Debt::Rebuild {
                    dropped: 100,
                    host: 0
                },
                100,
                &cfg
            ),
            (paid(0, 0, 0, 500, 0, true), 100, 0)
        );
        // Eviction is never free, even unpriced.
        let mut free = cfg.clone();
        free.preemption.reprefill_factor = 0.0;
        assert_eq!(
            settle(
                Debt::Rebuild {
                    dropped: 10,
                    host: 0
                },
                0,
                &free
            ),
            (paid(0, 1, 0, 0, 0, true), 0, 10)
        );
    }

    #[test]
    fn host_tier_bounds_swaps_and_conserves() {
        let cfg = priced_cfg();
        let mut pager = KvPager::new(PAGE, 160).with_host_tier(3);
        assert_eq!(pager.host_capacity(), 3);
        // An 80-token victim keeping 1 of its 5 pages drops 4; only 3 of
        // them fit the host tier.
        let mut first = built();
        let out = first.evict(80, RetentionPolicy::Pages(1), pager.host_mut());
        assert_eq!(out, (PAGE, 3 * PAGE));
        assert_eq!(pager.host_mut().pages(first.host_tokens()), 3);
        assert_eq!(pager.host_pages_used(), 3);
        pager.validate();
        // A second victim finds the tier full.
        let mut second = built();
        let out = second.evict(32, RetentionPolicy::None, pager.host_mut());
        assert_eq!((out, second.host_tokens()), ((0, 0), 0));
        // Copy-back takes the whole holding and frees the tier.
        let mut stats = RequestStats::queued(&super::super::ServingRequest::new(0, 80, 1), 0);
        let settled = first.settle(80, &cfg, 1000, &mut stats, pager.host_mut());
        assert_eq!(settled.swapped_tokens, 3 * PAGE);
        assert_eq!(pager.host_pages_used(), 0);
        let again = first.settle(80, &cfg, 1000, &mut stats, pager.host_mut());
        assert_eq!(again.swapped_tokens, 0);
        pager.validate();
    }

    #[test]
    fn disabled_host_tier_never_accepts_a_swap() {
        let mut pager = KvPager::new(PAGE, 64);
        let mut kv = built();
        let out = kv.evict(64, RetentionPolicy::None, pager.host_mut());
        assert_eq!((out, kv.host_tokens()), ((0, 0), 0));
        assert_eq!(pager.host_pages_used(), 0);
        pager.validate();
    }

    #[test]
    fn releasing_a_holding_drops_it_without_copy_back() {
        let mut pager = KvPager::new(PAGE, 64).with_host_tier(8);
        let mut kv = built();
        let out = kv.evict(32, RetentionPolicy::None, pager.host_mut());
        assert_eq!(out, (0, 32));
        assert_eq!(pager.host_pages_used(), 2);
        kv.release_host(pager.host_mut());
        assert_eq!((kv.host_tokens(), pager.host_pages_used()), (0, 0));
        pager.validate();
    }

    /// One request of the random-transition model below.
    #[derive(Debug, Clone, Copy)]
    struct Modeled {
        kv: Residency,
        context: usize,
        running: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any sequence of the engine's transitions over requests
        /// sharing one tier — shaped as the engine issues them (adoption in
        /// whole pages, reclaim of the last page holding built KV or of one
        /// holding none) — every ledger stays inside its context, a host
        /// holding stays inside its rebuild debt and starts on a page
        /// boundary, and the tier conserves: never over capacity, always
        /// exactly the pages the holdings need, empty once all are settled.
        #[test]
        fn transitions_conserve_the_host_tier_under_any_sequence(
            seed in any::<u64>(),
            capacity in 0usize..12,
            priced in any::<bool>(),
            ops in prop::collection::vec(0u8..9, 8..96),
        ) {
            let cfg = priced_cfg();
            let mut host = HostTier::new(PAGE, capacity);
            let fresh = |mix: u64| {
                let prompt = 1 + (mix >> 8) as usize % 120;
                Modeled {
                    kv: Residency::enqueued(prompt, priced, 0),
                    context: prompt,
                    running: false,
                }
            };
            let mut reqs: Vec<Modeled> = (0..4).map(|i| fresh(seed.rotate_left(i * 16))).collect();
            let mut stats = RequestStats::queued(&super::super::ServingRequest::new(0, 1, 1), 0);
            for (i, op) in ops.iter().enumerate() {
                let mix = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .rotate_left(29)
                    .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                let arg = (mix >> 16) as usize;
                let r = &mut reqs[(mix % 4) as usize];
                let built_pages = r.kv.built_tokens(r.context).div_ceil(PAGE);
                match (op, r.running) {
                    // Admit, adopting 0..3 cached pages.
                    (0 | 1, false) => {
                        r.kv.adopt(arg % 4 * PAGE, &mut host);
                        r.running = true;
                    }
                    // A chunk that cannot finish the prompt.
                    (2, true) if r.kv.prefill_owed() > 1 => {
                        let (before, after) = r.kv.advance_prefill(1 + arg % (r.kv.prefill_owed() - 1));
                        prop_assert!(after > 0 && after < before);
                    }
                    // Decode: everything owed settles, the context grows.
                    (2 | 3, true) => {
                        r.kv.settle(r.context, &cfg, 1000, &mut stats, &mut host);
                        prop_assert!(r.kv.is_built());
                        r.context += 1;
                    }
                    // Evict under some retention.
                    (4 | 5, true) => {
                        let retention = [
                            RetentionPolicy::None,
                            RetentionPolicy::Pages(1 + arg % 4),
                            RetentionPolicy::Fraction(0.5),
                            RetentionPolicy::Fraction(1.0),
                        ][arg % 4];
                        let before = r.kv.built_tokens(r.context);
                        let (retained, _) = r.kv.evict(r.context, retention, &mut host);
                        prop_assert!(retained <= before);
                        prop_assert_eq!(r.kv.built_tokens(r.context), retained);
                        r.running = false;
                    }
                    // Reclaim the tail page: the last one holding built KV,
                    // or (every fourth time) one past it holding none.
                    (6, false) if !r.kv.is_built() && r.kv.prefill_owed() == 0 && built_pages > 0 => {
                        let kept_pages = built_pages - usize::from(!arg.is_multiple_of(4));
                        let before = r.kv.built_tokens(r.context);
                        let (lost, swapped) = r.kv.reclaim_tail_page(r.context, kept_pages, &mut host);
                        prop_assert_eq!(r.kv.built_tokens(r.context), before - lost);
                        prop_assert!(swapped == 0 || swapped == lost);
                    }
                    // A prefix pull lands while queued.
                    (7, false) => r.kv.credit_shipped(arg % 3 * PAGE),
                    // Migrate a fully built running request.
                    (7, true) if r.kv.is_built() => {
                        r.kv.ship_out(r.context, &mut host);
                        r.running = false;
                    }
                    // Rejected while queued: the holding is given back and
                    // a new request takes the slot.
                    (8, false) => {
                        r.kv.release_host(&mut host);
                        prop_assert_eq!(r.kv.host_tokens(), 0);
                        *r = fresh(mix);
                    }
                    _ => {}
                }
                let mut held = 0;
                for r in &reqs {
                    r.kv.validate(r.context);
                    if r.kv.host_tokens() > 0 {
                        prop_assert_eq!(r.kv.built_tokens(r.context) % PAGE, 0, "holding off a page boundary");
                    }
                    held += host.pages(r.kv.host_tokens());
                }
                prop_assert!(host.used() <= host.capacity());
                prop_assert_eq!(host.used(), held, "after op {} ({})", i, op);
            }
            for r in &mut reqs {
                r.kv.settle(r.context, &cfg, 1000, &mut stats, &mut host);
            }
            prop_assert_eq!(host.used(), 0);
        }
    }
}
