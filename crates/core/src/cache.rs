//! Content-addressed memoization of Algorithm 1 schedules.
//!
//! The optimistic schedule of a basic block depends on exactly two inputs:
//! the PUM's *schedule domain* (scheduling policy, operation mapping table
//! and datapath — see [`Pum::schedule_domain`]) and the block's DFG shape
//! (op classes and dependence edges — see
//! [`tlm_cdfg::dfg::schedule_key`]). It is provably independent of the
//! statistical memory and branch models, so a sweep over cache sizes or
//! misprediction ratios re-runs only Algorithm 2; every Algorithm 1 result
//! is computed once per (datapath, block) pair and then served from this
//! cache. There is no process-wide instance: each `tlm_pipeline::Pipeline`
//! owns one (its `schedules` stage), and any other caller owns the cache
//! it annotates through.
//!
//! The cache is two-level: the (possibly multi-kilobyte) domain encoding is
//! resolved **once per annotation run** to a [`DomainHandle`]; per-block
//! lookups then hash only the small block key. Each domain's entries live
//! in one [`Store`] — the same exactly-once, full-key, second-chance store
//! every pipeline stage uses — next to the domain's precompiled
//! [`IssueTable`]. A hit returns the exact [`ScheduleResult`] the direct
//! call would have produced (asserted bit-identical by
//! `tests/parallel_determinism.rs` over every app in `crates/apps`).
//!
//! **Byte-budgeted eviction.** An unbounded cache is an OOM under an
//! adversarial (or merely diverse) client mix, so the cache can carry a
//! resident-byte budget ([`ScheduleCache::set_budget`]). The budget spans
//! all domains: when the resident bytes (domain encodings plus block keys)
//! exceed it, every domain's store rotates its generations together, and a
//! domain left with no entries and no live handle is dropped. Results stay
//! bit-identical across evictions because Algorithm 1 is a pure function of
//! the key — an evicted entry is simply recomputed to the same bytes on
//! next demand (asserted by the eviction tests below).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::batch::{solve_batch, BatchItem};
use crate::error::EstimateError;
use crate::pum::Pum;
use crate::schedule::{IssueTable, ScheduleResult};
use crate::store::{over_budget, Store, StoreStats};

/// The precomputed cache key half describing a PUM's schedule-relevant
/// sub-models. Compute once per annotation run, reuse for every block.
#[derive(Debug, Clone)]
pub struct ScheduleDomain {
    key: Arc<str>,
}

impl ScheduleDomain {
    /// Derives the domain of a PUM.
    pub fn of(pum: &Pum) -> ScheduleDomain {
        ScheduleDomain::from_encoding(&pum.schedule_domain())
    }

    /// The domain whose encoding is `schedule_domain`: the bytes
    /// [`Pum::schedule_domain`] returns, such as the suffix of an
    /// [`Pum::estimate_domain_split`] encoding at its offset. The caller
    /// asserts they are the bytes of the PUM it annotates with; debug
    /// builds check that whenever the domain's handle annotates.
    pub fn from_encoding(schedule_domain: &str) -> ScheduleDomain {
        ScheduleDomain { key: schedule_domain.into() }
    }
}

/// One schedule result, or the deterministic error Algorithm 1 raised.
type Scheduled = Result<Arc<ScheduleResult>, EstimateError>;

/// One domain's entries (second cache level) and its issue table.
#[derive(Debug, Default)]
struct DomainEntries {
    store: Store<Arc<ScheduleResult>, EstimateError>,
    /// The domain's precompiled [`IssueTable`], built on first use. A pure
    /// function of the domain encoding this entry is keyed by, so it never
    /// needs invalidation.
    table: OnceLock<Arc<IssueTable>>,
}

/// A thread-safe, content-addressed cache of [`ScheduleResult`]s.
#[derive(Debug)]
pub struct ScheduleCache {
    domains: Mutex<HashMap<Arc<str>, Arc<DomainEntries>>>,
    /// Resident-byte budget; `u64::MAX` means unbounded.
    budget: AtomicU64,
    /// Counters of domains dropped from the map, so totals survive them.
    retired: Mutex<StoreStats>,
}

impl Default for ScheduleCache {
    fn default() -> ScheduleCache {
        ScheduleCache {
            domains: Mutex::new(HashMap::new()),
            budget: AtomicU64::new(u64::MAX),
            retired: Mutex::new(StoreStats::default()),
        }
    }
}

impl ScheduleCache {
    /// An empty, unbounded cache.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// Sets the resident-byte budget (see the module docs for the
    /// generational semantics); `u64::MAX` disables eviction. Takes effect
    /// on the next insertion.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Arc<str>, Arc<DomainEntries>>> {
        self.domains.lock().expect("schedule cache poisoned")
    }

    /// Rotates every domain's generations. A domain left with no entries
    /// and no live handle is dropped and its counters retired; a live
    /// handle keeps its domain registered, so its inserts stay accounted.
    fn rotate(&self) {
        let mut retired = self.retired.lock().expect("schedule cache poisoned");
        self.lock().retain(|_, domain| {
            domain.store.rotate();
            let stats = domain.store.stats();
            let dead = stats.entries == 0 && Arc::strong_count(domain) == 1;
            if dead {
                *retired += stats;
            }
            !dead
        });
    }

    /// Enforces the budget across all domains: resident bytes are every
    /// domain's block keys plus the domain encodings themselves.
    fn enforce_budget(&self) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return;
        }
        for _ in 0..2 {
            let (young, total) =
                self.lock().iter().fold((0, 0), |(young, total), (key, domain)| {
                    let (y, t) = domain.store.resident();
                    (young + y, total + t + key.len() as u64)
                });
            if !over_budget(budget, young, total) {
                return;
            }
            self.rotate();
        }
    }

    /// Resolves a domain to its entry table. Call once per annotation run;
    /// the returned handle makes per-block lookups independent of the
    /// domain encoding's size.
    pub fn domain(&self, domain: &ScheduleDomain) -> DomainHandle<'_> {
        let mut domains = self.lock();
        let entry = domains.entry(Arc::clone(&domain.key));
        let key = Arc::clone(entry.key());
        DomainHandle { cache: self, entries: Arc::clone(entry.or_default()), key }
    }

    /// Snapshot of the counters, summed over every registered domain (and
    /// the domains already dropped). `bytes` includes the domain
    /// encodings.
    pub fn stats(&self) -> StoreStats {
        let mut total = *self.retired.lock().expect("schedule cache poisoned");
        for (key, domain) in self.lock().iter() {
            total += domain.store.stats();
            total.bytes += key.len() as u64;
        }
        total
    }

    /// Drops all entries and resets the counters. A handle resolved
    /// before the call is detached: what it schedules afterwards is never
    /// counted here.
    pub fn clear(&self) {
        self.lock().clear();
        *self.retired.lock().expect("schedule cache poisoned") = StoreStats::default();
    }
}

/// A borrowed view of one domain's entry table inside a [`ScheduleCache`].
///
/// Resolving a domain hashes its full (possibly multi-kilobyte) canonical
/// encoding, so sweep drivers should resolve once per datapath and reuse
/// the handle across every sweep point that shares it (see
/// [`annotate_in_domain`](crate::annotate::annotate_in_domain)).
#[derive(Debug)]
pub struct DomainHandle<'a> {
    cache: &'a ScheduleCache,
    entries: Arc<DomainEntries>,
    /// The domain encoding this handle was resolved from, shared with the
    /// domain map.
    key: Arc<str>,
}

impl DomainHandle<'_> {
    /// The domain encoding this handle was resolved from.
    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    /// The domain's precompiled [`IssueTable`], built from `pum` on first
    /// use and shared by every block scheduled in this domain. The caller
    /// asserts that `pum` belongs to this handle's domain (the same
    /// contract as [`annotate_in_domain`](crate::annotate::annotate_in_domain)).
    pub fn issue_table(&self, pum: &Pum) -> Arc<IssueTable> {
        Arc::clone(self.entries.table.get_or_init(|| Arc::new(IssueTable::build(pum))))
    }

    /// Schedules a batch of blocks through the cache: resolves every
    /// item's slot in one pass over the domain's store, then solves all
    /// still-empty slots together through [`solve_batch`] — identical keys
    /// share a slot, so duplicates fold into one representative solve.
    /// Returns one `(result, served-from-cache)` pair per item, in input
    /// order.
    ///
    /// Algorithm 1 runs **exactly once** per key, even under concurrency,
    /// so the miss counter always equals the number of results computed.
    /// Errors are cached like successes: the same inputs deterministically
    /// fail the same way.
    pub fn schedule_batch_keyed(
        &self,
        table: &IssueTable,
        items: &[BatchItem<'_>],
    ) -> Vec<(Scheduled, bool)> {
        let out = self.entries.store.get_or_try_many(
            items,
            |item| item.key,
            |misses| {
                let miss_items: Vec<BatchItem<'_>> = misses.iter().map(|&i| items[i]).collect();
                solve_batch(table, &miss_items)
            },
        );
        // Only a miss can have inserted an entry, so only a miss can have
        // pushed the cache past its budget.
        if out.iter().any(|&(_, hit)| !hit) {
            self.cache.enforce_budget();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::key_hash;
    use crate::library;
    use tlm_cdfg::dfg::{block_dfg, schedule_key};
    use tlm_cdfg::ir::{BlockData, Module};
    use tlm_cdfg::{BlockId, FuncId};

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    const SRC: &str = "int f(int a, int b) { return a * b + a - b; }";

    /// Schedules one block through `handle` as a one-item batch.
    fn schedule_in(
        handle: &DomainHandle<'_>,
        pum: &Pum,
        block: &BlockData,
        block_id: BlockId,
    ) -> (Scheduled, bool) {
        let dfg = block_dfg(block);
        let key = schedule_key(block, &dfg);
        let heights = dfg.heights();
        let item = BatchItem {
            key: &key,
            key_hash: key_hash(&key),
            block,
            dfg: &dfg,
            heights: &heights,
            func: FuncId(0),
            block_id,
        };
        let mut out = handle.schedule_batch_keyed(&handle.issue_table(pum), &[item]);
        out.pop().expect("one result per item")
    }

    /// [`schedule_in`] with the domain resolved from `pum`.
    fn schedule(cache: &ScheduleCache, pum: &Pum, block: &BlockData) -> (Scheduled, bool) {
        schedule_in(&cache.domain(&ScheduleDomain::of(pum)), pum, block, BlockId(0))
    }

    #[test]
    fn hit_after_miss_returns_identical_result() {
        let cache = ScheduleCache::new();
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];

        let (first, hit1) = schedule(&cache, &pum, block);
        let (second, hit2) = schedule(&cache, &pum, block);
        assert!(!hit1, "first lookup is a miss");
        assert!(hit2, "second lookup hits");
        let (first, second) = (first.expect("schedules"), second.expect("schedules"));
        assert_eq!(*first, *second);
        let direct =
            crate::schedule::schedule_block(&pum, block, &block_dfg(block), FuncId(0), BlockId(0))
                .expect("schedules");
        assert_eq!(*second, direct, "cached result identical to direct call");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0, "resident keys are accounted for");
    }

    #[test]
    fn statistical_models_share_entries() {
        // Two PUMs differing only in cache size / branch rate — Algorithm 1
        // cannot see the difference, so the second one must hit.
        let cache = ScheduleCache::new();
        let small = library::microblaze_like(2 << 10, 2 << 10);
        let mut large = library::microblaze_like(32 << 10, 16 << 10);
        if let Some(b) = &mut large.branch {
            b.miss_rate = 0.42;
        }
        assert_eq!(
            small.schedule_domain(),
            large.schedule_domain(),
            "schedule domain excludes memory/branch models"
        );
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        schedule(&cache, &small, block).0.expect("schedules");
        let (_, hit) = schedule(&cache, &large, block);
        assert!(hit, "sweep configurations share Algorithm 1 results");
    }

    #[test]
    fn different_policies_do_not_share_entries() {
        let cache = ScheduleCache::new();
        let mut asap = library::custom_hw("hw", 2, 2);
        asap.execution.policy = crate::pum::SchedulingPolicy::Asap;
        let mut alap = asap.clone();
        alap.execution.policy = crate::pum::SchedulingPolicy::Alap;
        assert_ne!(asap.schedule_domain(), alap.schedule_domain());
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        schedule(&cache, &asap, block).0.expect("schedules");
        let (_, hit) = schedule(&cache, &alap, block);
        assert!(!hit, "policy is part of the schedule domain");
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let cache = ScheduleCache::new();
        let mut pum = library::custom_hw("hw", 2, 2);
        pum.execution.op_map.clear(); // every op class is now unmapped
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        let first = schedule(&cache, &pum, block).0.expect_err("unmapped class");
        let second = schedule(&cache, &pum, block).0.expect_err("unmapped class");
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "error was served from the cache");
    }

    /// Schedules every block of `module` once, one-item batch per block,
    /// returning the results.
    fn schedule_all(cache: &ScheduleCache, pum: &Pum, module: &Module) -> Vec<Arc<ScheduleResult>> {
        let handle = cache.domain(&ScheduleDomain::of(pum));
        let mut out = Vec::new();
        for func in &module.functions {
            for (b, block) in func.blocks.iter().enumerate() {
                let (result, _) = schedule_in(&handle, pum, block, BlockId(b as u32));
                out.push(result.expect("schedules"));
            }
        }
        out
    }

    #[test]
    fn budget_eviction_drops_entries_and_recompute_is_bit_identical() {
        // A budget far below one generation's keys: every enforcement
        // rotates, so earlier blocks are evicted as later ones arrive.
        let cache = ScheduleCache::new();
        cache.set_budget(1);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of(
            "int f(int a, int b) { int s = 0; for (int i = 0; i < a; i++) { s += i * b; } return s; }
             int g(int x) { if (x > 3) { x = x * 7; } else { x = x - 2; } return x; }",
        );
        let first = schedule_all(&cache, &pum, &module);
        let evicted = cache.stats().evictions;
        assert!(evicted > 0, "tiny budget must evict, stats: {:?}", cache.stats());
        // Recompute after eviction: bit-identical results.
        let second = schedule_all(&cache, &pum, &module);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(**a, **b, "re-scheduled result identical across eviction");
        }
        // After the final over-budget enforcement at most the domain key
        // (kept registered while handles are live) remains resident.
        let domain_key_bytes = pum.schedule_domain().len() as u64;
        assert!(
            cache.stats().bytes <= domain_key_bytes + 64,
            "resident bytes bounded near the budget: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn second_chance_survives_one_rotation() {
        let cache = ScheduleCache::new();
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        schedule(&cache, &pum, block).0.expect("schedules");
        cache.rotate(); // entry ages into the old generation
        assert_eq!(cache.stats().evictions, 0, "first rotation drops nothing");
        let (_, hit) = schedule(&cache, &pum, block);
        assert!(hit, "aged entry is promoted, not recomputed");
        cache.rotate();
        assert_eq!(cache.stats().evictions, 0, "promoted entry survives the next rotation");
        let (_, hit) = schedule(&cache, &pum, block);
        assert!(hit, "still resident after two rotations with a touch between");
        cache.rotate();
        cache.rotate(); // two untouched rotations: now it is gone
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit) = schedule(&cache, &pum, block);
        assert!(!hit, "evicted entry recomputes");
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = ScheduleCache::new();
        let pum = library::generic_risc();
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        schedule(&cache, &pum, block).0.expect("schedules");
        cache.clear();
        assert_eq!(cache.stats(), StoreStats::default());
    }

    #[test]
    fn clear_detaches_live_handles_without_leaking_bytes() {
        // A handle resolved before `clear` keeps its detached domain; what
        // it schedules afterwards must not stay accounted once it is gone.
        let cache = ScheduleCache::new();
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of(SRC);
        let block = &module.functions[0].blocks[0];
        let handle = cache.domain(&ScheduleDomain::of(&pum));
        cache.clear();
        schedule_in(&handle, &pum, block, BlockId(0)).0.expect("schedules");
        drop(handle);
        for _ in 0..3 {
            cache.rotate();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0), "leaked accounting: {stats:?}");
    }
}
