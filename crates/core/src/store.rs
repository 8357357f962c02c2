//! The byte-budgeted, content-addressed memo store behind every cache in
//! the workspace: the Algorithm 1 schedule cache keeps one per schedule
//! domain, and every `tlm-pipeline` stage is one.
//!
//! Correctness before speed: keys are the full canonical byte encodings
//! of the computation's true inputs — never hashes of them — so two
//! distinct inputs can never alias an entry. Each key owns a `OnceLock`
//! slot, so the computation runs **exactly once** per key even under
//! concurrent demand: a thread that loses the initialization race blocks
//! on the winner and reads its result (counted as a hit — it did not run
//! the computation).
//!
//! **Error caching policy.** Deterministic errors are cached like
//! successes — the same inputs fail the same way, so re-running could not
//! change the outcome. *Transient* errors ([`StoreError::is_deterministic`]
//! is false: injected faults, I/O, resource pressure) are **not** cached:
//! the computing thread removes the slot before returning, so the next
//! demand recomputes instead of replaying a failure that may no longer
//! hold.
//!
//! **Byte-budgeted eviction.** A store can carry a resident-byte budget
//! ([`Store::set_budget`]): entries live in two generations, and when the
//! accounted key bytes exceed the budget the old generation is dropped and
//! the young one ages into its place. A lookup promotes its entry back
//! into the young generation (second chance), `OnceLock` slot and all — a
//! survivor never recomputes, and an evicted entry recomputes to
//! bit-identical bytes because every stored computation is a pure function
//! of its key.

use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::error::EstimateError;

/// An error type a [`Store`] can hold.
pub trait StoreError: Clone {
    /// Whether the failure is a deterministic property of the inputs.
    /// Deterministic failures are cached like successes; the others are
    /// recomputed on the next demand.
    fn is_deterministic(&self) -> bool;
}

/// Estimation errors are pure functions of the PUM and the block.
impl StoreError for EstimateError {
    fn is_deterministic(&self) -> bool {
        true
    }
}

/// Counter snapshot of one store (or of several, summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Demands served from the store.
    pub hits: u64,
    /// Demands that ran the computation.
    pub misses: u64,
    /// Resident entries.
    pub entries: usize,
    /// Approximate resident key bytes. Values are excluded: they are
    /// shared `Arc`s whose footprint the store does not own exclusively.
    pub bytes: u64,
    /// Entries dropped by budget-driven generation rotation.
    pub evictions: u64,
}

impl StoreStats {
    /// Fraction of demands served from the store; 0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl AddAssign for StoreStats {
    fn add_assign(&mut self, other: StoreStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.evictions += other.evictions;
    }
}

type Slot<T, E> = Arc<OnceLock<Result<T, E>>>;

/// Two generations of entries: young holds everything inserted or touched
/// since the last rotation; old awaits a second-chance promotion or the
/// next rotation.
#[derive(Debug)]
struct Generations<T, E> {
    young: HashMap<Arc<[u8]>, Slot<T, E>>,
    old: HashMap<Arc<[u8]>, Slot<T, E>>,
    young_bytes: u64,
    old_bytes: u64,
}

impl<T, E> Default for Generations<T, E> {
    fn default() -> Generations<T, E> {
        Generations { young: HashMap::new(), old: HashMap::new(), young_bytes: 0, old_bytes: 0 }
    }
}

impl<T, E> Generations<T, E> {
    /// The slot for `key` and whether it was inserted just now: a young
    /// entry as is, an old one promoted back into the young generation
    /// (slot intact, so no recompute), or a fresh empty slot.
    fn resolve(&mut self, key: &[u8]) -> (Slot<T, E>, bool) {
        if let Some(slot) = self.young.get(key) {
            return (Arc::clone(slot), false);
        }
        if let Some((key, slot)) = self.old.remove_entry(key) {
            self.old_bytes -= key.len() as u64;
            self.young_bytes += key.len() as u64;
            self.young.insert(key, Arc::clone(&slot));
            return (slot, false);
        }
        self.young_bytes += key.len() as u64;
        (Arc::clone(self.young.entry(Arc::from(key)).or_default()), true)
    }

    /// Removes `key` from whichever generation holds it, if `keep` rejects
    /// its slot. Returns whether an entry was removed.
    fn remove_unless(&mut self, key: &[u8], keep: impl Fn(&Slot<T, E>) -> bool) -> bool {
        let Generations { young, old, young_bytes, old_bytes } = self;
        for (map, bytes) in [(young, young_bytes), (old, old_bytes)] {
            if map.get(key).is_some_and(|slot| !keep(slot)) {
                map.remove(key);
                *bytes -= key.len() as u64;
                return true;
            }
        }
        false
    }

    /// Drops the old generation and ages the young one in its place.
    /// Returns the number of entries dropped.
    fn rotate(&mut self) -> u64 {
        let evicted = self.old.len() as u64;
        self.old = std::mem::take(&mut self.young);
        self.old_bytes = std::mem::replace(&mut self.young_bytes, 0);
        evicted
    }
}

/// The rotation rule: rotate while the young generation exceeds half the
/// budget or the resident total exceeds the whole budget. Each generation
/// is thus bounded by budget/2 and the total by the budget; enforcing it
/// takes at most two rotations (the second empties everything).
pub(crate) fn over_budget(budget: u64, young: u64, total: u64) -> bool {
    young > budget / 2 || total > budget
}

/// Reports one lookup: the store's name and whether it was a hit.
type Observer = fn(&'static str, bool);

/// A thread-safe, content-addressed store of `Result<T, E>` values.
#[derive(Debug)]
pub struct Store<T, E> {
    gens: Mutex<Generations<T, E>>,
    /// Resident-byte budget; `u64::MAX` means unbounded.
    budget: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    observer: Option<(&'static str, Observer)>,
}

impl<T, E> Default for Store<T, E> {
    fn default() -> Store<T, E> {
        Store {
            gens: Mutex::new(Generations::default()),
            budget: AtomicU64::new(u64::MAX),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            observer: None,
        }
    }
}

impl<T: Clone, E: StoreError> Store<T, E> {
    /// An empty, unbounded store.
    pub fn new() -> Store<T, E> {
        Store::default()
    }

    /// An empty store that reports every lookup to `observer` as
    /// `(name, hit)`.
    pub fn observed(name: &'static str, observer: Observer) -> Store<T, E> {
        Store { observer: Some((name, observer)), ..Store::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Generations<T, E>> {
        self.gens.lock().expect("store poisoned")
    }

    /// Sets the resident-byte budget; `u64::MAX` disables eviction. Takes
    /// effect on the next insertion.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Demands the value for `key`, running `compute` iff no slot holds it
    /// yet. The slot is fetched (or inserted) under the map lock; `compute`
    /// runs outside it, so other keys proceed concurrently and `compute`
    /// may itself demand values from other stores.
    pub fn get_or_try(&self, key: &[u8], compute: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (slot, inserted) = self.lock().resolve(key);
        if inserted {
            self.enforce_own_budget();
        }
        let mut ran = false;
        let outcome = slot
            .get_or_init(|| {
                ran = true;
                compute()
            })
            .clone();
        self.record(u64::from(!ran), u64::from(ran));
        self.finish(key, &slot, &outcome, ran);
        outcome
    }

    /// Demands the values of many items at once: resolves every item's
    /// slot in **one** pass under the map lock, then calls `compute` once
    /// with the indices of the items whose slot is still empty and expects
    /// one result per index, in that order. Items sharing a key share a
    /// slot, so only the first of them counts as the miss.
    ///
    /// Returns one `(outcome, hit)` pair per item, in input order, with
    /// exactly the accounting a [`Store::get_or_try`] loop would produce:
    /// every slot initialized by this call counts one miss, everything
    /// else (resident entries, in-batch duplicates, lost races) a hit.
    pub fn get_or_try_many<I>(
        &self,
        items: &[I],
        key: impl Fn(&I) -> &[u8],
        compute: impl FnOnce(&[usize]) -> Vec<Result<T, E>>,
    ) -> Vec<(Result<T, E>, bool)> {
        let (slots, inserted) = {
            let mut gens = self.lock();
            let mut inserted = false;
            let slots: Vec<Slot<T, E>> = items
                .iter()
                .map(|item| {
                    let (slot, new) = gens.resolve(key(item));
                    inserted |= new;
                    slot
                })
                .collect();
            (slots, inserted)
        };
        if inserted {
            self.enforce_own_budget();
        }
        let misses: Vec<usize> = (0..items.len()).filter(|&i| slots[i].get().is_none()).collect();
        let mut ran = vec![false; items.len()];
        if !misses.is_empty() {
            let computed = compute(&misses);
            debug_assert_eq!(computed.len(), misses.len(), "one result per miss");
            for (&i, result) in misses.iter().zip(computed) {
                slots[i].get_or_init(|| {
                    ran[i] = true;
                    result
                });
            }
        }
        let run_count = ran.iter().filter(|&&r| r).count() as u64;
        self.record(items.len() as u64 - run_count, run_count);
        items
            .iter()
            .zip(&slots)
            .zip(ran)
            .map(|((item, slot), ran)| {
                let outcome = slot.get().expect("every slot resolved above").clone();
                self.finish(key(item), slot, &outcome, ran);
                (outcome, !ran)
            })
            .collect()
    }

    fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Reports a lookup to the observer and applies the transient-error
    /// policy to a slot this thread just computed.
    fn finish(&self, key: &[u8], slot: &Slot<T, E>, outcome: &Result<T, E>, ran: bool) {
        if let Some((name, observer)) = self.observer {
            observer(name, !ran);
        }
        if ran && outcome.as_ref().is_err_and(|e| !e.is_deterministic()) {
            // Drop the slot so the next demand recomputes instead of
            // replaying a stale error. Threads already blocked on it still
            // observe the error (they raced the same attempt). Only this
            // exact slot is removed — a concurrent recompute's slot stays.
            self.lock().remove_unless(key, |s| !Arc::ptr_eq(s, slot));
        }
    }

    /// Removes `key` from either generation unconditionally — the targeted
    /// invalidation hook. Returns whether an entry was resident. A
    /// computation already in flight on the removed slot completes on its
    /// own `Arc` and is simply never read again.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.lock().remove_unless(key, |_| false)
    }

    fn enforce_own_budget(&self) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return;
        }
        for _ in 0..2 {
            let mut gens = self.lock();
            if !over_budget(budget, gens.young_bytes, gens.young_bytes + gens.old_bytes) {
                return;
            }
            let evicted = gens.rotate();
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Resident key bytes as `(young generation, both generations)`.
    pub(crate) fn resident(&self) -> (u64, u64) {
        let gens = self.lock();
        (gens.young_bytes, gens.young_bytes + gens.old_bytes)
    }

    /// Drops the old generation, counting its entries as evictions, and
    /// ages the young one in its place.
    pub(crate) fn rotate(&self) {
        let evicted = self.lock().rotate();
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        let (entries, bytes) = {
            let gens = self.lock();
            (gens.young.len() + gens.old.len(), gens.young_bytes + gens.old_bytes)
        };
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        *self.lock() = Generations::default();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test error whose determinism is chosen per value.
    #[derive(Debug, Clone, PartialEq)]
    enum TestError {
        Deterministic(&'static str),
        Transient(&'static str),
    }

    impl StoreError for TestError {
        fn is_deterministic(&self) -> bool {
            matches!(self, TestError::Deterministic(_))
        }
    }

    type TestStore = Store<u64, TestError>;

    #[test]
    fn compute_runs_once_per_key() {
        let store = TestStore::new();
        let a = store.get_or_try(b"k", || Ok(7)).expect("computes");
        let b = store.get_or_try(b"k", || panic!("must not re-run")).expect("hits");
        assert_eq!((a, b), (7, 7));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let store = TestStore::new();
        store.get_or_try(b"ab", || Ok(1)).expect("computes");
        let v = store.get_or_try(b"a", || Ok(2)).expect("computes");
        assert_eq!(v, 2, "prefix key is its own entry");
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn deterministic_errors_are_cached_and_replayed() {
        let store = TestStore::new();
        let first =
            store.get_or_try(b"k", || Err(TestError::Deterministic("boom"))).expect_err("fails");
        let second = store.get_or_try(b"k", || panic!("must not re-run")).expect_err("replays");
        assert_eq!(first, second);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn transient_errors_do_not_poison_the_slot() {
        let store = TestStore::new();
        let first =
            store.get_or_try(b"k", || Err(TestError::Transient("cosmic ray"))).expect_err("fails");
        assert!(!first.is_deterministic());
        // The once-failed key recomputes — and can now succeed.
        let v = store.get_or_try(b"k", || Ok(42)).expect("recomputes after transient failure");
        assert_eq!(v, 42);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        // And the success is cached as usual.
        let v = store.get_or_try(b"k", || panic!("must not re-run")).expect("hits");
        assert_eq!(v, 42);
    }

    #[test]
    fn many_folds_duplicates_and_counts_like_single_lookups() {
        let store = TestStore::new();
        store.get_or_try(b"a", || Ok(1)).expect("computes");
        let keys: [&[u8]; 4] = [b"a", b"bb", b"bb", b"ccc"];
        let out = store.get_or_try_many(
            &keys,
            |k| *k,
            |misses| {
                // Both `bb` items are empty slots; `a` is resident.
                assert_eq!(misses, [1, 2, 3]);
                misses.iter().map(|&i| Ok(keys[i].len() as u64 * 10)).collect()
            },
        );
        let got: Vec<(u64, bool)> = out.into_iter().map(|(r, hit)| (r.expect("ok"), hit)).collect();
        assert_eq!(got, [(1, true), (20, false), (20, true), (30, false)]);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.bytes), (2, 3, 3, 6));
    }

    #[test]
    fn many_drops_transient_errors() {
        let store = TestStore::new();
        let keys: [&[u8]; 2] = [b"ok", b"flaky"];
        let out = store.get_or_try_many(
            &keys,
            |k| *k,
            |_| vec![Ok(1), Err(TestError::Transient("flaky"))],
        );
        assert!(out[1].0.is_err());
        assert_eq!(store.stats().entries, 1, "the transient failure left no slot behind");
        assert_eq!(store.get_or_try(b"flaky", || Ok(2)).expect("recomputes"), 2);
    }

    #[test]
    fn budget_rotation_evicts_and_second_chance_promotes() {
        let store = TestStore::new();
        store.set_budget(8);
        // 4-byte keys: the third insert exceeds the 8-byte budget.
        store.get_or_try(b"aaaa", || Ok(1)).expect("computes");
        store.get_or_try(b"bbbb", || Ok(2)).expect("computes");
        // Touch `aaaa` so it is young when the rotation happens.
        store.get_or_try(b"aaaa", || panic!("hit")).expect("hits");
        store.get_or_try(b"cccc", || Ok(3)).expect("computes and rotates");
        let stats = store.stats();
        assert!(stats.bytes <= 8, "resident bytes respect the budget: {stats:?}");
        // `aaaa` survived the rotation into the old generation: a demand
        // promotes it without recompute.
        let v = store.get_or_try(b"aaaa", || panic!("survivor must not recompute")).expect("hits");
        assert_eq!(v, 1);
        // `bbbb` was evicted (old generation at rotation): it recomputes,
        // bit-identical by determinism of the compute.
        let v = store.get_or_try(b"bbbb", || Ok(2)).expect("recomputes");
        assert_eq!(v, 2);
        assert!(store.stats().evictions > 0, "rotation counted evictions");
    }

    #[test]
    fn remove_drops_one_entry_and_its_bytes() {
        let store = TestStore::new();
        store.get_or_try(b"keep", || Ok(1)).expect("computes");
        store.get_or_try(b"drop", || Ok(2)).expect("computes");
        assert!(store.remove(b"drop"), "resident entry removed");
        assert!(!store.remove(b"drop"), "second removal is a no-op");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 4));
        // The removed key recomputes; the kept one still hits.
        assert_eq!(store.get_or_try(b"drop", || Ok(2)).expect("recomputes"), 2);
        assert_eq!(store.get_or_try(b"keep", || panic!("hit")).expect("hits"), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let store = TestStore::new();
        store.get_or_try(b"k", || Ok(1)).expect("computes");
        store.clear();
        assert_eq!(store.stats(), StoreStats::default());
    }
}
