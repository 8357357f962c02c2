//! Minimal data-parallel fan-out on `std::thread`.
//!
//! The natural implementation would be rayon's `par_iter`, but the build
//! environment is fully offline, so the runtime is a small scoped
//! work-claiming pool instead: workers claim **batches** of item indices
//! from an atomic counter (cheap dynamic load balancing — block scheduling
//! costs vary by orders of magnitude between a 3-op glue block and a
//! 600-op unrolled kernel — without one contended fetch_add per item), and
//! results are merged back **by index**, so the output order is always the
//! input order regardless of thread interleaving. Single-item inputs and
//! single-core hosts run the obvious sequential loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads [`par_map`] will use: the host's available parallelism,
/// or 1 when it cannot be queried.
fn available_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Upper bound on indices claimed per `fetch_add` in [`par_map`]. Large
/// enough that the counter is touched ~once per cache-warm run of blocks,
/// small enough that a worker stuck with one pathological block strands at
/// most 15 cheap neighbours.
const CLAIM_CHUNK: usize = 16;

/// Indices claimed per `fetch_add`, adapted to the input size. A fixed
/// [`CLAIM_CHUNK`] starves small inputs — 64 batch units on 8 cores would
/// land on 4 workers, 16 units each, with zero rebalancing — so the chunk
/// shrinks until every worker gets about four claims (dynamic balancing
/// needs more claims than workers), floored at 1 and capped at
/// [`CLAIM_CHUNK`].
fn claim_chunk(items: usize, workers: usize) -> usize {
    (items / (workers.max(1) * 4)).clamp(1, CLAIM_CHUNK)
}

/// Applies `f` to every item, fanning out over the available cores, and
/// returns the results **in input order** — the parallel result is
/// indistinguishable from `items.iter().map(f).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let available = available_workers();
    let chunk = claim_chunk(items.len(), available);
    // More workers than claimable chunks would spawn threads that find
    // the counter exhausted on their first claim.
    let workers = available.min(items.len().div_ceil(chunk));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            return local;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            local.push((start + i, f(item)));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("par_map worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs must still come back in order.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, |&i| {
            let mut acc = 0u64;
            for k in 0..(i as u64 % 7) * 10_000 {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn chunk_boundaries_cover_every_index_exactly_once() {
        // Sizes straddling CLAIM_CHUNK multiples: the last chunk is
        // partial, or the whole input fits in one chunk (sequential path).
        for n in [0, 1, CLAIM_CHUNK - 1, CLAIM_CHUNK, CLAIM_CHUNK + 1, 5 * CLAIM_CHUNK + 3] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(par_map(&items, |&x| x), items, "n = {n}");
        }
    }

    #[test]
    fn claim_chunk_adapts_to_input_size() {
        // Small inputs spread across workers instead of saturating one.
        assert_eq!(claim_chunk(8, 8), 1);
        assert_eq!(claim_chunk(64, 4), 4);
        // Large inputs keep the full chunk to amortize the atomic.
        assert_eq!(claim_chunk(1000, 8), CLAIM_CHUNK);
        // Degenerate inputs stay at the floor of 1.
        assert_eq!(claim_chunk(0, 8), 1);
        assert_eq!(claim_chunk(3, 0), 1);
        assert_eq!(claim_chunk(usize::MAX, 1), CLAIM_CHUNK);
    }

    #[test]
    fn small_inputs_fan_out_with_shrunk_chunks() {
        // With an adaptive chunk, inputs between `workers` and
        // `workers * CLAIM_CHUNK` engage several workers; order and
        // coverage must be unaffected.
        for n in [2, 7, 17, 33, 63, 64, 65] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(par_map(&items, |&x| x + 1), (1..=n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn results_match_sequential_for_fallible_work() {
        let items: Vec<i64> = (-8..8).collect();
        let f = |&x: &i64| if x < 0 { Err(x) } else { Ok(x * x) };
        assert_eq!(par_map(&items, f), items.iter().map(f).collect::<Vec<_>>());
    }
}
