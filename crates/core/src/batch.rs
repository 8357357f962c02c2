//! Batched execution of Algorithm 1 over many blocks: identical-shape
//! dedup in front of the per-block kernel.
//!
//! Algorithm 1 is a pure function of `(schedule domain, canonical block
//! key)`, and real applications repeat small blocks heavily (loop headers,
//! glue blocks, empty join blocks). Before anything is simulated, blocks
//! with bit-identical canonical DFG encodings
//! ([`tlm_cdfg::dfg::schedule_key`]) are folded into one representative
//! solve whose result is fanned back out to every duplicate. The surviving
//! representatives run through the flat per-block kernel
//! ([`crate::schedule::schedule_block_prepared`]) on the calling thread's
//! scratch arena, so every result is exactly what the kernel returns for
//! the block alone (asserted against the reference kernel by
//! `tests/kernel_differential.rs`).
//!
//! [`batch_stats`] exposes process-wide dedup counters in the same style
//! as [`crate::schedule::scratch_stats`]; `tlm-serve` re-exports them on
//! `/metrics` and `estperf` records them per run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tlm_cdfg::dfg::Dfg;
use tlm_cdfg::ir::BlockData;
use tlm_cdfg::{BlockId, FuncId};

use crate::error::EstimateError;
use crate::schedule::{schedule_block_prepared, with_scratch, IssueTable, ScheduleResult};

/// One block submitted to a batch solve. All references are borrowed from
/// the caller's prepared inputs (see
/// [`PreparedModule`](crate::annotate::PreparedModule)); the item itself
/// is a cheap `Copy` bundle.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The block's canonical schedule key ([`tlm_cdfg::dfg::schedule_key`]);
    /// identical keys are folded into one solve.
    pub key: &'a [u8],
    /// [`key_hash`] of `key`, precomputed at preparation time.
    pub key_hash: u64,
    /// The block itself.
    pub block: &'a BlockData,
    /// The block's dependence graph.
    pub dfg: &'a Dfg,
    /// Dependence heights (read only under the List/ALAP policies; pass
    /// `&[]` otherwise, as for the per-block kernel).
    pub heights: &'a [usize],
    /// Function id, for error reporting.
    pub func: FuncId,
    /// Block id, for error reporting.
    pub block_id: BlockId,
}

static BATCH_BLOCKS: AtomicU64 = AtomicU64::new(0);
static BATCH_DEDUP_HITS: AtomicU64 = AtomicU64::new(0);
static BATCH_UNIQUE_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Batch dedup counters (process-wide totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Blocks submitted to batch solves.
    pub blocks: u64,
    /// Blocks folded into another block's solve (identical canonical key).
    pub dedup_hits: u64,
    /// Representative solves actually run (blocks − dedup hits).
    pub unique_solves: u64,
}

/// Snapshot of the batch dedup counters, summed over all threads since
/// process start (same contract as
/// [`scratch_stats`](crate::schedule::scratch_stats)).
pub fn batch_stats() -> BatchStats {
    BatchStats {
        blocks: BATCH_BLOCKS.load(Ordering::Relaxed),
        dedup_hits: BATCH_DEDUP_HITS.load(Ordering::Relaxed),
        unique_solves: BATCH_UNIQUE_SOLVES.load(Ordering::Relaxed),
    }
}

/// Hash of a canonical schedule key for [`BatchItem::key_hash`]: FNV-1a
/// folded over 8-byte words. Keys are short (~5 bytes per op) and the
/// dedup table compares full keys on every hit anyway, so a word-granular
/// fold is enough. Callers compute this once per block at preparation
/// time (alongside the key itself) so batch solves — which run per sweep
/// point — only probe.
pub fn key_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Schedules a batch of blocks: folds identical keys, solves each
/// representative once with the per-block kernel, and fans the results
/// out. Results are per item, in input order, and each is exactly what
/// [`schedule_block`](crate::schedule::schedule_block) would return for
/// the item alone; duplicates share their representative's result
/// (including cached errors, whose location fields name the
/// representative — the same sharing the schedule cache performs for
/// identical keys). Bumps the process-wide [`batch_stats`] counters.
pub fn solve_batch(
    table: &IssueTable,
    items: &[BatchItem<'_>],
) -> Vec<Result<Arc<ScheduleResult>, EstimateError>> {
    // `rank_of[i]` indexes `reps`, the representative items in
    // first-appearance order. The dedup table is open-addressed (linear
    // probing, ≤50% load): slots hold ranks, hashes come precomputed on the
    // items and every hit compares the full keys, so collisions only cost
    // probes.
    let cap = (items.len().max(8) * 2).next_power_of_two();
    let mask = cap - 1;
    let mut dedup: Vec<u32> = vec![u32::MAX; cap];
    let mut reps: Vec<u32> = Vec::new();
    let mut rank_of = vec![0u32; items.len()];
    for (i, item) in items.iter().enumerate() {
        let mut slot = item.key_hash as usize & mask;
        rank_of[i] = loop {
            let rank = dedup[slot];
            if rank == u32::MAX {
                dedup[slot] = reps.len() as u32;
                reps.push(i as u32);
                break dedup[slot];
            }
            if items[reps[rank as usize] as usize].key == item.key {
                break rank;
            }
            slot = (slot + 1) & mask;
        };
    }
    BATCH_BLOCKS.fetch_add(items.len() as u64, Ordering::Relaxed);
    BATCH_DEDUP_HITS.fetch_add((items.len() - reps.len()) as u64, Ordering::Relaxed);
    BATCH_UNIQUE_SOLVES.fetch_add(reps.len() as u64, Ordering::Relaxed);
    let solved: Vec<Result<Arc<ScheduleResult>, EstimateError>> = with_scratch(|scratch| {
        reps.iter()
            .map(|&r| {
                let item = &items[r as usize];
                schedule_block_prepared(
                    table,
                    scratch,
                    item.block,
                    item.dfg,
                    item.heights,
                    item.func,
                    item.block_id,
                )
                .map(Arc::new)
            })
            .collect()
    });
    rank_of.iter().map(|&rank| solved[rank as usize].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::schedule::schedule_block;
    use tlm_cdfg::dfg::{block_dfg, schedule_key};
    use tlm_cdfg::ir::Module;

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// Batches every block of `module` `repeat` times in a row and checks
    /// each result against the per-block kernel, and that every run of
    /// repeats shares one solve.
    fn batch_matches_scalar(src: &str, repeat: usize) {
        let module = module_of(src);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let table = IssueTable::build(&pum);
        let mut blocks = Vec::new();
        for (fid, func) in module.functions_iter() {
            for (bid, block) in func.blocks_iter() {
                let dfg = block_dfg(block);
                let key = schedule_key(block, &dfg);
                let heights = dfg.heights();
                blocks.push((fid, bid, block, dfg, key, heights));
            }
        }
        let items: Vec<BatchItem<'_>> = blocks
            .iter()
            .flat_map(|(fid, bid, block, dfg, key, heights)| {
                let item = BatchItem {
                    key,
                    key_hash: key_hash(key),
                    block,
                    dfg,
                    heights,
                    func: *fid,
                    block_id: *bid,
                };
                (0..repeat).map(move |_| item)
            })
            .collect();
        let batched = solve_batch(&table, &items);
        assert_eq!(batched.len(), items.len());
        for (item, result) in items.iter().zip(&batched) {
            let direct = schedule_block(&pum, item.block, item.dfg, item.func, item.block_id);
            assert_eq!(
                direct.as_ref().ok(),
                result.as_ref().ok().map(|arc| &**arc),
                "batched result diverges at {}/{}",
                item.func,
                item.block_id
            );
        }
        for run in batched.chunks(repeat) {
            let first = run[0].as_ref().expect("schedules");
            assert!(run.iter().all(|r| Arc::ptr_eq(r.as_ref().expect("schedules"), first)));
        }
    }

    const SRC: &str = "
        int t[16];
        int f(int a, int b, int c, int d) { return (a + b) * (c + d) - a / b; }
        int g(int a) { int s = 0; for (int i = 0; i < a; i++) { s += t[i] * i; } return s; }
    ";

    #[test]
    fn batched_results_match_per_block_kernel() {
        batch_matches_scalar(SRC, 1);
    }

    #[test]
    fn duplicates_are_folded_and_fanned_out() {
        let before = batch_stats();
        batch_matches_scalar(SRC, 3);
        let after = batch_stats();
        assert!(after.dedup_hits > before.dedup_hits, "triplicated blocks dedup");
    }

    #[test]
    fn empty_batch_is_empty() {
        let pum = library::microblaze_like(0, 0);
        let table = IssueTable::build(&pum);
        assert!(solve_batch(&table, &[]).is_empty());
    }
}
