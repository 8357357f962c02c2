//! Algorithm 2 — **Compute BB Delay** (§4.2 of the paper).
//!
//! Combines the optimistic schedule of Algorithm 1 with the PUM's
//! statistical branch and memory models:
//!
//! ```text
//! BB_delay  = OptimisticSchedule()
//! if PE is pipelined:   BB_delay += BP_miss_rate × Br_penalty      (†)
//! if PE fetches code:   BB_delay += #ops × ifetch_cost_per_access
//! if PE accesses data:  BB_delay += #mem_operands × data_cost_per_access
//! return round(BB_delay)
//! ```
//!
//! (†) refinement: the branch term is charged only to blocks that actually
//! end in a conditional branch; blocks ending in an unconditional jump,
//! call or return cannot mispredict on the modelled cores.

use tlm_cdfg::ir::BlockData;

use crate::error::EstimateError;
use crate::pum::{MemoryPath, Pum};

/// The estimated delay of one basic block, with its components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockDelay {
    /// Cycles from the optimistic schedule (Algorithm 1).
    pub sched: u64,
    /// Expected branch misprediction cycles.
    pub branch: f64,
    /// Expected instruction-fetch cycles (cache/statistical model).
    pub ifetch: f64,
    /// Expected data-access cycles (cache/statistical model).
    pub data: f64,
    /// Total, rounded to whole cycles as in the paper.
    pub cycles: u64,
    /// Total before rounding.
    pub exact: f64,
}

impl BlockDelay {
    /// A zero delay (empty block).
    pub const ZERO: BlockDelay =
        BlockDelay { sched: 0, branch: 0.0, ifetch: 0.0, data: 0.0, cycles: 0, exact: 0.0 };
}

/// Expected extra cycles per access through a memory path.
///
/// # Errors
///
/// Returns [`EstimateError::MissingHitRate`] for a cache whose configured
/// size was never characterized (instead of panicking mid-estimation).
fn cost_per_access(path: &MemoryPath, external_latency: u32) -> Result<f64, EstimateError> {
    Ok(match path {
        MemoryPath::Hardwired => 0.0,
        MemoryPath::Uncached => f64::from(external_latency),
        MemoryPath::Cached(cache) => {
            let hit = cache.hit_rate()?;
            hit * f64::from(cache.hit_delay) + (1.0 - hit) * f64::from(cache.miss_penalty)
        }
    })
}

/// The block-independent factors of Algorithm 2, hoisted out of the
/// per-block loop: per-access memory costs and the misprediction penalty
/// are properties of the PUM alone, so an annotation run (or a sweep
/// point) derives them once and applies them to every block.
///
/// Every engine — batched, per-block and reference — prices a block with
/// [`block_delay_with_costs`] over the same `MemoryCosts`, so they agree
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCosts {
    /// Expected cycles per instruction fetch; `None` on hardwired control.
    ifetch: Option<f64>,
    /// Expected cycles per data access; `None` on hardwired data paths.
    data: Option<f64>,
    /// Expected misprediction cycles charged to conditional terminators.
    branch: f64,
    /// Issue-slot/fetch expansion factor (1.0 on hardwired control).
    fetch_expansion: f64,
    data_expansion: f64,
}

impl MemoryCosts {
    /// Derives the per-access costs of a PUM.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::MissingHitRate`] for an uncharacterized
    /// cache size — detected once up front instead of once per block.
    pub fn of(pum: &Pum) -> Result<MemoryCosts, EstimateError> {
        let ifetch = if matches!(pum.memory.ifetch, MemoryPath::Hardwired) {
            None
        } else {
            Some(cost_per_access(&pum.memory.ifetch, pum.memory.external_latency)?)
        };
        let data = if matches!(pum.memory.data, MemoryPath::Hardwired) {
            None
        } else {
            Some(cost_per_access(&pum.memory.data, pum.memory.external_latency)?)
        };
        let branch = match &pum.branch {
            Some(model) if pum.is_pipelined() => model.miss_rate * f64::from(model.penalty),
            _ => 0.0,
        };
        Ok(MemoryCosts {
            ifetch,
            data,
            branch,
            fetch_expansion: pum.memory.fetch_expansion,
            data_expansion: pum.memory.data_expansion,
        })
    }
}

/// Algorithm 2: combines a block's optimistic schedule (Algorithm 1,
/// possibly served by the [`ScheduleCache`](crate::cache::ScheduleCache))
/// with the PUM's statistical models, already derived into `costs`, so
/// the per-block work is pure arithmetic.
///
/// # Errors
///
/// Returns [`EstimateError::BadPum`] when the rounded delay does not fit
/// in a `u64` (a finite but huge expansion factor), instead of saturating
/// the block's cycles to `u64::MAX`.
pub fn block_delay_with_costs(
    costs: &MemoryCosts,
    block: &BlockData,
    sched: u64,
) -> Result<BlockDelay, EstimateError> {
    // On an instruction-fetching PE the block's terminator is a real
    // control-transfer instruction occupying an issue slot, and the
    // characterized back-end expansion factor applies to issue slots just
    // as it does to fetches (single-issue: one fetch = one slot). Custom
    // hardware has hardwired control: neither applies.
    let mut exact = if costs.ifetch.is_none() {
        sched as f64
    } else {
        (sched as f64 + 1.0) * costs.fetch_expansion
    };

    // Branch misprediction term.
    let mut branch = 0.0;
    if costs.branch != 0.0 && block.term.is_conditional() {
        branch = costs.branch;
        exact += branch;
    }

    // Instruction fetch term: one fetch per op plus one for the
    // terminator's control-transfer instruction.
    let mut ifetch = 0.0;
    if let Some(cost) = costs.ifetch {
        let fetches = (block.ops.len() + 1) as f64 * costs.fetch_expansion;
        ifetch = fetches * cost;
        exact += ifetch;
    }

    // Data access term: one per memory operand.
    let mut data = 0.0;
    if let Some(cost) = costs.data {
        let operands =
            block.ops.iter().filter(|op| op.is_memory()).count() as f64 * costs.data_expansion;
        data = operands * cost;
        exact += data;
    }

    // `u64::MAX as f64` is 2^64 exactly; NaN lies in no range.
    let rounded = exact.round();
    if !(0.0..u64::MAX as f64).contains(&rounded) {
        return Err(EstimateError::BadPum {
            message: format!("estimated block delay {exact:e} cycles exceeds u64::MAX"),
        });
    }
    Ok(BlockDelay { sched, branch, ifetch, data, cycles: rounded as u64, exact })
}

/// Sums block cycles into a report total: the one place the rule lives
/// that a total past `u64::MAX` is an estimation error, not a wrapped or
/// saturated number.
///
/// # Errors
///
/// Returns [`EstimateError::BadPum`] when the sum does not fit in a `u64`.
pub fn sum_cycles(cycles: impl IntoIterator<Item = u64>) -> Result<u64, EstimateError> {
    cycles.into_iter().try_fold(0u64, u64::checked_add).ok_or_else(|| EstimateError::BadPum {
        message: "estimated block cycles sum past u64::MAX".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::pum::MemoryPath;
    use crate::schedule::schedule_block;
    use tlm_cdfg::dfg::block_dfg;
    use tlm_cdfg::ir::Module;
    use tlm_cdfg::{BlockId, FuncId};

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// Algorithms 1 and 2 over one block of function 0.
    fn block_delay(
        pum: &Pum,
        block: &BlockData,
        bid: BlockId,
    ) -> Result<BlockDelay, EstimateError> {
        let sched = schedule_block(pum, block, &block_dfg(block), FuncId(0), bid)?.cycles;
        block_delay_with_costs(&MemoryCosts::of(pum)?, block, sched)
    }

    fn delay_of(pum: &Pum, src: &str) -> BlockDelay {
        let module = module_of(src);
        let func = &module.functions[0];
        let (bid, block) = func.blocks_iter().max_by_key(|(_, b)| b.ops.len()).expect("has blocks");
        block_delay(pum, block, bid).expect("estimates")
    }

    #[test]
    fn uncached_fetches_dominate() {
        // With no i-cache every instruction fetch pays the external
        // latency; the memory term dwarfs the schedule.
        let d = delay_of(&library::microblaze_like(0, 0), "int f(int a) { return a + 1; }");
        assert!(d.ifetch > d.sched as f64);
        assert_eq!(d.cycles, d.exact.round() as u64);
    }

    #[test]
    fn bigger_cache_means_smaller_delay() {
        let src = "int t[64]; int f(int i) { return t[i] + t[i + 1]; }";
        let small = delay_of(&library::microblaze_like(1 << 10, 1 << 10), src);
        let large = delay_of(&library::microblaze_like(32 << 10, 16 << 10), src);
        assert!(large.exact < small.exact, "large {} small {}", large.exact, small.exact);
    }

    #[test]
    fn hardwired_hw_pays_no_memory_terms() {
        let d = delay_of(
            &library::custom_hw("dct", 2, 2),
            "int t[8]; int f(int i) { return t[i] * 3; }",
        );
        assert_eq!(d.ifetch, 0.0);
        assert_eq!(d.data, 0.0);
        assert_eq!(d.branch, 0.0, "no speculation on HW");
    }

    #[test]
    fn branch_term_only_on_conditional_blocks() {
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of("int f(int a) { if (a > 0) { a += 1; } return a; }");
        let func = &module.functions[0];
        let mut saw_branch_term = false;
        let mut saw_zero_branch = false;
        for (bid, block) in func.blocks_iter() {
            let d = block_delay(&pum, block, bid).expect("estimates");
            if block.term.is_conditional() {
                assert!(d.branch > 0.0);
                saw_branch_term = true;
            } else {
                assert_eq!(d.branch, 0.0);
                saw_zero_branch = true;
            }
        }
        assert!(saw_branch_term && saw_zero_branch);
    }

    #[test]
    fn branch_term_scales_with_miss_rate() {
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        let src = "int f(int a) { if (a > 0) { a += 1; } return a; }";
        pum.branch.as_mut().expect("has branch model").miss_rate = 0.0;
        let perfect = delay_of(&pum, src);
        pum.branch.as_mut().expect("has branch model").miss_rate = 1.0;
        let terrible = delay_of(&pum, src);
        assert!(terrible.exact >= perfect.exact);
    }

    #[test]
    fn data_term_counts_memory_operands_only() {
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let no_mem = delay_of(&pum, "int f(int a) { return a + a; }");
        assert_eq!(no_mem.data, 0.0);
        let with_mem = delay_of(&pum, "int t[4]; int f(int i) { return t[i]; }");
        assert!(with_mem.data > 0.0);
    }

    #[test]
    fn uncharacterized_cache_size_is_an_error_not_a_panic() {
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        if let MemoryPath::Cached(c) = &mut pum.memory.data {
            c.size = 1234; // swept past the characterized sizes
        }
        let module = module_of("int t[4]; int f(int i) { return t[i]; }");
        let block = &module.functions[0].blocks[0];
        let err = block_delay(&pum, block, BlockId(0)).expect_err("missing rate is structured");
        assert_eq!(err, EstimateError::MissingHitRate { size: 1234 });
    }

    #[test]
    fn hit_rate_one_with_zero_hit_delay_is_free() {
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        for path in [&mut pum.memory.ifetch, &mut pum.memory.data] {
            if let MemoryPath::Cached(c) = path {
                c.hit_rates.insert(c.size, 1.0);
                c.hit_delay = 0;
            }
        }
        let d = delay_of(&pum, "int t[4]; int f(int i) { return t[i] + 1; }");
        assert_eq!(d.ifetch, 0.0);
        assert_eq!(d.data, 0.0);
        // Only the schedule plus the terminator's issue slot remains.
        assert_eq!(d.cycles, d.sched + 1);
    }

    #[test]
    fn cycle_sum_past_u64_is_an_error() {
        assert_eq!(sum_cycles([]), Ok(0));
        assert_eq!(sum_cycles([u64::MAX - 1, 1]), Ok(u64::MAX));
        let err = sum_cycles([u64::MAX, 1]).expect_err("overflows");
        assert!(matches!(err, EstimateError::BadPum { .. }), "{err}");
    }
}
