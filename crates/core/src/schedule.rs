//! Algorithm 1 — **Optimistic Scheduling** (§4.2 of the paper).
//!
//! The delay of a basic block on a PE is computed by simulating the block's
//! DFG on the PE's pipeline model cycle by cycle, under optimistic
//! assumptions (100 % cache hits, perfect branch prediction):
//!
//! - `advclock` advances every in-flight operation: per-stage cycle counters
//!   decrement; an operation whose counter reaches zero advances to the next
//!   stage unless the stage is full, a functional unit it needs is busy, or
//!   the next stage is its *demand* stage and a DFG predecessor has not yet
//!   *committed* its result;
//! - `AssignOps` issues remaining operations into the first stage according
//!   to the PUM's scheduling policy (in-order, ASAP, ALAP or list);
//! - the loop runs until the *done* set contains every operation. The DFG
//!   is acyclic so the simulation terminates; a defensive progress check
//!   turns impossible resource configurations into an error instead of a
//!   hang.
//!
//! One refinement over the paper's pseudocode: the simulated count includes
//! the pipeline fill (the first operation traverses every stage), but in
//! steady state consecutive blocks overlap in the pipeline, so
//! [`ScheduleResult::cycles`] subtracts `depth − 1` ([`Pum::fill_correction`]).
//! Pipeline refills that *do* occur at mispredicted branches are charged by
//! Algorithm 2's branch term instead. The uncorrected value is kept in
//! [`ScheduleResult::raw_cycles`].
//!
//! # Kernel data layout
//!
//! The cold path (a cache miss, or a novel custom platform whose PUM
//! fingerprint has never been seen) pays this kernel once per block, so it
//! is written around flat, reusable data structures instead of per-call
//! allocation:
//!
//! - an [`IssueTable`] precompiles the PUM's scheduling facts — per-op-class
//!   stage durations, functional-unit indices, demand/commit stages,
//!   transparency — into dense class-major arrays, built **once per
//!   schedule domain** (the cache stores it on the resolved
//!   [`DomainHandle`](crate::cache::DomainHandle)) instead of once per op
//!   per block;
//! - a [`ScheduleScratch`] arena owns every piece of simulation state
//!   (bitset-backed op-state words, FU reservation counts, the flat
//!   `stages × width` slot array that replaces the nested
//!   `Vec<Vec<Vec<Slot>>>`, the candidate order and the
//!   predecessors-remaining counters). It is allocated once per worker
//!   thread ([`with_scratch`]) and reused across every block that thread
//!   schedules; [`scratch_stats`] reports reuse vs growth so allocation
//!   pressure on the cold path stays observable;
//! - readiness is tracked incrementally: `commit_pending[op]` counts the
//!   op's uncommitted predecessors and is decremented when a predecessor
//!   commits, so the `AssignOps` phase checks a counter instead of
//!   re-scanning predecessor lists, and the candidate list is sorted once
//!   per block instead of rebuilt and re-sorted every simulated cycle
//!   (stable `(priority, index)` order makes the two equivalent).
//!
//! The results are **bit-identical** to the pre-rewrite kernel, which is
//! retained as [`crate::reference::schedule_block_reference`] and checked
//! against this one by `tests/kernel_differential.rs` and the `estperf`
//! benchmark.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use tlm_cdfg::dfg::Dfg;
use tlm_cdfg::ir::{BlockData, OpClass};
use tlm_cdfg::{BlockId, FuncId};

use crate::error::EstimateError;
use crate::pum::{OpClassKey, Pum, SchedulingPolicy};

/// Hard cap on simulated cycles per block; hitting it means the PUM cannot
/// execute the block at all.
pub(crate) const CYCLE_LIMIT: u64 = 10_000_000;

/// Number of op classes ([`OpClass::ALL`]); the issue table is indexed by
/// class, not by op.
pub(crate) const N_CLASSES: usize = 8;

/// Dense index of an op class into the issue table rows.
#[inline]
pub(crate) fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::Alu => 0,
        OpClass::Mul => 1,
        OpClass::Div => 2,
        OpClass::Shift => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Move => 6,
        OpClass::Control => 7,
    }
}

/// The class at a dense index (inverse of [`class_index`]).
#[inline]
fn class_at(index: usize) -> OpClass {
    OpClass::ALL[index]
}

/// Result of scheduling one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// Steady-state cycles charged to the block (fill-corrected, ≥ 0).
    pub cycles: u64,
    /// Raw simulated cycles including pipeline fill and drain.
    pub raw_cycles: u64,
    /// Cycle each op was issued at (`None` for transparent ops).
    pub issue_cycle: Vec<Option<u64>>,
    /// Cycle each op left the pipeline (`None` for transparent ops).
    pub finish_cycle: Vec<Option<u64>>,
}

/// A PUM's scheduling facts, precompiled into dense class-major arrays.
///
/// Everything Algorithm 1 reads from the PUM per op is a pure function of
/// the op's *class* and the PUM's schedule domain, so it is flattened here
/// once — per-stage durations and FU indices live in `class * n_stages`
/// arrays instead of being rebuilt from [`Pum::binding`]'s `BTreeMap` for
/// every op of every block. Built once per schedule domain and cached on
/// the domain's entry table (see
/// [`DomainHandle::issue_table`](crate::cache::DomainHandle::issue_table)).
#[derive(Debug)]
pub struct IssueTable {
    pub(crate) policy: SchedulingPolicy,
    /// Deepest pipeline length ([`Pum::max_stages`]).
    pub(crate) n_stages: usize,
    pub(crate) fill_correction: u64,
    /// Whether the op map binds the class (unmapped classes error lazily,
    /// only when a block actually contains one).
    pub(crate) mapped: [bool; N_CLASSES],
    pub(crate) transparent: [bool; N_CLASSES],
    pub(crate) demand_stage: [usize; N_CLASSES],
    pub(crate) commit_stage: [usize; N_CLASSES],
    /// Cycles per stage, `[class * n_stages + stage]`.
    pub(crate) durations: Vec<u32>,
    /// FU index **plus one** per stage (0 = no unit), `[class * n_stages + stage]`.
    pub(crate) fu_plus1: Vec<u32>,
    /// FU quantity template, copied into the scratch arena per block.
    pub(crate) fu_quantity: Vec<u32>,
    /// All pipelines' stage widths, concatenated in pipeline order.
    pub(crate) stage_width: Vec<usize>,
    /// `pipe_first[p]` is pipeline `p`'s first index into `stage_width`;
    /// has `n_pipes + 1` entries so `pipe_first[p + 1]` delimits it.
    pub(crate) pipe_first: Vec<usize>,
    /// Whether a lone op of this class free-flows down pipeline 0: every
    /// stage has width ≥ 1 and every unit it touches has quantity ≥ 1, so
    /// with no other op in flight it issues at cycle 0 and advances every
    /// time its stage time elapses — the closed-form 1-op fast path.
    free_flow: [bool; N_CLASSES],
    /// Total pipeline-0 latency per class (sum of its stage durations):
    /// the finish cycle of a lone free-flowing op.
    pipe0_latency: [u64; N_CLASSES],
}

impl IssueTable {
    /// Precompiles the scheduling facts of `pum`.
    pub fn build(pum: &Pum) -> IssueTable {
        let n_stages = pum.max_stages();
        let mut table = IssueTable {
            policy: pum.execution.policy,
            n_stages,
            fill_correction: pum.fill_correction(),
            mapped: [false; N_CLASSES],
            transparent: [false; N_CLASSES],
            demand_stage: [0; N_CLASSES],
            commit_stage: [0; N_CLASSES],
            durations: vec![1; N_CLASSES * n_stages],
            fu_plus1: vec![0; N_CLASSES * n_stages],
            fu_quantity: pum.datapath.units.iter().map(|u| u.quantity).collect(),
            stage_width: Vec::new(),
            pipe_first: vec![0],
            free_flow: [false; N_CLASSES],
            pipe0_latency: [0; N_CLASSES],
        };
        for pipe in &pum.datapath.pipelines {
            table.stage_width.extend(pipe.stages.iter().map(|s| s.width as usize));
            table.pipe_first.push(table.stage_width.len());
        }
        for ci in 0..N_CLASSES {
            let Some(b) = pum.execution.op_map.get(&OpClassKey::from(class_at(ci))) else {
                continue;
            };
            table.mapped[ci] = true;
            table.transparent[ci] = b.transparent;
            table.demand_stage[ci] = b.demand_stage;
            table.commit_stage[ci] = b.commit_stage;
            for u in &b.usage {
                table.durations[ci * n_stages + u.stage] =
                    pum.datapath.units[u.fu].modes[u.mode].delay;
                table.fu_plus1[ci * n_stages + u.stage] = u.fu as u32 + 1;
            }
        }
        let np0 = table.pipe_first[1.min(table.pipe_first.len() - 1)];
        for ci in 0..N_CLASSES {
            if !table.mapped[ci] || table.transparent[ci] || np0 == 0 {
                continue;
            }
            let mut flows = true;
            let mut latency = 0u64;
            for s in 0..np0 {
                let fu = table.fu_plus1[ci * n_stages + s];
                flows &= table.stage_width[s] >= 1
                    && (fu == 0 || table.fu_quantity[fu as usize - 1] >= 1);
                latency += u64::from(table.durations[ci * n_stages + s]);
            }
            table.free_flow[ci] = flows;
            table.pipe0_latency[ci] = latency;
        }
        table
    }
}

/// Reusable simulation state for [`schedule_block_prepared`].
///
/// One arena per worker thread ([`with_scratch`]) serves every block that
/// thread schedules: the buffers are cleared, not freed, between blocks,
/// so in steady state the kernel allocates nothing except the returned
/// [`ScheduleResult`] vectors.
#[derive(Debug, Default)]
pub struct ScheduleScratch {
    /// Op-state bitsets (committed / done / issued), three `words`-sized
    /// regions of one buffer so sizing is a single operation.
    state: Vec<u64>,
    /// Fused `u32` arena holding, in order: uncommitted-predecessor counts
    /// (`commit_pending`, n), op indices in `(priority, index)` issue order
    /// (`order`, n), CSR successor offsets (`succ_off`, n + 1), the CSR
    /// fill cursor (`cursor`, n), CSR successor targets (`succ`, edges),
    /// free instances per FU type (`fu_free`), and the flat stage-major
    /// slot regions (`slot_op` / `slot_rem`). One grow-only buffer: most
    /// regions are fully overwritten per block, so nothing is memset
    /// between blocks except the few that need zeros.
    words32: Vec<u32>,
    /// Dense class index per op.
    op_class: Vec<u8>,
    /// Issue priority per op (List/ALAP only; other policies use op order).
    priority: Vec<i64>,
    /// First slot index of each stage in the slot regions.
    stage_base: Vec<usize>,
    /// Occupied slots per stage.
    stage_len: Vec<usize>,
    /// Per-pipe high-water mark: stages at local index ≥ `pipe_hi[p]` are
    /// empty, so the per-cycle phases only walk the occupied prefix.
    pipe_hi: Vec<usize>,
    /// Worklist for the transparent-resolution cascade.
    stack: Vec<u32>,
}

/// Count of kernel runs whose scratch buffers all fit in place.
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);
/// Count of kernel runs that had to grow (or first allocate) a buffer.
static SCRATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Scratch-arena allocation-pressure counters (process-wide totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Kernel runs served entirely from already-allocated scratch buffers.
    pub reuses: u64,
    /// Kernel runs that grew at least one scratch buffer (includes each
    /// worker thread's first block).
    pub allocs: u64,
}

/// Snapshot of the scratch reuse/allocation counters, summed over all
/// worker threads since process start.
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        reuses: SCRATCH_REUSES.load(Ordering::Relaxed),
        allocs: SCRATCH_ALLOCS.load(Ordering::Relaxed),
    }
}

/// Grows `v` to hold at least `len` elements, recording whether backing
/// storage had to grow. Existing contents are preserved (stale values are
/// fine: callers fully overwrite or explicitly zero the regions they use).
#[inline]
pub(crate) fn grow<T: Copy + Default>(v: &mut Vec<T>, len: usize, grew: &mut bool) {
    if v.len() < len {
        if v.capacity() < len {
            *grew = true;
        }
        v.resize(len, T::default());
    }
}

impl ScheduleScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> ScheduleScratch {
        ScheduleScratch::default()
    }

    /// Sizes every buffer for a block of `n` ops with `edges` dependence
    /// edges under `table`'s pipeline geometry, fills `stage_base` and
    /// returns the total slot capacity; bumps the process-wide
    /// reuse/alloc counters.
    fn prepare(&mut self, table: &IssueTable, n: usize, edges: usize) -> usize {
        let mut grew = false;
        let words = n.div_ceil(64);
        grow(&mut self.state, 3 * words, &mut grew);
        grow(&mut self.op_class, n, &mut grew);
        if matches!(table.policy, SchedulingPolicy::List | SchedulingPolicy::Alap) {
            grow(&mut self.priority, n, &mut grew);
        }
        // Per-stage slot regions: a stage can never hold more than
        // min(width, n) ops, so wide custom datapaths stay O(n).
        let stages = table.stage_width.len();
        grow(&mut self.stage_base, stages, &mut grew);
        grow(&mut self.stage_len, stages, &mut grew);
        grow(&mut self.pipe_hi, table.pipe_first.len() - 1, &mut grew);
        let mut slots = 0usize;
        for (j, &width) in table.stage_width.iter().enumerate() {
            self.stage_base[j] = slots;
            slots += width.min(n);
        }
        grow(&mut self.words32, 4 * n + 1 + edges + table.fu_quantity.len() + 2 * slots, &mut grew);
        self.stack.clear();
        if grew {
            SCRATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        } else {
            SCRATCH_REUSES.fetch_add(1, Ordering::Relaxed);
        }
        slots
    }
}

thread_local! {
    static SCRATCH: RefCell<ScheduleScratch> = RefCell::new(ScheduleScratch::new());
}

/// Runs `f` with the calling thread's scratch arena.
///
/// # Panics
///
/// Panics if `f` re-enters `with_scratch` on the same thread (the arena is
/// a single exclusive borrow).
pub fn with_scratch<R>(f: impl FnOnce(&mut ScheduleScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 != 0
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Publishes `op`'s result: marks it committed exactly once, decrements
/// every successor's pending count, and cascades resolution through
/// transparent dependents whose last predecessor this was. Equivalent to
/// the reference kernel's `resolve_transparent` fixpoint, driven by commit
/// events instead of re-scanning all ops.
#[allow(clippy::too_many_arguments)]
#[inline]
fn publish(
    op: usize,
    transparent: &[bool; N_CLASSES],
    op_class: &[u8],
    committed: &mut [u64],
    done: &mut [u64],
    issued: &mut [u64],
    commit_pending: &mut [u32],
    succ_off: &[u32],
    succ: &[u32],
    stack: &mut Vec<u32>,
    done_count: &mut usize,
) {
    if bit(committed, op) {
        return; // successors were already notified
    }
    set_bit(committed, op);
    stack.push(op as u32);
    while let Some(p) = stack.pop() {
        let (lo, hi) = (succ_off[p as usize] as usize, succ_off[p as usize + 1] as usize);
        for &s in &succ[lo..hi] {
            let s = s as usize;
            commit_pending[s] -= 1;
            if commit_pending[s] == 0 && transparent[op_class[s] as usize] && !bit(done, s) {
                set_bit(done, s);
                set_bit(issued, s);
                *done_count += 1;
                // An op already committed in-pipeline told its successors;
                // only a fresh commit propagates further.
                if !bit(committed, s) {
                    set_bit(committed, s);
                    stack.push(s as u32);
                }
            }
        }
    }
}

/// Schedules one basic block's DFG on the PUM (Algorithm 1).
///
/// One-shot convenience form: builds the [`IssueTable`], computes heights
/// if the policy needs them and borrows the thread's [`with_scratch`]
/// arena. Hot paths (the schedule cache, [`crate::annotate()`]) precompute
/// all three and call [`schedule_block_prepared`] directly.
///
/// `func` and `block_id` are used only for error reporting.
///
/// # Errors
///
/// - [`EstimateError::UnmappedClass`] if an op class has no PUM binding;
/// - [`EstimateError::Deadlock`] if the pipeline simulation stops making
///   progress (impossible resource configuration).
pub fn schedule_block(
    pum: &Pum,
    block: &BlockData,
    dfg: &Dfg,
    func: FuncId,
    block_id: BlockId,
) -> Result<ScheduleResult, EstimateError> {
    let table = IssueTable::build(pum);
    let height_buf;
    let heights: &[usize] = match pum.execution.policy {
        SchedulingPolicy::InOrder | SchedulingPolicy::Asap => &[],
        SchedulingPolicy::List | SchedulingPolicy::Alap => {
            height_buf = dfg.heights();
            &height_buf
        }
    };
    with_scratch(|scratch| {
        schedule_block_prepared(&table, scratch, block, dfg, heights, func, block_id)
    })
}

/// [`schedule_block`] with the PUM-invariant and DFG-invariant inputs
/// hoisted out: the domain's precompiled [`IssueTable`], a reusable
/// [`ScheduleScratch`] arena and the block's dependence heights (only read
/// under the List/ALAP policies; pass `&[]` otherwise).
///
/// # Errors
///
/// Same as [`schedule_block`].
pub fn schedule_block_prepared(
    table: &IssueTable,
    scratch: &mut ScheduleScratch,
    block: &BlockData,
    dfg: &Dfg,
    heights: &[usize],
    func: FuncId,
    block_id: BlockId,
) -> Result<ScheduleResult, EstimateError> {
    let n = block.ops.len();
    if n == 0 {
        return Ok(ScheduleResult {
            cycles: 0,
            raw_cycles: 0,
            issue_cycle: Vec::new(),
            finish_cycle: Vec::new(),
        });
    }
    if n == 1 {
        // Closed form for the very common single-op glue block: with
        // nothing else in flight, a transparent op resolves before cycle 0
        // and any other op free-flows down pipeline 0 — it issues at cycle
        // 0 and finishes after the sum of its stage durations, exactly as
        // the cycle loop would compute. Classes whose lone op *could*
        // stall (a zero-width stage, an absent unit) take the loop below.
        let class = block.ops[0].class();
        let ci = class_index(class);
        if !table.mapped[ci] {
            return Err(EstimateError::UnmappedClass { class });
        }
        if table.transparent[ci] {
            return Ok(ScheduleResult {
                cycles: 0,
                raw_cycles: 0,
                issue_cycle: vec![None],
                finish_cycle: vec![None],
            });
        }
        if table.free_flow[ci] {
            let finish = table.pipe0_latency[ci];
            return Ok(ScheduleResult {
                cycles: finish.saturating_sub(table.fill_correction),
                raw_cycles: finish,
                issue_cycle: vec![Some(0)],
                finish_cycle: vec![Some(finish)],
            });
        }
    }
    let edges: usize = dfg.preds.iter().map(Vec::len).sum();
    let slots = scratch.prepare(table, n, edges);

    // Carve the fused arenas into the kernel's named views. Only the
    // regions that genuinely need initial values are written here; the
    // rest are fully overwritten below before they are read.
    let words = n.div_ceil(64);
    let state = &mut scratch.state[..3 * words];
    state.fill(0);
    let (committed, rest) = state.split_at_mut(words);
    let (done, issued) = rest.split_at_mut(words);
    let fu_n = table.fu_quantity.len();
    let arena = &mut scratch.words32[..4 * n + 1 + edges + fu_n + 2 * slots];
    let (commit_pending, rest) = arena.split_at_mut(n);
    let (order, rest) = rest.split_at_mut(n);
    let (succ_off, rest) = rest.split_at_mut(n + 1);
    let (cursor, rest) = rest.split_at_mut(n);
    let (succ, rest) = rest.split_at_mut(edges);
    let (fu_free, rest) = rest.split_at_mut(fu_n);
    let (slot_op, slot_rem) = rest.split_at_mut(slots);
    succ_off.fill(0);
    fu_free.copy_from_slice(&table.fu_quantity);
    let op_class = &mut scratch.op_class[..n];
    let priority = &mut scratch.priority[..];
    let stage_base = &scratch.stage_base[..];
    let stage_len = &mut scratch.stage_len[..table.stage_width.len()];
    stage_len.fill(0);
    let n_pipes = table.pipe_first.len() - 1;
    let pipe_hi = &mut scratch.pipe_hi[..n_pipes];
    pipe_hi.fill(0);
    let stack = &mut scratch.stack;

    let n_stages = table.n_stages;
    for (i, op) in block.ops.iter().enumerate() {
        let class = op.class();
        let ci = class_index(class);
        if !table.mapped[ci] {
            return Err(EstimateError::UnmappedClass { class });
        }
        op_class[i] = ci as u8;
    }

    // Dependence bookkeeping: pending-predecessor counts plus a CSR
    // successor view for commit notification.
    for (i, preds) in dfg.preds.iter().enumerate() {
        commit_pending[i] = preds.len() as u32;
        for &p in preds {
            succ_off[p + 1] += 1;
        }
    }
    for j in 1..=n {
        succ_off[j] += succ_off[j - 1];
    }
    cursor.copy_from_slice(&succ_off[..n]);
    for (i, preds) in dfg.preds.iter().enumerate() {
        for &p in preds {
            succ[cursor[p] as usize] = i as u32;
            cursor[p] += 1;
        }
    }

    // Candidate order, sorted once: every cycle's candidate list in the
    // reference kernel is the still-unissued subset in stable
    // `(priority, index)` order, so a fixed sorted order with an issued
    // check visits the exact same sequence.
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i as u32;
    }
    match table.policy {
        SchedulingPolicy::InOrder | SchedulingPolicy::Asap => {}
        SchedulingPolicy::List => {
            debug_assert_eq!(heights.len(), n, "List policy needs per-op heights");
            for i in 0..n {
                priority[i] = -(heights[i] as i64);
            }
            order.sort_unstable_by_key(|&i| (priority[i as usize], i));
        }
        SchedulingPolicy::Alap => {
            debug_assert_eq!(heights.len(), n, "ALAP policy needs per-op heights");
            for i in 0..n {
                priority[i] = heights[i] as i64;
            }
            order.sort_unstable_by_key(|&i| (priority[i as usize], i));
        }
    }

    let mut issue_cycle: Vec<Option<u64>> = vec![None; n];
    let mut finish_cycle: Vec<Option<u64>> = vec![None; n];
    let mut done_count = 0usize;

    // Source-transparent ops (no uncommitted predecessors) resolve before
    // the first cycle; publish() cascades through transparent chains.
    for i in 0..n {
        if table.transparent[op_class[i] as usize] && commit_pending[i] == 0 && !bit(done, i) {
            set_bit(done, i);
            set_bit(issued, i);
            done_count += 1;
            publish(
                i,
                &table.transparent,
                op_class,
                committed,
                done,
                issued,
                commit_pending,
                succ_off,
                succ,
                stack,
                &mut done_count,
            );
        }
    }

    let in_order = table.policy == SchedulingPolicy::InOrder;
    let mut issue_head = 0usize;
    let mut cycle: u64 = 0;
    let mut last_finish: u64 = 0;
    let mut any_scheduled = false;

    while done_count < n {
        if cycle > CYCLE_LIMIT {
            return Err(EstimateError::Deadlock { func, block: block_id, cycle });
        }
        let mut progress = false;

        // Phase 1: decrement counters; completions at the commit stage
        // publish their results (and cascade transparent resolution).
        for (p, &hi) in pipe_hi.iter().enumerate() {
            for s_local in 0..hi {
                let j = table.pipe_first[p] + s_local;
                let base = stage_base[j];
                for k in base..base + stage_len[j] {
                    let rem = &mut slot_rem[k];
                    if *rem > 0 {
                        *rem -= 1;
                        progress = true;
                        if *rem == 0 {
                            let op = slot_op[k] as usize;
                            if s_local == table.commit_stage[op_class[op] as usize] {
                                publish(
                                    op,
                                    &table.transparent,
                                    op_class,
                                    committed,
                                    done,
                                    issued,
                                    commit_pending,
                                    succ_off,
                                    succ,
                                    stack,
                                    &mut done_count,
                                );
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: advclock — advance ops whose stage time elapsed, from
        // the last stage backwards so a vacated stage can be refilled in
        // the same cycle. Slot regions keep the reference kernel's
        // swap_remove order, so stalls resolve identically.
        for p in 0..n_pipes {
            let first = table.pipe_first[p];
            let np = table.pipe_first[p + 1] - first;
            for s_local in (0..pipe_hi[p]).rev() {
                let j = first + s_local;
                let base = stage_base[j];
                let mut idx = 0;
                while idx < stage_len[j] {
                    if slot_rem[base + idx] > 0 {
                        idx += 1;
                        continue;
                    }
                    let op = slot_op[base + idx] as usize;
                    let ci = op_class[op] as usize;
                    if s_local + 1 == np {
                        // Leaves the pipeline.
                        stage_len[j] -= 1;
                        slot_op[base + idx] = slot_op[base + stage_len[j]];
                        slot_rem[base + idx] = slot_rem[base + stage_len[j]];
                        let fu = table.fu_plus1[ci * n_stages + s_local];
                        if fu != 0 {
                            fu_free[fu as usize - 1] += 1;
                        }
                        set_bit(done, op);
                        done_count += 1;
                        finish_cycle[op] = Some(cycle);
                        last_finish = last_finish.max(cycle);
                        progress = true;
                        continue; // same idx now holds the swapped slot
                    }
                    let ns = s_local + 1;
                    let room = stage_len[j + 1] < table.stage_width[j + 1];
                    let operands_ok = ns != table.demand_stage[ci] || commit_pending[op] == 0;
                    let fu_next = table.fu_plus1[ci * n_stages + ns];
                    let fu_ok = fu_next == 0 || fu_free[fu_next as usize - 1] > 0;
                    if room && operands_ok && fu_ok {
                        stage_len[j] -= 1;
                        slot_op[base + idx] = slot_op[base + stage_len[j]];
                        slot_rem[base + idx] = slot_rem[base + stage_len[j]];
                        let fu = table.fu_plus1[ci * n_stages + s_local];
                        if fu != 0 {
                            fu_free[fu as usize - 1] += 1;
                        }
                        if fu_next != 0 {
                            fu_free[fu_next as usize - 1] -= 1;
                        }
                        let nbase = stage_base[j + 1];
                        slot_op[nbase + stage_len[j + 1]] = op as u32;
                        slot_rem[nbase + stage_len[j + 1]] = table.durations[ci * n_stages + ns];
                        stage_len[j + 1] += 1;
                        pipe_hi[p] = pipe_hi[p].max(s_local + 2);
                        progress = true;
                    } else {
                        idx += 1; // stalled
                    }
                }
            }
            while pipe_hi[p] > 0 && stage_len[first + pipe_hi[p] - 1] == 0 {
                pipe_hi[p] -= 1;
            }
        }

        // Phase 3: AssignOps — issue into stage 0 per the policy.
        while issue_head < n && bit(issued, order[issue_head] as usize) {
            issue_head += 1;
        }
        let mut stage0_open = 0usize;
        for p in 0..n_pipes {
            let j0 = table.pipe_first[p];
            stage0_open += table.stage_width[j0].saturating_sub(stage_len[j0]);
        }
        'issue: for &ord in &order[issue_head..n] {
            if stage0_open == 0 {
                // No stage-0 slot anywhere: the remaining scan could place
                // nothing and has no side effects, in order or not.
                break;
            }
            let op = ord as usize;
            if bit(issued, op) {
                continue;
            }
            let ci = op_class[op] as usize;
            // Dataflow policies require operands before issue when stage 0
            // demands them; in-order CPUs issue blindly and stall at the
            // demand stage.
            let ready = 0 != table.demand_stage[ci] || commit_pending[op] == 0;
            if !ready {
                if in_order {
                    break 'issue; // program order: nothing younger may pass
                }
                continue;
            }
            let fu0 = table.fu_plus1[ci * n_stages];
            let mut placed = false;
            for (p, hi) in pipe_hi.iter_mut().enumerate() {
                let j0 = table.pipe_first[p];
                let room = stage_len[j0] < table.stage_width[j0];
                let fu_ok = fu0 == 0 || fu_free[fu0 as usize - 1] > 0;
                if room && fu_ok {
                    if fu0 != 0 {
                        fu_free[fu0 as usize - 1] -= 1;
                    }
                    let base0 = stage_base[j0];
                    slot_op[base0 + stage_len[j0]] = op as u32;
                    slot_rem[base0 + stage_len[j0]] = table.durations[ci * n_stages];
                    stage_len[j0] += 1;
                    *hi = (*hi).max(1);
                    stage0_open -= 1;
                    set_bit(issued, op);
                    issue_cycle[op] = Some(cycle);
                    any_scheduled = true;
                    progress = true;
                    placed = true;
                    break;
                }
            }
            if !placed && in_order {
                break 'issue;
            }
        }

        if !progress {
            return Err(EstimateError::Deadlock { func, block: block_id, cycle });
        }
        cycle += 1;
    }

    let raw_cycles = if any_scheduled { last_finish } else { 0 };
    let cycles = raw_cycles.saturating_sub(table.fill_correction);
    Ok(ScheduleResult { cycles, raw_cycles, issue_cycle, finish_cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use tlm_cdfg::dfg::block_dfg;
    use tlm_cdfg::ir::Module;

    /// Lowers a function body and schedules its largest block.
    fn schedule_body(pum: &Pum, src: &str) -> ScheduleResult {
        let module = module_of(src);
        let func = &module.functions[0];
        let (bid, block) = func.blocks_iter().max_by_key(|(_, b)| b.ops.len()).expect("has blocks");
        schedule_block(pum, block, &block_dfg(block), FuncId(0), bid).expect("schedules")
    }

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    use tlm_cdfg::FuncId;

    #[test]
    fn empty_block_costs_nothing() {
        let pum = library::microblaze_like(0, 0);
        let module = module_of("void f() { }");
        let block = &module.functions[0].blocks[0];
        let r = schedule_block(&pum, block, &block_dfg(block), FuncId(0), BlockId(0))
            .expect("schedules");
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn single_issue_throughput_is_one_per_cycle() {
        // Independent ALU work on a 1-wide in-order core: n ops ≈ n cycles.
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let r =
            schedule_body(&pum, "int f(int a, int b, int c, int d) { return (a + b) + (c + d); }");
        // 3 adds + 1 op-ish tail; steady-state cycles ≈ op count.
        let n = r.issue_cycle.len() as u64;
        assert!(r.cycles >= n, "dependences cannot make it faster than n");
        assert!(r.cycles <= n + 2, "got {} for {n} ops", r.cycles);
    }

    #[test]
    fn multiplier_latency_serializes_dependent_chain() {
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let chain = schedule_body(&pum, "int f(int a) { return a * a * a * a; }");
        let single = schedule_body(&pum, "int f(int a) { return a * a; }");
        // Each extra dependent multiply costs the full 3-cycle latency.
        assert!(
            chain.cycles >= single.cycles + 2 * 3,
            "chain {} vs single {}",
            chain.cycles,
            single.cycles
        );
    }

    #[test]
    fn load_use_stall_costs_a_bubble() {
        use tlm_cdfg::ir::{ArrayId, BlockData, Op, OpKind, Terminator, VReg};
        use tlm_minic::ast::BinOp;
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        // v1 = load t[v0]; v2 = v1 + v1   (dependent on the load)
        let dependent = BlockData {
            ops: vec![
                Op {
                    kind: OpKind::Load { array: ArrayId(0) },
                    args: vec![VReg(0)],
                    result: Some(VReg(1)),
                },
                Op {
                    kind: OpKind::Bin(BinOp::Add),
                    args: vec![VReg(1), VReg(1)],
                    result: Some(VReg(2)),
                },
            ],
            term: Terminator::Return(Some(VReg(2))),
        };
        // v1 = load t[v0]; v2 = v0 + v0   (independent of the load)
        let independent = BlockData {
            ops: vec![
                Op {
                    kind: OpKind::Load { array: ArrayId(0) },
                    args: vec![VReg(0)],
                    result: Some(VReg(1)),
                },
                Op {
                    kind: OpKind::Bin(BinOp::Add),
                    args: vec![VReg(0), VReg(0)],
                    result: Some(VReg(2)),
                },
            ],
            term: Terminator::Return(Some(VReg(2))),
        };
        let run = |b: &BlockData| {
            schedule_block(&pum, b, &block_dfg(b), FuncId(0), BlockId(0)).expect("schedules").cycles
        };
        // The load commits at MEM while the add demands at EX: exactly one
        // bubble separates the dependent pair.
        assert_eq!(run(&dependent), run(&independent) + 1);
    }

    #[test]
    fn hw_parallelism_beats_single_issue() {
        // Four independent multiplies: 2 MACs in HW finish in about half
        // the cycles of a single-issue CPU.
        let src = "int f(int a, int b, int c, int d) {
            return (a * a) + (b * b) + (c * c) + (d * d);
        }";
        let cpu = schedule_body(&library::microblaze_like(8 << 10, 4 << 10), src);
        let hw = schedule_body(&library::custom_hw("mac4", 2, 2), src);
        assert!(hw.cycles * 2 <= cpu.cycles, "hw {} vs cpu {}", hw.cycles, cpu.cycles);
    }

    #[test]
    fn fu_contention_limits_hw_parallelism() {
        let src = "int f(int a, int b, int c, int d) {
            return (a * a) + (b * b) + (c * c) + (d * d);
        }";
        let wide = schedule_body(&library::custom_hw("wide", 4, 4), src);
        let narrow = schedule_body(&library::custom_hw("narrow", 1, 1), src);
        assert!(narrow.cycles > wide.cycles, "narrow {} vs wide {}", narrow.cycles, wide.cycles);
    }

    #[test]
    fn list_beats_alap_on_mixed_blocks() {
        // A block with one long chain plus independent filler: list
        // scheduling (critical path first) must not lose to ALAP.
        let src = "int f(int a, int b, int c, int d, int e) {
            int chain = ((((a * a) * a) * a) * a);
            int filler = b + c + d + e;
            return chain + filler;
        }";
        let mut list_pum = library::custom_hw("hw", 1, 1);
        list_pum.execution.policy = SchedulingPolicy::List;
        let mut alap_pum = list_pum.clone();
        alap_pum.execution.policy = SchedulingPolicy::Alap;
        let list = schedule_body(&list_pum, src);
        let alap = schedule_body(&alap_pum, src);
        assert!(list.cycles <= alap.cycles, "list {} alap {}", list.cycles, alap.cycles);
    }

    #[test]
    fn superscalar_issues_two_per_cycle() {
        let src = "int f(int a, int b, int c, int d, int e, int g, int h, int i) {
            return (a + b) + (c + d) + (e + g) + (h + i);
        }";
        let single = schedule_body(&library::microblaze_like(8 << 10, 4 << 10), src);
        let dual = schedule_body(&library::superscalar2(), src);
        assert!(dual.cycles < single.cycles, "dual {} vs single {}", dual.cycles, single.cycles);
    }

    #[test]
    fn transparent_constants_are_free_on_hw() {
        let src = "int f(int a) { return a + 1 + 2 + 3 + 4; }";
        let hw = schedule_body(&library::custom_hw("hw", 2, 1), src);
        // Constants resolve without pipeline occupancy: only the adds and
        // the return path cost cycles.
        let issued = hw.issue_cycle.iter().flatten().count();
        assert!(issued < hw.issue_cycle.len(), "some ops were transparent");
    }

    #[test]
    fn unmapped_class_is_reported() {
        let mut pum = library::microblaze_like(0, 0);
        pum.execution.op_map.remove(&crate::pum::OpClassKey::Mul);
        let module = module_of("int f(int a) { return a * a; }");
        let block = &module.functions[0].blocks[0];
        let err = schedule_block(&pum, block, &block_dfg(block), FuncId(0), BlockId(0))
            .expect_err("mul is unmapped");
        assert!(matches!(err, EstimateError::UnmappedClass { .. }));
    }

    #[test]
    fn issue_and_finish_cycles_are_consistent() {
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let r = schedule_body(&pum, "int f(int a, int b) { return a * b + a - b; }");
        for (i, f) in r.issue_cycle.iter().zip(&r.finish_cycle) {
            if let (Some(i), Some(f)) = (i, f) {
                assert!(f > i, "ops finish after they issue");
            }
        }
        assert!(r.raw_cycles >= r.cycles);
    }

    #[cfg(feature = "reference-kernel")]
    #[test]
    fn matches_reference_kernel_on_lowered_sources() {
        use crate::reference::schedule_block_reference;
        let sources = [
            "int f(int a, int b, int c, int d) { return (a + b) * (c + d) - a / b; }",
            "int f(int a) { int s = 0; for (int i = 0; i < a; i++) { s += i * i; } return s; }",
            "int t[8]; int f(int a) { t[0] = a; return t[0] + t[1] * 3; }",
        ];
        let mut pums = vec![
            library::microblaze_like(8 << 10, 4 << 10),
            library::superscalar2(),
            library::vliw4(),
        ];
        for policy in [
            SchedulingPolicy::InOrder,
            SchedulingPolicy::Asap,
            SchedulingPolicy::Alap,
            SchedulingPolicy::List,
        ] {
            let mut hw = library::custom_hw("hw", 2, 2);
            hw.execution.policy = policy;
            pums.push(hw);
        }
        for src in sources {
            let module = module_of(src);
            for (fid, func) in module.functions_iter() {
                for (bid, block) in func.blocks_iter() {
                    let dfg = block_dfg(block);
                    for pum in &pums {
                        let fast = schedule_block(pum, block, &dfg, fid, bid);
                        let slow = schedule_block_reference(pum, block, &dfg, fid, bid);
                        assert_eq!(fast, slow, "kernels diverge on {} under {}", src, pum.name);
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_counted() {
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let module = module_of("int f(int a, int b) { return a * b + a - b; }");
        let block = &module.functions[0].blocks[0];
        let dfg = block_dfg(block);
        let before = scratch_stats();
        for _ in 0..3 {
            schedule_block(&pum, block, &dfg, FuncId(0), BlockId(0)).expect("schedules");
        }
        let after = scratch_stats();
        let runs = (after.reuses - before.reuses) + (after.allocs - before.allocs);
        assert_eq!(runs, 3, "every kernel run is counted");
        assert!(after.reuses > before.reuses, "repeat blocks reuse the arena");
    }
}
