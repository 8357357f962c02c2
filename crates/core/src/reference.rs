//! The original Algorithm 1 kernel, retained verbatim as a differential
//! oracle (`reference-kernel` feature, enabled by `tlm-bench`).
//!
//! [`crate::schedule::schedule_block`] was rewritten around flat, reusable
//! data structures (issue table, scratch arena, incremental ready set —
//! see the module docs there). This module keeps the straightforward
//! pre-rewrite implementation: per-op `Vec`s rebuilt from [`Pum::binding`]
//! on every call, nested `Vec<Vec<Vec<Slot>>>` pipeline state, a fixpoint
//! scan for transparent ops and a candidate list re-filtered and re-sorted
//! every simulated cycle. It is slow by design and exists so the production
//! kernel can be checked bit-for-bit against an independently simple
//! implementation:
//!
//! - `tests/kernel_differential.rs` fuzzes random DFGs across every
//!   scheduling policy and pipeline shape against it;
//! - `annotate_reference` runs whole modules through it, which the
//!   `estperf` benchmark both asserts against and uses as its sequential
//!   baseline.
//!
//! Do not optimize this file: its value is that it has not changed.

use tlm_cdfg::dfg::Dfg;
use tlm_cdfg::ir::BlockData;
use tlm_cdfg::{BlockId, FuncId};

use crate::error::EstimateError;
use crate::pum::{Pum, SchedulingPolicy};
use crate::schedule::{ScheduleResult, CYCLE_LIMIT};

/// Per-op scheduling facts precomputed from the PUM.
struct OpInfo {
    /// Cycles spent per stage (index by stage).
    durations: Vec<u32>,
    /// Functional unit used per stage, if any.
    fu_at: Vec<Option<usize>>,
    demand_stage: usize,
    commit_stage: usize,
    transparent: bool,
    /// Issue priority (smaller issues first among ready ops).
    priority: i64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    op: usize,
    remaining: u32,
}

/// The pre-rewrite [`schedule_block`](crate::schedule::schedule_block):
/// schedules one basic block's DFG on the PUM (Algorithm 1).
///
/// # Errors
///
/// Same as [`schedule_block`](crate::schedule::schedule_block).
pub fn schedule_block_reference(
    pum: &Pum,
    block: &BlockData,
    dfg: &Dfg,
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

    let n_stages = pum.max_stages();
    let heights = dfg.heights();
    let infos: Vec<OpInfo> = block
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let b = pum.binding(op.class())?;
            let mut durations = vec![1u32; n_stages];
            let mut fu_at = vec![None; n_stages];
            for u in &b.usage {
                durations[u.stage] = pum.datapath.units[u.fu].modes[u.mode].delay;
                fu_at[u.stage] = Some(u.fu);
            }
            let priority = match pum.execution.policy {
                SchedulingPolicy::InOrder | SchedulingPolicy::Asap => i as i64,
                // List: longest chain first; ALAP: least critical first.
                SchedulingPolicy::List => -(heights[i] as i64),
                SchedulingPolicy::Alap => heights[i] as i64,
            };
            Ok(OpInfo {
                durations,
                fu_at,
                demand_stage: b.demand_stage,
                commit_stage: b.commit_stage,
                transparent: b.transparent,
                priority,
            })
        })
        .collect::<Result<_, EstimateError>>()?;

    let mut committed = vec![false; n];
    let mut done = vec![false; n];
    let mut issued = vec![false; n];
    let mut issue_cycle = vec![None; n];
    let mut finish_cycle = vec![None; n];
    let mut done_count = 0usize;

    let mut fu_free: Vec<u32> = pum.datapath.units.iter().map(|u| u.quantity).collect();
    // pipelines × stages × resident ops
    let mut pipes: Vec<Vec<Vec<Slot>>> =
        pum.datapath.pipelines.iter().map(|p| vec![Vec::new(); p.stages.len()]).collect();

    // Transparent ops whose predecessors are all committed resolve for free.
    let resolve_transparent = |committed: &mut Vec<bool>,
                               done: &mut Vec<bool>,
                               issued: &mut Vec<bool>,
                               done_count: &mut usize| {
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if infos[i].transparent && !done[i] && dfg.preds[i].iter().all(|&p| committed[p]) {
                    committed[i] = true;
                    done[i] = true;
                    issued[i] = true;
                    *done_count += 1;
                    changed = true;
                }
            }
        }
    };
    resolve_transparent(&mut committed, &mut done, &mut issued, &mut done_count);

    let mut cycle: u64 = 0;
    let mut last_finish: u64 = 0;
    let mut any_scheduled = false;

    while done_count < n {
        if cycle > CYCLE_LIMIT {
            return Err(EstimateError::Deadlock { func, block: block_id, cycle });
        }
        let mut progress = false;

        // Phase 1: decrement counters; completions at the commit stage
        // publish their results.
        for pipe in pipes.iter_mut() {
            for (stage_idx, stage) in pipe.iter_mut().enumerate() {
                for slot in stage.iter_mut() {
                    if slot.remaining > 0 {
                        slot.remaining -= 1;
                        progress = true;
                        if slot.remaining == 0 && stage_idx == infos[slot.op].commit_stage {
                            committed[slot.op] = true;
                        }
                    }
                }
            }
        }
        resolve_transparent(&mut committed, &mut done, &mut issued, &mut done_count);

        // Phase 2: advclock — advance ops whose stage time elapsed, from
        // the last stage backwards so a vacated stage can be refilled in
        // the same cycle.
        for (pipe_idx, pipe) in pipes.iter_mut().enumerate() {
            let stages = &pum.datapath.pipelines[pipe_idx].stages;
            let n_pipe_stages = pipe.len();
            for s in (0..n_pipe_stages).rev() {
                let mut idx = 0;
                while idx < pipe[s].len() {
                    let slot = pipe[s][idx];
                    if slot.remaining > 0 {
                        idx += 1;
                        continue;
                    }
                    if s + 1 == n_pipe_stages {
                        // Leaves the pipeline.
                        pipe[s].swap_remove(idx);
                        if let Some(fu) = infos[slot.op].fu_at[s] {
                            fu_free[fu] += 1;
                        }
                        done[slot.op] = true;
                        done_count += 1;
                        finish_cycle[slot.op] = Some(cycle);
                        last_finish = last_finish.max(cycle);
                        progress = true;
                        continue; // same idx now holds the swapped element
                    }
                    let ns = s + 1;
                    let info = &infos[slot.op];
                    let room = pipe[ns].len() < stages[ns].width as usize;
                    let operands_ok =
                        ns != info.demand_stage || dfg.preds[slot.op].iter().all(|&p| committed[p]);
                    let fu_ok = info.fu_at[ns].is_none_or(|fu| fu_free[fu] > 0);
                    if room && operands_ok && fu_ok {
                        pipe[s].swap_remove(idx);
                        if let Some(fu) = info.fu_at[s] {
                            fu_free[fu] += 1;
                        }
                        if let Some(fu) = info.fu_at[ns] {
                            fu_free[fu] -= 1;
                        }
                        pipe[ns].push(Slot { op: slot.op, remaining: info.durations[ns] });
                        progress = true;
                    } else {
                        idx += 1; // stalled
                    }
                }
            }
        }
        resolve_transparent(&mut committed, &mut done, &mut issued, &mut done_count);

        // Phase 3: AssignOps — issue into stage 0 per the policy.
        let in_order = pum.execution.policy == SchedulingPolicy::InOrder;
        let mut candidates: Vec<usize> = (0..n).filter(|&i| !issued[i]).collect();
        candidates.sort_by_key(|&i| (infos[i].priority, i));
        'issue: for &op in &candidates {
            let info = &infos[op];
            // Dataflow policies require operands before issue when stage 0
            // demands them; in-order CPUs issue blindly and stall at the
            // demand stage.
            let ready = 0 != info.demand_stage || dfg.preds[op].iter().all(|&p| committed[p]);
            if !ready {
                if in_order {
                    break 'issue; // program order: nothing younger may pass
                }
                continue;
            }
            let mut placed = false;
            for (pipe_idx, pipe) in pipes.iter_mut().enumerate() {
                let width0 = pum.datapath.pipelines[pipe_idx].stages[0].width as usize;
                let room = pipe[0].len() < width0;
                let fu_ok = info.fu_at[0].is_none_or(|fu| fu_free[fu] > 0);
                if room && fu_ok {
                    if let Some(fu) = info.fu_at[0] {
                        fu_free[fu] -= 1;
                    }
                    pipe[0].push(Slot { op, remaining: info.durations[0] });
                    issued[op] = true;
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
    let cycles = raw_cycles.saturating_sub(pum.fill_correction());
    Ok(ScheduleResult { cycles, raw_cycles, issue_cycle, finish_cycle })
}
