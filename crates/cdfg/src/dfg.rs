//! Per-basic-block data flow graphs.
//!
//! Algorithm 1 of the paper schedules "the DFG of the basic block" onto the
//! PE pipeline. This module computes that DFG: for every operation in a
//! block, the indices of earlier operations in the *same* block it depends
//! on. Values defined in other blocks are live-in and considered available
//! at block entry, exactly as the paper's optimistic scheduler assumes.
//!
//! Edge kinds:
//!
//! - **data**: op reads a register last written by an earlier op;
//! - **memory**: conservative array-granular ordering — a load depends on
//!   the previous store to the same array; a store depends on the previous
//!   store *and* all loads of the same array since that store;
//! - **effect**: side-effecting ops (`out`, channel ops, calls) are kept in
//!   program order relative to each other.

use std::collections::HashMap;

use crate::ir::{ArrayId, BlockData, OpClass, OpKind, VReg};

/// The dependence graph of one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    /// `preds[i]` lists the in-block op indices op `i` depends on
    /// (deduplicated, ascending).
    pub preds: Vec<Vec<usize>>,
}

impl Dfg {
    /// Number of operations in the block.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the block has no operations.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// `succs[i]`: ops that depend on op `i` (derived view).
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succs = vec![Vec::new(); self.preds.len()];
        for (i, preds) in self.preds.iter().enumerate() {
            for &p in preds {
                succs[p].push(i);
            }
        }
        succs
    }

    /// Height of each op: the longest chain from this op to any sink,
    /// counting the op itself. Standard list-scheduling priority.
    pub fn heights(&self) -> Vec<usize> {
        let succs = self.successors();
        let mut height = vec![1usize; self.preds.len()];
        for i in (0..self.preds.len()).rev() {
            // succs are always later ops, so one backward pass suffices.
            let best = succs[i].iter().map(|&s| height[s] + 1).max().unwrap_or(1);
            height[i] = best;
        }
        height
    }
}

/// Computes the [`Dfg`] of a block.
pub fn block_dfg(block: &BlockData) -> Dfg {
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(block.ops.len());
    let mut last_def: HashMap<VReg, usize> = HashMap::new();
    let mut last_store: HashMap<ArrayId, usize> = HashMap::new();
    let mut loads_since_store: HashMap<ArrayId, Vec<usize>> = HashMap::new();
    let mut last_effect: Option<usize> = None;

    for (i, op) in block.ops.iter().enumerate() {
        let mut deps = Vec::new();
        for arg in &op.args {
            if let Some(&def) = last_def.get(arg) {
                deps.push(def);
            }
        }
        match &op.kind {
            OpKind::Load { array } => {
                if let Some(&st) = last_store.get(array) {
                    deps.push(st);
                }
                loads_since_store.entry(*array).or_default().push(i);
            }
            OpKind::Store { array } => {
                if let Some(&st) = last_store.get(array) {
                    deps.push(st);
                }
                if let Some(loads) = loads_since_store.get(array) {
                    deps.extend(loads.iter().copied());
                }
                last_store.insert(*array, i);
                loads_since_store.insert(*array, Vec::new());
            }
            OpKind::Call { .. }
            | OpKind::ChanRecv { .. }
            | OpKind::ChanSend { .. }
            | OpKind::Output => {
                if let Some(e) = last_effect {
                    deps.push(e);
                }
                last_effect = Some(i);
            }
            _ => {}
        }
        if let Some(result) = op.result {
            last_def.insert(result, i);
        }
        deps.sort_unstable();
        deps.dedup();
        preds.push(deps);
    }
    Dfg { preds }
}

fn class_tag(class: OpClass) -> u8 {
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

/// Canonical byte encoding of everything the optimistic scheduler
/// (Algorithm 1 of the paper) reads from a basic block: the op-class
/// sequence and the dependence edges. Two blocks with equal keys schedule
/// identically on any PUM, regardless of operand values, array identities
/// or the terminator — none of which Algorithm 1 inspects.
///
/// The encoding is self-delimiting (`u32` little-endian counts), so it is
/// collision-free by construction and safe to use directly as a
/// content-addressed cache key.
pub fn schedule_key(block: &BlockData, dfg: &Dfg) -> Vec<u8> {
    assert_eq!(block.ops.len(), dfg.preds.len(), "DFG belongs to another block");
    let n_edges: usize = dfg.preds.iter().map(Vec::len).sum();
    let mut key = Vec::with_capacity(4 + block.ops.len() * 5 + n_edges * 4);
    key.extend_from_slice(&(block.ops.len() as u32).to_le_bytes());
    for (op, preds) in block.ops.iter().zip(&dfg.preds) {
        key.push(class_tag(op.class()));
        key.extend_from_slice(&(preds.len() as u32).to_le_bytes());
        for &p in preds {
            key.extend_from_slice(&(p as u32).to_le_bytes());
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, Terminator};
    use tlm_minic::ast::BinOp;

    fn op(kind: OpKind, args: Vec<u32>, result: Option<u32>) -> Op {
        Op { kind, args: args.into_iter().map(VReg).collect(), result: result.map(VReg) }
    }

    fn block(ops: Vec<Op>) -> BlockData {
        BlockData { ops, term: Terminator::Return(None) }
    }

    #[test]
    fn data_dependence_through_registers() {
        // v0 = 1; v1 = 2; v2 = v0 + v1; v3 = v2 * v2
        let b = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Const(2), vec![], Some(1)),
            op(OpKind::Bin(BinOp::Add), vec![0, 1], Some(2)),
            op(OpKind::Bin(BinOp::Mul), vec![2, 2], Some(3)),
        ]);
        let dfg = block_dfg(&b);
        assert_eq!(dfg.preds, vec![vec![], vec![], vec![0, 1], vec![2]]);
    }

    #[test]
    fn live_in_values_have_no_deps() {
        // v5 comes from another block: v0 = v5 + v5
        let b = block(vec![op(OpKind::Bin(BinOp::Add), vec![5, 5], Some(0))]);
        let dfg = block_dfg(&b);
        assert_eq!(dfg.preds, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn redefinition_uses_latest_writer() {
        // v0 = 1; v0 = 2; v1 = v0 → depends on the second const only.
        let b = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Const(2), vec![], Some(0)),
            op(OpKind::Copy, vec![0], Some(1)),
        ]);
        let dfg = block_dfg(&b);
        assert_eq!(dfg.preds[2], vec![1]);
    }

    #[test]
    fn store_load_ordering_same_array() {
        let a = ArrayId(0);
        // store a[v0]=v1 ; load v2=a[v0] ; store a[v0]=v2
        let b = block(vec![
            op(OpKind::Const(0), vec![], Some(0)),
            op(OpKind::Const(9), vec![], Some(1)),
            op(OpKind::Store { array: a }, vec![0, 1], None),
            op(OpKind::Load { array: a }, vec![0], Some(2)),
            op(OpKind::Store { array: a }, vec![0, 2], None),
        ]);
        let dfg = block_dfg(&b);
        assert!(dfg.preds[3].contains(&2), "load depends on store");
        assert!(dfg.preds[4].contains(&2), "store depends on previous store");
        assert!(dfg.preds[4].contains(&3), "store depends on intervening load");
    }

    #[test]
    fn different_arrays_do_not_alias() {
        let b = block(vec![
            op(OpKind::Const(0), vec![], Some(0)),
            op(OpKind::Store { array: ArrayId(0) }, vec![0, 0], None),
            op(OpKind::Load { array: ArrayId(1) }, vec![0], Some(1)),
        ]);
        let dfg = block_dfg(&b);
        assert_eq!(dfg.preds[2], vec![0], "only the index dependence remains");
    }

    #[test]
    fn effects_stay_in_program_order() {
        let b = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Output, vec![0], None),
            op(OpKind::Output, vec![0], None),
        ]);
        let dfg = block_dfg(&b);
        assert!(dfg.preds[2].contains(&1), "second out after first");
    }

    #[test]
    fn heights_are_list_scheduling_priorities() {
        let b = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Add), vec![0, 0], Some(1)),
            op(OpKind::Bin(BinOp::Add), vec![1, 1], Some(2)),
            op(OpKind::Const(5), vec![], Some(3)),
        ]);
        let dfg = block_dfg(&b);
        assert_eq!(dfg.heights(), vec![3, 2, 1, 1]);
    }

    #[test]
    fn empty_block() {
        let dfg = block_dfg(&block(vec![]));
        assert!(dfg.is_empty());
    }

    #[test]
    fn schedule_key_ignores_operand_values_but_not_classes_or_deps() {
        let base = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Add), vec![0, 0], Some(1)),
        ]);
        // Different constant, same structure: same key.
        let same_shape = block(vec![
            op(OpKind::Const(99), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Sub), vec![0, 0], Some(1)),
        ]);
        // Mul instead of Add: different op class, different key.
        let other_class = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Mul), vec![0, 0], Some(1)),
        ]);
        // Add of live-ins: same classes, no dependence edge, different key.
        let other_deps = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Add), vec![7, 7], Some(1)),
        ]);
        let key = |b: &BlockData| schedule_key(b, &block_dfg(b));
        assert_eq!(key(&base), key(&same_shape));
        assert_ne!(key(&base), key(&other_class));
        assert_ne!(key(&base), key(&other_deps));
    }

    #[test]
    fn schedule_key_is_self_delimiting() {
        // One op with one pred vs two ops must not collide even though both
        // encodings have similar byte counts.
        let a = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Add), vec![0, 0], Some(1)),
            op(OpKind::Bin(BinOp::Add), vec![1, 1], Some(2)),
        ]);
        let b = block(vec![
            op(OpKind::Const(1), vec![], Some(0)),
            op(OpKind::Bin(BinOp::Add), vec![0, 0], Some(1)),
        ]);
        assert_ne!(schedule_key(&a, &block_dfg(&a)), schedule_key(&b, &block_dfg(&b)));
    }
}
