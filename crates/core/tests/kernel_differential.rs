//! Differential property test: the flat-layout production kernel
//! (`schedule::schedule_block`) must be **bit-identical** to the
//! pre-rewrite reference kernel (`reference::schedule_block_reference`)
//! on randomly generated DFGs across every scheduling policy and a range
//! of pipeline shapes. The generator is a plain xorshift64* so failures
//! reproduce from the printed seed.
#![cfg(feature = "reference-kernel")]

use std::sync::Mutex;

use tlm_cdfg::dfg::{block_dfg, schedule_key, Dfg};
use tlm_cdfg::ir::{ArrayId, BlockData, Op, OpKind, Terminator, VReg};
use tlm_cdfg::{BlockId, FuncId};
use tlm_core::batch::{batch_stats, key_hash, solve_batch, BatchItem};
use tlm_core::pum::{OpBinding, OpClassKey, SchedulingPolicy};
use tlm_core::reference::schedule_block_reference;
use tlm_core::schedule::{schedule_block, IssueTable};
use tlm_core::{library, Pum};
use tlm_minic::ast::BinOp;

/// xorshift64* — deterministic, dependency-free PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random straight-line block. Results are `VReg(16 + i)` for op `i`;
/// arguments draw from all earlier results *and* vregs 0..16, which are
/// never defined in-block, so some ops have free inputs (no predecessor)
/// and the DFG mixes chains, joins and roots. Loads/stores over two
/// arrays add memory-order edges on top of the data edges.
fn random_block(rng: &mut Rng) -> BlockData {
    let n = 1 + rng.below(20) as usize;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let pick_arg = |rng: &mut Rng| VReg(rng.below(16 + i as u64) as u32);
        let result = Some(VReg(16 + i as u32));
        let op = match rng.below(8) {
            0 => Op { kind: OpKind::Const(rng.next() as i64), args: vec![], result },
            1 => Op {
                kind: OpKind::Bin(BinOp::Add),
                args: vec![pick_arg(rng), pick_arg(rng)],
                result,
            },
            2 => Op {
                kind: OpKind::Bin(BinOp::Mul),
                args: vec![pick_arg(rng), pick_arg(rng)],
                result,
            },
            3 => Op {
                kind: OpKind::Bin(BinOp::Div),
                args: vec![pick_arg(rng), pick_arg(rng)],
                result,
            },
            4 => Op {
                kind: OpKind::Bin(BinOp::Shl),
                args: vec![pick_arg(rng), pick_arg(rng)],
                result,
            },
            5 => Op {
                kind: OpKind::Load { array: ArrayId(rng.below(2) as u32) },
                args: vec![pick_arg(rng)],
                result,
            },
            6 => Op {
                kind: OpKind::Store { array: ArrayId(rng.below(2) as u32) },
                args: vec![pick_arg(rng), pick_arg(rng)],
                result: None,
            },
            _ => Op { kind: OpKind::Copy, args: vec![pick_arg(rng)], result },
        };
        ops.push(op);
    }
    BlockData { ops, term: Terminator::Return(None) }
}

/// The PUM zoo: every built-in shape, custom datapaths at widths 1..=4,
/// and a custom model whose ALU binding is *transparent* — transparent
/// ops with real predecessors are the trickiest resolution path (they
/// must resolve the instant their last predecessor commits).
fn pums() -> Vec<Pum> {
    let mut pums = vec![
        library::microblaze_like(8 << 10, 4 << 10),
        library::generic_risc(),
        library::superscalar2(),
        library::vliw4(),
    ];
    for width in 1..=4u32 {
        pums.push(library::custom_hw(&format!("hw{width}"), width, width));
    }
    let mut transparent_alu = library::custom_hw("transparent-alu", 2, 2);
    transparent_alu.execution.op_map.insert(
        OpClassKey::Alu,
        OpBinding { demand_stage: 0, commit_stage: 0, usage: vec![], transparent: true },
    );
    pums.push(transparent_alu);
    pums
}

const POLICIES: [SchedulingPolicy; 4] = [
    SchedulingPolicy::InOrder,
    SchedulingPolicy::Asap,
    SchedulingPolicy::Alap,
    SchedulingPolicy::List,
];

#[test]
fn production_kernel_is_bit_identical_to_reference() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut checked = 0usize;
    for round in 0..24 {
        let seed_before = rng.0;
        let block = random_block(&mut rng);
        let dfg = block_dfg(&block);
        for base in pums() {
            for policy in POLICIES {
                let mut pum = base.clone();
                pum.execution.policy = policy;
                let new = schedule_block(&pum, &block, &dfg, FuncId(0), BlockId(0));
                let reference = schedule_block_reference(&pum, &block, &dfg, FuncId(0), BlockId(0));
                assert_eq!(
                    new, reference,
                    "kernel divergence: round {round}, rng state {seed_before:#x}, \
                     pum {}, policy {policy:?}, block {block:?}",
                    pum.name
                );
                checked += 1;
            }
        }
    }
    // 24 rounds × 9 PUMs × 4 policies — a regression that only bites one
    // policy or one datapath shape still gets hundreds of shots at it.
    assert_eq!(checked, 24 * 9 * 4);
}

/// A block with its derived schedule inputs, owned so [`BatchItem`]s can
/// borrow from it.
struct PreparedBlock {
    block: BlockData,
    dfg: Dfg,
    key: Vec<u8>,
    heights: Vec<usize>,
}

fn prepare(block: BlockData) -> PreparedBlock {
    let dfg = block_dfg(&block);
    let key = schedule_key(&block, &dfg);
    let heights = dfg.heights();
    PreparedBlock { block, dfg, key, heights }
}

/// Checks one batch against the reference kernel, block by block, for
/// `pum` under every policy. `picks` selects which prepared block each
/// item carries (repeats exercise dedup fan-out). Items with identical
/// keys share a `BlockId` so a folded error is indistinguishable from a
/// per-block one.
fn assert_batch_matches_reference(base: &Pum, blocks: &[PreparedBlock], picks: &[usize]) {
    for policy in POLICIES {
        let mut pum = base.clone();
        pum.execution.policy = policy;
        let table = IssueTable::build(&pum);
        let items: Vec<BatchItem<'_>> = picks
            .iter()
            .map(|&b| {
                let rep = blocks.iter().position(|other| other.key == blocks[b].key).unwrap();
                BatchItem {
                    key: &blocks[b].key,
                    key_hash: key_hash(&blocks[b].key),
                    block: &blocks[b].block,
                    dfg: &blocks[b].dfg,
                    heights: &blocks[b].heights,
                    func: FuncId(0),
                    block_id: BlockId(rep as u32),
                }
            })
            .collect();
        let batched = solve_batch(&table, &items);
        assert_eq!(batched.len(), items.len());
        for (item, got) in items.iter().zip(&batched) {
            let reference =
                schedule_block_reference(&pum, item.block, item.dfg, item.func, item.block_id);
            assert_eq!(
                got.as_deref(),
                reference.as_ref(),
                "batched kernel divergence: pum {}, policy {policy:?}, block {:?}",
                pum.name,
                item.block
            );
        }
    }
}

/// Serializes the tests that solve batches, so one can read exact deltas
/// of the process-wide [`batch_stats`] counters.
static BATCH_COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn batched_kernel_matches_reference_on_random_mixed_batches() {
    let _counters = BATCH_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng(0x0123_4567_89ab_cdef);
    for _round in 0..6 {
        let blocks: Vec<PreparedBlock> = (0..24).map(|_| prepare(random_block(&mut rng))).collect();
        // Every third block is submitted twice, so the batch mixes
        // singleton solves and dedup fan-out.
        let mut picks: Vec<usize> = (0..blocks.len()).collect();
        picks.extend((0..blocks.len()).step_by(3));
        for base in pums() {
            assert_batch_matches_reference(&base, &blocks, &picks);
        }
    }
}

/// `count` blocks of six free-input binary ops — two ALU, two multiply,
/// two shift — in `count` distinct class orders, plus one divide. Same op
/// count and op-class histogram, but every canonical key is distinct, so
/// dedup must not fold any two of them. There are 6!/(2!·2!·2!) = 90
/// orders.
fn same_shape_distinct_blocks(count: usize) -> Vec<PreparedBlock> {
    assert!(count <= 90);
    let mut blocks = Vec::with_capacity(count);
    for code in 0..729u32 {
        let mut counts = [0u8; 3];
        let mut seq = [0u8; 6];
        let mut c = code;
        for slot in &mut seq {
            *slot = (c % 3) as u8;
            counts[*slot as usize] += 1;
            c /= 3;
        }
        if counts != [2, 2, 2] {
            continue;
        }
        let mut ops: Vec<Op> = seq
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let bin = match class {
                    0 => BinOp::Add,
                    1 => BinOp::Mul,
                    _ => BinOp::Shl,
                };
                Op {
                    kind: OpKind::Bin(bin),
                    args: vec![VReg(0), VReg(1)],
                    result: Some(VReg(16 + i as u32)),
                }
            })
            .collect();
        // One long-latency op keeps the blocks off the closed-form 1-op
        // fast path and drains past the short ops.
        ops.push(Op {
            kind: OpKind::Bin(BinOp::Div),
            args: vec![VReg(0), VReg(1)],
            result: Some(VReg(30)),
        });
        blocks.push(prepare(BlockData { ops, term: Terminator::Return(None) }));
        if blocks.len() == count {
            break;
        }
    }
    blocks
}

#[test]
fn dedup_boundary_batches_match_reference() {
    // Batch sizes around the 64-item mark, each over about half as many
    // distinct keys: every duplicate folds into its representative, every
    // result matches the reference kernel, and exactly one solve runs per
    // distinct key (2 PUMs × 4 policies per batch size).
    let _counters = BATCH_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    for count in [1usize, 63, 64, 65, 80] {
        let distinct = count.div_ceil(2);
        let blocks = same_shape_distinct_blocks(distinct);
        let picks: Vec<usize> = (0..count).map(|i| i % distinct).collect();
        let before = batch_stats();
        assert_batch_matches_reference(
            &library::microblaze_like(8 << 10, 4 << 10),
            &blocks,
            &picks,
        );
        assert_batch_matches_reference(&library::superscalar2(), &blocks, &picks);
        let after = batch_stats();
        let runs = 2 * POLICIES.len() as u64;
        assert_eq!(
            after.unique_solves - before.unique_solves,
            runs * distinct as u64,
            "one solve per distinct key: {before:?} -> {after:?}"
        );
        assert_eq!(after.blocks - before.blocks, runs * count as u64);
        assert_eq!(after.dedup_hits - before.dedup_hits, runs * (count - distinct) as u64);
    }
}

#[test]
fn empty_block_fast_path_short_circuits() {
    let block = BlockData { ops: vec![], term: Terminator::Return(None) };
    let dfg = block_dfg(&block);
    for base in pums() {
        let r = schedule_block(&base, &block, &dfg, FuncId(0), BlockId(0)).expect("schedules");
        assert_eq!(r.cycles, 0, "pum {}", base.name);
        assert_eq!(r.raw_cycles, 0, "pum {}", base.name);
        assert!(r.issue_cycle.is_empty() && r.finish_cycle.is_empty());
    }
}

#[test]
fn all_transparent_block_costs_nothing() {
    // Const and Copy are transparent on the custom-HW models: the whole
    // block must resolve without entering the pipeline at all.
    let block = BlockData {
        ops: vec![
            Op { kind: OpKind::Const(7), args: vec![], result: Some(VReg(16)) },
            Op { kind: OpKind::Copy, args: vec![VReg(16)], result: Some(VReg(17)) },
            Op { kind: OpKind::Copy, args: vec![VReg(17)], result: Some(VReg(18)) },
        ],
        term: Terminator::Return(Some(VReg(18))),
    };
    let dfg = block_dfg(&block);
    let pum = library::custom_hw("hw", 2, 2);
    let r = schedule_block(&pum, &block, &dfg, FuncId(0), BlockId(0)).expect("schedules");
    assert_eq!(r.cycles, 0);
    assert_eq!(r.raw_cycles, 0);
    assert!(r.issue_cycle.iter().all(Option::is_none), "transparent ops never issue");
    assert!(r.finish_cycle.iter().all(Option::is_none));
    let reference = schedule_block_reference(&pum, &block, &dfg, FuncId(0), BlockId(0));
    assert_eq!(Ok(r), reference);
}
