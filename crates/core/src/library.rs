//! Built-in PUM presets: the PE models used by the paper's evaluation.
//!
//! The paper models a MicroBlaze soft core (Fig. 5) and non-pipelined custom
//! HW units (Fig. 4, a DCT datapath). Both are reproduced here, plus a
//! plain 3-stage RISC and a dual-issue superscalar to demonstrate
//! generality. All presets validate; their *statistical* parameters (cache
//! hit rates, branch misprediction ratio) are placeholders that
//! [`crate::characterize`] replaces with measured values.

use std::collections::BTreeMap;

use crate::pum::{
    BranchModel, CacheModel, Datapath, ExecutionModel, FuMode, FuncUnit, MemoryModel, MemoryPath,
    OpBinding, OpClassKey, Pipeline, Pum, SchedulingPolicy, Stage, StageUsage,
};

/// External (off-chip) memory latency used by all presets, in cycles.
pub const EXTERNAL_LATENCY: u32 = 24;

/// Cache sizes (bytes) for which presets carry placeholder hit rates.
pub const CHARACTERIZED_SIZES: [u32; 7] =
    [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10];

/// A plausible default hit-rate curve used until characterization replaces
/// it: larger caches asymptotically approach 1.
pub fn synthetic_hit_rate(size_bytes: u32) -> f64 {
    let kib = f64::from(size_bytes) / 1024.0;
    (1.0 - 0.22 / kib.sqrt()).clamp(0.0, 1.0)
}

fn default_rates() -> BTreeMap<u32, f64> {
    CHARACTERIZED_SIZES.iter().map(|&s| (s, synthetic_hit_rate(s))).collect()
}

fn cache(size: u32, miss_penalty: u32) -> MemoryPath {
    if size == 0 {
        MemoryPath::Uncached
    } else {
        let mut hit_rates = default_rates();
        hit_rates.entry(size).or_insert_with(|| synthetic_hit_rate(size));
        MemoryPath::Cached(CacheModel { size, hit_rates, hit_delay: 0, miss_penalty })
    }
}

fn mode(name: &str, delay: u32) -> FuMode {
    FuMode { name: name.to_string(), delay }
}

fn unit(name: &str, quantity: u32, modes: Vec<FuMode>) -> FuncUnit {
    FuncUnit { name: name.to_string(), quantity, modes }
}

fn usage(stage: usize, fu: usize, mode: usize) -> Vec<StageUsage> {
    vec![StageUsage { stage, fu, mode }]
}

fn binding(demand: usize, commit: usize, usage: Vec<StageUsage>) -> OpBinding {
    OpBinding { demand_stage: demand, commit_stage: commit, usage, transparent: false }
}

/// A MicroBlaze-like single-issue in-order 5-stage soft core (Fig. 5 of the
/// paper): IF / ID / EX / MEM / WB, one ALU, a 3-cycle multiplier, an
/// iterative divider, one load/store unit, static branch handling with a
/// 2-cycle refill, and configurable i-/d-caches (`0` bytes = no cache; every
/// access then pays the external latency).
pub fn microblaze_like(icache_bytes: u32, dcache_bytes: u32) -> Pum {
    // Unit indices.
    const ALU: usize = 0;
    const SHIFT: usize = 1;
    const MUL: usize = 2;
    const DIV: usize = 3;
    const LSU: usize = 4;
    // Stage indices.
    const EX: usize = 2;
    const MEM: usize = 3;

    let mut op_map = BTreeMap::new();
    op_map.insert(OpClassKey::Alu, binding(EX, EX, usage(EX, ALU, 0)));
    op_map.insert(OpClassKey::Move, binding(EX, EX, usage(EX, ALU, 0)));
    op_map.insert(OpClassKey::Shift, binding(EX, EX, usage(EX, SHIFT, 0)));
    op_map.insert(OpClassKey::Mul, binding(EX, EX, usage(EX, MUL, 0)));
    op_map.insert(OpClassKey::Div, binding(EX, EX, usage(EX, DIV, 0)));
    op_map.insert(OpClassKey::Load, binding(EX, MEM, usage(MEM, LSU, 0)));
    op_map.insert(OpClassKey::Store, binding(MEM, MEM, usage(MEM, LSU, 0)));
    op_map.insert(OpClassKey::Control, binding(EX, EX, usage(EX, ALU, 0)));

    Pum {
        name: format!("microblaze-like i{}k/d{}k", icache_bytes / 1024, dcache_bytes / 1024),
        clock_period_ps: 10_000, // 100 MHz
        execution: ExecutionModel { policy: SchedulingPolicy::InOrder, op_map },
        datapath: Datapath {
            units: vec![
                unit("alu", 1, vec![mode("int", 1)]),
                unit("bshift", 1, vec![mode("shift", 1)]),
                unit("mul", 1, vec![mode("mul32", 3)]),
                unit("div", 1, vec![mode("div32", 32)]),
                unit("lsu", 1, vec![mode("word", 1)]),
            ],
            pipelines: vec![Pipeline {
                name: "main".into(),
                stages: ["IF", "ID", "EX", "MEM", "WB"]
                    .into_iter()
                    .map(|n| Stage { name: n.into(), width: 1 })
                    .collect(),
            }],
        },
        branch: Some(BranchModel {
            policy: "static".into(),
            penalty: 2,
            miss_rate: 0.5, // placeholder; characterization replaces it
        }),
        memory: MemoryModel {
            ifetch: cache(icache_bytes, EXTERNAL_LATENCY),
            data: cache(dcache_bytes, EXTERNAL_LATENCY),
            external_latency: EXTERNAL_LATENCY,
            fetch_expansion: 1.0,
            data_expansion: 1.0,
        },
    }
}

/// A non-pipelined custom hardware datapath (Fig. 4 of the paper): modelled,
/// as the paper prescribes, as an equivalent single-issue pipeline with one
/// stage. `n_alu` ALUs and `n_mac` multiply-accumulate units operate in
/// parallel under list scheduling; storage is dual-ported single-cycle
/// block RAM; control is hardwired so there is no instruction fetch and no
/// branch speculation.
pub fn custom_hw(name: &str, n_alu: u32, n_mac: u32) -> Pum {
    const ALU: usize = 0;
    const MAC: usize = 1;
    const DIVIDER: usize = 2;
    const SRAM: usize = 3;

    let mut op_map = BTreeMap::new();
    op_map.insert(OpClassKey::Alu, binding(0, 0, usage(0, ALU, 0)));
    op_map.insert(OpClassKey::Shift, binding(0, 0, usage(0, ALU, 0)));
    op_map.insert(OpClassKey::Mul, binding(0, 0, usage(0, MAC, 0)));
    op_map.insert(OpClassKey::Div, binding(0, 0, usage(0, DIVIDER, 0)));
    op_map.insert(OpClassKey::Load, binding(0, 0, usage(0, SRAM, 0)));
    op_map.insert(OpClassKey::Store, binding(0, 0, usage(0, SRAM, 0)));
    // Constants and copies are hardwired in a custom datapath.
    op_map.insert(
        OpClassKey::Move,
        OpBinding { demand_stage: 0, commit_stage: 0, usage: vec![], transparent: true },
    );
    op_map.insert(OpClassKey::Control, binding(0, 0, usage(0, ALU, 0)));

    Pum {
        name: name.to_string(),
        clock_period_ps: 10_000, // same clock domain as the CPU
        execution: ExecutionModel { policy: SchedulingPolicy::List, op_map },
        datapath: Datapath {
            units: vec![
                unit("alu", n_alu, vec![mode("int", 1)]),
                unit("mac", n_mac, vec![mode("mul", 2)]),
                unit("divider", 1, vec![mode("div", 8)]),
                unit("blockram", 2, vec![mode("word", 1)]),
            ],
            pipelines: vec![Pipeline {
                name: "datapath".into(),
                stages: vec![Stage { name: "exec".into(), width: 64 }],
            }],
        },
        branch: None,
        memory: MemoryModel {
            ifetch: MemoryPath::Hardwired,
            data: MemoryPath::Hardwired,
            external_latency: EXTERNAL_LATENCY,
            fetch_expansion: 1.0,
            data_expansion: 1.0,
        },
    }
}

/// A minimal 3-stage (IF/EX/WB) cacheless RISC, showing that small embedded
/// cores are describable too.
pub fn generic_risc() -> Pum {
    const ALU: usize = 0;
    const LSU: usize = 1;
    const EX: usize = 1;

    let mut op_map = BTreeMap::new();
    for key in [OpClassKey::Alu, OpClassKey::Move, OpClassKey::Shift, OpClassKey::Control] {
        op_map.insert(key, binding(EX, EX, usage(EX, ALU, 0)));
    }
    op_map.insert(OpClassKey::Mul, binding(EX, EX, usage(EX, ALU, 1)));
    op_map.insert(OpClassKey::Div, binding(EX, EX, usage(EX, ALU, 2)));
    op_map.insert(OpClassKey::Load, binding(EX, EX, usage(EX, LSU, 0)));
    op_map.insert(OpClassKey::Store, binding(EX, EX, usage(EX, LSU, 0)));

    Pum {
        name: "generic-risc".into(),
        clock_period_ps: 20_000, // 50 MHz
        execution: ExecutionModel { policy: SchedulingPolicy::InOrder, op_map },
        datapath: Datapath {
            units: vec![
                unit("alu", 1, vec![mode("int", 1), mode("mul", 4), mode("div", 16)]),
                unit("lsu", 1, vec![mode("word", 2)]),
            ],
            pipelines: vec![Pipeline {
                name: "main".into(),
                stages: ["IF", "EX", "WB"]
                    .into_iter()
                    .map(|n| Stage { name: n.into(), width: 1 })
                    .collect(),
            }],
        },
        branch: Some(BranchModel { policy: "static".into(), penalty: 1, miss_rate: 0.5 }),
        memory: MemoryModel {
            ifetch: MemoryPath::Uncached,
            data: MemoryPath::Uncached,
            external_latency: 4, // on-chip scratchpad
            fetch_expansion: 1.0,
            data_expansion: 1.0,
        },
    }
}

/// A dual-issue in-order superscalar with two symmetric 5-stage pipelines —
/// the paper's "multiple pipelines are allowed for superscalar
/// architectures".
pub fn superscalar2() -> Pum {
    const ALU: usize = 0;
    const MUL: usize = 1;
    const LSU: usize = 2;
    const EX: usize = 2;
    const MEM: usize = 3;

    let mut op_map = BTreeMap::new();
    for key in [OpClassKey::Alu, OpClassKey::Move, OpClassKey::Shift, OpClassKey::Control] {
        op_map.insert(key, binding(EX, EX, usage(EX, ALU, 0)));
    }
    op_map.insert(OpClassKey::Mul, binding(EX, EX, usage(EX, MUL, 0)));
    op_map.insert(OpClassKey::Div, binding(EX, EX, usage(EX, MUL, 1)));
    op_map.insert(OpClassKey::Load, binding(EX, MEM, usage(MEM, LSU, 0)));
    op_map.insert(OpClassKey::Store, binding(MEM, MEM, usage(MEM, LSU, 0)));

    let five_stage = |name: &str| Pipeline {
        name: name.into(),
        stages: ["IF", "ID", "EX", "MEM", "WB"]
            .into_iter()
            .map(|n| Stage { name: n.into(), width: 1 })
            .collect(),
    };

    Pum {
        name: "superscalar-2issue".into(),
        clock_period_ps: 5_000, // 200 MHz
        execution: ExecutionModel { policy: SchedulingPolicy::InOrder, op_map },
        datapath: Datapath {
            units: vec![
                unit("alu", 2, vec![mode("int", 1)]),
                unit("mul", 1, vec![mode("mul32", 3), mode("div32", 20)]),
                unit("lsu", 1, vec![mode("word", 1)]),
            ],
            pipelines: vec![five_stage("u"), five_stage("v")],
        },
        branch: Some(BranchModel { policy: "bimodal".into(), penalty: 3, miss_rate: 0.1 }),
        memory: MemoryModel {
            ifetch: cache(16 << 10, EXTERNAL_LATENCY),
            data: cache(16 << 10, EXTERNAL_LATENCY),
            external_latency: EXTERNAL_LATENCY,
            fetch_expansion: 1.0,
            data_expansion: 1.0,
        },
    }
}

/// A 4-slot VLIW DSP: four symmetric 3-stage pipelines fed by list
/// scheduling (a static-scheduled machine exposes its ILP to the
/// compiler/estimator rather than to hardware), two MAC units, two ALUs,
/// dual-ported data memory, scratchpad-based (no caches).
pub fn vliw4() -> Pum {
    const ALU: usize = 0;
    const MAC: usize = 1;
    const LSU: usize = 2;
    const EX: usize = 1;

    let mut op_map = BTreeMap::new();
    for key in [OpClassKey::Alu, OpClassKey::Move, OpClassKey::Shift, OpClassKey::Control] {
        op_map.insert(key, binding(EX, EX, usage(EX, ALU, 0)));
    }
    op_map.insert(OpClassKey::Mul, binding(EX, EX, usage(EX, MAC, 0)));
    op_map.insert(OpClassKey::Div, binding(EX, EX, usage(EX, MAC, 1)));
    op_map.insert(OpClassKey::Load, binding(EX, EX, usage(EX, LSU, 0)));
    op_map.insert(OpClassKey::Store, binding(EX, EX, usage(EX, LSU, 0)));

    let slot = |name: &str| Pipeline {
        name: name.into(),
        stages: ["FE", "EX", "WB"]
            .into_iter()
            .map(|n| Stage { name: n.into(), width: 1 })
            .collect(),
    };

    Pum {
        name: "vliw-4slot".into(),
        clock_period_ps: 5_000, // 200 MHz
        execution: ExecutionModel { policy: SchedulingPolicy::List, op_map },
        datapath: Datapath {
            units: vec![
                unit("alu", 2, vec![mode("int", 1)]),
                unit("mac", 2, vec![mode("mul", 2), mode("div", 12)]),
                unit("lsu", 2, vec![mode("word", 1)]),
            ],
            pipelines: vec![slot("s0"), slot("s1"), slot("s2"), slot("s3")],
        },
        // Static scheduling: untaken paths are compiled around, but a
        // taken-branch bubble remains.
        branch: Some(BranchModel { policy: "static-vliw".into(), penalty: 1, miss_rate: 0.3 }),
        memory: MemoryModel {
            ifetch: MemoryPath::Uncached,
            data: MemoryPath::Hardwired, // dual-ported scratchpad in the LSU delay
            external_latency: 2,         // wide on-chip program memory
            fetch_expansion: 1.0,
            data_expansion: 1.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vliw_extracts_parallelism_beyond_single_issue() {
        use crate::annotate::annotate_uncached;
        let src = "int f(int a, int b, int c, int d) {
            return (a * a + b * b) + (c * c + d * d);
        }";
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let total = |pum: &Pum| -> u64 {
            let timed = annotate_uncached(&module, pum).expect("annotates");
            module
                .functions_iter()
                .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
                .map(|(fid, bid)| timed.delay(fid, bid).sched)
                .sum()
        };
        let mut risc = generic_risc();
        // Compare schedules only: align the memory paths.
        risc.memory.ifetch = MemoryPath::Uncached;
        let vliw = vliw4();
        assert!(total(&vliw) < total(&risc), "vliw {} vs risc {}", total(&vliw), total(&risc));
        vliw.validate().expect("valid");
    }

    #[test]
    fn synthetic_curve_is_monotone() {
        let mut last = 0.0;
        for &s in &CHARACTERIZED_SIZES {
            let r = synthetic_hit_rate(s);
            assert!(r >= last, "hit rate decreases at {s}");
            assert!((0.0..=1.0).contains(&r));
            last = r;
        }
    }

    #[test]
    fn zero_cache_sizes_mean_uncached() {
        let pum = microblaze_like(0, 0);
        assert!(matches!(pum.memory.ifetch, MemoryPath::Uncached));
        assert!(matches!(pum.memory.data, MemoryPath::Uncached));
    }

    #[test]
    fn nonstandard_cache_size_gets_a_rate() {
        let pum = microblaze_like(3 << 10, 4 << 10);
        let MemoryPath::Cached(cache) = &pum.memory.ifetch else {
            panic!("expected cached ifetch");
        };
        assert!(cache.hit_rates.contains_key(&(3 << 10)));
        pum.validate().expect("valid");
    }

    #[test]
    fn hw_preset_has_no_speculation_or_fetch() {
        let pum = custom_hw("imdct", 4, 2);
        assert!(pum.branch.is_none());
        assert!(matches!(pum.memory.ifetch, MemoryPath::Hardwired));
        assert_eq!(pum.max_stages(), 1);
    }

    #[test]
    fn superscalar_has_two_pipelines() {
        let pum = superscalar2();
        assert_eq!(pum.datapath.pipelines.len(), 2);
        pum.validate().expect("valid");
    }
}
