//! Cross-engine functional equivalence: the CDFG interpreter, the compiled
//! functional CPU, the coarse ISS, the cycle-accurate board core and both
//! TLM modes must compute identical results for every kernel. Timing models
//! may disagree; functionality may not (a core invariant of DESIGN.md).

use std::sync::Arc;

use tlm_apps::kernels;
use tlm_cdfg::interp::{Exec, Machine, NoopHook};
use tlm_cdfg::ir::Module;
use tlm_core::annotate::annotate_uncached;
use tlm_core::library;
use tlm_iss::codegen::build_program;
use tlm_iss::cpu::{Cpu, CpuExec};
use tlm_iss::microarch::{MicroArch, MicroArchConfig};
use tlm_iss::timing::{IssSim, IssTimingConfig};

fn lower(src: &str) -> Module {
    // Through the shared front-end; cloned out of the Arc because the
    // optimizer tests below mutate their copy in place.
    tlm_pipeline::Pipeline::global()
        .frontend_with(src, false)
        .expect("compiles")
        .module()
        .as_ref()
        .clone()
}

fn interp_outputs(module: &Module) -> Vec<i64> {
    let main = module.function_id("main").expect("main");
    let mut m = Machine::new(module, main, &[]);
    assert_eq!(m.run(&mut NoopHook), Exec::Done);
    m.outputs().to_vec()
}

#[test]
fn kernels_agree_on_every_engine() {
    for kernel in kernels::suite() {
        let module = lower(&kernel.source);
        let main = module.function_id("main").expect("main");
        let reference = interp_outputs(&module);
        let program = Arc::new(build_program(&module, main, &[]).expect("compiles"));

        let mut cpu = Cpu::new(program.clone());
        assert_eq!(cpu.run(u64::MAX), CpuExec::Done, "{}", kernel.name);
        assert_eq!(cpu.outputs(), reference, "{} on functional cpu", kernel.name);

        let mut iss =
            IssSim::new(Cpu::new(program.clone()), IssTimingConfig::for_caches(8192, 4096));
        assert_eq!(iss.run(u64::MAX), CpuExec::Done);
        assert_eq!(iss.cpu().outputs(), reference, "{} on coarse iss", kernel.name);

        let mut board = MicroArch::new(program, MicroArchConfig::microblaze_like(2048, 2048));
        assert_eq!(board.run(u64::MAX), CpuExec::Done);
        assert_eq!(board.cpu().outputs(), reference, "{} on board core", kernel.name);
        assert!(board.cycles() >= board.cpu().stats().instructions);
    }
}

#[test]
fn optimized_ir_matches_unoptimized_on_all_kernels() {
    for kernel in kernels::suite() {
        let plain = lower(&kernel.source);
        let mut optimized = plain.clone();
        let stats = tlm_cdfg::passes::optimize(&mut optimized);
        assert_eq!(
            interp_outputs(&plain),
            interp_outputs(&optimized),
            "{} after {stats:?}",
            kernel.name
        );
        optimized.validate().expect("optimized module still valid");
    }
}

#[test]
fn annotation_does_not_depend_on_execution() {
    // Estimation is static: annotating twice (and on a clone) gives
    // identical per-block delays.
    let module = lower(&kernels::suite()[0].source);
    let pum = library::microblaze_like(8192, 4096);
    let a = annotate_uncached(&module, &pum).expect("annotates");
    let b = annotate_uncached(&module.clone(), &pum).expect("annotates");
    for (fid, func) in module.functions_iter() {
        for (bid, _) in func.blocks_iter() {
            assert_eq!(a.cycles(fid, bid), b.cycles(fid, bid));
        }
    }
}

#[test]
fn every_kernel_estimates_on_every_library_pum() {
    for kernel in kernels::suite() {
        let module = lower(&kernel.source);
        for pum in [
            library::microblaze_like(8192, 4096),
            library::microblaze_like(0, 0),
            library::custom_hw("hw", 2, 2),
            library::generic_risc(),
            library::superscalar2(),
        ] {
            let timed = annotate_uncached(&module, &pum)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, pum.name));
            assert!(timed.total_annotated_blocks() > 0);
        }
    }
}
