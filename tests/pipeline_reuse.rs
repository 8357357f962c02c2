//! The artifact pipeline's two contracts, asserted end to end.
//!
//! 1. **Determinism** — for every application design and every scheduling
//!    policy, driving estimation through the demand-driven pipeline
//!    produces **bit-identical** results to the direct sequential drive
//!    (`parse → lower → optimize → annotate_uncached`), both at the
//!    per-block delay level and through a full timed-TLM run.
//!
//! 2. **Reuse** — stage hit/miss counters move by *exactly* the expected
//!    amounts: a cache-size sweep re-keys only the annotated and report
//!    stages (everything above Algorithm 2 hits, and Algorithm 1 never
//!    re-runs), a verbatim repeat short-circuits at the report stage
//!    (zero upstream lookups), and a one-PE platform edit re-estimates
//!    only the processes mapped to the edited PE.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::imagepipe::{image_design, ImageParams};
use tlm_apps::{mp3_design, Mp3Design, Mp3Params};
use tlm_core::annotate::{annotate_uncached, TimedModule};
use tlm_core::pum::SchedulingPolicy;
use tlm_core::Pum;
use tlm_pipeline::{ModuleArtifact, Pipeline, PreparedDesign};
use tlm_platform::tlm::{run_annotated, AnnotatedPlatform, TlmConfig};
use tlm_session::{SessionStore, SourceEdit, SweepPoint};

const POLICIES: [SchedulingPolicy; 4] = [
    SchedulingPolicy::InOrder,
    SchedulingPolicy::Asap,
    SchedulingPolicy::Alap,
    SchedulingPolicy::List,
];

/// All four application designs, built through the shared front-end.
fn designs(pipeline: &Pipeline, ic: u32, dc: u32) -> Vec<PreparedDesign> {
    vec![
        mp3_design(pipeline, Mp3Design::Sw, Mp3Params::training(), ic, dc).expect("builds"),
        mp3_design(pipeline, Mp3Design::SwPlus4, Mp3Params::training(), ic, dc).expect("builds"),
        image_design(pipeline, false, ImageParams::small(), ic, dc).expect("builds"),
        image_design(pipeline, true, ImageParams::small(), ic, dc).expect("builds"),
    ]
}

fn assert_delays_identical(reference: &TimedModule, candidate: &TimedModule, what: &str) {
    for (fid, func) in reference.module().functions_iter() {
        for (bid, _) in func.blocks_iter() {
            // PartialEq on BlockDelay compares the f64 components exactly —
            // "bit-identical", not "approximately equal".
            assert_eq!(
                reference.delay(fid, bid),
                candidate.delay(fid, bid),
                "{what}: pipeline disagrees with the direct drive at {fid}/{bid}"
            );
        }
    }
}

/// Runs every process of a design through the report stage.
fn report_all(pipeline: &Pipeline, design: &PreparedDesign) {
    for (proc, artifact) in design.platform.processes.iter().zip(design.artifacts()) {
        pipeline.process_report(artifact, &design.platform.pes[proc.pe.0].pum).expect("estimates");
    }
}

#[test]
fn pipelined_annotation_is_bit_identical_to_direct_drive() {
    let pipeline = Pipeline::new();
    let designs = designs(&pipeline, 8 << 10, 4 << 10);

    // Every process on the PUM it is mapped to.
    for design in &designs {
        for (proc, artifact) in design.platform.processes.iter().zip(design.artifacts()) {
            let pum = &design.platform.pes[proc.pe.0].pum;
            let direct = annotate_uncached(artifact.module(), pum).expect("annotates");
            let piped = pipeline.annotated(artifact, pum).expect("annotates");
            assert_delays_identical(&direct, &piped, &format!("{}/{}", pum.name, proc.name));
        }
    }

    // Every process under every scheduling policy (on the custom-HW
    // datapath, as in ablation A1 — the pipelined CPU model only supports
    // its native in-order policy).
    for &policy in &POLICIES {
        let mut pum = tlm_core::library::custom_hw("reuse", 2, 2);
        pum.execution.policy = policy;
        for design in &designs {
            for artifact in design.artifacts() {
                let direct = annotate_uncached(artifact.module(), &pum).expect("annotates");
                let piped = pipeline.annotated(artifact, &pum).expect("annotates");
                assert_delays_identical(&direct, &piped, &format!("{policy:?}"));
            }
        }
    }
}

#[test]
fn pipelined_timed_tlm_is_bit_identical_to_direct_drive() {
    let pipeline = Pipeline::new();
    let config = TlmConfig::default();
    for design in designs(&pipeline, 8 << 10, 4 << 10) {
        let piped = pipeline.run_timed(&design, &config).expect("runs");

        let timed: Vec<Arc<TimedModule>> = design
            .platform
            .processes
            .iter()
            .zip(design.artifacts())
            .map(|(proc, artifact)| {
                let pum = &design.platform.pes[proc.pe.0].pum;
                Arc::new(annotate_uncached(artifact.module(), pum).expect("annotates"))
            })
            .collect();
        let annotated = AnnotatedPlatform { timed, annotation_time: Duration::ZERO };
        let direct = run_annotated(&design.platform, Some(&annotated), &config);

        assert_eq!(piped.end_time, direct.end_time, "simulated end time diverged");
        assert_eq!(piped.pe_busy, direct.pe_busy, "per-PE busy cycles diverged");
        assert_eq!(piped.outputs, direct.outputs, "process outputs diverged");
    }
}

#[test]
fn cache_size_sweep_reuses_everything_above_algorithm2() {
    let pipeline = Pipeline::new();
    let mut design = mp3_design(&pipeline, Mp3Design::Sw, Mp3Params::training(), 8 << 10, 4 << 10)
        .expect("builds");
    let n = design.artifacts().len() as u64;
    let distinct: HashSet<&[u8]> = design.artifacts().iter().map(|a| a.key()).collect();
    assert_eq!(distinct.len() as u64, n, "MP3 processes lower from distinct sources");

    // Building the design runs the front-end once per process and demands
    // nothing downstream.
    let built = pipeline.stats();
    assert_eq!(built.ast.misses, n);
    assert_eq!(built.module.misses, n);
    assert_eq!(built.prepared.hits + built.prepared.misses, 0);
    assert_eq!(built.report.hits + built.report.misses, 0);

    // Sweep point A: everything is cold.
    report_all(&pipeline, &design);
    let a = pipeline.stats();
    assert_eq!(a.report.misses, n);
    assert_eq!(a.report.hits, 0);
    assert_eq!(a.annotated.misses, n);
    assert_eq!(a.prepared.misses, n);
    assert!(a.schedules.misses > 0, "point A must run Algorithm 1");

    // Sweep point B: only the statistical models change, so only the
    // annotated and report stages re-key. The front-end is never even
    // consulted, prepared modules hit, and Algorithm 1 never re-runs.
    for pe in &mut design.platform.pes {
        pe.pum = pe.pum.with_cache_sizes(2 << 10, 2 << 10);
    }
    report_all(&pipeline, &design);
    let b = pipeline.stats();
    assert_eq!(b.report.misses, a.report.misses + n);
    assert_eq!(b.annotated.misses, a.annotated.misses + n);
    assert_eq!(b.prepared.hits, a.prepared.hits + n);
    assert_eq!(b.prepared.misses, a.prepared.misses);
    assert_eq!(b.schedules.misses, a.schedules.misses, "Algorithm 1 re-ran during a sweep");
    assert!(b.schedules.hits > a.schedules.hits, "point B's schedules come from the cache");
    assert_eq!(b.ast, a.ast);
    assert_eq!(b.module.misses, a.module.misses);

    // Point B again, verbatim: the report stage short-circuits the whole
    // graph — n hits there, zero lookups anywhere else.
    report_all(&pipeline, &design);
    let c = pipeline.stats();
    assert_eq!(c.report.hits, b.report.hits + n);
    assert_eq!(c.report.misses, b.report.misses);
    assert_eq!(c.annotated, b.annotated);
    assert_eq!(c.prepared, b.prepared);
    assert_eq!(c.schedules, b.schedules);
    assert_eq!(c.ast, b.ast);
    assert_eq!(c.module, b.module);
}

/// Calls `each` with every (process artifact, PUM) demand of the four MP3
/// designs over `CACHE_SWEEP`, the designs built through `pipeline`.
fn mp3_sweep(pipeline: &Pipeline, mut each: impl FnMut(&ModuleArtifact, &Pum)) {
    for design in Mp3Design::ALL {
        let built = mp3_design(pipeline, design, Mp3Params::evaluation(), 8 << 10, 4 << 10)
            .expect("builds");
        for &(_, ic, dc) in &CACHE_SWEEP {
            for (proc, artifact) in built.platform.processes.iter().zip(built.artifacts()) {
                each(artifact, &built.platform.pes[proc.pe.0].pum.with_cache_sizes(ic, dc));
            }
        }
    }
}

/// The PUM-keyed stages hold their keys as a PUM encoding plus a shared
/// input, but charge each entry the length of the flat
/// `len(PUM) ‖ PUM ‖ input` encoding, so budgets and resident bytes keep
/// the meaning they had when that flat string was the key. Byte-equal
/// inputs from another pipeline's artifacts hit the same entries.
#[test]
fn estimate_stages_charge_the_flat_key_length() {
    let pipeline = Pipeline::new();
    let mut module_pairs: HashSet<(String, Vec<u8>)> = HashSet::new();
    let mut function_pairs: HashSet<(String, Vec<u8>)> = HashSet::new();
    mp3_sweep(&pipeline, |artifact, pum| {
        pipeline.process_report(artifact, pum).expect("estimates");
        pipeline.report_from_rows(artifact, pum).expect("estimates");
        let domain = pum.estimate_domain();
        let prepared = pipeline.prepared(artifact).expect("prepares");
        for (fid, _) in prepared.module().functions_iter() {
            let input = prepared.function_structural_key(fid).to_vec();
            function_pairs.insert((domain.clone(), input));
        }
        module_pairs.insert((domain, artifact.key().to_vec()));
    });
    let charge = |pairs: &HashSet<(String, Vec<u8>)>| -> u64 {
        pairs.iter().map(|(pum, input)| (8 + pum.len() + input.len()) as u64).sum()
    };
    let stats = pipeline.stats();
    assert_eq!(stats.annotated.entries, module_pairs.len());
    assert_eq!(stats.annotated.bytes, charge(&module_pairs));
    assert_eq!(stats.report.entries, module_pairs.len());
    assert_eq!(stats.report.bytes, charge(&module_pairs));
    assert_eq!(stats.rows.entries, function_pairs.len());
    assert_eq!(stats.rows.bytes, charge(&function_pairs));

    // The same sources lowered by another pipeline: distinct `Arc`s with
    // equal bytes, so every demand hits and nothing new becomes resident.
    let other = Pipeline::new();
    let mut demands = 0;
    mp3_sweep(&other, |artifact, pum| {
        pipeline.process_report(artifact, pum).expect("estimates");
        pipeline.report_from_rows(artifact, pum).expect("estimates");
        demands += 1;
    });
    let again = pipeline.stats();
    assert_eq!(again.report.hits, stats.report.hits + demands);
    assert_eq!((again.report.misses, again.rows.misses), (stats.report.misses, stats.rows.misses));
    assert_eq!((again.report.bytes, again.rows.bytes), (stats.report.bytes, stats.rows.bytes));
    assert_eq!(again.annotated, stats.annotated, "report hits reach no further");
}

/// A [`Pipeline::reports_for`] handle answers exactly what
/// `process_report` answers: the same resident `Arc` for every MP3 design
/// × `CACHE_SWEEP` demand, and identical stage counters on two fresh
/// pipelines driven one way each.
#[test]
fn one_pum_handle_matches_process_report() {
    let pipeline = Pipeline::new();
    mp3_sweep(&pipeline, |artifact, pum| {
        let via_handle = pipeline.reports_for(pum).report(artifact).expect("estimates");
        let direct = pipeline.process_report(artifact, pum).expect("estimates");
        assert!(Arc::ptr_eq(&via_handle, &direct), "handle and process_report share an entry");
    });

    let (by_handle, by_call) = (Pipeline::new(), Pipeline::new());
    for pass in 0..2 {
        mp3_sweep(&by_handle, |artifact, pum| {
            by_handle.reports_for(pum).report(artifact).expect("estimates");
        });
        mp3_sweep(&by_call, |artifact, pum| {
            by_call.process_report(artifact, pum).expect("estimates");
        });
        let (a, b) = (by_handle.stats(), by_call.stats());
        for ((name, x), (_, y)) in a.stages().into_iter().zip(b.stages()) {
            assert_eq!(
                (x.hits, x.misses, x.bytes),
                (y.hits, y.misses, y.bytes),
                "{name}, pass {pass}"
            );
        }
    }
    assert!(by_handle.stats().report.hits > 0, "the second pass hits");
}

#[test]
fn platform_edit_reuses_untouched_processes_end_to_end() {
    let pipeline = Pipeline::new();
    let mut design =
        mp3_design(&pipeline, Mp3Design::SwPlus4, Mp3Params::training(), 8 << 10, 4 << 10)
            .expect("builds");
    report_all(&pipeline, &design);
    let before = pipeline.stats();

    // Edit one PE: the CPU (running source and sink) gets bigger caches.
    // The four accelerator PEs are untouched.
    let edited = design
        .platform
        .processes
        .iter()
        .find(|p| p.name == "sink")
        .expect("sink process exists")
        .pe;
    let new_pum = design.platform.pes[edited.0].pum.with_cache_sizes(32 << 10, 16 << 10);
    assert_ne!(new_pum, design.platform.pes[edited.0].pum, "the edit must re-key the CPU");
    design.platform.pes[edited.0].pum = new_pum;

    let touched: HashSet<&[u8]> = design
        .platform
        .processes
        .iter()
        .zip(design.artifacts())
        .filter(|(proc, _)| proc.pe == edited)
        .map(|(_, artifact)| artifact.key())
        .collect();
    let touched_count = design.platform.processes.iter().filter(|p| p.pe == edited).count();
    let untouched = design.platform.processes.len() - touched_count;
    assert!(touched_count >= 1 && untouched >= 1, "the edit must split the design");

    report_all(&pipeline, &design);
    let after = pipeline.stats();

    // Untouched processes hit at the report stage — end to end, no
    // upstream stage sees them. Touched processes re-run Algorithm 2
    // only: prepared modules hit and the schedule domain is unchanged.
    assert_eq!(after.report.hits, before.report.hits + untouched as u64);
    assert_eq!(after.report.misses, before.report.misses + touched.len() as u64);
    assert_eq!(after.annotated.misses, before.annotated.misses + touched.len() as u64);
    assert_eq!(after.prepared.hits, before.prepared.hits + touched.len() as u64);
    assert_eq!(after.prepared.misses, before.prepared.misses);
    assert_eq!(after.schedules.misses, before.schedules.misses);
    assert_eq!(after.ast, before.ast);
    assert_eq!(after.module, before.module);
}

/// One session edit per bundled app: a single-function **structural**
/// patch (op-class change — constant tweaks are clean, operand values
/// are not part of block identity).
struct EditCase {
    name: &'static str,
    design: fn(&Pipeline) -> PreparedDesign,
    process: &'static str,
    find: &'static str,
    replace: &'static str,
}

const EDIT_CASES: [EditCase; 4] = [
    EditCase {
        name: "mp3:sw",
        design: |p| {
            mp3_design(p, Mp3Design::Sw, Mp3Params::training(), 8 << 10, 4 << 10).expect("builds")
        },
        process: "sink",
        find: "checksum = (checksum ^ mono) + (mono & 255);",
        replace: "checksum = (checksum ^ mono) * (mono & 255);",
    },
    EditCase {
        name: "mp3:sw+4",
        design: |p| {
            mp3_design(p, Mp3Design::SwPlus4, Mp3Params::training(), 8 << 10, 4 << 10)
                .expect("builds")
        },
        process: "sink",
        find: "checksum = (checksum ^ mono) + (mono & 255);",
        replace: "checksum = (checksum ^ mono) * (mono & 255);",
    },
    EditCase {
        name: "image:sw",
        design: |p| image_design(p, false, ImageParams::small(), 8 << 10, 4 << 10).expect("builds"),
        process: "encoder",
        find: "packed[n] = run * 4096 + (level & 4095);",
        replace: "packed[n] = run * 4096 * (level & 4095);",
    },
    EditCase {
        name: "image:hw",
        design: |p| image_design(p, true, ImageParams::small(), 8 << 10, 4 << 10).expect("builds"),
        process: "camera",
        find: "base + y * 6 + x * 3 + noise - 128;",
        replace: "base + y * 6 * x * 3 + noise - 128;",
    },
];

/// The delta path's counter contract, table-driven over every bundled
/// app: a single-function structural edit moves each stage by *exactly*
/// the dirty set — one front-end pass for the new source, one `rows`
/// recompute for the dirty function, zero traffic through the
/// whole-module `annotated` and `report` stages — and the spliced
/// report for the edited process is bit-identical to a cold full run on
/// a fresh pipeline.
#[test]
fn session_edit_recomputes_exactly_the_dirty_set() {
    for case in &EDIT_CASES {
        let pipeline = Pipeline::new();
        let design = (case.design)(&pipeline);
        let store = SessionStore::new(u64::MAX, Duration::from_secs(3600));
        let sweep = vec![SweepPoint { label: "8k/4k".into(), icache: 8 << 10, dcache: 4 << 10 }];
        let (id, _) = store.create(&pipeline, &design, sweep, false).expect("creates");

        let before = pipeline.stats();
        let edit = SourceEdit::Patch { find: case.find, replace: case.replace };
        let (report, view) = store.edit(&pipeline, id, case.process, &edit).expect("edit applies");
        let after = pipeline.stats();

        assert_eq!(report.dirty_functions, 1, "{}: one function structurally changed", case.name);
        assert_eq!(
            report.added_functions + report.removed_functions,
            0,
            "{}: the patch rewrites a body, not the function set",
            case.name
        );

        // Front-end: exactly one pass over the new source.
        assert_eq!(after.ast.misses, before.ast.misses + 1, "{}", case.name);
        assert_eq!(after.module.misses, before.module.misses + 1, "{}", case.name);
        assert_eq!(after.prepared.misses, before.prepared.misses + 1, "{}", case.name);
        // Delta re-estimation: exactly the dirty function misses in the
        // rows stage; everything else splices from retained rows.
        assert_eq!(
            after.rows.misses,
            before.rows.misses + 1,
            "{}: exactly the dirty function recomputes",
            case.name
        );
        // The whole-module stages never see session traffic.
        assert_eq!(after.annotated, before.annotated, "{}", case.name);
        assert_eq!(after.report, before.report, "{}", case.name);
        // Algorithm 1 re-runs are bounded by the dirty function's blocks
        // (identical-shape dedup can only shrink the batch).
        let scheduled = (after.schedules.hits + after.schedules.misses)
            - (before.schedules.hits + before.schedules.misses);
        assert!(
            (1..=report.dirty_blocks as u64).contains(&scheduled),
            "{}: {scheduled} schedule lookups for {} dirty blocks",
            case.name,
            report.dirty_blocks
        );

        // Bit-identity: the spliced report equals a cold full run of the
        // edited source on a fresh pipeline.
        let proc_idx = design
            .platform
            .processes
            .iter()
            .position(|p| p.name == case.process)
            .expect("process exists");
        let artifact = &design.artifacts()[proc_idx];
        let edited = artifact.source().replacen(case.find, case.replace, 1);
        let pe = design.platform.processes[proc_idx].pe;
        let pum = design.platform.pes[pe.0].pum.with_cache_sizes(8 << 10, 4 << 10);

        let cold_pipeline = Pipeline::new();
        let cold_artifact = cold_pipeline
            .frontend_with(&edited, artifact.optimize())
            .expect("edited source builds");
        let cold = cold_pipeline.process_report(&cold_artifact, &pum).expect("estimates");
        let spliced = &view.sweep[0].processes[proc_idx].report;
        assert_eq!(
            **spliced, *cold,
            "{}: spliced report diverged from the cold full run",
            case.name
        );
    }
}

/// The splice assembly path (`report_from_rows`) is bit-identical to the
/// whole-module report path under every scheduling policy, down to the
/// rendered per-block JSON — the same guarantee
/// `pipelined_annotation_is_bit_identical_to_direct_drive` gives for the
/// annotated stage, one level up.
#[test]
fn spliced_reports_are_bit_identical_across_policies() {
    let pipeline = Pipeline::new();
    let designs = designs(&pipeline, 8 << 10, 4 << 10);

    for &policy in &POLICIES {
        let mut pum = tlm_core::library::custom_hw("splice", 2, 2);
        pum.execution.policy = policy;
        for design in &designs {
            for artifact in design.artifacts() {
                let spliced = pipeline.report_from_rows(artifact, &pum).expect("splices");
                let full = pipeline.process_report(artifact, &pum).expect("estimates");
                assert_eq!(*spliced, *full, "{policy:?}: splice diverged from the report stage");
                assert_eq!(
                    spliced.functions_json(),
                    full.functions_json(),
                    "{policy:?}: spliced and whole-module reports render different rows"
                );
            }
        }
    }

    // And on the native mapped PUMs, where the serving path lives.
    for design in &designs {
        for (proc, artifact) in design.platform.processes.iter().zip(design.artifacts()) {
            let pum = &design.platform.pes[proc.pe.0].pum;
            let spliced = pipeline.report_from_rows(artifact, pum).expect("splices");
            let full = pipeline.process_report(artifact, pum).expect("estimates");
            assert_eq!(*spliced, *full, "{}: splice diverged on the native PUM", proc.name);
        }
    }
}
