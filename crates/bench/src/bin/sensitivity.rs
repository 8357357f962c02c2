//! The paper's stated future work (§6): sensitivity of the estimate to the
//! statistical memory and branch models — plus two ablations the design
//! calls out.
//!
//! ```text
//! cargo run -p tlm-bench --release --bin sensitivity
//! ```
//!
//! Sections:
//!
//! 1. **S1a** — perturb the characterized cache hit rates by ±δ and report
//!    how the SW-design estimate moves against the board measurement;
//! 2. **S1b** — sweep the branch misprediction ratio;
//! 3. **A1** — scheduling-policy ablation: the same kernels estimated on
//!    the custom-HW datapath under in-order/ASAP/ALAP/list policies;
//! 4. **A2** — `sc_wait` granularity ablation (§4.3): simulated end time
//!    and simulation wall time of the timed TLM as delays are applied every
//!    Nth transaction.

use tlm_apps::{kernels, Mp3Design, Mp3Params};
use tlm_bench::{
    characterize_cpu, characterized_design, end_time_cycles, error_pct, fmt_m, TextTable,
};
use tlm_core::parallel::par_map;
use tlm_core::pum::{MemoryPath, SchedulingPolicy};
use tlm_core::{library, Pum};
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::{Pipeline, PreparedDesign};
use tlm_platform::desc::Platform;
use tlm_platform::tlm::TlmConfig;

fn perturb_rates(platform: &mut Platform, delta: f64) {
    for pe in &mut platform.pes {
        if pe.name != "cpu" {
            continue;
        }
        for path in [&mut pe.pum.memory.ifetch, &mut pe.pum.memory.data] {
            if let MemoryPath::Cached(cache) = path {
                for rate in cache.hit_rates.values_mut() {
                    *rate = (*rate + delta).clamp(0.0, 1.0);
                }
            }
        }
    }
}

fn estimate_cycles(design: &PreparedDesign) -> u64 {
    let tlm = Pipeline::global().run_timed(design, &TlmConfig::default()).expect("TLM runs");
    end_time_cycles(tlm.end_time)
}

fn total_annotated(pum: &Pum, src: &str) -> u64 {
    // Unoptimized lowering, as the original ablation measured raw kernels.
    let pipeline = Pipeline::global();
    let artifact = pipeline.frontend_with(src, false).expect("compiles");
    let timed = pipeline.annotated(&artifact, pum).expect("annotates");
    artifact
        .module()
        .functions_iter()
        .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
        .map(|(fid, bid)| timed.cycles(fid, bid))
        .sum()
}

fn main() {
    let training = Mp3Params::training();
    let eval = Mp3Params::evaluation();
    let chr = characterize_cpu(Mp3Design::Sw, training);
    let base = characterized_design(Mp3Design::Sw, eval, 8 << 10, 4 << 10, &chr);
    let board = run_board(&base.platform, &BoardConfig::default()).expect("board runs");
    let measured = end_time_cycles(board.end_time);

    // S1a/S1b sweep points only vary the statistical models, so the
    // concurrent timed TLMs all reuse one Algorithm 1 schedule per block.
    println!("S1a — estimate sensitivity to cache hit-rate error (SW, 8k/4k)");
    let deltas = [-0.05, -0.02, -0.01, 0.0, 0.01, 0.02];
    let s1a = par_map(&deltas, |&delta| {
        let mut p = base.clone();
        perturb_rates(&mut p.platform, delta);
        estimate_cycles(&p)
    });
    let mut t = TextTable::new();
    t.row(vec!["Δ hit rate".into(), "TLM".into(), "err vs board".into()]);
    for (&delta, &est) in deltas.iter().zip(&s1a) {
        t.row(vec![
            format!("{delta:+.2}"),
            fmt_m(est),
            format!("{:+.2}%", error_pct(est, measured)),
        ]);
    }
    println!("{}", t.render());

    println!("S1b — estimate sensitivity to the branch misprediction ratio");
    let rates = [0.0, 0.1, 0.2, 0.3, 0.5];
    let s1b = par_map(&rates, |&rate| {
        let mut p = base.clone();
        for pe in &mut p.platform.pes {
            if let Some(b) = &mut pe.pum.branch {
                b.miss_rate = rate;
            }
        }
        estimate_cycles(&p)
    });
    let mut t = TextTable::new();
    t.row(vec!["miss rate".into(), "TLM".into(), "err vs board".into()]);
    for (&rate, &est) in rates.iter().zip(&s1b) {
        t.row(vec![format!("{rate:.2}"), fmt_m(est), format!("{:+.2}%", error_pct(est, measured))]);
    }
    println!("{}", t.render());

    println!("A1 — scheduling-policy ablation on the custom-HW datapath");
    let mut t = TextTable::new();
    let policies = [
        ("in-order", SchedulingPolicy::InOrder),
        ("asap", SchedulingPolicy::Asap),
        ("alap", SchedulingPolicy::Alap),
        ("list", SchedulingPolicy::List),
    ];
    let mut header = vec!["kernel".to_string()];
    header.extend(policies.iter().map(|(n, _)| (*n).to_string()));
    t.row(header);
    for kernel in kernels::suite() {
        let mut row = vec![kernel.name.to_string()];
        for (_, policy) in policies {
            let mut pum = library::custom_hw("ablate", 2, 2);
            pum.execution.policy = policy;
            row.push(total_annotated(&pum, &kernel.source).to_string());
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("(sums of per-block estimated cycles; list ≤ alap expected)\n");

    println!("A2 — sc_wait granularity ablation (§4.3), SW+4 design");
    let p4 = characterized_design(Mp3Design::SwPlus4, eval, 8 << 10, 4 << 10, &chr);
    let reference = estimate_cycles(&p4);
    let mut t = TextTable::new();
    t.row(vec!["granularity".into(), "end cycles".into(), "Δ vs g=1".into(), "sim wall".into()]);
    for g in [1u32, 2, 4, 16, 64] {
        let config = TlmConfig { granularity: g, ..TlmConfig::default() };
        let tlm = Pipeline::global().run_timed(&p4, &config).expect("TLM runs");
        let est = end_time_cycles(tlm.end_time);
        t.row(vec![
            g.to_string(),
            fmt_m(est),
            format!("{:+.2}%", error_pct(est, reference)),
            format!("{:.3}s", tlm.wall.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}
