//! Shared harness for the table-regeneration binaries, the accuracy
//! tests and the repository benchmark (`tlmbench`).
//!
//! The central piece is the **characterization flow** (the paper's implicit
//! calibration step): the statistical parameters of the CPU's PUM — cache
//! hit rates per size, branch misprediction ratio, and this reproduction's
//! instruction/data expansion factors — are measured by running the
//! cycle-accurate board model on a *training* input. The accuracy tables
//! then estimate a *different* evaluation input, so the reported error is
//! genuine statistical-model error, exactly as in the paper (whose PUM
//! tables were calibrated against real platform runs).

#![forbid(unsafe_code)]

use tlm_apps::{build_mp3_platform, mp3_design, Mp3Design, Mp3Params};
use tlm_core::characterize::{apply_measurements, HitRateTable};
use tlm_core::parallel::par_map;
use tlm_desim::SimTime;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::{Pipeline, PreparedDesign};
use tlm_platform::desc::Platform;
use tlm_platform::tlm::{run_annotated, TlmConfig, TlmReport};

/// Cache sizes characterized for the MP3 experiments (union of the
/// i- and d-cache sizes swept by Tables 2/3).
pub const MP3_CACHE_SIZES: [u32; 5] = [2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10];

/// Measured statistical parameters of the CPU for one design.
#[derive(Debug, Clone)]
pub struct CpuCharacterization {
    /// I-cache hit rate per size (bytes).
    pub icache_rates: HitRateTable,
    /// D-cache hit rate per size (bytes).
    pub dcache_rates: HitRateTable,
    /// Branch misprediction ratio.
    pub mispredict_rate: f64,
    /// Target instructions fetched per CDFG op (incl. block terminators).
    pub fetch_expansion: f64,
    /// Data accesses per CDFG memory operand.
    pub data_expansion: f64,
}

/// Sums the interpreter statistics of the processes mapped to `pe_name`.
fn cpu_interp_stats(platform: &Platform, report: &TlmReport, pe_name: &str) -> (u64, u64, u64) {
    let mut ops_plus_blocks = 0u64;
    let mut mem = 0u64;
    let mut branches = 0u64;
    for proc in &platform.processes {
        if platform.pes[proc.pe.0].name == pe_name {
            let stats = report.processes[&proc.name].stats;
            ops_plus_blocks += stats.ops + stats.blocks;
            mem += stats.mem_accesses;
            branches += stats.branches;
        }
    }
    (ops_plus_blocks, mem, branches)
}

/// The aggregated measured counters of one PE in a board report.
fn pe_counters(report: &tlm_pcam::BoardReport, pe_name: &str) -> tlm_pcam::engine::EngineCounters {
    report.pe_counters.iter().find(|(n, _)| n == pe_name).map(|&(_, c)| c).unwrap_or_default()
}

/// Measures the statistical parameters of the PE named `"cpu"` on a
/// *training* platform family: `build(icache_bytes, dcache_bytes)` must
/// return the same design with different cache sizes, running the training
/// input. Works for any application, not just the MP3 decoder.
///
/// The per-size training runs are independent board simulations, so they
/// fan out over the available cores; the rate tables are merged back in
/// size order and are identical to what the sequential loop produced.
///
/// # Panics
///
/// Panics if any simulation fails or does not complete.
pub fn characterize_cpu_with(
    build: impl Fn(u32, u32) -> Platform + Sync,
    sizes: &[u32],
) -> CpuCharacterization {
    let mut icache_rates = HitRateTable::new();
    let mut dcache_rates = HitRateTable::new();
    let measured = par_map(sizes, |&size| {
        let platform = build(size, size);
        let board = run_board(&platform, &BoardConfig::default()).expect("board runs");
        assert!(board.all_finished(), "training run must complete");
        pe_counters(&board, "cpu")
    });
    for (&size, c) in sizes.iter().zip(measured) {
        if c.ifetches > 0 {
            icache_rates.insert(size, 1.0 - c.imisses as f64 / c.ifetches as f64);
        }
        if c.daccesses > 0 {
            dcache_rates.insert(size, 1.0 - c.dmisses as f64 / c.daccesses as f64);
        }
    }

    // Branch behaviour and expansion factors are cache-independent; measure
    // them once on a mid-size configuration.
    let platform = build(8 << 10, 4 << 10);
    let board = run_board(&platform, &BoardConfig::default()).expect("board runs");
    let c = pe_counters(&board, "cpu");
    let mispredict_rate =
        if c.branches > 0 { c.mispredicts as f64 / c.branches as f64 } else { 0.0 };
    let functional = run_annotated(&platform, None, &TlmConfig::default());
    let (ops_plus_blocks, mem, _branches) = cpu_interp_stats(&platform, &functional, "cpu");
    let fetch_expansion =
        if ops_plus_blocks > 0 { c.ifetches as f64 / ops_plus_blocks as f64 } else { 1.0 };
    let data_expansion = if mem > 0 { c.daccesses as f64 / mem as f64 } else { 1.0 };

    CpuCharacterization {
        icache_rates,
        dcache_rates,
        mispredict_rate,
        fetch_expansion,
        data_expansion,
    }
}

/// [`characterize_cpu_with`] specialized to the MP3 designs of Tables 2/3.
///
/// # Panics
///
/// Panics if any simulation fails (the built-in workloads never should).
pub fn characterize_cpu(design: Mp3Design, training: Mp3Params) -> CpuCharacterization {
    characterize_cpu_with(
        |ic, dc| build_mp3_platform(design, training, ic, dc).expect("platform builds"),
        &MP3_CACHE_SIZES,
    )
}

/// Applies a characterization to every PE named `"cpu"` in a platform.
pub fn apply_characterization(platform: &mut Platform, chr: &CpuCharacterization) {
    for pe in &mut platform.pes {
        if pe.name == "cpu" {
            apply_measurements(
                &mut pe.pum,
                &chr.icache_rates,
                &chr.dcache_rates,
                Some(chr.mispredict_rate),
            );
            pe.pum.memory.fetch_expansion = chr.fetch_expansion;
            pe.pum.memory.data_expansion = chr.data_expansion;
        }
    }
}

/// Builds the evaluation design with the characterized parameters applied
/// to the CPU's PUM. The modules come out of the process-wide
/// [`Pipeline`], so repeated builds (cache sweeps, design variants sharing
/// processes) reuse every parse/lower/optimize artifact, and the returned
/// [`PreparedDesign`] can be estimated through [`Pipeline::run_timed`] with
/// full per-stage memoization. Mutating the CPU PUM is safe: pipeline keys
/// cover modules, not PUMs.
///
/// # Panics
///
/// Panics if the platform cannot be built.
pub fn characterized_design(
    design: Mp3Design,
    params: Mp3Params,
    icache_bytes: u32,
    dcache_bytes: u32,
    chr: &CpuCharacterization,
) -> PreparedDesign {
    let mut prepared = mp3_design(Pipeline::global(), design, params, icache_bytes, dcache_bytes)
        .expect("platform builds");
    apply_characterization(&mut prepared.platform, chr);
    prepared
}

/// Converts a simulated end time to CPU-clock cycles (100 MHz domain), the
/// unit the paper's tables report.
pub fn end_time_cycles(end: SimTime) -> u64 {
    end.cycles(SimTime::from_ns(10))
}

/// Signed percentage error of `estimate` against `reference`.
pub fn error_pct(estimate: u64, reference: u64) -> f64 {
    if reference == 0 {
        return 0.0;
    }
    (estimate as f64 - reference as f64) / reference as f64 * 100.0
}

/// Formats a cycle count in millions, like the paper ("27.22M").
pub fn fmt_m(cycles: u64) -> String {
    format!("{:.2}M", cycles as f64 / 1.0e6)
}

/// A fixed-width text table writer for the experiment binaries.
#[derive(Debug, Default)]
pub struct TextTable {
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts an empty table.
    pub fn new() -> TextTable {
        TextTable::default()
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_pct_math() {
        assert_eq!(error_pct(110, 100), 10.0);
        assert_eq!(error_pct(90, 100), -10.0);
        assert_eq!(error_pct(5, 0), 0.0);
    }

    #[test]
    fn fmt_m_matches_paper_style() {
        assert_eq!(fmt_m(27_220_000), "27.22M");
        assert_eq!(fmt_m(5_830_000), "5.83M");
    }

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new();
        t.row(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["ccc".into(), "d".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn end_time_cycle_conversion() {
        assert_eq!(end_time_cycles(SimTime::from_ns(10)), 1);
        assert_eq!(end_time_cycles(SimTime::from_us(1)), 100);
    }
}
