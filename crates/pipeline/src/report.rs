//! The terminal pipeline artifact: a static, deterministic estimation
//! report for one (module, PUM) pair.
//!
//! Unlike [`AnnotationReport`](tlm_core::annotate::AnnotationReport), this
//! carries no wall-clock or cache-occupancy observations — it is a pure
//! function of its stage key, so a server can hand it out verbatim across
//! requests without breaking the determinism contract.
//!
//! A report is immutable once built (its fields are read through
//! accessors), so its per-block rows are rendered to JSON at most once:
//! [`EstimateReport::functions_json`] fills a cache on first use and every
//! later per-block response copies those bytes.

use std::fmt;
use std::sync::OnceLock;

use tlm_core::annotate::TimedModule;
use tlm_core::delay::sum_cycles;
use tlm_json::{ArrayWriter, ObjectWriter};

/// Per-block delay decomposition (the paper's Algorithm 2 terms).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReport {
    /// Block id within its function.
    pub block: u32,
    /// Algorithm 1 schedule length in cycles.
    pub sched: u64,
    /// Expected branch-misprediction penalty cycles.
    pub branch: f64,
    /// Expected instruction-fetch stall cycles.
    pub ifetch: f64,
    /// Expected data-access stall cycles.
    pub data: f64,
    /// Total annotated cycles (the value the generated `wait()` carries).
    pub cycles: u64,
}

/// One function's block rows, in block order.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Per-block delays, indexed by block id.
    pub blocks: Vec<BlockReport>,
}

/// The full estimation report of one module under one PUM.
///
/// `==` and `Debug` see only the estimate, never whether
/// [`EstimateReport::functions_json`] has been rendered.
#[derive(Clone)]
pub struct EstimateReport {
    blocks: usize,
    ops: usize,
    total_cycles: u64,
    functions: Vec<FunctionReport>,
    /// `functions` as a compact JSON array, rendered on first demand.
    functions_json: OnceLock<Box<str>>,
}

impl EstimateReport {
    /// A report of its parts; `total_cycles` must be the sum of the
    /// functions' block cycles.
    pub(crate) fn new(
        blocks: usize,
        ops: usize,
        total_cycles: u64,
        functions: Vec<FunctionReport>,
    ) -> EstimateReport {
        EstimateReport { blocks, ops, total_cycles, functions, functions_json: OnceLock::new() }
    }

    /// Extracts the deterministic report of an annotated module. Its total
    /// fits in a `u64`: annotation rejects a module whose block cycles sum
    /// past `u64::MAX`.
    pub fn of(timed: &TimedModule) -> EstimateReport {
        let module = timed.module();
        let mut functions = Vec::with_capacity(module.functions.len());
        for (fid, func) in module.functions_iter() {
            let mut blocks = Vec::with_capacity(func.blocks.len());
            for (bid, _) in func.blocks_iter() {
                let d = timed.delay(fid, bid);
                blocks.push(BlockReport {
                    block: bid.0,
                    sched: d.sched,
                    branch: d.branch,
                    ifetch: d.ifetch,
                    data: d.data,
                    cycles: d.cycles,
                });
            }
            functions.push(FunctionReport { name: func.name.clone(), blocks });
        }
        let total_cycles =
            sum_cycles(functions.iter().flat_map(|f| f.blocks.iter().map(|b| b.cycles)))
                .expect("annotation bounds the cycle total");
        let report = timed.report();
        EstimateReport::new(report.blocks, report.ops, total_cycles, functions)
    }

    /// Basic blocks annotated.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Operations scheduled.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Sum of annotated cycles over all blocks (each counted once).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Per-function delay rows, in module order.
    pub fn functions(&self) -> &[FunctionReport] {
        &self.functions
    }

    /// The per-function rows as one compact JSON array:
    /// `[{"name":…,"blocks":[{"block":…,"sched":…,"branch":…,"ifetch":…,"data":…,"cycles":…},…]},…]`.
    ///
    /// Rendered on the first call and cached on the report; every later
    /// call returns the same bytes without formatting a number. Integer
    /// fields go through `as f64`, so the bytes equal those of the
    /// equivalent `tlm_json::Value` tree.
    pub fn functions_json(&self) -> &str {
        self.functions_json.get_or_init(|| render_functions(&self.functions))
    }
}

/// Renders the `"functions"` array.
fn render_functions(functions: &[FunctionReport]) -> Box<str> {
    let mut out = String::new();
    let mut array = ArrayWriter::new(&mut out);
    for func in functions {
        let mut function = ObjectWriter::new(array.item()).string("name", &func.name);
        let mut blocks = ArrayWriter::new(function.key("blocks"));
        for b in &func.blocks {
            ObjectWriter::new(blocks.item())
                .number("block", f64::from(b.block))
                .number("sched", b.sched as f64)
                .number("branch", b.branch)
                .number("ifetch", b.ifetch)
                .number("data", b.data)
                .number("cycles", b.cycles as f64)
                .finish();
        }
        blocks.finish();
        function.finish();
    }
    array.finish();
    out.into_boxed_str()
}

impl PartialEq for EstimateReport {
    fn eq(&self, other: &EstimateReport) -> bool {
        self.blocks == other.blocks
            && self.ops == other.ops
            && self.total_cycles == other.total_cycles
            && self.functions == other.functions
    }
}

impl fmt::Debug for EstimateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EstimateReport")
            .field("blocks", &self.blocks)
            .field("ops", &self.ops)
            .field("total_cycles", &self.total_cycles)
            .field("functions", &self.functions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EstimateReport {
        let row = |block, branch| BlockReport {
            block,
            sched: 3,
            branch,
            ifetch: 0.1 + 0.2,
            data: 1e-7,
            cycles: 5,
        };
        let functions = vec![
            FunctionReport { name: "main".into(), blocks: vec![row(0, 0.0), row(1, 2.5)] },
            FunctionReport { name: "q\"\n".into(), blocks: Vec::new() },
        ];
        EstimateReport::new(2, 6, 10, functions)
    }

    #[test]
    fn rows_render_once_and_stay_put() {
        let report = report();
        assert!(
            report.functions_json.get().is_none(),
            "nothing is rendered before the first demand"
        );
        let first = report.functions_json();
        assert_eq!(
            first,
            r#"[{"name":"main","blocks":[{"block":0,"sched":3,"branch":0,"ifetch":0.30000000000000004,"data":1e-7,"cycles":5},{"block":1,"sched":3,"branch":2.5,"ifetch":0.30000000000000004,"data":1e-7,"cycles":5}]},{"name":"q\"\n","blocks":[]}]"#
        );
        let second = report.functions_json();
        assert!(std::ptr::eq(first, second), "a second render returns the same allocation");
    }

    #[test]
    fn equality_and_clones_ignore_the_rendering() {
        let (plain, rendered) = (report(), report());
        rendered.functions_json();
        assert_eq!(plain, rendered);
        assert_eq!(format!("{plain:?}"), format!("{rendered:?}"));
        let (plain_clone, rendered_clone) = (plain.clone(), rendered.clone());
        assert_eq!(plain_clone, rendered_clone);
        assert_eq!(plain_clone, plain);
        assert_eq!(plain_clone.functions_json(), rendered_clone.functions_json());
    }
}
