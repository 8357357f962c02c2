//! The demand-driven stage graph.
//!
//! ```text
//! Source ──► Ast ──► Module(optimized) ──► PreparedModule ──┐
//!                                                           ├─► AnnotatedEstimate ──► Report
//!                                   Pum ──► BlockSchedules ─┘
//! ```
//!
//! Each stage is a content-addressed [`Store`] keyed by the
//! canonical encoding of its **true** inputs:
//!
//! | stage      | key                                          |
//! |------------|----------------------------------------------|
//! | ast        | source bytes                                 |
//! | module     | optimize flag ‖ source bytes                 |
//! | prepared   | module key                                   |
//! | schedules  | schedule domain ‖ block key (`ScheduleCache`)|
//! | annotated  | len(PUM) ‖ canonical PUM ‖ module key        |
//! | report     | annotated key                                |
//! | rows       | len(PUM) ‖ canonical PUM ‖ function structural key |
//!
//! The `rows` stage is the per-function half of the report: block delay
//! rows keyed by the function's *structural* identity
//! ([`PreparedModule::function_structural_key`]) instead of the whole
//! module key. Edit-to-estimate sessions demand reports through it
//! ([`Pipeline::report_from_rows`]) so an edit re-keys only the functions
//! it structurally changed; every untouched function hits, whatever else
//! in the file moved.
//!
//! Demand flows top-down and stops at the first hit: a report-stage hit
//! performs **no** lookups on the annotated, prepared or schedule stages.
//! Invalidation is by construction — an edit to any input changes the keys
//! of exactly the stages that can see it, so a cache-size sweep (which
//! changes only the PUM's statistical models) re-keys the annotated and
//! report stages while every stage above Algorithm 2 hits, and a platform
//! edit touching one PE re-keys only the processes mapped to it.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tlm_cdfg::ir::Module;
use tlm_cdfg::FuncId;
use tlm_core::annotate::{
    annotate_function_in_domain, annotate_in_domain, PreparedModule, TimedModule,
};
use tlm_core::cache::ScheduleDomain;
use tlm_core::store::{Store, StoreStats};
use tlm_core::{Pum, ScheduleCache};
use tlm_faults::Kind;
use tlm_json::Value;
use tlm_minic::Program;
use tlm_platform::desc::{Platform, PlatformError};
use tlm_platform::json::platform_from_value_with;
use tlm_platform::tlm::{run_annotated, AnnotatedPlatform, TlmConfig, TlmReport};

use crate::design::PreparedDesign;
use crate::error::PipelineError;
use crate::report::{BlockReport, EstimateReport, FunctionReport};

/// One stage's store: artifacts or the deterministic error computing them
/// raised, every lookup reported to [`crate::observe`].
type Stage<T> = Store<T, PipelineError>;

fn stage<T: Clone>(name: &'static str) -> Stage<T> {
    Store::observed(name, crate::observe::emit)
}

/// A module artifact: the lowered (and optionally optimized) CDFG together
/// with its content-addressed key.
///
/// The key is the canonical encoding of the module's true inputs (the
/// optimize flag and the full source text), so it is valid across
/// [`Pipeline`] instances: an artifact obtained from one pipeline demands
/// the same downstream entries in any other.
#[derive(Debug, Clone)]
pub struct ModuleArtifact {
    key: Arc<[u8]>,
    module: Arc<Module>,
}

impl ModuleArtifact {
    /// The lowered module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The canonical stage key (optimize flag ‖ source bytes).
    pub fn key(&self) -> &[u8] {
        &self.key
    }
}

/// Counter snapshots of every stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// `Source → Ast` (parse).
    pub ast: StoreStats,
    /// `Ast → Module` (lower + optional optimize).
    pub module: StoreStats,
    /// `Module → PreparedModule` (per-block DFGs and schedule keys).
    pub prepared: StoreStats,
    /// `PreparedModule × domain → BlockSchedules` (Algorithm 1).
    pub schedules: StoreStats,
    /// `PreparedModule × PUM → AnnotatedEstimate` (Algorithm 2).
    pub annotated: StoreStats,
    /// `AnnotatedEstimate → Report`.
    pub report: StoreStats,
    /// `Function structure × PUM → block delay rows` (the per-function
    /// stage incremental sessions splice reports from).
    pub rows: StoreStats,
}

impl PipelineStats {
    /// The stages with their canonical names, for iteration (metrics
    /// exporters, gates).
    pub fn stages(&self) -> [(&'static str, StoreStats); 7] {
        [
            ("ast", self.ast),
            ("module", self.module),
            ("prepared", self.prepared),
            ("schedules", self.schedules),
            ("annotated", self.annotated),
            ("report", self.report),
            ("rows", self.rows),
        ]
    }
}

/// The pipeline: one store per stage plus the Algorithm 1 schedule cache.
///
/// All methods take `&self` and are safe to call concurrently; each
/// stage's computation runs exactly once per key regardless of how many
/// threads demand it. Results are bit-identical to the direct sequential
/// drive (`parse → lower → optimize → annotate_uncached`) — asserted by
/// `tests/pipeline_reuse.rs` for every app design × every scheduling
/// policy.
#[derive(Debug)]
pub struct Pipeline {
    ast: Stage<Arc<Program>>,
    module: Stage<Arc<Module>>,
    prepared: Stage<Arc<PreparedModule>>,
    schedules: ScheduleCache,
    annotated: Stage<Arc<TimedModule>>,
    report: Stage<Arc<EstimateReport>>,
    rows: Stage<Arc<Vec<BlockReport>>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline {
            ast: stage("ast"),
            module: stage("module"),
            prepared: stage("prepared"),
            schedules: ScheduleCache::new(),
            annotated: stage("annotated"),
            report: stage("report"),
            rows: stage("rows"),
        }
    }

    /// A pipeline whose resident artifact keys are bounded by roughly
    /// `total` bytes. Half the budget goes to the Algorithm 1 schedule
    /// cache — its entries are the expensive ones to recompute — and the
    /// rest is split evenly across the six stage stores. Eviction is
    /// second-chance generational; results stay bit-identical across
    /// evictions because every stage is a pure function of its key.
    pub fn with_budget(total: u64) -> Pipeline {
        let pipeline = Pipeline::new();
        pipeline.set_budget(total);
        pipeline
    }

    /// Re-partitions the resident-byte budget as in
    /// [`Pipeline::with_budget`]; `u64::MAX` disables eviction. Takes
    /// effect on subsequent insertions.
    pub fn set_budget(&self, total: u64) {
        let (schedules, per_stage) =
            if total == u64::MAX { (u64::MAX, u64::MAX) } else { (total / 2, total / 12) };
        self.schedules.set_budget(schedules);
        self.ast.set_budget(per_stage);
        self.module.set_budget(per_stage);
        self.prepared.set_budget(per_stage);
        self.annotated.set_budget(per_stage);
        self.report.set_budget(per_stage);
        self.rows.set_budget(per_stage);
    }

    /// The process-wide pipeline. Sweep drivers and builders that estimate
    /// the same sources under many configurations get cross-run reuse
    /// through this instance for free.
    pub fn global() -> &'static Pipeline {
        static GLOBAL: OnceLock<Pipeline> = OnceLock::new();
        GLOBAL.get_or_init(Pipeline::new)
    }

    /// `Source → Ast`: parses MiniC source, keyed by the source bytes.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] if the source does not parse.
    pub fn ast(&self, source: &str) -> Result<Arc<Program>, PipelineError> {
        self.ast.get_or_try(source.as_bytes(), || Ok(Arc::new(tlm_minic::parse(source)?)))
    }

    /// The shared front-end: `Source → Ast → Module` with the scalar
    /// cleanup passes applied (how every built-in design is lowered).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] or [`PipelineError::Lower`].
    pub fn frontend(&self, source: &str) -> Result<ModuleArtifact, PipelineError> {
        self.frontend_with(source, true)
    }

    /// [`Pipeline::frontend`] with the optimize flag explicit. The flag is
    /// part of the module key: optimized and unoptimized lowerings of the
    /// same source are distinct artifacts. The key encoding lives in
    /// [`crate::routing::module_stage_key`] so request routers can derive
    /// it without running any stage.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::frontend`].
    pub fn frontend_with(
        &self,
        source: &str,
        optimize: bool,
    ) -> Result<ModuleArtifact, PipelineError> {
        let key = crate::routing::module_stage_key(source, optimize);
        let module = self.module.get_or_try(&key, || {
            let program = self.ast(source)?;
            let mut module = tlm_cdfg::lower::lower(&program)?;
            if optimize {
                tlm_cdfg::passes::optimize(&mut module);
            }
            Ok(Arc::new(module))
        })?;
        Ok(ModuleArtifact { key: key.into(), module })
    }

    /// `Module → PreparedModule`: per-block DFGs and canonical schedule
    /// keys, keyed by the module key.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed artifact; typed for uniformity.
    pub fn prepared(
        &self,
        artifact: &ModuleArtifact,
    ) -> Result<Arc<PreparedModule>, PipelineError> {
        self.prepared.get_or_try(&artifact.key, || {
            Ok(Arc::new(PreparedModule::new(Arc::clone(&artifact.module))))
        })
    }

    /// `PreparedModule × PUM → AnnotatedEstimate`: Algorithms 1 and 2 over
    /// every block, keyed by the canonical PUM encoding plus the module
    /// key. Algorithm 1 results come from the pipeline's schedule cache,
    /// which keys by schedule *domain* — so two PUMs differing only in
    /// their statistical models share every schedule entry.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Estimate`] if the PUM is invalid or cannot execute
    /// some block.
    pub fn annotated(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<TimedModule>, PipelineError> {
        self.annotated.get_or_try(&self.estimate_key(artifact, pum), || {
            // Chaos-build injection point: a transient draw fails the
            // compute retryably (the stage drops the slot, the next demand
            // recomputes); a delay draw just stretches it.
            if let Some(fault) =
                tlm_faults::point("pipeline.stage.compute", &[Kind::Transient, Kind::Delay])
            {
                fault.fire();
                if fault.kind() == Kind::Transient {
                    return Err(PipelineError::transient(
                        "injected fault at pipeline.stage.compute",
                    ));
                }
            }
            let prepared = self.prepared(artifact)?;
            let handle = self.schedules.domain(&ScheduleDomain::of(pum));
            Ok(Arc::new(annotate_in_domain(&prepared, pum, &handle)?))
        })
    }

    /// `AnnotatedEstimate → Report`: the static per-block delay report,
    /// keyed like the annotated stage. A hit here short-circuits the whole
    /// graph — no upstream stage sees a lookup.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn process_report(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<EstimateReport>, PipelineError> {
        self.report.get_or_try(&self.estimate_key(artifact, pum), || {
            let timed = self.annotated(artifact, pum)?;
            Ok(Arc::new(EstimateReport::of(&timed)))
        })
    }

    /// The canonical key of the annotated/report stages: the PUM's full
    /// canonical encoding ([`Pum::estimate_domain`], length-prefixed so it
    /// can never blur into the module key) followed by the module key.
    fn estimate_key(&self, artifact: &ModuleArtifact, pum: &Pum) -> Vec<u8> {
        let pum_bytes = pum.estimate_domain().into_bytes();
        let mut key = Vec::with_capacity(8 + pum_bytes.len() + artifact.key.len());
        key.extend_from_slice(&(pum_bytes.len() as u64).to_le_bytes());
        key.extend_from_slice(&pum_bytes);
        key.extend_from_slice(&artifact.key);
        key
    }

    /// The canonical key of the `rows` stage: like [`Pipeline::estimate_key`]
    /// but scoped to one function's structural identity instead of the
    /// whole module key. The function *name* is deliberately excluded —
    /// renaming a function, moving it, or pasting a structurally identical
    /// copy into another source all hit the same rows.
    fn rows_key(&self, prep: &PreparedModule, pum: &Pum, func: FuncId) -> Vec<u8> {
        let pum_bytes = pum.estimate_domain().into_bytes();
        let func_key = prep.function_structural_key(func);
        let mut key = Vec::with_capacity(8 + pum_bytes.len() + func_key.len());
        key.extend_from_slice(&(pum_bytes.len() as u64).to_le_bytes());
        key.extend_from_slice(&pum_bytes);
        key.extend_from_slice(func_key);
        key
    }

    /// `Function structure × PUM → block delay rows`: Algorithms 1 and 2
    /// over the blocks of one function, keyed by the function's structural
    /// identity. Demanded per function by [`Pipeline::report_from_rows`];
    /// after an edit, only structurally changed functions miss.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the artifact's module.
    pub fn function_rows(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
        func: FuncId,
    ) -> Result<Arc<Vec<BlockReport>>, PipelineError> {
        let prepared = self.prepared(artifact)?;
        self.function_rows_prepared(&prepared, pum, func)
    }

    /// [`Pipeline::function_rows`] with the prepared module already
    /// resolved — the sweep/report-assembly form (one `prepared` lookup
    /// per report instead of one per function).
    fn function_rows_prepared(
        &self,
        prepared: &Arc<PreparedModule>,
        pum: &Pum,
        func: FuncId,
    ) -> Result<Arc<Vec<BlockReport>>, PipelineError> {
        self.rows.get_or_try(&self.rows_key(prepared, pum, func), || {
            // Same chaos-build injection point as the annotated stage: the
            // rows compute is retryable under transient faults too.
            if let Some(fault) =
                tlm_faults::point("pipeline.stage.compute", &[Kind::Transient, Kind::Delay])
            {
                fault.fire();
                if fault.kind() == Kind::Transient {
                    return Err(PipelineError::transient(
                        "injected fault at pipeline.stage.compute",
                    ));
                }
            }
            let handle = self.schedules.domain(&ScheduleDomain::of(pum));
            let delays = annotate_function_in_domain(prepared, pum, &handle, func)?;
            Ok(Arc::new(
                delays
                    .iter()
                    .enumerate()
                    .map(|(block, d)| BlockReport {
                        block: block as u32,
                        sched: d.sched,
                        branch: d.branch,
                        ifetch: d.ifetch,
                        data: d.data,
                        cycles: d.cycles,
                    })
                    .collect(),
            ))
        })
    }

    /// Assembles the full [`EstimateReport`] from per-function rows: the
    /// incremental-session path. Bit-identical to
    /// [`Pipeline::process_report`] on the same inputs — both bottom out in
    /// the same Algorithm 1/2 floating-point path — but keyed per function,
    /// so after a source edit only the structurally dirty functions
    /// recompute and the rest of the report is spliced from retained rows.
    ///
    /// Does not populate the whole-module `report` stage: the assembled
    /// report is rebuilt from rows on every demand (cheap — it is a
    /// concatenation), keeping the dirty-set accounting observable.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn report_from_rows(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<EstimateReport>, PipelineError> {
        let prepared = self.prepared(artifact)?;
        let module = prepared.module();
        let mut functions = Vec::with_capacity(module.functions.len());
        let mut total_cycles = 0u64;
        for (fid, func) in module.functions_iter() {
            let rows = self.function_rows_prepared(&prepared, pum, fid)?;
            total_cycles += rows.iter().map(|r| r.cycles).sum::<u64>();
            functions.push(FunctionReport { name: func.name.clone(), blocks: (*rows).clone() });
        }
        Ok(Arc::new(EstimateReport {
            blocks: prepared.total_blocks(),
            ops: prepared.ops(),
            total_cycles,
            functions,
        }))
    }

    /// Drops the rows entry of one function under one PUM — the targeted
    /// invalidation sessions use when a function's identity disappears
    /// from the design (deleted or structurally replaced with no surviving
    /// twin). Returns whether an entry was resident.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed artifact; typed for uniformity
    /// (resolving the prepared module can, in principle, be a miss that
    /// recomputes).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the artifact's module.
    pub fn invalidate_function_rows(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
        func: FuncId,
    ) -> Result<bool, PipelineError> {
        let prepared = self.prepared(artifact)?;
        Ok(self.rows.remove(&self.rows_key(&prepared, pum, func)))
    }

    /// Annotates every process of a design with its PE's PUM, through the
    /// annotated stage (so untouched processes of an edited platform hit
    /// end-to-end).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn annotate_design(
        &self,
        design: &PreparedDesign,
    ) -> Result<AnnotatedPlatform, PipelineError> {
        let start = Instant::now();
        let mut timed = Vec::with_capacity(design.platform.processes.len());
        for (proc, artifact) in design.platform.processes.iter().zip(design.artifacts()) {
            timed.push(self.annotated(artifact, &design.platform.pes[proc.pe.0].pum)?);
        }
        Ok(AnnotatedPlatform::from_timed(timed, start.elapsed()))
    }

    /// Runs the timed TLM of a design, annotating through the pipeline.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn run_timed(
        &self,
        design: &PreparedDesign,
        config: &TlmConfig,
    ) -> Result<TlmReport, PipelineError> {
        let annotated = self.annotate_design(design)?;
        Ok(run_annotated(&design.platform, Some(&annotated), config))
    }

    /// Runs the functional (untimed) TLM of a design.
    pub fn run_functional(&self, design: &PreparedDesign, config: &TlmConfig) -> TlmReport {
        run_annotated(&design.platform, None, config)
    }

    /// Decodes a JSON platform description (the serving request format)
    /// into a [`PreparedDesign`], lowering every process source through
    /// the shared front-end.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Platform`] naming the offending element, exactly
    /// as [`tlm_platform::json::platform_from_value`] would.
    pub fn design_from_value(&self, value: &Value) -> Result<PreparedDesign, PipelineError> {
        let mut artifacts = Vec::new();
        let platform: Platform = platform_from_value_with(value, &mut |source, what, optimize| {
            let artifact = self
                .frontend_with(source, optimize)
                .map_err(|e| PlatformError { message: format!("{what}: {e}") })?;
            let module = Arc::clone(artifact.module());
            artifacts.push(artifact);
            Ok(module)
        })?;
        Ok(PreparedDesign::from_parts(platform, artifacts))
    }

    /// The Algorithm 1 schedule cache backing the `schedules` stage.
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.schedules
    }

    /// Snapshot of every stage's counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            ast: self.ast.stats(),
            module: self.module.stats(),
            prepared: self.prepared.stats(),
            schedules: self.schedules.stats(),
            annotated: self.annotated.stats(),
            report: self.report.stats(),
            rows: self.rows.stats(),
        }
    }

    /// Drops every artifact and resets all counters.
    pub fn clear(&self) {
        self.ast.clear();
        self.module.clear();
        self.prepared.clear();
        self.schedules.clear();
        self.annotated.clear();
        self.report.clear();
        self.rows.clear();
    }
}
