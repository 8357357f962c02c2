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
//! The three PUM-keyed stages (`annotated`, `report`, `rows`) hold those
//! same canonical bytes in two parts, each shared by `Arc` and carrying a
//! keyed hash computed once where its bytes were made: the PUM encoding
//! ([`Pum::estimate_domain`], made once per [`EncodedPum`], or once per
//! [`PumReports`] handle of a bare `&Pum`) and the input — the module key
//! or the structural key — of the artifact it came from. A lookup
//! therefore hashes two `u64`s, and compares each part by pointer before
//! falling back to a full byte compare; entries are charged the length of
//! the flat encoding, so budgets and `resident_bytes` are those of the
//! table above. Holders that estimate under the same PUMs again and again
//! (the serving catalog's sweep points, a session's) keep [`EncodedPum`]s,
//! so their lookups clone, encode and hash no PUM. The `prepared` stage
//! keys by the same shared module key and precomputed hash, so a lookup
//! there hashes one `u64` instead of the whole source.
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

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tlm_cdfg::ir::Module;
use tlm_cdfg::FuncId;
use tlm_core::annotate::{
    annotate_function_in_domain, annotate_in_domain, PreparedModule, TimedModule,
};
use tlm_core::cache::ScheduleDomain;
use tlm_core::delay::sum_cycles;
use tlm_core::store::{Store, StoreKey, StoreStats};
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
type Stage<T, K = [u8]> = Store<T, PipelineError, K>;

fn stage<T: Clone, K: ?Sized + StoreKey>(name: &'static str) -> Stage<T, K> {
    Store::observed(name, crate::observe::emit)
}

/// The process-wide keyed hash of a stage input. Keyed SipHash, so no
/// source can be crafted to collide in the stores' buckets; process-wide,
/// so an artifact's hash stays valid in every [`Pipeline`].
fn input_hash(bytes: &[u8]) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(bytes)
}

/// Chaos-build injection point of the annotated and rows computes: a
/// transient draw fails the compute retryably (the stage drops the slot,
/// the next demand recomputes); a delay draw just stretches it.
fn inject_compute_fault() -> Result<(), PipelineError> {
    if let Some(fault) =
        tlm_faults::point("pipeline.stage.compute", &[Kind::Transient, Kind::Delay])
    {
        fault.fire();
        if fault.kind() == Kind::Transient {
            return Err(PipelineError::transient("injected fault at pipeline.stage.compute"));
        }
    }
    Ok(())
}

/// The canonical key of the module stage: `optimize flag ‖ source
/// bytes`. It encodes only the stage's true inputs, so it is stable
/// across [`Pipeline`] instances; every key downstream of the module
/// embeds it.
fn module_stage_key(source: &str, optimize: bool) -> Vec<u8> {
    let mut key = Vec::with_capacity(1 + source.len());
    key.push(u8::from(optimize));
    key.extend_from_slice(source.as_bytes());
    key
}

/// A stage input shared by `Arc` with the artifact it came from, with
/// its [`input_hash`] computed once per artifact. Equality compares every
/// byte (by pointer first); the hash is the precomputed one, so a lookup
/// hashes one `u64` however long the input is. Charged its length.
#[derive(Debug, Clone)]
struct InputKey {
    bytes: Arc<[u8]>,
    hash: u64,
}

impl InputKey {
    fn new(bytes: Arc<[u8]>) -> InputKey {
        let hash = input_hash(&bytes);
        InputKey { bytes, hash }
    }
}

impl PartialEq for InputKey {
    fn eq(&self, other: &InputKey) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes)
    }
}

impl Eq for InputKey {}

impl Hash for InputKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl StoreKey for InputKey {
    type Resident = InputKey;

    fn resident(&self) -> InputKey {
        self.clone()
    }

    fn charge(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// The key of the PUM-keyed stages: the canonical bytes
/// `len(PUM) ‖ PUM ‖ input`, held as the PUM encoding plus the input
/// shared with its artifact, each with its precomputed hash. Equality
/// compares every byte; the hash covers the two precomputed hashes.
#[derive(Debug, Clone)]
struct EstimateKey {
    pum: InputKey,
    input: InputKey,
}

impl EstimateKey {
    /// The annotated/report key of a module under an encoded PUM; built
    /// only by [`PumReports::key`], which holds the PUM it encodes.
    fn module(pum: &InputKey, artifact: &ModuleArtifact) -> EstimateKey {
        EstimateKey { pum: pum.clone(), input: artifact.key.clone() }
    }

    /// The rows key of one function under an encoded PUM. The function
    /// *name* is deliberately excluded — renaming a function, moving it,
    /// or pasting a structurally identical copy into another source all
    /// hit the same rows.
    fn function(pum: &InputKey, prepared: &PreparedModule, func: FuncId) -> EstimateKey {
        let input = InputKey::new(Arc::clone(prepared.function_structural_key(func)));
        EstimateKey { pum: pum.clone(), input }
    }
}

impl PartialEq for EstimateKey {
    fn eq(&self, other: &EstimateKey) -> bool {
        self.input == other.input && self.pum == other.pum
    }
}

impl Eq for EstimateKey {}

impl Hash for EstimateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pum.hash(state);
        self.input.hash(state);
    }
}

impl StoreKey for EstimateKey {
    type Resident = EstimateKey;

    fn resident(&self) -> EstimateKey {
        self.clone()
    }

    /// The length of the flat `len(PUM) ‖ PUM ‖ input` encoding.
    fn charge(&self) -> u64 {
        8 + self.pum.charge() + self.input.charge()
    }
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
    key: InputKey,
    module: Arc<Module>,
}

impl ModuleArtifact {
    /// The lowered module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The canonical stage key (optimize flag ‖ source bytes).
    pub fn key(&self) -> &[u8] {
        &self.key.bytes
    }

    /// The source text the module was lowered from, read back from the
    /// key.
    pub fn source(&self) -> &str {
        std::str::from_utf8(&self.key.bytes[1..]).expect("module keys embed a `&str` source")
    }

    /// Whether the scalar cleanup passes ran, read back from the key.
    pub fn optimize(&self) -> bool {
        self.key.bytes[0] != 0
    }
}

/// The PUM part of an estimate-stage key: [`Pum::estimate_domain`] with
/// its keyed hash. The only place a PUM is encoded for a stage key.
fn encode_pum(pum: &Pum) -> InputKey {
    InputKey::new(pum.estimate_domain().into_bytes().into())
}

/// A PUM with its estimate-domain encoding ([`Pum::estimate_domain`]) and
/// the keyed hash of that encoding, both computed once, here.
///
/// Holders that demand estimates under the same PUM again and again — the
/// serving catalog's sweep points, a session's — keep one and demand
/// through [`Pipeline::reports_for_encoded`], so their lookups clone,
/// encode and hash no PUM. The PUM cannot be changed after encoding, so
/// the encoding always describes the models it travels with.
#[derive(Debug, Clone)]
pub struct EncodedPum {
    pum: Pum,
    domain: InputKey,
}

impl EncodedPum {
    /// Encodes `pum` and hashes the encoding.
    pub fn new(pum: Pum) -> EncodedPum {
        let domain = encode_pum(&pum);
        EncodedPum { pum, domain }
    }

    /// The length of the encoding, in bytes.
    pub fn encoded_len(&self) -> usize {
        self.domain.bytes.len()
    }
}

/// Report demands under one PUM, from [`Pipeline::reports_for`] or
/// [`Pipeline::reports_for_encoded`].
///
/// The handle holds the PUM together with its encoded estimate domain, so
/// a stage key can never pair one PUM's encoding with another PUM's
/// models.
#[derive(Debug)]
pub struct PumReports<'a> {
    pipeline: &'a Pipeline,
    pum: &'a Pum,
    domain: InputKey,
}

impl PumReports<'_> {
    /// The annotated/report stage key of `artifact` under this PUM.
    fn key(&self, artifact: &ModuleArtifact) -> EstimateKey {
        EstimateKey::module(&self.domain, artifact)
    }

    /// `AnnotatedEstimate → Report` for `artifact` under this PUM: the
    /// same entry [`Pipeline::process_report`] answers.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn report(&self, artifact: &ModuleArtifact) -> Result<Arc<EstimateReport>, PipelineError> {
        let key = self.key(artifact);
        self.pipeline.report.get_or_try(&key, || {
            let timed = self.pipeline.annotated_keyed(&key, artifact, self.pum)?;
            Ok(Arc::new(EstimateReport::of(&timed)))
        })
    }

    /// `Function structure × PUM → block delay rows`: Algorithms 1 and 2
    /// over the blocks of one function, keyed by the function's structural
    /// identity. Demanded per function by [`PumReports::report_from_rows`];
    /// after an edit, only structurally changed functions miss.
    fn function_rows(
        &self,
        prepared: &PreparedModule,
        func: FuncId,
    ) -> Result<Arc<Vec<BlockReport>>, PipelineError> {
        let key = EstimateKey::function(&self.domain, prepared, func);
        self.pipeline.rows.get_or_try(&key, || {
            inject_compute_fault()?;
            let handle = self.pipeline.schedules.domain(&ScheduleDomain::of(self.pum));
            let delays = annotate_function_in_domain(prepared, self.pum, &handle, func)?;
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
    /// incremental-session path. Bit-identical to [`PumReports::report`]
    /// on the same inputs — both bottom out in the same Algorithm 1/2
    /// floating-point path — but keyed per function, so after a source
    /// edit only the structurally dirty functions recompute and the rest
    /// of the report is spliced from retained rows.
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
    ) -> Result<Arc<EstimateReport>, PipelineError> {
        let prepared = self.pipeline.prepared(artifact)?;
        let module = prepared.module();
        let mut functions = Vec::with_capacity(module.functions.len());
        for (fid, func) in module.functions_iter() {
            let rows = self.function_rows(&prepared, fid)?;
            functions.push(FunctionReport { name: func.name.clone(), blocks: (*rows).clone() });
        }
        let total_cycles =
            sum_cycles(functions.iter().flat_map(|f| f.blocks.iter().map(|b| b.cycles)))?;
        Ok(Arc::new(EstimateReport::new(
            prepared.total_blocks(),
            prepared.ops(),
            total_cycles,
            functions,
        )))
    }

    /// Drops the rows entry of one function under this PUM — the targeted
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
        func: FuncId,
    ) -> Result<bool, PipelineError> {
        let prepared = self.pipeline.prepared(artifact)?;
        Ok(self.pipeline.rows.remove(&EstimateKey::function(&self.domain, &prepared, func)))
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
    prepared: Stage<Arc<PreparedModule>, InputKey>,
    schedules: ScheduleCache,
    annotated: Stage<Arc<TimedModule>, EstimateKey>,
    report: Stage<Arc<EstimateReport>, EstimateKey>,
    rows: Stage<Arc<Vec<BlockReport>>, EstimateKey>,
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
    /// same source are distinct artifacts.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::frontend`].
    pub fn frontend_with(
        &self,
        source: &str,
        optimize: bool,
    ) -> Result<ModuleArtifact, PipelineError> {
        let key = module_stage_key(source, optimize);
        let module = self.module.get_or_try(&key, || {
            let program = self.ast(source)?;
            let mut module = tlm_cdfg::lower::lower(&program)?;
            if optimize {
                tlm_cdfg::passes::optimize(&mut module);
            }
            Ok(Arc::new(module))
        })?;
        Ok(ModuleArtifact { key: InputKey::new(key.into()), module })
    }

    /// `Module → PreparedModule`: per-block DFGs and canonical schedule
    /// keys, keyed by the module key (hashed once per artifact, not per
    /// lookup).
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
    /// some block, or if a block's cycles or the module's cycle sum
    /// exceed `u64::MAX`.
    pub fn annotated(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<TimedModule>, PipelineError> {
        self.annotated_keyed(&self.reports_for(pum).key(artifact), artifact, pum)
    }

    /// [`Pipeline::annotated`] under a key already encoded.
    fn annotated_keyed(
        &self,
        key: &EstimateKey,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<TimedModule>, PipelineError> {
        self.annotated.get_or_try(key, || {
            inject_compute_fault()?;
            let prepared = self.prepared(artifact)?;
            let handle = self.schedules.domain(&ScheduleDomain::of(pum));
            Ok(Arc::new(annotate_in_domain(&prepared, pum, &handle)?))
        })
    }

    /// `AnnotatedEstimate → Report`: the static per-block delay report,
    /// keyed like the annotated stage. A hit here short-circuits the whole
    /// graph — no upstream stage sees a lookup, and a miss hands its key
    /// on to the annotated stage.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn process_report(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<EstimateReport>, PipelineError> {
        self.reports_for(pum).report(artifact)
    }

    /// A handle demanding reports of any number of modules under `pum`,
    /// with the PUM's estimate domain ([`Pum::estimate_domain`]) encoded
    /// and hashed once, here, instead of once per
    /// [`Pipeline::process_report`] call. Callers that estimate every
    /// process of a platform at one sweep point build one handle per PE.
    pub fn reports_for<'a>(&'a self, pum: &'a Pum) -> PumReports<'a> {
        PumReports { pipeline: self, pum, domain: encode_pum(pum) }
    }

    /// [`Pipeline::reports_for`] under a PUM encoded earlier: the handle
    /// shares the encoding and its hash instead of making them.
    pub fn reports_for_encoded<'a>(&'a self, pum: &'a EncodedPum) -> PumReports<'a> {
        PumReports { pipeline: self, pum: &pum.pum, domain: pum.domain.clone() }
    }

    /// [`PumReports::report_from_rows`] under a bare PUM, encoded here.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::annotated`].
    pub fn report_from_rows(
        &self,
        artifact: &ModuleArtifact,
        pum: &Pum,
    ) -> Result<Arc<EstimateReport>, PipelineError> {
        self.reports_for(pum).report_from_rows(artifact)
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
        Ok(AnnotatedPlatform { timed, annotation_time: start.elapsed() })
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
    /// [`PipelineError::Platform`] naming the offending element (see
    /// [`tlm_platform::json::platform_from_value_with`]); a process source
    /// the front-end rejects is named with its front-end error.
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

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str =
        "void main() { int s = 0; for (int i = 0; i < 8; i++) { if (i > 3) { s = s + i; } } out(s); }";

    fn cpu() -> Pum {
        tlm_core::library::microblaze_like(8 << 10, 4 << 10)
    }

    /// A PUM built separately from the one a reused [`EncodedPum`] holds
    /// — equal encodings in different allocations — hits the entries that
    /// the reused key inserted, on the report and the rows stages.
    #[test]
    fn separately_built_pum_hits_the_entry_a_reused_key_inserted() {
        let pipeline = Pipeline::new();
        let artifact = pipeline.frontend(SOURCE).expect("lowers");
        let encoded = EncodedPum::new(cpu());
        let reused = pipeline.reports_for_encoded(&encoded);
        let inserted = reused.report(&artifact).expect("estimates");
        let rows = reused.report_from_rows(&artifact).expect("splices");

        let twin = cpu();
        let separate = pipeline.reports_for(&twin);
        let (a, b) = (reused.key(&artifact), separate.key(&artifact));
        assert!(!Arc::ptr_eq(&a.pum.bytes, &b.pum.bytes), "two encodings");
        assert!(a == b, "equal bytes are equal keys");
        let before = pipeline.stats();
        let hit = pipeline.process_report(&artifact, &twin).expect("estimates");
        assert!(Arc::ptr_eq(&inserted, &hit), "the separate PUM reads the reused key's entry");
        assert_eq!(*pipeline.report_from_rows(&artifact, &twin).expect("splices"), *rows);
        let after = pipeline.stats();
        assert_eq!(after.report.hits, before.report.hits + 1);
        assert_eq!(after.report.misses, before.report.misses);
        assert_eq!(after.rows.misses, before.rows.misses, "every function's rows hit");
        assert!(after.rows.hits > before.rows.hits);
    }

    /// Keys compare encodings, not values: a branch miss rate of `0.0`
    /// and one of `-0.0` are equal PUMs whose encodings differ in the
    /// float's bits, and each gets its own entry.
    #[test]
    fn encodings_differing_only_in_a_float_sign_get_distinct_entries() {
        let pipeline = Pipeline::new();
        let artifact = pipeline.frontend(SOURCE).expect("lowers");
        let mut positive = cpu();
        positive.branch.as_mut().expect("cpu has a branch model").miss_rate = 0.0;
        let mut negative = positive.clone();
        negative.branch.as_mut().expect("cpu has a branch model").miss_rate = -0.0;
        assert_eq!(positive, negative, "equal as values");
        assert_ne!(positive.estimate_domain(), negative.estimate_domain());

        let a = pipeline.process_report(&artifact, &positive).expect("estimates");
        let b = pipeline.reports_for_encoded(&EncodedPum::new(negative)).report(&artifact);
        let b = b.expect("estimates");
        assert!(!Arc::ptr_eq(&a, &b), "distinct entries");
        assert_eq!(*a, *b, "with equal contents");
        let stats = pipeline.stats();
        assert_eq!((stats.report.misses, stats.report.entries), (2, 2));
        assert_eq!((stats.annotated.misses, stats.annotated.entries), (2, 2));
    }

    /// The module key's bytes are pinned: every downstream stage key and
    /// the charged `resident_bytes` depend on them.
    #[test]
    fn module_key_is_the_optimize_flag_then_the_source() {
        let source = "void main() { out(1); }";
        let pipeline = Pipeline::new();
        let optimized = pipeline.frontend_with(source, true).expect("lowers");
        assert_eq!(optimized.key(), [b"\x01".as_slice(), source.as_bytes()].concat());
        assert_eq!((optimized.source(), optimized.optimize()), (source, true));
        let plain = pipeline.frontend_with(source, false).expect("lowers");
        assert_eq!(plain.key(), [b"\x00".as_slice(), source.as_bytes()].concat());
        assert_eq!((plain.source(), plain.optimize()), (source, false));
    }
}
