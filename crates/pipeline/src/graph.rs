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
//! ([`Pum::estimate_domain`], made once per [`EncodedPum`]) and the input
//! — the module key, or a function's structural key — of the artifact it
//! came from. A lookup therefore hashes two `u64`s, and compares each part
//! by pointer before falling back to a full byte compare; entries are
//! charged the length of the flat encoding, so budgets and
//! `resident_bytes` are those of the table above. Holders that estimate
//! under the same PUMs again and again (the serving catalog's sweep
//! points, a session's) keep [`EncodedPum`]s, so their lookups clone,
//! encode and hash no PUM. A bare `&Pum` ([`Pipeline::annotated`],
//! [`Pipeline::process_report`], [`Pipeline::report_from_rows`]) is
//! looked up in a small table of the encodings the pipeline made for
//! recent bare PUMs, by comparing models field by field (floats by their
//! bits), and encoded only when no entry matches, so an exploration's
//! sweep points are encoded once each. The `prepared` stage keys by the
//! same shared module key and precomputed hash, so a lookup there hashes
//! one `u64` instead of the whole source, and its entry hashes each
//! function's structural key once for the `rows` stage.
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
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use tlm_cdfg::ir::Module;
use tlm_cdfg::FuncId;
use tlm_core::annotate::{
    annotate_function_in_domain, annotate_in_domain, PreparedModule, TimedModule,
};
use tlm_core::cache::ScheduleDomain;
use tlm_core::delay::sum_cycles;
use tlm_core::pum::{BranchModel, CacheModel, MemoryModel, MemoryPath};
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
    fn function(pum: &InputKey, prepared: &Prepared, func: FuncId) -> EstimateKey {
        EstimateKey { pum: pum.clone(), input: prepared.functions[func.0 as usize].clone() }
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

/// The prepared stage's entry: the [`PreparedModule`] with every
/// function's structural key held as a rows-stage input, hashed once here
/// instead of on every rows lookup.
#[derive(Debug)]
struct Prepared {
    module: Arc<PreparedModule>,
    functions: Box<[InputKey]>,
}

impl Prepared {
    fn new(module: PreparedModule) -> Prepared {
        let functions =
            module.function_identities().map(|(_, key)| InputKey::new(Arc::clone(key))).collect();
        Prepared { module: Arc::new(module), functions }
    }
}

/// A PUM's estimate domain ([`Pum::estimate_domain`]) as a stage-key part
/// with its keyed hash, and the schedule domain resolved from the
/// encoding's suffix, so a miss never encodes the PUM again.
#[derive(Debug, Clone)]
struct PumEncoding {
    key: InputKey,
    schedule: ScheduleDomain,
}

/// Encodes `pum` for the stage keys: the only place a PUM is encoded.
fn encode_pum(pum: &Pum) -> PumEncoding {
    let (encoding, at) = pum.estimate_domain_split();
    let schedule = ScheduleDomain::from_encoding(&encoding[at..]);
    PumEncoding { key: InputKey::new(encoding.into_bytes().into()), schedule }
}

/// Whether `a` and `b` encode to the same [`Pum::estimate_domain`] bytes,
/// decided without encoding either: every field equal, floats by their
/// bits as the encoding writes them, so `0.0` never matches `-0.0` and a
/// NaN matches only a NaN of the same bits. The fields a cache sweep
/// varies — memory, branch model, clock — come first, so two sweep points
/// tell apart fast.
fn same_bits(a: &Pum, b: &Pum) -> bool {
    fn bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }
    fn path(a: &MemoryPath, b: &MemoryPath) -> bool {
        match (a, b) {
            (MemoryPath::Hardwired, MemoryPath::Hardwired)
            | (MemoryPath::Uncached, MemoryPath::Uncached) => true,
            (MemoryPath::Cached(a), MemoryPath::Cached(b)) => {
                let CacheModel { size, hit_rates, hit_delay, miss_penalty } = a;
                *size == b.size
                    && *hit_delay == b.hit_delay
                    && *miss_penalty == b.miss_penalty
                    && hit_rates.len() == b.hit_rates.len()
                    && hit_rates
                        .iter()
                        .zip(&b.hit_rates)
                        .all(|((sa, ra), (sb, rb))| sa == sb && bits(*ra, *rb))
            }
            _ => false,
        }
    }
    fn branch(a: &Option<BranchModel>, b: &Option<BranchModel>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                let BranchModel { policy, penalty, miss_rate } = a;
                bits(*miss_rate, b.miss_rate) && *penalty == b.penalty && *policy == b.policy
            }
            _ => false,
        }
    }
    let Pum { name, clock_period_ps, execution, datapath, branch: branch_a, memory } = a;
    let MemoryModel { ifetch, data, external_latency, fetch_expansion, data_expansion } = memory;
    path(data, &b.memory.data)
        && path(ifetch, &b.memory.ifetch)
        && *external_latency == b.memory.external_latency
        && bits(*fetch_expansion, b.memory.fetch_expansion)
        && bits(*data_expansion, b.memory.data_expansion)
        && branch(branch_a, &b.branch)
        && *clock_period_ps == b.clock_period_ps
        && *name == b.name
        && *execution == b.execution
        && *datapath == b.datapath
}

/// Bare PUMs the pipeline keeps encodings of, most recently used first.
const RECENT_PUMS: usize = 16;
/// Encoding bytes the recent PUMs may hold in all. A PUM whose encoding
/// alone is longer is encoded per handle and never kept, so inline
/// platforms cannot pin large models here.
const RECENT_PUM_BYTES: usize = 32 << 10;

/// The encodings made for recent bare PUMs ([`Pipeline::reports_for`]),
/// each kept with a copy of its PUM, most recently used first, bounded by
/// [`RECENT_PUMS`] entries and [`RECENT_PUM_BYTES`] encoding bytes.
#[derive(Debug, Default)]
struct RecentPums {
    entries: VecDeque<EncodedPum>,
    bytes: usize,
}

impl RecentPums {
    /// The encoding of an entry whose PUM encodes like `pum`, moved to the
    /// front.
    fn find(&mut self, pum: &Pum) -> Option<PumEncoding> {
        let at = self.entries.iter().position(|entry| same_bits(&entry.pum, pum))?;
        if at > 0 {
            let entry = self.entries.remove(at)?;
            self.entries.push_front(entry);
        }
        Some(self.entries[0].encoding.clone())
    }

    /// Keeps a copy of `pum` with its `encoding` in front, dropping the
    /// least recently used entries past the bounds; an encoding over the
    /// byte cap on its own is not kept.
    fn insert(&mut self, pum: &Pum, encoding: &PumEncoding) {
        let len = encoding.key.bytes.len();
        if len > RECENT_PUM_BYTES {
            return;
        }
        while self.entries.len() >= RECENT_PUMS || self.bytes + len > RECENT_PUM_BYTES {
            let Some(old) = self.entries.pop_back() else { break };
            self.bytes -= old.encoded_len();
        }
        self.bytes += len;
        self.entries.push_front(EncodedPum { pum: pum.clone(), encoding: encoding.clone() });
    }
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
    encoding: PumEncoding,
}

impl EncodedPum {
    /// Encodes `pum` and hashes the encoding.
    pub fn new(pum: Pum) -> EncodedPum {
        let encoding = encode_pum(&pum);
        EncodedPum { pum, encoding }
    }

    /// The length of the encoding, in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encoding.key.bytes.len()
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
    encoding: PumEncoding,
}

impl PumReports<'_> {
    /// The annotated/report stage key of `artifact` under this PUM.
    fn key(&self, artifact: &ModuleArtifact) -> EstimateKey {
        EstimateKey::module(&self.encoding.key, artifact)
    }

    /// `PreparedModule × PUM → AnnotatedEstimate` under `key`, this PUM's
    /// key of `artifact`: the entry [`Pipeline::annotated`] answers.
    fn annotated(
        &self,
        key: &EstimateKey,
        artifact: &ModuleArtifact,
    ) -> Result<Arc<TimedModule>, PipelineError> {
        let pipeline = self.pipeline;
        pipeline.annotated.get_or_try(key, || {
            inject_compute_fault()?;
            let prepared = pipeline.prepared_entry(artifact)?;
            let handle = pipeline.schedules.domain(&self.encoding.schedule);
            Ok(Arc::new(annotate_in_domain(&prepared.module, self.pum, &handle)?))
        })
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
            let timed = self.annotated(&key, artifact)?;
            Ok(Arc::new(EstimateReport::of(&timed)))
        })
    }

    /// `Function structure × PUM → block delay rows`: Algorithms 1 and 2
    /// over the blocks of one function, keyed by the function's structural
    /// identity. Demanded per function by [`PumReports::report_from_rows`];
    /// after an edit, only structurally changed functions miss.
    fn function_rows(
        &self,
        prepared: &Prepared,
        func: FuncId,
    ) -> Result<Arc<Vec<BlockReport>>, PipelineError> {
        let key = EstimateKey::function(&self.encoding.key, prepared, func);
        self.pipeline.rows.get_or_try(&key, || {
            inject_compute_fault()?;
            let handle = self.pipeline.schedules.domain(&self.encoding.schedule);
            let delays = annotate_function_in_domain(&prepared.module, self.pum, &handle, func)?;
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
        let prepared = self.pipeline.prepared_entry(artifact)?;
        let module = prepared.module.module();
        let mut functions = Vec::with_capacity(module.functions.len());
        for (fid, func) in module.functions_iter() {
            let rows = self.function_rows(&prepared, fid)?;
            functions.push(FunctionReport { name: func.name.clone(), blocks: (*rows).clone() });
        }
        let total_cycles =
            sum_cycles(functions.iter().flat_map(|f| f.blocks.iter().map(|b| b.cycles)))?;
        Ok(Arc::new(EstimateReport::new(
            prepared.module.total_blocks(),
            prepared.module.ops(),
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
        let prepared = self.pipeline.prepared_entry(artifact)?;
        Ok(self.pipeline.rows.remove(&EstimateKey::function(&self.encoding.key, &prepared, func)))
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
    prepared: Stage<Arc<Prepared>, InputKey>,
    schedules: ScheduleCache,
    annotated: Stage<Arc<TimedModule>, EstimateKey>,
    report: Stage<Arc<EstimateReport>, EstimateKey>,
    rows: Stage<Arc<Vec<BlockReport>>, EstimateKey>,
    /// Encodings of recent bare PUMs, shared by the handles
    /// [`Pipeline::reports_for`] makes.
    recent: Mutex<RecentPums>,
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
            recent: Mutex::default(),
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
        Ok(Arc::clone(&self.prepared_entry(artifact)?.module))
    }

    /// The prepared stage's entry of `artifact`.
    fn prepared_entry(&self, artifact: &ModuleArtifact) -> Result<Arc<Prepared>, PipelineError> {
        self.prepared.get_or_try(&artifact.key, || {
            Ok(Arc::new(Prepared::new(PreparedModule::new(Arc::clone(&artifact.module)))))
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
        let reports = self.reports_for(pum);
        reports.annotated(&reports.key(artifact), artifact)
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
    /// and hashed at most once, here. The pipeline keeps the encodings of
    /// the last few bare PUMs it saw (16, up to 32 KiB of encodings), each
    /// with a copy of its PUM: a PUM equal to one of them field by field,
    /// floats by their bits, shares that encoding, so the sweep points an
    /// exploration demands again and again are encoded once each.
    pub fn reports_for<'a>(&'a self, pum: &'a Pum) -> PumReports<'a> {
        PumReports { pipeline: self, pum, encoding: self.recent_encoding(pum) }
    }

    /// [`Pipeline::reports_for`] under a PUM encoded earlier: the handle
    /// shares the encoding and its hash instead of making them.
    pub fn reports_for_encoded<'a>(&'a self, pum: &'a EncodedPum) -> PumReports<'a> {
        PumReports { pipeline: self, pum: &pum.pum, encoding: pum.encoding.clone() }
    }

    fn recent(&self) -> MutexGuard<'_, RecentPums> {
        self.recent.lock().expect("recent PUMs poisoned")
    }

    /// The encoding of a bare PUM: a recent entry's, or made here and
    /// kept.
    fn recent_encoding(&self, pum: &Pum) -> PumEncoding {
        if let Some(encoding) = self.recent().find(pum) {
            return encoding;
        }
        let encoding = encode_pum(pum);
        self.recent().insert(pum, &encoding);
        encoding
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

    /// Drops every artifact and every kept PUM encoding, and resets all
    /// counters.
    pub fn clear(&self) {
        self.ast.clear();
        self.module.clear();
        self.prepared.clear();
        self.schedules.clear();
        self.annotated.clear();
        self.report.clear();
        self.rows.clear();
        *self.recent() = RecentPums::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_core::annotate::annotate_uncached;

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
    /// float's bits, and each gets its own entry — also when both are
    /// bare PUMs, whichever comes first, so the recent-encoding table
    /// never hands one the other's encoding.
    #[test]
    fn encodings_differing_only_in_a_float_sign_get_distinct_entries() {
        let mut positive = cpu();
        positive.branch.as_mut().expect("cpu has a branch model").miss_rate = 0.0;
        let mut negative = positive.clone();
        negative.branch.as_mut().expect("cpu has a branch model").miss_rate = -0.0;
        assert_eq!(positive, negative, "equal as values");
        assert_ne!(positive.estimate_domain(), negative.estimate_domain());

        let distinct = |what: &str, pipeline: &Pipeline, a: &Arc<EstimateReport>, b: &Arc<_>| {
            assert!(!Arc::ptr_eq(a, b), "{what}: distinct entries");
            assert_eq!(**a, **b, "{what}: with equal contents");
            let stats = pipeline.stats();
            assert_eq!((stats.report.misses, stats.report.entries), (2, 2), "{what}");
            assert_eq!((stats.annotated.misses, stats.annotated.entries), (2, 2), "{what}");
        };

        let pipeline = Pipeline::new();
        let artifact = pipeline.frontend(SOURCE).expect("lowers");
        let a = pipeline.process_report(&artifact, &positive).expect("estimates");
        let b = pipeline.reports_for_encoded(&EncodedPum::new(negative.clone())).report(&artifact);
        distinct("bare, then encoded", &pipeline, &a, &b.expect("estimates"));

        for (what, first, second) in
            [("positive first", &positive, &negative), ("negative first", &negative, &positive)]
        {
            let pipeline = Pipeline::new();
            let artifact = pipeline.frontend(SOURCE).expect("lowers");
            let a = pipeline.process_report(&artifact, first).expect("estimates");
            let b = pipeline.process_report(&artifact, second).expect("estimates");
            distinct(what, &pipeline, &a, &b);
        }
    }

    /// Every library PUM and checked-in model, each at every point of the
    /// cache sweep (`tlm_apps::designs::CACHE_SWEEP`), plus one mutation
    /// of each field of the MicroBlaze model, the float mutations to
    /// `-0.0` and NaN.
    fn pum_corpus() -> Vec<(String, Pum)> {
        let mut bases = vec![
            cpu(),
            tlm_core::library::microblaze_like(0, 0),
            tlm_core::library::custom_hw("dct", 2, 2),
            tlm_core::library::generic_risc(),
            tlm_core::library::superscalar2(),
            tlm_core::library::vliw4(),
        ];
        let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut files: Vec<_> = std::fs::read_dir(models)
            .expect("models directory")
            .map(|entry| entry.expect("models entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        assert!(files.len() >= 6, "models/*.json: {files:?}");
        for file in &files {
            let text = std::fs::read_to_string(file).expect("readable model");
            bases.push(Pum::from_json(&text).unwrap_or_else(|e| panic!("{file:?}: {e}")));
        }
        let sweep = [
            (0, 0),
            (2 << 10, 2 << 10),
            (8 << 10, 4 << 10),
            (16 << 10, 16 << 10),
            (32 << 10, 16 << 10),
        ];
        let mut corpus = Vec::new();
        for (i, pum) in bases.iter().enumerate() {
            corpus.push((format!("{i}:{}", pum.name), pum.clone()));
            for (ic, dc) in sweep {
                corpus.push((format!("{i}:{} {ic}/{dc}", pum.name), pum.with_cache_sizes(ic, dc)));
            }
        }

        fn cache(path: &mut MemoryPath) -> &mut CacheModel {
            match path {
                MemoryPath::Cached(cache) => cache,
                _ => panic!("the base model's paths are cached"),
            }
        }
        fn rate(pum: &mut Pum) -> &mut f64 {
            cache(&mut pum.memory.data).hit_rates.values_mut().next().expect("characterized")
        }
        fn miss_rate(pum: &mut Pum) -> &mut f64 {
            &mut pum.branch.as_mut().expect("cpu has a branch model").miss_rate
        }
        type Mutation = fn(&mut Pum);
        let mutations: &[(&str, Mutation)] = &[
            ("name", |p| p.name.push('!')),
            ("clock", |p| p.clock_period_ps += 1),
            ("policy", |p| p.execution.policy = tlm_core::pum::SchedulingPolicy::List),
            ("op dropped", |p| {
                p.execution.op_map.pop_last();
            }),
            ("demand stage", |p| {
                p.execution.op_map.values_mut().next().expect("mapped").demand_stage += 1;
            }),
            ("commit stage", |p| {
                p.execution.op_map.values_mut().next().expect("mapped").commit_stage += 1;
            }),
            ("transparent", |p| {
                let binding = p.execution.op_map.values_mut().next().expect("mapped");
                binding.transparent = !binding.transparent;
            }),
            ("usage stage", |p| {
                let binding = p.execution.op_map.values_mut().next().expect("mapped");
                binding.usage[0].stage += 1;
            }),
            ("usage fu", |p| {
                let binding = p.execution.op_map.values_mut().next().expect("mapped");
                binding.usage[0].fu += 1;
            }),
            ("usage mode", |p| {
                let binding = p.execution.op_map.values_mut().next().expect("mapped");
                binding.usage[0].mode += 1;
            }),
            ("unit name", |p| p.datapath.units[0].name.push('!')),
            ("unit quantity", |p| p.datapath.units[0].quantity += 1),
            ("mode renamed", |p| p.datapath.units[0].modes[0].name.push_str("-s1v0")),
            ("mode delay", |p| p.datapath.units[0].modes[0].delay += 1),
            ("pipeline name", |p| p.datapath.pipelines[0].name.push('!')),
            ("stage name", |p| p.datapath.pipelines[0].stages[0].name.push('!')),
            ("stage width", |p| p.datapath.pipelines[0].stages[0].width += 1),
            ("no branch model", |p| p.branch = None),
            ("branch policy", |p| {
                p.branch.as_mut().expect("cpu has a branch model").policy.push('!');
            }),
            ("branch penalty", |p| {
                p.branch.as_mut().expect("cpu has a branch model").penalty += 1;
            }),
            ("miss rate", |p| *miss_rate(p) += 0.001),
            ("miss rate -0.0", |p| *miss_rate(p) = -0.0),
            ("miss rate +0.0", |p| *miss_rate(p) = 0.0),
            ("miss rate NaN", |p| *miss_rate(p) = f64::NAN),
            ("ifetch uncached", |p| p.memory.ifetch = MemoryPath::Uncached),
            ("data hardwired", |p| p.memory.data = MemoryPath::Hardwired),
            ("cache size", |p| cache(&mut p.memory.data).size = 16 << 10),
            ("hit delay", |p| cache(&mut p.memory.data).hit_delay += 1),
            ("miss penalty", |p| cache(&mut p.memory.ifetch).miss_penalty += 1),
            ("hit rate", |p| *rate(p) -= 0.01),
            ("hit rate -0.0", |p| *rate(p) = -0.0),
            ("hit rate +0.0", |p| *rate(p) = 0.0),
            ("hit rate NaN", |p| *rate(p) = f64::NAN),
            ("hit rate size", |p| {
                let rates = &mut cache(&mut p.memory.data).hit_rates;
                let (size, rate) = rates.pop_last().expect("characterized");
                rates.insert(size + 1, rate);
            }),
            ("external latency", |p| p.memory.external_latency += 1),
            ("fetch expansion", |p| p.memory.fetch_expansion *= 1.25),
            ("fetch expansion -0.0", |p| p.memory.fetch_expansion = -0.0),
            ("fetch expansion +0.0", |p| p.memory.fetch_expansion = 0.0),
            ("fetch expansion NaN", |p| p.memory.fetch_expansion = f64::NAN),
            ("data expansion", |p| p.memory.data_expansion *= 1.25),
            ("data expansion -0.0", |p| p.memory.data_expansion = -0.0),
            ("data expansion +0.0", |p| p.memory.data_expansion = 0.0),
            ("data expansion NaN", |p| p.memory.data_expansion = f64::NAN),
        ];
        for (what, mutate) in mutations {
            let mut pum = cpu();
            mutate(&mut pum);
            corpus.push((format!("mutated {what}"), pum));
        }
        corpus
    }

    /// The field-by-field comparison the recent-encoding table matches by
    /// agrees with comparing the encodings themselves, on every pair of
    /// the corpus (a NaN compares equal to its own bits, `-0.0` unequal
    /// to `0.0`).
    #[test]
    fn same_bits_agrees_with_equal_encodings() {
        let corpus = pum_corpus();
        let encodings: Vec<String> = corpus.iter().map(|(_, pum)| pum.estimate_domain()).collect();
        let mut equal_pairs = 0;
        for (i, (a, pa)) in corpus.iter().enumerate() {
            assert!(same_bits(pa, &pa.clone()), "{a}: a copy matches");
            for (j, (b, pb)) in corpus.iter().enumerate() {
                let equal = encodings[i] == encodings[j];
                assert_eq!(same_bits(pa, pb), equal, "{a} vs {b}");
                equal_pairs += usize::from(equal && i != j);
            }
        }
        // Sweep points that change nothing (custom HW, a base model at its
        // own sizes) and the `+0.0` mutations of fields already `0.0`
        // encode like another entry: the comparison saw equal pairs too.
        assert!(equal_pairs > 0);
    }

    /// The encoding a handle of a bare PUM holds: recent-table entry or
    /// fresh.
    fn encoding_of(pipeline: &Pipeline, pum: &Pum) -> Arc<[u8]> {
        Arc::clone(&pipeline.reports_for(pum).encoding.key.bytes)
    }

    /// Two PUMs built separately but equal, demanded back to back, share
    /// one encoding: the second is found in the recent-encoding table.
    #[test]
    fn separately_built_equal_pums_share_one_encoding() {
        let pipeline = Pipeline::new();
        let (a, b) = (cpu(), cpu());
        let (first, second) = (encoding_of(&pipeline, &a), encoding_of(&pipeline, &b));
        assert!(Arc::ptr_eq(&first, &second), "one allocation");
        assert_eq!(*first, *a.estimate_domain().as_bytes());
        assert_eq!(pipeline.recent().entries.len(), 1);
    }

    /// The table keeps a copy of each PUM it encoded, so a PUM mutated
    /// in place after a demand misses and gets its new model's estimate.
    #[test]
    fn pum_mutated_after_a_demand_misses() {
        let pipeline = Pipeline::new();
        let artifact = pipeline.frontend(SOURCE).expect("lowers");
        let mut pum = cpu();
        let before = encoding_of(&pipeline, &pum);
        let old = pipeline.process_report(&artifact, &pum).expect("estimates");
        pum.memory.fetch_expansion = 4.0;
        let after = encoding_of(&pipeline, &pum);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(*after, *pum.estimate_domain().as_bytes());
        let new = pipeline.process_report(&artifact, &pum).expect("estimates");
        let reference = annotate_uncached(artifact.module(), &pum).expect("annotates");
        assert_eq!(*new, EstimateReport::of(&reference));
        assert_ne!(*old, *new, "the mutated model estimates differently");
        assert_eq!(pipeline.stats().report.misses, 2);
    }

    /// `clear` drops the kept encodings with the stages.
    #[test]
    fn clear_forgets_recent_encodings() {
        let pipeline = Pipeline::new();
        let pum = cpu();
        let before = encoding_of(&pipeline, &pum);
        pipeline.clear();
        assert!(pipeline.recent().entries.is_empty());
        let after = encoding_of(&pipeline, &pum);
        assert!(!Arc::ptr_eq(&before, &after), "encoded again");
        assert_eq!(before, after);
    }

    /// The table holds the most recently used PUMs within its entry count
    /// and byte cap; a PUM whose encoding alone exceeds the cap is
    /// answered but neither kept nor evicting what is kept.
    #[test]
    fn recent_encodings_are_bounded() {
        let pipeline = Pipeline::new();
        let artifact = pipeline.frontend(SOURCE).expect("lowers");
        let pums: Vec<Pum> = (0..RECENT_PUMS as u64 + 4)
            .map(|i| {
                let mut pum = cpu();
                pum.clock_period_ps += i;
                pum
            })
            .collect();
        let first = encoding_of(&pipeline, &pums[0]);
        for pum in &pums[1..] {
            encoding_of(&pipeline, pum);
        }
        let recent = pipeline.recent().entries.len();
        assert_eq!(recent, RECENT_PUMS);
        assert!(pipeline.recent().bytes <= RECENT_PUM_BYTES);
        let last = pums.last().expect("pums");
        assert!(same_bits(&pipeline.recent().entries[0].pum, last), "most recent first");
        assert!(!Arc::ptr_eq(&first, &encoding_of(&pipeline, &pums[0])), "the oldest was dropped");

        let mut large = cpu();
        large.name = "x".repeat(RECENT_PUM_BYTES);
        assert!(large.estimate_domain().len() > RECENT_PUM_BYTES);
        let kept: Vec<Arc<[u8]>> =
            pipeline.recent().entries.iter().map(|e| Arc::clone(&e.encoding.key.bytes)).collect();
        let report = pipeline.process_report(&artifact, &large).expect("estimates");
        let reference = annotate_uncached(artifact.module(), &large).expect("annotates");
        assert_eq!(*report, EstimateReport::of(&reference));
        let after: Vec<Arc<[u8]>> =
            pipeline.recent().entries.iter().map(|e| Arc::clone(&e.encoding.key.bytes)).collect();
        assert!(kept.iter().zip(&after).all(|(a, b)| Arc::ptr_eq(a, b)), "nothing evicted");
        assert_eq!(kept.len(), after.len());
        assert!(!Arc::ptr_eq(&encoding_of(&pipeline, &large), &encoding_of(&pipeline, &large)));
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
