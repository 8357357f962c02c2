//! Incremental edit-to-estimate sessions.
//!
//! The paper's value proposition is fast design-space iteration —
//! estimate, tweak the source or the mapping, estimate again — yet a
//! stateless server re-keys whole-module artifacts on every byte of a
//! source edit. A session is the stateful counterpart: it holds the
//! last accepted source of every process plus per-function *structural
//! identities* (the full structural keys of
//! [`tlm_core::annotate::PreparedModule::function_identities`], the keys
//! the pipeline's `rows` stage is keyed by), and on an edit it diffs the
//! new front-end output against the cached identities, computes the
//! dirty set (structurally changed functions → their blocks), and
//! re-estimates **only** the dirty functions through the pipeline's
//! per-function `rows` stage
//! ([`tlm_pipeline::Pipeline::report_from_rows`]). Untouched functions
//! splice into the fresh report from retained rows — bit-identical to a
//! cold full run, because rows and full annotation bottom out in the same
//! Algorithm 1/2 floating-point path.
//!
//! [`SessionStore`] owns the sessions: sequential ids (deterministic from
//! creation order), byte-budgeted least-recently-used eviction, and lazy
//! idle-TTL expiry. It is the first piece of server state that survives
//! across requests by design, so everything here tolerates panicking
//! workers (poisoned locks are recovered; edits commit by swap, never
//! in place).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tlm_cdfg::FuncId;
use tlm_pipeline::{
    EncodedPum, EstimateReport, ModuleArtifact, Pipeline, PipelineError, PreparedDesign,
};

/// One cache configuration a session's reports sweep over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Display label of the point.
    pub label: String,
    /// Instruction cache bytes.
    pub icache: u32,
    /// Data cache bytes.
    pub dcache: u32,
}

/// An edit to one process's source.
#[derive(Debug, Clone, Copy)]
pub enum SourceEdit<'a> {
    /// Replace the whole source text.
    Full(&'a str),
    /// Replace the unique occurrence of `find` with `replace` in the
    /// session's current source — the "I changed one line" form.
    Patch {
        /// Text to locate; must occur exactly once.
        find: &'a str,
        /// Replacement text.
        replace: &'a str,
    },
}

/// What an edit changed, in structural-identity terms.
///
/// Counts come from diffing function identities (name → structural key)
/// between the old and new front-end outputs. They are the session's
/// *claim* about the dirty set; the pipeline's `rows` stage counters are
/// the ground truth of what actually recomputed (a dirty function whose
/// new structure happens to match a resident row still hits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditReport {
    /// The process that was edited.
    pub process: String,
    /// Functions present before and after whose structural key changed,
    /// plus functions added by the edit.
    pub dirty_functions: usize,
    /// Functions present before and after with an unchanged key.
    pub clean_functions: usize,
    /// Basic blocks of the dirty functions (the re-estimation bound).
    pub dirty_blocks: usize,
    /// Functions that exist only after the edit.
    pub added_functions: usize,
    /// Functions that exist only before the edit.
    pub removed_functions: usize,
}

/// Snapshot of one process's spliced reports for rendering.
#[derive(Debug, Clone)]
pub struct ProcessView {
    /// Process name.
    pub process: String,
    /// Name of the PE the process is mapped to.
    pub pe: String,
    /// The estimate report at one sweep point.
    pub report: Arc<EstimateReport>,
}

/// One sweep point with every process's report.
#[derive(Debug, Clone)]
pub struct SweepView {
    /// Sweep point label.
    pub label: String,
    /// Instruction cache bytes.
    pub icache: u32,
    /// Data cache bytes.
    pub dcache: u32,
    /// Per-process reports, in platform process order.
    pub processes: Vec<ProcessView>,
}

/// A session's current estimate, shaped for the serving layer to render
/// exactly like a stateless `/estimate` response.
#[derive(Debug, Clone)]
pub struct SessionView {
    /// Platform name.
    pub platform: String,
    /// Number of PEs in the platform.
    pub pes: usize,
    /// Number of application processes.
    pub processes: usize,
    /// Whether per-block rows should be rendered.
    pub detail_blocks: bool,
    /// Reports per sweep point.
    pub sweep: Vec<SweepView>,
}

/// Errors of the session layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No session with that id (never created, closed, evicted or
    /// expired).
    NotFound(u64),
    /// The edit names a process the session's platform does not have.
    UnknownProcess(String),
    /// A [`SourceEdit::Patch`] whose `find` text did not occur exactly
    /// once in the current source.
    PatchMismatch {
        /// How often `find` occurred (0, or ≥ 2).
        matches: usize,
    },
    /// The pipeline rejected the edited source or could not estimate it.
    Pipeline(PipelineError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NotFound(id) => write!(f, "no session {id}"),
            SessionError::UnknownProcess(name) => write!(f, "unknown process: {name}"),
            SessionError::PatchMismatch { matches } => {
                write!(f, "patch target occurs {matches} times, expected exactly once")
            }
            SessionError::Pipeline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PipelineError> for SessionError {
    fn from(e: PipelineError) -> SessionError {
        SessionError::Pipeline(e)
    }
}

impl SessionError {
    /// Whether retrying the same request could change the outcome —
    /// mirrors [`PipelineError::is_deterministic`]; everything but a
    /// transient pipeline failure is deterministic.
    pub fn is_deterministic(&self) -> bool {
        match self {
            SessionError::Pipeline(e) => e.is_deterministic(),
            _ => true,
        }
    }
}

/// `(name, structural key, block count)` of one function.
type Identity = (String, Arc<[u8]>, usize);

/// One process's session state: the accepted artifact plus function
/// identities, in module function order (index = `FuncId`).
#[derive(Debug)]
struct ProcessState {
    name: String,
    /// Index of the PE the process is mapped to.
    pe: usize,
    artifact: ModuleArtifact,
    identities: Vec<Identity>,
}

/// One live session.
#[derive(Debug)]
struct Session {
    platform: String,
    pe_names: Vec<String>,
    /// Per sweep point, every PE's PUM resized to it and encoded, built
    /// once at creation: edits and invalidations clone, encode and hash
    /// no PUM.
    pums: Vec<Vec<EncodedPum>>,
    processes: Vec<ProcessState>,
    sweep: Vec<SweepPoint>,
    detail_blocks: bool,
    /// The retained report: every process's estimate at every sweep
    /// point. An edit replaces only the edited process's column; views
    /// replay this without touching the pipeline.
    views: Vec<SweepView>,
    /// Monotonic LRU tick of the last touch.
    last_tick: u64,
    /// Wall-clock of the last touch (idle-TTL expiry only; never exposed).
    last_used: Instant,
}

impl Session {
    /// Approximate resident bytes: artifact keys (each embeds the full
    /// source), identity tables (each function's name and structural key),
    /// the encoded sweep-point PUMs, the retained report rows (with their
    /// rendered JSON when the session shows per-block rows), plus a fixed
    /// overhead. The charge depends only on the session's own state, so a
    /// view (of this session, or of a report it shares with the pipeline)
    /// never moves it.
    fn resident_bytes(&self) -> u64 {
        let mut bytes = 512u64;
        for p in &self.processes {
            bytes += p.artifact.key().len() as u64;
            bytes += p
                .identities
                .iter()
                .map(|(name, key, _)| (name.len() + key.len()) as u64 + 24)
                .sum::<u64>();
        }
        bytes += self.pums.iter().flatten().map(|pum| pum.encoded_len() as u64).sum::<u64>();
        let row = std::mem::size_of::<tlm_pipeline::report::BlockReport>() as u64;
        for view in &self.views {
            for proc in &view.processes {
                bytes += 64 + proc.report.blocks() as u64 * row;
                if self.detail_blocks {
                    bytes += proc.report.functions_json().len() as u64;
                }
            }
        }
        bytes
    }

    /// Renders the per-block JSON of every retained report of a session
    /// that shows per-block rows. Create and edit call it before they take
    /// the store's table lock, so the budget check and `stats` only read
    /// lengths instead of rendering under the lock.
    fn render_rows(&self) {
        if self.detail_blocks {
            for proc in self.views.iter().flat_map(|view| &view.processes) {
                proc.report.functions_json();
            }
        }
    }

    /// The renderable snapshot of the retained report (cheap: report
    /// payloads are shared by `Arc`).
    fn render(&self) -> SessionView {
        SessionView {
            platform: self.platform.clone(),
            pes: self.pe_names.len(),
            processes: self.processes.len(),
            detail_blocks: self.detail_blocks,
            sweep: self.views.clone(),
        }
    }
}

fn identities_of(
    pipeline: &Pipeline,
    artifact: &ModuleArtifact,
) -> Result<Vec<Identity>, PipelineError> {
    let prep = pipeline.prepared(artifact)?;
    Ok(prep
        .function_identities()
        .enumerate()
        .map(|(f, (name, key))| {
            (name.to_owned(), Arc::clone(key), prep.function_blocks(FuncId(f as u32)))
        })
        .collect())
}

/// Counter snapshot of a [`SessionStore`], for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Live sessions.
    pub active: usize,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions dropped by the byte budget (least recently used first).
    pub evicted: u64,
    /// Sessions dropped by the idle TTL.
    pub expired: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Edits accepted.
    pub edits: u64,
    /// Dirty functions across all accepted edits.
    pub dirty_functions: u64,
    /// Clean (retained) functions across all accepted edits.
    pub clean_functions: u64,
    /// Dirty blocks across all accepted edits.
    pub dirty_blocks: u64,
    /// Approximate resident bytes of all live sessions.
    pub resident_bytes: u64,
}

/// The session table: id allocation, lookup, LRU eviction, TTL expiry.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Table>,
    /// Resident-byte budget across all sessions; `u64::MAX` disables
    /// eviction.
    budget: u64,
    /// Idle time after which a session expires (checked lazily on store
    /// access).
    ttl: Duration,
    created: AtomicU64,
    evicted: AtomicU64,
    expired: AtomicU64,
    closed: AtomicU64,
    edits: AtomicU64,
    dirty_functions: AtomicU64,
    clean_functions: AtomicU64,
    dirty_blocks: AtomicU64,
}

#[derive(Debug, Default)]
struct Table {
    sessions: HashMap<u64, Arc<Mutex<Session>>>,
    /// Next session id; ids are sequential from 1 so responses stay a
    /// pure function of request history.
    next_id: u64,
    /// Monotonic access counter backing LRU order.
    tick: u64,
}

/// Recovers a possibly poisoned lock: session state is only mutated by
/// commit-by-swap, so a panic between lock and unlock cannot leave a
/// half-applied edit behind.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SessionStore {
    /// A store bounded by `budget` resident bytes whose sessions expire
    /// after `ttl` idle time.
    pub fn new(budget: u64, ttl: Duration) -> SessionStore {
        SessionStore {
            inner: Mutex::new(Table { sessions: HashMap::new(), next_id: 1, tick: 0 }),
            budget,
            ttl,
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            dirty_functions: AtomicU64::new(0),
            clean_functions: AtomicU64::new(0),
            dirty_blocks: AtomicU64::new(0),
        }
    }

    /// Drops sessions idle past the TTL. Called on every store access;
    /// cheap (one scan of the id table).
    fn expire(&self, table: &mut Table) {
        let ttl = self.ttl;
        let before = table.sessions.len();
        table.sessions.retain(|_, s| relock(s).last_used.elapsed() <= ttl);
        self.expired.fetch_add((before - table.sessions.len()) as u64, Ordering::Relaxed);
    }

    /// Evicts least-recently-used sessions (never `keep`) until the
    /// resident bytes fit the budget.
    fn enforce_budget(&self, table: &mut Table, keep: u64) {
        if self.budget == u64::MAX {
            return;
        }
        loop {
            let mut total = 0u64;
            let mut lru: Option<(u64, u64)> = None;
            for (&id, session) in &table.sessions {
                let s = relock(session);
                total += s.resident_bytes();
                if id != keep && lru.is_none_or(|(_, tick)| s.last_tick < tick) {
                    lru = Some((id, s.last_tick));
                }
            }
            if total <= self.budget {
                return;
            }
            let Some((victim, _)) = lru else { return };
            table.sessions.remove(&victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn lookup(&self, id: u64) -> Result<Arc<Mutex<Session>>, SessionError> {
        let mut table = relock(&self.inner);
        self.expire(&mut table);
        let session = table.sessions.get(&id).cloned().ok_or(SessionError::NotFound(id))?;
        let tick = {
            table.tick += 1;
            table.tick
        };
        {
            let mut s = relock(&session);
            s.last_tick = tick;
            s.last_used = Instant::now();
        }
        Ok(session)
    }

    /// Creates a session from a prepared design: snapshots the platform
    /// wiring and per-process identities, estimates every sweep point
    /// once (cold), and returns the id with the initial view.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the initial estimation.
    pub fn create(
        &self,
        pipeline: &Pipeline,
        design: &PreparedDesign,
        sweep: Vec<SweepPoint>,
        detail_blocks: bool,
    ) -> Result<(u64, SessionView), SessionError> {
        let platform = &design.platform;
        let mut processes = Vec::with_capacity(platform.processes.len());
        for (proc, artifact) in platform.processes.iter().zip(design.artifacts()) {
            processes.push(ProcessState {
                name: proc.name.clone(),
                pe: proc.pe.0,
                artifact: artifact.clone(),
                identities: identities_of(pipeline, artifact)?,
            });
        }
        let mut session = Session {
            platform: platform.name.clone(),
            pe_names: platform.pes.iter().map(|pe| pe.name.clone()).collect(),
            pums: sweep
                .iter()
                .map(|point| {
                    let (ic, dc) = (point.icache, point.dcache);
                    platform
                        .pes
                        .iter()
                        .map(|pe| EncodedPum::new(pe.pum.with_cache_sizes(ic, dc)))
                        .collect()
                })
                .collect(),
            processes,
            sweep,
            detail_blocks,
            views: Vec::new(),
            last_tick: 0,
            last_used: Instant::now(),
        };
        session.views = session
            .sweep
            .iter()
            .map(|point| SweepView {
                label: point.label.clone(),
                icache: point.icache,
                dcache: point.dcache,
                processes: Vec::with_capacity(session.processes.len()),
            })
            .collect();
        for idx in 0..session.processes.len() {
            let column = process_column(pipeline, &session, &session.processes[idx])?;
            for (view, entry) in session.views.iter_mut().zip(column) {
                view.processes.push(entry);
            }
        }
        session.render_rows();
        let view = session.render();
        let id = {
            let mut table = relock(&self.inner);
            self.expire(&mut table);
            let id = table.next_id;
            table.next_id += 1;
            table.tick += 1;
            let mut session = session;
            session.last_tick = table.tick;
            table.sessions.insert(id, Arc::new(Mutex::new(session)));
            self.enforce_budget(&mut table, id);
            id
        };
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok((id, view))
    }

    /// Applies an edit to one process of a session: front-end the new
    /// source, diff identities, re-estimate (dirty functions miss in the
    /// rows stage; clean ones splice from retained rows), drop the rows
    /// of identities the edit removed, then commit by swap.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotFound`], [`SessionError::UnknownProcess`],
    /// [`SessionError::PatchMismatch`], or a pipeline failure. On error
    /// the session is unchanged.
    pub fn edit(
        &self,
        pipeline: &Pipeline,
        id: u64,
        process: &str,
        edit: &SourceEdit<'_>,
    ) -> Result<(EditReport, SessionView), SessionError> {
        let session = self.lookup(id)?;
        let mut session = relock(&session);
        let proc_idx = session
            .processes
            .iter()
            .position(|p| p.name == process)
            .ok_or_else(|| SessionError::UnknownProcess(process.to_owned()))?;
        let old = &session.processes[proc_idx];
        let current = old.artifact.source();
        let source = match *edit {
            SourceEdit::Full(source) => source.to_owned(),
            SourceEdit::Patch { find, replace } => {
                let matches = current.matches(find).count();
                if matches != 1 {
                    return Err(SessionError::PatchMismatch { matches });
                }
                current.replacen(find, replace, 1)
            }
        };
        let artifact = pipeline.frontend_with(&source, old.artifact.optimize())?;
        let identities = identities_of(pipeline, &artifact)?;

        // Dirty-set diff, by function name.
        let old_by_name: HashMap<&str, &[u8]> =
            old.identities.iter().map(|(n, k, _)| (n.as_str(), &k[..])).collect();
        let new_names: HashSet<&str> = identities.iter().map(|(n, _, _)| n.as_str()).collect();
        let mut report = EditReport {
            process: process.to_owned(),
            dirty_functions: 0,
            clean_functions: 0,
            dirty_blocks: 0,
            added_functions: 0,
            removed_functions: 0,
        };
        for (name, key, blocks) in &identities {
            match old_by_name.get(name.as_str()) {
                Some(&old_key) if old_key == &key[..] => report.clean_functions += 1,
                Some(_) => {
                    report.dirty_functions += 1;
                    report.dirty_blocks += blocks;
                }
                None => {
                    report.added_functions += 1;
                    report.dirty_functions += 1;
                    report.dirty_blocks += blocks;
                }
            }
        }
        report.removed_functions =
            old.identities.iter().filter(|(n, _, _)| !new_names.contains(n.as_str())).count();

        // Build the candidate state and estimate its column *before*
        // mutating the session: a failed edit (bad source, transient
        // fault) leaves the accepted state fully intact. Only the edited
        // process is re-estimated — every other entry of the retained
        // report is spliced through untouched.
        let old_artifact = old.artifact.clone();
        let old_identities = old.identities.clone();
        let candidate = ProcessState { name: old.name.clone(), pe: old.pe, artifact, identities };
        let column = process_column(pipeline, &session, &candidate)?;
        session.processes[proc_idx] = candidate;
        for (view, entry) in session.views.iter_mut().zip(column) {
            view.processes[proc_idx] = entry;
        }
        session.render_rows();
        let view = session.render();

        // Targeted invalidation: drop the rows of identities that vanished
        // entirely (structure present before, absent after — deleted or
        // rewritten with no structurally identical survivor). Renames and
        // moves keep their rows; reverts of *this* edit recompute.
        let surviving: HashSet<&[u8]> =
            session.processes[proc_idx].identities.iter().map(|(_, k, _)| &k[..]).collect();
        let pe = session.processes[proc_idx].pe;
        for (fid, (_, key, _)) in old_identities.iter().enumerate() {
            if surviving.contains(&key[..]) {
                continue;
            }
            for pums in &session.pums {
                let reports = pipeline.reports_for_encoded(&pums[pe]);
                let _ = reports.invalidate_function_rows(&old_artifact, FuncId(fid as u32));
            }
        }

        self.edits.fetch_add(1, Ordering::Relaxed);
        self.dirty_functions.fetch_add(report.dirty_functions as u64, Ordering::Relaxed);
        self.clean_functions.fetch_add(report.clean_functions as u64, Ordering::Relaxed);
        self.dirty_blocks.fetch_add(report.dirty_blocks as u64, Ordering::Relaxed);
        drop(session);
        let mut table = relock(&self.inner);
        self.enforce_budget(&mut table, id);
        Ok((report, view))
    }

    /// The session's current spliced estimate, replayed from the retained
    /// report — no pipeline traffic, immune to pipeline eviction.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotFound`].
    pub fn view(&self, id: u64) -> Result<SessionView, SessionError> {
        let session = self.lookup(id)?;
        let session = relock(&session);
        Ok(session.render())
    }

    /// Closes a session; returns whether it existed.
    pub fn close(&self, id: u64) -> bool {
        let mut table = relock(&self.inner);
        self.expire(&mut table);
        let existed = table.sessions.remove(&id).is_some();
        if existed {
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> SessionStats {
        let (active, resident_bytes) = {
            let table = relock(&self.inner);
            let bytes = table.sessions.values().map(|s| relock(s).resident_bytes()).sum();
            (table.sessions.len(), bytes)
        };
        SessionStats {
            active,
            created: self.created.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            edits: self.edits.load(Ordering::Relaxed),
            dirty_functions: self.dirty_functions.load(Ordering::Relaxed),
            clean_functions: self.clean_functions.load(Ordering::Relaxed),
            dirty_blocks: self.dirty_blocks.load(Ordering::Relaxed),
            resident_bytes,
        }
    }
}

/// Estimates one process at every sweep point through the rows path —
/// one column of the retained report. Dirty functions miss in the rows
/// stage; everything else splices from retained rows.
fn process_column(
    pipeline: &Pipeline,
    session: &Session,
    proc: &ProcessState,
) -> Result<Vec<ProcessView>, PipelineError> {
    let mut column = Vec::with_capacity(session.sweep.len());
    for pums in &session.pums {
        column.push(ProcessView {
            process: proc.name.clone(),
            pe: session.pe_names[proc.pe].clone(),
            report: pipeline
                .reports_for_encoded(&pums[proc.pe])
                .report_from_rows(&proc.artifact)?,
        });
    }
    Ok(column)
}

// Compile-time audit: the store is shared across serve workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionStore>();
    assert_send_sync::<SessionView>();
    assert_send_sync::<SessionError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_apps::designs::{mp3_design, Mp3Design, Mp3Params};
    use tlm_apps::mp3;
    use tlm_pipeline::DesignBuilder;

    fn store() -> SessionStore {
        SessionStore::new(u64::MAX, Duration::from_secs(3600))
    }

    fn sweep_one() -> Vec<SweepPoint> {
        vec![SweepPoint { label: "8k/4k".into(), icache: 8 << 10, dcache: 4 << 10 }]
    }

    fn mp3_session(pipeline: &Pipeline, store: &SessionStore) -> (u64, SessionView) {
        let design = mp3_design(pipeline, Mp3Design::Sw, Mp3Params::training(), 8 << 10, 4 << 10)
            .expect("builds");
        store.create(pipeline, &design, sweep_one(), false).expect("creates")
    }

    #[test]
    fn ids_are_sequential_and_close_forgets() {
        let pipeline = Pipeline::new();
        let store = store();
        let (a, _) = mp3_session(&pipeline, &store);
        let (b, _) = mp3_session(&pipeline, &store);
        assert_eq!((a, b), (1, 2));
        assert!(store.close(a));
        assert!(!store.close(a), "double close is a no-op");
        assert!(matches!(store.view(a), Err(SessionError::NotFound(1))));
        let stats = store.stats();
        assert_eq!((stats.created, stats.closed, stats.active), (2, 1, 1));
    }

    #[test]
    fn patch_edit_dirties_exactly_one_function() {
        let pipeline = Pipeline::new();
        let store = store();
        let (id, cold) = mp3_session(&pipeline, &store);
        let before = pipeline.stats().rows;
        // An op-class change (add → multiply): structurally dirty. A
        // constant-only tweak would be clean — operand values are not part
        // of block identity because Algorithms 1 and 2 never read them.
        let edit = SourceEdit::Patch {
            find: "checksum = (checksum ^ mono) + (mono & 255);",
            replace: "checksum = (checksum ^ mono) * (mono & 255);",
        };
        let (report, view) = store.edit(&pipeline, id, "sink", &edit).expect("edits");
        assert_eq!(report.dirty_functions, 1, "one function structurally changed");
        assert_eq!(report.added_functions + report.removed_functions, 0);
        assert!(report.dirty_blocks > 0);
        let after = pipeline.stats().rows;
        assert_eq!(after.misses, before.misses + 1, "exactly the dirty function recomputed");
        // Untouched processes splice bit-identically from the cold run.
        for (cold_point, warm_point) in cold.sweep.iter().zip(&view.sweep) {
            for (cold_proc, warm_proc) in cold_point.processes.iter().zip(&warm_point.processes) {
                if cold_proc.process != "sink" {
                    assert_eq!(cold_proc.report, warm_proc.report);
                }
            }
        }
    }

    #[test]
    fn whitespace_edit_dirties_nothing() {
        let pipeline = Pipeline::new();
        let store = store();
        let (id, _) = mp3_session(&pipeline, &store);
        let before = pipeline.stats().rows;
        let source = format!("// a comment\n{}", mp3::sink_source());
        let (report, _) =
            store.edit(&pipeline, id, "sink", &SourceEdit::Full(&source)).expect("edits");
        assert_eq!(report.dirty_functions, 0, "comment-only edit is structurally clean");
        assert_eq!(pipeline.stats().rows.misses, before.misses, "nothing recomputed");
    }

    #[test]
    fn renaming_a_function_keeps_its_rows() {
        const SOURCE: &str = "int helper(int x) { return x * 3 + 1; }
            void main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + helper(i); } out(s); }";
        let pipeline = Pipeline::new();
        let store = store();
        let mut builder = DesignBuilder::new(&pipeline, "rename");
        let pe = builder.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
        builder.add_process("p", SOURCE, "main", &[], pe).expect("lowers");
        let design = builder.build().expect("builds");
        let (id, _) = store.create(&pipeline, &design, sweep_one(), false).expect("creates");
        // Rename `helper` and its call site, then rename it back. The
        // report diffs by name, so it claims one function removed and one
        // added (and dirty); the schedule keys encode op classes, not
        // names, so neither edit recomputes a row.
        for source in [SOURCE.replace("helper", "renamed"), SOURCE.to_owned()] {
            let before = pipeline.stats().rows.misses;
            let (report, _) =
                store.edit(&pipeline, id, "p", &SourceEdit::Full(&source)).expect("edits");
            assert_eq!(
                (report.added_functions, report.removed_functions, report.dirty_functions),
                (1, 1, 1),
                "{report:?}"
            );
            assert_eq!(pipeline.stats().rows.misses, before, "a rename keeps its rows");
        }
    }

    #[test]
    fn patch_must_match_exactly_once() {
        let pipeline = Pipeline::new();
        let store = store();
        let (id, _) = mp3_session(&pipeline, &store);
        let miss = SourceEdit::Patch { find: "no such text", replace: "x" };
        assert_eq!(
            store.edit(&pipeline, id, "sink", &miss).expect_err("rejects"),
            SessionError::PatchMismatch { matches: 0 }
        );
        let broken = SourceEdit::Full("int main( {");
        let err = store.edit(&pipeline, id, "sink", &broken).expect_err("rejects");
        assert!(matches!(err, SessionError::Pipeline(_)));
        // The failed edits left the session intact.
        store.view(id).expect("still serves");
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let pipeline = Pipeline::new();
        // Two mp3 sessions do not fit 20 KiB of key bytes.
        let store = SessionStore::new(20 << 10, Duration::from_secs(3600));
        let (a, _) = mp3_session(&pipeline, &store);
        let (b, _) = mp3_session(&pipeline, &store);
        assert!(matches!(store.view(a), Err(SessionError::NotFound(_))));
        store.view(b).expect("the newest session survives");
        assert!(store.stats().evicted >= 1);

        // A per-block session is charged its rendered rows from creation,
        // so the budget bounds them too; a totals session never is, and
        // views move neither charge.
        let (totals, blocks) = (self::store(), self::store());
        let (t, view) = mp3_session(&pipeline, &totals);
        let charge = totals.stats().resident_bytes;
        let design = mp3_design(&pipeline, Mp3Design::Sw, Mp3Params::training(), 8 << 10, 4 << 10)
            .expect("builds");
        let (b, _) = blocks.create(&pipeline, &design, sweep_one(), true).expect("creates");
        let rendered: u64 = view
            .sweep
            .iter()
            .flat_map(|point| &point.processes)
            .map(|p| p.report.functions_json().len() as u64)
            .sum();
        assert!(rendered > 0);
        assert_eq!(blocks.stats().resident_bytes, charge + rendered);
        totals.view(t).expect("views");
        blocks.view(b).expect("views");
        assert_eq!(
            totals.stats().resident_bytes,
            charge,
            "rendered reports charge no totals session"
        );
        assert_eq!(blocks.stats().resident_bytes, charge + rendered);
    }

    #[test]
    fn ttl_expires_idle_sessions() {
        let pipeline = Pipeline::new();
        let store = SessionStore::new(u64::MAX, Duration::ZERO);
        let (id, _) = mp3_session(&pipeline, &store);
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(store.view(id), Err(SessionError::NotFound(_))));
        assert_eq!(store.stats().expired, 1);
    }
}
