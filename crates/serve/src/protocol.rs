//! The JSON request/response schema of the estimation service.
//!
//! A request names a platform — either one of the built-in evaluation
//! designs (`"mp3:sw"`, `"image:hw"`, …) or a full platform description
//! decoded by [`tlm_platform::json`] — plus an optional cache-size sweep
//! and a report granularity:
//!
//! ```json
//! {
//!   "platform": "mp3:sw",
//!   "sweep": ["0k/0k", {"icache": 8192, "dcache": 4096}],
//!   "report": "totals"
//! }
//! ```
//!
//! Several designs can be estimated in one round trip by wrapping jobs in
//! a batch: `{"jobs": [job, job, ...]}` answers `{"results": [...]}` in
//! order.
//!
//! **Determinism contract.** The response body is a pure function of the
//! request body: it carries only values derived from the estimation
//! (block counts, op counts, cycle totals, per-block delays) and never
//! wall-clock or cache-occupancy observations. Concurrent clients sending
//! the same bytes receive the same bytes, regardless of interleaving —
//! the protocol integration tests assert this bit-exactly. Timing and
//! cache statistics are exported through `/metrics` instead.
//!
//! **Cross-request memoization.** All jobs run against one process-wide
//! artifact [`Pipeline`]: every request demands its answers from the
//! report stage, which short-circuits the whole graph on a hit, so a warm
//! server answers repeat sweeps without re-running any stage at all. The
//! built-in designs additionally share their [`PreparedDesign`]s through a
//! [`Catalog`], together with every PE's PUM at every [`CACHE_SWEEP`]
//! point, resized and encoded once per design: a warm read of those points
//! clones, encodes and hashes no PUM. Per-stage hit/miss/entry counters
//! are exported on `/metrics`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tlm_apps::designs::{mp3_design, Mp3Design, Mp3Params, CACHE_SWEEP};
use tlm_apps::imagepipe::{image_design, ImageParams};
use tlm_json::{ArrayWriter, ObjectBuilder, ObjectWriter, ParseLimits, Value};
use tlm_pipeline::{EncodedPum, EstimateReport, Pipeline, PreparedDesign, PumReports};
use tlm_session::{EditReport, SessionError, SessionStore, SessionView, SourceEdit};

use crate::http::{Request, Response};
use crate::metrics::Metrics;

/// Default resident-byte budget across all sessions.
pub const DEFAULT_SESSION_BUDGET: u64 = 64 << 20;

/// Default idle time after which a session expires.
pub const DEFAULT_SESSION_TTL: Duration = Duration::from_secs(900);

/// Upper bound on sweep points per job — bounds the work one request can
/// demand.
pub const MAX_SWEEP_POINTS: usize = 32;

/// Upper bound on jobs per batch request.
pub const MAX_JOBS: usize = 16;

/// The built-in design names accepted for `"platform"`.
pub const BUILTIN_DESIGNS: [&str; 6] =
    ["mp3:sw", "mp3:sw+1", "mp3:sw+2", "mp3:sw+4", "image:sw", "image:hw"];

/// Default cache sizes the built-in platforms are constructed with; each
/// sweep point re-derives the PUMs from these via
/// [`tlm_core::Pum::with_cache_sizes`], so the value only matters as a starting
/// point that *is* cached (size 0 would drop the cache models entirely).
const BASE_CACHES: (u32, u32) = (8 << 10, 4 << 10);

fn build_builtin(pipeline: &Pipeline, name: &str) -> Option<Result<PreparedDesign, String>> {
    let (ic, dc) = BASE_CACHES;
    let design = match name {
        "mp3:sw" => Mp3Design::Sw,
        "mp3:sw+1" => Mp3Design::SwPlus1,
        "mp3:sw+2" => Mp3Design::SwPlus2,
        "mp3:sw+4" => Mp3Design::SwPlus4,
        "image:sw" => {
            return Some(
                image_design(pipeline, false, ImageParams::small(), ic, dc)
                    .map_err(|e| e.to_string()),
            )
        }
        "image:hw" => {
            return Some(
                image_design(pipeline, true, ImageParams::small(), ic, dc)
                    .map_err(|e| e.to_string()),
            )
        }
        _ => return None,
    };
    Some(mp3_design(pipeline, design, Mp3Params::evaluation(), ic, dc).map_err(|e| e.to_string()))
}

/// Every PE's PUM resized to one sweep point and encoded, indexed by PE.
fn encode_sweep_point(design: &PreparedDesign, icache: u32, dcache: u32) -> Vec<EncodedPum> {
    // `with_cache_sizes` is a no-op on custom-HW PEs, whose memory paths
    // are hardwired.
    let pes = design.platform.pes.iter();
    pes.map(|pe| EncodedPum::new(pe.pum.with_cache_sizes(icache, dcache))).collect()
}

/// A design a job runs, with the encoded PUMs of the sweep points it was
/// built with.
#[derive(Debug)]
struct Design {
    prepared: Arc<PreparedDesign>,
    /// Per [`CACHE_SWEEP`] point, [`encode_sweep_point`]'s PUMs; empty for
    /// an inline platform.
    table: Vec<Vec<EncodedPum>>,
}

impl Design {
    /// Every PE's encoded PUM at a sweep point: the table's row when the
    /// sizes are a [`CACHE_SWEEP`] point it holds, else encoded now.
    fn sweep_pums(&self, icache: u32, dcache: u32) -> Cow<'_, [EncodedPum]> {
        let point = CACHE_SWEEP.iter().position(|&(_, ic, dc)| (ic, dc) == (icache, dcache));
        match point.and_then(|i| self.table.get(i)) {
            Some(row) => Cow::Borrowed(row),
            None => Cow::Owned(encode_sweep_point(&self.prepared, icache, dcache)),
        }
    }
}

/// Lazily-built, process-lifetime cache of the built-in designs.
///
/// The pipeline already memoizes each process's parse/lower by source;
/// the catalog additionally caches the assembled [`PreparedDesign`]
/// (platform wiring plus artifact list) per name, so repeat requests do
/// not even re-walk the builders, and with it every PE's PUM at every
/// [`CACHE_SWEEP`] point, resized and encoded. The first request for each
/// name pays the build; everyone after shares the `Arc`. Only built-in
/// names are ever entered, so the catalog never grows past them.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: Mutex<HashMap<String, Arc<Design>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Resolves a built-in design by name, building it through `pipeline`
    /// and caching it on first use. `Ok(None)` means the name is not a
    /// built-in.
    ///
    /// # Errors
    ///
    /// Propagates the build error message (should not occur for the
    /// shipped sources).
    pub fn builtin(
        &self,
        pipeline: &Pipeline,
        name: &str,
    ) -> Result<Option<Arc<PreparedDesign>>, String> {
        Ok(self.design(pipeline, name)?.map(|design| Arc::clone(&design.prepared)))
    }

    /// [`Catalog::builtin`] with the design's sweep table.
    fn design(&self, pipeline: &Pipeline, name: &str) -> Result<Option<Arc<Design>>, String> {
        if let Some(hit) = self.entries.lock().expect("catalog poisoned").get(name) {
            return Ok(Some(Arc::clone(hit)));
        }
        // Build outside the lock: designs build independently and a slow
        // build must not serialize unrelated requests.
        let Some(built) = build_builtin(pipeline, name) else {
            return Ok(None);
        };
        let prepared = built?;
        let table =
            CACHE_SWEEP.iter().map(|&(_, ic, dc)| encode_sweep_point(&prepared, ic, dc)).collect();
        let design = Arc::new(Design { prepared: Arc::new(prepared), table });
        let mut entries = self.entries.lock().expect("catalog poisoned");
        let entry = entries.entry(name.to_string()).or_insert_with(|| Arc::clone(&design));
        Ok(Some(Arc::clone(entry)))
    }
}

/// One cache configuration to estimate under.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SweepPoint {
    label: String,
    icache: u32,
    dcache: u32,
}

/// How much detail a job's response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportKind {
    /// Per-process totals only.
    Totals,
    /// Totals plus every basic block's delay decomposition.
    Blocks,
}

/// One decoded estimation job.
#[derive(Debug)]
struct Job {
    design: Arc<Design>,
    sweep: Vec<SweepPoint>,
    report: ReportKind,
}

/// Why a job could not be answered — the split decides the status code.
///
/// Client errors are deterministic properties of the request (bad JSON,
/// unknown design, an estimation error the same bytes would always hit)
/// and answer `400`. Transient errors (an injected fault, resource
/// pressure — [`tlm_pipeline::PipelineError::is_deterministic`] is
/// false) answer `503` with `Retry-After`: the same request may well
/// succeed on retry, and the pipeline has already dropped the failed
/// slot so the retry actually recomputes.
#[derive(Debug)]
enum JobError {
    Client(String),
    Transient(String),
}

impl From<String> for JobError {
    fn from(message: String) -> JobError {
        JobError::Client(message)
    }
}

fn u32_field(value: &Value, key: &str, what: &str) -> Result<u32, String> {
    let v = value.get(key).ok_or_else(|| format!("{what}: missing `{key}`"))?;
    let n = v.as_u64().ok_or_else(|| format!("{what}: `{key}` must be a non-negative integer"))?;
    u32::try_from(n).map_err(|_| format!("{what}: `{key}` out of range"))
}

fn decode_sweep_point(value: &Value, what: &str) -> Result<SweepPoint, String> {
    match value {
        Value::String(label) => CACHE_SWEEP
            .iter()
            .find(|(name, _, _)| name == label)
            .map(|&(name, ic, dc)| SweepPoint { label: name.to_string(), icache: ic, dcache: dc })
            .ok_or_else(|| {
                let known: Vec<&str> = CACHE_SWEEP.iter().map(|&(n, _, _)| n).collect();
                format!("{what}: unknown sweep label `{label}` (known: {})", known.join(", "))
            }),
        Value::Object(_) => {
            let icache = u32_field(value, "icache", what)?;
            let dcache = u32_field(value, "dcache", what)?;
            let label = match value.get("label") {
                None => format!("{icache}/{dcache}"),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| format!("{what}: `label` must be a string"))?
                    .to_string(),
            };
            Ok(SweepPoint { label, icache, dcache })
        }
        _ => {
            Err(format!("{what}: each sweep point is a label string or {{\"icache\", \"dcache\"}}"))
        }
    }
}

fn decode_job(
    value: &Value,
    pipeline: &Pipeline,
    catalog: &Catalog,
    what: &str,
) -> Result<Job, JobError> {
    let platform = value.get("platform").ok_or_else(|| format!("{what}: missing `platform`"))?;
    let design = match platform {
        Value::String(name) => catalog.design(pipeline, name)?.ok_or_else(|| {
            format!(
                "{what}: unknown design `{name}` (known: {}; or pass a platform object)",
                BUILTIN_DESIGNS.join(", ")
            )
        })?,
        Value::Object(_) => {
            let custom = pipeline.design_from_value(platform).map_err(|e| {
                let message = format!("{what}: {e}");
                if e.is_deterministic() {
                    JobError::Client(message)
                } else {
                    JobError::Transient(message)
                }
            })?;
            Arc::new(Design { prepared: Arc::new(custom), table: Vec::new() })
        }
        _ => {
            return Err(JobError::Client(format!(
                "{what}: `platform` must be a design name or a platform object"
            )))
        }
    };

    let sweep = match value.get("sweep") {
        None => CACHE_SWEEP
            .iter()
            .map(|&(name, ic, dc)| SweepPoint { label: name.to_string(), icache: ic, dcache: dc })
            .collect(),
        Some(v) => {
            let points = v.as_array().ok_or_else(|| format!("{what}: `sweep` must be an array"))?;
            if points.is_empty() {
                return Err(format!("{what}: `sweep` must not be empty").into());
            }
            if points.len() > MAX_SWEEP_POINTS {
                return Err(format!(
                    "{what}: `sweep` has {} points, limit is {MAX_SWEEP_POINTS}",
                    points.len()
                )
                .into());
            }
            points
                .iter()
                .enumerate()
                .map(|(i, p)| decode_sweep_point(p, &format!("{what}: sweep[{i}]")))
                .collect::<Result<Vec<_>, _>>()?
        }
    };

    let report = match value.get("report") {
        None => ReportKind::Totals,
        Some(v) => match v.as_str() {
            Some("totals") => ReportKind::Totals,
            Some("blocks") => ReportKind::Blocks,
            _ => {
                return Err(format!("{what}: `report` must be \"totals\" or \"blocks\"").into());
            }
        },
    };

    for key in value.as_object().into_iter().flatten().map(|(k, _)| k) {
        if !matches!(key.as_str(), "platform" | "sweep" | "report") {
            return Err(format!("{what}: unknown field `{key}`").into());
        }
    }

    Ok(Job { design, sweep, report })
}

/// Renders one process's estimate row — shared by the stateless
/// `/estimate` path and the session views, so a spliced session report
/// renders bit-identically to a cold request for the same inputs.
///
/// Every renderer here streams compact JSON straight into the response
/// body. Numbers go through `as f64`, exactly the conversion
/// `tlm_json::Value::from` applies, so the bytes equal those of the
/// equivalent `Value` tree. The per-block `"functions"` array is the
/// report's own cached rendering ([`EstimateReport::functions_json`]):
/// only the first per-block read of a report formats its rows.
fn render_process_row(
    out: &mut String,
    process: &str,
    pe: &str,
    report: &EstimateReport,
    blocks: bool,
) {
    let mut row = ObjectWriter::new(out)
        .string("process", process)
        .string("pe", pe)
        .number("blocks", report.blocks() as f64)
        .number("ops", report.ops() as f64)
        .number("total_block_cycles", report.total_cycles() as f64);
    if blocks {
        row.key("functions").push_str(report.functions_json());
    }
    row.finish();
}

/// Renders one sweep point's row; `processes` appends its process rows.
fn render_sweep_row<E>(
    out: &mut String,
    label: &str,
    icache: u32,
    dcache: u32,
    processes: impl FnOnce(&mut ArrayWriter<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let mut row = ObjectWriter::new(out)
        .string("label", label)
        .number("icache", f64::from(icache))
        .number("dcache", f64::from(dcache));
    let mut rows = ArrayWriter::new(row.key("processes"));
    processes(&mut rows)?;
    rows.finish();
    row.finish();
    Ok(())
}

/// Renders the top-level platform report object; `sweep` appends its
/// sweep rows.
fn render_platform<E>(
    out: &mut String,
    platform: &str,
    pes: usize,
    processes: usize,
    sweep: impl FnOnce(&mut ArrayWriter<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let mut report = ObjectWriter::new(out)
        .string("platform", platform)
        .number("pes", pes as f64)
        .number("processes", processes as f64);
    let mut rows = ArrayWriter::new(report.key("sweep"));
    sweep(&mut rows)?;
    rows.finish();
    report.finish();
    Ok(())
}

/// Runs one job and renders its report into `out`. On error `out` holds
/// a partial object the caller discards.
fn run_job(pipeline: &Pipeline, job: &Job, out: &mut String) -> Result<(), JobError> {
    let design = &job.design.prepared;
    let platform = &design.platform;
    let blocks = job.report == ReportKind::Blocks;
    render_platform(out, &platform.name, platform.pes.len(), platform.processes.len(), |sweep| {
        for point in &job.sweep {
            // One encoded PUM per PE; processes mapped to the same PE
            // share it and, inside the pipeline, its schedule domain.
            let pums = job.design.sweep_pums(point.icache, point.dcache);
            let reports: Vec<PumReports<'_>> =
                pums.iter().map(|pum| pipeline.reports_for_encoded(pum)).collect();
            let (label, ic, dc) = (&point.label, point.icache, point.dcache);
            render_sweep_row::<JobError>(sweep.item(), label, ic, dc, |rows| {
                for (proc, artifact) in platform.processes.iter().zip(design.artifacts()) {
                    let report = reports[proc.pe.0].report(artifact).map_err(|e| {
                        let message = format!(
                            "sweep `{}`, process `{}`: estimation failed: {e}",
                            point.label, proc.name
                        );
                        if e.is_deterministic() {
                            JobError::Client(message)
                        } else {
                            JobError::Transient(message)
                        }
                    })?;
                    let pe = &platform.pes[proc.pe.0].name;
                    render_process_row(rows.item(), &proc.name, pe, &report, blocks);
                }
                Ok(())
            })?;
        }
        Ok(())
    })
}

/// Renders a session's spliced estimate exactly like a stateless
/// `/estimate` response for the same platform and sweep.
fn render_session_view(out: &mut String, view: &SessionView) {
    let Ok(()) =
        render_platform::<Infallible>(out, &view.platform, view.pes, view.processes, |sweep| {
            for point in &view.sweep {
                let (label, ic, dc) = (&point.label, point.icache, point.dcache);
                render_sweep_row::<Infallible>(sweep.item(), label, ic, dc, |rows| {
                    for p in &point.processes {
                        render_process_row(
                            rows.item(),
                            &p.process,
                            &p.pe,
                            &p.report,
                            view.detail_blocks,
                        );
                    }
                    Ok(())
                })?;
            }
            Ok(())
        });
}

/// Renders an edit's dirty-set accounting.
fn render_edit_report(out: &mut String, edit: &EditReport) {
    ObjectWriter::new(out)
        .string("process", &edit.process)
        .number("dirty_functions", edit.dirty_functions as f64)
        .number("clean_functions", edit.clean_functions as f64)
        .number("dirty_blocks", edit.dirty_blocks as f64)
        .number("added_functions", edit.added_functions as f64)
        .number("removed_functions", edit.removed_functions as f64)
        .finish();
}

/// A session response: `{"session": id, ["edit": …,] "report": …}` and a
/// trailing newline, streamed into one body.
fn session_response(id: u64, edit: Option<&EditReport>, view: &SessionView) -> Response {
    let mut body = String::new();
    let mut envelope = ObjectWriter::new(&mut body).number("session", id as f64);
    if let Some(edit) = edit {
        render_edit_report(envelope.key("edit"), edit);
    }
    render_session_view(envelope.key("report"), view);
    envelope.finish();
    body.push('\n');
    Response::json(200, body)
}

fn session_error_response(e: &SessionError) -> Response {
    match e {
        SessionError::NotFound(id) => Response::error(404, &format!("no session {id}")),
        _ if e.is_deterministic() => Response::error(400, &e.to_string()),
        _ => Response::error(503, &e.to_string()).with_header("Retry-After", "1"),
    }
}

/// The request handler shared by every worker thread: routing, decoding,
/// estimation and rendering.
#[derive(Debug)]
pub struct Service {
    /// The process-wide artifact pipeline every request runs against.
    pub pipeline: Arc<Pipeline>,
    /// The built-in design catalog.
    pub catalog: Catalog,
    /// Live edit-to-estimate sessions.
    pub sessions: SessionStore,
    /// Capacity of the accept queue, exported through `/metrics`.
    pub queue_capacity: usize,
}

impl Service {
    /// A service around a fresh pipeline and an empty catalog.
    pub fn new(queue_capacity: usize) -> Service {
        Service::with_limits(queue_capacity, u64::MAX, DEFAULT_SESSION_BUDGET, DEFAULT_SESSION_TTL)
    }

    /// Every knob explicit: pipeline cache budget, session resident-byte
    /// budget, session idle TTL. `u64::MAX` disables the respective
    /// budget. The pipeline evicts down to roughly `cache_budget` resident
    /// key bytes ([`Pipeline::with_budget`]); responses stay bit-identical
    /// across evictions, only recompute cost varies.
    pub fn with_limits(
        queue_capacity: usize,
        cache_budget: u64,
        session_budget: u64,
        session_ttl: Duration,
    ) -> Service {
        let pipeline = if cache_budget == u64::MAX {
            Pipeline::new()
        } else {
            Pipeline::with_budget(cache_budget)
        };
        crate::trace::install_stage_observer();
        Service {
            pipeline: Arc::new(pipeline),
            catalog: Catalog::new(),
            sessions: SessionStore::new(session_budget, session_ttl),
            queue_capacity,
        }
    }

    /// Decodes and runs `POST /estimate`.
    fn estimate(&self, body: &[u8], max_body: usize) -> Response {
        let root = match Self::parse_body(body, max_body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };

        let run_one = |value: &Value, what: &str, out: &mut String| -> Result<(), JobError> {
            let job = decode_job(value, &self.pipeline, &self.catalog, what)?;
            run_job(&self.pipeline, &job, out)
        };

        let mut body = String::new();
        let result = if let Some(jobs) = root.get("jobs") {
            let Some(jobs) = jobs.as_array() else {
                return Response::error(400, "`jobs` must be an array");
            };
            if jobs.is_empty() {
                return Response::error(400, "`jobs` must not be empty");
            }
            if jobs.len() > MAX_JOBS {
                return Response::error(
                    400,
                    &format!("batch has {} jobs, limit is {MAX_JOBS}", jobs.len()),
                );
            }
            let mut envelope = ObjectWriter::new(&mut body);
            let mut results = ArrayWriter::new(envelope.key("results"));
            let ran = jobs
                .iter()
                .enumerate()
                .try_for_each(|(i, j)| run_one(j, &format!("jobs[{i}]"), results.item()));
            results.finish();
            envelope.finish();
            ran
        } else {
            run_one(&root, "request", &mut body)
        };

        match result {
            Ok(()) => {
                body.push('\n');
                Response::json(200, body)
            }
            Err(JobError::Client(message)) => Response::error(400, &message),
            // Retryable: the failed slot was not cached, so a retry
            // actually recomputes instead of replaying the failure.
            Err(JobError::Transient(message)) => {
                Response::error(503, &message).with_header("Retry-After", "1")
            }
        }
    }

    /// Parses a request body as JSON with the configured limits.
    fn parse_body(body: &[u8], max_body: usize) -> Result<Value, Response> {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return Err(Response::error(400, "request body is not UTF-8")),
        };
        let limits = ParseLimits { max_bytes: max_body, ..ParseLimits::DEFAULT };
        tlm_json::parse_with_limits(text, limits)
            .map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
    }

    /// Decodes and runs `POST /session`: the create body is exactly an
    /// estimate job (`platform`, optional `sweep` and `report`); the
    /// response carries the new session id plus the same report object a
    /// stateless `POST /estimate` would answer.
    fn session_create(&self, body: &[u8], max_body: usize) -> Response {
        let root = match Self::parse_body(body, max_body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let job = match decode_job(&root, &self.pipeline, &self.catalog, "session") {
            Ok(job) => job,
            Err(JobError::Client(m)) => return Response::error(400, &m),
            Err(JobError::Transient(m)) => {
                return Response::error(503, &m).with_header("Retry-After", "1")
            }
        };
        let sweep = job
            .sweep
            .iter()
            .map(|p| tlm_session::SweepPoint {
                label: p.label.clone(),
                icache: p.icache,
                dcache: p.dcache,
            })
            .collect();
        let detail = job.report == ReportKind::Blocks;
        match self.sessions.create(&self.pipeline, &job.design.prepared, sweep, detail) {
            Ok((id, view)) => session_response(id, None, &view),
            Err(e) => session_error_response(&e),
        }
    }

    /// Decodes and runs `POST /session/{id}/edit`. The body names the
    /// process and carries either a full `source` replacement or a
    /// `patch` (`{"find", "replace"}`, matching exactly once).
    fn session_edit(&self, id: u64, body: &[u8], max_body: usize) -> Response {
        let root = match Self::parse_body(body, max_body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(process) = root.get("process").and_then(Value::as_str) else {
            return Response::error(400, "edit: missing `process`");
        };
        for key in root.as_object().into_iter().flatten().map(|(k, _)| k) {
            if !matches!(key.as_str(), "process" | "source" | "patch") {
                return Response::error(400, &format!("edit: unknown field `{key}`"));
            }
        }
        let edit = match (root.get("source"), root.get("patch")) {
            (Some(source), None) => match source.as_str() {
                Some(source) => SourceEdit::Full(source),
                None => return Response::error(400, "edit: `source` must be a string"),
            },
            (None, Some(patch)) => {
                for key in patch.as_object().into_iter().flatten().map(|(k, _)| k) {
                    if !matches!(key.as_str(), "find" | "replace") {
                        return Response::error(400, &format!("edit: unknown field `patch.{key}`"));
                    }
                }
                let find = patch.get("find").and_then(Value::as_str);
                let replace = patch.get("replace").and_then(Value::as_str);
                match (find, replace) {
                    (Some(find), Some(replace)) => SourceEdit::Patch { find, replace },
                    _ => {
                        return Response::error(
                            400,
                            "edit: `patch` needs string `find` and `replace`",
                        )
                    }
                }
            }
            _ => return Response::error(400, "edit: exactly one of `source` or `patch`"),
        };
        match self.sessions.edit(&self.pipeline, id, process, &edit) {
            Ok((report, view)) => session_response(id, Some(&report), &view),
            Err(e) => session_error_response(&e),
        }
    }

    /// Routes `/session/{id}` and `/session/{id}/edit`. In-flight session
    /// work is allowed during drain — only creation is gated in
    /// [`Service::handle`].
    fn session_route(&self, method: &str, target: &str, body: &[u8], max_body: usize) -> Response {
        let rest = &target["/session/".len()..];
        let (id_text, tail) = match rest.split_once('/') {
            None => (rest, None),
            Some((id, tail)) => (id, Some(tail)),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return Response::error(404, &format!("no such endpoint `{target}`"));
        };
        match (method, tail) {
            ("GET", None) => match self.sessions.view(id) {
                Ok(view) => session_response(id, None, &view),
                Err(e) => session_error_response(&e),
            },
            ("DELETE", None) => {
                if self.sessions.close(id) {
                    let mut body = ObjectBuilder::new()
                        .field("session", id)
                        .field("closed", true)
                        .build()
                        .to_compact();
                    body.push('\n');
                    Response::json(200, body)
                } else {
                    Response::error(404, &format!("no session {id}"))
                }
            }
            (_, None) => {
                Response::error(405, "use GET or DELETE").with_header("Allow", "GET, DELETE")
            }
            ("POST", Some("edit")) => self.session_edit(id, body, max_body),
            (_, Some("edit")) => {
                Response::error(405, "use POST /session/{id}/edit").with_header("Allow", "POST")
            }
            _ => Response::error(404, &format!("no such endpoint `{target}`")),
        }
    }

    /// Routes one request to a response. `max_body` is the configured
    /// body cap, reused as the JSON parser's size limit. `draining` flips
    /// `/readyz` to `503` (stop sending new work here) while `/healthz`
    /// stays `200` (the process is alive and flushing) — the degradation
    /// ladder's drain rung. Draining also rejects **new session
    /// creation** (sessions are long-lived state a terminating process
    /// must not accept), while requests against existing sessions keep
    /// being served until the listener closes.
    pub fn handle(
        &self,
        req: &Request,
        metrics: &Metrics,
        max_body: usize,
        draining: bool,
    ) -> Response {
        let (path, query) = match req.target.split_once('?') {
            Some((path, query)) => (path, Some(query)),
            None => (req.target.as_str(), None),
        };
        // Attribute this request's ring events to one id. The event loop
        // assigns ids at dispatch; direct callers (tests) get one here.
        let (trace_id, _trace_guard) = crate::trace::ensure_current();
        crate::trace::record("request", "begin", format!("{} {}", req.method, path));
        let want_trace = query.is_some_and(|q| q.split('&').any(|p| p == "trace=1"));
        let resp = self.route(req, path, metrics, max_body, draining);
        crate::trace::record("request", "end", crate::trace::status_detail(resp.status));
        if want_trace && path == "/estimate" && req.method == "POST" {
            // The estimate ran normally (recording events); answer its
            // trace instead of the report. Trace export is opt-in and
            // out-of-band so that normal responses stay a pure function
            // of the request bytes.
            return match crate::trace::export_chrome(trace_id) {
                Some(json) => Response::json(resp.status, json),
                None => Response::error(404, "trace ring holds no events for this request"),
            };
        }
        resp
    }

    /// Dispatches one request by `(method, path)`.
    fn route(
        &self,
        req: &Request,
        path: &str,
        metrics: &Metrics,
        max_body: usize,
        draining: bool,
    ) -> Response {
        match (req.method.as_str(), path) {
            ("POST", "/estimate") => self.estimate(&req.body, max_body),
            ("POST", "/session") => {
                if draining {
                    Response::error(503, "draining: not accepting new sessions")
                        .with_header("Retry-After", "1")
                } else {
                    self.session_create(&req.body, max_body)
                }
            }
            ("GET", "/metrics") => {
                let page = metrics.render(
                    &self.pipeline.stats(),
                    &self.sessions.stats(),
                    self.queue_capacity,
                );
                Response::text(200, page)
            }
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/readyz") => {
                if draining {
                    Response::error(503, "draining").with_header("Retry-After", "1")
                } else {
                    Response::text(200, "ready\n")
                }
            }
            ("GET", p) if p.strip_prefix("/trace/").is_some_and(|id| id.parse::<u64>().is_ok()) => {
                let id = p.strip_prefix("/trace/").expect("guard").parse::<u64>().expect("guard");
                match crate::trace::export_chrome(id) {
                    Some(json) => Response::json(200, json),
                    None => Response::error(404, &format!("no trace for request {id} in the ring")),
                }
            }
            (_, "/estimate") => {
                Response::error(405, "use POST /estimate").with_header("Allow", "POST")
            }
            (_, "/session") => {
                Response::error(405, "use POST /session").with_header("Allow", "POST")
            }
            (_, "/metrics" | "/healthz" | "/readyz") => {
                Response::error(405, "use GET").with_header("Allow", "GET")
            }
            (_, p) if p.strip_prefix("/trace/").is_some_and(|id| id.parse::<u64>().is_ok()) => {
                Response::error(405, "use GET /trace/{id}").with_header("Allow", "GET")
            }
            (method, p) if p.starts_with("/session/") => {
                self.session_route(method, p, &req.body, max_body)
            }
            (_, p) => Response::error(404, &format!("no such endpoint `{p}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(8)
    }

    fn estimate(svc: &Service, body: &str) -> (u16, Value) {
        let resp = svc.estimate(body.as_bytes(), 1 << 20);
        let text = std::str::from_utf8(&resp.body).expect("utf8 body");
        (resp.status, tlm_json::parse(text).expect("json body"))
    }

    #[test]
    fn image_design_estimates_across_a_sweep() {
        let svc = service();
        let (status, v) = estimate(
            &svc,
            r#"{"platform": "image:sw", "sweep": ["0k/0k", {"icache": 8192, "dcache": 4096}]}"#,
        );
        assert_eq!(status, 200, "body: {}", v.to_compact());
        assert_eq!(v.get("platform").and_then(Value::as_str), Some("image-sw"));
        let sweep = v.get("sweep").and_then(Value::as_array).expect("sweep array");
        assert_eq!(sweep.len(), 2);
        let first = sweep[0].get("processes").and_then(Value::as_array).expect("processes");
        assert!(!first.is_empty());
        let cycles =
            |p: &Value| p.get("total_block_cycles").and_then(Value::as_u64).expect("cycles");
        assert!(first.iter().map(cycles).sum::<u64>() > 0);
        // Caches shave cycles: the cached point is cheaper than 0k/0k.
        let second = sweep[1].get("processes").and_then(Value::as_array).expect("processes");
        let uncached: u64 = first.iter().map(cycles).sum();
        let cached: u64 = second.iter().map(cycles).sum();
        assert!(cached < uncached, "cached {cached} !< uncached {uncached}");
    }

    #[test]
    fn repeat_requests_are_bit_identical_and_hit_the_cache() {
        let svc = service();
        let body = r#"{"platform": "image:hw", "sweep": ["2k/2k"]}"#;
        let first = svc.estimate(body.as_bytes(), 1 << 20);
        assert_eq!(first.status, 200);
        let stats = svc.pipeline.stats();
        assert!(stats.schedules.misses > 0, "first run schedules");
        assert!(stats.report.misses > 0, "first run computes reports");
        let second = svc.estimate(body.as_bytes(), 1 << 20);
        assert_eq!(first.body, second.body, "responses must be bit-identical");
        let warm = svc.pipeline.stats();
        assert_eq!(warm.report.misses, stats.report.misses, "second run is all report hits");
        assert!(warm.report.hits > stats.report.hits);
        // The report stage short-circuits the graph: nothing upstream even
        // sees a lookup on the warm request.
        assert_eq!(warm.schedules.misses, stats.schedules.misses);
        assert_eq!(warm.schedules.hits, stats.schedules.hits);
        assert_eq!(warm.annotated.misses, stats.annotated.misses);
        assert_eq!(warm.annotated.hits, stats.annotated.hits);
    }

    #[test]
    fn blocks_report_carries_delay_decomposition() {
        let svc = service();
        let (status, v) =
            estimate(&svc, r#"{"platform": "image:sw", "sweep": ["8k/4k"], "report": "blocks"}"#);
        assert_eq!(status, 200);
        let procs = v.get("sweep").and_then(Value::as_array).expect("sweep")[0]
            .get("processes")
            .and_then(Value::as_array)
            .expect("processes");
        let funcs = procs[0].get("functions").and_then(Value::as_array).expect("functions");
        let blocks = funcs[0].get("blocks").and_then(Value::as_array).expect("blocks");
        for key in ["sched", "branch", "ifetch", "data", "cycles"] {
            assert!(blocks[0].get(key).is_some(), "missing `{key}`");
        }
    }

    #[test]
    fn batch_answers_in_order() {
        let svc = service();
        let (status, v) = estimate(
            &svc,
            r#"{"jobs": [
                {"platform": "image:sw", "sweep": ["0k/0k"]},
                {"platform": "image:hw", "sweep": ["0k/0k"]}
            ]}"#,
        );
        assert_eq!(status, 200);
        let results = v.get("results").and_then(Value::as_array).expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("platform").and_then(Value::as_str), Some("image-sw"));
        assert_eq!(results[1].get("platform").and_then(Value::as_str), Some("image-hw"));
    }

    #[test]
    fn custom_platform_objects_estimate() {
        let svc = service();
        let (status, v) = estimate(
            &svc,
            r#"{"platform": {
                "name": "tiny",
                "pes": [{"name": "cpu", "pum": "microblaze"}],
                "processes": [
                    {"name": "main", "pe": "cpu",
                     "source": "void main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i; } out(s); }"}
                ]
            }, "sweep": [{"icache": 2048, "dcache": 2048}]}"#,
        );
        assert_eq!(status, 200, "body: {}", v.to_compact());
        assert_eq!(v.get("platform").and_then(Value::as_str), Some("tiny"));
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let svc = service();
        let cases = [
            (r#"{}"#, "missing `platform`"),
            (r#"{"platform": "no-such-design"}"#, "unknown design"),
            (r#"{"platform": 7}"#, "design name or a platform object"),
            (r#"{"platform": "image:sw", "sweep": []}"#, "must not be empty"),
            (r#"{"platform": "image:sw", "sweep": ["9k/9k"]}"#, "unknown sweep label"),
            (r#"{"platform": "image:sw", "sweep": [{"icache": 1}]}"#, "missing `dcache`"),
            (r#"{"platform": "image:sw", "report": "everything"}"#, "report"),
            (r#"{"platform": "image:sw", "extra": 1}"#, "unknown field `extra`"),
            (r#"{"jobs": {}}"#, "`jobs` must be an array"),
            (r#"{"jobs": []}"#, "`jobs` must not be empty"),
            (r#"not json"#, "invalid JSON"),
        ];
        for (body, needle) in cases {
            let (status, v) = estimate(&svc, body);
            assert_eq!(status, 400, "body `{body}`");
            let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
    }

    #[test]
    fn uncharacterized_sweep_size_is_a_client_error() {
        let svc = service();
        let (status, v) = estimate(
            &svc,
            r#"{"platform": "image:sw", "sweep": [{"icache": 12345, "dcache": 0}]}"#,
        );
        assert_eq!(status, 400, "body: {}", v.to_compact());
        let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(msg.contains("estimation failed"), "got `{msg}`");
    }

    #[test]
    fn oversized_sweeps_and_batches_are_rejected() {
        let svc = service();
        let many: Vec<String> = (0..MAX_SWEEP_POINTS + 1)
            .map(|i| format!("{{\"icache\": {i}, \"dcache\": 0}}"))
            .collect();
        let body = format!("{{\"platform\": \"image:sw\", \"sweep\": [{}]}}", many.join(","));
        let (status, _) = estimate(&svc, &body);
        assert_eq!(status, 400);

        let jobs: Vec<&str> =
            std::iter::repeat_n(r#"{"platform": "image:sw"}"#, MAX_JOBS + 1).collect();
        let body = format!("{{\"jobs\": [{}]}}", jobs.join(","));
        let (status, _) = estimate(&svc, &body);
        assert_eq!(status, 400);
    }

    /// A one-process custom platform whose `helper` function can be
    /// patched structurally (multiply → shift) without touching `main`.
    const TINY_SESSION: &str = r#"{"platform": {
        "name": "tiny",
        "pes": [{"name": "cpu", "pum": "microblaze"}],
        "processes": [
            {"name": "main", "pe": "cpu",
             "source": "int helper(int x) { return x * 3 + 1; } void main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + helper(i); } out(s); }"}
        ]
    }, "sweep": [{"icache": 2048, "dcache": 2048}]}"#;

    fn decoded(resp: &Response) -> (u16, Value) {
        let text = std::str::from_utf8(&resp.body).expect("utf8 body");
        (resp.status, tlm_json::parse(text).expect("json body"))
    }

    #[test]
    fn session_create_edit_get_delete_roundtrip() {
        let svc = service();
        let (status, v) = decoded(&svc.session_create(TINY_SESSION.as_bytes(), 1 << 20));
        assert_eq!(status, 200, "body: {}", v.to_compact());
        assert_eq!(v.get("session").and_then(Value::as_u64), Some(1));
        let cold = v.get("report").expect("report").to_compact();

        let rows_before = svc.pipeline.stats().rows;
        let edit = r#"{"process": "main",
            "patch": {"find": "x * 3 + 1", "replace": "x << 3"}}"#;
        let (status, v) = decoded(&svc.session_edit(1, edit.as_bytes(), 1 << 20));
        assert_eq!(status, 200, "body: {}", v.to_compact());
        let dirty = v.get("edit").and_then(|e| e.get("dirty_functions")).and_then(Value::as_u64);
        assert_eq!(dirty, Some(1), "only `helper` structurally changed");
        let clean = v.get("edit").and_then(|e| e.get("clean_functions")).and_then(Value::as_u64);
        assert_eq!(clean, Some(1), "`main` splices from retained rows");
        let warm = v.get("report").expect("report").to_compact();
        assert_ne!(cold, warm, "the edit changed the estimate");
        let rows_after = svc.pipeline.stats().rows;
        assert_eq!(
            rows_after.misses,
            rows_before.misses + 1,
            "exactly the dirty function recomputed"
        );

        let (status, v) = decoded(&svc.session_route("GET", "/session/1", b"", 1 << 20));
        assert_eq!(status, 200);
        assert_eq!(v.get("report").expect("report").to_compact(), warm, "view replays the edit");

        let (status, v) = decoded(&svc.session_route("DELETE", "/session/1", b"", 1 << 20));
        assert_eq!(status, 200);
        assert_eq!(v.get("closed").and_then(Value::as_bool), Some(true));
        let (status, _) = decoded(&svc.session_route("GET", "/session/1", b"", 1 << 20));
        assert_eq!(status, 404);
    }

    #[test]
    fn session_report_is_bit_identical_to_stateless_estimate() {
        let svc = service();
        let body = r#"{"platform": "image:sw", "sweep": ["2k/2k"], "report": "blocks"}"#;
        let (status, stateless) = estimate(&svc, body);
        assert_eq!(status, 200);
        let (status, v) = decoded(&svc.session_create(body.as_bytes(), 1 << 20));
        assert_eq!(status, 200, "body: {}", v.to_compact());
        assert_eq!(
            v.get("report").expect("report").to_compact(),
            stateless.to_compact(),
            "session view and stateless estimate must render identically"
        );
    }

    #[test]
    fn session_errors_name_the_problem() {
        let svc = service();
        let (_, _) = decoded(&svc.session_create(TINY_SESSION.as_bytes(), 1 << 20));
        let cases = [
            (r#"{"patch": {"find": "a", "replace": "b"}}"#, 400, "missing `process`"),
            (r#"{"process": "nope", "source": "void main() {}"}"#, 400, "unknown process"),
            (r#"{"process": "main"}"#, 400, "exactly one of"),
            (
                r#"{"process": "main", "source": "x", "patch": {"find": "a", "replace": "b"}}"#,
                400,
                "exactly one of",
            ),
            (r#"{"process": "main", "patch": {"find": "gone", "replace": "b"}}"#, 400, "0 times"),
            (r#"{"process": "main", "source": "int main( {"}"#, 400, ""),
            (
                r#"{"process": "main", "source": "void main() {}", "extra": 1}"#,
                400,
                "unknown field",
            ),
        ];
        for (body, want, needle) in cases {
            let (status, v) = decoded(&svc.session_edit(1, body.as_bytes(), 1 << 20));
            assert_eq!(status, want, "body `{body}`: {}", v.to_compact());
            let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
        let edit = r#"{"process": "main", "source": "void main() { out(1); }"}"#;
        let (status, _) = decoded(&svc.session_edit(99, edit.as_bytes(), 1 << 20));
        assert_eq!(status, 404, "editing a nonexistent session");
    }

    #[test]
    fn drain_rejects_creation_but_serves_existing_sessions() {
        let svc = service();
        let metrics = Metrics::new();
        let (_, v) = decoded(&svc.session_create(TINY_SESSION.as_bytes(), 1 << 20));
        let id = v.get("session").and_then(Value::as_u64).expect("id");
        let request = |method: &str, target: &str, body: &[u8]| Request {
            method: method.into(),
            target: target.into(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: false,
        };
        // Draining: creation answers 503 + Retry-After, existing-session
        // traffic keeps flowing.
        let resp = svc.handle(
            &request("POST", "/session", TINY_SESSION.as_bytes()),
            &metrics,
            1 << 20,
            true,
        );
        assert_eq!(resp.status, 503);
        assert!(resp.extra_headers.iter().any(|(k, _)| *k == "Retry-After"));
        let edit = r#"{"process": "main", "patch": {"find": "x * 3 + 1", "replace": "x << 3"}}"#;
        let target = format!("/session/{id}/edit");
        let resp = svc.handle(&request("POST", &target, edit.as_bytes()), &metrics, 1 << 20, true);
        assert_eq!(resp.status, 200, "in-flight edits finish during drain");
        let resp =
            svc.handle(&request("GET", &format!("/session/{id}"), b""), &metrics, 1 << 20, true);
        assert_eq!(resp.status, 200, "views keep serving during drain");
    }

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            target: target.into(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: false,
        }
    }

    #[test]
    fn trace_export_is_opt_in_and_reexportable_by_id() {
        let svc = service();
        let metrics = Metrics::new();
        let body = br#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#;

        // `?trace=1` answers the request's ring events as Chrome trace
        // JSON carrying the assigned request id.
        let resp =
            svc.handle(&request("POST", "/estimate?trace=1", body), &metrics, 1 << 20, false);
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        let text = std::str::from_utf8(&resp.body).expect("utf8");
        let v = tlm_json::parse(text).expect("trace json parses");
        let id = v.get("request").and_then(Value::as_u64).expect("request id");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").and_then(Value::as_str).is_some(), "event name");
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("i"), "instant events");
            assert!(e.get("ts").is_some(), "timestamp");
        }
        assert!(
            events.iter().any(|e| e.get("cat").and_then(Value::as_str) == Some("stage")),
            "pipeline stage transitions attributed to the request"
        );

        // The same trace re-exports by id while resident in the ring.
        let resp =
            svc.handle(&request("GET", &format!("/trace/{id}"), b""), &metrics, 1 << 20, false);
        assert_eq!(resp.status, 200);
        assert!(std::str::from_utf8(&resp.body).expect("utf8").contains("\"traceEvents\":["));

        // An id the ring never saw answers 404; wrong method 405.
        let far = u64::MAX;
        let resp =
            svc.handle(&request("GET", &format!("/trace/{far}"), b""), &metrics, 1 << 20, false);
        assert_eq!(resp.status, 404);
        let resp =
            svc.handle(&request("POST", &format!("/trace/{id}"), b""), &metrics, 1 << 20, false);
        assert_eq!(resp.status, 405);

        // Without the query flag, responses carry no trace artifacts —
        // the determinism contract is untouched.
        let resp = svc.handle(&request("POST", "/estimate", body), &metrics, 1 << 20, false);
        assert_eq!(resp.status, 200);
        assert!(!std::str::from_utf8(&resp.body).expect("utf8").contains("traceEvents"));
    }

    /// The renderers as they were before bodies were streamed: each
    /// builds a `Value` tree that `to_compact` then encodes. The
    /// byte-identity oracle for the streamed bodies.
    mod oracle {
        use super::*;
        use tlm_core::Pum;

        pub fn render_process_row(
            process: &str,
            pe: &str,
            report: &EstimateReport,
            blocks: bool,
        ) -> Value {
            let mut functions = Vec::new();
            if blocks {
                for func in report.functions() {
                    let rows = func
                        .blocks
                        .iter()
                        .map(|b| {
                            ObjectBuilder::new()
                                .field("block", u64::from(b.block))
                                .field("sched", b.sched)
                                .field("branch", b.branch)
                                .field("ifetch", b.ifetch)
                                .field("data", b.data)
                                .field("cycles", b.cycles)
                                .build()
                        })
                        .collect();
                    functions.push(
                        ObjectBuilder::new()
                            .field("name", func.name.as_str())
                            .field("blocks", Value::Array(rows))
                            .build(),
                    );
                }
            }
            let mut row = ObjectBuilder::new()
                .field("process", process)
                .field("pe", pe)
                .field("blocks", report.blocks())
                .field("ops", report.ops())
                .field("total_block_cycles", report.total_cycles());
            if blocks {
                row = row.field("functions", Value::Array(functions));
            }
            row.build()
        }

        fn render_sweep_row(label: &str, icache: u32, dcache: u32, rows: Vec<Value>) -> Value {
            ObjectBuilder::new()
                .field("label", label)
                .field("icache", icache)
                .field("dcache", dcache)
                .field("processes", Value::Array(rows))
                .build()
        }

        fn render_platform(
            platform: &str,
            pes: usize,
            processes: usize,
            rows: Vec<Value>,
        ) -> Value {
            ObjectBuilder::new()
                .field("platform", platform)
                .field("pes", pes)
                .field("processes", processes)
                .field("sweep", Value::Array(rows))
                .build()
        }

        /// The clone-and-encode path: every PE's PUM resized per point
        /// and encoded per `process_report` call.
        pub fn run_job(pipeline: &Pipeline, job: &Job) -> Result<Value, String> {
            let design = &job.design.prepared;
            let platform = &design.platform;
            let mut sweep_rows = Vec::new();
            for point in &job.sweep {
                let pums: Vec<Pum> = platform
                    .pes
                    .iter()
                    .map(|pe| pe.pum.with_cache_sizes(point.icache, point.dcache))
                    .collect();
                let mut rows = Vec::new();
                for (proc, artifact) in platform.processes.iter().zip(design.artifacts()) {
                    let report =
                        pipeline.process_report(artifact, &pums[proc.pe.0]).map_err(|e| {
                            format!(
                                "sweep `{}`, process `{}`: estimation failed: {e}",
                                point.label, proc.name
                            )
                        })?;
                    rows.push(render_process_row(
                        &proc.name,
                        &platform.pes[proc.pe.0].name,
                        &report,
                        job.report == ReportKind::Blocks,
                    ));
                }
                sweep_rows.push(render_sweep_row(&point.label, point.icache, point.dcache, rows));
            }
            Ok(render_platform(
                &platform.name,
                platform.pes.len(),
                platform.processes.len(),
                sweep_rows,
            ))
        }

        pub fn render_session_view(view: &SessionView) -> Value {
            let sweep_rows = view
                .sweep
                .iter()
                .map(|point| {
                    let rows = point
                        .processes
                        .iter()
                        .map(|p| {
                            render_process_row(&p.process, &p.pe, &p.report, view.detail_blocks)
                        })
                        .collect();
                    render_sweep_row(&point.label, point.icache, point.dcache, rows)
                })
                .collect();
            render_platform(&view.platform, view.pes, view.processes, sweep_rows)
        }

        pub fn render_edit_report(edit: &EditReport) -> Value {
            ObjectBuilder::new()
                .field("process", edit.process.as_str())
                .field("dirty_functions", edit.dirty_functions)
                .field("clean_functions", edit.clean_functions)
                .field("dirty_blocks", edit.dirty_blocks)
                .field("added_functions", edit.added_functions)
                .field("removed_functions", edit.removed_functions)
                .build()
        }

        /// A whole response body, as the parent's handlers assembled it.
        pub fn body(value: Value) -> Vec<u8> {
            let mut body = value.to_compact();
            body.push('\n');
            body.into_bytes()
        }

        /// The oracle body of a single-job or batch estimate request.
        pub fn estimate(svc: &Service, request: &str) -> Vec<u8> {
            let root = tlm_json::parse(request).expect("request parses");
            let run = |value: &Value| {
                let job = decode_job(value, &svc.pipeline, &svc.catalog, "request").expect("job");
                run_job(&svc.pipeline, &job)
            };
            let answer = match root.get("jobs").and_then(Value::as_array) {
                Some(jobs) => jobs.iter().map(run).collect::<Result<Vec<_>, _>>().map(|results| {
                    ObjectBuilder::new().field("results", Value::Array(results)).build()
                }),
                None => run(&root),
            };
            match answer {
                Ok(value) => body(value),
                Err(message) => Response::error(400, &message).body,
            }
        }
    }

    fn sweep_labels(points: usize) -> String {
        let labels: Vec<String> =
            CACHE_SWEEP[..points].iter().map(|(label, _, _)| format!("\"{label}\"")).collect();
        labels.join(", ")
    }

    #[test]
    fn streamed_estimates_match_the_value_tree_oracle() {
        let svc = service();
        for design in BUILTIN_DESIGNS {
            for report in ["totals", "blocks"] {
                for points in [1, 3, 5] {
                    let body = format!(
                        r#"{{"platform": "{design}", "sweep": [{}], "report": "{report}"}}"#,
                        sweep_labels(points)
                    );
                    // The second answer copies the reports' cached rows.
                    for pass in ["first", "cached"] {
                        let resp = svc.estimate(body.as_bytes(), 1 << 20);
                        assert_eq!(resp.status, 200, "{body}");
                        assert!(resp.body == oracle::estimate(&svc, &body), "{pass}: {body}");
                    }
                }
            }
        }
        let batch = format!(
            r#"{{"jobs": [{{"platform": "mp3:sw+2", "sweep": [{}], "report": "blocks"}},
                          {{"platform": "image:hw"}}]}}"#,
            sweep_labels(2)
        );
        for pass in ["first", "cached"] {
            let resp = svc.estimate(batch.as_bytes(), 1 << 20);
            assert_eq!(resp.status, 200);
            assert!(resp.body == oracle::estimate(&svc, &batch), "{pass}: batch bodies differ");
        }
    }

    #[test]
    fn hostile_names_stream_like_the_value_tree_oracle() {
        let svc = service();
        let body = r#"{"platform": {
            "name": "quote \" back \\ nl \n ctl \u0001 café 😀",
            "pes": [{"name": "pe \"0\" \\ \n\u0001 中", "pum": "microblaze"}],
            "processes": [
                {"name": "proc \\\"\n\u0001\u001f\u007f é", "pe": 0,
                 "source": "int twice(int x) { return x + x; } void main() { out(twice(3)); }"}
            ]
        }, "sweep": [{"icache": 2048, "dcache": 2048, "label": "l\"\\\n\u0001é"}, "0k/0k"],
           "report": "blocks"}"#;
        let resp = svc.estimate(body.as_bytes(), 1 << 20);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert!(resp.body == oracle::estimate(&svc, body), "custom platform bodies differ");
        let text = std::str::from_utf8(&resp.body).expect("utf8");
        assert!(text.contains(r#""pe \"0\" \\ \n\u0001 中""#), "{text}");
    }

    /// Session create, view and edit bodies equal the oracle rendering of
    /// the same operations run on a twin store.
    #[test]
    fn streamed_session_bodies_match_the_value_tree_oracle() {
        let svc = service();
        let twin = service();
        let create = |body: &str| {
            let root = tlm_json::parse(body).expect("parses");
            let job = decode_job(&root, &twin.pipeline, &twin.catalog, "session").expect("job");
            let sweep = job
                .sweep
                .iter()
                .map(|p| tlm_session::SweepPoint {
                    label: p.label.clone(),
                    icache: p.icache,
                    dcache: p.dcache,
                })
                .collect();
            let detail = job.report == ReportKind::Blocks;
            let design = &job.design.prepared;
            twin.sessions.create(&twin.pipeline, design, sweep, detail).expect("creates")
        };
        let envelope = |id: u64, edit: Option<&EditReport>, view: &SessionView| {
            let mut obj = ObjectBuilder::new().field("session", id);
            if let Some(edit) = edit {
                obj = obj.field("edit", oracle::render_edit_report(edit));
            }
            oracle::body(obj.field("report", oracle::render_session_view(view)).build())
        };
        // Views answer twice: the second copies the retained reports'
        // cached rows.
        let view_twice = |id: u64, what: &str| {
            for pass in ["first", "cached"] {
                let resp = svc.session_route("GET", &format!("/session/{id}"), b"", 1 << 20);
                let view = twin.sessions.view(id).expect("view");
                assert!(resp.body == envelope(id, None, &view), "{pass} view {id} {what}");
            }
        };
        let blocks = r#"{"platform": "image:sw", "sweep": ["0k/0k", "8k/4k"], "report": "blocks"}"#;
        let tiny_blocks = TINY_SESSION.replace(r#""sweep""#, r#""report": "blocks", "sweep""#);
        for body in [TINY_SESSION, blocks, &tiny_blocks] {
            let resp = svc.session_create(body.as_bytes(), 1 << 20);
            assert_eq!(resp.status, 200);
            let (id, view) = create(body);
            assert!(resp.body == envelope(id, None, &view), "create {id}");
            view_twice(id, "after create");
        }
        for id in [1, 3] {
            for (find, replace) in [("x * 3 + 1", "x << 3"), ("x << 3", "x * 3 + 1")] {
                let edit = format!(
                    r#"{{"process": "main", "patch": {{"find": "{find}", "replace": "{replace}"}}}}"#
                );
                let resp = svc.session_edit(id, edit.as_bytes(), 1 << 20);
                assert_eq!(resp.status, 200);
                let patch = SourceEdit::Patch { find, replace };
                let (report, view) =
                    twin.sessions.edit(&twin.pipeline, id, "main", &patch).expect("edits");
                assert!(resp.body == envelope(id, Some(&report), &view), "edit {id} {find}");
                assert_eq!(view.detail_blocks, id == 3, "session 3 renders per-block rows");
                view_twice(id, "after an edit");
            }
        }
    }

    /// A platform object that describes `design` exactly: the same names,
    /// PUMs (as interchange objects), sources, entries and arguments.
    fn inline_platform(design: &PreparedDesign) -> Value {
        let platform = &design.platform;
        let pes = platform.pes.iter().map(|pe| {
            ObjectBuilder::new().field("name", pe.name.as_str()).field("pum", pe.pum.to_value())
        });
        let processes = platform.processes.iter().zip(design.artifacts()).map(|(proc, art)| {
            let args = proc.args.iter().map(|&a| Value::from(a as f64)).collect();
            ObjectBuilder::new()
                .field("name", proc.name.as_str())
                .field("pe", proc.pe.0)
                .field("source", art.source())
                .field("entry", proc.module.function(proc.entry).name.as_str())
                .field("args", Value::Array(args))
                .build()
        });
        ObjectBuilder::new()
            .field("name", platform.name.as_str())
            .field("pes", Value::Array(pes.map(ObjectBuilder::build).collect()))
            .field("processes", Value::Array(processes.collect()))
            .field("optimize", design.artifacts()[0].optimize())
            .build()
    }

    /// Every built-in answers the oracle's bytes whether its sweep points
    /// come from the catalog table (labels, or objects with the same
    /// sizes and labels) or are encoded per request (uncharacterized
    /// sizes, an inline platform describing the same design); the table
    /// and per-request encodings answer the same bodies.
    #[test]
    fn table_and_per_request_encodings_match_the_oracle() {
        let svc = service();
        let labels = sweep_labels(CACHE_SWEEP.len());
        let objects: Vec<String> = CACHE_SWEEP
            .iter()
            .map(|(label, ic, dc)| {
                format!(r#"{{"icache": {ic}, "dcache": {dc}, "label": "{label}"}}"#)
            })
            .collect();
        let objects = objects.join(", ");
        for name in BUILTIN_DESIGNS {
            let design = svc.catalog.builtin(&svc.pipeline, name).expect("builds").expect("known");
            let inline = inline_platform(&design).to_compact();
            let by_label = format!(r#"{{"platform": "{name}", "sweep": [{labels}]}}"#);
            let by_object = format!(r#"{{"platform": "{name}", "sweep": [{objects}]}}"#);
            let by_inline = format!(r#"{{"platform": {inline}, "sweep": [{labels}]}}"#);
            let uncharacterized = format!(
                r#"{{"platform": "{name}", "sweep": ["0k/0k", {{"icache": 12345, "dcache": 0}}]}}"#
            );
            let answer = |body: &str| {
                let resp = svc.estimate(body.as_bytes(), 1 << 20);
                assert!(resp.body == oracle::estimate(&svc, body), "{name}: {body}");
                (resp.status, resp.body)
            };
            let (status, labelled) = answer(&by_label);
            assert_eq!(status, 200, "{name}");
            assert!(answer(&by_object) == (200, labelled.clone()), "{name}: object form");
            assert!(answer(&by_inline) == (200, labelled), "{name}: inline platform");
            assert_eq!(answer(&uncharacterized).0, 400, "{name}: uncharacterized sizes");
        }
    }

    /// Sweep points outside the table are encoded per request and never
    /// entered: the table keeps one row per [`CACHE_SWEEP`] point.
    #[test]
    fn custom_sizes_leave_the_catalog_table_at_the_sweep_points() {
        let svc = service();
        let tables = || {
            let entries = svc.catalog.entries.lock().expect("catalog");
            let mut tables: Vec<(String, usize, Vec<usize>)> = entries
                .iter()
                .map(|(name, d)| {
                    let pes = d.prepared.platform.pes.len();
                    (name.clone(), pes, d.table.iter().map(Vec::len).collect())
                })
                .collect();
            tables.sort();
            tables
        };
        for i in 0..1000u32 {
            let name = BUILTIN_DESIGNS[i as usize % BUILTIN_DESIGNS.len()];
            let body = format!(
                r#"{{"platform": "{name}", "sweep": [{{"icache": {}, "dcache": 0}}]}}"#,
                1 + i
            );
            let resp = svc.estimate(body.as_bytes(), 1 << 20);
            assert!(matches!(resp.status, 200 | 400), "{name}: {}", resp.status);
        }
        let after = tables();
        assert_eq!(after.len(), BUILTIN_DESIGNS.len());
        for (name, pes, rows) in &after {
            assert_eq!(rows, &vec![*pes; CACHE_SWEEP.len()], "{name}: one row per sweep point");
        }
        let design = svc.catalog.design(&svc.pipeline, "mp3:sw").expect("builds").expect("known");
        let (_, ic, dc) = CACHE_SWEEP[2];
        assert!(matches!(design.sweep_pums(ic, dc), Cow::Borrowed(_)), "table row");
        assert!(matches!(design.sweep_pums(ic, 12345), Cow::Owned(_)), "encoded per request");
        assert_eq!(tables(), after, "reading a point outside the table enters nothing");
    }

    #[test]
    fn catalog_builds_each_design_once() {
        let pipeline = Pipeline::new();
        let catalog = Catalog::new();
        let a = catalog.builtin(&pipeline, "image:sw").expect("builds").expect("known");
        let b = catalog.builtin(&pipeline, "image:sw").expect("builds").expect("known");
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the first build");
        assert!(catalog.builtin(&pipeline, "nope").expect("no error").is_none());
    }
}
