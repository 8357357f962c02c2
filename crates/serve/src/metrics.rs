//! Service counters and their Prometheus text exposition.
//!
//! All observability lives here, *outside* the response bodies: an
//! estimation response must be a pure function of the request (the
//! determinism contract the protocol tests assert), so anything that
//! varies run-to-run — latencies, queue depths, cache hit counts — is
//! only visible through `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tlm_pipeline::{PipelineStats, StoreStats};
use tlm_session::SessionStats;

/// Histogram bucket upper bounds, in seconds.
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0];

/// The status codes the service can answer with, each with its own
/// counter.
pub const STATUSES: [u16; 8] = [200, 400, 404, 405, 408, 413, 500, 503];

/// The most estimation shards the metrics can track (a fixed array keeps
/// the counters lock-free); `--shards` is validated against this.
pub const MAX_SHARDS: usize = 8;

/// The states a connection can occupy in the event loop, each with its
/// own gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// Reading (or waiting for) request bytes.
    Reading,
    /// Request handed to the worker pool; awaiting the response.
    Dispatched,
    /// Writing response bytes.
    Writing,
    /// Response done; draining unread request bytes before close.
    Closing,
}

/// Gauge label for each [`ConnPhase`], index-aligned with the state
/// gauges.
pub const CONN_PHASES: [&str; 4] = ["reading", "dispatched", "writing", "closing"];

impl ConnPhase {
    fn index(self) -> usize {
        match self {
            ConnPhase::Reading => 0,
            ConnPhase::Dispatched => 1,
            ConnPhase::Writing => 2,
            ConnPhase::Closing => 3,
        }
    }
}

/// Process-wide service counters. All operations are lock-free; the
/// struct is shared as an `Arc` between the acceptor, the workers and the
/// `/metrics` renderer.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests fully read off a socket (any method/target).
    requests_total: AtomicU64,
    /// Responses by status code, indexed like [`STATUSES`].
    responses: [AtomicU64; STATUSES.len()],
    /// Connections answered `503` by the acceptor because the queue was
    /// full (also counted in `responses[503]`).
    queue_rejected_total: AtomicU64,
    /// Connections currently waiting in the accept queue.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    queue_depth_peak: AtomicU64,
    /// Requests currently being estimated.
    inflight: AtomicU64,
    /// Latency histogram: cumulative-style counts are derived at render
    /// time; these are per-bucket counts, with one extra slot for +Inf.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Total latency in nanoseconds, for `_sum`.
    latency_sum_ns: AtomicU64,
    /// Number of observations, for `_count`.
    latency_count: AtomicU64,
    /// Request-handler panics caught and isolated (each answered `500`).
    worker_panics_total: AtomicU64,
    /// Worker threads respawned by their supervisor after a panic.
    worker_respawns_total: AtomicU64,
    /// Worker threads currently alive.
    workers_alive: AtomicU64,
    /// Worker threads currently serving a connection.
    workers_busy: AtomicU64,
    /// Connections currently registered with the event loop.
    open_connections: AtomicU64,
    /// High-water mark of `open_connections`.
    open_connections_peak: AtomicU64,
    /// Times the event loop returned from `epoll_wait`.
    epoll_wakeups_total: AtomicU64,
    /// Connections per event-loop state, indexed like [`CONN_PHASES`].
    conn_phases: [AtomicU64; CONN_PHASES.len()],
    /// Estimation shards this front routes to (0 = in-process mode).
    shards_configured: AtomicU64,
    /// Requests forwarded per shard.
    shard_requests: [AtomicU64; MAX_SHARDS],
    /// Request-frame bytes sent per shard.
    shard_tx_bytes: [AtomicU64; MAX_SHARDS],
    /// Response-frame bytes received per shard.
    shard_rx_bytes: [AtomicU64; MAX_SHARDS],
    /// Shard RPC exchanges that failed (answered 503 locally).
    shard_rpc_errors_total: AtomicU64,
    /// Shard RPC round-trip latency histogram (all shards aggregated),
    /// per-bucket counts with one extra slot for +Inf.
    rpc_latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Total RPC round-trip latency in nanoseconds, for `_sum`.
    rpc_latency_sum_ns: AtomicU64,
    /// Number of RPC observations, for `_count`.
    rpc_latency_count: AtomicU64,
    /// Queue-wait component of shard RPCs: dispatch until the request
    /// frame is fully flushed to the shard socket (pool-checkout plus
    /// send time on the pooled path).
    rpc_queue_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    rpc_queue_sum_ns: AtomicU64,
    rpc_queue_count: AtomicU64,
    /// On-wire component of shard RPCs: frame flushed until the
    /// completion frame is decoded.
    rpc_wire_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    rpc_wire_sum_ns: AtomicU64,
    rpc_wire_count: AtomicU64,
    /// Requests currently in flight on each shard's multiplexed
    /// connection.
    shard_inflight: [AtomicU64; MAX_SHARDS],
    /// High-water mark of `shard_inflight` — the proof the connection
    /// actually pipelines (depth > 1).
    shard_inflight_peak: [AtomicU64; MAX_SHARDS],
    /// Forwards answered `503` inline because a shard's in-flight cap
    /// was reached.
    shard_inflight_rejected_total: AtomicU64,
}

/// One shard's own counters, as answered to a `STATS` RPC frame and
/// aggregated into the front's `/metrics` page (see
/// [`render_shard_stats`]). Shards run their own [`Metrics`] and
/// pipeline; without this, their cache behavior is invisible to anyone
/// scraping only the front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Per-stage `(name, hits, misses)` of the shard's artifact
    /// pipeline.
    pub stages: Vec<(String, u64, u64)>,
    /// Request-handler panics the shard caught and isolated.
    pub worker_panics: u64,
    /// Events the shard recorded into its trace ring.
    pub trace_events: u64,
    /// Trace-ring events the shard overwrote (ring full).
    pub trace_dropped: u64,
}

/// Renders per-shard counters fetched over STATS RPC frames in the
/// Prometheus text format, for appending to [`Metrics::render`] output.
/// `slots` pairs each shard index with its snapshot; unreachable shards
/// are simply absent (a scrape must not fail because one shard is
/// restarting).
#[must_use]
pub fn render_shard_stats(slots: &[(usize, ShardStatsSnapshot)]) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    if slots.is_empty() {
        return out;
    }
    let mut stage_family = |name: &str, help: &str, pick: fn(&(String, u64, u64)) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (shard, snapshot) in slots {
            for stage in &snapshot.stages {
                let _ = writeln!(
                    out,
                    "{name}{{shard=\"{shard}\",stage=\"{}\"}} {}",
                    stage.0,
                    pick(stage)
                );
            }
        }
    };
    stage_family(
        "tlm_serve_shard_stage_hits_total",
        "Shard-side artifact-pipeline lookups served from a stage store.",
        |s| s.1,
    );
    stage_family(
        "tlm_serve_shard_stage_misses_total",
        "Shard-side artifact-pipeline lookups that computed the stage.",
        |s| s.2,
    );
    let mut shard_family = |name: &str, help: &str, pick: fn(&ShardStatsSnapshot) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (shard, snapshot) in slots {
            let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {}", pick(snapshot));
        }
    };
    shard_family(
        "tlm_serve_shard_worker_panics_total",
        "Request-handler panics caught and isolated on each shard.",
        |s| s.worker_panics,
    );
    shard_family(
        "tlm_serve_shard_trace_events_total",
        "Events recorded into each shard's trace ring.",
        |s| s.trace_events,
    );
    shard_family(
        "tlm_serve_shard_trace_dropped_total",
        "Trace-ring events each shard overwrote because its ring was full.",
        |s| s.trace_dropped,
    );
    out
}

fn observe(
    buckets: &[AtomicU64; LATENCY_BUCKETS.len() + 1],
    sum_ns: &AtomicU64,
    count: &AtomicU64,
    elapsed: Duration,
) {
    let secs = elapsed.as_secs_f64();
    let bucket = LATENCY_BUCKETS.iter().position(|&le| secs <= le).unwrap_or(LATENCY_BUCKETS.len());
    buckets[bucket].fetch_add(1, Ordering::Relaxed);
    sum_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    count.fetch_add(1, Ordering::Relaxed);
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Counts one request read off the wire.
    pub fn request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one response with the given status.
    pub fn response(&self, status: u16) {
        if let Some(i) = STATUSES.iter().position(|&s| s == status) {
            self.responses[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one acceptor-side queue rejection (the `503` itself is
    /// reported separately through [`Metrics::response`]).
    pub fn queue_rejected(&self) {
        self.queue_rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection entering the accept queue.
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a connection leaving the accept queue (picked up by a
    /// worker, or rejected).
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue depth.
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak.load(Ordering::Relaxed)
    }

    /// Marks a request as being processed; call [`Metrics::done`] after.
    pub fn begin(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Completes [`Metrics::begin`] and records the request latency.
    pub fn done(&self, elapsed: Duration) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        let bucket =
            LATENCY_BUCKETS.iter().position(|&le| secs <= le).unwrap_or(LATENCY_BUCKETS.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one caught-and-isolated request-handler panic.
    pub fn worker_panic(&self) {
        self.worker_panics_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one supervisor respawn of a panicked worker.
    pub fn worker_respawn(&self) {
        self.worker_respawns_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread coming up.
    pub fn worker_started(&self) {
        self.workers_alive.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread exiting (drain or panic).
    pub fn worker_exited(&self) {
        self.workers_alive.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks a worker as serving a connection.
    pub fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Completes [`Metrics::worker_busy`].
    pub fn worker_idle(&self) {
        self.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total caught request-handler panics.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics_total.load(Ordering::Relaxed)
    }

    /// Total worker respawns.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns_total.load(Ordering::Relaxed)
    }

    /// Worker threads currently alive.
    pub fn workers_alive(&self) -> u64 {
        self.workers_alive.load(Ordering::Relaxed)
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total queue rejections.
    pub fn rejected(&self) -> u64 {
        self.queue_rejected_total.load(Ordering::Relaxed)
    }

    /// Records a connection registering with the event loop.
    pub fn conn_opened(&self) {
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.open_connections_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// Records a connection leaving the event loop.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently registered with the event loop.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// High-water mark of open connections.
    pub fn open_connections_peak(&self) -> u64 {
        self.open_connections_peak.load(Ordering::Relaxed)
    }

    /// Counts one return from `epoll_wait`.
    pub fn epoll_wakeup(&self) {
        self.epoll_wakeups_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total returns from `epoll_wait`.
    pub fn epoll_wakeups(&self) -> u64 {
        self.epoll_wakeups_total.load(Ordering::Relaxed)
    }

    /// Records a connection entering an event-loop state.
    pub fn phase_enter(&self, phase: ConnPhase) {
        self.conn_phases[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection leaving an event-loop state.
    pub fn phase_leave(&self, phase: ConnPhase) {
        self.conn_phases[phase.index()].fetch_sub(1, Ordering::Relaxed);
    }

    /// Declares how many estimation shards the front routes to (renders
    /// the per-shard families for exactly that many slots).
    pub fn set_shards(&self, n: usize) {
        self.shards_configured.store(n.min(MAX_SHARDS) as u64, Ordering::Relaxed);
    }

    /// Records one successful shard RPC exchange: the shard it went to,
    /// the frame bytes in each direction, and the round-trip latency.
    pub fn shard_request(&self, shard: usize, tx_bytes: u64, rx_bytes: u64, elapsed: Duration) {
        if shard < MAX_SHARDS {
            self.shard_requests[shard].fetch_add(1, Ordering::Relaxed);
            self.shard_tx_bytes[shard].fetch_add(tx_bytes, Ordering::Relaxed);
            self.shard_rx_bytes[shard].fetch_add(rx_bytes, Ordering::Relaxed);
        }
        let secs = elapsed.as_secs_f64();
        let bucket =
            LATENCY_BUCKETS.iter().position(|&le| secs <= le).unwrap_or(LATENCY_BUCKETS.len());
        self.rpc_latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.rpc_latency_sum_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.rpc_latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed shard RPC exchange.
    pub fn shard_rpc_error(&self) {
        self.shard_rpc_errors_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total failed shard RPC exchanges.
    pub fn shard_rpc_errors(&self) -> u64 {
        self.shard_rpc_errors_total.load(Ordering::Relaxed)
    }

    /// Records the two components of one shard RPC: queue-wait (dispatch
    /// until the request frame was flushed to the socket) and on-wire
    /// (flushed until the completion frame arrived). The total is
    /// recorded separately through [`Metrics::shard_request`].
    pub fn shard_rpc_split(&self, queue: Duration, wire: Duration) {
        observe(&self.rpc_queue_buckets, &self.rpc_queue_sum_ns, &self.rpc_queue_count, queue);
        observe(&self.rpc_wire_buckets, &self.rpc_wire_sum_ns, &self.rpc_wire_count, wire);
    }

    /// Records a request entering a shard's multiplexed connection.
    pub fn shard_inflight_enter(&self, shard: usize) {
        if shard < MAX_SHARDS {
            let depth = self.shard_inflight[shard].fetch_add(1, Ordering::Relaxed) + 1;
            self.shard_inflight_peak[shard].fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Completes [`Metrics::shard_inflight_enter`].
    pub fn shard_inflight_leave(&self, shard: usize) {
        if shard < MAX_SHARDS {
            self.shard_inflight[shard].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// High-water mark of one shard's in-flight depth.
    pub fn shard_inflight_peak(&self, shard: usize) -> u64 {
        if shard < MAX_SHARDS {
            self.shard_inflight_peak[shard].load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Counts one forward answered `503` inline because the shard's
    /// in-flight cap was reached.
    pub fn shard_inflight_rejected(&self) {
        self.shard_inflight_rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total in-flight-cap rejections.
    pub fn shard_inflight_rejections(&self) -> u64 {
        self.shard_inflight_rejected_total.load(Ordering::Relaxed)
    }

    /// Requests forwarded to one shard.
    pub fn shard_requests(&self, shard: usize) -> u64 {
        if shard < MAX_SHARDS {
            self.shard_requests[shard].load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Renders everything in the Prometheus text exposition format,
    /// together with the artifact pipeline's per-stage counters, the
    /// session store's counters and the configured queue capacity
    /// (static, but exported so dashboards can plot depth against it).
    /// The legacy `tlm_serve_schedule_cache_*` names stay, fed by the
    /// pipeline's `schedules` stage.
    pub fn render(
        &self,
        pipeline: &PipelineStats,
        sessions: &SessionStats,
        queue_capacity: usize,
    ) -> String {
        use std::fmt::Write;

        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("tlm_serve_requests_total", "Requests fully read off a socket.", self.requests());
        counter(
            "tlm_serve_queue_rejected_total",
            "Connections answered 503 because the accept queue was full.",
            self.rejected(),
        );
        counter(
            "tlm_serve_schedule_cache_hits_total",
            "Schedule-cache lookups served from memory.",
            pipeline.schedules.hits,
        );
        counter(
            "tlm_serve_schedule_cache_misses_total",
            "Schedule-cache lookups that ran Algorithm 1.",
            pipeline.schedules.misses,
        );
        counter(
            "tlm_serve_worker_panics_total",
            "Request-handler panics caught and isolated (each answered 500).",
            self.worker_panics(),
        );
        counter(
            "tlm_serve_worker_respawns_total",
            "Worker threads respawned by the supervisor after a panic.",
            self.worker_respawns(),
        );
        counter(
            "tlm_serve_cache_evictions_total",
            "Entries dropped by byte-budget generation rotation, all stores.",
            pipeline.stages().iter().map(|(_, s)| s.evictions).sum(),
        );
        counter(
            "tlm_serve_faults_injected_total",
            "Faults injected by the chaos plan (0 unless built with --features faults).",
            tlm_faults::injected_total(),
        );
        // The always-on trace ring (see `crate::trace`): total events
        // recorded and how many a full ring overwrote. A steadily rising
        // drop counter is expected under load — the ring keeps the most
        // recent window, not history.
        counter(
            "tlm_serve_trace_events_total",
            "Events recorded into the trace ring since process start.",
            crate::trace::recorded(),
        );
        counter(
            "tlm_serve_trace_dropped_total",
            "Trace-ring events overwritten because the ring was full.",
            crate::trace::dropped(),
        );
        counter("tlm_serve_sessions_created_total", "Sessions ever created.", sessions.created);
        counter(
            "tlm_serve_sessions_evicted_total",
            "Sessions dropped by the resident-byte budget.",
            sessions.evicted,
        );
        counter(
            "tlm_serve_sessions_expired_total",
            "Sessions dropped by the idle TTL.",
            sessions.expired,
        );
        counter(
            "tlm_serve_sessions_closed_total",
            "Sessions closed by client request.",
            sessions.closed,
        );
        counter("tlm_serve_session_edits_total", "Session edits accepted.", sessions.edits);
        counter(
            "tlm_serve_session_dirty_functions_total",
            "Functions re-estimated by session edits (structural dirty set).",
            sessions.dirty_functions,
        );
        counter(
            "tlm_serve_session_clean_functions_total",
            "Functions retained (spliced) across session edits.",
            sessions.clean_functions,
        );
        counter(
            "tlm_serve_session_dirty_blocks_total",
            "Basic blocks re-estimated by session edits.",
            sessions.dirty_blocks,
        );

        // Allocation pressure on the scheduler's thread-local scratch
        // arenas (process-wide, summed over worker threads). A healthy
        // warm service reuses on nearly every kernel run; a rising alloc
        // rate flags a cold-path regression.
        let scratch = tlm_core::schedule::scratch_stats();
        counter(
            "tlm_serve_kernel_scratch_reuse",
            "Kernel runs served entirely from already-allocated scratch arenas.",
            scratch.reuses,
        );
        counter(
            "tlm_serve_kernel_scratch_alloc",
            "Kernel runs that grew (or first allocated) a scratch-arena buffer.",
            scratch.allocs,
        );

        // Batched-kernel effectiveness (process-wide, same contract as the
        // scratch counters): how many block solves the identical-shape
        // dedup fold absorbed, and how many representative solves ran.
        let batch = tlm_core::batch::batch_stats();
        counter(
            "tlm_serve_kernel_batch_dedup_hits",
            "Blocks folded into another block's solve by identical-shape dedup.",
            batch.dedup_hits,
        );
        counter(
            "tlm_serve_kernel_batch_unique_solves",
            "Representative block solves run after identical-shape dedup.",
            batch.unique_solves,
        );

        let _ = writeln!(out, "# HELP tlm_serve_responses_total Responses by status code.");
        let _ = writeln!(out, "# TYPE tlm_serve_responses_total counter");
        for (i, &status) in STATUSES.iter().enumerate() {
            let n = self.responses[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "tlm_serve_responses_total{{code=\"{status}\"}} {n}");
        }

        let stages = pipeline.stages();
        let mut stage_family =
            |name: &str, kind: &str, help: &str, pick: fn(&StoreStats) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for (stage, s) in &stages {
                    let _ = writeln!(out, "{name}{{stage=\"{stage}\"}} {}", pick(s));
                }
            };
        stage_family(
            "tlm_serve_pipeline_stage_hits_total",
            "counter",
            "Artifact-pipeline lookups served from a stage store.",
            |s| s.hits,
        );
        stage_family(
            "tlm_serve_pipeline_stage_misses_total",
            "counter",
            "Artifact-pipeline lookups that computed the stage.",
            |s| s.misses,
        );
        stage_family(
            "tlm_serve_pipeline_stage_entries",
            "gauge",
            "Resident artifacts per pipeline stage.",
            |s| s.entries as u64,
        );
        stage_family(
            "tlm_serve_pipeline_stage_bytes",
            "gauge",
            "Approximate resident key bytes per pipeline stage.",
            |s| s.bytes,
        );
        stage_family(
            "tlm_serve_pipeline_stage_evictions_total",
            "counter",
            "Entries dropped by byte-budget generation rotation, per stage.",
            |s| s.evictions,
        );

        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "tlm_serve_queue_depth",
            "Connections currently waiting in the accept queue.",
            self.queue_depth(),
        );
        gauge(
            "tlm_serve_queue_depth_peak",
            "High-water mark of the accept queue depth.",
            self.queue_depth_peak(),
        );
        gauge(
            "tlm_serve_queue_capacity",
            "Configured capacity of the accept queue.",
            queue_capacity as u64,
        );
        gauge(
            "tlm_serve_inflight",
            "Requests currently being processed.",
            self.inflight.load(Ordering::Relaxed),
        );
        gauge(
            "tlm_serve_schedule_cache_entries",
            "Resident schedule-cache entries.",
            pipeline.schedules.entries as u64,
        );
        gauge(
            "tlm_serve_cache_resident_bytes",
            "Approximate resident key bytes across all artifact stores.",
            pipeline.stages().iter().map(|(_, s)| s.bytes).sum(),
        );
        gauge(
            "tlm_serve_sessions_active",
            "Live edit-to-estimate sessions.",
            sessions.active as u64,
        );
        gauge(
            "tlm_serve_sessions_resident_bytes",
            "Approximate resident bytes of all live sessions.",
            sessions.resident_bytes,
        );
        gauge("tlm_serve_workers_alive", "Worker threads currently alive.", self.workers_alive());
        gauge(
            "tlm_serve_workers_busy",
            "Worker threads currently serving a connection.",
            self.workers_busy.load(Ordering::Relaxed),
        );
        gauge(
            "tlm_serve_open_connections",
            "Connections currently registered with the event loop.",
            self.open_connections(),
        );
        gauge(
            "tlm_serve_open_connections_peak",
            "High-water mark of open connections.",
            self.open_connections_peak(),
        );
        let shards = self.shards_configured.load(Ordering::Relaxed) as usize;
        gauge(
            "tlm_serve_shards_configured",
            "Estimation shards this front routes to (0 = in-process).",
            shards as u64,
        );

        let _ = writeln!(
            out,
            "# HELP tlm_serve_epoll_wakeups_total Returns from epoll_wait in the event loop."
        );
        let _ = writeln!(out, "# TYPE tlm_serve_epoll_wakeups_total counter");
        let _ = writeln!(out, "tlm_serve_epoll_wakeups_total {}", self.epoll_wakeups());

        let _ =
            writeln!(out, "# HELP tlm_serve_connection_states Connections per event-loop state.");
        let _ = writeln!(out, "# TYPE tlm_serve_connection_states gauge");
        for (i, phase) in CONN_PHASES.iter().enumerate() {
            let n = self.conn_phases[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "tlm_serve_connection_states{{state=\"{phase}\"}} {n}");
        }

        // Shard tier: per-shard traffic counters for exactly the
        // configured shard count, plus the aggregate RPC error counter
        // and round-trip histogram (always rendered, zero in in-process
        // mode, so dashboards need no conditional scrape config).
        let mut shard_family = |name: &str, help: &str, values: &[AtomicU64; MAX_SHARDS]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (shard, value) in values.iter().enumerate().take(shards) {
                let n = value.load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {n}");
            }
        };
        shard_family(
            "tlm_serve_shard_requests_total",
            "Requests forwarded to each estimation shard.",
            &self.shard_requests,
        );
        shard_family(
            "tlm_serve_shard_tx_bytes_total",
            "Request-frame bytes sent to each estimation shard.",
            &self.shard_tx_bytes,
        );
        shard_family(
            "tlm_serve_shard_rx_bytes_total",
            "Response-frame bytes received from each estimation shard.",
            &self.shard_rx_bytes,
        );
        let mut shard_gauge = |name: &str, help: &str, values: &[AtomicU64; MAX_SHARDS]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (shard, value) in values.iter().enumerate().take(shards) {
                let n = value.load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {n}");
            }
        };
        shard_gauge(
            "tlm_serve_shard_inflight",
            "Requests currently in flight on each shard's multiplexed connection.",
            &self.shard_inflight,
        );
        shard_gauge(
            "tlm_serve_shard_inflight_peak",
            "High-water mark of each shard connection's in-flight depth.",
            &self.shard_inflight_peak,
        );
        let _ = writeln!(
            out,
            "# HELP tlm_serve_shard_inflight_rejected_total Forwards answered 503 because a shard's in-flight cap was reached."
        );
        let _ = writeln!(out, "# TYPE tlm_serve_shard_inflight_rejected_total counter");
        let _ = writeln!(
            out,
            "tlm_serve_shard_inflight_rejected_total {}",
            self.shard_inflight_rejected_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP tlm_serve_shard_rpc_errors_total Shard RPC exchanges that failed (answered 503 locally)."
        );
        let _ = writeln!(out, "# TYPE tlm_serve_shard_rpc_errors_total counter");
        let _ = writeln!(
            out,
            "tlm_serve_shard_rpc_errors_total {}",
            self.shard_rpc_errors_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP tlm_serve_shard_rpc_duration_seconds Shard RPC round-trip latency."
        );
        let _ = writeln!(out, "# TYPE tlm_serve_shard_rpc_duration_seconds histogram");
        let mut rpc_cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            rpc_cumulative += self.rpc_latency_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "tlm_serve_shard_rpc_duration_seconds_bucket{{le=\"{le}\"}} {rpc_cumulative}"
            );
        }
        rpc_cumulative += self.rpc_latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "tlm_serve_shard_rpc_duration_seconds_bucket{{le=\"+Inf\"}} {rpc_cumulative}"
        );
        let rpc_sum_ns = self.rpc_latency_sum_ns.load(Ordering::Relaxed);
        let _ =
            writeln!(out, "tlm_serve_shard_rpc_duration_seconds_sum {}", rpc_sum_ns as f64 / 1e9);
        let _ = writeln!(
            out,
            "tlm_serve_shard_rpc_duration_seconds_count {}",
            self.rpc_latency_count.load(Ordering::Relaxed)
        );

        // The round trip split into its two halves: time a dispatched
        // frame waited to reach the socket vs time spent between flush
        // and completion. The pooled path hid checkout time inside the
        // total; the split makes the mux win (queue ≈ 0) observable.
        let mut histogram = |name: &str,
                             help: &str,
                             buckets: &[AtomicU64; LATENCY_BUCKETS.len() + 1],
                             sum_ns: &AtomicU64,
                             count: &AtomicU64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += buckets[i].load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            cumulative += buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", sum_ns.load(Ordering::Relaxed) as f64 / 1e9);
            let _ = writeln!(out, "{name}_count {}", count.load(Ordering::Relaxed));
        };
        histogram(
            "tlm_serve_shard_rpc_queue_seconds",
            "Shard RPC queue-wait: dispatch until the request frame reached the socket.",
            &self.rpc_queue_buckets,
            &self.rpc_queue_sum_ns,
            &self.rpc_queue_count,
        );
        histogram(
            "tlm_serve_shard_rpc_wire_seconds",
            "Shard RPC on-wire time: frame flushed until the completion frame arrived.",
            &self.rpc_wire_buckets,
            &self.rpc_wire_sum_ns,
            &self.rpc_wire_count,
        );

        let _ =
            writeln!(out, "# HELP tlm_serve_request_duration_seconds Request handling latency.");
        let _ = writeln!(out, "# TYPE tlm_serve_request_duration_seconds histogram");
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "tlm_serve_request_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ =
            writeln!(out, "tlm_serve_request_duration_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let sum_ns = self.latency_sum_ns.load(Ordering::Relaxed);
        let _ = writeln!(out, "tlm_serve_request_duration_seconds_sum {}", sum_ns as f64 / 1e9);
        let _ = writeln!(
            out,
            "tlm_serve_request_duration_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.request();
        m.request();
        m.response(200);
        m.response(503);
        m.queue_rejected();
        m.enqueue();
        m.enqueue();
        m.dequeue();
        m.begin();
        m.done(Duration::from_millis(3));
        m.worker_started();
        m.worker_started();
        m.worker_busy();
        m.worker_panic();
        m.worker_exited();
        m.worker_respawn();
        m.worker_started();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.epoll_wakeup();
        m.phase_enter(ConnPhase::Reading);
        m.set_shards(2);
        m.shard_request(1, 10, 20, Duration::from_millis(3));
        m.shard_rpc_error();
        m.shard_rpc_split(Duration::from_micros(500), Duration::from_millis(2));
        m.shard_inflight_enter(1);
        m.shard_inflight_enter(1);
        m.shard_inflight_leave(1);
        m.shard_inflight_rejected();

        let stats = PipelineStats {
            schedules: StoreStats { hits: 7, misses: 3, entries: 10, bytes: 640, evictions: 4 },
            report: StoreStats { hits: 1, misses: 2, entries: 2, bytes: 128, evictions: 1 },
            ..Default::default()
        };
        let sessions = SessionStats {
            active: 2,
            created: 3,
            evicted: 1,
            edits: 5,
            dirty_functions: 4,
            clean_functions: 40,
            dirty_blocks: 9,
            resident_bytes: 4096,
            ..Default::default()
        };
        let text = m.render(&stats, &sessions, 64);
        assert!(text.contains("tlm_serve_requests_total 2"));
        assert!(text.contains("tlm_serve_responses_total{code=\"200\"} 1"));
        assert!(text.contains("tlm_serve_responses_total{code=\"503\"} 1"));
        assert!(text.contains("tlm_serve_queue_rejected_total 1"));
        assert!(text.contains("tlm_serve_queue_depth 1"));
        assert!(text.contains("tlm_serve_queue_depth_peak 2"));
        assert!(text.contains("tlm_serve_queue_capacity 64"));
        assert!(text.contains("tlm_serve_schedule_cache_hits_total 7"));
        assert!(text.contains("tlm_serve_schedule_cache_misses_total 3"));
        assert!(text.contains("tlm_serve_schedule_cache_entries 10"));
        assert!(text.contains("tlm_serve_pipeline_stage_hits_total{stage=\"schedules\"} 7"));
        assert!(text.contains("tlm_serve_pipeline_stage_misses_total{stage=\"report\"} 2"));
        assert!(text.contains("tlm_serve_pipeline_stage_entries{stage=\"report\"} 2"));
        assert!(text.contains("tlm_serve_pipeline_stage_bytes{stage=\"schedules\"} 640"));
        assert!(text.contains("tlm_serve_pipeline_stage_hits_total{stage=\"ast\"} 0"));
        assert!(text.contains("tlm_serve_pipeline_stage_evictions_total{stage=\"schedules\"} 4"));
        assert!(text.contains("tlm_serve_cache_evictions_total 5"));
        assert!(text.contains("tlm_serve_cache_resident_bytes 768"));
        assert!(text.contains("tlm_serve_worker_panics_total 1"));
        assert!(text.contains("tlm_serve_worker_respawns_total 1"));
        assert!(text.contains("tlm_serve_workers_alive 2"));
        assert!(text.contains("tlm_serve_workers_busy 1"));
        assert!(text.contains("tlm_serve_request_duration_seconds_count 1"));
        // 3 ms lands in the ≤5 ms bucket and every one after (cumulative).
        assert!(text.contains("tlm_serve_request_duration_seconds_bucket{le=\"0.001\"} 0"));
        assert!(text.contains("tlm_serve_request_duration_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("tlm_serve_request_duration_seconds_bucket{le=\"+Inf\"} 1"));
        // Session families, straight from the snapshot.
        assert!(text.contains("tlm_serve_sessions_active 2"));
        assert!(text.contains("tlm_serve_sessions_created_total 3"));
        assert!(text.contains("tlm_serve_sessions_evicted_total 1"));
        assert!(text.contains("tlm_serve_session_edits_total 5"));
        assert!(text.contains("tlm_serve_session_dirty_functions_total 4"));
        assert!(text.contains("tlm_serve_session_clean_functions_total 40"));
        assert!(text.contains("tlm_serve_session_dirty_blocks_total 9"));
        assert!(text.contains("tlm_serve_sessions_resident_bytes 4096"));
        // The rows stage joined the per-stage families.
        assert!(text.contains("tlm_serve_pipeline_stage_misses_total{stage=\"rows\"} 0"));
        // Event-loop families.
        assert!(text.contains("tlm_serve_open_connections 1"));
        assert!(text.contains("tlm_serve_open_connections_peak 2"));
        assert!(text.contains("tlm_serve_epoll_wakeups_total 1"));
        assert!(text.contains("tlm_serve_connection_states{state=\"reading\"} 1"));
        assert!(text.contains("tlm_serve_connection_states{state=\"dispatched\"} 0"));
        assert!(text.contains("tlm_serve_connection_states{state=\"writing\"} 0"));
        assert!(text.contains("tlm_serve_connection_states{state=\"closing\"} 0"));
        // Shard families: exactly the configured slots render.
        assert!(text.contains("tlm_serve_shards_configured 2"));
        assert!(text.contains("tlm_serve_shard_requests_total{shard=\"0\"} 0"));
        assert!(text.contains("tlm_serve_shard_requests_total{shard=\"1\"} 1"));
        assert!(!text.contains("tlm_serve_shard_requests_total{shard=\"2\"}"));
        assert!(text.contains("tlm_serve_shard_tx_bytes_total{shard=\"1\"} 10"));
        assert!(text.contains("tlm_serve_shard_rx_bytes_total{shard=\"1\"} 20"));
        assert!(text.contains("tlm_serve_shard_rpc_errors_total 1"));
        assert!(text.contains("tlm_serve_shard_rpc_duration_seconds_count 1"));
        assert!(text.contains("tlm_serve_shard_rpc_duration_seconds_bucket{le=\"0.005\"} 1"));
        // The split histograms: 500 µs queue lands in ≤1 ms, 2 ms wire
        // in ≤5 ms.
        assert!(text.contains("tlm_serve_shard_rpc_queue_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("tlm_serve_shard_rpc_queue_seconds_count 1"));
        assert!(text.contains("tlm_serve_shard_rpc_wire_seconds_bucket{le=\"0.001\"} 0"));
        assert!(text.contains("tlm_serve_shard_rpc_wire_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("tlm_serve_shard_rpc_wire_seconds_count 1"));
        // In-flight depth per shard connection, with its high-water mark.
        assert!(text.contains("tlm_serve_shard_inflight{shard=\"1\"} 1"));
        assert!(text.contains("tlm_serve_shard_inflight_peak{shard=\"1\"} 2"));
        assert!(!text.contains("tlm_serve_shard_inflight{shard=\"2\"}"));
        assert!(text.contains("tlm_serve_shard_inflight_rejected_total 1"));
        assert_eq!(m.shard_inflight_peak(1), 2);
    }

    #[test]
    fn shard_stats_snapshots_render_per_shard_families() {
        let snapshot = ShardStatsSnapshot {
            stages: vec![("ast".to_string(), 3, 1), ("module".to_string(), 2, 2)],
            worker_panics: 1,
            trace_events: 40,
            trace_dropped: 4,
        };
        let text = render_shard_stats(&[(0, ShardStatsSnapshot::default()), (1, snapshot)]);
        assert!(text.contains("tlm_serve_shard_stage_hits_total{shard=\"1\",stage=\"ast\"} 3"));
        assert!(text.contains("tlm_serve_shard_stage_misses_total{shard=\"1\",stage=\"module\"} 2"));
        assert!(text.contains("tlm_serve_shard_worker_panics_total{shard=\"0\"} 0"));
        assert!(text.contains("tlm_serve_shard_worker_panics_total{shard=\"1\"} 1"));
        assert!(text.contains("tlm_serve_shard_trace_events_total{shard=\"1\"} 40"));
        assert!(text.contains("tlm_serve_shard_trace_dropped_total{shard=\"1\"} 4"));
        assert!(render_shard_stats(&[]).is_empty(), "no shards, no families");
    }

    #[test]
    fn kernel_scratch_counters_exported() {
        // The values are process-wide (other tests in the binary may have
        // run the scheduler), so only the presence and shape of the
        // samples is asserted here.
        let text = Metrics::new().render(&PipelineStats::default(), &SessionStats::default(), 1);
        for name in ["tlm_serve_kernel_scratch_reuse", "tlm_serve_kernel_scratch_alloc"] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "missing TYPE for {name}");
            let sample = text
                .lines()
                .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
                .unwrap_or_else(|| panic!("missing sample for {name}"));
            let value = sample.rsplit(' ').next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {sample}");
        }
    }

    #[test]
    fn trace_ring_counters_exported() {
        // Process-wide like the scratch counters (any test may have
        // recorded events), so assert presence and shape only.
        let text = Metrics::new().render(&PipelineStats::default(), &SessionStats::default(), 1);
        for name in ["tlm_serve_trace_events_total", "tlm_serve_trace_dropped_total"] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "missing TYPE for {name}");
            let sample = text
                .lines()
                .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
                .unwrap_or_else(|| panic!("missing sample for {name}"));
            let value = sample.rsplit(' ').next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {sample}");
        }
    }

    #[test]
    fn kernel_batch_counters_exported() {
        // Process-wide like the scratch counters, so assert presence and
        // shape: both dedup counters, each with a numeric sample.
        let text = Metrics::new().render(&PipelineStats::default(), &SessionStats::default(), 1);
        for name in ["tlm_serve_kernel_batch_dedup_hits", "tlm_serve_kernel_batch_unique_solves"] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "missing TYPE for {name}");
            let sample = text
                .lines()
                .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
                .unwrap_or_else(|| panic!("missing sample for {name}"));
            let value = sample.rsplit(' ').next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {sample}");
        }
    }

    #[test]
    fn unknown_status_does_not_panic() {
        let m = Metrics::new();
        m.response(418);
        let text = m.render(&PipelineStats::default(), &SessionStats::default(), 1);
        assert!(text.contains("tlm_serve_requests_total 0"));
    }
}
