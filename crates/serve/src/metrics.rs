//! Service counters and their Prometheus text exposition.
//!
//! All observability lives here, *outside* the response bodies: an
//! estimation response must be a pure function of the request (the
//! determinism contract the protocol tests assert), so anything that
//! varies run-to-run — latencies, queue depths, cache hit counts — is
//! only visible through `GET /metrics`.

use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tlm_pipeline::PipelineStats;
use tlm_session::SessionStats;

/// Histogram bucket upper bounds, in seconds.
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0];

/// The status codes the service can answer with, each with its own
/// counter.
pub const STATUSES: [u16; 8] = [200, 400, 404, 405, 408, 413, 500, 503];

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
    /// Requests currently waiting in the dispatch queue.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    queue_depth_peak: AtomicU64,
    /// Requests currently being estimated.
    inflight: AtomicU64,
    /// Request handling latency.
    latency: Histogram,
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
}

/// One latency histogram over [`LATENCY_BUCKETS`]: per-bucket counts
/// with one extra slot for `+Inf` (cumulative counts are derived at
/// render time), the total in nanoseconds for `_sum`, and the number of
/// observations for `_count`.
#[derive(Debug, Default)]
struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let bucket =
            LATENCY_BUCKETS.iter().position(|&le| secs <= le).unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends the family in the Prometheus text format: the head, then
    /// the cumulative buckets, `_sum` and `_count`.
    fn render(&self, out: &mut String, name: &str, help: &str) {
        // The head only: the samples below carry suffixes and `le`.
        family(out, name, "histogram", help, "", [("", 0); 0]);
        let mut cumulative = 0u64;
        for (bucket, le) in self.buckets.iter().zip(LATENCY_BUCKETS) {
            cumulative += bucket.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9);
        let _ = writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed));
    }
}

/// Writes one family in the Prometheus text format: its `# HELP` and
/// `# TYPE` lines, then one line per `(label value, value)` sample —
/// `name{label="…"} value`, or `name value` when `label` is empty.
fn family<L: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    label: &str,
    samples: impl IntoIterator<Item = (L, u64)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    for (key, value) in samples {
        let _ = if label.is_empty() {
            writeln!(out, "{name} {value}")
        } else {
            writeln!(out, "{name}{{{label}=\"{key}\"}} {value}")
        };
    }
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

    /// Records the dispatch queue's length after a push or a pop. The
    /// queue calls it under its own lock, so the gauge and its peak are
    /// exact lengths the queue held.
    pub fn queue_len(&self, len: usize) {
        self.queue_depth.store(len as u64, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Marks a request as being processed; call [`Metrics::done`] after.
    pub fn begin(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Completes [`Metrics::begin`] and records the request latency.
    pub fn done(&self, elapsed: Duration) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.latency.observe(elapsed);
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

    /// Records a connection registering with the event loop.
    pub fn conn_opened(&self) {
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.open_connections_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// Records a connection leaving the event loop.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one return from `epoll_wait`.
    pub fn epoll_wakeup(&self) {
        self.epoll_wakeups_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection entering an event-loop state.
    pub fn phase_enter(&self, phase: ConnPhase) {
        self.conn_phases[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection leaving an event-loop state.
    pub fn phase_leave(&self, phase: ConnPhase) {
        self.conn_phases[phase.index()].fetch_sub(1, Ordering::Relaxed);
    }

    /// Renders everything in the Prometheus text exposition format,
    /// together with the artifact pipeline's per-stage counters, the
    /// session store's counters and the configured queue capacity
    /// (static, but exported so dashboards can plot depth against it).
    /// Families are declared once each, in page order, and all written by
    /// one routine (`family`).
    pub fn render(
        &self,
        pipeline: &PipelineStats,
        sessions: &SessionStats,
        queue_capacity: usize,
    ) -> String {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let stages = pipeline.stages();
        // Process-wide kernel statistics, summed over worker threads: a
        // healthy warm service reuses scratch arenas on nearly every run
        // (a rising alloc rate flags a cold-path regression), and the
        // batch counters show how many block solves identical-shape dedup
        // absorbed.
        let scratch = tlm_core::schedule::scratch_stats();
        let batch = tlm_core::batch::batch_stats();
        let mut out = String::with_capacity(8 << 10);

        for (name, help, value) in [
            (
                "tlm_serve_requests_total",
                "Requests fully read off a socket.",
                load(&self.requests_total),
            ),
            (
                "tlm_serve_queue_rejected_total",
                "Connections answered 503 because the accept queue was full.",
                load(&self.queue_rejected_total),
            ),
            (
                "tlm_serve_worker_panics_total",
                "Request-handler panics caught and isolated (each answered 500).",
                load(&self.worker_panics_total),
            ),
            (
                "tlm_serve_worker_respawns_total",
                "Worker threads respawned by the supervisor after a panic.",
                load(&self.worker_respawns_total),
            ),
            (
                "tlm_serve_cache_evictions_total",
                "Entries dropped by byte-budget generation rotation, all stores.",
                stages.iter().map(|(_, s)| s.evictions).sum(),
            ),
            (
                "tlm_serve_faults_injected_total",
                "Faults injected by the chaos plan (0 unless built with --features faults).",
                tlm_faults::injected_total(),
            ),
            // The always-on trace ring (see `crate::trace`): a steadily
            // rising drop counter is expected under load — the ring keeps
            // the most recent window, not history.
            (
                "tlm_serve_trace_events_total",
                "Events recorded into the trace ring since process start.",
                crate::trace::recorded(),
            ),
            (
                "tlm_serve_trace_dropped_total",
                "Trace-ring events overwritten because the ring was full.",
                crate::trace::dropped(),
            ),
            ("tlm_serve_sessions_created_total", "Sessions ever created.", sessions.created),
            (
                "tlm_serve_sessions_evicted_total",
                "Sessions dropped by the resident-byte budget.",
                sessions.evicted,
            ),
            (
                "tlm_serve_sessions_expired_total",
                "Sessions dropped by the idle TTL.",
                sessions.expired,
            ),
            (
                "tlm_serve_sessions_closed_total",
                "Sessions closed by client request.",
                sessions.closed,
            ),
            ("tlm_serve_session_edits_total", "Session edits accepted.", sessions.edits),
            (
                "tlm_serve_session_dirty_functions_total",
                "Functions re-estimated by session edits (structural dirty set).",
                sessions.dirty_functions,
            ),
            (
                "tlm_serve_session_clean_functions_total",
                "Functions retained (spliced) across session edits.",
                sessions.clean_functions,
            ),
            (
                "tlm_serve_session_dirty_blocks_total",
                "Basic blocks re-estimated by session edits.",
                sessions.dirty_blocks,
            ),
            (
                "tlm_serve_kernel_scratch_reuse",
                "Kernel runs served entirely from already-allocated scratch arenas.",
                scratch.reuses,
            ),
            (
                "tlm_serve_kernel_scratch_alloc",
                "Kernel runs that grew (or first allocated) a scratch-arena buffer.",
                scratch.allocs,
            ),
            (
                "tlm_serve_kernel_batch_dedup_hits",
                "Blocks folded into another block's solve by identical-shape dedup.",
                batch.dedup_hits,
            ),
            (
                "tlm_serve_kernel_batch_unique_solves",
                "Representative block solves run after identical-shape dedup.",
                batch.unique_solves,
            ),
        ] {
            family(&mut out, name, "counter", help, "", [("", value)]);
        }

        family(
            &mut out,
            "tlm_serve_responses_total",
            "counter",
            "Responses by status code.",
            "code",
            STATUSES.iter().zip(&self.responses).map(|(code, n)| (code, load(n))),
        );

        for (name, kind, help, values) in [
            (
                "tlm_serve_pipeline_stage_hits_total",
                "counter",
                "Artifact-pipeline lookups served from a stage store.",
                stages.map(|(_, s)| s.hits),
            ),
            (
                "tlm_serve_pipeline_stage_misses_total",
                "counter",
                "Artifact-pipeline lookups that computed the stage.",
                stages.map(|(_, s)| s.misses),
            ),
            (
                "tlm_serve_pipeline_stage_entries",
                "gauge",
                "Resident artifacts per pipeline stage.",
                stages.map(|(_, s)| s.entries as u64),
            ),
            (
                "tlm_serve_pipeline_stage_bytes",
                "gauge",
                "Approximate resident key bytes per pipeline stage.",
                stages.map(|(_, s)| s.bytes),
            ),
            (
                "tlm_serve_pipeline_stage_evictions_total",
                "counter",
                "Entries dropped by byte-budget generation rotation, per stage.",
                stages.map(|(_, s)| s.evictions),
            ),
        ] {
            let samples = stages.iter().map(|(stage, _)| stage).zip(values);
            family(&mut out, name, kind, help, "stage", samples);
        }

        for (name, help, value) in [
            (
                "tlm_serve_queue_depth",
                "Connections currently waiting in the accept queue.",
                load(&self.queue_depth),
            ),
            (
                "tlm_serve_queue_depth_peak",
                "High-water mark of the accept queue depth.",
                load(&self.queue_depth_peak),
            ),
            (
                "tlm_serve_queue_capacity",
                "Configured capacity of the accept queue.",
                queue_capacity as u64,
            ),
            ("tlm_serve_inflight", "Requests currently being processed.", load(&self.inflight)),
            (
                "tlm_serve_cache_resident_bytes",
                "Approximate resident key bytes across all artifact stores.",
                stages.iter().map(|(_, s)| s.bytes).sum(),
            ),
            (
                "tlm_serve_sessions_active",
                "Live edit-to-estimate sessions.",
                sessions.active as u64,
            ),
            (
                "tlm_serve_sessions_resident_bytes",
                "Approximate resident bytes of all live sessions.",
                sessions.resident_bytes,
            ),
            (
                "tlm_serve_workers_alive",
                "Worker threads currently alive.",
                load(&self.workers_alive),
            ),
            (
                "tlm_serve_workers_busy",
                "Worker threads currently serving a connection.",
                load(&self.workers_busy),
            ),
            (
                "tlm_serve_open_connections",
                "Connections currently registered with the event loop.",
                load(&self.open_connections),
            ),
            (
                "tlm_serve_open_connections_peak",
                "High-water mark of open connections.",
                load(&self.open_connections_peak),
            ),
        ] {
            family(&mut out, name, "gauge", help, "", [("", value)]);
        }

        family(
            &mut out,
            "tlm_serve_epoll_wakeups_total",
            "counter",
            "Returns from epoll_wait in the event loop.",
            "",
            [("", load(&self.epoll_wakeups_total))],
        );
        family(
            &mut out,
            "tlm_serve_connection_states",
            "gauge",
            "Connections per event-loop state.",
            "state",
            CONN_PHASES.iter().zip(&self.conn_phases).map(|(phase, n)| (phase, load(n))),
        );
        self.latency.render(
            &mut out,
            "tlm_serve_request_duration_seconds",
            "Request handling latency.",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_pipeline::StoreStats;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.request();
        m.request();
        m.response(200);
        m.response(503);
        m.queue_rejected();
        m.queue_len(1);
        m.queue_len(2);
        m.queue_len(1);
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
        assert!(text.contains("tlm_serve_pipeline_stage_hits_total{stage=\"schedules\"} 7"));
        assert!(text.contains("tlm_serve_pipeline_stage_misses_total{stage=\"schedules\"} 3"));
        assert!(text.contains("tlm_serve_pipeline_stage_entries{stage=\"schedules\"} 10"));
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
    }

    /// The request-latency histogram for fixed observations, pinned byte
    /// for byte: it closes the page.
    #[test]
    fn latency_histogram_renders_byte_identically() {
        let m = Metrics::new();
        for elapsed in
            [Duration::from_micros(500), Duration::from_millis(3), Duration::from_secs(7)]
        {
            m.begin();
            m.done(elapsed);
        }
        let text = m.render(&PipelineStats::default(), &SessionStats::default(), 1);
        let start =
            text.find("# HELP tlm_serve_request_duration_seconds ").expect("latency family");
        assert_eq!(&text[start..], LATENCY_HISTOGRAM);
    }

    const LATENCY_HISTOGRAM: &str = r#"# HELP tlm_serve_request_duration_seconds Request handling latency.
# TYPE tlm_serve_request_duration_seconds histogram
tlm_serve_request_duration_seconds_bucket{le="0.001"} 1
tlm_serve_request_duration_seconds_bucket{le="0.005"} 2
tlm_serve_request_duration_seconds_bucket{le="0.01"} 2
tlm_serve_request_duration_seconds_bucket{le="0.025"} 2
tlm_serve_request_duration_seconds_bucket{le="0.05"} 2
tlm_serve_request_duration_seconds_bucket{le="0.1"} 2
tlm_serve_request_duration_seconds_bucket{le="0.25"} 2
tlm_serve_request_duration_seconds_bucket{le="1"} 2
tlm_serve_request_duration_seconds_bucket{le="5"} 2
tlm_serve_request_duration_seconds_bucket{le="+Inf"} 3
tlm_serve_request_duration_seconds_sum 7.0035
tlm_serve_request_duration_seconds_count 3
"#;

    /// The samples whose values are process-wide (fault plan, trace ring,
    /// kernel statistics): other tests in the binary move them.
    const PROCESS_WIDE: [&str; 7] = [
        "tlm_serve_faults_injected_total",
        "tlm_serve_trace_events_total",
        "tlm_serve_trace_dropped_total",
        "tlm_serve_kernel_scratch_reuse",
        "tlm_serve_kernel_scratch_alloc",
        "tlm_serve_kernel_batch_dedup_hits",
        "tlm_serve_kernel_batch_unique_solves",
    ];

    /// The whole `/metrics` page for fixed counters and snapshots, pinned
    /// byte for byte: family order, HELP text, TYPE lines and label
    /// layout. Only the values of [`PROCESS_WIDE`] are masked.
    #[test]
    fn metrics_page_renders_byte_identically() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.request();
        }
        for status in [200, 200, 400, 404, 405, 408, 413, 500, 503, 503] {
            m.response(status);
        }
        m.queue_rejected();
        m.begin();
        m.done(Duration::from_millis(20));
        m.begin();
        m.worker_started();
        m.worker_started();
        m.worker_started();
        m.worker_busy();
        m.worker_panic();
        m.worker_exited();
        m.worker_respawn();
        for _ in 0..4 {
            m.conn_opened();
        }
        m.conn_closed();
        for _ in 0..6 {
            m.epoll_wakeup();
        }
        m.phase_enter(ConnPhase::Reading);
        m.phase_enter(ConnPhase::Reading);
        m.phase_enter(ConnPhase::Dispatched);
        m.phase_enter(ConnPhase::Closing);

        let stage = |n: u64| StoreStats {
            hits: n,
            misses: n + 1,
            entries: n as usize + 2,
            bytes: 64 * n,
            evictions: n / 2,
        };
        let pipeline = PipelineStats {
            ast: stage(1),
            module: stage(2),
            prepared: stage(3),
            schedules: stage(4),
            annotated: stage(5),
            report: stage(6),
            rows: stage(7),
        };
        let sessions = SessionStats {
            active: 2,
            created: 11,
            evicted: 3,
            expired: 4,
            closed: 5,
            edits: 13,
            dirty_functions: 6,
            clean_functions: 40,
            dirty_blocks: 9,
            resident_bytes: 4096,
        };
        let page: String = m
            .render(&pipeline, &sessions, 64)
            .lines()
            .map(|line| match line.split_once(' ') {
                Some((name, _)) if PROCESS_WIDE.contains(&name) => format!("{name} <masked>\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        assert_eq!(page, METRICS_PAGE);
    }

    const METRICS_PAGE: &str = r#"# HELP tlm_serve_requests_total Requests fully read off a socket.
# TYPE tlm_serve_requests_total counter
tlm_serve_requests_total 3
# HELP tlm_serve_queue_rejected_total Connections answered 503 because the accept queue was full.
# TYPE tlm_serve_queue_rejected_total counter
tlm_serve_queue_rejected_total 1
# HELP tlm_serve_worker_panics_total Request-handler panics caught and isolated (each answered 500).
# TYPE tlm_serve_worker_panics_total counter
tlm_serve_worker_panics_total 1
# HELP tlm_serve_worker_respawns_total Worker threads respawned by the supervisor after a panic.
# TYPE tlm_serve_worker_respawns_total counter
tlm_serve_worker_respawns_total 1
# HELP tlm_serve_cache_evictions_total Entries dropped by byte-budget generation rotation, all stores.
# TYPE tlm_serve_cache_evictions_total counter
tlm_serve_cache_evictions_total 12
# HELP tlm_serve_faults_injected_total Faults injected by the chaos plan (0 unless built with --features faults).
# TYPE tlm_serve_faults_injected_total counter
tlm_serve_faults_injected_total <masked>
# HELP tlm_serve_trace_events_total Events recorded into the trace ring since process start.
# TYPE tlm_serve_trace_events_total counter
tlm_serve_trace_events_total <masked>
# HELP tlm_serve_trace_dropped_total Trace-ring events overwritten because the ring was full.
# TYPE tlm_serve_trace_dropped_total counter
tlm_serve_trace_dropped_total <masked>
# HELP tlm_serve_sessions_created_total Sessions ever created.
# TYPE tlm_serve_sessions_created_total counter
tlm_serve_sessions_created_total 11
# HELP tlm_serve_sessions_evicted_total Sessions dropped by the resident-byte budget.
# TYPE tlm_serve_sessions_evicted_total counter
tlm_serve_sessions_evicted_total 3
# HELP tlm_serve_sessions_expired_total Sessions dropped by the idle TTL.
# TYPE tlm_serve_sessions_expired_total counter
tlm_serve_sessions_expired_total 4
# HELP tlm_serve_sessions_closed_total Sessions closed by client request.
# TYPE tlm_serve_sessions_closed_total counter
tlm_serve_sessions_closed_total 5
# HELP tlm_serve_session_edits_total Session edits accepted.
# TYPE tlm_serve_session_edits_total counter
tlm_serve_session_edits_total 13
# HELP tlm_serve_session_dirty_functions_total Functions re-estimated by session edits (structural dirty set).
# TYPE tlm_serve_session_dirty_functions_total counter
tlm_serve_session_dirty_functions_total 6
# HELP tlm_serve_session_clean_functions_total Functions retained (spliced) across session edits.
# TYPE tlm_serve_session_clean_functions_total counter
tlm_serve_session_clean_functions_total 40
# HELP tlm_serve_session_dirty_blocks_total Basic blocks re-estimated by session edits.
# TYPE tlm_serve_session_dirty_blocks_total counter
tlm_serve_session_dirty_blocks_total 9
# HELP tlm_serve_kernel_scratch_reuse Kernel runs served entirely from already-allocated scratch arenas.
# TYPE tlm_serve_kernel_scratch_reuse counter
tlm_serve_kernel_scratch_reuse <masked>
# HELP tlm_serve_kernel_scratch_alloc Kernel runs that grew (or first allocated) a scratch-arena buffer.
# TYPE tlm_serve_kernel_scratch_alloc counter
tlm_serve_kernel_scratch_alloc <masked>
# HELP tlm_serve_kernel_batch_dedup_hits Blocks folded into another block's solve by identical-shape dedup.
# TYPE tlm_serve_kernel_batch_dedup_hits counter
tlm_serve_kernel_batch_dedup_hits <masked>
# HELP tlm_serve_kernel_batch_unique_solves Representative block solves run after identical-shape dedup.
# TYPE tlm_serve_kernel_batch_unique_solves counter
tlm_serve_kernel_batch_unique_solves <masked>
# HELP tlm_serve_responses_total Responses by status code.
# TYPE tlm_serve_responses_total counter
tlm_serve_responses_total{code="200"} 2
tlm_serve_responses_total{code="400"} 1
tlm_serve_responses_total{code="404"} 1
tlm_serve_responses_total{code="405"} 1
tlm_serve_responses_total{code="408"} 1
tlm_serve_responses_total{code="413"} 1
tlm_serve_responses_total{code="500"} 1
tlm_serve_responses_total{code="503"} 2
# HELP tlm_serve_pipeline_stage_hits_total Artifact-pipeline lookups served from a stage store.
# TYPE tlm_serve_pipeline_stage_hits_total counter
tlm_serve_pipeline_stage_hits_total{stage="ast"} 1
tlm_serve_pipeline_stage_hits_total{stage="module"} 2
tlm_serve_pipeline_stage_hits_total{stage="prepared"} 3
tlm_serve_pipeline_stage_hits_total{stage="schedules"} 4
tlm_serve_pipeline_stage_hits_total{stage="annotated"} 5
tlm_serve_pipeline_stage_hits_total{stage="report"} 6
tlm_serve_pipeline_stage_hits_total{stage="rows"} 7
# HELP tlm_serve_pipeline_stage_misses_total Artifact-pipeline lookups that computed the stage.
# TYPE tlm_serve_pipeline_stage_misses_total counter
tlm_serve_pipeline_stage_misses_total{stage="ast"} 2
tlm_serve_pipeline_stage_misses_total{stage="module"} 3
tlm_serve_pipeline_stage_misses_total{stage="prepared"} 4
tlm_serve_pipeline_stage_misses_total{stage="schedules"} 5
tlm_serve_pipeline_stage_misses_total{stage="annotated"} 6
tlm_serve_pipeline_stage_misses_total{stage="report"} 7
tlm_serve_pipeline_stage_misses_total{stage="rows"} 8
# HELP tlm_serve_pipeline_stage_entries Resident artifacts per pipeline stage.
# TYPE tlm_serve_pipeline_stage_entries gauge
tlm_serve_pipeline_stage_entries{stage="ast"} 3
tlm_serve_pipeline_stage_entries{stage="module"} 4
tlm_serve_pipeline_stage_entries{stage="prepared"} 5
tlm_serve_pipeline_stage_entries{stage="schedules"} 6
tlm_serve_pipeline_stage_entries{stage="annotated"} 7
tlm_serve_pipeline_stage_entries{stage="report"} 8
tlm_serve_pipeline_stage_entries{stage="rows"} 9
# HELP tlm_serve_pipeline_stage_bytes Approximate resident key bytes per pipeline stage.
# TYPE tlm_serve_pipeline_stage_bytes gauge
tlm_serve_pipeline_stage_bytes{stage="ast"} 64
tlm_serve_pipeline_stage_bytes{stage="module"} 128
tlm_serve_pipeline_stage_bytes{stage="prepared"} 192
tlm_serve_pipeline_stage_bytes{stage="schedules"} 256
tlm_serve_pipeline_stage_bytes{stage="annotated"} 320
tlm_serve_pipeline_stage_bytes{stage="report"} 384
tlm_serve_pipeline_stage_bytes{stage="rows"} 448
# HELP tlm_serve_pipeline_stage_evictions_total Entries dropped by byte-budget generation rotation, per stage.
# TYPE tlm_serve_pipeline_stage_evictions_total counter
tlm_serve_pipeline_stage_evictions_total{stage="ast"} 0
tlm_serve_pipeline_stage_evictions_total{stage="module"} 1
tlm_serve_pipeline_stage_evictions_total{stage="prepared"} 1
tlm_serve_pipeline_stage_evictions_total{stage="schedules"} 2
tlm_serve_pipeline_stage_evictions_total{stage="annotated"} 2
tlm_serve_pipeline_stage_evictions_total{stage="report"} 3
tlm_serve_pipeline_stage_evictions_total{stage="rows"} 3
# HELP tlm_serve_queue_depth Connections currently waiting in the accept queue.
# TYPE tlm_serve_queue_depth gauge
tlm_serve_queue_depth 0
# HELP tlm_serve_queue_depth_peak High-water mark of the accept queue depth.
# TYPE tlm_serve_queue_depth_peak gauge
tlm_serve_queue_depth_peak 0
# HELP tlm_serve_queue_capacity Configured capacity of the accept queue.
# TYPE tlm_serve_queue_capacity gauge
tlm_serve_queue_capacity 64
# HELP tlm_serve_inflight Requests currently being processed.
# TYPE tlm_serve_inflight gauge
tlm_serve_inflight 1
# HELP tlm_serve_cache_resident_bytes Approximate resident key bytes across all artifact stores.
# TYPE tlm_serve_cache_resident_bytes gauge
tlm_serve_cache_resident_bytes 1792
# HELP tlm_serve_sessions_active Live edit-to-estimate sessions.
# TYPE tlm_serve_sessions_active gauge
tlm_serve_sessions_active 2
# HELP tlm_serve_sessions_resident_bytes Approximate resident bytes of all live sessions.
# TYPE tlm_serve_sessions_resident_bytes gauge
tlm_serve_sessions_resident_bytes 4096
# HELP tlm_serve_workers_alive Worker threads currently alive.
# TYPE tlm_serve_workers_alive gauge
tlm_serve_workers_alive 2
# HELP tlm_serve_workers_busy Worker threads currently serving a connection.
# TYPE tlm_serve_workers_busy gauge
tlm_serve_workers_busy 1
# HELP tlm_serve_open_connections Connections currently registered with the event loop.
# TYPE tlm_serve_open_connections gauge
tlm_serve_open_connections 3
# HELP tlm_serve_open_connections_peak High-water mark of open connections.
# TYPE tlm_serve_open_connections_peak gauge
tlm_serve_open_connections_peak 4
# HELP tlm_serve_epoll_wakeups_total Returns from epoll_wait in the event loop.
# TYPE tlm_serve_epoll_wakeups_total counter
tlm_serve_epoll_wakeups_total 6
# HELP tlm_serve_connection_states Connections per event-loop state.
# TYPE tlm_serve_connection_states gauge
tlm_serve_connection_states{state="reading"} 2
tlm_serve_connection_states{state="dispatched"} 1
tlm_serve_connection_states{state="writing"} 0
tlm_serve_connection_states{state="closing"} 1
# HELP tlm_serve_request_duration_seconds Request handling latency.
# TYPE tlm_serve_request_duration_seconds histogram
tlm_serve_request_duration_seconds_bucket{le="0.001"} 0
tlm_serve_request_duration_seconds_bucket{le="0.005"} 0
tlm_serve_request_duration_seconds_bucket{le="0.01"} 0
tlm_serve_request_duration_seconds_bucket{le="0.025"} 1
tlm_serve_request_duration_seconds_bucket{le="0.05"} 1
tlm_serve_request_duration_seconds_bucket{le="0.1"} 1
tlm_serve_request_duration_seconds_bucket{le="0.25"} 1
tlm_serve_request_duration_seconds_bucket{le="1"} 1
tlm_serve_request_duration_seconds_bucket{le="5"} 1
tlm_serve_request_duration_seconds_bucket{le="+Inf"} 1
tlm_serve_request_duration_seconds_sum 0.02
tlm_serve_request_duration_seconds_count 1
"#;

    #[test]
    fn process_wide_counters_exported() {
        // The trace-ring and kernel counters: any test in the binary may
        // have moved them, so only the presence and shape of each sample
        // is asserted.
        let text = Metrics::new().render(&PipelineStats::default(), &SessionStats::default(), 1);
        for name in &PROCESS_WIDE[1..] {
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
