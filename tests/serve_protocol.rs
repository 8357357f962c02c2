//! Protocol-level integration tests for `tlm-serve`: every exchange goes
//! through a real TCP socket against a running server instance, the way
//! an external client would see it.
//!
//! Covered here (beyond the crate's unit tests): hostile input at the
//! HTTP layer (malformed requests, slowloris header drips, truncated and
//! oversized bodies, mid-response hangups, unknown endpoints, wrong
//! methods), the determinism contract under concurrency — a mix of
//! estimates fired cold and then warm from four client threads answers
//! bit-identical bodies, and the warm pass recomputes nothing — plus
//! backpressure (a full dispatch queue answers `503` with `Retry-After`
//! and never grows past its capacity), a 256-connection keep-alive
//! fleet served within a p99 bound, and graceful shutdown: in-flight
//! work finishes, `/readyz` flips to `503` the moment draining starts
//! while `/healthz` keeps answering `200`, new sessions are refused
//! while edits to existing ones finish, and no worker is left stuck or
//! leaked behind a misbehaving client (checked via the worker gauges).
//! `/metrics` is checked for the pipeline, batch-dedup and event-loop
//! families; the process-wide counters are asserted as monotonic
//! deltas around a request. A byte-budgeted pipeline must evict without
//! changing a single response byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::sync::{Barrier, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use tlm_serve::client;
use tlm_serve::http::HttpLimits;
use tlm_serve::protocol::{Service, DEFAULT_SESSION_BUDGET, DEFAULT_SESSION_TTL};
use tlm_serve::server::{Server, ServerConfig, ServerHandle};

/// The kernel batch counters on `/metrics` are process-wide, so every
/// server in this binary holds a shared guard for its lifetime, and the
/// test that asserts exact deltas on those counters holds it exclusively:
/// no other test's cold solves can land between its reads.
static PROCESS_COUNTERS: RwLock<()> = RwLock::new(());

/// A running server plus its shared guard on [`PROCESS_COUNTERS`].
struct TestServer {
    handle: ServerHandle,
    _shared: RwLockReadGuard<'static, ()>,
}

impl TestServer {
    fn shutdown(self) {
        self.handle.shutdown();
    }
}

impl Deref for TestServer {
    type Target = ServerHandle;

    fn deref(&self) -> &ServerHandle {
        &self.handle
    }
}

fn launch(mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".to_string();
    let queue = config.queue;
    Server::start(config, Service::new(queue)).expect("server starts")
}

fn start(config: ServerConfig) -> TestServer {
    let shared = PROCESS_COUNTERS.read().unwrap_or_else(PoisonError::into_inner);
    TestServer { handle: launch(config), _shared: shared }
}

fn start_default() -> TestServer {
    start(ServerConfig { workers: 2, ..ServerConfig::default() })
}

/// Sends raw bytes, reads until the server closes, returns the response
/// text. The connection always asks for `Connection: close` (the caller
/// includes it in `raw`), so read-to-end terminates.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(raw).expect("writes");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    String::from_utf8_lossy(&out).into_owned()
}

/// One request on a fresh connection: `head` is `"METHOD /target"`.
fn request(addr: SocketAddr, head: &str, body: &str) -> String {
    let raw = format!(
        "{head} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

/// One request over an already-open keep-alive stream: the status, the
/// `Retry-After` header and the body text.
fn keep_alive_request(stream: &mut TcpStream, line: &str, body: &str) -> (u16, bool, String) {
    let (status, retry_after, body) = client::keep_alive(stream, line, body).expect("exchange");
    (status, retry_after.is_some(), String::from_utf8_lossy(&body).into_owned())
}

fn status_of(response: &str) -> u16 {
    response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

/// Reads one sample by its full name (label set included, if any) from
/// a Prometheus text page.
fn metric(page: &str, name: &str) -> u64 {
    client::metric(page, name).unwrap_or_else(|| panic!("metric {name} missing:\n{page}"))
}

#[test]
fn malformed_json_and_malformed_http_answer_400() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = request(addr, "POST /estimate", "this is not json");
    assert_eq!(status_of(&resp), 400, "got: {resp}");
    assert!(body_of(&resp).contains("invalid JSON"), "got: {resp}");

    // Deep nesting trips the parser's recursion budget, not the stack.
    let bomb = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
    let resp = request(addr, "POST /estimate", &bomb);
    assert_eq!(status_of(&resp), 400, "got: {resp}");

    // Broken HTTP framing.
    let resp = send_raw(addr, b"EHLO not-http\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 400, "got: {resp}");

    handle.shutdown();
}

/// A few kilobytes of nested MiniC once overflowed a worker's stack and
/// aborted the whole process. Both shapes — nested parentheses and a flat
/// operator chain, which builds an equally deep tree — must answer `400`
/// naming the nesting budget, and the same server must keep serving.
#[test]
fn deeply_nested_source_answers_400_and_the_server_keeps_serving() {
    let handle = start_default();
    let addr = handle.addr();

    let nested = format!("{}1{}", "(".repeat(4000), ")".repeat(4000));
    let chain = format!("1{}", " + 1".repeat(20_000));
    for expr in [nested, chain] {
        let body = format!(
            r#"{{"platform": {{"name": "bomb", "pes": [{{"name": "cpu", "pum": "microblaze"}}],
                "processes": [{{"name": "main", "pe": "cpu",
                                "source": "void main() {{ out({expr}); }}"}}]}}}}"#
        );
        let resp = request(addr, "POST /estimate", &body);
        assert_eq!(status_of(&resp), 400, "got: {}", &resp[..resp.len().min(300)]);
        assert!(body_of(&resp).contains("nesting deeper than"), "got: {}", body_of(&resp));
    }
    assert_eq!(status_of(&request(addr, "GET /healthz", "")), 200);

    handle.shutdown();
}

/// Hostile expansion factors in an inline PUM. `1e400` parses to
/// infinity, which validation rejects by name. `1e300` is finite, but no
/// CPU block's delay fits in `u64` cycles: a looping process and a
/// one-block one (no cycle sum to overflow) are both rejected. The
/// whole-module report (`/estimate`) and the row-spliced one (`/session`)
/// must both answer `400`; neither may panic (debug builds), wrap or
/// saturate (release builds).
#[test]
fn hostile_expansion_factors_answer_400_on_estimate_and_session() {
    let handle = start_default();
    let addr = handle.addr();

    let pum = tlm_core::library::microblaze_like(8 << 10, 4 << 10).to_value().to_compact();
    let factor = r#""fetch_expansion":1,"#;
    assert!(pum.contains(factor), "{pum}");
    let looping = "void main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i; } out(s); }";
    let one_block = "void main() { out(1); }";
    for (literal, source, needle) in [
        ("1e400", looping, "fetch_expansion"),
        ("1e300", looping, "u64::MAX"),
        ("1e300", one_block, "u64::MAX"),
    ] {
        let hostile = pum.replace(factor, &format!(r#""fetch_expansion":{literal},"#));
        let body = format!(
            r#"{{"platform": {{"name": "hostile", "pes": [{{"name": "cpu", "pum": {hostile}}}],
                "processes": [{{"name": "main", "pe": "cpu", "source": "{source}"}}]}},
                "sweep": [{{"icache": 2048, "dcache": 2048}}]}}"#
        );
        for line in ["POST /estimate", "POST /session"] {
            let resp = request(addr, line, &body);
            assert_eq!(status_of(&resp), 400, "{literal} {line}: {resp}");
            assert!(body_of(&resp).contains(needle), "{literal} {line}: {}", body_of(&resp));
        }
    }
    assert_eq!(status_of(&request(addr, "GET /healthz", "")), 200);

    handle.shutdown();
}

#[test]
fn truncated_body_times_out_with_408() {
    let handle = start(ServerConfig {
        workers: 2,
        io_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // Promise 100 bytes, deliver 10, then stall with the socket open.
    stream
        .write_all(b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n0123456789")
        .expect("writes");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 408, "got: {text}");

    handle.shutdown();
}

/// A client that closes its write half before a request is complete —
/// before sending a byte, or partway through a body — is owed no
/// response: the server closes silently, and the connection leaves the
/// table before the client sees the close.
#[test]
fn eof_before_a_complete_request_closes_without_a_response() {
    let handle = start_default();
    let addr = handle.addr();
    let open_connections = || metric(&client::scrape(addr), "tlm_serve_open_connections");
    let baseline = open_connections();
    let truncated = b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nonly-a-bit";
    for raw in [&b""[..], truncated] {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        stream.write_all(raw).expect("writes");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("reads");
        assert!(out.is_empty(), "no response owed, got: {}", String::from_utf8_lossy(&out));
        assert_eq!(open_connections(), baseline, "closed connection left in the table");
    }
    handle.shutdown();
}

/// Asserts via the worker gauges that the pool is intact: every worker
/// alive, and nobody stuck busy beyond the one serving this very
/// `/metrics` request.
fn assert_workers_intact(addr: SocketAddr, workers: u64) {
    let page = client::scrape(addr);
    assert_eq!(metric(&page, "tlm_serve_workers_alive"), workers, "worker leaked or died");
    assert!(metric(&page, "tlm_serve_workers_busy") <= 1, "worker stuck busy:\n{page}");
}

/// Waits, for at most 30 s, until `/metrics` shows `handled` requests
/// besides its own polls handled to completion, and fails if they never
/// are. A hung-up client's request still runs in its worker after the
/// client is gone; a worker check made before it finishes races it.
fn await_handled(addr: SocketAddr, handled: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    for polls in 0.. {
        // Earlier polls are handled; this one is still in its worker.
        let done = metric(&client::scrape(addr), "tlm_serve_request_duration_seconds_count");
        if done >= handled + polls {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "only {done} of {} requests handled after 30 s",
            handled + polls
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slowloris_header_drip_is_cut_by_the_request_deadline() {
    // Per-op timeout generous, total budget tight: every dripped byte
    // arrives well inside io_timeout, so only the per-request deadline
    // can end this.
    let workers = 2;
    let handle = start(ServerConfig {
        workers,
        io_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(b"POST /estimate HTTP/1.1\r\n").expect("writes");
    // Drip one header byte every 100 ms, then stall with the socket
    // open — the classic slowloris posture.
    for byte in b"X-Drip: ".iter().take(4) {
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&[*byte]).expect("drips");
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 408, "got: {text}");

    assert_workers_intact(addr, workers as u64);
    handle.shutdown();
}

#[test]
fn mid_response_hangup_leaves_no_stuck_worker() {
    let workers = 2;
    let handle = start(ServerConfig { workers, ..ServerConfig::default() });
    let addr = handle.addr();

    // Fire a real estimation request and hang up without reading a byte
    // of the reply; the worker's write fails and the connection is
    // reaped, not wedged.
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let body = r#"{"platform": "image:sw"}"#;
        let raw = format!(
            "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("writes");
        drop(stream); // hangup before the response
    }

    // The pool still serves normal clients afterwards.
    let resp = request(addr, "POST /estimate", r#"{"platform": "image:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    // Every worker is idle once the four abandoned requests and this one
    // have been handled.
    await_handled(addr, 5);
    assert_workers_intact(addr, workers as u64);
    handle.shutdown();
}

#[test]
fn oversized_payload_answers_413_without_reading_it() {
    let handle = start(ServerConfig {
        workers: 2,
        limits: HttpLimits { max_body_bytes: 1024, ..HttpLimits::default() },
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Only the declaration is sent — a server that buffered first would
    // wait forever; ours must answer from the header alone.
    let resp = send_raw(
        addr,
        b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413, "got: {resp}");
    assert!(body_of(&resp).contains("1024"), "names the limit: {resp}");

    handle.shutdown();
}

#[test]
fn unknown_endpoints_and_wrong_methods() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = send_raw(addr, b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 404, "got: {resp}");

    let resp = send_raw(addr, b"GET /estimate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 405, "got: {resp}");
    assert!(resp.contains("Allow: POST"), "got: {resp}");

    let resp = request(addr, "POST /metrics", "{}");
    assert_eq!(status_of(&resp), 405, "got: {resp}");
    assert!(resp.contains("Allow: GET"), "got: {resp}");

    // `Allow` lists every method the resource answers (RFC 9110 §15.5.6).
    for (head, allow) in [("PUT /session/1", "GET, DELETE"), ("GET /session/1/edit", "POST")] {
        let resp = request(addr, head, "");
        assert_eq!(status_of(&resp), 405, "{head} got: {resp}");
        assert!(resp.contains(&format!("\r\nAllow: {allow}\r\n")), "{head} got: {resp}");
    }

    handle.shutdown();
}

#[test]
fn estimation_over_the_wire_matches_the_paper_sweep_shape() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = request(addr, "POST /estimate", r#"{"platform": "image:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let v = tlm_json::parse(body_of(&resp)).expect("json body");
    let sweep = v.get("sweep").and_then(tlm_json::Value::as_array).expect("sweep");
    assert_eq!(sweep.len(), 5, "default sweep is the paper's five cache points");
    for point in sweep {
        let procs = point.get("processes").and_then(tlm_json::Value::as_array).expect("rows");
        assert_eq!(procs.len(), v.get("processes").and_then(tlm_json::Value::as_usize).unwrap());
    }

    handle.shutdown();
}

#[test]
fn metrics_expose_per_stage_pipeline_counters() {
    let handle = start_default();
    let addr = handle.addr();
    let get_metrics = || client::scrape(addr);

    // Before any estimation every stage is present and zero.
    let page = get_metrics();
    for stage in ["ast", "module", "prepared", "schedules", "annotated", "report"] {
        for family in [
            "tlm_serve_pipeline_stage_hits_total",
            "tlm_serve_pipeline_stage_misses_total",
            "tlm_serve_pipeline_stage_entries",
            "tlm_serve_pipeline_stage_bytes",
        ] {
            assert_eq!(metric(&page, &format!("{family}{{stage=\"{stage}\"}}")), 0);
        }
    }

    // A cold request computes: misses land on the estimation stages.
    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let cold = get_metrics();
    let report_misses = metric(&cold, "tlm_serve_pipeline_stage_misses_total{stage=\"report\"}");
    let sched_misses = metric(&cold, "tlm_serve_pipeline_stage_misses_total{stage=\"schedules\"}");
    assert!(report_misses > 0, "cold request must compute reports");
    assert!(sched_misses > 0, "cold request must run Algorithm 1");
    assert!(metric(&cold, "tlm_serve_pipeline_stage_entries{stage=\"report\"}") > 0);
    assert!(metric(&cold, "tlm_serve_pipeline_stage_bytes{stage=\"report\"}") > 0);

    // The identical request hits the report stage and short-circuits the
    // graph: no stage gains a single miss, and the upstream stages see no
    // lookups at all.
    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let warm = get_metrics();
    assert!(
        metric(&warm, "tlm_serve_pipeline_stage_hits_total{stage=\"report\"}")
            > metric(&cold, "tlm_serve_pipeline_stage_hits_total{stage=\"report\"}"),
        "warm request must hit the report stage"
    );
    for stage in ["ast", "module", "prepared", "schedules", "annotated", "report"] {
        let name = format!("tlm_serve_pipeline_stage_misses_total{{stage=\"{stage}\"}}");
        assert_eq!(metric(&warm, &name), metric(&cold, &name), "warm request recomputed {stage}");
    }
    for stage in ["schedules", "annotated"] {
        let name = format!("tlm_serve_pipeline_stage_hits_total{{stage=\"{stage}\"}}");
        assert_eq!(
            metric(&warm, &name),
            metric(&cold, &name),
            "report-stage hit must not consult {stage}"
        );
    }

    handle.shutdown();
}

/// The artifact pipeline's stage names, as exported on `/metrics`.
const STAGES: [&str; 7] = ["ast", "module", "prepared", "schedules", "annotated", "report", "rows"];

/// Request `i` of the 24-request estimate mix: the two bodies this test
/// has always sent, then the built-in designs in turn, each over a 1–3
/// point window of the sweep labels, with per-block rows every 8th
/// request.
fn mix_body(i: usize) -> String {
    const DESIGNS: [&str; 6] =
        ["mp3:sw", "mp3:sw+1", "mp3:sw+2", "mp3:sw+4", "image:sw", "image:hw"];
    const LABELS: [&str; 5] = ["0k/0k", "2k/2k", "8k/4k", "16k/16k", "32k/16k"];
    match i {
        0 => r#"{"platform": "image:sw", "sweep": ["0k/0k", "8k/4k"]}"#.to_string(),
        1 => r#"{"platform": "image:hw", "sweep": ["2k/2k"], "report": "blocks"}"#.to_string(),
        _ => {
            let sweep: Vec<String> =
                (0..1 + i % 3).map(|k| format!("\"{}\"", LABELS[(i + k) % LABELS.len()])).collect();
            let report = if i.is_multiple_of(8) { "blocks" } else { "totals" };
            format!(
                r#"{{"platform": "{}", "sweep": [{}], "report": "{report}"}}"#,
                DESIGNS[i % DESIGNS.len()],
                sweep.join(", ")
            )
        }
    }
}

/// Request `i` of the cache-defeating mix: an inline platform whose PUM
/// renames and re-delays one FU mode (mode names are part of the
/// schedule-domain key) and whose source embeds `i`, so no pipeline
/// stage can answer it from an earlier request.
fn cold_platform_body(i: usize) -> String {
    let mut pum = tlm_core::library::generic_risc();
    pum.name = format!("cold-risc-{i}");
    let units = pum.datapath.units.len();
    let unit = &mut pum.datapath.units[i % units];
    let modes = unit.modes.len();
    let mode = &mut unit.modes[i / units % modes];
    mode.name = format!("{}-v{i}", mode.name);
    mode.delay = 1 + (i % 24) as u32;
    let pum = pum.to_value().to_compact();
    let trips = 4 + i % 12;
    format!(
        r#"{{"platform": {{"name": "cold-{i}",
            "pes": [{{"name": "pe0", "pum": {pum}}}],
            "processes": [{{"name": "main", "pe": "pe0", "source":
                "void main() {{ int s = {i}; for (int k = 0; k < {trips}; k++) {{ s = s + k + {i}; }} out(s); }}"}}]}},
            "sweep": [{{"icache": 4096, "dcache": 4096}}]}}"#
    )
}

/// POSTs every body to `/estimate` from 4 client threads (body `i` on
/// thread `i % 4`), asserts each answers `200`, and returns the response
/// bodies in request order.
fn fan_out(addr: SocketAddr, bodies: &[String]) -> Vec<String> {
    let mut replies = vec![String::new(); bodies.len()];
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|c| {
                s.spawn(move || {
                    (c..bodies.len())
                        .step_by(4)
                        .map(|i| {
                            let resp = request(addr, "POST /estimate", &bodies[i]);
                            assert_eq!(status_of(&resp), 200, "request {i}: {resp}");
                            (i, body_of(&resp).to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in threads {
            for (i, body) in thread.join().expect("client thread") {
                replies[i] = body;
            }
        }
    });
    replies
}

/// One pipeline-stage counter (`family` is `hits` or `misses`) off a
/// `/metrics` page.
fn stage_count(page: &str, family: &str, stage: &str) -> u64 {
    metric(page, &format!("tlm_serve_pipeline_stage_{family}_total{{stage=\"{stage}\"}}"))
}

/// The estimate mix from 4 concurrent clients, cold and then warm: every
/// reply is `200` and every warm body equals its cold twin. The warm
/// pass adds no miss to any stage, so every stage it consults hits
/// 100 %. A cache-defeating mix of unique inline platforms then answers
/// `200` and runs Algorithm 1 afresh for every request.
#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let handle = start(ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = handle.addr();

    let mix: Vec<String> = (0..24).map(mix_body).collect();
    let cold = fan_out(addr, &mix);
    let before = client::scrape(addr);
    let warm = fan_out(addr, &mix);
    let after = client::scrape(addr);
    for (i, (warm, cold)) in warm.iter().zip(&cold).enumerate() {
        assert_eq!(warm, cold, "request {i} diverged warm: {}", mix[i]);
    }
    for stage in STAGES {
        assert_eq!(
            stage_count(&after, "misses", stage),
            stage_count(&before, "misses", stage),
            "warm pass recomputed {stage}"
        );
    }
    assert!(
        stage_count(&after, "hits", "report") >= stage_count(&before, "hits", "report") + 24,
        "warm pass must answer from the report stage"
    );

    let platforms: Vec<String> = (0..24).map(cold_platform_body).collect();
    fan_out(addr, &platforms);
    let last = client::scrape(addr);
    let solved =
        stage_count(&last, "misses", "schedules") - stage_count(&after, "misses", "schedules");
    assert!(solved >= 24, "{solved} schedule misses for 24 unique platforms");

    handle.shutdown();
}

/// A config whose I/O timeout and request deadline (120 s) outlast any
/// load test here, so only the load decides each reply.
fn patient(workers: usize, queue: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue,
        io_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        ..ServerConfig::default()
    }
}

/// A 24-connection burst against 1 worker and a queue of 2 overflows
/// the queue: every connection gets `200` or `503` with `Retry-After`,
/// at least one gets `503`, the queue never holds more than its
/// capacity, and the server answers `/healthz` afterwards.
#[test]
fn full_queue_answers_503_with_retry_after_and_keeps_serving() {
    const BURST: usize = 24;
    const QUEUE: u64 = 2;
    let handle = start(patient(1, QUEUE as usize));
    let addr = handle.addr();
    // Prime the catalog: the burst queues behind one cold sweep point,
    // not behind the one-time design build.
    let prime = request(addr, "POST /estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#);
    assert_eq!(status_of(&prime), 200, "got: {prime}");

    let barrier = Barrier::new(BURST);
    let replies: Vec<client::Reply> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..BURST)
            .map(|_| {
                s.spawn(|| {
                    let stream = client::connect(addr);
                    barrier.wait();
                    let body = r#"{"platform": "image:sw", "sweep": ["2k/2k"]}"#;
                    client::keep_alive(&mut stream.expect("connects"), "POST /estimate", body)
                        .expect("exchange")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("burst thread")).collect()
    });
    for (status, retry_after, body) in &replies {
        assert!(
            *status == 200 || (*status == 503 && retry_after.is_some()),
            "{status} (Retry-After {retry_after:?}): {}",
            String::from_utf8_lossy(body)
        );
    }
    let rejected = replies.iter().filter(|r| r.0 == 503).count();
    assert!(rejected > 0, "a {BURST}-connection burst never filled a queue of {QUEUE}");
    let peak = metric(&client::scrape(addr), "tlm_serve_queue_depth_peak");
    assert!(peak <= QUEUE, "queue peak {peak} over its capacity {QUEUE}");
    assert_eq!(status_of(&request(addr, "GET /healthz", "")), 200);

    handle.shutdown();
}

/// 256 keep-alive connections open at once, each sending 4 warm
/// estimates: all answer `200`, the open-connection peak gauge sees the
/// whole fleet, and the p99 latency stays under 5 s.
#[test]
fn keep_alive_fleet_of_256_connections_is_served() {
    const CONNECTIONS: usize = 256;
    const BODY: &str = r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#;
    let handle = start(patient(4, CONNECTIONS));
    let addr = handle.addr();
    let prime = request(addr, "POST /estimate", BODY);
    assert_eq!(status_of(&prime), 200, "got: {prime}");

    let barrier = Barrier::new(CONNECTIONS);
    let mut latencies: Vec<Duration> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let stream = client::connect(addr);
                    // Everyone connects before anyone sends: the server
                    // holds the whole fleet open at once.
                    barrier.wait();
                    let mut stream = stream.expect("connects");
                    (0..4)
                        .map(|k| {
                            let t0 = Instant::now();
                            let (status, _, body) =
                                client::keep_alive(&mut stream, "POST /estimate", BODY)
                                    .expect("exchange");
                            let body = String::from_utf8_lossy(&body);
                            assert_eq!(status, 200, "conn {c} request {k}: {body}");
                            t0.elapsed()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("fleet thread")).collect()
    });
    let peak = metric(&client::scrape(addr), "tlm_serve_open_connections_peak");
    assert!(peak >= CONNECTIONS as u64, "open-connection peak {peak} below the fleet");
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(p99 < Duration::from_secs(5), "p99 {p99:?} over 5 s");

    handle.shutdown();
}

#[test]
fn half_closed_client_still_gets_its_response_and_leaks_no_connection() {
    let handle = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    // The gauge as seen from a fresh scrape connection: the scrape
    // itself is open while the page renders, so a quiescent server
    // reads 1.
    let open_connections = || metric(&client::scrape(addr), "tlm_serve_open_connections");
    let baseline = open_connections();

    // Send a full request, then shut down the write half (SHUT_WR)
    // before reading a byte — the FIN arrives while the request is
    // queued or in flight. The response must still be delivered on the
    // intact read half.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let body = r#"{"platform": "mp3:sw", "sweep": ["0k/0k"]}"#;
    let raw = format!(
        "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("writes");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 200, "half-closed client still served: {text}");
    drop(stream);

    // No connection-state leak: the gauge returns to its baseline (the
    // server reaps the half-closed connection after the response; give
    // the close a moment to land).
    let mut last = u64::MAX;
    for _ in 0..40 {
        last = open_connections();
        if last == baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(last, baseline, "half-closed connection leaked in the gauge");

    handle.shutdown();
}

#[test]
fn drain_flips_readyz_immediately_while_healthz_stays_up() {
    let handle = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    // Pin both workers with keep-alive connections before the drain
    // starts, so the during-drain probes cannot depend on new accepts.
    let mut conn_a = TcpStream::connect(addr).expect("conn a");
    let mut conn_b = TcpStream::connect(addr).expect("conn b");
    for conn in [&mut conn_a, &mut conn_b] {
        conn.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    }
    assert_eq!(keep_alive_request(&mut conn_a, "GET /readyz", "").0, 200);
    assert_eq!(keep_alive_request(&mut conn_b, "GET /healthz", "").0, 200);

    handle.request_shutdown();

    // The very next request sees the flip: readiness gone (with a
    // Retry-After hint for the balancer), liveness intact — draining is
    // not dying.
    let ready = keep_alive_request(&mut conn_a, "GET /readyz", "");
    assert_eq!((ready.0, ready.1), (503, true), "503 carries Retry-After: {ready:?}");
    let health = keep_alive_request(&mut conn_b, "GET /healthz", "");
    assert_eq!(health.0, 200, "got: {health:?}");

    // While draining, keep-alive is not renewed: both connections are
    // closed after their in-flight response, and the listener accepts
    // nothing new once the drain completes.
    for conn in [&mut conn_a, &mut conn_b] {
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("drain close");
        assert!(rest.is_empty(), "no bytes after the draining response");
    }
    drop(conn_a);
    drop(conn_b);
    handle.shutdown();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "port is closed after drain"
    );
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let handle = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let addr = handle.addr();

    // Put a request in flight on the only worker, then shut down while
    // it is (possibly) still being served.
    let client = std::thread::spawn(move || {
        request(addr, "POST /estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k", "2k/2k"]}"#)
    });
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    let resp = client.join().expect("client thread");
    assert_eq!(status_of(&resp), 200, "in-flight work completes: {resp}");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "port is closed after drain"
    );
}

#[test]
fn estimate_traffic_reports_batch_dedup_on_metrics() {
    let _exclusive = PROCESS_COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let handle = launch(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    let before = client::scrape(addr);
    let dedup_before = metric(&before, "tlm_serve_kernel_batch_dedup_hits");
    let solves_before = metric(&before, "tlm_serve_kernel_batch_unique_solves");

    // A cold estimate over a built-in design: the annotate stage submits
    // whole-module batches, and the MP3 modules repeat small blocks
    // heavily, so the dedup fold must absorb some solves.
    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "estimate failed: {resp}");

    let after = client::scrape(addr);
    assert!(
        metric(&after, "tlm_serve_kernel_batch_dedup_hits") > dedup_before,
        "no dedup hits from a cold mp3 estimate:\n{after}"
    );
    assert!(
        metric(&after, "tlm_serve_kernel_batch_unique_solves") > solves_before,
        "no unique solves accounted:\n{after}"
    );

    // A warm repeat answers from the cache without growing the batch
    // counters — dedup is a property of cold solves, not of serving.
    let cold_blocks = metric(&after, "tlm_serve_kernel_batch_dedup_hits");
    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "warm estimate failed: {resp}");
    let warm = client::scrape(addr);
    assert_eq!(metric(&warm, "tlm_serve_kernel_batch_dedup_hits"), cold_blocks);

    handle.shutdown();
}

/// The event-loop observability families must render on `/metrics` —
/// the gauges over a live connection, the epoll wakeup counter and one
/// connection-state sample per state.
#[test]
fn event_loop_observability_renders_on_metrics() {
    let handle = start_default();
    let addr = handle.addr();

    let page = client::scrape(addr);
    // The scrape's own connection is open while the page renders.
    assert!(metric(&page, "tlm_serve_open_connections") >= 1, "gauge misses the scrape itself");
    assert!(metric(&page, "tlm_serve_open_connections_peak") >= 1);
    assert!(metric(&page, "tlm_serve_epoll_wakeups_total") >= 1, "event loop never woke");
    for state in ["reading", "dispatched", "writing", "closing"] {
        metric(&page, &format!("tlm_serve_connection_states{{state=\"{state}\"}}"));
    }
    handle.shutdown();
}

/// A one-process inline platform for the session drain test: `helper`
/// can be patched structurally (multiply → shift) without touching
/// `main`, so an edit during drain exercises the delta path.
const TINY_SESSION: &str = r#"{"platform": {
    "name": "tiny",
    "pes": [{"name": "cpu", "pum": "microblaze"}],
    "processes": [
        {"name": "main", "pe": "cpu",
         "source": "int helper(int x) { return x * 3 + 1; } void main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + helper(i); } out(s); }"}
    ]
}, "sweep": [{"icache": 2048, "dcache": 2048}]}"#;

/// Drain ordering over a real socket: once shutdown is requested, new
/// session creation answers `503` with a `Retry-After` hint, while edits
/// against an existing session keep completing until the drain finishes.
#[test]
fn drain_rejects_new_sessions_while_inflight_edits_finish() {
    let handle = start_default();
    let addr = handle.addr();

    // Two keep-alive connections, each already owned by a worker before
    // the drain begins: one holds the session, the other will attempt a
    // fresh creation mid-drain.
    let mut editor = TcpStream::connect(addr).expect("connects");
    let mut creator = TcpStream::connect(addr).expect("connects");
    for stream in [&editor, &creator] {
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    }

    let created = keep_alive_request(&mut editor, "POST /session", TINY_SESSION);
    assert_eq!(created.0, 200, "session create failed: {created:?}");
    assert!(created.2.contains("\"session\":1"), "ids are sequential: {created:?}");
    assert_eq!(keep_alive_request(&mut creator, "GET /healthz", "").0, 200);

    handle.request_shutdown();

    // Existing-session traffic still flows during the drain ...
    let edit = r#"{"process": "main", "patch": {"find": "x * 3 + 1", "replace": "x << 3"}}"#;
    let edited = keep_alive_request(&mut editor, "POST /session/1/edit", edit);
    assert_eq!(edited.0, 200, "in-flight edit must finish during drain: {edited:?}");
    assert!(edited.2.contains("\"dirty_functions\":1"), "delta path engaged: {edited:?}");

    // ... while new session creation is refused with a retry hint.
    let refused = keep_alive_request(&mut creator, "POST /session", TINY_SESSION);
    assert_eq!((refused.0, refused.1), (503, true), "rejected with Retry-After: {refused:?}");
    assert!(refused.2.contains("not accepting new sessions"), "names the reason: {refused:?}");

    drop(editor);
    drop(creator);
    handle.shutdown();
}

/// A byte budget evicts and recomputes artifacts but never changes a
/// byte: the six built-in designs answer a budgeted server exactly as
/// they answer an unbudgeted twin, on a first pass and again on a second
/// that recomputes what the budget evicted, and the budgeted pipeline
/// stays near its budget.
#[test]
fn cache_budget_evicts_without_changing_a_byte() {
    const BUDGET: u64 = 24 << 10;
    let twin = start_default();
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let service = Service::with_limits(16, BUDGET, DEFAULT_SESSION_BUDGET, DEFAULT_SESSION_TTL);
    let budgeted = Server::start(config, service).expect("server starts");

    for pass in 1..=2 {
        for design in ["mp3:sw", "mp3:sw+1", "mp3:sw+2", "mp3:sw+4", "image:sw", "image:hw"] {
            let body = format!(r#"{{"platform": "{design}", "sweep": ["0k/0k", "8k/4k"]}}"#);
            let want = request(twin.addr(), "POST /estimate", &body);
            assert_eq!(status_of(&want), 200, "got: {want}");
            let got = request(budgeted.addr(), "POST /estimate", &body);
            assert_eq!(body_of(&got), body_of(&want), "pass {pass}: {design} diverged");
        }
    }

    let page = client::scrape(budgeted.addr());
    assert!(metric(&page, "tlm_serve_cache_evictions_total") > 0, "budget never evicted");
    let resident = metric(&page, "tlm_serve_cache_resident_bytes");
    assert!(resident <= BUDGET + 4096, "{resident} resident bytes over a {BUDGET}-byte budget");
    budgeted.shutdown();
    twin.shutdown();
}
