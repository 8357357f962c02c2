//! End-to-end protocol checks over a real socket: an estimation request
//! against a built-in design, then `/metrics` — asserting the batched
//! scheduler actually engaged (identical-shape dedup folded some blocks and
//! the unique solves were accounted). The counters are process-wide totals,
//! so the assertions are monotonic deltas around the request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig};
use tlm_serve::shard::ShardRouter;

fn request(addr: SocketAddr, head: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write!(
        stream,
        "{head} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("writes");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("reads");
    out
}

fn status_of(response: &str) -> u16 {
    response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// One request over an already-open keep-alive stream, reading exactly
/// one response (headers plus `Content-Length` body) so the connection
/// stays usable for the next request.
fn keep_alive_request(stream: &mut TcpStream, head: &str, body: &str) -> String {
    write!(
        stream,
        "{head} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .expect("writes");
    let mut header = Vec::new();
    let mut byte = [0u8; 1];
    while !header.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("reads header byte");
        header.push(byte[0]);
    }
    let header = String::from_utf8(header).expect("utf8 header");
    let length = header
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0usize);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("reads body");
    format!("{header}{}", String::from_utf8_lossy(&body))
}

/// Reads one sample by its full name (label set included, if any).
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len()..].trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{page}"))
}

#[test]
fn estimate_traffic_reports_batch_dedup_on_metrics() {
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let handle = Server::start(config, Service::new(8)).expect("server starts");
    let addr = handle.addr();

    let before = request(addr, "GET /metrics", "");
    assert_eq!(status_of(&before), 200);
    let dedup_before = metric(&before, "tlm_serve_kernel_batch_dedup_hits");
    let solves_before = metric(&before, "tlm_serve_kernel_batch_unique_solves");

    // A cold estimate over a built-in design: the annotate stage submits
    // whole-module batches, and the MP3 modules repeat small blocks
    // heavily, so the dedup fold must absorb some solves.
    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "estimate failed: {resp}");

    let after = request(addr, "GET /metrics", "");
    assert_eq!(status_of(&after), 200);
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
    let warm = request(addr, "GET /metrics", "");
    assert_eq!(metric(&warm, "tlm_serve_kernel_batch_dedup_hits"), cold_blocks);

    handle.shutdown();
}

/// The event-loop and shard observability families must render on
/// `/metrics` — the gauges over a live connection, the epoll wakeup
/// counter, one connection-state sample per state, and the shard tier's
/// counters. A front pointed at an unreachable shard must answer the
/// same `503` + `Retry-After` contract as a full queue and count the
/// RPC failure.
#[test]
fn event_loop_and_shard_observability_render_on_metrics() {
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let handle = Server::start(config, Service::new(8)).expect("server starts");
    let addr = handle.addr();

    let page = request(addr, "GET /metrics", "");
    assert_eq!(status_of(&page), 200);
    // The scrape's own connection is open while the page renders.
    assert!(metric(&page, "tlm_serve_open_connections") >= 1, "gauge misses the scrape itself");
    assert!(metric(&page, "tlm_serve_open_connections_peak") >= 1);
    assert!(metric(&page, "tlm_serve_epoll_wakeups_total") >= 1, "event loop never woke");
    for state in ["reading", "dispatched", "writing", "closing"] {
        metric(&page, &format!("tlm_serve_connection_states{{state=\"{state}\"}}"));
    }
    assert_eq!(metric(&page, "tlm_serve_shards_configured"), 0, "default is in-process");
    metric(&page, "tlm_serve_shard_rpc_errors_total");
    metric(&page, "tlm_serve_shard_rpc_duration_seconds_count");
    handle.shutdown();

    // A front routing to an unreachable shard tier: the client sees the
    // standard backpressure contract, and the failure is counted.
    let dead: SocketAddr = "127.0.0.1:1".parse().expect("addr");
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let service = Service::new(8).with_router(Arc::new(ShardRouter::connect(&[dead, dead])));
    let handle = Server::start(config, service).expect("server starts");
    let addr = handle.addr();

    let resp = request(addr, "POST /estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 503, "unreachable shard answers 503: {resp}");
    assert!(resp.contains("Retry-After"), "carries Retry-After: {resp}");
    assert!(resp.contains("unavailable"), "names the failure: {resp}");

    let page = request(addr, "GET /metrics", "");
    assert_eq!(metric(&page, "tlm_serve_shards_configured"), 2);
    assert!(metric(&page, "tlm_serve_shard_rpc_errors_total") >= 1, "rpc failure not counted");
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
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let handle = Server::start(config, Service::new(8)).expect("server starts");
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
    assert_eq!(status_of(&created), 200, "session create failed: {created}");
    assert!(created.contains("\"session\":1"), "ids are sequential: {created}");
    let ping = keep_alive_request(&mut creator, "GET /healthz", "");
    assert_eq!(status_of(&ping), 200);

    handle.request_shutdown();

    // Existing-session traffic still flows during the drain ...
    let edit = r#"{"process": "main", "patch": {"find": "x * 3 + 1", "replace": "x << 3"}}"#;
    let edited = keep_alive_request(&mut editor, "POST /session/1/edit", edit);
    assert_eq!(status_of(&edited), 200, "in-flight edit must finish during drain: {edited}");
    assert!(edited.contains("\"dirty_functions\":1"), "delta path engaged: {edited}");

    // ... while new session creation is refused with a retry hint.
    let refused = keep_alive_request(&mut creator, "POST /session", TINY_SESSION);
    assert_eq!(status_of(&refused), 503, "creation must be rejected during drain: {refused}");
    assert!(refused.contains("Retry-After"), "rejection carries Retry-After: {refused}");
    assert!(refused.contains("not accepting new sessions"), "names the reason: {refused}");

    drop(editor);
    drop(creator);
    handle.shutdown();
}
