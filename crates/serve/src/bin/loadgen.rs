//! `loadgen` — fixed-seed load generator, benchmark and gate for
//! `tlm-serve`.
//!
//! ```text
//! loadgen [--requests N] [--clients N] [--seed HEX] [--addr HOST:PORT]
//!         [--connections N] [--cold-platforms] [--sessions] [--chaos SEED]
//!         [--bench-json[=PATH]]
//! ```
//!
//! Runs three phases and enforces the serving-layer guarantees as hard
//! gates (non-zero exit on violation):
//!
//! 1. **cold** — a deterministic xorshift-driven mix of estimation
//!    requests over the built-in MP3 and image-pipeline designs, spread
//!    across concurrent client threads. Gate: every request answers
//!    `200`.
//! 2. **warm** — the *identical* sequence again. Gates: every response
//!    body is bit-identical to its cold twin (determinism under
//!    concurrency), no pipeline stage recomputes anything (the report
//!    stage short-circuits the whole graph, so warm misses must be zero
//!    across every stage), and every stage that sees warm lookups has a
//!    hit rate ≥ 90 % (cross-request memoization works).
//! 3. **saturation** — a burst of concurrent connections against a
//!    deliberately tiny in-process server (1 worker, queue of 2).
//!    Gates: every connection receives a well-formed HTTP response
//!    (`200` or `503 Retry-After` — the server never aborts a
//!    connection), at least one `503` is observed (backpressure
//!    engaged), the queue-depth peak stays within capacity + 1, and the
//!    server still answers `/healthz` afterwards.
//!
//! With `--cold-platforms` an extra phase runs between warm and
//! saturation: a cache-defeating mix where every request carries a fully
//! inline custom platform whose PUM has a uniquely renamed (and
//! re-delayed) FU mode and whose MiniC source embeds the request index,
//! so every request is a fresh schedule domain *and* a fresh front-end
//! input — no artifact-pipeline stage can answer from a previous
//! request. This measures the true cold path (front-end + Algorithm 1
//! kernel) under concurrency; p50/p99 latency land in the benchmark
//! record. Gate: every request answers `200`.
//!
//! With `--sessions` an edit-loop phase runs after the warm snapshots:
//! it opens an edit-to-estimate session against an inline platform whose
//! sources loadgen controls, applies a fixed chain of single-function
//! structural edits, and gates that incremental re-estimation actually
//! engaged — every edit reports exactly one dirty function (the other
//! splices from retained rows), the `rows` stage recomputes exactly
//! edits × sweep-points entries, the `annotated`/`report` stages see
//! zero traffic, and the replayed view is bit-identical to the last
//! edit's report. Runs after the warm snapshots on purpose so its
//! misses cannot pollute the warm-phase cache gates.
//!
//! The client honors backpressure: a `503` is retried after the
//! server's `Retry-After`, with capped exponential backoff and seeded
//! jitter; retry counts land in the benchmark record.
//!
//! With `--chaos SEED` (requires building with `--features faults`) a
//! fourth phase boots a byte-budgeted in-process server, arms the
//! seeded fault plan — worker panics, latency spikes, short reads,
//! allocator pressure, transient stage failures — fires the same
//! deterministic mix through it, and gates the degradation ladder: no
//! status outside {200, 500, 503}, every `500` matches a caught worker
//! panic and a respawn, workers and `/healthz` recover, cache eviction
//! stays within the byte budget, `/readyz` flips during drain while
//! `/healthz` holds, and — faults cleared — the same mix reproduces the
//! pre-chaos bytes bit-identically across all the evictions.
//!
//! With `--bench-json` the measured throughput/latency and the gate
//! inputs are written as a machine-readable record (`BENCH_serve.json`
//! via the shared flag convention). Without `--addr` the load runs
//! against an in-process server on an ephemeral port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tlm_json::{ObjectBuilder, Value};
use tlm_serve::http::HttpLimits;
use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig, ServerHandle};
use tlm_serve::shard::{ShardConfig, ShardRouter};

/// Deterministic xorshift64* generator — the fixed-seed client mix must
/// reproduce bit-identically across runs and machines.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DESIGNS: [&str; 6] = ["mp3:sw", "mp3:sw+1", "mp3:sw+2", "mp3:sw+4", "image:sw", "image:hw"];
const SWEEP_LABELS: [&str; 5] = ["0k/0k", "2k/2k", "8k/4k", "16k/16k", "32k/16k"];

/// The artifact pipeline's stage names, as exported on `/metrics`.
const STAGES: [&str; 7] = ["ast", "module", "prepared", "schedules", "annotated", "report", "rows"];

/// One `/metrics` reading of the per-stage pipeline counters, indexed
/// like [`STAGES`].
#[derive(Clone, Copy, Default)]
struct StageSnap {
    hits: [u64; STAGES.len()],
    misses: [u64; STAGES.len()],
}

/// The i-th request body of the mix for `seed`. A fresh generator per
/// request keeps the mix independent of client-thread assignment.
fn request_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::new(seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let design = DESIGNS[rng.below(DESIGNS.len() as u64) as usize];
    let points = 1 + rng.below(3) as usize;
    let start = rng.below(SWEEP_LABELS.len() as u64) as usize;
    let sweep: Vec<String> = (0..points)
        .map(|k| format!("\"{}\"", SWEEP_LABELS[(start + k) % SWEEP_LABELS.len()]))
        .collect();
    let report = if rng.below(8) == 0 { "blocks" } else { "totals" };
    format!(
        "{{\"platform\": \"{design}\", \"sweep\": [{}], \"report\": \"{report}\"}}",
        sweep.join(", ")
    )
}

/// The i-th request of the `--cold-platforms` mix: an inline platform
/// whose PUM carries a uniquely renamed, freshly drawn FU-mode delay and
/// whose source embeds the request index. The mode rename alone
/// guarantees a never-seen schedule-domain fingerprint (mode names are
/// part of [`tlm_core::Pum::schedule_domain`]); the per-request source
/// defeats the front-end stages the same way.
fn cold_platform_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x0c1d_0c1d ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut pum = tlm_core::library::generic_risc();
    pum.name = format!("cold-risc-{i}");
    let unit_count = pum.datapath.units.len() as u64;
    let unit = &mut pum.datapath.units[rng.below(unit_count) as usize];
    let mode_count = unit.modes.len() as u64;
    let mode = &mut unit.modes[rng.below(mode_count) as usize];
    mode.name = format!("{}-v{i}", mode.name);
    mode.delay = 1 + rng.below(24) as u32;
    let pum_json = pum.to_value().to_compact();
    let accum = rng.below(1 << 16);
    let trips = 4 + rng.below(12);
    format!(
        "{{\"platform\": {{\"name\": \"cold-{i}\", \
           \"pes\": [{{\"name\": \"pe0\", \"pum\": {pum_json}}}], \
           \"processes\": [{{\"name\": \"main\", \"pe\": \"pe0\", \"source\": \
           \"void main() {{ int s = {accum}; \
            for (int k = 0; k < {trips}; k++) {{ s = s + k + {i}; }} out(s); }}\"}}]}}, \
         \"sweep\": [{{\"icache\": 4096, \"dcache\": 4096}}]}}"
    )
}

/// One HTTP reply: status, the `Retry-After` seconds if the server sent
/// the header, and the body.
type Reply = Result<(u16, Option<u64>, Vec<u8>), String>;

/// One-shot HTTP exchange (fresh connection, `Connection: close`).
fn exchange(addr: SocketAddr, head: &str, body: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(120))))
        .map_err(|e| format!("timeout setup: {e}"))?;
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {} bytes", raw.len()))?;
    let head_text = std::str::from_utf8(&raw[..header_end]).map_err(|e| format!("head: {e}"))?;
    let status: u16 = head_text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head_text}"))?;
    let retry_after = head_text.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after").then(|| value.trim().parse().ok())?
    });
    Ok((status, retry_after, raw[header_end + 4..].to_vec()))
}

fn post_json(addr: SocketAddr, target: &str, body: &str) -> Reply {
    let head = format!(
        "POST {target} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    exchange(addr, &head, body.as_bytes())
}

fn post_estimate(addr: SocketAddr, body: &str) -> Reply {
    post_json(addr, "/estimate", body)
}

fn delete(addr: SocketAddr, target: &str) -> Reply {
    exchange(
        addr,
        &format!("DELETE {target} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n"),
        b"",
    )
}

fn get(addr: SocketAddr, target: &str) -> Reply {
    exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n"),
        b"",
    )
}

/// Longest single backoff sleep; the exponential curve is clipped here.
const BACKOFF_CAP_MS: u64 = 2_000;
/// Retries per request before the `503` (or transport error) is final.
const MAX_RETRIES: u64 = 4;

/// [`post_estimate`] with backpressure honored: a `503` is retried after
/// the server's `Retry-After` (seconds), doubled per attempt, capped at
/// [`BACKOFF_CAP_MS`], and jittered to 0.5–1.5× by the seeded generator
/// so synchronized clients fan out instead of re-colliding. With
/// `retry_errors`, transport errors (a chaos-cut connection) retry on
/// the same schedule. Returns the final reply and the retry count.
fn post_estimate_retry(
    addr: SocketAddr,
    body: &str,
    seed: u64,
    i: u64,
    retry_errors: bool,
) -> (Reply, u64) {
    let mut rng = Rng::new(seed ^ 0x00ba_0ff5 ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut retries = 0;
    loop {
        let reply = post_estimate(addr, body);
        let retry_after = match &reply {
            Ok((503, retry_after, _)) if retries < MAX_RETRIES => retry_after.unwrap_or(0),
            Err(_) if retry_errors && retries < MAX_RETRIES => 0,
            _ => return (reply, retries),
        };
        let base_ms = retry_after.saturating_mul(1000).max(50);
        let backoff = base_ms.saturating_mul(1 << retries).min(BACKOFF_CAP_MS);
        let jittered = backoff / 2 + rng.below(backoff.max(1));
        std::thread::sleep(Duration::from_millis(jittered));
        retries += 1;
    }
}

/// Pulls one sample's value out of a Prometheus text page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Outcome of one load phase.
struct Phase {
    /// Response-body hash per request index.
    hashes: Vec<u64>,
    /// Non-200 responses and transport errors, as messages.
    failures: Vec<String>,
    /// Backpressure retries performed across all requests.
    retries: u64,
    wall: Duration,
    mean_latency: Duration,
}

/// Fires `requests` deterministic requests from `clients` threads;
/// request `i` goes to thread `i % clients`. Each request honors
/// `Retry-After` via [`post_estimate_retry`].
fn run_phase(addr: SocketAddr, seed: u64, requests: u64, clients: u64) -> Phase {
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut i = c;
            while i < requests {
                let body = request_body(seed, i);
                let t0 = Instant::now();
                let (result, retries) = post_estimate_retry(addr, &body, seed, i, false);
                let latency = t0.elapsed();
                out.push((i, result, retries, latency));
                i += clients;
            }
            out
        }));
    }
    let mut hashes = vec![0u64; requests as usize];
    let mut failures = Vec::new();
    let mut retries = 0u64;
    let mut latency_total = Duration::ZERO;
    for handle in handles {
        for (i, result, request_retries, latency) in handle.join().expect("client thread") {
            latency_total += latency;
            retries += request_retries;
            match result {
                Ok((200, _, body)) => hashes[i as usize] = fnv1a(&body),
                Ok((status, _, body)) => failures.push(format!(
                    "request {i}: status {status}: {}",
                    String::from_utf8_lossy(&body[..body.len().min(200)])
                )),
                Err(e) => failures.push(format!("request {i}: {e}")),
            }
        }
    }
    Phase {
        hashes,
        failures,
        retries,
        wall: started.elapsed(),
        mean_latency: latency_total / u32::try_from(requests.max(1)).unwrap_or(1),
    }
}

struct Args {
    requests: u64,
    clients: u64,
    seed: u64,
    addr: Option<String>,
    /// Concurrent keep-alive connections of the high-concurrency phase.
    connections: u64,
    /// Run the cache-defeating unique-platform phase.
    cold_platforms: bool,
    /// Run the edit-to-estimate session phase.
    sessions: bool,
    /// Seed of the chaos phase; `None` skips it.
    chaos: Option<u64>,
    /// Scrape and gate the batched-kernel counters after the warm phase.
    batch_stats: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 24,
        clients: 4,
        seed: 0x5eed_cafe,
        addr: None,
        connections: 256,
        cold_platforms: false,
        sessions: false,
        chaos: None,
        batch_stats: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--requests" => args.requests = value("--requests").parse().expect("number"),
            "--clients" => args.clients = value("--clients").parse().expect("number"),
            "--seed" => {
                let v = value("--seed");
                let v = v.strip_prefix("0x").unwrap_or(&v);
                args.seed = u64::from_str_radix(v, 16).expect("hex seed");
            }
            "--addr" => args.addr = Some(value("--addr")),
            "--connections" => args.connections = value("--connections").parse().expect("number"),
            "--cold-platforms" => args.cold_platforms = true,
            "--sessions" => args.sessions = true,
            "--batch-stats" => args.batch_stats = true,
            "--chaos" => args.chaos = Some(value("--chaos").parse().expect("decimal seed")),
            // The shared --bench-json flag (and any following path) is
            // parsed by tlm_bench's own scan of the argument list.
            s if s == "--bench-json" || s.starts_with("--bench-json=") => {}
            other if other.starts_with('-') => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2)
            }
            _ => {}
        }
    }
    args
}

struct Gate {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// The `--cold-platforms` phase: fires [`cold_platform_body`] requests
/// (every one a novel schedule domain + novel source) from `clients`
/// threads and reports tail latency of the uncached path. Runs against
/// the warmed main server on purpose — hitting nothing in its caches is
/// exactly the property under test.
fn cold_platforms_phase(
    addr: SocketAddr,
    seed: u64,
    requests: u64,
    clients: u64,
    gates: &mut Vec<Gate>,
) -> Value {
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut i = c;
            while i < requests {
                let body = cold_platform_body(seed, i);
                let t0 = Instant::now();
                let (result, _) = post_estimate_retry(addr, &body, seed ^ 0x0c1d, i, false);
                out.push((i, result, t0.elapsed()));
                i += clients;
            }
            out
        }));
    }
    let mut failures = Vec::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests as usize);
    for handle in handles {
        for (i, result, latency) in handle.join().expect("cold-platform client") {
            latencies.push(latency);
            match result {
                Ok((200, _, _)) => {}
                Ok((status, _, body)) => failures.push(format!(
                    "request {i}: status {status}: {}",
                    String::from_utf8_lossy(&body[..body.len().min(200)])
                )),
                Err(e) => failures.push(format!("request {i}: {e}")),
            }
        }
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    let (p50, p99) = (percentile_ns(&latencies, 0.50), percentile_ns(&latencies, 0.99));
    gates.push(Gate {
        name: "cold_platforms_all_ok",
        pass: failures.is_empty(),
        detail: if failures.is_empty() {
            format!(
                "{requests} unique-platform requests in {:.2?}, p50 {:.2?}, p99 {:.2?}",
                wall,
                Duration::from_nanos(p50),
                Duration::from_nanos(p99)
            )
        } else {
            failures.join("; ")
        },
    });
    ObjectBuilder::new()
        .field("phase", "cold_platforms")
        .field("requests", requests)
        .field("wall_ns", wall.as_nanos() as u64)
        .field("throughput_rps", requests as f64 / wall.as_secs_f64().max(1e-9))
        .field("p50_latency_ns", p50)
        .field("p99_latency_ns", p99)
        .build()
}

/// `helper`-function bodies of the `--sessions` edit chain. The op-class
/// sets are pairwise distinct (`{*,+}`, `{<<}`, `{^,+,&}`, `{|,-}`), so
/// every variant is a fresh structural identity: each edit must
/// re-estimate `helper`, and no variant can answer from an earlier
/// variant's retained rows by structural-hash collision.
const HELPER_VARIANTS: [&str; 4] = ["x * 7 + 3", "x << 2", "(x ^ 5) + (x & 3)", "(x | 1) - x"];

/// The `--sessions` platform: one process, two functions. The edit chain
/// rewrites only `helper`; `main` must splice from retained rows.
fn session_source(helper_expr: &str) -> String {
    format!(
        "int helper(int x) {{ return {helper_expr}; }} \
         void main() {{ int acc = 0; \
         for (int i = 0; i < 6; i++) {{ acc = acc + helper(i); }} out(acc); }}"
    )
}

/// Per-edit pipeline/session counters scraped off `/metrics`, enough to
/// prove the incremental path engaged.
#[derive(Clone, Copy)]
struct SessionSnap {
    rows_misses: u64,
    annotated_misses: u64,
    report_misses: u64,
    dirty_functions: u64,
    clean_functions: u64,
}

/// The `--sessions` phase: create → edit chain → replay → close against
/// the warmed main server. Gates that the session layer re-estimated
/// exactly the dirty set — see the module docs for the ladder.
fn sessions_phase(addr: SocketAddr, gates: &mut Vec<Gate>) -> Value {
    const SWEEP_POINTS: u64 = 2;
    let edits = (HELPER_VARIANTS.len() - 1) as u64;

    let scrape = |label: &str| -> SessionSnap {
        let (status, _, body) = get(addr, "/metrics").expect("metrics reachable");
        assert_eq!(status, 200, "{label}: /metrics status");
        let page = String::from_utf8_lossy(&body);
        SessionSnap {
            rows_misses: metric(&page, "tlm_serve_pipeline_stage_misses_total{stage=\"rows\"}"),
            annotated_misses: metric(
                &page,
                "tlm_serve_pipeline_stage_misses_total{stage=\"annotated\"}",
            ),
            report_misses: metric(&page, "tlm_serve_pipeline_stage_misses_total{stage=\"report\"}"),
            dirty_functions: metric(&page, "tlm_serve_session_dirty_functions_total"),
            clean_functions: metric(&page, "tlm_serve_session_clean_functions_total"),
        }
    };
    let post = |target: &str, body: &str| -> Result<Value, String> {
        match post_json(addr, target, body) {
            Ok((200, _, bytes)) => std::str::from_utf8(&bytes)
                .map_err(|e| format!("{target}: utf8: {e}"))
                .and_then(|text| tlm_json::parse(text).map_err(|e| format!("{target}: {e}"))),
            Ok((status, _, bytes)) => Err(format!(
                "{target}: status {status}: {}",
                String::from_utf8_lossy(&bytes[..bytes.len().min(200)])
            )),
            Err(e) => Err(format!("{target}: {e}")),
        }
    };

    let mut failures: Vec<String> = Vec::new();
    let mut last_report = String::new();

    let create_body = format!(
        "{{\"platform\": {{\"name\": \"editor\", \
           \"pes\": [{{\"name\": \"cpu\", \"pum\": \"microblaze\"}}], \
           \"processes\": [{{\"name\": \"main\", \"pe\": \"cpu\", \"source\": \"{}\"}}]}}, \
         \"sweep\": [{{\"icache\": 2048, \"dcache\": 2048}}, \
                     {{\"icache\": 4096, \"dcache\": 4096}}]}}",
        session_source(HELPER_VARIANTS[0])
    );
    let before = scrape("sessions before create");
    let t0 = Instant::now();
    let id = match post("/session", &create_body) {
        Ok(v) => {
            last_report = v.get("report").map(Value::to_compact).unwrap_or_default();
            v.get("session").and_then(Value::as_u64).unwrap_or_else(|| {
                failures.push(format!("create: no session id in {}", v.to_compact()));
                0
            })
        }
        Err(e) => {
            failures.push(e);
            0
        }
    };
    let create_latency = t0.elapsed();
    let mid = scrape("sessions after create");

    let mut edit_latency_total = Duration::ZERO;
    if failures.is_empty() {
        for k in 0..edits as usize {
            let body = format!(
                "{{\"process\": \"main\", \"patch\": {{\"find\": \"{}\", \"replace\": \"{}\"}}}}",
                HELPER_VARIANTS[k],
                HELPER_VARIANTS[k + 1]
            );
            let t0 = Instant::now();
            match post(&format!("/session/{id}/edit"), &body) {
                Ok(v) => {
                    let count = |field: &str| {
                        v.get("edit").and_then(|e| e.get(field)).and_then(Value::as_u64)
                    };
                    if count("dirty_functions") != Some(1) || count("clean_functions") != Some(1) {
                        failures.push(format!(
                            "edit {k}: expected 1 dirty + 1 clean function, got {}",
                            v.get("edit").map(Value::to_compact).unwrap_or_default()
                        ));
                    }
                    last_report = v.get("report").map(Value::to_compact).unwrap_or_default();
                }
                Err(e) => failures.push(e),
            }
            edit_latency_total += t0.elapsed();
        }
    }
    let after = scrape("sessions after edits");

    // The replayed view must be bit-identical to the last edit's report,
    // and closing must actually close.
    if failures.is_empty() {
        match get(addr, &format!("/session/{id}")) {
            Ok((200, _, bytes)) => {
                let replay = tlm_json::parse(&String::from_utf8_lossy(&bytes))
                    .ok()
                    .and_then(|v| v.get("report").map(Value::to_compact))
                    .unwrap_or_default();
                if replay != last_report {
                    failures.push("replayed view diverges from the last edit's report".to_string());
                }
            }
            Ok((status, _, _)) => failures.push(format!("replay: status {status}")),
            Err(e) => failures.push(format!("replay: {e}")),
        }
        match delete(addr, &format!("/session/{id}")) {
            Ok((200, _, _)) => {}
            Ok((status, _, _)) => failures.push(format!("close: status {status}")),
            Err(e) => failures.push(format!("close: {e}")),
        }
        if get(addr, &format!("/session/{id}")).map(|(s, _, _)| s) != Ok(404) {
            failures.push("closed session still answers".to_string());
        }
    }

    gates.push(Gate {
        name: "sessions_all_ok",
        pass: failures.is_empty(),
        detail: if failures.is_empty() {
            format!(
                "create {create_latency:.2?}, {edits} edits (mean {:.2?}), replay + close ok",
                edit_latency_total / u32::try_from(edits.max(1)).unwrap_or(1)
            )
        } else {
            failures.join("; ")
        },
    });

    let rows_delta = after.rows_misses - mid.rows_misses;
    let dirty_delta = after.dirty_functions - mid.dirty_functions;
    let clean_delta = after.clean_functions - mid.clean_functions;
    let annotated_delta = after.annotated_misses - mid.annotated_misses;
    let report_delta = after.report_misses - mid.report_misses;
    let expected_rows = edits * SWEEP_POINTS;
    gates.push(Gate {
        name: "session_incremental_engaged",
        pass: failures.is_empty()
            && rows_delta == expected_rows
            && annotated_delta == 0
            && report_delta == 0
            && dirty_delta == edits
            && clean_delta == edits,
        detail: format!(
            "edits recomputed {rows_delta} row sets (expected {expected_rows} = \
             {edits} edits x {SWEEP_POINTS} sweep points), annotated +{annotated_delta}, \
             report +{report_delta}, {dirty_delta} dirty / {clean_delta} clean functions"
        ),
    });

    ObjectBuilder::new()
        .field("phase", "sessions")
        .field("edits", edits)
        .field("sweep_points", SWEEP_POINTS)
        .field("create_latency_ns", create_latency.as_nanos() as u64)
        .field(
            "mean_edit_latency_ns",
            (edit_latency_total / u32::try_from(edits.max(1)).unwrap_or(1)).as_nanos() as u64,
        )
        .field("create_rows_misses", mid.rows_misses - before.rows_misses)
        .field("edit_rows_misses", rows_delta)
        .field("dirty_functions", dirty_delta)
        .field("clean_functions", clean_delta)
        .build()
}

fn saturation_phase(gates: &mut Vec<Gate>) -> Value {
    // A deliberately tiny server: one worker, queue of two. A burst of
    // concurrent estimation connections must overflow the queue.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 2,
        limits: HttpLimits::default(),
        io_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        max_requests_per_conn: 16,
        max_connections: 1024,
        max_shard_inflight: 1024,
    };
    let queue_capacity = config.queue;
    let handle = Server::start(config, Service::new(queue_capacity)).expect("tiny server starts");
    let addr = handle.addr();
    // Prime the catalog so the burst measures queue behaviour, not the
    // one-time design build.
    let _ = post_estimate(addr, "{\"platform\": \"image:sw\", \"sweep\": [\"0k/0k\"]}");

    let burst = 24u64;
    let mut threads = Vec::new();
    for _ in 0..burst {
        threads.push(std::thread::spawn(move || {
            post_estimate(addr, "{\"platform\": \"image:sw\", \"sweep\": [\"2k/2k\"]}")
        }));
    }
    let mut ok = 0u64;
    let mut rejected = 0u64;
    let mut aborted = Vec::new();
    let mut retry_after_missing = 0u64;
    for t in threads {
        match t.join().expect("burst thread") {
            Ok((200, _, _)) => ok += 1,
            Ok((503, retry_after, _)) => {
                rejected += 1;
                if retry_after.is_none() {
                    retry_after_missing += 1;
                }
            }
            Ok((status, _, _)) => aborted.push(format!("unexpected status {status}")),
            Err(e) => aborted.push(e),
        }
    }
    // Backpressure must engage: a queue of two cannot absorb the burst.
    if rejected == 0 {
        retry_after_missing = 1;
    }

    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let queue_peak = metric(&page, "tlm_serve_queue_depth_peak");
    let healthy = get(addr, "/healthz").map(|(s, _, _)| s) == Ok(200);
    handle.shutdown();

    gates.push(Gate {
        name: "saturation_no_aborts",
        pass: aborted.is_empty(),
        detail: if aborted.is_empty() {
            format!("{burst} connections: {ok} ok, {rejected} rejected")
        } else {
            aborted.join("; ")
        },
    });
    gates.push(Gate {
        name: "saturation_backpressure_engaged",
        pass: rejected > 0 && retry_after_missing == 0,
        detail: format!("{rejected} connections answered 503"),
    });
    gates.push(Gate {
        name: "saturation_queue_bounded",
        pass: queue_peak <= queue_capacity as u64 + 1,
        detail: format!("queue peak {queue_peak}, capacity {queue_capacity}"),
    });
    gates.push(Gate {
        name: "saturation_survives",
        pass: healthy,
        detail: format!("healthz after burst: {healthy}"),
    });

    ObjectBuilder::new()
        .field("connections", burst)
        .field("ok", ok)
        .field("rejected", rejected)
        .field("queue_peak", queue_peak)
        .field("queue_capacity", queue_capacity)
        .build()
}

fn phase_value(name: &str, phase: &Phase, requests: u64) -> Value {
    ObjectBuilder::new()
        .field("phase", name)
        .field("requests", requests)
        .field("retries", phase.retries)
        .field("wall_ns", phase.wall.as_nanos() as u64)
        .field("mean_latency_ns", phase.mean_latency.as_nanos() as u64)
        .field("throughput_rps", requests as f64 / phase.wall.as_secs_f64().max(1e-9))
        .build()
}

/// One request on an already-open keep-alive connection: writes the
/// prepared request head + body, reads exactly one
/// `Content-Length`-framed response.
fn keep_alive_request(
    stream: &mut TcpStream,
    head: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-header".to_string()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("recv: {e}")),
        }
        if head.len() > 16 * 1024 {
            return Err("response header too large".to_string());
        }
    }
    let text = String::from_utf8_lossy(&head);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {text}"))?;
    let length: usize = text
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    Ok((status, body))
}

/// [`keep_alive_request`] for a bare GET.
#[cfg(feature = "faults")]
fn keep_alive_get(stream: &mut TcpStream, target: &str) -> Result<(u16, Vec<u8>), String> {
    keep_alive_request(stream, &format!("GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n"), b"")
}

/// The `p`-quantile of ascending `sorted` latencies, in nanoseconds
/// (nearest rank; `0` when empty).
fn percentile_ns(sorted: &[Duration], p: f64) -> u64 {
    let last = sorted.len().saturating_sub(1);
    sorted
        .get(((last as f64) * p).round() as usize)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// The first four failures joined for a gate detail, with a count of
/// the rest.
fn first_failures(failures: &[String]) -> String {
    let mut detail = failures[..failures.len().min(4)].join("; ");
    if failures.len() > 4 {
        detail.push_str(&format!("; ... {} more", failures.len() - 4));
    }
    detail
}

/// Outcome of one [`fleet`] run.
struct Fleet {
    wall: Duration,
    /// Per answered request, ascending.
    latencies: Vec<Duration>,
    /// Per answered request, the reply body hash, in request order.
    hashes: Vec<u64>,
    /// One entry per connection whose train broke off.
    failures: Vec<String>,
}

/// A keep-alive fleet: `connections` concurrent connections open at once
/// (a barrier holds every client thread until the whole fleet is
/// connected), then each fires a train of `per_conn` `POST /estimate`
/// requests down its one connection. Request `k` on connection `c` is
/// request `c * per_conn + k` and carries `body_for` of that index. A
/// transport error or a status other than `200` ends that connection's
/// train as a failure.
fn fleet(addr: SocketAddr, connections: u64, per_conn: u64, body_for: fn(u64) -> String) -> Fleet {
    let started = Instant::now();
    let barrier = Arc::new(Barrier::new(connections as usize));
    let mut threads = Vec::new();
    for c in 0..connections {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || -> Result<Vec<(Duration, u64)>, String> {
            let mut stream =
                TcpStream::connect(addr).map_err(|e| format!("conn {c}: connect: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(120)))
                .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(120))))
                .map_err(|e| format!("conn {c}: timeout setup: {e}"))?;
            // Everyone connects before anyone sends — the server must
            // see the whole fleet open at the same time.
            barrier.wait();
            let mut out = Vec::with_capacity(per_conn as usize);
            for k in 0..per_conn {
                let body = body_for(c * per_conn + k);
                let head = format!(
                    "POST /estimate HTTP/1.1\r\nHost: loadgen\r\n\
                     Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                let t0 = Instant::now();
                let (status, reply) = keep_alive_request(&mut stream, &head, body.as_bytes())
                    .map_err(|e| format!("conn {c} request {k}: {e}"))?;
                if status != 200 {
                    return Err(format!(
                        "conn {c} request {k}: status {status}: {}",
                        String::from_utf8_lossy(&reply[..reply.len().min(120)])
                    ));
                }
                out.push((t0.elapsed(), fnv1a(&reply)));
            }
            Ok(out)
        }));
    }
    let mut run = Fleet {
        wall: Duration::ZERO,
        latencies: Vec::new(),
        hashes: Vec::new(),
        failures: Vec::new(),
    };
    for t in threads {
        match t.join().expect("fleet thread") {
            Ok(rows) => {
                for (latency, hash) in rows {
                    run.latencies.push(latency);
                    run.hashes.push(hash);
                }
            }
            Err(e) => run.failures.push(e),
        }
    }
    run.wall = started.elapsed();
    run.latencies.sort_unstable();
    run
}

/// The `--connections` phase: a [`fleet`] of `connections` keep-alive
/// connections, each firing a short train of warm estimation requests.
/// Gates: every response is a `200` (the server is sized for the fleet,
/// so nothing may drop or shed), p99 latency stays bounded, and the
/// event loop's open-connection peak gauge proves the whole fleet really
/// was open at once.
fn connections_phase(connections: u64, gates: &mut Vec<Gate>) -> Value {
    const REQUESTS_PER_CONN: u64 = 4;
    const BODY: &str = "{\"platform\": \"image:sw\", \"sweep\": [\"0k/0k\"]}";
    const P99_BOUND: Duration = Duration::from_secs(5);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue: connections as usize,
        limits: HttpLimits::default(),
        io_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        max_requests_per_conn: 16,
        max_connections: connections as usize + 64,
        max_shard_inflight: 1024,
    };
    let queue = config.queue;
    let handle = Server::start(config, Service::new(queue)).expect("connections server starts");
    let addr = handle.addr();
    // Prime once: the fleet measures connection scaling, not the
    // one-time design build.
    let (status, _, reply) = post_estimate(addr, BODY).expect("prime request");
    assert_eq!(status, 200, "prime: {}", String::from_utf8_lossy(&reply));

    let run = fleet(addr, connections, REQUESTS_PER_CONN, |_| BODY.to_string());
    let (wall, ok) = (run.wall, run.latencies.len() as u64);
    let (p50, p99) = (percentile_ns(&run.latencies, 0.50), percentile_ns(&run.latencies, 0.99));

    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let peak = metric(&page, "tlm_serve_open_connections_peak");
    let wakeups = metric(&page, "tlm_serve_epoll_wakeups_total");
    handle.shutdown();

    let expected = connections * REQUESTS_PER_CONN;
    gates.push(Gate {
        name: "connections_all_ok",
        pass: run.failures.is_empty() && ok == expected,
        detail: if run.failures.is_empty() {
            format!(
                "{connections} concurrent connections x {REQUESTS_PER_CONN} requests, \
                 {ok}/{expected} answered 200 in {wall:.2?}"
            )
        } else {
            first_failures(&run.failures)
        },
    });
    gates.push(Gate {
        name: "connections_p99_bounded",
        pass: Duration::from_nanos(p99) < P99_BOUND,
        detail: format!(
            "p50 {:.2?}, p99 {:.2?} (bound {P99_BOUND:.2?})",
            Duration::from_nanos(p50),
            Duration::from_nanos(p99)
        ),
    });
    gates.push(Gate {
        name: "connections_peak_gauge",
        pass: peak >= connections,
        detail: format!("open-connection peak {peak}, fleet size {connections}"),
    });

    ObjectBuilder::new()
        .field("phase", "connections")
        .field("connections", connections)
        .field("requests_per_conn", REQUESTS_PER_CONN)
        .field("ok", ok)
        .field("wall_ns", wall.as_nanos() as u64)
        .field("throughput_rps", ok as f64 / wall.as_secs_f64().max(1e-9))
        .field("p50_latency_ns", p50)
        .field("p99_latency_ns", p99)
        .field("open_connections_peak", peak)
        .field("epoll_wakeups", wakeups)
        .build()
}

/// The sharded-tier differential phase: boots a front whose `/estimate`
/// and `/session*` traffic forwards to two freshly spawned shard
/// processes, fires the exact deterministic mix the single-process cold
/// phase already ran, and gates that the bytes are bit-identical to the
/// in-process reference, that the per-shard RPC counters actually moved
/// (the traffic really crossed the process boundary), and that a full
/// session lifecycle survives forwarding. Both tiers drain cleanly at
/// the end.
fn shard_phase(
    seed: u64,
    requests: u64,
    clients: u64,
    reference: &[u64],
    gates: &mut Vec<Gate>,
) -> Value {
    const SHARDS: usize = 2;
    let started = Instant::now();
    let router = match ShardRouter::spawn(&ShardConfig { shards: SHARDS, ..ShardConfig::default() })
    {
        Ok(router) => Arc::new(router),
        Err(e) => {
            gates.push(Gate {
                name: "shard_responses_bit_identical",
                pass: false,
                detail: format!("spawning {SHARDS} shard processes failed: {e}"),
            });
            return ObjectBuilder::new()
                .field("phase", "shards")
                .field("spawn_failed", true)
                .build();
        }
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let queue = config.queue;
    let service = Service::new(queue).with_router(Arc::clone(&router));
    let handle = Server::start(config, service).expect("shard front starts");
    let addr = handle.addr();

    let phase = run_phase(addr, seed, requests, clients);

    // A session lifecycle across the RPC boundary on *every* shard: the
    // front assigns session ids and routes them on the hash ring, so
    // consecutive creates spread over the tier. Run the full lifecycle
    // on the first session landing on each shard.
    let mut session_failures: Vec<String> = Vec::new();
    let mut covered = [false; SHARDS];
    {
        let mut step = |label: &str, reply: Reply, want: u16| -> Option<Vec<u8>> {
            match reply {
                Ok((status, _, bytes)) if status == want => Some(bytes),
                Ok((status, _, bytes)) => {
                    session_failures.push(format!(
                        "{label}: status {status} (want {want}): {}",
                        String::from_utf8_lossy(&bytes[..bytes.len().min(120)])
                    ));
                    None
                }
                Err(e) => {
                    session_failures.push(format!("{label}: {e}"));
                    None
                }
            }
        };
        let create_body = format!(
            "{{\"platform\": {{\"name\": \"editor\", \
               \"pes\": [{{\"name\": \"cpu\", \"pum\": \"microblaze\"}}], \
               \"processes\": [{{\"name\": \"main\", \"pe\": \"cpu\", \"source\": \"{}\"}}]}}, \
             \"sweep\": [{{\"icache\": 2048, \"dcache\": 2048}}]}}",
            session_source(HELPER_VARIANTS[0])
        );
        for _attempt in 0..16 {
            let Some(id) = step("create", post_json(addr, "/session", &create_body), 200)
                .and_then(|bytes| tlm_json::parse(&String::from_utf8_lossy(&bytes)).ok())
                .and_then(|v| v.get("session").and_then(Value::as_u64))
            else {
                break;
            };
            let shard = router.route_session(id);
            if covered[shard] {
                step(
                    &format!("close extra session {id}"),
                    delete(addr, &format!("/session/{id}")),
                    200,
                );
                continue;
            }
            covered[shard] = true;
            let edit_body = format!(
                "{{\"process\": \"main\", \"patch\": {{\"find\": \"{}\", \"replace\": \"{}\"}}}}",
                HELPER_VARIANTS[0], HELPER_VARIANTS[1]
            );
            let at = format!("session {id} on shard {shard}");
            step(
                &format!("edit {at}"),
                post_json(addr, &format!("/session/{id}/edit"), &edit_body),
                200,
            );
            step(&format!("view {at}"), get(addr, &format!("/session/{id}")), 200);
            step(&format!("close {at}"), delete(addr, &format!("/session/{id}")), 200);
            step(&format!("view after close {at}"), get(addr, &format!("/session/{id}")), 404);
            if covered.iter().all(|c| *c) {
                break;
            }
        }
    }
    for (shard, covered) in covered.iter().enumerate() {
        if !covered {
            session_failures.push(format!(
                "no front-assigned session id routed to shard {shard} in 16 creates"
            ));
        }
    }

    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let configured = metric(&page, "tlm_serve_shards_configured");
    let per_shard: Vec<u64> = (0..SHARDS)
        .map(|s| metric(&page, &format!("tlm_serve_shard_requests_total{{shard=\"{s}\"}}")))
        .collect();
    let rpc_errors = metric(&page, "tlm_serve_shard_rpc_errors_total");
    let forwarded: u64 = per_shard.iter().sum();

    handle.shutdown();
    router.shutdown();
    let wall = started.elapsed();

    let identical = phase.failures.is_empty() && phase.hashes == reference;
    gates.push(Gate {
        name: "shard_responses_bit_identical",
        pass: identical,
        detail: if identical {
            format!("all {requests} sharded responses match the single-process bytes")
        } else if phase.failures.is_empty() {
            let diverged = reference.iter().zip(&phase.hashes).filter(|(a, b)| a != b).count();
            format!("{diverged} responses diverged from the single-process reference")
        } else {
            phase.failures.join("; ")
        },
    });
    gates.push(Gate {
        name: "shard_counters_moved",
        pass: configured == SHARDS as u64
            && forwarded >= requests
            && per_shard[0] > 0
            && rpc_errors == 0,
        detail: format!(
            "{configured} shards configured, {forwarded} requests forwarded \
             (per shard: {per_shard:?}), {rpc_errors} rpc errors"
        ),
    });
    gates.push(Gate {
        name: "shard_sessions_forwarded",
        pass: session_failures.is_empty(),
        detail: if session_failures.is_empty() {
            format!("create/edit/view/close lifecycle completed on every one of {SHARDS} shards")
        } else {
            session_failures.join("; ")
        },
    });

    let mut shard_requests = ObjectBuilder::new();
    for (s, n) in per_shard.iter().enumerate() {
        shard_requests = shard_requests.field(&s.to_string(), *n);
    }
    ObjectBuilder::new()
        .field("phase", "shards")
        .field("shards", SHARDS as u64)
        .field("requests", requests)
        .field("retries", phase.retries)
        .field("wall_ns", wall.as_nanos() as u64)
        .field("mean_latency_ns", phase.mean_latency.as_nanos() as u64)
        .field("forwarded", forwarded)
        .field("shard_requests", shard_requests.build())
        .field("rpc_errors", rpc_errors)
        .build()
}

/// The multiplexed-RPC phase: a keep-alive [`fleet`] of
/// cache-defeating [`cold_platform_body`] requests fired at a two-shard
/// front, whose event loop forwards every request over one persistent
/// connection per shard carrying many id-tagged frames, with no worker
/// thread parked on a round trip. The same fleet first runs against a
/// plain in-process server for the reference bytes. Gates: every fleet
/// reply bit-identical to the in-process bytes for the same body, the
/// in-flight peak proving frames really ride a connection concurrently,
/// and bounded tail latency.
fn shards_mux_phase(connections: u64, gates: &mut Vec<Gate>) -> Value {
    const SHARDS: usize = 2;
    const REQUESTS_PER_CONN: u64 = 4;
    const P99_BOUND: Duration = Duration::from_secs(10);
    /// Seed of the fleet's unique cold platforms.
    const SEED: u64 = 0x0070_0a11;
    let body_for: fn(u64) -> String = |g| cold_platform_body(SEED, g);

    let expected = connections * REQUESTS_PER_CONN;
    let fail = |gates: &mut Vec<Gate>, detail: String| {
        gates.push(Gate { name: "shards_mux_bit_identical", pass: false, detail });
        ObjectBuilder::new().field("phase", "shards_mux").field("boot_failed", true).build()
    };
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: connections as usize,
        io_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        max_requests_per_conn: 16,
        max_connections: connections as usize + 64,
        ..ServerConfig::default()
    };
    let queue = connections as usize;

    // The in-process reference bytes, request by request. The bodies
    // are unique, so this is the true cold path there too.
    let handle = Server::start(config(), Service::new(queue)).expect("reference server starts");
    let reference = fleet(handle.addr(), connections, REQUESTS_PER_CONN, body_for);
    handle.shutdown();
    if !reference.failures.is_empty() {
        return fail(
            gates,
            format!(
                "in-process reference requests failed: {}",
                first_failures(&reference.failures)
            ),
        );
    }

    let router = match ShardRouter::spawn(&ShardConfig { shards: SHARDS, ..ShardConfig::default() })
    {
        Ok(router) => Arc::new(router),
        Err(e) => return fail(gates, format!("spawning {SHARDS} shard processes failed: {e}")),
    };
    let service = Service::new(queue).with_router(Arc::clone(&router));
    let handle = Server::start(config(), service).expect("shard front starts");
    let addr = handle.addr();
    let run = fleet(addr, connections, REQUESTS_PER_CONN, body_for);
    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let inflight_peak = (0..SHARDS)
        .map(|s| metric(&page, &format!("tlm_serve_shard_inflight_peak{{shard=\"{s}\"}}")))
        .max()
        .unwrap_or(0);
    handle.shutdown();
    router.shutdown();

    let rps = run.hashes.len() as f64 / run.wall.as_secs_f64().max(1e-9);
    let (p50, p99) = (percentile_ns(&run.latencies, 0.50), percentile_ns(&run.latencies, 0.99));
    let complete = run.hashes.len() as u64 == expected;
    let diverged = reference.hashes.iter().zip(&run.hashes).filter(|(a, b)| a != b).count();
    let identical = run.failures.is_empty() && complete && diverged == 0;
    gates.push(Gate {
        name: "shards_mux_bit_identical",
        pass: identical,
        detail: if identical {
            format!("all {expected} multiplexed fleet replies match the in-process bytes")
        } else if !run.failures.is_empty() {
            first_failures(&run.failures)
        } else if !complete {
            "the fleet dropped replies without reporting a failure".to_string()
        } else {
            format!("{diverged} fleet replies diverged from the in-process reference")
        },
    });
    gates.push(Gate {
        name: "shards_mux_pipelined",
        pass: inflight_peak > 1,
        detail: format!("per-connection in-flight peak {inflight_peak} (must exceed 1)"),
    });
    gates.push(Gate {
        name: "shards_mux_p99_bounded",
        pass: Duration::from_nanos(p99) < P99_BOUND,
        detail: format!(
            "multiplexed p50 {:.2?}, p99 {:.2?} (bound {P99_BOUND:.2?})",
            Duration::from_nanos(p50),
            Duration::from_nanos(p99)
        ),
    });

    ObjectBuilder::new()
        .field("phase", "shards_mux")
        .field("shards", SHARDS as u64)
        .field("connections", connections)
        .field("requests_per_conn", REQUESTS_PER_CONN)
        .field("mux_fleet_wall_ns", run.wall.as_nanos() as u64)
        .field("mux_fleet_throughput_rps", rps)
        .field("mux_fleet_p50_latency_ns", p50)
        .field("mux_fleet_p99_latency_ns", p99)
        .field("shard_inflight_peak", inflight_peak)
        .build()
}

/// Chaos phase: a byte-budgeted in-process server under the seeded
/// fault plan. Establishes a fault-free baseline, fires the same mix
/// with faults armed (panics, delays, short reads, allocator pressure,
/// transient stage failures), then gates the degradation ladder and
/// re-proves bit-identical determinism with the faults cleared.
#[cfg(feature = "faults")]
fn chaos_phase(gates: &mut Vec<Gate>, chaos_seed: u64, requests: u64, clients: u64) -> Value {
    use tlm_faults::Kind;

    // Small enough that the mix forces evictions, large enough that a
    // single artifact fits: the gate below checks both sides.
    const CACHE_BUDGET: u64 = 24 << 10;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 16,
        limits: HttpLimits::default(),
        io_timeout: Duration::from_secs(30),
        request_deadline: Duration::from_secs(30),
        max_requests_per_conn: 16,
        max_connections: 1024,
        ..ServerConfig::default()
    };
    let workers = config.workers as u64;
    let handle = Server::start(config, Service::with_cache_budget(16, CACHE_BUDGET))
        .expect("chaos server starts");
    let addr = handle.addr();

    // Prime every design before arming the plan: catalog builds report
    // errors as strings, so an injected fault during the one-time build
    // would surface as a (cached) 400 rather than a retryable 503.
    for design in DESIGNS {
        let body = format!("{{\"platform\": \"{design}\", \"sweep\": [\"0k/0k\"]}}");
        let (status, _, reply) = post_estimate(addr, &body).expect("prime request");
        assert_eq!(status, 200, "prime {design}: {}", String::from_utf8_lossy(&reply));
    }

    let mix_seed = chaos_seed ^ 0xc4a0_5eed;
    let baseline = run_phase(addr, mix_seed, requests, clients);

    // Arm the plan. The forced entry guarantees at least one worker
    // panic regardless of where the seeded draws land.
    tlm_faults::install(chaos_seed);
    tlm_faults::force("serve.worker.handle", Kind::Panic, 1);

    let mut count200 = 0u64;
    let mut count500 = 0u64;
    let mut count503 = 0u64;
    let mut unexpected = Vec::new();
    let mut cut = 0u64;
    let mut chaos_retries = 0u64;
    let chaos_started = Instant::now();
    for i in 0..requests {
        let body = request_body(mix_seed, i);
        let (result, retries) = post_estimate_retry(addr, &body, chaos_seed, i, true);
        chaos_retries += retries;
        match result {
            Ok((200, _, _)) => count200 += 1,
            Ok((500, _, _)) => count500 += 1,
            Ok((503, _, _)) => count503 += 1,
            Ok((status, _, _)) => unexpected.push(format!("request {i}: status {status}")),
            Err(_) => cut += 1,
        }
    }
    let chaos_wall = chaos_started.elapsed();

    // Injection accounting must be read before the plan is cleared.
    let injected_total = tlm_faults::injected_total();
    let short_reads = tlm_faults::injected("serve.parse", Kind::ShortRead);
    tlm_faults::clear();

    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let panics = metric(&page, "tlm_serve_worker_panics_total");
    let respawns = metric(&page, "tlm_serve_worker_respawns_total");
    let alive = metric(&page, "tlm_serve_workers_alive");
    let healthy = get(addr, "/healthz").map(|(s, _, _)| s) == Ok(200);
    let followup =
        post_estimate(addr, "{\"platform\": \"image:sw\", \"sweep\": [\"0k/0k\"]}").map(|r| r.0);

    // Determinism across evictions: the identical mix, faults cleared,
    // must reproduce the baseline bytes bit-for-bit even though the
    // byte budget evicted and recomputed artifacts throughout.
    let after = run_phase(addr, mix_seed, requests, clients);

    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let evictions = metric(&page, "tlm_serve_cache_evictions_total");
    let resident = metric(&page, "tlm_serve_cache_resident_bytes");

    gates.push(Gate {
        name: "chaos_no_unexpected_failures",
        pass: unexpected.is_empty() && cut <= short_reads,
        detail: if unexpected.is_empty() {
            format!(
                "{count200} ok, {count500} x 500, {count503} x 503, {cut} cut \
                 (<= {short_reads} injected short reads), {chaos_retries} retries"
            )
        } else {
            unexpected.join("; ")
        },
    });
    gates.push(Gate {
        name: "chaos_panic_isolated",
        pass: panics >= 1 && respawns == panics && count500 == panics,
        detail: format!("{panics} worker panics, {respawns} respawns, {count500} x 500"),
    });
    gates.push(Gate {
        name: "chaos_workers_recover",
        pass: alive == workers && healthy && followup == Ok(200),
        detail: format!(
            "{alive}/{workers} workers alive, healthz {healthy}, follow-up {followup:?}"
        ),
    });
    gates.push(Gate {
        name: "chaos_cache_bounded",
        pass: evictions > 0 && resident <= CACHE_BUDGET + 4096,
        detail: format!("{evictions} evictions, {resident} resident bytes (budget {CACHE_BUDGET})"),
    });
    let determinism = after.hashes == baseline.hashes && after.failures.is_empty();
    gates.push(Gate {
        name: "chaos_determinism_unchanged",
        pass: determinism,
        detail: if determinism {
            "post-chaos mix reproduces the baseline bytes across evictions".to_string()
        } else {
            let diverged =
                baseline.hashes.iter().zip(&after.hashes).filter(|(a, b)| a != b).count();
            format!("{diverged} responses diverged; failures: {}", after.failures.join("; "))
        },
    });

    // The shard rung of the ladder: the same chaos contract must hold
    // across the RPC boundary, so rerun the short-read drill against a
    // two-shard front before the drain-ordering check below.
    let shard_rpc = chaos_shard_rung(gates);

    // Drain ordering: pin both workers with keep-alive connections, ask
    // for shutdown, and observe /readyz flip to 503 while /healthz on
    // the other pinned connection still answers 200.
    let mut conn_a = TcpStream::connect(addr).expect("drain conn a");
    let mut conn_b = TcpStream::connect(addr).expect("drain conn b");
    for conn in [&mut conn_a, &mut conn_b] {
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("drain timeout");
    }
    let pin_a = keep_alive_get(&mut conn_a, "/healthz").map(|(s, _)| s);
    let pin_b = keep_alive_get(&mut conn_b, "/healthz").map(|(s, _)| s);
    handle.request_shutdown();
    let ready_draining = keep_alive_get(&mut conn_a, "/readyz").map(|(s, _)| s);
    let health_draining = keep_alive_get(&mut conn_b, "/healthz").map(|(s, _)| s);
    drop(conn_a);
    drop(conn_b);
    let drain_ok = pin_a == Ok(200)
        && pin_b == Ok(200)
        && ready_draining == Ok(503)
        && health_draining == Ok(200);
    gates.push(Gate {
        name: "chaos_drain_readyz",
        pass: drain_ok,
        detail: format!(
            "pinned {pin_a:?}/{pin_b:?}, draining readyz {ready_draining:?}, \
             draining healthz {health_draining:?}"
        ),
    });
    handle.shutdown();

    ObjectBuilder::new()
        .field("seed", chaos_seed)
        .field("requests", requests)
        .field("wall_ns", chaos_wall.as_nanos() as u64)
        .field("ok", count200)
        .field("internal_errors", count500)
        .field("rejected", count503)
        .field("cut_connections", cut)
        .field("retries", chaos_retries)
        .field("faults_injected", injected_total)
        .field("short_reads_injected", short_reads)
        .field("worker_panics", panics)
        .field("worker_respawns", respawns)
        .field("cache_evictions", evictions)
        .field("cache_resident_bytes", resident)
        .field("cache_budget_bytes", CACHE_BUDGET)
        .field("shard_rpc", shard_rpc)
        .build()
}

/// The `--chaos` ladder's shard rung: a two-shard front under forced
/// short reads on both sides of the RPC frame. The multiplexed
/// connection has no retry, so one forced short read must answer `503`
/// with `Retry-After` (never hang, never 500) and the next forward must
/// reconnect; the front workers must stay alive, and — faults cleared —
/// the same requests must reproduce their pre-chaos bytes through the
/// shards.
#[cfg(feature = "faults")]
fn chaos_shard_rung(gates: &mut Vec<Gate>) -> Value {
    use tlm_faults::Kind;

    const SHARDS: usize = 2;
    const PROBES: u64 = 4;
    let fail = |gates: &mut Vec<Gate>, detail: String| {
        gates.push(Gate { name: "chaos_shard_rpc_503_retry_after", pass: false, detail });
        ObjectBuilder::new().field("phase", "chaos_shards").field("boot_failed", true).build()
    };
    let router = match ShardRouter::spawn(&ShardConfig { shards: SHARDS, ..ShardConfig::default() })
    {
        Ok(router) => Arc::new(router),
        Err(e) => return fail(gates, format!("spawning {SHARDS} shard processes failed: {e}")),
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let workers = config.workers as u64;
    let queue = config.queue;
    let handle = match Server::start(config, Service::new(queue).with_router(Arc::clone(&router))) {
        Ok(handle) => handle,
        Err(e) => {
            router.shutdown();
            return fail(gates, format!("shard front failed to start: {e}"));
        }
    };
    let addr = handle.addr();

    // Reference bytes through the healthy multiplexed RPC path (this
    // also opens the persistent connection to each shard the mix
    // routes to).
    let bodies: Vec<String> = (0..PROBES).map(|i| request_body(0xcafe_f00d, i)).collect();
    let mut reference = Vec::new();
    let mut reference_failures = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        match post_estimate(addr, body) {
            Ok((200, _, bytes)) => reference.push(fnv1a(&bytes)),
            other => reference_failures.push(format!("reference {i}: {other:?}")),
        }
    }

    // One probe per RPC fault site. The multiplexed path has no retry:
    // a single cut frame kills the shard connection, fails every
    // in-flight id as a retryable 503, and the *next* forward
    // reconnects lazily — so one forced short read must settle the
    // probe as 503 + Retry-After, and the follow-up proves recovery.
    let mut probe_results = Vec::new();
    for site in ["serve.rpc.send", "serve.rpc.recv"] {
        tlm_faults::force(site, Kind::ShortRead, 1);
        let probe = post_estimate(addr, &bodies[0]);
        tlm_faults::clear();
        let recovered = post_estimate(addr, &bodies[0]).map(|(s, _, _)| s);
        let ok = matches!(probe, Ok((503, Some(_), _))) && recovered == Ok(200);
        probe_results.push((
            site,
            ok,
            format!("probe {:?}, recovered {recovered:?}", probe.map(|(s, r, _)| (s, r))),
        ));
    }
    let rpc_503 = probe_results.iter().all(|&(_, ok, _)| ok);
    gates.push(Gate {
        name: "chaos_shard_rpc_503_retry_after",
        pass: rpc_503 && reference_failures.is_empty(),
        detail: if rpc_503 && reference_failures.is_empty() {
            "a cut frame on serve.rpc.send/recv fails the in-flight request as 503 + \
             Retry-After and the next forward reconnects"
                .to_string()
        } else {
            probe_results
                .iter()
                .map(|(site, _, detail)| format!("{site}: {detail}"))
                .chain(reference_failures.iter().cloned())
                .collect::<Vec<_>>()
                .join("; ")
        },
    });

    // Front recovery: alive workers, health, a working follow-up, and
    // the error counter proving the probes crossed the real RPC path.
    let page = get(addr, "/metrics")
        .map(|(_, _, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let alive = metric(&page, "tlm_serve_workers_alive");
    let rpc_errors = metric(&page, "tlm_serve_shard_rpc_errors_total");
    let healthy = get(addr, "/healthz").map(|(s, _, _)| s) == Ok(200);
    gates.push(Gate {
        name: "chaos_shard_workers_recover",
        pass: alive == workers && healthy && rpc_errors >= 2,
        detail: format!(
            "{alive}/{workers} front workers alive, healthz {healthy}, \
             {rpc_errors} rpc errors counted"
        ),
    });

    // Faults cleared, the identical requests must reproduce the
    // reference bytes bit-for-bit through the shard processes.
    let mut diverged = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        match post_estimate(addr, body) {
            Ok((200, _, bytes)) if reference.get(i) == Some(&fnv1a(&bytes)) => {}
            other => diverged.push(format!("request {i}: {:?}", other.map(|(s, r, _)| (s, r)))),
        }
    }
    gates.push(Gate {
        name: "chaos_shard_post_identical",
        pass: diverged.is_empty() && reference.len() == bodies.len(),
        detail: if diverged.is_empty() && reference.len() == bodies.len() {
            format!("all {PROBES} post-chaos responses match the pre-chaos bytes")
        } else {
            diverged.join("; ")
        },
    });

    handle.shutdown();
    router.shutdown();
    ObjectBuilder::new()
        .field("phase", "chaos_shards")
        .field("shards", SHARDS as u64)
        .field("probes", PROBES)
        .field("rpc_errors", rpc_errors)
        .build()
}

#[cfg(not(feature = "faults"))]
fn chaos_phase(_gates: &mut Vec<Gate>, _chaos_seed: u64, _requests: u64, _clients: u64) -> Value {
    eprintln!("--chaos requires building with `--features faults`");
    std::process::exit(2)
}

fn main() -> ExitCode {
    // Shard processes re-exec the running binary with `--shard-worker`;
    // dispatch before normal argument parsing (which rejects the flag).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--shard-worker") {
        let code = tlm_serve::shard::shard_worker_entry(&argv[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }

    let args = parse_args();
    let mut gates: Vec<Gate> = Vec::new();

    // Target server: external (--addr) or in-process on an ephemeral
    // port.
    let mut local: Option<ServerHandle> = None;
    let addr: SocketAddr = match &args.addr {
        Some(a) => a.parse().expect("--addr is HOST:PORT"),
        None => {
            let config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                io_timeout: Duration::from_secs(120),
                ..ServerConfig::default()
            };
            let queue = config.queue;
            let handle = Server::start(config, Service::new(queue)).expect("server starts");
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };
    println!(
        "loadgen: {} requests x {} clients, seed {:#x}, target http://{addr}",
        args.requests, args.clients, args.seed
    );

    let snapshot = |label: &str| -> StageSnap {
        let (status, _, body) = get(addr, "/metrics").expect("metrics reachable");
        assert_eq!(status, 200, "{label}: /metrics status");
        let page = String::from_utf8_lossy(&body);
        let mut snap = StageSnap::default();
        for (i, stage) in STAGES.iter().enumerate() {
            snap.hits[i] =
                metric(&page, &format!("tlm_serve_pipeline_stage_hits_total{{stage=\"{stage}\"}}"));
            snap.misses[i] = metric(
                &page,
                &format!("tlm_serve_pipeline_stage_misses_total{{stage=\"{stage}\"}}"),
            );
        }
        snap
    };

    let s0 = snapshot("initial");
    let cold = run_phase(addr, args.seed, args.requests, args.clients);
    let s1 = snapshot("after cold");
    let warm = run_phase(addr, args.seed, args.requests, args.clients);
    let s2 = snapshot("after warm");

    for (phase, name) in [(&cold, "cold"), (&warm, "warm")] {
        gates.push(Gate {
            name: if name == "cold" { "cold_all_ok" } else { "warm_all_ok" },
            pass: phase.failures.is_empty(),
            detail: if phase.failures.is_empty() {
                format!("{} requests in {:.2?}", args.requests, phase.wall)
            } else {
                phase.failures.join("; ")
            },
        });
    }
    let identical = cold.hashes == warm.hashes;
    gates.push(Gate {
        name: "warm_responses_bit_identical",
        pass: identical,
        detail: if identical {
            "every warm body matches its cold twin".to_string()
        } else {
            let diverged = cold.hashes.iter().zip(&warm.hashes).filter(|(a, b)| a != b).count();
            format!("{diverged} responses diverged")
        },
    });

    // Warm phase 1: nothing recomputes. The report stage short-circuits
    // the whole graph on a hit, so a fully warm phase must add zero
    // misses to *every* stage — upstream stages are never even consulted.
    let recomputed: Vec<String> = STAGES
        .iter()
        .enumerate()
        .filter(|&(i, _)| s2.misses[i] > s1.misses[i])
        .map(|(i, stage)| format!("{stage} +{}", s2.misses[i] - s1.misses[i]))
        .collect();
    gates.push(Gate {
        name: "warm_no_stage_recompute",
        pass: recomputed.is_empty(),
        detail: if recomputed.is_empty() {
            "zero warm misses across all pipeline stages".to_string()
        } else {
            format!("warm misses: {}", recomputed.join(", "))
        },
    });

    // Warm phase 2: every stage that *is* consulted answers from memory.
    // Stages with zero warm lookups (short-circuited away) pass
    // vacuously; with a fully warmed store only the report stage should
    // see traffic, and all of it should hit.
    let mut stage_details = Vec::new();
    let mut stage_rates_ok = true;
    for (i, stage) in STAGES.iter().enumerate() {
        let hits = s2.hits[i] - s1.hits[i];
        let lookups = hits + (s2.misses[i] - s1.misses[i]);
        if lookups == 0 {
            continue;
        }
        let rate = hits as f64 / lookups as f64;
        stage_rates_ok &= rate >= 0.9;
        stage_details.push(format!("{stage} {:.1}% ({hits}/{lookups})", rate * 100.0));
    }
    gates.push(Gate {
        name: "warm_stage_hit_rates",
        pass: stage_rates_ok,
        detail: if stage_details.is_empty() {
            "no stage saw warm lookups".to_string()
        } else {
            stage_details.join(", ")
        },
    });

    // `--batch-stats`: after a cold+warm cycle the batched scheduler must
    // have folded duplicate shapes (the built-in designs repeat small
    // blocks heavily) and run the surviving representative solves.
    let batch_counters = args.batch_stats.then(|| {
        let (status, _, body) = get(addr, "/metrics").expect("metrics reachable");
        assert_eq!(status, 200, "batch-stats: /metrics status");
        let page = String::from_utf8_lossy(&body);
        let dedup = metric(&page, "tlm_serve_kernel_batch_dedup_hits");
        let solves = metric(&page, "tlm_serve_kernel_batch_unique_solves");
        gates.push(Gate {
            name: "batch_dedup_engaged",
            pass: dedup > 0 && solves > 0,
            detail: format!("{dedup} dedup hits, {solves} unique solves"),
        });
        (dedup, solves)
    });

    let phase_rate = |before: &StageSnap, after: &StageSnap| -> f64 {
        let hits: u64 = (0..STAGES.len()).map(|i| after.hits[i] - before.hits[i]).sum();
        let misses: u64 = (0..STAGES.len()).map(|i| after.misses[i] - before.misses[i]).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let cold_hit_rate = phase_rate(&s0, &s1);
    let warm_hit_rate = phase_rate(&s1, &s2);

    // Cache-defeating mix *after* the warm snapshots (its misses must
    // not pollute the warm-phase cache gates) and *before* the main
    // server goes away.
    let cold_platforms = args
        .cold_platforms
        .then(|| cold_platforms_phase(addr, args.seed, args.requests, args.clients, &mut gates));

    // Session edit-loop, also after the warm snapshots: its front-end
    // and rows misses are intentional and must not count against the
    // warm gates.
    let sessions = args.sessions.then(|| sessions_phase(addr, &mut gates));

    let saturation = saturation_phase(&mut gates);
    let connections = connections_phase(args.connections, &mut gates);
    let shards = shard_phase(args.seed, args.requests, args.clients, &cold.hashes, &mut gates);
    let shards_mux = shards_mux_phase(args.connections, &mut gates);
    if let Some(handle) = local {
        handle.shutdown();
    }

    let chaos = args
        .chaos
        .map(|chaos_seed| chaos_phase(&mut gates, chaos_seed, args.requests, args.clients));

    let mut failed = false;
    for gate in &gates {
        let verdict = if gate.pass { "PASS" } else { "FAIL" };
        println!("gate {verdict} {}: {}", gate.name, gate.detail);
        failed |= !gate.pass;
    }

    if let Some(path) = tlm_bench::perf::bench_json_path() {
        let mut gate_obj = ObjectBuilder::new();
        for gate in &gates {
            gate_obj = gate_obj.field(gate.name, gate.pass);
        }
        let mut record = ObjectBuilder::new()
            .field("bench", "serve")
            .field("seed", format!("{:#x}", args.seed))
            .field("requests", args.requests)
            .field("clients", args.clients)
            .field("cold", phase_value("cold", &cold, args.requests))
            .field("warm", phase_value("warm", &warm, args.requests))
            .field(
                "cache",
                ObjectBuilder::new()
                    .field("cold_hit_rate", cold_hit_rate)
                    .field("warm_hit_rate", warm_hit_rate)
                    .field("stages", {
                        let mut stages_obj = ObjectBuilder::new();
                        for (i, stage) in STAGES.iter().enumerate() {
                            stages_obj = stages_obj.field(
                                stage,
                                ObjectBuilder::new()
                                    .field("cold_hits", s1.hits[i] - s0.hits[i])
                                    .field("cold_misses", s1.misses[i] - s0.misses[i])
                                    .field("warm_hits", s2.hits[i] - s1.hits[i])
                                    .field("warm_misses", s2.misses[i] - s1.misses[i])
                                    .build(),
                            );
                        }
                        stages_obj.build()
                    })
                    .build(),
            )
            .field("saturation", saturation)
            .field("connections", connections)
            .field("shards", shards)
            .field("shards_mux", shards_mux);
        if let Some(cold_platforms) = cold_platforms {
            record = record.field("cold_platforms", cold_platforms);
        }
        if let Some(sessions) = sessions {
            record = record.field("sessions", sessions);
        }
        if let Some((dedup, solves)) = batch_counters {
            record = record.field(
                "batch",
                ObjectBuilder::new()
                    .field("dedup_hits", dedup)
                    .field("unique_solves", solves)
                    .build(),
            );
        }
        if let Some(chaos) = chaos {
            record = record.field("chaos", chaos);
        }
        let record = record.field("gates", gate_obj.build()).build();
        tlm_bench::perf::write_bench_json(&path, &record);
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
