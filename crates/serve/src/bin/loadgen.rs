//! `loadgen` — fixed-seed load generator, benchmark and gate for
//! `tlm-serve`.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--bench-json[=PATH]]
//! ```
//!
//! Runs four phases in order and enforces the serving-layer guarantees
//! as hard gates (non-zero exit on any violation):
//!
//! 1. **cache** — a deterministic xorshift-driven mix of estimation
//!    requests over the built-in MP3 and image-pipeline designs, spread
//!    across concurrent client threads, fired cold and then warm. Gates:
//!    every request answers `200`; every warm body is bit-identical to
//!    its cold twin (determinism under concurrency); no pipeline stage
//!    recomputes anything warm (the report stage short-circuits the
//!    whole graph, so warm misses must be zero across every stage); and
//!    every stage that sees warm lookups hits ≥ 90 % of them.
//! 2. **cold_platforms** — a cache-defeating mix where every request
//!    carries a fully inline custom platform whose PUM has a uniquely
//!    renamed (and re-delayed) FU mode and whose MiniC source embeds the
//!    request index, so no artifact-pipeline stage can answer from a
//!    previous request. Measures the true cold path (front end +
//!    Algorithm 1 kernel) under concurrency. Gate: every request answers
//!    `200`.
//! 3. **saturation** — a burst of concurrent connections against a
//!    deliberately tiny server (1 worker, queue of 2). Gates: every
//!    connection receives a well-formed `200` or `503 Retry-After`, at
//!    least one `503` is observed, the queue-depth peak stays within
//!    capacity + 1, and the server still answers `/healthz` afterwards.
//! 4. **connections** — 256 keep-alive connections held open at once,
//!    each firing a short train of warm requests. Gates: all `200`,
//!    bounded p99, and the open-connection peak gauge saw the fleet.
//!
//! The client honors backpressure: a `503` is retried after the
//! server's `Retry-After`, with capped exponential backoff and seeded
//! jitter; retry counts land in the benchmark record.
//!
//! With `--bench-json` the measured throughput/latency and the gate
//! verdicts are written as a machine-readable record (a bare
//! `--bench-json` selects `BENCH_serve.json`). Phases 1 and 2 run
//! against `--addr` when given, else against an in-process server on an
//! ephemeral port; phases 3 and 4 always boot their own in-process
//! servers.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tlm_core::fingerprint::fnv1a_64;
use tlm_json::{ObjectBuilder, Value};
use tlm_serve::client::{self, Reply};
use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig};

/// Requests per mix.
const REQUESTS: u64 = 24;
/// Client threads the mix is spread over.
const CLIENTS: u64 = 4;
/// Seed of the request mix.
const SEED: u64 = 0x5eed_cafe;
/// Keep-alive connections of the connection fleet.
const CONNECTIONS: u64 = 256;
/// Requests each fleet connection fires.
const REQUESTS_PER_CONN: u64 = 4;

/// Deterministic xorshift64* generator — the fixed-seed client mix must
/// reproduce bit-identically across runs and machines.
struct Rng(u64);

impl Rng {
    /// The generator for request `i` of a mix seeded with `seed`: a
    /// fresh stream per request keeps the mix independent of client
    /// thread assignment.
    fn for_request(seed: u64, i: u64) -> Rng {
        Rng((seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)).max(1))
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

/// The i-th request body of the mix for `seed`.
fn request_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::for_request(seed, i);
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

/// The i-th request of the cold-platform mix: an inline platform whose
/// PUM carries a uniquely renamed, freshly drawn FU-mode delay and whose
/// source embeds the request index. The mode rename alone guarantees a
/// never-seen schedule-domain fingerprint (mode names are part of
/// [`tlm_core::Pum::schedule_domain`]); the per-request source defeats
/// the front-end stages the same way.
fn cold_platform_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::for_request(seed ^ 0x0c1d_0c1d, i);
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

/// `Ok(body)` when `reply` has status `want`, else a failure message
/// naming `what`.
fn expect_status(what: &str, reply: Result<Reply, String>, want: u16) -> Result<Vec<u8>, String> {
    match reply {
        Ok((status, _, body)) if status == want => Ok(body),
        Ok((status, _, body)) => Err(format!(
            "{what}: status {status} (want {want}): {}",
            String::from_utf8_lossy(&body[..body.len().min(160)])
        )),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// A sample off a `/metrics` page; `0` when it is missing.
fn count(page: &str, name: &str) -> u64 {
    client::metric(page, name).unwrap_or(0)
}

/// Longest single backoff sleep; the exponential curve is clipped here.
const BACKOFF_CAP_MS: u64 = 2_000;
/// Retries per request before the `503` is final.
const MAX_RETRIES: u64 = 4;

/// `POST /estimate` with backpressure honored: a `503` is retried after
/// the server's `Retry-After` (seconds), doubled per attempt, capped at
/// [`BACKOFF_CAP_MS`], and jittered to 0.5–1.5× by the seeded generator
/// so synchronized clients fan out instead of re-colliding. Returns the
/// final reply and the retry count.
fn post_estimate_retry(
    addr: SocketAddr,
    body: &str,
    seed: u64,
    i: u64,
) -> (Result<Reply, String>, u64) {
    let mut rng = Rng::for_request(seed ^ 0x00ba_0ff5, i);
    let mut retries = 0;
    loop {
        let reply = client::request(addr, "POST /estimate", body);
        let retry_after = match &reply {
            Ok((503, retry_after, _)) if retries < MAX_RETRIES => retry_after.unwrap_or(0),
            _ => return (reply, retries),
        };
        let base_ms = retry_after.saturating_mul(1000).max(50);
        let backoff = base_ms.saturating_mul(1 << retries).min(BACKOFF_CAP_MS);
        let jittered = backoff / 2 + rng.below(backoff.max(1));
        std::thread::sleep(Duration::from_millis(jittered));
        retries += 1;
    }
}

/// Outcome of one [`fan_out`] mix.
struct Phase {
    /// Response-body hash per request index (`0` for a failure).
    hashes: Vec<u64>,
    /// Non-200 responses and transport errors, as messages.
    failures: Vec<String>,
    /// Backpressure retries performed across all requests.
    retries: u64,
    wall: Duration,
    /// Per request, ascending.
    latencies: Vec<Duration>,
}

/// Fires requests `0..REQUESTS` with bodies `body_for(seed, i)` from
/// [`CLIENTS`] threads (request `i` on thread `i % CLIENTS`), each
/// honoring `Retry-After` via [`post_estimate_retry`].
fn fan_out(addr: SocketAddr, seed: u64, body_for: fn(u64, u64) -> String) -> Phase {
    let started = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                (c..REQUESTS)
                    .step_by(CLIENTS as usize)
                    .map(|i| {
                        let t0 = Instant::now();
                        let (reply, retries) =
                            post_estimate_retry(addr, &body_for(seed, i), seed, i);
                        let outcome = expect_status(&format!("request {i}"), reply, 200);
                        (i, outcome, retries, t0.elapsed())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut phase = Phase {
        hashes: vec![0; REQUESTS as usize],
        failures: Vec::new(),
        retries: 0,
        wall: Duration::ZERO,
        latencies: Vec::new(),
    };
    for thread in threads {
        for (i, outcome, retries, latency) in thread.join().expect("client thread") {
            phase.latencies.push(latency);
            phase.retries += retries;
            match outcome {
                Ok(body) => phase.hashes[i as usize] = fnv1a_64(&body),
                Err(e) => phase.failures.push(e),
            }
        }
    }
    phase.wall = started.elapsed();
    phase.latencies.sort_unstable();
    phase
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

/// Wall time, throughput and latency quantiles of `n` requests.
fn timing(n: u64, wall: Duration, sorted: &[Duration]) -> ObjectBuilder {
    ObjectBuilder::new()
        .field("requests", n)
        .field("wall_ns", wall.as_nanos() as u64)
        .field("throughput_rps", n as f64 / wall.as_secs_f64().max(1e-9))
        .field("p50_latency_ns", percentile_ns(sorted, 0.50))
        .field("p99_latency_ns", percentile_ns(sorted, 0.99))
}

fn phase_value(phase: &Phase) -> Value {
    timing(REQUESTS, phase.wall, &phase.latencies).field("retries", phase.retries).build()
}

/// An ephemeral-port server config; timeouts are generous so only the
/// phase's own load decides what happens.
fn config(workers: usize, queue: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue,
        io_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        max_requests_per_conn: 16,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> tlm_serve::ServerHandle {
    let queue = config.queue;
    Server::start(config, Service::new(queue)).expect("server starts")
}

struct Gate {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// State the phases share: the target of the cache and cold-platform
/// phases, and the gates so far.
struct Run {
    addr: SocketAddr,
    gates: Vec<Gate>,
}

impl Run {
    fn gate(&mut self, name: &'static str, pass: bool, detail: String) {
        self.gates.push(Gate { name, pass, detail });
    }
}

/// Per-stage pipeline counters off one `/metrics` page, indexed like
/// [`STAGES`]: `(hits, misses)`.
fn stage_counters(addr: SocketAddr) -> Vec<(u64, u64)> {
    let page = client::scrape(addr);
    assert!(!page.is_empty(), "/metrics unreachable at {addr}");
    STAGES
        .iter()
        .map(|stage| {
            let family = |f: &str| {
                count(&page, &format!("tlm_serve_pipeline_stage_{f}_total{{stage=\"{stage}\"}}"))
            };
            (family("hits"), family("misses"))
        })
        .collect()
}

/// The hit rate over every stage between two [`stage_counters`] reads.
fn hit_rate(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let (hits, misses) =
        before.iter().zip(after).fold((0, 0), |(h, m), (b, a)| (h + a.0 - b.0, m + a.1 - b.1));
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Phase 1: the seeded mix cold, then the identical mix warm.
fn cache_phase(run: &mut Run) -> Value {
    let s0 = stage_counters(run.addr);
    let cold = fan_out(run.addr, SEED, request_body);
    let s1 = stage_counters(run.addr);
    let warm = fan_out(run.addr, SEED, request_body);
    let s2 = stage_counters(run.addr);

    for (phase, name) in [(&cold, "cold_all_ok"), (&warm, "warm_all_ok")] {
        let detail = if phase.failures.is_empty() {
            format!("{REQUESTS} requests in {:.2?}", phase.wall)
        } else {
            first_failures(&phase.failures)
        };
        run.gate(name, phase.failures.is_empty(), detail);
    }
    let diverged = cold.hashes.iter().zip(&warm.hashes).filter(|(a, b)| a != b).count();
    run.gate(
        "warm_responses_bit_identical",
        diverged == 0,
        if diverged == 0 {
            "every warm body matches its cold twin".to_string()
        } else {
            format!("{diverged} responses diverged")
        },
    );

    // Nothing recomputes warm. The report stage short-circuits the whole
    // graph on a hit, so a fully warm phase must add zero misses to
    // *every* stage — upstream stages are never even consulted.
    let recomputed: Vec<String> = STAGES
        .iter()
        .zip(s1.iter().zip(&s2))
        .filter(|(_, (a, b))| b.1 > a.1)
        .map(|(stage, (a, b))| format!("{stage} +{}", b.1 - a.1))
        .collect();
    run.gate(
        "warm_no_stage_recompute",
        recomputed.is_empty(),
        if recomputed.is_empty() {
            "zero warm misses across all pipeline stages".to_string()
        } else {
            format!("warm misses: {}", recomputed.join(", "))
        },
    );

    // Every stage that *is* consulted warm answers from memory. Stages
    // with zero warm lookups (short-circuited away) pass vacuously.
    let mut rates_ok = true;
    let mut details = Vec::new();
    let mut stages = ObjectBuilder::new();
    for (i, stage) in STAGES.iter().enumerate() {
        let (hits, misses) = (s2[i].0 - s1[i].0, s2[i].1 - s1[i].1);
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            rates_ok &= rate >= 0.9;
            details.push(format!("{stage} {:.1}% ({hits}/{})", rate * 100.0, hits + misses));
        }
        stages = stages.field(
            stage,
            ObjectBuilder::new()
                .field("cold_hits", s1[i].0 - s0[i].0)
                .field("cold_misses", s1[i].1 - s0[i].1)
                .field("warm_hits", hits)
                .field("warm_misses", misses)
                .build(),
        );
    }
    let detail = if details.is_empty() {
        "no stage saw warm lookups".to_string()
    } else {
        details.join(", ")
    };
    run.gate("warm_stage_hit_rates", rates_ok, detail);

    ObjectBuilder::new()
        .field("cold", phase_value(&cold))
        .field("warm", phase_value(&warm))
        .field("cold_hit_rate", hit_rate(&s0, &s1))
        .field("warm_hit_rate", hit_rate(&s1, &s2))
        .field("stages", stages.build())
        .build()
}

/// Phase 2: the cache-defeating mix, fired at the warmed target on
/// purpose — hitting nothing in its caches is the property under test.
fn cold_platforms_phase(run: &mut Run) -> Value {
    let phase = fan_out(run.addr, SEED, cold_platform_body);
    let (p50, p99) = (percentile_ns(&phase.latencies, 0.50), percentile_ns(&phase.latencies, 0.99));
    let detail = if phase.failures.is_empty() {
        format!(
            "{REQUESTS} unique-platform requests in {:.2?}, p50 {:.2?}, p99 {:.2?}",
            phase.wall,
            Duration::from_nanos(p50),
            Duration::from_nanos(p99)
        )
    } else {
        first_failures(&phase.failures)
    };
    run.gate("cold_platforms_all_ok", phase.failures.is_empty(), detail);
    phase_value(&phase)
}

/// Phase 3: a burst that must overflow a one-worker, queue-of-two
/// server.
fn saturation_phase(run: &mut Run) -> Value {
    const BURST: u64 = 24;
    let queue_capacity = 2;
    let handle = start(config(1, queue_capacity));
    let addr = handle.addr();
    // Prime the catalog so the burst measures queue behaviour, not the
    // one-time design build.
    let _ =
        client::request(addr, "POST /estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#);

    let threads: Vec<_> = (0..BURST)
        .map(|_| {
            std::thread::spawn(move || {
                let body = r#"{"platform": "image:sw", "sweep": ["2k/2k"]}"#;
                client::request(addr, "POST /estimate", body)
            })
        })
        .collect();
    let (mut ok, mut rejected, mut retry_after_missing) = (0u64, 0u64, 0u64);
    let mut aborted = Vec::new();
    for t in threads {
        match t.join().expect("burst thread") {
            Ok((200, _, _)) => ok += 1,
            Ok((503, retry_after, _)) => {
                rejected += 1;
                retry_after_missing += u64::from(retry_after.is_none());
            }
            Ok((status, _, _)) => aborted.push(format!("unexpected status {status}")),
            Err(e) => aborted.push(e),
        }
    }
    let queue_peak = count(&client::scrape(addr), "tlm_serve_queue_depth_peak");
    let healthy = matches!(client::request(addr, "GET /healthz", ""), Ok((200, _, _)));
    handle.shutdown();

    let detail = if aborted.is_empty() {
        format!("{BURST} connections: {ok} ok, {rejected} rejected")
    } else {
        aborted.join("; ")
    };
    run.gate("saturation_no_aborts", aborted.is_empty(), detail);
    run.gate(
        "saturation_backpressure_engaged",
        rejected > 0 && retry_after_missing == 0,
        format!("{rejected} connections answered 503, {retry_after_missing} without Retry-After"),
    );
    run.gate(
        "saturation_queue_bounded",
        queue_peak <= queue_capacity as u64 + 1,
        format!("queue peak {queue_peak}, capacity {queue_capacity}"),
    );
    run.gate("saturation_survives", healthy, format!("healthz after burst: {healthy}"));

    ObjectBuilder::new()
        .field("connections", BURST)
        .field("ok", ok)
        .field("rejected", rejected)
        .field("queue_peak", queue_peak)
        .field("queue_capacity", queue_capacity as u64)
        .build()
}

/// Outcome of one [`fleet`] run.
struct Fleet {
    wall: Duration,
    /// Per answered request, ascending.
    latencies: Vec<Duration>,
    /// One entry per connection whose train broke off.
    failures: Vec<String>,
}

/// A keep-alive fleet: [`CONNECTIONS`] concurrent connections open at
/// once (a barrier holds every client thread until the whole fleet is
/// connected), then each fires a train of [`REQUESTS_PER_CONN`]
/// `POST /estimate` requests carrying `body` down its one connection. A
/// transport error or a status other than `200` ends that connection's
/// train as a failure.
fn fleet(addr: SocketAddr, body: &'static str) -> Fleet {
    let started = Instant::now();
    let barrier = Arc::new(Barrier::new(CONNECTIONS as usize));
    let threads: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<Vec<Duration>, String> {
                let mut stream = client::connect(addr).map_err(|e| format!("conn {c}: {e}"))?;
                // Everyone connects before anyone sends — the server
                // must see the whole fleet open at the same time.
                barrier.wait();
                (0..REQUESTS_PER_CONN)
                    .map(|k| {
                        let t0 = Instant::now();
                        let reply = client::keep_alive(&mut stream, "POST /estimate", body);
                        expect_status(&format!("conn {c} request {k}"), reply, 200)?;
                        Ok(t0.elapsed())
                    })
                    .collect()
            })
        })
        .collect();
    let mut run = Fleet { wall: Duration::ZERO, latencies: Vec::new(), failures: Vec::new() };
    for t in threads {
        match t.join().expect("fleet thread") {
            Ok(latencies) => run.latencies.extend(latencies),
            Err(e) => run.failures.push(e),
        }
    }
    run.wall = started.elapsed();
    run.latencies.sort_unstable();
    run
}

/// Phase 4: a [`fleet`] of warm requests against a server sized for it,
/// so nothing may drop or shed.
fn connections_phase(run: &mut Run) -> Value {
    const BODY: &str = r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#;
    const P99_BOUND: Duration = Duration::from_secs(5);

    let handle = start(config(4, CONNECTIONS as usize));
    let addr = handle.addr();
    // Prime once: the fleet measures connection scaling, not the
    // one-time design build.
    let prime = expect_status("prime", client::request(addr, "POST /estimate", BODY), 200);
    assert!(prime.is_ok(), "{prime:?}");

    let fleet = fleet(addr, BODY);
    let page = client::scrape(addr);
    let peak = count(&page, "tlm_serve_open_connections_peak");
    let wakeups = count(&page, "tlm_serve_epoll_wakeups_total");
    handle.shutdown();

    let ok = fleet.latencies.len() as u64;
    let expected = CONNECTIONS * REQUESTS_PER_CONN;
    let p99 = Duration::from_nanos(percentile_ns(&fleet.latencies, 0.99));
    let detail = if fleet.failures.is_empty() {
        format!(
            "{CONNECTIONS} concurrent connections x {REQUESTS_PER_CONN} requests, \
             {ok}/{expected} answered 200 in {:.2?}",
            fleet.wall
        )
    } else {
        first_failures(&fleet.failures)
    };
    run.gate("connections_all_ok", fleet.failures.is_empty() && ok == expected, detail);
    run.gate(
        "connections_p99_bounded",
        p99 < P99_BOUND,
        format!("p99 {p99:.2?} (bound {P99_BOUND:.2?})"),
    );
    run.gate(
        "connections_peak_gauge",
        peak >= CONNECTIONS,
        format!("open-connection peak {peak}, fleet size {CONNECTIONS}"),
    );

    timing(ok, fleet.wall, &fleet.latencies)
        .field("connections", CONNECTIONS)
        .field("requests_per_conn", REQUESTS_PER_CONN)
        .field("open_connections_peak", peak)
        .field("epoll_wakeups", wakeups)
        .build()
}

/// A phase: pushes its gates onto the run and returns its record.
type PhaseFn = fn(&mut Run) -> Value;

/// The phases in run order, each recorded under its name.
const PHASES: [(&str, PhaseFn); 4] = [
    ("cache", cache_phase),
    ("cold_platforms", cold_platforms_phase),
    ("saturation", saturation_phase),
    ("connections", connections_phase),
];

/// `--addr`, if given. The shared `--bench-json` flag (and its optional
/// path) is read by `tlm_bench`'s own scan of the argument list; any
/// other argument exits with status 2.
fn parse_args() -> Option<String> {
    let mut addr = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(value) => addr = Some(value),
                None => {
                    eprintln!("--addr needs a value");
                    std::process::exit(2)
                }
            },
            "--bench-json" => {
                it.next_if(|path| !path.starts_with('-'));
            }
            s if s.starts_with("--bench-json=") => {}
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2)
            }
        }
    }
    addr
}

fn main() -> ExitCode {
    // Target of the cache and cold-platform phases: external (--addr) or
    // in-process on an ephemeral port.
    let (addr, local) = match parse_args() {
        Some(a) => (a.parse().expect("--addr is HOST:PORT"), None),
        None => {
            let handle = start(config(2, 64));
            (handle.addr(), Some(handle))
        }
    };
    println!(
        "loadgen: {REQUESTS} requests x {CLIENTS} clients, seed {SEED:#x}, target http://{addr}"
    );

    let mut run = Run { addr, gates: Vec::new() };
    let mut record = ObjectBuilder::new()
        .field("bench", "serve")
        .field("seed", format!("{SEED:#x}"))
        .field("requests", REQUESTS)
        .field("clients", CLIENTS);
    for (name, phase) in PHASES {
        record = record.field(name, phase(&mut run));
    }
    if let Some(handle) = local {
        handle.shutdown();
    }

    let mut gates = ObjectBuilder::new();
    for gate in &run.gates {
        let verdict = if gate.pass { "PASS" } else { "FAIL" };
        println!("gate {verdict} {}: {}", gate.name, gate.detail);
        gates = gates.field(gate.name, gate.pass);
    }
    if let Some(path) = tlm_bench::perf::bench_json_path() {
        tlm_bench::perf::write_bench_json(&path, &record.field("gates", gates.build()).build());
    }
    if run.gates.iter().all(|g| g.pass) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
