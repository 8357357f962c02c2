//! The fault campaign (`--features faults`): the serving stack degrades
//! cleanly under injected faults and recovers without residue.
//!
//! A 2-worker server under a 24 KiB pipeline byte budget answers a fixed
//! request mix. The fault-free reference comes first, and every reply
//! must be `200`. A scripted prelude then forces one worker panic, and a
//! scripted step forces one `serve.response.write` delay. Seeds 1..=6
//! then arm [`tlm_faults::install`]'s seeded schedule. Those seeds fire
//! `serve.accept` delays, `serve.parse` short reads, `serve.worker.handle`
//! allocator pressure and `pipeline.stage.compute` delays and transients;
//! they draw no worker panic and no response-write delay, which is why
//! those two sites are scripted. Every trial gates:
//!
//! - the degradation ladder: no status outside {200, 500, 503};
//! - no divergence: a `200` body equals the fault-free reference bytes;
//! - recovery: within 5 s of clearing the plan both workers are alive,
//!   at most one is busy and at most one connection is open (the
//!   scrape's own);
//! - `/healthz` answers `200`, and the re-run mix reproduces the
//!   reference bit for bit.
//!
//! The mix must evict from the pipeline cache, so these gates hold
//! across evictions. A failure names the seed and the injections it
//! fired; a hit becomes a committed scripted test.
//!
//! One `#[test]` only: the fault plan is process-global, and a second
//! test in this binary would race on it.

#![cfg(feature = "faults")]

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tlm_faults::Kind;
use tlm_serve::client;
use tlm_serve::protocol::{Service, DEFAULT_SESSION_BUDGET, DEFAULT_SESSION_TTL};
use tlm_serve::server::{Server, ServerConfig};

const WORKERS: u64 = 2;

/// Pipeline byte budget of the server under test: small enough that the
/// mix evicts.
const CACHE_BUDGET: u64 = 24 << 10;

/// Requests per trial; request `i` always sends `MIX[i % 5]`, so the
/// fault-free bytes are a fixed reference.
const REQUESTS: usize = 6;

const MIX: [(&str, &str); 5] = [
    ("GET /healthz", ""),
    ("POST /estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#),
    ("POST /estimate", r#"{"platform": "image:hw", "sweep": ["2k/2k"]}"#),
    ("POST /estimate", r#"{"platform": "image:sw", "sweep": ["8k/4k"]}"#),
    ("POST /estimate", r#"{"platform": "image:hw", "sweep": ["0k/0k"]}"#),
];

/// Every armed injection point in the stack, and every kind it can fire:
/// the table a failure message reads the fired injections from.
const SITES: [&str; 5] = [
    "serve.accept",
    "serve.parse",
    "serve.worker.handle",
    "serve.response.write",
    "pipeline.stage.compute",
];
const KINDS: [Kind; 5] =
    [Kind::Panic, Kind::Delay, Kind::ShortRead, Kind::AllocPressure, Kind::Transient];

/// How long the gauges get to return to rest after the plan is cleared
/// before the trial calls the stack stuck or leaky.
const SETTLE: Duration = Duration::from_secs(5);

/// A settled reply's status and body, or the error of a connection that
/// stayed cut through every retry.
type Outcome = Result<(u16, Vec<u8>), String>;

/// Runs the mix once. A `503` or a cut connection is the designed
/// degradation, not a violation, and is retried with backoff.
fn run_mix(addr: SocketAddr) -> Vec<Outcome> {
    (0..REQUESTS)
        .map(|i| {
            let (line, body) = MIX[i % MIX.len()];
            let mut attempt = 0u32;
            loop {
                let reply = client::request(addr, line, body);
                match &reply {
                    Ok((503, _, _)) | Err(_) if attempt < 4 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(50 << attempt));
                    }
                    _ => break reply.map(|(status, _, bytes)| (status, bytes)),
                }
            }
        })
        .collect()
}

/// The injections the current plan fired, as `site=Kind×count`.
fn fired() -> Vec<String> {
    SITES
        .iter()
        .flat_map(|&site| KINDS.iter().map(move |&kind| (site, kind)))
        .filter_map(|(site, kind)| {
            let count = tlm_faults::injected(site, kind);
            (count > 0).then(|| format!("{site}={kind:?}×{count}"))
        })
        .collect()
}

/// A sample off a `/metrics` page; `0` when it is missing.
fn sample(page: &str, name: &str) -> u64 {
    client::metric(page, name).unwrap_or(0)
}

/// One trial under the plan already armed: runs the mix, clears the
/// plan, and asserts every gate against the fault-free `reference`.
/// Returns the mix's outcomes and the injections the plan fired.
fn trial(addr: SocketAddr, reference: &[Vec<u8>], what: &str) -> (Vec<Outcome>, Vec<String>) {
    let outcomes = run_mix(addr);
    let fired = fired();
    tlm_faults::clear();
    let context = format!("{what} (injections fired: {fired:?})");

    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            // A fault may fail a request, but a request that succeeds
            // must return the exact fault-free bytes.
            Ok((200, body)) => assert!(
                *body == reference[i],
                "{context}: request {i} answered 200 with bytes that differ from the reference"
            ),
            // The ladder's lower rungs; a cut connection is covered by
            // the recovery gates below.
            Ok((500 | 503, _)) | Err(_) => {}
            Ok((status, _)) => {
                panic!("{context}: request {i} answered {status}, outside {{200, 500, 503}}")
            }
        }
    }

    // The scrape itself occupies one worker and one connection while it
    // is answered, so both gauges rest at <= 1 as seen from a scrape.
    let deadline = Instant::now() + SETTLE;
    let (alive, busy, open) = loop {
        let page = client::scrape(addr);
        let alive = sample(&page, "tlm_serve_workers_alive");
        let busy = sample(&page, "tlm_serve_workers_busy");
        let open = sample(&page, "tlm_serve_open_connections");
        if (alive == WORKERS && busy <= 1 && open <= 1) || Instant::now() >= deadline {
            break (alive, busy, open);
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        alive == WORKERS && busy <= 1,
        "{context}: {alive}/{WORKERS} workers alive, {busy} busy {SETTLE:?} after clear"
    );
    assert!(open <= 1, "{context}: {open} connections still open {SETTLE:?} after clear");
    let health = client::request(addr, "GET /healthz", "").map(|(status, _, _)| status);
    assert_eq!(health, Ok(200), "{context}: /healthz after clear");

    // Faults cleared, the identical mix must reproduce the reference:
    // a fault leaves no residue in the caches.
    for (i, outcome) in run_mix(addr).iter().enumerate() {
        assert!(
            matches!(outcome, Ok((200, body)) if *body == reference[i]),
            "{context}: request {i} after clear is not the reference: {:?}",
            outcome.as_ref().map(|(status, _)| status)
        );
    }
    (outcomes, fired)
}

#[test]
fn injected_faults_degrade_cleanly_and_leave_no_residue() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS as usize,
        queue: 16,
        io_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let service = Service::with_limits(
        config.queue,
        CACHE_BUDGET,
        DEFAULT_SESSION_BUDGET,
        DEFAULT_SESSION_TTL,
    );
    let handle = Server::start(config, service).expect("server starts");
    let addr = handle.addr();

    let reference: Vec<Vec<u8>> = run_mix(addr)
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| match outcome {
            Ok((200, body)) => body,
            other => panic!("fault-free request {i}: {:?}", other.map(|(status, _)| status)),
        })
        .collect();

    // Prelude: exactly one forced worker panic. A forced-only plan draws
    // nothing else, and the mix's first request is the first a worker
    // handles, so that request takes the panic.
    tlm_faults::force("serve.worker.handle", Kind::Panic, 1);
    let (outcomes, fired) = trial(addr, &reference, "prelude (forced worker panic)");
    assert_eq!(fired, ["serve.worker.handle=Panic×1"], "the forced panic fires once");
    match &outcomes[0] {
        Ok((status, body)) => {
            let body = String::from_utf8_lossy(body);
            assert_eq!(*status, 500, "the panicking handler answers 500: {body}");
            assert!(body.contains("panicked"), "got: {body}");
        }
        Err(e) => panic!("the panicking request got no answer: {e}"),
    }
    // The supervisor counts the exit and the respawn asynchronously.
    let deadline = Instant::now() + SETTLE;
    loop {
        let page = client::scrape(addr);
        if sample(&page, "tlm_serve_worker_respawns_total") == 1
            && sample(&page, "tlm_serve_workers_alive") == WORKERS
        {
            assert_eq!(sample(&page, "tlm_serve_worker_panics_total"), 1, "{page}");
            break;
        }
        assert!(Instant::now() < deadline, "the worker never respawned:\n{page}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let health = client::request(addr, "GET /healthz", "").map(|(status, _, _)| status);
    assert_eq!(health, Ok(200), "the service recovered from the panic");

    // Scripted step: one stalled delivery. The first response any worker
    // completes waits before it reaches the wire; it must still arrive
    // whole, and every reply must be the reference bytes.
    tlm_faults::force("serve.response.write", Kind::Delay, 1);
    let (outcomes, fired) = trial(addr, &reference, "forced response-write delay");
    assert_eq!(fired, ["serve.response.write=Delay×1"], "the forced delay fires once");
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(
            matches!(outcome, Ok((200, body)) if *body == reference[i]),
            "request {i} under a response-write delay is not the reference: {:?}",
            outcome.as_ref().map(|(status, _)| status)
        );
    }

    for seed in 1..=6 {
        tlm_faults::install(seed);
        trial(addr, &reference, &format!("seed {seed}"));
    }

    let evictions = sample(&client::scrape(addr), "tlm_serve_cache_evictions_total");
    assert!(evictions > 0, "the mix never evicted under a {CACHE_BUDGET}-byte budget");
    handle.shutdown();
}
