//! Acceptance test for worker panic isolation, driven by a scripted
//! fault (`--features faults`): the connection whose handler panics gets
//! `500`, the panic is counted, the supervisor respawns the worker, and
//! the very next request succeeds.
//!
//! Lives in its own integration binary: the fault plan is process-global
//! state, and a scripted panic at `serve.worker.handle` would otherwise
//! strike whichever parallel test's request draws first.

#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use tlm_faults::Kind;
use tlm_serve::client;
use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig};

#[test]
fn injected_worker_panic_gets_500_and_the_worker_respawns() {
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() };
    let workers = config.workers as u64;
    let handle = Server::start(config, Service::new(8)).expect("server starts");
    let addr = handle.addr();

    // Script exactly one panic at the request-handling point; a
    // forced-only plan performs no other injections.
    tlm_faults::force("serve.worker.handle", Kind::Panic, 1);
    let (status, _, body) = client::request(addr, "GET /healthz", "").expect("exchange");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 500, "panicking handler answers 500: {body}");
    assert!(body.contains("panicked"), "got: {body}");

    // The supervisor notices the dead worker asynchronously; wait for
    // the respawn to land in the metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let page = client::scrape(addr);
        let metric = |name| client::metric(&page, name);
        if metric("tlm_serve_worker_respawns_total") == Some(1)
            && metric("tlm_serve_workers_alive") == Some(workers)
        {
            assert_eq!(metric("tlm_serve_worker_panics_total"), Some(1));
            break;
        }
        assert!(Instant::now() < deadline, "worker never respawned:\n{page}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Full capacity restored: the next request succeeds.
    let recovered = client::request(addr, "GET /healthz", "").map(|(status, _, _)| status);
    assert_eq!(recovered, Ok(200), "service recovered");
    assert_eq!(tlm_faults::injected("serve.worker.handle", Kind::Panic), 1);

    tlm_faults::clear();
    handle.shutdown();
}
