//! `tlm-serve` — the estimation service daemon.
//!
//! ```text
//! tlm-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--cache-budget BYTES] [--session-budget BYTES]
//!           [--session-ttl SECONDS]
//! ```
//!
//! Boots the HTTP server, prints the bound address (flushed immediately,
//! so scripts can scrape the port when binding `:0`), and runs until
//! SIGINT/SIGTERM, then drains in-flight requests and exits. On the
//! first signal `/readyz` flips to `503` (load balancers stop routing)
//! while `/healthz` keeps answering `200` — draining is not dying.
//!
//! `--cache-budget` bounds the resident bytes of the pipeline's
//! memoization stores; the default is unbounded. Under a budget, cold
//! entries are evicted generationally (second-chance) and recomputed on
//! demand — results stay bit-identical, only latency changes.
//!
//! `--session-budget` bounds the resident source bytes of edit sessions
//! (least-recently-edited sessions are evicted first); `--session-ttl`
//! expires sessions idle for that many seconds. Both protect a
//! long-running daemon from abandoned editor state.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig};
use tlm_serve::signal;

fn usage() -> ! {
    eprintln!(
        "usage: tlm-serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                [--cache-budget BYTES] [--session-budget BYTES]\n\
         \x20                [--session-ttl SECONDS]\n\
         \n\
         endpoints:\n\
           POST   /estimate            run estimation jobs (JSON)\n\
           POST   /session             open an edit session (same body as /estimate)\n\
           POST   /session/{{id}}/edit   patch one process, re-estimate only dirty blocks\n\
           GET    /session/{{id}}        replay the session's current report\n\
           DELETE /session/{{id}}        close a session\n\
           GET    /metrics             Prometheus text metrics\n\
           GET    /healthz             liveness probe\n\
           GET    /readyz              readiness probe (503 while draining)"
    );
    std::process::exit(2)
}

struct Limits {
    cache_budget: u64,
    session_budget: u64,
    session_ttl: Duration,
}

fn parse_args() -> (ServerConfig, Limits) {
    let mut config = ServerConfig::default();
    let mut limits = Limits {
        cache_budget: u64::MAX,
        session_budget: tlm_serve::protocol::DEFAULT_SESSION_BUDGET,
        session_ttl: tlm_serve::protocol::DEFAULT_SESSION_TTL,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--cache-budget" => {
                limits.cache_budget = value("--cache-budget").parse().unwrap_or_else(|_| usage());
            }
            "--session-budget" => {
                limits.session_budget =
                    value("--session-budget").parse().unwrap_or_else(|_| usage());
            }
            "--session-ttl" => {
                limits.session_ttl =
                    Duration::from_secs(value("--session-ttl").parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    (config, limits)
}

fn main() -> ExitCode {
    let (config, limits) = parse_args();
    signal::install();

    let queue = config.queue;
    let service =
        Service::with_limits(queue, limits.cache_budget, limits.session_budget, limits.session_ttl);
    let handle = match Server::start(config, service) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("tlm-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tlm-serve listening on http://{}", handle.addr());
    let _ = std::io::stdout().flush();

    // Parks on the signal self-pipe — no polling loop; the handler's
    // one write wakes this thread the moment the first signal lands.
    signal::wait();
    println!("tlm-serve: shutdown requested, draining");
    handle.shutdown();
    println!("tlm-serve: drained, bye");
    ExitCode::SUCCESS
}
