//! `chaosfuzz` — coverage-guided chaos fuzzing with seed shrinking.
//!
//! Two seed spaces, one harness:
//!
//! - **Scheduler permutation seeds** drive [`tlm_desim`]'s seeded wakeup
//!   permutation ([`Kernel::set_order_seed`]): every same-timestamp wakeup
//!   batch is shuffled by a splitmix64 stream, so each seed is one legal
//!   event ordering and the same seed replays the identical ordering.
//!   The default mode sweeps seeds over the real estimation stack and
//!   gates *order invariance*: functional outputs and per-process
//!   annotated cycle counts must not depend on the ordering.
//! - **Fault seeds** drive [`tlm_faults`]' seeded injection schedule
//!   across the serving stack (worker panics, delays, short reads,
//!   allocator pressure, transient stage failures). Gates: the
//!   degradation ladder holds (no status outside {200, 500, 503}), `200`
//!   bodies never diverge from the fault-free reference, workers and
//!   connections recover, and the cleared-faults mix reproduces the
//!   reference bytes bit-identically. Before the seeded trials a
//!   scripted prelude runs the same trial once with a forced worker
//!   panic, which must fire. The server runs under a small pipeline byte
//!   budget, so the gates hold across cache evictions, and the campaign
//!   requires that the mix evicted.
//!
//! Any hit is **shrunk** to a minimal reproducer. Fault hits shrink to
//! the shortest scripted-injection plan (via [`tlm_faults::force`]) that
//! still trips the same gate; order hits report the minimal diverging
//! seed. Both are printed as a ready-to-paste regression test plus a
//! `REPLAY:` command line.
//!
//! `--plant` is the self-test: it hunts a deliberately order-dependent
//! model (a non-commutative fold over state shared by four processes),
//! shrinks the hit to a minimal `(seed, rounds)` pair, and prints the
//! replay command; `--replay-order SEED --rounds R` re-checks it (exit 0
//! when the divergence reproduces, 2 when it does not). CI runs the
//! pair back to back.

use std::process::ExitCode;

use tlm_desim::{Kernel, Resume, SimTime};

/// Rounds the planted model runs by default; each round is one
/// same-timestamp wakeup batch of all four processes.
const DEFAULT_ROUNDS: u64 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: chaosfuzz [MODE] [OPTIONS]\n\
         \n\
         modes:\n\
         \x20 (default)             order-invariance fuzz of the estimation stack,\n\
         \x20                       plus the fault-seed campaign in `--features faults` builds\n\
         \x20 --plant               search + shrink a planted order-dependence violation\n\
         \x20 --replay-order SEED   replay a shrunk order violation (exit 0 iff it reproduces)\n\
         \x20 --replay-faults SPEC  replay a shrunk fault script, SPEC = site=kind[:count],...\n\
         \n\
         options:\n\
         \x20 --rounds N       planted-model rounds (default {DEFAULT_ROUNDS})\n\
         \x20 --max-seeds N    seeds to search in --plant mode (default 512)\n\
         \x20 --order-seeds N  permutation seeds per design (default 16)\n\
         \x20 --fault-seeds N  fault seeds in the campaign (default 6)\n\
         \x20 --requests N     requests per fault trial (default 6)"
    );
    std::process::exit(2)
}

struct Args {
    plant: bool,
    replay_order: Option<u64>,
    replay_faults: Option<String>,
    rounds: u64,
    max_seeds: u64,
    order_seeds: u64,
    fault_seeds: u64,
    requests: u64,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        plant: false,
        replay_order: None,
        replay_faults: None,
        rounds: DEFAULT_ROUNDS,
        max_seeds: 512,
        order_seeds: 16,
        fault_seeds: 6,
        requests: 6,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("chaosfuzz: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--plant" => args.plant = true,
            "--replay-order" => {
                args.replay_order = Some(value("--replay-order").parse().unwrap_or_else(|_| {
                    eprintln!("chaosfuzz: --replay-order wants a u64 seed");
                    usage()
                }));
            }
            "--replay-faults" => args.replay_faults = Some(value("--replay-faults")),
            "--rounds" => args.rounds = parse_u64(&value("--rounds"), "--rounds").max(1),
            "--max-seeds" => args.max_seeds = parse_u64(&value("--max-seeds"), "--max-seeds"),
            "--order-seeds" => {
                args.order_seeds = parse_u64(&value("--order-seeds"), "--order-seeds");
            }
            "--fault-seeds" => {
                args.fault_seeds = parse_u64(&value("--fault-seeds"), "--fault-seeds");
            }
            "--requests" => args.requests = parse_u64(&value("--requests"), "--requests").max(1),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("chaosfuzz: unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_u64(s: &str, flag: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("chaosfuzz: {flag} wants an integer, got {s:?}");
        usage()
    })
}

// ---------------------------------------------------------------------------
// Planted order-dependence model (`--plant` / `--replay-order`)
// ---------------------------------------------------------------------------

/// A deliberately order-*dependent* model: four processes wake at the
/// same timestamps and each applies a non-commutative fold (an FNV-style
/// multiply-xor) to one shared accumulator. The final checksum is a
/// fingerprint of the exact wakeup order, so any permutation that
/// reorders a batch changes it — this is the violation `--plant` exists
/// to find and shrink.
fn planted_checksum(order_seed: Option<u64>, rounds: u64) -> u64 {
    let acc = std::rc::Rc::new(std::cell::Cell::new(0xcbf2_9ce4_8422_2325u64));
    let mut kernel = Kernel::new();
    for pid in 0..4u64 {
        let acc = acc.clone();
        let mut left = rounds;
        kernel.spawn_fn(format!("planted{pid}"), move |_ctx| {
            acc.set(acc.get().wrapping_mul(0x0000_0100_0000_01b3) ^ (pid + 1));
            left -= 1;
            if left > 0 {
                Resume::WaitTime(SimTime::from_ns(1))
            } else {
                Resume::Finish
            }
        });
    }
    if let Some(seed) = order_seed {
        kernel.set_order_seed(seed);
    }
    kernel.run();
    acc.get()
}

/// Whether `seed` makes the planted model diverge from the unpermuted
/// reference at `rounds` rounds.
fn planted_diverges(seed: u64, rounds: u64) -> bool {
    planted_checksum(Some(seed), rounds) != planted_checksum(None, rounds)
}

/// `--plant`: search the permutation-seed space for a divergence, shrink
/// it to a minimal `(seed, rounds)` reproducer, and print the replay
/// command plus a paste-ready regression test.
fn plant_mode(max_seeds: u64, rounds: u64) -> ExitCode {
    let reference = planted_checksum(None, rounds);
    println!(
        "chaosfuzz --plant: hunting order dependence, {max_seeds} seeds x {rounds} rounds \
         (reference {reference:#018x})"
    );
    let Some(seed) = (1..=max_seeds).find(|&s| planted_diverges(s, rounds)) else {
        println!("chaosfuzz --plant: no divergence within {max_seeds} seeds");
        return ExitCode::FAILURE;
    };
    let found = planted_checksum(Some(seed), rounds);
    println!("VIOLATION seed={seed}: checksum {found:#018x} != reference {reference:#018x}");

    // Shrink along both axes: first the fewest rounds at which this seed
    // still diverges (smaller trace), then the smallest seed that
    // diverges at that round count (canonical reproducer).
    let min_rounds = (1..=rounds).find(|&r| planted_diverges(seed, r)).unwrap_or(rounds);
    let min_seed = (1..=seed).find(|&s| planted_diverges(s, min_rounds)).unwrap_or(seed);

    // The shrunk pair must reproduce deterministically, twice, before it
    // is reported — a reproducer that only fires sometimes is useless.
    let reproduced =
        planted_diverges(min_seed, min_rounds) && planted_diverges(min_seed, min_rounds);
    println!("SHRUNK seed={min_seed} rounds={min_rounds} (from seed={seed} rounds={rounds})");
    println!("REPLAY: chaosfuzz --replay-order {min_seed} --rounds {min_rounds}");
    println!("--- regression test (paste next to planted_checksum) ---");
    println!(
        "#[test]\n\
         fn order_seed_{min_seed}_reorders_shared_state_fold() {{\n\
         \x20   // Shrunk by `chaosfuzz --plant`: a non-commutative fold over\n\
         \x20   // shared state diverges under order seed {min_seed} within\n\
         \x20   // {min_rounds} same-timestamp round(s).\n\
         \x20   assert_ne!(\n\
         \x20       planted_checksum(Some({min_seed}), {min_rounds}),\n\
         \x20       planted_checksum(None, {min_rounds}),\n\
         \x20   );\n\
         }}"
    );
    if reproduced {
        ExitCode::SUCCESS
    } else {
        eprintln!("chaosfuzz --plant: shrunk pair did not reproduce deterministically");
        ExitCode::FAILURE
    }
}

/// `--replay-order SEED --rounds R`: exit 0 iff the shrunk reproducer
/// still diverges, 2 otherwise (so CI can assert the hunt's output).
fn replay_order_mode(seed: u64, rounds: u64) -> ExitCode {
    let reference = planted_checksum(None, rounds);
    let permuted = planted_checksum(Some(seed), rounds);
    if permuted == reference {
        println!(
            "chaosfuzz: NOT reproduced — seed {seed} rounds {rounds} matches \
             reference {reference:#018x}"
        );
        ExitCode::from(2)
    } else {
        println!(
            "chaosfuzz: reproduced — seed {seed} rounds {rounds}: \
             {permuted:#018x} != {reference:#018x}"
        );
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// Order-invariance fuzz over the real estimation stack
// ---------------------------------------------------------------------------

/// Sweeps permutation seeds over real app platforms and gates that the
/// *estimates* are order-invariant: outputs and per-process annotated
/// cycles must match the unpermuted reference under every seed. Returns
/// the violation count.
fn order_invariance_fuzz(order_seeds: u64) -> u64 {
    use tlm_apps::imagepipe::{build_image_platform, ImageParams};
    use tlm_apps::{build_mp3_platform, Mp3Design, Mp3Params};
    use tlm_platform::tlm::{run_tlm, TlmConfig, TlmMode};

    let platforms = [
        ("mp3:sw", build_mp3_platform(Mp3Design::Sw, Mp3Params::training(), 8 << 10, 4 << 10)),
        (
            "mp3:sw+4",
            build_mp3_platform(Mp3Design::SwPlus4, Mp3Params::training(), 8 << 10, 4 << 10),
        ),
        ("image:sw", build_image_platform(false, ImageParams::small(), 8 << 10, 4 << 10)),
        ("image:hw", build_image_platform(true, ImageParams::small(), 8 << 10, 4 << 10)),
    ];

    let mut violations = 0u64;
    for (name, platform) in &platforms {
        let platform = match platform {
            Ok(p) => p,
            Err(e) => {
                println!("VIOLATION order-invariance {name}: platform build failed: {e}");
                violations += 1;
                continue;
            }
        };
        let reference = match run_tlm(platform, TlmMode::Timed, &TlmConfig::default()) {
            Ok(r) => r,
            Err(e) => {
                println!("VIOLATION order-invariance {name}: reference run failed: {e}");
                violations += 1;
                continue;
            }
        };
        let mut bad = Vec::new();
        for seed in 1..=order_seeds {
            let config = TlmConfig { order_seed: Some(seed), ..TlmConfig::default() };
            match run_tlm(platform, TlmMode::Timed, &config) {
                Ok(run) => {
                    let invariant = run.outputs == reference.outputs
                        && reference.processes.iter().all(|(proc, pr)| {
                            run.processes
                                .get(proc)
                                .is_some_and(|r| r.computed_cycles == pr.computed_cycles)
                        });
                    if !invariant {
                        bad.push(seed);
                    }
                }
                Err(e) => {
                    println!("VIOLATION order-invariance {name} seed {seed}: run failed: {e}");
                    violations += 1;
                }
            }
        }
        if bad.is_empty() {
            println!("order-invariance {name}: OK under {order_seeds} permutation seeds");
        } else {
            violations += bad.len() as u64;
            // The smallest diverging seed IS the shrunk reproducer: every
            // seed is an independent trial, so minimality is just "first".
            let minimal = bad[0];
            println!(
                "VIOLATION order-invariance {name}: {} of {order_seeds} seeds diverge, \
                 minimal seed {minimal}",
                bad.len()
            );
            println!("--- regression test (platform tests, crates/platform/src/tlm.rs) ---");
            println!(
                "#[test]\n\
                 fn order_seed_{minimal}_breaks_{slug}_invariance() {{\n\
                 \x20   let platform = /* build {name} */;\n\
                 \x20   let reference = run_tlm(&platform, TlmMode::Timed, &TlmConfig::default());\n\
                 \x20   let config = TlmConfig {{ order_seed: Some({minimal}), ..TlmConfig::default() }};\n\
                 \x20   let permuted = run_tlm(&platform, TlmMode::Timed, &config);\n\
                 \x20   assert_eq!(permuted.unwrap().outputs, reference.unwrap().outputs);\n\
                 }}",
                slug = name.replace([':', '+'], "_"),
            );
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Fault-seed campaign over the serving stack (`--features faults` builds)
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod faultfuzz {
    use std::net::SocketAddr;
    use std::time::{Duration, Instant};

    use tlm_core::fingerprint::fnv1a_64;
    use tlm_faults::Kind;
    use tlm_serve::client;
    use tlm_serve::protocol::Service;
    use tlm_serve::server::{Server, ServerConfig, ServerHandle};

    /// Every armed injection site in the stack, for `--replay-faults`
    /// parsing ([`tlm_faults::force`] wants `&'static str` sites).
    const SITES: [&str; 5] = [
        "serve.accept",
        "serve.parse",
        "serve.worker.handle",
        "serve.response.write",
        "pipeline.stage.compute",
    ];

    const KINDS: [Kind; 5] =
        [Kind::Panic, Kind::Delay, Kind::ShortRead, Kind::AllocPressure, Kind::Transient];

    /// The deterministic request mix: request `i` always sends the same
    /// request, so fault-free response bytes are a fixed reference to
    /// diff every trial against.
    const MIX: [(&str, &str); 5] = [
        ("GET /healthz", ""),
        ("POST /estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k"]}"#),
        ("POST /estimate", r#"{"platform": "image:hw", "sweep": ["2k/2k"]}"#),
        ("POST /estimate", r#"{"platform": "image:sw", "sweep": ["8k/4k"]}"#),
        ("POST /estimate", r#"{"platform": "image:hw", "sweep": ["0k/0k"]}"#),
    ];

    /// Pipeline byte budget of the server under test: small enough
    /// that the mix evicts, so every trial's divergence gates run across
    /// evictions.
    const CACHE_BUDGET: u64 = 24 << 10;

    /// An injection plan for one trial. (The fault-free reference trial
    /// is just [`run_mix`] after a [`tlm_faults::clear`], no plan.)
    pub enum Plan {
        /// The seeded schedule — the fuzzer's search space.
        Seeded(u64),
        /// A scripted plan — the prelude's rungs and the shrinker's
        /// candidate reproducers.
        Script(Vec<(&'static str, Kind, u64)>),
    }

    impl Plan {
        fn arm(&self) {
            tlm_faults::clear();
            match self {
                Plan::Seeded(seed) => tlm_faults::install(*seed),
                Plan::Script(rows) => {
                    for &(site, kind, count) in rows {
                        tlm_faults::force(site, kind, count);
                    }
                }
            }
        }

        fn describe(&self) -> String {
            match self {
                Plan::Seeded(seed) => format!("seed {seed}"),
                Plan::Script(rows) => rows
                    .iter()
                    .map(|(site, kind, count)| format!("{site}={}:{count}", kind.name()))
                    .collect::<Vec<_>>()
                    .join(","),
            }
        }
    }

    /// One gate violation found by a trial.
    pub struct Violation {
        pub class: &'static str,
        pub detail: String,
    }

    /// A sample off a `/metrics` page; `0` when it is missing.
    fn sample(page: &str, name: &str) -> u64 {
        client::metric(page, name).unwrap_or(0)
    }

    /// Runs the mix once. A `503` or a transport error (a chaos-cut
    /// connection) is retried a few times — both are the *designed*
    /// degradation, not violations. Returns per-index
    /// `Ok((status, body_hash))` for settled replies, `Err` for
    /// connections that stayed cut through every retry.
    fn run_mix(addr: SocketAddr, requests: u64) -> Vec<Result<(u16, u64), String>> {
        let mut out = Vec::with_capacity(requests as usize);
        for i in 0..requests {
            let (line, body) = MIX[(i % MIX.len() as u64) as usize];
            let mut attempt = 0u32;
            let reply = loop {
                let reply = client::request(addr, line, body);
                match &reply {
                    Ok((503, _, _)) | Err(_) if attempt < 4 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(50 << attempt));
                    }
                    _ => break reply,
                }
            };
            out.push(reply.map(|(status, _, bytes)| (status, fnv1a_64(&bytes))));
        }
        out
    }

    /// The recovery deadline: how long gauges get to return to their
    /// resting values after the plan is cleared before the trial calls
    /// the stack stuck or leaky.
    const SETTLE: Duration = Duration::from_secs(5);

    /// One trial: arm `plan`, run the mix, clear, and gate recovery and
    /// determinism against the fault-free `reference` hashes. Returns
    /// the violations plus the injections the plan actually performed
    /// (the shrinker's candidate pool).
    pub fn trial(
        addr: SocketAddr,
        workers: u64,
        plan: &Plan,
        reference: &[(u16, u64)],
    ) -> (Vec<Violation>, Vec<(&'static str, Kind, u64)>) {
        let mut violations = Vec::new();
        plan.arm();
        let outcomes = run_mix(addr, reference.len() as u64);
        let snapshot = tlm_faults::injected_snapshot();
        tlm_faults::clear();

        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok((200, hash)) => {
                    // The core determinism gate: a fault may fail a
                    // request, but a request that *succeeds* must return
                    // the exact fault-free bytes.
                    if *hash != reference[i].1 {
                        violations.push(Violation {
                            class: "divergence",
                            detail: format!(
                                "request {i}: 200 body hash {hash:#018x} != \
                                 reference {:#018x}",
                                reference[i].1
                            ),
                        });
                    }
                }
                Ok((500 | 503, _)) => {} // the designed degradation ladder
                Ok((status, _)) => violations.push(Violation {
                    class: "unexpected-status",
                    detail: format!("request {i}: status {status} outside {{200, 500, 503}}"),
                }),
                Err(_) => {} // cut through every retry; covered by recovery gates
            }
        }

        // Recovery: alive workers, no busy worker wedged, connection
        // gauge back down. The scrape itself occupies one worker and one
        // connection while it is answered, so both gauges rest at <= 1
        // as observed from a scrape, not 0.
        let deadline = Instant::now() + SETTLE;
        let (alive, busy, open) = loop {
            let page = client::scrape(addr);
            let alive = sample(&page, "tlm_serve_workers_alive");
            let busy = sample(&page, "tlm_serve_workers_busy");
            let open = sample(&page, "tlm_serve_open_connections");
            if (alive == workers && busy <= 1 && open <= 1) || Instant::now() >= deadline {
                break (alive, busy, open);
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        if alive != workers || busy > 1 {
            violations.push(Violation {
                class: "stuck-worker",
                detail: format!(
                    "{alive}/{workers} workers alive, {busy} still busy {SETTLE:?} after clear"
                ),
            });
        }
        if open > 1 {
            violations.push(Violation {
                class: "leaked-connections",
                detail: format!("{open} connections still open {SETTLE:?} after clear"),
            });
        }
        if !matches!(client::request(addr, "GET /healthz", ""), Ok((200, _, _))) {
            violations.push(Violation {
                class: "no-health",
                detail: "/healthz not 200 after clear".to_string(),
            });
        }

        // Faults cleared, the identical mix must reproduce the reference
        // bytes bit-for-bit — chaos must leave no residue in the caches.
        for (i, outcome) in run_mix(addr, reference.len() as u64).iter().enumerate() {
            let ok = matches!(outcome, Ok((200, hash)) if *hash == reference[i].1);
            if !ok {
                violations.push(Violation {
                    class: "post-divergence",
                    detail: format!("request {i} after clear: {outcome:?} != fault-free reference"),
                });
            }
        }
        (violations, snapshot)
    }

    /// Shrinks a seeded hit to a minimal scripted plan: try each single
    /// injection the seed performed (count 1, then the full count), then
    /// pairs, and return the first script that re-trips the same gate
    /// class. Candidates are ordered smallest-first, so the first hit is
    /// minimal by construction.
    fn shrink(
        addr: SocketAddr,
        workers: u64,
        reference: &[(u16, u64)],
        snapshot: &[(&'static str, Kind, u64)],
        class: &str,
    ) -> Option<Vec<(&'static str, Kind, u64)>> {
        let mut candidates: Vec<Vec<(&'static str, Kind, u64)>> = Vec::new();
        for &(site, kind, _) in snapshot {
            candidates.push(vec![(site, kind, 1)]);
        }
        for &(site, kind, count) in snapshot {
            if count > 1 {
                candidates.push(vec![(site, kind, count)]);
            }
        }
        for (i, &a) in snapshot.iter().enumerate() {
            for &b in &snapshot[i + 1..] {
                candidates.push(vec![(a.0, a.1, 1), (b.0, b.1, 1)]);
            }
        }
        for script in candidates {
            let plan = Plan::Script(script);
            let (violations, _) = trial(addr, workers, &plan, reference);
            if violations.iter().any(|v| v.class == class) {
                if let Plan::Script(script) = plan {
                    return Some(script);
                }
            }
        }
        None
    }

    /// Boots the server under test under [`CACHE_BUDGET`].
    fn boot() -> Result<ServerHandle, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 16,
            io_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let service = Service::with_cache_budget(config.queue, CACHE_BUDGET);
        Server::start(config, service).map_err(|e| format!("server start: {e}"))
    }

    /// The campaign: fault-free reference, then one trial per seed. The
    /// first hit is shrunk and reported; a healthy stack reports zero
    /// violations. Returns the violation count.
    pub fn campaign(fault_seeds: u64, requests: u64) -> u64 {
        let handle = match boot() {
            Ok(handle) => handle,
            Err(e) => {
                println!("VIOLATION fault-campaign: boot failed: {e}");
                return 1;
            }
        };
        let addr = handle.addr();
        let workers = 2u64;

        // Prime the design catalog fault-free so one-time build errors
        // cannot masquerade as injected failures, then take the
        // reference: every reply must be a 200 or the stack is broken
        // before any fault is armed.
        tlm_faults::clear();
        let reference: Vec<(u16, u64)> =
            run_mix(addr, requests).into_iter().map(|r| r.unwrap_or((0, 0))).collect();
        if reference.iter().any(|&(status, _)| status != 200) {
            println!("VIOLATION fault-campaign: fault-free reference not all 200: {reference:?}");
            handle.shutdown();
            return 1;
        }

        // The scripted prelude: the degradation ladder's panic rung, a
        // forced worker panic that must fire.
        let (site, kind) = ("serve.worker.handle", Kind::Panic);
        let plan = Plan::Script(vec![(site, kind, 1)]);
        let (mut violations, snapshot) = trial(addr, workers, &plan, &reference);
        if !snapshot.iter().any(|&(s, k, n)| s == site && k == kind && n > 0) {
            violations.push(Violation {
                class: "prelude-not-fired",
                detail: "the forced injection never fired".to_string(),
            });
        }
        if violations.is_empty() {
            println!("fault-campaign prelude {}: OK (fired)", plan.describe());
        }
        for v in &violations {
            println!(
                "VIOLATION fault-campaign prelude {} [{}]: {}",
                plan.describe(),
                v.class,
                v.detail
            );
        }
        let mut total_violations = violations.len() as u64;

        for seed in 1..=fault_seeds {
            let plan = Plan::Seeded(seed);
            let (violations, snapshot) = trial(addr, workers, &plan, &reference);
            let injected: u64 = snapshot.iter().map(|&(_, _, n)| n).sum();
            if violations.is_empty() {
                println!(
                    "fault-campaign seed {seed}: OK ({injected} injections across \
                     {} sites)",
                    snapshot.len()
                );
                continue;
            }
            total_violations += violations.len() as u64;
            for v in &violations {
                println!("VIOLATION fault-campaign seed {seed} [{}]: {}", v.class, v.detail);
            }
            // Shrink the first hit to a minimal scripted reproducer and
            // print it as a regression test.
            let class = violations[0].class;
            match shrink(addr, workers, &reference, &snapshot, class) {
                Some(script) => {
                    let plan = Plan::Script(script.clone());
                    println!(
                        "SHRUNK seed={seed} class={class} to {} scripted injection(s)",
                        script.len()
                    );
                    println!("REPLAY: chaosfuzz --replay-faults {}", plan.describe());
                    println!("--- regression test (serve tests, --features faults) ---");
                    println!("#[test]\nfn chaos_script_reproduces_{}_violation() {{", {
                        class.replace('-', "_")
                    });
                    for (site, kind, count) in &script {
                        println!(
                            "    tlm_faults::force({site:?}, tlm_faults::Kind::{kind:?}, {count});"
                        );
                    }
                    println!(
                        "    // drive the mix against a 2-worker server and assert the\n\
                         \x20   // `{class}` gate trips; see chaosfuzz::faultfuzz::trial.\n\
                         }}"
                    );
                }
                None => println!(
                    "SHRINK FAILED seed={seed} class={class}: no scripted subset of the \
                     {} injected rows reproduces it (order- or timing-dependent hit)",
                    snapshot.len()
                ),
            }
            break; // one shrunk reproducer per run keeps the hunt bounded
        }

        // The budget must actually have evicted: otherwise the
        // divergence gates above never ran across an eviction.
        let evictions = sample(&client::scrape(addr), "tlm_serve_cache_evictions_total");
        println!("fault-campaign: {evictions} cache evictions under a {CACHE_BUDGET}-byte budget");
        if evictions == 0 {
            println!("VIOLATION fault-campaign [no-evictions]: the mix never evicted");
            total_violations += 1;
        }
        handle.shutdown();
        if total_violations == 0 {
            println!(
                "fault-campaign: no violations across {fault_seeds} seeds \
                 ({requests} requests each)"
            );
        }
        total_violations
    }

    /// `--replay-faults SPEC`: re-run one scripted trial. Exit 0 iff a
    /// violation reproduces, 2 otherwise.
    pub fn replay(spec: &str, requests: u64) -> std::process::ExitCode {
        let mut script = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (site_name, rest) = match part.split_once('=') {
                Some(pair) => pair,
                None => {
                    eprintln!(
                        "chaosfuzz: bad --replay-faults entry {part:?} (want site=kind[:count])"
                    );
                    return std::process::ExitCode::from(2);
                }
            };
            let (kind_name, count) = match rest.split_once(':') {
                Some((k, c)) => (k, c.parse().unwrap_or(1)),
                None => (rest, 1),
            };
            let Some(&site) = SITES.iter().find(|&&s| s == site_name) else {
                eprintln!("chaosfuzz: unknown site {site_name:?} (known: {SITES:?})");
                return std::process::ExitCode::from(2);
            };
            let Some(&kind) = KINDS.iter().find(|k| k.name() == kind_name) else {
                eprintln!("chaosfuzz: unknown kind {kind_name:?}");
                return std::process::ExitCode::from(2);
            };
            script.push((site, kind, count));
        }
        let handle = match boot() {
            Ok(handle) => handle,
            Err(e) => {
                eprintln!("chaosfuzz: boot failed: {e}");
                return std::process::ExitCode::from(2);
            }
        };
        let addr = handle.addr();
        tlm_faults::clear();
        let reference: Vec<(u16, u64)> =
            run_mix(addr, requests).into_iter().map(|r| r.unwrap_or((0, 0))).collect();
        let plan = Plan::Script(script);
        let (violations, _) = trial(addr, 2, &plan, &reference);
        handle.shutdown();
        if violations.is_empty() {
            println!("chaosfuzz: NOT reproduced — script {} trips no gate", plan.describe());
            std::process::ExitCode::from(2)
        } else {
            for v in &violations {
                println!("chaosfuzz: reproduced [{}]: {}", v.class, v.detail);
            }
            std::process::ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);

    if args.plant {
        return plant_mode(args.max_seeds, args.rounds);
    }
    if let Some(seed) = args.replay_order {
        return replay_order_mode(seed, args.rounds);
    }
    if let Some(spec) = &args.replay_faults {
        #[cfg(feature = "faults")]
        return faultfuzz::replay(spec, args.requests);
        #[cfg(not(feature = "faults"))]
        {
            let _ = spec;
            eprintln!("chaosfuzz: --replay-faults requires building with `--features faults`");
            return ExitCode::from(2);
        }
    }

    // Default mode: both seed spaces.
    let order_violations = order_invariance_fuzz(args.order_seeds);
    #[cfg(feature = "faults")]
    let fault_violations = faultfuzz::campaign(args.fault_seeds, args.requests);
    #[cfg(not(feature = "faults"))]
    let fault_violations = {
        println!(
            "fault-campaign: skipped (build with `--features faults` to arm injection points)"
        );
        0u64
    };
    let violations = order_violations + fault_violations;

    if violations == 0 {
        println!("chaosfuzz: no violations");
        ExitCode::SUCCESS
    } else {
        println!("chaosfuzz: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
