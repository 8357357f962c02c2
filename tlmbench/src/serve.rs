//! `serve`: an HTTP closed loop against an in-process server.
//!
//! The callers are design-space-exploration tools that each wait for
//! their reply, so the loop is closed: one client thread per keep-alive
//! connection, as many connections as server workers, at most `nproc` of
//! each. The seeded mix is warm `/estimate` reads of the built-in designs
//! (half of them per-block reports, the rest totals) and, one request in
//! eight, a structural find/replace toggle against a session the
//! connection owns. `serve` (HTTP, the event loop, rendering), `json`,
//! `pipeline` hits and `session` invalidation do the work; `core` is idle.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::imagepipe;
use tlm_core::Pum;
use tlm_json::Value;
use tlm_pipeline::PipelineError;
use tlm_serve::http::{HttpLimits, Request};
use tlm_serve::metrics::Metrics;
use tlm_serve::protocol::{Service, BUILTIN_DESIGNS};
use tlm_serve::{Server, ServerConfig, ServerHandle};
use tlm_session::SourceEdit;

use crate::common::{
    end_to_end, mean, mp3_sources, ms, peak_rss_mib, quantile, repeat_setup, warm_sources, Clock,
    Config, Layers, Outcome, Rng, Tracer,
};

/// Dispatch-queue capacity of the server.
const QUEUE: usize = 64;
/// Ops per second and connection the traced run sizes its op count by.
const NOMINAL_OPS_PER_S: f64 = 150.0;
/// Round trips per connection that measure the bare transport (`/healthz`).
const PROBES: usize = 64;

/// `helper` bodies each connection's session toggles between. The op-class
/// sets are pairwise distinct, so no connection's edit can answer from
/// rows another connection's session computed: the per-layer counts do
/// not depend on how the two connections interleave.
const HELPERS: [[&str; 2]; 2] = [["x * 7 + 3", "x << 2"], ["(x ^ 5) + (x & 3)", "(x | 1) - x"]];

/// The session platform's process source with one `helper` body.
fn session_source(helper: &str) -> String {
    format!(
        "int helper(int x) {{ return {helper}; }} \
         void main() {{ int acc = 0; \
         for (int i = 0; i < 6; i++) {{ acc = acc + helper(i); }} out(acc); }}"
    )
}

/// A full sweep over the paper's cache points, as a JSON array.
fn sweep_json() -> String {
    let labels: Vec<String> = CACHE_SWEEP.iter().map(|(l, _, _)| format!("\"{l}\"")).collect();
    format!("[{}]", labels.join(", "))
}

/// The session platform of connection `conn` with `helper` as its body.
fn session_platform(conn: usize, helper: &str) -> String {
    format!(
        "{{\"name\": \"editor-{conn}\", \"pes\": [{{\"name\": \"cpu\", \"pum\": \"microblaze\"}}], \
          \"processes\": [{{\"name\": \"main\", \"pe\": \"cpu\", \"source\": \"{}\"}}]}}",
        session_source(helper)
    )
}

/// Request classes; per-layer times are reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Totals,
    Blocks,
    Edit,
}

/// One request of the mix.
struct Call {
    class: Class,
    target: String,
    body: String,
    /// Reads: index of (design, sweep point, report kind). Edits: the
    /// parity of the toggle (responses repeat with it).
    key: usize,
}

/// Sweeps a read can ask for: 3 to 5 consecutive cache points (wrapping)
/// starting at any of the five.
const SWEEPS: usize = CACHE_SWEEP.len() * 3;

/// Distinct read requests of the mix: design × sweep × report kind.
const READS: usize = BUILTIN_DESIGNS.len() * SWEEPS * 2;

/// The design, the sweep points and whether per-block rows are asked for.
fn read_parts(key: usize) -> (&'static str, Vec<usize>, bool) {
    let (design, sweep, blocks) = (key / (SWEEPS * 2), (key / 2) % SWEEPS, key % 2 == 1);
    let (start, len) = (sweep % CACHE_SWEEP.len(), 3 + sweep / CACHE_SWEEP.len());
    let points = (start..start + len).map(|p| p % CACHE_SWEEP.len()).collect();
    (BUILTIN_DESIGNS[design], points, blocks)
}

fn read_body(key: usize) -> String {
    let (design, points, blocks) = read_parts(key);
    let labels: Vec<String> = points.iter().map(|&p| format!("\"{}\"", CACHE_SWEEP[p].0)).collect();
    format!(
        "{{\"platform\": \"{design}\", \"sweep\": [{}], \"report\": \"{}\"}}",
        labels.join(", "),
        if blocks { "blocks" } else { "totals" }
    )
}

fn edit_body(conn: usize, parity: usize) -> String {
    let [a, b] = HELPERS[conn];
    let (find, replace) = if parity == 0 { (a, b) } else { (b, a) };
    format!("{{\"process\": \"main\", \"patch\": {{\"find\": \"{find}\", \"replace\": \"{replace}\"}}}}")
}

/// Op `j` of connection `conn`; `edits` is how many edits the connection's
/// session has taken so far.
fn call(seed: u64, stream: u64, conn: usize, j: u64, session: u64, edits: u64) -> Call {
    let mut rng = Rng::for_item(seed, 0x5e7e_0000 + stream * 16 + conn as u64, j);
    if rng.below(8) == 0 {
        let parity = (edits % 2) as usize;
        return Call {
            class: Class::Edit,
            target: format!("/session/{session}/edit"),
            body: edit_body(conn, parity),
            key: parity,
        };
    }
    let key = rng.below(READS as u64) as usize;
    Call {
        class: if key % 2 == 1 { Class::Blocks } else { Class::Totals },
        target: "/estimate".to_string(),
        body: read_body(key),
        key,
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { stream, buf: Vec::with_capacity(128 << 10) })
    }

    /// One request/response exchange: the status and the body.
    fn call(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        self.stream.write_all(&request)?;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// A `200` JSON response, parsed.
    fn json(&mut self, method: &str, target: &str, body: &str) -> Result<Value, String> {
        match self.call(method, target, body.as_bytes()) {
            Ok((200, bytes)) => std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|t| tlm_json::parse(t).map_err(|e| e.to_string()))
                .map_err(|e| format!("{method} {target}: {e}")),
            Ok((status, bytes)) => Err(format!(
                "{method} {target}: status {status}: {}",
                String::from_utf8_lossy(&bytes[..bytes.len().min(200)])
            )),
            Err(e) => Err(format!("{method} {target}: {e}")),
        }
    }
}

/// One connection's client state.
struct Conn {
    client: Client,
    session: u64,
    edits: u64,
}

/// A running server with its connected, warmed clients.
struct State {
    server: ServerHandle,
    conns: Vec<Conn>,
}

impl State {
    /// Closes the client connections, then drains the server: an idle
    /// keep-alive connection would otherwise hold the drain open.
    fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Connections, client threads and server workers: one each per core, at
/// most two.
fn width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(HELPERS.len())
}

fn session_create_body(conn: usize) -> String {
    format!(
        "{{\"platform\": {}, \"sweep\": {}}}",
        session_platform(conn, HELPERS[conn][0]),
        sweep_json()
    )
}

fn setup(tr: &mut Tracer) -> Result<State, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: width(),
        queue: QUEUE,
        max_requests_per_conn: u32::MAX,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Service::new(QUEUE)).map_err(|e| format!("start: {e}"))?;
    let mut sources = mp3_sources();
    sources.extend([
        imagepipe::camera_source(),
        imagepipe::transform_source(),
        imagepipe::encoder_source(),
        imagepipe::store_source(),
    ]);
    warm_sources(&server.service().pipeline, tr, &sources)
        .map_err(|e: PipelineError| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..width() {
        let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        conns.push(Conn { client, session: 0, edits: 0 });
    }
    // Fill the catalog and every report the mix reads, then open one
    // session per connection and take its edit path once both ways.
    for key in 0..READS {
        match conns[0].client.call("POST", "/estimate", read_body(key).as_bytes()) {
            Ok((200, _)) => {}
            other => return Err(format!("warm read {key}: {:?}", other.map(|r| r.0))),
        }
    }
    for (conn, c) in conns.iter_mut().enumerate() {
        let created = c.client.json("POST", "/session", &session_create_body(conn))?;
        c.session = created.get("session").and_then(Value::as_u64).ok_or("no session id")?;
        for parity in 0..2 {
            c.client.json(
                "POST",
                &format!("/session/{}/edit", c.session),
                &edit_body(conn, parity),
            )?;
            c.edits += 1;
        }
    }
    Ok(State { server, conns })
}

/// In-process twins of the server's state: a service answering the same
/// bytes through `Service::handle`, and one whose sessions are edited
/// through `SessionStore::edit` directly.
struct Twins {
    handle: Service,
    edit: Service,
    metrics: Metrics,
    sessions: Vec<u64>,
}

impl Twins {
    /// Twins whose sessions took `edits[conn]` toggles, like the server's
    /// session of each connection, and whose stores hold every read.
    fn new(edits: &[u64]) -> Result<Twins, String> {
        let twins = Twins {
            handle: Service::new(QUEUE),
            edit: Service::new(QUEUE),
            metrics: Metrics::new(),
            sessions: Vec::new(),
        };
        let mut sessions = Vec::new();
        for (conn, &count) in edits.iter().enumerate() {
            let mut ids = Vec::new();
            for svc in [&twins.handle, &twins.edit] {
                let id = twins.session(svc, "/session", &session_create_body(conn))?;
                ids.push(id);
                for k in 0..count {
                    let target = format!("/session/{id}/edit");
                    twins.session(svc, &target, &edit_body(conn, (k % 2) as usize))?;
                }
            }
            if ids[0] != ids[1] {
                return Err("twin session ids diverge".to_string());
            }
            sessions.push(ids[0]);
        }
        for key in 0..READS {
            let (status, _) = twins.handle(&twins.handle, "POST", "/estimate", &read_body(key));
            if status != 200 {
                return Err(format!("twin read {key}: status {status}"));
            }
        }
        Ok(Twins { sessions, ..twins })
    }

    fn handle(&self, svc: &Service, method: &str, target: &str, body: &str) -> (u16, Vec<u8>) {
        let req = Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        };
        let resp = svc.handle(&req, &self.metrics, HttpLimits::default().max_body_bytes, false);
        (resp.status, resp.body)
    }

    /// The session id of a `200` answer from `svc`.
    fn session(&self, svc: &Service, target: &str, body: &str) -> Result<u64, String> {
        let (status, bytes) = self.handle(svc, "POST", target, body);
        if status != 200 {
            return Err(format!("twin POST {target}: status {status}"));
        }
        let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
        let value = tlm_json::parse(text).map_err(|e| e.to_string())?;
        value
            .get("session")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{target}: no session id"))
    }
}

/// Per-op timings of a traced op.
#[derive(Default, Clone)]
struct Sample {
    rtt: Duration,
    handle: Duration,
    /// Pipeline report hits, summed, and how many.
    lookups: Duration,
    lookup_count: u32,
    encode: Duration,
    edit: Duration,
    bytes: usize,
}

/// What one client thread measured.
#[derive(Default)]
struct ConnResult {
    /// Round-trip time (ms) and the slice each op ran in.
    op_ms: Vec<(f64, usize)>,
    classes: Vec<Class>,
    failures: Vec<String>,
    /// First response bytes per read key and per edit parity.
    reads: HashMap<usize, Vec<u8>>,
    edits: HashMap<usize, Vec<u8>>,
    samples: Vec<Sample>,
    spans: Vec<crate::common::Span>,
}

/// How long a phase runs: a number of clock slices, which every client
/// thread and the measuring thread enter and leave together, or a fixed
/// number of ops per connection.
#[derive(Clone, Copy)]
enum Until<'a> {
    Slices(usize, &'a Barrier),
    Ops(u64),
}

/// Times the pipeline hits behind one read: every process's report at
/// every sweep point of the read, demanded from the twin's pipeline.
fn time_lookups(twins: &Twins, key: usize) -> Result<(Duration, u32), String> {
    let svc = &twins.handle;
    let (design, points, _) = read_parts(key);
    let prepared = svc.catalog.builtin(&svc.pipeline, design)?.ok_or("unknown design")?;
    let platform = &prepared.platform;
    let pums: Vec<Vec<Pum>> = points
        .iter()
        .map(|&p| {
            let (_, ic, dc) = CACHE_SWEEP[p];
            platform.pes.iter().map(|pe| pe.pum.with_cache_sizes(ic, dc)).collect()
        })
        .collect();
    let t0 = Instant::now();
    for point in &pums {
        for (proc, artifact) in platform.processes.iter().zip(prepared.artifacts()) {
            svc.pipeline.process_report(artifact, &point[proc.pe.0]).map_err(|e| e.to_string())?;
        }
    }
    Ok((t0.elapsed(), (pums.len() * platform.processes.len()) as u32))
}

/// One client thread: its connection, what it measured so far and, in a
/// traced phase, the twins every op is replayed on.
struct Caller<'a> {
    seed: u64,
    stream: u64,
    index: usize,
    conn: &'a mut Conn,
    twins: Option<&'a Twins>,
    tr: Tracer,
    res: ConnResult,
}

impl Caller<'_> {
    /// Op `j`, run in slice `slice`. Returns false once the connection is
    /// unusable.
    fn step(&mut self, j: u64, slice: usize) -> bool {
        let c = call(self.seed, self.stream, self.index, j, self.conn.session, self.conn.edits);
        self.tr.open("serve.rtt");
        let t0 = Instant::now();
        let reply = self.conn.client.call("POST", &c.target, c.body.as_bytes());
        let rtt = t0.elapsed();
        self.tr.close();
        self.res.op_ms.push((ms(rtt), slice));
        self.res.classes.push(c.class);
        let bytes = match reply {
            Ok((200, bytes)) => bytes,
            Ok((status, bytes)) => {
                let text = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]).into_owned();
                self.res.failures.push(format!("{} {}: status {status}: {text}", c.target, c.body));
                return true;
            }
            Err(e) => {
                self.res.failures.push(format!("{}: {e}", c.target));
                return false;
            }
        };
        if c.class == Class::Edit {
            self.conn.edits += 1;
        }
        let first = if c.class == Class::Edit { &mut self.res.edits } else { &mut self.res.reads };
        if *first.entry(c.key).or_insert_with(|| bytes.clone()) != bytes {
            let message =
                format!("{} {}: response bytes changed between requests", c.target, c.body);
            self.res.failures.push(message);
        }
        if let Some(twins) = self.twins {
            self.replay(twins, &c, rtt, &bytes);
        }
        true
    }

    /// Replays one op in process, timing each layer, and checks the bytes
    /// against the twin's `Service::handle`.
    fn replay(&mut self, twins: &Twins, c: &Call, rtt: Duration, bytes: &[u8]) {
        let mut sample = Sample { rtt, bytes: bytes.len(), ..Sample::default() };
        if c.class == Class::Edit {
            let [a, b] = HELPERS[self.index];
            let (find, replace) = if c.key == 0 { (a, b) } else { (b, a) };
            let session = twins.sessions[self.index];
            let t0 = Instant::now();
            let edited = self.tr.time("session.edit", || {
                let edit = SourceEdit::Patch { find, replace };
                twins.edit.sessions.edit(&twins.edit.pipeline, session, "main", &edit)
            });
            sample.edit = t0.elapsed();
            if let Err(e) = edited {
                self.res.failures.push(format!("twin session edit: {e}"));
            }
        } else {
            match time_lookups(twins, c.key) {
                Ok((d, n)) => (sample.lookups, sample.lookup_count) = (d, n),
                Err(e) => self.res.failures.push(format!("twin lookups: {e}")),
            }
            let value = std::str::from_utf8(bytes).ok().and_then(|t| tlm_json::parse(t).ok());
            if let Some(value) = value {
                let t0 = Instant::now();
                std::hint::black_box(self.tr.time("json.encode", || value.to_compact()));
                sample.encode = t0.elapsed();
            }
        }
        let t0 = Instant::now();
        let (status, twin_bytes) = self
            .tr
            .time("serve.handle", || twins.handle(&twins.handle, "POST", &c.target, &c.body));
        sample.handle = t0.elapsed();
        if status != 200 || twin_bytes != bytes {
            let message =
                format!("{} {}: differs from in-process Service::handle", c.target, c.body);
            self.res.failures.push(message);
        }
        self.res.samples.push(sample);
    }

    fn run(mut self, until: Until<'_>) -> ConnResult {
        match until {
            Until::Ops(n) => {
                for j in 0..n {
                    if !self.step(j, 0) {
                        break;
                    }
                }
            }
            Until::Slices(n, barrier) => {
                let (mut j, mut alive) = (0, true);
                for slice in 0..n {
                    barrier.wait();
                    let start = Instant::now();
                    while alive && !Clock::slice_over(start) {
                        alive = self.step(j, slice);
                        j += 1;
                    }
                    barrier.wait();
                }
            }
        }
        self.res.spans = self.tr.spans().to_vec();
        self.res
    }
}

/// Runs one phase on every connection at once. In a sliced phase this
/// thread closes each slice and reads the host speed while the clients
/// wait; the returned clock holds every op.
fn phase(
    seed: u64,
    stream: u64,
    state: &mut State,
    slices: Option<usize>,
    ops: u64,
    twins: Option<&Twins>,
    epoch: Instant,
) -> (Vec<ConnResult>, Clock) {
    let barrier = Barrier::new(state.conns.len() + 1);
    let until = slices.map_or(Until::Ops(ops), |n| Until::Slices(n, &barrier));
    let mut clock = Clock::new();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                let tr = Tracer::new(epoch, twins.is_some());
                let caller =
                    Caller { seed, stream, index, conn, twins, tr, res: ConnResult::default() };
                scope.spawn(move || caller.run(until))
            })
            .collect();
        if let Until::Slices(n, barrier) = until {
            for _ in 0..n {
                barrier.wait();
                let start = Instant::now();
                barrier.wait();
                clock.end_slice(start.elapsed());
            }
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    for res in &results {
        for &(t, slice) in &res.op_ms {
            clock.record_in(t, slice);
        }
    }
    (results, clock)
}

/// Checks after the timed region: the first response of every request
/// kind equals an in-process `Service::handle` of the same bytes, and each
/// session's view equals a stateless `/estimate` of its current source.
fn check(state: &mut State, results: &[ConnResult], out: &mut Outcome) {
    // Set-up left every session after two edits, so the twins replay
    // each connection's first timed edit of each parity next.
    let twins = match Twins::new(&vec![2; state.conns.len()]) {
        Ok(t) => t,
        Err(e) => return out.fail(e),
    };
    for (conn, res) in results.iter().enumerate() {
        for (&key, bytes) in &res.reads {
            let (status, expected) =
                twins.handle(&twins.handle, "POST", "/estimate", &read_body(key));
            if status != 200 || expected != *bytes {
                out.fail(format!(
                    "read {}: differs from in-process Service::handle",
                    read_body(key)
                ));
            }
        }
        // The twin's session toggles in the same order as the server's.
        let session = twins.sessions[conn];
        for parity in 0..2 {
            let target = format!("/session/{session}/edit");
            let (status, expected) =
                twins.handle(&twins.handle, "POST", &target, &edit_body(conn, parity));
            match res.edits.get(&parity) {
                Some(bytes) if status != 200 || expected != *bytes => out
                    .fail(format!("connection {conn} edit {parity}: differs from Service::handle")),
                _ => {}
            }
        }
    }
    for (conn, c) in state.conns.iter_mut().enumerate() {
        let helper = HELPERS[conn][(c.edits % 2) as usize];
        let view = c.client.json("GET", &format!("/session/{}", c.session), "");
        let cold = c.client.call(
            "POST",
            "/estimate",
            format!(
                "{{\"platform\": {}, \"sweep\": {}}}",
                session_platform(conn, helper),
                sweep_json()
            )
            .as_bytes(),
        );
        match (view, cold) {
            (Ok(view), Ok((200, cold))) => {
                let report = view.get("report").map(|r| format!("{}\n", r.to_compact()));
                if report.as_deref().map(str::as_bytes) != Some(&cold[..]) {
                    out.fail(format!(
                        "connection {conn}: session view differs from a cold /estimate"
                    ));
                }
            }
            (view, cold) => out.fail(format!(
                "connection {conn}: view/estimate failed: {:?} {:?}",
                view.err(),
                cold.map(|c| c.0)
            )),
        }
    }
}

fn fold_failures(results: &[ConnResult], out: &mut Outcome) {
    for res in results {
        for f in &res.failures {
            out.fail(f.clone());
        }
    }
}

/// The end-to-end run.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, false);
    let (mut state, setups) =
        repeat_setup(cfg.started, || setup(&mut tr).expect("serve set-up"), State::shutdown);

    let slices = Some(Clock::slices(cfg.seconds));
    let (results, clock) = phase(cfg.seed, 1, &mut state, slices, 0, None, cfg.started);
    let rss = peak_rss_mib();
    out.attempted = clock.ops();
    fold_failures(&results, &mut out);
    check(&mut state, &results, &mut out);
    state.shutdown();
    let edits = results.iter().flat_map(|r| &r.classes).filter(|&&c| c == Class::Edit).count();
    out.notes.push(format!("connections {}; edits {edits} of {} requests", width(), clock.ops()));
    end_to_end(&mut out, &setups, &clock, rss);
    out
}

/// Median of `f` over the samples of one class; 0 when there are none.
fn class_median(results: &[ConnResult], class: Class, f: impl Fn(&Sample) -> Duration) -> f64 {
    let values: Vec<f64> = results
        .iter()
        .flat_map(|r| r.classes.iter().zip(&r.samples))
        .filter(|(c, _)| **c == class)
        .map(|(_, s)| ms(f(s)))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        quantile(&values, 0.5)
    }
}

/// Reads one sample's value off a Prometheus text page.
fn scrape(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The traced run: a traced set-up, the bare round-trip probes, then the
/// same fixed number of ops untraced and traced (each traced op replayed
/// in process).
pub fn run_traced(cfg: &Config, layers: &mut Layers) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, true);
    let mut state = setup(&mut tr).expect("serve set-up");
    layers.setup(tr.spans());

    let mut probes = Vec::new();
    for c in &mut state.conns {
        for _ in 0..PROBES {
            let t0 = Instant::now();
            match c.client.call("GET", "/healthz", b"") {
                Ok((200, _)) => probes.push(ms(t0.elapsed())),
                other => out.fail(format!("/healthz: {:?}", other.map(|r| r.0))),
            }
        }
    }
    let floor_ms = quantile(&probes, 0.5);

    let n = ((cfg.seconds * NOMINAL_OPS_PER_S / 2.0).round() as u64).max(16);
    let t0 = Instant::now();
    let (untraced_results, _) = phase(cfg.seed, 3, &mut state, None, n, None, cfg.started);
    let untraced = t0.elapsed();
    fold_failures(&untraced_results, &mut out);
    let edits: Vec<u64> = state.conns.iter().map(|c| c.edits).collect();
    let twins = match Twins::new(&edits) {
        Ok(t) => t,
        Err(e) => {
            out.fail(e);
            state.shutdown();
            return out;
        }
    };

    let service = std::sync::Arc::clone(state.server.service());
    let (before, sessions_before) = (service.pipeline.stats(), service.sessions.stats());
    let t0 = Instant::now();
    let (results, _) = phase(cfg.seed, 2, &mut state, None, n, Some(&twins), cfg.started);
    let traced = t0.elapsed();
    let (after, sessions_after) = (service.pipeline.stats(), service.sessions.stats());
    fold_failures(&results, &mut out);
    let page = state
        .conns
        .first_mut()
        .map(|c| c.client.call("GET", "/metrics", b""))
        .and_then(Result::ok)
        .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default();
    out.attempted = results.iter().chain(&untraced_results).map(|r| r.op_ms.len() as u64).sum();
    state.shutdown();

    let samples: Vec<&Sample> = results.iter().flat_map(|r| &r.samples).collect();
    let per_op = |f: &dyn Fn(&Sample) -> Duration| {
        mean(&samples.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    for (class, rtt, handle) in [
        (Class::Totals, "serve.rtt_ms.totals", "serve.handle_ms.totals"),
        (Class::Blocks, "serve.rtt_ms.blocks", "serve.handle_ms.blocks"),
        (Class::Edit, "serve.rtt_ms.edit", "serve.handle_ms.edit"),
    ] {
        layers.set(rtt, class_median(&results, class, |s| s.rtt));
        layers.set(handle, class_median(&results, class, |s| s.handle));
    }
    let rtt = per_op(&|s| s.rtt);
    let handle = per_op(&|s| s.handle);
    let lookups = per_op(&|s| s.lookups);
    let encode = per_op(&|s| s.encode);
    let edit = per_op(&|s| s.edit);
    layers.set("serve.transport_ms", rtt - handle);
    // The handler's own work: decoding, routing and building the reply
    // tree, beyond the pipeline hits, the session edit and the encoding.
    layers.set("serve.render_ms", handle - lookups - encode - edit);
    layers.set("pipeline.lookup_ms", lookups);
    layers.set("json.encode_ms", encode);
    let edits: Vec<f64> =
        samples.iter().filter(|s| s.edit > Duration::ZERO).map(|s| ms(s.edit)).collect();
    layers.set("session.edit_ms", mean(&edits));
    let count: u32 = samples.iter().map(|s| s.lookup_count).sum();
    let lookup_total: Duration = samples.iter().map(|s| s.lookups).sum();
    layers.set("pipeline.hit_us", lookup_total.as_secs_f64() * 1e6 / f64::from(count.max(1)));
    layers.set(
        "serve.response_kib",
        mean(&samples.iter().map(|s| s.bytes as f64 / 1024.0).collect::<Vec<_>>()),
    );
    layers.set("serve.rejected", scrape(&page, "tlm_serve_queue_rejected_total"));
    layers.set(
        "session.dirty_blocks",
        (sessions_after.dirty_blocks - sessions_before.dirty_blocks) as f64,
    );
    layers.pipeline_deltas(&before, &after);
    layers.set("trace.op_ms", rtt);
    // Round-trip time neither the handler nor a bare `/healthz` round trip
    // accounts for: payload transfer and waiting for the other connection.
    layers.set("trace.residual_pct", (rtt - handle - floor_ms) / rtt * 100.0);
    layers.overhead(untraced, traced);
    layers.spans = results.into_iter().map(|r| r.spans).collect();
    out
}
