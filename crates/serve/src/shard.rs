//! Content-hash-sharded estimation tier.
//!
//! One front process owns every client connection (the event loop in
//! [`crate::server`]); `N` shard processes own the artifact stores. The
//! front routes each request by **consistent hashing over canonical
//! stage keys** ([`tlm_pipeline::routing`]): a built-in design routes by
//! its name (one name, one prepared design, one shard), a custom
//! platform by the concatenation of its processes' module stage keys —
//! so all requests that would share pipeline artifacts land on the same
//! shard, and a shard's caches see the same locality a single process
//! would. Adding a shard remaps only the keyspace slice its virtual
//! nodes claim, not everything (the consistent-hash property).
//!
//! Session endpoints ride the same ring: the front assigns session ids
//! from its own counter (so they stay sequential tier-wide), hashes the
//! id's routing material ([`tlm_pipeline::routing::session_routing_material`])
//! onto the ring, and tells the owning shard which id to use inside the
//! request frame. Probes and `/metrics` never cross the wire — the
//! front answers them locally (aggregating shard counters fetched over
//! [`crate::rpc::TAG_STATS`] frames).
//!
//! Shards are child processes of the front, spawned from the same
//! executable with the hidden `--shard-worker` flag
//! ([`shard_worker_entry`]), listening on an ephemeral loopback port —
//! or, with [`Transport::Unix`], on an abstract-path Unix-domain socket
//! under the temp directory — announced on stdout. The wire protocol is
//! [`crate::rpc`]: every frame carries a request id, and a shard serves
//! one connection with several worker threads, so **many requests ride
//! one connection concurrently** and responses return in completion
//! order, not request order. The front's event loop demultiplexes them
//! by id (see `crate::server`): its one multiplexed connection per shard
//! is the only path a client request takes to a shard. Control traffic
//! (the `STATS` scrape and the drain `SHUTDOWN`) uses short-lived
//! connections of its own. Responses are **bit-identical** to
//! single-process mode because a shard runs the identical
//! [`Service::handle`] against its own pipeline, and the
//! response is reconstructed field-for-field on the front — the
//! loadgen's differential phase and the CI `shard-smoke` job both gate
//! on this.
//!
//! Failure mode: a dead or unreachable shard answers `503` with
//! `Retry-After` (counted in `tlm_serve_shard_rpc_errors_total`), the
//! same contract as a full queue — callers already retry on it.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlm_core::fingerprint::fnv1a_64;
use tlm_json::{ParseLimits, Value};
use tlm_pipeline::routing::{platform_routing_material, session_routing_material};

use crate::http::Response;
use crate::metrics::{Metrics, ShardStatsSnapshot};
use crate::protocol::Service;
use crate::rpc::{
    self, CONTROL_ID, TAG_REQUEST, TAG_RESPONSE, TAG_SHUTDOWN, TAG_SHUTDOWN_OK, TAG_STATS,
    TAG_STATS_OK,
};

/// Virtual nodes per shard on the hash ring — enough that the keyspace
/// splits evenly across a handful of shards.
const VNODES: usize = 64;

/// Worker threads a shard runs per front connection — the shard-side
/// half of the multiplexed protocol: this many requests from one
/// connection estimate concurrently, and their responses interleave in
/// completion order.
pub const CONN_WORKERS: usize = 4;

/// How the front reaches its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Loopback TCP (the default; works everywhere).
    #[default]
    Tcp,
    /// Unix-domain sockets: cheaper syscall path for the local shards
    /// this tier spawns.
    Unix,
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Transport::Tcp => "tcp",
            Transport::Unix => "unix",
        })
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s {
            "tcp" => Ok(Transport::Tcp),
            "unix" => Ok(Transport::Unix),
            other => Err(format!("unknown shard transport `{other}` (tcp|unix)")),
        }
    }
}

/// Where one shard listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAddr {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for ShardAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAddr::Tcp(addr) => write!(f, "{addr}"),
            ShardAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One established front → shard connection over either transport.
/// Blocking by default; the event loop flips it nonblocking for the
/// multiplexed path.
#[derive(Debug)]
pub enum ShardStream {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain transport.
    Unix(UnixStream),
}

impl ShardStream {
    /// Connects to a shard (TCP gets `TCP_NODELAY`: RPC frames are
    /// latency-bound, not throughput-bound).
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect(addr: &ShardAddr) -> io::Result<ShardStream> {
        match addr {
            ShardAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                Ok(ShardStream::Tcp(stream))
            }
            ShardAddr::Unix(path) => Ok(ShardStream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Moves the stream into (or out of) nonblocking mode.
    ///
    /// # Errors
    ///
    /// The underlying `fcntl` failure.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            ShardStream::Tcp(s) => s.set_nonblocking(nonblocking),
            ShardStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Sets the blocking-read timeout.
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt` failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            ShardStream::Tcp(s) => s.set_read_timeout(timeout),
            ShardStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// A second handle to the same socket (shard workers split one
    /// connection into a shared reader and a shared writer).
    ///
    /// # Errors
    ///
    /// The underlying `dup` failure.
    pub fn try_clone(&self) -> io::Result<ShardStream> {
        match self {
            ShardStream::Tcp(s) => s.try_clone().map(ShardStream::Tcp),
            ShardStream::Unix(s) => s.try_clone().map(ShardStream::Unix),
        }
    }
}

impl AsRawFd for ShardStream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            ShardStream::Tcp(s) => s.as_raw_fd(),
            ShardStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for ShardStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ShardStream::Tcp(s) => s.read(buf),
            ShardStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ShardStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ShardStream::Tcp(s) => s.write(buf),
            ShardStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ShardStream::Tcp(s) => s.flush(),
            ShardStream::Unix(s) => s.flush(),
        }
    }
}

/// Knobs forwarded to every spawned shard process.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard processes.
    pub shards: usize,
    /// Transport the front reaches shards over.
    pub transport: Transport,
    /// Pipeline cache budget per shard (`u64::MAX` = unlimited).
    pub cache_budget: u64,
    /// Session resident-byte budget per shard.
    pub session_budget: u64,
    /// Session idle TTL per shard.
    pub session_ttl: Duration,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 0,
            transport: Transport::Tcp,
            cache_budget: u64::MAX,
            session_budget: crate::protocol::DEFAULT_SESSION_BUDGET,
            session_ttl: crate::protocol::DEFAULT_SESSION_TTL,
        }
    }
}

/// One shard process: where it listens, and the child handle when the
/// front spawned it. The event loop owns the multiplexed stream to it.
#[derive(Debug)]
struct Shard {
    addr: ShardAddr,
    /// The child process, present until [`ShardRouter::shutdown`] reaps
    /// it. `None` for externally-managed shards (tests).
    child: Mutex<Option<Child>>,
    /// Held open so the child's late prints don't hit a closed pipe.
    _stdout: Option<ChildStdout>,
}

/// The front's view of the shard tier: the hash ring plus each shard's
/// address (and child process, when spawned).
#[derive(Debug)]
pub struct ShardRouter {
    shards: Vec<Shard>,
    /// Sorted `(point, shard)` ring.
    ring: Vec<(u64, usize)>,
}

fn build_ring(n: usize) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(n * VNODES);
    for shard in 0..n {
        for vnode in 0..VNODES {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(shard as u64).to_le_bytes());
            key[8..].copy_from_slice(&(vnode as u64).to_le_bytes());
            ring.push((fnv1a_64(&key), shard));
        }
    }
    ring.sort_unstable();
    ring
}

impl ShardRouter {
    /// Spawns `config.shards` shard processes from the current
    /// executable (each announces its address on stdout) and builds the
    /// ring.
    ///
    /// # Errors
    ///
    /// Spawn or handshake failure; already-spawned shards are shut down
    /// before the error returns.
    pub fn spawn(config: &ShardConfig) -> io::Result<ShardRouter> {
        let exe = std::env::current_exe()?;
        let mut shards = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let mut command = Command::new(&exe);
            command.arg("--shard-worker");
            match config.transport {
                Transport::Tcp => {
                    command.arg("--addr").arg("127.0.0.1:0");
                }
                Transport::Unix => {
                    let path = std::env::temp_dir()
                        .join(format!("tlm-shard-{}-{index}.sock", std::process::id()));
                    command.arg("--transport").arg("unix");
                    command.arg("--addr").arg(&path);
                }
            }
            command.stdin(Stdio::null()).stdout(Stdio::piped());
            if config.cache_budget != u64::MAX {
                command.arg("--cache-budget").arg(config.cache_budget.to_string());
            }
            command.arg("--session-budget").arg(config.session_budget.to_string());
            command.arg("--session-ttl-secs").arg(config.session_ttl.as_secs().to_string());
            let spawned = spawn_shard(&mut command);
            match spawned {
                Ok(shard) => shards.push(shard),
                Err(e) => {
                    let router = ShardRouter { ring: build_ring(shards.len()), shards };
                    router.shutdown();
                    return Err(io::Error::new(e.kind(), format!("spawning shard {index}: {e}")));
                }
            }
        }
        Ok(ShardRouter { ring: build_ring(config.shards), shards })
    }

    /// A router over externally-managed shard processes already
    /// listening at `addrs` (they are not reaped on shutdown).
    #[must_use]
    pub fn connect(addrs: &[SocketAddr]) -> ShardRouter {
        ShardRouter::connect_addrs(addrs.iter().map(|&addr| ShardAddr::Tcp(addr)).collect())
    }

    /// [`ShardRouter::connect`] over either transport.
    #[must_use]
    pub fn connect_addrs(addrs: Vec<ShardAddr>) -> ShardRouter {
        let shards = addrs
            .into_iter()
            .map(|addr| Shard { addr, child: Mutex::new(None), _stdout: None })
            .collect::<Vec<_>>();
        ShardRouter { ring: build_ring(shards.len()), shards }
    }

    /// Number of shards behind this router.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `material` (clockwise successor on the ring).
    #[must_use]
    pub fn route_material(&self, material: &[u8]) -> usize {
        let point = fnv1a_64(material);
        match self.ring.binary_search(&(point, usize::MAX)) {
            Ok(i) | Err(i) => self.ring[i % self.ring.len()].1,
        }
    }

    /// The shard owning an `/estimate` body: routes by the canonical
    /// stage keys its platform(s) resolve to. Requests whose routing
    /// material cannot be derived (malformed JSON, missing platform)
    /// go to shard 0 — they fail identically everywhere.
    #[must_use]
    pub fn route_estimate(&self, body: &[u8], max_body: usize) -> usize {
        match estimate_material(body, max_body) {
            Some(material) => self.route_material(&material),
            None => 0,
        }
    }

    /// The shard owning session `id` — the front assigns ids, hashes
    /// them onto the ring, and every later request naming the id lands
    /// on the shard holding its state.
    #[must_use]
    pub fn route_session(&self, id: u64) -> usize {
        self.route_material(&session_routing_material(id))
    }

    /// A fresh connection to `shard` for the event loop's multiplexed
    /// path: connected, `TCP_NODELAY` where applicable, nonblocking.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn open_mux_stream(&self, shard: usize) -> io::Result<ShardStream> {
        let stream = ShardStream::connect(&self.shards[shard].addr)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Fetches one shard's own counters over a short-lived control
    /// connection (a `STATS` frame), for aggregation into the front's
    /// `/metrics` page. A connection of its own: a stats scrape never
    /// shares socket state with forwarded traffic, and a hung shard only
    /// stalls the scrape for the 2 s timeout.
    ///
    /// # Errors
    ///
    /// Connect, exchange or decode failure (the caller skips the shard).
    pub fn fetch_stats(&self, shard: usize) -> io::Result<ShardStatsSnapshot> {
        let mut stream = ShardStream::connect(&self.shards[shard].addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        rpc::write_frame(&mut stream, TAG_STATS, CONTROL_ID, &[])?;
        let (tag, _, payload) = rpc::read_frame(&mut stream)?;
        if tag != TAG_STATS_OK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats frame, got tag {tag}"),
            ));
        }
        decode_stats(&payload)
    }

    /// Sends every shard a drain frame over a fresh control connection,
    /// waits for the acknowledgement, and reaps the child processes.
    /// Idempotent.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            if let Ok(mut stream) = ShardStream::connect(&shard.addr) {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                if rpc::write_frame(&mut stream, TAG_SHUTDOWN, CONTROL_ID, &[]).is_ok() {
                    // Wait for the ack so the child has logged its drain
                    // before we reap it.
                    let _ = rpc::read_frame(&mut stream);
                }
            }
            if let Some(mut child) = shard.child.lock().expect("child poisoned").take() {
                let _ = child.wait();
            }
        }
    }
}

fn spawn_shard(command: &mut Command) -> io::Result<Shard> {
    let mut child = command.spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    // "tlm-shard listening on 127.0.0.1:PORT" or
    // "tlm-shard listening on unix:/path/to.sock"
    let addr = line
        .trim()
        .strip_prefix("tlm-shard listening on ")
        .and_then(|rest| match rest.strip_prefix("unix:") {
            Some(path) if !path.is_empty() => Some(ShardAddr::Unix(PathBuf::from(path))),
            Some(_) => None,
            None => rest.parse::<SocketAddr>().ok().map(ShardAddr::Tcp),
        })
        .ok_or_else(|| {
            let _ = child.kill();
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard did not announce an address: {line:?}"),
            )
        })?;
    Ok(Shard { addr, child: Mutex::new(Some(child)), _stdout: Some(reader.into_inner()) })
}

/// Routing material of an `/estimate` body: per job, the built-in design
/// name or the platform object's stage-key material, each length-prefixed
/// and concatenated (a batch routes by all of its jobs together, so its
/// one response comes from one shard).
fn estimate_material(body: &[u8], max_body: usize) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(body).ok()?;
    let limits = ParseLimits { max_bytes: max_body, ..ParseLimits::DEFAULT };
    let root = tlm_json::parse_with_limits(text, limits).ok()?;
    let jobs: Vec<&Value> = match root.get("jobs") {
        Some(Value::Array(jobs)) => jobs.iter().collect(),
        Some(_) => return None,
        None => vec![&root],
    };
    let mut material = Vec::new();
    for job in jobs {
        let piece = match job.get("platform")? {
            Value::String(name) => name.as_bytes().to_vec(),
            platform @ Value::Object(_) => platform_routing_material(platform)?,
            _ => return None,
        };
        material.extend_from_slice(&(piece.len() as u64).to_le_bytes());
        material.extend_from_slice(&piece);
    }
    if material.is_empty() {
        return None;
    }
    Some(material)
}

/// Serializes the counters a shard answers to a `STATS` frame.
fn stats_json(service: &Service, metrics: &Metrics) -> Vec<u8> {
    use std::fmt::Write;

    let stats = service.pipeline.stats();
    let mut out = String::with_capacity(256);
    out.push_str("{\"stages\":{");
    for (i, (name, s)) in stats.stages().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"hits\":{},\"misses\":{}}}", s.hits, s.misses);
    }
    let _ = write!(
        out,
        "}},\"worker_panics\":{},\"trace_events\":{},\"trace_dropped\":{}}}",
        metrics.worker_panics(),
        crate::trace::recorded(),
        crate::trace::dropped()
    );
    out.into_bytes()
}

/// Parses a `STATS_OK` payload back into a snapshot (front side).
fn decode_stats(payload: &[u8]) -> io::Result<ShardStatsSnapshot> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("stats {what}"));
    let text = std::str::from_utf8(payload).map_err(|_| bad("not UTF-8"))?;
    let root = tlm_json::parse(text).map_err(|_| bad("not JSON"))?;
    let mut stages = Vec::new();
    for (name, counters) in root.get("stages").and_then(Value::as_object).unwrap_or(&[]) {
        let hits = counters.get("hits").and_then(Value::as_u64).ok_or_else(|| bad("hits"))?;
        let misses = counters.get("misses").and_then(Value::as_u64).ok_or_else(|| bad("misses"))?;
        stages.push((name.clone(), hits, misses));
    }
    let field = |key: &str| root.get(key).and_then(Value::as_u64).unwrap_or(0);
    Ok(ShardStatsSnapshot {
        stages,
        worker_panics: field("worker_panics"),
        trace_events: field("trace_events"),
        trace_dropped: field("trace_dropped"),
    })
}

/// The `--shard-worker` entry point, shared by the `tlm-serve` and
/// `loadgen` binaries (shards spawn from whichever executable the front
/// runs as). Serves [`crate::rpc`] frames over loopback TCP or a
/// Unix-domain socket until a shutdown frame arrives; announces its
/// address as `tlm-shard listening on <addr>` on stdout. Returns the
/// process exit code.
pub fn shard_worker_entry(args: &[String]) -> i32 {
    match shard_worker_main(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("tlm-shard: {e}");
            1
        }
    }
}

fn parse_u64(args: &[String], i: usize, flag: &str) -> io::Result<u64> {
    args.get(i + 1).and_then(|v| v.parse::<u64>().ok()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{flag} needs a number"))
    })
}

/// The listener behind a shard worker, over either transport.
enum RpcListener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl RpcListener {
    fn bind(transport: Transport, addr: &str) -> io::Result<RpcListener> {
        match transport {
            Transport::Tcp => Ok(RpcListener::Tcp(TcpListener::bind(addr)?)),
            Transport::Unix => {
                let path = PathBuf::from(addr);
                // A stale socket file from a crashed predecessor blocks
                // bind; the path is namespaced by the front's pid, so
                // removing it can only ever hit our own leftovers.
                let _ = std::fs::remove_file(&path);
                Ok(RpcListener::Unix(UnixListener::bind(&path)?, path))
            }
        }
    }

    fn announce(&self) -> io::Result<String> {
        match self {
            RpcListener::Tcp(l) => Ok(format!("{}", l.local_addr()?)),
            RpcListener::Unix(_, path) => Ok(format!("unix:{}", path.display())),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            RpcListener::Tcp(l) => l.set_nonblocking(nonblocking),
            RpcListener::Unix(l, _) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<ShardStream> {
        match self {
            RpcListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(false)?;
                Ok(ShardStream::Tcp(stream))
            }
            RpcListener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(ShardStream::Unix(stream))
            }
        }
    }
}

impl Drop for RpcListener {
    fn drop(&mut self) {
        if let RpcListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn shard_worker_main(args: &[String]) -> io::Result<()> {
    let mut transport = Transport::Tcp;
    let mut addr = "127.0.0.1:0".to_string();
    let mut cache_budget = u64::MAX;
    let mut session_budget = crate::protocol::DEFAULT_SESSION_BUDGET;
    let mut session_ttl = crate::protocol::DEFAULT_SESSION_TTL;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).cloned().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "--addr needs a value")
                })?;
                i += 2;
            }
            "--transport" => {
                transport = args.get(i + 1).and_then(|v| v.parse().ok()).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "--transport needs tcp|unix")
                })?;
                i += 2;
            }
            "--cache-budget" => {
                cache_budget = parse_u64(args, i, "--cache-budget")?;
                i += 2;
            }
            "--session-budget" => {
                session_budget = parse_u64(args, i, "--session-budget")?;
                i += 2;
            }
            "--session-ttl-secs" => {
                session_ttl = Duration::from_secs(parse_u64(args, i, "--session-ttl-secs")?);
                i += 2;
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown shard flag `{other}`"),
                ));
            }
        }
    }

    let listener = RpcListener::bind(transport, &addr)?;
    println!("tlm-shard listening on {}", listener.announce()?);
    io::stdout().flush()?;

    let service = Arc::new(Service::with_limits(0, cache_budget, session_budget, session_ttl));
    // The shard's own counters: feeds `Service::handle` (which records
    // request latency there) and keeps the estimation path identical to
    // the front's; the front aggregates them over STATS frames.
    let metrics = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));

    // Accept with a poll interval so the stop flag set by a drain frame
    // on one connection actually ends the loop.
    listener.set_nonblocking(true)?;
    let mut conn_threads = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let service = Arc::clone(&service);
                let metrics = Arc::clone(&metrics);
                let stop = Arc::clone(&stop);
                conn_threads.push(std::thread::spawn(move || {
                    serve_rpc_conn(stream, &service, &metrics, &stop);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Give in-flight connections a bounded window to finish. A peer
    // that holds its connection open must not pin the process — exit
    // tears the sockets down anyway, and the front already treats a
    // dropped connection as a shard failure.
    let deadline = Instant::now() + Duration::from_secs(5);
    for t in conn_threads {
        while !t.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if t.is_finished() {
            let _ = t.join();
        }
    }
    println!("tlm-shard drained, bye");
    Ok(())
}

/// Serves one front connection with [`CONN_WORKERS`] threads sharing a
/// reader and a writer handle: each thread pops the next request frame
/// (reads are serialized by the reader lock, so frames stay intact),
/// estimates concurrently, and writes its response frame — tagged with
/// the request's id — whenever it finishes. That makes responses arrive
/// in **completion order**, the property the front's demultiplexer is
/// built around. A drain frame stops the accept loop and ends the
/// connection; the front closing its end unblocks the remaining readers.
fn serve_rpc_conn(stream: ShardStream, service: &Service, metrics: &Metrics, stop: &AtomicBool) {
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let reader = Arc::new(Mutex::new(stream));
    let conn_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..CONN_WORKERS {
            let reader = Arc::clone(&reader);
            let writer = Arc::clone(&writer);
            let conn_done = Arc::clone(&conn_done);
            scope.spawn(move || {
                serve_rpc_frames(&reader, &writer, service, metrics, stop, &conn_done);
            });
        }
    });
}

fn serve_rpc_frames(
    reader: &Mutex<ShardStream>,
    writer: &Mutex<ShardStream>,
    service: &Service,
    metrics: &Metrics,
    stop: &AtomicBool,
    conn_done: &AtomicBool,
) {
    loop {
        let (tag, id, payload) = {
            let mut guard = reader.lock().expect("reader poisoned");
            if conn_done.load(Ordering::SeqCst) {
                return;
            }
            match rpc::read_frame(&mut *guard) {
                Ok(frame) => frame,
                Err(_) => {
                    // Front hung up (or cut a frame): wake the sibling
                    // workers parked on the reader lock so the
                    // connection's thread scope can end.
                    conn_done.store(true, Ordering::SeqCst);
                    return;
                }
            }
        };
        match tag {
            TAG_REQUEST => {
                let resp_payload = match catch_unwind(AssertUnwindSafe(|| {
                    handle_frame(service, metrics, &payload)
                })) {
                    Ok(resp_payload) => resp_payload,
                    Err(_) => {
                        // Same isolation contract as the front's
                        // worker pool: the panic answers 500, the
                        // connection (and its siblings) live on.
                        metrics.worker_panic();
                        crate::trace::record("worker", "panic", format!("rpc id {id}"));
                        encode_or_500(&Response::error(
                            500,
                            "internal error: request handling panicked",
                        ))
                    }
                };
                let mut guard = writer.lock().expect("writer poisoned");
                if rpc::write_frame(&mut *guard, TAG_RESPONSE, id, &resp_payload).is_err() {
                    conn_done.store(true, Ordering::SeqCst);
                    return;
                }
            }
            TAG_STATS => {
                let stats = stats_json(service, metrics);
                let mut guard = writer.lock().expect("writer poisoned");
                if rpc::write_frame(&mut *guard, TAG_STATS_OK, CONTROL_ID, &stats).is_err() {
                    conn_done.store(true, Ordering::SeqCst);
                    return;
                }
            }
            TAG_SHUTDOWN => {
                stop.store(true, Ordering::SeqCst);
                conn_done.store(true, Ordering::SeqCst);
                let mut guard = writer.lock().expect("writer poisoned");
                let _ = rpc::write_frame(&mut *guard, TAG_SHUTDOWN_OK, CONTROL_ID, &[]);
                return;
            }
            _ => {
                // Unknown frame: the stream is garbage, drop the
                // connection.
                conn_done.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Decodes a request payload, runs it through the service, encodes the
/// response. Any decode failure answers a `400` frame rather than
/// dropping the connection (the front treats a dropped connection as a
/// shard failure).
fn handle_frame(service: &Service, metrics: &Metrics, payload: &[u8]) -> Vec<u8> {
    let resp = match rpc::decode_request(payload) {
        Ok(req) => service.handle_forwarded(
            &req,
            metrics,
            crate::http::HttpLimits::default().max_body_bytes,
        ),
        Err(e) => Response::error(400, &format!("bad rpc request: {e}")),
    };
    encode_or_500(&resp)
}

fn encode_or_500(resp: &Response) -> Vec<u8> {
    rpc::encode_response(resp).unwrap_or_else(|e| {
        rpc::encode_response(&Response::error(500, &format!("unencodable response: {e}")))
            .expect("plain error encodes")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_addrs(n: usize) -> Vec<SocketAddr> {
        vec!["127.0.0.1:1".parse().expect("addr"); n]
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = ShardRouter::connect(&dummy_addrs(4));
        let b = ShardRouter::connect(&dummy_addrs(4));
        let mut hit = [false; 4];
        for i in 0..1024u32 {
            let material = i.to_le_bytes();
            let sa = a.route_material(&material);
            let sb = b.route_material(&material);
            assert_eq!(sa, sb, "routing must be deterministic across instances");
            hit[sa] = true;
        }
        assert!(hit.iter().all(|&h| h), "1024 keys must touch all 4 shards: {hit:?}");
    }

    #[test]
    fn builtin_names_and_custom_platforms_route_stably() {
        let router = ShardRouter::connect(&dummy_addrs(2));
        let max_body = 4 << 20;
        let by_name = router.route_estimate(br#"{"platform": "mp3:sw"}"#, max_body);
        assert_eq!(by_name, router.route_estimate(br#"{"platform": "mp3:sw"}"#, max_body));
        // Wiring-only differences keep custom platforms on one shard.
        let a = br#"{"platform": {"name": "x", "pes": [{"name": "a", "pum": "generic_risc"}],
            "processes": [{"name": "p", "pe": 0, "source": "void main() { out(1); }"}]}}"#;
        let b = br#"{"platform": {"name": "y", "pes": [{"name": "b", "pum": "microblaze"}],
            "processes": [{"name": "p", "pe": 0, "source": "void main() { out(1); }"}]}}"#;
        assert_eq!(router.route_estimate(a, max_body), router.route_estimate(b, max_body));
        // Unroutable bodies pin to shard 0.
        assert_eq!(router.route_estimate(b"not json", max_body), 0);
        assert_eq!(router.route_estimate(b"{}", max_body), 0);
    }

    #[test]
    fn adding_a_shard_moves_only_part_of_the_keyspace() {
        let two = ShardRouter::connect(&dummy_addrs(2));
        let three = ShardRouter::connect(&dummy_addrs(3));
        let total = 4096u32;
        let moved = (0..total)
            .filter(|i| {
                let m = i.to_le_bytes();
                let before = two.route_material(&m);
                let after = three.route_material(&m);
                after != before && after != 2
            })
            .count();
        // Consistent hashing: keys not claimed by the new shard mostly
        // stay put (a naive `hash % n` would move ~half).
        assert!(moved < (total as usize) / 5, "{moved}/{total} keys moved between old shards");
    }

    #[test]
    fn session_ids_spread_across_shards() {
        let router = ShardRouter::connect(&dummy_addrs(2));
        // Routing is deterministic per id...
        assert_eq!(router.route_session(1), router.route_session(1));
        // ...and sequential ids actually use both shards.
        let mut hit = [false; 2];
        for id in 1..=64u64 {
            hit[router.route_session(id)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 sequential ids must touch both shards: {hit:?}");
    }

    #[test]
    fn transport_parses_and_addrs_display() {
        assert_eq!("tcp".parse::<Transport>().unwrap(), Transport::Tcp);
        assert_eq!("unix".parse::<Transport>().unwrap(), Transport::Unix);
        assert!("smoke-signals".parse::<Transport>().is_err());
        let tcp = ShardAddr::Tcp("127.0.0.1:9".parse().unwrap());
        assert_eq!(tcp.to_string(), "127.0.0.1:9");
        let unix = ShardAddr::Unix(PathBuf::from("/tmp/tlm-shard-0.sock"));
        assert_eq!(unix.to_string(), "unix:/tmp/tlm-shard-0.sock");
    }

    #[test]
    fn stats_payloads_roundtrip() {
        let payload = br#"{"stages":{"ast":{"hits":3,"misses":1},"module":{"hits":0,"misses":2}},
            "worker_panics":1,"trace_events":12,"trace_dropped":0}"#;
        let snapshot = decode_stats(payload).expect("decodes");
        assert_eq!(snapshot.stages[0], ("ast".to_string(), 3, 1));
        assert_eq!(snapshot.stages[1], ("module".to_string(), 0, 2));
        assert_eq!(snapshot.worker_panics, 1);
        assert_eq!(snapshot.trace_events, 12);
        assert!(decode_stats(b"not json").is_err());
    }
}
