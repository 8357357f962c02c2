//! The server core: a readiness-driven event loop for connection I/O,
//! a bounded worker pool for CPU-bound estimation, graceful shutdown.
//!
//! The shape is a classic event-loop + worker-pool split, chosen so the
//! number of *connections* the server can hold open is decoupled from
//! the number of *threads* it runs:
//!
//! - the **event loop** (one thread, epoll via [`crate::epoll`]) owns
//!   every socket: it accepts non-blockingly, feeds request bytes into
//!   an incremental parser ([`crate::http::RequestParser`]), and writes
//!   responses — all without ever blocking on a peer. Each connection is
//!   a small state machine (*reading → dispatched → writing → closing*),
//!   so thousands of idle or slow clients cost a map entry each, not a
//!   thread;
//! - **workers** do only CPU-bound work: the loop hands fully parsed
//!   requests over a bounded dispatch queue (a `VecDeque` under a mutex,
//!   whose length is the `tlm_serve_queue_depth` gauge) and resumes the
//!   connection when the worker sends the response back over a
//!   completion channel (a socketpair waker interrupts `epoll_wait`).
//!   When the dispatch queue is full the loop answers `503 Service
//!   Unavailable` with `Retry-After: 1` inline — memory stays capped no
//!   matter how fast requests arrive, and
//!   [`ServerConfig::max_connections`] caps the connection table itself;
//! - **deadlines** are enforced by the loop's timer scan: each
//!   connection carries an I/O-progress deadline (re-armed on every
//!   byte, [`ServerConfig::io_timeout`]) and a per-request budget
//!   ([`ServerConfig::request_deadline`]) armed when the request starts,
//!   so a slowloris client dripping bytes inside the per-op timeout
//!   still gets `408` when the sum runs out, without pinning a thread;
//! - **shutdown** ([`ServerHandle::shutdown`]) latches a flag and wakes
//!   the loop; the listener closes *first*, keep-alive is not renewed,
//!   in-flight and already-parsed requests finish, and the loop exits
//!   when the last connection drains. While draining, `/readyz` answers
//!   `503` (route new work elsewhere) and `/healthz` stays `200` —
//!   draining is not dying;
//! - **panic isolation**: each request's handler runs under
//!   `catch_unwind`. A panic answers that connection `500`, the worker
//!   thread exits, and its supervisor respawns a fresh one — the panic
//!   never takes down a neighbour request or the server
//!   (`tlm_serve_worker_panics_total` / `_respawns_total` count both
//!   sides).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tlm_faults::Kind;

use crate::epoll::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{HttpError, HttpLimits, Request, RequestParser, Response};
use crate::metrics::{ConnPhase, Metrics};
use crate::protocol::Service;
use crate::signal;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Worker threads running CPU-bound request handlers.
    pub workers: usize,
    /// Capacity of the dispatch queue between the event loop and the
    /// workers (at least 1); beyond it, requests get `503`.
    pub queue: usize,
    /// Input caps applied to every request.
    pub limits: HttpLimits,
    /// I/O-progress timeout: a connection that makes no read or write
    /// progress for this long gets `408` (reading) or is closed
    /// (writing).
    pub io_timeout: Duration,
    /// Total budget per request, armed when its first byte arrives: a
    /// client dripping bytes inside the per-op timeout still gets `408`
    /// when the sum runs out, and a response still unwritten past the
    /// budget is abandoned.
    pub request_deadline: Duration,
    /// Keep-alive requests served per connection before it is closed
    /// (prevents one client from holding a connection slot forever).
    pub max_requests_per_conn: u32,
    /// Connections the event loop will hold open at once; beyond it,
    /// new connections get an inline `503` and close.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue: 64,
            limits: HttpLimits::default(),
            io_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            max_requests_per_conn: 1024,
            max_connections: 1024,
        }
    }
}

/// Builds and starts server instances.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the event loop, and returns a
    /// handle. The server is reachable as soon as this returns.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the event loop's epoll
    /// instance cannot be created (non-Linux platforms).
    pub fn start(config: ServerConfig, service: Service) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let epoll = Epoll::new()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;

        let service = Arc::new(service);
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let dispatch = Arc::new(DispatchQueue::new(config.queue.max(1), Arc::clone(&metrics)));
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let worker_waker = Arc::new(waker_tx.try_clone()?);

        let mut threads = Vec::with_capacity(config.workers + 1);
        for i in 0..config.workers.max(1) {
            let dispatch = Arc::clone(&dispatch);
            let service = Arc::clone(&service);
            let metrics = Arc::clone(&metrics);
            let completion_tx = completion_tx.clone();
            let worker_waker = Arc::clone(&worker_waker);
            let config = config.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("tlm-serve-super-{i}"))
                    .spawn(move || {
                        supervise_worker(
                            i,
                            &dispatch,
                            &service,
                            &metrics,
                            &completion_tx,
                            &worker_waker,
                            &config,
                        );
                    })
                    .expect("supervisor thread spawns"),
            );
        }
        drop(completion_tx); // the loop's receiver disconnects when workers exit

        {
            let event_loop = EventLoop {
                epoll,
                listener: Some(listener),
                waker_rx,
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                dispatch,
                completions: completion_rx,
                metrics: Arc::clone(&metrics),
                shutdown: Arc::clone(&shutdown),
                config,
            };
            threads.push(
                thread::Builder::new()
                    .name("tlm-serve-eventloop".to_string())
                    .spawn(move || event_loop.run())
                    .expect("event-loop thread spawns"),
            );
        }

        Ok(ServerHandle { addr, service, shutdown, waker: waker_tx, threads })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the life of
/// the process (what the daemon wants); tests and the benchmark call
/// `shutdown` explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    waker: UnixStream,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (cache + catalog).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, drains in-flight work, joins every thread.
    /// Returns once the last response has been written and the last
    /// connection has closed (bounded by the per-connection deadlines).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.waker).write(b"s");
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Latches the shutdown flag and wakes the event loop without
    /// joining (lets a signal handler thread initiate the drain the main
    /// thread later joins).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.waker).write(b"s");
    }
}

/// Event-loop token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop token of the waker socketpair's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// How long a connection in the closing state may drain unread request
/// bytes before the socket is dropped regardless.
const CLOSE_LINGER: Duration = Duration::from_millis(500);
/// Cap on bytes drained during the closing linger.
const CLOSE_DRAIN_CAP: usize = 64 << 10;

/// One parsed request travelling from the event loop to a worker.
struct WorkItem {
    token: u64,
    request: Request,
    draining: bool,
    /// Trace-ring request id, assigned at dispatch.
    request_id: u64,
}

/// The bounded queue between the event loop and the workers. The depth
/// gauge and its peak are set from the deque's length under the queue's
/// own lock, on every push and pop, so the peak never exceeds the
/// capacity.
struct DispatchQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    /// Set when the event loop ends: workers drain what is left, then
    /// exit.
    closed: bool,
}

impl DispatchQueue {
    fn new(capacity: usize, metrics: Arc<Metrics>) -> DispatchQueue {
        DispatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            metrics,
        }
    }

    /// The queue state. No code panics while holding the lock, so a
    /// poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends an item for the workers; `false` (the item dropped) when
    /// the queue is full.
    fn push(&self, item: WorkItem) -> bool {
        let mut state = self.lock();
        if state.items.len() >= self.capacity {
            return false;
        }
        state.items.push_back(item);
        self.metrics.queue_len(state.items.len());
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Takes the oldest item, waiting while the queue is empty and open;
    /// `None` once it is closed and drained.
    fn pop(&self) -> Option<WorkItem> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.metrics.queue_len(state.items.len());
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Lets the workers exit once the queue is drained.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// One response travelling back from a worker to the event loop.
struct Completion {
    token: u64,
    response: Response,
    panicked: bool,
    /// Trace-ring request id, carried through from the [`WorkItem`].
    request_id: u64,
}

/// In-flight response bytes and how the connection continues after them.
struct WriteState {
    /// The serialized status line and headers.
    head: Vec<u8>,
    /// The response's own body buffer, written after the head uncopied.
    body: Vec<u8>,
    /// Bytes of `head ‖ body` already written.
    off: usize,
    keep: bool,
    /// Whether the request's total budget applies to this write (normal
    /// responses). Error responses like `408` are written outside the —
    /// already spent — budget, bounded by the I/O-progress timeout only.
    enforce_deadline: bool,
}

/// The per-connection state machine.
enum ConnState {
    /// Accumulating request bytes in the parser.
    Reading,
    /// A parsed request is with the worker pool; no read interest (bytes
    /// of pipelined requests stay in the socket buffer until the
    /// response is out).
    Dispatched,
    /// Writing response bytes.
    Writing(WriteState),
    /// Response written, `FIN` sent; draining unread request bytes so
    /// the close is clean rather than an RST destroying the response in
    /// flight.
    Closing { until: Instant, drained: usize },
}

fn phase_of(state: &ConnState) -> ConnPhase {
    match state {
        ConnState::Reading => ConnPhase::Reading,
        ConnState::Dispatched => ConnPhase::Dispatched,
        ConnState::Writing(_) => ConnPhase::Writing,
        ConnState::Closing { .. } => ConnPhase::Closing,
    }
}

/// One accepted connection: its socket, request parser and state machine.
struct Peer {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    /// Requests already answered on this connection.
    served: u32,
    /// When the current request's budget started.
    req_started: Instant,
    /// Last moment any byte moved in either direction.
    last_io: Instant,
    /// The dispatched request's keep-alive preference, for the response.
    req_keep_alive: bool,
    /// The peer half-closed its write side (EOF seen); a response may
    /// still be owed and deliverable, but no further requests come.
    half_closed: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

impl Peer {
    fn new(stream: TcpStream, now: Instant) -> Peer {
        Peer {
            stream,
            parser: RequestParser::new(),
            state: ConnState::Reading,
            served: 0,
            req_started: now,
            last_io: now,
            req_keep_alive: false,
            half_closed: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }
}

/// Switches a connection's state, keeping the per-state gauges honest.
fn transition(metrics: &Metrics, conn: &mut Peer, state: ConnState) {
    metrics.phase_leave(phase_of(&conn.state));
    metrics.phase_enter(phase_of(&state));
    conn.state = state;
}

/// Outcome of draining a readable socket into the parser.
enum ReadOutcome {
    /// Read everything available; more may come later.
    Progress,
    /// The peer sent EOF (half- or full close).
    Eof,
    /// A socket error; the connection is dead.
    Fatal,
}

/// Reads until `WouldBlock` or EOF, pushing bytes into the parser.
fn fill_parser(conn: &mut Peer) -> ReadOutcome {
    let mut buf = [0u8; 16 << 10];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                conn.parser.push(&buf[..n]);
                conn.last_io = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Fatal,
        }
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    conns: HashMap<u64, Peer>,
    next_token: u64,
    dispatch: Arc<DispatchQueue>,
    completions: Receiver<Completion>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(64);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                if let Some(listener) = self.listener.take() {
                    // Close the port first: refused beats queued-forever.
                    let _ = self.epoll.del(listener.as_raw_fd());
                }
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self
                .nearest_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            events.clear();
            if self.epoll.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable; drop everything
                // so the process can at least exit cleanly.
                break;
            }
            self.metrics.epoll_wakeup();
            for &(token, mask) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, mask),
                }
            }
            while let Ok(done) = self.completions.try_recv() {
                self.complete(done);
            }
            self.expire_deadlines();
        }
        // Dropping the loop here closes the queue; workers drain what
        // is left and exit.
    }

    /// The soonest instant at which some connection's timer fires.
    fn nearest_deadline(&self) -> Option<Instant> {
        self.conns.values().filter_map(|conn| self.conn_deadline(conn)).min()
    }

    /// The given connection's active timer, if its state has one.
    fn conn_deadline(&self, conn: &Peer) -> Option<Instant> {
        let io = conn.last_io + self.config.io_timeout;
        let request = conn.req_started + self.config.request_deadline;
        match &conn.state {
            ConnState::Reading => Some(io.min(request)),
            // The worker owns the clock while it computes; the response
            // write re-checks the budget.
            ConnState::Dispatched => None,
            ConnState::Writing(w) => Some(if w.enforce_deadline { io.min(request) } else { io }),
            ConnState::Closing { until, .. } => Some(*until),
        }
    }

    /// Fires every expired connection timer.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| self.conn_deadline(conn).is_some_and(|d| d <= now))
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get(&token) else { continue };
            match conn.state {
                // A stalled request, or a keep-alive connection idle past
                // its timer, gets `408` and closes.
                ConnState::Reading => {
                    let resp = Response::error(408, "request timed out");
                    self.queue_response(token, resp, false, false);
                }
                // A peer not reading its response, or one that ignored
                // the linger window, is simply dropped.
                ConnState::Writing(_) | ConnState::Closing { .. } => self.close(token),
                ConnState::Dispatched => {}
            }
        }
    }

    /// Accepts every pending connection (level-triggered listener).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            // Chaos-build injection point: a latency spike at accept.
            if let Some(fault) = tlm_faults::point("serve.accept", &[Kind::Delay]) {
                fault.fire();
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token).is_err() {
                continue;
            }
            self.conns.insert(token, Peer::new(stream, Instant::now()));
            self.metrics.conn_opened();
            self.metrics.phase_enter(ConnPhase::Reading);
            if self.conns.len() > self.config.max_connections {
                // Over the table cap: this connection gets an inline 503
                // and closes; the ones already held are untouched.
                let resp = Response::error(503, "connection limit reached, retry shortly")
                    .with_header("Retry-After", "1");
                self.queue_response(token, resp, false, false);
            }
        }
    }

    /// Discards accumulated wake bytes; the work they announced is
    /// picked up by the completion drain that follows every wait.
    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Routes one readiness event to the connection's state handler.
    fn conn_ready(&mut self, token: u64, mask: u32) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            // The peer is gone in both directions; nothing we write can
            // arrive.
            self.close(token);
            return;
        }
        let state = {
            let conn = self.conns.get(&token).expect("checked above");
            phase_of(&conn.state)
        };
        match state {
            ConnPhase::Reading => {
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    self.read_ready(token);
                }
            }
            ConnPhase::Dispatched => {
                if mask & EPOLLRDHUP != 0 {
                    // Half-close while the worker computes: the response
                    // is still owed and deliverable. Drop the interest so
                    // the level-triggered RDHUP does not busy-loop.
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.half_closed = true;
                    }
                    if !self.set_interest(token, 0) {
                        self.close(token);
                    }
                }
            }
            ConnPhase::Writing => {
                if mask & EPOLLRDHUP != 0 {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.half_closed = true;
                    }
                    if !self.set_interest(token, EPOLLOUT) {
                        self.close(token);
                        return;
                    }
                }
                if mask & EPOLLOUT != 0 {
                    self.write_ready(token);
                }
            }
            ConnPhase::Closing => {
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    self.drain_ready(token);
                }
            }
        }
    }

    /// Reads available bytes, advances the parser, dispatches a
    /// completed request, and handles EOF.
    fn read_ready(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            fill_parser(conn)
        };
        if matches!(outcome, ReadOutcome::Fatal) {
            self.close(token);
            return;
        }
        if matches!(outcome, ReadOutcome::Eof) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.half_closed = true;
            }
        }
        self.advance_parser(token);
        if matches!(outcome, ReadOutcome::Eof) {
            let after_parse = self.conns.get(&token).map(|conn| {
                (matches!(conn.state, ConnState::Reading), conn.interest & !(EPOLLIN | EPOLLRDHUP))
            });
            match after_parse {
                None => {}
                // No complete request pending: a clean keep-alive end
                // (empty parser) or a truncated request — neither owes a
                // response, so the connection closes silently.
                Some((true, _)) => self.close(token),
                Some((false, interest)) if !self.set_interest(token, interest) => {
                    self.close(token);
                }
                Some((false, _)) => {}
            }
        }
    }

    /// Tries to complete one request out of the parser and dispatch it.
    fn advance_parser(&mut self, token: u64) {
        let parsed = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if !matches!(conn.state, ConnState::Reading) {
                return; // a response must finish before the next request
            }
            conn.parser.try_parse(&self.config.limits)
        };
        match parsed {
            Ok(None) => {}
            Ok(Some(request)) => {
                self.metrics.request();
                self.dispatch(token, request);
            }
            Err(e) => {
                let resp = match e {
                    // Only via fault injection (`serve.parse` ShortRead):
                    // the truncated-upload drill closes without a
                    // response, like a real truncated upload.
                    HttpError::Closed => {
                        self.close(token);
                        return;
                    }
                    HttpError::HeaderTooLarge => Response::error(400, "request head too large"),
                    HttpError::BodyTooLarge { declared, limit } => Response::error(
                        413,
                        &format!("body of {declared} bytes exceeds the {limit}-byte limit"),
                    ),
                    HttpError::Malformed(msg) => {
                        Response::error(400, &format!("malformed request: {msg}"))
                    }
                };
                self.queue_response(token, resp, false, false);
            }
        }
    }

    /// Hands a parsed request to the worker pool, or answers `503` when
    /// the queue is full.
    fn dispatch(&mut self, token: u64, request: Request) {
        // `signal::requested()` flips `/readyz` the instant SIGTERM
        // lands, before the daemon's main thread initiates the drain.
        let draining = self.shutdown.load(Ordering::SeqCst) || signal::requested();
        let keep_alive = request.keep_alive;
        let request_id = crate::trace::next_request_id();
        crate::trace::record_for(request_id, "request", "enqueued", request.target.clone());
        if !self.dispatch.push(WorkItem { token, request, draining, request_id }) {
            self.metrics.queue_rejected();
            let resp = Response::error(503, "estimation queue is full, retry shortly")
                .with_header("Retry-After", "1");
            self.queue_response(token, resp, false, false);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.req_keep_alive = keep_alive;
        let interest = if conn.half_closed { 0 } else { EPOLLRDHUP };
        transition(&self.metrics, conn, ConnState::Dispatched);
        if !self.set_interest(token, interest) {
            self.close(token);
        }
    }

    /// Serializes a response's head onto the connection and starts
    /// writing it, followed by the body, which is moved, not copied.
    /// Counts the response; callers must not double-count.
    fn queue_response(&mut self, token: u64, resp: Response, keep: bool, enforce_deadline: bool) {
        self.metrics.response(resp.status);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let head = resp.head(keep).into_bytes();
        conn.last_io = Instant::now();
        let interest = if conn.half_closed { EPOLLOUT } else { EPOLLOUT | EPOLLRDHUP };
        let write = WriteState { head, body: resp.body, off: 0, keep, enforce_deadline };
        transition(&self.metrics, conn, ConnState::Writing(write));
        if !self.set_interest(token, interest) {
            self.close(token);
            return;
        }
        // Optimistic write: small responses usually fit the socket
        // buffer, saving a full epoll round-trip.
        self.write_ready(token);
    }

    /// Writes as much of the pending response as the socket accepts.
    fn write_ready(&mut self, token: u64) {
        enum After {
            Pending,
            Done,
            Close,
        }
        let after = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let request_deadline = conn.req_started + self.config.request_deadline;
            let ConnState::Writing(w) = &mut conn.state else { return };
            if w.enforce_deadline && Instant::now() >= request_deadline {
                // The budget ran out before the response went out: the
                // response is abandoned and the connection closed.
                After::Close
            } else {
                loop {
                    // The head's rest and the body in one call while any
                    // of the head is left, then the body's rest.
                    let written = if w.off < w.head.len() {
                        let parts = [IoSlice::new(&w.head[w.off..]), IoSlice::new(&w.body)];
                        conn.stream.write_vectored(&parts)
                    } else if w.off < w.head.len() + w.body.len() {
                        conn.stream.write(&w.body[w.off - w.head.len()..])
                    } else {
                        break After::Done;
                    };
                    match written {
                        Ok(0) => break After::Close,
                        Ok(n) => {
                            w.off += n;
                            conn.last_io = Instant::now();
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break After::Pending,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break After::Close,
                    }
                }
            }
        };
        match after {
            After::Pending => {}
            After::Close => self.close(token),
            After::Done => self.finish_response(token),
        }
    }

    /// The response is fully written: renew keep-alive, linger-drain, or
    /// close.
    fn finish_response(&mut self, token: u64) {
        let (keep, leftover, half_closed) = {
            let Some(conn) = self.conns.get(&token) else { return };
            let ConnState::Writing(w) = &conn.state else { return };
            (w.keep, !conn.parser.is_empty(), conn.half_closed)
        };
        if keep {
            {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                let now = Instant::now();
                conn.req_started = now;
                conn.last_io = now;
                let interest = if conn.half_closed { 0 } else { EPOLLIN | EPOLLRDHUP };
                transition(&self.metrics, conn, ConnState::Reading);
                if !self.set_interest(token, interest) {
                    self.close(token);
                    return;
                }
            }
            // A pipelined request may already be complete in the parser.
            self.advance_parser(token);
            if let Some(conn) = self.conns.get(&token) {
                if conn.half_closed
                    && matches!(conn.state, ConnState::Reading)
                    && conn.parser.is_empty()
                {
                    // The peer half-closed earlier; its last response is
                    // out and nothing further comes: done.
                    self.close(token);
                }
            }
        } else if leftover && !half_closed {
            // Unread request bytes remain: send our FIN now and drain
            // briefly so the close is clean rather than an RST that
            // could destroy the response in flight.
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let _ = conn.stream.shutdown(Shutdown::Write);
            transition(
                &self.metrics,
                conn,
                ConnState::Closing { until: Instant::now() + CLOSE_LINGER, drained: 0 },
            );
            if !self.set_interest(token, EPOLLIN | EPOLLRDHUP) {
                self.close(token);
            }
        } else {
            self.close(token);
        }
    }

    /// Discards unread bytes during the closing linger; EOF (or the byte
    /// cap) finishes the close.
    fn drain_ready(&mut self, token: u64) {
        let finished = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let ConnState::Closing { drained, .. } = &mut conn.state else { return };
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => break true,
                    Ok(n) => {
                        *drained += n;
                        if *drained > CLOSE_DRAIN_CAP {
                            break true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if finished {
            self.close(token);
        }
    }

    /// A worker finished a request: compute keep-alive and start the
    /// response (or discard it if the connection died meanwhile).
    fn complete(&mut self, done: Completion) {
        crate::trace::record_for(
            done.request_id,
            "request",
            "complete",
            crate::trace::status_detail(done.response.status),
        );
        let Some(conn) = self.conns.get_mut(&done.token) else {
            // The peer hung up while the worker computed. The response
            // is still counted: every handled request counts its status,
            // whether or not the peer is there to read it.
            self.metrics.response(done.response.status);
            return;
        };
        if !matches!(conn.state, ConnState::Dispatched) {
            self.metrics.response(done.response.status);
            return;
        }
        // Keep-alive is not renewed while draining, after a panic, or
        // past the per-connection request budget.
        let keep = !done.panicked
            && conn.req_keep_alive
            && conn.served + 1 < self.config.max_requests_per_conn
            && !self.shutdown.load(Ordering::SeqCst);
        conn.served += 1;
        // Normal responses spend the request's remaining budget; the
        // panic `500` gets a per-op-bounded write of its own (the budget
        // may be what the panic consumed).
        let enforce_deadline = !done.panicked;
        self.queue_response(done.token, done.response, keep, enforce_deadline);
    }

    /// Updates the registered epoll interest if it changed. `false`
    /// means the registration failed and the connection should close.
    fn set_interest(&mut self, token: u64, mask: u32) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        if conn.interest == mask {
            return true;
        }
        if self.epoll.modify(conn.stream.as_raw_fd(), mask, token).is_err() {
            return false;
        }
        conn.interest = mask;
        true
    }

    /// Deregisters and drops a connection.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.del(conn.stream.as_raw_fd());
            self.metrics.phase_leave(phase_of(&conn.state));
            self.metrics.conn_closed();
        }
    }
}

impl Drop for EventLoop {
    /// Closes the dispatch queue however the loop ends, a panic included,
    /// so the workers drain and exit.
    fn drop(&mut self) {
        self.dispatch.close();
    }
}

/// Why a worker thread returned.
enum WorkerExit {
    /// The queue closed and drained — normal shutdown.
    Drained,
    /// A request handler panicked; the worker sent the `500` completion
    /// and exited so the supervisor can replace it with a fresh thread.
    Panicked,
}

/// Keeps one worker slot occupied: spawns a worker thread, joins it, and
/// respawns after a panic (caught or escaped). Exits when the worker
/// drains normally.
#[allow(clippy::too_many_arguments)]
fn supervise_worker(
    index: usize,
    queue: &Arc<DispatchQueue>,
    service: &Arc<Service>,
    metrics: &Arc<Metrics>,
    completions: &mpsc::Sender<Completion>,
    waker: &Arc<UnixStream>,
    config: &ServerConfig,
) {
    loop {
        metrics.worker_started();
        let worker = {
            let queue = Arc::clone(queue);
            let service = Arc::clone(service);
            let metrics = Arc::clone(metrics);
            let completions = completions.clone();
            let waker = Arc::clone(waker);
            let config = config.clone();
            thread::Builder::new()
                .name(format!("tlm-serve-worker-{index}"))
                .spawn(move || {
                    worker_loop(&queue, &service, &metrics, &completions, &waker, &config)
                })
                .expect("worker thread spawns")
        };
        let outcome = worker.join();
        metrics.worker_exited();
        match outcome {
            Ok(WorkerExit::Drained) => return,
            Ok(WorkerExit::Panicked) => metrics.worker_respawn(),
            Err(_) => {
                // The panic escaped the per-request catch (it struck
                // outside the handler); count it and respawn all the same.
                metrics.worker_panic();
                metrics.worker_respawn();
            }
        }
    }
}

/// Pokes the event loop's waker; a full pipe is fine (the loop is
/// already scheduled to wake).
fn wake(waker: &UnixStream) {
    let _ = (&*waker).write(b"w");
}

fn worker_loop(
    queue: &DispatchQueue,
    service: &Service,
    metrics: &Metrics,
    completions: &mpsc::Sender<Completion>,
    waker: &UnixStream,
    config: &ServerConfig,
) -> WorkerExit {
    loop {
        let Some(item) = queue.pop() else {
            return WorkerExit::Drained; // event loop gone and queue drained
        };
        metrics.worker_busy();
        metrics.begin();
        // Attribute everything the handler records (stage transitions)
        // to the dispatched request's ring id.
        let request_id = item.request_id;
        let _trace_current = crate::trace::set_current(request_id);
        let start = Instant::now();
        let handled = catch_unwind(AssertUnwindSafe(|| {
            // Chaos-build injection point: the worker-isolation drill
            // (plus benign latency/allocator faults).
            if let Some(fault) = tlm_faults::point(
                "serve.worker.handle",
                &[Kind::Panic, Kind::Delay, Kind::AllocPressure],
            ) {
                fault.fire();
            }
            service.handle(&item.request, metrics, config.limits.max_body_bytes, item.draining)
        }));
        // Idle before counted: a reader that sees the request handled
        // also sees its worker free.
        metrics.worker_idle();
        metrics.done(start.elapsed());
        match handled {
            Ok(response) => {
                // Chaos-build injection point: a latency spike before
                // the response reaches the wire (stalled delivery).
                if let Some(fault) = tlm_faults::point("serve.response.write", &[Kind::Delay]) {
                    fault.fire();
                }
                let _ = completions.send(Completion {
                    token: item.token,
                    response,
                    panicked: false,
                    request_id,
                });
                wake(waker);
            }
            Err(_) => {
                // Panic isolation: this connection gets `500`, the
                // worker exits, the supervisor respawns it. Other
                // connections never notice.
                metrics.worker_panic();
                crate::trace::record_for(request_id, "worker", "panic", "handler panicked");
                let response = Response::error(500, "internal error: request handling panicked");
                let _ = completions.send(Completion {
                    token: item.token,
                    response,
                    panicked: true,
                    request_id,
                });
                wake(waker);
                return WorkerExit::Panicked;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("writes");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("reads");
        out
    }

    /// The queue-depth gauge and its peak, read off the rendered page.
    fn depth_and_peak(metrics: &Metrics) -> (u64, u64) {
        let page = metrics.render(&Default::default(), &Default::default(), 2);
        let gauge = |name: &str| -> u64 {
            let line = page.lines().find(|l| l.split(' ').next() == Some(name)).expect(name);
            line.rsplit(' ').next().unwrap().parse().expect("numeric")
        };
        (gauge("tlm_serve_queue_depth"), gauge("tlm_serve_queue_depth_peak"))
    }

    #[test]
    fn dispatch_queue_gauges_its_exact_length() {
        let metrics = Arc::new(Metrics::new());
        let queue = DispatchQueue::new(2, Arc::clone(&metrics));
        let item = |token| WorkItem {
            token,
            request: Request {
                method: "GET".to_string(),
                target: "/healthz".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
                keep_alive: false,
            },
            draining: false,
            request_id: 0,
        };
        assert!(queue.push(item(1)));
        assert_eq!(depth_and_peak(&metrics), (1, 1));
        assert!(queue.push(item(2)));
        assert_eq!(depth_and_peak(&metrics), (2, 2));
        assert!(!queue.push(item(3)), "full at capacity");
        assert_eq!(depth_and_peak(&metrics), (2, 2), "a rejected push counts nothing");
        assert_eq!(queue.pop().map(|w| w.token), Some(1));
        assert_eq!(depth_and_peak(&metrics), (1, 2));
        assert!(queue.push(item(4)));
        assert_eq!(depth_and_peak(&metrics), (2, 2), "the peak never exceeds the capacity");
        queue.close();
        assert_eq!(queue.pop().map(|w| w.token), Some(2), "a closed queue still drains");
        assert_eq!(queue.pop().map(|w| w.token), Some(4));
        assert_eq!(depth_and_peak(&metrics), (0, 2));
        assert!(queue.pop().is_none(), "closed and drained");
    }

    fn test_config() -> ServerConfig {
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() }
    }

    #[test]
    fn boots_answers_and_shuts_down() {
        let handle = Server::start(test_config(), Service::new(64)).expect("starts");
        let addr = handle.addr();
        assert!(get(addr, "/healthz").contains("200 OK"));
        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("tlm_serve_requests_total"), "got: {metrics}");
        handle.shutdown();
        // The port no longer accepts new connections once shut down.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn unknown_endpoint_and_wrong_method() {
        let handle = Server::start(test_config(), Service::new(64)).expect("starts");
        let addr = handle.addr();
        assert!(get(addr, "/nope").contains("404"));
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(stream, "GET /estimate HTTP/1.1\r\nConnection: close\r\n\r\n").expect("writes");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("reads");
        assert!(out.contains("405"), "got: {out}");
        assert!(out.contains("Allow: POST"), "got: {out}");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let handle = Server::start(test_config(), Service::new(64)).expect("starts");
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        for _ in 0..3 {
            write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("writes");
            // Read exactly one framed response so the next iteration
            // starts at a response boundary.
            let mut raw = Vec::new();
            while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
                let mut buf = [0u8; 512];
                let n = stream.read(&mut buf).expect("reads");
                assert!(n > 0, "server closed early");
                raw.extend_from_slice(&buf[..n]);
            }
            let header_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("terminator") + 4;
            let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
            assert!(head.contains("200 OK"), "got: {head}");
            assert!(head.contains("Connection: keep-alive"), "got: {head}");
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("length header")
                .trim()
                .parse()
                .expect("numeric length");
            let mut body = raw[header_end..].to_vec();
            while body.len() < len {
                let mut buf = [0u8; 512];
                let n = stream.read(&mut buf).expect("reads body");
                assert!(n > 0, "server closed mid-body");
                body.extend_from_slice(&buf[..n]);
            }
            assert_eq!(body.len(), len, "no bytes beyond the framed body");
        }
        // Close our end so the drain below finds no open connections.
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn connection_cap_answers_inline_503() {
        let config = ServerConfig { max_connections: 1, ..test_config() };
        let handle = Server::start(config, Service::new(64)).expect("starts");
        let addr = handle.addr();
        // Hold one connection open (it occupies the only slot)…
        let held = TcpStream::connect(addr).expect("connects");
        // …then the next one must be declined inline with Retry-After.
        let mut out = String::new();
        let mut declined = TcpStream::connect(addr).expect("connects");
        declined.read_to_string(&mut out).expect("reads");
        assert!(out.contains("503"), "got: {out}");
        assert!(out.contains("Retry-After: 1"), "got: {out}");
        assert!(out.contains("connection limit"), "got: {out}");
        drop(declined);
        drop(held);
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let handle = Server::start(test_config(), Service::new(64)).expect("starts");
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        // Two requests in one write; the second closes the connection.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("writes");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("reads");
        assert_eq!(out.matches("200 OK").count(), 2, "got: {out}");
        assert!(out.contains("Connection: keep-alive"), "got: {out}");
        assert!(out.contains("Connection: close"), "got: {out}");
        handle.shutdown();
    }
}
