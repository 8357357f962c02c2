//! Always-on request trace ring.
//!
//! The waveform-equivalent for the serving tier: one process-wide,
//! fixed-capacity ring records request lifecycle states, pipeline-stage
//! cache transitions and worker panics, attributed to a per-request
//! id carried in a thread-local. Recording is cheap enough to stay on in
//! production — the ring is split into per-thread shards so recording
//! threads (the event loop, each worker) never contend on one lock, and
//! fixed details (`hit`/`miss`) are `Cow::Borrowed`, so the hot stage
//! events allocate nothing. Bounded: a full shard overwrites its oldest
//! entry and bumps a drop counter exported on `/metrics`
//! (`tlm_serve_trace_events_total` / `tlm_serve_trace_dropped_total`).
//!
//! Export is opt-in and out-of-band so the determinism contract holds:
//! normal responses carry no trace artifacts. `POST /estimate?trace=1`
//! answers the request's events as Chrome trace JSON (with the assigned
//! request id), and `GET /trace/{id}` re-exports any id still resident
//! in the ring. Load the JSON in `chrome://tracing` / Perfetto.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Total ring capacity in events. At ~10 events per request this keeps
/// the last few hundred requests inspectable.
pub const RING_CAPACITY: usize = 8192;

/// Lock shards. Threads are assigned round-robin at first record, so
/// the event loop and each pool worker write to distinct shards and the
/// hot path never blocks on another thread's push.
const SHARDS: usize = 4;
const SHARD_CAPACITY: usize = RING_CAPACITY / SHARDS;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotonic sequence number (global order).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub micros: u64,
    /// Owning request id; `0` = not attributed to a request.
    pub request: u64,
    /// Category: `request`, `stage` or `worker`.
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Free-form detail; borrowed for the fixed hot-path strings.
    pub detail: Cow<'static, str>,
}

struct Ring {
    start: Instant,
    shards: [Mutex<RingBuf>; SHARDS],
    /// Also the recorded-events counter: one increment per record call.
    seq: AtomicU64,
    dropped: AtomicU64,
    next_request: AtomicU64,
    next_shard: AtomicUsize,
}

struct RingBuf {
    entries: Vec<TraceEvent>,
    /// Index of the oldest entry once the shard has wrapped.
    head: usize,
}

static RING: OnceLock<Ring> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        start: Instant::now(),
        shards: std::array::from_fn(|_| Mutex::new(RingBuf { entries: Vec::new(), head: 0 })),
        seq: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        next_request: AtomicU64::new(1),
        next_shard: AtomicUsize::new(0),
    })
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's shard index, `usize::MAX` until assigned.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard_index() -> usize {
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = ring().next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(idx);
        }
        idx
    })
}

/// Allocates a fresh request id (never `0`).
pub fn next_request_id() -> u64 {
    ring().next_request.fetch_add(1, Ordering::Relaxed)
}

/// The request id events on this thread attribute to; `0` when none.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Restores the previous thread-local request id on drop.
#[derive(Debug)]
pub struct CurrentGuard {
    prev: u64,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Attributes subsequent events on this thread to `request` until the
/// guard drops.
#[must_use]
pub fn set_current(request: u64) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(request));
    CurrentGuard { prev }
}

/// The current request id, or a freshly assigned one (with a guard to
/// install it) when this thread has none — the direct-call path (unit
/// tests) where no event loop assigned an id upstream.
pub fn ensure_current() -> (u64, Option<CurrentGuard>) {
    let cur = current();
    if cur != 0 {
        (cur, None)
    } else {
        let id = next_request_id();
        (id, Some(set_current(id)))
    }
}

/// Records one event attributed to the thread's current request.
pub fn record(cat: &'static str, name: &'static str, detail: impl Into<Cow<'static, str>>) {
    record_for(current(), cat, name, detail);
}

/// Records one event attributed to an explicit request id.
pub fn record_for(
    request: u64,
    cat: &'static str,
    name: &'static str,
    detail: impl Into<Cow<'static, str>>,
) {
    let ring = ring();
    let event = TraceEvent {
        seq: ring.seq.fetch_add(1, Ordering::Relaxed),
        micros: u64::try_from(ring.start.elapsed().as_micros()).unwrap_or(u64::MAX),
        request,
        cat,
        name,
        detail: detail.into(),
    };
    let mut buf = ring.shards[shard_index()].lock().expect("trace ring poisoned");
    if buf.entries.len() < SHARD_CAPACITY {
        buf.entries.push(event);
    } else {
        let head = buf.head;
        buf.entries[head] = event;
        buf.head = (head + 1) % SHARD_CAPACITY;
        ring.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Total events recorded since process start.
pub fn recorded() -> u64 {
    ring().seq.load(Ordering::Relaxed)
}

/// Events overwritten because their shard of the ring was full.
pub fn dropped() -> u64 {
    ring().dropped.load(Ordering::Relaxed)
}

/// `"status NNN"` detail for a response, borrowed for the statuses the
/// server actually emits so the per-request end/complete events stay
/// allocation-free.
pub fn status_detail(status: u16) -> Cow<'static, str> {
    match status {
        200 => Cow::Borrowed("status 200"),
        400 => Cow::Borrowed("status 400"),
        404 => Cow::Borrowed("status 404"),
        405 => Cow::Borrowed("status 405"),
        413 => Cow::Borrowed("status 413"),
        500 => Cow::Borrowed("status 500"),
        503 => Cow::Borrowed("status 503"),
        other => Cow::Owned(format!("status {other}")),
    }
}

/// Installs the pipeline stage observer that mirrors cache transitions
/// into the ring. Idempotent; called on every `Service` construction.
pub fn install_stage_observer() {
    tlm_pipeline::set_stage_observer(|stage, hit| {
        record("stage", stage, if hit { "hit" } else { "miss" });
    });
}

/// Exports the resident events of one request as Chrome trace JSON
/// (instant events, `ts` in microseconds). Returns `None` when the ring
/// holds no events for `request` — never recorded, or already
/// overwritten.
pub fn export_chrome(request: u64) -> Option<String> {
    let mut events: Vec<TraceEvent> = Vec::new();
    for shard in &ring().shards {
        let buf = shard.lock().expect("trace ring poisoned");
        events.extend(buf.entries.iter().filter(|e| e.request == request).cloned());
    }
    if events.is_empty() {
        return None;
    }
    events.sort_unstable_by_key(|e| e.seq);
    let mut out = String::with_capacity(events.len() * 96);
    let _ = write!(out, "{{\"request\":{request},\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}:{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"seq\":{},\"detail\":",
            e.cat, e.name, e.cat, e.micros, e.request, e.seq
        );
        tlm_json::write_string(&mut out, &e.detail);
        out.push_str("}}");
    }
    out.push_str("]}\n");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_attribute_to_the_current_request() {
        let id = next_request_id();
        let guard = set_current(id);
        record("request", "begin", "GET /x");
        record("stage", "ast", "miss");
        drop(guard);
        record("request", "unattributed", "");
        let json = export_chrome(id).expect("events resident");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("stage:ast"));
        assert!(json.contains(&format!("\"request\":{id}")));
        assert!(!json.contains("unattributed"));
    }

    #[test]
    fn export_of_unknown_request_is_none() {
        assert!(export_chrome(u64::MAX).is_none());
    }

    #[test]
    fn ensure_current_assigns_once() {
        let (id, guard) = ensure_current();
        assert_ne!(id, 0);
        assert!(guard.is_some(), "no upstream id: freshly assigned");
        let (inner, inner_guard) = ensure_current();
        assert_eq!(inner, id, "nested call reuses the installed id");
        assert!(inner_guard.is_none());
        drop(inner_guard);
        drop(guard);
    }

    #[test]
    fn detail_is_json_escaped() {
        let id = next_request_id();
        let _guard = set_current(id);
        record("request", "begin", "quote \" slash \\ tab \t");
        let json = export_chrome(id).expect("resident");
        assert!(json.contains("quote \\\" slash \\\\ tab \\t"));
    }

    #[test]
    fn counters_move() {
        let before = recorded();
        record_for(0, "worker", "test", "");
        assert!(recorded() > before);
        let _ = dropped();
    }

    #[test]
    fn export_merges_events_across_thread_shards() {
        // Events for one request recorded from different threads land in
        // different shards; export must merge them back in seq order.
        let id = next_request_id();
        let _guard = set_current(id);
        record("request", "begin", "multi-thread");
        std::thread::scope(|scope| {
            for _ in 0..SHARDS {
                scope.spawn(|| {
                    let _guard = set_current(id);
                    record("worker", "touch", "");
                });
            }
        });
        record("request", "end", "multi-thread");
        let json = export_chrome(id).expect("resident");
        assert_eq!(json.matches("worker:touch").count(), SHARDS);
        let begin = json.find("request:begin").expect("begin present");
        let end = json.find("request:end").expect("end present");
        assert!(begin < end, "seq order preserved across shards");
    }
}
