//! Estimation-as-a-service: an HTTP front end for the TLM estimator.
//!
//! The workspace's estimation engine answers one question per call: *given
//! this platform and this application, what does each basic block cost?*
//! Design-space exploration asks that question many times with small
//! variations, often from tooling that is not written in Rust. This crate
//! wraps the engine in a long-lived service so those callers share one
//! process — and, critically, one artifact pipeline
//! ([`tlm_pipeline::Pipeline`]): parsed sources, lowered modules,
//! Algorithm 1 schedules and finished reports computed for one request are
//! served from memory to every later request that demands them, which is
//! exactly the access pattern of a sweep driven from the outside.
//!
//! The build environment is offline, so there is no tokio/hyper to build
//! on. The server is deliberately simple and fully explicit instead:
//!
//! - [`http`] — a hand-rolled HTTP/1.1 subset with an incremental,
//!   non-blocking request parser and hard caps on every
//!   client-controlled dimension;
//! - [`epoll`] — the one audited `epoll(7)` binding the event loop
//!   stands on;
//! - [`server`] — a readiness-driven event loop owning every socket,
//!   with a bounded worker pool for CPU-bound estimation behind it; when
//!   the dispatch queue is full the loop answers `503` with
//!   `Retry-After` inline instead of buffering without bound;
//! - [`protocol`] — the JSON request/response schema and its evaluation
//!   against the estimation engine; responses are a pure function of the
//!   request, so concurrent clients observe bit-identical bytes;
//! - [`metrics`] — Prometheus text exposition of request counters, a
//!   latency histogram, queue depth, connection-state gauges and
//!   per-stage pipeline counters;
//! - [`trace`] — an always-on, fixed-capacity trace ring recording
//!   request lifecycle states, pipeline-stage cache transitions and
//!   worker panics, exportable per request as Chrome trace JSON
//!   (`GET /trace/{id}`, `POST /estimate?trace=1`);
//! - [`signal`] — SIGINT/SIGTERM latching for graceful drain-then-exit,
//!   with a self-pipe so waiters park instead of polling;
//! - [`client`] — the small blocking HTTP client the integration tests
//!   drive a server with.
//!
//! One binary ships with the crate: `tlm-serve`, the daemon. The serving
//! layer's throughput and latency are measured by the repository
//! benchmark's `serve` workload (`tlmbench`); its caching, backpressure
//! and connection-scaling guarantees are integration tests
//! (`tests/serve_protocol.rs`), and its degradation under injected faults
//! is the faults-armed `tests/fault_campaign.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod epoll;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod trace;

pub use server::{Server, ServerConfig, ServerHandle};
