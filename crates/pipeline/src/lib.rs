//! Demand-driven, content-addressed artifact pipeline over the estimation
//! flow.
//!
//! The paper's flow is fixed — C source → CDFG → Algorithm 1 schedule →
//! Algorithm 2 statistical delay → annotated TLM → report — and every
//! stage is a pure function of its inputs. This crate turns that flow
//! into one stage graph with typed, fingerprint-keyed artifacts
//! ([`graph`]). Every stage is a `tlm_core::store::Store` — the same
//! exactly-once, full-key, second-chance store the Algorithm 1 schedule
//! cache keeps per domain. A cache-size sweep then reuses everything above
//! Algorithm 2; a platform edit reuses every untouched process's
//! artifacts end-to-end; a warm server answers repeat requests from the
//! report stage without touching any upstream stage.
//!
//! Entry points:
//! - [`Pipeline`] — the stage graph; [`Pipeline::global`] for the
//!   process-wide instance.
//! - [`DesignBuilder`] / [`PreparedDesign`] — platforms whose processes
//!   are lowered through the shared front-end.
//! - [`PipelineError`] — the one error type every stage resolves to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod error;
pub mod graph;
pub mod observe;
pub mod report;
pub mod routing;

pub use design::{DesignBuilder, PreparedDesign};
pub use error::PipelineError;
pub use graph::{ModuleArtifact, Pipeline, PipelineStats};
pub use observe::set_stage_observer;
pub use report::EstimateReport;
pub use tlm_core::store::StoreStats;

// Compile-time audit: the pipeline and everything it hands out must be
// shareable across threads (serve workers, bench fan-out).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pipeline>();
    assert_send_sync::<ModuleArtifact>();
    assert_send_sync::<PreparedDesign>();
    assert_send_sync::<PipelineError>();
    assert_send_sync::<EstimateReport>();
};
