//! Cycle-approximate retargetable performance estimation at the transaction
//! level — the estimation engine of the paper (Hwang, Abdi, Gajski,
//! DATE 2008).
//!
//! Given an application process as a CDFG (`tlm-cdfg`) and a **Processing
//! Unit Model** ([`pum::Pum`]) describing the PE it is mapped to, this crate
//! computes a cycle-approximate delay for every basic block:
//!
//! 1. [`schedule`] implements **Algorithm 1 (Optimistic Scheduling)**: the
//!    block's DFG is simulated cycle by cycle on the PUM's pipelines,
//!    assuming 100 % cache hits and perfect branch prediction.
//! 2. [`delay`] implements **Algorithm 2**: statistical cache-miss and
//!    branch-misprediction terms are added from the PUM's memory and branch
//!    models.
//! 3. [`annotate`] attaches the delays to the module, producing a
//!    [`annotate::TimedModule`] that the TLM assembly (`tlm-platform`)
//!    consumes, and [`emit`] renders the paper's "timed C" view of it.
//!    [`annotate::annotate_in_domain`] runs the module as one dedup batch
//!    through a [`ScheduleCache`], so a sweep over statistical models
//!    solves Algorithm 1 once per (datapath, block) pair;
//!    [`annotate::annotate_uncached`] is the per-block form.
//!
//! Retargetability comes from the PUM being *data*: [`library`] provides
//! built-in models (a MicroBlaze-like soft core, non-pipelined custom HW, a
//! 2-issue superscalar, ...) and every model serializes to/from JSON.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use tlm_core::annotate::{annotate_in_domain, PreparedModule};
//! use tlm_core::cache::{ScheduleCache, ScheduleDomain};
//! use tlm_core::library;
//!
//! let program = tlm_minic::parse(
//!     "int acc(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }",
//! )?;
//! let module = tlm_cdfg::lower::lower(&program)?;
//! let prepared = PreparedModule::new(Arc::new(module));
//! let cache = ScheduleCache::new();
//! let pum = library::microblaze_like(8 * 1024, 4 * 1024);
//! let timed = annotate_in_domain(&prepared, &pum, &cache.domain(&ScheduleDomain::of(&pum)))?;
//! // Every basic block now carries an estimated cycle delay.
//! assert!(timed.total_annotated_blocks() > 0);
//! // A second cache size on the same datapath reuses every schedule.
//! let larger = library::microblaze_like(32 * 1024, 16 * 1024);
//! let swept =
//!     annotate_in_domain(&prepared, &larger, &cache.domain(&ScheduleDomain::of(&larger)))?;
//! assert_eq!(swept.report().cache_misses, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod batch;
pub mod cache;
pub mod characterize;
pub mod delay;
pub mod emit;
mod error;
pub mod library;
pub mod parallel;
pub mod pum;
#[cfg(feature = "reference-kernel")]
pub mod reference;
pub mod report;
pub mod schedule;
pub mod store;

pub use annotate::TimedModule;
pub use cache::ScheduleCache;
pub use error::EstimateError;
pub use pum::Pum;

/// Compile-time thread-safety audit. The serving layer (`tlm-serve`)
/// shares one [`ScheduleCache`] across a worker pool and hands
/// [`annotate::PreparedModule`]s, [`Pum`]s and results between threads;
/// these assertions turn an accidental `Rc`/`RefCell`/raw-pointer
/// regression in any of those types into a build error instead of a
/// runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScheduleCache>();
    assert_send_sync::<cache::ScheduleDomain>();
    assert_send_sync::<store::StoreStats>();
    assert_send_sync::<annotate::PreparedModule>();
    assert_send_sync::<TimedModule>();
    assert_send_sync::<Pum>();
    assert_send_sync::<EstimateError>();
    assert_send_sync::<delay::BlockDelay>();
    assert_send_sync::<delay::MemoryCosts>();
};
