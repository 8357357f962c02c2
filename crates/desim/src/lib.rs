//! A small, deterministic, single-threaded discrete-event simulation kernel.
//!
//! This crate plays the role SystemC plays in the paper: it provides
//! simulated time, events, resumable processes, delta cycles and one
//! blocking channel, the bounded [`Fifo`] that carries every TLM
//! transaction. It holds only what `tlm-platform` uses. Timed TLMs built
//! there run on this kernel and apply their accumulated basic-block
//! delays with [`Resume::WaitTime`] at transaction boundaries (the
//! `sc_wait` of the paper, §4.3). Bus and PE contention is modelled by
//! `tlm-platform`'s clocks, not by kernel primitives.
//!
//! # Example
//!
//! ```
//! use tlm_desim::{Kernel, Resume, SimTime};
//!
//! let mut kernel = Kernel::new();
//! kernel.spawn_fn("timer", move |ctx| {
//!     if ctx.time() == SimTime::ZERO {
//!         Resume::WaitTime(SimTime::from_ns(5))
//!     } else {
//!         Resume::Finish
//!     }
//! });
//! let report = kernel.run();
//! assert_eq!(report.end_time, SimTime::from_ns(5));
//! ```
//!
//! The kernel is strictly single-threaded and allocates no OS resources, so
//! simulations are bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod event;
mod kernel;
mod process;
mod time;

pub use channel::Fifo;
pub use event::EventId;
pub use kernel::{Ctx, Kernel, RunReport, StopReason};
pub use process::{Process, ProcessId, Resume};
pub use time::SimTime;
