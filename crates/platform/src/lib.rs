//! Platform modelling and TLM assembly.
//!
//! This crate is the "SystemC wrapper" side of the paper (§4.3): it takes a
//! platform description (PEs, buses, process-to-PE mapping, channel-to-bus
//! binding) plus application processes, and produces an executable
//! transaction-level model on the `tlm-desim` kernel:
//!
//! - a **functional TLM** executes processes and channels with no timing;
//! - a **timed TLM** additionally hands each process's interpreter the
//!   annotated basic-block cycles ([`tlm_core::TimedModule`]), which the
//!   decoded code adds up at every block entry, and applies the total to
//!   simulated time at inter-process transaction boundaries — the paper's
//!   `wait()`/`sc_wait()` mechanism, with user-controllable granularity.
//!
//! Both run through [`tlm::run_annotated`]; the annotation comes from
//! `tlm_pipeline::Pipeline::annotate_design` (which caches it) or, outside
//! a pipeline, from [`tlm::annotate_platform`]. A run interprets its
//! processes ahead of simulated time on every available core and replays
//! their transactions on one desim kernel, so its results do not depend
//! on the thread count (see the [`tlm`] module docs).
//!
//! Processes mapped to the same PE serialize on a shared [`clock::PeClock`]
//! (cooperative scheduling; the optional [`rtos`] model adds
//! context-switch overhead, the paper's future-work extension). Channel
//! transfers reserve their bus for `sync + words × per_word` cycles,
//! following the abstract bus channel model the paper builds on (its
//! reference \[16\]).
//!
//! # Example
//!
//! ```
//! use tlm_platform::desc::PlatformBuilder;
//! use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig};
//!
//! let producer = tlm_cdfg::lower::lower(&tlm_minic::parse(
//!     "void main() { for (int i = 0; i < 4; i++) { ch_send(0, i * i); } }",
//! )?)?;
//! let consumer = tlm_cdfg::lower::lower(&tlm_minic::parse(
//!     "void main() { for (int i = 0; i < 4; i++) { out(ch_recv(0)); } }",
//! )?)?;
//!
//! let mut builder = PlatformBuilder::new("demo");
//! let cpu = builder.add_pe("cpu", tlm_core::library::microblaze_like(8192, 4096));
//! let hw = builder.add_pe("hw", tlm_core::library::custom_hw("hw", 2, 1));
//! builder.add_process("producer", &producer, "main", &[], cpu)?;
//! builder.add_process("consumer", &consumer, "main", &[], hw)?;
//! let platform = builder.build()?;
//!
//! // Functional TLM: no annotation, zero simulated time.
//! let functional = run_annotated(&platform, None, &TlmConfig::default());
//! assert_eq!(functional.end_time, tlm_desim::SimTime::ZERO);
//! // Timed TLM: every process annotated with its PE's PUM.
//! let annotated = annotate_platform(&platform)?;
//! let report = run_annotated(&platform, Some(&annotated), &TlmConfig::default());
//! assert_eq!(report.outputs["consumer"], vec![0, 1, 4, 9]);
//! assert!(report.end_time > tlm_desim::SimTime::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod desc;
pub mod json;
pub mod rtos;
pub mod tlm;

pub use desc::{Platform, PlatformBuilder};
pub use tlm::{TlmConfig, TlmReport};
