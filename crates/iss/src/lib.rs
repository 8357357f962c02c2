//! MIPS-like instruction-set architecture, code generation and simulators.
//!
//! This crate provides the reference execution engines the paper compares
//! its timed TLMs against:
//!
//! - [`isa`] — a 32-register RISC instruction set with channel extensions;
//! - [`codegen`] — a back-end from the CDFG IR to the ISA, with linear-scan
//!   register allocation, so instruction counts resemble compiled code;
//! - [`cpu`] — a functional (untimed) core, resumable at channel ops just
//!   like the CDFG interpreter;
//! - [`cache`] — a set-associative cache simulator;
//! - [`branch`] — static and bimodal branch predictors;
//! - [`timing`] — a deliberately coarse per-instruction timing layer that
//!   reproduces the *vendor ISS* of the paper's Table 2 (the one whose
//!   memory modelling loses to the TLM estimates);
//! - [`microarch`] — a cycle-accurate in-order 5-stage timing model with
//!   real caches and a real predictor: the "board measurement" stand-in.
//!
//! # Example
//!
//! ```
//! use tlm_iss::codegen::build_program;
//! use tlm_iss::cpu::{Cpu, CpuExec};
//!
//! let program = tlm_minic::parse("void main() { out(6 * 7); }")?;
//! let module = tlm_cdfg::lower::lower(&program)?;
//! let main = module.function_id("main").expect("main exists");
//! let image = build_program(&module, main, &[])?;
//! let mut cpu = Cpu::new(std::sync::Arc::new(image));
//! assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
//! assert_eq!(cpu.outputs(), [42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod codegen;
pub mod cpu;
pub mod isa;
pub mod microarch;
pub mod timing;
