//! Control/data flow graph IR for the estimation tool chain.
//!
//! The paper's flow (Fig. 2/3) parses each application C process into a
//! CDFG; every basic block's DFG is then scheduled onto the processing unit
//! model. This crate provides that IR:
//!
//! - [`ir`] — the module/function/block/operation data structures and
//!   their op census,
//! - [`lower`] — lowering from the `tlm-minic` AST,
//! - [`dfg`] — per-basic-block data-dependence edges (the DFG of Alg. 1)
//!   and the canonical schedule key of a block,
//! - [`passes`] — constant folding and dead-op elimination,
//! - [`interp`] — a resumable interpreter used as the functional execution
//!   engine of both the functional and the timed TLM,
//! - [`profile`] — block-frequency profiling on top of the interpreter.
//!
//! # Example
//!
//! ```
//! use tlm_cdfg::interp::{Exec, Machine, NoopHook};
//!
//! let program = tlm_minic::parse(
//!     "int twice(int x) { return x + x; } void main() { out(twice(21)); }",
//! )?;
//! let module = tlm_cdfg::lower::lower(&program)?;
//! let main = module.function_id("main").expect("main exists");
//! let mut machine = Machine::new(&module, main, &[]);
//! assert_eq!(machine.run(&mut NoopHook), Exec::Done);
//! assert_eq!(machine.outputs(), [42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dfg;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod profile;

pub use ir::{ArrayId, BlockId, ChanId, FuncId, Module, OpClass, OpId, VReg};
