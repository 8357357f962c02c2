//! Pin/Cycle-Accurate Model (PCAM) — the reproduction's "board".
//!
//! The paper validates its TLM estimates against on-board measurements of a
//! Xilinx FPGA system and reports PCAM (RTL-level) simulation times. With
//! no board available, this crate provides the cycle-accurate golden model
//! that plays both roles:
//!
//! - [`engine`] — per-PE execution engines: the cycle-accurate
//!   [`tlm_iss::microarch::MicroArch`] core for processors, a scheduled-FSM
//!   sequencer for custom hardware, and the deliberately coarse vendor-ISS
//!   timing for the Table-2 baseline;
//! - [`board`] — full-platform co-simulation: engines run between
//!   transaction boundaries, their *measured* (not estimated) cycles are
//!   applied to PE clocks, and transfers reserve the bus.
//!
//! The board simulation is the ground truth of Tables 2 and 3 and the
//! "PCAM" row of Table 1; it also produces the per-PE cache/branch counters
//! that characterize the statistical PUM models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod engine;

pub use board::{run_board, run_iss, BoardConfig, BoardReport};
