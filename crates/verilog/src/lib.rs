//! # rechisel-verilog
//!
//! Verilog emitter for the ReChisel reproduction. The Chisel-like designs built with
//! `rechisel-hcl` are checked and lowered by `rechisel-firrtl`; this crate writes the
//! lowered netlist as synthesizable Verilog text in one walk — the artifact that the
//! ReChisel workflow hands to the simulator as the device under test, and the output a
//! user of the original system would ultimately consume.
//!
//! There is no Verilog syntax tree: [`emit_verilog`] writes the text directly. Code
//! that called `emit_netlist(n)?.to_verilog()` calls `emit_verilog(n)`; the `V*`
//! tree types have no replacement.
//!
//! # Example
//!
//! ```
//! use rechisel_hcl::prelude::*;
//! use rechisel_verilog::emit_verilog;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = ModuleBuilder::new("Inverter");
//! let a = m.input("a", Type::bool());
//! let y = m.output("y", Type::bool());
//! m.connect(&y, &a.not());
//! let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit())?;
//! let verilog = emit_verilog(&netlist)?;
//! assert!(verilog.contains("module Inverter"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod emit;

pub use backend::VerilogBackend;
pub use emit::{emit_verilog, EmitError};
