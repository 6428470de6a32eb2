//! # rechisel
//!
//! Facade crate of the ReChisel reproduction (DAC 2025, arXiv:2505.19734): re-exports
//! every sub-crate under one roof so that examples, integration tests and downstream
//! users can depend on a single crate.
//!
//! * [`hcl`] — Chisel-like hardware construction language.
//! * [`firrtl`] — FIRRTL-like IR, checking passes, diagnostics and lowering.
//! * [`verilog`] — Verilog emitter.
//! * [`sim`] — cycle-accurate simulator and testbench framework.
//! * [`llm`] — synthetic LLM substrate (model profiles, defect taxonomy).
//! * [`core`] — the ReChisel agentic workflow (reflection + escape mechanism).
//! * [`benchsuite`] — 216-case benchmark suite, Pass@k, experiment runners.
//! * [`autochip`] — the AutoChip direct-Verilog baseline.
//! * [`serve`] — experiment server (line protocol over TCP) that compiles
//!   each suite case's reference once, plus the blocking client.
//!
//! # Quickstart
//!
//! ```
//! use rechisel::hcl::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = ModuleBuilder::new("Inverter");
//! let a = m.input("a", Type::bool());
//! let y = m.output("y", Type::bool());
//! m.connect(&y, &a.not());
//! let circuit = m.into_circuit();
//!
//! assert!(!rechisel::firrtl::check_circuit(&circuit).has_errors());
//! let netlist = rechisel::firrtl::lower_circuit(&circuit)?;
//! let verilog = rechisel::verilog::emit_verilog(&netlist)?;
//! assert!(verilog.contains("module Inverter"));
//! # Ok(())
//! # }
//! ```

pub use rechisel_autochip as autochip;
pub use rechisel_benchsuite as benchsuite;
pub use rechisel_core as core;
pub use rechisel_firrtl as firrtl;
pub use rechisel_hcl as hcl;
pub use rechisel_llm as llm;
pub use rechisel_serve as serve;
pub use rechisel_sim as sim;
pub use rechisel_verilog as verilog;
