//! # rechisel-sim
//!
//! A cycle-accurate RTL simulator and testbench framework over the lowered netlists of
//! `rechisel-firrtl` — the "Simulator" external tool of the ReChisel workflow (step ❸
//! of the paper's Fig. 2).
//!
//! The crate provides:
//!
//! * [`SimEngine`] — the one surface of both execution engines, selectable via
//!   [`EngineKind`]: [`Simulator`] (tree-walking interpreter, the semantic reference)
//!   and [`CompiledSimulator`] (a levelized instruction [`Tape`] with slot-indexed
//!   state — no hashing or allocation per cycle, typically an order of magnitude
//!   faster; compile once, simulate many; the default). Each engine supplies only its
//!   kernels (resolve and drive a port, peek, evaluate, one edge primitive, its
//!   outputs and memory words); the trait's provided methods hold every rule the two
//!   must agree on — `poke`, the stepping and reset methods with their clock-domain
//!   checks, `outputs`, `peek_mem` and `poke_mem` — once. Import the trait to drive
//!   either engine.
//! * [`Testbench`] / [`FunctionalPoint`] — stimulus description, including seeded random
//!   stimulus generation.
//! * [`run_testbench`] — DUT-vs-reference comparison producing the [`SimReport`]
//!   whose [`PointFailure`]s become the "functional error" feedback consumed by the
//!   ReChisel Reviewer agent. It interns the testbench's input names ([`Stimulus`]),
//!   records the reference's outputs as a flat [`OutputTrace`]
//!   ([`record_reference_trace`]) and compares the DUT against them
//!   ([`run_testbench_against_trace`]), the pieces a caller that tests many DUTs
//!   against one reference, on either engine, keeps and reuses.
//! * Compact failures: the runner binds each input name to a DUT port once per run
//!   ([`SimEngine::input_port`]) and compares output values in place, and a
//!   [`PointFailure`] holds its point index, its trace row and the DUT's values. Names,
//!   inputs and expected values are rendered ([`PortValues`]) from the stimulus and
//!   trace that the failures of a run share.
//!
//! # Example
//!
//! ```
//! use rechisel_hcl::prelude::*;
//! use rechisel_sim::{run_testbench, Testbench};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let build = |name: &str| {
//!     let mut m = ModuleBuilder::new(name);
//!     let a = m.input("a", Type::uint(4));
//!     let out = m.output("out", Type::uint(4));
//!     m.connect(&out, &a.not().bits(3, 0));
//!     rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap()
//! };
//! let dut = build("Dut");
//! let reference = build("Ref");
//! let tb = Testbench::random_for(&reference, 16, 0, 1);
//! let report = run_testbench(&dut, &reference, &tb)?;
//! assert!(report.passed());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compiled;
pub mod engine;
pub mod eval;
pub mod schedule;
pub mod simulator;
pub mod testbench;

pub use compiled::{CompiledSimulator, Tape};
pub use engine::{EngineKind, InputPort, SimEngine};
pub use eval::{apply_prim, eval_expr, EvalError, EvalValue};
pub use schedule::{Edge, EdgeQueue};
pub use simulator::{SimError, Simulator};
pub use testbench::{
    record_reference_trace, run_testbench, run_testbench_against_trace, FunctionalPoint,
    OutputTrace, PointFailure, PortValues, SimReport, Stimulus, Testbench,
};
