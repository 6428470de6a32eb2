//! # rechisel-firrtl
//!
//! A FIRRTL-like intermediate representation with elaboration checks, diagnostics, and
//! lowering to a flat netlist — the "Compiler" substrate of the ReChisel reproduction
//! (step ❷ of the workflow in the paper's Fig. 2).
//!
//! The crate provides:
//!
//! * [`ir`] — the circuit/module/statement/expression data structures.
//! * [`diagnostics`] — structured compiler feedback ([`Diagnostic`]) with an
//!   [`ErrorCode`] taxonomy matching the paper's Table II.
//! * [`typeenv`] — elaboration ([`Elaborated`]: one module's symbol table and inferred
//!   widths, built once per module and shared by every check pass and by lowering) and
//!   expression typing.
//! * [`passes`] and [`check`] — the checking pipeline (typing, initialization, clock and
//!   reset inference, combinational-loop detection, width inference).
//! * [`lower`] — lowering of checked circuits to a flat, ground-typed [`Netlist`]
//!   consumed by the simulator and the Verilog emitter.
//! * [`pipeline`] — the compile [`Pipeline`]: [`Pipeline::run`] checks, lowers and
//!   emits a borrowed circuit (`Circuit → Netlist + emitted output`, or the
//!   diagnostics) through its named-pass [`PassManager`] and the pluggable
//!   [`EmitBackend`] seam.
//! * [`fingerprint`] — the process-stable circuit [`Fingerprint`]; the located
//!   fingerprint keys each revision in `rechisel_core::EvalMemo`.
//! * [`incremental`] — the outcome types of `rechisel_core::IncrementalCompiler`,
//!   kept only so perfbench compiles.
//! * [`printer`] — FIRRTL-flavoured and pseudo-Chisel pretty-printers.
//!
//! # Example
//!
//! ```
//! use rechisel_firrtl::ir::{
//!     Circuit, Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type,
//! };
//! use rechisel_firrtl::{check_circuit, lower_circuit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Module::new("Pass", ModuleKind::Module);
//! m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
//! m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
//! m.ports.push(Port::new("in", Direction::Input, Type::uint(8)));
//! m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
//! m.body.push(Statement::Connect {
//!     loc: Expression::reference("out"),
//!     expr: Expression::reference("in"),
//!     info: SourceInfo::unknown(),
//! });
//! let circuit = Circuit::single(m);
//!
//! let report = check_circuit(&circuit);
//! assert!(!report.has_errors());
//!
//! let netlist = lower_circuit(&circuit)?;
//! assert_eq!(netlist.defs.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod diagnostics;
pub mod fingerprint;
pub mod incremental;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod paths;
pub mod pipeline;
pub mod printer;
pub mod typeenv;

pub use check::check_circuit;
pub use diagnostics::{Diagnostic, DiagnosticReport, ErrorCode, Severity};
pub use fingerprint::Fingerprint;
pub use incremental::{RebuildReason, RecompileOutcome};
pub use ir::{Circuit, Expression, Module, ModuleKind, Port, PrimOp, SourceInfo, Statement, Type};
pub use lower::{lower_circuit, NetDef, NetMem, NetMemWrite, NetPort, NetReg, Netlist, SignalInfo};
pub use pipeline::{EmitBackend, FirrtlBackend, Pass, PassManager, Pipeline};
pub use printer::{print_chisel, print_chisel_module, print_firrtl};
pub use typeenv::Elaborated;
