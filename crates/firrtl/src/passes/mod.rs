//! Elaboration checking passes.
//!
//! Each pass inspects one [`crate::ir::Module`] (in the context of its
//! [`crate::ir::Circuit`]) and appends [`crate::diagnostics::Diagnostic`]s to a report.
//! The full pipeline is orchestrated by [`crate::pipeline::PassManager`], which
//! elaborates each module once ([`crate::typeenv::Elaborated`]) and hands that one
//! symbol table and width inference to every pass. Each public `check_*` function runs
//! one pass standalone and elaborates the module itself.
//!
//! | Pass | Table II rows covered |
//! |------|-----------------------|
//! | [`connect`] | A1, A2, A3, B2, B4, B5, B6, B7 (+ invalid sinks, unknown modules) |
//! | [`init`] | B3 (+ undriven outputs) |
//! | [`clocking`] | B1, C1 |
//! | [`comb_loop`] | C2 |
//! | [`width`] | width-inference failures |

pub mod clocking;
pub mod comb_loop;
pub mod connect;
pub mod init;
pub mod width;

pub use clocking::check_clocking;
pub use comb_loop::check_combinational_loops;
pub use connect::check_connects;
pub use init::check_initialization;
pub use width::check_widths;
