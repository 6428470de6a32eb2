//! How `rechisel_core::IncrementalCompiler` classifies each revision it compiles.
//!
//! The module is kept only so perfbench compiles: its traced replay runs each
//! session's chain through an `IncrementalCompiler` and counts these outcomes.
//! Sessions evaluate through `rechisel_core::EvalMemo` instead, which also skips
//! the simulation of a repeat.
//!
//! An `IncrementalCompiler` remembers every revision it compiled, rejected ones
//! included, under the revision's
//! [`Circuit::located_fingerprint`](crate::Circuit::located_fingerprint) (the
//! structural fingerprint plus every source location). It applies one rule:
//!
//! * a revision whose key an earlier revision compiled under reuses that revision's
//!   netlist, tape and Verilog ([`RecompileOutcome::Identical`]);
//! * a revision whose key an earlier revision was rejected under gets that
//!   revision's diagnostics back, without running a check pass;
//! * any other revision runs the from-scratch pipeline
//!   ([`RecompileOutcome::FullRebuild`]), and the memo remembers the result.

/// Why a revision ran the from-scratch pipeline. Kept only so perfbench compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// No earlier revision compiled through the same `IncrementalCompiler`.
    FirstRevision,
    /// An earlier revision compiled, but none under this located fingerprint.
    Changed,
}

/// How a revision was compiled. Kept only so perfbench compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecompileOutcome {
    /// Same located fingerprint as an earlier revision that compiled through the
    /// same `IncrementalCompiler`: its netlist, tape and Verilog were reused.
    Identical,
    /// Retired, never produced. Kept only so the `perfbench` package, which
    /// matches on it, still compiles.
    Patched,
    /// Retired, never produced. Kept only so the `perfbench` package, which
    /// matches on it, still compiles.
    ScopedCheck,
    /// The from-scratch pipeline ran.
    FullRebuild(RebuildReason),
}
