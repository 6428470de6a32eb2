//! How the reflection loop's recompiler classifies each revision it compiles.
//!
//! Each session of the reflection loop owns a `rechisel_core::IncrementalCompiler`
//! that keeps the netlist and tape of the last revision that compiled, together with
//! that revision's [`Fingerprint`](crate::Fingerprint). It applies one reuse rule:
//!
//! * a revision with the same fingerprint reuses them ([`RecompileOutcome::Identical`]);
//! * any other revision runs the from-scratch pipeline
//!   ([`RecompileOutcome::FullRebuild`]).
//!
//! A revision that fails to compile leaves the kept revision untouched.

/// Why a revision ran the from-scratch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// No earlier revision of the session compiled.
    FirstRevision,
    /// The fingerprint differs from the last revision that compiled.
    Changed,
}

/// How a revision was compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecompileOutcome {
    /// Same fingerprint as the last revision that compiled: its netlist and tape
    /// were reused.
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
