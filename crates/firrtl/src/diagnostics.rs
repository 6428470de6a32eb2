//! Diagnostics produced by the elaboration / checking passes.
//!
//! ReChisel's reflection loop is driven by *structured compiler feedback*: each error has
//! a location, a description of the cause, and (when the compiler can tell) a suggested
//! fix (paper Fig. 3). The [`Diagnostic`] type captures exactly that triple, plus an
//! [`ErrorCode`] that maps the error onto the paper's Table II taxonomy so that the
//! common-error knowledge base (in-context learning, §IV-B) can key off it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ir::SourceInfo;

/// Stable machine-readable error codes.
///
/// The `A*`/`B*`/`C*` codes correspond one-to-one to the rows of Table II in the
/// ReChisel paper ("Common syntax errors in LLM-generated Chisel code"). The remaining
/// codes cover checks that the paper folds into the same categories (e.g. multiple
/// drivers of an output port, as in the Fig. 8 case study) plus generic infrastructure
/// errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ErrorCode {
    // --- A. Structural errors -------------------------------------------------------
    /// A1: misspelled identifier / reference to an undeclared name.
    UnknownReference,
    /// A2: mixed Scala/Chisel syntax (e.g. `asInstanceOf` on hardware values).
    ScalaChiselMixup,
    /// A3: incorrect invocation of a function or method (wrong arity).
    BadInvocation,

    // --- B. Signal definition, usage and typing errors -------------------------------
    /// B1: abstract reset type that could not be inferred.
    AbstractResetNotInferred,
    /// B2: interface signal not wrapped in `IO(...)` (bare Chisel type used as
    /// hardware).
    BareChiselType,
    /// B3: wire signal not (fully) initialized.
    NotFullyInitialized,
    /// B4: bundle connection mismatch (sink and source records differ).
    BundleFieldMismatch,
    /// B5: signal type mismatch (e.g. `Bool` where `UInt` is required).
    TypeMismatch,
    /// B6: unsupported signal type conversion or cast.
    UnsupportedCast,
    /// B7: out-of-bounds access on an array-type signal.
    IndexOutOfBounds,

    // --- C. Miscellaneous errors ----------------------------------------------------
    /// C1: register without an implicit clock in a multi-clock (raw) module.
    NoImplicitClock,
    /// C2: combinational cycle.
    CombinationalLoop,

    // --- Additional structural checks -----------------------------------------------
    /// Multiple drivers of an IO port outside conditional scopes (the Fig. 8 case-study
    /// error: "multiple conflicting assignments ... violate single static assignment").
    MultipleDrivers,
    /// Width inference failed (uninferrable or contradictory widths).
    WidthInferenceFailure,
    /// An output port is never driven.
    UndrivenOutput,
    /// A sink that is not connectable (e.g. connecting to an input port from inside).
    InvalidSink,
    /// Dynamic index is wider than necessary or not an unsigned integer.
    InvalidIndexType,
    /// Instantiated module does not exist in the circuit.
    UnknownModule,
    /// A name is declared more than once in the same module.
    DuplicateDeclaration,
    /// The circuit has no top module or the top module is missing.
    MissingTopModule,
}

impl ErrorCode {
    /// The Table II row label (`"A1"`, `"B3"`, ...) when the code corresponds to a row
    /// of the paper's taxonomy, or a stable internal label otherwise.
    pub fn taxonomy_label(self) -> &'static str {
        use ErrorCode::*;
        match self {
            UnknownReference => "A1",
            ScalaChiselMixup => "A2",
            BadInvocation => "A3",
            AbstractResetNotInferred => "B1",
            BareChiselType => "B2",
            NotFullyInitialized => "B3",
            BundleFieldMismatch => "B4",
            TypeMismatch => "B5",
            UnsupportedCast => "B6",
            IndexOutOfBounds => "B7",
            NoImplicitClock => "C1",
            CombinationalLoop => "C2",
            MultipleDrivers => "X1",
            WidthInferenceFailure => "X2",
            UndrivenOutput => "X3",
            InvalidSink => "X4",
            InvalidIndexType => "X5",
            UnknownModule => "X6",
            DuplicateDeclaration => "X7",
            MissingTopModule => "X8",
        }
    }

    /// True if the code corresponds to a row of the paper's Table II taxonomy.
    pub fn in_paper_taxonomy(self) -> bool {
        !self.taxonomy_label().starts_with('X')
    }

    /// All codes, in taxonomy order.
    pub fn all() -> &'static [ErrorCode] {
        use ErrorCode::*;
        &[
            UnknownReference,
            ScalaChiselMixup,
            BadInvocation,
            AbstractResetNotInferred,
            BareChiselType,
            NotFullyInitialized,
            BundleFieldMismatch,
            TypeMismatch,
            UnsupportedCast,
            IndexOutOfBounds,
            NoImplicitClock,
            CombinationalLoop,
            MultipleDrivers,
            WidthInferenceFailure,
            UndrivenOutput,
            InvalidSink,
            InvalidIndexType,
            UnknownModule,
            DuplicateDeclaration,
            MissingTopModule,
        ]
    }

    /// A short human-readable description of the error class.
    pub fn summary(self) -> &'static str {
        use ErrorCode::*;
        match self {
            UnknownReference => "reference to an undeclared identifier",
            ScalaChiselMixup => "mixed usage of Chisel and Scala syntax",
            BadInvocation => "incorrect invocation of a function or method",
            AbstractResetNotInferred => "abstract reset type could not be inferred",
            BareChiselType => "interface signal not wrapped in IO()",
            NotFullyInitialized => "wire signal not fully initialized",
            BundleFieldMismatch => "bundle connection mismatch",
            TypeMismatch => "signal type mismatch",
            UnsupportedCast => "unsupported signal type conversion",
            IndexOutOfBounds => "out-of-bounds access on an array-type signal",
            NoImplicitClock => "register has no implicit clock",
            CombinationalLoop => "combinational cycle detected",
            MultipleDrivers => "multiple conflicting drivers of a signal",
            WidthInferenceFailure => "width inference failed",
            UndrivenOutput => "output port is never driven",
            InvalidSink => "connection target is not a valid sink",
            InvalidIndexType => "dynamic index has an invalid type",
            UnknownModule => "instantiated module does not exist",
            DuplicateDeclaration => "duplicate declaration",
            MissingTopModule => "top module is missing",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.taxonomy_label())
    }
}

/// A single compiler error: the unit of "compiler feedback" in the ReChisel
/// workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Source location of the offending construct.
    pub location: SourceInfo,
    /// Human-readable description of the problem, phrased like the Chisel / FIRRTL
    /// messages quoted in the paper's Table II.
    pub message: String,
    /// Optional suggested fix ("Did you mean `signal`?", "Perhaps you forgot to wrap it
    /// in `IO(_)`?").
    pub suggestion: Option<String>,
    /// Name of the signal/module the diagnostic is about, when identifiable. Used by
    /// the escape mechanism to decide whether two iterations hit "an error at the same
    /// location" (paper §IV-C).
    pub subject: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn error(code: ErrorCode, location: SourceInfo, message: impl Into<String>) -> Self {
        Self { code, location, message: message.into(), suggestion: None, subject: None }
    }

    /// Attaches a suggested fix.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Attaches the subject signal / module name.
    pub fn with_subject(mut self, subject: impl Into<String>) -> Self {
        self.subject = Some(subject.into());
        self
    }

    /// A stable key identifying "the same error at the same place", used by the
    /// ReChisel Inspector's cycle detection.
    pub fn identity_key(&self) -> String {
        format!(
            "{}@{}:{}:{}",
            self.code.taxonomy_label(),
            self.subject.as_deref().unwrap_or("?"),
            self.location.file,
            self.location.line
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[error] {}: {}: {}", self.location, self.code, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " ({s})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// A collection of diagnostics produced by a full checking run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticReport {
    /// All diagnostics, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl DiagnosticReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends all diagnostics from another report.
    pub fn extend(&mut self, other: DiagnosticReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Returns true if the report holds at least one diagnostic.
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty()
    }

    /// Iterates over the diagnostics, in pass order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when the report holds no diagnostics at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Formats the report in the sbt-style layout shown in the paper's Fig. 3.
    pub fn to_compiler_output(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("[error] {}: {}\n", d.location, d.message));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("[error]   suggestion: {s}\n"));
            }
        }
        if self.has_errors() {
            out.push_str("[error] (Compile / compileIncremental) Compilation failed\n");
        }
        out
    }
}

impl FromIterator<Diagnostic> for DiagnosticReport {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Self { diagnostics: iter.into_iter().collect() }
    }
}

impl IntoIterator for DiagnosticReport {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.into_iter()
    }
}

/// Computes the Levenshtein edit distance between two identifiers.
///
/// Used by the resolution pass to produce "Did you mean `signal`?" suggestions for
/// Table II row A1 (misspellings).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Finds the closest candidate name to `target` within a maximum edit distance of 3.
pub fn closest_name<'a>(
    target: &str,
    candidates: impl Iterator<Item = &'a str>,
) -> Option<&'a str> {
    let mut best: Option<(&str, usize)> = None;
    for c in candidates {
        let d = edit_distance(target, c);
        if d <= 3 && best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((c, d));
        }
    }
    best.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_labels_are_stable() {
        assert_eq!(ErrorCode::UnknownReference.taxonomy_label(), "A1");
        assert_eq!(ErrorCode::NotFullyInitialized.taxonomy_label(), "B3");
        assert_eq!(ErrorCode::CombinationalLoop.taxonomy_label(), "C2");
        assert!(ErrorCode::UnknownReference.in_paper_taxonomy());
        assert!(!ErrorCode::MultipleDrivers.in_paper_taxonomy());
    }

    #[test]
    fn all_codes_have_unique_labels() {
        let mut labels: Vec<_> = ErrorCode::all().iter().map(|c| c.taxonomy_label()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before);
    }

    #[test]
    fn report_error_detection() {
        let mut r = DiagnosticReport::new();
        assert!(!r.has_errors());
        r.push(Diagnostic::error(
            ErrorCode::UnknownReference,
            SourceInfo::new("Main.scala", 3, 1),
            "value sgnal is not a member",
        ));
        assert!(r.has_errors());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn compiler_output_includes_failure_footer() {
        let mut r = DiagnosticReport::new();
        r.push(
            Diagnostic::error(
                ErrorCode::TypeMismatch,
                SourceInfo::new("Main.scala", 18, 10),
                "found: chisel3.Bool required: chisel3.UInt",
            )
            .with_suggestion("use .asUInt"),
        );
        let text = r.to_compiler_output();
        assert!(text.contains("Main.scala:18:10"));
        assert!(text.contains("Compilation failed"));
        assert!(text.contains("suggestion"));
        assert_eq!(
            text,
            "[error] Main.scala:18:10: found: chisel3.Bool required: chisel3.UInt\n\
             [error]   suggestion: use .asUInt\n\
             [error] (Compile / compileIncremental) Compilation failed\n"
        );
        assert_eq!(
            r.diagnostics[0].to_string(),
            "[error] Main.scala:18:10: B5: found: chisel3.Bool required: chisel3.UInt (use .asUInt)"
        );
    }

    #[test]
    fn identity_key_distinguishes_locations() {
        let a = Diagnostic::error(ErrorCode::TypeMismatch, SourceInfo::new("a.scala", 1, 1), "x")
            .with_subject("w");
        let b = Diagnostic::error(ErrorCode::TypeMismatch, SourceInfo::new("a.scala", 2, 1), "x")
            .with_subject("w");
        assert_ne!(a.identity_key(), b.identity_key());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("signal", "signal"), 0);
        assert_eq!(edit_distance("sgnal", "signal"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn closest_name_prefers_small_distance() {
        let names = ["signal", "state", "counter"];
        assert_eq!(closest_name("sgnal", names.iter().copied()), Some("signal"));
        assert_eq!(closest_name("zzzzzzzz", names.iter().copied()), None);
    }
}
