//! Feedback from the external tools (compiler and simulator).
//!
//! ReChisel distinguishes two error types (paper §IV-B): *syntax errors* reported by the
//! compiler and *functional errors* discovered in simulation. [`Feedback`] carries the
//! structured error lists for both.

use rechisel_firrtl::diagnostics::Diagnostic;
use rechisel_sim::PointFailure;

/// High-level classification of a failed iteration, used for the error-proportion
/// figures (paper Fig. 1 and Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The design failed to compile.
    Syntax,
    /// The design compiled but failed functional testing.
    Functional,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorKind::Syntax => write!(f, "syntax error"),
            ErrorKind::Functional => write!(f, "functional error"),
        }
    }
}

/// The result of compiling and testing one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Feedback {
    /// Compilation and simulation both succeeded.
    Success,
    /// Compilation failed; the diagnostics are the error list of Fig. 3.
    Syntax {
        /// Compiler diagnostics.
        diagnostics: Vec<Diagnostic>,
    },
    /// Compilation succeeded but simulation found mismatches.
    Functional {
        /// Failed functional points with inputs/expected/actual.
        failures: Vec<PointFailure>,
        /// Total number of checked points.
        total_points: usize,
    },
}

impl Feedback {
    /// True for [`Feedback::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, Feedback::Success)
    }

    /// The error kind, if the iteration failed.
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            Feedback::Success => None,
            Feedback::Syntax { .. } => Some(ErrorKind::Syntax),
            Feedback::Functional { .. } => Some(ErrorKind::Functional),
        }
    }

    /// Number of individual errors carried.
    pub fn error_count(&self) -> usize {
        match self {
            Feedback::Success => 0,
            Feedback::Syntax { diagnostics } => diagnostics.len(),
            Feedback::Functional { failures, .. } => failures.len(),
        }
    }

    /// Stable identity keys for "the same error at the same location", used by the
    /// Inspector's non-progress-loop detection (paper §IV-C).
    pub fn identity_keys(&self) -> Vec<String> {
        match self {
            Feedback::Success => Vec::new(),
            Feedback::Syntax { diagnostics } => {
                diagnostics.iter().map(|d| d.identity_key()).collect()
            }
            Feedback::Functional { failures, .. } => failures
                .iter()
                .map(|f| format!("func@{}", f.mismatched_ports().join(",")))
                .collect(),
        }
    }

    /// Renders the feedback as the text block handed to the Reviewer: locations,
    /// causes and suggestions of compile errors, or the first failing points.
    pub fn to_report(&self) -> String {
        match self {
            Feedback::Success => "All tests passed.".to_string(),
            Feedback::Syntax { diagnostics } => {
                let mut out = String::new();
                for d in diagnostics {
                    out.push_str(&format!("[error] {}: {}\n", d.location, d.message));
                    if let Some(s) = &d.suggestion {
                        out.push_str(&format!("[error]   {s}\n"));
                    }
                }
                out.push_str("[error] (Compile / compileIncremental) Compilation failed\n");
                out
            }
            Feedback::Functional { failures, total_points } => {
                let mut out = format!(
                    "simulation failed: {} of {total_points} functional points mismatched\n",
                    failures.len()
                );
                for f in failures.iter().take(8) {
                    out.push_str(&format!("  {f}\n"));
                }
                if failures.len() > 8 {
                    out.push_str(&format!("  ... and {} more\n", failures.len() - 8));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::diagnostics::ErrorCode;
    use rechisel_firrtl::ir::SourceInfo;

    fn syntax_feedback() -> Feedback {
        Feedback::Syntax {
            diagnostics: vec![Diagnostic::error(
                ErrorCode::NotFullyInitialized,
                SourceInfo::new("M.scala", 7, 3),
                "reference w is not fully initialized",
            )
            .with_suggestion("use WireDefault")
            .with_subject("w")],
        }
    }

    #[test]
    fn classification() {
        assert_eq!(Feedback::Success.error_kind(), None);
        assert_eq!(syntax_feedback().error_kind(), Some(ErrorKind::Syntax));
        let func = Feedback::Functional { failures: vec![], total_points: 10 };
        assert_eq!(func.error_kind(), Some(ErrorKind::Functional));
        assert!(Feedback::Success.is_success());
    }

    #[test]
    fn full_report_contains_location_and_suggestion() {
        let text = syntax_feedback().to_report();
        assert!(text.contains("M.scala:7:3"));
        assert!(text.contains("WireDefault"));
        assert!(text.contains("Compilation failed"));
    }

    #[test]
    fn identity_keys_are_stable() {
        let a = syntax_feedback().identity_keys();
        let b = syntax_feedback().identity_keys();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(a[0].starts_with("B3@w"));
    }
}
