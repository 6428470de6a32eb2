//! The configuration and results of the ReChisel reflection workflow (paper Fig. 2).
//!
//! [`Session::run`](crate::engine::Session::run) wires the agents and tools together:
//!
//! 1. the Generator produces Chisel code from the specification (❶);
//! 2. the Compiler translates it to Verilog (❷) and the Simulator tests it (❸);
//! 3. on failure, the feedback is organised and handed to the Inspector (❹), which
//!    updates the trace (❺) and checks for non-progress loops (escape mechanism,
//!    §IV-C);
//! 4. the Reviewer analyses the trace and produces a revision plan (❻);
//! 5. the Generator applies the plan to produce the next candidate (❼);
//!
//! until the design passes or the iteration cap is reached. [`WorkflowConfig`] sets
//! the cap and the escape and knowledge switches; [`WorkflowResult`] records one run.

use crate::candidate::Candidate;
use crate::feedback::ErrorKind;
use crate::trace::Trace;

/// Configuration of one workflow run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowConfig {
    /// Maximum number of reflection iterations (the paper's `n`; 0 disables reflection
    /// entirely, i.e. the zero-shot baseline).
    pub max_iterations: u32,
    /// Whether the escape mechanism is active (paper §IV-C). Disabling it is the
    /// ablation of Fig. 4/5.
    pub escape_enabled: bool,
    /// Whether the common-error knowledge base is provided to the Reviewer (§IV-B
    /// in-context learning).
    pub knowledge_enabled: bool,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        Self { max_iterations: 10, escape_enabled: true, knowledge_enabled: true }
    }
}

impl WorkflowConfig {
    /// The configuration used throughout the paper's main evaluation: ten iterations,
    /// escape and knowledge enabled.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Zero-shot baseline (no reflection).
    pub fn zero_shot() -> Self {
        Self { max_iterations: 0, ..Self::default() }
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }

    /// Enables or disables the escape mechanism.
    pub fn with_escape(mut self, enabled: bool) -> Self {
        self.escape_enabled = enabled;
        self
    }

    /// Enables or disables the knowledge base.
    pub fn with_knowledge(mut self, enabled: bool) -> Self {
        self.knowledge_enabled = enabled;
        self
    }
}

/// Status of one iteration of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterationStatus {
    /// The candidate passed compilation and simulation.
    Success,
    /// The candidate failed to compile.
    SyntaxError,
    /// The candidate compiled but failed simulation.
    FunctionalError,
}

impl IterationStatus {
    /// The corresponding error kind, if this is a failure.
    pub fn error_kind(self) -> Option<ErrorKind> {
        match self {
            IterationStatus::Success => None,
            IterationStatus::SyntaxError => Some(ErrorKind::Syntax),
            IterationStatus::FunctionalError => Some(ErrorKind::Functional),
        }
    }
}

/// The outcome of one workflow run (one sample of one benchmark case).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowResult {
    /// True when a candidate passed within the iteration cap.
    pub success: bool,
    /// The iteration at which success occurred (0 = zero-shot), if any.
    pub success_iteration: Option<u32>,
    /// Status of every evaluated iteration, index 0 being the zero-shot attempt.
    pub statuses: Vec<IterationStatus>,
    /// The reflection trace (escaped loops removed).
    pub trace: Trace,
    /// The last candidate evaluated.
    pub final_candidate: Candidate,
    /// The Verilog of the successful design, when the run succeeded.
    pub final_verilog: Option<String>,
    /// How many times the escape mechanism fired.
    pub escapes: u32,
}

impl WorkflowResult {
    /// True when the run succeeded within `n` reflection iterations. Evaluating a
    /// single run with the full iteration cap and querying `success_within` for smaller
    /// `n` reproduces the iteration sweep of the paper's Table III / Fig. 6.
    pub fn success_within(&self, n: u32) -> bool {
        self.success_iteration.map(|it| it <= n).unwrap_or(false)
    }

    /// The status the run had at iteration `n`: once successful it stays successful;
    /// runs that stopped earlier keep their final status (used for Fig. 7's error
    /// proportions per iteration).
    pub fn status_at(&self, n: u32) -> IterationStatus {
        if self.success_within(n) {
            return IterationStatus::Success;
        }
        let index = (n as usize).min(self.statuses.len().saturating_sub(1));
        self.statuses.get(index).copied().unwrap_or(IterationStatus::SyntaxError)
    }

    /// Number of iterations actually evaluated (including the zero-shot attempt).
    pub fn iterations_evaluated(&self) -> usize {
        self.statuses.len()
    }
}
