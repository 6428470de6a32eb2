//! Agent roles of the ReChisel workflow.
//!
//! The paper's workflow (Fig. 2) has three LLM agents — Generator, Reviewer and
//! Inspector — whose roles are fixed by system prompts, plus two external tools
//! (Compiler, Simulator). This module defines the agent roles as traits so that any
//! backend can drive the workflow: the synthetic LLM of `rechisel-llm` for the offline
//! reproduction, or a real LLM client for live use.
//!
//! Deterministic reference implementations are provided where the paper's behaviour is
//! mechanical: [`TemplateReviewer`] produces Fig. 3-style revision plans from structured
//! feedback and the common-error knowledge base, and [`TraceInspector`] performs the
//! escape-mechanism cycle detection over the trace.

use crate::candidate::Candidate;
use crate::feedback::Feedback;
use crate::knowledge::CommonErrorKnowledge;
use crate::revision::{RevisionItem, RevisionPlan};
use crate::spec::Spec;
use crate::trace::Trace;

/// The Generator agent: produces the initial Chisel code from the specification and
/// applies revision plans to produce new versions (workflow steps ❶ and ❼).
pub trait Generator {
    /// Generates the zero-shot candidate for `spec`. `attempt` distinguishes repeated
    /// samples of the same case (the paper samples each case ten times for Pass@k).
    fn generate(&mut self, spec: &Spec, attempt: u32) -> Candidate;

    /// Produces a revised candidate from the previous one and a revision plan.
    fn revise(&mut self, previous: &Candidate, plan: &RevisionPlan, iteration: u32) -> Candidate;
}

/// The Reviewer agent: analyses the trace and the latest feedback and produces a
/// revision plan (workflow step ❻).
pub trait Reviewer {
    /// Produces the revision plan guiding the next generation.
    fn review(
        &mut self,
        candidate: &Candidate,
        feedback: &Feedback,
        trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan;
}

/// The Inspector agent: maintains the trace and watches for non-progress loops
/// (workflow steps ❹/❺ and §IV-C).
pub trait Inspector {
    /// Examines the incoming feedback against the trace. Returning `Some(start)` means
    /// the entries from `start` onward form a non-progress loop that should be
    /// discarded.
    fn detect_cycle(&mut self, trace: &Trace, feedback: &Feedback) -> Option<usize>;
}

// Mutable references forward to the underlying agent, so a Session can either own its
// agents or borrow them from a caller that reuses them across runs.

impl<G: Generator + ?Sized> Generator for &mut G {
    fn generate(&mut self, spec: &Spec, attempt: u32) -> Candidate {
        (**self).generate(spec, attempt)
    }

    fn revise(&mut self, previous: &Candidate, plan: &RevisionPlan, iteration: u32) -> Candidate {
        (**self).revise(previous, plan, iteration)
    }
}

impl<R: Reviewer + ?Sized> Reviewer for &mut R {
    fn review(
        &mut self,
        candidate: &Candidate,
        feedback: &Feedback,
        trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan {
        (**self).review(candidate, feedback, trace, knowledge)
    }
}

impl<I: Inspector + ?Sized> Inspector for &mut I {
    fn detect_cycle(&mut self, trace: &Trace, feedback: &Feedback) -> Option<usize> {
        (**self).detect_cycle(trace, feedback)
    }
}

/// The default Inspector: flags a cycle when the incoming feedback repeats an error
/// identity (same error class, same subject, same location) already present in a
/// non-adjacent earlier iteration.
#[derive(Debug, Clone, Default)]
pub struct TraceInspector;

impl TraceInspector {
    /// Creates the default inspector.
    pub fn new() -> Self {
        Self
    }
}

impl Inspector for TraceInspector {
    fn detect_cycle(&mut self, trace: &Trace, feedback: &Feedback) -> Option<usize> {
        trace.find_cycle_start(feedback)
    }
}

/// A deterministic Reviewer that turns structured feedback into Fig. 3-style revision
/// plans, consulting the common-error knowledge base for cause/fix guidance.
///
/// The synthetic LLM delegates plan *construction* to this type; what distinguishes the
/// model profiles is whether the Generator manages to *apply* the plan correctly.
#[derive(Debug, Clone, Default)]
pub struct TemplateReviewer;

impl TemplateReviewer {
    /// Creates a reviewer.
    pub fn new() -> Self {
        Self
    }
}

impl Reviewer for TemplateReviewer {
    fn review(
        &mut self,
        _candidate: &Candidate,
        feedback: &Feedback,
        _trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan {
        // Exact-size `collect`s and `concat`s: the trace keeps every plan it is given,
        // so spare capacity would stay allocated for the whole run.
        let items = match feedback {
            Feedback::Success => Vec::new(),
            Feedback::Syntax { diagnostics } => diagnostics
                .iter()
                .map(|d| {
                    let guidance = knowledge.lookup(d.code);
                    let cause = match guidance {
                        Some(g) => [d.message.as_str(), " (", &g.cause, ")"].concat(),
                        None => d.message.clone(),
                    };
                    let solution = match (guidance, &d.suggestion) {
                        (Some(g), Some(s)) => [g.fix.as_str(), "; ", s].concat(),
                        (Some(g), None) => g.fix.clone(),
                        (None, Some(s)) => s.clone(),
                        (None, None) => "inspect the reported construct and rewrite it".to_string(),
                    };
                    let item =
                        RevisionItem::for_diagnostic(d.code, d.location.clone(), cause, solution);
                    match &d.subject {
                        Some(subject) => item.with_subject(subject.clone()),
                        None => item,
                    }
                })
                .collect(),
            Feedback::Functional { failures, .. } => failures
                .iter()
                .take(4)
                .map(|f| {
                    let ports = f.mismatched_ports().join(", ");
                    RevisionItem::for_functional(
                        format!(
                            "output(s) {ports} mismatch the reference for inputs {:?}: \
                             expected {:?}, got {:?}",
                            f.inputs(),
                            f.expected(),
                            f.actual()
                        ),
                        "trace how these inputs propagate through the design and correct the \
                         logic that produces the mismatched output",
                    )
                    .with_subject(ports)
                })
                .collect(),
        };
        RevisionPlan::new(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::diagnostics::{Diagnostic, ErrorCode};
    use rechisel_firrtl::ir::{Circuit, Module, ModuleKind, SourceInfo};
    use rechisel_sim::PointFailure;

    fn candidate() -> Candidate {
        Candidate::new(0, 0, Circuit::single(Module::new("T", ModuleKind::Module)))
    }

    #[test]
    fn template_reviewer_uses_knowledge_for_syntax_errors() {
        let feedback = Feedback::Syntax {
            diagnostics: vec![Diagnostic::error(
                ErrorCode::NotFullyInitialized,
                SourceInfo::new("T.scala", 7, 3),
                "reference w is not fully initialized",
            )
            .with_subject("w")],
        };
        let mut reviewer = TemplateReviewer::new();
        let plan = reviewer.review(
            &candidate(),
            &feedback,
            &Trace::new(),
            &CommonErrorKnowledge::standard(),
        );
        assert_eq!(plan.len(), 1);
        assert!(plan.items[0].solution.contains("WireDefault"));
        assert_eq!(plan.items[0].code, Some(ErrorCode::NotFullyInitialized));
    }

    #[test]
    fn functional_failures_produce_items_with_io_details() {
        let feedback = Feedback::Functional {
            failures: vec![PointFailure::from_pairs(3, &[("a", 1)], &[("out", 5)], &[("out", 7)])],
            total_points: 16,
        };
        let mut reviewer = TemplateReviewer::new();
        let plan = reviewer.review(
            &candidate(),
            &feedback,
            &Trace::new(),
            &CommonErrorKnowledge::standard(),
        );
        assert_eq!(plan.len(), 1);
        assert!(plan.items[0].cause.contains("out"));
        assert!(plan.items[0].cause.contains("expected"));
    }

    #[test]
    fn trace_inspector_detects_repeat() {
        let mut inspector = TraceInspector::new();
        let mut trace = Trace::new();
        let diag = |line: u32| Feedback::Syntax {
            diagnostics: vec![Diagnostic::error(
                ErrorCode::BadInvocation,
                SourceInfo::new("T.scala", line, 1),
                "bad call",
            )
            .with_subject("x")],
        };
        trace.push(crate::trace::TraceEntry {
            iteration: 0,
            candidate: candidate(),
            feedback: diag(4),
            plan: None,
        });
        assert_eq!(inspector.detect_cycle(&trace, &diag(4)), None);
        trace.push(crate::trace::TraceEntry {
            iteration: 1,
            candidate: candidate(),
            feedback: diag(4),
            plan: None,
        });
        assert_eq!(inspector.detect_cycle(&trace, &diag(4)), Some(0));
    }
}
