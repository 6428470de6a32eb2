//! The iteration trace maintained by the Inspector.
//!
//! The Inspector keeps a [`Trace`] of every reflection iteration: which candidate was
//! tested, what feedback came back, and what revision plan was issued. The trace is the
//! data structure over which the escape mechanism detects non-progress loops
//! (paper §IV-C and Fig. 5): if the current feedback contains an error with the same
//! identity (same location, same cause class) as an earlier entry's, the iterations in
//! between form a loop and are discarded.

use crate::candidate::Candidate;
use crate::feedback::Feedback;
use crate::revision::RevisionPlan;

/// One entry of the trace: a tested candidate and what happened to it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Reflection iteration index (0 = zero-shot attempt).
    pub iteration: u32,
    /// The candidate that was compiled and tested.
    pub candidate: Candidate,
    /// The feedback it received.
    pub feedback: Feedback,
    /// The revision plan issued in response (absent for the final entry and for
    /// successes).
    pub plan: Option<RevisionPlan>,
}

/// The full reflection trace of one workflow run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    /// Number of times the escape mechanism discarded a loop.
    escapes: u32,
    /// Total number of iterations discarded by escapes.
    discarded: u32,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// The entries currently in the trace (escaped loops are removed).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The most recent entry.
    pub fn last(&self) -> Option<&TraceEntry> {
        self.entries.last()
    }

    /// Attaches a revision plan to the most recent entry.
    pub fn attach_plan(&mut self, plan: RevisionPlan) {
        if let Some(last) = self.entries.last_mut() {
            last.plan = Some(plan);
        }
    }

    /// Number of entries currently in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many times a non-progress loop was escaped.
    pub fn escape_count(&self) -> u32 {
        self.escapes
    }

    /// How many iterations have been discarded by escapes in total.
    pub fn discarded_iterations(&self) -> u32 {
        self.discarded
    }

    /// Finds the earliest entry whose feedback shares an error identity with
    /// `feedback`, which marks the start of a non-progress loop.
    ///
    /// Returns the entry index, or `None` when the feedback is new. Only entries other
    /// than the most recent one are considered: sharing an error with the immediately
    /// preceding iteration is normal (the fix simply has not landed yet); what makes a
    /// *loop* is returning to an error seen two or more iterations ago.
    pub fn find_cycle_start(&self, feedback: &Feedback) -> Option<usize> {
        if self.entries.len() < 2 {
            return None;
        }
        let keys = feedback.identity_keys();
        if keys.is_empty() {
            return None;
        }
        for (index, entry) in self.entries.iter().enumerate().take(self.entries.len() - 1) {
            let entry_keys = entry.feedback.identity_keys();
            if keys.iter().any(|k| entry_keys.contains(k)) {
                return Some(index);
            }
        }
        None
    }

    /// Discards every entry from `start` onward (they form a non-progress loop) and
    /// returns how many there were. The Reviewer then restarts from the entry that
    /// now ends the trace.
    pub fn discard_loop(&mut self, start: usize) -> usize {
        let removed = self.entries.drain(start..).count();
        self.escapes += 1;
        self.discarded += removed as u32;
        removed
    }

    /// Renders a compact textual view of the trace (used in examples and the case
    /// study).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let status = match &entry.feedback {
                Feedback::Success => "success".to_string(),
                Feedback::Syntax { diagnostics } => {
                    format!("syntax error ({} diagnostic(s))", diagnostics.len())
                }
                Feedback::Functional { failures, total_points } => {
                    format!("functional error ({}/{} points failed)", failures.len(), total_points)
                }
            };
            out.push_str(&format!("iteration {}: {status}\n", entry.iteration));
        }
        if self.escapes > 0 {
            out.push_str(&format!(
                "({} non-progress loop(s) escaped, {} iteration(s) discarded)\n",
                self.escapes, self.discarded
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::diagnostics::{Diagnostic, ErrorCode};
    use rechisel_firrtl::ir::{Circuit, Module, ModuleKind, SourceInfo};

    fn candidate(id: u64, iteration: u32) -> Candidate {
        Candidate::new(id, iteration, Circuit::single(Module::new("T", ModuleKind::Module)))
    }

    fn syntax_at(line: u32) -> Feedback {
        Feedback::Syntax {
            diagnostics: vec![Diagnostic::error(
                ErrorCode::NotFullyInitialized,
                SourceInfo::new("T.scala", line, 1),
                "not fully initialized",
            )
            .with_subject("w")],
        }
    }

    fn entry(iteration: u32, feedback: Feedback) -> TraceEntry {
        TraceEntry {
            iteration,
            candidate: candidate(iteration as u64, iteration),
            feedback,
            plan: None,
        }
    }

    #[test]
    fn cycle_detection_ignores_immediately_preceding_entry() {
        let mut trace = Trace::new();
        trace.push(entry(0, syntax_at(5)));
        // Same error as the only entry: not a loop yet.
        assert_eq!(trace.find_cycle_start(&syntax_at(5)), None);
        trace.push(entry(1, syntax_at(5)));
        // Now the same error as entry 0 (two iterations ago): loop detected.
        assert_eq!(trace.find_cycle_start(&syntax_at(5)), Some(0));
    }

    #[test]
    fn different_errors_do_not_form_a_cycle() {
        let mut trace = Trace::new();
        trace.push(entry(0, syntax_at(5)));
        trace.push(entry(1, syntax_at(9)));
        assert_eq!(trace.find_cycle_start(&syntax_at(11)), None);
    }

    #[test]
    fn discard_loop_removes_entries_and_counts() {
        let mut trace = Trace::new();
        for i in 0..4 {
            trace.push(entry(i, syntax_at(5)));
        }
        assert_eq!(trace.discard_loop(1), 3);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.escape_count(), 1);
        assert_eq!(trace.discarded_iterations(), 3);
    }

    #[test]
    fn attach_plan_sets_last_entry() {
        let mut trace = Trace::new();
        trace.push(entry(0, syntax_at(5)));
        trace.attach_plan(RevisionPlan::default());
        assert!(trace.last().unwrap().plan.is_some());
    }

    #[test]
    fn text_rendering_mentions_escapes() {
        let mut trace = Trace::new();
        trace.push(entry(0, syntax_at(5)));
        trace.push(entry(1, Feedback::Success));
        trace.discard_loop(1);
        let text = trace.to_text();
        assert!(text.contains("iteration 0: syntax error"));
        assert!(text.contains("non-progress loop"));
    }

    #[test]
    fn success_feedback_never_triggers_cycles() {
        let mut trace = Trace::new();
        trace.push(entry(0, syntax_at(5)));
        trace.push(entry(1, syntax_at(5)));
        assert_eq!(trace.find_cycle_start(&Feedback::Success), None);
    }
}
