//! The ReChisel reflection workflow (paper Fig. 2).
//!
//! [`Workflow::run`] wires the agents and tools together:
//!
//! 1. the Generator produces Chisel code from the specification (❶);
//! 2. the Compiler translates it to Verilog (❷) and the Simulator tests it (❸);
//! 3. on failure, the feedback is organised and handed to the Inspector (❹), which
//!    updates the trace (❺) and checks for non-progress loops (escape mechanism,
//!    §IV-C);
//! 4. the Reviewer analyses the trace and produces a revision plan (❻);
//! 5. the Generator applies the plan to produce the next candidate (❼);
//!
//! until the design passes or the iteration cap is reached.

use crate::agents::{Generator, Inspector, Reviewer};
use crate::candidate::Candidate;
use crate::feedback::{ErrorKind, FeedbackDetail};
use crate::spec::Spec;
use crate::tools::{ChiselCompiler, FunctionalTester};
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
    /// How much feedback detail the Reviewer receives.
    pub feedback_detail: FeedbackDetail,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        Self {
            max_iterations: 10,
            escape_enabled: true,
            knowledge_enabled: true,
            feedback_detail: FeedbackDetail::Full,
        }
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

/// The orchestrator tying agents and tools together — a thin shim over a silent
/// [`Engine`](crate::engine::Engine) built once at construction.
#[derive(Debug, Clone)]
pub struct Workflow {
    engine: crate::engine::Engine,
}

impl Default for Workflow {
    fn default() -> Self {
        Self::new(WorkflowConfig::default())
    }
}

impl Workflow {
    /// Creates a workflow with the given configuration and the standard compiler and
    /// knowledge base.
    pub fn new(config: WorkflowConfig) -> Self {
        Self { engine: crate::engine::Engine::builder().config(config).build() }
    }

    /// Replaces the compiler (used by the AutoChip baseline to mimic a Verilog-only
    /// checking flow).
    ///
    /// The knowledge base is re-derived from the configuration so that swapping the
    /// compiler can never leave the two out of sync (the knowledge base is keyed by the
    /// `knowledge_enabled` flag, not by the compiler).
    pub fn with_compiler(self, compiler: ChiselCompiler) -> Self {
        Self {
            engine: crate::engine::Engine::builder()
                .config(*self.engine.config())
                .compiler(compiler)
                .build(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WorkflowConfig {
        self.engine.config()
    }

    /// Runs the full reflection workflow for one sample of one case.
    ///
    /// `attempt` identifies the sample (the paper evaluates each case ten times); it is
    /// forwarded to the Generator so stochastic backends can diversify their attempts.
    ///
    /// This entry point is a thin shim kept for backwards compatibility: it runs a
    /// single [`Session`](crate::engine::Session) against the workflow's silent engine.
    /// New code that wants streaming run events, custom pipelines or shared state
    /// across runs should use the Engine/Session API directly.
    pub fn run<G, R, I>(
        &self,
        generator: &mut G,
        reviewer: &mut R,
        inspector: &mut I,
        spec: &Spec,
        tester: &FunctionalTester,
        attempt: u32,
    ) -> WorkflowResult
    where
        G: Generator,
        R: Reviewer,
        I: Inspector,
    {
        self.engine.session_ref(generator, reviewer, inspector, spec, tester).run(attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{TemplateReviewer, TraceInspector};
    use crate::revision::RevisionPlan;
    use crate::spec::PortSpec;
    use rechisel_firrtl::ir::{Circuit, Type};
    use rechisel_hcl::prelude::*;
    use rechisel_sim::Testbench;

    fn good_circuit(name: &str) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a);
        m.into_circuit()
    }

    fn bad_circuit(name: &str) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let _a = m.input("a", Type::uint(8));
        let _out = m.output("out", Type::uint(8));
        // Output never driven: compile error.
        m.into_circuit()
    }

    fn wrong_circuit(name: &str) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a.not().bits(7, 0));
        m.into_circuit()
    }

    /// A scripted generator that yields a fixed sequence of circuits.
    struct ScriptedGenerator {
        sequence: Vec<Circuit>,
        cursor: usize,
        next_id: u64,
    }

    impl ScriptedGenerator {
        fn new(sequence: Vec<Circuit>) -> Self {
            Self { sequence, cursor: 0, next_id: 0 }
        }

        fn take(&mut self, iteration: u32) -> Candidate {
            let index = self.cursor.min(self.sequence.len() - 1);
            self.cursor += 1;
            self.next_id += 1;
            Candidate::new(self.next_id, iteration, self.sequence[index].clone())
        }
    }

    impl Generator for ScriptedGenerator {
        fn generate(&mut self, _spec: &Spec, _attempt: u32) -> Candidate {
            self.take(0)
        }

        fn revise(
            &mut self,
            _previous: &Candidate,
            _plan: &RevisionPlan,
            iteration: u32,
        ) -> Candidate {
            self.take(iteration)
        }
    }

    fn spec() -> Spec {
        Spec::new(
            "Pass",
            "Pass the input through.",
            vec![PortSpec::input("a", Type::uint(8)), PortSpec::output("out", Type::uint(8))],
        )
    }

    fn tester() -> FunctionalTester {
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&good_circuit("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 8, 0, 11);
        FunctionalTester::new(reference, tb)
    }

    fn run_with(sequence: Vec<Circuit>, config: WorkflowConfig) -> WorkflowResult {
        let workflow = Workflow::new(config);
        let mut generator = ScriptedGenerator::new(sequence);
        let mut reviewer = TemplateReviewer::new();
        let mut inspector = TraceInspector::new();
        workflow.run(&mut generator, &mut reviewer, &mut inspector, &spec(), &tester(), 0)
    }

    #[test]
    fn immediately_correct_design_succeeds_at_iteration_zero() {
        let result = run_with(vec![good_circuit("Pass")], WorkflowConfig::default());
        assert!(result.success);
        assert_eq!(result.success_iteration, Some(0));
        assert_eq!(result.statuses, vec![IterationStatus::Success]);
        assert!(result.final_verilog.is_some());
        assert!(result.success_within(0));
    }

    #[test]
    fn syntax_then_functional_then_success() {
        let result = run_with(
            vec![bad_circuit("Pass"), wrong_circuit("Pass"), good_circuit("Pass")],
            WorkflowConfig::default(),
        );
        assert!(result.success);
        assert_eq!(result.success_iteration, Some(2));
        assert_eq!(
            result.statuses,
            vec![
                IterationStatus::SyntaxError,
                IterationStatus::FunctionalError,
                IterationStatus::Success
            ]
        );
        assert!(!result.success_within(1));
        assert!(result.success_within(2));
        assert_eq!(result.status_at(0), IterationStatus::SyntaxError);
        assert_eq!(result.status_at(5), IterationStatus::Success);
    }

    #[test]
    fn zero_shot_config_never_reflects() {
        let result =
            run_with(vec![bad_circuit("Pass"), good_circuit("Pass")], WorkflowConfig::zero_shot());
        assert!(!result.success);
        assert_eq!(result.iterations_evaluated(), 1);
    }

    #[test]
    fn iteration_cap_limits_attempts() {
        let result =
            run_with(vec![bad_circuit("Pass")], WorkflowConfig::default().with_max_iterations(3));
        assert!(!result.success);
        assert_eq!(result.iterations_evaluated(), 4); // zero-shot + 3 reflections
        assert_eq!(result.status_at(10), IterationStatus::SyntaxError);
    }

    #[test]
    fn escape_discards_looping_iterations() {
        // The generator keeps producing the same broken design: a non-progress loop.
        let result =
            run_with(vec![bad_circuit("Pass")], WorkflowConfig::default().with_max_iterations(6));
        assert!(!result.success);
        assert!(result.escapes > 0, "expected at least one escape");
        // The trace should be shorter than the number of evaluated iterations because
        // loops were discarded.
        assert!(result.trace.len() < result.iterations_evaluated());
    }

    #[test]
    fn escape_can_be_disabled() {
        let result = run_with(
            vec![bad_circuit("Pass")],
            WorkflowConfig::default().with_max_iterations(6).with_escape(false),
        );
        assert_eq!(result.escapes, 0);
        assert_eq!(result.trace.len(), result.iterations_evaluated());
    }
}
