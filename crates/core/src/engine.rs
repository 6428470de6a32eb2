//! The `Engine`/`Session` façade over the reflection workflow, with streaming run
//! events.
//!
//! An [`Engine`] bundles everything that is shared between runs — the
//! [`WorkflowConfig`], the compilation pipeline (as a [`ChiselCompiler`]), the
//! common-error knowledge base, and an [`Observer`] receiving streaming [`RunEvent`]s.
//! A [`Session`] owns the per-case state — the agent trio and the functional tester —
//! and drives the reflection loop of the paper's Fig. 2, emitting an event at every
//! step so telemetry, progress bars or batched serving layers can hook in without
//! touching the loop. Each revision is evaluated through an [`EvalMemo`]: the
//! session's own, or one shared with other sessions ([`Session::with_memo`]).
//!
//! One engine serves many sessions, concurrently: cloning the compiler is cheap and the
//! observer sits behind a mutex.
//!
//! # Example
//!
//! ```
//! use rechisel_core::{CollectingObserver, Engine, RunEventKind, WorkflowConfig};
//!
//! let observer = CollectingObserver::new();
//! let engine = Engine::builder()
//!     .config(WorkflowConfig::paper_default().with_max_iterations(3))
//!     .observer(observer.clone())
//!     .build();
//! assert_eq!(engine.config().max_iterations, 3);
//! assert!(observer.events().is_empty()); // nothing run yet
//! # let _ = RunEventKind::IterationStarted { iteration: 0 };
//! ```
//!
//! Running a session requires a Generator (see `rechisel-llm` for the synthetic one);
//! `Session::run` then streams `RunStarted`, `IterationStarted`, `FeedbackProduced`,
//! `EscapeFired`, `Success` and `RunFinished` events to the observer.

use std::sync::{Arc, Mutex};

use rechisel_sim::EngineKind;

use crate::agents::{Generator, Inspector, Reviewer};
use crate::feedback::{ErrorKind, Feedback};
use crate::knowledge::CommonErrorKnowledge;
use crate::spec::Spec;
use crate::tools::{ChiselCompiler, EvalMemo, FunctionalTester};
use crate::trace::{Trace, TraceEntry};
use crate::workflow::{IterationStatus, WorkflowConfig, WorkflowResult};

// ---------------------------------------------------------------------------------
// Events and observers
// ---------------------------------------------------------------------------------

/// One streaming event of a [`Session`] run.
///
/// Every event carries the identity of the run it belongs to (`spec` name and
/// `attempt` index), so observers watching a multi-threaded sweep can attribute the
/// interleaved streams of concurrent sessions. Per run, the [`kind`](Self::kind)s
/// arrive in a fixed grammar: `RunStarted`, then per iteration `IterationStarted`
/// followed by `FeedbackProduced` (plus `EscapeFired` when the escape mechanism
/// discards a non-progress loop and `Success` when the candidate passes), and finally
/// `RunFinished`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEvent {
    /// Name of the specification the run is working on.
    pub spec: String,
    /// Sample index of the run (the paper's 10 samples per case).
    pub attempt: u32,
    /// What happened.
    pub kind: RunEventKind,
}

/// The payload of a [`RunEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEventKind {
    /// A session run began.
    RunStarted,
    /// A reflection iteration began (0 = the zero-shot attempt).
    IterationStarted {
        /// Iteration index.
        iteration: u32,
    },
    /// The candidate of an iteration was compiled and tested.
    FeedbackProduced {
        /// Iteration index.
        iteration: u32,
        /// The outcome of the evaluation.
        status: IterationStatus,
    },
    /// The escape mechanism fired and discarded a non-progress loop (§IV-C).
    EscapeFired {
        /// Iteration at which the loop was detected.
        iteration: u32,
        /// Number of trace entries discarded.
        discarded: u32,
    },
    /// A candidate passed compilation and simulation.
    Success {
        /// Iteration at which success occurred (0 = zero-shot).
        iteration: u32,
    },
    /// The session run ended.
    RunFinished {
        /// Whether a candidate passed within the iteration cap.
        success: bool,
        /// Number of iterations evaluated (including the zero-shot attempt).
        iterations: u32,
        /// How many times the escape mechanism fired.
        escapes: u32,
    },
}

/// Receives the streaming [`RunEvent`]s of every session of an [`Engine`].
///
/// Implementations must be `Send`: one engine's sessions may run on many threads, and
/// the engine serializes event delivery behind a mutex.
pub trait Observer: Send {
    /// Called once per event, in order, for every session of the engine.
    fn on_event(&mut self, event: &RunEvent);
}

/// An observer that ignores every event (useful to exercise the delivery path without
/// consuming events; by default an engine has no observer at all).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &RunEvent) {}
}

/// An observer that records every event into a shared buffer.
///
/// Cloning shares the buffer, so keep one clone and hand the other to
/// [`EngineBuilder::observer`]:
///
/// ```
/// use rechisel_core::{CollectingObserver, Engine};
///
/// let observer = CollectingObserver::new();
/// let engine = Engine::builder().observer(observer.clone()).build();
/// // ... run sessions ...
/// assert_eq!(observer.events().len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    events: Arc<Mutex<Vec<RunEvent>>>,
}

impl CollectingObserver {
    /// Creates an observer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<RunEvent> {
        self.events.lock().expect("observer buffer").clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<RunEvent> {
        std::mem::take(&mut *self.events.lock().expect("observer buffer"))
    }
}

impl Observer for CollectingObserver {
    fn on_event(&mut self, event: &RunEvent) {
        self.events.lock().expect("observer buffer").push(event.clone());
    }
}

/// The shared handle an engine keeps to its observer.
type SharedObserver = Arc<Mutex<dyn Observer>>;

// ---------------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------------

/// The run-independent half of the system: configuration, pipeline, knowledge base and
/// observer, shared by every [`Session`] spawned from it.
///
/// # Example
///
/// ```
/// use rechisel_core::{ChiselCompiler, Engine, WorkflowConfig};
/// use rechisel_firrtl::pipeline::{FirrtlBackend, Pipeline};
///
/// let engine = Engine::builder()
///     .config(WorkflowConfig::zero_shot())
///     .compiler(ChiselCompiler::from_pipeline(Pipeline::new(FirrtlBackend)))
///     .build();
/// assert_eq!(engine.config().max_iterations, 0);
/// assert_eq!(engine.compiler().pipeline().backend().name(), "firrtl");
/// ```
pub struct Engine {
    config: WorkflowConfig,
    compiler: ChiselCompiler,
    knowledge: CommonErrorKnowledge,
    sim_engine: EngineKind,
    /// `None` means no observer is attached; sessions then skip event construction and
    /// the observer mutex entirely (the hot path of an unobserved sweep).
    observer: Option<SharedObserver>,
}

impl Clone for Engine {
    /// Clones the engine; the clone shares the original's observer (events from both
    /// engines' sessions arrive at the same [`Observer`]).
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            compiler: self.compiler.clone(),
            knowledge: self.knowledge.clone(),
            sim_engine: self.sim_engine,
            observer: self.observer.clone(),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("compiler", &self.compiler)
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Engine {
    /// Starts building an engine. All parts have defaults: the paper configuration, the
    /// standard Verilog pipeline, a config-derived knowledge base, and no observer
    /// (event delivery is skipped entirely until one is attached).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The workflow configuration.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// The compiler: the pipeline every revision of every session is checked,
    /// lowered and emitted through.
    pub fn compiler(&self) -> &ChiselCompiler {
        &self.compiler
    }

    /// The common-error knowledge base handed to Reviewers.
    pub fn knowledge(&self) -> &CommonErrorKnowledge {
        &self.knowledge
    }

    /// The simulation engine testers spawned for this engine's sessions should use
    /// (see [`EngineBuilder::sim_engine`]).
    pub fn sim_engine(&self) -> EngineKind {
        self.sim_engine
    }

    /// Spawns a session owning the given agents, specification and tester.
    ///
    /// Agents are taken by value; pass `&mut agent` to lend one out instead — the
    /// agent traits forward through mutable references. A tester clone is cheap: it
    /// shares the reference netlist, testbench and reference trace through `Arc`s.
    ///
    /// The session evaluates through a private [`EvalMemo`], so it compiles and
    /// simulates each of its distinct revisions once; [`Session::with_memo`] shares
    /// a memo with other sessions instead.
    pub fn session<G, R, I>(
        &self,
        generator: G,
        reviewer: R,
        inspector: I,
        spec: Spec,
        tester: FunctionalTester,
    ) -> Session<'_, G, R, I>
    where
        G: Generator,
        R: Reviewer,
        I: Inspector,
    {
        Session {
            engine: self,
            generator,
            reviewer,
            inspector,
            spec,
            tester,
            memo: Arc::new(EvalMemo::new()),
        }
    }

    /// Delivers an event, building it only when an observer is attached.
    fn emit_with(&self, make: impl FnOnce() -> RunEvent) {
        if let Some(observer) = &self.observer {
            observer.lock().expect("engine observer").on_event(&make());
        }
    }
}

/// Builder for [`Engine`] — see [`Engine::builder`].
#[derive(Default)]
pub struct EngineBuilder {
    config: Option<WorkflowConfig>,
    compiler: Option<ChiselCompiler>,
    knowledge: Option<CommonErrorKnowledge>,
    sim_engine: Option<EngineKind>,
    observer: Option<SharedObserver>,
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("config", &self.config)
            .field("compiler", &self.compiler)
            .finish_non_exhaustive()
    }
}

impl EngineBuilder {
    /// Sets the workflow configuration (default: [`WorkflowConfig::paper_default`]).
    pub fn config(mut self, config: WorkflowConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the compiler (default: [`ChiselCompiler::new`], the standard passes with
    /// the Verilog backend). A custom pass set or backend is
    /// [`ChiselCompiler::from_pipeline`].
    pub fn compiler(mut self, compiler: ChiselCompiler) -> Self {
        self.compiler = Some(compiler);
        self
    }

    /// Overrides the knowledge base (default: derived from the configuration's
    /// `knowledge_enabled` flag).
    pub fn knowledge(mut self, knowledge: CommonErrorKnowledge) -> Self {
        self.knowledge = Some(knowledge);
        self
    }

    /// Selects the simulation engine (default: [`EngineKind::Compiled`], the
    /// levelized instruction-tape engine). Benchmark runners consult
    /// [`Engine::sim_engine`] when building per-case testers, so one builder call
    /// switches the whole sweep; pick [`EngineKind::Interp`] to run on the
    /// tree-walking reference interpreter.
    pub fn sim_engine(mut self, kind: EngineKind) -> Self {
        self.sim_engine = Some(kind);
        self
    }

    /// Sets the observer receiving streaming run events.
    ///
    /// By default no observer is attached and sessions skip event delivery entirely;
    /// pass [`NullObserver`] to exercise the delivery path without consuming events.
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observer = Some(Arc::new(Mutex::new(observer)));
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        let config = self.config.unwrap_or_default();
        let knowledge = self.knowledge.unwrap_or_else(|| {
            if config.knowledge_enabled {
                CommonErrorKnowledge::standard()
            } else {
                CommonErrorKnowledge::empty()
            }
        });
        Engine {
            config,
            compiler: self.compiler.unwrap_or_default(),
            knowledge,
            sim_engine: self.sim_engine.unwrap_or_default(),
            observer: self.observer,
        }
    }
}

// ---------------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------------

/// One case's worth of run state: the agent trio, the specification and the functional
/// tester, bound to the [`Engine`] that spawned it.
///
/// [`Session::run`] drives the full reflection loop for one sample and streams
/// [`RunEvent`]s to the engine's observer. A session *can* be run repeatedly with
/// increasing `attempt` indices, but note that agent state then carries across runs
/// (useful for live backends that learn within a case). The paper's
/// 10-samples-per-case protocol — and the benchmark runner that reproduces its tables —
/// constructs a fresh session with fresh agents per sample instead; see
/// `rechisel_benchsuite::run_sample_with_engine`.
///
/// Every revision is evaluated through an [`EvalMemo`]. By default it is the
/// session's own, so a resubmitted revision is neither compiled nor simulated again;
/// [`with_memo`](Session::with_memo) attaches one shared with other sessions, as
/// `rechisel_benchsuite::sweep_suite` does for the sessions of one sweep part.
///
/// # Example
///
/// ```
/// use rechisel_core::{
///     Candidate, Engine, FunctionalTester, Generator, PortSpec, RevisionPlan, Spec,
///     TemplateReviewer, TraceInspector,
/// };
/// use rechisel_hcl::prelude::*;
/// use rechisel_sim::Testbench;
///
/// // A generator that always emits the correct design (a real system would call an LLM).
/// struct Oracle;
/// impl Generator for Oracle {
///     fn generate(&mut self, _spec: &Spec, _attempt: u32) -> Candidate {
///         let mut m = ModuleBuilder::new("Buf");
///         let a = m.input("a", Type::bool());
///         let y = m.output("y", Type::bool());
///         m.connect(&y, &a);
///         Candidate::new(1, 0, m.into_circuit())
///     }
///     fn revise(&mut self, prev: &Candidate, _plan: &RevisionPlan, it: u32) -> Candidate {
///         Candidate::new(prev.id + 1, it, prev.circuit.clone())
///     }
/// }
///
/// let engine = Engine::default();
/// let spec = Spec::new(
///     "Buf",
///     "Pass the input through.",
///     vec![PortSpec::input("a", Type::bool()), PortSpec::output("y", Type::bool())],
/// );
/// let reference = engine.compiler().compile(&Oracle.generate(&spec, 0).circuit).unwrap().netlist;
/// let testbench = Testbench::random_for(&reference, 8, 0, 7);
/// let tester = FunctionalTester::new(reference, testbench);
///
/// let mut session =
///     engine.session(Oracle, TemplateReviewer::new(), TraceInspector::new(), spec, tester);
/// let result = session.run(0);
/// assert!(result.success);
/// assert_eq!(result.success_iteration, Some(0));
/// ```
#[derive(Debug)]
pub struct Session<'e, G, R, I> {
    engine: &'e Engine,
    generator: G,
    reviewer: R,
    inspector: I,
    spec: Spec,
    tester: FunctionalTester,
    /// The memo every revision is evaluated through: private unless
    /// [`with_memo`](Session::with_memo) attached a shared one. It remembers each
    /// distinct revision's feedback and Verilog, rejected and failing revisions
    /// included, under the engine's compiler, the tester and the revision's located
    /// fingerprint.
    memo: Arc<EvalMemo>,
}

impl<G, R, I> Session<'_, G, R, I>
where
    G: Generator,
    R: Reviewer,
    I: Inspector,
{
    /// Evaluates through `memo` instead of the session's private memo, sharing
    /// evaluations with every other session attached to it. Feedback is unchanged:
    /// a memoized evaluation equals a from-scratch one.
    pub fn with_memo(mut self, memo: Arc<EvalMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The specification under work.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The functional tester judging candidates.
    pub fn tester(&self) -> &FunctionalTester {
        &self.tester
    }

    /// Emits an event stamped with this session's spec name and the given attempt.
    /// When the engine has no observer this is free: neither the event nor the spec
    /// string is constructed.
    fn emit(&self, attempt: u32, kind: RunEventKind) {
        self.engine.emit_with(|| RunEvent { spec: self.spec.name.clone(), attempt, kind });
    }

    /// Evaluates one candidate: compile, then simulate (workflow steps ❷/❸).
    ///
    /// The session's [`EvalMemo`] answers a candidate whose circuit it already
    /// evaluated under this engine's compiler and this tester, in this session or in
    /// another one sharing the memo, without compiling or simulating it; the feedback
    /// and Verilog are those of a from-scratch evaluation either way.
    fn evaluate(&self, candidate: &crate::candidate::Candidate) -> (Feedback, Option<String>) {
        self.memo.evaluate(&self.engine.compiler, &self.tester, &candidate.circuit)
    }

    /// Runs the full reflection workflow for one sample of the session's case
    /// (paper Fig. 2), streaming [`RunEvent`]s to the engine's observer.
    ///
    /// `attempt` identifies the sample (the paper evaluates each case ten times); it is
    /// forwarded to the Generator so stochastic backends can diversify their attempts.
    pub fn run(&mut self, attempt: u32) -> WorkflowResult {
        let config = self.engine.config;
        self.emit(attempt, RunEventKind::RunStarted);

        let mut trace = Trace::new();
        let mut statuses = Vec::new();
        let mut candidate = self.generator.generate(&self.spec, attempt);
        let mut final_verilog = None;
        let mut success_iteration = None;

        for iteration in 0..=config.max_iterations {
            self.emit(attempt, RunEventKind::IterationStarted { iteration });
            let (feedback, verilog) = self.evaluate(&candidate);
            let status = match feedback.error_kind() {
                None => IterationStatus::Success,
                Some(ErrorKind::Syntax) => IterationStatus::SyntaxError,
                Some(ErrorKind::Functional) => IterationStatus::FunctionalError,
            };
            statuses.push(status);
            self.emit(attempt, RunEventKind::FeedbackProduced { iteration, status });

            let success = feedback.is_success();
            if success {
                success_iteration = Some(iteration);
                final_verilog = verilog;
                self.emit(attempt, RunEventKind::Success { iteration });
            }
            if success || iteration == config.max_iterations {
                trace.push(TraceEntry {
                    iteration,
                    candidate: candidate.clone(),
                    feedback,
                    plan: None,
                });
                break;
            }

            // Step ❹/❺: the Inspector compares the feedback against the trace.
            let cycle = self.inspector.detect_cycle(&trace, &feedback);
            let escaped = match cycle {
                Some(start) if config.escape_enabled => {
                    // Escape: discard the loop and restart the review from the entry
                    // that immediately precedes it (paper Fig. 5).
                    let discarded = trace.discard_loop(start) as u32;
                    self.emit(attempt, RunEventKind::EscapeFired { iteration, discarded });
                    true
                }
                _ => {
                    trace.push(TraceEntry {
                        iteration,
                        candidate: candidate.clone(),
                        feedback: feedback.clone(),
                        plan: None,
                    });
                    false
                }
            };

            // Steps ❺–❼: review, revise, record the plan. After an escape the basis is
            // the entry now ending the trace; when the loop started at the very first
            // attempt there is none, and the current candidate is revised with the
            // escape marker set.
            let (basis, basis_feedback) = match trace.last() {
                Some(entry) if escaped => (&entry.candidate, &entry.feedback),
                _ => (&candidate, &feedback),
            };
            let plan = self.reviewer.review(basis, basis_feedback, &trace, &self.engine.knowledge);
            let plan = if escaped { plan.escaped() } else { plan };
            candidate = self.generator.revise(basis, &plan, iteration + 1);
            trace.attach_plan(plan);
        }

        self.emit(
            attempt,
            RunEventKind::RunFinished {
                success: success_iteration.is_some(),
                iterations: statuses.len() as u32,
                escapes: trace.escape_count(),
            },
        );

        WorkflowResult {
            success: success_iteration.is_some(),
            success_iteration,
            statuses,
            escapes: trace.escape_count(),
            trace,
            final_candidate: candidate,
            final_verilog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{TemplateReviewer, TraceInspector};
    use crate::candidate::Candidate;
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
        let engine = Engine::builder().config(config).build();
        let mut session = engine.session(
            ScriptedGenerator::new(sequence),
            TemplateReviewer::new(),
            TraceInspector::new(),
            spec(),
            tester(),
        );
        session.run(0)
    }

    fn run_observed(
        sequence: Vec<Circuit>,
        config: WorkflowConfig,
    ) -> (WorkflowResult, Vec<RunEvent>) {
        let observer = CollectingObserver::new();
        let engine = Engine::builder().config(config).observer(observer.clone()).build();
        let mut session = engine.session(
            ScriptedGenerator::new(sequence),
            TemplateReviewer::new(),
            TraceInspector::new(),
            spec(),
            tester(),
        );
        (session.run(0), observer.take())
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

    #[test]
    fn event_stream_follows_the_grammar() {
        let (result, events) = run_observed(
            vec![bad_circuit("Pass"), good_circuit("Pass")],
            WorkflowConfig::default(),
        );
        assert!(result.success);
        // Every event is attributable: spec + attempt identify the run.
        assert!(events.iter().all(|e| e.spec == "Pass" && e.attempt == 0));
        assert_eq!(events.first().map(|e| e.kind), Some(RunEventKind::RunStarted));
        assert_eq!(
            events.last().map(|e| e.kind),
            Some(RunEventKind::RunFinished { success: true, iterations: 2, escapes: 0 })
        );
        // Every iteration starts before its feedback, and indices are consecutive.
        let starts: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                RunEventKind::IterationStarted { iteration } => Some(iteration),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 1]);
        let feedback: Vec<(u32, IterationStatus)> = events
            .iter()
            .filter_map(|e| match e.kind {
                RunEventKind::FeedbackProduced { iteration, status } => Some((iteration, status)),
                _ => None,
            })
            .collect();
        assert_eq!(
            feedback,
            vec![(0, IterationStatus::SyntaxError), (1, IterationStatus::Success)]
        );
        assert!(events.iter().any(|e| e.kind == RunEventKind::Success { iteration: 1 }));
    }

    #[test]
    fn events_carry_every_escape_and_success_the_trace_records() {
        // A generator stuck on the same broken design loops and escapes repeatedly.
        let (result, events) = run_observed(
            vec![bad_circuit("Pass")],
            WorkflowConfig::default().with_max_iterations(6),
        );
        assert!(!result.success);
        assert!(result.escapes > 0);
        let escape_events =
            events.iter().filter(|e| matches!(e.kind, RunEventKind::EscapeFired { .. })).count();
        assert_eq!(escape_events as u32, result.escapes);
        let success_events =
            events.iter().filter(|e| matches!(e.kind, RunEventKind::Success { .. })).count();
        let successes = usize::from(result.success);
        assert_eq!(success_events, successes);
    }

    #[test]
    fn null_observer_runs_silently() {
        let engine = Engine::builder().config(WorkflowConfig::zero_shot()).build();
        let mut session = engine.session(
            ScriptedGenerator::new(vec![good_circuit("Pass")]),
            TemplateReviewer::new(),
            TraceInspector::new(),
            spec(),
            tester(),
        );
        assert!(session.run(0).success);
        assert_eq!(session.spec().name, "Pass");
        assert_eq!(session.engine().config().max_iterations, 0);
        assert!(session.tester().testbench().checked_points() > 0);
    }

    #[test]
    fn session_feedback_matches_from_scratch_compiles() {
        // Broken, functionally wrong twice (the second evaluation is answered from
        // the session's memo), then fixed: the feedback and the shipped Verilog are
        // those of from-scratch compiles.
        let sequence = vec![
            bad_circuit("Pass"),
            wrong_circuit("Pass"),
            wrong_circuit("Pass"),
            good_circuit("Pass"),
        ];
        let engine = Engine::default();
        let mut session = engine.session(
            ScriptedGenerator::new(sequence),
            TemplateReviewer::new(),
            TraceInspector::new(),
            spec(),
            tester(),
        );
        let result = session.run(0);
        assert_eq!(
            result.statuses,
            [
                IterationStatus::SyntaxError,
                IterationStatus::FunctionalError,
                IterationStatus::FunctionalError,
                IterationStatus::Success,
            ]
        );
        let scratch = ChiselCompiler::new().compile(&good_circuit("Pass")).unwrap();
        assert_eq!(result.final_verilog, Some(scratch.verilog));
    }

    #[test]
    fn sessions_sharing_a_memo_evaluate_each_revision_once() {
        let sequence = || vec![bad_circuit("Pass"), wrong_circuit("Pass"), good_circuit("Pass")];
        let engine = Engine::default();
        let tester = tester();
        let memo = Arc::new(EvalMemo::new());
        let run = |memo: Option<&Arc<EvalMemo>>| {
            let mut session = engine.session(
                ScriptedGenerator::new(sequence()),
                TemplateReviewer::new(),
                TraceInspector::new(),
                spec(),
                tester.clone(),
            );
            if let Some(memo) = memo {
                session = session.with_memo(Arc::clone(memo));
            }
            session.run(0)
        };
        let private = run(None);
        let first = run(Some(&memo));
        assert_eq!(memo.len(), 3);
        // The second session is answered from the first's entries, and its result
        // equals a session with a private memo, trace included.
        let second = run(Some(&memo));
        assert_eq!(memo.len(), 3);
        assert_eq!(first, private);
        assert_eq!(second, private);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let engine = Engine::default();
        assert_eq!(engine.config().max_iterations, 10);
        assert_eq!(engine.compiler().pipeline().backend().name(), "verilog");
        assert!(!engine.knowledge().is_empty());
        // The fast simulation engine is the default; the reference is selectable.
        assert_eq!(engine.sim_engine(), EngineKind::Compiled);
        let interp = Engine::builder().sim_engine(EngineKind::Interp).build();
        assert_eq!(interp.sim_engine(), EngineKind::Interp);
        assert_eq!(interp.clone().sim_engine(), EngineKind::Interp);

        let engine = Engine::builder()
            .config(WorkflowConfig { knowledge_enabled: false, ..WorkflowConfig::default() })
            .build();
        assert!(engine.knowledge().is_empty());

        let engine = Engine::builder().knowledge(CommonErrorKnowledge::standard()).build();
        assert!(!engine.knowledge().is_empty());
    }
}
