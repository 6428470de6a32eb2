//! The external tools of the workflow: the Chisel→Verilog compiler wrapper and the
//! functional tester (workflow steps ❷ and ❸ of the paper's Fig. 2), and the
//! [`EvalMemo`] that runs the two once per distinct revision.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rechisel_firrtl::diagnostics::Diagnostic;
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::pipeline::Pipeline;
use rechisel_firrtl::{Fingerprint, RebuildReason, RecompileOutcome};
use rechisel_sim::{
    record_reference_trace, run_testbench_against_trace, CompiledSimulator, EngineKind,
    OutputTrace, PointFailure, SimError, SimReport, Simulator, Stimulus, Tape, Testbench,
};
use rechisel_verilog::VerilogBackend;

use crate::feedback::Feedback;

/// A process-unique id for a new compiler or tester: the [`EvalMemo`] key names the
/// tools by these ids, never by address, because a dropped tool's address can be
/// reused while a memo is still alive.
fn next_tool_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The output of a successful compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The lowered netlist (used for simulation).
    pub netlist: Netlist,
    /// The emitted Verilog source (what the original system hands to its simulator and
    /// ultimately returns to the user).
    pub verilog: String,
}

/// The "Compiler" external tool: a [`Pipeline`] with the Verilog backend, packaged as
/// workflow step ❷.
///
/// The compiler is a thin façade: [`ChiselCompiler::compile`] is one
/// [`Pipeline::run`] (check → lower → emit) returning the [`Compiled`] pair the
/// workflow consumes, or the diagnostics. A different pass set or backend is
/// [`ChiselCompiler::from_pipeline`]; [`ChiselCompiler::pipeline`] exposes the pass
/// names and the backend.
///
/// Each constructor call draws a process-unique id that an [`EvalMemo`] keys on;
/// clones share it, as they share the pipeline.
#[derive(Debug, Clone)]
pub struct ChiselCompiler {
    pipeline: Pipeline,
    id: u64,
}

impl Default for ChiselCompiler {
    fn default() -> Self {
        Self::new()
    }
}

impl ChiselCompiler {
    /// A compiler with all checks enabled (the normal Chisel/FIRRTL pipeline).
    pub fn new() -> Self {
        Self::from_pipeline(Pipeline::new(VerilogBackend))
    }

    /// Wraps an explicit pipeline (custom passes and/or backend).
    pub fn from_pipeline(pipeline: Pipeline) -> Self {
        Self { pipeline, id: next_tool_id() }
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Compiles a circuit through [`Pipeline::run`], which borrows it throughout, so
    /// the hot reflection loop pays no circuit clone per candidate evaluation.
    ///
    /// # Errors
    ///
    /// Returns the list of error-severity diagnostics when any check fails or lowering
    /// is impossible — the "syntax error" feedback of the ReChisel workflow.
    pub fn compile(&self, circuit: &Circuit) -> Result<Compiled, Vec<Diagnostic>> {
        let (netlist, verilog) = self.pipeline.run(circuit)?;
        Ok(Compiled { netlist, verilog })
    }

    /// An [`IncrementalCompiler`] over this compiler. Kept only so perfbench
    /// compiles: its traced replay classifies each revision through one. Sessions
    /// evaluate through an [`EvalMemo`].
    pub fn incremental(&self) -> IncrementalCompiler {
        IncrementalCompiler::new(self.clone())
    }
}

/// The output of one [`IncrementalCompiler::compile`] call. Kept only so perfbench
/// compiles (see [`IncrementalCompiler`]).
///
/// Unlike [`Compiled`], the netlist is shared (`Arc`) — on a memo hit it is
/// literally the earlier revision's netlist — and the compiled simulation
/// [`Tape`] rides along so the tester does not recompile the DUT.
#[derive(Debug, Clone)]
pub struct IncrementalCompiled {
    /// The lowered netlist (shared with the compiler's memo).
    pub netlist: Arc<Netlist>,
    /// The emitted Verilog source: emitted once, when the revision first compiled,
    /// and replayed from the memo on every resubmission.
    pub verilog: String,
    /// The compiled simulation tape. `None` when tape compilation failed; on the
    /// default Compiled engine, [`FunctionalTester::test_with_tape`] then compiles
    /// the tape again, fails again, and reports every point failed.
    pub tape: Option<Arc<Tape>>,
    /// Whether the revision was answered from the memo (see [`RecompileOutcome`]).
    pub outcome: RecompileOutcome,
}

/// A memo of every revision compiled through it, in front of
/// [`ChiselCompiler::compile`]. Kept only so perfbench compiles: its traced replay
/// classifies each revision of a session through one. Sessions evaluate through an
/// [`EvalMemo`], which also skips the simulation of a repeat.
///
/// Each revision is keyed by its [`Circuit::located_fingerprint`], which covers
/// every port's and statement's source location as well as the structure:
///
/// * a key that an earlier revision compiled under returns that revision's
///   netlist, tape and Verilog ([`RecompileOutcome::Identical`]);
/// * a key that an earlier revision was rejected under returns a clone of its
///   diagnostics, without running a single check pass;
/// * a new key runs the from-scratch compiler and [`Tape::compile`]
///   ([`RecompileOutcome::FullRebuild`]) and remembers the result, whether it
///   compiled or not.
///
/// The key covers locations because diagnostics carry them: a relocated copy of a
/// rejected design must report the moved locations. A design resubmitted with only
/// its locations moved therefore compiles again.
///
/// # Example
///
/// ```
/// use rechisel_core::ChiselCompiler;
/// use rechisel_firrtl::{RebuildReason, RecompileOutcome};
/// use rechisel_hcl::prelude::*;
///
/// let build = |invert: bool| {
///     let mut m = ModuleBuilder::new("Top");
///     let a = m.input("a", Type::uint(8));
///     let out = m.output("out", Type::uint(8));
///     let expr = if invert { a.not().bits(7, 0) } else { a };
///     m.connect(&out, &expr);
///     m.into_circuit()
/// };
/// let broken = {
///     let mut m = ModuleBuilder::new("Top");
///     let _a = m.input("a", Type::uint(8));
///     let _out = m.output("out", Type::uint(8)); // never driven
///     m.into_circuit()
/// };
///
/// let mut inc = ChiselCompiler::new().incremental();
/// let first = inc.compile(&build(false)).unwrap();
/// assert_eq!(first.outcome, RecompileOutcome::FullRebuild(RebuildReason::FirstRevision));
/// // An edit compiles from scratch.
/// let edited = inc.compile(&build(true)).unwrap();
/// assert_eq!(edited.outcome, RecompileOutcome::FullRebuild(RebuildReason::Changed));
/// // Resubmitting any earlier revision reuses its netlist, tape and Verilog.
/// let again = inc.compile(&build(false)).unwrap();
/// assert_eq!(again.outcome, RecompileOutcome::Identical);
/// assert_eq!(again.verilog, first.verilog);
/// // A rejected revision, resubmitted, gets the same diagnostics back.
/// let errors = inc.compile(&broken).unwrap_err();
/// assert_eq!(inc.compile(&broken).unwrap_err(), errors);
/// ```
#[derive(Debug)]
pub struct IncrementalCompiler {
    compiler: ChiselCompiler,
    /// Every distinct revision compiled so far, keyed by located fingerprint.
    memo: Vec<(Fingerprint, Result<IncrementalCompiled, Vec<Diagnostic>>)>,
}

impl IncrementalCompiler {
    /// Wraps `compiler`; the first [`compile`](Self::compile) call always runs it.
    pub fn new(compiler: ChiselCompiler) -> Self {
        Self { compiler, memo: Vec::new() }
    }

    /// The wrapped from-scratch compiler.
    pub fn compiler(&self) -> &ChiselCompiler {
        &self.compiler
    }

    /// Compiles a circuit, answering a revision this session already compiled from
    /// the memo.
    ///
    /// # Errors
    ///
    /// Returns the error-severity diagnostics when checking or lowering fails —
    /// exactly [`ChiselCompiler::compile`]'s on the same circuit, remembered and
    /// cloned when the revision is resubmitted.
    pub fn compile(&mut self, circuit: &Circuit) -> Result<IncrementalCompiled, Vec<Diagnostic>> {
        let key = circuit.located_fingerprint();
        if let Some((_, result)) = self.memo.iter().find(|(k, _)| *k == key) {
            return result.clone().map(|compiled| IncrementalCompiled {
                outcome: RecompileOutcome::Identical,
                ..compiled
            });
        }
        let reason = if self.memo.iter().any(|(_, result)| result.is_ok()) {
            RebuildReason::Changed
        } else {
            RebuildReason::FirstRevision
        };
        let result = self.compiler.compile(circuit).map(|Compiled { netlist, verilog }| {
            IncrementalCompiled {
                tape: Tape::compile(&netlist).ok().map(Arc::new),
                netlist: Arc::new(netlist),
                verilog,
                outcome: RecompileOutcome::FullRebuild(reason),
            }
        });
        self.memo.push((key, result.clone()));
        result
    }
}

/// The "Simulator" external tool: functional testing of a compiled design against the
/// benchmark's reference model.
///
/// The tester runs on either simulation engine (see [`EngineKind`]); the default is
/// the compiled engine. On both, the reference **output trace** (its outputs at every
/// checked point) is recorded once, lazily, on the tester's own engine, and **shared
/// across clones** — a benchmark case hands out one tester clone per sample, so the
/// whole sweep simulates each case's reference once, and keeps only the trace. Every
/// DUT is then compared against that trace ([`run_testbench_against_trace`]). The
/// reference netlist and the testbench, with its input names interned once
/// ([`Stimulus`]), are shared too, so a clone copies reference counts, not the design
/// or its stimulus. Every failure of a run renders its inputs and expected values
/// from that shared stimulus and trace.
///
/// Like the trace, the process-unique id an [`EvalMemo`] keys on is shared across
/// clones; [`FunctionalTester::new`] draws one, and so does a
/// [`with_engine`](FunctionalTester::with_engine) call that changes the engine.
#[derive(Debug, Clone)]
pub struct FunctionalTester {
    reference: Arc<Netlist>,
    testbench: Arc<Testbench>,
    /// The testbench with its input names interned, shared across clones.
    stimulus: Arc<Stimulus>,
    engine: EngineKind,
    /// Lazily recorded reference output trace, shared across clones of this tester.
    reference_trace: Arc<OnceLock<Result<Arc<OutputTrace>, SimError>>>,
    id: u64,
}

impl FunctionalTester {
    /// Creates a tester from a reference netlist and a testbench, using the default
    /// execution engine ([`EngineKind::Compiled`]).
    pub fn new(reference: Netlist, testbench: Testbench) -> Self {
        Self {
            reference: Arc::new(reference),
            stimulus: Arc::new(Stimulus::new(&testbench)),
            testbench: Arc::new(testbench),
            engine: EngineKind::default(),
            reference_trace: Arc::new(OnceLock::new()),
            id: next_tool_id(),
        }
    }

    /// Switches the execution engine. A different engine starts a trace cache of its
    /// own, so the reference is recorded on the engine that tests the DUTs, and that
    /// trace lives only as long as this tester and its clones. It also takes a fresh
    /// [`EvalMemo`] id, so a memo never answers one engine's tester from another's
    /// entries.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        if engine != self.engine {
            self.engine = engine;
            self.reference_trace = Arc::new(OnceLock::new());
            self.id = next_tool_id();
        }
        self
    }

    /// The execution engine used by [`test`](Self::test).
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The testbench driven against DUT and reference.
    pub fn testbench(&self) -> &Testbench {
        &self.testbench
    }

    /// The reference netlist.
    pub fn reference(&self) -> &Netlist {
        &self.reference
    }

    /// The reference output trace (recording it on first use), shared across clones.
    ///
    /// The reference is simulated once, on the tester's engine, and the simulator is
    /// dropped once the trace is recorded: the trace serves every DUT tested through
    /// this tester or any of its clones, so same-case benchmark samples never
    /// re-simulate the reference.
    fn reference_trace(&self) -> Result<Arc<OutputTrace>, SimError> {
        self.reference_trace
            .get_or_init(|| {
                let mut ref_sim = self.engine.simulator(&self.reference)?;
                record_reference_trace(ref_sim.as_mut(), &self.stimulus).map(Arc::new)
            })
            .clone()
    }

    /// Runs the functional tests on a compiled DUT.
    ///
    /// Simulation infrastructure errors (e.g. a DUT that is missing a port entirely)
    /// are reported as a fully failing report rather than an `Err`, because from the
    /// workflow's point of view they are simply a non-functional design.
    pub fn test(&self, dut: &Netlist) -> SimReport {
        self.test_with_tape(dut, None)
    }

    /// Like [`test`](Self::test), but reuses an already-compiled tape of `dut` on
    /// the compiled-engine path — e.g. the tape an [`IncrementalCompiler`]
    /// produced alongside the netlist — instead of recompiling the DUT from
    /// scratch. `tape` must be the compilation of `dut` (a mismatched tape produces
    /// nonsense reports). The interpreter ignores it. Kept only so perfbench
    /// compiles: its traced replay times simulation through it.
    pub fn test_with_tape(&self, dut: &Netlist, tape: Option<Arc<Tape>>) -> SimReport {
        let outcome = self.reference_trace().and_then(|trace| match self.engine {
            EngineKind::Interp => {
                let mut dut_sim = Simulator::new(dut.clone());
                run_testbench_against_trace(&mut dut_sim, &trace, &self.stimulus)
            }
            EngineKind::Compiled => {
                let mut dut_sim = match tape {
                    Some(tape) => CompiledSimulator::from_tape(tape),
                    None => CompiledSimulator::new(dut)?,
                };
                run_testbench_against_trace(&mut dut_sim, &trace, &self.stimulus)
            }
        });
        outcome.unwrap_or_else(|_| {
            let total = self.testbench.checked_points();
            SimReport {
                total_points: total,
                failures: (0..total).map(PointFailure::bare).collect(),
            }
        })
    }
}

/// One revision's evaluation: its feedback, and its Verilog when it passed.
type Evaluation = (Feedback, Option<String>);

/// A memo of evaluations: each distinct revision is compiled and simulated once, and
/// every later evaluation of it, from any session sharing the memo, is a clone.
///
/// An evaluation is [`ChiselCompiler::compile`], then, when the revision compiles,
/// [`FunctionalTester::test`] on its netlist; the Verilog is kept only when the
/// simulation passes. That is a pure function of the compiler's pipeline, the
/// tester (reference, testbench, engine) and the circuit, so the memo keys each
/// result by three things:
///
/// * the compiler's id and the tester's id: process-unique numbers drawn by their
///   constructors (and by a [`FunctionalTester::with_engine`] call that changes the
///   engine) and shared by their clones. One memo can therefore serve two pass sets,
///   or two testers of one reference, without mixing their entries;
/// * the circuit's [`Circuit::located_fingerprint`], which covers every source
///   location as well as the structure, because diagnostics carry locations: a
///   relocated copy of a rejected design reports the moved locations.
///
/// A hit clones the feedback and Verilog out of the memo; no check, lowering,
/// emission or simulation runs. A miss runs the from-scratch path and inserts its
/// result unless another thread got there first. Two threads that miss the same key
/// at once both compute it, rather than one waiting for the other: evaluation is
/// deterministic, so the results are equal, and the first insert wins.
///
/// A [`Session`](crate::Session) evaluates through a private memo, or through one
/// shared with [`Session::with_memo`](crate::Session::with_memo);
/// `rechisel_benchsuite::sweep_suite` shares one across the sessions of each call.
///
/// # Example
///
/// ```
/// use rechisel_core::{ChiselCompiler, EvalMemo, Feedback, FunctionalTester};
/// use rechisel_hcl::prelude::*;
/// use rechisel_sim::Testbench;
///
/// let build = |invert: bool| {
///     let mut m = ModuleBuilder::new("Top");
///     let a = m.input("a", Type::uint(8));
///     let out = m.output("out", Type::uint(8));
///     let expr = if invert { a.not().bits(7, 0) } else { a };
///     m.connect(&out, &expr);
///     m.into_circuit()
/// };
/// let compiler = ChiselCompiler::new();
/// let reference = compiler.compile(&build(false)).unwrap().netlist;
/// let tester = FunctionalTester::new(reference.clone(), Testbench::random_for(&reference, 8, 0, 1));
///
/// let memo = EvalMemo::new();
/// let (feedback, verilog) = memo.evaluate(&compiler, &tester, &build(false));
/// assert!(feedback.is_success() && verilog.is_some());
/// let (wrong, _) = memo.evaluate(&compiler, &tester, &build(true));
/// assert!(matches!(wrong, Feedback::Functional { .. }));
/// // A resubmission, from this session or another, is answered from the memo.
/// assert_eq!(memo.evaluate(&compiler, &tester.clone(), &build(true)).0, wrong);
/// assert_eq!(memo.len(), 2);
/// // Another tester of the same reference gets entries of its own.
/// let other = FunctionalTester::new(reference.clone(), Testbench::random_for(&reference, 8, 0, 2));
/// memo.evaluate(&compiler, &other, &build(true));
/// assert_eq!(memo.len(), 3);
/// ```
#[derive(Default)]
pub struct EvalMemo {
    entries: Mutex<HashMap<(u64, u64, Fingerprint), Arc<Evaluation>>>,
}

impl std::fmt::Debug for EvalMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalMemo").field("entries", &self.len()).finish()
    }
}

impl EvalMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `circuit` with `compiler` and `tester`: the memoized result when
    /// this memo already holds one for the three, otherwise a from-scratch compile
    /// and simulation, remembered.
    pub fn evaluate(
        &self,
        compiler: &ChiselCompiler,
        tester: &FunctionalTester,
        circuit: &Circuit,
    ) -> (Feedback, Option<String>) {
        let key = (compiler.id, tester.id, circuit.located_fingerprint());
        let hit = self.entries.lock().expect("evaluation memo").get(&key).cloned();
        let evaluation = hit.unwrap_or_else(|| {
            let computed = Arc::new(evaluate_from_scratch(compiler, tester, circuit));
            let mut entries = self.entries.lock().expect("evaluation memo");
            Arc::clone(entries.entry(key).or_insert(computed))
        });
        Evaluation::clone(&evaluation)
    }

    /// The number of distinct (compiler, tester, revision) evaluations held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("evaluation memo").len()
    }

    /// True when the memo holds no evaluation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Compiles `circuit` and, when it compiles, tests its netlist: workflow steps ❷
/// and ❸ with no memo.
fn evaluate_from_scratch(
    compiler: &ChiselCompiler,
    tester: &FunctionalTester,
    circuit: &Circuit,
) -> Evaluation {
    let Compiled { netlist, verilog } = match compiler.compile(circuit) {
        Ok(compiled) => compiled,
        Err(diagnostics) => return (Feedback::Syntax { diagnostics }, None),
    };
    let report = tester.test(&netlist);
    if report.passed() {
        (Feedback::Success, Some(verilog))
    } else {
        (
            Feedback::Functional { failures: report.failures, total_points: report.total_points },
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_hcl::prelude::*;
    use rechisel_sim::FunctionalPoint;

    fn passthrough(name: &str) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a);
        m.into_circuit()
    }

    #[test]
    fn compile_success_produces_netlist_and_verilog() {
        let compiler = ChiselCompiler::new();
        let compiled = compiler.compile(&passthrough("Pass")).unwrap();
        assert!(compiled.verilog.contains("module Pass"));
        assert_eq!(compiled.netlist.defs.len(), 1);
    }

    #[test]
    fn compile_failure_returns_diagnostics() {
        let mut m = ModuleBuilder::new("Broken");
        let _a = m.input("a", Type::uint(8));
        let _out = m.output("out", Type::uint(8));
        // Output never driven.
        let compiler = ChiselCompiler::new();
        let errs = compiler.compile(&m.into_circuit()).unwrap_err();
        assert!(!errs.is_empty());
    }

    /// `out = a` / `out = not(a)` over a register stage.
    fn staged(name: &str, invert: bool) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        let r = m.reg_init("r", Type::uint(8), &Signal::lit_w(0, 8));
        m.connect(&r, &a);
        let expr = if invert { r.not().bits(7, 0) } else { r.clone() };
        m.connect(&out, &expr);
        m.into_circuit()
    }

    /// `circuit` with every port and statement moved to another source location:
    /// the same fingerprint, a different located fingerprint.
    fn relocated(circuit: &Circuit) -> Circuit {
        use rechisel_firrtl::ir::SourceInfo;
        let mut moved = circuit.clone();
        for module in &mut moved.modules {
            for (line, port) in module.ports.iter_mut().enumerate() {
                port.info = SourceInfo::new("Moved.scala", line as u32 + 1, 1);
            }
            let mut line = 100;
            module.visit_statements_mut(&mut |stmt| {
                line += 1;
                *stmt.info_mut() = SourceInfo::new("Moved.scala", line, 3);
            });
        }
        moved
    }

    #[test]
    fn incremental_compiler_tracks_the_from_scratch_compiler() {
        use rechisel_firrtl::{RebuildReason, RecompileOutcome};

        let scratch = ChiselCompiler::new();
        let mut inc = scratch.incremental();

        let first = inc.compile(&staged("Top", false)).unwrap();
        assert_eq!(first.outcome, RecompileOutcome::FullRebuild(RebuildReason::FirstRevision));

        // An edit runs the from-scratch compiler: products equal a scratch compile.
        let second = inc.compile(&staged("Top", true)).unwrap();
        assert_eq!(second.outcome, RecompileOutcome::FullRebuild(RebuildReason::Changed));
        let reference = scratch.compile(&staged("Top", true)).unwrap();
        assert_eq!(second.verilog, reference.verilog);
        assert_eq!(*second.netlist, reference.netlist);
        let tape = second.tape.as_ref().expect("tape compiles");

        // Resubmitting the same circuit reuses the netlist and tape.
        let third = inc.compile(&staged("Top", true)).unwrap();
        assert_eq!(third.outcome, RecompileOutcome::Identical);
        assert!(Arc::ptr_eq(&third.netlist, &second.netlist));
        assert!(Arc::ptr_eq(third.tape.as_ref().unwrap(), tape));
        assert_eq!(third.verilog, second.verilog);

        // A resubmission that only moved source locations is a new revision: it
        // compiles from scratch, and its Verilog is a scratch compile's.
        let moved = relocated(&staged("Top", true));
        assert_ne!(moved, staged("Top", true));
        assert_eq!(moved.fingerprint(), staged("Top", true).fingerprint());
        let fourth = inc.compile(&moved).unwrap();
        assert_eq!(fourth.outcome, RecompileOutcome::FullRebuild(RebuildReason::Changed));
        assert!(!Arc::ptr_eq(&fourth.netlist, &second.netlist));
        let reference = scratch.compile(&moved).unwrap();
        assert_eq!(fourth.verilog, reference.verilog);
        assert_eq!(*fourth.netlist, reference.netlist);

        // Resubmitting the first design after the edits reuses the first
        // revision's artifacts.
        let fifth = inc.compile(&staged("Top", false)).unwrap();
        assert_eq!(fifth.outcome, RecompileOutcome::Identical);
        assert!(Arc::ptr_eq(&fifth.netlist, &first.netlist));
        assert!(Arc::ptr_eq(fifth.tape.as_ref().unwrap(), first.tape.as_ref().unwrap()));
        assert_eq!(fifth.verilog, first.verilog);
    }

    #[test]
    fn incremental_compiler_reports_the_same_diagnostics_as_scratch() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use rechisel_firrtl::pipeline::{Pass, PassManager};
        use rechisel_firrtl::{DiagnosticReport, RecompileOutcome};

        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let passes = PassManager::standard().with_pass(Pass::new("count", move |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            DiagnosticReport::new()
        }));
        let scratch =
            ChiselCompiler::from_pipeline(Pipeline::new(VerilogBackend).with_passes(passes));
        let mut inc = scratch.incremental();
        let good = inc.compile(&staged("Top", false)).unwrap();

        let mut m = ModuleBuilder::new("Top");
        let _a = m.input("a", Type::uint(8));
        let _out = m.output("out", Type::uint(8)); // never driven
        let broken = m.into_circuit();

        let inc_errs = inc.compile(&broken).unwrap_err();
        let scratch_errs = scratch.compile(&broken).unwrap_err();
        assert_eq!(inc_errs, scratch_errs);

        // A rejected resubmission returns the same diagnostics without running
        // a single pass.
        let before = runs.load(Ordering::Relaxed);
        assert!(before > 0);
        assert_eq!(inc.compile(&broken).unwrap_err(), scratch_errs);
        assert_eq!(runs.load(Ordering::Relaxed), before);

        // The failed revision left the good one in the memo: resubmitting it
        // still reuses its artifacts.
        let again = inc.compile(&staged("Top", false)).unwrap();
        assert_eq!(again.outcome, RecompileOutcome::Identical);
        assert!(Arc::ptr_eq(&again.netlist, &good.netlist));
        assert!(again.tape.is_some());
        assert_eq!(runs.load(Ordering::Relaxed), before);
    }

    #[test]
    fn prebuilt_tape_reports_match_recompiled_ones() {
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&passthrough("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 8, 0, 3);
        let tester = FunctionalTester::new(reference, tb);

        let mut inc = compiler.incremental();
        let good = inc.compile(&passthrough("Dut")).unwrap();
        let report = tester.test_with_tape(&good.netlist, good.tape.clone());
        assert!(report.passed());
        assert_eq!(report, tester.test(&good.netlist));

        let mut m = ModuleBuilder::new("Dut");
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a.not().bits(7, 0));
        let wrong = inc.compile(&m.into_circuit()).unwrap();
        let report = tester.test_with_tape(&wrong.netlist, wrong.tape.clone());
        assert!(!report.passed());
        assert_eq!(report, tester.test(&wrong.netlist));
    }

    #[test]
    fn tester_passes_identical_designs_and_fails_different_ones() {
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&passthrough("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 8, 0, 3);
        let tester = FunctionalTester::new(reference, tb);

        let same = compiler.compile(&passthrough("Dut")).unwrap().netlist;
        assert!(tester.test(&same).passed());

        let mut m = ModuleBuilder::new("Wrong");
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a.not().bits(7, 0));
        let wrong = compiler.compile(&m.into_circuit()).unwrap().netlist;
        assert!(!tester.test(&wrong).passed());
    }

    #[test]
    fn tester_engines_agree_and_share_the_trace_across_clones() {
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&passthrough("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 8, 0, 3);
        let tester = FunctionalTester::new(reference, tb);
        assert_eq!(tester.engine(), EngineKind::Compiled);

        let mut m = ModuleBuilder::new("Wrong");
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a.not().bits(7, 0));
        let wrong = compiler.compile(&m.into_circuit()).unwrap().netlist;

        let compiled_report = tester.test(&wrong);
        let interp_report = tester.clone().with_engine(EngineKind::Interp).test(&wrong);
        assert_eq!(compiled_report, interp_report);

        // Clones share the reference netlist, the testbench and the recorded trace.
        let clone = tester.clone();
        assert!(std::ptr::eq(tester.reference(), clone.reference()));
        assert!(std::ptr::eq(tester.testbench(), clone.testbench()));
        let ta = tester.reference_trace().unwrap();
        let tb = clone.reference_trace().unwrap();
        assert!(Arc::ptr_eq(&ta, &tb));

        // Switching to another engine starts a trace of its own; keeping the engine
        // keeps the shared one.
        let same = tester.clone().with_engine(EngineKind::Compiled);
        assert!(Arc::ptr_eq(&same.reference_trace, &tester.reference_trace));
        let interp = tester.clone().with_engine(EngineKind::Interp);
        assert!(!Arc::ptr_eq(&interp.reference_trace, &tester.reference_trace));
        assert!(interp.reference_trace.get().is_none(), "recorded only when first used");
        assert_eq!(*interp.reference_trace().unwrap(), *ta);
    }

    #[test]
    fn an_interp_tester_reports_what_run_testbench_reports() {
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&staged("Ref", false)).unwrap().netlist;
        let wrong = compiler.compile(&staged("Wrong", true)).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 10, 1, 5);
        let tester =
            FunctionalTester::new(reference.clone(), tb.clone()).with_engine(EngineKind::Interp);
        let expected = rechisel_sim::run_testbench(&wrong, &reference, &tb).unwrap();
        assert!(!expected.passed());
        // The first test records the trace, the second compares against it.
        assert_eq!(tester.test(&wrong), expected);
        assert_eq!(tester.test(&wrong), expected);
        assert!(tester.test(&reference).passed());
    }

    #[test]
    fn tester_engines_agree_on_sequential_testbenches() {
        let counter = |name: &str| {
            let mut m = ModuleBuilder::new(name);
            let en = m.input("en", Type::bool());
            let out = m.output("count", Type::uint(8));
            let reg = m.reg_init("r", Type::uint(8), &Signal::lit_w(0, 8));
            m.when(&en, |m| {
                let next = reg.add(&Signal::lit_w(1, 8)).bits(7, 0);
                m.connect(&reg, &next);
            });
            m.connect(&out, &reg);
            m.into_circuit()
        };
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&counter("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 12, 1, 7);

        let mut m = ModuleBuilder::new("Wrong");
        let en = m.input("en", Type::bool());
        let out = m.output("count", Type::uint(8));
        m.connect(&out, &en.pad(8));
        let wrong = compiler.compile(&m.into_circuit()).unwrap().netlist;

        for dut in [&reference, &wrong] {
            let tester = FunctionalTester::new(reference.clone(), tb.clone());
            let compiled = tester.test(dut);
            let interp = tester.clone().with_engine(EngineKind::Interp).test(dut);
            assert_eq!(compiled, interp);
        }
    }

    /// `to_report()` of the functional feedback for `dut` against `reference` under
    /// `tb`, after checking that the Interp and Compiled testers report the same.
    fn feedback_text(reference: &Netlist, dut: &Netlist, tb: &Testbench) -> String {
        let tester = FunctionalTester::new(reference.clone(), tb.clone());
        let report = tester.test(dut);
        assert_eq!(report, tester.clone().with_engine(EngineKind::Interp).test(dut));
        let SimReport { failures, total_points } = report;
        crate::Feedback::Functional { failures, total_points }.to_report()
    }

    /// A design with inputs `a` and `b` and outputs `x = a + b` and `y = a ^ b`,
    /// declared in `outputs` order, plus `z = a` when `extra` is set.
    fn two_outputs(outputs: [&str; 2], extra: bool) -> Netlist {
        let mut m = ModuleBuilder::new("Pair");
        let a = m.input("a", Type::uint(8));
        let b = m.input("b", Type::uint(8));
        for name in outputs {
            let port = m.output(name, Type::uint(8));
            let value = if name == "x" { a.add(&b).bits(7, 0) } else { a.xor(&b) };
            m.connect(&port, &value);
        }
        if extra {
            let z = m.output("z", Type::uint(8));
            m.connect(&z, &a);
        }
        ChiselCompiler::new().compile(&m.into_circuit()).unwrap().netlist
    }

    /// `x = a + 1` over an `a` of `width` bits, or `x = a` when `off_by_one` is unset.
    fn one_input(width: u32, off_by_one: bool) -> Netlist {
        let mut m = ModuleBuilder::new("One");
        let a = m.input("a", Type::uint(width));
        let x = m.output("x", Type::uint(8));
        let value = if off_by_one { a.pad(8).add(&Signal::lit_w(1, 8)).bits(7, 0) } else { a };
        m.connect(&x, &value.pad(8));
        ChiselCompiler::new().compile(&m.into_circuit()).unwrap().netlist
    }

    fn point(inputs: &[(&str, u128)]) -> Vec<(String, u128)> {
        inputs.iter().map(|(name, value)| (name.to_string(), *value)).collect()
    }

    #[test]
    fn a_dut_with_other_outputs_fails_every_point_under_its_own_names() {
        let reference = two_outputs(["x", "y"], false);
        let tb = Testbench::new(vec![
            FunctionalPoint::comb(point(&[("a", 1), ("b", 2)])),
            FunctionalPoint::comb(point(&[("a", 5), ("b", 5)])),
        ]);
        assert_eq!(
            feedback_text(&reference, &two_outputs(["y", "x"], false), &tb),
            "simulation failed: 2 of 2 functional points mismatched\n  \
             point 0: inputs {a=1, b=2} expected {x=3, y=3} got {y=3, x=3}\n  \
             point 1: inputs {a=5, b=5} expected {x=10, y=0} got {y=0, x=10}\n"
        );
        assert_eq!(
            feedback_text(&reference, &two_outputs(["x", "y"], true), &tb),
            "simulation failed: 2 of 2 functional points mismatched\n  \
             point 0: inputs {a=1, b=2} expected {x=3, y=3} got {x=3, y=3, z=1}\n  \
             point 1: inputs {a=5, b=5} expected {x=10, y=0} got {x=10, y=0, z=5}\n"
        );
    }

    #[test]
    fn an_input_the_dut_lacks_is_not_driven() {
        let reference = two_outputs(["x", "y"], false);
        let tb = Testbench::new(vec![
            FunctionalPoint::comb(point(&[("a", 1), ("b", 2)])),
            FunctionalPoint::comb(point(&[("a", 4), ("b", 0)])),
        ]);
        // The DUT has no `b`: its `x` and `y` follow `a` alone.
        let mut m = ModuleBuilder::new("NoB");
        let a = m.input("a", Type::uint(8));
        let x = m.output("x", Type::uint(8));
        let y = m.output("y", Type::uint(8));
        m.connect(&x, &a);
        m.connect(&y, &a);
        let dut = ChiselCompiler::new().compile(&m.into_circuit()).unwrap().netlist;
        assert_eq!(
            feedback_text(&reference, &dut, &tb),
            "simulation failed: 1 of 2 functional points mismatched\n  \
             point 0: inputs {a=1, b=2} expected {x=3, y=3} got {x=1, y=1}\n"
        );
    }

    #[test]
    fn a_value_wider_than_the_dut_port_leaves_the_port_as_it_was() {
        let tb = Testbench::new(vec![
            FunctionalPoint::comb(point(&[("a", 3)])),
            FunctionalPoint::comb(point(&[("a", 200)])),
            FunctionalPoint::comb(point(&[("a", 9)])),
        ]);
        assert_eq!(
            feedback_text(&one_input(8, false), &one_input(4, false), &tb),
            "simulation failed: 1 of 3 functional points mismatched\n  \
             point 1: inputs {a=200} expected {x=200} got {x=3}\n"
        );
    }

    #[test]
    fn an_input_named_twice_takes_its_last_value() {
        let tb = Testbench::new(vec![FunctionalPoint::comb(point(&[("a", 1), ("a", 7)]))]);
        assert_eq!(
            feedback_text(&one_input(8, false), &one_input(8, true), &tb),
            "simulation failed: 1 of 1 functional points mismatched\n  \
             point 0: inputs {a=1, a=7} expected {x=7} got {x=8}\n"
        );
    }

    #[test]
    fn failures_after_setup_points_carry_the_point_index_and_the_checked_row() {
        let accumulator = |off_by_one: bool| {
            let mut m = ModuleBuilder::new("Acc");
            let a = m.input("a", Type::uint(8));
            let x = m.output("x", Type::uint(8));
            let acc = m.reg_init("acc", Type::uint(8), &Signal::lit_w(0, 8));
            m.connect(&acc, &acc.add(&a).bits(7, 0));
            let shown = if off_by_one { acc.add(&Signal::lit_w(1, 8)).bits(7, 0) } else { acc };
            m.connect(&x, &shown);
            ChiselCompiler::new().compile(&m.into_circuit()).unwrap().netlist
        };
        let tb = Testbench::new(vec![
            FunctionalPoint::setup(point(&[("a", 1)]), 1),
            FunctionalPoint::seq(point(&[("a", 2)]), 1),
            FunctionalPoint::setup(point(&[("a", 3)]), 1),
            FunctionalPoint::setup(point(&[("a", 4)]), 1),
            FunctionalPoint::seq(point(&[("a", 5)]), 1),
        ]);
        let text = feedback_text(&accumulator(false), &accumulator(true), &tb);
        assert_eq!(
            text,
            "simulation failed: 2 of 2 functional points mismatched\n  \
             point 1: inputs {a=2} expected {x=3} got {x=4}\n  \
             point 4: inputs {a=5} expected {x=15} got {x=16}\n"
        );
    }

    #[test]
    fn the_structural_fallback_reports_every_point_with_nothing_attached() {
        let reference = one_input(8, false);
        let mut broken = reference.clone();
        broken.defs[0].expr = rechisel_firrtl::ir::Expression::reference("ghost");
        let tb = Testbench::new(vec![
            FunctionalPoint::setup(point(&[("a", 1)]), 0),
            FunctionalPoint::comb(point(&[("a", 2)])),
            FunctionalPoint::comb(point(&[("a", 3)])),
        ]);
        let text = feedback_text(&reference, &broken, &tb);
        assert_eq!(
            text,
            "simulation failed: 2 of 2 functional points mismatched\n  \
             point 0: inputs {} expected {} got {}\n  \
             point 1: inputs {} expected {} got {}\n"
        );
        let tester = FunctionalTester::new(reference, tb);
        let report = tester.test(&broken);
        let feedback = crate::Feedback::Functional { failures: report.failures, total_points: 2 };
        assert_eq!(feedback.identity_keys(), vec!["func@".to_string(); 2]);
    }

    #[test]
    fn tester_reports_structural_failures_as_fully_failing() {
        // A DUT with a completely different interface cannot be simulated against the
        // testbench; both engines must degrade to an all-failing report.
        let compiler = ChiselCompiler::new();
        let reference = compiler.compile(&passthrough("Ref")).unwrap().netlist;
        let tb = Testbench::random_for(&reference, 6, 0, 3);
        let mut m = ModuleBuilder::new("Alien");
        let x = m.input("unrelated", Type::bool());
        let y = m.output("other", Type::bool());
        m.connect(&y, &x);
        let alien = compiler.compile(&m.into_circuit()).unwrap().netlist;
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let tester = FunctionalTester::new(reference.clone(), tb.clone()).with_engine(kind);
            let report = tester.test(&alien);
            assert!(!report.passed(), "engine {kind}");
            assert_eq!(report.total_points, 6);
        }
    }
}
