//! The external tools of the workflow: the Chisel→Verilog compiler wrapper and the
//! functional tester (workflow steps ❷ and ❸ of the paper's Fig. 2).

use std::sync::{Arc, OnceLock};

use rechisel_firrtl::check::CheckOptions;
use rechisel_firrtl::diagnostics::Diagnostic;
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::pipeline::{PassManager, Pipeline};
use rechisel_firrtl::{Fingerprint, RebuildReason, RecompileOutcome};
use rechisel_sim::{
    record_reference_trace, run_testbench, run_testbench_against_trace, CompiledSimulator,
    EngineKind, OutputTrace, SimError, SimReport, Tape, Testbench,
};
use rechisel_verilog::VerilogBackend;

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
/// The compiler is a thin façade: [`ChiselCompiler::compile`] runs the staged pipeline
/// (check → lower → emit) and flattens the result into the [`Compiled`] pair the
/// workflow consumes. Callers that want the staged artifacts, per-pass timing stats or
/// a different backend use [`ChiselCompiler::pipeline`] / [`ChiselCompiler::from_pipeline`].
#[derive(Debug, Clone)]
pub struct ChiselCompiler {
    pipeline: Pipeline,
}

impl Default for ChiselCompiler {
    fn default() -> Self {
        Self::new()
    }
}

impl ChiselCompiler {
    /// A compiler with all checks enabled (the normal Chisel/FIRRTL pipeline).
    pub fn new() -> Self {
        Self { pipeline: Pipeline::new(VerilogBackend) }
    }

    /// A compiler with custom check options (used by ablations and by the AutoChip
    /// baseline's Verilog-style checking).
    pub fn with_options(options: CheckOptions) -> Self {
        Self::from_pipeline(
            Pipeline::new(VerilogBackend).with_passes(PassManager::from_options(options)),
        )
    }

    /// Wraps an explicit pipeline (custom passes and/or backend).
    pub fn from_pipeline(pipeline: Pipeline) -> Self {
        Self { pipeline }
    }

    /// The underlying staged pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Compiles a circuit.
    ///
    /// Uses the pipeline's borrowed fused path ([`Pipeline::run_ref`]), so the hot
    /// reflection loop pays no circuit clone per candidate evaluation.
    ///
    /// # Errors
    ///
    /// Returns the list of error-severity diagnostics when any check fails or lowering
    /// is impossible — the "syntax error" feedback of the ReChisel workflow.
    pub fn compile(&self, circuit: &Circuit) -> Result<Compiled, Vec<Diagnostic>> {
        let (netlist, verilog) = self.pipeline.run_ref(circuit)?;
        Ok(Compiled { netlist, verilog })
    }

    /// An incremental session over this compiler: the returned
    /// [`IncrementalCompiler`] reuses the last good revision's artifacts when a
    /// circuit's fingerprint is unchanged, and compiles from scratch otherwise.
    pub fn incremental(&self) -> IncrementalCompiler {
        IncrementalCompiler::new(self.clone())
    }
}

/// The output of one [`IncrementalCompiler::compile`] call.
///
/// Unlike [`Compiled`], the netlist is shared (`Arc`) — on a fingerprint hit it is
/// literally the previous revision's netlist — and the compiled simulation
/// [`Tape`] rides along so the tester does not recompile the DUT.
#[derive(Debug, Clone)]
pub struct IncrementalCompiled {
    /// The lowered netlist (shared with the compiler's memo).
    pub netlist: Arc<Netlist>,
    /// The emitted Verilog source (always re-emitted in full; emission is cheap
    /// relative to checking/lowering and the serving layer wants exact text).
    pub verilog: String,
    /// The compiled simulation tape. `None` when tape compilation failed; on the
    /// default Compiled engine, [`FunctionalTester::test_with_tape`] then compiles
    /// the tape again, fails again, and reports every point failed.
    pub tape: Option<Arc<Tape>>,
    /// Whether the revision reused the last good one (see [`RecompileOutcome`]).
    pub outcome: RecompileOutcome,
}

/// The last revision that compiled: what a same-fingerprint revision reuses.
#[derive(Debug)]
struct LastGood {
    fingerprint: Fingerprint,
    netlist: Arc<Netlist>,
    tape: Option<Arc<Tape>>,
}

/// A stateful compiler for the reflection loop: a last-good fingerprint memo in
/// front of [`ChiselCompiler::compile`].
///
/// A circuit whose [`Fingerprint`] equals that of the last revision that compiled
/// reuses its netlist and tape ([`RecompileOutcome::Identical`]); the Verilog is
/// re-emitted through the pipeline's backend. Any other circuit runs the
/// from-scratch compiler and [`Tape::compile`]
/// ([`RecompileOutcome::FullRebuild`]). A revision that fails leaves the memo
/// untouched, so a broken candidate in the middle of a session does not cost the
/// next resubmission of the last good one a rebuild.
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
///
/// let mut inc = ChiselCompiler::new().incremental();
/// let first = inc.compile(&build(false)).unwrap();
/// assert_eq!(first.outcome, RecompileOutcome::FullRebuild(RebuildReason::FirstRevision));
/// // An unchanged resubmission reuses the netlist.
/// let again = inc.compile(&build(false)).unwrap();
/// assert_eq!(again.outcome, RecompileOutcome::Identical);
/// // An edit compiles from scratch.
/// let edited = inc.compile(&build(true)).unwrap();
/// assert_eq!(edited.outcome, RecompileOutcome::FullRebuild(RebuildReason::Changed));
/// assert!(edited.verilog.contains("module Top"));
/// ```
#[derive(Debug)]
pub struct IncrementalCompiler {
    compiler: ChiselCompiler,
    last_good: Option<LastGood>,
}

impl IncrementalCompiler {
    /// Wraps `compiler`; the first [`compile`](Self::compile) call always runs it.
    pub fn new(compiler: ChiselCompiler) -> Self {
        Self { compiler, last_good: None }
    }

    /// The wrapped from-scratch compiler.
    pub fn compiler(&self) -> &ChiselCompiler {
        &self.compiler
    }

    /// Compiles a circuit, reusing the last good revision's netlist and tape when
    /// the fingerprint is unchanged.
    ///
    /// # Errors
    ///
    /// Returns the error-severity diagnostics when checking or lowering fails —
    /// exactly [`ChiselCompiler::compile`]'s on the same circuit. The memo keeps
    /// the last good revision.
    pub fn compile(&mut self, circuit: &Circuit) -> Result<IncrementalCompiled, Vec<Diagnostic>> {
        let fingerprint = circuit.fingerprint();
        let reason = match &self.last_good {
            Some(last) if last.fingerprint == fingerprint => {
                let verilog = self
                    .compiler
                    .pipeline()
                    .backend()
                    .emit(circuit, &last.netlist)
                    .map_err(|d| vec![d])?;
                return Ok(IncrementalCompiled {
                    netlist: Arc::clone(&last.netlist),
                    verilog,
                    tape: last.tape.clone(),
                    outcome: RecompileOutcome::Identical,
                });
            }
            Some(_) => RebuildReason::Changed,
            None => RebuildReason::FirstRevision,
        };
        let Compiled { netlist, verilog } = self.compiler.compile(circuit)?;
        let tape = Tape::compile(&netlist).ok().map(Arc::new);
        let netlist = Arc::new(netlist);
        self.last_good =
            Some(LastGood { fingerprint, netlist: Arc::clone(&netlist), tape: tape.clone() });
        Ok(IncrementalCompiled {
            netlist,
            verilog,
            tape,
            outcome: RecompileOutcome::FullRebuild(reason),
        })
    }
}

/// The "Simulator" external tool: functional testing of a compiled design against the
/// benchmark's reference model.
///
/// The tester runs on either simulation engine (see [`EngineKind`]); the default is
/// the compiled engine. On the compiled path the reference netlist's instruction
/// [`Tape`] is compiled once, lazily, and **shared across clones** — a benchmark case
/// hands out one tester clone per sample, so the whole sweep pays a single reference
/// compilation per case, mirroring the existing reference-netlist cache. The
/// reference **output trace** (its outputs at every checked point) is cached the same
/// way, so the reference simulation itself also runs once per case rather than once
/// per sample.
#[derive(Debug, Clone)]
pub struct FunctionalTester {
    reference: Netlist,
    testbench: Testbench,
    engine: EngineKind,
    /// Lazily compiled reference tape, shared across clones of this tester.
    reference_tape: Arc<OnceLock<Result<Arc<Tape>, SimError>>>,
    /// Lazily recorded reference output trace, shared across clones of this tester.
    reference_trace: Arc<OnceLock<Result<Arc<OutputTrace>, SimError>>>,
}

impl FunctionalTester {
    /// Creates a tester from a reference netlist and a testbench, using the default
    /// execution engine ([`EngineKind::Compiled`]).
    pub fn new(reference: Netlist, testbench: Testbench) -> Self {
        Self {
            reference,
            testbench,
            engine: EngineKind::default(),
            reference_tape: Arc::new(OnceLock::new()),
            reference_trace: Arc::new(OnceLock::new()),
        }
    }

    /// Creates a tester whose reference tape is already compiled — e.g. pulled from
    /// a shared [`ArtifactCache`](crate::ArtifactCache) — so this tester (and every
    /// clone) never compiles the reference netlist itself.
    ///
    /// `tape` must be the compilation result of `reference`; passing a mismatched
    /// tape produces nonsense reference traces.
    pub fn with_shared_tape(
        reference: Netlist,
        testbench: Testbench,
        tape: Result<Arc<Tape>, SimError>,
    ) -> Self {
        let tester = Self::new(reference, testbench);
        tester.reference_tape.set(tape).expect("fresh tester has an empty tape cell");
        tester
    }

    /// Switches the execution engine, keeping the (shared) compiled-tape cache.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The compiled reference tape shared across clones of this tester, compiling it
    /// on first use. Public so callers can verify tape sharing (`Arc::ptr_eq`) and
    /// so the serving layer can surface tape-compile errors directly.
    pub fn shared_tape(&self) -> Result<Arc<Tape>, SimError> {
        self.reference_tape()
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

    /// The compiled reference tape (compiling it on first use), shared across clones.
    fn reference_tape(&self) -> Result<Arc<Tape>, SimError> {
        self.reference_tape.get_or_init(|| Tape::compile(&self.reference).map(Arc::new)).clone()
    }

    /// The reference output trace (recording it on first use), shared across clones.
    ///
    /// One reference tape walk serves every DUT tested through this tester or any of
    /// its clones, so same-case benchmark samples never re-simulate the reference.
    fn reference_trace(&self) -> Result<Arc<OutputTrace>, SimError> {
        self.reference_trace
            .get_or_init(|| {
                self.reference_tape().and_then(|tape| {
                    let mut ref_sim = CompiledSimulator::from_tape(tape);
                    record_reference_trace(&mut ref_sim, &self.testbench).map(Arc::new)
                })
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
    /// nonsense reports). The interpreter ignores it.
    pub fn test_with_tape(&self, dut: &Netlist, tape: Option<Arc<Tape>>) -> SimReport {
        let outcome = match self.engine {
            EngineKind::Interp => run_testbench(dut, &self.reference, &self.testbench),
            EngineKind::Compiled => self.reference_trace().and_then(|trace| {
                let mut dut_sim = match tape {
                    Some(tape) => CompiledSimulator::from_tape(tape),
                    None => CompiledSimulator::new(dut)?,
                };
                run_testbench_against_trace(&mut dut_sim, &trace, &self.testbench)
            }),
        };
        match outcome {
            Ok(report) => report,
            Err(_) => {
                let total = self.testbench.checked_points();
                SimReport {
                    total_points: total,
                    failures: (0..total)
                        .map(|index| rechisel_sim::PointFailure {
                            index,
                            inputs: Vec::new(),
                            expected: Vec::new(),
                            actual: Vec::new(),
                        })
                        .collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_hcl::prelude::*;

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
    /// the same fingerprint, different diagnostics locations.
    fn relocated(circuit: &Circuit) -> Circuit {
        use rechisel_firrtl::ir::{SourceInfo, Statement};
        let mut moved = circuit.clone();
        for module in &mut moved.modules {
            for (line, port) in module.ports.iter_mut().enumerate() {
                port.info = SourceInfo::new("Moved.scala", line as u32 + 1, 1);
            }
            for (line, stmt) in module.body.iter_mut().enumerate() {
                if let Statement::Connect { info, .. } | Statement::Reg { info, .. } = stmt {
                    *info = SourceInfo::new("Moved.scala", line as u32 + 100, 3);
                }
            }
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

        // So does a resubmission that only moved source locations; its Verilog is
        // what a scratch compile of the moved circuit emits.
        let moved = relocated(&staged("Top", true));
        assert_ne!(moved, staged("Top", true));
        let fourth = inc.compile(&moved).unwrap();
        assert_eq!(fourth.outcome, RecompileOutcome::Identical);
        assert!(Arc::ptr_eq(&fourth.netlist, &second.netlist));
        assert!(Arc::ptr_eq(fourth.tape.as_ref().unwrap(), tape));
        assert_eq!(fourth.verilog, scratch.compile(&moved).unwrap().verilog);
    }

    #[test]
    fn incremental_compiler_reports_the_same_diagnostics_as_scratch() {
        use rechisel_firrtl::RecompileOutcome;

        let scratch = ChiselCompiler::new();
        let mut inc = scratch.incremental();
        let good = inc.compile(&staged("Top", false)).unwrap();

        let mut m = ModuleBuilder::new("Top");
        let _a = m.input("a", Type::uint(8));
        let _out = m.output("out", Type::uint(8)); // never driven
        let broken = m.into_circuit();

        let inc_errs = inc.compile(&broken).unwrap_err();
        let scratch_errs = scratch.compile(&broken).unwrap_err();
        assert_eq!(inc_errs, scratch_errs);
        // The failed revision left the memo alone: resubmitting the last good
        // design still reuses its artifacts.
        let again = inc.compile(&staged("Top", false)).unwrap();
        assert_eq!(again.outcome, RecompileOutcome::Identical);
        assert!(Arc::ptr_eq(&again.netlist, &good.netlist));
        assert!(again.tape.is_some());
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
    fn tester_engines_agree_and_share_the_tape_across_clones() {
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

        // Clones share the lazily compiled reference tape and the recorded trace.
        let clone = tester.clone();
        let a = tester.reference_tape().unwrap();
        let b = clone.reference_tape().unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let ta = tester.reference_trace().unwrap();
        let tb = clone.reference_trace().unwrap();
        assert!(std::sync::Arc::ptr_eq(&ta, &tb));
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
