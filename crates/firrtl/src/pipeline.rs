//! The staged compilation pipeline: explicit artifacts, a named-pass manager and
//! pluggable emission backends.
//!
//! Historically the toolchain fused checking, lowering and Verilog emission into one
//! opaque call. This module splits the flow into the staged artifacts
//!
//! ```text
//! Circuit --check--> CheckedCircuit --lower--> Netlist --emit--> backend output
//! ```
//!
//! so that orchestration layers can cache, instrument or swap any stage:
//!
//! * [`PassManager`] — the checking stage as an ordered list of *named* passes with
//!   registration, ordering introspection and per-pass timing stats.
//! * [`CheckedCircuit`] — proof that a circuit passed the checking stage; the only way
//!   to reach the lowering stage.
//! * [`EmitBackend`] — the emission seam. [`FirrtlBackend`] (this crate) and
//!   `rechisel_verilog::VerilogBackend` are the two standard implementations.
//! * [`Pipeline`] — ties the stages together and exposes them both individually
//!   ([`Pipeline::check`], [`Pipeline::lower`], [`Pipeline::emit`]) and fused
//!   ([`Pipeline::run`]).
//!
//! # Example
//!
//! ```
//! use rechisel_firrtl::ir::{
//!     Circuit, Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type,
//! };
//! use rechisel_firrtl::pipeline::{FirrtlBackend, PassManager, Pipeline};
//!
//! let mut m = Module::new("Pass", ModuleKind::Module);
//! m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
//! m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
//! m.ports.push(Port::new("in", Direction::Input, Type::uint(8)));
//! m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
//! m.body.push(Statement::Connect {
//!     loc: Expression::reference("out"),
//!     expr: Expression::reference("in"),
//!     info: SourceInfo::unknown(),
//! });
//! let circuit = Circuit::single(m);
//!
//! let pipeline = Pipeline::new(FirrtlBackend);
//! assert_eq!(PassManager::standard().names(), pipeline.passes().names());
//!
//! // Staged: each artifact is available separately.
//! let checked = pipeline.check(&circuit).expect("clean design");
//! let netlist = pipeline.lower(&checked).expect("lowerable design");
//! let firrtl = pipeline.emit(&checked, &netlist).expect("emittable design");
//! assert!(firrtl.starts_with("circuit Pass"));
//!
//! // Or fused, with per-pass timing stats on the side.
//! let output = pipeline.run(&circuit).expect("clean design");
//! assert_eq!(output.backend, "firrtl");
//! assert_eq!(output.stats.len(), PassManager::standard().len());
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Module, SourceInfo};
use crate::lower::{lower_circuit, Netlist};
use crate::passes::{
    check_clocking, check_combinational_loops, check_connects, check_initialization, check_widths,
};
use crate::printer::print_firrtl;

// ---------------------------------------------------------------------------------
// Pass manager
// ---------------------------------------------------------------------------------

/// The signature of a checking pass: inspect one module in the context of its circuit
/// and report diagnostics.
pub type PassFn = dyn Fn(&Module, &Circuit) -> DiagnosticReport + Send + Sync;

/// A named checking pass registered with a [`PassManager`].
#[derive(Clone)]
pub struct Pass {
    name: &'static str,
    run: Arc<PassFn>,
}

impl Pass {
    /// Wraps a pass function under a stable name.
    pub fn new(
        name: &'static str,
        run: impl Fn(&Module, &Circuit) -> DiagnosticReport + Send + Sync + 'static,
    ) -> Self {
        Self { name, run: Arc::new(run) }
    }

    /// The pass name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl std::fmt::Debug for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pass").field("name", &self.name).finish()
    }
}

/// Wall-clock cost and yield of one pass over one checking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass name.
    pub name: &'static str,
    /// Total time spent in the pass, summed over all modules.
    pub duration: Duration,
    /// Number of diagnostics the pass produced.
    pub diagnostics: usize,
}

/// Per-pass timing statistics of one checking run, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    timings: Vec<PassTiming>,
}

impl PassStats {
    /// The per-pass timings, in pass-registration order.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Number of passes measured.
    pub fn len(&self) -> usize {
        self.timings.len()
    }

    /// True when no passes were measured.
    pub fn is_empty(&self) -> bool {
        self.timings.is_empty()
    }

    /// Total time across all passes.
    pub fn total(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// The timing entry of a pass, by name.
    pub fn pass(&self, name: &str) -> Option<&PassTiming> {
        self.timings.iter().find(|t| t.name == name)
    }
}

/// An ordered collection of named checking passes.
///
/// The standard pipeline is [`PassManager::standard`]; [`PassManager::without`] drops a
/// pass from it (the AutoChip baseline drops `clocking`), and custom passes can be
/// appended with [`PassManager::register`].
///
/// Pass order is significant: diagnostics are reported in registration order (per
/// module), which downstream feedback consumers rely on.
///
/// # Example
///
/// ```
/// use rechisel_firrtl::pipeline::{Pass, PassManager};
/// use rechisel_firrtl::DiagnosticReport;
///
/// let mut pm = PassManager::standard();
/// assert_eq!(pm.names(), ["connects", "widths", "clocking", "initialization", "comb-loops"]);
///
/// // Register a custom lint pass; it runs after the standard ones.
/// pm.register(Pass::new("my-lint", |_module, _circuit| DiagnosticReport::new()));
/// assert_eq!(pm.len(), 6);
/// assert!(pm.contains("my-lint"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PassManager {
    passes: Vec<Pass>,
}

impl PassManager {
    /// A manager with no passes registered.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The standard checking pipeline, in the canonical order: connects, widths,
    /// clocking, initialization, combinational loops.
    pub fn standard() -> Self {
        Self::empty()
            .with_pass(Pass::new("connects", check_connects))
            .with_pass(Pass::new("widths", check_widths))
            .with_pass(Pass::new("clocking", check_clocking))
            .with_pass(Pass::new("initialization", check_initialization))
            .with_pass(Pass::new("comb-loops", check_combinational_loops))
    }

    /// Appends a pass. Passes run in registration order.
    pub fn register(&mut self, pass: Pass) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Builder-style [`register`](Self::register).
    pub fn with_pass(mut self, pass: Pass) -> Self {
        self.register(pass);
        self
    }

    /// Removes the pass named `name`, keeping the order of the others. An unknown
    /// name leaves the manager unchanged.
    pub fn without(mut self, name: &str) -> Self {
        self.passes.retain(|p| p.name != name);
        self
    }

    /// The registered pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name).collect()
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// True when a pass with the given name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.passes.iter().any(|p| p.name == name)
    }

    /// Runs every pass over every module of `circuit` and collects the diagnostics.
    ///
    /// A circuit without its top module short-circuits to a single
    /// [`ErrorCode::MissingTopModule`] diagnostic, exactly like the historical
    /// `check_circuit` entry point.
    pub fn run(&self, circuit: &Circuit) -> DiagnosticReport {
        self.run_timed(circuit).0
    }

    /// Like [`run`](Self::run), additionally returning per-pass timing stats.
    pub fn run_timed(&self, circuit: &Circuit) -> (DiagnosticReport, PassStats) {
        let mut report = DiagnosticReport::new();
        let mut stats = PassStats {
            timings: self
                .passes
                .iter()
                .map(|p| PassTiming { name: p.name, duration: Duration::ZERO, diagnostics: 0 })
                .collect(),
        };
        if circuit.top_module().is_none() {
            report.push(Diagnostic::error(
                ErrorCode::MissingTopModule,
                SourceInfo::unknown(),
                format!("top module {} is not defined in the circuit", circuit.top),
            ));
            return (report, stats);
        }
        // Modules outer, passes inner: diagnostics keep the exact order the fused
        // checker produced, which feedback consumers (and the parity tests) rely on.
        for module in &circuit.modules {
            for (index, pass) in self.passes.iter().enumerate() {
                let start = Instant::now();
                let pass_report = (pass.run)(module, circuit);
                let timing = &mut stats.timings[index];
                timing.duration += start.elapsed();
                timing.diagnostics += pass_report.len();
                report.extend(pass_report);
            }
        }
        (report, stats)
    }
}

// ---------------------------------------------------------------------------------
// Staged artifacts
// ---------------------------------------------------------------------------------

/// A circuit that passed the checking stage.
///
/// Constructing a `CheckedCircuit` is only possible through [`Pipeline::check`] (or
/// [`CheckedCircuit::assume_checked`] for callers that validated by other means), which
/// makes "checked" a property the type system carries to the lowering stage.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedCircuit {
    circuit: Circuit,
    warnings: DiagnosticReport,
}

impl CheckedCircuit {
    /// Wraps a circuit the caller has already validated.
    ///
    /// Lowering a circuit that would not pass the checks produces an `Err` from
    /// [`Pipeline::lower`] rather than undefined behaviour, so this constructor is
    /// safe — it merely skips the diagnostics.
    pub fn assume_checked(circuit: Circuit) -> Self {
        Self { circuit, warnings: DiagnosticReport::new() }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Non-error diagnostics collected while checking.
    pub fn warnings(&self) -> &DiagnosticReport {
        &self.warnings
    }

    /// Unwraps the circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }
}

// ---------------------------------------------------------------------------------
// Emission backends
// ---------------------------------------------------------------------------------

/// A pluggable emission backend: turns the lowered [`Netlist`] (with the source
/// circuit available for source-level backends) into a textual artifact.
///
/// The circuit handed to [`emit`](Self::emit) has always passed the checking stage —
/// [`Pipeline`] only calls backends on checked designs — so backends may assume a
/// well-formed input; the borrowed signature keeps the reflection loop's hot path free
/// of circuit clones.
///
/// The two standard implementations are [`FirrtlBackend`] (this crate) and
/// `rechisel_verilog::VerilogBackend`.
pub trait EmitBackend: Send + Sync {
    /// Short stable backend name (e.g. `"verilog"`, `"firrtl"`).
    fn name(&self) -> &'static str;

    /// Conventional file extension of the emitted artifact, without the dot.
    fn file_extension(&self) -> &'static str {
        "txt"
    }

    /// Emits the backend's output for a checked and lowered design.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the netlist contains constructs the backend cannot
    /// express.
    fn emit(&self, circuit: &Circuit, netlist: &Netlist) -> Result<String, Diagnostic>;
}

/// The FIRRTL text backend: emits the checked circuit as FIRRTL-flavoured text.
///
/// Mostly useful for debugging, golden tests and as the second backend proving the
/// [`EmitBackend`] seam; the netlist argument is ignored because FIRRTL is printed from
/// the pre-lowering IR.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirrtlBackend;

impl EmitBackend for FirrtlBackend {
    fn name(&self) -> &'static str {
        "firrtl"
    }

    fn file_extension(&self) -> &'static str {
        "fir"
    }

    fn emit(&self, circuit: &Circuit, _netlist: &Netlist) -> Result<String, Diagnostic> {
        Ok(print_firrtl(circuit))
    }
}

// ---------------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------------

/// The output of a fused [`Pipeline::run`].
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The checked circuit (stage 1 artifact).
    pub checked: CheckedCircuit,
    /// The lowered netlist (stage 2 artifact).
    pub netlist: Netlist,
    /// The emitted backend output (stage 3 artifact).
    pub output: String,
    /// Name of the backend that produced [`output`](Self::output).
    pub backend: &'static str,
    /// Per-pass timing stats of the checking stage.
    pub stats: PassStats,
}

/// The staged compilation pipeline: a [`PassManager`] for checking plus an
/// [`EmitBackend`] for emission, with lowering in between.
///
/// Cloning a pipeline is cheap — passes and backend are shared behind `Arc`s — so one
/// pipeline can serve many threads.
#[derive(Clone)]
pub struct Pipeline {
    passes: PassManager,
    backend: Arc<dyn EmitBackend>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.passes.names())
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl Default for Pipeline {
    /// The standard passes with the FIRRTL text backend. Verilog users plug in
    /// `rechisel_verilog::VerilogBackend` (which `rechisel-core`'s compiler does by
    /// default).
    fn default() -> Self {
        Self::new(FirrtlBackend)
    }
}

impl Pipeline {
    /// A pipeline with the standard passes and the given backend.
    pub fn new(backend: impl EmitBackend + 'static) -> Self {
        Self { passes: PassManager::standard(), backend: Arc::new(backend) }
    }

    /// Replaces the pass manager.
    pub fn with_passes(mut self, passes: PassManager) -> Self {
        self.passes = passes;
        self
    }

    /// Replaces the emission backend.
    pub fn with_backend(mut self, backend: impl EmitBackend + 'static) -> Self {
        self.backend = Arc::new(backend);
        self
    }

    /// The pass manager.
    pub fn passes(&self) -> &PassManager {
        &self.passes
    }

    /// The emission backend.
    pub fn backend(&self) -> &dyn EmitBackend {
        self.backend.as_ref()
    }

    /// Stage 1: runs the checking passes.
    ///
    /// # Errors
    ///
    /// Returns the full diagnostic report when any pass reported an error.
    pub fn check(&self, circuit: &Circuit) -> Result<CheckedCircuit, DiagnosticReport> {
        self.check_timed(circuit).0
    }

    /// Stage 1 with per-pass timing stats.
    pub fn check_timed(
        &self,
        circuit: &Circuit,
    ) -> (Result<CheckedCircuit, DiagnosticReport>, PassStats) {
        let (report, stats) = self.passes.run_timed(circuit);
        if report.has_errors() {
            (Err(report), stats)
        } else {
            (Ok(CheckedCircuit { circuit: circuit.clone(), warnings: report }), stats)
        }
    }

    /// Stage 2: lowers a checked circuit to a flat netlist.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem encountered; circuits that pass the
    /// standard checks lower successfully.
    pub fn lower(&self, checked: &CheckedCircuit) -> Result<Netlist, Diagnostic> {
        lower_circuit(checked.circuit())
    }

    /// Stage 3: emits the backend output for a checked and lowered design.
    ///
    /// # Errors
    ///
    /// Propagates the backend's emission error.
    pub fn emit(&self, checked: &CheckedCircuit, netlist: &Netlist) -> Result<String, Diagnostic> {
        self.backend.emit(checked.circuit(), netlist)
    }

    /// Runs all three stages, materializing every staged artifact.
    ///
    /// # Errors
    ///
    /// Returns every error-severity diagnostic of the failing stage — the "syntax
    /// error" feedback of the ReChisel workflow.
    pub fn run(&self, circuit: &Circuit) -> Result<PipelineOutput, Vec<Diagnostic>> {
        let (checked, stats) = self.check_timed(circuit);
        let checked = checked.map_err(|report| report.errors().cloned().collect::<Vec<_>>())?;
        let netlist = self.lower(&checked).map_err(|d| vec![d])?;
        let output = self.emit(&checked, &netlist).map_err(|d| vec![d])?;
        Ok(PipelineOutput { checked, netlist, output, backend: self.backend.name(), stats })
    }

    /// Runs all three stages borrowing the circuit throughout, returning just the
    /// netlist and the emitted output.
    ///
    /// Unlike [`run`](Self::run), no [`CheckedCircuit`] artifact (and therefore no
    /// circuit clone) is materialized — this is the hot path the reflection loop's
    /// compiler uses, where every candidate of every iteration is compiled once and the
    /// staged artifacts are not needed afterwards.
    ///
    /// # Errors
    ///
    /// Returns every error-severity diagnostic of the failing stage.
    pub fn run_ref(&self, circuit: &Circuit) -> Result<(Netlist, String), Vec<Diagnostic>> {
        let report = self.passes.run(circuit);
        if report.has_errors() {
            return Err(report.errors().cloned().collect());
        }
        let netlist = lower_circuit(circuit).map_err(|d| vec![d])?;
        let output = self.backend.emit(circuit, &netlist).map_err(|d| vec![d])?;
        Ok((netlist, output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Direction, Expression, ModuleKind, Port, Statement, Type};

    fn passthrough() -> Circuit {
        let mut m = Module::new("Pass", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("in", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        Circuit::single(m)
    }

    #[test]
    fn standard_pass_order_is_canonical() {
        let pm = PassManager::standard();
        assert_eq!(pm.names(), ["connects", "widths", "clocking", "initialization", "comb-loops"]);
        assert_eq!(pm.len(), 5);
        assert!(!pm.is_empty());
        assert!(pm.contains("widths"));
        assert!(!pm.contains("nonexistent"));
    }

    #[test]
    fn without_keeps_the_pass_order_and_ignores_unknown_names() {
        let pm = PassManager::standard().without("clocking").without("initialization");
        assert_eq!(pm.names(), ["connects", "widths", "comb-loops"]);
        let unchanged = PassManager::standard().without("nonexistent");
        assert_eq!(unchanged.names(), PassManager::standard().names());
    }

    #[test]
    fn without_initialization_silences_its_diagnostic() {
        // The output is never driven: only the initialization pass objects.
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        let full = PassManager::standard().run(&broken);
        assert!(full.errors().any(|d| d.code == ErrorCode::UndrivenOutput));
        let relaxed = PassManager::standard().without("initialization").run(&broken);
        assert!(!relaxed.has_errors(), "unexpected diagnostics: {relaxed:?}");
    }

    #[test]
    fn registration_order_is_execution_order() {
        let mut pm = PassManager::empty();
        pm.register(Pass::new("b", |_, _| DiagnosticReport::new()));
        pm.register(Pass::new("a", |_, _| DiagnosticReport::new()));
        assert_eq!(pm.names(), ["b", "a"]);
        // Diagnostics arrive in registration order.
        let mut pm = PassManager::empty();
        for name in ["first", "second"] {
            pm.register(Pass::new(name, move |m, _| {
                let mut r = DiagnosticReport::new();
                r.push(Diagnostic::error(
                    ErrorCode::TypeMismatch,
                    SourceInfo::unknown(),
                    format!("{name} in {}", m.name),
                ));
                r
            }));
        }
        let report = pm.run(&passthrough());
        let messages: Vec<&str> =
            report.iter().map(|d| d.message.split(' ').next().unwrap()).collect();
        assert_eq!(messages, ["first", "second"]);
    }

    #[test]
    fn run_timed_reports_one_timing_per_pass() {
        let (report, stats) = PassManager::standard().run_timed(&passthrough());
        assert!(!report.has_errors());
        assert_eq!(stats.len(), 5);
        assert_eq!(stats.timings()[0].name, "connects");
        assert!(stats.pass("comb-loops").is_some());
        assert_eq!(stats.total(), stats.timings().iter().map(|t| t.duration).sum());
    }

    #[test]
    fn pass_manager_matches_fused_checker() {
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        for circuit in [passthrough(), broken, Circuit::new("Ghost", vec![])] {
            let fused = crate::check::check_circuit(&circuit);
            let staged = PassManager::standard().run(&circuit);
            assert_eq!(fused, staged);
        }
    }

    #[test]
    fn pipeline_stages_produce_artifacts() {
        let pipeline = Pipeline::default();
        let checked = pipeline.check(&passthrough()).unwrap();
        assert!(checked.warnings().is_empty());
        let netlist = pipeline.lower(&checked).unwrap();
        assert_eq!(netlist.name, "Pass");
        let text = pipeline.emit(&checked, &netlist).unwrap();
        assert!(text.starts_with("circuit Pass"));
        assert_eq!(pipeline.backend().name(), "firrtl");
        assert_eq!(pipeline.backend().file_extension(), "fir");
    }

    #[test]
    fn pipeline_check_fails_with_diagnostics() {
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        let pipeline = Pipeline::default();
        let report = pipeline.check(&broken).unwrap_err();
        assert!(report.has_errors());
        assert!(pipeline.run(&broken).is_err());
    }

    #[test]
    fn run_ref_matches_staged_run() {
        let pipeline = Pipeline::default();
        let staged = pipeline.run(&passthrough()).unwrap();
        let (netlist, output) = pipeline.run_ref(&passthrough()).unwrap();
        assert_eq!(staged.netlist, netlist);
        assert_eq!(staged.output, output);
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        assert_eq!(pipeline.run(&broken).unwrap_err(), pipeline.run_ref(&broken).unwrap_err());
    }

    #[test]
    fn assume_checked_skips_diagnostics() {
        let checked = CheckedCircuit::assume_checked(passthrough());
        let pipeline = Pipeline::default();
        assert!(pipeline.lower(&checked).is_ok());
        assert_eq!(checked.clone().into_circuit().top, "Pass");
    }
}
