//! The compile pipeline: a named-pass manager, lowering and a pluggable emission
//! backend, run in one borrowed pass over a circuit.
//!
//! ```text
//! Circuit --check--> diagnostics + top Elaborated --lower--> Netlist --emit--> backend output
//! ```
//!
//! [`Pipeline::run`] is the one way through the stages. It borrows the circuit
//! throughout and returns the netlist and the backend's output, or the error-severity
//! diagnostics of the stage that failed. A revision is elaborated once: the checks
//! and lowering share one symbol table and one width inference per module. Lowering
//! elaborates again only a flattened or width-resolved copy of the top module, which a
//! design without instances or width-less declarations never needs.
//!
//! * [`PassManager`] — the checking stage as an ordered list of *named* passes with
//!   registration and ordering introspection. It elaborates each module once
//!   ([`Elaborated`]: the symbol table and the inferred widths) and hands that one
//!   elaboration to every pass.
//! * [`EmitBackend`] — the emission seam. [`FirrtlBackend`] (this crate) and
//!   `rechisel_verilog::VerilogBackend` are the two standard implementations.
//! * [`Pipeline`] — a pass manager plus a backend, with lowering in between.
//!
//! The standalone entry points run the same code: [`crate::check_circuit`] is
//! [`PassManager::standard`]'s [`PassManager::run`], and [`crate::lower_circuit`]
//! elaborates the top module and lowers it like [`Pipeline::run`] does.
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
//! let (netlist, firrtl) = pipeline.run(&circuit).expect("clean design");
//! assert_eq!(netlist.name, "Pass");
//! assert!(firrtl.starts_with("circuit Pass"));
//! ```

use std::sync::Arc;

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Module, SourceInfo};
use crate::lower::{lower_elaborated, Netlist};
use crate::passes::{clocking, comb_loop, connect, init, width};
use crate::printer::print_firrtl;
use crate::typeenv::Elaborated;

// ---------------------------------------------------------------------------------
// Pass manager
// ---------------------------------------------------------------------------------

/// The signature of a checking pass: inspect one module in the context of its circuit,
/// given the module's elaboration, and report diagnostics.
pub type PassFn = dyn Fn(&Module, &Circuit, &Elaborated) -> DiagnosticReport + Send + Sync;

/// A named checking pass registered with a [`PassManager`].
///
/// Every pass receives the module's [`Elaborated`] symbol table and inferred widths,
/// which the manager builds once per module. [`Pass::new`] wraps a standalone
/// `(module, circuit)` function that ignores it; [`Pass::elaborated`] wraps one that
/// reads it.
#[derive(Clone)]
pub struct Pass {
    name: &'static str,
    run: Arc<PassFn>,
}

impl Pass {
    /// Wraps a standalone pass function `(module, circuit)` under a stable name. The
    /// function does not see the manager's elaboration; if it needs one, it builds
    /// its own.
    pub fn new(
        name: &'static str,
        run: impl Fn(&Module, &Circuit) -> DiagnosticReport + Send + Sync + 'static,
    ) -> Self {
        Self::elaborated(name, move |module, circuit, _| run(module, circuit))
    }

    /// Wraps a pass function that reads the module's shared elaboration.
    pub fn elaborated(
        name: &'static str,
        run: impl Fn(&Module, &Circuit, &Elaborated) -> DiagnosticReport + Send + Sync + 'static,
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

/// An ordered collection of named checking passes.
///
/// The standard pipeline is [`PassManager::standard`]; [`PassManager::without`] drops a
/// pass from it (the AutoChip baseline drops `clocking`), and custom passes can be
/// appended with [`PassManager::register`].
///
/// A run elaborates each module once and hands that [`Elaborated`] to every pass; the
/// standard passes read their symbol table and inferred widths from it.
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
            .with_pass(Pass::elaborated("connects", connect::run))
            .with_pass(Pass::elaborated("widths", width::run))
            .with_pass(Pass::elaborated("clocking", clocking::run))
            .with_pass(Pass::elaborated("initialization", init::run))
            .with_pass(Pass::elaborated("comb-loops", comb_loop::run))
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
        self.check(circuit).0
    }

    /// Elaborates each module once and runs every pass over it. Returns the
    /// diagnostics and the top module's elaboration (`None` only when the top module
    /// is missing).
    fn check(&self, circuit: &Circuit) -> (DiagnosticReport, Option<Elaborated>) {
        let mut report = DiagnosticReport::new();
        let Some(top) = circuit.top_module() else {
            report.push(Diagnostic::error(
                ErrorCode::MissingTopModule,
                SourceInfo::unknown(),
                format!("top module {} is not defined in the circuit", circuit.top),
            ));
            return (report, None);
        };
        let mut top_elaborated = None;
        // Modules outer, passes inner: diagnostics keep the exact order the fused
        // checker produced, which feedback consumers (and the parity tests) rely on.
        for module in &circuit.modules {
            let elaborated = Elaborated::new(module, circuit);
            for pass in &self.passes {
                report.extend((pass.run)(module, circuit, &elaborated));
            }
            if std::ptr::eq(module, top) {
                top_elaborated = Some(elaborated);
            }
        }
        (report, top_elaborated)
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

/// The compile pipeline: a [`PassManager`] for checking plus an [`EmitBackend`] for
/// emission, with lowering in between, behind one method, [`run`](Self::run).
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

    /// The pass manager.
    pub fn passes(&self) -> &PassManager {
        &self.passes
    }

    /// The emission backend.
    pub fn backend(&self) -> &dyn EmitBackend {
        self.backend.as_ref()
    }

    /// Checks, lowers and emits `circuit`, borrowing it throughout, and returns the
    /// netlist and the backend's output.
    ///
    /// This is the path every revision of the reflection loop takes, so it clones
    /// nothing: lowering reads the top module's elaboration straight from the
    /// checking stage, and borrows the module itself unless the design instantiates a
    /// module or leaves a width to inference. The backend is called only on a design
    /// that passed the checks and lowered.
    ///
    /// # Errors
    ///
    /// Returns every error-severity diagnostic of the failing stage — the "syntax
    /// error" feedback of the ReChisel workflow. Warnings of a passing check are
    /// dropped.
    pub fn run(&self, circuit: &Circuit) -> Result<(Netlist, String), Vec<Diagnostic>> {
        let (report, top) = self.passes.check(circuit);
        let top = match top {
            Some(top) if !report.has_errors() => top,
            _ => return Err(report.errors().cloned().collect()),
        };
        let netlist = lower_elaborated(circuit, &top).map_err(|d| vec![d])?;
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
    fn elaborated_passes_share_one_elaboration_per_module() {
        // Each pass records, per module, the address of the elaboration it was handed.
        let seen: Arc<std::sync::Mutex<Vec<(String, usize)>>> = Arc::default();
        let mut pm = PassManager::empty();
        for name in ["first", "second"] {
            let seen = Arc::clone(&seen);
            pm.register(Pass::elaborated(name, move |module, circuit, elaborated| {
                assert_eq!(*elaborated, Elaborated::new(module, circuit), "{name}");
                let address = elaborated as *const Elaborated as usize;
                seen.lock().unwrap().push((module.name.clone(), address));
                DiagnosticReport::new()
            }));
        }
        let mut other = passthrough().modules.remove(0);
        other.name = "Other".into();
        let mut circuit = passthrough();
        circuit.modules.push(other);
        assert!(!pm.run(&circuit).has_errors());

        let seen = seen.lock().unwrap();
        let modules: Vec<&str> = seen.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(modules, ["Pass", "Pass", "Other", "Other"]);
        for pair in seen.chunks(2) {
            let (first, second) = (pair[0].1 as *const Elaborated, pair[1].1 as *const Elaborated);
            assert!(std::ptr::eq(first, second), "module {}", pair[0].0);
        }
    }

    /// Symbol tables `f` builds on this thread.
    fn tables_built(f: impl FnOnce()) -> usize {
        let count = || crate::typeenv::TABLES_BUILT.with(std::cell::Cell::get);
        let before = count();
        f();
        count() - before
    }

    #[test]
    fn a_single_module_compile_builds_one_symbol_table() {
        let pipeline = Pipeline::new(FirrtlBackend);
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        assert_eq!(tables_built(|| drop(pipeline.run(&passthrough()).unwrap())), 1);
        assert_eq!(tables_built(|| drop(pipeline.run(&broken).unwrap_err())), 1);
        assert_eq!(tables_built(|| drop(crate::lower_circuit(&passthrough()).unwrap())), 1);
    }

    #[test]
    fn pass_manager_matches_fused_checker() {
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        for circuit in [passthrough(), broken, Circuit::new("Ghost", vec![])] {
            let fused = crate::check::check_circuit(&circuit);
            let managed = PassManager::standard().run(&circuit);
            assert_eq!(fused, managed);
        }
    }

    #[test]
    fn run_is_lower_circuit_plus_the_backend() {
        let pipeline = Pipeline::new(FirrtlBackend);
        assert_eq!(pipeline.backend().name(), "firrtl");
        assert_eq!(pipeline.backend().file_extension(), "fir");
        let circuit = passthrough();
        let (netlist, text) = pipeline.run(&circuit).unwrap();
        assert_eq!(netlist, crate::lower_circuit(&circuit).unwrap());
        assert_eq!(text, print_firrtl(&circuit));

        // A rejected design reports exactly the checker's errors, a missing top included.
        let mut broken = passthrough();
        broken.top_module_mut().unwrap().body.clear();
        for circuit in [broken, Circuit::new("Ghost", vec![])] {
            let errors: Vec<Diagnostic> =
                crate::check::check_circuit(&circuit).errors().cloned().collect();
            assert!(!errors.is_empty());
            assert_eq!(pipeline.run(&circuit).unwrap_err(), errors);
        }
    }
}
