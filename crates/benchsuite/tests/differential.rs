//! Differential fuzzing of the simulation engines.
//!
//! The compiled instruction-tape engine is only allowed to exist because it is
//! mechanically indistinguishable from the tree-walking interpreter: for thousands of
//! randomly generated circuits × random stimulus, every signal must agree **peek for
//! peek, cycle for cycle**. The incremental recompiler is held to the from-scratch
//! compiler the same way: over random edits, SourceInfo-only resubmissions and
//! repeats of earlier revisions, every result it returns is a from-scratch
//! compile's — same diagnostics, same netlist, same Verilog. So is the evaluation
//! memo the sessions of a sweep part share: over the same chains, replayed as a
//! second session would and under a second tester and a second pass set, every
//! evaluation it returns is a from-scratch compile and simulation's, and no tool
//! is answered from another tool's entries.
//!
//! The check → lower front door is held to the same standard. Over generated
//! circuits and the suite references, each broken by a chain of 1–4 injected
//! defects, the standard passes (which share one elaboration per module) report
//! exactly what the standalone `check_*` functions report, the fused compile equals
//! standalone lowering plus emission, and nothing on the way panics. Checking and
//! compiling are deterministic, and moving every source location changes nothing
//! but the diagnostics' locations. A generated circuit wrapped as a child instance
//! lowers to the same outputs, cycle for cycle, as the bare circuit: the
//! flatten-then-elaborate path the sweeps never take.
//!
//! The functional tester is held to the same standard on failing designs: a
//! generated circuit broken by a defect chain, tested against the clean circuit,
//! gets the same report, the same rendered feedback and the same identity keys from
//! both engines.
//!
//! All generated-circuit properties run over the narrow population and over
//! [`RandomCircuitConfig::wide`], whose 64/127/128-bit signals and over-shifting
//! amounts live at the `u128` word boundary. Seeds are produced by the deterministic
//! proptest stub (fixed per test name), so a failure reproduces forever; the case
//! count is raised in CI's dedicated fuzz job via `RECHISEL_FUZZ_CASES`.

mod common;

use common::with_defect_chain;
use proptest::prelude::*;
use rechisel_benchsuite::{
    full_suite, random_circuit, random_stimulus, sampled_suite, RandomCircuitConfig,
};
use rechisel_core::{ChiselCompiler, EvalMemo, Feedback, FunctionalTester, IncrementalCompiled};
use rechisel_firrtl::ir::{
    Circuit, Direction, Expression, Module, ModuleKind, PrimOp, SourceInfo, Statement,
};
use rechisel_firrtl::pipeline::{EmitBackend, Pass, PassManager, Pipeline};
use rechisel_firrtl::{
    check_circuit, lower_circuit, passes, Diagnostic, DiagnosticReport, ErrorCode, Fingerprint,
    RebuildReason, RecompileOutcome,
};
use rechisel_sim::{
    run_testbench, CompiledSimulator, EngineKind, SimEngine, Simulator, Tape, Testbench,
};
use rechisel_verilog::VerilogBackend;

/// Generated-circuit count for the property below: default 1000, raised in CI. A set
/// value that does not parse fails the test rather than running the default.
fn fuzz_cases() -> u32 {
    let Some(raw) = std::env::var_os("RECHISEL_FUZZ_CASES") else { return 1000 };
    let raw = raw.to_string_lossy();
    raw.parse::<u32>()
        .unwrap_or_else(|_| panic!("RECHISEL_FUZZ_CASES={raw:?} is not a case count"))
        .max(1)
}

/// Asserts that both engines agree on every named signal of the netlist — and on the
/// full contents of every memory.
///
/// Peeks are compared as `Result`s: before the first clock edge, signals fed by a
/// sequential memory read are a typed `SyncReadBeforeClock` error, and the two
/// engines must agree error-for-error exactly like they agree value-for-value.
fn assert_all_peeks_agree(
    interp: &Simulator,
    compiled: &CompiledSimulator,
    names: &[String],
    mems: &[(String, usize)],
    seed: u64,
    at: &str,
) {
    for name in names {
        let a = interp.peek(name);
        let b = compiled.peek(name);
        assert_eq!(
            a, b,
            "seed {seed}: signal {name} diverges {at} (interp {a:?} vs compiled {b:?})"
        );
    }
    for (mem, depth) in mems {
        for addr in 0..*depth as u128 {
            let a = interp.peek_mem(mem, addr).unwrap();
            let b = compiled.peek_mem(mem, addr).unwrap();
            assert_eq!(
                a, b,
                "seed {seed}: memory word {mem}[{addr}] diverges {at} \
                 (interp {a} vs compiled {b})"
            );
        }
    }
}

/// One differential run: generate, lower, drive both engines with identical stimulus,
/// and compare every signal after every eval and every step.
fn differential_run(seed: u64, config: &RandomCircuitConfig) {
    let circuit = random_circuit(seed, config);
    let netlist = lower_circuit(&circuit)
        .unwrap_or_else(|e| panic!("seed {seed}: generated circuit fails to lower: {e}"));
    let names: Vec<String> = netlist.signals.keys().cloned().collect();
    let mems: Vec<(String, usize)> =
        netlist.mems.iter().map(|m| (m.name.clone(), m.depth)).collect();

    let mut interp = Simulator::new(netlist.clone());
    let mut compiled = CompiledSimulator::new(&netlist)
        .unwrap_or_else(|e| panic!("seed {seed}: tape compilation failed: {e}"));

    assert_all_peeks_agree(&interp, &compiled, &names, &mems, seed, "at construction");
    interp.reset(2).unwrap();
    compiled.reset(2).unwrap();
    assert_all_peeks_agree(&interp, &compiled, &names, &mems, seed, "after reset");

    for (cycle, assignment) in random_stimulus(&netlist, 10, seed).iter().enumerate() {
        for (name, value) in assignment {
            interp.poke(name, *value).unwrap();
            compiled.poke(name, *value).unwrap();
        }
        interp.eval().unwrap();
        compiled.eval().unwrap();
        assert_all_peeks_agree(&interp, &compiled, &names, &mems, seed, &format!("eval {cycle}"));
        interp.step().unwrap();
        compiled.step().unwrap();
        assert_all_peeks_agree(&interp, &compiled, &names, &mems, seed, &format!("step {cycle}"));
        assert_eq!(interp.outputs(), compiled.outputs(), "seed {seed} cycle {cycle}");
        assert_eq!(interp.cycles(), compiled.cycles(), "seed {seed} cycle {cycle}");
    }
}

/// Applies one seeded single-statement edit to the top module of a generated
/// circuit.
///
/// Edit styles, chosen by `pick`:
/// - invert an output connect (`expr` → `bits(not(expr), w-1, 0)`);
/// - cross-wire two output connects (swap their right-hand sides; widths may
///   mismatch, which the connect rules mask at assignment);
/// - invert a node's value (`bits(not(value), 0, 0)`, which may narrow it).
///
/// On a quarter of the seeds the top module also turns into a `RawModule`. The kind
/// decides the implicit clock, so a design with implicitly clocked state becomes
/// illegal and must be rejected.
fn edit_circuit(circuit: &Circuit, pick: u64) -> Option<Circuit> {
    let mut edited = circuit.clone();
    let top_name = edited.top.clone();
    let top = edited.modules.iter_mut().find(|m| m.name == top_name)?;

    let invert = |expr: &Expression| {
        // `bits(not(expr), 0, 0)`; output edits widen the slice to the port width.
        Expression::prim(
            PrimOp::Bits,
            vec![Expression::prim(PrimOp::Not, vec![expr.clone()], vec![])],
            vec![0, 0],
        )
    };

    let out_connects: Vec<usize> = top
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Statement::Connect { loc: Expression::Ref(name), .. } if name.starts_with("out") => {
                Some(i)
            }
            _ => None,
        })
        .collect();
    let nodes: Vec<usize> = top
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, s)| matches!(s, Statement::Node { .. }).then_some(i))
        .collect();

    match pick % 3 {
        0 => {
            if out_connects.is_empty() {
                return None;
            }
            let at = out_connects[(pick / 3) as usize % out_connects.len()];
            let Statement::Connect { loc: Expression::Ref(name), expr, .. } = &top.body[at] else {
                unreachable!("index points at an output connect");
            };
            let width = top
                .ports
                .iter()
                .find(|p| &p.name == name)
                .and_then(|p| p.ty.width())
                .expect("outputs are declared with explicit widths");
            let mut inverted = invert(expr);
            if let Expression::Prim { params, .. } = &mut inverted {
                *params = vec![i64::from(width) - 1, 0];
            }
            let Statement::Connect { expr, .. } = &mut top.body[at] else { unreachable!() };
            *expr = inverted;
        }
        1 => {
            if out_connects.len() < 2 {
                return None;
            }
            let a = out_connects[(pick / 3) as usize % out_connects.len()];
            let b = out_connects[(pick / 7) as usize % out_connects.len()];
            if a == b {
                return None;
            }
            let expr_a = match &top.body[a] {
                Statement::Connect { expr, .. } => expr.clone(),
                _ => unreachable!(),
            };
            let expr_b = match &top.body[b] {
                Statement::Connect { expr, .. } => expr.clone(),
                _ => unreachable!(),
            };
            if expr_a == expr_b {
                return None;
            }
            // Cross-wire: each output now carries the other's logic.
            if let Statement::Connect { expr, .. } = &mut top.body[a] {
                *expr = expr_b;
            }
            if let Statement::Connect { expr, .. } = &mut top.body[b] {
                *expr = expr_a;
            }
        }
        _ => {
            if nodes.is_empty() {
                return None;
            }
            let at = nodes[(pick / 3) as usize % nodes.len()];
            let Statement::Node { value, .. } = &mut top.body[at] else { unreachable!() };
            *value = invert(value);
        }
    }
    if (pick >> 32).is_multiple_of(4) {
        top.kind = ModuleKind::RawModule;
    }
    Some(edited)
}

/// `circuit` with every port and every statement, nested ones included, moved to
/// a new source location. The structural fingerprint ignores locations; the
/// located fingerprint that keys the recompiler and the evaluation memo does not.
fn relocated(circuit: &Circuit) -> Circuit {
    let mut moved = circuit.clone();
    let mut line = 0;
    for module in &mut moved.modules {
        for port in &mut module.ports {
            line += 1;
            port.info = SourceInfo::new("Moved.scala", line, 3);
        }
        module.visit_statements_mut(&mut |stmt| {
            line += 1;
            *stmt.info_mut() = SourceInfo::new("Moved.scala", line, 7);
        });
    }
    moved
}

/// One recompiler differential run: drive one incremental recompiler over
/// `[original, edited, relocated(edited), original, relocated(edited)]` and hold
/// every result to a from-scratch compile of the same circuit — equal diagnostics,
/// locations included, on rejection, otherwise an equal netlist, byte-equal Verilog
/// and the same tape availability. The outcome is `Identical` exactly when an
/// earlier step with the same located fingerprint compiled, and then the netlist
/// and tape are that step's own `Arc`s.
fn incremental_differential_run(seed: u64, config: &RandomCircuitConfig) {
    let original = random_circuit(seed, config);
    let Some(edited) = edit_circuit(&original, seed ^ 0xA5A5) else {
        return; // no statement of the chosen kind — vacuous seed
    };
    let moved = relocated(&edited);
    let chain = [original.clone(), edited.clone(), moved.clone(), original, moved];

    let scratch = ChiselCompiler::new();
    let mut inc = scratch.incremental();
    let mut compiled: Vec<(Fingerprint, IncrementalCompiled)> = Vec::new();
    for (step, circuit) in chain.iter().enumerate() {
        let got = match (inc.compile(circuit), scratch.compile(circuit)) {
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "seed {seed} step {step}: diagnostics diverge");
                if matches!(step, 2 | 4) {
                    // Every location of relocated(edited) is in Moved.scala. A memo
                    // keyed on structure alone would replay the edited revision's
                    // diagnostics here, with the old locations.
                    for d in got.iter().filter(|d| !d.location.is_unknown()) {
                        assert_eq!(d.location.file, "Moved.scala", "seed {seed}: stale {d}");
                    }
                }
                continue;
            }
            (Ok(got), Ok(want)) => {
                assert_eq!(*got.netlist, want.netlist, "seed {seed} step {step}: netlist");
                assert_eq!(got.verilog, want.verilog, "seed {seed} step {step}: Verilog");
                assert_eq!(
                    got.tape.is_some(),
                    Tape::compile(&want.netlist).is_ok(),
                    "seed {seed} step {step}: tape availability",
                );
                got
            }
            (Ok(got), Err(want)) => panic!(
                "seed {seed} step {step}: recompiler accepted ({:?}) a circuit the \
                 from-scratch compiler rejects: {want:?}",
                got.outcome,
            ),
            (Err(got), Ok(_)) => panic!(
                "seed {seed} step {step}: recompiler rejected a circuit the from-scratch \
                 compiler accepts: {got:?}",
            ),
        };
        let key = circuit.located_fingerprint();
        match compiled.iter().find(|(earlier, _)| *earlier == key) {
            Some((_, prev)) => {
                assert_eq!(got.outcome, RecompileOutcome::Identical, "seed {seed} step {step}");
                assert!(std::sync::Arc::ptr_eq(&got.netlist, &prev.netlist));
                match (&got.tape, &prev.tape) {
                    (Some(a), Some(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
                    (None, None) => {}
                    _ => panic!("seed {seed} step {step}: reused tape differs"),
                }
            }
            None => {
                let reason = if compiled.is_empty() {
                    RebuildReason::FirstRevision
                } else {
                    RebuildReason::Changed
                };
                assert_eq!(
                    got.outcome,
                    RecompileOutcome::FullRebuild(reason),
                    "seed {seed} step {step}"
                );
                compiled.push((key, got));
            }
        }
    }
}

/// One from-scratch evaluation, as a session without a memo would run it: compile,
/// then test the netlist, keeping the Verilog only when the simulation passes.
fn evaluate_from_scratch(
    compiler: &ChiselCompiler,
    tester: &FunctionalTester,
    circuit: &Circuit,
) -> (Feedback, Option<String>) {
    let compiled = match compiler.compile(circuit) {
        Ok(compiled) => compiled,
        Err(diagnostics) => return (Feedback::Syntax { diagnostics }, None),
    };
    let report = tester.test(&compiled.netlist);
    if report.passed() {
        (Feedback::Success, Some(compiled.verilog))
    } else {
        (
            Feedback::Functional { failures: report.failures, total_points: report.total_points },
            None,
        )
    }
}

/// One memo differential run: drive one [`EvalMemo`] over
/// `[original, edited, relocated(edited), original, relocated(edited)]` with
/// compiler C1 and tester T1, then over the same chain again as a second session
/// would, then with T2 (the same reference under another testbench seed) and with
/// C2 (the standard passes without `comb-loops`). Every evaluation equals a
/// from-scratch compile and test on the same compiler and tester, rendered text and
/// identity keys included; the second C1/T1 chain runs no check pass; relocated
/// steps report `Moved.scala` locations; and the memo grows by exactly one entry
/// per distinct (compiler, tester, located fingerprint) triple, so neither T2 nor
/// C2 is answered from T1's or C1's entries.
fn memo_differential_run(seed: u64, config: &RandomCircuitConfig) {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let original = random_circuit(seed, config);
    let Some(edited) = edit_circuit(&original, seed ^ 0xA5A5) else {
        return; // no statement of the chosen kind — vacuous seed
    };
    let moved = relocated(&edited);
    let reference = lower_circuit(&original)
        .unwrap_or_else(|e| panic!("seed {seed}: generated circuit fails to lower: {e}"));
    let chain = [original.clone(), edited, moved.clone(), original, moved];

    let cycles = (seed % 3) as u32;
    let t1 = FunctionalTester::new(
        reference.clone(),
        Testbench::random_for(&reference, 12, cycles, seed),
    );
    let t2 = FunctionalTester::new(
        reference.clone(),
        Testbench::random_for(&reference, 12, cycles, seed ^ 0x5EED),
    );
    let checks = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&checks);
    let c1 = ChiselCompiler::from_pipeline(Pipeline::new(VerilogBackend).with_passes(
        PassManager::standard().with_pass(Pass::new("count", move |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            DiagnosticReport::new()
        })),
    ));
    let c2 = ChiselCompiler::from_pipeline(
        Pipeline::new(VerilogBackend).with_passes(PassManager::standard().without("comb-loops")),
    );

    let memo = EvalMemo::new();
    let mut keys = HashSet::new();
    let runs = [("C1/T1", 0, &c1, 1, &t1), ("C1/T1 again", 0, &c1, 1, &t1)];
    let others = [("C1/T2", 0, &c1, 2, &t2), ("C2/T1", 1, &c2, 1, &t1)];
    for (label, compiler_id, compiler, tester_id, tester) in runs.into_iter().chain(others) {
        for (step, circuit) in chain.iter().enumerate() {
            let before = checks.load(Ordering::Relaxed);
            let got = memo.evaluate(compiler, tester, circuit);
            if label == "C1/T1 again" {
                let after = checks.load(Ordering::Relaxed);
                assert_eq!(after, before, "seed {seed} {label} step {step}: not a memo hit");
            }
            let want = evaluate_from_scratch(compiler, tester, circuit);
            assert_eq!(got, want, "seed {seed} {label} step {step}: evaluation diverges");
            assert_eq!(got.0.to_report(), want.0.to_report(), "seed {seed} {label} step {step}");
            assert_eq!(got.0.identity_keys(), want.0.identity_keys(), "seed {seed} {label} {step}");
            if let (2 | 4, Feedback::Syntax { diagnostics }) = (step, &got.0) {
                // A memo keyed on structure alone would replay the edited revision's
                // diagnostics here, with the old locations.
                for d in diagnostics.iter().filter(|d| !d.location.is_unknown()) {
                    assert_eq!(d.location.file, "Moved.scala", "seed {seed} {label}: stale {d}");
                }
            }
            keys.insert((compiler_id, tester_id, circuit.located_fingerprint()));
            assert_eq!(memo.len(), keys.len(), "seed {seed} {label} step {step}: memo size");
        }
    }
}

/// A standalone check pass, as the public `passes::check_*` functions are.
type CheckFn = fn(&Module, &Circuit) -> DiagnosticReport;

/// The five public check functions under their pass names.
const CHECKS: [(&str, CheckFn); 5] = [
    ("connects", passes::check_connects),
    ("widths", passes::check_widths),
    ("clocking", passes::check_clocking),
    ("initialization", passes::check_initialization),
    ("comb-loops", passes::check_combinational_loops),
];

/// `passes` rebuilt from [`Pass::new`] wrappers of the public `check_*` functions
/// (same names, same order). Each wrapper elaborates its module itself: the shape
/// of a compiler that times every pass on its own.
fn standalone_passes(passes: &PassManager) -> PassManager {
    let mut wrapped = PassManager::empty();
    for name in passes.names() {
        let (_, check) = CHECKS.iter().find(|(n, _)| *n == name).expect("a standard pass");
        wrapped.register(Pass::new(name, *check));
    }
    wrapped
}

/// `diagnostics` with their locations cleared: what a SourceInfo-only edit must
/// leave unchanged. A duplicate declaration's message names the earlier
/// declaration's location ("`x` is already declared at `<location>`"), so that
/// message is cut before it.
fn unlocated<'a>(diagnostics: impl IntoIterator<Item = &'a Diagnostic>) -> Vec<Diagnostic> {
    let unlocate = |d: &Diagnostic| {
        let mut d = d.clone();
        d.location = SourceInfo::unknown();
        if d.code == ErrorCode::DuplicateDeclaration {
            let (head, _) =
                d.message.rsplit_once(" at ").expect("the earlier declaration's location");
            d.message = head.to_owned();
        }
        d
    };
    diagnostics.into_iter().map(unlocate).collect()
}

/// The front-door property over one (possibly broken) design, under the standard
/// pass set and the AutoChip one (`without("clocking")`):
///
/// * the manager, which shares one elaboration per module across its passes,
///   reports exactly what [`standalone_passes`] does: same text, order, locations;
/// * checking and compiling are deterministic: a clone of the design gets the same
///   report and the same [`ChiselCompiler::compile`] result;
/// * they are invariant under SourceInfo-only edits: the [`relocated`] design gets
///   the same diagnostics in count, order, code, severity, subject, suggestion and
///   message (see [`unlocated`]), and compiles to the same netlist and Verilog;
/// * a design the passes accept compiles to exactly standalone [`lower_circuit`]
///   plus [`VerilogBackend`], and under the standard passes it does compile;
/// * checking, lowering, emission and [`Tape::compile`] return, never panic.
fn front_door_run(circuit: &Circuit, label: &str) {
    let clone = circuit.clone();
    let moved = relocated(circuit);
    for passes in [PassManager::standard(), PassManager::standard().without("clocking")] {
        let names = passes.names();
        let report = passes.run(circuit);
        assert_eq!(
            report,
            standalone_passes(&passes).run(circuit),
            "{label}: shared and standalone elaboration disagree under {names:?}",
        );
        assert_eq!(passes.run(&clone), report, "{label}: a clone checks differently");
        assert_eq!(
            unlocated(passes.run(&moved).iter()),
            unlocated(report.iter()),
            "{label}: relocating changes more than the locations under {names:?}",
        );

        let standard = passes.contains("clocking");
        let compiler =
            ChiselCompiler::from_pipeline(Pipeline::new(VerilogBackend).with_passes(passes));
        let fused = compiler.compile(circuit).map(|c| (c.netlist, c.verilog));
        let again = compiler.compile(&clone).map(|c| (c.netlist, c.verilog));
        assert_eq!(again, fused, "{label}: a clone compiles differently under {names:?}");
        let moved_fused = compiler.compile(&moved).map(|c| (c.netlist, c.verilog));
        assert_eq!(
            moved_fused.as_ref().map_err(unlocated),
            fused.as_ref().map_err(unlocated),
            "{label}: the relocated design compiles differently under {names:?}",
        );
        if report.has_errors() {
            continue;
        }
        let standalone = lower_circuit(circuit)
            .and_then(|netlist| {
                let verilog = VerilogBackend.emit(circuit, &netlist)?;
                Ok((netlist, verilog))
            })
            .map_err(|d| vec![d]);
        assert_eq!(fused, standalone, "{label}: fused and standalone compiles disagree");
        match fused {
            Ok((netlist, _)) => {
                let _ = Tape::compile(&netlist);
            }
            Err(errors) if standard => {
                panic!("{label}: a design the standard checks accept fails to compile: {errors:?}")
            }
            Err(_) => {}
        }
    }
}

/// `child` (an instance-free design) as instance `dut` of a parent that forwards
/// every port: each parent input drives the child's input of the same name, each
/// child output drives the parent's output of the same name.
fn wrapped_as_child(child: &Circuit) -> Circuit {
    let child = child.top_module().expect("a top module").clone();
    let mut parent = Module::new(format!("{}Parent", child.name), child.kind);
    parent.ports = child.ports.clone();
    parent.body.push(Statement::Instance {
        name: "dut".into(),
        module: child.name.clone(),
        info: SourceInfo::unknown(),
    });
    for port in &child.ports {
        let inner = Expression::SubField(Box::new(Expression::reference("dut")), port.name.clone());
        let outer = Expression::reference(port.name.clone());
        let (loc, expr) = match port.direction {
            Direction::Input => (inner, outer),
            Direction::Output => (outer, inner),
        };
        parent.body.push(Statement::Connect { loc, expr, info: SourceInfo::unknown() });
    }
    Circuit::new(parent.name.clone(), vec![parent, child])
}

/// One instance run: the wrapped circuit checks clean, compiles through the fused
/// path to what standalone lowering gives, and its outputs equal the bare circuit's
/// on the Interp engine after every eval and every step of the same stimulus.
fn instance_differential_run(seed: u64, config: &RandomCircuitConfig) {
    let bare = random_circuit(seed, config);
    let wrapped = wrapped_as_child(&bare);
    let report = check_circuit(&wrapped);
    assert!(!report.has_errors(), "seed {seed}: the wrapped circuit fails the checks: {report:?}");
    let bare_netlist = lower_circuit(&bare)
        .unwrap_or_else(|e| panic!("seed {seed}: generated circuit fails to lower: {e}"));
    let netlist = lower_circuit(&wrapped)
        .unwrap_or_else(|e| panic!("seed {seed}: wrapped circuit fails to lower: {e}"));
    let compiled = ChiselCompiler::new().compile(&wrapped).expect("the wrapped circuit compiles");
    assert_eq!(compiled.netlist, netlist, "seed {seed}: fused and standalone lowering disagree");

    let mut expected = Simulator::new(bare_netlist.clone());
    let mut got = Simulator::new(netlist);
    expected.reset(2).unwrap();
    got.reset(2).unwrap();
    assert_eq!(got.outputs(), expected.outputs(), "seed {seed}: after reset");
    for (cycle, assignment) in random_stimulus(&bare_netlist, 10, seed).iter().enumerate() {
        for (name, value) in assignment {
            expected.poke(name, *value).unwrap();
            got.poke(name, *value).unwrap();
        }
        expected.eval().unwrap();
        got.eval().unwrap();
        assert_eq!(got.outputs(), expected.outputs(), "seed {seed}: eval {cycle}");
        expected.step().unwrap();
        got.step().unwrap();
        assert_eq!(got.outputs(), expected.outputs(), "seed {seed}: step {cycle}");
    }
}

/// One tester run: the generated circuit is the reference, its defect chain the DUT
/// (when it compiles), and a seeded random testbench drives both. The Compiled and
/// Interp testers must return the same report, rendered feedback and identity keys.
fn tester_differential_run(seed: u64, config: &RandomCircuitConfig) {
    let clean = random_circuit(seed, config);
    let reference = lower_circuit(&clean)
        .unwrap_or_else(|e| panic!("seed {seed}: generated circuit fails to lower: {e}"));
    let Ok(dut) = ChiselCompiler::new().compile(&with_defect_chain(clean, seed)) else { return };
    let testbench = Testbench::random_for(&reference, 12, (seed % 3) as u32, seed);
    let compiled = FunctionalTester::new(reference, testbench);
    let interp = compiled.clone().with_engine(EngineKind::Interp);
    let (a, b) = (compiled.test(&dut.netlist), interp.test(&dut.netlist));
    assert_eq!(a, b, "seed {seed}: the engines' reports differ");
    let render = |report: rechisel_sim::SimReport| {
        let feedback =
            Feedback::Functional { total_points: report.total_points, failures: report.failures };
        (feedback.to_report(), feedback.identity_keys())
    };
    assert_eq!(render(a), render(b), "seed {seed}: the engines' feedback differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Generated circuits broken by a defect chain, tested against their clean
    /// originals: both engines' testers report, render and key the failures alike.
    #[test]
    fn testers_agree_on_defective_generated_circuits(seed in 0u64..u64::MAX) {
        tester_differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same tester property over the wide population.
    #[test]
    fn testers_agree_on_defective_wide_circuits(seed in 0u64..u64::MAX) {
        tester_differential_run(seed, &RandomCircuitConfig::wide());
    }

    /// Thousands of generated circuits × random stimulus: both engines, identical
    /// peeks, cycle for cycle.
    #[test]
    fn engines_agree_on_generated_circuits(seed in 0u64..u64::MAX) {
        differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same property over the wide population: 64/127/128-bit signals and
    /// over-shifting shift amounts at the `u128` word boundary.
    #[test]
    fn engines_agree_on_wide_circuits(seed in 0u64..u64::MAX) {
        differential_run(seed, &RandomCircuitConfig::wide());
    }

    /// Random single-statement edits, SourceInfo-only resubmissions and repeats of
    /// earlier revisions: the incremental recompiler returns exactly what the
    /// from-scratch compiler does.
    #[test]
    fn incremental_recompile_matches_full_rebuild(seed in 0u64..u64::MAX) {
        incremental_differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same recompiler property over the wide population.
    #[test]
    fn incremental_recompile_matches_full_rebuild_wide(seed in 0u64..u64::MAX) {
        incremental_differential_run(seed, &RandomCircuitConfig::wide());
    }

    /// The same chains through one shared evaluation memo, replayed as a second
    /// session and under a second tester and pass set: every evaluation is a
    /// from-scratch compile and test's, and no tool sees another tool's entries.
    #[test]
    fn shared_memo_matches_from_scratch_evaluation(seed in 0u64..u64::MAX) {
        memo_differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same memo property over the wide population.
    #[test]
    fn shared_memo_matches_from_scratch_evaluation_wide(seed in 0u64..u64::MAX) {
        memo_differential_run(seed, &RandomCircuitConfig::wide());
    }

    /// Generated circuits broken by a chain of 1–4 defects: shared and standalone
    /// elaboration report the same diagnostics, checking and compiling are
    /// deterministic and location-invariant, the fused compile equals standalone
    /// lowering and emission, and nothing panics.
    #[test]
    fn front_door_holds_on_defective_generated_circuits(seed in 0u64..u64::MAX) {
        let circuit = with_defect_chain(random_circuit(seed, &RandomCircuitConfig::default()), seed);
        front_door_run(&circuit, &format!("seed {seed}"));
    }

    /// The same front-door property over the wide population.
    #[test]
    fn front_door_holds_on_defective_wide_circuits(seed in 0u64..u64::MAX) {
        let circuit = with_defect_chain(random_circuit(seed, &RandomCircuitConfig::wide()), seed);
        front_door_run(&circuit, &format!("wide seed {seed}"));
    }

    /// A generated circuit behind a port-forwarding parent: flattening, then
    /// elaborating the flattened module, preserves every output.
    #[test]
    fn instantiated_circuits_match_their_bare_twins(seed in 0u64..u64::MAX) {
        instance_differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same instance property over the wide population.
    #[test]
    fn instantiated_wide_circuits_match_their_bare_twins(seed in 0u64..u64::MAX) {
        instance_differential_run(seed, &RandomCircuitConfig::wide());
    }
}

#[test]
fn front_door_holds_on_defective_suite_references() {
    // Every suite reference in turn, each broken by a different seeded defect chain:
    // the same designs the reflection loop compiles, plus deeper chains of defects.
    let suite = full_suite();
    for i in 0..u64::from(fuzz_cases()).max(suite.len() as u64) {
        let case = &suite[(i % suite.len() as u64) as usize];
        let circuit = with_defect_chain(case.reference().clone(), i);
        front_door_run(&circuit, &format!("case {} chain {i}", case.id));
    }
}

#[test]
fn engines_agree_on_suite_references() {
    // Beyond generated circuits: both engines must produce byte-identical testbench
    // reports over real benchmark-suite reference designs (all five categories). The
    // case's tester runs the compiled engine on both sides.
    for case in sampled_suite(24) {
        let netlist = case.reference_netlist();
        let tester = case.tester();
        let tb = tester.testbench();
        let interp = run_testbench(netlist, netlist, tb).unwrap();
        let compiled = tester.test(netlist);
        assert_eq!(interp, compiled, "case {}", case.id);
        assert!(compiled.passed(), "case {}", case.id);
    }
}
