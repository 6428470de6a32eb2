//! Differential fuzzing of the simulation engines.
//!
//! The compiled instruction-tape engine is only allowed to exist because it is
//! mechanically indistinguishable from the tree-walking interpreter: for thousands of
//! randomly generated circuits × random stimulus, every signal must agree **peek for
//! peek, cycle for cycle**. The session recompiler is held to the from-scratch
//! compiler the same way: over random edits, SourceInfo-only resubmissions and
//! repeats of earlier revisions, every result it returns is a from-scratch
//! compile's — same diagnostics, same netlist, same Verilog. All properties run over
//! the narrow population and over [`RandomCircuitConfig::wide`], whose 64/127/128-bit
//! signals and over-shifting amounts live at the `u128` word boundary. Seeds are
//! produced by the deterministic proptest stub (fixed per test name), so a failure
//! reproduces forever; the case count is raised in CI's dedicated fuzz job via
//! `RECHISEL_FUZZ_CASES`.

use proptest::prelude::*;
use rechisel_benchsuite::{random_circuit, random_stimulus, sampled_suite, RandomCircuitConfig};
use rechisel_core::{ChiselCompiler, IncrementalCompiled};
use rechisel_firrtl::ir::{Circuit, Expression, ModuleKind, PrimOp, SourceInfo, Statement};
use rechisel_firrtl::{lower_circuit, Fingerprint, RebuildReason, RecompileOutcome};
use rechisel_sim::{
    run_testbench, run_testbench_with, CompiledSimulator, EngineKind, Simulator, Tape,
};

/// Generated-circuit count for the property below: default 1000, raised in CI.
fn fuzz_cases() -> u32 {
    std::env::var("RECHISEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(1000)
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
    let names: Vec<String> = netlist.slot_assignment().iter().map(|(_, n)| n.to_string()).collect();
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
        compiled.eval();
        assert_all_peeks_agree(&interp, &compiled, &names, &mems, seed, &format!("eval {cycle}"));
        interp.step().unwrap();
        compiled.step();
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
/// located fingerprint that keys the recompiler's memo does not.
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

/// One recompiler differential run: drive one session recompiler over
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

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
    /// earlier revisions: the session recompiler returns exactly what the
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
}

#[test]
fn engines_agree_on_suite_references() {
    // Beyond generated circuits: both engines must produce byte-identical testbench
    // reports over real benchmark-suite reference designs (all five categories).
    for case in sampled_suite(24) {
        let netlist = case.reference_netlist();
        let tester = case.tester();
        let tb = tester.testbench();
        let interp = run_testbench(netlist, netlist, tb).unwrap();
        let compiled = run_testbench_with(EngineKind::Compiled, netlist, netlist, tb).unwrap();
        assert_eq!(interp, compiled, "case {}", case.id);
        assert!(compiled.passed(), "case {}", case.id);
    }
}
