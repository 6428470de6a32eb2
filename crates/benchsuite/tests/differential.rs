//! Differential fuzzing of the simulation engines.
//!
//! The compiled instruction-tape engine is only allowed to exist because it is
//! mechanically indistinguishable from the tree-walking interpreter: for thousands of
//! randomly generated circuits × random stimulus, every signal must agree **peek for
//! peek, cycle for cycle**. Incremental recompilation earns its keep the same way:
//! after a random single-statement edit, the patched netlist and patched tape must be
//! indistinguishable from a full rebuild — same structural digest, same peeks, same
//! taint errors. All properties run over the narrow population and over
//! [`RandomCircuitConfig::wide`], whose 64/127/128-bit signals and over-shifting
//! amounts live at the `u128` word boundary. Seeds are produced by the deterministic
//! proptest stub (fixed per test name), so a failure reproduces forever; the case
//! count is raised in CI's dedicated fuzz job via `RECHISEL_FUZZ_CASES`.

use proptest::prelude::*;
use rechisel_benchsuite::{random_circuit, random_stimulus, sampled_suite, RandomCircuitConfig};
use rechisel_firrtl::ir::{Circuit, Expression, ModuleKind, PrimOp, Statement};
use rechisel_firrtl::{lower_circuit, IncrementalLowering, RebuildReason, RecompileOutcome};
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
/// circuit, returning the edited circuit and whether the edit is an output-connect
/// rewrite (the shape the incremental patch tier is specified for).
///
/// Edit styles, chosen by `pick`:
/// - invert an output connect (`expr` → `bits(not(expr), w-1, 0)`) — patchable;
/// - cross-wire two output connects (swap their right-hand sides) — patchable
///   (widths may mismatch, which both pipelines mask identically at assignment);
/// - invert a node's value — NOT patchable (node rewrites take the scoped/full
///   fallback), exercising the rejection path differentially.
///
/// On a quarter of the seeds the top module also turns into a `RawModule`. The kind
/// decides the implicit clock, so a design with implicitly clocked state becomes
/// illegal and both pipelines must reject it; a kind flip is never patch-shaped.
fn edit_circuit(circuit: &Circuit, pick: u64) -> Option<(Circuit, bool)> {
    let mut edited = circuit.clone();
    let top_name = edited.top.clone();
    let top = edited.modules.iter_mut().find(|m| m.name == top_name)?;

    let invert = |expr: &Expression| {
        // Keep the width by slicing the inversion back down: peeks of the output
        // must stay maskable the same way on both pipelines.
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

    let patch_shaped = match pick % 3 {
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
            true
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
            true
        }
        _ => {
            if nodes.is_empty() {
                return None;
            }
            let at = nodes[(pick / 3) as usize % nodes.len()];
            let Statement::Node { value, .. } = &mut top.body[at] else { unreachable!() };
            *value = invert(value);
            false
        }
    };
    let flip_kind = (pick >> 32).is_multiple_of(4);
    if flip_kind {
        top.kind = ModuleKind::RawModule;
    }
    Some((edited, patch_shaped && !flip_kind))
}

/// One incremental-recompilation differential run: generate a circuit, apply a
/// random single-statement edit, and require the incremental pipeline's netlist
/// and (when patched) tape to be indistinguishable from a from-scratch rebuild —
/// structural digests equal, and two compiled simulators peek-for-peek identical
/// over random stimulus (including the `SyncReadBeforeClock` taint `Result`s,
/// which a stale patched tape would get wrong).
fn incremental_differential_run(seed: u64, config: &RandomCircuitConfig) {
    let original = random_circuit(seed, config);
    let Some((edited, patch_shaped)) = edit_circuit(&original, seed ^ 0xA5A5) else {
        return; // no statement of the chosen kind — vacuous seed
    };

    let mut inc = IncrementalLowering::new();
    let first = inc.recompile(&original).unwrap_or_else(|r| {
        panic!("seed {seed}: original circuit fails the incremental pipeline: {r:?}")
    });
    // The from-scratch baseline is a *fresh* incremental pipeline: its first revision
    // always takes the full-rebuild tier, so it runs the exact passes + lowering the
    // chained pipeline is claiming to have shortcut.
    let (result, scratch) =
        match (inc.recompile(&edited), IncrementalLowering::new().recompile(&edited)) {
            // Both pipelines reject the edit — rejection agreement IS the property.
            (Err(_), Err(_)) => return,
            (Ok(result), Ok(scratch)) => (result, scratch),
            (Ok(result), Err(report)) => panic!(
                "seed {seed}: chained pipeline accepted ({:?}) an edit the from-scratch \
             pipeline rejects: {report:?}",
                result.outcome,
            ),
            (Err(report), Ok(_)) => panic!(
                "seed {seed}: chained pipeline rejected an edit the from-scratch pipeline \
             accepts: {report:?}",
            ),
        };
    let scratch_netlist = &scratch.netlist;

    // The netlist is structurally identical to a from-scratch lowering no matter
    // which tier the edit hit.
    assert_eq!(
        result.netlist.structural_digest(),
        scratch_netlist.structural_digest(),
        "seed {seed}: incremental netlist diverges from scratch ({:?})",
        result.outcome,
    );
    if patch_shaped {
        match &result.outcome {
            RecompileOutcome::Patched { .. } => {}
            // The rewritten right-hand side may read a signed pool signal, which the
            // unsigned-only patch tier refuses — the sound fallbacks are fine.
            RecompileOutcome::FullRebuild(RebuildReason::UnsupportedEdit(_))
            | RecompileOutcome::ScopedCheck { .. } => {}
            other => {
                panic!("seed {seed}: output-connect rewrite took an unexpected tier: {other:?}")
            }
        }
    } else {
        assert!(
            !matches!(result.outcome, RecompileOutcome::Patched { .. }),
            "seed {seed}: a node rewrite must never hit the connect-only patch tier",
        );
    }

    // Tape: patch when the diff allowed it, full compile otherwise — then prove the
    // two tapes indistinguishable by simulation.
    let old_tape = Tape::compile(&first.netlist)
        .unwrap_or_else(|e| panic!("seed {seed}: original tape fails: {e}"));
    let scratch_tape = Tape::compile(scratch_netlist)
        .unwrap_or_else(|e| panic!("seed {seed}: scratch tape fails: {e}"));
    let dut_tape = match &result.outcome {
        RecompileOutcome::Patched { patched_defs } => {
            let patched = old_tape
                .patch(&result.netlist, patched_defs)
                .unwrap_or_else(|e| panic!("seed {seed}: tape patch rejected: {e}"));
            assert_eq!(
                patched.source_digest(),
                scratch_tape.source_digest(),
                "seed {seed}: patched tape digest diverges from scratch",
            );
            patched
        }
        _ => Tape::compile(&result.netlist)
            .unwrap_or_else(|e| panic!("seed {seed}: incremental tape fails: {e}")),
    };

    let names: Vec<String> =
        scratch_netlist.slot_assignment().iter().map(|(_, n)| n.to_string()).collect();
    let mems: Vec<(String, usize)> =
        scratch_netlist.mems.iter().map(|m| (m.name.clone(), m.depth)).collect();
    let mut patched_sim = CompiledSimulator::from_tape(std::sync::Arc::new(dut_tape));
    let mut scratch_sim = CompiledSimulator::from_tape(std::sync::Arc::new(scratch_tape));

    let check = |patched: &CompiledSimulator, scratch: &CompiledSimulator, at: &str| {
        for name in &names {
            let p = patched.peek(name);
            let s = scratch.peek(name);
            assert_eq!(p, s, "seed {seed}: signal {name} diverges {at}");
        }
        for (mem, depth) in &mems {
            for addr in 0..*depth as u128 {
                let p = patched.peek_mem(mem, addr);
                let s = scratch.peek_mem(mem, addr);
                assert_eq!(p, s, "seed {seed}: word {mem}[{addr}] diverges {at}");
            }
        }
    };

    check(&patched_sim, &scratch_sim, "at construction");
    patched_sim.reset(2).unwrap();
    scratch_sim.reset(2).unwrap();
    check(&patched_sim, &scratch_sim, "after reset");
    for (cycle, assignment) in random_stimulus(scratch_netlist, 8, seed).iter().enumerate() {
        for (name, value) in assignment {
            patched_sim.poke(name, *value).unwrap();
            scratch_sim.poke(name, *value).unwrap();
        }
        patched_sim.eval();
        scratch_sim.eval();
        check(&patched_sim, &scratch_sim, &format!("eval {cycle}"));
        patched_sim.step();
        scratch_sim.step();
        check(&patched_sim, &scratch_sim, &format!("step {cycle}"));
        assert_eq!(patched_sim.outputs(), scratch_sim.outputs(), "seed {seed} cycle {cycle}");
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

    /// Random single-statement edits: the incremental recompilation path (patched
    /// netlist and patched tape included) is indistinguishable from a full rebuild.
    #[test]
    fn incremental_recompile_matches_full_rebuild(seed in 0u64..u64::MAX) {
        incremental_differential_run(seed, &RandomCircuitConfig::default());
    }

    /// The same incremental property over the wide population.
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
