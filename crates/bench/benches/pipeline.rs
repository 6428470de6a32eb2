//! `pipeline/` — what one reflection step pays to recompile a changed candidate.
//!
//! The evaluation memo answers a candidate only when its located fingerprint was
//! already evaluated in the sweep part; every other candidate runs the from-scratch
//! path. This group times that path on a large generated circuit (~900 netlist
//! definitions):
//!
//! * `pipeline/full_compile` — the checking passes, a from-scratch lowering and a
//!   from-scratch tape compile.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rechisel_benchsuite::{random_circuit, RandomCircuitConfig};
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::lower_circuit;
use rechisel_firrtl::pipeline::PassManager;
use rechisel_sim::Tape;

/// Seed of the benchmark circuit. Fixed so the workload is identical on every run
/// and on every machine.
const SEED: u64 = 7;

/// A generated circuit large enough that the from-scratch path dominates any fixed
/// overhead (~900 netlist definitions with this seed and configuration).
fn large_circuit() -> Circuit {
    let config = RandomCircuitConfig {
        max_inputs: 8,
        max_ops: 2500,
        max_regs: 16,
        max_mems: 2,
        max_width: 32,
    };
    random_circuit(SEED, &config)
}

/// One from-scratch compile: passes + lowering, then a tape compile.
fn full_compile(passes: &PassManager, circuit: &Circuit) -> Tape {
    assert!(!passes.run(circuit).has_errors(), "the benchmark circuit passes the checks");
    let netlist = lower_circuit(circuit).expect("the benchmark circuit lowers");
    Tape::compile(&netlist).expect("the benchmark netlist compiles to a tape")
}

fn bench_pipeline(c: &mut Criterion) {
    let circuit = large_circuit();
    let passes = PassManager::standard();
    let defs = lower_circuit(&circuit).expect("the benchmark circuit lowers").defs.len();
    println!("pipeline/full_compile: benchmark circuit has {defs} netlist definitions");

    c.bench_function("pipeline/full_compile", |b| {
        b.iter(|| black_box(full_compile(&passes, black_box(&circuit))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
