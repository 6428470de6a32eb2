//! Criterion benchmarks of the substrate: elaboration checking, lowering, Verilog
//! emission and simulation throughput. These are the per-iteration costs that every
//! reflection step of the ReChisel workflow pays.
//!
//! The `substrate/` ids are gated in CI against `BENCH_baseline.json`:
//!
//! * `substrate/check/*` — the standard check passes over a suite reference;
//! * `substrate/lower/*` — standalone lowering ([`lower_circuit`]), which elaborates
//!   the top module itself;
//! * `substrate/compile/*` — [`ChiselCompiler::compile`], the fused check → lower →
//!   emit path every reflection session runs, which elaborates each revision once;
//! * `substrate/emit_verilog/regfile8x8` — Verilog emission from a lowered netlist:
//!   one walk that writes each section of the module text directly, building no
//!   syntax tree, and joins the sections in one allocation of the exact length.
//!
//! The `tester/*` and `simulate/*` ids are informational.

use criterion::{criterion_group, criterion_main, Criterion};
use rechisel_benchsuite::circuits::{combinational, sequential};
use rechisel_benchsuite::SourceFamily;
use rechisel_core::ChiselCompiler;
use rechisel_firrtl::{check_circuit, lower_circuit};
use rechisel_sim::{run_testbench, Testbench};
use rechisel_verilog::emit_verilog;

fn bench_substrate(c: &mut Criterion) {
    let comb = combinational::vector5().into_reference();
    let seq = sequential::register_file(8, 8, SourceFamily::Rtllm).into_reference();

    c.bench_function("substrate/check/vector5", |b| {
        b.iter(|| check_circuit(std::hint::black_box(&comb)))
    });
    c.bench_function("substrate/check/regfile8x8", |b| {
        b.iter(|| check_circuit(std::hint::black_box(&seq)))
    });
    c.bench_function("substrate/lower/vector5", |b| {
        b.iter(|| lower_circuit(std::hint::black_box(&comb)).unwrap())
    });
    c.bench_function("substrate/lower/regfile8x8", |b| {
        b.iter(|| lower_circuit(std::hint::black_box(&seq)).unwrap())
    });
    let compiler = ChiselCompiler::new();
    c.bench_function("substrate/compile/vector5", |b| {
        b.iter(|| compiler.compile(std::hint::black_box(&comb)).unwrap())
    });
    c.bench_function("substrate/compile/regfile8x8", |b| {
        b.iter(|| compiler.compile(std::hint::black_box(&seq)).unwrap())
    });

    let comb_netlist = lower_circuit(&comb).unwrap();
    let seq_netlist = lower_circuit(&seq).unwrap();
    c.bench_function("substrate/emit_verilog/regfile8x8", |b| {
        b.iter(|| emit_verilog(std::hint::black_box(&seq_netlist)).unwrap())
    });

    // Tester construction: the per-sample cost the per-case cache removes. "uncached"
    // is the reference lowering every tester() call used to pay; "cached" is a
    // tester() call against the warm tester prototype, which owns the case's one
    // lowered reference.
    let case = sequential::register_file(8, 8, SourceFamily::Rtllm);
    c.bench_function("tester/regfile8x8_uncached_lower", |b| {
        b.iter(|| lower_circuit(std::hint::black_box(case.reference())).unwrap())
    });
    case.tester();
    c.bench_function("tester/regfile8x8_cached", |b| {
        b.iter(|| std::hint::black_box(&case).tester())
    });

    let comb_tb = Testbench::random_for(&comb_netlist, 32, 0, 1);
    let seq_tb = Testbench::random_for(&seq_netlist, 32, 1, 1);
    c.bench_function("simulate/vector5_32pts", |b| {
        b.iter(|| {
            run_testbench(&comb_netlist, &comb_netlist, std::hint::black_box(&comb_tb)).unwrap()
        })
    });
    c.bench_function("simulate/regfile8x8_32pts", |b| {
        b.iter(|| run_testbench(&seq_netlist, &seq_netlist, std::hint::black_box(&seq_tb)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_substrate
}
criterion_main!(benches);
