//! `sim/` — per-cycle throughput of the simulation engines.
//!
//! The compiled instruction-tape engine exists to make the Simulator tool (step ❸ of
//! the workflow) as fast as the substrate allows; this group quantifies the win on two
//! suite circuits (a register file and an FSM). `sim/interp/*` vs `sim/compiled/*`
//! measure a single `step()` on each engine; `sim/compile_tape/*` measures the
//! one-time cost of compiling a tape, which a sweep pays once per case for the
//! reference (whose recorded trace it then keeps). A direct
//! steady-state speedup measurement is printed at the end (the acceptance bar:
//! compiled ≥5× interp per cycle).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rechisel_benchsuite::circuits::{cdc, fsm, memory, sequential};
use rechisel_benchsuite::SourceFamily;
use rechisel_firrtl::lower::Netlist;
use rechisel_sim::{CompiledSimulator, SimEngine, Simulator, Tape};

/// Drives every data input with an in-range, activity-producing value.
fn poke_ones(poke: &mut dyn FnMut(&str), netlist: &Netlist) {
    for port in netlist.data_inputs().filter(|p| p.name != "reset") {
        poke(&port.name);
    }
}

/// Steady-state per-cycle speedup of compiled over interp, measured directly.
fn measured_speedup(netlist: &Netlist) -> f64 {
    const WARMUP: u32 = 200;
    const CYCLES: u32 = 4000;

    let mut interp = Simulator::new(netlist.clone());
    interp.reset(2).unwrap();
    poke_ones(&mut |name| interp.poke(name, 1).unwrap(), netlist);
    interp.step_n(WARMUP).unwrap();
    let start = Instant::now();
    interp.step_n(CYCLES).unwrap();
    let interp_time = start.elapsed();

    let mut compiled = CompiledSimulator::new(netlist).unwrap();
    compiled.reset(2).unwrap();
    poke_ones(&mut |name| compiled.poke(name, 1).unwrap(), netlist);
    compiled.step_n(WARMUP).unwrap();
    let start = Instant::now();
    compiled.step_n(CYCLES).unwrap();
    let compiled_time = start.elapsed();

    assert_eq!(interp.outputs(), compiled.outputs(), "engines diverged during the benchmark");
    interp_time.as_secs_f64() / compiled_time.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Fixed pure-CPU work (a splitmix64 spin) whose cost scales with host speed the same
/// way the engine loops do. `bench_gate` divides every `sim/` median by this one, so
/// the committed baseline gates on machine-independent *ratios*, not raw nanoseconds.
fn calibration_spin() -> u64 {
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..4096 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= x >> 31;
    }
    z
}

fn bench_sim(c: &mut Criterion) {
    c.bench_function("sim/_calibration/spin", |b| b.iter(|| black_box(calibration_spin())));

    let cases = [
        ("regfile8x8", sequential::register_file(8, 8, SourceFamily::Rtllm)),
        ("fsm_seq1101", fsm::sequence_detector(&[1, 1, 0, 1], SourceFamily::HdlBits)),
        ("fifo8x8", memory::fifo(8, 8, SourceFamily::VerilogEval)),
        // The memory-v2 hot path: lane-masked merge commits every cycle.
        ("masked_ram", memory::byte_enable_scratchpad(16, 8, SourceFamily::VerilogEval)),
    ];
    for (label, case) in &cases {
        let netlist = case.reference_netlist().clone();

        let mut interp = Simulator::new(netlist.clone());
        interp.reset(2).unwrap();
        poke_ones(&mut |name| interp.poke(name, 1).unwrap(), &netlist);
        c.bench_function(&format!("sim/interp/{label}/step"), |b| {
            b.iter(|| interp.step().unwrap())
        });

        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        compiled.reset(2).unwrap();
        poke_ones(&mut |name| compiled.poke(name, 1).unwrap(), &netlist);
        c.bench_function(&format!("sim/compiled/{label}/step"), |b| {
            b.iter(|| compiled.step().unwrap())
        });

        // The cost every new revision pays, and each case's reference once per sweep.
        c.bench_function(&format!("sim/compile_tape/{label}"), |b| {
            b.iter(|| Tape::compile(&netlist).unwrap())
        });
    }

    // Per-domain stepping on a dual-clock design: one write-domain edge of the async
    // FIFO through the compiled tape. `step_clock` stages every next-state but commits
    // only the matching domain, so this pins the cost of the domain filter on the
    // commit loop.
    {
        let case = cdc::async_fifo(8, 8, SourceFamily::Rtllm);
        let netlist = case.reference_netlist().clone();
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        compiled.reset(2).unwrap();
        poke_ones(&mut |name| compiled.poke(name, 1).unwrap(), &netlist);
        c.bench_function("sim/cdc_async_fifo/step_clock", |b| {
            b.iter(|| compiled.step_clock("clk_w").unwrap())
        });
    }

    println!();
    for (label, case) in &cases {
        let speedup = measured_speedup(case.reference_netlist());
        println!("sim/{label}: compiled engine is {speedup:.1}x faster per cycle than interp");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_sim
}
criterion_main!(benches);
