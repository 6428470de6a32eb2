//! Simulation-engine selection: the interpreter vs the compiled instruction tape.
//!
//! Demonstrates the `SimEngine` seam end to end: drive the same design through both
//! engines via the trait object, verify they agree cycle-for-cycle, time a long run on
//! each, and show how the engine choice threads through a benchmark sweep: it is made
//! in one place, `EngineBuilder::sim_engine`, and every tester of the sweep follows.
//!
//! Run with: `cargo run --release --example sim_engines`

use std::time::Instant;

use rechisel::benchsuite::circuits::sequential;
use rechisel::benchsuite::{run_model, run_model_with_engine, sampled_suite};
use rechisel::benchsuite::{ExperimentConfig, SourceFamily};
use rechisel::core::Engine;
use rechisel::llm::ModelProfile;
use rechisel::sim::{EngineKind, SimEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8x8 register file from the benchmark suite; any lowered netlist works.
    let case = sequential::register_file(8, 8, SourceFamily::Rtllm);
    let netlist = case.reference_netlist();

    // The same driver code runs against either engine through the SimEngine trait,
    // whose provided methods (poke, step, reset, outputs, ...) hold the rules both
    // engines share.
    println!("engine agreement on {}:", netlist.name);
    let mut engines: Vec<(EngineKind, Box<dyn SimEngine>)> = Vec::new();
    for kind in [EngineKind::Interp, EngineKind::Compiled] {
        let mut sim = kind.simulator(netlist)?;
        sim.reset(2)?;
        sim.poke("we", 1)?;
        sim.poke("waddr", 3)?;
        sim.poke("wdata", 0xAB)?;
        sim.step()?;
        sim.poke("we", 0)?;
        sim.poke("raddr", 3)?;
        sim.step()?;
        println!("  {kind:>8}: rdata = {:#x} after {} cycles", sim.peek("rdata")?, sim.cycles());
        engines.push((kind, sim));
    }
    assert_eq!(engines[0].1.outputs(), engines[1].1.outputs());

    // Throughput: the compiled tape pays one compilation, then steps with no
    // hashing or allocation per cycle.
    const CYCLES: u32 = 20_000;
    println!("\nper-cycle throughput over {CYCLES} cycles:");
    let mut times = Vec::new();
    for kind in [EngineKind::Interp, EngineKind::Compiled] {
        let mut sim = kind.simulator(netlist)?;
        sim.reset(2)?;
        sim.poke("we", 1)?;
        let start = Instant::now();
        sim.step_n(CYCLES)?;
        let elapsed = start.elapsed();
        println!("  {kind:>8}: {:>7.1} ns/cycle", elapsed.as_nanos() as f64 / f64::from(CYCLES));
        times.push(elapsed);
    }
    println!(
        "  compiled speedup: {:.1}x",
        times[0].as_secs_f64() / times[1].as_secs_f64().max(f64::MIN_POSITIVE)
    );

    // Sweeps select the engine in one place, the engine builder; results are
    // identical either way.
    let suite = sampled_suite(4);
    let config = ExperimentConfig::quick().with_samples(2);
    let interp =
        Engine::builder().config(config.workflow_config()).sim_engine(EngineKind::Interp).build();
    let a = run_model(&ModelProfile::gpt4o(), &suite, &config);
    let b = run_model_with_engine(&interp, &ModelProfile::gpt4o(), &suite, &config);
    assert_eq!(a.pass_at_k(1, 5), b.pass_at_k(1, 5));
    println!(
        "\nsweep pass@1 identical on both engines: {:.3} (default engine: {})",
        a.pass_at_k(1, 5),
        config.engine().sim_engine()
    );
    Ok(())
}
