//! Quickstart: build a small Chisel-like design, compile it with one
//! `Pipeline::run` (check → lower → emit Verilog), print its FIRRTL, and simulate the
//! netlist — without the agents.
//!
//! Run with `cargo run --example quickstart`.

use rechisel::firrtl::pipeline::Pipeline;
use rechisel::firrtl::{print_chisel, print_firrtl, DiagnosticReport};
use rechisel::hcl::prelude::*;
use rechisel::sim::{SimEngine, Simulator};
use rechisel::verilog::VerilogBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-bit loadable up-counter with a terminal-count flag.
    let mut m = ModuleBuilder::new("LoadableCounter");
    let load = m.input("load", Type::bool());
    let value = m.input("value", Type::uint(8));
    let en = m.input("en", Type::bool());
    let count = m.output("count", Type::uint(8));
    let wrap = m.output("wrap", Type::bool());

    let reg = m.reg_init("reg", Type::uint(8), &Signal::lit_w(0, 8));
    m.when_else(
        &load,
        |m| m.connect(&reg, &value),
        |m| {
            m.when(&en, |m| {
                let next = reg.add(&Signal::lit_w(1, 8)).bits(7, 0);
                m.connect(&reg, &next);
            });
        },
    );
    m.connect(&count, &reg);
    m.connect(&wrap, &reg.eq(&Signal::lit_w(255, 8)));
    let circuit = m.into_circuit();

    println!("=== pseudo-Chisel source ===\n{}", print_chisel(&circuit));

    // 1. Compile (the "Compiler" of the ReChisel workflow): the checking passes, in
    //    order, then lowering and Verilog emission, or the diagnostics.
    let pipeline = Pipeline::new(VerilogBackend);
    println!("=== checking passes ===\n{}\n", pipeline.passes().names().join(", "));
    let (netlist, verilog) = pipeline
        .run(&circuit)
        .map_err(|errors| errors.into_iter().collect::<DiagnosticReport>().to_compiler_output())?;
    println!("=== emitted Verilog ({} backend) ===\n{verilog}", pipeline.backend().name());

    // 2. The same design as FIRRTL text, printed from the IR.
    println!("=== FIRRTL ===\n{}", print_firrtl(&circuit));

    // 3. Simulate the lowered netlist.
    let mut sim = Simulator::new(netlist);
    sim.reset(2)?;
    sim.poke("load", 1)?;
    sim.poke("value", 250)?;
    sim.step()?;
    sim.poke("load", 0)?;
    sim.poke("en", 1)?;
    println!("=== simulation ===");
    for _ in 0..8 {
        println!(
            "cycle {:>3}: count = {:>3}, wrap = {}",
            sim.cycles(),
            sim.peek("count")?,
            sim.peek("wrap")?
        );
        sim.step()?;
    }
    Ok(())
}
