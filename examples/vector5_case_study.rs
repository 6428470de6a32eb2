//! The paper's Fig. 8 case study: the `Vector5` problem from AutoChip's HDLBits set,
//! solved by the ReChisel reflection workflow.
//!
//! The example runs the workflow with a synthetic GPT-4o profile on the Vector5 case,
//! then prints the specification, the iteration-by-iteration trace (errors encountered
//! and revision plans issued) and the final Verilog.
//!
//! Run with `cargo run --example vector5_case_study`.

use rechisel::benchsuite::circuits::combinational;
use rechisel::benchsuite::runner::run_sample_with_engine;
use rechisel::core::{Engine, WorkflowConfig};
use rechisel::llm::{Language, ModelProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let case = combinational::vector5();
    println!("=== specification ({}) ===\n{}", case.id, case.spec.to_prompt());

    let engine = Engine::builder().config(WorkflowConfig::paper_default()).build();

    // Search for a seed whose zero-shot generation is defective, so the reflection
    // process is visible (as in the paper's walkthrough the first attempts fail).
    let profile = ModelProfile::gpt4o();
    let mut chosen = None;
    for attempt in 0..32u32 {
        let result = run_sample_with_engine(&engine, &case, &profile, Language::Chisel, attempt);
        if result.success && result.success_iteration.unwrap_or(0) > 0 {
            chosen = Some((attempt, result));
            break;
        }
    }
    let (attempt, result) = chosen.unwrap_or_else(|| {
        (0, run_sample_with_engine(&engine, &case, &profile, Language::Chisel, 0))
    });

    println!("=== reflection trace (sample #{attempt}, model {}) ===", profile.name);
    for entry in result.trace.entries() {
        println!("--- iteration {} ---", entry.iteration);
        println!("feedback:\n{}", entry.feedback.to_report());
        if let Some(plan) = &entry.plan {
            println!("revision plan:\n{}", plan.to_text());
        }
    }
    println!("{}", result.trace.to_text());
    println!(
        "outcome: success = {}, at iteration {:?}, escapes = {}",
        result.success, result.success_iteration, result.escapes
    );
    if let Some(verilog) = &result.final_verilog {
        println!("=== final Verilog ===\n{verilog}");
    }
    Ok(())
}
