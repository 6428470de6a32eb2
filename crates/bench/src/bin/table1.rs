//! Reproduces Table I of the ReChisel paper: baseline (zero-shot) capabilities of the
//! five models generating Chisel vs Verilog, measured as Pass@1/5/10 (each k up to
//! the sample count).

use rechisel_autochip::{run_autochip_model, AutoChipConfig};
use rechisel_bench::Scale;
use rechisel_benchsuite::report::{format_table, pct};
use rechisel_benchsuite::{run_model, ExperimentConfig};
use rechisel_llm::{Language, ModelProfile};

fn main() {
    let scale = Scale::from_env();
    print!("{}", scale.banner("Table I: LLM baseline capabilities, Chisel (CHS) vs Verilog (VRL)"));
    let suite = scale.suite();

    let chisel_config = ExperimentConfig::paper()
        .with_samples(scale.samples)
        .with_max_iterations(0)
        .with_language(Language::Chisel);
    let verilog_config =
        AutoChipConfig { samples: scale.samples, max_iterations: 0, ..AutoChipConfig::paper() };

    let ks = scale.pass_ks();
    let mut rows = Vec::new();
    for profile in ModelProfile::paper_models() {
        let chisel = run_model(&profile, &suite, &chisel_config);
        let verilog = run_autochip_model(&profile, &suite, &verilog_config);
        let mut row = vec![profile.name.clone()];
        for &k in &ks {
            row.push(pct(chisel.pass_at_k(k, 0)));
            row.push(pct(verilog.pass_at_k(k, 0)));
        }
        rows.push(row);
        eprintln!("  finished {}", profile.name);
    }
    let mut headers = vec!["Model".to_string()];
    for k in &ks {
        headers.push(format!("P@{k} CHS"));
        headers.push(format!("P@{k} VRL"));
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = format_table("Pass@k (%) in zero-shot generation", &headers, &rows);
    println!("{table}");
    println!(
        "Paper reference (Pass@1 CHS/VRL): GPT-4 Turbo 45.54/67.61, GPT-4o 45.07/69.48, \
         GPT-4o mini 11.27/59.15, Claude 3.5 Sonnet 33.33/77.93, Claude 3.5 Haiku 26.29/75.59"
    );
}
