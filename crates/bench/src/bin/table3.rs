//! Reproduces Table III of the ReChisel paper: ReChisel success rate (Pass@1/5/10, each
//! k up to the sample count) as a function of the maximum allowed number of reflection
//! iterations n ∈ {0, 1, 5, 10}.

use rechisel_bench::Scale;
use rechisel_benchsuite::report::{format_table, pct};
use rechisel_benchsuite::{run_model, ExperimentConfig};
use rechisel_llm::{Language, ModelProfile};

fn main() {
    let scale = Scale::from_env();
    print!("{}", scale.banner("Table III: ReChisel performance vs iteration cap"));
    let suite = scale.suite();
    let config = ExperimentConfig::paper()
        .with_samples(scale.samples)
        .with_max_iterations(10)
        .with_language(Language::Chisel);

    let caps = [0u32, 1, 5, 10];
    let mut sections = Vec::new();
    let mut outcomes = Vec::new();
    for profile in ModelProfile::paper_models() {
        let outcome = run_model(&profile, &suite, &config);
        eprintln!("  finished {}", profile.name);
        outcomes.push((profile.name.clone(), outcome));
    }
    for k in scale.pass_ks() {
        let mut rows = Vec::new();
        for (name, outcome) in &outcomes {
            let mut row = vec![name.clone()];
            for cap in caps {
                row.push(pct(outcome.pass_at_k(k, cap)));
            }
            rows.push(row);
        }
        sections.push(format_table(
            &format!("Pass@{k} (%) by maximum iterations n"),
            &["Model", "n=0", "n=1", "n=5", "n=10"],
            &rows,
        ));
    }
    for s in sections {
        println!("{s}");
    }
    println!(
        "Paper reference (Pass@1, n=10): GPT-4 Turbo 73.24, GPT-4o 77.46, GPT-4o mini 40.38, \
         Claude 3.5 Sonnet 84.98, Claude 3.5 Haiku 84.51"
    );
}
