//! Reproduces Fig. 6 of the ReChisel paper: success rate as a function of the number of
//! reflection iterations (0..=10) for every model, under Pass@1, Pass@5 and Pass@10
//! (each k up to the sample count).

use rechisel_bench::Scale;
use rechisel_benchsuite::report::format_series;
use rechisel_benchsuite::{run_model, ExperimentConfig};
use rechisel_llm::{Language, ModelProfile};

fn main() {
    let scale = Scale::from_env();
    print!("{}", scale.banner("Fig. 6: success rate vs number of iterations"));
    let suite = scale.suite();
    let config = ExperimentConfig::paper()
        .with_samples(scale.samples)
        .with_max_iterations(10)
        .with_language(Language::Chisel);

    println!("iterations:            {}", (0..=10).map(|i| format!("{i:5}")).collect::<String>());
    for profile in ModelProfile::paper_models() {
        let outcome = run_model(&profile, &suite, &config);
        eprintln!("  finished {}", profile.name);
        println!("{}", profile.name);
        for k in scale.pass_ks() {
            let series: Vec<f64> = (0..=10).map(|n| outcome.pass_at_k(k, n)).collect();
            println!("{}", format_series(&format!("  Pass@{k}"), &series));
        }
    }
    println!(
        "\nExpected shape (paper): curves rise steeply for the first ~4 iterations and then \
         plateau; the Claude models start lower but overtake the GPT-4 models, while GPT-4o \
         mini climbs slowly and stays well below the rest."
    );
}
