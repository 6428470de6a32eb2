//! Ablation of two ReChisel design choices: the escape mechanism (paper §IV-C,
//! Figs. 4–5) and the common-error knowledge base (§IV-B).
//!
//! For each model the binary runs the same suite with (a) the full system, (b) escape
//! disabled, and (c) the knowledge base disabled, and reports Pass@1 at the full
//! iteration budget plus escape statistics.

use rechisel_bench::Scale;
use rechisel_benchsuite::report::{format_table, pct};
use rechisel_benchsuite::{run_model, ExperimentConfig};
use rechisel_llm::{Language, ModelProfile};

fn main() {
    let scale = Scale::from_env();
    print!("{}", scale.banner("Ablation: escape mechanism and common-error knowledge"));
    let suite = scale.suite();
    let base = ExperimentConfig::paper()
        .with_samples(scale.samples)
        .with_max_iterations(10)
        .with_language(Language::Chisel);

    let mut rows = Vec::new();
    for profile in
        [ModelProfile::claude35_sonnet(), ModelProfile::gpt4o(), ModelProfile::gpt4o_mini()]
    {
        let full = run_model(&profile, &suite, &base);
        let no_escape = run_model(&profile, &suite, &base.with_escape(false));
        let no_knowledge =
            run_model(&profile, &suite, &ExperimentConfig { knowledge_enabled: false, ..base });
        let (escape_events, escape_fraction) = full.escape_stats();
        rows.push(vec![
            profile.name.clone(),
            pct(full.pass_at_k(1, 10)),
            pct(no_escape.pass_at_k(1, 10)),
            pct(no_knowledge.pass_at_k(1, 10)),
            format!("{escape_events}"),
            pct(escape_fraction),
        ]);
        eprintln!("  finished {}", profile.name);
    }
    let table = format_table(
        "Pass@1 (%) at n = 10 under ablations",
        &["Model", "Full", "No escape", "No knowledge", "Escape events", "Runs w/ escape %"],
        &rows,
    );
    println!("{table}");
    println!(
        "Expected shape: disabling the escape mechanism lowers the plateau (runs stuck in \
         non-progress loops never recover); disabling the knowledge base slows syntax-error \
         repair and also lowers the final success rate."
    );
}
