//! # rechisel-autochip
//!
//! The AutoChip baseline: LLM-based *direct Verilog* generation with compiler/simulator
//! feedback (Thakur et al., DAC 2024), which the ReChisel paper compares against in its
//! Table IV.
//!
//! The baseline shares the reflection skeleton with ReChisel — generate, compile,
//! simulate, feed errors back — but differs in three ways that this crate models:
//!
//! 1. the Generator produces Verilog directly (the synthetic LLM's `Language::Verilog`
//!    profile: far fewer compile-time errors, per the paper's Fig. 1, but no benefit
//!    from Chisel's stronger static checking);
//! 2. the compiler performs only the checks a Verilog tool-flow would (no abstract
//!    reset inference, no implicit-clock analysis);
//! 3. there is no Chisel-specific common-error knowledge base.
//!
//! The entry point [`run_autochip_model`] mirrors
//! [`rechisel_benchsuite::runner::run_model`] so Table IV can put the two systems side
//! by side over the same suite, samples and metric machinery.

#![warn(missing_docs)]

use rechisel_benchsuite::runner::{run_sample_with_engine, sweep_suite, ModelOutcome};
use rechisel_benchsuite::BenchmarkCase;
use rechisel_core::{ChiselCompiler, Engine, WorkflowConfig};
use rechisel_firrtl::pipeline::PassManager;
use rechisel_llm::{Language, ModelProfile};

/// Configuration of the AutoChip baseline flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoChipConfig {
    /// Samples per case.
    pub samples: u32,
    /// Maximum feedback iterations (the paper uses 10 for both systems).
    pub max_iterations: u32,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AutoChipConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl AutoChipConfig {
    /// The paper's comparison configuration.
    pub fn paper() -> Self {
        Self { samples: 10, max_iterations: 10, threads: default_threads() }
    }

    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Self { samples: 3, max_iterations: 5, ..Self::paper() }
    }

    /// Builds the AutoChip engine for this configuration: Verilog-style checking, no
    /// Chisel knowledge base.
    pub fn engine(&self) -> Engine {
        Engine::builder()
            .config(autochip_workflow_config(self.max_iterations))
            .compiler(autochip_compiler())
            .build()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// The AutoChip workflow configuration: escape behaviour identical to the generic
/// feedback loop, but no Chisel knowledge base.
fn autochip_workflow_config(max_iterations: u32) -> WorkflowConfig {
    WorkflowConfig { max_iterations, escape_enabled: true, knowledge_enabled: false }
}

/// The AutoChip compiler: the standard pipeline without the `clocking` pass, i.e. only
/// the checks a plain Verilog tool-flow would perform (no abstract reset or
/// implicit-clock analysis).
fn autochip_compiler() -> ChiselCompiler {
    let passes = PassManager::standard().without("clocking");
    ChiselCompiler::from_pipeline(ChiselCompiler::new().pipeline().clone().with_passes(passes))
}

/// Runs a full model × suite sweep through the AutoChip flow, at the same case × sample
/// parallel granularity (and with the same deterministic result ordering) as
/// `rechisel_benchsuite::run_model`.
pub fn run_autochip_model(
    profile: &ModelProfile,
    suite: &[BenchmarkCase],
    config: &AutoChipConfig,
) -> ModelOutcome {
    let engine = config.engine();
    let cases = sweep_suite(suite, config.samples, config.threads, |case, sample| {
        run_sample_with_engine(&engine, case, profile, Language::Verilog, sample)
    });
    ModelOutcome { model: profile.name.clone(), language: Language::Verilog, cases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_benchsuite::sampled_suite;
    use rechisel_core::EngineKind;

    #[test]
    fn autochip_baseline_runs_and_improves_with_feedback() {
        let suite = sampled_suite(6);
        let config = AutoChipConfig::quick();
        let outcome = run_autochip_model(&ModelProfile::claude35_sonnet(), &suite, &config);
        assert_eq!(outcome.cases.len(), 6);
        let zero_shot = outcome.pass_at_k(1, 0);
        let reflected = outcome.pass_at_k(1, config.max_iterations);
        assert!(reflected >= zero_shot);
    }

    #[test]
    fn verilog_zero_shot_beats_chisel_zero_shot() {
        // The motivation result (Table I): direct Verilog generation has a much higher
        // zero-shot success rate than Chisel generation for the same model.
        let suite = sampled_suite(8);
        let profile = ModelProfile::gpt4o();
        let autochip = run_autochip_model(&profile, &suite, &AutoChipConfig::quick());
        let rechisel = rechisel_benchsuite::run_model(
            &profile,
            &suite,
            &rechisel_benchsuite::ExperimentConfig::quick(),
        );
        assert!(
            autochip.pass_at_k(1, 0) > rechisel.pass_at_k(1, 0),
            "verilog {} vs chisel {}",
            autochip.pass_at_k(1, 0),
            rechisel.pass_at_k(1, 0)
        );
    }

    #[test]
    fn engine_runs_the_verilog_checks() {
        let config = AutoChipConfig::quick();
        let engine = config.engine();
        assert_eq!(engine.config().max_iterations, config.max_iterations);
        assert!(engine.knowledge().is_empty(), "no Chisel knowledge base");
        // The Verilog-style checks: every standard pass but `clocking`, in order.
        assert_eq!(
            engine.compiler().pipeline().passes().names(),
            ["connects", "widths", "initialization", "comb-loops"]
        );
        assert_eq!(engine.compiler().pipeline().backend().name(), "verilog");
        // The default sweep runs on the fast engine, like the ReChisel runner.
        assert_eq!(AutoChipConfig::quick().engine().sim_engine(), EngineKind::Compiled);
    }
}
