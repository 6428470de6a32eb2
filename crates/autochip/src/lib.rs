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

use rechisel_benchsuite::runner::{
    run_case_with_engine, run_sample_with_engine, sweep_suite, CaseOutcome, ExperimentConfig,
    ModelOutcome,
};
use rechisel_benchsuite::BenchmarkCase;
use rechisel_core::{ChiselCompiler, Engine, EngineKind, Workflow, WorkflowConfig, WorkflowResult};
use rechisel_firrtl::check::CheckOptions;
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
    /// Simulation engine used by the functional testers (defaults to the compiled
    /// instruction-tape engine, like the ReChisel sweeps).
    pub sim_engine: EngineKind,
}

impl Default for AutoChipConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl AutoChipConfig {
    /// The paper's comparison configuration.
    pub fn paper() -> Self {
        Self {
            samples: 10,
            max_iterations: 10,
            threads: default_threads(),
            sim_engine: EngineKind::default(),
        }
    }

    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Self { samples: 3, max_iterations: 5, ..Self::paper() }
    }

    /// Derives the baseline from a ReChisel experiment configuration so both systems
    /// run with identical budgets (and the same simulation engine).
    pub fn matching(config: &ExperimentConfig) -> Self {
        Self {
            samples: config.samples,
            max_iterations: config.max_iterations,
            threads: config.threads,
            sim_engine: config.sim_engine,
        }
    }

    /// Builds the AutoChip engine for this configuration.
    pub fn engine(&self) -> Engine {
        Engine::builder()
            .config(autochip_workflow_config(self.max_iterations))
            .compiler(autochip_compiler())
            .sim_engine(self.sim_engine)
            .build()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// The AutoChip workflow configuration: escape behaviour identical to the generic
/// feedback loop, but no Chisel knowledge base.
fn autochip_workflow_config(max_iterations: u32) -> WorkflowConfig {
    WorkflowConfig {
        max_iterations,
        escape_enabled: true,
        knowledge_enabled: false,
        feedback_detail: rechisel_core::FeedbackDetail::Full,
    }
}

/// The AutoChip compiler: only the checks a plain Verilog tool-flow would perform (no
/// abstract reset or implicit-clock analysis).
fn autochip_compiler() -> ChiselCompiler {
    ChiselCompiler::with_options(CheckOptions::verilog_like())
}

/// Builds the AutoChip engine: Verilog-style checking, no Chisel knowledge base.
pub fn autochip_engine(max_iterations: u32) -> Engine {
    Engine::builder()
        .config(autochip_workflow_config(max_iterations))
        .compiler(autochip_compiler())
        .build()
}

/// Builds the AutoChip workflow — the legacy shim over [`autochip_engine`], kept for
/// callers still on the `Workflow::run` entry point.
pub fn autochip_workflow(max_iterations: u32) -> Workflow {
    Workflow::new(autochip_workflow_config(max_iterations)).with_compiler(autochip_compiler())
}

/// Runs one sample of one case through the AutoChip flow.
pub fn run_autochip_sample(
    case: &BenchmarkCase,
    profile: &ModelProfile,
    config: &AutoChipConfig,
    sample: u32,
) -> WorkflowResult {
    let engine = config.engine();
    run_sample_with_engine(&engine, case, profile, Language::Verilog, sample)
}

/// Runs every sample of one case through the AutoChip flow.
pub fn run_autochip_case(
    case: &BenchmarkCase,
    profile: &ModelProfile,
    config: &AutoChipConfig,
) -> CaseOutcome {
    let engine = config.engine();
    run_case_with_engine(&engine, case, profile, Language::Verilog, config.samples)
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
    fn matching_config_copies_budgets() {
        let exp = ExperimentConfig::paper()
            .with_samples(7)
            .with_max_iterations(4)
            .with_sim_engine(EngineKind::Interp);
        let ac = AutoChipConfig::matching(&exp);
        assert_eq!(ac.samples, 7);
        assert_eq!(ac.max_iterations, 4);
        assert_eq!(ac.sim_engine, EngineKind::Interp);
        assert_eq!(ac.engine().sim_engine(), EngineKind::Interp);
        // The default sweep runs on the fast engine, like the ReChisel runner.
        assert_eq!(AutoChipConfig::quick().sim_engine, EngineKind::Compiled);
    }
}
