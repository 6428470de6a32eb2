//! # rechisel-benchsuite
//!
//! The benchmark suite and evaluation machinery of the ReChisel reproduction.
//!
//! The paper evaluates on 216 module-level cases filtered from VerilogEval Spec-to-RTL,
//! AutoChip's HDLBits and RTLLM, with 10 samples per case, the Pass@k metric, and an
//! iteration cap of 10 (§V-A). This crate provides:
//!
//! * [`circuits`] — a library of parameterized reference designs written in the
//!   Chisel-like HCL, covering the same design categories (including `Vector5`, the
//!   paper's Fig. 8 case study);
//! * [`suite`] — assembly of the full 216-case suite ([`suite::full_suite`]);
//! * [`passk`] — the unbiased Pass@k estimator;
//! * [`runner`] — model × suite sweeps through the ReChisel workflow with the synthetic
//!   LLM, and the aggregations behind every table and figure;
//! * [`report`] — plain-text table formatting used by the experiment binaries.
//!
//! # Example
//!
//! ```
//! use rechisel_benchsuite::runner::{run_sample_with_engine, ExperimentConfig};
//! use rechisel_benchsuite::suite::sampled_suite;
//! use rechisel_llm::ModelProfile;
//!
//! let case = &sampled_suite(1)[0];
//! let config = ExperimentConfig::quick();
//! let engine = config.engine();
//! let profile = ModelProfile::claude35_sonnet();
//! let result = run_sample_with_engine(&engine, case, &profile, config.language, 0);
//! assert!(result.iterations_evaluated() >= 1);
//! ```

#![warn(missing_docs)]

pub mod case;
pub mod circuits;
pub mod passk;
pub mod random_circuit;
pub mod report;
pub mod runner;
pub mod suite;

pub use case::{BenchmarkCase, Category, SourceFamily};
pub use passk::{mean_pass_at_k, pass_at_k};
pub use random_circuit::{random_circuit, random_stimulus, RandomCircuitConfig};
pub use runner::{
    run_model, run_model_with_engine, run_sample_with_engine, sweep_suite, CaseOutcome,
    ExperimentConfig, ModelOutcome,
};
pub use suite::{full_suite, sampled_suite, SUITE_SIZE};
