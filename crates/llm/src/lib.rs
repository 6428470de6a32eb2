//! # rechisel-llm
//!
//! The synthetic LLM substrate of the ReChisel reproduction.
//!
//! The original paper drives its workflow with five commercial LLM APIs (GPT-4 Turbo,
//! GPT-4o, GPT-4o mini, Claude 3.5 Sonnet, Claude 3.5 Haiku). This crate replaces them
//! with [`SyntheticLlm`]: a seeded stochastic process over a structured defect taxonomy
//! ([`DefectKind`], matching the paper's Table II) injected into real reference designs
//! ([`inject_defects`]). Each of the five models is a calibrated [`ModelProfile`]; the
//! reflection dynamics — what the compiler reports, what simulation catches, when
//! non-progress loops appear, and how the escape mechanism breaks them — all emerge
//! from running the real substrate, not from sampling result tables.
//!
//! The README introduction states the substitution: the paper's LLM API calls are
//! replaced by this calibrated synthetic defect-process model.
//!
//! # Example
//!
//! ```
//! use rechisel_hcl::prelude::*;
//! use rechisel_llm::{Language, ModelProfile, SyntheticLlm};
//! use rechisel_core::{Generator, PortSpec, Spec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Reference design the synthetic model "knows" how to produce.
//! let mut m = ModuleBuilder::new("Not");
//! let a = m.input("a", Type::bool());
//! let y = m.output("y", Type::bool());
//! m.connect(&y, &a.not());
//! let reference = m.into_circuit();
//!
//! let spec = Spec::new(
//!     "Not",
//!     "Invert the input.",
//!     vec![PortSpec::input("a", Type::bool()), PortSpec::output("y", Type::bool())],
//! );
//! let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), Language::Chisel, reference, 7);
//! let candidate = llm.generate(&spec, 0);
//! assert!(candidate.source().contains("class Not"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod defects;
pub mod inject;
pub mod profile;
pub mod rng;
pub mod synthetic;

pub use defects::{DefectInstance, DefectKind};
pub use inject::{apply_defect, inject_defects};
pub use profile::{GenerationRates, Language, ModelProfile, RepairRates};
pub use synthetic::SyntheticLlm;
