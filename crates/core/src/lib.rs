//! # rechisel-core
//!
//! The ReChisel agentic system: the paper's primary contribution (DAC 2025,
//! arXiv:2505.19734). Given a module [`Spec`] and a functional tester, a [`Session`]
//! drives a Generator / Reviewer / Inspector agent trio through the reflection loop of
//! the paper's Fig. 2 — compile, simulate, organise the feedback, review, revise — with
//! the escape mechanism of §IV-C breaking non-progress loops and the common-error
//! knowledge base of §IV-B enriching reviews.
//!
//! Agent roles are traits ([`Generator`], [`Reviewer`], [`Inspector`]) so the workflow
//! runs equally against the offline synthetic LLM of `rechisel-llm` (used by the
//! benchmark harness) or a live LLM backend.
//!
//! The entry point is the [`Engine`]/[`Session`] façade
//! (`Engine::builder().config(..).compiler(..).observer(..).build()`): an engine holds
//! the shared configuration, the compiler ([`ChiselCompiler`], one check → lower →
//! emit run per revision) and the knowledge base, each session owns one case's agents
//! and tester, and every run streams [`RunEvent`]s to the engine's [`Observer`].
//!
//! # Example
//!
//! Running the workflow requires a Generator implementation; see `rechisel-llm` for the
//! synthetic one and `rechisel-benchsuite` for end-to-end usage. The deterministic
//! pieces can be exercised directly:
//!
//! ```
//! use rechisel_core::{CommonErrorKnowledge, WorkflowConfig};
//!
//! let config = WorkflowConfig::paper_default();
//! assert_eq!(config.max_iterations, 10);
//! assert!(config.escape_enabled);
//!
//! let knowledge = CommonErrorKnowledge::standard();
//! assert!(knowledge.to_prompt().contains("WireDefault"));
//! ```

#![warn(missing_docs)]

pub mod agents;
pub mod candidate;
pub mod engine;
pub mod feedback;
pub mod knowledge;
pub mod revision;
pub mod spec;
pub mod tools;
pub mod trace;
pub mod workflow;

pub use agents::{Generator, Inspector, Reviewer, TemplateReviewer, TraceInspector};
pub use candidate::Candidate;
pub use engine::{
    CollectingObserver, Engine, EngineBuilder, NullObserver, Observer, RunEvent, RunEventKind,
    Session,
};
pub use feedback::{ErrorKind, Feedback};
pub use knowledge::{CommonErrorKnowledge, ErrorGuidance};
pub use rechisel_sim::EngineKind;
pub use revision::{RevisionItem, RevisionPlan};
pub use spec::{PortSpec, Spec};
pub use tools::{
    ChiselCompiler, Compiled, FunctionalTester, IncrementalCompiled, IncrementalCompiler,
};
pub use trace::{Trace, TraceEntry};
pub use workflow::{IterationStatus, WorkflowConfig, WorkflowResult};
