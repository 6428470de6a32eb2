//! Experiment runners: sweeping models × cases × samples through the ReChisel
//! Engine/Session API and aggregating the metrics the paper reports.
//!
//! A [`ModelOutcome`] holds every [`WorkflowResult`] of one model over one suite; the
//! aggregation methods compute the quantities behind the paper's tables and figures:
//! Pass@k at a given iteration cap (Tables I/III/IV, Fig. 6) and per-iteration error
//! proportions (Figs. 1 and 7).
//!
//! All entry points route through one per-sample body driven by a shared
//! [`Engine`], [`run_sample_with_engine`]; [`run_model`] sweeps a whole suite with
//! [`sweep_suite`] at case × sample granularity. Attach an [`Observer`] to the engine (via
//! [`ExperimentConfig::engine_with_observer`] + [`run_model_with_engine`]) to stream
//! [`RunEvent`](rechisel_core::RunEvent)s from every run of a sweep.

use rechisel_core::{Engine, Observer, TemplateReviewer, TraceInspector, WorkflowResult};
use rechisel_llm::{Language, ModelProfile, SyntheticLlm};

use crate::case::BenchmarkCase;
use crate::passk::mean_pass_at_k;

/// Configuration of one experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Samples per case (the paper uses 10).
    pub samples: u32,
    /// Maximum reflection iterations (the paper caps at 10).
    pub max_iterations: u32,
    /// Whether the escape mechanism is enabled.
    pub escape_enabled: bool,
    /// Whether the common-error knowledge base is provided to the Reviewer.
    pub knowledge_enabled: bool,
    /// Generated language (Chisel for ReChisel, Verilog for the AutoChip baseline).
    pub language: Language,
    /// Worker threads used to evaluate cases in parallel.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl ExperimentConfig {
    /// The paper's main configuration: 10 samples, 10 iterations, escape and knowledge
    /// on, Chisel generation.
    pub fn paper() -> Self {
        Self {
            samples: 10,
            max_iterations: 10,
            escape_enabled: true,
            knowledge_enabled: true,
            language: Language::Chisel,
            threads: default_threads(),
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self { samples: 3, max_iterations: 5, ..Self::paper() }
    }

    /// Switches the generated language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.language = language;
        self
    }

    /// Sets the number of samples per case.
    pub fn with_samples(mut self, samples: u32) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }

    /// Enables or disables the escape mechanism.
    pub fn with_escape(mut self, enabled: bool) -> Self {
        self.escape_enabled = enabled;
        self
    }

    /// Enables or disables the common-error knowledge base.
    pub fn with_knowledge(mut self, enabled: bool) -> Self {
        self.knowledge_enabled = enabled;
        self
    }

    /// Sets the number of worker threads (clamped to at least 1 when the sweep runs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The equivalent workflow configuration.
    pub fn workflow_config(&self) -> rechisel_core::WorkflowConfig {
        rechisel_core::WorkflowConfig {
            max_iterations: self.max_iterations,
            escape_enabled: self.escape_enabled,
            knowledge_enabled: self.knowledge_enabled,
        }
    }

    /// Builds an engine for this configuration (standard pipeline, silent observer).
    pub fn engine(&self) -> Engine {
        Engine::builder().config(self.workflow_config()).build()
    }

    /// Builds an engine for this configuration that streams run events to `observer`.
    pub fn engine_with_observer(&self, observer: impl Observer + 'static) -> Engine {
        Engine::builder().config(self.workflow_config()).observer(observer).build()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// All samples of one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case id.
    pub case_id: String,
    /// One workflow result per sample.
    pub samples: Vec<WorkflowResult>,
}

impl CaseOutcome {
    /// `(n, c)` pair for Pass@k: total samples and samples that succeeded within
    /// `within_iterations` reflection iterations.
    pub fn pass_counts(&self, within_iterations: u32) -> (usize, usize) {
        let n = self.samples.len();
        let c = self.samples.iter().filter(|r| r.success_within(within_iterations)).count();
        (n, c)
    }
}

/// All results of one model over one suite.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Model display name.
    pub model: String,
    /// Generated language.
    pub language: Language,
    /// Per-case outcomes, in suite order.
    pub cases: Vec<CaseOutcome>,
}

impl ModelOutcome {
    /// Mean Pass@k over the suite, counting a sample as correct when it succeeded
    /// within `within_iterations` reflection iterations.
    pub fn pass_at_k(&self, k: usize, within_iterations: u32) -> f64 {
        let counts: Vec<(usize, usize)> =
            self.cases.iter().map(|c| c.pass_counts(within_iterations)).collect();
        mean_pass_at_k(&counts, k)
    }

    /// Proportions of (syntax error, functional error, success) over all case × sample
    /// runs at reflection iteration `n` (Fig. 1 uses `n = 0`, Fig. 7 sweeps `n`).
    pub fn status_proportions(&self, n: u32) -> (f64, f64, f64) {
        let mut syntax = 0usize;
        let mut functional = 0usize;
        let mut success = 0usize;
        let mut total = 0usize;
        for case in &self.cases {
            for sample in &case.samples {
                total += 1;
                match sample.status_at(n) {
                    rechisel_core::IterationStatus::Success => success += 1,
                    rechisel_core::IterationStatus::SyntaxError => syntax += 1,
                    rechisel_core::IterationStatus::FunctionalError => functional += 1,
                }
            }
        }
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (syntax as f64 / t, functional as f64 / t, success as f64 / t)
    }

    /// Total number of escape events and the fraction of runs that needed at least one.
    pub fn escape_stats(&self) -> (u64, f64) {
        let mut events = 0u64;
        let mut runs_with_escape = 0usize;
        let mut total = 0usize;
        for case in &self.cases {
            for sample in &case.samples {
                total += 1;
                events += u64::from(sample.escapes);
                if sample.escapes > 0 {
                    runs_with_escape += 1;
                }
            }
        }
        let fraction = if total == 0 { 0.0 } else { runs_with_escape as f64 / total as f64 };
        (events, fraction)
    }

    /// Mean number of reflection iterations spent per run (a cost proxy).
    pub fn mean_iterations(&self) -> f64 {
        let mut total = 0usize;
        let mut runs = 0usize;
        for case in &self.cases {
            for sample in &case.samples {
                total += sample.iterations_evaluated();
                runs += 1;
            }
        }
        if runs == 0 {
            0.0
        } else {
            total as f64 / runs as f64
        }
    }
}

/// Runs one sample of one case through a session of `engine`.
///
/// This is the single per-sample body every runner entry point routes through: a fresh
/// synthetic LLM seeded by the case, the deterministic Reviewer/Inspector pair, and a
/// tester built from the case's cached reference netlist.
pub fn run_sample_with_engine(
    engine: &Engine,
    case: &BenchmarkCase,
    profile: &ModelProfile,
    language: Language,
    sample: u32,
) -> WorkflowResult {
    let llm = SyntheticLlm::new(profile.clone(), language, case.reference().clone(), case.seed());
    engine
        .session(
            llm,
            TemplateReviewer::new(),
            TraceInspector::new(),
            case.spec.clone(),
            case.tester_with_engine(engine.sim_engine()),
        )
        .run(sample)
}

/// Sweeps a suite at case × sample granularity: every `(case, sample)` pair is an
/// independent work item distributed over `threads` workers, and the results are
/// reassembled into per-case outcomes in deterministic suite order (sample order within
/// each case is preserved regardless of which worker finished first).
pub fn sweep_suite<F>(
    suite: &[BenchmarkCase],
    samples: u32,
    threads: usize,
    run: F,
) -> Vec<CaseOutcome>
where
    F: Fn(&BenchmarkCase, u32) -> WorkflowResult + Sync,
{
    let per_case = samples as usize;
    let total = suite.len() * per_case;
    let threads = threads.max(1).min(total.max(1));
    let mut slots: Vec<Option<WorkflowResult>> = (0..total).map(|_| None).collect();
    if threads == 1 || total <= 1 {
        for (slot, item) in slots.iter_mut().enumerate() {
            let (case_index, sample) = (slot / per_case, (slot % per_case) as u32);
            *item = Some(run(&suite[case_index], sample));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: std::sync::Mutex<Vec<(usize, WorkflowResult)>> =
            std::sync::Mutex::new(Vec::with_capacity(total));
        let run = &run;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if slot >= total {
                        break;
                    }
                    let (case_index, sample) = (slot / per_case, (slot % per_case) as u32);
                    let result = run(&suite[case_index], sample);
                    results.lock().expect("sweep mutex").push((slot, result));
                });
            }
        });
        for (slot, result) in results.into_inner().expect("sweep mutex") {
            slots[slot] = Some(result);
        }
    }
    let mut slots = slots.into_iter();
    suite
        .iter()
        .map(|case| CaseOutcome {
            case_id: case.id.clone(),
            samples: slots
                .by_ref()
                .take(per_case)
                .map(|r| r.expect("all samples evaluated"))
                .collect(),
        })
        .collect()
}

/// Runs a full model × suite sweep through sessions of a shared engine, evaluating
/// case × sample work items in parallel with deterministic result ordering.
pub fn run_model_with_engine(
    engine: &Engine,
    profile: &ModelProfile,
    suite: &[BenchmarkCase],
    config: &ExperimentConfig,
) -> ModelOutcome {
    let cases = sweep_suite(suite, config.samples, config.threads, |case, sample| {
        run_sample_with_engine(engine, case, profile, config.language, sample)
    });
    ModelOutcome { model: profile.name.clone(), language: config.language, cases }
}

/// Runs a full model × suite sweep, evaluating cases in parallel.
pub fn run_model(
    profile: &ModelProfile,
    suite: &[BenchmarkCase],
    config: &ExperimentConfig,
) -> ModelOutcome {
    run_model_with_engine(&config.engine(), profile, suite, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::sampled_suite;
    use rechisel_sim::EngineKind;

    #[test]
    fn quick_sweep_produces_consistent_aggregates() {
        let suite = sampled_suite(6);
        let config = ExperimentConfig::quick().with_samples(2);
        let outcome = run_model(&ModelProfile::claude35_sonnet(), &suite, &config);
        assert_eq!(outcome.cases.len(), 6);
        for case in &outcome.cases {
            assert_eq!(case.samples.len(), 2);
        }
        let p1_zero = outcome.pass_at_k(1, 0);
        let p1_full = outcome.pass_at_k(1, config.max_iterations);
        assert!((0.0..=1.0).contains(&p1_zero));
        assert!(p1_full >= p1_zero, "reflection must not reduce pass@1");
        let (syntax, functional, success) = outcome.status_proportions(0);
        assert!((syntax + functional + success - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let suite = sampled_suite(4);
        let config_serial =
            ExperimentConfig { threads: 1, ..ExperimentConfig::quick().with_samples(2) };
        let config_parallel =
            ExperimentConfig { threads: 4, ..ExperimentConfig::quick().with_samples(2) };
        let a = run_model(&ModelProfile::gpt4o(), &suite, &config_serial);
        let b = run_model(&ModelProfile::gpt4o(), &suite, &config_parallel);
        assert_eq!(a.pass_at_k(1, 5), b.pass_at_k(1, 5));
        assert_eq!(a.status_proportions(3), b.status_proportions(3));
    }

    #[test]
    fn config_builders_set_threads_and_knowledge() {
        let config = ExperimentConfig::paper().with_threads(3).with_knowledge(false);
        assert_eq!(config.threads, 3);
        assert!(!config.knowledge_enabled);
        assert!(!config.workflow_config().knowledge_enabled);
        assert!(config.engine().knowledge().is_empty());
    }

    #[test]
    fn sweeps_default_to_the_compiled_engine_and_all_engines_agree() {
        let config = ExperimentConfig::quick().with_samples(2);
        assert_eq!(config.engine().sim_engine(), EngineKind::Compiled);
        let interp = Engine::builder()
            .config(config.workflow_config())
            .sim_engine(EngineKind::Interp)
            .build();
        assert_eq!(interp.sim_engine(), EngineKind::Interp);

        // The engine choice must be invisible in the results: a sweep over either
        // engine produces identical outcomes.
        let suite = sampled_suite(5);
        let fast = run_model(&ModelProfile::gpt4o(), &suite, &config);
        let slow = run_model_with_engine(&interp, &ModelProfile::gpt4o(), &suite, &config);
        assert_eq!(fast.pass_at_k(1, 5), slow.pass_at_k(1, 5));
        assert_eq!(fast.status_proportions(0), slow.status_proportions(0));
        for (a, b) in fast.cases.iter().zip(&slow.cases) {
            for (ra, rb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(ra.statuses, rb.statuses, "case {}", a.case_id);
            }
        }
    }

    #[test]
    fn sweep_observer_sees_every_run_of_the_sweep() {
        use rechisel_core::{CollectingObserver, RunEventKind};

        let suite = sampled_suite(3);
        let config = ExperimentConfig::quick().with_samples(2).with_threads(4);
        let observer = CollectingObserver::new();
        let engine = config.engine_with_observer(observer.clone());
        let outcome = run_model_with_engine(&engine, &ModelProfile::gpt4o(), &suite, &config);
        let events = observer.take();
        let started = events.iter().filter(|e| matches!(e.kind, RunEventKind::RunStarted)).count();
        let finished =
            events.iter().filter(|e| matches!(e.kind, RunEventKind::RunFinished { .. })).count();
        assert_eq!(started, suite.len() * 2);
        assert_eq!(finished, suite.len() * 2);
        let successes: usize =
            outcome.cases.iter().flat_map(|c| &c.samples).filter(|s| s.success).count();
        let success_events =
            events.iter().filter(|e| matches!(e.kind, RunEventKind::Success { .. })).count();
        assert_eq!(success_events, successes);
        let escape_total: u64 =
            outcome.cases.iter().flat_map(|c| &c.samples).map(|s| u64::from(s.escapes)).sum();
        let escape_events =
            events.iter().filter(|e| matches!(e.kind, RunEventKind::EscapeFired { .. })).count()
                as u64;
        assert_eq!(escape_events, escape_total);
        // Interleaved events from the parallel sweep stay attributable: each (spec,
        // attempt) pair sees exactly one RunStarted and one RunFinished.
        for case in &suite {
            for attempt in 0..2u32 {
                let per_run = events
                    .iter()
                    .filter(|e| e.spec == case.spec.name && e.attempt == attempt)
                    .filter(|e| matches!(e.kind, RunEventKind::RunStarted))
                    .count();
                assert_eq!(per_run, 1, "run ({}, {attempt})", case.spec.name);
            }
        }
    }
}
