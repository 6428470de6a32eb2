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
//!
//! Each [`sweep_suite`] call is one sweep part (one arm and model in the paper
//! binaries and perfbench) and creates one [`EvalMemo`]: every session that
//! [`run_sample_with_engine`] runs inside the call evaluates through it, so a
//! revision that several samples submit is compiled and simulated once per part.
//! The memo is dropped when the call returns, so a later sweep of the same engine
//! and suite (a timed sweep after a warm-up) starts from nothing. Outside a sweep
//! every session keeps a private memo.

use std::cell::RefCell;
use std::sync::Arc;

use rechisel_core::{Engine, EvalMemo, Observer, TemplateReviewer, TraceInspector, WorkflowResult};
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

thread_local! {
    /// The memo of the [`sweep_suite`] call running on this thread, if any.
    static SWEEP_MEMO: RefCell<Option<Arc<EvalMemo>>> = const { RefCell::new(None) };
}

/// Installs a sweep's memo on the current thread for as long as it lives, and puts
/// back what was installed before when dropped, on return and on unwind alike.
struct SweepMemoGuard(Option<Arc<EvalMemo>>);

impl SweepMemoGuard {
    fn install(memo: &Arc<EvalMemo>) -> Self {
        Self(SWEEP_MEMO.with(|slot| slot.replace(Some(Arc::clone(memo)))))
    }
}

impl Drop for SweepMemoGuard {
    fn drop(&mut self) {
        let previous = self.0.take();
        SWEEP_MEMO.with(|slot| *slot.borrow_mut() = previous);
    }
}

/// Runs one sample of one case through a session of `engine`.
///
/// This is the single per-sample body every runner entry point routes through: a fresh
/// synthetic LLM seeded by the case, the deterministic Reviewer/Inspector pair, and a
/// tester built from the case's cached reference netlist.
///
/// Inside a [`sweep_suite`] call the session evaluates through that call's shared
/// [`EvalMemo`]; anywhere else it keeps a private one. The result is the same either
/// way.
pub fn run_sample_with_engine(
    engine: &Engine,
    case: &BenchmarkCase,
    profile: &ModelProfile,
    language: Language,
    sample: u32,
) -> WorkflowResult {
    let llm = SyntheticLlm::new(profile.clone(), language, case.reference().clone(), case.seed());
    let mut session = engine.session(
        llm,
        TemplateReviewer::new(),
        TraceInspector::new(),
        case.spec.clone(),
        case.tester_with_engine(engine.sim_engine()),
    );
    if let Some(memo) = SWEEP_MEMO.with(|slot| slot.borrow().clone()) {
        session = session.with_memo(memo);
    }
    session.run(sample)
}

/// Sweeps a suite at case × sample granularity: every `(case, sample)` pair is an
/// independent work item distributed over `threads` workers, and the results are
/// reassembled into per-case outcomes in deterministic suite order (sample order within
/// each case is preserved regardless of which worker finished first).
///
/// The call creates one [`EvalMemo`] and installs it on each worker (on the calling
/// thread when it runs serially) until it returns or unwinds, so every
/// [`run_sample_with_engine`] inside `run` shares it. Workers that miss the same
/// revision at once both evaluate it rather than wait for each other. The memo is
/// dropped before the call returns.
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
    let memo = Arc::new(EvalMemo::new());
    if threads == 1 || total <= 1 {
        let _memo = SweepMemoGuard::install(&memo);
        for (slot, item) in slots.iter_mut().enumerate() {
            let (case_index, sample) = (slot / per_case, (slot % per_case) as u32);
            *item = Some(run(&suite[case_index], sample));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: std::sync::Mutex<Vec<(usize, WorkflowResult)>> =
            std::sync::Mutex::new(Vec::with_capacity(total));
        let (run, memo) = (&run, &memo);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let _memo = SweepMemoGuard::install(memo);
                    loop {
                        let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if slot >= total {
                            break;
                        }
                        let (case_index, sample) = (slot / per_case, (slot % per_case) as u32);
                        let result = run(&suite[case_index], sample);
                        results.lock().expect("sweep mutex").push((slot, result));
                    }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::suite::sampled_suite;
    use rechisel_core::ChiselCompiler;
    use rechisel_firrtl::ir::Circuit;
    use rechisel_firrtl::pipeline::{Pass, PassManager, Pipeline};
    use rechisel_firrtl::DiagnosticReport;
    use rechisel_sim::EngineKind;
    use rechisel_verilog::VerilogBackend;

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

    /// An engine at the quick cap whose compiler counts its check runs: one per
    /// computed evaluation, since every suite design is a single module.
    fn counting_engine() -> (Engine, Arc<AtomicUsize>) {
        let checks = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&checks);
        let passes = PassManager::standard().with_pass(Pass::new("count", move |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            DiagnosticReport::new()
        }));
        let compiler =
            ChiselCompiler::from_pipeline(Pipeline::new(VerilogBackend).with_passes(passes));
        let config = ExperimentConfig::quick().workflow_config();
        (Engine::builder().config(config).compiler(compiler).build(), checks)
    }

    /// Runs one GPT-4o Chisel sample, as a sweep closure does.
    fn run_gpt4o(engine: &Engine, case: &BenchmarkCase, sample: u32) -> WorkflowResult {
        run_sample_with_engine(engine, case, &ModelProfile::gpt4o(), Language::Chisel, sample)
    }

    #[test]
    fn each_sweep_shares_one_memo_across_its_sessions() {
        const SAMPLES: u32 = 6;
        let suite = sampled_suite(12);
        let (engine, checks) = counting_engine();
        let sweep = |threads| {
            let outcomes = sweep_suite(&suite, SAMPLES, threads, |case, sample| {
                run_gpt4o(&engine, case, sample)
            });
            outcomes.into_iter().flat_map(|o| o.samples).collect::<Vec<_>>()
        };
        // Outside a sweep, every session evaluates through a private memo.
        let outside: Vec<WorkflowResult> = suite
            .iter()
            .flat_map(|case| (0..SAMPLES).map(move |sample| (case, sample)))
            .map(|(case, sample)| run_gpt4o(&engine, case, sample))
            .collect();
        let private = checks.swap(0, Ordering::Relaxed);

        // Sharing the memo changes no result, trace included, on 4 workers or 1.
        assert_eq!(sweep(4), outside);
        checks.store(0, Ordering::Relaxed);
        assert_eq!(sweep(1), outside);
        let shared = checks.swap(0, Ordering::Relaxed);
        // A second sweep starts from an empty memo: nothing carries over.
        assert_eq!(sweep(1), outside);
        assert_eq!(checks.load(Ordering::Relaxed), shared);
        assert!(shared < private, "shared {shared} vs private {private}");
        // Pinned: 119 is the sessions' own distinct revisions summed, what a memo
        // per session computes.
        assert_eq!((private, shared), (119, 71));
    }

    /// True when `a` and `b` hold the same modules, not equal copies of them.
    fn shares_modules(a: &Circuit, b: &Circuit) -> bool {
        a.modules.len() == b.modules.len()
            && a.modules.iter().zip(&b.modules).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    #[test]
    fn sessions_keep_shared_modules_not_copies() {
        let suite = sampled_suite(12);
        let engine = ExperimentConfig::quick().engine();
        let mut clean_zero_shot = 0;
        for case in &suite {
            for sample in 0..4 {
                let result = run_gpt4o(&engine, case, sample);
                let last = &result.trace.last().expect("the last iteration is recorded").candidate;
                assert!(
                    shares_modules(&result.final_candidate.circuit, &last.circuit),
                    "{} sample {sample}: the final candidate copies the trace's last entry",
                    case.id
                );
                // A defect-free zero-shot success is the case reference, shared.
                if result.success_iteration == Some(0)
                    && result.final_candidate.circuit == *case.reference()
                {
                    assert!(
                        shares_modules(&result.final_candidate.circuit, case.reference()),
                        "{} sample {sample}: the candidate copies the reference",
                        case.id
                    );
                    clean_zero_shot += 1;
                }
            }
        }
        assert!(clean_zero_shot > 0);
    }

    #[test]
    fn the_sweep_memo_is_gone_after_return_and_after_unwind() {
        let suite = sampled_suite(3);
        let (engine, checks) = counting_engine();
        // The evaluations of one fresh session of the first item of every sweep below.
        let fresh_session = || {
            let before = checks.load(Ordering::Relaxed);
            run_gpt4o(&engine, &suite[0], 0);
            checks.load(Ordering::Relaxed) - before
        };
        let alone = fresh_session();
        assert!(alone > 0);

        sweep_suite(&suite, 2, 1, |case, sample| run_gpt4o(&engine, case, sample));
        assert_eq!(fresh_session(), alone, "the memo outlived its sweep");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep_suite(&suite, 2, 1, |case, sample| {
                let result = run_gpt4o(&engine, case, sample);
                assert_eq!(sample, 0, "the second item panics");
                result
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(fresh_session(), alone, "the memo outlived an unwound sweep");
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
