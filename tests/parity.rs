//! Parity pin: the redesigned Pipeline/Session path must reproduce byte-identical
//! paper-table aggregates versus the pre-redesign workflow.
//!
//! The "legacy" side below is a *verbatim copy* of the reflection loop as it existed in
//! `rechisel_core::workflow::Workflow::run` before the Engine/Session redesign (fused
//! compiler call, no events), wrapped in the exact shape of the old
//! `benchsuite::runner::run_model`: a tester built once per case, one
//! explicitly-constructed agent trio per sample, everything serial. Keeping the old
//! loop inline here (rather than calling `Session::run`, the loop it was ported to)
//! means a semantic drift in the ported loop cannot cancel out of the comparison. The "new" side is today's `run_model`, which routes through
//! `Engine`/`Session` with case × sample parallel scheduling. Every aggregate the paper
//! reports — Pass@k across caps, per-iteration status proportions, escape statistics —
//! is formatted to a string and compared byte-for-byte.

use rechisel::benchsuite::report::pct;
use rechisel::benchsuite::{
    run_model, sampled_suite, BenchmarkCase, CaseOutcome, ExperimentConfig, ModelOutcome,
};
use rechisel::core::{
    Candidate, ChiselCompiler, CommonErrorKnowledge, ErrorKind, Feedback, FunctionalTester,
    Generator, Inspector, IterationStatus, Reviewer, Spec, TemplateReviewer, Trace, TraceEntry,
    TraceInspector, WorkflowConfig, WorkflowResult,
};
use rechisel::llm::{ModelProfile, SyntheticLlm};

/// Pre-redesign `Workflow::evaluate`, verbatim: compile, then simulate.
fn legacy_evaluate(
    compiler: &ChiselCompiler,
    candidate: &Candidate,
    tester: &FunctionalTester,
) -> (Feedback, Option<String>) {
    match compiler.compile(&candidate.circuit) {
        Err(diagnostics) => (Feedback::Syntax { diagnostics }, None),
        Ok(compiled) => {
            let report = tester.test(&compiled.netlist);
            if report.passed() {
                (Feedback::Success, Some(compiled.verilog))
            } else {
                (
                    Feedback::Functional {
                        failures: report.failures,
                        total_points: report.total_points,
                    },
                    None,
                )
            }
        }
    }
}

/// Pre-redesign `Workflow::run`, verbatim (modulo `self.*` becoming parameters).
#[allow(clippy::too_many_arguments)]
fn legacy_run<G: Generator, R: Reviewer, I: Inspector>(
    config: &WorkflowConfig,
    compiler: &ChiselCompiler,
    knowledge: &CommonErrorKnowledge,
    generator: &mut G,
    reviewer: &mut R,
    inspector: &mut I,
    spec: &Spec,
    tester: &FunctionalTester,
    attempt: u32,
) -> WorkflowResult {
    let mut trace = Trace::new();
    let mut statuses = Vec::new();
    let mut candidate = generator.generate(spec, attempt);
    let mut final_verilog = None;
    let mut success_iteration = None;

    for iteration in 0..=config.max_iterations {
        let (feedback, verilog) = legacy_evaluate(compiler, &candidate, tester);
        let status = match feedback.error_kind() {
            None => IterationStatus::Success,
            Some(ErrorKind::Syntax) => IterationStatus::SyntaxError,
            Some(ErrorKind::Functional) => IterationStatus::FunctionalError,
        };
        statuses.push(status);

        if feedback.is_success() {
            success_iteration = Some(iteration);
            final_verilog = verilog;
            trace.push(TraceEntry {
                iteration,
                candidate: candidate.clone(),
                feedback,
                plan: None,
            });
            break;
        }

        if iteration == config.max_iterations {
            trace.push(TraceEntry {
                iteration,
                candidate: candidate.clone(),
                feedback,
                plan: None,
            });
            break;
        }

        let cycle = inspector.detect_cycle(&trace, &feedback);
        if let (Some(start), true) = (cycle, config.escape_enabled) {
            let _discarded = trace.discard_loop(start);
            if let Some(basis) = trace.last().cloned() {
                let plan =
                    reviewer.review(&basis.candidate, &basis.feedback, &trace, knowledge).escaped();
                trace.attach_plan(plan.clone());
                candidate = generator.revise(&basis.candidate, &plan, iteration + 1);
            } else {
                let plan = reviewer.review(&candidate, &feedback, &trace, knowledge).escaped();
                candidate = generator.revise(&candidate, &plan, iteration + 1);
            }
            continue;
        }

        trace.push(TraceEntry {
            iteration,
            candidate: candidate.clone(),
            feedback: feedback.clone(),
            plan: None,
        });
        let plan = reviewer.review(&candidate, &feedback, &trace, knowledge);
        trace.attach_plan(plan.clone());
        candidate = generator.revise(&candidate, &plan, iteration + 1);
    }

    WorkflowResult {
        success: success_iteration.is_some(),
        success_iteration,
        statuses,
        escapes: trace.escape_count(),
        trace,
        final_candidate: candidate,
        final_verilog,
    }
}

/// The pre-redesign sweep, reconstructed: serial, legacy-loop based.
fn legacy_model_outcome(
    profile: &ModelProfile,
    suite: &[BenchmarkCase],
    config: &ExperimentConfig,
) -> ModelOutcome {
    let workflow_config = config.workflow_config();
    let compiler = ChiselCompiler::new();
    let knowledge = if workflow_config.knowledge_enabled {
        CommonErrorKnowledge::standard()
    } else {
        CommonErrorKnowledge::empty()
    };
    let cases = suite
        .iter()
        .map(|case| {
            let tester = case.tester();
            let samples = (0..config.samples)
                .map(|sample| {
                    let mut llm = SyntheticLlm::new(
                        profile.clone(),
                        config.language,
                        case.reference().clone(),
                        case.seed(),
                    );
                    let mut reviewer = TemplateReviewer::new();
                    let mut inspector = TraceInspector::new();
                    legacy_run(
                        &workflow_config,
                        &compiler,
                        &knowledge,
                        &mut llm,
                        &mut reviewer,
                        &mut inspector,
                        &case.spec,
                        &tester,
                        sample,
                    )
                })
                .collect();
            CaseOutcome { case_id: case.id.clone(), samples }
        })
        .collect();
    ModelOutcome { model: profile.name.clone(), language: config.language, cases }
}

/// Formats every paper-table aggregate of an outcome into one string, so parity can be
/// asserted byte-for-byte.
fn aggregate_fingerprint(outcome: &ModelOutcome, max_iterations: u32) -> String {
    let mut out = String::new();
    for k in [1usize, 5, 10] {
        for cap in [0, 1, max_iterations / 2, max_iterations] {
            out.push_str(&format!("pass@{k}(n={cap}) = {}\n", pct(outcome.pass_at_k(k, cap))));
        }
    }
    for n in 0..=max_iterations {
        let (syntax, functional, success) = outcome.status_proportions(n);
        out.push_str(&format!(
            "proportions(n={n}) = {}/{}/{}\n",
            pct(syntax),
            pct(functional),
            pct(success)
        ));
    }
    let (escape_events, escape_fraction) = outcome.escape_stats();
    out.push_str(&format!("escapes = {escape_events} ({})\n", pct(escape_fraction)));
    out.push_str(&format!("mean_iterations = {:.6}\n", outcome.mean_iterations()));
    for case in &outcome.cases {
        let (n, c) = case.pass_counts(max_iterations);
        out.push_str(&format!("case {} = {c}/{n}\n", case.case_id));
    }
    out
}

#[test]
fn pipeline_session_path_reproduces_legacy_aggregates_byte_identically() {
    let suite = sampled_suite(8);
    for profile in [ModelProfile::claude35_sonnet(), ModelProfile::gpt4o_mini()] {
        let config = ExperimentConfig::quick().with_samples(3).with_threads(4);
        let legacy = legacy_model_outcome(&profile, &suite, &config);
        let redesigned = run_model(&profile, &suite, &config);
        assert_eq!(
            aggregate_fingerprint(&legacy, config.max_iterations),
            aggregate_fingerprint(&redesigned, config.max_iterations),
            "aggregates diverged for {}",
            profile.name
        );
    }
}

#[test]
fn case_by_sample_parallelism_is_deterministic() {
    let suite = sampled_suite(5);
    let profile = ModelProfile::gpt4_turbo();
    let serial =
        run_model(&profile, &suite, &ExperimentConfig::quick().with_samples(2).with_threads(1));
    let parallel =
        run_model(&profile, &suite, &ExperimentConfig::quick().with_samples(2).with_threads(8));
    assert_eq!(aggregate_fingerprint(&serial, 5), aggregate_fingerprint(&parallel, 5));
    // Result ordering is deterministic too: case ids arrive in suite order.
    let serial_ids: Vec<&str> = serial.cases.iter().map(|c| c.case_id.as_str()).collect();
    let parallel_ids: Vec<&str> = parallel.cases.iter().map(|c| c.case_id.as_str()).collect();
    assert_eq!(serial_ids, parallel_ids);
}
