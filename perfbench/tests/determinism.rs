//! Outcome digests are a function of workload and seed only: the same seed gives the
//! same digest, the thread count does not matter, and another seed gives other
//! inputs with the same session count. Runs on a slice of the suite to stay quick.

use perfbench::serve::request_list;
use perfbench::sweep::{build_suite, digest, run_rep, Plan};
use perfbench::trace::{TracedArm, Tracer};
use perfbench::{END_TO_END, PER_LAYER};

use rechisel_benchsuite::BenchmarkCase;
use rechisel_llm::ModelProfile;

/// Every fourth case of the full suite (all categories), built like the benchmark.
fn slice() -> Vec<BenchmarkCase> {
    build_suite().into_iter().step_by(4).collect()
}

/// A small plan: two models, two samples.
fn small(mut plan: Plan) -> Plan {
    plan.models = vec![ModelProfile::gpt4o(), ModelProfile::claude35_haiku()];
    plan.samples = 2;
    plan
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).max(2)
}

#[test]
fn the_same_seed_gives_the_same_digest() {
    let suite = slice();
    for plan in [small(Plan::table3(3)), small(Plan::zeroshot(3))] {
        let a = run_rep(&plan, &suite, nproc(), true);
        let b = run_rep(&plan, &suite, nproc(), false);
        assert_eq!(a.failed, 0, "correctness check");
        assert_eq!(digest(&a.hashes), digest(&b.hashes));
    }
}

#[test]
fn one_thread_and_nproc_threads_give_the_same_digest() {
    let suite = slice();
    for plan in [small(Plan::table3(5)), small(Plan::zeroshot(5))] {
        let serial = run_rep(&plan, &suite, 1, false);
        let parallel = run_rep(&plan, &suite, nproc(), false);
        assert_eq!(digest(&serial.hashes), digest(&parallel.hashes));
    }
}

#[test]
fn two_seeds_give_other_inputs_and_the_same_session_count() {
    let suite = slice();
    let (one, two) = (small(Plan::table3(1)), small(Plan::table3(2)));
    assert_ne!(one.first_attempt, two.first_attempt);
    let a = run_rep(&one, &suite, nproc(), false);
    let b = run_rep(&two, &suite, nproc(), false);
    assert_eq!(a.hashes.len(), one.sessions(suite.len()));
    assert_eq!(a.hashes.len(), b.hashes.len());
    assert_ne!(digest(&a.hashes), digest(&b.hashes));

    let cases = suite.len();
    assert_eq!(request_list(1, cases, 64), request_list(1, cases, 64));
    assert_ne!(request_list(1, cases, 64), request_list(2, cases, 64));
}

#[test]
fn traced_sessions_decide_exactly_like_untraced_ones_and_are_fully_covered() {
    let suite = slice();
    for plan in [small(Plan::table3(4)), small(Plan::zeroshot(4))] {
        let untraced = run_rep(&plan, &suite, nproc(), false);
        let mut tracer = Tracer::default();
        let mut traced = Vec::new();
        for arm in &plan.arms {
            let arm = TracedArm::new(&arm.engine, arm.language);
            for model in 0..plan.models.len() {
                let items = plan.items(suite.len(), model);
                traced.extend(tracer.run(&arm, &plan.models, &suite, &items, nproc(), true));
            }
        }
        assert_eq!(untraced.hashes, traced);
        assert_eq!(tracer.failed, 0, "coverage check");
        assert_eq!(tracer.layers.sessions as usize, plan.sessions(suite.len()));
        assert_eq!(tracer.replay.compiles, tracer.layers.evaluate.calls);
    }
}

#[test]
fn benchmark_json_names_every_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
