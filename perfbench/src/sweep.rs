//! The sweep workloads: `table3` (the paper's Table III protocol) and `zeroshot`
//! (its Table I protocol, through both the ReChisel and the AutoChip engine).
//!
//! A sweep is every (arm, model, case, sample) session of a [`Plan`], run through
//! the program's own `sweep_suite` + `run_sample_with_engine` on `threads` workers.
//! The seed picks the block of sample `attempt` indices; the synthetic LLM is
//! seeded by case and attempt, so a new seed gives new candidates over the same
//! 216 cases and the same session count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rechisel_autochip::AutoChipConfig;
use rechisel_benchsuite::runner::{run_sample_with_engine, sweep_suite, CaseOutcome};
use rechisel_benchsuite::{full_suite, BenchmarkCase, ExperimentConfig};
use rechisel_core::{Candidate, Engine, EngineKind, IterationStatus, Trace, WorkflowResult};
use rechisel_llm::{Language, ModelProfile};

use crate::stats::{
    heap_in_use_mb, median, par_map, peak_rss_mb, percentile, steal_secs, thread_cpu_ns, Fnv,
    Metric,
};
use crate::trace::{Item, TracedArm, Tracer};
use crate::Outcome;

/// One engine over the suite: a flow (ReChisel or AutoChip) at an iteration cap.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Short label for reports.
    pub label: &'static str,
    /// The engine every session of this arm runs on.
    pub engine: Engine,
    /// The generated language.
    pub language: Language,
}

impl Arm {
    /// The ReChisel flow (Chisel, escape and knowledge on) at `max_iterations`.
    pub fn rechisel(max_iterations: u32) -> Self {
        let engine = ExperimentConfig::paper().with_max_iterations(max_iterations).engine();
        Self { label: "rechisel", engine, language: Language::Chisel }
    }

    /// The AutoChip baseline (Verilog-like checks, no knowledge base).
    pub fn autochip(max_iterations: u32) -> Self {
        let engine = AutoChipConfig { max_iterations, ..AutoChipConfig::paper() }.engine();
        Self { label: "autochip", engine, language: Language::Verilog }
    }
}

/// What one sweep runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Engines, swept one after the other.
    pub arms: Vec<Arm>,
    /// Model profiles, swept one after the other within each arm.
    pub models: Vec<ModelProfile>,
    /// Samples per case.
    pub samples: u32,
    /// Attempt index of sample 0 (drawn from the seed).
    pub first_attempt: u32,
}

impl Plan {
    /// Table III: 216 cases × 10 samples × 5 paper models, cap 10, in Chisel.
    pub fn table3(seed: u64) -> Self {
        Self::new(vec![Arm::rechisel(10)], seed)
    }

    /// Table I: the same grid at cap 0, through ReChisel and through AutoChip.
    pub fn zeroshot(seed: u64) -> Self {
        Self::new(vec![Arm::rechisel(0), Arm::autochip(0)], seed)
    }

    fn new(arms: Vec<Arm>, seed: u64) -> Self {
        let samples = 10;
        Self {
            arms,
            models: ModelProfile::paper_models(),
            samples,
            first_attempt: first_attempt(seed, samples),
        }
    }

    /// Sessions in one sweep over `cases` cases.
    pub fn sessions(&self, cases: usize) -> usize {
        self.arms.len() * self.models.len() * cases * self.samples as usize
    }

    /// One model's (case, attempt) items over `cases` cases, in `sweep_suite` order.
    pub fn items(&self, cases: usize, model: usize) -> Vec<Item> {
        let samples = self.samples as usize;
        (0..cases * samples)
            .map(|slot| Item {
                case: slot / samples,
                model,
                attempt: self.first_attempt + (slot % samples) as u32,
            })
            .collect()
    }
}

/// The attempt index of sample 0 for `seed`: seeds pick disjoint blocks.
pub fn first_attempt(seed: u64, samples: u32) -> u32 {
    (seed % 100_000) as u32 * samples
}

/// Builds the 216-case suite, compiles every reference and records every reference
/// trace (by testing each reference against itself), so sessions pay none of it.
///
/// # Panics
///
/// Panics when a reference fails its own testbench.
pub fn build_suite() -> Vec<BenchmarkCase> {
    let suite = full_suite();
    for case in &suite {
        let report = case.tester().test(case.reference_netlist());
        assert!(report.passed(), "reference of {} fails its own testbench", case.id);
    }
    suite
}

/// Builds the suite `reps` times; returns the last one and the median set-up time
/// (CPU time of this single-threaded build, so stolen time does not count).
pub fn setup(reps: usize) -> (Vec<BenchmarkCase>, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut suite = Vec::new();
    for _ in 0..reps.max(1) {
        let start = thread_cpu_ns();
        let fresh = build_suite();
        times.push((thread_cpu_ns() - start) as f64 / 1e9);
        suite = fresh;
    }
    (suite, median(&times))
}

/// A stable hash of everything a session decided: statuses, escapes, success
/// iteration and the final Verilog.
pub fn session_hash(result: &WorkflowResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(u64::from(result.success));
    h.u64(result.success_iteration.map_or(u64::MAX, u64::from));
    h.u64(u64::from(result.escapes));
    h.u64(result.statuses.len() as u64);
    for status in &result.statuses {
        h.bytes(&[match status {
            IterationStatus::Success => 0,
            IterationStatus::SyntaxError => 1,
            IterationStatus::FunctionalError => 2,
        }]);
    }
    match &result.final_verilog {
        Some(verilog) => {
            h.bytes(&[1]);
            h.bytes(verilog.as_bytes());
        }
        None => h.bytes(&[0]),
    }
    h.finish()
}

/// The outcome digest: a hash over the per-session hashes, in sweep order.
pub fn digest(hashes: &[u64]) -> u64 {
    let mut h = Fnv::default();
    h.u64(hashes.len() as u64);
    for hash in hashes {
        h.u64(*hash);
    }
    h.finish()
}

/// The stand-in result of a session that panicked (counted as failed).
fn panicked(case: &BenchmarkCase) -> WorkflowResult {
    WorkflowResult {
        success: false,
        success_iteration: None,
        statuses: Vec::new(),
        trace: Trace::new(),
        final_candidate: Candidate::new(0, 0, case.reference().clone()),
        final_verilog: None,
        escapes: 0,
    }
}

/// One sweep over the whole plan.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time inside `sweep_suite`, summed over the (arm, model) sweeps.
    pub wall: Duration,
    /// Time the host stole from the vCPUs meanwhile, summed over vCPUs, seconds.
    pub stolen: f64,
    /// Per-session CPU time, in ns.
    pub latencies: Vec<u64>,
    /// Per-session wall time, summed, in ns.
    pub busy_ns: u64,
    /// Per-session outcome hashes, in sweep order.
    pub hashes: Vec<u64>,
    /// Sessions that succeeded within the cap.
    pub successes: u64,
    /// Escape firings.
    pub escapes: u64,
    /// Sessions with at least one escape.
    pub escaped: u64,
    /// Sessions that panicked or failed the correctness check.
    pub failed: u64,
    /// Claimed successes a from-scratch compile rejects (see [`Verdict`]).
    pub scratch_rejects: u64,
    /// Heap in use right after each (arm, model) sweep returned, at its highest, MiB.
    pub peak_heap_mb: f64,
}

/// Runs one sweep. With `verify`, every (arm, model) part is checked right after
/// it ran, outside the timed region, and then dropped.
pub fn run_rep(plan: &Plan, suite: &[BenchmarkCase], threads: usize, verify: bool) -> Rep {
    let mut rep = Rep::default();
    for arm in &plan.arms {
        for model in &plan.models {
            let latencies = Mutex::new(Vec::with_capacity(suite.len() * plan.samples as usize));
            let (panics, busy_ns) = (AtomicU64::new(0), AtomicU64::new(0));
            let stolen = steal_secs();
            let start = Instant::now();
            let outcomes = sweep_suite(suite, plan.samples, threads, |case, sample| {
                let (began, began_cpu) = (Instant::now(), thread_cpu_ns());
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let attempt = plan.first_attempt + sample;
                    run_sample_with_engine(&arm.engine, case, model, arm.language, attempt)
                }));
                let cpu_ns = thread_cpu_ns() - began_cpu;
                busy_ns.fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
                latencies.lock().expect("latency log").push(cpu_ns);
                result.unwrap_or_else(|_| {
                    panics.fetch_add(1, Ordering::Relaxed);
                    panicked(case)
                })
            });
            rep.wall += start.elapsed();
            rep.stolen += steal_secs() - stolen;
            rep.busy_ns += busy_ns.into_inner();
            rep.peak_heap_mb = rep.peak_heap_mb.max(heap_in_use_mb());
            rep.latencies.extend(latencies.into_inner().expect("latency log"));
            rep.failed += panics.into_inner();
            for result in outcomes.iter().flat_map(|o| &o.samples) {
                rep.hashes.push(session_hash(result));
                rep.successes += u64::from(result.success);
                rep.escapes += u64::from(result.escapes);
                rep.escaped += u64::from(result.escapes > 0);
            }
            if verify {
                let (failed, rejected) = verify_outcomes(arm, suite, &outcomes, threads);
                rep.failed += failed;
                rep.scratch_rejects += rejected;
            }
        }
    }
    rep
}

impl Rep {
    /// The sweep's wall time less the time the host stole from its `threads`
    /// workers: the time the sweep took on the CPUs it was given.
    pub fn unstolen_secs(&self, threads: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        (wall - self.stolen / threads as f64).max(wall / 20.0)
    }
}

/// Checks every session of one (arm, model) part; returns how many fail and how
/// many are [`Verdict::ScratchRejected`].
pub fn verify_outcomes(
    arm: &Arm,
    suite: &[BenchmarkCase],
    outcomes: &[CaseOutcome],
    threads: usize,
) -> (u64, u64) {
    let sessions: Vec<(&BenchmarkCase, &WorkflowResult)> = suite
        .iter()
        .zip(outcomes)
        .flat_map(|(case, outcome)| outcome.samples.iter().map(move |r| (case, r)))
        .collect();
    let verdicts =
        par_map(sessions.len(), threads, |i| verify_session(arm, sessions[i].0, sessions[i].1));
    let (mut failed, mut rejected) = (0, 0);
    for (verdict, (case, _)) in verdicts.iter().zip(&sessions) {
        match verdict {
            Ok(Verdict::Passed) => {}
            Ok(Verdict::ScratchRejected) => rejected += 1,
            Err(why) => {
                failed += 1;
                if failed <= 5 {
                    eprintln!(
                        "perfbench: {} session of {} failed the check: {why}",
                        arm.label, case.id
                    );
                }
            }
        }
    }
    (failed, rejected)
}

/// How a session passed the correctness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Consistent, and a claimed success recompiles and re-simulates.
    Passed,
    /// A claimed success that a from-scratch compile rejects with diagnostics: the
    /// session's incremental compiler patched a revision whose edit the check passes
    /// would have flagged (e.g. `Module` turned `RawModule` alongside a connect
    /// rewrite). A known defect of the program, reported on its own rather than as a
    /// failure of the benchmark run.
    ScratchRejected,
}

/// The correctness check of one session: its record is self-consistent, and a
/// claimed success recompiles from scratch to the same Verilog byte for byte and
/// passes on the reference interpreter (not the compiled engine the sweep used).
pub fn verify_session(
    arm: &Arm,
    case: &BenchmarkCase,
    r: &WorkflowResult,
) -> Result<Verdict, String> {
    let cap = arm.engine.config().max_iterations as usize;
    let last_is_success = r.statuses.last() == Some(&IterationStatus::Success);
    if r.statuses.is_empty() || r.statuses.len() > cap + 1 {
        return Err(format!("{} iterations under cap {cap}", r.statuses.len()));
    }
    if r.success != r.final_verilog.is_some()
        || r.success != r.success_iteration.is_some()
        || r.success != last_is_success
        || r.success_iteration.is_some_and(|it| it as usize + 1 != r.statuses.len())
    {
        return Err("inconsistent success record".into());
    }
    let Some(verilog) = &r.final_verilog else { return Ok(Verdict::Passed) };
    let Ok(fresh) = arm.engine.compiler().compile(&r.final_candidate.circuit) else {
        return Ok(Verdict::ScratchRejected);
    };
    if fresh.verilog != *verilog {
        return Err("recompiled Verilog differs from final_verilog".into());
    }
    if !case.tester_with_engine(EngineKind::Interp).test(&fresh.netlist).passed() {
        return Err("claimed success fails on the reference interpreter".into());
    }
    Ok(Verdict::Passed)
}

/// Untraced measurement of a plan: one verified warm-up sweep, then timed sweeps
/// until `seconds` of sweep wall time are measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Timed sweeps.
    pub reps: u32,
    /// Sessions per sweep.
    pub sessions_per_rep: u64,
    /// Sessions run in total (warm-up included).
    pub attempted: u64,
    /// Failed sessions (panics, failed checks, outcomes differing from the warm-up).
    pub failed: u64,
    /// Timed sweep wall time.
    pub wall: Duration,
    /// Sessions per unstolen second of each timed sweep (see [`Rep::unstolen_secs`]).
    pub throughput: Vec<f64>,
    /// Median session CPU time of each timed sweep, ns.
    pub p50_ns: Vec<u64>,
    /// 99th-percentile session CPU time of each timed sweep, ns.
    pub p99_ns: Vec<u64>,
    /// Per-session hashes of the warm-up sweep.
    pub hashes: Vec<u64>,
    /// Successes in one sweep.
    pub successes: u64,
    /// Escape firings in one sweep.
    pub escapes: u64,
    /// Sessions with at least one escape in one sweep.
    pub escaped: u64,
    /// [`Verdict::ScratchRejected`] sessions in one sweep.
    pub scratch_rejects: u64,
    /// Highest [`Rep::peak_heap_mb`] of all sweeps, MiB.
    pub peak_heap_mb: f64,
}

/// Runs the warm-up sweep and the timed sweeps.
pub fn measure(plan: &Plan, suite: &[BenchmarkCase], threads: usize, seconds: f64) -> Measured {
    let first = run_rep(plan, suite, threads, true);
    let mut m = Measured {
        sessions_per_rep: first.hashes.len() as u64,
        attempted: first.hashes.len() as u64,
        failed: first.failed,
        successes: first.successes,
        escapes: first.escapes,
        escaped: first.escaped,
        scratch_rejects: first.scratch_rejects,
        peak_heap_mb: first.peak_heap_mb,
        hashes: first.hashes,
        ..Measured::default()
    };
    while m.reps == 0 || m.wall.as_secs_f64() < seconds {
        let rep = run_rep(plan, suite, threads, false);
        m.failed += rep.failed + mismatches(&m.hashes, &rep.hashes);
        m.attempted += rep.hashes.len() as u64;
        m.wall += rep.wall;
        m.peak_heap_mb = m.peak_heap_mb.max(rep.peak_heap_mb);
        m.throughput.push(rep.hashes.len() as f64 / rep.unstolen_secs(threads));
        let mut latencies = rep.latencies;
        latencies.sort_unstable();
        m.p50_ns.push(percentile(&latencies, 0.5));
        m.p99_ns.push(percentile(&latencies, 0.99));
        m.reps += 1;
    }
    m
}

/// Sessions whose outcome differs between two sweeps of the same inputs.
pub fn mismatches(expected: &[u64], actual: &[u64]) -> u64 {
    let differing = expected.iter().zip(actual).filter(|(a, b)| a != b).count();
    (differing + expected.len().abs_diff(actual.len())) as u64
}

/// `--trace 0`: the end-to-end metrics of a sweep workload. Throughput and the
/// session-time percentiles are medians over the timed sweeps, so a burst of
/// contention on a shared machine moves one sweep, not the result; session times
/// are CPU times and sweep times leave out stolen time, for the same reason.
pub fn run_untraced(plan: &Plan, threads: usize, seconds: f64) -> Outcome {
    let (suite, setup_s) = setup(15);
    let m = measure(plan, &suite, threads, seconds);
    let n = m.sessions_per_rep;
    let p50 = median(&m.p50_ns) as f64 / 1e3;
    let p99 = median(&m.p99_ns) as f64 / 1e3;
    let mut outcome = Outcome::new(m.attempted, m.failed, digest(&m.hashes));
    outcome.note(format!(
        "sessions: {} per sweep, {} timed sweeps on {threads} threads, {:.3} s timed",
        m.sessions_per_rep,
        m.reps,
        m.wall.as_secs_f64()
    ));
    outcome.note(format!(
        "latency_p50_us {p50:.1} us, latency_p99_us {p99:.1} us (medians over {} sweeps of n={n} sessions)",
        m.reps
    ));
    outcome.note(format!(
        "pass_at_1 {}/{} sessions; {} escapes in {} sessions; peak resident set {:.1} MB",
        m.successes,
        m.sessions_per_rep,
        m.escapes,
        m.escaped,
        peak_rss_mb()
    ));
    outcome.note(format!(
        "per-sweep sessions/s: {}",
        m.throughput.iter().map(|t| format!("{t:.0}")).collect::<Vec<_>>().join(" ")
    ));
    outcome.note(format!(
        "per-sweep p50 us: {}",
        m.p50_ns.iter().map(|t| format!("{:.1}", *t as f64 / 1e3)).collect::<Vec<_>>().join(" ")
    ));
    if m.scratch_rejects > 0 {
        outcome.note(format!(
            "known defect: {} claimed successes per sweep are rejected by a from-scratch compile \
             (incremental reuse tier accepted them); reported, not counted as failed",
            m.scratch_rejects
        ));
    }
    outcome.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", median(&m.throughput), "1/s"),
        Metric::new("latency_p50_us", p50, "us"),
        Metric::new("latency_p99_us", p99, "us"),
        Metric::new("pass_at_1", m.successes as f64 / m.sessions_per_rep as f64, "ratio"),
        Metric::new("peak_heap_mb", m.peak_heap_mb, "MB"),
    ];
    outcome
}

/// `--trace 1`: alternating untraced and traced sweeps; the first untraced one is
/// verified, the first traced one replayed for the reuse-tier, lower, tape and
/// simulate layers.
pub fn run_traced(plan: &Plan, label: &str, threads: usize, seconds: f64) -> Outcome {
    let (suite, _) = setup(1);
    let arms: Vec<TracedArm> =
        plan.arms.iter().map(|a| TracedArm::new(&a.engine, a.language)).collect();
    let mut tracer = Tracer::default();
    let (mut untraced_cpu_ns, mut busy_ns, mut wall) = (0u64, 0u64, Duration::ZERO);
    let (mut attempted, mut failed, mut hashes) = (0u64, 0u64, Vec::new());
    let started = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || started.elapsed().as_secs_f64() < seconds {
        let rep = run_rep(plan, &suite, threads, reps == 0);
        untraced_cpu_ns += rep.latencies.iter().sum::<u64>();
        busy_ns += rep.busy_ns;
        wall += rep.wall;
        let mut traced_hashes = Vec::with_capacity(rep.hashes.len());
        for arm in &arms {
            for model in 0..plan.models.len() {
                let items = plan.items(suite.len(), model);
                traced_hashes.extend(tracer.run(
                    arm,
                    &plan.models,
                    &suite,
                    &items,
                    threads,
                    reps == 0,
                ));
            }
        }
        // The wrappers must not change a single decision of any session.
        failed += rep.failed + mismatches(&rep.hashes, &traced_hashes);
        attempted += 2 * rep.hashes.len() as u64;
        if reps == 0 {
            hashes = rep.hashes;
        }
        reps += 1;
    }
    failed += tracer.failed;
    let busy_ratio = busy_ns as f64 / (wall.as_nanos() as f64 * threads as f64);
    let mut outcome = Outcome::new(attempted, failed, digest(&hashes));
    outcome.note(format!("{reps} untraced + {reps} traced sweeps on {threads} threads"));
    outcome.metrics = tracer.metrics(reps, untraced_cpu_ns, busy_ratio);
    tracer.print_table(reps);
    tracer.write_sample(&format!("trace-{label}-from{}", plan.first_attempt));
    outcome
}
