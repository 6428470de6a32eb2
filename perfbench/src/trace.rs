//! Outside-in tracing: spans recorded by wrappers around the seams the program
//! already exposes, kept in memory and accounted per session.
//!
//! * `Generator`, `Reviewer` and `Inspector` wrappers time the agent calls
//!   (`llm.generate`, `llm.revise`, `core.review`, `core.detect_cycle`).
//! * A `PassManager` of timed `Pass::new` wrappers around the five public check
//!   functions times `firrtl.check.*`; a timed `EmitBackend` times `verilog.emit`.
//! * `core.evaluate` is the gap from a candidate's return to the next agent call or
//!   the end of the session: compile and simulate, the tool-side feedback latency.
//!   Check and emit spans must nest inside it; its self time excludes them.
//! * `core.session.other_us` is the rest of the session (trace bookkeeping, clones).
//!
//! The generator wrapper also keeps each session's candidate chain; after the sweep
//! the chain is replayed through a fresh incremental compiler for the reuse-tier
//! counts, and through `lower_circuit`, `Tape::compile` and the tester for the
//! layers the program gives no seam for.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rechisel_benchsuite::BenchmarkCase;
use rechisel_core::{
    Candidate, ChiselCompiler, CommonErrorKnowledge, Engine, Feedback, Generator, Inspector,
    Reviewer, RevisionPlan, Spec, TemplateReviewer, Trace, TraceInspector, WorkflowResult,
};
use rechisel_firrtl::ir::{Circuit, Module};
use rechisel_firrtl::pipeline::{EmitBackend, Pass, PassManager, Pipeline};
use rechisel_firrtl::{
    lower_circuit, passes, Diagnostic, DiagnosticReport, Fingerprint, Netlist, RebuildReason,
    RecompileOutcome,
};
use rechisel_llm::{Language, ModelProfile, SyntheticLlm};
use rechisel_sim::Tape;
use rechisel_verilog::VerilogBackend;

use crate::stats::{par_map, percentile, thread_cpu_ns, Metric};
use crate::sweep::session_hash;

/// The standard check passes, in registration order.
pub const PASSES: [&str; 5] = ["connects", "widths", "clocking", "initialization", "comb-loops"];

const CHECK_SPANS: [&str; 5] = [
    "firrtl.check.connects",
    "firrtl.check.widths",
    "firrtl.check.clocking",
    "firrtl.check.initialization",
    "firrtl.check.comb-loops",
];

type PassFn = fn(&Module, &Circuit) -> DiagnosticReport;

const PASS_FNS: [PassFn; 5] = [
    passes::check_connects,
    passes::check_widths,
    passes::check_clocking,
    passes::check_initialization,
    passes::check_combinational_loops,
];

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Generator::generate`.
    Generate,
    /// `Generator::revise`.
    Revise,
    /// `Reviewer::review`.
    Review,
    /// `Inspector::detect_cycle`.
    DetectCycle,
    /// The tracer keeping a copy of a candidate (its own overhead).
    Record,
    /// One check pass (index into [`PASSES`]).
    Check(usize),
    /// `EmitBackend::emit`.
    Emit,
}

impl Kind {
    /// Top-level spans are called by the session loop itself; the others nest in
    /// `core.evaluate`.
    fn is_top(self) -> bool {
        !matches!(self, Kind::Check(_) | Kind::Emit)
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Generate => "llm.generate",
            Kind::Revise => "llm.revise",
            Kind::Review => "core.review",
            Kind::DetectCycle => "core.detect_cycle",
            Kind::Record => "trace.record",
            Kind::Check(i) => CHECK_SPANS[i],
            Kind::Emit => "verilog.emit",
        }
    }
}

/// One timed call, in ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub kind: Kind,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// For check passes: the pass reported an error.
    pub failed: bool,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn push(kind: Kind, start: u64, end: u64, failed: bool) {
    SPANS.with(|spans| spans.borrow_mut().push(Span { kind, start, end, failed }));
}

fn take_spans() -> Vec<Span> {
    SPANS.with(|spans| std::mem::take(&mut *spans.borrow_mut()))
}

fn thread_id() -> u32 {
    THREAD.with(|id| *id.get().get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed)))
}

// ---------------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------------

/// Times `generate`/`revise` and keeps the chain of candidate circuits.
struct TracedGenerator<G> {
    inner: G,
    chain: Vec<Circuit>,
}

impl<G> TracedGenerator<G> {
    fn returned(&mut self, kind: Kind, start: u64, candidate: Candidate) -> Candidate {
        let end = now();
        push(kind, start, end, false);
        self.chain.push(candidate.circuit.clone());
        push(Kind::Record, end, now(), false);
        candidate
    }
}

impl<G: Generator> Generator for TracedGenerator<G> {
    fn generate(&mut self, spec: &Spec, attempt: u32) -> Candidate {
        let start = now();
        let candidate = self.inner.generate(spec, attempt);
        self.returned(Kind::Generate, start, candidate)
    }

    fn revise(&mut self, previous: &Candidate, plan: &RevisionPlan, iteration: u32) -> Candidate {
        let start = now();
        let candidate = self.inner.revise(previous, plan, iteration);
        self.returned(Kind::Revise, start, candidate)
    }
}

struct TracedReviewer<R>(R);

impl<R: Reviewer> Reviewer for TracedReviewer<R> {
    fn review(
        &mut self,
        candidate: &Candidate,
        feedback: &Feedback,
        trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan {
        let start = now();
        let plan = self.0.review(candidate, feedback, trace, knowledge);
        push(Kind::Review, start, now(), false);
        plan
    }
}

struct TracedInspector<I>(I);

impl<I: Inspector> Inspector for TracedInspector<I> {
    fn detect_cycle(&mut self, trace: &Trace, feedback: &Feedback) -> Option<usize> {
        let start = now();
        let cycle = self.0.detect_cycle(trace, feedback);
        push(Kind::DetectCycle, start, now(), false);
        cycle
    }
}

/// The Verilog backend, timed.
struct TimedEmit;

impl EmitBackend for TimedEmit {
    fn name(&self) -> &'static str {
        VerilogBackend.name()
    }

    fn file_extension(&self) -> &'static str {
        VerilogBackend.file_extension()
    }

    fn emit(&self, circuit: &Circuit, netlist: &Netlist) -> Result<String, Diagnostic> {
        let start = now();
        let out = VerilogBackend.emit(circuit, netlist);
        push(Kind::Emit, start, now(), false);
        out
    }
}

/// `plain`'s compiler rebuilt from timed passes (same names, same order) and the
/// timed Verilog backend.
fn traced_compiler(plain: &ChiselCompiler) -> ChiselCompiler {
    assert_eq!(plain.pipeline().backend().name(), VerilogBackend.name(), "Verilog pipeline");
    let mut passes = PassManager::empty();
    for name in plain.pipeline().passes().names() {
        let index = PASSES.iter().position(|p| *p == name).expect("a standard check pass");
        let run = PASS_FNS[index];
        passes.register(Pass::new(name, move |module, circuit| {
            let start = now();
            let report = run(module, circuit);
            push(Kind::Check(index), start, now(), report.has_errors());
            report
        }));
    }
    ChiselCompiler::from_pipeline(Pipeline::new(TimedEmit).with_passes(passes))
}

/// An arm's plain engine, its traced twin and its language.
#[derive(Debug, Clone)]
pub struct TracedArm {
    plain: Engine,
    traced: Engine,
    language: Language,
}

impl TracedArm {
    /// Rebuilds `plain` (same configuration, knowledge and simulation engine) around
    /// the traced compiler.
    pub fn new(plain: &Engine, language: Language) -> Self {
        let traced = Engine::builder()
            .config(*plain.config())
            .knowledge(plain.knowledge().clone())
            .sim_engine(plain.sim_engine())
            .compiler(traced_compiler(plain.compiler()))
            .build();
        Self { plain: plain.clone(), traced, language }
    }
}

/// One session to run: indices into the suite and the model list, plus the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Suite index.
    pub case: usize,
    /// Model index.
    pub model: usize,
    /// Attempt (sample) index.
    pub attempt: u32,
}

/// The spans and candidate chain of one traced session.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    /// Worker that ran it.
    pub thread: u32,
    /// Session start, ns.
    pub start: u64,
    /// Session end, ns.
    pub end: u64,
    /// CPU time of the session on its thread, ns.
    pub cpu_ns: u64,
    /// Every span, in the order recorded.
    pub spans: Vec<Span>,
    /// Every candidate circuit, in evaluation order.
    pub chain: Vec<Circuit>,
    /// Iterations the session evaluated.
    pub iterations: usize,
    /// Escape firings.
    pub escapes: u32,
}

/// Runs one session exactly as `run_sample_with_engine` does, with traced agents.
fn run_traced(
    arm: &TracedArm,
    case: &BenchmarkCase,
    profile: &ModelProfile,
    attempt: u32,
) -> (WorkflowResult, SessionTrace) {
    take_spans();
    let cpu_start = thread_cpu_ns();
    let start = now();
    let llm =
        SyntheticLlm::new(profile.clone(), arm.language, case.reference().clone(), case.seed());
    let mut generator = TracedGenerator { inner: llm, chain: Vec::new() };
    let result = arm
        .traced
        .session(
            &mut generator,
            TracedReviewer(TemplateReviewer::new()),
            TracedInspector(TraceInspector::new()),
            case.spec.clone(),
            case.tester_with_engine(arm.traced.sim_engine()),
        )
        .run(attempt);
    let end = now();
    let trace = SessionTrace {
        thread: thread_id(),
        start,
        end,
        cpu_ns: thread_cpu_ns() - cpu_start,
        spans: take_spans(),
        chain: generator.chain,
        iterations: result.statuses.len(),
        escapes: result.escapes,
    };
    (result, trace)
}

// ---------------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------------

/// Calls and summed time of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls.
    pub calls: u64,
    /// Summed time, ns.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Per-layer totals over traced sessions.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Sessions accounted.
    pub sessions: u64,
    /// Summed session time, ns.
    pub session_ns: u64,
    /// Summed session CPU time, ns.
    pub session_cpu_ns: u64,
    /// Escape firings.
    pub escapes: u64,
    /// `llm.generate`.
    pub generate: Tally,
    /// `llm.revise`.
    pub revise: Tally,
    /// `core.review`.
    pub review: Tally,
    /// `core.detect_cycle`.
    pub detect_cycle: Tally,
    /// The tracer's own candidate copies.
    pub record: Tally,
    /// `core.evaluate` (whole gaps).
    pub evaluate: Tally,
    /// `core.evaluate` self time, ns.
    pub evaluate_self_ns: u64,
    /// Every evaluate gap, ns.
    pub evaluate_ns: Vec<u64>,
    /// `core.session.other_us`, ns.
    pub other_ns: u64,
    /// One tally per check pass.
    pub passes: [Tally; 5],
    /// Evaluations that ran the check passes.
    pub check_calls: u64,
    /// Of those, the ones a pass reported an error in.
    pub check_fails: u64,
    /// `verilog.emit`.
    pub emit: Tally,
}

impl LayerTotals {
    /// Accounts one session, checking coverage first: agent spans are disjoint and
    /// inside the session, each candidate is followed by `detect_cycle` or the end,
    /// there is one evaluate gap per evaluated iteration, and every check and emit
    /// span nests inside an evaluate gap. Agents, tracer copies, evaluate and other
    /// then sum to the session time exactly.
    ///
    /// # Errors
    ///
    /// Describes the first coverage violation; the session is then not accounted.
    pub fn account(&mut self, t: &SessionTrace) -> Result<(), String> {
        let tops: Vec<&Span> = t.spans.iter().filter(|s| s.kind.is_top()).collect();
        let mut cursor = t.start;
        for span in &tops {
            if span.start < cursor || span.end < span.start {
                return Err(format!("{} span overlaps its predecessor", span.kind.name()));
            }
            cursor = span.end;
        }
        if cursor > t.end {
            return Err("an agent span outlives its session".into());
        }
        let mut gaps = Vec::new();
        for (i, span) in tops.iter().enumerate() {
            if span.kind != Kind::Record {
                continue;
            }
            let next = tops.get(i + 1);
            if let Some(next) = next.filter(|n| n.kind != Kind::DetectCycle) {
                return Err(format!("a candidate is followed by {}", next.kind.name()));
            }
            gaps.push((span.end, next.map_or(t.end, |n| n.start)));
        }
        if gaps.len() != t.iterations || gaps.len() != t.chain.len() {
            return Err(format!(
                "{} evaluate gaps for {} iterations and {} candidates",
                gaps.len(),
                t.iterations,
                t.chain.len()
            ));
        }

        let mut local = LayerTotals::default();
        let mut child_ns = vec![0u64; gaps.len()];
        let mut checked = vec![(false, false); gaps.len()];
        let mut g = 0;
        for child in t.spans.iter().filter(|s| !s.kind.is_top()) {
            while g < gaps.len() && gaps[g].1 < child.start {
                g += 1;
            }
            if g == gaps.len() || child.start < gaps[g].0 || child.end > gaps[g].1 {
                return Err(format!("{} span outside every evaluate gap", child.kind.name()));
            }
            let ns = child.end - child.start;
            child_ns[g] += ns;
            match child.kind {
                Kind::Check(i) => {
                    local.passes[i].add(ns);
                    checked[g].0 = true;
                    checked[g].1 |= child.failed;
                }
                _ => local.emit.add(ns),
            }
        }
        let mut top_ns = 0;
        for span in &tops {
            let ns = span.end - span.start;
            top_ns += ns;
            match span.kind {
                Kind::Generate => local.generate.add(ns),
                Kind::Revise => local.revise.add(ns),
                Kind::Review => local.review.add(ns),
                Kind::DetectCycle => local.detect_cycle.add(ns),
                _ => local.record.add(ns),
            }
        }
        let mut gap_ns = 0;
        for (i, (from, to)) in gaps.iter().enumerate() {
            let ns = to - from;
            gap_ns += ns;
            local.evaluate.add(ns);
            local.evaluate_ns.push(ns);
            local.evaluate_self_ns += ns - child_ns[i];
            local.check_calls += u64::from(checked[i].0);
            local.check_fails += u64::from(checked[i].1);
        }
        let session_ns = t.end - t.start;
        local.other_ns = session_ns
            .checked_sub(top_ns + gap_ns)
            .ok_or("agent and evaluate spans exceed the session time")?;
        local.sessions = 1;
        local.session_ns = session_ns;
        local.session_cpu_ns = t.cpu_ns;
        local.escapes = u64::from(t.escapes);
        self.merge(local);
        Ok(())
    }

    fn merge(&mut self, o: LayerTotals) {
        self.sessions += o.sessions;
        self.session_ns += o.session_ns;
        self.session_cpu_ns += o.session_cpu_ns;
        self.escapes += o.escapes;
        for (mine, theirs) in [
            (&mut self.generate, o.generate),
            (&mut self.revise, o.revise),
            (&mut self.review, o.review),
            (&mut self.detect_cycle, o.detect_cycle),
            (&mut self.record, o.record),
            (&mut self.evaluate, o.evaluate),
            (&mut self.emit, o.emit),
        ] {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.passes.iter_mut().zip(o.passes) {
            mine.merge(theirs);
        }
        self.evaluate_self_ns += o.evaluate_self_ns;
        self.evaluate_ns.extend(o.evaluate_ns);
        self.other_ns += o.other_ns;
        self.check_calls += o.check_calls;
        self.check_fails += o.check_fails;
    }
}

/// Counts and times from replaying candidate chains.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTotals {
    /// Candidates compiled.
    pub compiles: u64,
    /// Candidates that failed to compile.
    pub compile_failures: u64,
    /// Reuse tiers of the compiles that succeeded.
    pub identical: u64,
    /// `Patched` tier.
    pub patched: u64,
    /// `ScopedCheck` tier.
    pub scoped: u64,
    /// `FullRebuild(FirstRevision)`.
    pub full_first: u64,
    /// Every other full rebuild.
    pub full_other: u64,
    /// Incremental compiles that succeeded although a from-scratch compile of the
    /// same candidate fails.
    pub scratch_rejects: u64,
    /// Candidates whose fingerprint was already compiled earlier in the sweep.
    pub repeats: u64,
    /// `lower_circuit` on the compiling candidates.
    pub lower: Tally,
    /// `Tape::compile` on their netlists.
    pub tape: Tally,
    /// `FunctionalTester::test_with_tape` on them.
    pub simulate: Tally,
}

impl ReplayTotals {
    fn merge(&mut self, o: ReplayTotals) {
        self.compiles += o.compiles;
        self.compile_failures += o.compile_failures;
        self.identical += o.identical;
        self.patched += o.patched;
        self.scoped += o.scoped;
        self.full_first += o.full_first;
        self.full_other += o.full_other;
        self.scratch_rejects += o.scratch_rejects;
        self.repeats += o.repeats;
        self.lower.merge(o.lower);
        self.tape.merge(o.tape);
        self.simulate.merge(o.simulate);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Replays one session's chain through a fresh incremental compiler, and the
/// candidates that compile through lower, tape and simulate.
fn replay_chain(arm: &TracedArm, case: &BenchmarkCase, chain: &[Circuit]) -> ReplayTotals {
    let mut r = ReplayTotals::default();
    let mut compiler = arm.plain.compiler().incremental();
    let tester = case.tester_with_engine(arm.plain.sim_engine());
    for circuit in chain {
        r.compiles += 1;
        let Ok(compiled) = compiler.compile(circuit) else {
            r.compile_failures += 1;
            continue;
        };
        match compiled.outcome {
            RecompileOutcome::Identical => r.identical += 1,
            RecompileOutcome::Patched { .. } => r.patched += 1,
            RecompileOutcome::ScopedCheck { .. } => r.scoped += 1,
            RecompileOutcome::FullRebuild(RebuildReason::FirstRevision) => r.full_first += 1,
            RecompileOutcome::FullRebuild(_) => r.full_other += 1,
        }
        r.scratch_rejects += u64::from(arm.plain.compiler().compile(circuit).is_err());
        let start = Instant::now();
        let netlist = lower_circuit(circuit);
        r.lower.add(elapsed_ns(start));
        let Ok(netlist) = netlist else { continue };
        let start = Instant::now();
        let tape = Tape::compile(&netlist);
        r.tape.add(elapsed_ns(start));
        let start = Instant::now();
        std::hint::black_box(tester.test_with_tape(&netlist, tape.ok().map(Arc::new)));
        r.simulate.add(elapsed_ns(start));
    }
    r
}

/// How many sessions per traced part keep their spans for the trace file.
const SAMPLE_SESSIONS: usize = 32;

/// Runs traced sessions and accumulates everything the per-layer table needs.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Per-layer totals over every traced session.
    pub layers: LayerTotals,
    /// Replay totals over the replayed sessions.
    pub replay: ReplayTotals,
    /// Sessions that failed the coverage check.
    pub failed: u64,
    seen: HashSet<Fingerprint>,
    sample: Vec<SessionTrace>,
}

impl Tracer {
    /// Runs `items` traced on `threads` workers and returns their outcome hashes in
    /// item order. With `replay`, the candidate chains are also replayed.
    pub fn run(
        &mut self,
        arm: &TracedArm,
        models: &[ModelProfile],
        suite: &[BenchmarkCase],
        items: &[Item],
        threads: usize,
        replay: bool,
    ) -> Vec<u64> {
        let sessions = par_map(items.len(), threads, |i| {
            let item = items[i];
            let (result, trace) =
                run_traced(arm, &suite[item.case], &models[item.model], item.attempt);
            (session_hash(&result), trace)
        });
        for (_, trace) in &sessions {
            if let Err(why) = self.layers.account(trace) {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: traced session failed the coverage check: {why}");
                }
            }
        }
        if replay {
            let parts = par_map(sessions.len(), threads, |i| {
                replay_chain(arm, &suite[items[i].case], &sessions[i].1.chain)
            });
            for part in parts {
                self.replay.merge(part);
            }
            for (_, trace) in &sessions {
                for circuit in &trace.chain {
                    self.replay.repeats += u64::from(!self.seen.insert(circuit.fingerprint()));
                }
            }
            for (_, trace) in sessions.iter().take(SAMPLE_SESSIONS) {
                self.sample.push(SessionTrace { chain: Vec::new(), ..trace.clone() });
            }
        }
        sessions.into_iter().map(|(hash, _)| hash).collect()
    }

    /// The per-layer metrics, per sweep (`reps` traced sweeps were accounted);
    /// `untraced_cpu_ns` is the summed session CPU time of the same sessions run
    /// untraced, the base of the tracing overhead.
    pub fn metrics(&self, reps: u32, untraced_cpu_ns: u64, busy_ratio: f64) -> Vec<Metric> {
        let l = &self.layers;
        let r = &self.replay;
        let per = f64::from(reps.max(1));
        let count = |n: u64| n as f64 / per;
        let us = |ns: u64| ns as f64 / 1e3 / per;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut gaps = l.evaluate_ns.clone();
        gaps.sort_unstable();
        let mut m = vec![
            Metric::new("llm.generate.calls", count(l.generate.calls), "count"),
            Metric::new("llm.generate.self_us", us(l.generate.ns), "us"),
            Metric::new("llm.revise.calls", count(l.revise.calls), "count"),
            Metric::new("llm.revise.self_us", us(l.revise.ns), "us"),
            Metric::new("core.review.calls", count(l.review.calls), "count"),
            Metric::new("core.review.self_us", us(l.review.ns), "us"),
            Metric::new("core.detect_cycle.calls", count(l.detect_cycle.calls), "count"),
            Metric::new("core.detect_cycle.self_us", us(l.detect_cycle.ns), "us"),
            Metric::new("core.escapes", count(l.escapes), "count"),
            Metric::new("core.evaluate.calls", count(l.evaluate.calls), "count"),
            Metric::new("core.evaluate.self_us", us(l.evaluate_self_ns), "us"),
            Metric::new("core.evaluate.p99_us", percentile(&gaps, 0.99) as f64 / 1e3, "us"),
            Metric::new("core.session.calls", count(l.sessions), "count"),
            Metric::new("core.session.other_us", us(l.other_ns), "us"),
        ];
        for (name, tally) in PASSES.iter().zip(&l.passes) {
            m.push(Metric::new(format!("firrtl.check.{name}.self_us"), us(tally.ns), "us"));
        }
        m.extend([
            Metric::new("firrtl.check.calls", count(l.check_calls), "count"),
            Metric::new("firrtl.check.fail_ratio", ratio(l.check_fails, l.check_calls), "ratio"),
            Metric::new("firrtl.reuse.identical", r.identical as f64, "count"),
            Metric::new("firrtl.reuse.patched", r.patched as f64, "count"),
            Metric::new("firrtl.reuse.scoped", r.scoped as f64, "count"),
            Metric::new("firrtl.reuse.full_first", r.full_first as f64, "count"),
            Metric::new("firrtl.reuse.full_other", r.full_other as f64, "count"),
            Metric::new("firrtl.reuse.scratch_rejects", r.scratch_rejects as f64, "count"),
            Metric::new("firrtl.fingerprint.repeat_ratio", ratio(r.repeats, r.compiles), "ratio"),
            Metric::new("firrtl.lower.replay_us", r.lower.ns as f64 / 1e3, "us"),
            Metric::new("verilog.emit.calls", count(l.emit.calls), "count"),
            Metric::new("verilog.emit.self_us", us(l.emit.ns), "us"),
            Metric::new("sim.tape.replay_us", r.tape.ns as f64 / 1e3, "us"),
            Metric::new("sim.simulate.calls", r.simulate.calls as f64, "count"),
            Metric::new("sim.simulate.replay_us", r.simulate.ns as f64 / 1e3, "us"),
            Metric::new("benchsuite.sweep.busy_ratio", busy_ratio, "ratio"),
            Metric::new("trace.record_us", us(l.record.ns), "us"),
            Metric::new(
                "trace.overhead_pct",
                100.0 * (l.session_cpu_ns as f64 - untraced_cpu_ns as f64)
                    / untraced_cpu_ns.max(1) as f64,
                "%",
            ),
        ]);
        m
    }

    /// Prints each layer's self time per sweep and its share of session time.
    pub fn print_table(&self, reps: u32) {
        let l = &self.layers;
        let total = l.session_ns.max(1) as f64;
        let per = f64::from(reps.max(1));
        let mut rows: Vec<(String, u64, u64)> = vec![
            ("llm.generate".into(), l.generate.calls, l.generate.ns),
            ("llm.revise".into(), l.revise.calls, l.revise.ns),
            ("core.review".into(), l.review.calls, l.review.ns),
            ("core.detect_cycle".into(), l.detect_cycle.calls, l.detect_cycle.ns),
            ("core.evaluate (self)".into(), l.evaluate.calls, l.evaluate_self_ns),
        ];
        for (name, tally) in PASSES.iter().zip(&l.passes) {
            rows.push((format!("firrtl.check.{name}"), tally.calls, tally.ns));
        }
        rows.push(("verilog.emit".into(), l.emit.calls, l.emit.ns));
        rows.push(("core.session.other".into(), l.sessions, l.other_ns));
        rows.push(("trace.record (tracer)".into(), l.record.calls, l.record.ns));
        eprintln!("{:<30} {:>12} {:>14} {:>8}", "layer (per sweep)", "calls", "self ms", "share");
        let mut covered = 0;
        for (name, calls, ns) in rows {
            covered += ns;
            eprintln!(
                "{name:<30} {:>12.0} {:>14.3} {:>7.2}%",
                calls as f64 / per,
                ns as f64 / 1e6 / per,
                100.0 * ns as f64 / total
            );
        }
        eprintln!(
            "{:<30} {:>12.0} {:>14.3} {:>7.2}%",
            "session (sum of the above)",
            l.sessions as f64 / per,
            l.session_ns as f64 / 1e6 / per,
            100.0 * covered as f64 / total
        );
    }

    /// Writes the sampled sessions' spans as a Chrome trace-event file under the
    /// build directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
    pub fn write_sample(&self, stem: &str) {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
            .join("perfbench");
        let path = dir.join(format!("{stem}.json"));
        let mut out = String::from("{\"traceEvents\": [\n");
        let event = |out: &mut String, name: &str, tid: u32, start: u64, end: u64| {
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}}},\n",
                start as f64 / 1e3,
                (end - start) as f64 / 1e3
            ));
        };
        for t in &self.sample {
            event(&mut out, "session", t.thread, t.start, t.end);
            for s in &t.spans {
                event(&mut out, s.kind.name(), t.thread, s.start, s.end);
            }
        }
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
        }
        out.push_str("\n]}\n");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut file| file.write_all(out.as_bytes()));
        match written {
            Ok(()) => eprintln!(
                "perfbench: wrote {} sampled sessions to {}",
                self.sample.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
}
