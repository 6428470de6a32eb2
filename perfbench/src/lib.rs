//! # perfbench
//!
//! The end-to-end benchmark of the ReChisel reproduction. It drives the program
//! only through its public entry points — `sweep_suite` /
//! `run_sample_with_engine`, the AutoChip engine, and `Server::start` + `Client` —
//! and times each layer from outside, by wrapping the seams the program exposes.
//!
//! Workloads ([`Workload`]):
//!
//! * `table3` — the paper's Table III protocol: 216 cases × 10 samples × 5 models,
//!   cap 10, escape and knowledge on, Chisel.
//! * `zeroshot` — the Table I protocol: the same grid at cap 0, once through the
//!   ReChisel engine and once through the AutoChip engine.
//! * `serve` — an in-process server driven over TCP by a closed client loop.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]), measured untraced;
//! `--trace 1` prints the per-layer metrics ([`PER_LAYER`]) of a separate traced
//! run. See `perfbench/WORKLOADS.md` for the rationale and measured shares.

#![warn(missing_docs)]

pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use stats::Metric;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table III protocol (reflection-heavy).
    Table3,
    /// Table I protocol through ReChisel and AutoChip (one compile per session).
    Zeroshot,
    /// The TCP server under a closed loop.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "table3" => Some(Self::Table3),
            "zeroshot" => Some(Self::Zeroshot),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }
}

/// End-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("pass_at_1", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics and their units, in report order. A workload that does not
/// exercise a layer reports 0 for it (the sweeps never touch `serve.*`).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("llm.generate.calls", "count"),
    ("llm.generate.self_us", "us"),
    ("llm.revise.calls", "count"),
    ("llm.revise.self_us", "us"),
    ("core.review.calls", "count"),
    ("core.review.self_us", "us"),
    ("core.detect_cycle.calls", "count"),
    ("core.detect_cycle.self_us", "us"),
    ("core.escapes", "count"),
    ("core.evaluate.calls", "count"),
    ("core.evaluate.self_us", "us"),
    ("core.evaluate.p99_us", "us"),
    ("core.session.calls", "count"),
    ("core.session.other_us", "us"),
    ("firrtl.check.connects.self_us", "us"),
    ("firrtl.check.widths.self_us", "us"),
    ("firrtl.check.clocking.self_us", "us"),
    ("firrtl.check.initialization.self_us", "us"),
    ("firrtl.check.comb-loops.self_us", "us"),
    ("firrtl.check.calls", "count"),
    ("firrtl.check.fail_ratio", "ratio"),
    ("firrtl.reuse.identical", "count"),
    ("firrtl.reuse.patched", "count"),
    ("firrtl.reuse.scoped", "count"),
    ("firrtl.reuse.full_first", "count"),
    ("firrtl.reuse.full_other", "count"),
    ("firrtl.reuse.scratch_rejects", "count"),
    ("firrtl.fingerprint.repeat_ratio", "ratio"),
    ("firrtl.lower.replay_us", "us"),
    ("verilog.emit.calls", "count"),
    ("verilog.emit.self_us", "us"),
    ("sim.tape.replay_us", "us"),
    ("sim.simulate.calls", "count"),
    ("sim.simulate.replay_us", "us"),
    ("benchsuite.sweep.busy_ratio", "ratio"),
    ("serve.run_session.p50_us", "us"),
    ("serve.compile.p50_us", "us"),
    ("serve.simulate.p50_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.events", "count"),
    ("serve.busy", "count"),
    ("trace.record_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one benchmark run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, or requests for `serve`).
    pub attempted: u64,
    /// Operations that panicked, got an error reply or failed the correctness check.
    pub failed: u64,
    /// The outcome digest of the workload and seed.
    pub digest: u64,
    /// The measured metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64, digest: u64) -> Self {
        Self { attempted, failed, digest, ..Self::default() }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Orders the metrics as `names` lists them, filling unmeasured ones with 0 and
    /// dropping any the list does not name.
    pub fn conform(&mut self, names: &[(&str, &'static str)]) {
        self.metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
                Metric::new(*name, value, unit)
            })
            .collect();
    }
}

/// Runs one workload for `seconds` on `threads` threads.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, threads: usize) -> Outcome {
    let mut outcome = match workload {
        Workload::Serve => serve::run(seed, threads, seconds, trace),
        Workload::Table3 | Workload::Zeroshot => {
            let (plan, label) = if workload == Workload::Table3 {
                (sweep::Plan::table3(seed), "table3")
            } else {
                (sweep::Plan::zeroshot(seed), "zeroshot")
            };
            if trace {
                sweep::run_traced(&plan, label, threads, seconds)
            } else {
                sweep::run_untraced(&plan, threads, seconds)
            }
        }
    };
    outcome.conform(if trace { &PER_LAYER } else { &END_TO_END });
    outcome
}
