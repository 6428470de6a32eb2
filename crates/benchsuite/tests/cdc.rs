//! Multi-clock CDC regression tests: the suite's clock-domain-crossing designs driven
//! through per-domain edge schedules.
//!
//! Two layers:
//!
//! * **Golden traces at unequal edge ratios** — each CDC reference is stepped through
//!   a fixed 3:1 [`EdgeQueue`] schedule between stimulus points and its per-point
//!   output trace is pinned to a file, checked by **both** engines. The identical
//!   golden string across engines is the acceptance criterion for per-domain stepping:
//!   a dual-clock circuit at a 3:1 ratio produces the same trace everywhere.
//!   Re-record with `RECHISEL_BLESS=1` after an intentional semantic change.
//! * **Interleaved-edge differential fuzz** — seeded random interleavings of
//!   per-domain edges (plus random stimulus) driven in lockstep through the
//!   interpreter and the compiled tape; every named signal and every memory word must
//!   agree peek-`Result` for peek-`Result` after every single edge, including the
//!   `SyncReadBeforeClock` taint errors before a read port's own domain has ticked.
//!   The case count is raised in CI's fuzz job via `RECHISEL_FUZZ_CASES`.

use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;
use rechisel_benchsuite::circuits::cdc;
use rechisel_benchsuite::{random_stimulus, BenchmarkCase, SourceFamily};
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::lower_circuit;
use rechisel_sim::{CompiledSimulator, EdgeQueue, EngineKind, Simulator, Testbench};

/// Generated-schedule count for the fuzz property: default 1000, raised in CI. A set
/// value that does not parse fails the test rather than running the default.
fn fuzz_cases() -> u32 {
    let Some(raw) = std::env::var_os("RECHISEL_FUZZ_CASES") else { return 1000 };
    let raw = raw.to_string_lossy();
    raw.parse::<u32>()
        .unwrap_or_else(|_| panic!("RECHISEL_FUZZ_CASES={raw:?} is not a case count"))
        .max(1)
}

// --- golden traces at a 3:1 edge ratio ------------------------------------------------

/// Drives `netlist` through one engine: per stimulus point, poke the data inputs and
/// then run the whole `queue` (the per-point slice of the clock schedule), rendering
/// the same `index inputs | outputs` line format as the single-clock golden tests.
fn ratio_trace(netlist: &Netlist, kind: EngineKind, tb: &Testbench, queue: &EdgeQueue) -> String {
    let mut engine = kind.simulator(netlist).unwrap();
    engine.reset(2).unwrap();
    let mut out = String::new();
    for (index, point) in tb.points.iter().enumerate() {
        for (name, value) in &point.inputs {
            engine.poke(name, *value).unwrap();
        }
        queue.run(engine.as_mut()).unwrap();
        write!(out, "{index:02}").unwrap();
        for (name, value) in &point.inputs {
            write!(out, " {name}={value}").unwrap();
        }
        write!(out, " |").unwrap();
        for (name, value) in engine.outputs() {
            write!(out, " {name}={value}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Runs one CDC reference against its stored golden trace on every engine, stepping
/// the two domains at the unequal ratio described by `clocks` between points.
fn check_cdc_golden(
    case: &BenchmarkCase,
    clocks: &[(&str, u64)],
    horizon: u64,
    golden_name: &str,
    golden: &str,
) {
    let netlist = case.reference_netlist();
    let queue = EdgeQueue::periodic(clocks, horizon);
    let tb = Testbench::random_for(netlist, 16, case.cycles_per_point, case.seed());
    let bless = std::env::var("RECHISEL_BLESS").is_ok();
    for kind in [EngineKind::Interp, EngineKind::Compiled] {
        let got = ratio_trace(netlist, kind, &tb, &queue);
        if bless {
            let path = format!("{}/tests/golden/{golden_name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        assert_eq!(
            got, golden,
            "{} trace at ratio {clocks:?} diverges from tests/golden/{golden_name} on the \
             {kind} engine (run with RECHISEL_BLESS=1 to re-record after an intentional change)",
            case.id
        );
    }
}

#[test]
fn golden_cdc_sync2ff4_ratio_3_to_1() {
    // Fast destination clock: a source capture appears on q three dst edges later.
    check_cdc_golden(
        &cdc::sync_2ff(4, SourceFamily::VerilogEval),
        &[("clk_dst", 1), ("clk_src", 3)],
        3,
        "cdc_sync2ff4.txt",
        include_str!("golden/cdc_sync2ff4.txt"),
    );
}

#[test]
fn golden_cdc_async_fifo8x4_ratio_3_to_1() {
    // Fast write clock against a slow read clock: the FIFO fills up and the
    // conservative gray-coded full flag throttles further pushes.
    check_cdc_golden(
        &cdc::async_fifo(8, 4, SourceFamily::Rtllm),
        &[("clk_w", 1), ("clk_r", 3)],
        3,
        "cdc_async_fifo8x4.txt",
        include_str!("golden/cdc_async_fifo8x4.txt"),
    );
}

#[test]
fn golden_cdc_handshake8_ratio_3_to_1() {
    // Fast source clock: busy stretches across the slow destination's ack round-trip.
    check_cdc_golden(
        &cdc::cdc_handshake(8, SourceFamily::Rtllm),
        &[("clk_src", 1), ("clk_dst", 3)],
        3,
        "cdc_handshake8.txt",
        include_str!("golden/cdc_handshake8.txt"),
    );
}

// --- interleaved-edge differential fuzz -----------------------------------------------

/// The three CDC netlists, lowered once and shared across fuzz iterations.
fn cdc_netlists() -> &'static [Netlist] {
    static NETLISTS: OnceLock<Vec<Netlist>> = OnceLock::new();
    NETLISTS.get_or_init(|| {
        [
            cdc::sync_2ff(4, SourceFamily::VerilogEval),
            cdc::async_fifo(8, 4, SourceFamily::Rtllm),
            cdc::cdc_handshake(8, SourceFamily::Rtllm),
        ]
        .iter()
        .map(|case| lower_circuit(case.reference()).unwrap())
        .collect()
    })
}

/// A splitmix64 step: the same deterministic generator the circuit fuzzer uses, kept
/// local so the schedule stream is independent of the stimulus stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One interleaved run: a randomly chosen CDC design, random stimulus, and a random
/// sequence of per-domain edges; the interpreter and the compiled tape must agree on
/// every peek `Result`, every memory word, every output and the cycle counter after
/// every single edge. No reset is issued, so the first edges also pin the per-domain
/// `SyncReadBeforeClock` taint clearing.
fn interleaved_edge_run(seed: u64) {
    const EDGES: usize = 24;
    let netlists = cdc_netlists();
    let netlist = &netlists[(seed % netlists.len() as u64) as usize];
    let domains = netlist.clock_domains();
    let names: Vec<String> = netlist.slot_assignment().iter().map(|(_, n)| n.to_string()).collect();
    let mems: Vec<(String, usize)> =
        netlist.mems.iter().map(|m| (m.name.clone(), m.depth)).collect();

    let mut interp = Simulator::new(netlist.clone());
    let mut compiled = CompiledSimulator::new(netlist)
        .unwrap_or_else(|e| panic!("seed {seed}: tape compilation failed: {e}"));

    let check = |interp: &Simulator, compiled: &CompiledSimulator, at: &str| {
        for name in &names {
            let a = interp.peek(name);
            let b = compiled.peek(name);
            assert_eq!(a, b, "seed {seed}: signal {name} interp vs compiled {at}");
        }
        for (mem, depth) in &mems {
            for addr in 0..*depth as u128 {
                let a = interp.peek_mem(mem, addr).unwrap();
                let b = compiled.peek_mem(mem, addr).unwrap();
                assert_eq!(a, b, "seed {seed}: word {mem}[{addr}] interp vs compiled {at}");
            }
        }
    };

    check(&interp, &compiled, "at construction");

    let stimulus = random_stimulus(netlist, EDGES, seed);
    let mut schedule = seed ^ 0xC0DE_C10C;
    for (edge, assignment) in stimulus.iter().enumerate() {
        for (name, value) in assignment {
            interp.poke(name, *value).unwrap();
            compiled.poke(name, *value).unwrap();
        }
        let domain = &domains[(mix(&mut schedule) % domains.len() as u64) as usize];
        interp.step_clock(domain).unwrap();
        compiled.step_clock(domain).unwrap();
        check(&interp, &compiled, &format!("after edge {edge} on {domain}"));
        assert_eq!(interp.cycles(), compiled.cycles(), "seed {seed} edge {edge}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Random interleaved per-domain edge schedules over the CDC designs: both
    /// engines agree peek for peek after every edge.
    #[test]
    fn engines_agree_on_interleaved_edge_schedules(seed in 0u64..u64::MAX) {
        interleaved_edge_run(seed);
    }
}
