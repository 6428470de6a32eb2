//! Golden-vector regression tests: per-cycle output traces pinned to files.
//!
//! One reference circuit per suite family (arithmetic / combinational / fsm /
//! sequential) is driven with its deterministic per-case testbench stimulus, and the
//! full per-cycle output trace is compared against a stored golden file — by **both**
//! simulation engines. This pins simulator behaviour across refactors: a change to
//! evaluation semantics, lowering, or the stimulus generator shows up as a readable
//! trace diff instead of a silent shift in benchmark results.
//!
//! To regenerate the stored traces after an intentional semantic change, run with
//! `RECHISEL_BLESS=1` and commit the rewritten files.

use std::fmt::Write as _;

use rechisel_benchsuite::circuits::{arithmetic, combinational, fsm, memory, sequential};
use rechisel_benchsuite::{BenchmarkCase, SourceFamily};
use rechisel_sim::{EngineKind, SimEngine, Testbench};

/// Drives `tb` through an engine and renders the per-point output trace.
fn trace(engine: &mut dyn SimEngine, tb: &Testbench) -> String {
    let mut out = String::new();
    engine.reset(tb.reset_cycles).unwrap();
    for (index, point) in tb.points.iter().enumerate() {
        for (name, value) in &point.inputs {
            engine.poke(name, *value).unwrap();
        }
        if point.cycles == 0 {
            engine.eval().unwrap();
        } else {
            engine.step_n(point.cycles).unwrap();
        }
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

/// Runs one family representative against its stored golden trace on every engine.
fn check_golden(case: &BenchmarkCase, golden_name: &str, golden: &str) {
    let netlist = case.reference_netlist();
    // A compact, deterministic stimulus derived from the case's own seed and timing.
    let tb = Testbench::random_for(netlist, 16, case.cycles_per_point, case.seed());
    let bless = std::env::var("RECHISEL_BLESS").is_ok();
    for kind in [EngineKind::Interp, EngineKind::Compiled] {
        let mut engine = kind.simulator(netlist).unwrap();
        let got = trace(engine.as_mut(), &tb);
        if bless {
            let path = format!("{}/tests/golden/{golden_name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        assert_eq!(
            got, golden,
            "{} trace diverges from tests/golden/{golden_name} on the {kind} engine \
             (run with RECHISEL_BLESS=1 to re-record after an intentional change)",
            case.id
        );
    }
}

#[test]
fn golden_arithmetic_alu4() {
    check_golden(
        &arithmetic::alu(4, SourceFamily::Rtllm),
        "arithmetic_alu4.txt",
        include_str!("golden/arithmetic_alu4.txt"),
    );
}

#[test]
fn golden_combinational_vector5() {
    check_golden(
        &combinational::vector5(),
        "combinational_vector5.txt",
        include_str!("golden/combinational_vector5.txt"),
    );
}

#[test]
fn golden_fsm_sequence_detector_101() {
    check_golden(
        &fsm::sequence_detector(&[1, 0, 1], SourceFamily::HdlBits),
        "fsm_seq101.txt",
        include_str!("golden/fsm_seq101.txt"),
    );
}

#[test]
fn golden_sequential_counter_up4() {
    check_golden(
        &sequential::counter_up(4, SourceFamily::HdlBits),
        "sequential_counter_up4.txt",
        include_str!("golden/sequential_counter_up4.txt"),
    );
}

#[test]
fn golden_memory_fifo8x4() {
    check_golden(
        &memory::fifo(8, 4, SourceFamily::VerilogEval),
        "memory_fifo8x4.txt",
        include_str!("golden/memory_fifo8x4.txt"),
    );
}

#[test]
fn golden_memory_regfile_dp8x8() {
    check_golden(
        &memory::register_file_dp(8, 8, SourceFamily::Rtllm),
        "memory_regfile_dp8x8.txt",
        include_str!("golden/memory_regfile_dp8x8.txt"),
    );
}

#[test]
fn golden_memory_byte_scratchpad16x8() {
    // Pins the lane-masked write path: per-byte enables merging into stored words.
    check_golden(
        &memory::byte_enable_scratchpad(16, 8, SourceFamily::VerilogEval),
        "memory_byte_scratchpad16x8.txt",
        include_str!("golden/memory_byte_scratchpad16x8.txt"),
    );
}

#[test]
fn golden_memory_sync_sram8x8() {
    // Pins the sequential-read path: the registered port's one-cycle lag and its
    // read-under-write old-data capture.
    check_golden(
        &memory::sync_sram(8, 8, SourceFamily::Rtllm),
        "memory_sync_sram8x8.txt",
        include_str!("golden/memory_sync_sram8x8.txt"),
    );
}
