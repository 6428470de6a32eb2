//! Golden-vector regression tests: per-cycle output traces pinned to files.
//!
//! One reference circuit per suite family (arithmetic / combinational / fsm /
//! sequential) is driven with its deterministic per-case testbench stimulus, and the
//! full per-cycle output trace is compared against a stored golden file — by **both**
//! simulation engines. This pins simulator behaviour across refactors: a change to
//! evaluation semantics, lowering, or the stimulus generator shows up as a readable
//! trace diff instead of a silent shift in benchmark results.
//!
//! The emitted Verilog of every suite reference is pinned too, as one FNV-1a-64
//! digest per case in `tests/golden/suite_verilog.txt`: an emitter change that moves
//! one byte of any reference's text names the cases it moved.
//!
//! Lowering and emission are pinned beyond the references too: one digest each over
//! the Verilog of every design that lowers in two seeded scans of unchecked designs,
//! defect chains of the suite references and generated circuits. The two digests and
//! lowered counts live in `golden_lowering_scan` itself.
//!
//! The feedback text the Reviewer and the Inspector read is pinned the same way: one
//! digest over the rendered functional feedback of every defect chain that compiles
//! but fails its testbench, written in `golden_feedback_scan`.
//!
//! To regenerate the stored files after an intentional change, run with
//! `RECHISEL_BLESS=1` and commit the rewritten files; such a change also updates the
//! scan's digests by hand, from the values its failure prints.

mod common;

use std::fmt::Write as _;

use common::with_defect_chain;
use rechisel_benchsuite::circuits::{arithmetic, combinational, fsm, memory, sequential};
use rechisel_benchsuite::{
    full_suite, random_circuit, BenchmarkCase, RandomCircuitConfig, SourceFamily,
};
use rechisel_core::{
    Candidate, ChiselCompiler, CommonErrorKnowledge, Feedback, Reviewer, TemplateReviewer, Trace,
};
use rechisel_firrtl::{lower_circuit, Circuit};
use rechisel_sim::{EngineKind, SimEngine, Testbench};
use rechisel_verilog::emit_verilog;

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

/// The FNV-1a, 64 bit, offset basis: the digest of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit, over `bytes`, continuing from `hash`.
fn fnv1a64_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, b| (hash ^ u64::from(*b)).wrapping_mul(0x1000_0000_01b3))
}

/// FNV-1a, 64 bit, over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_BASIS, bytes)
}

/// [`fnv1a64_from`] with the standard 64-bit FNV prime, `0x100_0000_01b3`.
///
/// `fnv1a64_from` multiplies by `0x1000_0000_01b3`, the constant every hash in the
/// workspace uses; the digests pinned with it keep it.
fn fnv1a64_std_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, b| (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn golden_suite_verilog() {
    // One line per reference, in suite order: the case id and the digest of the
    // Verilog emitted from its lowered netlist.
    let mut got = String::new();
    for case in full_suite() {
        let netlist = lower_circuit(case.reference()).expect("suite references lower");
        let verilog = emit_verilog(&netlist)
            .unwrap_or_else(|e| panic!("reference {} failed to emit: {e}", case.id));
        writeln!(got, "{} {:016x}", case.id, fnv1a64(verilog.as_bytes())).unwrap();
    }
    if std::env::var("RECHISEL_BLESS").is_ok() {
        let path = format!("{}/tests/golden/suite_verilog.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let golden = include_str!("golden/suite_verilog.txt");
    for (got, want) in got.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "emitted Verilog diverges from tests/golden/suite_verilog.txt \
             (run with RECHISEL_BLESS=1 to re-record after an intentional change)"
        );
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "the suite changed size");
}

/// FNV-1a-64 over, for each of `designs` that lowers and in order, `0x01` followed by
/// its emitted Verilog; and the number that lowered. A design that lowers must emit.
fn lowered_verilog_digest(designs: impl Iterator<Item = Circuit>) -> (String, usize) {
    let (mut hash, mut lowered) = (FNV_BASIS, 0);
    for circuit in designs {
        let Ok(netlist) = lower_circuit(&circuit) else { continue };
        let verilog = emit_verilog(&netlist).expect("a lowered design emits");
        hash = fnv1a64_from(fnv1a64_from(hash, &[1]), verilog.as_bytes());
        lowered += 1;
    }
    (format!("{hash:016x}"), lowered)
}

#[test]
fn golden_lowering_scan() {
    // Seed `i` breaks `suite[i % 216]` with a chain of 1-4 defects.
    let suite = full_suite();
    let chains = (0..20_000u64).map(|i| {
        with_defect_chain(suite[(i % suite.len() as u64) as usize].reference().clone(), i)
    });
    assert_eq!(lowered_verilog_digest(chains), ("28a3e92f27204278".to_owned(), 9_604));
    // Per seed: a default and a wide generated circuit, then the default one broken.
    let (default, wide) = (RandomCircuitConfig::default(), RandomCircuitConfig::wide());
    let generated = (0..5_000u64).flat_map(|s| {
        let narrow = random_circuit(s, &default);
        [narrow.clone(), random_circuit(s, &wide), with_defect_chain(narrow, s)]
    });
    assert_eq!(lowered_verilog_digest(generated), ("9073d3734a7b632f".to_owned(), 12_552));
}

#[test]
fn golden_feedback_scan() {
    // Seed `i` breaks `suite[i % 216]` with a chain of 1-4 defects, as in the lowering
    // scan. Every chain that compiles but fails its testbench is rendered the way the
    // Reviewer and the Inspector read it: the report, the identity keys, and the
    // revision plan with its subjects. FNV-1a-64 over those, each design's starting
    // with 0x01 and its first two parts ending with 0x00.
    let suite = full_suite();
    let compiler = ChiselCompiler::new();
    let knowledge = CommonErrorKnowledge::standard();
    let (mut hash, mut designs, mut points) = (FNV_BASIS, 0, 0);
    for i in 0..20_000u64 {
        let case = &suite[(i % suite.len() as u64) as usize];
        let circuit = with_defect_chain(case.reference().clone(), i);
        let Ok(compiled) = compiler.compile(&circuit) else { continue };
        let report = case.tester().test(&compiled.netlist);
        let interp = case.tester_with_engine(EngineKind::Interp).test(&compiled.netlist);
        assert_eq!(interp, report, "case {} chain {i}: the engines report differently", case.id);
        if report.passed() {
            continue;
        }
        designs += 1;
        points += report.failures.len();
        let feedback =
            Feedback::Functional { failures: report.failures, total_points: report.total_points };
        hash = fnv1a64_std_from(hash, &[1]);
        hash = fnv1a64_std_from(hash, feedback.to_report().as_bytes());
        hash = fnv1a64_std_from(hash, &[0]);
        hash = fnv1a64_std_from(hash, feedback.identity_keys().join("\n").as_bytes());
        hash = fnv1a64_std_from(hash, &[0]);
        let plan = TemplateReviewer::new().review(
            &Candidate::new(0, 0, circuit),
            &feedback,
            &Trace::new(),
            &knowledge,
        );
        hash = fnv1a64_std_from(hash, plan.to_text().as_bytes());
        for item in &plan.items {
            hash = fnv1a64_std_from(hash, format!("{:?}", item.subject).as_bytes());
        }
    }
    assert_eq!(
        (format!("{hash:016x}"), designs, points),
        ("bb9afd74bdf90ac9".to_owned(), 2_377, 60_484)
    );
}
