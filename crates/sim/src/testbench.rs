//! Testbench framework: functional points, stimulus generation, and DUT-vs-reference
//! comparison.
//!
//! ReChisel's simulation feedback (paper §IV-B, "Functional Error") consists of the
//! failed functional points with their input stimuli, the expected outputs (from the
//! reference model) and the actual outputs (from the DUT). [`run_testbench`] produces
//! exactly that: a [`SimReport`] whose [`PointFailure`]s are handed to the Reviewer
//! agent as the error list.

use std::collections::BTreeMap;

use rechisel_firrtl::lower::Netlist;

use crate::engine::{EngineKind, SimEngine};
use crate::simulator::{SimError, Simulator};

/// One functional point: a set of input assignments, how many clock cycles to advance
/// after applying them, and whether to compare outputs afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalPoint {
    /// Input port assignments applied before the point is evaluated.
    pub inputs: Vec<(String, u128)>,
    /// Clock cycles to advance after applying the inputs (0 for purely combinational
    /// checks).
    pub cycles: u32,
    /// Whether outputs are compared at this point. Points with `check = false` are used
    /// to set up internal state.
    pub check: bool,
}

impl FunctionalPoint {
    /// A combinational check: apply inputs, settle, compare.
    pub fn comb(inputs: Vec<(String, u128)>) -> Self {
        Self { inputs, cycles: 0, check: true }
    }

    /// A sequential check: apply inputs, advance `cycles`, compare.
    pub fn seq(inputs: Vec<(String, u128)>, cycles: u32) -> Self {
        Self { inputs, cycles, check: true }
    }

    /// A setup step that drives inputs and advances the clock without checking.
    pub fn setup(inputs: Vec<(String, u128)>, cycles: u32) -> Self {
        Self { inputs, cycles, check: false }
    }
}

/// A testbench: a reset preamble followed by a sequence of functional points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Testbench {
    /// Cycles to hold reset at the start (0 to skip reset).
    pub reset_cycles: u32,
    /// The functional points, applied in order.
    pub points: Vec<FunctionalPoint>,
}

impl Testbench {
    /// Creates a testbench with the default two-cycle reset preamble.
    pub fn new(points: Vec<FunctionalPoint>) -> Self {
        Self { reset_cycles: 2, points }
    }

    /// Number of points that perform a check.
    pub fn checked_points(&self) -> usize {
        self.points.iter().filter(|p| p.check).count()
    }

    /// Generates a randomized testbench for a netlist interface.
    ///
    /// `cycles_per_point` of 0 produces a purely combinational testbench. The generator
    /// uses a simple deterministic xorshift so the same seed always produces the same
    /// stimuli (no global RNG, per the reproducibility requirements of the benchmark
    /// suite).
    pub fn random_for(netlist: &Netlist, points: usize, cycles_per_point: u32, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let inputs: Vec<(String, u32)> = netlist
            .data_inputs()
            .filter(|p| p.name != "reset")
            .map(|p| (p.name.clone(), p.info.width))
            .collect();
        let mut out = Vec::with_capacity(points);
        for _ in 0..points {
            let assignment = inputs
                .iter()
                .map(|(name, width)| {
                    let raw = next() as u128;
                    let masked = if *width >= 128 { raw } else { raw & ((1u128 << width) - 1) };
                    (name.clone(), masked)
                })
                .collect();
            out.push(FunctionalPoint { inputs: assignment, cycles: cycles_per_point, check: true });
        }
        Testbench::new(out)
    }
}

/// One failed functional point, with everything the Reviewer needs to reason about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Index of the point within the testbench.
    pub index: usize,
    /// The inputs applied.
    pub inputs: Vec<(String, u128)>,
    /// The reference model's outputs.
    pub expected: Vec<(String, u128)>,
    /// The DUT's outputs.
    pub actual: Vec<(String, u128)>,
}

impl PointFailure {
    /// The output ports whose values differ.
    pub fn mismatched_ports(&self) -> Vec<String> {
        let expected: BTreeMap<_, _> = self.expected.iter().cloned().collect();
        self.actual
            .iter()
            .filter(|(name, value)| expected.get(name).map(|e| e != value).unwrap_or(true))
            .map(|(name, _)| name.clone())
            .collect()
    }
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {}: inputs {{", self.index)?;
        for (i, (name, value)) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}} expected {{")?;
        for (i, (name, value)) in self.expected.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}} got {{")?;
        for (i, (name, value)) in self.actual.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}}")
    }
}

/// The outcome of running a testbench.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimReport {
    /// Number of checked functional points.
    pub total_points: usize,
    /// The failures, in point order.
    pub failures: Vec<PointFailure>,
}

impl SimReport {
    /// True when every checked point matched.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of checked points that passed.
    pub fn passed_points(&self) -> usize {
        self.total_points - self.failures.len()
    }

    /// Pass rate in [0, 1]; an empty testbench counts as passed.
    pub fn pass_rate(&self) -> f64 {
        if self.total_points == 0 {
            1.0
        } else {
            self.passed_points() as f64 / self.total_points as f64
        }
    }
}

/// Runs `testbench` against a DUT and a reference netlist, comparing outputs at every
/// checked point.
///
/// # Errors
///
/// Returns a [`SimError`] when either simulation fails structurally (e.g. the DUT is
/// missing a port that the testbench drives). Functional mismatches are *not* errors;
/// they are reported in the returned [`SimReport`].
pub fn run_testbench(
    dut: &Netlist,
    reference: &Netlist,
    testbench: &Testbench,
) -> Result<SimReport, SimError> {
    let mut dut_sim = Simulator::new(dut.clone());
    let mut ref_sim = Simulator::new(reference.clone());
    run_testbench_on(&mut dut_sim, &mut ref_sim, testbench)
}

/// Runs `testbench` against DUT and reference netlists using the chosen execution
/// engine — [`run_testbench`] with an [`EngineKind`] knob.
///
/// # Errors
///
/// Same conditions as [`run_testbench`]; additionally, [`EngineKind::Compiled`]
/// reports structural netlist problems eagerly (at tape compilation) instead of at the
/// first evaluation.
pub fn run_testbench_with(
    engine: EngineKind,
    dut: &Netlist,
    reference: &Netlist,
    testbench: &Testbench,
) -> Result<SimReport, SimError> {
    let mut dut_sim = engine.simulator(dut)?;
    let mut ref_sim = engine.simulator(reference)?;
    run_testbench_on(dut_sim.as_mut(), ref_sim.as_mut(), testbench)
}

/// Runs `testbench` against two already-constructed engines (not necessarily of the
/// same kind), comparing outputs at every checked point.
///
/// This is the engine-agnostic core of [`run_testbench`]: it records the reference's
/// outputs ([`record_reference_trace`]), then runs the DUT against them
/// ([`run_testbench_against_trace`]), so a live reference and a recorded one produce
/// the same report by construction.
///
/// Stimulus values that do not apply — ports missing on one side, or out-of-range
/// literals — are skipped on that side; a DUT whose interface does not match the
/// testbench simply diverges at the comparison.
///
/// # Errors
///
/// Returns a [`SimError`] when either simulation fails structurally, the reference's
/// first. Functional mismatches are *not* errors; they are reported in the returned
/// [`SimReport`].
pub fn run_testbench_on(
    dut_sim: &mut dyn SimEngine,
    ref_sim: &mut dyn SimEngine,
    testbench: &Testbench,
) -> Result<SimReport, SimError> {
    let trace = record_reference_trace(ref_sim, testbench)?;
    run_testbench_against_trace(dut_sim, &trace, testbench)
}

/// The reference model's outputs at every **checked** point of a testbench, in point
/// order — a pre-recorded "expected" side for [`run_testbench_against_trace`].
pub type OutputTrace = Vec<Vec<(String, u128)>>;

/// Walks `testbench` on the reference engine alone and records its outputs at every
/// checked point.
///
/// The trace depends only on the reference and the testbench, so a benchmark case can
/// record it **once** and compare every candidate DUT (every sample of the case)
/// against it — one reference tape walk per case instead of one per sample.
///
/// # Errors
///
/// Returns a [`SimError`] when the reference simulation fails structurally.
pub fn record_reference_trace(
    ref_sim: &mut dyn SimEngine,
    testbench: &Testbench,
) -> Result<OutputTrace, SimError> {
    if testbench.reset_cycles > 0 {
        ref_sim.reset(testbench.reset_cycles)?;
    }
    let mut trace = Vec::with_capacity(testbench.checked_points());
    for point in &testbench.points {
        for (name, value) in &point.inputs {
            let _ = ref_sim.poke(name, *value);
        }
        if point.cycles == 0 {
            ref_sim.eval()?;
        } else {
            ref_sim.step_n(point.cycles)?;
        }
        if point.check {
            trace.push(ref_sim.outputs());
        }
    }
    Ok(trace)
}

/// Runs `testbench` on a DUT engine alone, comparing every checked point against a
/// pre-recorded reference [`OutputTrace`].
///
/// The reference side is read from the trace instead of re-simulated per DUT; inputs
/// the DUT lacks (or that do not fit) are skipped, so a DUT whose interface does not
/// match the testbench diverges at the comparison.
///
/// # Errors
///
/// Returns a [`SimError`] when the DUT simulation fails structurally. Functional
/// mismatches are *not* errors; they are reported in the returned [`SimReport`].
pub fn run_testbench_against_trace(
    dut_sim: &mut dyn SimEngine,
    trace: &OutputTrace,
    testbench: &Testbench,
) -> Result<SimReport, SimError> {
    if testbench.reset_cycles > 0 {
        dut_sim.reset(testbench.reset_cycles)?;
    }
    let mut report = SimReport::default();
    let mut expected_at = trace.iter();
    for (index, point) in testbench.points.iter().enumerate() {
        for (name, value) in &point.inputs {
            let _ = dut_sim.poke(name, *value);
        }
        if point.cycles == 0 {
            dut_sim.eval()?;
        } else {
            dut_sim.step_n(point.cycles)?;
        }
        if !point.check {
            continue;
        }
        report.total_points += 1;
        let expected = expected_at.next().expect("trace covers every checked point");
        let actual = dut_sim.outputs();
        if *expected != actual {
            report.failures.push(PointFailure {
                index,
                inputs: point.inputs.clone(),
                expected: expected.clone(),
                actual,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    fn adder() -> Netlist {
        let mut m = ModuleBuilder::new("Adder");
        let a = m.input("a", Type::uint(8));
        let b = m.input("b", Type::uint(8));
        let out = m.output("out", Type::uint(9));
        m.connect(&out, &a.add(&b));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    fn broken_adder() -> Netlist {
        let mut m = ModuleBuilder::new("Adder");
        let a = m.input("a", Type::uint(8));
        let b = m.input("b", Type::uint(8));
        let out = m.output("out", Type::uint(9));
        // Off-by-one functional defect.
        m.connect(&out, &a.add(&b).add(&Signal::lit_w(1, 9)).bits(8, 0));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn identical_designs_pass() {
        let tb = Testbench::random_for(&adder(), 20, 0, 7);
        let report = run_testbench(&adder(), &adder(), &tb).unwrap();
        assert!(report.passed());
        assert_eq!(report.total_points, 20);
        assert_eq!(report.pass_rate(), 1.0);
    }

    #[test]
    fn functional_defect_is_detected_with_details() {
        let tb = Testbench::random_for(&adder(), 10, 0, 7);
        let report = run_testbench(&broken_adder(), &adder(), &tb).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 10);
        let failure = &report.failures[0];
        assert_eq!(failure.mismatched_ports(), vec!["out".to_string()]);
        let text = failure.to_string();
        assert!(text.contains("expected"));
        assert!(text.contains("got"));
    }

    #[test]
    fn random_testbench_is_deterministic() {
        let a = Testbench::random_for(&adder(), 5, 0, 42);
        let b = Testbench::random_for(&adder(), 5, 0, 42);
        let c = Testbench::random_for(&adder(), 5, 0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_testbench_exercises_state() {
        let counter = |bug: bool| {
            let mut m = ModuleBuilder::new("Counter");
            let en = m.input("en", Type::bool());
            let out = m.output("out", Type::uint(8));
            let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
            let step = if bug { 2 } else { 1 };
            m.when(&en, |m| {
                let next = count.add(&Signal::lit_w(step, 8)).bits(7, 0);
                m.connect(&count, &next);
            });
            m.connect(&out, &count);
            lower_circuit(&m.into_circuit()).unwrap()
        };
        let tb = Testbench::new(vec![
            FunctionalPoint::seq(vec![("en".into(), 1)], 1),
            FunctionalPoint::seq(vec![("en".into(), 1)], 1),
            FunctionalPoint::seq(vec![("en".into(), 0)], 1),
        ]);
        let ok = run_testbench(&counter(false), &counter(false), &tb).unwrap();
        assert!(ok.passed());
        let bad = run_testbench(&counter(true), &counter(false), &tb).unwrap();
        assert!(!bad.passed());
        assert_eq!(bad.total_points, 3);
    }

    #[test]
    fn engines_produce_identical_reports() {
        let tb = Testbench::random_for(&adder(), 16, 0, 9);
        let interp =
            run_testbench_with(EngineKind::Interp, &broken_adder(), &adder(), &tb).unwrap();
        let compiled =
            run_testbench_with(EngineKind::Compiled, &broken_adder(), &adder(), &tb).unwrap();
        assert_eq!(interp, compiled);
        assert!(!compiled.passed());
        // The legacy entry point is the interpreter path.
        assert_eq!(run_testbench(&broken_adder(), &adder(), &tb).unwrap(), interp);
        // Mixed engines agree too: the interpreter DUT vs the compiled reference.
        let mut dut = Simulator::new(adder());
        let mut reference = EngineKind::Compiled.simulator(&adder()).unwrap();
        let mixed = run_testbench_on(&mut dut, reference.as_mut(), &tb).unwrap();
        assert!(mixed.passed());
    }

    #[test]
    fn setup_points_are_not_checked() {
        let tb = Testbench::new(vec![
            FunctionalPoint::setup(vec![("a".into(), 1), ("b".into(), 2)], 0),
            FunctionalPoint::comb(vec![("a".into(), 3), ("b".into(), 4)]),
        ]);
        assert_eq!(tb.checked_points(), 1);
        let report = run_testbench(&adder(), &adder(), &tb).unwrap();
        assert_eq!(report.total_points, 1);
    }
}
