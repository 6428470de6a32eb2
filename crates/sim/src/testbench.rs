//! Testbench framework: functional points, stimulus generation, and DUT-vs-reference
//! comparison.
//!
//! ReChisel's simulation feedback (paper §IV-B, "Functional Error") consists of the
//! failed functional points with their input stimuli, the expected outputs (from the
//! reference model) and the actual outputs (from the DUT). [`run_testbench`] produces
//! exactly that: a [`SimReport`] whose [`PointFailure`]s are handed to the Reviewer
//! agent as the error list.
//!
//! The runner works on ports and values, and names are attached only when a failure is
//! rendered. A [`Stimulus`] is a testbench with its input names interned; each run
//! resolves them to DUT ports once ([`SimEngine::input_port`]) and compares the DUT's
//! outputs in place against a flat [`OutputTrace`] row, so a passing point allocates
//! nothing. A failure is compact: its point index, its trace row and the DUT's values.
//! The failures of a run share one context (the stimulus, the trace and the DUT's
//! output names), from which [`PointFailure::inputs`], [`PointFailure::expected`] and
//! [`PointFailure::actual`] render their name/value pairs.

use std::sync::Arc;

use rechisel_firrtl::lower::Netlist;

use crate::engine::{InputPort, SimEngine};
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

/// A testbench with its input names interned: each distinct name once, and every
/// point's pokes as (name, value) index pairs over that table.
///
/// A runner resolves each interned name to a port of the engine it drives once per
/// run ([`SimEngine::input_port`]), so no point looks a port up by name. The pokes
/// keep the testbench's order, repeats included, and render back to its pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    reset_cycles: u32,
    /// The distinct input names, in first-use order.
    names: Vec<String>,
    /// Every point's pokes, point after point: the index of the name in `names`...
    ids: Vec<u32>,
    /// ...and the value driven.
    values: Vec<u128>,
    /// Per point: where its pokes end in `ids`/`values`, its cycles, and whether its
    /// outputs are checked.
    points: Vec<(usize, u32, bool)>,
}

impl Stimulus {
    /// Interns `testbench`'s input names.
    pub fn new(testbench: &Testbench) -> Self {
        let mut stimulus = Stimulus {
            reset_cycles: testbench.reset_cycles,
            names: Vec::new(),
            ids: Vec::new(),
            values: Vec::new(),
            points: Vec::with_capacity(testbench.points.len()),
        };
        for point in &testbench.points {
            for (name, value) in &point.inputs {
                let id = match stimulus.names.iter().position(|known| known == name) {
                    Some(id) => id,
                    None => {
                        stimulus.names.push(name.clone());
                        stimulus.names.len() - 1
                    }
                };
                stimulus.ids.push(u32::try_from(id).expect("fewer than 2^32 input names"));
                stimulus.values.push(*value);
            }
            stimulus.points.push((stimulus.ids.len(), point.cycles, point.check));
        }
        stimulus
    }

    /// The inputs of point `index`, as the testbench lists them.
    fn inputs(&self, index: usize) -> PortValues<'_> {
        let start = index.checked_sub(1).map_or(0, |before| self.points[before].0);
        let end = self.points[index].0;
        PortValues {
            names: &self.names,
            ids: Some(&self.ids[start..end]),
            values: &self.values[start..end],
        }
    }

    /// Resets `sim`, then applies every point in order, calling `checked` with the
    /// point index after each checked point.
    ///
    /// Each input name resolves to a port of `sim` once. A poke the engine cannot
    /// take is skipped: a name that is not one of its inputs, or a value wider than
    /// the port, which then keeps its previous value.
    fn drive<E: SimEngine + ?Sized>(
        &self,
        sim: &mut E,
        mut checked: impl FnMut(usize, &E),
    ) -> Result<(), SimError> {
        if self.reset_cycles > 0 {
            sim.reset(self.reset_cycles)?;
        }
        let ports: Vec<Option<InputPort>> =
            self.names.iter().map(|name| sim.input_port(name)).collect();
        let mut start = 0;
        for (index, &(end, cycles, check)) in self.points.iter().enumerate() {
            for (id, value) in self.ids[start..end].iter().zip(&self.values[start..end]) {
                if let Some(port) = ports[*id as usize] {
                    sim.poke_input(port, *value);
                }
            }
            start = end;
            if cycles == 0 {
                sim.eval()?;
            } else {
                sim.step_n(cycles)?;
            }
            if check {
                checked(index, sim);
            }
        }
        Ok(())
    }
}

/// Name/value pairs of a failed point, read from the context its run shares: the
/// testbench's inputs, the reference's outputs or the DUT's.
///
/// `Debug` prints a list of `(name, value)` tuples and `Display` prints
/// `name=value, ...`, both exactly as the pairs were printed when each failure owned
/// them.
#[derive(Clone, Copy)]
pub struct PortValues<'a> {
    names: &'a [String],
    /// Which name each value belongs to; `None` when `values[i]` is `names[i]`'s.
    ids: Option<&'a [u32]>,
    values: &'a [u128],
}

impl<'a> PortValues<'a> {
    /// No pairs at all.
    const EMPTY: PortValues<'static> = PortValues { names: &[], ids: None, values: &[] };

    /// The pairs, in order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&'a str, u128)> + ExactSizeIterator + 'a {
        let PortValues { names, ids, values } = *self;
        values.iter().enumerate().map(move |(i, value)| {
            let name = ids.map_or(i, |ids| ids[i] as usize);
            (names[name].as_str(), *value)
        })
    }
}

impl PartialEq for PortValues<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PortValues<'_> {}

impl std::fmt::Debug for PortValues<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::fmt::Display for PortValues<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

/// What every failure of one run shares, and renders its pairs from.
#[derive(Debug)]
struct FailureContext {
    stimulus: Arc<Stimulus>,
    trace: Arc<OutputTrace>,
    /// The DUT's output names, in its port order.
    dut_outputs: Vec<String>,
    /// The DUT's output values at each failed point, failure after failure.
    actual: Vec<u128>,
}

/// One failed functional point, with everything the Reviewer needs to reason about it.
///
/// A failure is compact: its point index, its row of the reference trace and where
/// its DUT values are, plus a reference count on the context that every failure of
/// its run shares (the stimulus, the reference trace, and the DUT's output names and
/// values). [`inputs`](Self::inputs), [`expected`](Self::expected) and
/// [`actual`](Self::actual) read the name/value pairs from that context. Equality and
/// `Debug` go by those pairs, so reports of the same design from different runs or
/// engines compare equal.
#[derive(Clone)]
pub struct PointFailure {
    /// Index of the point within the testbench.
    pub index: usize,
    /// The point of the shared stimulus whose inputs were applied.
    point: u32,
    /// The checked point's row in the reference trace.
    row: u32,
    /// Which of its run's failures this is: where its DUT values start.
    ordinal: u32,
    /// `None` for a failure with nothing attached.
    context: Option<Arc<FailureContext>>,
}

impl PointFailure {
    /// A failure with nothing attached: no inputs, no expected and no actual values.
    /// The tester reports every point of a DUT it cannot simulate this way.
    pub fn bare(index: usize) -> Self {
        Self { index, point: 0, row: 0, ordinal: 0, context: None }
    }

    /// A failure of point `index` with explicit name/value pairs.
    pub fn from_pairs(
        index: usize,
        inputs: &[(&str, u128)],
        expected: &[(&str, u128)],
        actual: &[(&str, u128)],
    ) -> Self {
        let point = FunctionalPoint::comb(
            inputs.iter().map(|(name, value)| (name.to_string(), *value)).collect(),
        );
        let context = FailureContext {
            stimulus: Arc::new(Stimulus::new(&Testbench::new(vec![point]))),
            trace: Arc::new(OutputTrace {
                names: expected.iter().map(|(name, _)| name.to_string()).collect(),
                values: expected.iter().map(|(_, value)| *value).collect(),
                rows: 1,
            }),
            dut_outputs: actual.iter().map(|(name, _)| name.to_string()).collect(),
            actual: actual.iter().map(|(_, value)| *value).collect(),
        };
        Self { index, point: 0, row: 0, ordinal: 0, context: Some(Arc::new(context)) }
    }

    /// The inputs applied, as the testbench lists them.
    pub fn inputs(&self) -> PortValues<'_> {
        match &self.context {
            Some(context) => context.stimulus.inputs(self.point as usize),
            None => PortValues::EMPTY,
        }
    }

    /// The reference model's outputs, in its port order.
    pub fn expected(&self) -> PortValues<'_> {
        match &self.context {
            Some(context) => {
                let trace = &context.trace;
                let values = trace.row(self.row as usize);
                PortValues { names: &trace.names, ids: None, values }
            }
            None => PortValues::EMPTY,
        }
    }

    /// The DUT's outputs, in its port order.
    pub fn actual(&self) -> PortValues<'_> {
        match &self.context {
            Some(context) => {
                let width = context.dut_outputs.len();
                let start = self.ordinal as usize * width;
                PortValues {
                    names: &context.dut_outputs,
                    ids: None,
                    values: &context.actual[start..start + width],
                }
            }
            None => PortValues::EMPTY,
        }
    }

    /// The DUT's output ports whose values differ from the reference's output of the
    /// same name, or that the reference lacks, in the DUT's port order.
    pub fn mismatched_ports(&self) -> Vec<&str> {
        let expected = self.expected();
        self.actual()
            .iter()
            .filter(|(name, value)| {
                // The last expected value of a name counts, should one repeat.
                expected.iter().rev().find(|(e, _)| e == name).is_none_or(|(_, e)| e != *value)
            })
            .map(|(name, _)| name)
            .collect()
    }
}

impl PartialEq for PointFailure {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.inputs() == other.inputs()
            && self.expected() == other.expected()
            && self.actual() == other.actual()
    }
}

impl Eq for PointFailure {}

impl std::fmt::Debug for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointFailure")
            .field("index", &self.index)
            .field("inputs", &self.inputs())
            .field("expected", &self.expected())
            .field("actual", &self.actual())
            .finish()
    }
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {}: inputs {{{}}} expected {{{}}} got {{{}}}",
            self.index,
            self.inputs(),
            self.expected(),
            self.actual()
        )
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

/// Runs `testbench` against a DUT and a reference netlist on the interpreter,
/// comparing outputs at every checked point.
///
/// This is the one-shot convenience runner: it interns the testbench ([`Stimulus`]),
/// records the reference's outputs ([`record_reference_trace`]), then runs the DUT
/// against them ([`run_testbench_against_trace`]). A caller that tests many DUTs
/// against one reference, or wants another engine, keeps those pieces and reuses
/// them.
///
/// Stimulus values that do not apply — ports missing on one side, or out-of-range
/// literals — are skipped on that side; a DUT whose interface does not match the
/// testbench simply diverges at the comparison.
///
/// # Errors
///
/// Returns a [`SimError`] when either simulation fails structurally (e.g. the DUT is
/// missing a port that the testbench drives), the reference's first. Functional
/// mismatches are *not* errors; they are reported in the returned [`SimReport`].
pub fn run_testbench(
    dut: &Netlist,
    reference: &Netlist,
    testbench: &Testbench,
) -> Result<SimReport, SimError> {
    let stimulus = Arc::new(Stimulus::new(testbench));
    let trace =
        Arc::new(record_reference_trace(&mut Simulator::new(reference.clone()), &stimulus)?);
    run_testbench_against_trace(&mut Simulator::new(dut.clone()), &trace, &stimulus)
}

/// The reference model's outputs at every **checked** point of a testbench — a
/// pre-recorded "expected" side for [`run_testbench_against_trace`]: the output
/// names once, in port order, then one row of values per checked point, in point
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutputTrace {
    names: Vec<String>,
    /// The rows, one after another.
    values: Vec<u128>,
    rows: usize,
}

impl OutputTrace {
    /// The reference's output names, in port order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of rows: the testbench's checked points.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The outputs at the `k`-th checked point, in the order of
    /// [`names`](Self::names).
    ///
    /// # Panics
    ///
    /// Panics when `k` is not below [`rows`](Self::rows).
    pub fn row(&self, k: usize) -> &[u128] {
        assert!(k < self.rows, "row {k} of a {}-row trace", self.rows);
        let width = self.names.len();
        &self.values[k * width..(k + 1) * width]
    }
}

/// Walks `stimulus` on the reference engine alone and records its outputs at every
/// checked point.
///
/// The trace depends only on the reference and the testbench, so a benchmark case can
/// record it **once** and compare every candidate DUT (every sample of the case)
/// against it — one reference tape walk per case instead of one per sample.
///
/// # Errors
///
/// Returns a [`SimError`] when the reference simulation fails structurally.
pub fn record_reference_trace<E: SimEngine + ?Sized>(
    ref_sim: &mut E,
    stimulus: &Stimulus,
) -> Result<OutputTrace, SimError> {
    let names = ref_sim.output_names().into_iter().map(str::to_owned).collect();
    let (mut values, mut rows) = (Vec::new(), 0);
    stimulus.drive(ref_sim, |_, sim| {
        sim.read_outputs(&mut values);
        rows += 1;
    })?;
    Ok(OutputTrace { names, values, rows })
}

/// Runs `stimulus` on a DUT engine alone, comparing every checked point against a
/// pre-recorded reference [`OutputTrace`].
///
/// The reference side is read from the trace instead of re-simulated per DUT. Each
/// input name resolves to a DUT port once; inputs the DUT lacks (or values that do
/// not fit) are skipped. The DUT's output names are compared with the trace's once:
/// when they differ (in order), every checked point fails. A point compares the
/// DUT's values with its trace row in place, so a passing point allocates nothing.
/// The failures share one context — `stimulus`, `trace` and the DUT's output names —
/// from which they render their name/value pairs.
///
/// # Errors
///
/// Returns a [`SimError`] when the DUT simulation fails structurally. Functional
/// mismatches are *not* errors; they are reported in the returned [`SimReport`].
pub fn run_testbench_against_trace<E: SimEngine + ?Sized>(
    dut_sim: &mut E,
    trace: &Arc<OutputTrace>,
    stimulus: &Arc<Stimulus>,
) -> Result<SimReport, SimError> {
    let same_outputs =
        dut_sim.output_names().into_iter().eq(trace.names.iter().map(String::as_str));
    let mut report = SimReport::default();
    let mut actual = Vec::with_capacity(trace.names.len());
    stimulus.drive(dut_sim, |index, sim| {
        let (row, start) = (report.total_points, actual.len());
        report.total_points += 1;
        sim.read_outputs(&mut actual);
        if same_outputs && actual[start..] == *trace.row(row) {
            actual.truncate(start);
        } else {
            let narrow = |n: usize| u32::try_from(n).expect("fewer than 2^32 points");
            let (point, row, ordinal) = (narrow(index), narrow(row), narrow(report.failures.len()));
            report.failures.push(PointFailure { index, point, row, ordinal, context: None });
        }
    })?;
    if !report.failures.is_empty() {
        let context = Arc::new(FailureContext {
            stimulus: Arc::clone(stimulus),
            trace: Arc::clone(trace),
            dut_outputs: dut_sim.output_names().into_iter().map(str::to_owned).collect(),
            actual,
        });
        for failure in &mut report.failures {
            failure.context = Some(Arc::clone(&context));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
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
        let stimulus = Arc::new(Stimulus::new(&tb));
        let run = |reference: EngineKind, dut: EngineKind, design: &Netlist| {
            let mut ref_sim = reference.simulator(&adder()).unwrap();
            let trace = Arc::new(record_reference_trace(ref_sim.as_mut(), &stimulus).unwrap());
            let mut dut_sim = dut.simulator(design).unwrap();
            run_testbench_against_trace(dut_sim.as_mut(), &trace, &stimulus).unwrap()
        };
        let interp = run(EngineKind::Interp, EngineKind::Interp, &broken_adder());
        assert!(!interp.passed());
        assert_eq!(run(EngineKind::Compiled, EngineKind::Compiled, &broken_adder()), interp);
        // The convenience runner is the interpreter on both sides.
        assert_eq!(run_testbench(&broken_adder(), &adder(), &tb).unwrap(), interp);
        // Mixed engines agree too: an interpreter DUT against a compiled reference.
        assert_eq!(run(EngineKind::Compiled, EngineKind::Interp, &broken_adder()), interp);
        assert!(run(EngineKind::Compiled, EngineKind::Interp, &adder()).passed());
    }

    #[test]
    fn the_reference_trace_is_flat_and_failures_render_from_it() {
        let tb = Testbench::new(vec![
            FunctionalPoint::setup(vec![("a".into(), 9), ("b".into(), 9)], 0),
            FunctionalPoint::comb(vec![("a".into(), 1), ("b".into(), 2)]),
            FunctionalPoint::comb(vec![("a".into(), 3), ("b".into(), 4)]),
        ]);
        let stimulus = Arc::new(Stimulus::new(&tb));
        let trace = record_reference_trace(&mut Simulator::new(adder()), &stimulus).unwrap();
        assert_eq!(trace.names(), ["out".to_string()]);
        assert_eq!(trace.rows(), 2);
        assert_eq!((trace.row(0), trace.row(1)), (&[3][..], &[7][..]));

        let trace = Arc::new(trace);
        let mut dut = Simulator::new(broken_adder());
        let report = run_testbench_against_trace(&mut dut, &trace, &stimulus).unwrap();
        let failure = &report.failures[1];
        assert_eq!((failure.index, failure.mismatched_ports()), (2, vec!["out"]));
        // A failure built from the same pairs equals it, and both print the pairs the
        // way a failure that owned them did.
        let built =
            PointFailure::from_pairs(2, &[("a", 3), ("b", 4)], &[("out", 7)], &[("out", 8)]);
        assert_eq!(*failure, built);
        assert_eq!(
            format!("{built:?}"),
            r#"PointFailure { index: 2, inputs: [("a", 3), ("b", 4)], expected: [("out", 7)], actual: [("out", 8)] }"#
        );
        assert_eq!(built.to_string(), "point 2: inputs {a=3, b=4} expected {out=7} got {out=8}");
        assert_eq!(PointFailure::bare(2).to_string(), "point 2: inputs {} expected {} got {}");
        assert_ne!(PointFailure::bare(2), built);
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
