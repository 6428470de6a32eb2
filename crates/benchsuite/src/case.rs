//! Benchmark case definitions.
//!
//! The ReChisel evaluation uses 216 module-level cases drawn from VerilogEval's
//! Spec-to-RTL, AutoChip's HDLBits and RTLLM (paper §V-A). Each case consists of a
//! specification (functional description + I/O definitions), a reference implementation
//! used to judge functional correctness, and a testbench. [`BenchmarkCase`] carries
//! exactly those pieces, built on this repository's substrate.

use std::sync::OnceLock;

use rechisel_core::{FunctionalTester, PortSpec, Spec};
use rechisel_firrtl::ir::{Circuit, Direction};
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::lower_circuit;
use rechisel_llm::rng::fnv1a64;
use rechisel_sim::{EngineKind, Testbench};

/// Which benchmark family a case is modelled after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceFamily {
    /// VerilogEval Spec-to-RTL.
    VerilogEval,
    /// AutoChip's HDLBits problem set.
    HdlBits,
    /// The RTLLM benchmark.
    Rtllm,
}

impl std::fmt::Display for SourceFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceFamily::VerilogEval => write!(f, "VerilogEval"),
            SourceFamily::HdlBits => write!(f, "HDLBits"),
            SourceFamily::Rtllm => write!(f, "RTLLM"),
        }
    }
}

/// Design category of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Pure combinational logic (gates, muxes, encoders).
    Combinational,
    /// Arithmetic datapaths (adders, ALUs, comparators).
    Arithmetic,
    /// Vector / bit-manipulation designs.
    BitManipulation,
    /// Registers, counters and shift registers.
    Sequential,
    /// Finite state machines.
    Fsm,
    /// RAM-backed designs (register files, FIFOs, caches, delay lines).
    Memory,
    /// Clock-domain-crossing designs (synchronizers, async FIFOs, handshakes).
    Cdc,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Combinational => write!(f, "combinational"),
            Category::Arithmetic => write!(f, "arithmetic"),
            Category::BitManipulation => write!(f, "bit-manipulation"),
            Category::Sequential => write!(f, "sequential"),
            Category::Fsm => write!(f, "fsm"),
            Category::Memory => write!(f, "memory"),
            Category::Cdc => write!(f, "cdc"),
        }
    }
}

/// One benchmark case.
#[derive(Debug)]
pub struct BenchmarkCase {
    /// Unique id, e.g. `hdlbits/vector5`.
    pub id: String,
    /// Which benchmark family the case is modelled after.
    pub family: SourceFamily,
    /// Design category.
    pub category: Category,
    /// The specification handed to the Generator.
    pub spec: Spec,
    /// The reference implementation. Private so it cannot be swapped after the
    /// tester cache below is populated; read it via [`reference`](Self::reference).
    reference: Circuit,
    /// Number of functional points in the testbench.
    pub test_points: usize,
    /// Clock cycles advanced per functional point (0 = combinational check).
    pub cycles_per_point: u32,
    /// Lazily built tester prototype, which owns the case's one lowered reference
    /// netlist; [`tester`](Self::tester) hands out clones so the per-sample cost is a
    /// few reference counts, not a recompile or a testbench regeneration.
    tester_cache: OnceLock<FunctionalTester>,
}

impl Clone for BenchmarkCase {
    /// Clones the case with a fresh (empty) cache; the clone re-derives it on first
    /// use from its own IR.
    fn clone(&self) -> Self {
        Self {
            id: self.id.clone(),
            family: self.family,
            category: self.category,
            spec: self.spec.clone(),
            reference: self.reference.clone(),
            test_points: self.test_points,
            cycles_per_point: self.cycles_per_point,
            tester_cache: OnceLock::new(),
        }
    }
}

impl BenchmarkCase {
    /// Builds a case, deriving the spec's port list from the reference circuit's
    /// interface (excluding the implicit clock and reset).
    pub fn new(
        id: impl Into<String>,
        family: SourceFamily,
        category: Category,
        description: impl Into<String>,
        reference: Circuit,
        test_points: usize,
        cycles_per_point: u32,
    ) -> Self {
        let id = id.into();
        let top = reference.top_module().expect("reference circuit has a top module");
        let ports = top
            .ports
            .iter()
            .filter(|p| p.name != "clock" && p.name != "reset")
            .map(|p| PortSpec { name: p.name.clone(), direction: p.direction, ty: p.ty.clone() })
            .collect();
        let spec = Spec::new(top.name.clone(), description, ports);
        Self {
            id,
            family,
            category,
            spec,
            reference,
            test_points,
            cycles_per_point,
            tester_cache: OnceLock::new(),
        }
    }

    /// The reference implementation.
    pub fn reference(&self) -> &Circuit {
        &self.reference
    }

    /// Unwraps the reference implementation (drops the cache).
    pub fn into_reference(self) -> Circuit {
        self.reference
    }

    /// A stable per-case seed derived from the id: [`fnv1a64`] over its bytes, stable
    /// across runs and platforms.
    pub fn seed(&self) -> u64 {
        fnv1a64(self.id.as_bytes())
    }

    /// True for purely combinational cases.
    pub fn is_combinational(&self) -> bool {
        self.cycles_per_point == 0
    }

    /// Number of data input bits in the interface.
    pub fn input_bits(&self) -> u32 {
        self.spec
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Input)
            .filter_map(|p| p.ty.width())
            .sum()
    }

    /// The compiled reference netlist: the tester prototype's, lowered on first use
    /// and cached per instance (clones start with a fresh cache).
    ///
    /// # Panics
    ///
    /// Panics if the reference design does not compile — reference designs are part of
    /// the suite and are validated by the suite's tests.
    pub fn reference_netlist(&self) -> &Netlist {
        self.prototype().reference()
    }

    /// Builds the functional tester (reference netlist + testbench) for this case.
    ///
    /// The tester is built once per case instance and cached; repeated calls — one per
    /// sample in a sweep — pay only a clone, which copies reference counts: the
    /// reference netlist and the testbench are shared, not lowered, regenerated or
    /// deep-copied. (The testbench is seeded by [`seed`](Self::seed), so sharing it and
    /// regenerating it are identical.) Clones also share the prototype's lazily recorded
    /// **reference output trace**, so on the compiled simulation engine the whole sweep
    /// compiles *and simulates* each reference **once per case** — every sample's DUT
    /// is compared against that one shared reference walk instead of re-running the
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference design does not compile — reference designs are part of
    /// the suite and are validated by the suite's tests.
    pub fn tester(&self) -> FunctionalTester {
        self.prototype().clone()
    }

    /// The cached tester prototype, built on first use.
    fn prototype(&self) -> &FunctionalTester {
        self.tester_cache.get_or_init(|| {
            let netlist = lower_circuit(&self.reference)
                .unwrap_or_else(|e| panic!("reference design {} failed to lower: {e}", self.id));
            let testbench = Testbench::random_for(
                &netlist,
                self.test_points,
                self.cycles_per_point,
                self.seed(),
            );
            FunctionalTester::new(netlist, testbench)
        })
    }

    /// Like [`tester`](Self::tester), but with an explicit simulation engine. The
    /// returned tester still shares this case's cached reference netlist and
    /// testbench. On the prototype's engine (compiled) it shares the case's reference
    /// trace too, recorded once when such a tester first runs; on the other engine it
    /// records a trace of its own on first use, which lives only as long as that
    /// tester and its clones.
    pub fn tester_with_engine(&self, engine: EngineKind) -> FunctionalTester {
        self.tester().with_engine(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_hcl::prelude::*;

    fn tiny_case() -> BenchmarkCase {
        let mut m = ModuleBuilder::new("Buf");
        let a = m.input("a", Type::bool());
        let y = m.output("y", Type::bool());
        m.connect(&y, &a);
        BenchmarkCase::new(
            "test/buf",
            SourceFamily::HdlBits,
            Category::Combinational,
            "Pass the input through.",
            m.into_circuit(),
            8,
            0,
        )
    }

    #[test]
    fn spec_ports_exclude_clock_and_reset() {
        let case = tiny_case();
        assert_eq!(case.spec.ports.len(), 2);
        assert!(case.spec.ports.iter().all(|p| p.name != "clock" && p.name != "reset"));
        assert_eq!(case.spec.name, "Buf");
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = tiny_case();
        assert_eq!(a.seed(), tiny_case().seed());
        let mut b = tiny_case();
        b.id = "test/other".into();
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn reference_netlist_is_cached_per_instance() {
        let case = tiny_case();
        let first = case.reference_netlist() as *const Netlist;
        let again = case.reference_netlist() as *const Netlist;
        assert_eq!(first, again, "repeated calls must hit the cache");
        // Clones get a fresh cache (so a clone with a replaced `reference` can never
        // see the original's netlist), but derive an equal netlist from the same IR.
        let clone = case.clone();
        let cloned = clone.reference_netlist() as *const Netlist;
        assert_ne!(first, cloned, "clones must not share the cache");
        assert_eq!(case.reference_netlist(), clone.reference_netlist());
    }

    #[test]
    fn tester_builds_and_passes_reference_against_itself() {
        let case = tiny_case();
        let tester = case.tester();
        let report = tester.test(tester.reference());
        assert!(report.passed());
        assert!(case.is_combinational());
        assert_eq!(case.input_bits(), 1);
    }

    #[test]
    fn tester_with_engine_selects_the_engine_and_agrees() {
        let case = tiny_case();
        let compiled = case.tester_with_engine(EngineKind::Compiled);
        let interp = case.tester_with_engine(EngineKind::Interp);
        assert_eq!(compiled.engine(), EngineKind::Compiled);
        assert_eq!(interp.engine(), EngineKind::Interp);
        let dut = case.reference_netlist().clone();
        assert_eq!(compiled.test(&dut), interp.test(&dut));
    }
}
