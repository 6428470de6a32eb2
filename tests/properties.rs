//! Property-based tests over the core invariants of the substrate and the evaluation
//! machinery.

use proptest::prelude::*;
use rechisel::benchsuite::pass_at_k;
use rechisel::firrtl::{check_circuit, lower_circuit};
use rechisel::hcl::prelude::*;
use rechisel::llm::{inject_defects, DefectInstance, DefectKind};
use rechisel::sim::{SimEngine, Simulator, Testbench};

/// Reference design used by the injection properties.
fn rich_reference() -> Circuit {
    let mut m = ModuleBuilder::new("PropRich");
    let en = m.input("en", Type::bool());
    let a = m.input("a", Type::uint(6));
    let b = m.input("b", Type::uint(6));
    let sel = m.input("sel", Type::bool());
    let out = m.output("out", Type::uint(8));
    let flag = m.output("flag", Type::bool());
    let picked = mux(&sel, &a, &b);
    let acc = m.reg_init("acc", Type::uint(8), &Signal::lit_w(0, 8));
    m.when(&en, |m| {
        let next = acc.add(&picked).bits(7, 0);
        m.connect(&acc, &next);
    });
    m.connect(&out, &acc);
    m.connect(&flag, &a.eq(&b).or(&a.bit(0)));
    m.into_circuit()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pass@k is a probability, monotone in both c and k.
    #[test]
    fn pass_at_k_is_a_monotone_probability(n in 1usize..20, c in 0usize..20, k in 1usize..20) {
        let c = c.min(n);
        let p = pass_at_k(n, c, k);
        prop_assert!((0.0..=1.0).contains(&p));
        if c < n {
            prop_assert!(pass_at_k(n, c + 1, k) >= p - 1e-12);
        }
        prop_assert!(pass_at_k(n, c, k + 1) >= p - 1e-12);
    }

    /// The simulated adder agrees with host arithmetic for arbitrary operands.
    #[test]
    fn simulated_adder_matches_host_addition(a in 0u128..256, b in 0u128..256) {
        let mut m = ModuleBuilder::new("PropAdder");
        let ia = m.input("a", Type::uint(8));
        let ib = m.input("b", Type::uint(8));
        let sum = m.output("sum", Type::uint(9));
        m.connect(&sum, &ia.add(&ib));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", a).unwrap();
        sim.poke("b", b).unwrap();
        sim.eval().unwrap();
        prop_assert_eq!(sim.peek("sum").unwrap(), a + b);
    }

    /// The simulated comparator agrees with host comparison.
    #[test]
    fn simulated_comparator_matches_host(a in 0u128..64, b in 0u128..64) {
        let mut m = ModuleBuilder::new("PropCmp");
        let ia = m.input("a", Type::uint(6));
        let ib = m.input("b", Type::uint(6));
        let lt = m.output("lt", Type::bool());
        let eq = m.output("eq", Type::bool());
        m.connect(&lt, &ia.lt(&ib));
        m.connect(&eq, &ia.eq(&ib));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", a).unwrap();
        sim.poke("b", b).unwrap();
        sim.eval().unwrap();
        prop_assert_eq!(sim.peek("lt").unwrap(), u128::from(a < b));
        prop_assert_eq!(sim.peek("eq").unwrap(), u128::from(a == b));
    }

    /// Every syntax defect kind, injected with an arbitrary seed, makes the design fail
    /// compilation — and the reference itself always stays clean.
    #[test]
    fn syntax_defects_always_break_compilation(seed in 0u64..5000, kind_index in 0usize..11) {
        let reference = rich_reference();
        prop_assert!(!check_circuit(&reference).has_errors());
        let kind = DefectKind::syntax_kinds()[kind_index];
        let broken = inject_defects(&reference, &[DefectInstance::new(kind, seed)]);
        prop_assert!(check_circuit(&broken).has_errors(), "kind {:?} seed {}", kind, seed);
    }

    /// Functional defects never break compilation (they must only be caught by
    /// simulation).
    #[test]
    fn functional_defects_always_compile(seed in 0u64..5000, kind_index in 0usize..6) {
        let reference = rich_reference();
        let kind = DefectKind::functional_kinds()[kind_index];
        let broken = inject_defects(&reference, &[DefectInstance::new(kind, seed)]);
        prop_assert!(!check_circuit(&broken).has_errors(), "kind {:?} seed {}", kind, seed);
        prop_assert!(lower_circuit(&broken).is_ok());
    }

    /// Random testbench generation is deterministic in the seed and never drives the
    /// reset port.
    #[test]
    fn random_testbenches_are_seeded_and_respect_reset(seed in 0u64..1000, points in 1usize..32) {
        let reference = rich_reference();
        let netlist = lower_circuit(&reference).unwrap();
        let a = Testbench::random_for(&netlist, points, 1, seed);
        let b = Testbench::random_for(&netlist, points, 1, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.points.len(), points);
        for point in &a.points {
            prop_assert!(point.inputs.iter().all(|(name, _)| name != "reset" && name != "clock"));
        }
    }

    /// Lowered designs always simulate without structural errors for arbitrary inputs.
    #[test]
    fn lowered_reference_simulates_for_arbitrary_stimuli(
        a in 0u128..64, b in 0u128..64, en in 0u128..2, sel in 0u128..2, cycles in 1u32..8
    ) {
        let netlist = lower_circuit(&rich_reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("a", a).unwrap();
        sim.poke("b", b).unwrap();
        sim.poke("en", en).unwrap();
        sim.poke("sel", sel).unwrap();
        sim.step_n(cycles).unwrap();
        let out = sim.peek("out").unwrap();
        prop_assert!(out < 256);
        // With enable low the accumulator must stay at zero after reset.
        if en == 0 {
            prop_assert_eq!(out, 0);
        }
    }
}
