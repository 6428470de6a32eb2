//! Arithmetic datapath reference designs.

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 24;

fn arith_case(
    id: String,
    family: SourceFamily,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, Category::Arithmetic, description, circuit, POINTS, 0)
}

/// Adder with carry-in and carry-out.
pub fn adder(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Adder{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let cin = m.input("cin", Type::bool());
    let sum = m.output("sum", Type::uint(width));
    let cout = m.output("cout", Type::bool());
    let total = a.add(&b).add(&cin.as_uint());
    m.connect(&sum, &total.bits(width - 1, 0));
    m.connect(&cout, &total.bit(width as i64));
    arith_case(
        format!("verilogeval/adder_{width}"),
        family,
        format!(
            "A {width}-bit adder with carry-in: sum is the low {width} bits of a + b + cin and \
             cout is the carry out."
        ),
        m.into_circuit(),
    )
}

/// Subtractor with borrow-out.
pub fn subtractor(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Subtractor{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let diff = m.output("diff", Type::uint(width));
    let borrow = m.output("borrow", Type::bool());
    m.connect(&diff, &a.sub(&b).bits(width - 1, 0));
    m.connect(&borrow, &a.lt(&b));
    arith_case(
        format!("hdlbits/subtractor_{width}"),
        family,
        format!(
            "A {width}-bit subtractor: diff is the low {width} bits of a - b and borrow is high \
             when b is larger than a."
        ),
        m.into_circuit(),
    )
}

/// One-bit full adder.
pub fn full_adder(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("FullAdder");
    let a = m.input("a", Type::bool());
    let b = m.input("b", Type::bool());
    let cin = m.input("cin", Type::bool());
    let sum = m.output("sum", Type::bool());
    let cout = m.output("cout", Type::bool());
    m.connect(&sum, &a.xor(&b).xor(&cin));
    m.connect(&cout, &a.and(&b).or(&a.xor(&b).and(&cin)));
    arith_case(
        "hdlbits/full_adder".to_string(),
        family,
        "A one-bit full adder producing sum and carry-out from a, b and carry-in.".to_string(),
        m.into_circuit(),
    )
}

/// Small ALU: add, subtract, bitwise and, bitwise or, selected by a 2-bit opcode.
pub fn alu(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Alu{width}"));
    let op = m.input("op", Type::uint(2));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    let zero = m.output("zero", Type::bool());
    let result = m.wire_default("result", Type::uint(width), &Signal::lit_w(0, width));
    m.switch(&op, |sw| {
        sw.is(0, |m| m.connect(&result, &a.add(&b).bits(width - 1, 0)));
        sw.is(1, |m| m.connect(&result, &a.sub(&b).bits(width - 1, 0)));
        sw.is(2, |m| m.connect(&result, &a.and(&b)));
        sw.is(3, |m| m.connect(&result, &a.or(&b)));
    });
    m.connect(&y, &result);
    m.connect(&zero, &result.eq(&Signal::lit_w(0, width)));
    arith_case(
        format!("rtllm/alu_{width}"),
        family,
        format!(
            "A {width}-bit ALU with a 2-bit opcode: 0 = add, 1 = subtract, 2 = bitwise and, \
             3 = bitwise or; zero is high when the result is zero."
        ),
        m.into_circuit(),
    )
}

/// Unsigned multiplier.
pub fn multiplier(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Multiplier{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let product = m.output("product", Type::uint(width * 2));
    m.connect(&product, &a.mul(&b));
    arith_case(
        format!("rtllm/multiplier_{width}"),
        family,
        format!("Multiply two unsigned {width}-bit inputs into a {}-bit product.", width * 2),
        m.into_circuit(),
    )
}

/// Saturating adder: clamps at the maximum representable value.
pub fn saturating_adder(width: u32, family: SourceFamily) -> BenchmarkCase {
    let max = (1u128 << width) - 1;
    let mut m = ModuleBuilder::new(format!("SatAdder{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let sum = m.output("sum", Type::uint(width));
    let saturated = m.output("saturated", Type::bool());
    let wide = a.add(&b);
    let overflow = wide.bit(width as i64);
    m.connect(&sum, &mux(&overflow, &Signal::lit_w(max, width), &wide.bits(width - 1, 0)));
    m.connect(&saturated, &overflow);
    arith_case(
        format!("verilogeval/sat_adder_{width}"),
        family,
        format!(
            "A {width}-bit saturating adder: the sum clamps to {max} on overflow, and saturated \
             reports when clamping occurred."
        ),
        m.into_circuit(),
    )
}

/// Incrementer / decrementer.
pub fn inc_dec(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("IncDec{width}"));
    let a = m.input("a", Type::uint(width));
    let dec = m.input("dec", Type::bool());
    let y = m.output("y", Type::uint(width));
    let inc_v = a.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
    let dec_v = a.sub(&Signal::lit_w(1, width)).bits(width - 1, 0);
    m.connect(&y, &mux(&dec, &dec_v, &inc_v));
    arith_case(
        format!("hdlbits/inc_dec_{width}"),
        family,
        format!("Output a+1 when dec is low and a-1 when dec is high, wrapping modulo 2^{width}."),
        m.into_circuit(),
    )
}

/// Multiply-accumulate step value (combinational): y = a*b + c.
pub fn mac(width: u32, family: SourceFamily) -> BenchmarkCase {
    let out_width = width * 2 + 1;
    let mut m = ModuleBuilder::new(format!("Mac{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let c = m.input("c", Type::uint(width * 2));
    let y = m.output("y", Type::uint(out_width));
    m.connect(&y, &a.mul(&b).add(&c));
    arith_case(
        format!("rtllm/mac_{width}"),
        family,
        "A combinational multiply-accumulate: y = a*b + c with full precision.".to_string(),
        m.into_circuit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::{check_circuit, lower_circuit};
    use rechisel_sim::{SimEngine, Simulator};

    fn assert_clean(case: &BenchmarkCase) {
        let report = check_circuit(case.reference());
        assert!(!report.has_errors(), "{} has errors: {report:?}", case.id);
        let tester = case.tester();
        assert!(tester.test(tester.reference()).passed(), "{} self-test failed", case.id);
    }

    #[test]
    fn all_arithmetic_generators_produce_clean_designs() {
        let cases = vec![
            adder(8, SourceFamily::VerilogEval),
            subtractor(8, SourceFamily::HdlBits),
            full_adder(SourceFamily::HdlBits),
            alu(8, SourceFamily::Rtllm),
            multiplier(4, SourceFamily::Rtllm),
            saturating_adder(8, SourceFamily::VerilogEval),
            inc_dec(8, SourceFamily::HdlBits),
            mac(4, SourceFamily::Rtllm),
        ];
        for case in &cases {
            assert_clean(case);
        }
    }

    #[test]
    fn adder_produces_carry() {
        let case = adder(8, SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", 200).unwrap();
        sim.poke("b", 100).unwrap();
        sim.poke("cin", 1).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("sum").unwrap(), (200 + 100 + 1) & 0xFF);
        assert_eq!(sim.peek("cout").unwrap(), 1);
    }

    #[test]
    fn alu_opcodes() {
        let case = alu(8, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", 12).unwrap();
        sim.poke("b", 10).unwrap();
        for (op, expected) in [(0u128, 22u128), (1, 2), (2, 8), (3, 14)] {
            sim.poke("op", op).unwrap();
            sim.eval().unwrap();
            assert_eq!(sim.peek("y").unwrap(), expected, "op {op}");
        }
    }

    #[test]
    fn saturating_adder_clamps() {
        let case = saturating_adder(4, SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", 12).unwrap();
        sim.poke("b", 9).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("sum").unwrap(), 15);
        assert_eq!(sim.peek("saturated").unwrap(), 1);
        sim.poke("b", 2).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("sum").unwrap(), 14);
        assert_eq!(sim.peek("saturated").unwrap(), 0);
    }
}
