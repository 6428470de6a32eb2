//! Combinational and bit-manipulation reference designs.
//!
//! Each function builds one parameterized reference circuit in the Chisel-like HCL plus
//! its natural-language description, and wraps them into a [`BenchmarkCase`]. The
//! designs mirror the kinds of module-level problems found in VerilogEval's Spec-to-RTL,
//! HDLBits and RTLLM: gates, muxes, encoders/decoders, comparators, and vector
//! manipulation — including `Vector5`, the case study of the ReChisel paper's Fig. 8.

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 24;

fn comb_case(
    id: String,
    family: SourceFamily,
    category: Category,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, category, description, circuit, POINTS, 0)
}

/// Two-input gate of the given operation (`and`, `or`, `xor`, `nand`, `nor`, `xnor`)
/// over `width`-bit operands.
pub fn gate(op: &str, width: u32, family: SourceFamily) -> BenchmarkCase {
    let name = format!("Gate{}{}", capitalize(op), width);
    let mut m = ModuleBuilder::new(&name);
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    let value = match op {
        "and" => a.and(&b),
        "or" => a.or(&b),
        "xor" => a.xor(&b),
        "nand" => a.and(&b).not(),
        "nor" => a.or(&b).not(),
        _ => a.xor(&b).not(),
    };
    m.connect(&y, &value.bits(width - 1, 0));
    comb_case(
        format!("hdlbits/gate_{op}_{width}"),
        family,
        Category::Combinational,
        format!(
            "Implement a {width}-bit wide bitwise {op} gate: y = a {op} b, applied bit by bit."
        ),
        m.into_circuit(),
    )
}

/// 2-to-1 multiplexer over `width`-bit operands.
pub fn mux2(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Mux2x{width}"));
    let sel = m.input("sel", Type::bool());
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    m.connect(&y, &mux(&sel, &b, &a));
    comb_case(
        format!("verilogeval/mux2_{width}"),
        family,
        Category::Combinational,
        format!("A 2-to-1 multiplexer of {width}-bit values: y = sel ? b : a."),
        m.into_circuit(),
    )
}

/// 4-to-1 multiplexer over `width`-bit operands.
pub fn mux4(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Mux4x{width}"));
    let sel = m.input("sel", Type::uint(2));
    let inputs: Vec<Signal> =
        (0..4).map(|i| m.input(&format!("d{i}"), Type::uint(width))).collect();
    let y = m.output("y", Type::uint(width));
    let v = m.vec_init("options", Type::uint(width), &inputs);
    m.connect(&y, &v.index_dyn(&sel));
    comb_case(
        format!("hdlbits/mux4_{width}"),
        family,
        Category::Combinational,
        format!("A 4-to-1 multiplexer of {width}-bit values selected by the 2-bit sel input."),
        m.into_circuit(),
    )
}

/// n-to-2^n one-hot decoder with enable.
pub fn decoder(bits: u32, family: SourceFamily) -> BenchmarkCase {
    let outputs = 1u32 << bits;
    let mut m = ModuleBuilder::new(format!("Decoder{bits}to{outputs}"));
    let en = m.input("en", Type::bool());
    let sel = m.input("sel", Type::uint(bits));
    let y = m.output("y", Type::uint(outputs));
    let lanes: Vec<Signal> =
        (0..outputs).map(|i| sel.eq(&Signal::lit_w(u128::from(i), bits)).and(&en)).collect();
    let v = m.vec_init("lanes", Type::bool(), &lanes);
    m.connect(&y, &v.as_uint());
    comb_case(
        format!("rtllm/decoder_{bits}"),
        family,
        Category::Combinational,
        format!(
            "A {bits}-to-{outputs} one-hot decoder with an enable: output bit i is 1 exactly \
             when en is high and sel equals i."
        ),
        m.into_circuit(),
    )
}

/// Priority encoder: index of the lowest asserted bit, plus a valid flag.
pub fn priority_encoder(width: u32, family: SourceFamily) -> BenchmarkCase {
    let out_bits = 32 - (width - 1).leading_zeros();
    let mut m = ModuleBuilder::new(format!("PriorityEncoder{width}"));
    let input = m.input("in", Type::uint(width));
    let index = m.output("index", Type::uint(out_bits.max(1)));
    let valid = m.output("valid", Type::bool());
    // Priority mux from the highest index down so the lowest set bit wins.
    let mut value = Signal::lit_w(0, out_bits.max(1));
    for i in (0..width).rev() {
        value = mux(&input.bit(i as i64), &Signal::lit_w(u128::from(i), out_bits.max(1)), &value);
    }
    m.connect(&index, &value);
    m.connect(&valid, &input.or_r());
    comb_case(
        format!("verilogeval/priority_encoder_{width}"),
        family,
        Category::Combinational,
        format!(
            "A {width}-bit priority encoder: index reports the position of the least-significant \
             asserted input bit, valid is high when any bit is asserted."
        ),
        m.into_circuit(),
    )
}

/// Population count.
pub fn popcount_circuit(width: u32, family: SourceFamily) -> BenchmarkCase {
    let out_bits = 32 - width.leading_zeros();
    let mut m = ModuleBuilder::new(format!("PopCount{width}"));
    let input = m.input("in", Type::uint(width));
    let count = m.output("count", Type::uint(out_bits));
    let bits: Vec<Signal> = (0..width).map(|i| input.bit(i as i64)).collect();
    let total = pop_count(&bits);
    m.connect(&count, &total.pad(out_bits).bits(out_bits - 1, 0));
    comb_case(
        format!("hdlbits/popcount_{width}"),
        family,
        Category::BitManipulation,
        format!("Count the number of asserted bits in the {width}-bit input."),
        m.into_circuit(),
    )
}

/// Even/odd parity generator.
pub fn parity(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Parity{width}"));
    let input = m.input("in", Type::uint(width));
    let even = m.output("even", Type::bool());
    let odd = m.output("odd", Type::bool());
    let p = input.xor_r();
    m.connect(&odd, &p);
    m.connect(&even, &p.not());
    comb_case(
        format!("hdlbits/parity_{width}"),
        family,
        Category::BitManipulation,
        format!(
            "Compute parity of a {width}-bit word: odd is the xor of all bits, even its \
             complement."
        ),
        m.into_circuit(),
    )
}

/// Unsigned comparator with eq/lt/gt outputs.
pub fn comparator(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Comparator{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let eq = m.output("eq", Type::bool());
    let lt = m.output("lt", Type::bool());
    let gt = m.output("gt", Type::bool());
    m.connect(&eq, &a.eq(&b));
    m.connect(&lt, &a.lt(&b));
    m.connect(&gt, &a.gt(&b));
    comb_case(
        format!("rtllm/comparator_{width}"),
        family,
        Category::Arithmetic,
        format!("Compare two unsigned {width}-bit numbers and report equal / less / greater."),
        m.into_circuit(),
    )
}

/// The `Vector5` case from AutoChip's HDLBits set, used as the paper's Fig. 8 case
/// study: all 25 pairwise comparisons of five 1-bit inputs.
pub fn vector5() -> BenchmarkCase {
    let mut m = ModuleBuilder::new("Vector5");
    let names = ["a", "b", "c", "d", "e"];
    let inputs: Vec<Signal> = names.iter().map(|n| m.input(n, Type::bool())).collect();
    let out = m.output("out", Type::uint(25));
    let vec_in = m.vec_init("inputs", Type::bool(), &inputs);
    let mut temp_elems = Vec::with_capacity(25);
    // out[24] = a===a, out[23] = a===b, ..., out[0] = e===e.
    for i in 0..5i64 {
        for j in 0..5i64 {
            temp_elems.push(vec_in.index(i).eq(&vec_in.index(j)));
        }
    }
    // Element 24-idx goes to bit 24-idx; build the Vec in LSB-first order.
    temp_elems.reverse();
    let temp = m.vec_init("tempOut", Type::bool(), &temp_elems);
    m.connect(&out, &temp.as_uint());
    comb_case(
        "hdlbits/vector5".to_string(),
        SourceFamily::HdlBits,
        Category::BitManipulation,
        "Given five 1-bit signals (a, b, c, d and e), compute all 25 pairwise one-bit \
         comparisons in the 25-bit output vector. The output bit should be 1 when the two bits \
         being compared are equal; out[24] compares a with a, out[23] compares a with b, and so \
         on down to out[0] comparing e with e."
            .to_string(),
        m.into_circuit(),
    )
}

/// Bit reversal.
pub fn bit_reverse(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("BitReverse{width}"));
    let input = m.input("in", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    let bits: Vec<Signal> = (0..width).map(|i| input.bit((width - 1 - i) as i64)).collect();
    let v = m.vec_init("rev", Type::bool(), &bits);
    m.connect(&y, &v.as_uint());
    comb_case(
        format!("hdlbits/bit_reverse_{width}"),
        family,
        Category::BitManipulation,
        format!(
            "Reverse the bit order of the {width}-bit input (bit 0 becomes bit {}).",
            width - 1
        ),
        m.into_circuit(),
    )
}

/// Splits a word into its high and low halves.
pub fn word_split(width: u32, family: SourceFamily) -> BenchmarkCase {
    let half = width / 2;
    let mut m = ModuleBuilder::new(format!("WordSplit{width}"));
    let input = m.input("in", Type::uint(width));
    let hi = m.output("hi", Type::uint(half));
    let lo = m.output("lo", Type::uint(half));
    m.connect(&hi, &input.bits(width - 1, half));
    m.connect(&lo, &input.bits(half - 1, 0));
    comb_case(
        format!("verilogeval/word_split_{width}"),
        family,
        Category::BitManipulation,
        format!("Split the {width}-bit input into its upper and lower {half}-bit halves."),
        m.into_circuit(),
    )
}

/// Byte swap of a multi-byte word.
pub fn byte_swap(bytes: u32, family: SourceFamily) -> BenchmarkCase {
    let width = bytes * 8;
    let mut m = ModuleBuilder::new(format!("ByteSwap{width}"));
    let input = m.input("in", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    let parts: Vec<Signal> = (0..bytes).map(|i| input.bits(i * 8 + 7, i * 8)).collect();
    // parts[0] is the least-significant byte; concatenate so it becomes the most
    // significant.
    let swapped = cat_all(&parts);
    m.connect(&y, &swapped);
    comb_case(
        format!("hdlbits/byte_swap_{width}"),
        family,
        Category::BitManipulation,
        format!("Reverse the byte order of the {width}-bit input ({bytes} bytes)."),
        m.into_circuit(),
    )
}

/// Minimum and maximum of two unsigned values.
pub fn min_max(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("MinMax{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let min = m.output("min", Type::uint(width));
    let max = m.output("max", Type::uint(width));
    let a_less = a.lt(&b);
    m.connect(&min, &mux(&a_less, &a, &b));
    m.connect(&max, &mux(&a_less, &b, &a));
    comb_case(
        format!("verilogeval/min_max_{width}"),
        family,
        Category::Arithmetic,
        format!("Output both the minimum and the maximum of two unsigned {width}-bit inputs."),
        m.into_circuit(),
    )
}

/// Absolute difference of two unsigned values.
pub fn abs_diff(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("AbsDiff{width}"));
    let a = m.input("a", Type::uint(width));
    let b = m.input("b", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    let a_ge = a.geq(&b);
    let diff_ab = a.sub(&b).bits(width - 1, 0);
    let diff_ba = b.sub(&a).bits(width - 1, 0);
    m.connect(&y, &mux(&a_ge, &diff_ab, &diff_ba));
    comb_case(
        format!("rtllm/abs_diff_{width}"),
        family,
        Category::Arithmetic,
        format!("Compute |a - b| for two unsigned {width}-bit inputs."),
        m.into_circuit(),
    )
}

/// Dynamic logical barrel shifter (left or right).
pub fn barrel_shifter(width: u32, family: SourceFamily) -> BenchmarkCase {
    let shift_bits = 32 - (width - 1).leading_zeros();
    let mut m = ModuleBuilder::new(format!("BarrelShifter{width}"));
    let input = m.input("in", Type::uint(width));
    let amount = m.input("amount", Type::uint(shift_bits));
    let left = m.input("left", Type::bool());
    let y = m.output("y", Type::uint(width));
    let shifted_left = input.dshl(&amount).bits(width - 1, 0);
    let shifted_right = input.dshr(&amount);
    m.connect(&y, &mux(&left, &shifted_left, &shifted_right.bits(width - 1, 0)));
    comb_case(
        format!("rtllm/barrel_shifter_{width}"),
        family,
        Category::BitManipulation,
        format!(
            "A {width}-bit logical barrel shifter: shift the input left when left is high, \
             right otherwise, by the given amount."
        ),
        m.into_circuit(),
    )
}

/// Leading-zero-ish flag outputs: all-zero, all-one, any-one.
pub fn word_flags(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("WordFlags{width}"));
    let input = m.input("in", Type::uint(width));
    let all_zero = m.output("all_zero", Type::bool());
    let all_one = m.output("all_one", Type::bool());
    let any_one = m.output("any_one", Type::bool());
    m.connect(&any_one, &input.or_r());
    m.connect(&all_zero, &input.or_r().not());
    m.connect(&all_one, &input.and_r());
    comb_case(
        format!("verilogeval/word_flags_{width}"),
        family,
        Category::Combinational,
        format!(
            "Report whether the {width}-bit input is all zeros, all ones, or has any asserted \
             bit."
        ),
        m.into_circuit(),
    )
}

/// Gray code encoder (binary → Gray).
pub fn gray_encoder(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("GrayEncoder{width}"));
    let input = m.input("in", Type::uint(width));
    let y = m.output("y", Type::uint(width));
    m.connect(&y, &input.xor(&input.shr(1)).bits(width - 1, 0));
    comb_case(
        format!("hdlbits/gray_encoder_{width}"),
        family,
        Category::BitManipulation,
        format!("Convert the {width}-bit binary input to its Gray-code representation."),
        m.into_circuit(),
    )
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::check_circuit;

    fn assert_clean(case: &BenchmarkCase) {
        let report = check_circuit(case.reference());
        assert!(!report.has_errors(), "{} has errors: {report:?}", case.id);
        let tester = case.tester();
        assert!(tester.test(tester.reference()).passed(), "{} self-test failed", case.id);
    }

    #[test]
    fn all_combinational_generators_produce_clean_designs() {
        let cases = vec![
            gate("and", 4, SourceFamily::HdlBits),
            gate("xnor", 8, SourceFamily::HdlBits),
            mux2(8, SourceFamily::VerilogEval),
            mux4(4, SourceFamily::HdlBits),
            decoder(3, SourceFamily::Rtllm),
            priority_encoder(8, SourceFamily::VerilogEval),
            popcount_circuit(8, SourceFamily::HdlBits),
            parity(8, SourceFamily::HdlBits),
            comparator(8, SourceFamily::Rtllm),
            vector5(),
            bit_reverse(8, SourceFamily::HdlBits),
            word_split(8, SourceFamily::VerilogEval),
            byte_swap(4, SourceFamily::HdlBits),
            min_max(8, SourceFamily::VerilogEval),
            abs_diff(8, SourceFamily::Rtllm),
            barrel_shifter(8, SourceFamily::Rtllm),
            word_flags(8, SourceFamily::VerilogEval),
            gray_encoder(8, SourceFamily::HdlBits),
        ];
        for case in &cases {
            assert_clean(case);
        }
    }

    #[test]
    fn vector5_matches_its_specification() {
        use rechisel_firrtl::lower_circuit;
        use rechisel_sim::{SimEngine, Simulator};
        let case = vector5();
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        // a=1, b=0, c=1, d=0, e=1.
        for (name, value) in [("a", 1u128), ("b", 0), ("c", 1), ("d", 0), ("e", 1)] {
            sim.poke(name, value).unwrap();
        }
        sim.eval().unwrap();
        let out = sim.peek("out").unwrap();
        // Bit 24 compares a with a → 1. Bit 23 compares a with b → 0.
        assert_eq!((out >> 24) & 1, 1);
        assert_eq!((out >> 23) & 1, 0);
        // Bit 0 compares e with e → 1.
        assert_eq!(out & 1, 1);
        // Full expected vector for this stimulus: for i,j in row-major order from the
        // MSB, bit = (in[i] == in[j]).
        let inputs = [1u128, 0, 1, 0, 1];
        let mut expected = 0u128;
        for i in 0..5 {
            for j in 0..5 {
                let bit = u128::from(inputs[i] == inputs[j]);
                let position = 24 - (i * 5 + j);
                expected |= bit << position;
            }
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn priority_encoder_prefers_lowest_bit() {
        use rechisel_firrtl::lower_circuit;
        use rechisel_sim::{SimEngine, Simulator};
        let case = priority_encoder(8, SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("in", 0b0110_0000).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("index").unwrap(), 5);
        assert_eq!(sim.peek("valid").unwrap(), 1);
        sim.poke("in", 0).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("valid").unwrap(), 0);
    }

    #[test]
    fn byte_swap_swaps() {
        use rechisel_firrtl::lower_circuit;
        use rechisel_sim::{SimEngine, Simulator};
        let case = byte_swap(2, SourceFamily::HdlBits);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("in", 0xAB_CD).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("y").unwrap(), 0xCD_AB);
    }
}
