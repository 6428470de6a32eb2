//! Sequential reference designs: registers, counters, shift registers, accumulators.

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 32;

fn seq_case(
    id: String,
    family: SourceFamily,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, Category::Sequential, description, circuit, POINTS, 1)
}

/// D flip-flop with enable and synchronous reset.
pub fn dff_enable(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("DffEnable{width}"));
    let en = m.input("en", Type::bool());
    let d = m.input("d", Type::uint(width));
    let q = m.output("q", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    m.when(&en, |m| m.connect(&r, &d));
    m.connect(&q, &r);
    seq_case(
        format!("verilogeval/dff_enable_{width}"),
        family,
        format!(
            "A {width}-bit register with synchronous reset to zero that captures d on the \
             rising clock edge when en is high and holds its value otherwise."
        ),
        m.into_circuit(),
    )
}

/// Up counter with enable.
pub fn counter_up(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("CounterUp{width}"));
    let en = m.input("en", Type::bool());
    let count = m.output("count", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    m.when(&en, |m| {
        let next = r.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
        m.connect(&r, &next);
    });
    m.connect(&count, &r);
    seq_case(
        format!("hdlbits/counter_up_{width}"),
        family,
        format!(
            "A {width}-bit up counter with synchronous reset: increments by one each cycle \
             while en is high, wrapping on overflow."
        ),
        m.into_circuit(),
    )
}

/// Up/down counter.
pub fn counter_updown(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("CounterUpDown{width}"));
    let en = m.input("en", Type::bool());
    let up = m.input("up", Type::bool());
    let count = m.output("count", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    m.when(&en, |m| {
        let inc = r.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
        let dec = r.sub(&Signal::lit_w(1, width)).bits(width - 1, 0);
        m.connect(&r, &mux(&up, &inc, &dec));
    });
    m.connect(&count, &r);
    seq_case(
        format!("verilogeval/counter_updown_{width}"),
        family,
        format!(
            "A {width}-bit up/down counter: when en is high it increments if up is high and \
             decrements otherwise, wrapping at both ends."
        ),
        m.into_circuit(),
    )
}

/// Modulo-N counter with terminal-count output.
pub fn counter_mod(modulus: u32, family: SourceFamily) -> BenchmarkCase {
    let width = 32 - (modulus - 1).leading_zeros();
    let mut m = ModuleBuilder::new(format!("CounterMod{modulus}"));
    let en = m.input("en", Type::bool());
    let count = m.output("count", Type::uint(width));
    let wrap = m.output("wrap", Type::bool());
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    let at_max = r.eq(&Signal::lit_w(u128::from(modulus - 1), width));
    m.when(&en, |m| {
        let next = r.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
        m.connect(&r, &mux(&at_max, &Signal::lit_w(0, width), &next));
    });
    m.connect(&count, &r);
    m.connect(&wrap, &at_max.and(&en));
    seq_case(
        format!("rtllm/counter_mod_{modulus}"),
        family,
        format!(
            "A modulo-{modulus} counter: counts 0..{} while en is high, asserting wrap during \
             the cycle in which it returns to zero.",
            modulus - 1
        ),
        m.into_circuit(),
    )
}

/// Serial-in parallel-out shift register.
pub fn shift_register(depth: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("ShiftRegister{depth}"));
    let din = m.input("din", Type::bool());
    let en = m.input("en", Type::bool());
    let q = m.output("q", Type::uint(depth));
    let r = m.reg_init("r", Type::uint(depth), &Signal::lit_w(0, depth));
    m.when(&en, |m| {
        let shifted = r.shl(1).bits(depth - 1, 0).or(&din.as_uint()).bits(depth - 1, 0);
        m.connect(&r, &shifted);
    });
    m.connect(&q, &r);
    seq_case(
        format!("hdlbits/shift_register_{depth}"),
        family,
        format!(
            "A {depth}-bit serial-in parallel-out shift register: when en is high the register \
             shifts left by one and din enters at bit 0."
        ),
        m.into_circuit(),
    )
}

/// Rising-edge detector.
pub fn edge_detector(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("EdgeDetector");
    let sig = m.input("sig", Type::bool());
    let rise = m.output("rise", Type::bool());
    let fall = m.output("fall", Type::bool());
    let prev = m.reg_init("prev", Type::bool(), &Signal::lit_bool(false));
    m.connect(&prev, &sig);
    m.connect(&rise, &sig.and(&prev.not()));
    m.connect(&fall, &sig.not().and(&prev));
    seq_case(
        "hdlbits/edge_detector".to_string(),
        family,
        "Detect edges of the input: rise is high for one cycle after a 0→1 transition, fall \
         after a 1→0 transition."
            .to_string(),
        m.into_circuit(),
    )
}

/// Toggle flip-flop.
pub fn toggle_ff(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("ToggleFf");
    let t = m.input("t", Type::bool());
    let q = m.output("q", Type::bool());
    let r = m.reg_init("r", Type::bool(), &Signal::lit_bool(false));
    m.when(&t, |m| m.connect(&r, &r.not()));
    m.connect(&q, &r);
    seq_case(
        "verilogeval/toggle_ff".to_string(),
        family,
        "A T flip-flop: the output toggles on every rising clock edge in which t is high."
            .to_string(),
        m.into_circuit(),
    )
}

/// Accumulator with clear.
pub fn accumulator(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Accumulator{width}"));
    let clear = m.input("clear", Type::bool());
    let en = m.input("en", Type::bool());
    let d = m.input("d", Type::uint(width));
    let sum = m.output("sum", Type::uint(width));
    let acc = m.reg_init("acc", Type::uint(width), &Signal::lit_w(0, width));
    m.when_else(
        &clear,
        |m| m.connect(&acc, &Signal::lit_w(0, width)),
        |m| {
            m.when(&en, |m| {
                let next = acc.add(&d).bits(width - 1, 0);
                m.connect(&acc, &next);
            });
        },
    );
    m.connect(&sum, &acc);
    seq_case(
        format!("rtllm/accumulator_{width}"),
        family,
        format!(
            "A {width}-bit accumulator: clear takes priority and zeroes the sum; otherwise d is \
             added to the running sum whenever en is high."
        ),
        m.into_circuit(),
    )
}

/// Fibonacci LFSR with a fixed tap pattern.
pub fn lfsr(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Lfsr{width}"));
    let en = m.input("en", Type::bool());
    let state = m.output("state", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(1, width));
    // Feedback from the two most significant bits.
    let feedback = r.bit((width - 1) as i64).xor(&r.bit((width - 2) as i64));
    m.when(&en, |m| {
        let next = r.shl(1).bits(width - 1, 0).or(&feedback.as_uint()).bits(width - 1, 0);
        m.connect(&r, &next);
    });
    m.connect(&state, &r);
    seq_case(
        format!("hdlbits/lfsr_{width}"),
        family,
        format!(
            "A {width}-bit Fibonacci LFSR seeded with 1: each enabled cycle the register shifts \
             left and the xor of its two most significant bits enters at bit 0."
        ),
        m.into_circuit(),
    )
}

/// Fixed-depth delay line.
pub fn delay_line(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("DelayLine{width}x{depth}"));
    let d = m.input("d", Type::uint(width));
    let q = m.output("q", Type::uint(width));
    let mut prev = d;
    for stage in 0..depth {
        prev = m.reg_next_init(
            &format!("stage{stage}"),
            Type::uint(width),
            &prev,
            &Signal::lit_w(0, width),
        );
    }
    m.connect(&q, &prev);
    seq_case(
        format!("verilogeval/delay_line_{width}x{depth}"),
        family,
        format!("Delay the {width}-bit input by exactly {depth} clock cycles."),
        m.into_circuit(),
    )
}

/// Running-maximum tracker.
pub fn max_tracker(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("MaxTracker{width}"));
    let d = m.input("d", Type::uint(width));
    let clear = m.input("clear", Type::bool());
    let max = m.output("max", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    m.when_else(
        &clear,
        |m| m.connect(&r, &Signal::lit_w(0, width)),
        |m| {
            m.when(&d.gt(&r), |m| m.connect(&r, &d));
        },
    );
    m.connect(&max, &r);
    seq_case(
        format!("rtllm/max_tracker_{width}"),
        family,
        format!(
            "Track the maximum {width}-bit value observed on d since the last clear (clear \
             resets the maximum to zero)."
        ),
        m.into_circuit(),
    )
}

/// Small register file with one write and one read port.
pub fn register_file(width: u32, entries: usize, family: SourceFamily) -> BenchmarkCase {
    let addr_bits = (usize::BITS - (entries - 1).leading_zeros()).max(1);
    let mut m = ModuleBuilder::new(format!("RegFile{entries}x{width}"));
    let we = m.input("we", Type::bool());
    let waddr = m.input("waddr", Type::uint(addr_bits));
    let wdata = m.input("wdata", Type::uint(width));
    let raddr = m.input("raddr", Type::uint(addr_bits));
    let rdata = m.output("rdata", Type::uint(width));
    let regs = m.reg_init("regs", Type::vec(Type::uint(width), entries), &Signal::lit_w(0, width));
    m.when(&we, |m| {
        let slot = regs.index_dyn(&waddr);
        m.connect(&slot, &wdata);
    });
    m.connect(&rdata, &regs.index_dyn(&raddr));
    seq_case(
        format!("rtllm/regfile_{entries}x{width}"),
        family,
        format!(
            "A register file with {entries} entries of {width} bits, one synchronous write port \
             (we/waddr/wdata) and one combinational read port (raddr/rdata). All entries reset \
             to zero."
        ),
        m.into_circuit(),
    )
}

/// PWM generator: output high while the counter is below the duty threshold.
pub fn pwm(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Pwm{width}"));
    let duty = m.input("duty", Type::uint(width));
    let out = m.output("out", Type::bool());
    let phase = m.output("phase", Type::uint(width));
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    let next = r.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
    m.connect(&r, &next);
    m.connect(&out, &r.lt(&duty));
    m.connect(&phase, &r);
    seq_case(
        format!("verilogeval/pwm_{width}"),
        family,
        format!(
            "A {width}-bit PWM generator: a free-running counter wraps continuously and the \
             output is high while the counter is less than the duty input."
        ),
        m.into_circuit(),
    )
}

/// Down-counting timer with load.
pub fn timer(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Timer{width}"));
    let load = m.input("load", Type::bool());
    let value = m.input("value", Type::uint(width));
    let remaining = m.output("remaining", Type::uint(width));
    let done = m.output("done", Type::bool());
    let r = m.reg_init("r", Type::uint(width), &Signal::lit_w(0, width));
    let is_zero = r.eq(&Signal::lit_w(0, width));
    m.when_else(
        &load,
        |m| m.connect(&r, &value),
        |m| {
            m.when(&is_zero.not(), |m| {
                let next = r.sub(&Signal::lit_w(1, width)).bits(width - 1, 0);
                m.connect(&r, &next);
            });
        },
    );
    m.connect(&remaining, &r);
    m.connect(&done, &is_zero);
    seq_case(
        format!("rtllm/timer_{width}"),
        family,
        format!(
            "A {width}-bit down-counting timer: load captures the start value, the counter then \
             decrements to zero and stops, and done is high while the counter is zero."
        ),
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
    fn all_sequential_generators_produce_clean_designs() {
        let cases = vec![
            dff_enable(8, SourceFamily::VerilogEval),
            counter_up(8, SourceFamily::HdlBits),
            counter_updown(4, SourceFamily::VerilogEval),
            counter_mod(10, SourceFamily::Rtllm),
            shift_register(8, SourceFamily::HdlBits),
            edge_detector(SourceFamily::HdlBits),
            toggle_ff(SourceFamily::VerilogEval),
            accumulator(8, SourceFamily::Rtllm),
            lfsr(8, SourceFamily::HdlBits),
            delay_line(4, 3, SourceFamily::VerilogEval),
            max_tracker(8, SourceFamily::Rtllm),
            register_file(8, 4, SourceFamily::Rtllm),
            pwm(4, SourceFamily::VerilogEval),
            timer(6, SourceFamily::Rtllm),
        ];
        for case in &cases {
            assert_clean(case);
        }
    }

    #[test]
    fn counter_mod_wraps_at_modulus() {
        let case = counter_mod(3, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("en", 1).unwrap();
        let mut seen = Vec::new();
        for _ in 0..7 {
            seen.push(sim.peek("count").unwrap());
            sim.step().unwrap();
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn register_file_reads_back_writes() {
        let case = register_file(8, 4, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("waddr", 2).unwrap();
        sim.poke("wdata", 0x5A).unwrap();
        sim.step().unwrap();
        sim.poke("we", 0).unwrap();
        sim.poke("raddr", 2).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0x5A);
        sim.poke("raddr", 1).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0);
    }

    #[test]
    fn timer_counts_down_and_stops() {
        let case = timer(4, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("load", 1).unwrap();
        sim.poke("value", 3).unwrap();
        sim.step().unwrap();
        sim.poke("load", 0).unwrap();
        assert_eq!(sim.peek("remaining").unwrap(), 3);
        sim.step().unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("remaining").unwrap(), 0);
        assert_eq!(sim.peek("done").unwrap(), 1);
        sim.step().unwrap();
        assert_eq!(sim.peek("remaining").unwrap(), 0);
    }
}
