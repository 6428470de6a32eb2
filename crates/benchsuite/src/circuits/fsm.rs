//! Finite-state-machine reference designs.

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 40;

fn fsm_case(
    id: String,
    family: SourceFamily,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, Category::Fsm, description, circuit, POINTS, 1)
}

/// Overlapping sequence detector for a short bit pattern.
///
/// `pattern` is given most-significant-bit first, e.g. `&[1, 0, 1]` detects "101".
pub fn sequence_detector(pattern: &[u8], family: SourceFamily) -> BenchmarkCase {
    let n = pattern.len() as u32;
    let label: String = pattern.iter().map(|b| if *b == 0 { '0' } else { '1' }).collect();
    let mut m = ModuleBuilder::new(format!("SeqDetect{label}"));
    let din = m.input("din", Type::bool());
    let detected = m.output("detected", Type::bool());
    // Shift register of the last n input bits.
    let history = m.reg_init("history", Type::uint(n), &Signal::lit_w(0, n));
    let next = history.shl(1).bits(n - 1, 0).or(&din.as_uint()).bits(n - 1, 0);
    m.connect(&history, &next);
    let mut target: u128 = 0;
    for bit in pattern {
        target = (target << 1) | u128::from(*bit);
    }
    m.connect(&detected, &history.eq(&Signal::lit_w(target, n)));
    fsm_case(
        format!("hdlbits/seq_detect_{label}"),
        family,
        format!(
            "Detect the serial bit pattern {label} (overlapping occurrences allowed): detected \
             is high during the cycle after the final bit of the pattern has been observed on \
             din."
        ),
        m.into_circuit(),
    )
}

/// Three-state traffic-light controller with fixed phase durations.
pub fn traffic_light(
    green_cycles: u32,
    yellow_cycles: u32,
    red_cycles: u32,
    family: SourceFamily,
) -> BenchmarkCase {
    let mut m =
        ModuleBuilder::new(format!("TrafficLight{green_cycles}_{yellow_cycles}_{red_cycles}"));
    let en = m.input("en", Type::bool());
    let green = m.output("green", Type::bool());
    let yellow = m.output("yellow", Type::bool());
    let red = m.output("red", Type::bool());
    let state = m.reg_init("state", Type::uint(2), &Signal::lit_w(0, 2));
    let timer = m.reg_init("timer", Type::uint(8), &Signal::lit_w(0, 8));

    let durations = [green_cycles, yellow_cycles, red_cycles];
    m.when(&en, |m| {
        // Advance the timer; move to the next state when the phase duration elapses.
        let mut timeout = Signal::lit_bool(false);
        for (idx, dur) in durations.iter().enumerate() {
            let in_state = state.eq(&Signal::lit_w(idx as u128, 2));
            let expired = timer.geq(&Signal::lit_w(u128::from(dur.saturating_sub(1)), 8));
            timeout = timeout.or(&in_state.and(&expired));
        }
        m.when_else(
            &timeout,
            |m| {
                m.connect(&timer, &Signal::lit_w(0, 8));
                let next_state = mux(
                    &state.eq(&Signal::lit_w(2, 2)),
                    &Signal::lit_w(0, 2),
                    &state.add(&Signal::lit_w(1, 2)).bits(1, 0),
                );
                m.connect(&state, &next_state);
            },
            |m| {
                let next_timer = timer.add(&Signal::lit_w(1, 8)).bits(7, 0);
                m.connect(&timer, &next_timer);
            },
        );
    });
    m.connect(&green, &state.eq(&Signal::lit_w(0, 2)));
    m.connect(&yellow, &state.eq(&Signal::lit_w(1, 2)));
    m.connect(&red, &state.eq(&Signal::lit_w(2, 2)));
    fsm_case(
        format!("rtllm/traffic_light_{green_cycles}_{yellow_cycles}_{red_cycles}"),
        family,
        format!(
            "A traffic-light controller cycling green ({green_cycles} cycles) → yellow \
             ({yellow_cycles} cycles) → red ({red_cycles} cycles) while en is high; exactly one \
             lamp output is high at any time."
        ),
        m.into_circuit(),
    )
}

/// Vending machine that accepts coins of value 1 and 2 and dispenses at a threshold.
pub fn vending_machine(price: u32, family: SourceFamily) -> BenchmarkCase {
    let width = 4u32;
    let mut m = ModuleBuilder::new(format!("Vending{price}"));
    let coin1 = m.input("coin1", Type::bool());
    let coin2 = m.input("coin2", Type::bool());
    let dispense = m.output("dispense", Type::bool());
    let credit = m.output("credit", Type::uint(width));
    let saved = m.reg_init("saved", Type::uint(width), &Signal::lit_w(0, width));
    let inserted = mux(
        &coin2,
        &Signal::lit_w(2, width),
        &mux(&coin1, &Signal::lit_w(1, width), &Signal::lit_w(0, width)),
    );
    let total = saved.add(&inserted).bits(width - 1, 0);
    let enough = total.geq(&Signal::lit_w(u128::from(price), width));
    m.when_else(
        &enough,
        |m| m.connect(&saved, &Signal::lit_w(0, width)),
        |m| m.connect(&saved, &total),
    );
    m.connect(&dispense, &enough);
    m.connect(&credit, &saved);
    fsm_case(
        format!("rtllm/vending_{price}"),
        family,
        format!(
            "A vending-machine controller: coins of value 1 (coin1) or 2 (coin2) are inserted \
             one per cycle; when the accumulated credit reaches {price} the machine dispenses \
             (one-cycle pulse) and the credit resets, otherwise credit accumulates."
        ),
        m.into_circuit(),
    )
}

/// Serial parity FSM: tracks whether an odd number of ones has been seen.
pub fn parity_fsm(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("ParityFsm");
    let din = m.input("din", Type::bool());
    let odd = m.output("odd", Type::bool());
    let state = m.reg_init("state", Type::bool(), &Signal::lit_bool(false));
    m.when(&din, |m| m.connect(&state, &state.not()));
    m.connect(&odd, &state);
    fsm_case(
        "verilogeval/parity_fsm".to_string(),
        family,
        "A two-state FSM over a serial bit stream: odd is high when an odd number of ones has \
         been observed since reset."
            .to_string(),
        m.into_circuit(),
    )
}

/// Two-requester round-robin arbiter.
pub fn arbiter2(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("Arbiter2");
    let req0 = m.input("req0", Type::bool());
    let req1 = m.input("req1", Type::bool());
    let gnt0 = m.output("gnt0", Type::bool());
    let gnt1 = m.output("gnt1", Type::bool());
    // last = which requester was granted most recently (gets lower priority now).
    let last = m.reg_init("last", Type::bool(), &Signal::lit_bool(true));
    let grant0 = req0.and(&req1.not().or(&last));
    let grant1 = req1.and(&grant0.not());
    m.when(&grant0, |m| m.connect(&last, &Signal::lit_bool(false)));
    m.when(&grant1, |m| m.connect(&last, &Signal::lit_bool(true)));
    m.connect(&gnt0, &grant0);
    m.connect(&gnt1, &grant1);
    fsm_case(
        "verilogeval/arbiter2".to_string(),
        family,
        "A two-requester round-robin arbiter: at most one grant is asserted per cycle, a lone \
         requester is always granted, and when both request the one granted less recently wins."
            .to_string(),
        m.into_circuit(),
    )
}

/// Four-phase request/acknowledge handshake target.
pub fn handshake(family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new("Handshake");
    let req = m.input("req", Type::bool());
    let ack = m.output("ack", Type::bool());
    let busy = m.output("busy", Type::bool());
    // States: 0 = idle, 1 = working, 2 = done (ack until req drops).
    let state = m.reg_init("state", Type::uint(2), &Signal::lit_w(0, 2));
    let counter = m.reg_init("counter", Type::uint(2), &Signal::lit_w(0, 2));
    m.switch(&state, |sw| {
        sw.is(0, |m| {
            m.when(&req, |m| {
                m.connect(&state, &Signal::lit_w(1, 2));
                m.connect(&counter, &Signal::lit_w(0, 2));
            });
        });
        sw.is(1, |m| {
            let next = counter.add(&Signal::lit_w(1, 2)).bits(1, 0);
            m.connect(&counter, &next);
            m.when(&counter.eq(&Signal::lit_w(2, 2)), |m| {
                m.connect(&state, &Signal::lit_w(2, 2));
            });
        });
        sw.is(2, |m| {
            m.when(&req.not(), |m| m.connect(&state, &Signal::lit_w(0, 2)));
        });
        sw.default(|m| m.connect(&state, &Signal::lit_w(0, 2)));
    });
    m.connect(&ack, &state.eq(&Signal::lit_w(2, 2)));
    m.connect(&busy, &state.eq(&Signal::lit_w(1, 2)));
    fsm_case(
        "rtllm/handshake".to_string(),
        family,
        "A four-phase handshake target: on req the unit becomes busy for three cycles, then \
         asserts ack until req is deasserted, after which it returns to idle."
            .to_string(),
        m.into_circuit(),
    )
}

/// Blinking output with a programmable half-period.
pub fn blinker(half_period: u32, family: SourceFamily) -> BenchmarkCase {
    let width = 8u32;
    let mut m = ModuleBuilder::new(format!("Blinker{half_period}"));
    let en = m.input("en", Type::bool());
    let led = m.output("led", Type::bool());
    let count = m.reg_init("count", Type::uint(width), &Signal::lit_w(0, width));
    let out = m.reg_init("out", Type::bool(), &Signal::lit_bool(false));
    m.when(&en, |m| {
        let at_limit = count.eq(&Signal::lit_w(u128::from(half_period - 1), width));
        m.when_else(
            &at_limit,
            |m| {
                m.connect(&count, &Signal::lit_w(0, width));
                m.connect(&out, &out.not());
            },
            |m| {
                let next = count.add(&Signal::lit_w(1, width)).bits(width - 1, 0);
                m.connect(&count, &next);
            },
        );
    });
    m.connect(&led, &out);
    fsm_case(
        format!("hdlbits/blinker_{half_period}"),
        family,
        format!(
            "Toggle the led output every {half_period} enabled cycles (a square wave with a \
             half-period of {half_period})."
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
    fn all_fsm_generators_produce_clean_designs() {
        let cases = vec![
            sequence_detector(&[1, 0, 1], SourceFamily::HdlBits),
            sequence_detector(&[1, 1, 0, 1], SourceFamily::HdlBits),
            traffic_light(3, 1, 2, SourceFamily::Rtllm),
            vending_machine(5, SourceFamily::Rtllm),
            parity_fsm(SourceFamily::VerilogEval),
            arbiter2(SourceFamily::VerilogEval),
            handshake(SourceFamily::Rtllm),
            blinker(4, SourceFamily::HdlBits),
        ];
        for case in &cases {
            assert_clean(case);
        }
    }

    #[test]
    fn sequence_detector_fires_on_pattern() {
        let case = sequence_detector(&[1, 0, 1], SourceFamily::HdlBits);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        let stream = [1u128, 0, 1, 1, 0, 1];
        let mut fired = Vec::new();
        for bit in stream {
            sim.poke("din", bit).unwrap();
            sim.step().unwrap();
            fired.push(sim.peek("detected").unwrap());
        }
        // "101" completes at positions 2 and 5 (0-indexed).
        assert_eq!(fired, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn arbiter_grants_are_mutually_exclusive() {
        let case = arbiter2(SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        for pattern in [(0u128, 0u128), (1, 0), (0, 1), (1, 1), (1, 1), (1, 1)] {
            sim.poke("req0", pattern.0).unwrap();
            sim.poke("req1", pattern.1).unwrap();
            sim.eval().unwrap();
            let g0 = sim.peek("gnt0").unwrap();
            let g1 = sim.peek("gnt1").unwrap();
            assert!(g0 & g1 == 0, "both grants asserted");
            if pattern == (1, 0) {
                assert_eq!(g0, 1);
            }
            if pattern == (0, 1) {
                assert_eq!(g1, 1);
            }
            sim.step().unwrap();
        }
    }

    #[test]
    fn vending_machine_dispenses_at_price() {
        let case = vending_machine(3, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.reset(2).unwrap();
        // Insert 2 then 1: dispense on the second coin.
        sim.poke("coin2", 1).unwrap();
        sim.poke("coin1", 0).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("dispense").unwrap(), 0);
        sim.step().unwrap();
        sim.poke("coin2", 0).unwrap();
        sim.poke("coin1", 1).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("dispense").unwrap(), 1);
        sim.step().unwrap();
        sim.poke("coin1", 0).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("credit").unwrap(), 0);
    }
}
