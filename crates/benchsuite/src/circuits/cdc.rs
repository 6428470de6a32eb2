//! Clock-domain-crossing (CDC) reference designs: 2-flop synchronizers, gray-code
//! async FIFOs, and toggle-protocol handshakes.
//!
//! These are the suite's seventh family: every design is a `RawModule` with two
//! explicit clock ports and registers split across both domains via `with_clock`, so
//! together they exercise the per-domain stepping model end to end — explicit
//! register clocks, per-port memory write *and read* clocks, and the
//! `SimEngine::step_clock` / `EdgeQueue` driving surface.
//!
//! Under the suite's random testbench the circuits are driven by plain `step()`
//! (every domain edges simultaneously — the legacy lockstep schedule), which keeps
//! them valid [`BenchmarkCase`]s; the dedicated CDC tests additionally drive the two
//! clocks at unequal ratios and assert both engines agree cycle for cycle.

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 32;

fn cdc_case(
    id: String,
    family: SourceFamily,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, Category::Cdc, description, circuit, POINTS, 1)
}

/// Classic two-flop synchronizer: `d` is captured in the source domain, then passed
/// through two flops in the destination domain to resolve metastability.
pub fn sync_2ff(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::raw(format!("Sync2ff{width}"));
    let clk_src = m.input("clk_src", Type::Clock);
    let clk_dst = m.input("clk_dst", Type::Clock);
    let d = m.input("d", Type::uint(width));
    let q = m.output("q", Type::uint(width));

    let mut captured = None;
    m.with_clock(&clk_src, |m| {
        let cap = m.reg("src_cap", Type::uint(width));
        m.connect(&cap, &d);
        captured = Some(cap);
    });
    let cap = captured.expect("source register was built");
    m.with_clock(&clk_dst, |m| {
        let s1 = m.reg("sync_1", Type::uint(width));
        let s2 = m.reg("sync_2", Type::uint(width));
        m.connect(&s1, &cap);
        m.connect(&s2, &s1);
        m.connect(&q, &s2);
    });
    cdc_case(
        format!("verilogeval/cdc_sync2ff_{width}"),
        family,
        format!(
            "A {width}-bit two-flop synchronizer. The input d is registered on clk_src, then \
             passes through two registers clocked by clk_dst; q shows the twice-synchronized \
             value (three destination edges after a source capture)."
        ),
        m.into_circuit(),
    )
}

/// Converts a binary signal to gray code: `gray = bin ^ (bin >> 1)`.
fn to_gray(bin: &Signal, width: u32) -> Signal {
    bin.xor(&bin.shr(1).pad(width)).bits(width - 1, 0)
}

/// Asynchronous FIFO with gray-code pointers and 2-flop pointer synchronizers.
///
/// `depth` must be a power of two, at least 4. The write side (clk_w) pushes `din`
/// when `push && !full`; the read side (clk_r) advances when `pop && !empty` and
/// registers the popped word into `dout` through a sequential read port clocked by
/// clk_r (read enable = the pop, so `dout` holds the last-popped word). The
/// full/empty flags compare native-domain gray pointers against the twice-synchronized
/// opposite pointer, so both flags are conservative under any clock ratio.
pub fn async_fifo(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    assert!(depth >= 4 && depth.is_power_of_two(), "async FIFO depth must be a power of two >= 4");
    let aw = depth.trailing_zeros();
    let pw = aw + 1; // pointer width: one wrap bit on top of the address

    let mut m = ModuleBuilder::raw(format!("AsyncFifo{width}x{depth}"));
    let clk_w = m.input("clk_w", Type::Clock);
    let clk_r = m.input("clk_r", Type::Clock);
    let push = m.input("push", Type::bool());
    let din = m.input("din", Type::uint(width));
    let pop = m.input("pop", Type::bool());
    let dout = m.output("dout", Type::uint(width));
    let full = m.output("full", Type::bool());
    let empty = m.output("empty", Type::bool());

    let mem = m.mem("buffer", Type::uint(width), depth);

    // Read-domain pointer registers are declared first so the write domain can
    // synchronize them (and vice versa); `reg` only fixes the clock, connections to
    // the next-state can come later.
    let mut read_side = None;
    m.with_clock(&clk_r, |m| {
        let rbin = m.reg("rbin", Type::uint(pw));
        let rgray = m.reg("rgray", Type::uint(pw));
        read_side = Some((rbin, rgray));
    });
    let (rbin, rgray) = read_side.expect("read-side registers were built");

    let mut write_side = None;
    m.with_clock(&clk_w, |m| {
        let wbin = m.reg("wbin", Type::uint(pw));
        let wgray = m.reg("wgray", Type::uint(pw));
        // Two-flop synchronizer for the read pointer, clocked by the write clock.
        let rgray_w1 = m.reg("rgray_w1", Type::uint(pw));
        let rgray_w2 = m.reg("rgray_w2", Type::uint(pw));
        m.connect(&rgray_w1, &rgray);
        m.connect(&rgray_w2, &rgray_w1);

        // Full: the write gray pointer equals the synchronized read gray pointer
        // with its two top bits inverted (the classic wrap test).
        let inverted_top = rgray_w2
            .bits(pw - 1, pw - 2)
            .not()
            .bits(1, 0)
            .cat(&rgray_w2.bits(pw - 3, 0))
            .bits(pw - 1, 0);
        let is_full = wgray.eq(&inverted_top);
        m.connect(&full, &is_full);

        let do_push = push.and(&is_full.not());
        m.when(&do_push, |m| {
            m.mem_write(&mem, &wbin.bits(aw - 1, 0), &din);
            let wbin_next = wbin.add(&Signal::lit_w(1, pw)).bits(pw - 1, 0);
            m.connect(&wbin, &wbin_next);
            m.connect(&wgray, &to_gray(&wbin_next, pw));
        });
        write_side = Some(wgray);
    });
    let wgray = write_side.expect("write-side registers were built");

    m.with_clock(&clk_r, |m| {
        // Two-flop synchronizer for the write pointer, clocked by the read clock.
        let wgray_r1 = m.reg("wgray_r1", Type::uint(pw));
        let wgray_r2 = m.reg("wgray_r2", Type::uint(pw));
        m.connect(&wgray_r1, &wgray);
        m.connect(&wgray_r2, &wgray_r1);

        let is_empty = rgray.eq(&wgray_r2);
        m.connect(&empty, &is_empty);

        let do_pop = pop.and(&is_empty.not());
        m.when(&do_pop, |m| {
            let rbin_next = rbin.add(&Signal::lit_w(1, pw)).bits(pw - 1, 0);
            m.connect(&rbin, &rbin_next);
            m.connect(&rgray, &to_gray(&rbin_next, pw));
        });
        // Sequential read port clocked by clk_r: captures the word at the head on
        // each pop (read enable), so dout holds the last-popped word.
        let head = m.mem_read_sync(&mem, &rbin.bits(aw - 1, 0), Some(&do_pop));
        m.connect(&dout, &head);
    });

    cdc_case(
        format!("rtllm/cdc_async_fifo_{width}x{depth}"),
        family,
        format!(
            "An asynchronous FIFO of {depth} words x {width} bits crossing from clk_w to \
             clk_r. Gray-coded write/read pointers are exchanged through two-flop \
             synchronizers; full and empty compare the native pointer with the \
             synchronized opposite pointer. A push (push && !full) stores din; a pop \
             (pop && !empty) advances the read pointer and registers the popped word \
             into dout through a clk_r-clocked sequential read port."
        ),
        m.into_circuit(),
    )
}

/// Toggle-protocol handshake moving one data word from the source to the destination
/// domain: a send toggles `req`; the destination detects the synchronized toggle,
/// captures the (stable) data word, and toggles `ack` back; `busy` blocks further
/// sends until the acknowledge returns.
pub fn cdc_handshake(width: u32, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::raw(format!("CdcHandshake{width}"));
    let clk_src = m.input("clk_src", Type::Clock);
    let clk_dst = m.input("clk_dst", Type::Clock);
    let send = m.input("send", Type::bool());
    let din = m.input("din", Type::uint(width));
    let dout = m.output("dout", Type::uint(width));
    let busy = m.output("busy", Type::bool());

    // Destination-side acknowledge toggle, declared first so the source domain can
    // synchronize it.
    let mut ack_reg = None;
    m.with_clock(&clk_dst, |m| {
        ack_reg = Some(m.reg("ack", Type::bool()));
    });
    let ack = ack_reg.expect("ack register was built");

    let mut src_side = None;
    m.with_clock(&clk_src, |m| {
        let req = m.reg("req", Type::bool());
        let data = m.reg("data", Type::uint(width));
        let ack_s1 = m.reg("ack_s1", Type::bool());
        let ack_s2 = m.reg("ack_s2", Type::bool());
        m.connect(&ack_s1, &ack);
        m.connect(&ack_s2, &ack_s1);

        let is_busy = req.neq(&ack_s2);
        m.connect(&busy, &is_busy);
        m.when(&send.and(&is_busy.not()), |m| {
            m.connect(&data, &din);
            m.connect(&req, &req.not());
        });
        src_side = Some((req, data));
    });
    let (req, data) = src_side.expect("source registers were built");

    m.with_clock(&clk_dst, |m| {
        let req_d1 = m.reg("req_d1", Type::bool());
        let req_d2 = m.reg("req_d2", Type::bool());
        let req_d3 = m.reg("req_d3", Type::bool());
        m.connect(&req_d1, &req);
        m.connect(&req_d2, &req_d1);
        m.connect(&req_d3, &req_d2);

        // An edge on the synchronized toggle marks one transfer; the data word is
        // stable (busy blocks overwrites until the ack round-trip completes).
        let take = req_d2.neq(&req_d3);
        let captured = m.reg("captured", Type::uint(width));
        m.when(&take, |m| {
            m.connect(&captured, &data);
        });
        m.connect(&dout, &captured);
        // Acknowledge: reflect the synchronized request toggle back.
        m.connect(&ack, &req_d2);
    });

    cdc_case(
        format!("rtllm/cdc_handshake_{width}"),
        family,
        format!(
            "A toggle-protocol CDC handshake moving a {width}-bit word from clk_src to \
             clk_dst. send (when not busy) captures din and flips the req toggle; the \
             destination double-synchronizes req, captures the word into dout on a toggle \
             edge, and reflects the toggle back as ack; busy holds until ack returns."
        ),
        m.into_circuit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::{check_circuit, lower_circuit};
    use rechisel_sim::SimEngine;

    #[test]
    fn cdc_references_check_and_lower_with_two_domains() {
        for case in [
            sync_2ff(4, SourceFamily::VerilogEval),
            async_fifo(8, 4, SourceFamily::Rtllm),
            async_fifo(4, 8, SourceFamily::Rtllm),
            cdc_handshake(8, SourceFamily::Rtllm),
        ] {
            let report = check_circuit(case.reference());
            assert!(!report.has_errors(), "{} fails checking: {report:?}", case.id);
            let netlist = lower_circuit(case.reference()).unwrap();
            let domains = netlist.clock_domains();
            assert_eq!(domains.len(), 2, "{} should have two clock domains", case.id);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn async_fifo_rejects_non_power_of_two_depths() {
        let _ = async_fifo(8, 6, SourceFamily::Rtllm);
    }

    #[test]
    fn gray_codes_are_gray() {
        // Adjacent binary values must differ in exactly one gray bit; check via the
        // interpreter on a tiny pointer-increment circuit.
        let mut m = ModuleBuilder::new("Gray");
        let b = m.input("b", Type::uint(4));
        let g = m.output("g", Type::uint(4));
        m.connect(&g, &to_gray(&b, 4));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        let mut prev = None;
        for v in 0..16u128 {
            sim.poke("b", v).unwrap();
            sim.eval().unwrap();
            let g = sim.peek("g").unwrap();
            if let Some(p) = prev {
                let diff: u128 = g ^ p;
                assert_eq!(diff.count_ones(), 1, "gray codes of {v} and {} differ", v - 1);
            }
            prev = Some(g);
        }
    }
}
