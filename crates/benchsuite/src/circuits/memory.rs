//! Memory (RAM-backed) reference designs: register files, FIFOs, cache tag stores,
//! delay lines, masked scratchpads, sync-read SRAMs and ROMs.
//!
//! These are the suite's fifth family: every design instantiates at least one `Mem`,
//! and together they exercise the full HCL → FIRRTL → netlist → simulation memory
//! path — combinational and sequential (registered) reads, plain and lane-masked
//! synchronous writes, and initialized backing stores (read-under-write returns old
//! data; same-cycle write collisions merge lane-wise in port order).

use rechisel_hcl::prelude::*;

use crate::case::{BenchmarkCase, Category, SourceFamily};

const POINTS: usize = 32;

fn mem_case(
    id: String,
    family: SourceFamily,
    description: String,
    circuit: Circuit,
) -> BenchmarkCase {
    BenchmarkCase::new(id, family, Category::Memory, description, circuit, POINTS, 1)
}

/// Dual-read-port register file with one synchronous write port.
///
/// `entries` must be a power of two so addresses cannot go out of range.
pub fn register_file_dp(width: u32, entries: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("RegFileDp{width}x{entries}"));
    let mem = m.mem("regs", Type::uint(width), entries);
    let aw = mem.addr_width();
    let we = m.input("we", Type::bool());
    let waddr = m.input("waddr", Type::uint(aw));
    let wdata = m.input("wdata", Type::uint(width));
    let raddr0 = m.input("raddr0", Type::uint(aw));
    let raddr1 = m.input("raddr1", Type::uint(aw));
    let rdata0 = m.output("rdata0", Type::uint(width));
    let rdata1 = m.output("rdata1", Type::uint(width));
    m.when(&we, |m| {
        m.mem_write(&mem, &waddr, &wdata);
    });
    m.connect(&rdata0, &mem.read(&raddr0));
    m.connect(&rdata1, &mem.read(&raddr1));
    mem_case(
        format!("rtllm/regfile_dp_{width}x{entries}"),
        family,
        format!(
            "A register file of {entries} words x {width} bits with two combinational read \
             ports (raddr0/rdata0, raddr1/rdata1) and one synchronous write port (we, waddr, \
             wdata). A read of the address being written returns the old word in the write \
             cycle and the new word afterwards."
        ),
        m.into_circuit(),
    )
}

/// Circular-buffer FIFO with full/empty flags and a live count.
///
/// `depth` must be a power of two (pointers wrap naturally).
pub fn fifo(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Fifo{width}x{depth}"));
    let mem = m.mem("buffer", Type::uint(width), depth);
    let aw = mem.addr_width();
    let cw = aw + 1;
    let push = m.input("push", Type::bool());
    let pop = m.input("pop", Type::bool());
    let din = m.input("din", Type::uint(width));
    let dout = m.output("dout", Type::uint(width));
    let full = m.output("full", Type::bool());
    let empty = m.output("empty", Type::bool());
    let count_out = m.output("count", Type::uint(cw));

    let head = m.reg_init("head", Type::uint(aw), &Signal::lit_w(0, aw));
    let tail = m.reg_init("tail", Type::uint(aw), &Signal::lit_w(0, aw));
    let count = m.reg_init("cnt", Type::uint(cw), &Signal::lit_w(0, cw));

    let is_full = count.eq(&Signal::lit_w(depth as u128, cw));
    let is_empty = count.eq(&Signal::lit_w(0, cw));
    let do_push = push.and(&is_full.not());
    let do_pop = pop.and(&is_empty.not());

    m.when(&do_push, |m| {
        m.mem_write(&mem, &tail, &din);
        m.connect(&tail, &tail.add(&Signal::lit_w(1, aw)).bits(aw - 1, 0));
    });
    m.when(&do_pop, |m| {
        m.connect(&head, &head.add(&Signal::lit_w(1, aw)).bits(aw - 1, 0));
    });
    let inc = count.add(&Signal::lit_w(1, cw)).bits(cw - 1, 0);
    let dec = count.sub(&Signal::lit_w(1, cw)).bits(cw - 1, 0);
    m.when(&do_push.and(&do_pop.not()), |m| m.connect(&count, &inc));
    m.when(&do_pop.and(&do_push.not()), |m| m.connect(&count, &dec));

    m.connect(&dout, &mem.read(&head));
    m.connect(&full, &is_full);
    m.connect(&empty, &is_empty);
    m.connect(&count_out, &count);
    mem_case(
        format!("verilogeval/fifo_{width}x{depth}"),
        family,
        format!(
            "A {depth}-deep, {width}-bit circular-buffer FIFO with synchronous reset. push \
             enqueues din unless full; pop dequeues unless empty; a simultaneous push and pop \
             leaves the occupancy (count) unchanged. dout always shows the word at the head \
             pointer; full and empty track the count."
        ),
        m.into_circuit(),
    )
}

/// Direct-mapped cache tag store: a valid+tag word per set with a hit comparator.
///
/// `sets` must be a power of two.
pub fn cache_tag_store(tag_bits: u32, sets: usize, family: SourceFamily) -> BenchmarkCase {
    let ww = tag_bits + 1; // {valid, tag}
    let mut m = ModuleBuilder::new(format!("CacheTag{tag_bits}x{sets}"));
    let mem = m.mem("tags", Type::uint(ww), sets);
    let index = m.input("index", Type::uint(mem.addr_width()));
    let tag = m.input("tag", Type::uint(tag_bits));
    let fill = m.input("fill", Type::bool());
    let hit = m.output("hit", Type::bool());

    let entry = m.node("entry", &mem.read(&index));
    let valid = entry.bit(i64::from(tag_bits));
    let stored = entry.bits(tag_bits - 1, 0);
    m.connect(&hit, &valid.and(&stored.eq(&tag)));
    m.when(&fill, |m| {
        let word = Signal::lit_bool(true).as_uint().cat(&tag);
        let word = m.node("fill_word", &word);
        m.mem_write(&mem, &index, &word);
    });
    mem_case(
        format!("rtllm/cache_tag_{tag_bits}x{sets}"),
        family,
        format!(
            "The tag store of a direct-mapped cache with {sets} sets and {tag_bits}-bit tags. \
             Each set holds a valid bit and a tag; hit is high when the indexed set is valid \
             and its stored tag equals the incoming tag. Asserting fill writes the incoming \
             tag (with the valid bit set) into the indexed set on the clock edge, so a lookup \
             in the fill cycle still sees the old entry."
        ),
        m.into_circuit(),
    )
}

/// Memory-backed delay line: dout is din delayed by exactly `depth` cycles.
///
/// `depth` must be a power of two. A single pointer walks the RAM; the word it is
/// about to overwrite is (combinationally) the input from `depth` cycles ago.
pub fn delay_line_mem(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("DelayLineMem{width}x{depth}"));
    let mem = m.mem("line", Type::uint(width), depth);
    let aw = mem.addr_width();
    let en = m.input("en", Type::bool());
    let din = m.input("din", Type::uint(width));
    let dout = m.output("dout", Type::uint(width));
    let ptr = m.reg_init("ptr", Type::uint(aw), &Signal::lit_w(0, aw));
    m.when(&en, |m| {
        m.mem_write(&mem, &ptr, &din);
        m.connect(&ptr, &ptr.add(&Signal::lit_w(1, aw)).bits(aw - 1, 0));
    });
    m.connect(&dout, &mem.read(&ptr));
    mem_case(
        format!("hdlbits/delay_line_mem_{width}x{depth}"),
        family,
        format!(
            "A RAM-backed delay line: while en is high, dout reproduces din delayed by \
             exactly {depth} cycles ({width}-bit words; the first {depth} outputs are zero). \
             While en is low the pointer and contents hold."
        ),
        m.into_circuit(),
    )
}

/// Scratchpad RAM with a read-or-write mode select sharing one address port.
///
/// `depth` must be a power of two.
pub fn scratchpad(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("Scratchpad{width}x{depth}"));
    let mem = m.mem("pad", Type::uint(width), depth);
    let aw = mem.addr_width();
    let wr = m.input("wr", Type::bool());
    let addr = m.input("addr", Type::uint(aw));
    let wdata = m.input("wdata", Type::uint(width));
    let rdata = m.output("rdata", Type::uint(width));
    let zero_word = m.output("zero_word", Type::uint(width));
    m.when(&wr, |m| {
        m.mem_write(&mem, &addr, &wdata);
    });
    // Reads stay combinational even in write cycles (old data); zero_word pins a
    // literal-addressed read port.
    m.connect(&rdata, &mem.read(&addr));
    m.connect(&zero_word, &mem.read(&Signal::lit_w(0, aw)));
    mem_case(
        format!("hdlbits/scratchpad_{width}x{depth}"),
        family,
        format!(
            "A single-port {depth}x{width} scratchpad RAM: when wr is high the addressed word \
             is overwritten with wdata on the clock edge; rdata always shows the current \
             (pre-edge) contents of the addressed word, and zero_word continuously shows \
             word 0."
        ),
        m.into_circuit(),
    )
}

/// Byte-enable scratchpad: each bit of `ben` gates one 8-bit lane of the write.
///
/// `width` must be a multiple of 8 and `depth` a power of two. The per-byte enables
/// fan out to a full lane mask (one bit per data bit), the granularity real SRAM
/// macros expose as byte write enables.
pub fn byte_enable_scratchpad(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    assert!(width.is_multiple_of(8), "byte-enable scratchpad needs whole byte lanes");
    let lanes = width / 8;
    let mut m = ModuleBuilder::new(format!("ByteScratchpad{width}x{depth}"));
    let mem = m.mem("pad", Type::uint(width), depth);
    let aw = mem.addr_width();
    let wr = m.input("wr", Type::bool());
    let addr = m.input("addr", Type::uint(aw));
    let wdata = m.input("wdata", Type::uint(width));
    let ben = m.input("ben", Type::uint(lanes));
    let rdata = m.output("rdata", Type::uint(width));
    // Fan each byte enable across its 8 data bits, most-significant lane first.
    let lane_masks: Vec<Signal> = (0..lanes)
        .rev()
        .map(|lane| ben.bit(i64::from(lane)).mux(&Signal::lit_w(0xFF, 8), &Signal::lit_w(0, 8)))
        .collect();
    let mask = m.node("lane_mask", &cat_all(&lane_masks));
    m.when(&wr, |m| {
        m.mem_write_masked(&mem, &addr, &wdata, &mask);
    });
    m.connect(&rdata, &mem.read(&addr));
    mem_case(
        format!("verilogeval/byte_scratchpad_{width}x{depth}"),
        family,
        format!(
            "A {depth}x{width} scratchpad RAM with per-byte write enables: when wr is high, \
             byte lane i of the addressed word takes wdata's byte i only if ben bit i is set; \
             disabled lanes keep their old contents. rdata always shows the current (pre-edge) \
             word at addr."
        ),
        m.into_circuit(),
    )
}

/// Sync-read SRAM: the read port is registered, modelling a real SRAM macro whose
/// read data appears one cycle after the address is presented.
///
/// `depth` must be a power of two.
pub fn sync_sram(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("SyncSram{width}x{depth}"));
    let mem = m.mem("sram", Type::uint(width), depth);
    let aw = mem.addr_width();
    let we = m.input("we", Type::bool());
    let waddr = m.input("waddr", Type::uint(aw));
    let wdata = m.input("wdata", Type::uint(width));
    let raddr = m.input("raddr", Type::uint(aw));
    let rdata = m.output("rdata", Type::uint(width));
    m.when(&we, |m| {
        m.mem_write(&mem, &waddr, &wdata);
    });
    m.connect(&rdata, &mem.read_sync(&raddr));
    mem_case(
        format!("rtllm/sync_sram_{width}x{depth}"),
        family,
        format!(
            "A {depth}x{width} SRAM with a registered (sequential) read port: rdata shows the \
             word addressed by raddr one cycle earlier. A read of the address being written \
             captures the old word (read-under-write returns old data). Writes are synchronous \
             through we/waddr/wdata."
        ),
        m.into_circuit(),
    )
}

/// ROM lookup table: an initialized memory with no write ports, read both
/// combinationally and through a registered port.
///
/// `depth` must be a power of two. Entry `i` holds `(i * i + i) mod 2^width`.
pub fn rom_lookup(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("RomLookup{width}x{depth}"));
    let mem = m.mem("rom", Type::uint(width), depth);
    let table: Vec<u64> = (0..depth as u64)
        .map(|i| (i.wrapping_mul(i).wrapping_add(i)) & ((1u64 << width.min(63)) - 1))
        .collect();
    m.mem_init(&mem, &table);
    let aw = mem.addr_width();
    let addr = m.input("addr", Type::uint(aw));
    let data = m.output("data", Type::uint(width));
    let data_q = m.output("data_q", Type::uint(width));
    m.connect(&data, &mem.read(&addr));
    m.connect(&data_q, &mem.read_sync(&addr));
    mem_case(
        format!("hdlbits/rom_lookup_{width}x{depth}"),
        family,
        format!(
            "A {depth}-entry ROM of {width}-bit words preloaded with f(i) = i*i + i \
             (mod 2^{width}). data combinationally shows the entry at addr; data_q shows the \
             same entry one cycle later through a registered read port. The contents never \
             change."
        ),
        m.into_circuit(),
    )
}

/// Bit-masked RAM: the write mask is exposed directly, one enable bit per data bit.
///
/// `depth` must be a power of two.
pub fn bitmask_ram(width: u32, depth: usize, family: SourceFamily) -> BenchmarkCase {
    let mut m = ModuleBuilder::new(format!("BitmaskRam{width}x{depth}"));
    let mem = m.mem("cells", Type::uint(width), depth);
    let aw = mem.addr_width();
    let we = m.input("we", Type::bool());
    let addr = m.input("addr", Type::uint(aw));
    let wdata = m.input("wdata", Type::uint(width));
    let wmask = m.input("wmask", Type::uint(width));
    let rdata = m.output("rdata", Type::uint(width));
    m.when(&we, |m| {
        m.mem_write_masked(&mem, &addr, &wdata, &wmask);
    });
    m.connect(&rdata, &mem.read(&addr));
    mem_case(
        format!("rtllm/bitmask_ram_{width}x{depth}"),
        family,
        format!(
            "A {depth}x{width} RAM with bit-granular write masking: when we is high, data bit \
             i of the addressed word takes wdata bit i only if wmask bit i is set; unmasked \
             bits hold. rdata combinationally shows the current word at addr."
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
    fn memory_references_check_and_lower_with_mems() {
        for case in [
            register_file_dp(8, 8, SourceFamily::Rtllm),
            fifo(8, 4, SourceFamily::VerilogEval),
            cache_tag_store(6, 8, SourceFamily::Rtllm),
            delay_line_mem(8, 4, SourceFamily::HdlBits),
            scratchpad(8, 8, SourceFamily::HdlBits),
            byte_enable_scratchpad(16, 8, SourceFamily::VerilogEval),
            sync_sram(8, 8, SourceFamily::Rtllm),
            rom_lookup(8, 16, SourceFamily::HdlBits),
            bitmask_ram(8, 8, SourceFamily::Rtllm),
        ] {
            let report = check_circuit(case.reference());
            assert!(!report.has_errors(), "{} fails checking: {report:?}", case.id);
            let netlist = lower_circuit(case.reference())
                .unwrap_or_else(|e| panic!("{} fails lowering: {e}", case.id));
            assert_eq!(netlist.mems.len(), 1, "{} should lower to one memory", case.id);
            assert_eq!(case.category, Category::Memory);
        }
    }

    #[test]
    fn delay_line_delays_by_depth() {
        let case = delay_line_mem(8, 4, SourceFamily::HdlBits);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("en", 1).unwrap();
        let feed: Vec<u128> = (10..26).collect();
        let mut seen = Vec::new();
        for &v in &feed {
            sim.poke("din", v).unwrap();
            sim.eval().unwrap();
            seen.push(sim.peek("dout").unwrap());
            sim.step().unwrap();
        }
        // First `depth` outputs are zero, then the input delayed by 4.
        assert_eq!(&seen[..4], &[0, 0, 0, 0]);
        assert_eq!(&seen[4..], &feed[..feed.len() - 4]);
    }

    #[test]
    fn fifo_orders_and_flags() {
        let case = fifo(8, 4, SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.reset(2).unwrap();
        assert_eq!(sim.peek("empty").unwrap(), 1);
        // Fill completely.
        sim.poke("push", 1).unwrap();
        for v in [5u128, 6, 7, 8] {
            sim.poke("din", v).unwrap();
            sim.step().unwrap();
        }
        assert_eq!(sim.peek("full").unwrap(), 1);
        assert_eq!(sim.peek("count").unwrap(), 4);
        // A push against full is ignored.
        sim.poke("din", 99).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("count").unwrap(), 4);
        // Drain in FIFO order.
        sim.poke("push", 0).unwrap();
        sim.poke("pop", 1).unwrap();
        for expected in [5u128, 6, 7, 8] {
            sim.eval().unwrap();
            assert_eq!(sim.peek("dout").unwrap(), expected);
            sim.step().unwrap();
        }
        assert_eq!(sim.peek("empty").unwrap(), 1);
    }

    #[test]
    fn byte_enable_scratchpad_writes_only_enabled_lanes() {
        let case = byte_enable_scratchpad(16, 8, SourceFamily::VerilogEval);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("wr", 1).unwrap();
        sim.poke("addr", 5).unwrap();
        sim.poke("wdata", 0xBEEF).unwrap();
        sim.poke("ben", 0b01).unwrap(); // low byte only
        sim.step().unwrap();
        assert_eq!(sim.peek_mem("pad", 5).unwrap(), 0x00EF);
        sim.poke("ben", 0b10).unwrap(); // high byte only
        sim.poke("wdata", 0x1200).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek_mem("pad", 5).unwrap(), 0x12EF);
        sim.poke("wr", 0).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0x12EF);
    }

    #[test]
    fn sync_sram_read_lags_one_cycle() {
        let case = sync_sram(8, 8, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.reset(2).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("waddr", 3).unwrap();
        sim.poke("wdata", 0x5A).unwrap();
        sim.poke("raddr", 3).unwrap();
        sim.step().unwrap();
        // The edge that performed the write captured the OLD (zero) word.
        assert_eq!(sim.peek("rdata").unwrap(), 0);
        sim.poke("we", 0).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0x5A);
    }

    #[test]
    fn rom_lookup_matches_its_table() {
        let case = rom_lookup(8, 16, SourceFamily::HdlBits);
        let netlist = lower_circuit(case.reference()).unwrap();
        assert!(netlist.mems[0].writes.is_empty(), "a ROM has no write ports");
        assert_eq!(netlist.mems[0].init.len(), 16);
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.reset(2).unwrap();
        for i in 0..16u128 {
            sim.poke("addr", i).unwrap();
            sim.eval().unwrap();
            assert_eq!(sim.peek("data").unwrap(), (i * i + i) & 0xFF, "entry {i}");
            sim.step().unwrap();
            assert_eq!(sim.peek("data_q").unwrap(), (i * i + i) & 0xFF, "entry {i} (sync)");
        }
    }

    #[test]
    fn cache_tag_hits_after_fill() {
        let case = cache_tag_store(6, 8, SourceFamily::Rtllm);
        let netlist = lower_circuit(case.reference()).unwrap();
        let mut sim = rechisel_sim::Simulator::new(netlist);
        sim.poke("index", 3).unwrap();
        sim.poke("tag", 0x2A).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("hit").unwrap(), 0, "cold store must miss");
        sim.poke("fill", 1).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("hit").unwrap(), 0, "fill cycle still sees the old entry");
        sim.step().unwrap();
        sim.poke("fill", 0).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("hit").unwrap(), 1, "filled tag must hit");
        sim.poke("tag", 0x15).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("hit").unwrap(), 0, "different tag must miss");
    }
}
