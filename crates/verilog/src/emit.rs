//! Lowered-netlist → Verilog emission.
//!
//! [`emit_verilog`] walks a [`Netlist`] once and writes synthesizable Verilog text. In
//! the ReChisel workflow this is the final stage of the "Chisel → FIRRTL → Verilog"
//! compilation path whose output is handed to the simulator as the device under test.
//!
//! Every operator is written fully parenthesized, so the text never relies on
//! Verilog's operator precedence.

use std::fmt::Write as _;

use rechisel_firrtl::ir::{Direction, Expression, PrimOp};
use rechisel_firrtl::lower::{NetMem, NetMemWrite, NetReg, Netlist, SignalInfo};
use rechisel_firrtl::typeenv::min_uint_width;

/// Errors produced during emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// An expression form that lowering should have removed reached the emitter.
    Unsupported(String),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for EmitError {}

/// Emits a netlist as Verilog source text.
///
/// The module's sections come in a fixed order: the ports; `wire` declarations of
/// the non-output definitions, then `reg` declarations; the memory arrays; `initial`
/// images; the continuous assignments; then one `always` block per clock, in
/// first-use order, with register updates before memory writes.
///
/// # Errors
///
/// Returns [`EmitError::Unsupported`] if the netlist contains expression forms that
/// lowering should have eliminated (aggregate accesses, defect carriers, sequential
/// reads); the first one in text order is reported.
pub fn emit_verilog(netlist: &Netlist) -> Result<String, EmitError> {
    // One walk fills each section; they are joined at the end.
    let mut head = String::new();
    let mut initials = String::new();
    let mut assigns = String::new();
    let mut blocks: Vec<(&str, String)> = Vec::new();

    let _ = writeln!(head, "module {}(", netlist.name);
    for (i, port) in netlist.ports.iter().enumerate() {
        let dir = match port.direction {
            Direction::Input => "input",
            Direction::Output => "output",
        };
        let comma = if i + 1 == netlist.ports.len() { "" } else { "," };
        let _ = writeln!(head, "  {dir} wire {}{}{comma}", Range(port.info.width), port.name);
    }
    head.push_str(");\n");
    let ports_end = head.len();
    for def in &netlist.defs {
        if !netlist.outputs().any(|p| p.name == def.name) {
            let _ = writeln!(head, "  wire {}{};", Range(def.info.width), def.name);
        }
        let _ = write!(assigns, "  assign {} = ", def.name);
        expr(&mut assigns, &def.expr, netlist)?;
        assigns.push_str(";\n");
    }
    for reg in &netlist.regs {
        let _ = writeln!(head, "  reg {}{};", Range(reg.info.width), reg.name);
        reg_update(block(&mut blocks, &reg.clock), reg, netlist)?;
    }
    // Memories: a reg array per memory (with an `initial` image when declared), each
    // write port folded into the always block of ITS OWN clock — ports of one memory
    // may sit in different clock domains. Combinational reads appear inline as array
    // indexing; sequential reads were hoisted by lowering into ordinary registers
    // (emitted above) whose next-state is the guarded array read.
    for mem in &netlist.mems {
        let last = mem.depth.saturating_sub(1);
        let _ = writeln!(head, "  reg {}{} [0:{last}];", Range(mem.info.width), mem.name);
        if !mem.init.is_empty() {
            initials.push_str("  initial begin\n");
            for (index, word) in mem.init.iter().enumerate() {
                let _ =
                    writeln!(initials, "    {}[{index}] = {}'d{word};", mem.name, mem.info.width);
            }
            initials.push_str("  end\n\n");
        }
        for port in &mem.writes {
            mem_write(block(&mut blocks, &port.clock), mem, port, netlist)?;
        }
    }
    // A blank line closes the declarations, when there are any.
    if head.len() > ports_end {
        head.push('\n');
    }
    for (_, block) in &mut blocks {
        block.push_str("  end\n");
    }
    let mut sections = vec![head.as_str(), &initials, &assigns];
    sections.extend(blocks.iter().map(|(_, block)| block.as_str()));
    sections.push("endmodule\n");
    // One allocation, of the text's exact length.
    Ok(sections.concat())
}

/// A declaration's bit range, `[W-1:0] `; empty for one bit.
struct Range(u32);

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 <= 1 {
            Ok(())
        } else {
            write!(f, "[{}:0] ", self.0 - 1)
        }
    }
}

/// The `always` block of `clock`, opened at the clock's first use.
fn block<'b, 'n>(blocks: &'b mut Vec<(&'n str, String)>, clock: &'n str) -> &'b mut String {
    let at = match blocks.iter().position(|(c, _)| *c == clock) {
        Some(at) => at,
        None => {
            blocks.push((clock, format!("\n  always @(posedge {clock}) begin\n")));
            blocks.len() - 1
        }
    };
    &mut blocks[at].1
}

fn reg_update(out: &mut String, reg: &NetReg, netlist: &Netlist) -> Result<(), EmitError> {
    match &reg.reset {
        Some((cond, init)) => {
            out.push_str("    if (");
            expr(out, cond, netlist)?;
            let _ = write!(out, ") begin\n      {} <= ", reg.name);
            expr(out, init, netlist)?;
            let _ = write!(out, ";\n    end else begin\n      {} <= ", reg.name);
            expr(out, &reg.next, netlist)?;
            out.push_str(";\n    end\n");
        }
        None => {
            let _ = write!(out, "    {} <= ", reg.name);
            expr(out, &reg.next, netlist)?;
            out.push_str(";\n");
        }
    }
    Ok(())
}

fn mem_write(
    out: &mut String,
    mem: &NetMem,
    port: &NetMemWrite,
    netlist: &Netlist,
) -> Result<(), EmitError> {
    let enabled = !matches!(port.enable, Expression::UIntLiteral { value: 1, .. });
    // The engines drop out-of-range writes; IEEE Verilog leaves an out-of-bounds array
    // store implementation-defined, so fold the range check into the enable whenever
    // the address can exceed the depth.
    let guarded = addr_can_overrun(&port.addr, mem.depth, netlist);
    if enabled || guarded {
        out.push_str("    if (");
        match (enabled, guarded) {
            (true, true) => {
                out.push('(');
                expr(out, &port.enable, netlist)?;
                out.push_str(" && ");
                in_range(out, &port.addr, mem.depth, netlist)?;
                out.push(')');
            }
            (true, false) => expr(out, &port.enable, netlist)?,
            _ => in_range(out, &port.addr, mem.depth, netlist)?,
        }
        out.push_str(") begin\n      ");
    } else {
        out.push_str("    ");
    }
    let _ = write!(out, "{}[", mem.name);
    expr(out, &port.addr, netlist)?;
    out.push_str("] <= ");
    match &port.mask {
        None => expr(out, &port.value, netlist)?,
        // A lane-masked port stores a read-modify-write merge: lanes whose mask bit
        // is clear keep the old word (nonblocking reads see pre-edge data, so the
        // merge composes with the engines' old-data semantics).
        Some(mask) => {
            let _ = write!(out, "(({}[", mem.name);
            expr(out, &port.addr, netlist)?;
            out.push_str("] & (~");
            expr(out, mask, netlist)?;
            out.push_str(")) | (");
            expr(out, &port.value, netlist)?;
            out.push_str(" & ");
            expr(out, mask, netlist)?;
            out.push_str("))");
        }
    }
    out.push_str(";\n");
    if enabled || guarded {
        out.push_str("    end\n");
    }
    Ok(())
}

fn signal_info(netlist: &Netlist, name: &str) -> SignalInfo {
    netlist.signal(name).unwrap_or(SignalInfo { width: 1, signed: false, is_clock: false })
}

/// True when `addr` can evaluate to a value at or beyond `depth` — i.e. the address
/// expression's width covers more words than the memory holds. Literal addresses are
/// checked exactly (elaboration already rejects out-of-range literals).
fn addr_can_overrun(addr: &Expression, depth: usize, netlist: &Netlist) -> bool {
    if let Expression::UIntLiteral { value, .. } = addr {
        return *value >= depth as u128;
    }
    let width = expr_width(addr, netlist).min(127);
    (1u128 << width) > depth as u128
}

/// `(addr < depth)`, the bound sized to its own minimal width.
fn in_range(
    out: &mut String,
    addr: &Expression,
    depth: usize,
    netlist: &Netlist,
) -> Result<(), EmitError> {
    out.push('(');
    expr(out, addr, netlist)?;
    let _ = write!(out, " < {}'d{depth})", min_uint_width(depth as u128));
    Ok(())
}

fn expr(out: &mut String, e: &Expression, netlist: &Netlist) -> Result<(), EmitError> {
    match e {
        Expression::Ref(name) => out.push_str(name),
        Expression::UIntLiteral { value, width } => {
            let _ = write!(out, "{}'d{value}", width.unwrap_or_else(|| min_uint_width(*value)));
        }
        Expression::SIntLiteral { value, width } => {
            let w = width.unwrap_or(32);
            let masked =
                if w >= 128 { *value as u128 } else { (*value as u128) & ((1u128 << w) - 1) };
            let _ = write!(out, "{w}'d{masked}");
        }
        Expression::Mux { cond, tval, fval } => {
            out.push('(');
            expr(out, cond, netlist)?;
            out.push_str(" ? ");
            expr(out, tval, netlist)?;
            out.push_str(" : ");
            expr(out, fval, netlist)?;
            out.push(')');
        }
        Expression::MemRead { mem, addr, sync: false, .. } => {
            // The engines define out-of-range reads as zero; plain `mem[addr]` would
            // read X in Verilog, so guard whenever the address can exceed the depth.
            let guard = netlist
                .mems
                .iter()
                .find(|m| &m.name == mem)
                .filter(|m| addr_can_overrun(addr, m.depth, netlist));
            if let Some(m) = guard {
                out.push('(');
                in_range(out, addr, m.depth, netlist)?;
                out.push_str(" ? ");
            }
            let _ = write!(out, "{mem}[");
            expr(out, addr, netlist)?;
            out.push(']');
            if let Some(m) = guard {
                let _ = write!(out, " : {}'d0)", m.info.width);
            }
        }
        Expression::Prim { op, args, params } => prim(out, *op, args, params, netlist)?,
        // Sequential reads are hoisted into implicit registers by lowering; a
        // surviving sync read means the netlist skipped lowering.
        other => return Err(EmitError::Unsupported(other.to_string())),
    }
    Ok(())
}

/// True when the expression is signed under the netlist's signal typing.
fn is_signed(expr: &Expression, netlist: &Netlist) -> bool {
    match expr {
        Expression::Ref(name) => signal_info(netlist, name).signed,
        Expression::SIntLiteral { .. } => true,
        Expression::Prim { op, args, .. } => match op {
            PrimOp::AsSInt | PrimOp::Neg => true,
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Rem | PrimOp::Pad => {
                args.iter().any(|a| is_signed(a, netlist))
            }
            _ => false,
        },
        Expression::Mux { tval, .. } => is_signed(tval, netlist),
        Expression::MemRead { mem, .. } => {
            netlist.mems.iter().find(|m| &m.name == mem).map(|m| m.info.signed).unwrap_or(false)
        }
        _ => false,
    }
}

/// The name `e` emits as when it emits as a bare identifier: a reference, possibly
/// under the casts, `tail` and `pad` that [`prim`] emits as their operand.
fn bare_ident(e: &Expression) -> Option<&str> {
    use PrimOp::*;
    match e {
        Expression::Ref(name) => Some(name),
        Expression::Prim {
            op: AsUInt | AsBool | AsClock | AsAsyncReset | Tail | Pad,
            args,
            ..
        } => bare_ident(&args[0]),
        _ => None,
    }
}

/// `name[hi:lo]`, or `name[hi]` for one bit.
fn slice(out: &mut String, name: &str, hi: u32, lo: u32) {
    let _ = if hi == lo { write!(out, "{name}[{hi}]") } else { write!(out, "{name}[{hi}:{lo}]") };
}

fn binary(
    out: &mut String,
    token: &str,
    args: &[Expression],
    netlist: &Netlist,
) -> Result<(), EmitError> {
    let signed = is_signed(&args[0], netlist) || is_signed(&args[1], netlist);
    out.push('(');
    operand(out, &args[0], signed, netlist)?;
    let _ = write!(out, " {token} ");
    operand(out, &args[1], signed, netlist)?;
    out.push(')');
    Ok(())
}

/// `arg`, reinterpreted as `$signed(..)` when `signed`.
fn operand(
    out: &mut String,
    arg: &Expression,
    signed: bool,
    netlist: &Netlist,
) -> Result<(), EmitError> {
    if signed {
        out.push_str("$signed(");
    }
    expr(out, arg, netlist)?;
    if signed {
        out.push(')');
    }
    Ok(())
}

fn unary(
    out: &mut String,
    token: &str,
    arg: &Expression,
    netlist: &Netlist,
) -> Result<(), EmitError> {
    let _ = write!(out, "({token}");
    expr(out, arg, netlist)?;
    out.push(')');
    Ok(())
}

fn prim(
    out: &mut String,
    op: PrimOp,
    args: &[Expression],
    params: &[i64],
    netlist: &Netlist,
) -> Result<(), EmitError> {
    use PrimOp::*;
    match op {
        Add => binary(out, "+", args, netlist),
        Sub => binary(out, "-", args, netlist),
        Mul => binary(out, "*", args, netlist),
        Div => binary(out, "/", args, netlist),
        Rem => binary(out, "%", args, netlist),
        And => binary(out, "&", args, netlist),
        Or => binary(out, "|", args, netlist),
        Xor => binary(out, "^", args, netlist),
        Eq => binary(out, "==", args, netlist),
        Neq => binary(out, "!=", args, netlist),
        Lt => binary(out, "<", args, netlist),
        Leq => binary(out, "<=", args, netlist),
        Gt => binary(out, ">", args, netlist),
        Geq => binary(out, ">=", args, netlist),
        Dshl => binary(out, "<<", args, netlist),
        Dshr => binary(out, ">>", args, netlist),
        Not => unary(out, "~", &args[0], netlist),
        Neg => unary(out, "-", &args[0], netlist),
        AndR => unary(out, "&", &args[0], netlist),
        OrR => unary(out, "|", &args[0], netlist),
        XorR => unary(out, "^", &args[0], netlist),
        Shl | Shr => {
            out.push('(');
            expr(out, &args[0], netlist)?;
            let token = if op == Shl { "<<" } else { ">>" };
            let _ = write!(out, " {token} 32'd{})", params[0].max(0));
            Ok(())
        }
        Cat => {
            out.push('{');
            expr(out, &args[0], netlist)?;
            out.push_str(", ");
            expr(out, &args[1], netlist)?;
            out.push('}');
            Ok(())
        }
        Bits => {
            let hi = params[0].max(0) as u32;
            let lo = params[1].max(0) as u32;
            if let Some(name) = bare_ident(&args[0]) {
                slice(out, name, hi, lo);
                return Ok(());
            }
            // Verilog cannot slice arbitrary expressions; shift and mask instead.
            out.push_str("((");
            expr(out, &args[0], netlist)?;
            let width = hi - lo + 1;
            let mask = if width >= 128 { u128::MAX } else { (1u128 << width) - 1 };
            let _ = write!(out, " >> 32'd{lo}) & {width}'d{mask})");
            Ok(())
        }
        AsUInt | AsBool | AsClock | AsAsyncReset | Tail | Pad => expr(out, &args[0], netlist),
        AsSInt => operand(out, &args[0], true, netlist),
        Head => {
            let keep = params[0].max(1) as u32;
            let total = expr_width(&args[0], netlist);
            let lo = total.saturating_sub(keep);
            if let Some(name) = bare_ident(&args[0]) {
                slice(out, name, total.saturating_sub(1), lo);
                return Ok(());
            }
            out.push('(');
            expr(out, &args[0], netlist)?;
            let _ = write!(out, " >> 32'd{lo})");
            Ok(())
        }
    }
}

fn expr_width(expr: &Expression, netlist: &Netlist) -> u32 {
    match expr {
        Expression::Ref(name) => signal_info(netlist, name).width,
        Expression::UIntLiteral { value, width } => width.unwrap_or_else(|| min_uint_width(*value)),
        Expression::SIntLiteral { width, .. } => width.unwrap_or(32),
        Expression::MemRead { mem, .. } => {
            netlist.mems.iter().find(|m| &m.name == mem).map(|m| m.info.width).unwrap_or(32)
        }
        _ => 32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    #[test]
    fn emit_combinational_module() {
        let mut m = ModuleBuilder::new("AndGate");
        let a = m.input("a", Type::bool());
        let b = m.input("b", Type::bool());
        let y = m.output("y", Type::bool());
        m.connect(&y, &a.and(&b));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("module AndGate("));
        assert!(text.contains("assign y = (a & b);"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn emit_register_with_reset() {
        let mut m = ModuleBuilder::new("Dff");
        let d = m.input("d", Type::uint(4));
        let q = m.output("q", Type::uint(4));
        let r = m.reg_next_init("r", Type::uint(4), &d, &Signal::lit_w(0, 4));
        m.connect(&q, &r);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert_eq!(text.matches("always @(").count(), 1, "{text}");
        assert!(
            text.contains(
                "  always @(posedge clock) begin\n    if (reset) begin\n      r <= 4'd0;\n    \
                 end else begin\n      r <= d;\n    end\n  end\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn emit_signed_comparison_uses_signed_cast() {
        let mut m = ModuleBuilder::new("SignedCmp");
        let a = m.input("a", Type::sint(8));
        let b = m.input("b", Type::sint(8));
        let y = m.output("y", Type::bool());
        m.connect(&y, &a.lt(&b));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("$signed(a)"));
        assert!(text.contains("$signed(b)"));
    }

    #[test]
    fn emit_vector_design() {
        let mut m = ModuleBuilder::new("VecCat");
        let a = m.input("a", Type::bool());
        let b = m.input("b", Type::bool());
        let out = m.output("out", Type::uint(2));
        let v = m.vec_init("v", Type::bool(), &[a, b]);
        m.connect(&out, &v.as_uint());
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("v_0"));
        assert!(text.contains("v_1"));
        assert!(text.contains("{v_1, v_0}"));
    }

    #[test]
    fn emit_memory_module() {
        let mut m = ModuleBuilder::new("Ram");
        let we = m.input("we", Type::bool());
        let waddr = m.input("waddr", Type::uint(3));
        let wdata = m.input("wdata", Type::uint(8));
        let raddr = m.input("raddr", Type::uint(3));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        m.when(&we, |m| {
            m.mem_write(&mem, &waddr, &wdata);
        });
        m.connect(&rdata, &mem.read(&raddr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert_eq!(text.matches(" [0:").count(), 1, "one memory array: {text}");
        assert!(text.contains("reg [7:0] store [0:7];"));
        assert!(text.contains("assign rdata = store[raddr];"));
        assert!(text.contains("always @(posedge clock)"));
        assert!(text.contains("if (we) begin"));
        assert!(text.contains("store[waddr] <= wdata;"));
    }

    #[test]
    fn emit_non_power_of_two_memory_guards_out_of_range_accesses() {
        // Depth 5 with a 3-bit address: addresses 5..8 exist in the wire domain, so
        // the emitted RTL must read 0 (not X) and drop writes for them, matching the
        // engines' semantics.
        let mut m = ModuleBuilder::new("OddRam");
        let we = m.input("we", Type::bool());
        let addr = m.input("addr", Type::uint(3));
        let wdata = m.input("wdata", Type::uint(8));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 5);
        m.when(&we, |m| {
            m.mem_write(&mem, &addr, &wdata);
        });
        m.connect(&rdata, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("reg [7:0] store [0:4];"), "{text}");
        assert!(text.contains("assign rdata = ((addr < 3'd5) ? store[addr] : 8'd0);"), "{text}");
        assert!(text.contains("if ((we && (addr < 3'd5))) begin"), "{text}");
        // Full-range power-of-two memories stay unguarded (idiomatic indexing).
        let mut m = ModuleBuilder::new("Pow2Ram");
        let addr = m.input("addr", Type::uint(3));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        m.connect(&rdata, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("assign rdata = store[addr];"), "{text}");
    }

    #[test]
    fn emit_masked_write_as_lane_merge() {
        let mut m = ModuleBuilder::new("MaskedRam");
        let addr = m.input("addr", Type::uint(2));
        let wdata = m.input("wdata", Type::uint(8));
        let wmask = m.input("wmask", Type::uint(8));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.mem_write_masked(&mem, &addr, &wdata, &wmask);
        m.connect(&rdata, &mem.read(&addr));
        let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        // Lanes whose mask bit is clear keep the old word: read-modify-write merge.
        assert!(
            text.contains("store[addr] <= ((store[addr] & (~wmask)) | (wdata & wmask));"),
            "{text}"
        );
    }

    #[test]
    fn emit_dual_clock_ports_in_separate_always_blocks() {
        let mut m = ModuleBuilder::raw("DualClock");
        let clk_a = m.input("clk_a", Type::Clock);
        let clk_b = m.input("clk_b", Type::Clock);
        let addr = m.input("addr", Type::uint(2));
        let din = m.input("din", Type::uint(4));
        let dout = m.output("dout", Type::uint(4));
        let mem = m.mem("store", Type::uint(4), 4);
        m.with_clock(&clk_a, |m| m.mem_write(&mem, &addr, &din));
        m.with_clock(&clk_b, |m| m.mem_write(&mem, &addr, &din));
        m.connect(&dout, &mem.read(&addr));
        let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert_eq!(text.matches("always @(").count(), 2, "one always block per write clock");
        assert!(text.contains("always @(posedge clk_a)"), "{text}");
        assert!(text.contains("always @(posedge clk_b)"), "{text}");
    }

    #[test]
    fn emit_sync_read_as_registered_always_read() {
        let mut m = ModuleBuilder::new("SyncRam");
        let addr = m.input("addr", Type::uint(2));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.connect(&rdata, &mem.read(&addr));
        let comb_only = rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap();
        assert!(emit_verilog(&comb_only).unwrap().contains("assign rdata = store[addr];"));

        let mut m = ModuleBuilder::new("SyncRam");
        let addr = m.input("addr", Type::uint(2));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.connect(&rdata, &mem.read_sync(&addr));
        let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        // The hoisted read register is an ordinary reg updated on the clock edge.
        assert!(text.contains("reg [7:0] store_sr0;"), "{text}");
        assert!(text.contains("always @(posedge clock)"), "{text}");
        assert!(text.contains("store_sr0 <= store[addr];"), "{text}");
        assert!(text.contains("assign rdata = store_sr0;"), "{text}");
    }

    #[test]
    fn emit_initialized_memory_as_initial_block() {
        let mut m = ModuleBuilder::new("Rom");
        let addr = m.input("addr", Type::uint(2));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("rom", Type::uint(8), 4);
        m.mem_init(&mem, &[0x11, 0x22, 0x33]);
        m.connect(&dout, &mem.read(&addr));
        let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("initial begin"), "{text}");
        assert!(text.contains("rom[0] = 8'd17;"), "{text}");
        assert!(text.contains("rom[2] = 8'd51;"), "{text}");
    }

    #[test]
    fn output_ports_are_not_redeclared() {
        let mut m = ModuleBuilder::new("Pass");
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("  output wire [7:0] out\n"), "{text}");
        assert!(!text.contains(" out;"), "the output port is not declared again: {text}");
        assert!(text.contains("assign out = a;"), "{text}");
    }

    #[test]
    fn bits_of_an_identifier_emit_as_slices() {
        let mut m = ModuleBuilder::new("Slices");
        let x = m.input("x", Type::uint(8));
        let s = m.input("s", Type::sint(8));
        let bit = m.output("bit", Type::bool());
        let nibble = m.output("nibble", Type::uint(4));
        let low = m.output("low", Type::uint(4));
        let wide = m.output("wide", Type::uint(6));
        m.connect(&bit, &x.bits(3, 3));
        // Casts, `tail` and `pad` emit as their operand, so their bits still slice
        // the identifier.
        m.connect(&nibble, &s.as_uint().bits(7, 4));
        m.connect(&low, &x.tail(2).bits(3, 0));
        m.connect(&wide, &x.pad(12).bits(7, 2));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let text = emit_verilog(&netlist).unwrap();
        assert!(text.contains("assign bit = x[3];"), "{text}");
        assert!(text.contains("assign nibble = s[7:4];"), "{text}");
        assert!(text.contains("assign low = x[3:0];"), "{text}");
        assert!(text.contains("assign wide = x[7:2];"), "{text}");
    }
}
