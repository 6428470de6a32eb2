//! The compiled execution engine: a levelized instruction tape.
//!
//! [`Tape::compile`] walks a lowered [`Netlist`] **once** and flattens every
//! combinational definition and register next-state function into a dense instruction
//! program:
//!
//! * state is a slot-indexed `Vec` instead of a name-keyed map — no hashing, no string
//!   allocation per evaluation. The tape lays the slots out itself: ports (in port
//!   order), then registers, then the remaining combinational definitions (in
//!   evaluation order), with output ports keeping their port slot; memories share one
//!   word array, packed in declaration order;
//! * every operand is a pre-resolved slot index; literals are pooled into constant
//!   slots that are written once at construction and never touched again;
//! * masks and result metadata for named stores are pre-computed at compile time;
//! * registers get a commit list applied after all next-states are staged, preserving
//!   the simultaneous-update semantics of the interpreter.
//!
//! Per cycle, [`SimEngine::step`] therefore executes a flat `for` loop over
//! copy-type instructions — the generated-kernel idea of the paper's throughput story
//! applied to the Simulator tool. Instruction semantics are shared with the
//! interpreter through [`crate::eval::apply_prim`], and the two engines are pinned
//! identical by differential fuzzing (see `rechisel-benchsuite`).

use std::collections::BTreeMap;
use std::sync::Arc;

use rechisel_firrtl::ir::{Direction, Expression, PrimOp};
use rechisel_firrtl::lower::{Netlist, SignalInfo};
use rechisel_firrtl::typeenv::min_uint_width;

use crate::engine::{InputPort, SimEngine, SyncReadGuard};
use crate::eval::{apply_prim, mask, EvalError, EvalValue};
use crate::simulator::SimError;

/// Physical metadata of a value: its width and signed interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    width: u32,
    signed: bool,
}

impl Meta {
    fn of(v: EvalValue) -> Self {
        Meta { width: v.width, signed: v.signed }
    }

    fn mask(self) -> u128 {
        mask(u128::MAX, self.width)
    }

    /// Left-shift amount that sign-extends a `width`-bit value through bit 127 (0 when
    /// no extension is needed — unsigned, width 0, or already 128 bits wide).
    fn sext_shift(self) -> u32 {
        if self.signed && self.width > 0 && self.width < 128 {
            128 - self.width
        } else {
            0
        }
    }
}

/// Comparison selector for the specialized compare instruction.
#[derive(Debug, Clone, Copy)]
enum CmpKind {
    Eq,
    Neq,
    Lt,
    Leq,
    Gt,
    Geq,
}

/// One executable instruction. Operands are slot indices into the state vector.
///
/// Two tiers share the same state:
///
/// * **Specialized** variants are emitted when every operand's metadata is known at
///   compile time; they carry pre-computed masks and sign-extension shifts and touch
///   only the `bits` of their destination slot (its metadata is fixed at
///   construction).
/// * **Generic** variants (`Prim1`/`Prim2`/`Mux`) execute the shared
///   [`apply_prim`] kernel on full [`EvalValue`]s. They cover the rare
///   dynamic-metadata cases — mux arms of different widths, `dshl` (whose result
///   width depends on the shift *value*) — and every seldom-used operation.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// `bits[dst] = bits[src] & mask` — named-slot commits, plain copies.
    CopyMask { dst: u32, src: u32, mask: u128 },
    /// `bits[dst] = !bits[a] & mask`
    Not { dst: u32, a: u32, mask: u128 },
    /// `bits[dst] = bits[a] & bits[b]`
    And { dst: u32, a: u32, b: u32 },
    /// `bits[dst] = bits[a] | bits[b]`
    Or { dst: u32, a: u32, b: u32 },
    /// `bits[dst] = bits[a] ^ bits[b]`
    Xor { dst: u32, a: u32, b: u32 },
    /// Sign-extending add/sub with a pre-computed result mask.
    AddSub { dst: u32, a: u32, b: u32, sa: u32, sb: u32, mask: u128, sub: bool },
    /// Comparison; `signed` selects i128 ordering (`sa`/`sb` pre-extend operands).
    Cmp { dst: u32, a: u32, b: u32, sa: u32, sb: u32, kind: CmpKind, signed: bool },
    /// Bits-only select — legal when both arm metadatas are statically equal.
    MuxBits { dst: u32, c: u32, t: u32, f: u32 },
    /// `bits(hi, lo)` extract: `bits[dst] = (bits[a] >> lo) & mask`.
    Slice { dst: u32, a: u32, lo: u32, mask: u128 },
    /// `cat(a, b)`: `bits[dst] = ((bits[a] << shift) | bits[b]) & mask`.
    CatBits { dst: u32, a: u32, b: u32, shift: u32, mask: u128 },
    /// Generic unary: `state[dst] = apply_prim(op, state[a], None, [p0, p1])`
    Prim1 { op: PrimOp, dst: u32, a: u32, p0: i64, p1: i64 },
    /// Generic binary: `state[dst] = apply_prim(op, state[a], Some(state[b]), [])`
    Prim2 { op: PrimOp, dst: u32, a: u32, b: u32 },
    /// Generic select: `state[dst] = if state[c].bits & 1 != 0 { state[t] } else { state[f] }`
    Mux { dst: u32, c: u32, t: u32, f: u32 },
    /// Combinational memory read: `bits[dst] = mem[base + bits[addr]]` when the address
    /// is below `depth`, 0 otherwise. Backing-store words are pre-masked at commit, so
    /// the destination (whose metadata is pinned to the word shape) takes bits only.
    MemRead { dst: u32, addr: u32, base: u32, depth: u32 },
}

/// Sign-extends `bits` (pre-masked to its width) through bit 127.
#[inline(always)]
fn ext(bits: u128, shift: u32) -> i128 {
    ((bits << shift) as i128) >> shift
}

/// A register commit: copy the staged next-state into the register slot, masked to the
/// register's width. `domain` indexes [`Tape::domains`]; a filtered step applies only
/// the commits of the edged domain.
#[derive(Debug, Clone, Copy)]
struct Commit {
    reg: u32,
    staged: u32,
    mask: u128,
    domain: usize,
}

/// A staged memory write: when `bits[en] & 1` is set and `bits[addr] < depth`, store
/// the port's merged word at `mem[base + bits[addr]]`. Applied before register
/// commits (all operand slots still hold pre-edge values), in port-declaration order
/// with whole-word stores — a same-cycle collision resolves to the last port, exactly
/// like the last nonblocking assignment winning in the emitted Verilog.
#[derive(Debug, Clone, Copy)]
struct MemCommit {
    base: u32,
    depth: u32,
    addr: u32,
    en: u32,
    val: u32,
    mask: u128,
    /// For lane-masked ports, `(lane slot, pre-edge word slot)`: the merged word is
    /// `(old & !lane) | (value & lane)`, where `old` was staged by a `MemRead`
    /// instruction in the register program (so it reads PRE-edge contents, mirroring
    /// the interpreter and the Verilog nonblocking read).
    lane: Option<(u32, u32)>,
    /// Index into [`Tape::domains`] of the port's write clock.
    domain: usize,
}

/// Backing-store layout and word metadata of one memory in a [`Tape`].
#[derive(Debug, Clone)]
struct TapeMem {
    name: String,
    base: u32,
    depth: u32,
    width: u32,
}

/// An input port's pre-resolved poke target.
#[derive(Debug, Clone)]
struct InPort {
    name: String,
    slot: u32,
    width: u32,
    signed: bool,
}

/// A netlist compiled to a flat, slot-indexed instruction program.
///
/// A tape is immutable and shareable: wrap it in an [`Arc`] and hand clones to
/// [`CompiledSimulator::from_tape`] to run many simulations of the same design without
/// recompiling (the benchmark suite caches one tape per case this way).
#[derive(Debug)]
pub struct Tape {
    /// Initial state: named slots (zeroed, with their signal metadata), then the
    /// constant pool, then temporaries.
    init: Vec<EvalValue>,
    /// Named signal -> slot, for peeks.
    index: BTreeMap<String, u32>,
    /// Combinational program in evaluation order (one `Store` per def).
    comb: Vec<Instr>,
    /// Register next-state program (writes staging slots only).
    reg_program: Vec<Instr>,
    /// Register commit list, applied after the whole `reg_program` ran.
    commits: Vec<Commit>,
    /// Memory write commits, applied (before register commits) after `reg_program`.
    mem_commits: Vec<MemCommit>,
    /// Backing-store layout, one entry per memory in declaration order.
    mems: Vec<TapeMem>,
    /// Initial backing-store image (one word per entry, layout as in `mems`):
    /// declared init words pre-masked to the word width, zero elsewhere.
    mem_init: Vec<u128>,
    /// Clock domains (mangled clock nets), first-appearance order — registers in
    /// declaration order, then memory write ports. Commit entries index into this.
    domains: Vec<String>,
    /// The sequential-read rule of the netlist, shared by every simulator of the tape.
    sync: SyncReadGuard,
    /// Input ports in port order; an [`InputPort`] indexes this list.
    inputs: Vec<InPort>,
    outputs: Vec<(String, u32)>,
}

impl Tape {
    /// Compiles a netlist into an instruction tape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Eval`] for dangling references or non-ground expression
    /// forms — the conditions the interpreter reports lazily at evaluation time.
    pub fn compile(netlist: &Netlist) -> Result<Self, SimError> {
        Builder::new(netlist).build()
    }
}

/// Compile-time state for building a [`Tape`].
struct Builder<'n> {
    netlist: &'n Netlist,
    index: BTreeMap<String, u32>,
    init: Vec<EvalValue>,
    /// Static metadata per slot; `None` marks slots whose width/signedness can vary at
    /// run time (mux arms of different shapes, `dshl` results, and their descendants).
    metas: Vec<Option<Meta>>,
    consts: BTreeMap<(u128, u32, bool), u32>,
    /// Backing-store layout, one entry per memory (declaration order, packed).
    mems: Vec<TapeMem>,
    /// Memory name -> index into `mems`, pre-resolved for read-port compilation.
    mem_index: BTreeMap<String, u32>,
}

impl<'n> Builder<'n> {
    /// Lays out the named slots and the memories: one slot per signal, ports first
    /// (in port order), then registers, then the remaining definitions (in evaluation
    /// order), so an output port keeps its port slot; memories packed into one word
    /// array in declaration order.
    fn new(netlist: &'n Netlist) -> Self {
        let mut index = BTreeMap::new();
        let mut init = Vec::with_capacity(netlist.signals.len());
        let mut metas = Vec::with_capacity(netlist.signals.len());
        let ports = netlist.ports.iter().map(|p| &p.name);
        let names = ports.chain(netlist.regs.iter().map(|r| &r.name));
        for name in names.chain(netlist.defs.iter().map(|d| &d.name)) {
            if index.contains_key(name) {
                continue;
            }
            index.insert(name.clone(), init.len() as u32);
            // The interpreter defaults missing metadata to a 64-bit unsigned signal;
            // mirror that so the engines cannot diverge even on odd netlists.
            let info = netlist.signal(name).unwrap_or(SignalInfo {
                width: 64,
                signed: false,
                is_clock: false,
            });
            let zero = EvalValue::new(0, info.width, info.signed);
            init.push(zero);
            // Named slots are only ever written by masked commits (and pokes), so
            // their metadata is pinned to the signal's physical properties.
            metas.push(Some(Meta::of(zero)));
        }
        let mut mems = Vec::with_capacity(netlist.mems.len());
        let mut mem_index = BTreeMap::new();
        let mut base: u32 = 0;
        for m in &netlist.mems {
            let depth = m.depth as u32;
            mem_index.insert(m.name.clone(), mems.len() as u32);
            mems.push(TapeMem { name: m.name.clone(), base, depth, width: m.info.width });
            base = base.saturating_add(depth);
        }
        Self { netlist, index, init, metas, consts: BTreeMap::new(), mems, mem_index }
    }

    /// Allocates a temporary slot. Slots holding statically-shaped results carry their
    /// metadata in the initial state (specialized instructions write bits only);
    /// dynamically-shaped slots get full [`EvalValue`] writes from generic
    /// instructions, so their initial metadata is immaterial.
    fn temp(&mut self, meta: Option<Meta>) -> u32 {
        let slot = self.init.len() as u32;
        let m = meta.unwrap_or(Meta { width: 1, signed: false });
        self.init.push(EvalValue::new(0, m.width, m.signed));
        self.metas.push(meta);
        slot
    }

    fn constant(&mut self, value: EvalValue) -> u32 {
        let init = &mut self.init;
        let metas = &mut self.metas;
        *self.consts.entry((value.bits, value.width, value.signed)).or_insert_with(|| {
            let slot = init.len() as u32;
            init.push(value);
            metas.push(Some(Meta::of(value)));
            slot
        })
    }

    fn unsupported(expr: &Expression) -> SimError {
        SimError::Eval(EvalError::UnsupportedExpression(expr.to_string()))
    }

    /// The statically-known result metadata of `op` over statically-shaped operands.
    ///
    /// Every operation's result width and signedness depend only on the operand
    /// shapes and the static parameters — with one exception, `dshl`, whose result
    /// width tracks the shift *value*; it reports `None` (dynamic).
    fn static_result_meta(op: PrimOp, a: Meta, b: Option<Meta>, params: &[i64]) -> Option<Meta> {
        if op == PrimOp::Dshl {
            return None;
        }
        let probe = apply_prim(
            op,
            EvalValue::new(0, a.width, a.signed),
            b.map(|m| EvalValue::new(0, m.width, m.signed)),
            params,
        );
        Some(Meta::of(probe))
    }

    /// Emits the best instruction for a binary operation, preferring the specialized
    /// bits-only forms when both operand shapes are static.
    fn emit_prim2(&mut self, op: PrimOp, a: u32, b: u32, out: &mut Vec<Instr>) -> u32 {
        use PrimOp::*;
        let (am, bm) = (self.metas[a as usize], self.metas[b as usize]);
        if let (Some(am), Some(bm)) = (am, bm) {
            if let Some(rm) = Self::static_result_meta(op, am, Some(bm), &[]) {
                let dst = self.temp(Some(rm));
                let (sa, sb) = (am.sext_shift(), bm.sext_shift());
                let signed = am.signed || bm.signed;
                let instr = match op {
                    And => Some(Instr::And { dst, a, b }),
                    Or => Some(Instr::Or { dst, a, b }),
                    Xor => Some(Instr::Xor { dst, a, b }),
                    Add => Some(Instr::AddSub { dst, a, b, sa, sb, mask: rm.mask(), sub: false }),
                    Sub => Some(Instr::AddSub { dst, a, b, sa, sb, mask: rm.mask(), sub: true }),
                    Eq => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Eq, signed }),
                    Neq => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Neq, signed }),
                    Lt => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Lt, signed }),
                    Leq => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Leq, signed }),
                    Gt => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Gt, signed }),
                    Geq => Some(Instr::Cmp { dst, a, b, sa, sb, kind: CmpKind::Geq, signed }),
                    Cat if bm.width < 128 => {
                        Some(Instr::CatBits { dst, a, b, shift: bm.width, mask: rm.mask() })
                    }
                    _ => None,
                };
                out.push(instr.unwrap_or(Instr::Prim2 { op, dst, a, b }));
                return dst;
            }
            // dshl: operands static but the result shape is value-dependent.
            let dst = self.temp(None);
            out.push(Instr::Prim2 { op, dst, a, b });
            return dst;
        }
        let dst = self.temp(None);
        out.push(Instr::Prim2 { op, dst, a, b });
        dst
    }

    /// Emits the best instruction for a unary operation.
    fn emit_prim1(&mut self, op: PrimOp, a: u32, p0: i64, p1: i64, out: &mut Vec<Instr>) -> u32 {
        use PrimOp::*;
        if let Some(am) = self.metas[a as usize] {
            if let Some(rm) = Self::static_result_meta(op, am, None, &[p0, p1]) {
                let dst = self.temp(Some(rm));
                let instr = match op {
                    Not => Some(Instr::Not { dst, a, mask: rm.mask() }),
                    Bits if p1.max(0) < 128 => {
                        Some(Instr::Slice { dst, a, lo: p1.max(0) as u32, mask: rm.mask() })
                    }
                    // A static right shift of an unsigned operand is a slice from
                    // bit p0 (the result width already saturates at max(w-n, 1)).
                    // Signed operands need an arithmetic shift and stay generic.
                    Shr if !am.signed && p0.max(0) < 128 => {
                        Some(Instr::Slice { dst, a, lo: p0.max(0) as u32, mask: rm.mask() })
                    }
                    // A static left shift is concatenation with an empty low part:
                    // shift the operand into place and mask to the saturating result
                    // width. Over-shifts of 128+ stay generic (they zero the word).
                    Shl if p0.max(0) < 128 => {
                        let zero = self.constant(EvalValue::new(0, 1, false));
                        let shift = p0.max(0) as u32;
                        Some(Instr::CatBits { dst, a, b: zero, shift, mask: rm.mask() })
                    }
                    // Reinterpreting casts keep the bit pattern when the width is
                    // unchanged; the metadata difference is already in the slot shape.
                    AsUInt | AsSInt => Some(Instr::CopyMask { dst, src: a, mask: rm.mask() }),
                    _ => None,
                };
                out.push(instr.unwrap_or(Instr::Prim1 { op, dst, a, p0, p1 }));
                return dst;
            }
        }
        let dst = self.temp(None);
        out.push(Instr::Prim1 { op, dst, a, p0, p1 });
        dst
    }

    /// Compiles an expression, returning the slot holding its value.
    fn compile_expr(&mut self, expr: &Expression, out: &mut Vec<Instr>) -> Result<u32, SimError> {
        match expr {
            Expression::Ref(name) => self
                .index
                .get(name)
                .copied()
                .ok_or_else(|| SimError::Eval(EvalError::UnknownSignal(name.clone()))),
            Expression::UIntLiteral { value, width } => {
                let w = width.unwrap_or_else(|| min_uint_width(*value));
                Ok(self.constant(EvalValue::new(*value, w, false)))
            }
            Expression::SIntLiteral { value, width } => {
                let w = width.unwrap_or(64);
                Ok(self.constant(EvalValue::new(*value as u128, w, true)))
            }
            Expression::Mux { cond, tval, fval } => {
                let c = self.compile_expr(cond, out)?;
                let t = self.compile_expr(tval, out)?;
                let f = self.compile_expr(fval, out)?;
                // Bits-only select when both arms have the same static shape; the
                // generic form otherwise (the selected arm's metadata travels with
                // the value, exactly like the interpreter).
                let (tm, fm) = (self.metas[t as usize], self.metas[f as usize]);
                let dst = match (tm, fm) {
                    (Some(tm), Some(fm)) if tm == fm => {
                        let dst = self.temp(Some(tm));
                        out.push(Instr::MuxBits { dst, c, t, f });
                        dst
                    }
                    _ => {
                        let dst = self.temp(None);
                        out.push(Instr::Mux { dst, c, t, f });
                        dst
                    }
                };
                Ok(dst)
            }
            // Sequential reads are hoisted into implicit registers by lowering; a
            // surviving sync read means the netlist skipped lowering.
            Expression::MemRead { sync: true, .. } => Err(Self::unsupported(expr)),
            Expression::MemRead { mem, addr, sync: false, .. } => {
                let a = self.compile_expr(addr, out)?;
                let index = *self
                    .mem_index
                    .get(mem)
                    .ok_or_else(|| SimError::Eval(EvalError::UnknownSignal(mem.clone())))?;
                let info = self.netlist.mems[index as usize].info;
                let (base, depth) =
                    (self.mems[index as usize].base, self.mems[index as usize].depth);
                // Word metadata is static; stored words are pre-masked at commit, so
                // the read writes bits only.
                let dst = self.temp(Some(Meta { width: info.width, signed: info.signed }));
                out.push(Instr::MemRead { dst, addr: a, base, depth });
                Ok(dst)
            }
            Expression::Prim { op, args, params } => {
                if args.is_empty()
                    || (op.arity() == 2 && args.len() < 2)
                    || params.len() < op.param_count()
                {
                    return Err(Self::unsupported(expr));
                }
                let a = self.compile_expr(&args[0], out)?;
                if op.arity() == 2 {
                    let b = self.compile_expr(&args[1], out)?;
                    Ok(self.emit_prim2(*op, a, b, out))
                } else {
                    let p0 = params.first().copied().unwrap_or(0);
                    let p1 = params.get(1).copied().unwrap_or(0);
                    Ok(self.emit_prim1(*op, a, p0, p1, out))
                }
            }
            other => Err(Self::unsupported(other)),
        }
    }

    fn build(mut self) -> Result<Tape, SimError> {
        let mut comb = Vec::new();
        for def in &self.netlist.defs {
            let src = self.compile_expr(&def.expr, &mut comb)?;
            let dst = self.index[&def.name];
            let mask = mask(u128::MAX, def.info.width);
            comb.push(Instr::CopyMask { dst, src, mask });
        }

        // Clock-domain table: every register and write-port clock resolves to an
        // index, so filtered steps compare an index instead of a string per commit.
        let domains = self.netlist.clock_domains();
        let domain_index = |clock: &str| -> usize {
            domains.iter().position(|d| d == clock).expect("clock is in the domain table")
        };

        let mut reg_program = Vec::new();
        let mut commits = Vec::new();
        let reg_slots: std::collections::BTreeSet<u32> =
            self.netlist.regs.iter().map(|r| self.index[&r.name]).collect();
        for reg in &self.netlist.regs {
            let next = self.compile_expr(&reg.next, &mut reg_program)?;
            let mut staged = match &reg.reset {
                None => next,
                Some((reset_expr, init_expr)) => {
                    let r = self.compile_expr(reset_expr, &mut reg_program)?;
                    let i = self.compile_expr(init_expr, &mut reg_program)?;
                    // Reset muxing only ever feeds the masked commit below, which
                    // reads bits alone — a bits-only select is exact here even when
                    // the init and next shapes differ.
                    let dst = self.temp(None);
                    reg_program.push(Instr::MuxBits { dst, c: r, t: i, f: next });
                    dst
                }
            };
            // A bare `Ref` next-state (e.g. `connect(b, a)` between registers) would
            // make `staged` alias a slot the commit loop itself mutates; sequential
            // commits would then read the already-updated value instead of the
            // pre-step one. Snapshot it into a temp during staging so every register
            // updates simultaneously, like the interpreter's two-phase commit.
            if reg_slots.contains(&staged) {
                let dst = self.temp(None);
                reg_program.push(Instr::CopyMask { dst, src: staged, mask: u128::MAX });
                staged = dst;
            }
            commits.push(Commit {
                reg: self.index[&reg.name],
                staged,
                mask: mask(u128::MAX, reg.info.width),
                domain: domain_index(&reg.clock),
            });
        }

        // Memory write ports: addr/enable/value/mask are staged alongside register
        // next-states; the commits run before the register commits, so every operand
        // slot still holds its pre-edge value (simultaneous-update semantics, like the
        // interpreter's two-phase step).
        let mut mem_commits = Vec::new();
        for (i, mem) in self.netlist.mems.iter().enumerate() {
            let (base, depth) = (self.mems[i].base, self.mems[i].depth);
            let word_mask = mask(u128::MAX, self.mems[i].width);
            for port in &mem.writes {
                let addr = self.compile_expr(&port.addr, &mut reg_program)?;
                let en = self.compile_expr(&port.enable, &mut reg_program)?;
                let val = self.compile_expr(&port.value, &mut reg_program)?;
                let lane = match &port.mask {
                    None => None,
                    Some(m) => {
                        let lane = self.compile_expr(m, &mut reg_program)?;
                        // Stage the PRE-edge word alongside the operands: the merge
                        // at commit time must read old data even if an earlier port
                        // already stored to the same word this cycle.
                        let word_info = self.netlist.mems[i].info;
                        let old = self
                            .temp(Some(Meta { width: word_info.width, signed: word_info.signed }));
                        reg_program.push(Instr::MemRead { dst: old, addr, base, depth });
                        Some((lane, old))
                    }
                };
                mem_commits.push(MemCommit {
                    base,
                    depth,
                    addr,
                    en,
                    val,
                    mask: word_mask,
                    lane,
                    domain: domain_index(&port.clock),
                });
            }
        }
        // Initial backing-store image: declared init words (pre-masked), zero padding.
        let mut mem_init = vec![0u128; self.mems.iter().map(|m| m.depth as usize).sum()];
        for (i, mem) in self.netlist.mems.iter().enumerate() {
            let base = self.mems[i].base as usize;
            let word_mask = mask(u128::MAX, self.mems[i].width);
            for (offset, word) in mem.init.iter().take(mem.depth).enumerate() {
                mem_init[base + offset] = word & word_mask;
            }
        }
        let sync = SyncReadGuard::new(self.netlist, &domains);

        let inputs = self
            .netlist
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Input)
            .map(|p| InPort {
                name: p.name.clone(),
                slot: self.index[&p.name],
                width: p.info.width,
                signed: p.info.signed,
            })
            .collect();
        let outputs = self
            .netlist
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Output)
            .map(|p| (p.name.clone(), self.index[&p.name]))
            .collect();

        Ok(Tape {
            init: self.init,
            index: self.index,
            comb,
            reg_program,
            commits,
            mem_commits,
            mems: self.mems,
            mem_init,
            domains,
            sync,
            inputs,
            outputs,
        })
    }
}

#[inline]
fn exec(instrs: &[Instr], state: &mut [EvalValue], mem: &[u128]) {
    for instr in instrs {
        match *instr {
            Instr::MemRead { dst, addr, base, depth } => {
                let a = state[addr as usize].bits;
                state[dst as usize].bits =
                    if a < u128::from(depth) { mem[(base + a as u32) as usize] } else { 0 };
            }
            Instr::CopyMask { dst, src, mask } => {
                state[dst as usize].bits = state[src as usize].bits & mask;
            }
            Instr::Not { dst, a, mask } => {
                state[dst as usize].bits = !state[a as usize].bits & mask;
            }
            Instr::And { dst, a, b } => {
                state[dst as usize].bits = state[a as usize].bits & state[b as usize].bits;
            }
            Instr::Or { dst, a, b } => {
                state[dst as usize].bits = state[a as usize].bits | state[b as usize].bits;
            }
            Instr::Xor { dst, a, b } => {
                state[dst as usize].bits = state[a as usize].bits ^ state[b as usize].bits;
            }
            Instr::AddSub { dst, a, b, sa, sb, mask, sub } => {
                let ea = ext(state[a as usize].bits, sa);
                let eb = ext(state[b as usize].bits, sb);
                let sum = if sub { ea.wrapping_sub(eb) } else { ea.wrapping_add(eb) };
                state[dst as usize].bits = sum as u128 & mask;
            }
            Instr::Cmp { dst, a, b, sa, sb, kind, signed } => {
                let (ba, bb) = (state[a as usize].bits, state[b as usize].bits);
                let hit = match kind {
                    // Equality always compares the per-operand signed interpretations
                    // (`as_i128`), mirroring the interpreter.
                    CmpKind::Eq => ext(ba, sa) == ext(bb, sb),
                    CmpKind::Neq => ext(ba, sa) != ext(bb, sb),
                    _ => {
                        let ord = if signed { ext(ba, sa).cmp(&ext(bb, sb)) } else { ba.cmp(&bb) };
                        match kind {
                            CmpKind::Lt => ord == std::cmp::Ordering::Less,
                            CmpKind::Leq => ord != std::cmp::Ordering::Greater,
                            CmpKind::Gt => ord == std::cmp::Ordering::Greater,
                            _ => ord != std::cmp::Ordering::Less,
                        }
                    }
                };
                state[dst as usize].bits = u128::from(hit);
            }
            Instr::MuxBits { dst, c, t, f } => {
                let pick = if state[c as usize].bits & 1 != 0 { t } else { f };
                state[dst as usize].bits = state[pick as usize].bits;
            }
            Instr::Slice { dst, a, lo, mask } => {
                state[dst as usize].bits = (state[a as usize].bits >> lo) & mask;
            }
            Instr::CatBits { dst, a, b, shift, mask } => {
                state[dst as usize].bits =
                    ((state[a as usize].bits << shift) | state[b as usize].bits) & mask;
            }
            Instr::Prim1 { op, dst, a, p0, p1 } => {
                state[dst as usize] = apply_prim(op, state[a as usize], None, &[p0, p1]);
            }
            Instr::Prim2 { op, dst, a, b } => {
                state[dst as usize] =
                    apply_prim(op, state[a as usize], Some(state[b as usize]), &[]);
            }
            Instr::Mux { dst, c, t, f } => {
                state[dst as usize] = if state[c as usize].bits & 1 != 0 {
                    state[t as usize]
                } else {
                    state[f as usize]
                };
            }
        }
    }
}

/// The compiled engine: executes a [`Tape`] with slot-indexed state.
///
/// It drives through the [`SimEngine`] trait, which holds the rules both engines share.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rechisel_hcl::prelude::*;
/// use rechisel_sim::{CompiledSimulator, SimEngine, Tape};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ModuleBuilder::new("Counter");
/// let en = m.input("en", Type::bool());
/// let out = m.output("out", Type::uint(8));
/// let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
/// m.when(&en, |m| m.connect(&count, &count.add(&Signal::lit_w(1, 8)).bits(7, 0)));
/// m.connect(&out, &count);
/// let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit())?;
///
/// // Compile once, simulate many times.
/// let tape = Arc::new(Tape::compile(&netlist)?);
/// let mut sim = CompiledSimulator::from_tape(tape);
/// sim.reset(2)?;
/// sim.poke("en", 1)?;
/// sim.step_n(5)?;
/// assert_eq!(sim.peek("out")?, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSimulator {
    tape: Arc<Tape>,
    state: Vec<EvalValue>,
    /// Shared backing store of all memories (layout fixed by the tape's `mems`).
    mem: Vec<u128>,
    /// Implicit sync-read registers whose own clock domain has not ticked yet, as the
    /// tape's guard numbers them; peeks of signals depending on them fail with
    /// [`SimError::SyncReadBeforeClock`].
    uncaptured: Vec<usize>,
    cycles: u64,
}

impl CompiledSimulator {
    /// Compiles `netlist` and creates a simulator with all inputs and registers zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Eval`] when the netlist cannot be compiled (see
    /// [`Tape::compile`]).
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(Self::from_tape(Arc::new(Tape::compile(netlist)?)))
    }

    /// Creates a simulator over an already-compiled (possibly shared) tape. Memories
    /// start at their declared initial image (zero where uninitialized).
    pub fn from_tape(tape: Arc<Tape>) -> Self {
        let state = tape.init.clone();
        let mem = tape.mem_init.clone();
        let uncaptured = tape.sync.uncaptured();
        Self { tape, state, mem, uncaptured, cycles: 0 }
    }

    /// The compiled program this simulator executes.
    pub fn tape(&self) -> &Arc<Tape> {
        &self.tape
    }
}

impl SimEngine for CompiledSimulator {
    fn input_port(&self, name: &str) -> Option<InputPort> {
        let index = self.tape.inputs.iter().position(|p| p.name == name)?;
        Some(InputPort { index, width: self.tape.inputs[index].width })
    }

    fn poke_input(&mut self, port: InputPort, value: u128) -> bool {
        let fits = port.fits(value);
        if fits {
            let port = &self.tape.inputs[port.index];
            self.state[port.slot as usize] = EvalValue::new(value, port.width, port.signed);
        }
        fits
    }

    fn peek(&self, name: &str) -> Result<u128, SimError> {
        self.tape.sync.check(&self.uncaptured, name)?;
        self.tape
            .index
            .get(name)
            .map(|slot| self.state[*slot as usize].bits)
            .ok_or_else(|| SimError::NoSuchPort(name.to_string()))
    }

    /// Runs the combinational program.
    fn eval(&mut self) -> Result<(), SimError> {
        exec(&self.tape.comb, &mut self.state, &self.mem);
        Ok(())
    }

    /// The full program runs on every edge: combinational program, register staging,
    /// the commits of the edged domains (memory writes first, while every operand
    /// slot still holds its pre-edge value, then registers), combinational program
    /// again. The all-domain edge (`None`) filters no commit.
    fn edge(&mut self, domains: Option<&[usize]>) -> Result<(), SimError> {
        exec(&self.tape.comb, &mut self.state, &self.mem);
        exec(&self.tape.reg_program, &mut self.state, &self.mem);
        for commit in &self.tape.mem_commits {
            if domains.is_some_and(|ds| !ds.contains(&commit.domain)) {
                continue;
            }
            if self.state[commit.en as usize].bits & 1 == 0 {
                continue;
            }
            let addr = self.state[commit.addr as usize].bits;
            if addr < u128::from(commit.depth) {
                let value = self.state[commit.val as usize].bits & commit.mask;
                // Whole-word stores in port order: a lane-masked port merges its
                // data into the PRE-edge word (staged by the register program), and
                // the last port to store a word wins — exactly the interpreter's
                // commit loop and the emitted Verilog's nonblocking assignments.
                let word = match commit.lane {
                    None => value,
                    Some((lane, old)) => {
                        let lanes = self.state[lane as usize].bits & commit.mask;
                        (self.state[old as usize].bits & !lanes) | (value & lanes)
                    }
                };
                self.mem[(commit.base + addr as u32) as usize] = word;
            }
        }
        for commit in &self.tape.commits {
            if domains.is_some_and(|ds| !ds.contains(&commit.domain)) {
                continue;
            }
            self.state[commit.reg as usize].bits =
                self.state[commit.staged as usize].bits & commit.mask;
        }
        self.tape.sync.capture(&mut self.uncaptured, domains);
        self.cycles += 1;
        exec(&self.tape.comb, &mut self.state, &self.mem);
        Ok(())
    }

    fn clock_domains(&self) -> &[String] {
        &self.tape.domains
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn output_names(&self) -> Vec<&str> {
        self.tape.outputs.iter().map(|(name, _)| name.as_str()).collect()
    }

    fn read_outputs(&self, values: &mut Vec<u128>) {
        values.extend(self.tape.outputs.iter().map(|(_, slot)| self.state[*slot as usize].bits));
    }

    fn mem(&self, mem: &str) -> Option<(&[u128], u32)> {
        let m = self.tape.mems.iter().find(|m| m.name == mem)?;
        let words = m.base as usize..(m.base + m.depth) as usize;
        Some((&self.mem[words], m.width))
    }

    fn mem_mut(&mut self, mem: &str) -> Option<(&mut [u128], u32)> {
        let m = self.tape.mems.iter().find(|m| m.name == mem)?;
        let words = m.base as usize..(m.base + m.depth) as usize;
        Some((&mut self.mem[words], m.width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    fn counter_netlist() -> Netlist {
        let mut m = ModuleBuilder::new("Counter");
        let en = m.input("en", Type::bool());
        let out = m.output("out", Type::uint(8));
        let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
        m.when(&en, |m| {
            let next = count.add(&Signal::lit_w(1, 8)).bits(7, 0);
            m.connect(&count, &next);
        });
        m.connect(&out, &count);
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn compiled_counter_matches_interpreter() {
        let netlist = counter_netlist();
        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        interp.reset(2).unwrap();
        compiled.reset(2).unwrap();
        for en in [1u128, 1, 0, 1, 0, 0, 1, 1] {
            interp.poke("en", en).unwrap();
            compiled.poke("en", en).unwrap();
            interp.step().unwrap();
            compiled.step().unwrap();
            assert_eq!(interp.peek("out").unwrap(), compiled.peek("out").unwrap());
            assert_eq!(interp.peek("count").unwrap(), compiled.peek("count").unwrap());
        }
        assert_eq!(interp.cycles(), compiled.cycles());
        assert_eq!(interp.outputs(), compiled.outputs());
    }

    #[test]
    fn tape_is_shared_between_instances() {
        let tape = Arc::new(Tape::compile(&counter_netlist()).unwrap());
        assert!(!tape.comb.is_empty() && !tape.reg_program.is_empty());
        let mut a = CompiledSimulator::from_tape(tape.clone());
        let mut b = CompiledSimulator::from_tape(tape.clone());
        a.reset(1).unwrap();
        b.reset(1).unwrap();
        a.poke("en", 1).unwrap();
        a.step_n(3).unwrap();
        b.step_n(3).unwrap();
        // Independent state over the same program.
        assert_eq!(a.peek("out").unwrap(), 3);
        assert_eq!(b.peek("out").unwrap(), 0);
        assert!(Arc::ptr_eq(a.tape(), &tape) && Arc::ptr_eq(b.tape(), &tape));
    }

    #[test]
    fn register_chains_commit_simultaneously() {
        // A 2-stage shift register built from reset-less registers with bare
        // register-to-register connects: the second register's next-state is a plain
        // `Ref` to the first. The commit pass must snapshot staged values so register
        // `b` captures `a`'s PRE-step value (regression test: an aliased staged slot
        // once collapsed the chain to a single stage).
        let mut m = ModuleBuilder::new("Shift2");
        let d = m.input("d", Type::uint(4));
        let q = m.output("q", Type::uint(4));
        let a = m.reg("a", Type::uint(4));
        let b = m.reg("b", Type::uint(4));
        m.connect(&a, &d);
        m.connect(&b, &a);
        m.connect(&q, &b);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();

        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        for (cycle, d_val) in [5u128, 9, 2, 7, 0, 3].into_iter().enumerate() {
            interp.poke("d", d_val).unwrap();
            compiled.poke("d", d_val).unwrap();
            interp.step().unwrap();
            compiled.step().unwrap();
            for name in ["a", "b", "q"] {
                assert_eq!(
                    interp.peek(name).unwrap(),
                    compiled.peek(name).unwrap(),
                    "cycle {cycle}, signal {name}"
                );
            }
        }
        // And the chain really is two stages deep: q lags d by two cycles.
        assert_eq!(compiled.peek("q").unwrap(), 0);
        assert_eq!(compiled.peek("a").unwrap(), 3);
    }

    fn ram_netlist() -> Netlist {
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
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn compiled_memory_matches_interpreter() {
        let netlist = ram_netlist();
        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        assert_eq!(compiled.tape().mem_init.len(), 8);
        // Mixed write/read schedule, including a read-under-write collision at cycle 3.
        let schedule: &[(u128, u128, u128, u128)] = &[
            (1, 0, 0x11, 0),
            (1, 1, 0x22, 0),
            (0, 0, 0xFF, 1),
            (1, 1, 0x33, 1), // read addr 1 while writing addr 1 (old data expected)
            (0, 0, 0, 1),
        ];
        for (cycle, &(we, waddr, wdata, raddr)) in schedule.iter().enumerate() {
            for (name, v) in [("we", we), ("waddr", waddr), ("wdata", wdata), ("raddr", raddr)] {
                interp.poke(name, v).unwrap();
                compiled.poke(name, v).unwrap();
            }
            interp.eval().unwrap();
            compiled.eval().unwrap();
            assert_eq!(
                interp.peek("rdata").unwrap(),
                compiled.peek("rdata").unwrap(),
                "pre-edge rdata, cycle {cycle}"
            );
            interp.step().unwrap();
            compiled.step().unwrap();
            assert_eq!(
                interp.peek("rdata").unwrap(),
                compiled.peek("rdata").unwrap(),
                "post-edge rdata, cycle {cycle}"
            );
        }
        for addr in 0..8 {
            assert_eq!(
                interp.peek_mem("store", addr).unwrap(),
                compiled.peek_mem("store", addr).unwrap(),
                "word {addr}"
            );
        }
        assert_eq!(compiled.peek_mem("store", 1).unwrap(), 0x33);
    }

    #[test]
    fn multiple_write_ports_last_wins() {
        // Two unconditional writes to the same address in one cycle: the textually
        // last port must win on both engines.
        let mut m = ModuleBuilder::new("DualWrite");
        let addr = m.input("addr", Type::uint(2));
        let a = m.input("a", Type::uint(4));
        let b = m.input("b", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        let mem = m.mem("store", Type::uint(4), 4);
        m.mem_write(&mem, &addr, &a);
        m.mem_write(&mem, &addr, &b);
        m.connect(&out, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        for sim in [&mut interp as &mut dyn crate::engine::SimEngine, &mut compiled] {
            sim.poke("addr", 2).unwrap();
            sim.poke("a", 0x3).unwrap();
            sim.poke("b", 0x9).unwrap();
            sim.step().unwrap();
            assert_eq!(sim.peek_mem("store", 2).unwrap(), 0x9);
            assert_eq!(sim.peek("out").unwrap(), 0x9);
        }
    }

    #[test]
    fn masked_sync_init_ram_matches_interpreter() {
        // One memory exercising all three new semantics at once: a lane-masked write
        // port, a sequential read port, and an initial image — driven identically on
        // both engines, compared peek-for-peek and word-for-word.
        let mut m = ModuleBuilder::new("FullRam");
        let we = m.input("we", Type::bool());
        let addr = m.input("addr", Type::uint(2));
        let wdata = m.input("wdata", Type::uint(8));
        let wmask = m.input("wmask", Type::uint(8));
        let rdata_c = m.output("rdata_c", Type::uint(8));
        let rdata_s = m.output("rdata_s", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.mem_init(&mem, &[0x0F, 0xF0, 0x3C]);
        m.when(&we, |m| m.mem_write_masked(&mem, &addr, &wdata, &wmask));
        m.connect(&rdata_c, &mem.read(&addr));
        m.connect(&rdata_s, &mem.read_sync(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();

        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        // Before the first edge both engines refuse to peek the registered read.
        assert_eq!(interp.peek("rdata_s").unwrap_err(), compiled.peek("rdata_s").unwrap_err());
        // The initial image is visible through the combinational port immediately.
        for sim_addr in 0..4u128 {
            interp.poke("addr", sim_addr).unwrap();
            compiled.poke("addr", sim_addr).unwrap();
            interp.eval().unwrap();
            compiled.eval().unwrap();
            assert_eq!(interp.peek("rdata_c").unwrap(), compiled.peek("rdata_c").unwrap());
        }
        let schedule: &[(u128, u128, u128, u128)] = &[
            (1, 0, 0xFF, 0x0F), // masked write into the init image
            (1, 0, 0xAA, 0xF0), // second masked write, other lanes
            (0, 0, 0x00, 0x00),
            (1, 2, 0x55, 0xFF), // full-lane overwrite
            (1, 3, 0x77, 0x00), // enabled write with no lanes set
        ];
        for (cycle, &(we_v, addr_v, data_v, mask_v)) in schedule.iter().enumerate() {
            for (name, v) in [("we", we_v), ("addr", addr_v), ("wdata", data_v), ("wmask", mask_v)]
            {
                interp.poke(name, v).unwrap();
                compiled.poke(name, v).unwrap();
            }
            interp.step().unwrap();
            compiled.step().unwrap();
            for name in ["rdata_c", "rdata_s"] {
                assert_eq!(
                    interp.peek(name).unwrap(),
                    compiled.peek(name).unwrap(),
                    "cycle {cycle}, signal {name}"
                );
            }
            for word in 0..4 {
                assert_eq!(
                    interp.peek_mem("store", word).unwrap(),
                    compiled.peek_mem("store", word).unwrap(),
                    "cycle {cycle}, word {word}"
                );
            }
        }
        // Spot-check the merged contents: 0x0F | low-lane 0xFF then high-lane 0xAA.
        assert_eq!(compiled.peek_mem("store", 0).unwrap(), 0xAF);
        assert_eq!(compiled.peek_mem("store", 2).unwrap(), 0x55);
        assert_eq!(compiled.peek_mem("store", 3).unwrap(), 0x00);
    }

    #[test]
    fn same_cycle_ports_commit_like_nonblocking_assigns() {
        // Two ports, same address, same cycle: an unmasked first port and a masked
        // second port. Every port computes its word from the PRE-edge contents and
        // whole-word stores apply in declaration order (last port wins) — exactly
        // the emitted Verilog, where each port is a nonblocking assignment reading
        // pre-edge state and the last scheduled assignment takes the word.
        let mut m = ModuleBuilder::new("MergePorts");
        let addr = m.input("addr", Type::uint(2));
        let a = m.input("a", Type::uint(8));
        let b = m.input("b", Type::uint(8));
        let ben = m.input("ben", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.mem_write(&mem, &addr, &a);
        m.mem_write_masked(&mem, &addr, &b, &ben);
        m.connect(&out, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut interp = Simulator::new(netlist.clone());
        let mut compiled = CompiledSimulator::new(&netlist).unwrap();
        for sim in [&mut interp as &mut dyn crate::engine::SimEngine, &mut compiled] {
            sim.poke_mem("store", 1, 0xFF).unwrap();
            sim.poke("addr", 1).unwrap();
            sim.poke("a", 0x00).unwrap();
            sim.poke("b", 0x3C).unwrap();
            sim.poke("ben", 0x0F).unwrap();
            sim.step().unwrap();
            // The masked port's merge reads the PRE-edge 0xFF (not port 1's 0x00):
            // (0xFF & ~0x0F) | (0x3C & 0x0F) = 0xFC, and as the last port it wins.
            assert_eq!(sim.peek_mem("store", 1).unwrap(), 0xFC);
            assert_eq!(sim.peek("out").unwrap(), 0xFC);
        }
    }

    #[test]
    fn constants_are_pooled() {
        // Two defs using the same literal share one constant slot.
        let mut m = ModuleBuilder::new("Consts");
        let a = m.input("a", Type::uint(4));
        let x = m.output("x", Type::uint(5));
        let y = m.output("y", Type::uint(5));
        m.connect(&x, &a.add(&Signal::lit_w(3, 4)));
        m.connect(&y, &a.sub(&Signal::lit_w(3, 4)));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let tape = Tape::compile(&netlist).unwrap();
        // Named slots + 1 shared constant + 2 temps + (implicit reset constants if any).
        assert_eq!(tape.init.len(), tape.index.len() + 1 + 2);
    }

    #[test]
    fn slot_assignment_is_dense_and_deterministic() {
        let mut m = ModuleBuilder::new("Counter");
        let en = m.input("en", Type::bool());
        let count = m.output("count", Type::uint(8));
        let addr = m.input("addr", Type::uint(2));
        let ra = m.output("ra", Type::uint(8));
        let rb = m.output("rb", Type::uint(4));
        let r = m.reg_init("r", Type::uint(8), &Signal::lit_w(0, 8));
        m.when(&en, |m| m.connect(&r, &r.add(&Signal::lit_w(1, 8)).bits(7, 0)));
        m.connect(&count, &r);
        let a = m.mem("a", Type::uint(8), 4);
        let b = m.mem("b", Type::uint(4), 8);
        m.connect(&ra, &a.read(&addr));
        m.connect(&rb, &b.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let tape = Tape::compile(&netlist).unwrap();
        let slot = |name: &str| tape.index.get(name).copied();
        // Every signal gets exactly one slot, and the named slots are the first ones;
        // output ports keep their port slot even though they reappear as defs.
        assert_eq!(tape.index.len(), netlist.signals.len());
        let mut slots: Vec<u32> = tape.index.values().copied().collect();
        slots.sort_unstable();
        assert!(slots.iter().copied().eq(0..tape.index.len() as u32));
        // Ports first, in port order, then registers.
        let ports = ["clock", "reset", "en", "count", "addr", "ra", "rb", "r"];
        for (expected, name) in ports.into_iter().enumerate() {
            assert_eq!(slot(name), Some(expected as u32), "{name}");
        }
        assert_eq!(slot("ghost"), None);
        // Memories share one word array, packed in declaration order.
        let layout: Vec<(&str, u32, u32)> =
            tape.mems.iter().map(|m| (m.name.as_str(), m.base, m.depth)).collect();
        assert_eq!(layout, [("a", 0, 4), ("b", 4, 8)]);
        assert_eq!(tape.mem_init.len(), 12);
        // Deterministic: recompiling yields the identical layout.
        assert_eq!(tape.index, Tape::compile(&netlist).unwrap().index);
    }

    #[test]
    fn broken_netlists_fail_at_compile_time() {
        let mut netlist = counter_netlist();
        // Corrupt a def to reference a non-existent signal.
        netlist.defs[0].expr = Expression::reference("ghost");
        match Tape::compile(&netlist) {
            Err(SimError::Eval(EvalError::UnknownSignal(name))) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownSignal, got {other:?}"),
        }
        // Non-ground forms are rejected as unsupported.
        let mut netlist = counter_netlist();
        netlist.defs[0].expr =
            Expression::SubField(Box::new(Expression::reference("count")), "f".into());
        assert!(matches!(
            Tape::compile(&netlist),
            Err(SimError::Eval(EvalError::UnsupportedExpression(_)))
        ));
    }
}
