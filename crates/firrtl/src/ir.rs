//! The FIRRTL-like intermediate representation.
//!
//! A [`Circuit`] is a set of [`Module`]s with a designated top module. Each module has
//! typed [`Port`]s and a body of [`Statement`]s. Expressions are side-effect free trees
//! over references, literals, primitive operations and muxes.
//!
//! A circuit shares its modules copy-on-write (each is an `Arc<Module>`): a clone bumps
//! one reference count per module, and [`Circuit::top_module_mut`] or [`Arc::make_mut`]
//! copies a shared module before its first edit. The reflection loop clones circuits
//! freely — every candidate starts as a clone of its case's reference and the trace
//! keeps a clone of every tested candidate — so those clones copy no module, and a
//! defect copies only the module it edits.
//!
//! The representation intentionally mirrors the published FIRRTL specification closely
//! enough that every diagnostic class of the ReChisel paper's Table II has a natural
//! home: abstract resets, implicit clocks, aggregate connects, conditional (`when`)
//! blocks with last-connect semantics, and static/dynamic sub-accesses are all first
//! class.
//!
//! Two *defect-carrier* expression forms ([`Expression::ScalaCast`] and
//! [`Expression::BadApply`]) represent Scala-front-end constructs that the Chisel
//! elaborator would reject before FIRRTL is ever produced (rows A2/A3 of Table II).
//! They never survive checking and are rejected by lowering.
//!
//! # Walking the IR
//!
//! The children of each node, and their order, are written out once:
//! [`Expression::for_each_child`] for an expression's sub-expressions and
//! [`Statement::for_each_expr`] for the expressions a statement holds, each with a `_mut`
//! twin that lists the same children in the same order. The pre-order walks build on
//! them: [`Expression::visit`] over a whole expression tree, [`Statement::visit`] over a
//! statement and the statements nested in its `when` bodies, and
//! [`Module::visit_statements`] over a module body. A new variant is added to these
//! lists and every generic traversal — reference renaming, instance flattening, the
//! check passes, defect injection — follows.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A source location attached to ports, statements and diagnostics.
///
/// The ReChisel workflow feeds compiler diagnostics back to the Reviewer agent, and the
/// paper stresses that the *location* of an error is a key part of the feedback
/// (Fig. 3). Every node that can produce a diagnostic therefore carries a `SourceInfo`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SourceInfo {
    /// Pseudo file name, e.g. `Vector5.scala`.
    pub file: String,
    /// 1-based line number; 0 means unknown.
    pub line: u32,
    /// 1-based column number; 0 means unknown.
    pub col: u32,
}

impl SourceInfo {
    /// Creates a new source locator.
    pub fn new(file: impl Into<String>, line: u32, col: u32) -> Self {
        Self { file: file.into(), line, col }
    }

    /// An unknown location.
    pub fn unknown() -> Self {
        Self::default()
    }

    /// Returns true if this locator carries no real position.
    pub fn is_unknown(&self) -> bool {
        self.file.is_empty() && self.line == 0
    }
}

impl fmt::Display for SourceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unknown() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}:{}", self.file, self.line, self.col)
        }
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

impl Direction {
    /// Returns the opposite direction.
    pub fn flip(self) -> Self {
        match self {
            Direction::Input => Direction::Output,
            Direction::Output => Direction::Input,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Input => write!(f, "input"),
            Direction::Output => write!(f, "output"),
        }
    }
}

/// A named field of a [`Type::Bundle`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// A flipped field points against the bundle's nominal direction
    /// (e.g. the `ready` signal of a decoupled producer interface).
    pub flipped: bool,
}

impl Field {
    /// Creates an unflipped field.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Self { name: name.into(), ty, flipped: false }
    }

    /// Creates a flipped field.
    pub fn flipped(name: impl Into<String>, ty: Type) -> Self {
        Self { name: name.into(), ty, flipped: true }
    }
}

/// Hardware types.
///
/// Widths are optional: `None` means "to be inferred" by the width-inference pass.
/// `Bool` is kept distinct from `UInt(1)` so that diagnostics can phrase themselves in
/// Chisel terms ("found chisel3.Bool, required chisel3.UInt", Table II row B5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// Clock type.
    Clock,
    /// Abstract reset. Must be inferred to sync/async by the reset-inference pass;
    /// an uninferrable abstract reset is Table II row B1.
    Reset,
    /// Asynchronous reset.
    AsyncReset,
    /// Single-bit boolean.
    Bool,
    /// Unsigned integer with optional width.
    UInt(Option<u32>),
    /// Signed integer with optional width.
    SInt(Option<u32>),
    /// Homogeneous vector.
    Vec(Box<Type>, usize),
    /// Record with named fields.
    Bundle(Vec<Field>),
}

impl Type {
    /// Unsigned integer of known width.
    pub fn uint(width: u32) -> Self {
        Type::UInt(Some(width))
    }

    /// Signed integer of known width.
    pub fn sint(width: u32) -> Self {
        Type::SInt(Some(width))
    }

    /// Single-bit boolean.
    pub fn bool() -> Self {
        Type::Bool
    }

    /// Vector of `len` elements of type `elem`.
    pub fn vec(elem: Type, len: usize) -> Self {
        Type::Vec(Box::new(elem), len)
    }

    /// Bundle with the given fields.
    pub fn bundle(fields: Vec<Field>) -> Self {
        Type::Bundle(fields)
    }

    /// Returns true for ground (non-aggregate) types.
    pub fn is_ground(&self) -> bool {
        !matches!(self, Type::Vec(..) | Type::Bundle(..))
    }

    /// Returns true for clock-like types.
    pub fn is_clock(&self) -> bool {
        matches!(self, Type::Clock)
    }

    /// Returns true for any reset-capable type (`Bool`, `Reset`, `AsyncReset`).
    pub fn is_reset(&self) -> bool {
        matches!(self, Type::Reset | Type::AsyncReset | Type::Bool)
    }

    /// Returns true if the type is signed.
    pub fn is_signed(&self) -> bool {
        matches!(self, Type::SInt(_))
    }

    /// The known bit width of a ground type, if any.
    ///
    /// `Clock`, `Reset`, `AsyncReset` and `Bool` are all 1 bit wide. Aggregates return
    /// the total width of their flattened elements when all element widths are known.
    pub fn width(&self) -> Option<u32> {
        match self {
            Type::Clock | Type::Reset | Type::AsyncReset | Type::Bool => Some(1),
            Type::UInt(w) | Type::SInt(w) => *w,
            Type::Vec(elem, len) => elem.width().map(|w| w * (*len as u32)),
            Type::Bundle(fields) => {
                let mut total = 0u32;
                for f in fields {
                    total += f.ty.width()?;
                }
                Some(total)
            }
        }
    }

    /// A short Chisel-flavoured name for diagnostics.
    pub fn chisel_name(&self) -> String {
        match self {
            Type::Clock => "chisel3.Clock".to_string(),
            Type::Reset => "chisel3.Reset".to_string(),
            Type::AsyncReset => "chisel3.AsyncReset".to_string(),
            Type::Bool => "chisel3.Bool".to_string(),
            Type::UInt(_) => "chisel3.UInt".to_string(),
            Type::SInt(_) => "chisel3.SInt".to_string(),
            Type::Vec(elem, len) => format!("chisel3.Vec[{}]({})", elem.chisel_name(), len),
            Type::Bundle(_) => "chisel3.Bundle".to_string(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Clock => write!(f, "Clock"),
            Type::Reset => write!(f, "Reset"),
            Type::AsyncReset => write!(f, "AsyncReset"),
            Type::Bool => write!(f, "Bool"),
            Type::UInt(Some(w)) => write!(f, "UInt<{w}>"),
            Type::UInt(None) => write!(f, "UInt"),
            Type::SInt(Some(w)) => write!(f, "SInt<{w}>"),
            Type::SInt(None) => write!(f, "SInt"),
            Type::Vec(elem, len) => write!(f, "{elem}[{len}]"),
            Type::Bundle(fields) => {
                write!(f, "{{")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if field.flipped {
                        write!(f, "flip ")?;
                    }
                    write!(f, "{}: {}", field.name, field.ty)?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Port direction.
    pub direction: Direction,
    /// Port type.
    pub ty: Type,
    /// Declaration site.
    pub info: SourceInfo,
}

impl Port {
    /// Creates a new port with an unknown location.
    pub fn new(name: impl Into<String>, direction: Direction, ty: Type) -> Self {
        Self { name: name.into(), direction, ty, info: SourceInfo::unknown() }
    }
}

/// Primitive operations.
///
/// Width rules follow the FIRRTL specification (§ primitive operations); the concrete
/// rules live in the width-inference pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrimOp {
    /// Addition with carry (`+&` in Chisel): result width `max(w1, w2) + 1`.
    Add,
    /// Subtraction: result width `max(w1, w2) + 1`.
    Sub,
    /// Multiplication: result width `w1 + w2`.
    Mul,
    /// Division: result width `w1` (+1 for signed).
    Div,
    /// Remainder: result width `min(w1, w2)`.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not.
    Not,
    /// Equality: 1-bit result.
    Eq,
    /// Inequality: 1-bit result.
    Neq,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    Leq,
    /// Greater-than.
    Gt,
    /// Greater-than-or-equal.
    Geq,
    /// Static left shift by `params[0]` bits.
    Shl,
    /// Static right shift by `params[0]` bits.
    Shr,
    /// Dynamic left shift.
    Dshl,
    /// Dynamic right shift.
    Dshr,
    /// Concatenation: `cat(a, b)` places `a` in the high bits.
    Cat,
    /// Bit extraction: `bits(x, hi, lo)` with `hi`/`lo` in `params`.
    Bits,
    /// And-reduction to 1 bit.
    AndR,
    /// Or-reduction to 1 bit.
    OrR,
    /// Xor-reduction to 1 bit.
    XorR,
    /// Reinterpret as unsigned.
    AsUInt,
    /// Reinterpret as signed.
    AsSInt,
    /// Reinterpret a single-bit value as a clock. Only legal from `Bool` in this
    /// dialect; applying it to a wider `UInt` reproduces Table II row B6.
    AsClock,
    /// Reinterpret as a 1-bit boolean. Only legal from 1-bit values.
    AsBool,
    /// Reinterpret as an asynchronous reset.
    AsAsyncReset,
    /// Arithmetic negation.
    Neg,
    /// Zero/sign extension to at least `params[0]` bits.
    Pad,
    /// Tail: drop the `params[0]` high bits.
    Tail,
    /// Head: keep the `params[0]` high bits.
    Head,
}

impl PrimOp {
    /// Number of expression arguments the operation expects.
    pub fn arity(self) -> usize {
        use PrimOp::*;
        match self {
            Not | AndR | OrR | XorR | AsUInt | AsSInt | AsClock | AsBool | AsAsyncReset | Neg
            | Pad | Tail | Head | Shl | Shr | Bits => 1,
            _ => 2,
        }
    }

    /// Number of integer parameters the operation expects.
    pub fn param_count(self) -> usize {
        use PrimOp::*;
        match self {
            Shl | Shr | Pad | Tail | Head => 1,
            Bits => 2,
            _ => 0,
        }
    }

    /// The FIRRTL spelling of the operation.
    pub fn name(self) -> &'static str {
        use PrimOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Eq => "eq",
            Neq => "neq",
            Lt => "lt",
            Leq => "leq",
            Gt => "gt",
            Geq => "geq",
            Shl => "shl",
            Shr => "shr",
            Dshl => "dshl",
            Dshr => "dshr",
            Cat => "cat",
            Bits => "bits",
            AndR => "andr",
            OrR => "orr",
            XorR => "xorr",
            AsUInt => "asUInt",
            AsSInt => "asSInt",
            AsClock => "asClock",
            AsBool => "asBool",
            AsAsyncReset => "asAsyncReset",
            Neg => "neg",
            Pad => "pad",
            Tail => "tail",
            Head => "head",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expression {
    /// Reference to a port, wire, register, node or instance.
    Ref(String),
    /// Field access on a bundle-typed expression.
    SubField(Box<Expression>, String),
    /// Static index into a vector-typed expression.
    SubIndex(Box<Expression>, i64),
    /// Dynamic index into a vector-typed expression.
    SubAccess(Box<Expression>, Box<Expression>),
    /// Unsigned literal.
    UIntLiteral {
        /// Value.
        value: u128,
        /// Optional explicit width.
        width: Option<u32>,
    },
    /// Signed literal.
    SIntLiteral {
        /// Value.
        value: i128,
        /// Optional explicit width.
        width: Option<u32>,
    },
    /// Two-way multiplexer.
    Mux {
        /// Select condition (1 bit).
        cond: Box<Expression>,
        /// Value when the condition is true.
        tval: Box<Expression>,
        /// Value when the condition is false.
        fval: Box<Expression>,
    },
    /// Primitive operation.
    Prim {
        /// The operation.
        op: PrimOp,
        /// Expression operands.
        args: Vec<Expression>,
        /// Static integer parameters (shift amounts, bit ranges, pad widths).
        params: Vec<i64>,
    },
    /// Read port of a memory declared with [`Statement::Mem`].
    ///
    /// A combinational read (`sync: false`) returns the *current* contents of the
    /// addressed word (read-under-write is "old data": a write committed in the same
    /// cycle becomes visible one cycle later, exactly like a register update). A
    /// sequential read (`sync: true`, Chisel's `SyncReadMem` behaviour) is registered:
    /// the addressed word is captured at the clock edge and visible one cycle later —
    /// lowering hoists it into an implicit read register in the port's own clock
    /// domain (`clock`, defaulting to the module's implicit clock), gated by the
    /// optional read enable `en`, with same-edge write collisions resolved by the
    /// memory's [`ReadUnderWrite`] attribute. Out-of-range addresses read as zero in
    /// both flavours. `en` and `clock` apply to sequential ports only (combinational
    /// reads always carry `None`).
    MemRead {
        /// Name of the memory being read.
        mem: String,
        /// Word address (unsigned).
        addr: Box<Expression>,
        /// True for a 1-cycle registered (sequential) read port.
        sync: bool,
        /// Optional read enable of a sequential port (1 bit). `None` means always
        /// enabled. When the enable is low at the port's clock edge the captured
        /// value is *undefined*; the engines and the emitted Verilog model that
        /// deterministically as "hold the previous value".
        en: Option<Box<Expression>>,
        /// Optional explicit read clock of a sequential port (Chisel's
        /// `withClock { mem.read(...) }`). `None` means the module's implicit clock.
        clock: Option<Box<Expression>>,
    },
    /// Defect carrier: a Scala-level `asInstanceOf` cast (Table II row A2). Rejected by
    /// type checking with the corresponding Chisel front-end message.
    ScalaCast {
        /// The value being cast.
        arg: Box<Expression>,
        /// Target Scala type name, e.g. `"SInt"`.
        target: String,
    },
    /// Defect carrier: an application with the wrong number of arguments (Table II row
    /// A3), e.g. `r(0, 2)` on a `Seq`. Rejected by type checking.
    BadApply {
        /// The callee.
        target: Box<Expression>,
        /// The (too many / too few) arguments.
        args: Vec<Expression>,
    },
}

impl Expression {
    /// Reference expression.
    pub fn reference(name: impl Into<String>) -> Self {
        Expression::Ref(name.into())
    }

    /// Unsigned literal with inferred width.
    pub fn uint_lit(value: u128) -> Self {
        Expression::UIntLiteral { value, width: None }
    }

    /// Unsigned literal with explicit width.
    pub fn uint_lit_w(value: u128, width: u32) -> Self {
        Expression::UIntLiteral { value, width: Some(width) }
    }

    /// Signed literal with explicit width.
    pub fn sint_lit_w(value: i128, width: u32) -> Self {
        Expression::SIntLiteral { value, width: Some(width) }
    }

    /// Builds a primitive operation.
    pub fn prim(op: PrimOp, args: Vec<Expression>, params: Vec<i64>) -> Self {
        Expression::Prim { op, args, params }
    }

    /// Builds a mux.
    pub fn mux(cond: Expression, tval: Expression, fval: Expression) -> Self {
        Expression::Mux { cond: Box::new(cond), tval: Box::new(tval), fval: Box::new(fval) }
    }

    /// Builds a combinational memory read port.
    pub fn mem_read(mem: impl Into<String>, addr: Expression) -> Self {
        Expression::MemRead {
            mem: mem.into(),
            addr: Box::new(addr),
            sync: false,
            en: None,
            clock: None,
        }
    }

    /// Builds a sequential (registered) memory read port on the implicit clock,
    /// always enabled.
    pub fn mem_read_sync(mem: impl Into<String>, addr: Expression) -> Self {
        Expression::MemRead {
            mem: mem.into(),
            addr: Box::new(addr),
            sync: true,
            en: None,
            clock: None,
        }
    }

    /// The root reference name this expression reads or drives, if any.
    ///
    /// `io.out[3]` has root `io`; literals and operations have no root.
    pub fn root_ref(&self) -> Option<&str> {
        match self {
            Expression::Ref(name) => Some(name),
            Expression::SubField(inner, _)
            | Expression::SubIndex(inner, _)
            | Expression::SubAccess(inner, _) => inner.root_ref(),
            _ => None,
        }
    }

    /// Calls `f` on each direct child, in the IR's one child order: an access's inner
    /// expression then a `SubAccess`'s index; a `MemRead`'s address, enable, clock; a
    /// `Mux`'s condition, true arm, false arm; `Prim` arguments; a `ScalaCast`'s
    /// argument; a `BadApply`'s target then its arguments. References and literals
    /// have none. Every generic expression walk goes through this or its `_mut` twin.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expression)) {
        match self {
            Expression::SubField(inner, _) | Expression::SubIndex(inner, _) => f(inner),
            Expression::SubAccess(inner, index) => {
                f(inner);
                f(index);
            }
            Expression::MemRead { addr, en, clock, .. } => {
                f(addr);
                if let Some(en) = en {
                    f(en);
                }
                if let Some(clock) = clock {
                    f(clock);
                }
            }
            Expression::Mux { cond, tval, fval } => {
                f(cond);
                f(tval);
                f(fval);
            }
            Expression::Prim { args, .. } => args.iter().for_each(f),
            Expression::ScalaCast { arg, .. } => f(arg),
            Expression::BadApply { target, args } => {
                f(target);
                args.iter().for_each(f);
            }
            Expression::Ref(_)
            | Expression::UIntLiteral { .. }
            | Expression::SIntLiteral { .. } => {}
        }
    }

    /// [`for_each_child`](Self::for_each_child), mutably: the same children in the
    /// same order.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expression)) {
        match self {
            Expression::SubField(inner, _) | Expression::SubIndex(inner, _) => f(inner),
            Expression::SubAccess(inner, index) => {
                f(inner);
                f(index);
            }
            Expression::MemRead { addr, en, clock, .. } => {
                f(addr);
                if let Some(en) = en {
                    f(en);
                }
                if let Some(clock) = clock {
                    f(clock);
                }
            }
            Expression::Mux { cond, tval, fval } => {
                f(cond);
                f(tval);
                f(fval);
            }
            Expression::Prim { args, .. } => args.iter_mut().for_each(f),
            Expression::ScalaCast { arg, .. } => f(arg),
            Expression::BadApply { target, args } => {
                f(target);
                args.iter_mut().for_each(f);
            }
            Expression::Ref(_)
            | Expression::UIntLiteral { .. }
            | Expression::SIntLiteral { .. } => {}
        }
    }

    /// Visits every sub-expression (including `self`) in pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expression)) {
        f(self);
        self.for_each_child(&mut |child| child.visit(f));
    }

    /// Collects the names of every reference read by this expression.
    pub fn referenced_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expression::Ref(name) = e {
                out.push(name.clone());
            }
        });
        out
    }

    /// Rewrites references, and the memory a `MemRead` names, in place using `f`.
    pub fn rename_refs(&mut self, f: &impl Fn(&str) -> Option<String>) {
        if let Expression::Ref(name) | Expression::MemRead { mem: name, .. } = self {
            if let Some(new) = f(name) {
                *name = new;
            }
        }
        self.for_each_child_mut(&mut |child| child.rename_refs(f));
    }
}

impl fmt::Display for Expression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expression::Ref(name) => write!(f, "{name}"),
            Expression::SubField(inner, field) => write!(f, "{inner}.{field}"),
            Expression::SubIndex(inner, idx) => write!(f, "{inner}[{idx}]"),
            Expression::SubAccess(inner, idx) => write!(f, "{inner}[{idx}]"),
            Expression::UIntLiteral { value, width: Some(w) } => write!(f, "UInt<{w}>({value})"),
            Expression::UIntLiteral { value, width: None } => write!(f, "UInt({value})"),
            Expression::SIntLiteral { value, width: Some(w) } => write!(f, "SInt<{w}>({value})"),
            Expression::SIntLiteral { value, width: None } => write!(f, "SInt({value})"),
            Expression::Mux { cond, tval, fval } => write!(f, "mux({cond}, {tval}, {fval})"),
            Expression::MemRead { mem, addr, sync: false, .. } => write!(f, "read({mem}, {addr})"),
            Expression::MemRead { mem, addr, sync: true, en, clock } => {
                write!(f, "read_sync({mem}, {addr}")?;
                if let Some(en) = en {
                    write!(f, ", en={en}")?;
                }
                if let Some(clock) = clock {
                    write!(f, ", clock={clock}")?;
                }
                write!(f, ")")
            }
            Expression::Prim { op, args, params } => {
                write!(f, "{op}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                for p in params {
                    write!(f, ", {p}")?;
                }
                write!(f, ")")
            }
            Expression::ScalaCast { arg, target } => write!(f, "{arg}.asInstanceOf[{target}]"),
            Expression::BadApply { target, args } => {
                write!(f, "{target}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Reset specification of a register.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegReset {
    /// The reset signal (Bool / Reset / AsyncReset typed).
    pub reset: Expression,
    /// The value loaded while the reset is asserted.
    pub init: Expression,
}

/// Read-under-write behaviour of a memory's sequential read ports: what a registered
/// read captures when a write port stores to the same address on the same clock edge
/// (mirroring FIRRTL's per-`mem` `read-under-write` attribute).
///
/// The attribute only arbitrates *same-domain* collisions. A write port clocked in a
/// different domain than the read port commits on its own edges, so the read simply
/// observes whatever the backing store holds — cross-domain timing is a CDC concern,
/// not a read-under-write one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadUnderWrite {
    /// The read captures the word as it was *before* the same-edge write committed
    /// (the default, and the natural behaviour of nonblocking Verilog assignment).
    #[default]
    Old,
    /// The read captures the newly written data (write-first bypass; when several
    /// same-domain ports hit the address, the last declared port's merge wins).
    New,
    /// The captured value is undefined. The engines and the emitted Verilog model
    /// this deterministically as capturing zero, so "undefined" collisions are loud
    /// in differential testing instead of silently choosing old or new.
    Undefined,
}

impl ReadUnderWrite {
    /// Short lowercase name (`"old"` / `"new"` / `"undefined"`).
    pub fn name(self) -> &'static str {
        match self {
            ReadUnderWrite::Old => "old",
            ReadUnderWrite::New => "new",
            ReadUnderWrite::Undefined => "undefined",
        }
    }
}

impl fmt::Display for ReadUnderWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Clock specification of a register.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClockSpec {
    /// Use the module's implicit clock (requires a `Module`-kind module, Table II C1).
    Implicit,
    /// Use an explicit clock expression (Chisel's `withClock { ... }`).
    Explicit(Expression),
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// Wire declaration.
    Wire {
        /// Name.
        name: String,
        /// Type.
        ty: Type,
        /// Declaration site.
        info: SourceInfo,
    },
    /// Register declaration.
    Reg {
        /// Name.
        name: String,
        /// Type.
        ty: Type,
        /// Clock source.
        clock: ClockSpec,
        /// Optional reset specification (`RegInit`).
        reset: Option<RegReset>,
        /// Declaration site.
        info: SourceInfo,
    },
    /// Named immutable intermediate value (a Chisel `val x = <expr>`).
    Node {
        /// Name.
        name: String,
        /// Value.
        value: Expression,
        /// Declaration site.
        info: SourceInfo,
    },
    /// Connection `loc := expr` with last-connect-wins semantics.
    Connect {
        /// Sink.
        loc: Expression,
        /// Source.
        expr: Expression,
        /// Connection site.
        info: SourceInfo,
    },
    /// Marks a sink as intentionally unconnected (`DontCare`).
    Invalidate {
        /// Sink.
        loc: Expression,
        /// Site.
        info: SourceInfo,
    },
    /// Conditional block.
    When {
        /// Condition (1 bit).
        cond: Expression,
        /// Statements executed when the condition holds.
        then_body: Vec<Statement>,
        /// Statements executed otherwise.
        else_body: Vec<Statement>,
        /// Site.
        info: SourceInfo,
    },
    /// Memory (RAM) declaration: `depth` words of the ground element type `ty`.
    ///
    /// Reads are combinational or registered ([`Expression::MemRead`]); writes are
    /// synchronous ([`Statement::MemWrite`]) and commit together with register updates
    /// at the end of the cycle (read-under-write returns the old data). An optional
    /// `init` image (the `loadMemoryFromFile` equivalent) preloads the backing store:
    /// word `i` starts as `init[i]`, words beyond the image start as zero.
    Mem {
        /// Name.
        name: String,
        /// Element (word) type; must be ground with a known width.
        ty: Type,
        /// Number of words; must be at least 1.
        depth: usize,
        /// Optional initial contents; at most `depth` words, each within the word
        /// width (validated by the connect pass).
        init: Option<Vec<u128>>,
        /// What sequential read ports capture when a same-domain write hits the same
        /// address on the same edge.
        ruw: ReadUnderWrite,
        /// Declaration site.
        info: SourceInfo,
    },
    /// Synchronous write port of a memory declared with [`Statement::Mem`].
    ///
    /// A write inside `when` blocks is enabled only on the paths that reach it; the
    /// lowering pipeline folds the surrounding conditions into the port's enable.
    /// When several enabled ports target the same address in one cycle, the ports
    /// merge in declaration order (for unmasked ports the textually last write wins).
    MemWrite {
        /// Name of the memory being written.
        mem: String,
        /// Word address (unsigned).
        addr: Expression,
        /// Value stored at the next clock edge.
        value: Expression,
        /// Optional lane mask, one bit per data bit (mask width = word width): only
        /// the lanes whose mask bit is set are written, the others keep the old data.
        mask: Option<Expression>,
        /// Clock source of the write port.
        clock: ClockSpec,
        /// Site.
        info: SourceInfo,
    },
    /// Child module instantiation.
    Instance {
        /// Instance name.
        name: String,
        /// Name of the instantiated module.
        module: String,
        /// Site.
        info: SourceInfo,
    },
    /// Defect carrier: an interface signal declared as a bare Chisel type instead of
    /// being wrapped in `IO(...)` (Table II row B2), e.g. `val clk = Input(Clock())`.
    /// Rejected by type checking and by lowering.
    BareIoDecl {
        /// Name of the would-be port.
        name: String,
        /// Its type.
        ty: Type,
        /// Intended direction.
        direction: Direction,
        /// Site.
        info: SourceInfo,
    },
}

impl Statement {
    /// The source location of the statement.
    pub fn info(&self) -> &SourceInfo {
        match self {
            Statement::Wire { info, .. }
            | Statement::Reg { info, .. }
            | Statement::Node { info, .. }
            | Statement::Connect { info, .. }
            | Statement::Invalidate { info, .. }
            | Statement::When { info, .. }
            | Statement::Mem { info, .. }
            | Statement::MemWrite { info, .. }
            | Statement::Instance { info, .. }
            | Statement::BareIoDecl { info, .. } => info,
        }
    }

    /// The source location of the statement, mutably.
    pub fn info_mut(&mut self) -> &mut SourceInfo {
        match self {
            Statement::Wire { info, .. }
            | Statement::Reg { info, .. }
            | Statement::Node { info, .. }
            | Statement::Connect { info, .. }
            | Statement::Invalidate { info, .. }
            | Statement::When { info, .. }
            | Statement::Mem { info, .. }
            | Statement::MemWrite { info, .. }
            | Statement::Instance { info, .. }
            | Statement::BareIoDecl { info, .. } => info,
        }
    }

    /// The declared name, for declaration statements.
    pub fn declared_name(&self) -> Option<&str> {
        match self {
            Statement::Wire { name, .. }
            | Statement::Reg { name, .. }
            | Statement::Node { name, .. }
            | Statement::Mem { name, .. }
            | Statement::Instance { name, .. }
            | Statement::BareIoDecl { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Calls `f` on each expression the statement holds itself, in the IR's one
    /// order: a node's value; a connect's sink then source; an invalidated sink; a
    /// `when`'s condition; a register's explicit clock, reset signal, init value; a
    /// memory write's address, value, mask, explicit clock. The statements of a
    /// `when`'s bodies are not entered; [`visit`](Self::visit) reaches them.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expression)) {
        match self {
            Statement::Node { value, .. } => f(value),
            Statement::Connect { loc, expr, .. } => {
                f(loc);
                f(expr);
            }
            Statement::Invalidate { loc, .. } => f(loc),
            Statement::When { cond, .. } => f(cond),
            Statement::Reg { clock, reset, .. } => {
                if let ClockSpec::Explicit(clock) = clock {
                    f(clock);
                }
                if let Some(RegReset { reset, init }) = reset {
                    f(reset);
                    f(init);
                }
            }
            Statement::MemWrite { addr, value, mask, clock, .. } => {
                f(addr);
                f(value);
                if let Some(mask) = mask {
                    f(mask);
                }
                if let ClockSpec::Explicit(clock) = clock {
                    f(clock);
                }
            }
            Statement::Wire { .. }
            | Statement::Mem { .. }
            | Statement::Instance { .. }
            | Statement::BareIoDecl { .. } => {}
        }
    }

    /// [`for_each_expr`](Self::for_each_expr), mutably: the same expressions in the
    /// same order.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expression)) {
        match self {
            Statement::Node { value, .. } => f(value),
            Statement::Connect { loc, expr, .. } => {
                f(loc);
                f(expr);
            }
            Statement::Invalidate { loc, .. } => f(loc),
            Statement::When { cond, .. } => f(cond),
            Statement::Reg { clock, reset, .. } => {
                if let ClockSpec::Explicit(clock) = clock {
                    f(clock);
                }
                if let Some(RegReset { reset, init }) = reset {
                    f(reset);
                    f(init);
                }
            }
            Statement::MemWrite { addr, value, mask, clock, .. } => {
                f(addr);
                f(value);
                if let Some(mask) = mask {
                    f(mask);
                }
                if let ClockSpec::Explicit(clock) = clock {
                    f(clock);
                }
            }
            Statement::Wire { .. }
            | Statement::Mem { .. }
            | Statement::Instance { .. }
            | Statement::BareIoDecl { .. } => {}
        }
    }

    /// Visits this statement and every statement nested in its `when` bodies, in
    /// pre-order: a `when`, then its true body, then its false body.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Statement)) {
        f(self);
        if let Statement::When { then_body, else_body, .. } = self {
            then_body.iter().chain(else_body).for_each(|s| s.visit(f));
        }
    }

    /// [`visit`](Self::visit), mutably: the same statements in the same order.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Statement)) {
        f(self);
        if let Statement::When { then_body, else_body, .. } = self {
            then_body.iter_mut().chain(else_body).for_each(|s| s.visit_mut(f));
        }
    }
}

/// The kind of a module, mirroring Chisel's `Module` vs `RawModule` distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Has an implicit `clock` and `reset` port.
    Module,
    /// No implicit clock or reset; all registers must use `withClock` (Table II C1).
    RawModule,
}

/// A hardware module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Module kind.
    pub kind: ModuleKind,
    /// Ports. For `ModuleKind::Module` the implicit `clock` and `reset` ports are
    /// included explicitly by the builder.
    pub ports: Vec<Port>,
    /// Body statements.
    pub body: Vec<Statement>,
}

impl Module {
    /// Creates an empty module of the given kind.
    pub fn new(name: impl Into<String>, kind: ModuleKind) -> Self {
        Self { name: name.into(), kind, ports: Vec::new(), body: Vec::new() }
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates over input ports.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.direction == Direction::Input)
    }

    /// Iterates over output ports.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.direction == Direction::Output)
    }

    /// Visits every statement (including nested `when` bodies) in pre-order.
    pub fn visit_statements<'a>(&'a self, f: &mut impl FnMut(&'a Statement)) {
        self.body.iter().for_each(|s| s.visit(f));
    }

    /// Visits every statement mutably (including nested `when` bodies) in pre-order.
    pub fn visit_statements_mut(&mut self, f: &mut impl FnMut(&mut Statement)) {
        self.body.iter_mut().for_each(|s| s.visit_mut(f));
    }

    /// Counts statements, including nested ones.
    pub fn statement_count(&self) -> usize {
        let mut n = 0;
        self.visit_statements(&mut |_| n += 1);
        n
    }
}

/// A circuit: a set of modules with a designated top module.
///
/// Modules are shared copy-on-write: cloning a circuit copies the top name and bumps
/// one reference count per module, and the first edit of a shared module, through
/// [`top_module_mut`](Self::top_module_mut) or [`Arc::make_mut`], copies that module
/// and no other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// Name of the top module.
    pub top: String,
    /// All modules, including the top module. Each may be shared with clones of this
    /// circuit: edit one through [`Arc::make_mut`] or
    /// [`top_module_mut`](Self::top_module_mut), which leave the clones as they were.
    pub modules: Vec<Arc<Module>>,
}

impl Circuit {
    /// Creates a circuit from a single top-level module.
    pub fn single(module: Module) -> Self {
        Self { top: module.name.clone(), modules: vec![Arc::new(module)] }
    }

    /// Creates a circuit with the given top name and modules.
    pub fn new(top: impl Into<String>, modules: Vec<Module>) -> Self {
        Self { top: top.into(), modules: modules.into_iter().map(Arc::new).collect() }
    }

    /// Returns the top module, if present.
    pub fn top_module(&self) -> Option<&Module> {
        self.module(&self.top)
    }

    /// Returns a mutable reference to the top module, if present. A top module shared
    /// with another circuit is copied first; the other modules stay shared.
    pub fn top_module_mut(&mut self) -> Option<&mut Module> {
        let Self { top, modules } = self;
        modules.iter_mut().find(|m| m.name == *top).map(Arc::make_mut)
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name).map(|m| &**m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_widths() {
        assert_eq!(Type::bool().width(), Some(1));
        assert_eq!(Type::uint(8).width(), Some(8));
        assert_eq!(Type::UInt(None).width(), None);
        assert_eq!(Type::vec(Type::uint(4), 3).width(), Some(12));
        let b = Type::bundle(vec![Field::new("a", Type::uint(2)), Field::new("b", Type::bool())]);
        assert_eq!(b.width(), Some(3));
    }

    #[test]
    fn ground_classification() {
        assert!(Type::uint(3).is_ground());
        assert!(!Type::vec(Type::bool(), 2).is_ground());
        assert!(Type::Clock.is_clock());
        assert!(Type::Reset.is_reset());
        assert!(Type::AsyncReset.is_reset());
        assert!(Type::bool().is_reset());
        assert!(!Type::uint(2).is_reset());
    }

    #[test]
    fn expression_roots_and_refs() {
        let e = Expression::SubIndex(
            Box::new(Expression::SubField(Box::new(Expression::reference("io")), "out".into())),
            3,
        );
        assert_eq!(e.root_ref(), Some("io"));
        let sum = Expression::prim(
            PrimOp::Add,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        assert_eq!(sum.referenced_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(sum.root_ref(), None);
    }

    #[test]
    fn rename_refs_rewrites_nested() {
        let mut e = Expression::mux(
            Expression::reference("sel"),
            Expression::reference("x"),
            Expression::prim(PrimOp::Not, vec![Expression::reference("x")], vec![]),
        );
        e.rename_refs(&|n| if n == "x" { Some("y".to_string()) } else { None });
        assert_eq!(e.referenced_names(), vec!["sel".to_string(), "y".to_string(), "y".to_string()]);
    }

    #[test]
    fn walkers_list_children_in_one_order() {
        let r = Expression::reference;
        // Every expression variant, a distinct reference in each child slot.
        let mut e = Expression::mux(
            Expression::SubAccess(
                Box::new(Expression::SubIndex(
                    Box::new(Expression::SubField(Box::new(r("a")), "f".into())),
                    0,
                )),
                Box::new(r("b")),
            ),
            Expression::MemRead {
                mem: "mem".into(),
                addr: Box::new(r("c")),
                sync: true,
                en: Some(Box::new(r("d"))),
                clock: Some(Box::new(r("e"))),
            },
            Expression::prim(
                PrimOp::Add,
                vec![
                    Expression::ScalaCast { arg: Box::new(r("f")), target: "SInt".into() },
                    Expression::BadApply {
                        target: Box::new(r("g")),
                        args: vec![r("h"), Expression::uint_lit(1), Expression::sint_lit_w(-1, 2)],
                    },
                ],
                vec![],
            ),
        );
        assert_eq!(e.referenced_names(), ["a", "b", "c", "d", "e", "f", "g", "h"]);
        e.rename_refs(&|n| Some(n.to_uppercase()));
        assert_eq!(e.referenced_names(), ["A", "B", "C", "D", "E", "F", "G", "H"]);
        assert!(e.to_string().contains("read_sync(MEM, C"), "{e}");

        // Every statement variant, each located at its line in pre-order.
        let at = |line| SourceInfo::new("T.scala", line, 0);
        let connect =
            |loc, expr, line| Statement::Connect { loc: r(loc), expr: r(expr), info: at(line) };
        let invalidate = |loc, line| Statement::Invalidate { loc: r(loc), info: at(line) };
        let mut m = Module::new("T", ModuleKind::Module);
        m.body = vec![
            Statement::Wire { name: "w".into(), ty: Type::bool(), info: at(1) },
            Statement::Reg {
                name: "r".into(),
                ty: Type::bool(),
                clock: ClockSpec::Explicit(r("clk")),
                reset: Some(RegReset { reset: r("rst"), init: r("init") }),
                info: at(2),
            },
            Statement::Node { name: "n".into(), value: r("nv"), info: at(3) },
            connect("cl", "ce", 4),
            invalidate("inv", 5),
            Statement::When {
                cond: r("c1"),
                then_body: vec![Statement::When {
                    cond: r("c2"),
                    then_body: vec![connect("x1", "y1", 8)],
                    else_body: vec![invalidate("x2", 9)],
                    info: at(7),
                }],
                else_body: vec![Statement::MemWrite {
                    mem: "mem".into(),
                    addr: r("wa"),
                    value: r("wv"),
                    mask: Some(r("wm")),
                    clock: ClockSpec::Explicit(r("wclk")),
                    info: at(10),
                }],
                info: at(6),
            },
            Statement::Mem {
                name: "mem".into(),
                ty: Type::uint(2),
                depth: 2,
                init: None,
                ruw: ReadUnderWrite::Old,
                info: at(11),
            },
            Statement::Instance { name: "u".into(), module: "C".into(), info: at(12) },
            Statement::BareIoDecl {
                name: "b".into(),
                ty: Type::bool(),
                direction: Direction::Input,
                info: at(13),
            },
        ];
        let mut lines = Vec::new();
        m.visit_statements(&mut |s| lines.push(s.info().line));
        assert_eq!(lines, (1..=13).collect::<Vec<_>>());
        let exprs = |m: &Module| {
            let mut out = Vec::new();
            m.visit_statements(&mut |s| s.for_each_expr(&mut |e| out.push(e.to_string())));
            out
        };
        let order = [
            "clk", "rst", "init", "nv", "cl", "ce", "inv", "c1", "c2", "x1", "y1", "x2", "wa",
            "wv", "wm", "wclk",
        ];
        assert_eq!(exprs(&m), order);
        // The mutable twins walk the same statements and expressions in the same order.
        let (mut line, mut k) = (0, 0);
        m.visit_statements_mut(&mut |s| {
            line += 1;
            s.info_mut().col = line;
            s.for_each_expr_mut(&mut |e| {
                *e = Expression::reference(k.to_string());
                k += 1;
            });
        });
        assert_eq!(exprs(&m), (0..order.len()).map(|k| k.to_string()).collect::<Vec<_>>());
        m.visit_statements(&mut |s| assert_eq!(s.info().col, s.info().line));
    }

    #[test]
    fn primop_arity_and_params() {
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Not.arity(), 1);
        assert_eq!(PrimOp::Bits.param_count(), 2);
        assert_eq!(PrimOp::Shl.param_count(), 1);
        assert_eq!(PrimOp::Cat.param_count(), 0);
    }

    #[test]
    fn module_statement_visiting() {
        let mut m = Module::new("m", ModuleKind::Module);
        m.ports.push(Port::new("a", Direction::Input, Type::bool()));
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("a"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(1),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(0),
                info: SourceInfo::unknown(),
            }],
            info: SourceInfo::unknown(),
        });
        assert_eq!(m.statement_count(), 4);
        assert_eq!(m.inputs().count(), 1);
        assert_eq!(m.outputs().count(), 0);
    }

    #[test]
    fn display_formats() {
        let info = SourceInfo::new("Main.scala", 18, 10);
        assert_eq!(info.to_string(), "Main.scala:18:10");
        assert_eq!(SourceInfo::unknown().to_string(), "<unknown>");
        assert_eq!(Type::uint(5).to_string(), "UInt<5>");
        let e = Expression::prim(PrimOp::Bits, vec![Expression::reference("x")], vec![7, 0]);
        assert_eq!(e.to_string(), "bits(x, 7, 0)");
    }

    #[test]
    fn circuit_lookup() {
        let m = Module::new("Top", ModuleKind::Module);
        let c = Circuit::single(m);
        assert!(c.top_module().is_some());
        assert!(c.module("Top").is_some());
        assert!(c.module("Nope").is_none());
    }

    /// A parent `Top` that drives `b` with `a` through an instance `inv` of `Inv`.
    fn parent_and_child() -> Circuit {
        let info = |line| SourceInfo::new("Top.scala", line, 5);
        let connect = |loc, expr, line| Statement::Connect { loc, expr, info: info(line) };
        let mut child = Module::new("Inv", ModuleKind::Module);
        child.ports.push(Port::new("x", Direction::Input, Type::bool()));
        child.ports.push(Port::new("y", Direction::Output, Type::bool()));
        let not_x = Expression::prim(PrimOp::Not, vec![Expression::reference("x")], vec![]);
        child.body.push(connect(Expression::reference("y"), not_x, 2));
        let mut top = Module::new("Top", ModuleKind::Module);
        top.ports.push(Port::new("a", Direction::Input, Type::bool()));
        top.ports.push(Port::new("b", Direction::Output, Type::bool()));
        let inv =
            |port: &str| Expression::SubField(Box::new(Expression::reference("inv")), port.into());
        top.body.push(Statement::Instance {
            name: "inv".into(),
            module: "Inv".into(),
            info: info(4),
        });
        top.body.push(connect(inv("x"), Expression::reference("a"), 5));
        top.body.push(connect(Expression::reference("b"), inv("y"), 6));
        Circuit::new("Top", vec![top, child])
    }

    #[test]
    fn clones_share_modules_until_one_is_edited() {
        let original = parent_and_child();
        let mut clone = original.clone();
        assert_eq!(clone.modules.len(), 2);
        for (a, b) in original.modules.iter().zip(&clone.modules) {
            assert!(Arc::ptr_eq(a, b), "module {} was copied by the clone", a.name);
        }

        let top = clone.top_module_mut().unwrap();
        top.body.pop();
        top.ports[0].info = SourceInfo::new("Moved.scala", 9, 1);
        // The edit copied the top module and nothing else: the original reads as a
        // fresh rebuild, and the child is still one module held by both circuits.
        let fresh = parent_and_child();
        assert_eq!(original, fresh);
        assert_eq!(original.fingerprint(), fresh.fingerprint());
        assert_eq!(original.located_fingerprint(), fresh.located_fingerprint());
        assert_ne!(clone.fingerprint(), fresh.fingerprint());
        assert!(!Arc::ptr_eq(&original.modules[0], &clone.modules[0]));
        assert!(Arc::ptr_eq(&original.modules[1], &clone.modules[1]));

        // A top module no other circuit holds is edited in place.
        let copied = Arc::as_ptr(&clone.modules[0]);
        clone.top_module_mut().unwrap().body.clear();
        assert_eq!(Arc::as_ptr(&clone.modules[0]), copied);
    }
}
