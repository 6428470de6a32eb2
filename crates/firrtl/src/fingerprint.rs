//! Stable, content-addressed circuit fingerprinting.
//!
//! A [`Fingerprint`] is a 128-bit FNV-1a digest over a canonical byte encoding of a
//! [`Circuit`]'s structure: module order, port names/directions/types, and every
//! statement and expression, each framed with a distinct tag byte so that
//! structurally different trees can never serialize to the same byte stream.
//!
//! The hash is **hand-rolled on purpose**: `std::hash::Hash`/SipHash is randomly
//! keyed per process, so its digests cannot be compared across processes. FNV-1a
//! with fixed parameters gives the same digest for the same circuit on every run,
//! platform and process, so a digest printed by one process (the `compile` reply of
//! `rechisel-serve`, a benchmark log) names the same design in every other.
//!
//! The digest is *name-sensitive*: renaming a wire, port or module changes the
//! fingerprint even when the design is behaviourally identical. That is the right
//! trade for a compilation key, because the compiled artifacts (netlist slots,
//! emitted Verilog) embed the names.
//!
//! Source locations ([`SourceInfo`]) are left out of [`Circuit::fingerprint`]: they
//! never change a netlist or its Verilog.
//! [`Circuit::located_fingerprint`] walks the same encoding plus every port's and
//! statement's location. It keys what does depend on locations: a rejected
//! revision's diagnostics, whose [`location`](crate::Diagnostic::location) names
//! the offending statement.
//!
//! # Example
//!
//! ```
//! use rechisel_firrtl::ir::{Circuit, Module, ModuleKind};
//!
//! let a = Circuit::single(Module::new("Top", ModuleKind::Module));
//! let b = Circuit::single(Module::new("Top", ModuleKind::Module));
//! assert_eq!(a.fingerprint(), b.fingerprint());
//! let renamed = Circuit::single(Module::new("Other", ModuleKind::Module));
//! assert_ne!(a.fingerprint(), renamed.fingerprint());
//! ```

use std::fmt;

use crate::ir::{
    Circuit, ClockSpec, Direction, Expression, Field, Module, ModuleKind, Port, ReadUnderWrite,
    RegReset, SourceInfo, Statement, Type,
};

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// A process-stable 128-bit digest of a circuit's structure.
///
/// Displays as 32 lowercase hex digits. Equal fingerprints mean byte-identical
/// canonical encodings; the 128-bit width makes accidental collisions across a
/// cache's lifetime negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// A short 16-hex-digit prefix for logs and wire replies.
    pub fn short(self) -> String {
        format!("{:016x}", (self.0 >> 64) as u64)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a/128 hasher over a canonical byte stream.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    fn new() -> Self {
        Self { state: FNV128_OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u128::from(b);
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.byte(*b);
        }
    }

    /// A framing tag: every IR node kind feeds a distinct tag before its payload, so
    /// adjacent fields of different kinds cannot alias each other's encodings.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    /// Length-prefixed string: without the prefix, `("ab", "c")` and `("a", "bc")`
    /// would hash identically.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.tag(0),
            Some(w) => {
                self.tag(1);
                self.u64(u64::from(w));
            }
        }
    }

    fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

// Node tags. Statements, expressions and types draw from disjoint ranges purely for
// readability in hex dumps; uniqueness within each walk position is what matters.
const TAG_CIRCUIT: u8 = 0x01;
const TAG_MODULE: u8 = 0x02;
const TAG_PORT: u8 = 0x03;
const TAG_INFO: u8 = 0x04;

/// A source location, mixed in by the located walk only.
fn hash_info(h: &mut Fnv128, info: &SourceInfo) {
    h.tag(TAG_INFO);
    h.str(&info.file);
    h.u32(info.line);
    h.u32(info.col);
}

fn hash_type(h: &mut Fnv128, ty: &Type) {
    match ty {
        Type::Clock => h.tag(0x10),
        Type::Reset => h.tag(0x11),
        Type::AsyncReset => h.tag(0x12),
        Type::Bool => h.tag(0x13),
        Type::UInt(w) => {
            h.tag(0x14);
            h.opt_u32(*w);
        }
        Type::SInt(w) => {
            h.tag(0x15);
            h.opt_u32(*w);
        }
        Type::Vec(elem, len) => {
            h.tag(0x16);
            h.u64(*len as u64);
            hash_type(h, elem);
        }
        Type::Bundle(fields) => {
            h.tag(0x17);
            h.u64(fields.len() as u64);
            for Field { name, ty, flipped } in fields {
                h.str(name);
                h.byte(u8::from(*flipped));
                hash_type(h, ty);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv128, expr: &Expression) {
    match expr {
        Expression::Ref(name) => {
            h.tag(0x30);
            h.str(name);
        }
        Expression::SubField(inner, field) => {
            h.tag(0x31);
            hash_expr(h, inner);
            h.str(field);
        }
        Expression::SubIndex(inner, index) => {
            h.tag(0x32);
            hash_expr(h, inner);
            h.i128(i128::from(*index));
        }
        Expression::SubAccess(inner, index) => {
            h.tag(0x33);
            hash_expr(h, inner);
            hash_expr(h, index);
        }
        Expression::UIntLiteral { value, width } => {
            h.tag(0x34);
            h.u128(*value);
            h.opt_u32(*width);
        }
        Expression::SIntLiteral { value, width } => {
            h.tag(0x35);
            h.i128(*value);
            h.opt_u32(*width);
        }
        Expression::Mux { cond, tval, fval } => {
            h.tag(0x36);
            hash_expr(h, cond);
            hash_expr(h, tval);
            hash_expr(h, fval);
        }
        Expression::Prim { op, args, params } => {
            h.tag(0x37);
            h.str(op.name());
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
            h.u64(params.len() as u64);
            for p in params {
                h.i128(i128::from(*p));
            }
        }
        Expression::MemRead { mem, addr, sync, en, clock } => {
            h.tag(0x38);
            h.str(mem);
            h.byte(u8::from(*sync));
            hash_expr(h, addr);
            // Read enables and explicit read clocks are only mixed in when present, so
            // every pre-existing circuit keeps its pinned digest (cache compatibility).
            if en.is_some() || clock.is_some() {
                h.tag(0x3b);
                match en {
                    None => h.tag(0),
                    Some(en) => {
                        h.tag(1);
                        hash_expr(h, en);
                    }
                }
                match clock {
                    None => h.tag(0),
                    Some(clk) => {
                        h.tag(1);
                        hash_expr(h, clk);
                    }
                }
            }
        }
        Expression::ScalaCast { arg, target } => {
            h.tag(0x39);
            hash_expr(h, arg);
            h.str(target);
        }
        Expression::BadApply { target, args } => {
            h.tag(0x3a);
            hash_expr(h, target);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
    }
}

fn hash_clock(h: &mut Fnv128, clock: &ClockSpec) {
    match clock {
        ClockSpec::Implicit => h.tag(0x50),
        ClockSpec::Explicit(expr) => {
            h.tag(0x51);
            hash_expr(h, expr);
        }
    }
}

fn hash_statement(h: &mut Fnv128, stmt: &Statement, located: bool) {
    // SourceInfo is hashed by the located walk only: the same design pasted at a
    // different pseudo-location must reuse the cached artifacts (locations never
    // change the compiled netlist, only diagnostics).
    if located {
        hash_info(h, stmt.info());
    }
    match stmt {
        Statement::Wire { name, ty, info: _ } => {
            h.tag(0x60);
            h.str(name);
            hash_type(h, ty);
        }
        Statement::Reg { name, ty, clock, reset, info: _ } => {
            h.tag(0x61);
            h.str(name);
            hash_type(h, ty);
            hash_clock(h, clock);
            match reset {
                None => h.tag(0),
                Some(RegReset { reset, init }) => {
                    h.tag(1);
                    hash_expr(h, reset);
                    hash_expr(h, init);
                }
            }
        }
        Statement::Node { name, value, info: _ } => {
            h.tag(0x62);
            h.str(name);
            hash_expr(h, value);
        }
        Statement::Connect { loc, expr, info: _ } => {
            h.tag(0x63);
            hash_expr(h, loc);
            hash_expr(h, expr);
        }
        Statement::Invalidate { loc, info: _ } => {
            h.tag(0x64);
            hash_expr(h, loc);
        }
        Statement::When { cond, then_body, else_body, info: _ } => {
            h.tag(0x65);
            hash_expr(h, cond);
            h.u64(then_body.len() as u64);
            for s in then_body {
                hash_statement(h, s, located);
            }
            h.u64(else_body.len() as u64);
            for s in else_body {
                hash_statement(h, s, located);
            }
        }
        Statement::Mem { name, ty, depth, init, ruw, info: _ } => {
            h.tag(0x66);
            h.str(name);
            hash_type(h, ty);
            h.u64(*depth as u64);
            match init {
                None => h.tag(0),
                Some(words) => {
                    h.tag(1);
                    h.u64(words.len() as u64);
                    for w in words {
                        h.u128(*w);
                    }
                }
            }
            // Non-default read-under-write policies only: keeps pinned digests stable
            // for every circuit authored before the attribute existed.
            if *ruw != ReadUnderWrite::Old {
                h.tag(0x6a);
                h.str(ruw.name());
            }
        }
        Statement::MemWrite { mem, addr, value, mask, clock, info: _ } => {
            h.tag(0x67);
            h.str(mem);
            hash_expr(h, addr);
            hash_expr(h, value);
            match mask {
                None => h.tag(0),
                Some(m) => {
                    h.tag(1);
                    hash_expr(h, m);
                }
            }
            hash_clock(h, clock);
        }
        Statement::Instance { name, module, info: _ } => {
            h.tag(0x68);
            h.str(name);
            h.str(module);
        }
        Statement::BareIoDecl { name, ty, direction, info: _ } => {
            h.tag(0x69);
            h.str(name);
            hash_type(h, ty);
            h.byte(match direction {
                Direction::Input => 0,
                Direction::Output => 1,
            });
        }
    }
}

fn hash_module(h: &mut Fnv128, module: &Module, located: bool) {
    h.tag(TAG_MODULE);
    h.str(&module.name);
    h.byte(match module.kind {
        ModuleKind::Module => 0,
        ModuleKind::RawModule => 1,
    });
    h.u64(module.ports.len() as u64);
    for Port { name, direction, ty, info } in &module.ports {
        h.tag(TAG_PORT);
        if located {
            hash_info(h, info);
        }
        h.str(name);
        h.byte(match direction {
            Direction::Input => 0,
            Direction::Output => 1,
        });
        hash_type(h, ty);
    }
    h.u64(module.body.len() as u64);
    for s in &module.body {
        hash_statement(h, s, located);
    }
}

fn hash_circuit(circuit: &Circuit, located: bool) -> Fingerprint {
    let mut h = Fnv128::new();
    h.tag(TAG_CIRCUIT);
    h.str(&circuit.top);
    h.u64(circuit.modules.len() as u64);
    for m in &circuit.modules {
        hash_module(&mut h, m, located);
    }
    h.finish()
}

impl Circuit {
    /// A process-stable, content-addressed 128-bit digest of this circuit.
    ///
    /// Two circuits have equal fingerprints iff their structure — module list, ports,
    /// statements, expressions, literals and names — is identical. Source locations
    /// are excluded so relocated-but-identical designs share cached artifacts.
    /// See the [`fingerprint`](crate::fingerprint) module docs for the encoding.
    pub fn fingerprint(&self) -> Fingerprint {
        hash_circuit(self, false)
    }

    /// [`fingerprint`](Self::fingerprint) plus the [`SourceInfo`] of every port and
    /// statement, nested `when` bodies included.
    ///
    /// The located walk covers every field of the circuit, so equal located
    /// fingerprints mean equal circuits, and so equal compiler output, diagnostic
    /// locations included. It is the revision part of the key under which
    /// `rechisel_core::EvalMemo` remembers each evaluation, rejected revisions
    /// included.
    pub fn located_fingerprint(&self) -> Fingerprint {
        hash_circuit(self, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::SourceInfo;

    fn passthrough(module: &str, port: &str) -> Circuit {
        let mut m = Module::new(module, ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new(port, Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference(port),
            info: SourceInfo::unknown(),
        });
        Circuit::single(m)
    }

    #[test]
    fn known_digests_are_pinned() {
        // These constants pin the canonical encoding itself: any change to the byte
        // stream (new tags, reordered fields, different framing) silently invalidates
        // every cross-process cache keyed by old fingerprints, so it must show up
        // here as a deliberate test update.
        assert_eq!(
            Circuit::single(Module::new("Top", ModuleKind::Module)).fingerprint().to_string(),
            "b54dab0ca7d2cf4bf598f2122b8be1f5",
        );
        assert_eq!(
            passthrough("Pass", "a").fingerprint().to_string(),
            "d3bddb976fb3b18134064ad4dea9cc50",
        );
    }

    #[test]
    fn identical_circuits_share_a_fingerprint() {
        assert_eq!(passthrough("Pass", "a").fingerprint(), passthrough("Pass", "a").fingerprint());
    }

    #[test]
    fn renames_change_the_fingerprint() {
        let base = passthrough("Pass", "a");
        assert_ne!(base.fingerprint(), passthrough("Pass2", "a").fingerprint(), "module rename");
        assert_ne!(base.fingerprint(), passthrough("Pass", "b").fingerprint(), "port rename");
    }

    #[test]
    fn structure_changes_change_the_fingerprint() {
        let base = passthrough("Pass", "a");
        let mut wider = passthrough("Pass", "a");
        wider.modules[0].ports[2].ty = Type::uint(9);
        assert_ne!(base.fingerprint(), wider.fingerprint(), "width change");

        let mut extra = passthrough("Pass", "a");
        extra.modules[0].body.push(Statement::Invalidate {
            loc: Expression::reference("out"),
            info: SourceInfo::unknown(),
        });
        assert_ne!(base.fingerprint(), extra.fingerprint(), "extra statement");
    }

    #[test]
    fn source_locations_do_not_affect_the_fingerprint() {
        let base = passthrough("Pass", "a");
        let mut relocated = passthrough("Pass", "a");
        relocated.modules[0].ports[2].info = SourceInfo::new("Elsewhere.scala", 42, 7);
        if let Statement::Connect { info, .. } = &mut relocated.modules[0].body[0] {
            *info = SourceInfo::new("Elsewhere.scala", 43, 3);
        }
        assert_eq!(base.fingerprint(), relocated.fingerprint());
    }

    #[test]
    fn clones_share_a_located_fingerprint() {
        let base = located_sample();
        assert_eq!(base.located_fingerprint(), base.clone().located_fingerprint());
    }

    /// Ports plus wire, node, connect and `when` statements, with a `when` nested in
    /// the outer one's else branch; every location distinct.
    fn located_sample() -> Circuit {
        let at = |line: u32| SourceInfo::new("Sample.scala", line, 5);
        let connect = |loc: &str, expr: Expression, line: u32| Statement::Connect {
            loc: Expression::reference(loc),
            expr,
            info: at(line),
        };
        let mut m = Module::new("Located", ModuleKind::Module);
        for (line, (name, direction)) in
            [("a", Direction::Input), ("b", Direction::Input), ("out", Direction::Output)]
                .into_iter()
                .enumerate()
        {
            let mut port = Port::new(name, direction, Type::bool());
            port.info = at(line as u32 + 1);
            m.ports.push(port);
        }
        m.body.push(Statement::Wire { name: "w".into(), ty: Type::bool(), info: at(10) });
        m.body.push(Statement::Node {
            name: "n".into(),
            value: Expression::reference("b"),
            info: at(11),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("a"),
            then_body: vec![connect("w", Expression::reference("n"), 13)],
            else_body: vec![
                connect("w", Expression::reference("a"), 15),
                Statement::When {
                    cond: Expression::reference("b"),
                    then_body: vec![connect("w", Expression::reference("b"), 17)],
                    else_body: vec![],
                    info: at(16),
                },
            ],
            info: at(12),
        });
        m.body.push(connect("out", Expression::reference("w"), 20));
        Circuit::single(m)
    }

    #[test]
    fn moving_any_location_changes_only_the_located_fingerprint() {
        let base = located_sample();
        let module = &base.modules[0];
        let slots = module.ports.len() + module.statement_count();
        assert_eq!(slots, 3 + 8);
        for slot in 0..slots {
            let mut moved = base.clone();
            let module = &mut moved.modules[0];
            let target = SourceInfo::new("Moved.scala", 99, 9);
            if let Some(port) = module.ports.get_mut(slot) {
                port.info = target;
            } else {
                let mut index = module.ports.len();
                module.visit_statements_mut(&mut |stmt| {
                    if index == slot {
                        *stmt.info_mut() = target.clone();
                    }
                    index += 1;
                });
            }
            assert_ne!(moved, base, "slot {slot} moved nothing");
            assert_ne!(base.located_fingerprint(), moved.located_fingerprint(), "slot {slot}");
            assert_eq!(base.fingerprint(), moved.fingerprint(), "slot {slot}");
        }
    }

    #[test]
    fn literal_values_and_mem_inits_are_distinguished() {
        let lit = |v: u128| {
            let mut m = Module::new("L", ModuleKind::Module);
            m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
            m.body.push(Statement::Connect {
                loc: Expression::reference("out"),
                expr: Expression::uint_lit_w(v, 8),
                info: SourceInfo::unknown(),
            });
            Circuit::single(m)
        };
        assert_ne!(lit(1).fingerprint(), lit(2).fingerprint());

        let mem = |init: Option<Vec<u128>>| {
            let mut m = Module::new("M", ModuleKind::Module);
            m.body.push(Statement::Mem {
                name: "store".into(),
                ty: Type::uint(8),
                depth: 4,
                init,
                ruw: Default::default(),
                info: SourceInfo::unknown(),
            });
            Circuit::single(m)
        };
        assert_ne!(mem(None).fingerprint(), mem(Some(vec![0, 0])).fingerprint());
        assert_ne!(mem(Some(vec![1])).fingerprint(), mem(Some(vec![2])).fingerprint());
    }

    #[test]
    fn memory_port_attributes_change_the_fingerprint_only_when_non_default() {
        // A circuit with a sync read and default port attributes must keep the digest
        // it had before read enables / read clocks / read-under-write existed.
        let reader = |en: Option<Expression>, clock: Option<Expression>, ruw: ReadUnderWrite| {
            let mut m = Module::new("R", ModuleKind::Module);
            m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
            m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
            m.ports.push(Port::new("en", Direction::Input, Type::bool()));
            m.ports.push(Port::new("clk_b", Direction::Input, Type::Clock));
            m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
            m.body.push(Statement::Mem {
                name: "store".into(),
                ty: Type::uint(8),
                depth: 4,
                init: None,
                ruw,
                info: SourceInfo::unknown(),
            });
            m.body.push(Statement::Connect {
                loc: Expression::reference("out"),
                expr: Expression::MemRead {
                    mem: "store".into(),
                    addr: Box::new(Expression::uint_lit_w(0, 2)),
                    sync: true,
                    en: en.map(Box::new),
                    clock: clock.map(Box::new),
                },
                info: SourceInfo::unknown(),
            });
            Circuit::single(m)
        };

        let base = reader(None, None, ReadUnderWrite::Old);
        // Pins the default-attribute encoding: adding the fields must not have
        // perturbed digests of circuits that don't use them.
        assert_eq!(base.fingerprint().to_string(), "a256c2ff95f4e8dec949409c84d2a4c9");

        let with_en = reader(Some(Expression::reference("en")), None, ReadUnderWrite::Old);
        let with_clk = reader(None, Some(Expression::reference("clk_b")), ReadUnderWrite::Old);
        let with_new = reader(None, None, ReadUnderWrite::New);
        let with_undef = reader(None, None, ReadUnderWrite::Undefined);
        assert_ne!(base.fingerprint(), with_en.fingerprint(), "read enable");
        assert_ne!(base.fingerprint(), with_clk.fingerprint(), "read clock");
        assert_ne!(base.fingerprint(), with_new.fingerprint(), "ruw new");
        assert_ne!(base.fingerprint(), with_undef.fingerprint(), "ruw undefined");
        assert_ne!(with_en.fingerprint(), with_clk.fingerprint(), "en vs clock");
        assert_ne!(with_new.fingerprint(), with_undef.fingerprint(), "new vs undefined");
    }

    #[test]
    fn display_and_short_forms() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(fp.to_string(), "0123456789abcdef0011223344556677");
        assert_eq!(fp.short(), "0123456789abcdef");
        assert_eq!(fp.as_u128(), 0x0123_4567_89ab_cdef_0011_2233_4455_6677);
    }
}
