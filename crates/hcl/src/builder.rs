//! The module builder: a Chisel-flavoured construction API that records hardware into
//! the `rechisel-firrtl` IR.
//!
//! A [`ModuleBuilder`] plays the role of a Chisel `Module` body: IOs, wires, registers,
//! `when`/`switch` blocks and connections are declared imperatively and recorded as IR
//! statements with synthetic source locations (so that compiler diagnostics point at
//! meaningful "lines" exactly like the sbt output quoted in the ReChisel paper).

use rechisel_firrtl::ir::{
    Circuit, ClockSpec, Direction, Expression, Module, ModuleKind, Port, ReadUnderWrite, RegReset,
    SourceInfo, Statement, Type,
};

use crate::signal::Signal;

/// Builds one hardware module.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
    /// Stack of statement buffers: the last entry receives new statements (innermost
    /// `when` scope).
    scopes: Vec<Vec<Statement>>,
    /// Clock override stack for `with_clock`.
    clocks: Vec<Expression>,
    /// Reset override stack for `with_reset` / `with_clock_and_reset`.
    resets: Vec<Expression>,
    /// Synthetic source file name.
    file: String,
    /// Synthetic line counter.
    line: u32,
}

impl ModuleBuilder {
    /// Starts a `Module` (with implicit `clock` and `reset` ports).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let file = format!("{name}.scala");
        let mut module = Module::new(name, ModuleKind::Module);
        module.ports.push(Port {
            name: "clock".into(),
            direction: Direction::Input,
            ty: Type::Clock,
            info: SourceInfo::new(&file, 1, 1),
        });
        module.ports.push(Port {
            name: "reset".into(),
            direction: Direction::Input,
            ty: Type::bool(),
            info: SourceInfo::new(&file, 1, 1),
        });
        Self {
            module,
            scopes: vec![Vec::new()],
            clocks: Vec::new(),
            resets: Vec::new(),
            file,
            line: 1,
        }
    }

    /// Starts a `RawModule` (no implicit clock or reset).
    pub fn raw(name: impl Into<String>) -> Self {
        let name = name.into();
        let file = format!("{name}.scala");
        Self {
            module: Module::new(name, ModuleKind::RawModule),
            scopes: vec![Vec::new()],
            clocks: Vec::new(),
            resets: Vec::new(),
            file,
            line: 1,
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.module.name
    }

    fn next_info(&mut self) -> SourceInfo {
        self.line += 1;
        SourceInfo::new(&self.file, self.line, 3)
    }

    fn push(&mut self, stmt: Statement) {
        self.scopes.last_mut().expect("at least one scope").push(stmt);
    }

    // --- ports -----------------------------------------------------------------------

    /// Declares an input port and returns its signal.
    pub fn input(&mut self, name: &str, ty: Type) -> Signal {
        let info = self.next_info();
        self.module.ports.push(Port {
            name: name.to_string(),
            direction: Direction::Input,
            ty: ty.clone(),
            info,
        });
        Signal::new(Expression::reference(name), ty)
    }

    /// Declares an output port and returns its signal.
    pub fn output(&mut self, name: &str, ty: Type) -> Signal {
        let info = self.next_info();
        self.module.ports.push(Port {
            name: name.to_string(),
            direction: Direction::Output,
            ty: ty.clone(),
            info,
        });
        Signal::new(Expression::reference(name), ty)
    }

    /// The implicit clock signal.
    pub fn clock(&self) -> Signal {
        Signal::new(Expression::reference("clock"), Type::Clock)
    }

    /// The implicit reset signal.
    pub fn reset(&self) -> Signal {
        Signal::new(Expression::reference("reset"), Type::bool())
    }

    // --- declarations ----------------------------------------------------------------

    /// Declares a wire.
    pub fn wire(&mut self, name: &str, ty: Type) -> Signal {
        let info = self.next_info();
        self.push(Statement::Wire { name: name.to_string(), ty: ty.clone(), info });
        Signal::new(Expression::reference(name), ty)
    }

    /// Declares a wire with a default value (`WireDefault`).
    pub fn wire_default(&mut self, name: &str, ty: Type, default: &Signal) -> Signal {
        let sig = self.wire(name, ty);
        self.connect(&sig, default);
        sig
    }

    /// Declares a register without reset (`Reg`).
    pub fn reg(&mut self, name: &str, ty: Type) -> Signal {
        let info = self.next_info();
        let clock = self.current_clock();
        self.push(Statement::Reg {
            name: name.to_string(),
            ty: ty.clone(),
            clock,
            reset: None,
            info,
        });
        Signal::new(Expression::reference(name), ty)
    }

    /// Declares a register with a reset value (`RegInit`).
    pub fn reg_init(&mut self, name: &str, ty: Type, init: &Signal) -> Signal {
        let info = self.next_info();
        let clock = self.current_clock();
        self.push(Statement::Reg {
            name: name.to_string(),
            ty: ty.clone(),
            clock,
            reset: Some(RegReset { reset: self.current_reset(), init: init.expr().clone() }),
            info,
        });
        Signal::new(Expression::reference(name), ty)
    }

    /// Declares a register that follows `next` every cycle (`RegNext`).
    pub fn reg_next(&mut self, name: &str, ty: Type, next: &Signal) -> Signal {
        let reg = self.reg(name, ty);
        self.connect(&reg, next);
        reg
    }

    /// Declares a register that follows `next` and resets to `init` (`RegNext` with
    /// init, or `RegEnable`-style patterns built on top).
    pub fn reg_next_init(&mut self, name: &str, ty: Type, next: &Signal, init: &Signal) -> Signal {
        let reg = self.reg_init(name, ty, init);
        self.connect(&reg, next);
        reg
    }

    /// Declares a memory (`Mem(depth, ty)`) and returns its handle.
    ///
    /// Reads ([`Mem::read`]) are combinational and sequential reads
    /// ([`Mem::read_sync`]) are registered; writes ([`ModuleBuilder::mem_write`],
    /// [`ModuleBuilder::mem_write_masked`]) are synchronous and commit together with
    /// register updates, so a read in the same cycle as a write to the same address
    /// returns the **old** data (the default read-under-write policy; see
    /// [`ModuleBuilder::mem_with_ruw`] for the others). The backing store starts at
    /// zero unless initialized with [`ModuleBuilder::mem_init`] /
    /// [`ModuleBuilder::mem_init_file`].
    pub fn mem(&mut self, name: &str, elem_ty: Type, depth: usize) -> Mem {
        self.mem_with_ruw(name, elem_ty, depth, ReadUnderWrite::Old)
    }

    /// Declares a memory with an explicit read-under-write policy, like
    /// `SyncReadMem(depth, ty, SyncReadMem.WriteFirst)`.
    ///
    /// The policy arbitrates a sequential read that captures an address being written
    /// **on the same clock edge in the same domain**: `Old` captures the pre-write
    /// word, `New` forwards the freshly written data (write-first), and `Undefined`
    /// captures a deterministic zero (our model of "don't rely on this"). Writes in a
    /// different clock domain never forward — a cross-domain collision always reads
    /// old data.
    pub fn mem_with_ruw(
        &mut self,
        name: &str,
        elem_ty: Type,
        depth: usize,
        ruw: ReadUnderWrite,
    ) -> Mem {
        let info = self.next_info();
        self.push(Statement::Mem {
            name: name.to_string(),
            ty: elem_ty.clone(),
            depth,
            init: None,
            ruw,
            info,
        });
        Mem { name: name.to_string(), elem_ty, depth }
    }

    /// Adds a synchronous write port to a memory (`mem.write(addr, data)`).
    ///
    /// A write inside a [`ModuleBuilder::when`] scope is enabled only on the paths
    /// that reach it, exactly like a conditional register update. A write inside a
    /// [`ModuleBuilder::with_clock`] scope belongs to that clock domain — ports of
    /// one memory may sit in different domains (the emitted Verilog keeps one
    /// `always` block per domain, and the simulators edge each domain independently:
    /// `step_clock(domain)` advances one domain, `step()` advances all of them
    /// together for single-clock convenience).
    pub fn mem_write(&mut self, mem: &Mem, addr: &Signal, value: &Signal) {
        let info = self.next_info();
        let clock = self.current_clock();
        self.push(Statement::MemWrite {
            mem: mem.name.clone(),
            addr: addr.expr().clone(),
            value: value.expr().clone(),
            mask: None,
            clock,
            info,
        });
    }

    /// Adds a lane-masked synchronous write port (`mem.write(addr, data, mask)`).
    ///
    /// The mask carries **one bit per data bit** (mask width = word width): at the
    /// clock edge only the lanes whose mask bit is set take the new data, the other
    /// lanes keep the old word. Byte enables are expressed by fanning each enable bit
    /// across its 8 data bits.
    ///
    /// ```
    /// use rechisel_hcl::prelude::*;
    ///
    /// let mut m = ModuleBuilder::new("MaskedRam");
    /// let addr = m.input("addr", Type::uint(2));
    /// let data = m.input("data", Type::uint(8));
    /// let mask = m.input("mask", Type::uint(8)); // one enable bit per data bit
    /// let q = m.output("q", Type::uint(8));
    /// let mem = m.mem("store", Type::uint(8), 4);
    /// m.mem_write_masked(&mem, &addr, &data, &mask);
    /// m.connect(&q, &mem.read(&addr));
    /// assert!(!rechisel_firrtl::check_circuit(&m.into_circuit()).has_errors());
    /// ```
    pub fn mem_write_masked(&mut self, mem: &Mem, addr: &Signal, value: &Signal, mask: &Signal) {
        let info = self.next_info();
        let clock = self.current_clock();
        self.push(Statement::MemWrite {
            mem: mem.name.clone(),
            addr: addr.expr().clone(),
            value: value.expr().clone(),
            mask: Some(mask.expr().clone()),
            clock,
            info,
        });
    }

    /// A sequential read port with an optional read enable, clocked by the current
    /// clock scope (`mem.read(addr, en)` on a `SyncReadMem` under `withClock`).
    ///
    /// Unlike [`Mem::read_sync`] — which always latches on the module's implicit
    /// clock — this port belongs to the [`ModuleBuilder::with_clock`] domain active at
    /// the call site, so a dual-clock memory can be written in one domain and read in
    /// another. When `en` is given, the port captures a new word only on edges where
    /// the enable is high; on disabled edges it holds the previously captured word
    /// (our deterministic rendering of Chisel's "undefined when disabled").
    pub fn mem_read_sync(&mut self, mem: &Mem, addr: &Signal, en: Option<&Signal>) -> Signal {
        let clock = match self.current_clock() {
            ClockSpec::Implicit => None,
            ClockSpec::Explicit(e) => Some(Box::new(e)),
        };
        Signal::new(
            Expression::MemRead {
                mem: mem.name.clone(),
                addr: Box::new(addr.expr().clone()),
                sync: true,
                en: en.map(|s| Box::new(s.expr().clone())),
                clock,
            },
            mem.elem_ty.clone(),
        )
    }

    /// Sets a memory's initial contents (the `loadMemoryFromFile` equivalent with an
    /// inline image): word `i` starts as `words[i]`, words beyond the image start as
    /// zero. The elaboration passes reject images longer than the depth and words
    /// wider than the memory word.
    ///
    /// Initialization applies at time zero only; asserting `reset` does **not**
    /// restore the image.
    ///
    /// # Panics
    ///
    /// Panics when `mem` was not declared by **this** builder (e.g. a handle from
    /// another module): silently dropping the image would elaborate a wrong, all-zero
    /// memory.
    pub fn mem_init(&mut self, mem: &Mem, words: &[u64]) {
        fn set_init(stmts: &mut [Statement], target: &str, words: &[u64]) -> bool {
            stmts.iter_mut().any(|stmt| match stmt {
                Statement::Mem { name, init, .. } if name == target => {
                    *init = Some(words.iter().map(|w| u128::from(*w)).collect());
                    true
                }
                Statement::When { then_body, else_body, .. } => {
                    set_init(then_body, target, words) || set_init(else_body, target, words)
                }
                _ => false,
            })
        }
        let found = self.scopes.iter_mut().rev().any(|scope| set_init(scope, mem.name(), words));
        assert!(
            found,
            "mem_init: memory {} is not declared in this builder (wrong Mem handle?)",
            mem.name()
        );
    }

    /// Loads a memory's initial contents from a `$readmemh`-style hex file: one word
    /// per line, `//` comments and blank lines ignored.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read, and
    /// [`std::io::ErrorKind::InvalidData`] when a line is not a hexadecimal word.
    ///
    /// # Panics
    ///
    /// Like [`ModuleBuilder::mem_init`], panics when `mem` was not declared by this
    /// builder.
    pub fn mem_init_file(
        &mut self,
        mem: &Mem,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        let text = std::fs::read_to_string(path)?;
        let mut words = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let word = line.split("//").next().unwrap_or("").trim();
            if word.is_empty() {
                continue;
            }
            let parsed = u64::from_str_radix(word, 16).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {word:?} is not a hex word: {e}", index + 1),
                )
            })?;
            words.push(parsed);
        }
        self.mem_init(mem, &words);
        Ok(())
    }

    /// Declares a named intermediate value (`val x = <expr>`).
    pub fn node(&mut self, name: &str, value: &Signal) -> Signal {
        let info = self.next_info();
        self.push(Statement::Node { name: name.to_string(), value: value.expr().clone(), info });
        Signal::new(Expression::reference(name), value.ty().clone())
    }

    /// Declares a wire of `Vec` type initialized element-wise from `elements`
    /// (`VecInit(...)`).
    pub fn vec_init(&mut self, name: &str, elem_ty: Type, elements: &[Signal]) -> Signal {
        let ty = Type::vec(elem_ty, elements.len());
        let vec = self.wire(name, ty);
        for (i, e) in elements.iter().enumerate() {
            let slot = vec.index(i as i64);
            self.connect(&slot, e);
        }
        vec
    }

    /// Instantiates a child module and returns a bundle-typed handle whose fields are
    /// the child's ports.
    pub fn instance(&mut self, name: &str, child: &Module) -> Signal {
        let info = self.next_info();
        self.push(Statement::Instance { name: name.to_string(), module: child.name.clone(), info });
        let ty = rechisel_firrtl::typeenv::instance_bundle_type(child);
        Signal::new(Expression::reference(name), ty)
    }

    // --- connections and control flow --------------------------------------------------

    /// Connects `sink := source`.
    pub fn connect(&mut self, sink: &Signal, source: &Signal) {
        let info = self.next_info();
        self.push(Statement::Connect {
            loc: sink.expr().clone(),
            expr: source.expr().clone(),
            info,
        });
    }

    /// Marks a sink as intentionally unconnected (`sink := DontCare`).
    pub fn dont_care(&mut self, sink: &Signal) {
        let info = self.next_info();
        self.push(Statement::Invalidate { loc: sink.expr().clone(), info });
    }

    /// A conditional block without an `otherwise` branch.
    pub fn when(&mut self, cond: &Signal, then_f: impl FnOnce(&mut Self)) {
        self.when_else(cond, then_f, |_| {});
    }

    /// A conditional block with both branches (`when { ... } .otherwise { ... }`).
    pub fn when_else(
        &mut self,
        cond: &Signal,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        let info = self.next_info();
        self.scopes.push(Vec::new());
        then_f(self);
        let then_body = self.scopes.pop().expect("then scope");
        self.scopes.push(Vec::new());
        else_f(self);
        let else_body = self.scopes.pop().expect("else scope");
        self.push(Statement::When { cond: cond.expr().clone(), then_body, else_body, info });
    }

    /// A `switch(sel) { is(...) { ... } }` block. Arms are matched in order with
    /// equality comparisons; an optional default arm is set with
    /// [`SwitchBuilder::default`].
    pub fn switch(&mut self, sel: &Signal, f: impl FnOnce(&mut SwitchBuilder<'_>)) {
        let mut sw =
            SwitchBuilder { builder: self, sel: sel.clone(), arms: Vec::new(), default: None };
        f(&mut sw);
        sw.finish();
    }

    /// Overrides the implicit clock for registers declared inside `f` (`withClock`).
    pub fn with_clock(&mut self, clock: &Signal, f: impl FnOnce(&mut Self)) {
        self.clocks.push(clock.expr().clone());
        f(self);
        self.clocks.pop();
    }

    /// Overrides the reset net used by `reg_init`-style registers declared inside
    /// `f` (`withReset`): their [`RegReset`] references `reset` instead of the
    /// implicit `"reset"` port, so the register only takes its init value when that
    /// net is asserted on its own clock edge.
    pub fn with_reset(&mut self, reset: &Signal, f: impl FnOnce(&mut Self)) {
        self.resets.push(reset.expr().clone());
        f(self);
        self.resets.pop();
    }

    /// Overrides both the clock and the reset for registers declared inside `f`
    /// (`withClockAndReset`) — the Chisel idiom for a CDC island with its own
    /// synchronized reset.
    pub fn with_clock_and_reset(
        &mut self,
        clock: &Signal,
        reset: &Signal,
        f: impl FnOnce(&mut Self),
    ) {
        self.clocks.push(clock.expr().clone());
        self.resets.push(reset.expr().clone());
        f(self);
        self.resets.pop();
        self.clocks.pop();
    }

    fn current_clock(&self) -> ClockSpec {
        match self.clocks.last() {
            Some(e) => ClockSpec::Explicit(e.clone()),
            None => ClockSpec::Implicit,
        }
    }

    fn current_reset(&self) -> Expression {
        match self.resets.last() {
            Some(e) => e.clone(),
            None => Expression::reference("reset"),
        }
    }

    // --- finishing -------------------------------------------------------------------

    /// Finishes the module.
    pub fn finish(mut self) -> Module {
        let body = self.scopes.pop().expect("root scope");
        assert!(self.scopes.is_empty(), "unbalanced when scopes");
        self.module.body = body;
        self.module
    }

    /// Finishes the module and wraps it in a single-module circuit.
    pub fn into_circuit(self) -> Circuit {
        Circuit::single(self.finish())
    }
}

/// Handle to a memory declared with [`ModuleBuilder::mem`].
///
/// The handle is a pure description (name, element type, depth); reads build
/// expressions and writes are recorded through the builder, mirroring how Chisel's
/// `Mem` is used.
#[derive(Debug, Clone, PartialEq)]
pub struct Mem {
    name: String,
    elem_ty: Type,
    depth: usize,
}

impl Mem {
    /// The declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element (word) type.
    pub fn elem_ty(&self) -> &Type {
        &self.elem_ty
    }

    /// Number of words.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Minimum address width in bits for this depth.
    pub fn addr_width(&self) -> u32 {
        (usize::BITS - self.depth.saturating_sub(1).leading_zeros()).max(1)
    }

    /// A combinational read port at `addr` (`mem.read(addr)`): returns the current
    /// contents of the addressed word; out-of-range addresses read as zero.
    pub fn read(&self, addr: &Signal) -> Signal {
        Signal::new(Expression::mem_read(&self.name, addr.expr().clone()), self.elem_ty.clone())
    }

    /// A sequential (1-cycle registered) read port at `addr`, like reading a
    /// `SyncReadMem`: the addressed word is captured at each clock edge and visible
    /// one cycle later. Read-under-write follows the memory's declared policy
    /// ([`ModuleBuilder::mem_with_ruw`]; the default returns the **old** data). The
    /// implicit read register uses the module's implicit clock; out-of-range addresses
    /// capture zero. For a port with a read enable or an explicit read clock, use
    /// [`ModuleBuilder::mem_read_sync`] instead.
    ///
    /// Peeking a signal fed by a sequential read before the first edge of the port's
    /// clock domain is a simulation error (`SyncReadBeforeClock`) on every engine:
    /// the register has never captured a word.
    pub fn read_sync(&self, addr: &Signal) -> Signal {
        Signal::new(
            Expression::mem_read_sync(&self.name, addr.expr().clone()),
            self.elem_ty.clone(),
        )
    }
}

/// Collects the arms of a [`ModuleBuilder::switch`] block.
pub struct SwitchBuilder<'a> {
    builder: &'a mut ModuleBuilder,
    sel: Signal,
    arms: Vec<(u128, Vec<Statement>)>,
    default: Option<Vec<Statement>>,
}

impl<'a> SwitchBuilder<'a> {
    /// Adds an `is(value) { ... }` arm.
    pub fn is(&mut self, value: u128, f: impl FnOnce(&mut ModuleBuilder)) {
        self.builder.scopes.push(Vec::new());
        f(self.builder);
        let body = self.builder.scopes.pop().expect("switch arm scope");
        self.arms.push((value, body));
    }

    /// Sets the default arm (not part of Chisel's `switch`, but our designs use it as a
    /// shorthand for a final `.otherwise`).
    pub fn default(&mut self, f: impl FnOnce(&mut ModuleBuilder)) {
        self.builder.scopes.push(Vec::new());
        f(self.builder);
        let body = self.builder.scopes.pop().expect("switch default scope");
        self.default = Some(body);
    }

    fn finish(self) {
        let SwitchBuilder { builder, sel, arms, default } = self;
        // Build a chain of nested whens: is(v0) else { is(v1) else { ... default } }.
        let mut else_body = default.unwrap_or_default();
        for (value, body) in arms.into_iter().rev() {
            let info = builder.next_info();
            let cond = sel.eq(&Signal::lit(value));
            let when =
                Statement::When { cond: cond.expr().clone(), then_body: body, else_body, info };
            else_body = vec![when];
        }
        for stmt in else_body {
            builder.push(stmt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::{check_circuit, lower_circuit};

    #[test]
    fn simple_passthrough_builds_and_checks() {
        let mut m = ModuleBuilder::new("Pass");
        let a = m.input("a", Type::uint(8));
        let out = m.output("out", Type::uint(8));
        m.connect(&out, &a);
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors());
        assert!(lower_circuit(&c).is_ok());
    }

    #[test]
    fn when_else_builds_nested_statements() {
        let mut m = ModuleBuilder::new("Sel");
        let sel = m.input("sel", Type::bool());
        let a = m.input("a", Type::uint(4));
        let b = m.input("b", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        m.when_else(&sel, |m| m.connect(&out, &a), |m| m.connect(&out, &b));
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
    }

    #[test]
    fn missing_otherwise_fails_initialization() {
        let mut m = ModuleBuilder::new("Bad");
        let sel = m.input("sel", Type::bool());
        let a = m.input("a", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        m.when(&sel, |m| m.connect(&out, &a));
        let c = m.into_circuit();
        assert!(check_circuit(&c).has_errors());
    }

    #[test]
    fn switch_lowers_to_priority_chain() {
        let mut m = ModuleBuilder::new("Decode");
        let op = m.input("op", Type::uint(2));
        let out = m.output("out", Type::uint(4));
        m.switch(&op, |sw| {
            sw.is(0, |m| m.connect(&out, &Signal::lit_w(1, 4)));
            sw.is(1, |m| m.connect(&out, &Signal::lit_w(2, 4)));
            sw.default(|m| m.connect(&out, &Signal::lit_w(0, 4)));
        });
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        assert!(lower_circuit(&c).is_ok());
    }

    #[test]
    fn register_counter_checks_clean() {
        let mut m = ModuleBuilder::new("Counter");
        let en = m.input("en", Type::bool());
        let out = m.output("out", Type::uint(8));
        let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
        m.when(&en, |m| {
            let next = count.add(&Signal::lit_w(1, 8)).bits(7, 0);
            m.connect(&count, &next);
        });
        m.connect(&out, &count);
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.regs.len(), 1);
    }

    #[test]
    fn with_clock_and_reset_overrides_reg_init_nets() {
        let mut m = ModuleBuilder::new("Island");
        let clk_b = m.input("clk_b", Type::Clock);
        let rst_b = m.input("rst_b", Type::bool());
        let out = m.output("out", Type::uint(4));
        m.with_clock_and_reset(&clk_b, &rst_b, |m| {
            let r = m.reg_init("r", Type::uint(4), &Signal::lit_w(0, 4));
            m.connect(&r, &r.add(&Signal::lit_w(1, 4)).bits(3, 0));
            m.connect(&out, &r);
        });
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let reg = c.modules[0]
            .body
            .iter()
            .find_map(|s| match s {
                Statement::Reg { clock, reset, .. } => Some((clock.clone(), reset.clone())),
                _ => None,
            })
            .expect("reg recorded");
        assert_eq!(reg.0, ClockSpec::Explicit(Expression::reference("clk_b")));
        let reset = reg.1.expect("reset recorded");
        assert_eq!(reset.reset, Expression::reference("rst_b"));
        // Outside the scope the implicit nets are back.
        let mut m = ModuleBuilder::new("Outer");
        let clk_b = m.input("clk_b", Type::Clock);
        let rst_b = m.input("rst_b", Type::bool());
        m.with_clock_and_reset(&clk_b, &rst_b, |_| {});
        let out = m.output("o", Type::uint(1));
        let r = m.reg_init("r", Type::uint(1), &Signal::lit_w(0, 1));
        m.connect(&r, &r);
        m.connect(&out, &r);
        let c = m.into_circuit();
        let reg = c.modules[0]
            .body
            .iter()
            .find_map(|s| match s {
                Statement::Reg { clock, reset, .. } => Some((clock.clone(), reset.clone())),
                _ => None,
            })
            .expect("reg recorded");
        assert_eq!(reg.0, ClockSpec::Implicit);
        assert_eq!(reg.1.expect("reset").reset, Expression::reference("reset"));
    }

    #[test]
    fn vec_init_covers_all_elements() {
        let mut m = ModuleBuilder::new("VecTest");
        let a = m.input("a", Type::bool());
        let b = m.input("b", Type::bool());
        let out = m.output("out", Type::uint(2));
        let v = m.vec_init("v", Type::bool(), &[a, b]);
        m.connect(&out, &v.as_uint());
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
    }

    #[test]
    fn instance_wiring_checks_clean() {
        let mut child = ModuleBuilder::new("Inv");
        let x = child.input("x", Type::bool());
        let y = child.output("y", Type::bool());
        child.connect(&y, &x.not());
        let child = child.finish();

        let mut top = ModuleBuilder::new("Top");
        let a = top.input("a", Type::bool());
        let out = top.output("out", Type::bool());
        let inv = top.instance("inv", &child);
        top.connect(&inv.field("x"), &a);
        top.connect(&out, &inv.field("y"));
        let top = top.finish();

        let c = Circuit::new("Top", vec![top, child]);
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        assert!(lower_circuit(&c).is_ok());
    }

    #[test]
    fn memory_module_checks_clean_and_lowers() {
        let mut m = ModuleBuilder::new("Ram");
        let we = m.input("we", Type::bool());
        let addr = m.input("addr", Type::uint(3));
        let din = m.input("din", Type::uint(8));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        assert_eq!(mem.name(), "store");
        assert_eq!(mem.depth(), 8);
        assert_eq!(mem.elem_ty(), &Type::uint(8));
        assert_eq!(mem.addr_width(), 3);
        m.when(&we, |m| m.mem_write(&mem, &addr, &din));
        m.connect(&dout, &mem.read(&addr));
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.mems.len(), 1);
        assert_eq!(netlist.mems[0].depth, 8);
        assert_eq!(netlist.mems[0].writes.len(), 1);
    }

    #[test]
    fn memory_read_out_of_range_literal_rejected() {
        let mut m = ModuleBuilder::new("BadRead");
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        m.connect(&dout, &mem.read(&Signal::lit_w(8, 4)));
        let report = check_circuit(&m.into_circuit());
        assert!(
            report.errors().any(|d| d.code == rechisel_firrtl::ErrorCode::IndexOutOfBounds),
            "{report:?}"
        );
    }

    #[test]
    fn memory_write_out_of_range_literal_rejected() {
        let mut m = ModuleBuilder::new("BadWrite");
        let din = m.input("din", Type::uint(8));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        m.mem_write(&mem, &Signal::lit_w(9, 4), &din);
        m.connect(&dout, &mem.read(&Signal::lit_w(0, 3)));
        let report = check_circuit(&m.into_circuit());
        assert!(
            report.errors().any(|d| d.code == rechisel_firrtl::ErrorCode::IndexOutOfBounds),
            "{report:?}"
        );
    }

    #[test]
    fn memory_write_with_mismatched_width_rejected() {
        let mut m = ModuleBuilder::new("WideWrite");
        let addr = m.input("addr", Type::uint(3));
        let din = m.input("din", Type::uint(12));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        // 12-bit data into an 8-bit word: rejected, not silently truncated.
        m.mem_write(&mem, &addr, &din);
        m.connect(&dout, &mem.read(&addr));
        let report = check_circuit(&m.into_circuit());
        assert!(
            report.errors().any(|d| d.code == rechisel_firrtl::ErrorCode::TypeMismatch),
            "{report:?}"
        );
    }

    #[test]
    fn memory_zero_depth_rejected() {
        let mut m = ModuleBuilder::new("Empty");
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 0);
        m.connect(&dout, &mem.read(&Signal::lit_w(0, 1)));
        let report = check_circuit(&m.into_circuit());
        assert!(report.has_errors(), "zero-depth memory must be rejected");
    }

    #[test]
    fn memory_cannot_be_connected_directly() {
        let mut m = ModuleBuilder::new("DirectDrive");
        let din = m.input("din", Type::uint(8));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        // Bypass the write port and drive the memory like a wire.
        let bogus = Signal::new(Expression::reference("store"), Type::uint(8));
        m.connect(&bogus, &din);
        m.connect(&dout, &mem.read(&Signal::lit_w(0, 3)));
        let report = check_circuit(&m.into_circuit());
        assert!(
            report.errors().any(|d| d.code == rechisel_firrtl::ErrorCode::InvalidSink),
            "{report:?}"
        );
    }

    #[test]
    fn memory_write_ports_keep_their_own_clock_domains() {
        // Regression test for the PR-4 known gap: the clocking pass accepted per-port
        // `withClock` on mem writes, but lowering resolved only ONE clock per memory
        // (first rejecting, and before that silently collapsing, the second domain).
        // Each lowered port must now carry its own clock net.
        let mut m = ModuleBuilder::raw("DualClock");
        let clk_a = m.input("clk_a", Type::Clock);
        let clk_b = m.input("clk_b", Type::Clock);
        let addr_a = m.input("addr_a", Type::uint(2));
        let addr_b = m.input("addr_b", Type::uint(2));
        let din = m.input("din", Type::uint(4));
        let dout = m.output("dout", Type::uint(4));
        let mem = m.mem("store", Type::uint(4), 4);
        m.with_clock(&clk_a, |m| m.mem_write(&mem, &addr_a, &din));
        m.with_clock(&clk_b, |m| m.mem_write(&mem, &addr_b, &din));
        m.connect(&dout, &mem.read(&addr_a));
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.mems[0].writes.len(), 2);
        assert_eq!(netlist.mems[0].writes[0].clock, "clk_a");
        assert_eq!(netlist.mems[0].writes[1].clock, "clk_b");
        // Two ports on one explicit clock still lower (and share the domain).
        let mut m = ModuleBuilder::raw("OneClock");
        let clk_a = m.input("clk_a", Type::Clock);
        let addr = m.input("addr", Type::uint(2));
        let din = m.input("din", Type::uint(4));
        let dout = m.output("dout", Type::uint(4));
        let mem = m.mem("store", Type::uint(4), 4);
        m.with_clock(&clk_a, |m| {
            m.mem_write(&mem, &addr, &din);
            m.mem_write(&mem, &addr, &din);
        });
        m.connect(&dout, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        assert_eq!(netlist.mems[0].writes.len(), 2);
        assert!(netlist.mems[0].writes.iter().all(|w| w.clock == "clk_a"));
    }

    #[test]
    fn masked_write_and_init_build_and_lower() {
        let mut m = ModuleBuilder::new("MaskedInit");
        let addr = m.input("addr", Type::uint(2));
        let data = m.input("data", Type::uint(8));
        let mask = m.input("mask", Type::uint(8));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.mem_init(&mem, &[0x11, 0x22]);
        m.mem_write_masked(&mem, &addr, &data, &mask);
        m.connect(&dout, &mem.read(&addr));
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.mems[0].init, vec![0x11, 0x22]);
        assert!(netlist.mems[0].writes[0].mask.is_some());
    }

    #[test]
    #[should_panic(expected = "not declared in this builder")]
    fn mem_init_with_a_foreign_handle_panics() {
        let mut other = ModuleBuilder::new("Other");
        let foreign = other.mem("store", Type::uint(8), 4);
        // A handle from a different builder must not silently drop the image.
        let mut m = ModuleBuilder::new("This");
        m.mem_init(&foreign, &[1, 2]);
    }

    #[test]
    fn sync_read_lowers_to_an_implicit_register() {
        let mut m = ModuleBuilder::new("SyncRead");
        let addr = m.input("addr", Type::uint(2));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.connect(&dout, &mem.read_sync(&addr));
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.mems[0].sync_reads, vec!["store_sr0".to_string()]);
        assert!(netlist.regs.iter().any(|r| r.name == "store_sr0"));
        // The implicit read register is a signal like any other register.
        assert!(netlist.signal("store_sr0").is_some());
    }

    #[test]
    fn sync_read_in_raw_module_requires_a_clock() {
        let mut m = ModuleBuilder::raw("NoClockSync");
        let addr = m.input("addr", Type::uint(2));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.connect(&dout, &mem.read_sync(&addr));
        let report = check_circuit(&m.into_circuit());
        assert!(
            report.errors().any(|d| d.code == rechisel_firrtl::ErrorCode::NoImplicitClock),
            "{report:?}"
        );
    }

    #[test]
    fn mem_init_file_parses_readmemh_style_images() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rechisel_mem_init_{}.hex", std::process::id()));
        std::fs::write(&path, "// squares table\n00\n01\n04  // three squared is next\n09\n\n")
            .unwrap();
        let mut m = ModuleBuilder::new("Rom");
        let addr = m.input("addr", Type::uint(2));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("rom", Type::uint(8), 4);
        m.mem_init_file(&mem, &path).unwrap();
        m.connect(&dout, &mem.read(&addr));
        std::fs::remove_file(&path).ok();
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        assert_eq!(netlist.mems[0].init, vec![0x00, 0x01, 0x04, 0x09]);
        // A malformed image is an InvalidData error, not a panic.
        let bad = dir.join(format!("rechisel_mem_init_bad_{}.hex", std::process::id()));
        std::fs::write(&bad, "zz\n").unwrap();
        let mut m = ModuleBuilder::new("BadRom");
        let mem = m.mem("rom", Type::uint(8), 4);
        let err = m.mem_init_file(&mem, &bad).unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn raw_module_register_fails_clock_check() {
        let mut m = ModuleBuilder::raw("NoClock");
        let a = m.input("a", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        let r = m.reg_next("r", Type::uint(4), &a);
        m.connect(&out, &r);
        let c = m.into_circuit();
        assert!(check_circuit(&c).has_errors());
    }

    #[test]
    fn raw_module_with_explicit_clock_is_clean() {
        let mut m = ModuleBuilder::raw("WithClock");
        let clk = m.input("clk", Type::Clock);
        let a = m.input("a", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        let mut captured = None;
        m.with_clock(&clk, |m| {
            captured = Some(m.reg_next("r", Type::uint(4), &a));
        });
        let r = captured.unwrap();
        m.connect(&out, &r);
        let c = m.into_circuit();
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
    }

    #[test]
    fn source_lines_increase() {
        let mut m = ModuleBuilder::new("Lines");
        let a = m.input("a", Type::bool());
        let out = m.output("out", Type::bool());
        m.connect(&out, &a);
        let module = m.finish();
        let infos: Vec<u32> = module.body.iter().map(|s| s.info().line).collect();
        assert!(infos.windows(2).all(|w| w[0] < w[1]) || infos.len() < 2);
        assert!(module.port("a").unwrap().info.line < module.port("out").unwrap().info.line);
    }
}
