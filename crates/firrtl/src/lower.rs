//! Lowering from the checked IR to a flat, ground-typed [`Netlist`].
//!
//! The lowering pipeline mirrors what the FIRRTL compiler does before Verilog emission.
//! It starts from the top module's [`Elaborated`] symbol table and inferred widths,
//! which the checking stage already built, and reads the module in place:
//!
//! 1. **Instance flattening**, only when the top module instantiates another module:
//!    child modules are inlined into their parent with prefixed names; implicit
//!    `clock`/`reset` ports of children are wired to the parent's implicit clock/reset
//!    when not connected explicitly. The flattened module is then elaborated afresh.
//! 2. **Width resolution**, only when some width was inferred: a copy of the module
//!    has its width-less declarations rewritten to the width of their driver, and is
//!    elaborated afresh.
//! 3. **Declarations** — the ports, and the wires, registers and memories hoisted out
//!    of `when` blocks, are split into ground elements with mangled names
//!    (`io.out[3]` → `io_out_3`).
//! 4. **One walk over the body** — each statement is expanded to ground signals
//!    (dynamic reads become mux trees, dynamic writes per-element conditional
//!    connects) and folded at once into last-connect-wins: exactly one driving
//!    expression per ground sink, a mux tree over the enclosing `when` conditions.
//! 5. **Sync-read hoisting and topological ordering** — sequential memory reads become
//!    implicit registers, and combinational definitions are sorted so the simulator
//!    can evaluate them in one forward pass.
//!
//! The walk moves each expanded expression into the netlist (a sink's earlier value
//! into the mux that falls back to it), and the sort orders definition indices before
//! moving the definitions into place.
//!
//! A design with no instance and every width declared, which is every revision that
//! reaches lowering in the paper sweeps, skips steps 1 and 2 and is lowered without
//! copying a module.
//!
//! The resulting [`Netlist`] is consumed by the simulator (`rechisel-sim`) and the
//! Verilog emitter (`rechisel-verilog`).
//!
//! Lowering assumes the circuit has already passed [`crate::check::check_circuit`];
//! defect-carrier nodes or unresolved names produce an [`Err`] rather than a panic.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::diagnostics::{Diagnostic, ErrorCode};
use crate::ir::{
    Circuit, ClockSpec, Direction, Expression, Module, ModuleKind, PrimOp, ReadUnderWrite,
    RegReset, SourceInfo, Statement, Type,
};
use crate::paths::{ground_paths, mangle, static_path};
use crate::typeenv::{has_known_width, Elaborated, ExprTyper, SymbolTable};

/// A ground signal's physical properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalInfo {
    /// Bit width.
    pub width: u32,
    /// True for two's-complement signed interpretation.
    pub signed: bool,
    /// True for clock-typed signals.
    pub is_clock: bool,
}

impl SignalInfo {
    fn from_type(ty: &Type) -> Self {
        SignalInfo {
            width: ty.width().unwrap_or(1),
            signed: ty.is_signed(),
            is_clock: ty.is_clock(),
        }
    }
}

/// A flattened port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetPort {
    /// Mangled name.
    pub name: String,
    /// Direction.
    pub direction: Direction,
    /// Physical properties.
    pub info: SignalInfo,
}

/// A combinational definition: `name` is driven by `expr` every cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetDef {
    /// Mangled signal name.
    pub name: String,
    /// Physical properties.
    pub info: SignalInfo,
    /// Driving expression over ground signals.
    pub expr: Expression,
}

/// A register.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetReg {
    /// Mangled register name.
    pub name: String,
    /// Physical properties.
    pub info: SignalInfo,
    /// Mangled name of the clock signal.
    pub clock: String,
    /// Next-state expression (already includes enable/when muxing; does not include
    /// reset).
    pub next: Expression,
    /// Optional reset: (reset signal expression, init value expression).
    pub reset: Option<(Expression, Expression)>,
}

/// One synchronous write port of a [`NetMem`].
///
/// All expressions are evaluated combinationally against the pre-edge state; when
/// `enable`'s low bit is set and `addr` is in range, the port's word is stored at the
/// clock edge, simultaneously with register commits. A lane `mask` (one bit per data
/// bit) restricts the store to the set lanes: the port's word is
/// `(old & !mask) | (value & mask)` where `old` is the **pre-edge** contents. Ports
/// store whole words in declaration order, so a same-cycle same-address collision
/// resolves to the textually last port — every port behaves exactly like the Verilog
/// nonblocking assignment the emitter produces for it (reads see pre-edge state, the
/// last scheduled assignment wins).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetMemWrite {
    /// Word address expression.
    pub addr: Expression,
    /// Data expression.
    pub value: Expression,
    /// Enable expression (surrounding `when` conditions folded in; literal 1 for an
    /// unconditional write).
    pub enable: Expression,
    /// Optional lane-mask expression (mask width = word width); `None` writes the
    /// whole word.
    pub mask: Option<Expression>,
    /// Mangled name of the clock signal driving this port. Ports of one memory may
    /// sit in different clock domains (Chisel's per-port `withClock`).
    pub clock: String,
}

/// A memory (RAM) with combinational or registered reads and synchronous writes.
///
/// Combinational reads appear inside [`NetDef`]/[`NetReg`] expressions as
/// [`Expression::MemRead`]; sequential (registered) reads are hoisted into implicit
/// registers listed in [`NetMem::sync_reads`] (the registers themselves live in
/// [`Netlist::regs`] with a [`Expression::MemRead`] next-state). Writes are listed
/// here and commit in declaration order with nonblocking-assignment semantics (each
/// port's word is computed from pre-edge state; same-cycle, same-address collisions:
/// last port wins). Combinational reads always see the pre-edge data; sequential
/// reads colliding with a same-domain, same-edge write follow the memory's declared
/// read-under-write policy, which lowering bakes into the implicit read register's
/// next-state expression (so the Verilog emitter and every engine inherit it).
///
/// Clocking note: every register and memory port belongs to a named clock domain
/// (see [`Netlist::clock_domains`]), mirroring the emitted Verilog's one
/// `always @(posedge <clock>)` block per domain. Engines edge domains independently
/// via `step_clock(domain)`; `step()` edges all domains simultaneously (the
/// single-clock convenience, and the pre-existing behaviour for legacy traces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetMem {
    /// Memory name.
    pub name: String,
    /// Physical properties of one word.
    pub info: SignalInfo,
    /// Number of words.
    pub depth: usize,
    /// Initial contents (empty = all zero): word `i` starts as `init[i]`, words
    /// beyond the image start as zero.
    pub init: Vec<u128>,
    /// Write ports, in declaration order (each carries its own clock domain).
    pub writes: Vec<NetMemWrite>,
    /// Names of the implicit read registers backing this memory's sequential read
    /// ports, in hoisting order. Each name is also a register in [`Netlist::regs`],
    /// with a state slot like any other register on the compiled engine.
    pub sync_reads: Vec<String>,
}

/// A flat, ground-typed netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    /// Flattened ports.
    pub ports: Vec<NetPort>,
    /// Combinational definitions in evaluation order.
    pub defs: Vec<NetDef>,
    /// Registers.
    pub regs: Vec<NetReg>,
    /// Memories.
    pub mems: Vec<NetMem>,
    /// Physical properties of every signal (ports, defs and regs; memories are not
    /// signals and live in [`Netlist::mems`]).
    pub signals: BTreeMap<String, SignalInfo>,
}

impl Netlist {
    /// Flattened input ports (excluding clocks).
    pub fn data_inputs(&self) -> impl Iterator<Item = &NetPort> {
        self.ports.iter().filter(|p| p.direction == Direction::Input && !p.info.is_clock)
    }

    /// Flattened output ports.
    pub fn outputs(&self) -> impl Iterator<Item = &NetPort> {
        self.ports.iter().filter(|p| p.direction == Direction::Output)
    }

    /// Looks up the physical properties of a signal.
    pub fn signal(&self, name: &str) -> Option<SignalInfo> {
        self.signals.get(name).copied()
    }

    /// Every clock domain of the netlist, in first-appearance order: register domains
    /// in declaration order, then memory-write-port domains. Implicit read registers
    /// are ordinary registers here, so a per-port read clock contributes its domain
    /// too. Single-clock designs yield `["clock"]`; a design with no sequential state
    /// yields an empty list.
    pub fn clock_domains(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.regs {
            if !out.contains(&r.clock) {
                out.push(r.clock.clone());
            }
        }
        for m in &self.mems {
            for w in &m.writes {
                if !out.contains(&w.clock) {
                    out.push(w.clock.clone());
                }
            }
        }
        out
    }
}

/// Lowers a checked circuit to a netlist.
///
/// Elaborates the top module, then runs the same lowering as the compile pipeline,
/// which reuses the elaboration its checking stage built instead.
///
/// # Errors
///
/// Returns the first structural problem encountered. Circuits that pass
/// [`crate::check::check_circuit`] lower successfully.
pub fn lower_circuit(circuit: &Circuit) -> Result<Netlist, Diagnostic> {
    let top = top_module(circuit)?;
    lower_elaborated(circuit, &Elaborated::new(top, circuit))
}

/// Lowers `circuit` from its top module's elaboration `top`: the one lowering body
/// behind [`lower_circuit`] and the compile pipeline.
pub(crate) fn lower_elaborated(circuit: &Circuit, top: &Elaborated) -> Result<Netlist, Diagnostic> {
    let module = top_module(circuit)?;
    let mut has_instance = false;
    module.visit_statements(&mut |s| has_instance |= matches!(s, Statement::Instance { .. }));
    if !has_instance {
        return lower_flat(module, circuit, top);
    }
    let flat = Circuit::single(flatten_module(module, circuit, 0)?);
    let module = &flat.modules[0];
    lower_flat(module, &flat, &Elaborated::new(module, &flat))
}

/// Lowers an instance-free `module` given its elaboration. The module is copied only
/// when some width was inferred, to write the inferred widths into its declarations.
fn lower_flat(
    module: &Module,
    circuit: &Circuit,
    elaborated: &Elaborated,
) -> Result<Netlist, Diagnostic> {
    let inferred = elaborated.inferred_widths();
    if inferred.is_empty() {
        return build_netlist(module, elaborated.symbols());
    }
    let mut resolved = module.clone();
    resolved.visit_statements_mut(&mut |stmt| match stmt {
        Statement::Wire { name, ty, .. } | Statement::Reg { name, ty, .. }
            if !has_known_width(ty) =>
        {
            if let Some(inferred) = inferred.get(name) {
                *ty = inferred.clone();
            }
        }
        _ => {}
    });
    build_netlist(&resolved, &SymbolTable::build(&resolved, circuit))
}

fn top_module(circuit: &Circuit) -> Result<&Module, Diagnostic> {
    circuit.top_module().ok_or_else(|| {
        Diagnostic::error(
            ErrorCode::MissingTopModule,
            SourceInfo::unknown(),
            format!("top module {} is not defined", circuit.top),
        )
    })
}

// ---------------------------------------------------------------------------------
// Step 1: instance flattening
// ---------------------------------------------------------------------------------

/// Inlines every child instance into `module`, recursively.
fn flatten_module(module: &Module, circuit: &Circuit, depth: usize) -> Result<Module, Diagnostic> {
    if depth > 16 {
        return Err(Diagnostic::error(
            ErrorCode::UnknownModule,
            SourceInfo::unknown(),
            "module instantiation hierarchy is too deep (possible recursion)",
        ));
    }
    let mut out = Module::new(module.name.clone(), module.kind);
    out.ports = module.ports.clone();
    out.body = flatten_statements(&module.body, module, circuit, depth)?;
    // Rewrite `inst.port` references in the (former) parent statements to the flattened
    // `inst_port` wires.
    let mut instance_names: BTreeSet<String> = BTreeSet::new();
    module.visit_statements(&mut |s| {
        if let Statement::Instance { name, .. } = s {
            instance_names.insert(name.clone());
        }
    });
    if !instance_names.is_empty() {
        out.visit_statements_mut(&mut |stmt| {
            stmt.for_each_expr_mut(&mut |expr| rewrite_instance_refs(expr, &instance_names))
        });
    }
    Ok(out)
}

/// Rewrites `SubField(Ref(inst), port)` into `Ref("inst_port")` for every instance name
/// in `instances`, children first.
fn rewrite_instance_refs(expr: &mut Expression, instances: &BTreeSet<String>) {
    expr.for_each_child_mut(&mut |child| rewrite_instance_refs(child, instances));
    if let Expression::SubField(inner, field) = expr {
        if let Expression::Ref(name) = inner.as_ref() {
            if instances.contains(name) {
                *expr = Expression::Ref(format!("{name}_{field}"));
            }
        }
    }
}

fn flatten_statements(
    stmts: &[Statement],
    parent: &Module,
    circuit: &Circuit,
    depth: usize,
) -> Result<Vec<Statement>, Diagnostic> {
    let mut out = Vec::new();
    for stmt in stmts {
        match stmt {
            Statement::Instance { name, module: child_name, info } => {
                let child = circuit.module(child_name).ok_or_else(|| {
                    Diagnostic::error(
                        ErrorCode::UnknownModule,
                        info.clone(),
                        format!("instantiated module {child_name} is not defined"),
                    )
                })?;
                let child_flat = flatten_module(child, circuit, depth + 1)?;
                let prefix = format!("{name}_");
                // Child ports become wires in the parent named `<inst>_<port>`.
                for port in &child_flat.ports {
                    out.push(Statement::Wire {
                        name: format!("{prefix}{}", port.name),
                        ty: port.ty.clone(),
                        info: info.clone(),
                    });
                }
                // Auto-wire the implicit clock/reset of Module-kind children.
                if child_flat.kind == ModuleKind::Module && parent.kind == ModuleKind::Module {
                    for implicit in ["clock", "reset"] {
                        if child_flat.port(implicit).is_some() && parent.port(implicit).is_some() {
                            out.push(Statement::Connect {
                                loc: Expression::reference(format!("{prefix}{implicit}")),
                                expr: Expression::reference(implicit),
                                info: info.clone(),
                            });
                        }
                    }
                }
                // Inline the child body with renamed internals.
                let mut child_names: BTreeSet<String> =
                    child_flat.ports.iter().map(|p| p.name.clone()).collect();
                child_flat.visit_statements(&mut |s| {
                    child_names.extend(s.declared_name().map(str::to_string))
                });
                for mut child_stmt in child_flat.body {
                    rename_statement(&mut child_stmt, &prefix, &child_names);
                    out.push(child_stmt);
                }
            }
            Statement::When { cond, then_body, else_body, info } => {
                out.push(Statement::When {
                    cond: cond.clone(),
                    then_body: flatten_statements(then_body, parent, circuit, depth)?,
                    else_body: flatten_statements(else_body, parent, circuit, depth)?,
                    info: info.clone(),
                });
            }
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

/// Prefixes, in place, every name of `names` that `stmt` or its nested statements
/// declare, write or read.
fn rename_statement(stmt: &mut Statement, prefix: &str, names: &BTreeSet<String>) {
    let rename = |n: &str| names.contains(n).then(|| format!("{prefix}{n}"));
    stmt.visit_mut(&mut |s| {
        if let Statement::Wire { name, .. }
        | Statement::Reg { name, .. }
        | Statement::Node { name, .. }
        | Statement::Mem { name, .. }
        | Statement::Instance { name, .. }
        | Statement::BareIoDecl { name, .. }
        | Statement::MemWrite { mem: name, .. } = s
        {
            if let Some(new) = rename(name) {
                *name = new;
            }
        }
        s.for_each_expr_mut(&mut |e| e.rename_refs(&rename));
    });
}

// ---------------------------------------------------------------------------------
// Steps 3 and 4: declarations, then one walk over the body
// ---------------------------------------------------------------------------------

/// Lowers the instance-free, width-resolved `module`, whose symbol table is
/// `symbols`: its ground declarations first, then one walk over its body, then
/// sync-read hoisting and the topological sort.
fn build_netlist(module: &Module, symbols: &SymbolTable) -> Result<Netlist, Diagnostic> {
    let expander = Expander { symbols };
    let mut ports = Vec::new();
    for port in &module.ports {
        for (path, ty) in ground_paths(&port.name, &port.ty) {
            ports.push(NetPort {
                name: mangle(&path),
                direction: port.direction,
                info: SignalInfo::from_type(&ty),
            });
        }
    }
    let mut decls = Decls::default();
    expander.declare(&module.body, &mut decls)?;
    let Decls { wires, mut regs, mut mems, ruw } = decls;
    // A name declared twice (only unchecked callers pass such a design) gives every
    // one of its sinks a copy of the accumulated value; otherwise each value moves
    // into the one sink that reads it.
    let mut signals: BTreeMap<String, SignalInfo> = BTreeMap::new();
    let mut shared = false;
    let mut declare = |name: &String, info| shared |= signals.insert(name.clone(), info).is_some();
    for p in &ports {
        declare(&p.name, p.info);
    }
    for (name, info) in &wires {
        declare(name, *info);
    }
    for reg in &regs {
        declare(&reg.name, reg.info);
    }

    let mut fold = Fold {
        regs: regs.iter().map(|r| r.name.as_str()).collect(),
        values: BTreeMap::new(),
        defs: Vec::new(),
        mem_writes: Vec::new(),
    };
    expander.walk(&module.body, None, &mut fold)?;
    let Fold { mut values, mut defs, mem_writes, .. } = fold;
    for node in &defs {
        signals.insert(node.name.clone(), node.info);
    }
    let mut take = |name: &str| {
        if shared {
            values.get(name).cloned()
        } else {
            values.remove(name)
        }
    };

    // Combinational definitions: the nodes (already in `defs`), wires and outputs.
    for (name, info) in wires {
        let expr = take(&name).unwrap_or(Expression::uint_lit(0));
        defs.push(NetDef { name, info, expr });
    }
    for port in ports.iter().filter(|p| p.direction == Direction::Output) {
        let expr = take(&port.name).unwrap_or(Expression::uint_lit(0));
        defs.push(NetDef { name: port.name.clone(), info: port.info, expr });
    }
    // Registers: the accumulated value, if any, becomes the next-state function.
    for reg in &mut regs {
        if let Some(next) = take(&reg.name) {
            reg.next = next;
        }
    }

    // Memories: attach the collected write ports (declaration order preserved), a
    // copy to each memory declared under the port's name. Each port carries its own
    // clock net, so several ports of one memory may sit in different clock domains
    // (per-port `withClock`) without being collapsed.
    for (mem, write) in mem_writes {
        let mut declared = mems.iter_mut().filter(|m| m.name == mem);
        let Some(first) = declared.next() else {
            return Err(Diagnostic::error(
                ErrorCode::UnknownReference,
                SourceInfo::unknown(),
                format!("write port targets undeclared memory {mem}"),
            ));
        };
        for other in declared {
            other.writes.push(write.clone());
        }
        first.writes.push(write);
    }

    hoist_sync_reads(&mut defs, &mut regs, &mut mems, &ruw, &mut signals)?;
    let defs = topo_sort_defs(defs, &regs)?;
    // Netlists outlive lowering (each case keeps its reference's), so the registers
    // and memories, pushed one declaration at a time, keep no spare capacity.
    regs.shrink_to_fit();
    mems.shrink_to_fit();
    Ok(Netlist { name: module.name.clone(), ports, defs, regs, mems, signals })
}

/// The ground declarations of a module, hoisted out of its `when` blocks.
#[derive(Default)]
struct Decls {
    /// Ground wires.
    wires: Vec<(String, SignalInfo)>,
    /// Ground registers, each holding its value until the walk drives it.
    regs: Vec<NetReg>,
    /// Memories, with no write port yet.
    mems: Vec<NetMem>,
    /// Each memory's read-under-write policy.
    ruw: BTreeMap<String, ReadUnderWrite>,
}

/// The last-connect-wins state of the walk over a module body.
struct Fold<'a> {
    /// Mangled register names.
    regs: BTreeSet<&'a str>,
    /// The value each ground sink has accumulated so far.
    values: BTreeMap<String, Expression>,
    /// The nodes, in statement order.
    defs: Vec<NetDef>,
    /// The memory write ports, in statement order, each with its memory's name.
    mem_writes: Vec<(String, NetMemWrite)>,
}

impl Fold<'_> {
    /// Folds `sink := expr` under `cond`, the conjunction of the enclosing conditions.
    ///
    /// Where `cond` is false the sink keeps its *previous* accumulated value; when
    /// there is none, registers fall back to themselves (hold) and wires/outputs fall
    /// back to zero (the initialization check has already guaranteed that every path
    /// assigns them, so the zero branch is unreachable).
    fn connect(&mut self, sink: String, expr: Expression, cond: Option<&Expression>) {
        let value = match cond {
            None => expr,
            Some(cond) => {
                let fallback = self.values.remove(&sink).unwrap_or_else(|| {
                    if self.regs.contains(sink.as_str()) {
                        Expression::reference(sink.clone())
                    } else {
                        Expression::uint_lit(0)
                    }
                });
                Expression::mux(cond.clone(), expr, fallback)
            }
        };
        self.values.insert(sink, value);
    }
}

/// Expands aggregates against a module's symbol table: every signal a statement
/// reads or drives becomes a ground, mangled name.
struct Expander<'a> {
    symbols: &'a SymbolTable,
}

impl Expander<'_> {
    /// Collects the ground declarations of `stmts` into `decls`, hoisted out of
    /// `when` blocks: in Chisel a declaration inside a conditional scope still
    /// declares an unconditional signal.
    fn declare(&self, stmts: &[Statement], decls: &mut Decls) -> Result<(), Diagnostic> {
        for stmt in stmts {
            match stmt {
                Statement::Wire { name, ty, .. } => {
                    for (path, gty) in ground_paths(name, ty) {
                        decls.wires.push((mangle(&path), SignalInfo::from_type(&gty)));
                    }
                }
                Statement::Reg { name, ty, clock, reset, info } => {
                    let clock = clock_net(clock, info)?;
                    for (path, gty) in ground_paths(name, ty) {
                        let reset = match reset {
                            None => None,
                            Some(RegReset { reset, init }) => Some((
                                self.expand_expr(reset)?,
                                self.project_init(init, name, &path, ty, info)?,
                            )),
                        };
                        let name = mangle(&path);
                        decls.regs.push(NetReg {
                            next: Expression::reference(name.clone()),
                            name,
                            info: SignalInfo::from_type(&gty),
                            clock: clock.clone(),
                            reset,
                        });
                    }
                }
                Statement::Mem { name, ty, depth, init, ruw, info } => {
                    if !ty.is_ground() {
                        return Err(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            info.clone(),
                            format!("memory {name} must hold a ground data type"),
                        ));
                    }
                    decls.ruw.insert(mangle(name), *ruw);
                    decls.mems.push(NetMem {
                        name: mangle(name),
                        info: SignalInfo::from_type(ty),
                        depth: *depth,
                        init: init.clone().unwrap_or_default(),
                        writes: Vec::new(),
                        sync_reads: Vec::new(),
                    });
                }
                Statement::When { then_body, else_body, .. } => {
                    self.declare(then_body, decls)?;
                    self.declare(else_body, decls)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Projects the init of register `reg_name: reg_ty` onto its ground element
    /// `element_path`: a ground init broadcasts to every element, as the connect
    /// check allows, and an aggregate one must be a named signal, read at the
    /// element's path.
    fn project_init(
        &self,
        init: &Expression,
        reg_name: &str,
        element_path: &str,
        reg_ty: &Type,
        info: &SourceInfo,
    ) -> Result<Expression, Diagnostic> {
        if reg_ty.is_ground() || ExprTyper::new(self.symbols).at(info).infer(init)?.is_ground() {
            return self.expand_expr(init);
        }
        let base = static_path(init).ok_or_else(|| {
            Diagnostic::error(
                ErrorCode::InvalidSink,
                info.clone(),
                "aggregate register inits require a named source",
            )
            .with_subject(reg_name)
        })?;
        // The element path looks like `reg[2]` or `reg.field`.
        let suffix = &element_path[reg_name.len()..];
        Ok(Expression::reference(mangle(&format!("{base}{suffix}"))))
    }

    /// Walks `stmts` under `cond`, the conjunction of the enclosing `when` conditions
    /// (`None` outside every `when`), and folds each statement, expanded to ground
    /// signals, into `fold` at once. Nodes become definitions in statement order.
    fn walk(
        &self,
        stmts: &[Statement],
        cond: Option<&Expression>,
        fold: &mut Fold,
    ) -> Result<(), Diagnostic> {
        for stmt in stmts {
            match stmt {
                Statement::Wire { .. }
                | Statement::Reg { .. }
                | Statement::Mem { .. }
                | Statement::Instance { .. } => {}
                Statement::MemWrite { mem, addr, value, mask, clock, info } => {
                    let clock = clock_net(clock, info)?;
                    let write = NetMemWrite {
                        addr: self.expand_expr(addr)?,
                        value: self.expand_expr(value)?,
                        // The port's enable is the conjunction of the surrounding
                        // conditions; an unconditional write is always enabled.
                        enable: cond.cloned().unwrap_or_else(|| Expression::uint_lit(1)),
                        mask: mask.as_ref().map(|m| self.expand_expr(m)).transpose()?,
                        clock,
                    };
                    fold.mem_writes.push((mangle(mem), write));
                }
                Statement::BareIoDecl { name, info, .. } => {
                    return Err(Diagnostic::error(
                        ErrorCode::BareChiselType,
                        info.clone(),
                        format!("cannot lower bare interface declaration {name}"),
                    ));
                }
                Statement::Node { name, value, info } => {
                    let ty = ExprTyper::new(self.symbols).at(info).infer(value)?;
                    let expr = self.expand_expr(value)?;
                    let info = SignalInfo::from_type(&ty);
                    fold.defs.push(NetDef { name: name.clone(), info, expr });
                }
                Statement::Connect { loc, expr, info } => {
                    self.connect(loc, expr, info, cond, fold)?;
                }
                Statement::Invalidate { loc, info } => {
                    // DontCare: drive with zero.
                    let ty = ExprTyper::new(self.symbols).at(info).infer(loc)?;
                    let path = static_path(loc).ok_or_else(|| {
                        Diagnostic::error(
                            ErrorCode::InvalidSink,
                            info.clone(),
                            "cannot invalidate a dynamic path",
                        )
                    })?;
                    for (gpath, _) in ground_paths(&path, &ty) {
                        fold.connect(mangle(&gpath), Expression::uint_lit(0), cond);
                    }
                }
                Statement::When { cond: when, then_body, else_body, .. } => {
                    let when = self.expand_expr(when)?;
                    let not = Expression::prim(PrimOp::Not, vec![when.clone()], vec![]);
                    self.walk(then_body, Some(&and_conditions(cond, when)), fold)?;
                    self.walk(else_body, Some(&and_conditions(cond, not)), fold)?;
                }
            }
        }
        Ok(())
    }

    /// Folds `loc := expr` under `cond` into `fold`, one ground connect at a time: a
    /// dynamic sink connects each element under its index's match, an aggregate sink
    /// each ground element.
    fn connect(
        &self,
        loc: &Expression,
        expr: &Expression,
        info: &SourceInfo,
        cond: Option<&Expression>,
        fold: &mut Fold,
    ) -> Result<(), Diagnostic> {
        let mut typer = ExprTyper::new(self.symbols);
        let sink_ty = typer.at(info).infer(loc)?;

        if let Expression::SubAccess(inner, index) = loc {
            let inner_ty = typer.infer(inner)?;
            let Type::Vec(_, len) = inner_ty else {
                return Err(Diagnostic::error(
                    ErrorCode::InvalidSink,
                    info.clone(),
                    "dynamic assignment requires a Vec sink",
                ));
            };
            let base = static_path(inner).ok_or_else(|| {
                Diagnostic::error(
                    ErrorCode::InvalidSink,
                    info.clone(),
                    "nested dynamic sinks are not supported",
                )
            })?;
            let index_e = self.expand_expr(index)?;
            let value_e = self.expand_expr(expr)?;
            for i in 0..len {
                let hit = Expression::prim(
                    PrimOp::Eq,
                    vec![index_e.clone(), Expression::uint_lit(i as u128)],
                    vec![],
                );
                let sink = mangle(&format!("{base}[{i}]"));
                fold.connect(sink, value_e.clone(), Some(&and_conditions(cond, hit)));
            }
            return Ok(());
        }

        let sink_path = static_path(loc).ok_or_else(|| {
            Diagnostic::error(
                ErrorCode::InvalidSink,
                info.clone(),
                format!("expression {loc} cannot be lowered as a connection target"),
            )
        })?;
        if sink_ty.is_ground() {
            fold.connect(mangle(&sink_path), self.expand_expr(expr)?, cond);
            return Ok(());
        }
        let src = static_path(expr).ok_or_else(|| {
            Diagnostic::error(
                ErrorCode::InvalidSink,
                info.clone(),
                "aggregate connections require a named source",
            )
        })?;
        for (sink_elem, _) in ground_paths(&sink_path, &sink_ty) {
            let suffix = &sink_elem[sink_path.len()..];
            let value = Expression::reference(mangle(&format!("{src}{suffix}")));
            fold.connect(mangle(&sink_elem), value, cond);
        }
        Ok(())
    }

    /// Rewrites an expression so that every reference is a ground, mangled name.
    fn expand_expr(&self, expr: &Expression) -> Result<Expression, Diagnostic> {
        match expr {
            Expression::SubIndex(inner, idx) => {
                // A static index on a Vec selects an element signal; on a UInt/Bool it
                // is a bit extract and must become a `bits` operation.
                let inner_ty =
                    ExprTyper::new(self.symbols).infer(inner).unwrap_or(Type::UInt(None));
                match inner_ty {
                    Type::Vec(..) => {
                        let path = static_path(expr).ok_or_else(nested_dynamic_access)?;
                        Ok(Expression::reference(mangle(&path)))
                    }
                    _ => {
                        let base = self.expand_expr(inner)?;
                        Ok(Expression::prim(PrimOp::Bits, vec![base], vec![*idx, *idx]))
                    }
                }
            }
            // A whole-aggregate read is only legal under asUInt, which expands it
            // below; anywhere else it lowers to the same mangled reference.
            Expression::Ref(_) | Expression::SubField(..) => {
                let path = static_path(expr).ok_or_else(nested_dynamic_access)?;
                Ok(Expression::reference(mangle(&path)))
            }
            Expression::SubAccess(inner, index) => {
                let inner_ty = ExprTyper::new(self.symbols).infer(inner)?;
                let index_e = self.expand_expr(index)?;
                match inner_ty {
                    Type::Vec(_, len) => {
                        let base = static_path(inner).ok_or_else(nested_dynamic_access)?;
                        // Build a mux tree selecting the addressed element.
                        let mut acc = Expression::reference(mangle(&format!("{base}[0]")));
                        for i in 1..len {
                            let cond = Expression::prim(
                                PrimOp::Eq,
                                vec![index_e.clone(), Expression::uint_lit(i as u128)],
                                vec![],
                            );
                            acc = Expression::mux(
                                cond,
                                Expression::reference(mangle(&format!("{base}[{i}]"))),
                                acc,
                            );
                        }
                        Ok(acc)
                    }
                    Type::UInt(_) | Type::Bool => {
                        // Dynamic bit select: (value >> index) & 1.
                        let base = self.expand_expr(inner)?;
                        Ok(Expression::prim(
                            PrimOp::And,
                            vec![
                                Expression::prim(PrimOp::Dshr, vec![base, index_e], vec![]),
                                Expression::uint_lit(1),
                            ],
                            vec![],
                        ))
                    }
                    other => Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        SourceInfo::unknown(),
                        format!("cannot index a value of type {}", other.chisel_name()),
                    )),
                }
            }
            Expression::UIntLiteral { .. } | Expression::SIntLiteral { .. } => Ok(expr.clone()),
            Expression::MemRead { mem, addr, sync, en, clock } => Ok(Expression::MemRead {
                mem: mangle(mem),
                addr: Box::new(self.expand_expr(addr)?),
                sync: *sync,
                en: en.as_ref().map(|e| self.expand_expr(e).map(Box::new)).transpose()?,
                clock: clock.as_ref().map(|c| self.expand_expr(c).map(Box::new)).transpose()?,
            }),
            Expression::Mux { cond, tval, fval } => Ok(Expression::mux(
                self.expand_expr(cond)?,
                self.expand_expr(tval)?,
                self.expand_expr(fval)?,
            )),
            Expression::Prim { op, args, params } => {
                // asUInt over an aggregate concatenates its elements (element 0 ends up
                // in the least-significant bits, per Chisel semantics).
                if *op == PrimOp::AsUInt && args.len() == 1 {
                    if let Ok(ty @ (Type::Vec(..) | Type::Bundle(..))) =
                        ExprTyper::new(self.symbols).infer(&args[0])
                    {
                        let base = static_path(&args[0]).ok_or_else(|| {
                            Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                SourceInfo::unknown(),
                                "asUInt on an aggregate requires a named signal",
                            )
                        })?;
                        let elements = ground_paths(&base, &ty);
                        let mut iter = elements.iter();
                        let first = iter.next().ok_or_else(|| {
                            Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                SourceInfo::unknown(),
                                "asUInt on an aggregate requires at least one element",
                            )
                        })?;
                        let mut acc = Expression::reference(mangle(&first.0));
                        for (path, _) in iter {
                            acc = Expression::prim(
                                PrimOp::Cat,
                                vec![Expression::reference(mangle(path)), acc],
                                vec![],
                            );
                        }
                        return Ok(acc);
                    }
                }
                // Sized exactly: the arguments move on into the netlist, which keeps them.
                let mut new_args = Vec::with_capacity(args.len());
                for a in args {
                    new_args.push(self.expand_expr(a)?);
                }
                Ok(Expression::Prim { op: *op, args: new_args, params: params.clone() })
            }
            Expression::ScalaCast { .. } | Expression::BadApply { .. } => Err(Diagnostic::error(
                ErrorCode::ScalaChiselMixup,
                SourceInfo::unknown(),
                "cannot lower a design containing front-end defects",
            )),
        }
    }
}

/// The mangled clock net of a register or memory write port: `clock`, or the named
/// signal its `withClock` gives.
fn clock_net(clock: &ClockSpec, info: &SourceInfo) -> Result<String, Diagnostic> {
    match clock {
        ClockSpec::Implicit => Ok("clock".to_string()),
        ClockSpec::Explicit(e) => static_path(e).map(|path| mangle(&path)).ok_or_else(|| {
            Diagnostic::error(
                ErrorCode::NoImplicitClock,
                info.clone(),
                "withClock requires a named clock signal",
            )
        }),
    }
}

fn and_conditions(outer: Option<&Expression>, inner: Expression) -> Expression {
    match outer {
        None => inner,
        Some(o) => Expression::prim(PrimOp::And, vec![o.clone(), inner], vec![]),
    }
}

/// One distinct sequential read port discovered by [`SyncReadHoist`].
struct SyncPort {
    /// Mangled memory name.
    mem: String,
    /// Address expression (post-rewrite).
    addr: Expression,
    /// Optional read enable (post-rewrite).
    en: Option<Expression>,
    /// Resolved clock net of the port's read register.
    clock: String,
    /// Name of the implicit read register.
    reg: String,
}

/// Bookkeeping shared by [`hoist_sync_reads`]' recursive rewriter.
struct SyncReadHoist {
    /// Word metadata per memory, for sizing the implicit registers.
    mem_infos: BTreeMap<String, SignalInfo>,
    /// Distinct sequential read ports, in hoisting order (parallel to `new_regs`).
    ports: Vec<SyncPort>,
    /// The implicit registers created so far, in hoisting order.
    new_regs: Vec<NetReg>,
}

impl SyncReadHoist {
    /// Replaces every `MemRead { sync: true }` in `expr` with a reference to its
    /// implicit read register, creating the register on first sight. Identical
    /// `(memory, address, enable, clock)` ports share one register.
    fn rewrite(
        &mut self,
        expr: &mut Expression,
        signals: &mut BTreeMap<String, SignalInfo>,
    ) -> Result<(), Diagnostic> {
        match expr {
            Expression::MemRead { mem, addr, sync, en, clock } => {
                self.rewrite(addr, signals)?;
                if let Some(en) = en {
                    self.rewrite(en, signals)?;
                }
                if !*sync {
                    return Ok(());
                }
                let clock_net = match clock {
                    None => "clock".to_string(),
                    Some(c) => {
                        let path = static_path(c).ok_or_else(|| {
                            Diagnostic::error(
                                ErrorCode::NoImplicitClock,
                                SourceInfo::unknown(),
                                "a sequential read clock must be a named clock signal",
                            )
                        })?;
                        mangle(&path)
                    }
                };
                let en_expr = en.as_ref().map(|e| (**e).clone());
                let name = match self.ports.iter().find(|p| {
                    p.mem == *mem && p.addr == **addr && p.en == en_expr && p.clock == clock_net
                }) {
                    Some(port) => port.reg.clone(),
                    None => {
                        let info = *self.mem_infos.get(mem.as_str()).ok_or_else(|| {
                            Diagnostic::error(
                                ErrorCode::UnknownReference,
                                SourceInfo::unknown(),
                                format!("sequential read targets undeclared memory {mem}"),
                            )
                        })?;
                        let index = self.ports.iter().filter(|p| p.mem == *mem).count();
                        let mut name = format!("{mem}_sr{index}");
                        while signals.contains_key(&name) {
                            name.push('_');
                        }
                        signals.insert(name.clone(), info);
                        // The register's next-state starts as the combinational read
                        // of the same address: staged against the pre-edge state
                        // (before the memory write commits), it captures the OLD word
                        // at each edge of its own clock. Read-under-write bypassing
                        // and enable-hold muxing are layered on afterwards (see
                        // [`hoist_sync_reads`]), once every write port has been
                        // rewritten.
                        self.new_regs.push(NetReg {
                            name: name.clone(),
                            info,
                            clock: clock_net.clone(),
                            next: Expression::mem_read(mem.clone(), (**addr).clone()),
                            reset: None,
                        });
                        self.ports.push(SyncPort {
                            mem: mem.clone(),
                            addr: (**addr).clone(),
                            en: en_expr,
                            clock: clock_net,
                            reg: name.clone(),
                        });
                        name
                    }
                };
                *expr = Expression::Ref(name);
                Ok(())
            }
            _ => {
                let mut result = Ok(());
                expr.for_each_child_mut(&mut |child| {
                    if result.is_ok() {
                        result = self.rewrite(child, signals);
                    }
                });
                result
            }
        }
    }
}

/// Hoists every sequential read port (`MemRead { sync: true }`) into an implicit read
/// register: the register joins [`Netlist::regs`] (and therefore the engines' state
/// and their ordinary staged-commit machinery) clocked by the port's own read
/// clock, its name is recorded in the owning [`NetMem::sync_reads`], and every use
/// site becomes a plain reference. The memory's read-under-write policy and the
/// port's read enable are folded into the register's next-state expression, so the
/// Verilog emitter and every engine enforce them through the ordinary staged-commit
/// path with no special cases.
fn hoist_sync_reads(
    defs: &mut [NetDef],
    regs: &mut Vec<NetReg>,
    mems: &mut [NetMem],
    ruw_of: &BTreeMap<String, ReadUnderWrite>,
    signals: &mut BTreeMap<String, SignalInfo>,
) -> Result<(), Diagnostic> {
    let mut hoist = SyncReadHoist {
        mem_infos: mems.iter().map(|m| (m.name.clone(), m.info)).collect(),
        ports: Vec::new(),
        new_regs: Vec::new(),
    };
    for def in defs.iter_mut() {
        hoist.rewrite(&mut def.expr, signals)?;
    }
    for reg in regs.iter_mut() {
        hoist.rewrite(&mut reg.next, signals)?;
        if let Some((reset, init)) = &mut reg.reset {
            hoist.rewrite(reset, signals)?;
            hoist.rewrite(init, signals)?;
        }
    }
    for mem in mems.iter_mut() {
        for port in &mut mem.writes {
            hoist.rewrite(&mut port.addr, signals)?;
            hoist.rewrite(&mut port.value, signals)?;
            hoist.rewrite(&mut port.enable, signals)?;
            if let Some(mask) = &mut port.mask {
                hoist.rewrite(mask, signals)?;
            }
        }
    }
    for port in &hoist.ports {
        if let Some(mem) = mems.iter_mut().find(|m| m.name == port.mem) {
            mem.sync_reads.push(port.reg.clone());
        }
    }
    // Layer read-under-write bypassing and enable-hold muxing onto each implicit
    // register, now that every write-port expression has itself been rewritten (the
    // bypass copies write-port expressions, which must no longer contain raw
    // sequential reads).
    for (port, reg) in hoist.ports.iter().zip(hoist.new_regs.iter_mut()) {
        let mem = mems.iter().find(|m| m.name == port.mem).expect("hoisted port's memory exists");
        let ruw = ruw_of.get(&port.mem).copied().unwrap_or_default();
        let mut captured = reg.next.clone();
        if ruw != ReadUnderWrite::Old {
            // Only write ports in the read port's own clock domain bypass: a
            // cross-domain collision always captures the old data, whatever the
            // policy. Later ports wrap earlier ones, so a multi-writer collision
            // resolves to the textually last port — the same rule the commits follow.
            for w in mem.writes.iter().filter(|w| w.clock == port.clock) {
                let same_addr =
                    Expression::prim(PrimOp::Eq, vec![w.addr.clone(), port.addr.clone()], vec![]);
                let in_range = Expression::prim(
                    PrimOp::Lt,
                    vec![port.addr.clone(), Expression::uint_lit(mem.depth as u128)],
                    vec![],
                );
                let collides = Expression::prim(
                    PrimOp::And,
                    vec![
                        w.enable.clone(),
                        Expression::prim(PrimOp::And, vec![same_addr, in_range], vec![]),
                    ],
                    vec![],
                );
                let forwarded = match ruw {
                    ReadUnderWrite::Old => unreachable!("filtered above"),
                    // `(old & !mask) | (value & mask)`: the same lane merge the commit
                    // performs, so the forwarded word equals the post-edge contents.
                    ReadUnderWrite::New => match &w.mask {
                        None => w.value.clone(),
                        Some(mask) => Expression::prim(
                            PrimOp::Or,
                            vec![
                                Expression::prim(
                                    PrimOp::And,
                                    vec![
                                        Expression::mem_read(port.mem.clone(), port.addr.clone()),
                                        Expression::prim(PrimOp::Not, vec![mask.clone()], vec![]),
                                    ],
                                    vec![],
                                ),
                                Expression::prim(
                                    PrimOp::And,
                                    vec![w.value.clone(), mask.clone()],
                                    vec![],
                                ),
                            ],
                            vec![],
                        ),
                    },
                    // Our deterministic rendering of "don't rely on this": a
                    // colliding capture reads as zero on every backend.
                    ReadUnderWrite::Undefined => Expression::uint_lit(0),
                };
                captured = Expression::mux(collides, forwarded, captured);
            }
        }
        if let Some(en) = &port.en {
            // Disabled edges hold the previously captured word — the deterministic
            // rendering of Chisel's "undefined when disabled".
            captured =
                Expression::mux(en.clone(), captured, Expression::reference(port.reg.clone()));
        }
        reg.next = captured;
    }
    regs.extend(hoist.new_regs);
    Ok(())
}

/// Orders combinational definitions so every definition only reads signals defined
/// earlier (inputs and registers are always available). Of several definitions of one
/// name, the last is kept, at the place of the first.
fn topo_sort_defs(defs: Vec<NetDef>, regs: &[NetReg]) -> Result<Vec<NetDef>, Diagnostic> {
    let mut by_name: HashMap<&str, usize> =
        defs.iter().enumerate().map(|(i, d)| (d.name.as_str(), i)).collect();
    let resolved: Vec<usize> = defs.iter().map(|d| by_name[d.name.as_str()]).collect();
    // Each definition's dependencies in reference order, `deps[ends[i]..ends[i + 1]]`
    // for definition `i`; registers impose no order.
    for r in regs {
        by_name.remove(r.name.as_str());
    }
    let (mut deps, mut ends) = (Vec::new(), vec![0]);
    for d in &defs {
        d.expr.visit(&mut |e| {
            if let Expression::Ref(name) = e {
                deps.extend(by_name.get(name.as_str()));
            }
        });
        ends.push(deps.len());
    }
    let mut state = vec![0u8; defs.len()];
    let mut order = Vec::with_capacity(defs.len());
    for i in resolved {
        visit_def(i, &defs, (&deps, &ends), &mut state, &mut order)?;
    }
    let mut defs: Vec<Option<NetDef>> = defs.into_iter().map(Some).collect();
    Ok(order.into_iter().filter_map(|i| defs[i].take()).collect())
}

/// Places definition `i` after its dependencies: `state` is 0 for unvisited, 1 while
/// on the walk's stack and 2 once placed in `order`.
fn visit_def(
    i: usize,
    defs: &[NetDef],
    (deps, ends): (&[usize], &[usize]),
    state: &mut [u8],
    order: &mut Vec<usize>,
) -> Result<(), Diagnostic> {
    match state[i] {
        2 => return Ok(()),
        1 => {
            return Err(Diagnostic::error(
                ErrorCode::CombinationalLoop,
                SourceInfo::unknown(),
                format!("detected combinational cycle involving {} during lowering", defs[i].name),
            ));
        }
        _ => {}
    }
    state[i] = 1;
    for &dep in &deps[ends[i]..ends[i + 1]] {
        visit_def(dep, defs, (deps, ends), state, order)?;
    }
    state[i] = 2;
    order.push(i);
    Ok(())
}

/// The diagnostic for a dynamic access that is not the outermost access of an
/// expression (`v[i][1]`, `w[i].x`): lowering selects only whole static paths.
fn nested_dynamic_access() -> Diagnostic {
    Diagnostic::error(
        ErrorCode::InvalidSink,
        SourceInfo::unknown(),
        "nested dynamic accesses are not supported",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_circuit;
    use crate::ir::Port;

    fn passthrough() -> Circuit {
        let mut m = Module::new("Pass", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("in", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        Circuit::single(m)
    }

    #[test]
    fn lower_passthrough() {
        let c = passthrough();
        assert!(!check_circuit(&c).has_errors());
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.name, "Pass");
        assert_eq!(netlist.defs.len(), 1);
        assert_eq!(netlist.defs[0].name, "out");
        assert_eq!(netlist.regs.len(), 0);
        assert_eq!(netlist.data_inputs().count(), 2); // reset + in
        assert_eq!(netlist.outputs().count(), 1);
    }

    #[test]
    fn lower_conditional_register() {
        let mut m = Module::new("Counter", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("en", Direction::Input, Type::bool()));
        m.ports.push(Port::new("count", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(8),
            clock: ClockSpec::Implicit,
            reset: Some(RegReset {
                reset: Expression::reference("reset"),
                init: Expression::uint_lit(0),
            }),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("en"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("r"),
                expr: Expression::prim(
                    PrimOp::Add,
                    vec![Expression::reference("r"), Expression::uint_lit(1)],
                    vec![],
                ),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![],
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("count"),
            expr: Expression::reference("r"),
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m);
        assert!(!check_circuit(&c).has_errors());
        let netlist = lower_circuit(&c).unwrap();
        assert_eq!(netlist.regs.len(), 1);
        let reg = &netlist.regs[0];
        assert_eq!(reg.name, "r");
        assert!(reg.reset.is_some());
        // Next state must be a mux over the enable.
        assert!(matches!(reg.next, Expression::Mux { .. }));
    }

    #[test]
    fn lower_vector_port() {
        let mut m = Module::new("VecOut", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("sel", Direction::Input, Type::uint(2)));
        m.ports.push(Port::new("v", Direction::Input, Type::vec(Type::uint(4), 3)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(4)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::SubAccess(
                Box::new(Expression::reference("v")),
                Box::new(Expression::reference("sel")),
            ),
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m);
        assert!(!check_circuit(&c).has_errors());
        let netlist = lower_circuit(&c).unwrap();
        // v expands to 3 input ports.
        assert_eq!(netlist.data_inputs().count(), 1 + 1 + 3);
        let out_def = netlist.defs.iter().find(|d| d.name == "out").unwrap();
        assert!(matches!(out_def.expr, Expression::Mux { .. }));
    }

    #[test]
    fn lower_instance_hierarchy() {
        let mut child = Module::new("Inv", ModuleKind::Module);
        child.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        child.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        child.ports.push(Port::new("x", Direction::Input, Type::bool()));
        child.ports.push(Port::new("y", Direction::Output, Type::bool()));
        child.body.push(Statement::Connect {
            loc: Expression::reference("y"),
            expr: Expression::prim(PrimOp::Not, vec![Expression::reference("x")], vec![]),
            info: SourceInfo::unknown(),
        });

        let mut top = Module::new("Top", ModuleKind::Module);
        top.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        top.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        top.ports.push(Port::new("a", Direction::Input, Type::bool()));
        top.ports.push(Port::new("b", Direction::Output, Type::bool()));
        top.body.push(Statement::Instance {
            name: "inv".into(),
            module: "Inv".into(),
            info: SourceInfo::unknown(),
        });
        top.body.push(Statement::Connect {
            loc: Expression::SubField(Box::new(Expression::reference("inv")), "x".into()),
            expr: Expression::reference("a"),
            info: SourceInfo::unknown(),
        });
        top.body.push(Statement::Connect {
            loc: Expression::reference("b"),
            expr: Expression::SubField(Box::new(Expression::reference("inv")), "y".into()),
            info: SourceInfo::unknown(),
        });

        let c = Circuit::new("Top", vec![top, child]);
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        assert!(netlist.defs.iter().any(|d| d.name == "inv_y"));
        assert!(netlist.defs.iter().any(|d| d.name == "b"));
    }

    /// A module that reads `a + b` through wire `w` and `a` through register `r`.
    /// With `declared` the wire and register state their widths (6 and 5 bits);
    /// without it both are `UInt()` and take them from their drivers.
    fn wire_and_reg(name: &str, declared: bool) -> Module {
        let (w_ty, r_ty) = if declared {
            (Type::uint(6), Type::uint(5))
        } else {
            (Type::UInt(None), Type::UInt(None))
        };
        let mut m = Module::new(name, ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("a", Direction::Input, Type::uint(5)));
        m.ports.push(Port::new("b", Direction::Input, Type::uint(5)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(6)));
        m.body.push(Statement::Wire { name: "w".into(), ty: w_ty, info: SourceInfo::unknown() });
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: r_ty,
            clock: ClockSpec::Implicit,
            reset: Some(RegReset {
                reset: Expression::reference("reset"),
                init: Expression::uint_lit(0),
            }),
            info: SourceInfo::unknown(),
        });
        let a_plus_b = Expression::prim(
            PrimOp::Add,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        for (loc, expr) in [
            (Expression::reference("w"), a_plus_b),
            (Expression::reference("r"), Expression::reference("a")),
            (
                Expression::reference("out"),
                Expression::prim(
                    PrimOp::Xor,
                    vec![Expression::reference("w"), Expression::reference("r")],
                    vec![],
                ),
            ),
        ] {
            m.body.push(Statement::Connect { loc, expr, info: SourceInfo::unknown() });
        }
        m
    }

    /// `child` as instance `c` of a parent `Top` that forwards `a`, `b` and `out`.
    fn instantiated(child: Module) -> Circuit {
        let mut top = Module::new("Top", ModuleKind::Module);
        top.ports = child.ports.clone();
        top.body.push(Statement::Instance {
            name: "c".into(),
            module: child.name.clone(),
            info: SourceInfo::unknown(),
        });
        let port =
            |name: &str| Expression::SubField(Box::new(Expression::reference("c")), name.into());
        for (loc, expr) in [
            (port("a"), Expression::reference("a")),
            (port("b"), Expression::reference("b")),
            (Expression::reference("out"), port("out")),
        ] {
            top.body.push(Statement::Connect { loc, expr, info: SourceInfo::unknown() });
        }
        Circuit::new("Top", vec![top, child])
    }

    #[test]
    fn inferred_widths_lower_like_declared_ones() {
        let top = |declared| Circuit::single(wire_and_reg("T", declared));
        let child = |declared| instantiated(wire_and_reg("Child", declared));
        for (inferred, declared, wire) in
            [(top(false), top(true), "w"), (child(false), child(true), "c_w")]
        {
            for c in [&inferred, &declared] {
                assert!(!check_circuit(c).has_errors(), "{:?}", check_circuit(c));
            }
            // The width-less design does take the width-resolution path.
            let flat = Circuit::single(
                flatten_module(inferred.top_module().unwrap(), &inferred, 0).unwrap(),
            );
            let elaborated = Elaborated::new(&flat.modules[0], &flat);
            assert_eq!(elaborated.inferred_widths().len(), 2);

            let netlist = lower_circuit(&declared).unwrap();
            assert_eq!(netlist.signal(wire).map(|s| s.width), Some(6));
            assert_eq!(lower_circuit(&inferred).unwrap(), netlist);
            let pipeline = crate::pipeline::Pipeline::new(crate::pipeline::FirrtlBackend);
            assert_eq!(pipeline.run(&inferred).unwrap().0, netlist);
        }
    }

    /// The defs (`name := expr`), then the registers (`name <= next`), that lowering
    /// gives `x := a; out := x` over 8-bit ports `a` and `out` after `decls`, two
    /// declarations of `x`. The checks reject the duplicate; only an unchecked caller
    /// of [`lower_circuit`] can lower such a design.
    fn lowered_after(decls: [Statement; 2]) -> Vec<String> {
        let mut m = Module::new("Twice", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("a", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        let x = decls[0].declared_name().unwrap().to_string();
        m.body.extend(decls);
        for (loc, expr) in [(x.as_str(), "a"), ("out", x.as_str())] {
            m.body.push(Statement::Connect {
                loc: Expression::reference(loc),
                expr: Expression::reference(expr),
                info: SourceInfo::unknown(),
            });
        }
        let c = Circuit::single(m);
        assert!(check_circuit(&c).errors().any(|d| d.code == ErrorCode::DuplicateDeclaration));
        let netlist = lower_circuit(&c).unwrap();
        let defs = netlist.defs.iter().map(|d| format!("{} := {}", d.name, d.expr));
        defs.chain(netlist.regs.iter().map(|r| format!("{} <= {}", r.name, r.next))).collect()
    }

    #[test]
    fn every_declaration_of_a_shared_name_reads_its_value() {
        let wire = |name: &str| Statement::Wire {
            name: name.into(),
            ty: Type::uint(8),
            info: SourceInfo::unknown(),
        };
        let reg = Statement::Reg {
            name: "r".into(),
            ty: Type::uint(8),
            clock: ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::unknown(),
        };
        // Two wires `w`: the sort keeps the last def, which reads `a`, not zero.
        assert_eq!(lowered_after([wire("w"), wire("w")]), ["w := a", "out := w"]);
        // A wire and a register `r`: both read `a`, so the register does not hold.
        assert_eq!(lowered_after([wire("r"), reg]), ["r := a", "out := r", "r <= a"]);
    }

    fn connect(loc: Expression, expr: Expression) -> Statement {
        Statement::Connect { loc, expr, info: SourceInfo::unknown() }
    }

    fn when(cond: &str, then_body: Vec<Statement>, else_body: Vec<Statement>) -> Statement {
        let cond = Expression::reference(cond);
        Statement::When { cond, then_body, else_body, info: SourceInfo::unknown() }
    }

    fn dont_care(loc: Expression) -> Statement {
        Statement::Invalidate { loc, info: SourceInfo::unknown() }
    }

    fn at(vec: &str, index: &str) -> Expression {
        Expression::SubAccess(
            Box::new(Expression::reference(vec)),
            Box::new(Expression::reference(index)),
        )
    }

    /// Module `M`: an implicit clock and reset, then `ports` and `body`.
    fn module(ports: &[(&str, Direction, Type)], body: Vec<Statement>) -> Circuit {
        let mut m = Module::new("M", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        for (name, direction, ty) in ports {
            m.ports.push(Port::new(*name, *direction, ty.clone()));
        }
        m.body = body;
        Circuit::single(m)
    }

    /// The defs (`name := expr`), then the registers (`name <= next`), of `netlist`.
    fn lines(netlist: &Netlist) -> Vec<String> {
        let defs = netlist.defs.iter().map(|d| format!("{} := {}", d.name, d.expr));
        defs.chain(netlist.regs.iter().map(|r| format!("{} <= {}", r.name, r.next))).collect()
    }

    /// [`lines`] of a module that passes the checks.
    fn lowered(ports: &[(&str, Direction, Type)], body: Vec<Statement>) -> Vec<String> {
        let c = module(ports, body);
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        lines(&lower_circuit(&c).unwrap())
    }

    const IN: Direction = Direction::Input;
    const OUT: Direction = Direction::Output;

    #[test]
    fn dont_care_on_a_ground_output_drives_zero() {
        let ports =
            [("en", IN, Type::bool()), ("a", IN, Type::uint(8)), ("out", OUT, Type::uint(8))];
        let out = || Expression::reference("out");
        let body = vec![
            dont_care(out()),
            when("en", vec![connect(out(), Expression::reference("a"))], vec![]),
        ];
        assert_eq!(lowered(&ports, body), ["out := mux(en, a, UInt(0))"]);
    }

    #[test]
    fn dont_care_on_a_vec_wire_under_a_when_muxes_zero_per_element() {
        let v4 = Type::vec(Type::uint(4), 2);
        let ports = [("en", IN, Type::bool()), ("v", IN, v4.clone()), ("out", OUT, Type::uint(8))];
        let w = || Expression::reference("w");
        let body = vec![
            Statement::Wire { name: "w".into(), ty: v4, info: SourceInfo::unknown() },
            connect(w(), Expression::reference("v")),
            when("en", vec![dont_care(w())], vec![]),
            connect(
                Expression::reference("out"),
                Expression::prim(PrimOp::AsUInt, vec![w()], vec![]),
            ),
        ];
        assert_eq!(
            lowered(&ports, body),
            [
                "w_0 := mux(en, UInt(0), v_0)",
                "w_1 := mux(en, UInt(0), v_1)",
                "out := cat(w_1, w_0)"
            ]
        );
    }

    #[test]
    fn dynamic_sinks_under_when_and_otherwise_fold_each_element() {
        let v4 = Type::vec(Type::uint(4), 2);
        let ports = [
            ("en", IN, Type::bool()),
            ("i", IN, Type::uint(1)),
            ("a", IN, Type::uint(4)),
            ("b", IN, Type::uint(4)),
            ("u", IN, v4.clone()),
            ("out", OUT, v4),
        ];
        let body = vec![
            connect(Expression::reference("out"), Expression::reference("u")),
            when(
                "en",
                vec![connect(at("out", "i"), Expression::reference("a"))],
                vec![connect(at("out", "i"), Expression::reference("b"))],
            ),
        ];
        assert_eq!(
            lowered(&ports, body),
            [
                "out_0 := mux(and(not(en), eq(i, UInt(0))), b, \
                 mux(and(en, eq(i, UInt(0))), a, u_0))",
                "out_1 := mux(and(not(en), eq(i, UInt(1))), b, \
                 mux(and(en, eq(i, UInt(1))), a, u_1))",
            ]
        );
    }

    #[test]
    fn an_aggregate_connect_under_a_condition_muxes_each_element() {
        let v4 = Type::vec(Type::uint(4), 2);
        let ports = [
            ("en", IN, Type::bool()),
            ("u", IN, v4.clone()),
            ("v", IN, v4.clone()),
            ("out", OUT, v4),
        ];
        let out = || Expression::reference("out");
        let body = vec![
            connect(out(), Expression::reference("u")),
            when("en", vec![connect(out(), Expression::reference("v"))], vec![]),
        ];
        assert_eq!(
            lowered(&ports, body),
            ["out_0 := mux(en, v_0, u_0)", "out_1 := mux(en, v_1, u_1)"]
        );
    }

    /// Register `r: Vec(UInt<8>, 2)` reset to `init`, read by `out := r[1]`.
    fn vec_register_reset_to(init: Expression, ports: &[(&str, Direction, Type)]) -> Circuit {
        let mut ports = ports.to_vec();
        ports.push(("out", OUT, Type::uint(8)));
        let r = Expression::reference("r");
        module(
            &ports,
            vec![
                Statement::Reg {
                    name: "r".into(),
                    ty: Type::vec(Type::uint(8), 2),
                    clock: ClockSpec::Implicit,
                    reset: Some(RegReset { reset: Expression::reference("reset"), init }),
                    info: SourceInfo::unknown(),
                },
                connect(Expression::reference("out"), Expression::SubIndex(Box::new(r), 1)),
            ],
        )
    }

    #[test]
    fn a_ground_named_init_broadcasts_to_every_element() {
        let c = vec_register_reset_to(Expression::reference("x"), &[("x", IN, Type::uint(8))]);
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let netlist = lower_circuit(&c).unwrap();
        let inits: Vec<String> =
            netlist.regs.iter().map(|r| format!("{}", r.reset.as_ref().unwrap().1)).collect();
        assert_eq!(inits, ["x", "x"]);
        // Every name the netlist reads is one of its signals.
        let mut read = Vec::new();
        for r in &netlist.regs {
            for e in [&r.next, &r.reset.as_ref().unwrap().0, &r.reset.as_ref().unwrap().1] {
                read.extend(e.referenced_names());
            }
        }
        assert!(read.iter().all(|name| netlist.signal(name).is_some()), "{read:?}");
    }

    #[test]
    fn an_aggregate_init_that_is_not_a_named_signal_is_a_diagnostic() {
        let v8 = Type::vec(Type::uint(8), 2);
        let init = Expression::mux(
            Expression::reference("sel"),
            Expression::reference("a"),
            Expression::reference("b"),
        );
        let c = vec_register_reset_to(
            init,
            &[("sel", IN, Type::bool()), ("a", IN, v8.clone()), ("b", IN, v8)],
        );
        assert!(!check_circuit(&c).has_errors(), "{:?}", check_circuit(&c));
        let err = lower_circuit(&c).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidSink);
        assert_eq!(err.subject.as_deref(), Some("r"));
        assert!(err.message.contains("named source"), "{err}");
    }

    #[test]
    fn defect_carriers_fail_lowering() {
        let mut c = passthrough();
        c.top_module_mut().unwrap().body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::ScalaCast {
                arg: Box::new(Expression::reference("in")),
                target: "SInt".into(),
            },
            info: SourceInfo::unknown(),
        });
        assert!(lower_circuit(&c).is_err());
    }

    /// A module reading `out <= expr` from an input `src` of type `ty`, indexed by
    /// a 1-bit input `i`.
    fn dynamic_read(ty: Type, expr: Expression) -> Circuit {
        let mut m = Module::new("Dyn", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("i", Direction::Input, Type::uint(1)));
        m.ports.push(Port::new("src", Direction::Input, ty));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr,
            info: SourceInfo::unknown(),
        });
        Circuit::single(m)
    }

    fn src_at_i() -> Box<Expression> {
        Box::new(Expression::SubAccess(
            Box::new(Expression::reference("src")),
            Box::new(Expression::reference("i")),
        ))
    }

    fn assert_nested_dynamic_access(c: &Circuit) {
        assert!(!check_circuit(c).has_errors(), "{:?}", check_circuit(c));
        let err = lower_circuit(c).unwrap_err();
        assert_eq!(err, nested_dynamic_access());
    }

    #[test]
    fn static_index_below_a_dynamic_access_is_a_diagnostic() {
        // out <= v[i][1] with v: Vec(Vec(UInt<8>, 2), 2)
        let ty = Type::vec(Type::vec(Type::uint(8), 2), 2);
        assert_nested_dynamic_access(&dynamic_read(ty, Expression::SubIndex(src_at_i(), 1)));
    }

    /// `out <= asUInt(src)` for an input `src` of type `ty`.
    fn as_uint_of(ty: Type) -> Circuit {
        let mut m = Module::new("Cast", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("src", Direction::Input, ty));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::prim(PrimOp::AsUInt, vec![Expression::reference("src")], vec![]),
            info: SourceInfo::unknown(),
        });
        Circuit::single(m)
    }

    fn assert_empty_as_uint_is_a_diagnostic(c: &Circuit) {
        assert!(!check_circuit(c).has_errors(), "{:?}", check_circuit(c));
        let err = lower_circuit(c).unwrap_err();
        assert_eq!(err.code, ErrorCode::TypeMismatch);
        assert!(err.message.contains("at least one element"), "{err}");
    }

    #[test]
    fn as_uint_of_an_empty_vec_is_a_diagnostic() {
        // out <= asUInt(w) with w: Vec(UInt<8>, 0)
        assert_empty_as_uint_is_a_diagnostic(&as_uint_of(Type::vec(Type::uint(8), 0)));
    }

    #[test]
    fn as_uint_of_an_empty_bundle_is_a_diagnostic() {
        // out <= asUInt(w) with w: Bundle {}
        assert_empty_as_uint_is_a_diagnostic(&as_uint_of(Type::bundle(vec![])));
    }

    #[test]
    fn field_below_a_dynamic_access_is_a_diagnostic() {
        // out <= w[i].x with w: Vec(Bundle { x: UInt<8> }, 2)
        let ty = Type::vec(Type::bundle(vec![crate::ir::Field::new("x", Type::uint(8))]), 2);
        assert_nested_dynamic_access(&dynamic_read(
            ty,
            Expression::SubField(src_at_i(), "x".into()),
        ));
    }
}
