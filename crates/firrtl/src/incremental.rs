//! Incremental recompilation for the reflection loop.
//!
//! A reflection loop recompiles near-identical revisions of one design over and over:
//! the LLM rewrites a handful of statements, everything else stays put. This module
//! keeps the artifacts of the previous revision (checked circuit, per-module pass
//! reports, lowered [`Netlist`]) and reuses as much of them as each new revision
//! allows, classified into four tiers:
//!
//! 1. **Identical** — the structural [`Fingerprint`] matches: every artifact is reused
//!    verbatim, nothing runs.
//! 2. **Patched** — only the top module changed, and only by rewriting the right-hand
//!    side of top-level `Connect` statements within a conservative *ground class* (see
//!    below). The previous netlist is patched in place — `O(edit)` work plus a clone —
//!    without re-running passes or lowering.
//! 3. **ScopedCheck** — the edit is too invasive to patch but the module set, the top
//!    module name and every port list and module kind are unchanged: passes re-run
//!    only on changed modules ([`PassManager::run_scoped`]) and lowering runs from
//!    scratch.
//! 4. **FullRebuild** — anything else (first revision, top/module-set/port/kind changes,
//!    or unsupported edits in a design with nothing reusable), with a typed
//!    [`RebuildReason`] saying why.
//!
//! # The patchable ground class
//!
//! A modified connect qualifies for the patched tier only when it provably lowers to
//! "replace one [`NetDef`](crate::lower::NetDef) expression" — i.e. when this module
//! can reproduce exactly what the full `check → lower` pipeline would produce:
//!
//! * the sink is a plain unsigned ground signal with an explicitly declared width,
//!   driven by exactly one unconditional top-level connect (last-connect-wins
//!   resolution is trivial);
//! * the new right-hand side is built from plain references to existing unsigned
//!   non-clock ground netlist signals, unsigned literals, muxes and a sign-preserving
//!   subset of the primitive ops — the class on which lowering's expression expansion
//!   is the identity;
//! * every referenced netlist definition precedes the patched definition in the
//!   previous evaluation order, so the existing topological order stays valid;
//! * the rewritten connect types under the connect pass's own rules
//!   ([`ExprTyper`] and [`connection_problem`]): the ground class is structural, so
//!   width errors such as an out-of-range `bits` or a multi-bit source driving a
//!   `Bool` sink are caught here, not skipped with the passes.
//!
//! Everything outside the class falls back to the scoped or full tier; the fallback
//! costs time, never correctness. The checking passes emit no warnings (only errors),
//! so reusing the previous — necessarily empty per-module — reports is exact.
//!
//! Patched netlists keep the previous definition order while a from-scratch lowering
//! of the same circuit may discover another (equally valid) topological order, which
//! is why equivalence is stated over the order-invariant
//! [`Netlist::structural_digest`] rather than netlist equality.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::diagnostics::DiagnosticReport;
use crate::diff::CircuitDiff;
use crate::fingerprint::Fingerprint;
use crate::ir::{Circuit, Direction, Expression, Module, PrimOp, Statement};
use crate::lower::{lower_circuit, Netlist};
use crate::passes::connect::connection_problem;
use crate::pipeline::{PassManager, PassStats};
use crate::typeenv::{ExprTyper, SymbolTable};

/// Why a revision could not take an incremental tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildReason {
    /// No previous revision to reuse.
    FirstRevision,
    /// The circuits name different top modules.
    TopChanged,
    /// Modules were added or removed.
    ModuleSetChanged,
    /// A module's port list or kind changed. Ports ripple into every instantiating
    /// parent's symbol table, so cached reports of *unchanged* modules may be stale
    /// too; the kind decides the implicit clock and reset every check relies on.
    PortsChanged,
    /// The changed module gained or lost statements (not an in-place rewrite).
    StatementsAddedOrRemoved,
    /// An in-place edit falls outside the patchable ground class; the payload names
    /// the first violated condition.
    UnsupportedEdit(&'static str),
    /// The rewritten expression reads a definition that is evaluated *after* the
    /// patched definition in the previous netlist's order.
    WouldReorder,
}

/// How a revision was recompiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecompileOutcome {
    /// Structurally identical to the previous revision; all artifacts reused.
    Identical,
    /// The previous netlist was patched in place; passes and lowering were skipped.
    Patched {
        /// Names of the netlist definitions whose expressions were replaced.
        patched_defs: Vec<String>,
    },
    /// Passes ran only on changed modules; lowering ran from scratch.
    ScopedCheck {
        /// Modules whose cached reports were reused (per pass).
        reused_modules: usize,
        /// Modules the passes actually ran on.
        recomputed_modules: usize,
    },
    /// Everything ran from scratch.
    FullRebuild(RebuildReason),
}

/// Result of one [`IncrementalLowering::recompile`] call.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// The lowered netlist of this revision (reused, patched or rebuilt).
    pub netlist: Arc<Netlist>,
    /// The diagnostics of this revision (error-free, or `recompile` would have
    /// returned `Err`).
    pub report: DiagnosticReport,
    /// Which tier the revision took.
    pub outcome: RecompileOutcome,
    /// Per-pass timing stats; empty for the `Identical` and `Patched` tiers, which
    /// run no passes.
    pub stats: PassStats,
}

struct PrevState {
    circuit: Circuit,
    fingerprint: Fingerprint,
    netlist: Arc<Netlist>,
    report: DiagnosticReport,
    module_reports: BTreeMap<String, DiagnosticReport>,
    /// The top module's symbol table, built by the first patch after a rebuild. A
    /// patch changes no declaration, so the next patch reuses it.
    top_symbols: Option<Arc<SymbolTable>>,
}

/// Stateful incremental `check → lower` driver.
///
/// Feed consecutive revisions of a design to [`recompile`](Self::recompile); the
/// driver diffs each revision against the last *successful* one and picks the cheapest
/// sound tier. A revision that fails checking leaves the cached state untouched, so a
/// later fixed revision still diffs against the last good one — the common
/// good → broken → good shape of a reflection loop stays incremental.
///
/// # Example
///
/// ```
/// use rechisel_firrtl::ir::{
///     Circuit, Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type,
/// };
/// use rechisel_firrtl::{IncrementalLowering, RecompileOutcome};
///
/// fn revision(rhs: Expression) -> Circuit {
///     let mut m = Module::new("Top", ModuleKind::Module);
///     m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
///     m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
///     m.ports.push(Port::new("a", Direction::Input, Type::uint(8)));
///     m.ports.push(Port::new("b", Direction::Input, Type::uint(8)));
///     m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
///     m.body.push(Statement::Connect {
///         loc: Expression::reference("out"),
///         expr: rhs,
///         info: SourceInfo::unknown(),
///     });
///     Circuit::single(m)
/// }
///
/// let mut inc = IncrementalLowering::new();
/// let first = inc.recompile(&revision(Expression::reference("a"))).unwrap();
/// assert!(matches!(first.outcome, RecompileOutcome::FullRebuild(_)));
///
/// // Rewriting one connect right-hand side patches the previous netlist in place.
/// let second = inc
///     .recompile(&revision(Expression::prim(
///         rechisel_firrtl::PrimOp::Xor,
///         vec![Expression::reference("a"), Expression::reference("b")],
///         vec![],
///     )))
///     .unwrap();
/// assert!(matches!(second.outcome, RecompileOutcome::Patched { .. }));
///
/// // The patched netlist matches what a from-scratch lowering would produce.
/// assert_eq!(
///     second.netlist.structural_digest(),
///     rechisel_firrtl::lower_circuit(&revision(Expression::prim(
///         rechisel_firrtl::PrimOp::Xor,
///         vec![Expression::reference("a"), Expression::reference("b")],
///         vec![],
///     )))
///     .unwrap()
///     .structural_digest(),
/// );
/// ```
pub struct IncrementalLowering {
    passes: PassManager,
    prev: Option<PrevState>,
}

impl std::fmt::Debug for IncrementalLowering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalLowering")
            .field("passes", &self.passes)
            .field("cached_revision", &self.prev.as_ref().map(|p| p.fingerprint))
            .finish()
    }
}

impl Default for IncrementalLowering {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalLowering {
    /// A driver running the standard checking passes.
    pub fn new() -> Self {
        Self::with_passes(PassManager::standard())
    }

    /// A driver running a custom pass set.
    pub fn with_passes(passes: PassManager) -> Self {
        Self { passes, prev: None }
    }

    /// The pass set the driver checks revisions with.
    pub fn passes(&self) -> &PassManager {
        &self.passes
    }

    /// The netlist of the last successful revision, if any.
    pub fn last_netlist(&self) -> Option<&Arc<Netlist>> {
        self.prev.as_ref().map(|p| &p.netlist)
    }

    /// Drops all cached state; the next revision takes a full rebuild.
    pub fn invalidate(&mut self) {
        self.prev = None;
    }

    /// Checks and lowers `circuit`, reusing the previous revision's artifacts where
    /// sound. Returns the diagnostics as `Err` when checking fails; the cached state
    /// then still describes the last successful revision.
    pub fn recompile(&mut self, circuit: &Circuit) -> Result<IncrementalResult, DiagnosticReport> {
        let fingerprint = circuit.fingerprint();

        let Some(prev) = &self.prev else {
            return self.rebuild(circuit, fingerprint, None, RebuildReason::FirstRevision);
        };

        if prev.fingerprint == fingerprint {
            return Ok(IncrementalResult {
                netlist: Arc::clone(&prev.netlist),
                report: prev.report.clone(),
                outcome: RecompileOutcome::Identical,
                stats: PassStats::default(),
            });
        }

        let diff = CircuitDiff::between(&prev.circuit, circuit);
        if diff.top_changed {
            return self.rebuild(circuit, fingerprint, None, RebuildReason::TopChanged);
        }
        if !diff.added_modules.is_empty() || !diff.removed_modules.is_empty() {
            return self.rebuild(circuit, fingerprint, None, RebuildReason::ModuleSetChanged);
        }
        if diff.modules.iter().any(|m| m.ports_changed) {
            // A changed port list invalidates the symbol tables of instantiating
            // parents, so no cached module report is trustworthy.
            return self.rebuild(circuit, fingerprint, None, RebuildReason::PortsChanged);
        }

        let changed: BTreeSet<String> =
            diff.changed_modules().map(|name| name.to_string()).collect();
        let reason = if changed.len() == 1 && changed.contains(&circuit.top) {
            match self.try_patch(circuit, fingerprint, &diff) {
                Ok(result) => return Ok(result),
                Err(reason) => reason,
            }
        } else {
            RebuildReason::UnsupportedEdit("edits are not confined to the top module")
        };

        self.rebuild(circuit, fingerprint, Some(changed), reason)
    }

    /// Runs the passes (scoped to `changed` when given) and a from-scratch lowering.
    fn rebuild(
        &mut self,
        circuit: &Circuit,
        fingerprint: Fingerprint,
        changed: Option<BTreeSet<String>>,
        reason: RebuildReason,
    ) -> Result<IncrementalResult, DiagnosticReport> {
        let empty = BTreeMap::new();
        let (cache, recompute): (&BTreeMap<String, DiagnosticReport>, _) =
            match (&self.prev, &changed) {
                (Some(prev), Some(changed)) => (
                    &prev.module_reports,
                    Box::new(|name: &str| changed.contains(name)) as Box<dyn Fn(&str) -> bool>,
                ),
                _ => (&empty, Box::new(|_: &str| true) as Box<dyn Fn(&str) -> bool>),
            };
        let (report, stats, module_reports) = self.passes.run_scoped(circuit, recompute, cache);
        if report.has_errors() {
            return Err(report);
        }
        let netlist = match lower_circuit(circuit) {
            Ok(netlist) => netlist,
            Err(diagnostic) => {
                let mut report = DiagnosticReport::new();
                report.push(diagnostic);
                return Err(report);
            }
        };
        let reused_modules = stats.timings().first().map_or(0, |t| t.reused_modules);
        let recomputed_modules = stats.timings().first().map_or(0, |t| t.recomputed_modules);
        let outcome = if reused_modules > 0 {
            RecompileOutcome::ScopedCheck { reused_modules, recomputed_modules }
        } else {
            RecompileOutcome::FullRebuild(reason)
        };
        let netlist = Arc::new(netlist);
        self.prev = Some(PrevState {
            circuit: circuit.clone(),
            fingerprint,
            netlist: Arc::clone(&netlist),
            report: report.clone(),
            module_reports,
            top_symbols: None,
        });
        Ok(IncrementalResult { netlist, report, outcome, stats })
    }

    /// Attempts the patched tier. `diff` must already have established: same top, same
    /// module set, no port changes, and the top module is the only changed one.
    fn try_patch(
        &mut self,
        circuit: &Circuit,
        fingerprint: Fingerprint,
        diff: &CircuitDiff,
    ) -> Result<IncrementalResult, RebuildReason> {
        let prev = self.prev.as_ref().expect("try_patch requires a previous revision");
        let module_diff = diff
            .module(&circuit.top)
            .ok_or(RebuildReason::UnsupportedEdit("top module missing from diff"))?;
        if module_diff.has_insertions_or_deletions() {
            return Err(RebuildReason::StatementsAddedOrRemoved);
        }
        let old_module = prev
            .circuit
            .top_module()
            .ok_or(RebuildReason::UnsupportedEdit("previous top module missing"))?;
        let new_module =
            circuit.top_module().ok_or(RebuildReason::UnsupportedEdit("top module missing"))?;

        let def_order: BTreeMap<&str, usize> = prev
            .netlist
            .defs
            .iter()
            .enumerate()
            .map(|(index, def)| (def.name.as_str(), index))
            .collect();
        let output_ports: BTreeSet<&str> = prev
            .netlist
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Output)
            .map(|p| p.name.as_str())
            .collect();
        let reg_names: BTreeSet<&str> = prev.netlist.regs.iter().map(|r| r.name.as_str()).collect();

        let mut edits: Vec<(usize, String, Expression)> = Vec::new();
        let mut rewritten: Vec<(&Expression, &Expression)> = Vec::new();
        for (old_index, new_index) in module_diff.modified_pairs() {
            let old_stmt = &old_module.body[old_index];
            let new_stmt = &new_module.body[new_index];
            let (Statement::Connect { loc: old_loc, .. }, Statement::Connect { loc, expr, .. }) =
                (old_stmt, new_stmt)
            else {
                return Err(RebuildReason::UnsupportedEdit("only connect rewrites are patchable"));
            };
            if old_loc != loc {
                return Err(RebuildReason::UnsupportedEdit("the connect sink changed"));
            }
            let Expression::Ref(sink) = loc else {
                return Err(RebuildReason::UnsupportedEdit("sink is not a plain reference"));
            };
            let Some(sink_info) = prev.netlist.signals.get(sink) else {
                return Err(RebuildReason::UnsupportedEdit("sink is not a ground netlist signal"));
            };
            if sink_info.signed || sink_info.is_clock {
                return Err(RebuildReason::UnsupportedEdit("sink is signed or clock-typed"));
            }
            if reg_names.contains(sink.as_str()) {
                return Err(RebuildReason::UnsupportedEdit("sink is a register"));
            }
            let Some(&def_index) = def_order.get(sink.as_str()) else {
                return Err(RebuildReason::UnsupportedEdit("sink has no netlist definition"));
            };
            if !sink_declared_with_explicit_width(old_module, sink) {
                return Err(RebuildReason::UnsupportedEdit("sink width is inferred, not declared"));
            }
            if count_drivers(new_module, sink) != 1 {
                return Err(RebuildReason::UnsupportedEdit(
                    "sink is driven more than once or conditionally",
                ));
            }
            let new_expr = ground_expand(expr, prev.netlist.as_ref(), &output_ports)?;
            let mut refs = Vec::new();
            collect_refs(&new_expr, &mut refs);
            for name in refs {
                if let Some(&ref_index) = def_order.get(name) {
                    if ref_index >= def_index {
                        return Err(RebuildReason::WouldReorder);
                    }
                }
            }
            edits.push((def_index, sink.clone(), new_expr));
            rewritten.push((loc, expr));
        }
        if edits.is_empty() {
            return Err(RebuildReason::UnsupportedEdit("no patchable edits found"));
        }
        // Only connects changed, so the declarations are the previous revision's.
        let symbols = match &prev.top_symbols {
            Some(symbols) => Arc::clone(symbols),
            None => Arc::new(SymbolTable::build(new_module, circuit)),
        };
        let typer = ExprTyper::new(&symbols, new_module);
        for (loc, expr) in rewritten {
            let types = match (typer.infer(loc), typer.infer(expr)) {
                (Ok(sink), Ok(src)) => connection_problem(&sink, &src).is_none(),
                _ => false,
            };
            if !types {
                return Err(RebuildReason::UnsupportedEdit("the rewritten connect does not type"));
            }
        }

        let mut netlist = (*prev.netlist).clone();
        let mut patched_defs = Vec::with_capacity(edits.len());
        for (def_index, name, expr) in edits {
            netlist.defs[def_index].expr = expr;
            patched_defs.push(name);
        }
        let report = prev.report.clone();
        let module_reports = prev.module_reports.clone();
        let netlist = Arc::new(netlist);
        self.prev = Some(PrevState {
            circuit: circuit.clone(),
            fingerprint,
            netlist: Arc::clone(&netlist),
            report: report.clone(),
            module_reports,
            top_symbols: Some(symbols),
        });
        Ok(IncrementalResult {
            netlist,
            report,
            outcome: RecompileOutcome::Patched { patched_defs },
            stats: PassStats::default(),
        })
    }
}

/// True when `name` is declared in `module` as a port or as a wire with an explicit
/// ground width — the declarations whose [`SignalInfo`](crate::lower::SignalInfo)
/// cannot shift under a driver rewrite. (Ports always carry explicit widths in a
/// check-clean design.)
fn sink_declared_with_explicit_width(module: &Module, name: &str) -> bool {
    if module.ports.iter().any(|p| p.name == name) {
        return true;
    }
    let mut ok = false;
    module.visit_statements(&mut |stmt| {
        if let Statement::Wire { name: n, ty, .. } = stmt {
            if n == name && ty.is_ground() && ty.width().is_some() {
                ok = true;
            }
        }
    });
    ok
}

/// Counts the statements driving the plain signal `name` anywhere in the module body
/// (including inside `when` arms), connects and invalidates alike.
fn count_drivers(module: &Module, name: &str) -> usize {
    let mut count = 0;
    module.visit_statements(&mut |stmt| match stmt {
        Statement::Connect { loc, .. } | Statement::Invalidate { loc, .. } => {
            if matches!(loc, Expression::Ref(n) if n == name) {
                count += 1;
            }
        }
        _ => {}
    });
    count
}

/// Primitive ops on which expression expansion is the identity and whose results stay
/// unsigned for unsigned operands. `Sub`, `Neg`, the signed/clock reinterpretations
/// and everything aggregate-related are deliberately excluded — they fall back to the
/// full pipeline rather than risk diverging from it.
fn patchable_op(op: PrimOp) -> bool {
    use PrimOp::*;
    matches!(
        op,
        Add | Mul
            | Div
            | Rem
            | And
            | Or
            | Xor
            | Not
            | Eq
            | Neq
            | Lt
            | Leq
            | Gt
            | Geq
            | Shl
            | Shr
            | Dshl
            | Dshr
            | Cat
            | Bits
            | AndR
            | OrR
            | XorR
            | AsUInt
            | AsBool
            | Pad
            | Tail
            | Head
    )
}

/// Validates that `expr` lies in the patchable ground class and returns the netlist
/// expression lowering would produce for it (on this class, expansion is a clone with
/// identity-mangled references).
fn ground_expand(
    expr: &Expression,
    netlist: &Netlist,
    output_ports: &BTreeSet<&str>,
) -> Result<Expression, RebuildReason> {
    match expr {
        Expression::Ref(name) => {
            if name.contains('.') || name.contains('[') {
                return Err(RebuildReason::UnsupportedEdit("reference is not a plain name"));
            }
            let Some(info) = netlist.signals.get(name) else {
                return Err(RebuildReason::UnsupportedEdit(
                    "reference to a name without a ground netlist signal",
                ));
            };
            if info.is_clock || info.signed {
                return Err(RebuildReason::UnsupportedEdit(
                    "reference to a clock or signed signal",
                ));
            }
            if output_ports.contains(name.as_str()) {
                return Err(RebuildReason::UnsupportedEdit("reference reads an output port"));
            }
            Ok(Expression::reference(name.clone()))
        }
        Expression::UIntLiteral { .. } => Ok(expr.clone()),
        Expression::Mux { cond, tval, fval } => Ok(Expression::mux(
            ground_expand(cond, netlist, output_ports)?,
            ground_expand(tval, netlist, output_ports)?,
            ground_expand(fval, netlist, output_ports)?,
        )),
        Expression::Prim { op, args, params } => {
            if !patchable_op(*op) {
                return Err(RebuildReason::UnsupportedEdit("primitive op is not patchable"));
            }
            if args.len() != op.arity() {
                return Err(RebuildReason::UnsupportedEdit("primitive op has wrong arity"));
            }
            if !prim_params_plausible(*op, params) {
                return Err(RebuildReason::UnsupportedEdit("primitive op parameters out of range"));
            }
            let args = args
                .iter()
                .map(|a| ground_expand(a, netlist, output_ports))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expression::Prim { op: *op, args, params: params.clone() })
        }
        _ => Err(RebuildReason::UnsupportedEdit("expression kind is not patchable")),
    }
}

/// Conservative static-parameter bounds; anything exotic falls back to the full
/// pipeline, whose checks own the real validation.
fn prim_params_plausible(op: PrimOp, params: &[i64]) -> bool {
    use PrimOp::*;
    match op {
        Bits => params.len() == 2 && params[1] >= 0 && params[0] >= params[1] && params[0] < 128,
        Shl | Shr | Pad | Tail | Head => params.len() == 1 && (0..=128).contains(&params[0]),
        _ => params.is_empty(),
    }
}

/// Collects every referenced name in a (ground) netlist expression.
fn collect_refs<'a>(expr: &'a Expression, out: &mut Vec<&'a str>) {
    match expr {
        Expression::Ref(name) => out.push(name),
        Expression::Mux { cond, tval, fval } => {
            collect_refs(cond, out);
            collect_refs(tval, out);
            collect_refs(fval, out);
        }
        Expression::Prim { args, .. } => {
            for a in args {
                collect_refs(a, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::ErrorCode;
    use crate::ir::{ClockSpec, ModuleKind, Port, SourceInfo, Type};

    fn base_module() -> Module {
        let mut m = Module::new("Top", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("a", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("b", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m
    }

    fn connect(loc: &str, expr: Expression) -> Statement {
        Statement::Connect { loc: Expression::reference(loc), expr, info: SourceInfo::unknown() }
    }

    fn node(name: &str, value: Expression) -> Statement {
        Statement::Node { name: name.into(), value, info: SourceInfo::unknown() }
    }

    fn revision(body: Vec<Statement>) -> Circuit {
        let mut m = base_module();
        m.body = body;
        Circuit::single(m)
    }

    fn xor(a: Expression, b: Expression) -> Expression {
        Expression::prim(PrimOp::Xor, vec![a, b], vec![])
    }

    #[test]
    fn identical_revision_reuses_everything() {
        let c = revision(vec![connect("out", Expression::reference("a"))]);
        let mut inc = IncrementalLowering::new();
        let first = inc.recompile(&c).unwrap();
        assert_eq!(first.outcome, RecompileOutcome::FullRebuild(RebuildReason::FirstRevision));
        let second = inc.recompile(&c.clone()).unwrap();
        assert_eq!(second.outcome, RecompileOutcome::Identical);
        assert!(second.stats.is_empty());
        assert!(Arc::ptr_eq(&first.netlist, &second.netlist));
    }

    #[test]
    fn connect_rewrite_takes_the_patched_tier_and_matches_scratch() {
        let old = revision(vec![
            node("n0", xor(Expression::reference("a"), Expression::reference("b"))),
            connect("out", Expression::reference("n0")),
        ]);
        let new = revision(vec![
            node("n0", xor(Expression::reference("a"), Expression::reference("b"))),
            connect(
                "out",
                Expression::mux(
                    Expression::prim(
                        PrimOp::Eq,
                        vec![Expression::reference("n0"), Expression::uint_lit(0)],
                        vec![],
                    ),
                    Expression::reference("a"),
                    Expression::reference("n0"),
                ),
            ),
        ]);
        let mut inc = IncrementalLowering::new();
        inc.recompile(&old).unwrap();
        let result = inc.recompile(&new).unwrap();
        assert_eq!(result.outcome, RecompileOutcome::Patched { patched_defs: vec!["out".into()] });
        assert!(result.stats.is_empty());

        let scratch = lower_circuit(&new).unwrap();
        assert_eq!(result.netlist.structural_digest(), scratch.structural_digest());
        // And the patch really changed something relative to the old netlist.
        assert_ne!(
            result.netlist.structural_digest(),
            lower_circuit(&old).unwrap().structural_digest()
        );
    }

    #[test]
    fn forward_reference_rewrite_falls_back_with_would_reorder() {
        let wire = |name: &str| Statement::Wire {
            name: name.into(),
            ty: Type::uint(8),
            info: SourceInfo::unknown(),
        };
        let body = |w1_rhs: Expression| {
            revision(vec![
                wire("w1"),
                wire("w2"),
                connect("w1", w1_rhs),
                connect("w2", Expression::reference("b")),
                connect("out", Expression::reference("w1")),
            ])
        };
        // The old netlist evaluates w1 before w2; the rewrite makes w1 read w2, which
        // is acyclic but invalidates the previous evaluation order.
        let old = body(Expression::reference("a"));
        let new = body(Expression::prim(PrimOp::Not, vec![Expression::reference("w2")], vec![]));
        let mut inc = IncrementalLowering::new();
        let first = inc.recompile(&old).unwrap();
        let w1 = first.netlist.defs.iter().position(|d| d.name == "w1").unwrap();
        let w2 = first.netlist.defs.iter().position(|d| d.name == "w2").unwrap();
        assert!(w1 < w2, "test premise: w1 must precede w2 in the old evaluation order");
        let result = inc.recompile(&new).unwrap();
        assert_eq!(result.outcome, RecompileOutcome::FullRebuild(RebuildReason::WouldReorder));
        // The fallback still produces the right netlist — and the scratch lowering
        // picks a *different* def order, which the order-invariant digest absorbs.
        assert_eq!(
            result.netlist.structural_digest(),
            lower_circuit(&new).unwrap().structural_digest()
        );
    }

    #[test]
    fn self_reference_rewrite_falls_back_and_reports_the_loop() {
        let old = revision(vec![
            Statement::Wire { name: "w".into(), ty: Type::uint(8), info: SourceInfo::unknown() },
            connect("w", Expression::reference("a")),
            connect("out", Expression::reference("w")),
        ]);
        let mut inc = IncrementalLowering::new();
        inc.recompile(&old).unwrap();
        // w now reads itself: WouldReorder rejects the patch and the full pipeline
        // reports the combinational loop.
        let mut looped = old.clone();
        if let Statement::Connect { expr, .. } = &mut looped.modules[0].body[1] {
            *expr = Expression::prim(PrimOp::Not, vec![Expression::reference("w")], vec![]);
        }
        let err = inc.recompile(&looped).unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn node_rewrite_and_insertion_fall_back() {
        let old = revision(vec![
            node("n0", Expression::reference("a")),
            connect("out", Expression::reference("n0")),
        ]);
        let mut inc = IncrementalLowering::new();
        inc.recompile(&old).unwrap();

        // Node rewrites cascade through width inference: not patchable.
        let node_edit = revision(vec![
            node("n0", Expression::reference("b")),
            connect("out", Expression::reference("n0")),
        ]);
        let result = inc.recompile(&node_edit).unwrap();
        assert_eq!(
            result.outcome,
            RecompileOutcome::FullRebuild(RebuildReason::UnsupportedEdit(
                "only connect rewrites are patchable"
            ))
        );

        // Statement insertion: not patchable either.
        let inserted = revision(vec![
            node("n0", Expression::reference("b")),
            node("n1", Expression::reference("n0")),
            connect("out", Expression::reference("n1")),
        ]);
        let result = inc.recompile(&inserted).unwrap();
        assert_eq!(
            result.outcome,
            RecompileOutcome::FullRebuild(RebuildReason::StatementsAddedOrRemoved)
        );
        assert_eq!(
            result.netlist.structural_digest(),
            lower_circuit(&inserted).unwrap().structural_digest()
        );
    }

    #[test]
    fn failing_revision_keeps_the_last_good_state() {
        let good = revision(vec![connect("out", Expression::reference("a"))]);
        let mut inc = IncrementalLowering::new();
        inc.recompile(&good).unwrap();

        let broken = revision(vec![connect("out", Expression::reference("ghost"))]);
        let err = inc.recompile(&broken).unwrap_err();
        assert!(err.has_errors());

        // The fix diffs against the last *good* revision: a pure connect rewrite
        // (relative to `good`) still patches.
        let fixed = revision(vec![connect(
            "out",
            xor(Expression::reference("a"), Expression::reference("b")),
        )]);
        let result = inc.recompile(&fixed).unwrap();
        assert!(matches!(result.outcome, RecompileOutcome::Patched { .. }));
        assert_eq!(
            result.netlist.structural_digest(),
            lower_circuit(&fixed).unwrap().structural_digest()
        );
    }

    #[test]
    fn multi_module_body_edit_takes_the_scoped_tier() {
        let helper = |rhs: &str| {
            let mut m = Module::new("Helper", ModuleKind::Module);
            m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
            m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
            m.ports.push(Port::new("x", Direction::Input, Type::uint(8)));
            m.ports.push(Port::new("y", Direction::Output, Type::uint(8)));
            m.body.push(connect("y", Expression::reference(rhs)));
            m
        };
        let circuit = |rhs: &str| {
            let mut top = base_module();
            top.body.push(connect("out", Expression::reference("a")));
            let mut c = Circuit::single(top);
            c.modules.push(helper(rhs));
            c
        };
        let mut inc = IncrementalLowering::new();
        inc.recompile(&circuit("x")).unwrap();
        // Rewriting the *helper* body cannot patch the top netlist, but checking only
        // re-runs on the helper.
        let broken = inc.recompile(&circuit("nonexistent")).unwrap_err();
        assert!(broken.has_errors());

        let mut c2 = circuit("x");
        if let Statement::Connect { expr, .. } = &mut c2.modules[1].body[0] {
            *expr = Expression::prim(PrimOp::Not, vec![Expression::reference("x")], vec![]);
        }
        let result = inc.recompile(&c2).unwrap();
        assert_eq!(
            result.outcome,
            RecompileOutcome::ScopedCheck { reused_modules: 1, recomputed_modules: 1 }
        );
        let timing = &result.stats.timings()[0];
        assert_eq!(timing.reused_modules, 1);
        assert_eq!(timing.recomputed_modules, 1);
        assert_eq!(
            result.netlist.structural_digest(),
            lower_circuit(&c2).unwrap().structural_digest()
        );
    }

    #[test]
    fn port_change_rebuilds_everything() {
        let old = revision(vec![connect("out", Expression::reference("a"))]);
        let mut widened = base_module();
        widened.ports[3].ty = Type::uint(16); // widen the unused `b` port
        widened.body.push(connect("out", Expression::reference("a")));
        let new = Circuit::single(widened);
        let mut inc = IncrementalLowering::new();
        inc.recompile(&old).unwrap();
        let result = inc.recompile(&new).unwrap();
        assert_eq!(result.outcome, RecompileOutcome::FullRebuild(RebuildReason::PortsChanged));
    }

    #[test]
    fn rewrites_that_do_not_type_are_rejected_like_scratch() {
        let (a, b) = (|| Expression::reference("a"), || Expression::reference("b"));
        // `bits(99, 99)` of an 8-bit value is structurally in the ground class, but
        // the index is out of range.
        let good = revision(vec![connect("out", a())]);
        let good_patched = revision(vec![connect("out", b())]);
        let out_of_range =
            revision(vec![connect("out", Expression::prim(PrimOp::Bits, vec![a()], vec![99, 99]))]);
        // A Bool sink driven by an 8-bit value.
        let with_flag = |flag_rhs: Expression| {
            let mut m = base_module();
            m.ports.push(Port::new("flag", Direction::Output, Type::Bool));
            m.body = vec![connect("out", a()), connect("flag", flag_rhs)];
            Circuit::single(m)
        };
        let flag_good = with_flag(Expression::prim(PrimOp::OrR, vec![a()], vec![]));
        let flag_patched = with_flag(Expression::prim(PrimOp::OrR, vec![b()], vec![]));
        let flag_wide = with_flag(b());

        for (good, patched, bad) in
            [(good, good_patched, out_of_range), (flag_good, flag_patched, flag_wide)]
        {
            let scratch = IncrementalLowering::new().recompile(&bad).unwrap_err();
            let mut inc = IncrementalLowering::new();
            inc.recompile(&good).unwrap();
            assert_eq!(inc.recompile(&bad).unwrap_err(), scratch);
            // Again after a patch, which types against the symbol table it cached.
            let outcome = inc.recompile(&patched).unwrap().outcome;
            assert!(matches!(outcome, RecompileOutcome::Patched { .. }), "{outcome:?}");
            assert_eq!(inc.recompile(&bad).unwrap_err(), scratch);
            // The rejected rewrite left the last good revision in place.
            assert_eq!(inc.recompile(&patched).unwrap().outcome, RecompileOutcome::Identical);
        }
    }

    #[test]
    fn a_rebuild_drops_the_cached_symbol_table() {
        // `w` narrows from 8 bits to 1 in a rebuild; `bits(7, 7)` of it then no
        // longer types, which only a symbol table of the rebuilt revision knows.
        let with_w = |width: u32, w_rhs: Expression, out_rhs: Expression| {
            revision(vec![
                Statement::Wire {
                    name: "w".into(),
                    ty: Type::uint(width),
                    info: SourceInfo::unknown(),
                },
                connect("w", w_rhs),
                connect("out", out_rhs),
            ])
        };
        let (a, w) = (|| Expression::reference("a"), || Expression::reference("w"));
        let bit0 = || Expression::prim(PrimOp::Bits, vec![a()], vec![0, 0]);
        let bit7 = || Expression::prim(PrimOp::Bits, vec![w()], vec![7, 7]);
        let not_w = || Expression::prim(PrimOp::Not, vec![w()], vec![]);

        let mut inc = IncrementalLowering::new();
        inc.recompile(&with_w(8, a(), w())).unwrap();
        let outcome = inc.recompile(&with_w(8, a(), bit7())).unwrap().outcome;
        assert!(matches!(outcome, RecompileOutcome::Patched { .. }), "{outcome:?}");
        let outcome = inc.recompile(&with_w(1, bit0(), not_w())).unwrap().outcome;
        assert!(!matches!(outcome, RecompileOutcome::Patched { .. }), "{outcome:?}");

        let narrow = with_w(1, bit0(), bit7());
        let scratch = IncrementalLowering::new().recompile(&narrow).unwrap_err();
        assert_eq!(inc.recompile(&narrow).unwrap_err(), scratch);
    }

    #[test]
    fn module_kind_flip_is_checked_like_a_port_change() {
        // A register on the implicit clock: legal in a `Module`, a NoImplicitClock
        // error once the same body sits in a `RawModule`.
        let registered = |out_rhs: Expression| {
            revision(vec![
                Statement::Reg {
                    name: "r".into(),
                    ty: Type::uint(8),
                    clock: ClockSpec::Implicit,
                    reset: None,
                    info: SourceInfo::unknown(),
                },
                connect("r", Expression::reference("a")),
                connect("out", out_rhs),
            ])
        };
        let raw = |mut circuit: Circuit| {
            circuit.modules[0].kind = ModuleKind::RawModule;
            circuit
        };
        let good = registered(Expression::reference("r"));
        let kind_only = raw(good.clone());
        let kind_and_connect = raw(registered(Expression::prim(
            PrimOp::Not,
            vec![Expression::reference("r")],
            vec![],
        )));

        assert!(CircuitDiff::between(&good, &kind_only).module("Top").unwrap().ports_changed);
        for flipped in [kind_only, kind_and_connect] {
            let scratch = IncrementalLowering::new().recompile(&flipped).unwrap_err();
            let mut inc = IncrementalLowering::new();
            inc.recompile(&good).unwrap();
            let chained = inc.recompile(&flipped).unwrap_err();
            assert_eq!(chained, scratch);
            assert!(chained.errors().any(|d| d.code == ErrorCode::NoImplicitClock));
            // The rejected flip left the last good revision in place.
            let result = inc.recompile(&good).unwrap();
            assert_eq!(result.outcome, RecompileOutcome::Identical);
        }
    }

    #[test]
    fn patched_tier_rejects_multiply_driven_sinks() {
        // `out` has an unconditional default *and* a when-wrapped override; rewriting
        // the default must not patch (last-connect-wins resolution is non-trivial).
        let body = |default_rhs: Expression| {
            revision(vec![
                connect("out", default_rhs),
                Statement::When {
                    cond: Expression::prim(PrimOp::OrR, vec![Expression::reference("b")], vec![]),
                    then_body: vec![connect("out", Expression::reference("b"))],
                    else_body: vec![],
                    info: SourceInfo::unknown(),
                },
            ])
        };
        let mut inc = IncrementalLowering::new();
        inc.recompile(&body(Expression::reference("a"))).unwrap();
        let edited = body(Expression::prim(PrimOp::Not, vec![Expression::reference("a")], vec![]));
        let result = inc.recompile(&edited).unwrap();
        assert_eq!(
            result.outcome,
            RecompileOutcome::FullRebuild(RebuildReason::UnsupportedEdit(
                "sink is driven more than once or conditionally"
            ))
        );
        assert_eq!(
            result.netlist.structural_digest(),
            lower_circuit(&edited).unwrap().structural_digest()
        );
    }
}
