//! Defect injection: turning a correct reference design into a realistically broken
//! candidate.
//!
//! The synthetic LLM models code generation as "the right design, minus a few
//! mistakes": a candidate is always the pristine reference circuit with a set of
//! [`DefectInstance`]s applied. Each injection is deterministic in the instance's seed,
//! so re-applying the same live defect set always reproduces the same circuit (and the
//! same compiler diagnostics at the same locations — which is what makes non-progress
//! loops detectable by the Inspector exactly as in the paper).
//!
//! Every syntax defect kind targets the checking pass that produces the corresponding
//! Table II diagnostic; functional defect kinds mutate the logic in ways that survive
//! compilation and only show up in simulation.

use rand::Rng;
use rechisel_firrtl::ir::{
    Circuit, Direction, Expression, Module, ModuleKind, Port, PrimOp, RegReset, SourceInfo,
    Statement, Type,
};

use crate::defects::{DefectInstance, DefectKind};
use crate::rng::rng_from;

/// Applies all `defects` to a clone of `reference`.
///
/// The clone shares `reference`'s modules: with no defects it shares all of them, and
/// the first defect copies the top module only (see [`apply_defect`]).
pub fn inject_defects(reference: &Circuit, defects: &[DefectInstance]) -> Circuit {
    let mut circuit = reference.clone();
    for d in defects {
        apply_defect(&mut circuit, *d);
    }
    circuit
}

/// Applies one defect to the circuit's top module, through
/// [`Circuit::top_module_mut`]: a top module shared with another circuit is copied
/// before the edit, so that circuit is left as it was.
pub fn apply_defect(circuit: &mut Circuit, instance: DefectInstance) {
    let Some(module) = circuit.top_module_mut() else {
        return;
    };
    let mut rng = rng_from(&[instance.seed, instance.kind as u64]);
    let applied = match instance.kind {
        DefectKind::Misspelling => inject_misspelling(module, &mut rng),
        DefectKind::ScalaCast => inject_scala_cast(module, &mut rng),
        DefectKind::BadApply => inject_bad_apply(module, &mut rng),
        DefectKind::AbstractReset => inject_abstract_reset(module),
        DefectKind::BareIo => inject_bare_io(module),
        DefectKind::MissingInit => inject_missing_init(module, &mut rng),
        DefectKind::TypeMismatch => inject_type_mismatch(module, &mut rng),
        DefectKind::UnsupportedCast => inject_unsupported_cast(module, &mut rng),
        DefectKind::OutOfBounds => inject_out_of_bounds(module, &mut rng),
        DefectKind::NoImplicitClock => inject_no_implicit_clock(module),
        DefectKind::CombLoop => inject_comb_loop(module),
        DefectKind::WrongOperator => inject_at_site(module, &mut rng, WRONG_OPERATOR),
        DefectKind::OffByOneIndex => inject_at_site(module, &mut rng, OFF_BY_ONE_INDEX),
        DefectKind::WrongConstant => inject_at_site(module, &mut rng, WRONG_CONSTANT),
        DefectKind::InvertedCondition => inject_inverted_condition(module, &mut rng),
        DefectKind::SwappedMuxArms => inject_at_site(module, &mut rng, SWAPPED_MUX_ARMS),
        DefectKind::WrongResetValue => inject_wrong_reset(module, &mut rng),
    };
    if !applied {
        // The chosen kind has no applicable site in this design; fall back to a defect
        // of the same category so the candidate is still broken.
        if instance.kind.is_syntax() {
            fallback_syntax_defect(module);
        } else {
            fallback_functional_defect(module, &mut rng);
        }
    }
}

// -------------------------------------------------------------------------------------
// helpers
// -------------------------------------------------------------------------------------

fn defect_info(module: &Module) -> SourceInfo {
    SourceInfo::new(format!("{}.scala", module.name), 90 + module.statement_count() as u32, 7)
}

/// Collects the number of top-level-or-nested `Connect` statements.
fn connect_count(module: &Module) -> usize {
    let mut n = 0;
    module.visit_statements(&mut |s| {
        if matches!(s, Statement::Connect { .. }) {
            n += 1;
        }
    });
    n
}

/// Applies `f` to the `index`-th connect statement (pre-order).
fn with_connect_mut(
    module: &mut Module,
    index: usize,
    mut f: impl FnMut(&mut Expression, &mut Expression),
) -> bool {
    let mut seen = 0usize;
    let mut done = false;
    module.visit_statements_mut(&mut |s| {
        if done {
            return;
        }
        if let Statement::Connect { loc, expr, .. } = s {
            if seen == index {
                f(loc, expr);
                done = true;
            }
            seen += 1;
        }
    });
    done
}

fn pick_connect(module: &Module, rng: &mut impl Rng) -> Option<usize> {
    let n = connect_count(module);
    if n == 0 {
        None
    } else {
        Some(rng.gen_range(0..n))
    }
}

fn fallback_syntax_defect(module: &mut Module) {
    // A reference to an undeclared signal: always a compile error (A1).
    let info = defect_info(module);
    module.body.push(Statement::Connect {
        loc: Expression::reference("undeclared_tmp"),
        expr: Expression::uint_lit(0),
        info,
    });
}

fn fallback_functional_defect(module: &mut Module, rng: &mut impl Rng) {
    // Invert the source of one connect whose sink is an output port: guaranteed to
    // change observable behaviour while staying compilable.
    let outputs: Vec<String> = module.outputs().map(|p| p.name.clone()).collect();
    let mut indices = Vec::new();
    let mut i = 0usize;
    module.visit_statements(&mut |s| {
        if let Statement::Connect { loc, .. } = s {
            if let Some(root) = loc.root_ref() {
                if outputs.iter().any(|o| o == root) {
                    indices.push(i);
                }
            }
            i += 1;
        }
    });
    let Some(&target) =
        indices.get(rng.gen_range(0..indices.len().max(1)).min(indices.len().saturating_sub(1)))
    else {
        return;
    };
    with_connect_mut(module, target, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::prim(PrimOp::Not, vec![original], vec![]);
    });
}

// -------------------------------------------------------------------------------------
// syntax defect injections (Table II)
// -------------------------------------------------------------------------------------

fn inject_misspelling(module: &mut Module, rng: &mut impl Rng) -> bool {
    let Some(index) = pick_connect(module, rng) else { return false };
    let choice = rng.gen_range(0..4usize);
    with_connect_mut(module, index, |_loc, expr| {
        let names = expr.referenced_names();
        if let Some(name) = names.get(choice.min(names.len().saturating_sub(1))) {
            let misspelled = misspell(name);
            let target = name.clone();
            expr.rename_refs(&|n| if n == target { Some(misspelled.clone()) } else { None });
        }
    })
}

fn misspell(name: &str) -> String {
    if name.len() > 2 {
        // Drop the second character: `signal` -> `sgnal`.
        let mut out = String::with_capacity(name.len());
        for (i, ch) in name.chars().enumerate() {
            if i != 1 {
                out.push(ch);
            }
        }
        out
    } else {
        format!("{name}x")
    }
}

fn inject_scala_cast(module: &mut Module, rng: &mut impl Rng) -> bool {
    let Some(index) = pick_connect(module, rng) else { return false };
    with_connect_mut(module, index, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::ScalaCast { arg: Box::new(original), target: "SInt".into() };
    })
}

fn inject_bad_apply(module: &mut Module, rng: &mut impl Rng) -> bool {
    let Some(index) = pick_connect(module, rng) else { return false };
    with_connect_mut(module, index, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::BadApply {
            target: Box::new(original),
            args: vec![Expression::uint_lit(0), Expression::uint_lit(2)],
        };
    })
}

fn inject_abstract_reset(module: &mut Module) -> bool {
    for port in module.ports.iter_mut() {
        if port.direction == Direction::Input
            && port.ty == Type::Bool
            && port.name != "reset"
            && port.name != "clock"
        {
            port.ty = Type::Reset;
            return true;
        }
    }
    // Add an unused abstract reset port.
    module.ports.push(Port::new("rst_in", Direction::Input, Type::Reset));
    true
}

fn inject_bare_io(module: &mut Module) -> bool {
    let Some(pos) = module
        .ports
        .iter()
        .position(|p| p.direction == Direction::Input && p.name != "clock" && p.name != "reset")
    else {
        return false;
    };
    let port = module.ports.remove(pos);
    module.body.insert(
        0,
        Statement::BareIoDecl {
            name: port.name,
            ty: port.ty,
            direction: port.direction,
            info: port.info,
        },
    );
    true
}

fn inject_missing_init(module: &mut Module, rng: &mut impl Rng) -> bool {
    // Wrap a randomly chosen top-level connect into a `when` without an `.otherwise`,
    // leaving the sink only partially initialized (B3). Registers are skipped: they do
    // not need full initialization, so wrapping their connect would not be a defect.
    let mut reg_names: Vec<String> = Vec::new();
    module.visit_statements(&mut |s| {
        if let Statement::Reg { name, .. } = s {
            reg_names.push(name.clone());
        }
    });
    let top_level_connects: Vec<usize> = module
        .body
        .iter()
        .enumerate()
        .filter(|(_, s)| match s {
            Statement::Connect { loc, .. } => {
                loc.root_ref().map(|root| !reg_names.iter().any(|r| r == root)).unwrap_or(false)
            }
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();
    if top_level_connects.is_empty() {
        return false;
    }
    let pick = top_level_connects[rng.gen_range(0..top_level_connects.len())];
    let cond = guard_condition(module);
    let info = defect_info(module);
    let original = module.body.remove(pick);
    module.body.insert(
        pick,
        Statement::When { cond, then_body: vec![original], else_body: Vec::new(), info },
    );
    true
}

/// A boolean condition built from the module's first data input.
fn guard_condition(module: &Module) -> Expression {
    let input =
        module.inputs().find(|p| p.name != "clock" && p.name != "reset" && p.ty.is_ground());
    match input {
        Some(p) if p.ty == Type::Bool => Expression::reference(&p.name),
        Some(p) => Expression::prim(
            PrimOp::Neq,
            vec![Expression::reference(&p.name), Expression::uint_lit(0)],
            vec![],
        ),
        None => Expression::reference("reset"),
    }
}

fn inject_type_mismatch(module: &mut Module, rng: &mut impl Rng) -> bool {
    let Some(index) = pick_connect(module, rng) else { return false };
    with_connect_mut(module, index, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::prim(PrimOp::AsSInt, vec![original], vec![]);
    })
}

fn inject_unsupported_cast(module: &mut Module, rng: &mut impl Rng) -> bool {
    let Some(index) = pick_connect(module, rng) else { return false };
    with_connect_mut(module, index, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::prim(PrimOp::AsClock, vec![original], vec![]);
    })
}

fn inject_out_of_bounds(module: &mut Module, rng: &mut impl Rng) -> bool {
    // Prefer an existing static index and push it out of range; otherwise extract an
    // out-of-range bit.
    let mut indexed_connects = Vec::new();
    let mut i = 0usize;
    module.visit_statements(&mut |s| {
        if let Statement::Connect { expr, .. } = s {
            let mut has_index = false;
            expr.visit(&mut |e| {
                if matches!(e, Expression::SubIndex(..)) {
                    has_index = true;
                }
            });
            if has_index {
                indexed_connects.push(i);
            }
            i += 1;
        }
    });
    if !indexed_connects.is_empty() {
        let target = indexed_connects[rng.gen_range(0..indexed_connects.len())];
        return with_connect_mut(module, target, |_loc, expr| {
            bump_first_index(expr);
        });
    }
    let Some(index) = pick_connect(module, rng) else { return false };
    with_connect_mut(module, index, |_loc, expr| {
        let original = expr.clone();
        *expr = Expression::prim(PrimOp::Bits, vec![original], vec![99, 99]);
    })
}

/// Sets every static index it reaches to 99: it enters the inner expression of a
/// `SubField`, the vector (not the index) of a `SubAccess`, and every child of a `Mux`
/// or `Prim`; it stops at a `SubIndex` and enters nothing else.
fn bump_first_index(expr: &mut Expression) {
    match expr {
        Expression::SubIndex(_, idx) => *idx = 99,
        Expression::SubAccess(inner, _) => bump_first_index(inner),
        Expression::SubField(..) | Expression::Mux { .. } | Expression::Prim { .. } => {
            expr.for_each_child_mut(&mut bump_first_index)
        }
        _ => {}
    }
}

fn inject_no_implicit_clock(module: &mut Module) -> bool {
    let mut has_implicit_reg = false;
    module.visit_statements(&mut |s| {
        if let Statement::Reg { clock, .. } = s {
            if matches!(clock, rechisel_firrtl::ir::ClockSpec::Implicit) {
                has_implicit_reg = true;
            }
        }
    });
    if !has_implicit_reg {
        return false;
    }
    module.kind = ModuleKind::RawModule;
    true
}

fn inject_comb_loop(module: &mut Module) -> bool {
    // Reuse an existing ground wire when possible; otherwise add one.
    let mut wire: Option<(String, bool)> = None;
    module.visit_statements(&mut |s| {
        if wire.is_none() {
            if let Statement::Wire { name, ty, .. } = s {
                if ty.is_ground() && !ty.is_clock() {
                    wire = Some((name.clone(), *ty == Type::Bool));
                }
            }
        }
    });
    let info = defect_info(module);
    let (name, is_bool) = match wire {
        Some(w) => w,
        None => {
            module.body.insert(
                0,
                Statement::Wire { name: "loop_tmp".into(), ty: Type::uint(4), info: info.clone() },
            );
            ("loop_tmp".to_string(), false)
        }
    };
    let op = if is_bool { PrimOp::Or } else { PrimOp::Add };
    module.body.push(Statement::Connect {
        loc: Expression::reference(&name),
        expr: Expression::prim(
            op,
            vec![Expression::reference(&name), Expression::uint_lit(1)],
            vec![],
        ),
        info,
    });
    true
}

// -------------------------------------------------------------------------------------
// functional defect injections
// -------------------------------------------------------------------------------------

fn swap_operator(op: PrimOp) -> Option<PrimOp> {
    use PrimOp::*;
    Some(match op {
        Add => Sub,
        Sub => Add,
        Mul => Add,
        And => Or,
        Or => And,
        Xor => Or,
        Eq => Neq,
        Neq => Eq,
        Lt => Geq,
        Leq => Gt,
        Gt => Leq,
        Geq => Lt,
        _ => return None,
    })
}

/// A functional defect that edits one node of one connect: the nodes it applies to
/// (`matches`) and what it does to such a node (`edit`).
#[derive(Clone, Copy)]
struct SiteEdit {
    matches: fn(&Expression) -> bool,
    edit: fn(&mut Expression),
}

/// An operator swapped for a related one (`+` for `-`, `<` for `>=`, ...).
const WRONG_OPERATOR: SiteEdit = SiteEdit {
    matches: |e| matches!(e, Expression::Prim { op, .. } if swap_operator(*op).is_some()),
    edit: |e| {
        if let Expression::Prim { op, .. } = e {
            *op = swap_operator(*op).unwrap_or(*op);
        }
    },
};

/// A positive static index one lower.
const OFF_BY_ONE_INDEX: SiteEdit = SiteEdit {
    matches: |e| matches!(e, Expression::SubIndex(_, idx) if *idx > 0),
    edit: |e| {
        if let Expression::SubIndex(_, idx) = e {
            *idx -= 1;
        }
    },
};

/// An unsigned literal with its low bit flipped.
const WRONG_CONSTANT: SiteEdit = SiteEdit {
    matches: |e| matches!(e, Expression::UIntLiteral { .. }),
    edit: |e| {
        if let Expression::UIntLiteral { value, .. } = e {
            *value ^= 1;
        }
    },
};

/// A mux with its arms swapped.
const SWAPPED_MUX_ARMS: SiteEdit = SiteEdit {
    matches: |e| matches!(e, Expression::Mux { .. }),
    edit: |e| {
        if let Expression::Mux { tval, fval, .. } = e {
            std::mem::swap(tval, fval);
        }
    },
};

/// Applies `defect` at one site: draws one of the connects whose expression holds a
/// node the defect matches, then edits the first such node of that connect. False,
/// drawing nothing, when no connect qualifies.
fn inject_at_site(module: &mut Module, rng: &mut impl Rng, defect: SiteEdit) -> bool {
    let Some(target) = pick_site(module, rng, defect.matches) else { return false };
    with_connect_mut(module, target, |_loc, expr| {
        edit_first(expr, defect);
    })
}

/// The one site picker: the index (among all connects, pre-order) of a connect whose
/// expression holds a node `matches` accepts, drawn with one `gen_range`; `None`,
/// drawing nothing, when there is none. The scan is [`Expression::visit`], which
/// enters every child.
fn pick_site(
    module: &Module,
    rng: &mut impl Rng,
    matches: fn(&Expression) -> bool,
) -> Option<usize> {
    let mut sites = Vec::new();
    let mut i = 0usize;
    module.visit_statements(&mut |s| {
        if let Statement::Connect { expr, .. } = s {
            let mut found = false;
            expr.visit(&mut |e| found |= matches(e));
            if found {
                sites.push(i);
            }
            i += 1;
        }
    });
    if sites.is_empty() {
        None
    } else {
        Some(sites[rng.gen_range(0..sites.len())])
    }
}

/// The one first-match walker: edits the first node, in pre-order, that `defect`
/// matches, and reports whether there was one. It descends each node's children in
/// [`Expression::for_each_child`] order, except that it does not enter `MemRead`,
/// `ScalaCast` or `BadApply`.
///
/// So, unlike the site picker's [`Expression::visit`], it can miss: a connect whose
/// only match lies under one of those is picked as a site, edited nowhere, and the
/// defect still counts as applied. Entering them would move every seeded outcome.
fn edit_first(expr: &mut Expression, defect: SiteEdit) -> bool {
    if (defect.matches)(expr) {
        (defect.edit)(expr);
        return true;
    }
    if matches!(
        expr,
        Expression::MemRead { .. } | Expression::ScalaCast { .. } | Expression::BadApply { .. }
    ) {
        return false;
    }
    let mut edited = false;
    expr.for_each_child_mut(&mut |child| edited = edited || edit_first(child, defect));
    edited
}

fn inject_inverted_condition(module: &mut Module, rng: &mut impl Rng) -> bool {
    let mut count = 0usize;
    module.visit_statements(&mut |s| {
        if matches!(s, Statement::When { .. }) {
            count += 1;
        }
    });
    if count == 0 {
        return false;
    }
    let target = rng.gen_range(0..count);
    let mut seen = 0usize;
    let mut done = false;
    module.visit_statements_mut(&mut |s| {
        if done {
            return;
        }
        if let Statement::When { cond, .. } = s {
            if seen == target {
                let original = cond.clone();
                *cond = Expression::prim(PrimOp::Not, vec![original], vec![]);
                done = true;
            }
            seen += 1;
        }
    });
    done
}

fn inject_wrong_reset(module: &mut Module, rng: &mut impl Rng) -> bool {
    let mut count = 0usize;
    module.visit_statements(&mut |s| {
        if matches!(s, Statement::Reg { reset: Some(_), .. }) {
            count += 1;
        }
    });
    if count == 0 {
        return false;
    }
    let target = rng.gen_range(0..count);
    let mut seen = 0usize;
    let mut done = false;
    module.visit_statements_mut(&mut |s| {
        if done {
            return;
        }
        if let Statement::Reg { reset: Some(RegReset { init, .. }), .. } = s {
            if seen == target {
                if let Expression::UIntLiteral { value, .. } = init {
                    *value ^= 1;
                } else {
                    let original = init.clone();
                    *init = Expression::prim(PrimOp::Not, vec![original], vec![]);
                }
                done = true;
            }
            seen += 1;
        }
    });
    done
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use rechisel_firrtl::check_circuit;
    use rechisel_firrtl::diagnostics::ErrorCode;
    use rechisel_hcl::prelude::*;

    /// A reference design rich enough that every defect kind has an injection site.
    fn rich_reference() -> Circuit {
        let mut m = ModuleBuilder::new("Rich");
        let en = m.input("en", Type::bool());
        let a = m.input("a", Type::uint(4));
        let b = m.input("b", Type::uint(4));
        let sel = m.input("sel", Type::bool());
        let out = m.output("out", Type::uint(8));
        let flag = m.output("flag", Type::bool());

        let v = m.vec_init("v", Type::bool(), &[a.bit(0), a.bit(1), b.bit(0), b.bit(1)]);
        let picked = mux(&sel, &a, &b);
        let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
        m.when_else(
            &en,
            |m| {
                let next = count.add(&picked).bits(7, 0);
                m.connect(&count, &next);
            },
            |m| {
                m.connect(&count, &count);
            },
        );
        m.connect(&out, &count);
        m.connect(&flag, &v.index(3).and(&a.eq(&Signal::lit_w(3, 4))));
        m.into_circuit()
    }

    #[test]
    fn reference_is_clean() {
        let report = check_circuit(&rich_reference());
        assert!(!report.has_errors(), "{report:?}");
    }

    #[test]
    fn every_syntax_defect_produces_a_compile_error() {
        for (i, kind) in DefectKind::syntax_kinds().iter().enumerate() {
            let defect = DefectInstance::new(*kind, 1000 + i as u64);
            let broken = inject_defects(&rich_reference(), &[defect]);
            let report = check_circuit(&broken);
            assert!(report.has_errors(), "syntax defect {kind:?} did not produce a compile error");
        }
    }

    #[test]
    fn syntax_defects_mostly_produce_their_expected_code() {
        let mut matches = 0;
        let kinds = DefectKind::syntax_kinds();
        for (i, kind) in kinds.iter().enumerate() {
            let defect = DefectInstance::new(*kind, 2000 + i as u64);
            let broken = inject_defects(&rich_reference(), &[defect]);
            let report = check_circuit(&broken);
            let expected = kind.expected_code().unwrap();
            if report.errors().any(|d| d.code == expected) {
                matches += 1;
            }
        }
        // A few kinds legitimately surface as a related class (e.g. an unsupported cast
        // can manifest as a connection type mismatch), but most must match exactly.
        assert!(matches >= kinds.len() - 3, "only {matches}/{} kinds matched", kinds.len());
    }

    #[test]
    fn functional_defects_compile_cleanly() {
        for (i, kind) in DefectKind::functional_kinds().iter().enumerate() {
            let defect = DefectInstance::new(*kind, 3000 + i as u64);
            let broken = inject_defects(&rich_reference(), &[defect]);
            let report = check_circuit(&broken);
            assert!(
                !report.has_errors(),
                "functional defect {kind:?} unexpectedly broke compilation: {report:?}"
            );
        }
    }

    #[test]
    fn functional_defects_change_behaviour() {
        use rechisel_firrtl::lower_circuit;
        use rechisel_sim::{run_testbench, Testbench};
        let reference = lower_circuit(&rich_reference()).unwrap();
        let tb = Testbench::random_for(&reference, 24, 1, 99);
        let mut changed = 0;
        let kinds = DefectKind::functional_kinds();
        for (i, kind) in kinds.iter().enumerate() {
            let defect = DefectInstance::new(*kind, 4000 + i as u64);
            let broken = inject_defects(&rich_reference(), &[defect]);
            let dut = lower_circuit(&broken).unwrap();
            let report = run_testbench(&dut, &reference, &tb).unwrap();
            if !report.passed() {
                changed += 1;
            }
        }
        assert!(
            changed >= kinds.len() - 1,
            "only {changed}/{} kinds changed behaviour",
            kinds.len()
        );
    }

    #[test]
    fn injection_is_deterministic() {
        let d = DefectInstance::new(DefectKind::MissingInit, 7);
        let a = inject_defects(&rich_reference(), &[d]);
        let b = inject_defects(&rich_reference(), &[d]);
        assert_eq!(a, b);
        let c =
            inject_defects(&rich_reference(), &[DefectInstance::new(DefectKind::MissingInit, 8)]);
        // Different seed may pick a different site; at minimum it must stay defective.
        assert!(check_circuit(&c).has_errors());
    }

    #[test]
    fn missing_init_produces_b3() {
        let d = DefectInstance::new(DefectKind::MissingInit, 11);
        let broken = inject_defects(&rich_reference(), &[d]);
        let report = check_circuit(&broken);
        assert!(report.errors().any(
            |e| e.code == ErrorCode::NotFullyInitialized || e.code == ErrorCode::UndrivenOutput
        ));
    }

    #[test]
    fn multiple_defects_compose() {
        let defects = [
            DefectInstance::new(DefectKind::MissingInit, 1),
            DefectInstance::new(DefectKind::WrongOperator, 2),
        ];
        let broken = inject_defects(&rich_reference(), &defects);
        assert!(check_circuit(&broken).has_errors());
        // Removing the syntax defect leaves a compilable but functionally wrong design.
        let partially_fixed = inject_defects(&rich_reference(), &defects[1..]);
        assert!(!check_circuit(&partially_fixed).has_errors());
    }

    #[test]
    fn a_site_under_a_mem_read_is_picked_but_not_edited() {
        // The only literal sits under a `MemRead`: the site picker finds it, so the
        // fallback never runs, and `edit_first` does not enter the read.
        let mut m = ModuleBuilder::new("Ram");
        let wr = m.input("wr", Type::bool());
        let addr = m.input("addr", Type::uint(3));
        let data = m.input("data", Type::uint(4));
        let out = m.output("out", Type::uint(4));
        let zero = m.output("zero", Type::uint(4));
        let mem = m.mem("mem", Type::uint(4), 8);
        m.when(&wr, |m| m.mem_write(&mem, &addr, &data));
        m.connect(&out, &mem.read(&addr));
        m.connect(&zero, &mem.read(&Signal::lit_w(0, 3)));
        let reference = m.into_circuit();
        for seed in 0..20 {
            let defect = DefectInstance::new(DefectKind::WrongConstant, seed);
            assert_eq!(inject_defects(&reference, &[defect]), reference, "seed {seed}");
        }
    }

    #[test]
    fn injection_copies_only_the_top_module_and_never_edits_the_reference() {
        // `rich_reference` plus a second module that no defect touches.
        let mut child = ModuleBuilder::new("Inv");
        let x = child.input("x", Type::bool());
        let y = child.output("y", Type::bool());
        child.connect(&y, &x.not());
        let rich = rich_reference();
        let reference = Circuit::new(
            rich.top.clone(),
            vec![rich.top_module().unwrap().clone(), child.finish()],
        );
        let shared = |a: &Circuit, b: &Circuit, i: usize| Arc::ptr_eq(&a.modules[i], &b.modules[i]);

        let clean = inject_defects(&reference, &[]);
        assert!(shared(&clean, &reference, 0) && shared(&clean, &reference, 1));

        let located = reference.located_fingerprint();
        let kinds = DefectKind::syntax_kinds().iter().chain(DefectKind::functional_kinds());
        for (i, kind) in kinds.enumerate() {
            let broken = inject_defects(&reference, &[DefectInstance::new(*kind, 5000 + i as u64)]);
            assert_eq!(reference.located_fingerprint(), located, "{kind:?} edited the reference");
            assert!(!shared(&broken, &reference, 0), "{kind:?}");
            assert!(shared(&broken, &reference, 1), "{kind:?} copied the untouched module");
        }
    }
}
