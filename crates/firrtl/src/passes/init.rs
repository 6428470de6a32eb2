//! Initialization analysis (Table II row B3).
//!
//! Chisel/FIRRTL require every wire and output port to be driven on every control path;
//! a signal assigned only inside some `when` branches would synthesize to an unintended
//! latch, so the compiler rejects it with "Reference `w` not fully initialized". This
//! pass reproduces that analysis: it computes, for every ground sink path, whether the
//! module's statements *fully* cover it (assign it on all paths) and whether they touch
//! it at all, then reports:
//!
//! * [`ErrorCode::NotFullyInitialized`] for wires (and partially driven outputs /
//!   instance inputs), and
//! * [`ErrorCode::UndrivenOutput`] for output ports that are never driven anywhere.

use std::collections::BTreeMap;

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Direction, Module, SourceInfo, Statement, Type};
use crate::paths::{ground_paths, static_path};
use crate::typeenv::{Elaborated, ExprTyper};

/// Runs the initialization analysis over `module`, elaborating it first.
pub fn check_initialization(module: &Module, circuit: &Circuit) -> DiagnosticReport {
    run(module, circuit, &Elaborated::new(module, circuit))
}

/// The initialization analysis over `module`, given its elaboration.
pub(crate) fn run(module: &Module, circuit: &Circuit, elaborated: &Elaborated) -> DiagnosticReport {
    let symbols = elaborated.symbols();
    let mut report = DiagnosticReport::new();

    // Required ground paths: (path, declaration site, requirement kind).
    #[derive(PartialEq)]
    enum Requirement {
        Output,
        Wire,
        InstanceInput,
    }
    let mut required: Vec<(String, SourceInfo, Requirement, String)> = Vec::new();

    for port in module.ports.iter().filter(|p| p.direction == Direction::Output) {
        for (path, _) in ground_paths(&port.name, &port.ty) {
            required.push((path, port.info.clone(), Requirement::Output, port.name.clone()));
        }
    }
    module.visit_statements(&mut |stmt| match stmt {
        Statement::Wire { name, ty, info } => {
            for (path, _) in ground_paths(name, ty) {
                required.push((path, info.clone(), Requirement::Wire, name.clone()));
            }
        }
        Statement::Instance { name, module: child_name, info } => {
            if let Some(child) = circuit.module(child_name) {
                for port in child.ports.iter().filter(|p| p.direction == Direction::Input) {
                    // Implicit clock/reset ports are auto-wired by lowering.
                    if port.name == "clock" || port.name == "reset" {
                        continue;
                    }
                    for (path, _) in ground_paths(&format!("{name}.{}", port.name), &port.ty) {
                        required.push((
                            path,
                            info.clone(),
                            Requirement::InstanceInput,
                            name.clone(),
                        ));
                    }
                }
            }
        }
        _ => {}
    });

    let expand = |loc: &crate::ir::Expression| -> Vec<String> {
        let Some(path) = static_path(loc) else { return Vec::new() };
        match ExprTyper::new(symbols).infer(loc) {
            Ok(ty) => ground_paths(&path, &ty).into_iter().map(|(p, _)| p).collect(),
            Err(_) => vec![path],
        }
    };

    let covered = coverage(&module.body, &expand);
    for (path, info, req, subject) in required {
        let is_touched = match covered.get(&path) {
            Some(true) => continue,
            Some(false) => true,
            None => false,
        };
        match req {
            Requirement::Wire => {
                report.push(
                    Diagnostic::error(
                        ErrorCode::NotFullyInitialized,
                        info,
                        format!("reference {path} is not fully initialized"),
                    )
                    .with_suggestion(
                        "provide a default value when defining the signal, e.g. \
                         WireDefault(0.U), or add an .otherwise branch",
                    )
                    .with_subject(subject),
                );
            }
            Requirement::Output => {
                if is_touched {
                    report.push(
                        Diagnostic::error(
                            ErrorCode::NotFullyInitialized,
                            info,
                            format!("output {path} is not fully initialized"),
                        )
                        .with_suggestion(
                            "assign the output unconditionally before the when block, or add an \
                             .otherwise branch",
                        )
                        .with_subject(subject),
                    );
                } else {
                    report.push(
                        Diagnostic::error(
                            ErrorCode::UndrivenOutput,
                            info,
                            format!("output port {path} is never driven"),
                        )
                        .with_subject(subject),
                    );
                }
            }
            Requirement::InstanceInput => {
                report.push(
                    Diagnostic::error(
                        ErrorCode::NotFullyInitialized,
                        info,
                        format!("instance input {path} is not fully initialized"),
                    )
                    .with_subject(subject),
                );
            }
        }
    }
    report
}

/// Every ground path assigned on *any* control path through `stmts`, mapped to
/// whether it is assigned on *every* control path.
fn coverage(
    stmts: &[Statement],
    expand: &impl Fn(&crate::ir::Expression) -> Vec<String>,
) -> BTreeMap<String, bool> {
    let mut covered: BTreeMap<String, bool> = BTreeMap::new();
    for s in stmts {
        match s {
            Statement::Connect { loc, .. } | Statement::Invalidate { loc, .. } => {
                covered.extend(expand(loc).into_iter().map(|path| (path, true)));
            }
            Statement::When { then_body, else_body, .. } => {
                let mut otherwise = coverage(else_body, expand);
                for (path, full) in coverage(then_body, expand) {
                    let full = otherwise.remove(&path) == Some(true) && full;
                    *covered.entry(path).or_default() |= full;
                }
                for (path, _) in otherwise {
                    covered.entry(path).or_default();
                }
            }
            _ => {}
        }
    }
    covered
}

/// Convenience used by tests and the knowledge base: returns true when `ty` needs
/// initialization tracking at all.
pub fn needs_initialization(ty: &Type) -> bool {
    !matches!(ty, Type::Clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expression, ModuleKind, Port};

    fn base_module() -> Module {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("en", Direction::Input, Type::bool()));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(4)));
        m
    }

    fn run(m: Module) -> DiagnosticReport {
        let c = Circuit::single(m);
        check_initialization(c.top_module().unwrap(), &c)
    }

    #[test]
    fn fully_driven_output_is_clean() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::uint_lit(1),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn undriven_output_reported() {
        let m = base_module();
        let report = run(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::UndrivenOutput));
    }

    #[test]
    fn partially_driven_wire_reported() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::new("T.scala", 5, 3),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("en"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(0),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![],
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("w"),
            info: SourceInfo::unknown(),
        });
        let report = run(m);
        let err = report.errors().find(|d| d.code == ErrorCode::NotFullyInitialized).unwrap();
        assert!(err.message.contains("w"));
        assert!(err.suggestion.as_ref().unwrap().contains("WireDefault"));
    }

    #[test]
    fn wire_covered_by_both_branches_is_clean() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("en"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(0),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(1),
                info: SourceInfo::unknown(),
            }],
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("w"),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn default_before_when_covers_wire() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("w"),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("en"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("w"),
                expr: Expression::uint_lit(1),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![],
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("w"),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn vector_wire_elementwise_coverage() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "v".into(),
            ty: Type::vec(Type::bool(), 2),
            info: SourceInfo::unknown(),
        });
        // Only element 0 assigned.
        m.body.push(Statement::Connect {
            loc: Expression::SubIndex(Box::new(Expression::reference("v")), 0),
            expr: Expression::uint_lit(1),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        let report = run(m);
        let errs: Vec<_> =
            report.errors().filter(|d| d.code == ErrorCode::NotFullyInitialized).collect();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("v[1]"));
    }

    #[test]
    fn aggregate_connect_covers_all_elements() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "v".into(),
            ty: Type::vec(Type::bool(), 2),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Wire {
            name: "u".into(),
            ty: Type::vec(Type::bool(), 2),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::SubIndex(Box::new(Expression::reference("u")), 0),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::SubIndex(Box::new(Expression::reference("u")), 1),
            expr: Expression::uint_lit(1),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("v"),
            expr: Expression::reference("u"),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn registers_do_not_need_initialization() {
        let mut m = base_module();
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: crate::ir::ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("r"),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }
}
