//! Clock and reset inference checks (Table II rows B1 and C1).
//!
//! * A register that relies on the implicit clock inside a `RawModule` (our model of a
//!   multi-clock design without `withClock`) produces "No implicit clock" — row C1.
//! * A port or wire with the abstract `Reset` type that the compiler cannot infer to a
//!   concrete synchronous/asynchronous reset produces the `InferResets` error — row B1.
//!   In this dialect only the implicit `reset` port of a `Module` is inferrable.

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, ClockSpec, Expression, Module, ModuleKind, Statement, Type};
use crate::typeenv::{Elaborated, ExprTyper};

/// Runs the clock/reset checks over `module`, elaborating it first.
pub fn check_clocking(module: &Module, circuit: &Circuit) -> DiagnosticReport {
    run(module, circuit, &Elaborated::new(module, circuit))
}

/// The clock/reset checks over `module`, given its elaboration.
pub(crate) fn run(
    module: &Module,
    _circuit: &Circuit,
    elaborated: &Elaborated,
) -> DiagnosticReport {
    let symbols = elaborated.symbols();
    let mut report = DiagnosticReport::new();

    // --- C1: registers and memory write ports need a clock ----------------------------
    module.visit_statements(&mut |stmt| {
        let (name, clock, info, is_mem_write) = match stmt {
            Statement::Reg { name, clock, info, .. } => (name, clock, info, false),
            Statement::MemWrite { mem: name, clock, info, .. } => (name, clock, info, true),
            _ => return,
        };
        {
            match clock {
                ClockSpec::Implicit => {
                    if module.kind == ModuleKind::RawModule {
                        let suggestion = if is_mem_write {
                            format!(
                                "wrap the write in withClock(<clock>) {{ {name}.write(...) }} \
                                 or declare the memory inside a Module with an implicit clock"
                            )
                        } else {
                            format!(
                                "wrap the register in withClock(<clock>) {{ RegNext(...) }} or \
                                 declare {name} inside a Module with an implicit clock"
                            )
                        };
                        report.push(
                            Diagnostic::error(
                                ErrorCode::NoImplicitClock,
                                info.clone(),
                                "no implicit clock".to_string(),
                            )
                            .with_suggestion(suggestion)
                            .with_subject(name.clone()),
                        );
                    } else if module.port("clock").is_none() {
                        report.push(
                            Diagnostic::error(
                                ErrorCode::NoImplicitClock,
                                info.clone(),
                                "module has no clock port for the implicit clock".to_string(),
                            )
                            .with_subject(name.clone()),
                        );
                    }
                }
                ClockSpec::Explicit(expr) => match ExprTyper::new(symbols).at(info).infer(expr) {
                    Ok(Type::Clock) => {}
                    Ok(other) => {
                        report.push(
                            Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                info.clone(),
                                format!(
                                    "withClock requires a Clock, found {}",
                                    other.chisel_name()
                                ),
                            )
                            .with_suggestion("convert with .asClock if the source is a Bool")
                            .with_subject(name.clone()),
                        );
                    }
                    Err(d) => report.push(d),
                },
            }
        }
    });

    // --- C1 (sequential reads): `read_sync` registers need a clock -------------------
    // The implicit read register created by lowering uses the port's explicit read
    // clock when one is given and the module's implicit clock otherwise, so a
    // clock-less sequential read inside a RawModule (or a module without a clock
    // port) has nothing to latch on.
    if module.kind == ModuleKind::RawModule || module.port("clock").is_none() {
        module.visit_statements(&mut |stmt| {
            stmt.for_each_expr(&mut |expr| {
                expr.visit(&mut |e| {
                    if let Expression::MemRead { mem, sync: true, clock: None, .. } = e {
                        report.push(
                            Diagnostic::error(
                                ErrorCode::NoImplicitClock,
                                stmt.info().clone(),
                                format!(
                                    "sequential read of memory {mem} requires the implicit clock"
                                ),
                            )
                            .with_suggestion(
                                "give the port an explicit read clock (mem_read_sync under \
                                 with_clock), use a combinational read (mem.read), or declare \
                                 the memory inside a Module with an implicit clock",
                            )
                            .with_subject(mem.clone()),
                        );
                    }
                })
            });
        });
    }

    // --- B1: abstract resets must be inferrable --------------------------------------
    for port in &module.ports {
        if contains_abstract_reset(&port.ty) {
            let inferrable = module.kind == ModuleKind::Module && port.name == "reset";
            if !inferrable {
                report.push(
                    Diagnostic::error(
                        ErrorCode::AbstractResetNotInferred,
                        port.info.clone(),
                        format!(
                            "a port {} with abstract reset type was unable to be inferred by \
                             InferResets",
                            port.name
                        ),
                    )
                    .with_suggestion("declare the port as Bool() or AsyncReset() explicitly")
                    .with_subject(port.name.clone()),
                );
            }
        }
    }
    module.visit_statements(&mut |stmt| {
        if let Statement::Wire { name, ty, info } = stmt {
            if contains_abstract_reset(ty) {
                report.push(
                    Diagnostic::error(
                        ErrorCode::AbstractResetNotInferred,
                        info.clone(),
                        format!(
                            "a wire {name} with abstract reset type was unable to be inferred by \
                             InferResets"
                        ),
                    )
                    .with_suggestion("declare the wire as Bool() or AsyncReset() explicitly")
                    .with_subject(name.clone()),
                );
            }
        }
    });

    report
}

/// True if the type contains the abstract `Reset` type anywhere.
fn contains_abstract_reset(ty: &Type) -> bool {
    match ty {
        Type::Reset => true,
        Type::Vec(elem, _) => contains_abstract_reset(elem),
        Type::Bundle(fields) => fields.iter().any(|f| contains_abstract_reset(&f.ty)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Direction, Expression, Port, SourceInfo};

    #[test]
    fn implicit_clock_in_module_is_fine() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m);
        assert!(!check_clocking(c.top_module().unwrap(), &c).has_errors());
    }

    #[test]
    fn implicit_clock_in_rawmodule_reports_c1() {
        let mut m = Module::new("T", ModuleKind::RawModule);
        m.ports.push(Port::new("clk", Direction::Input, Type::Clock));
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::new("T.scala", 7, 5),
        });
        let c = Circuit::single(m);
        let report = check_clocking(c.top_module().unwrap(), &c);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::NoImplicitClock);
        assert!(err.suggestion.as_ref().unwrap().contains("withClock"));
    }

    #[test]
    fn explicit_clock_of_wrong_type_rejected() {
        let mut m = Module::new("T", ModuleKind::RawModule);
        m.ports.push(Port::new("clk_bits", Direction::Input, Type::uint(1)));
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Explicit(Expression::reference("clk_bits")),
            reset: None,
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m);
        let report = check_clocking(c.top_module().unwrap(), &c);
        assert!(report.errors().any(|d| d.code == ErrorCode::TypeMismatch));
    }

    #[test]
    fn explicit_clock_of_clock_type_accepted() {
        let mut m = Module::new("T", ModuleKind::RawModule);
        m.ports.push(Port::new("clk", Direction::Input, Type::Clock));
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Explicit(Expression::reference("clk")),
            reset: None,
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m);
        assert!(!check_clocking(c.top_module().unwrap(), &c).has_errors());
    }

    #[test]
    fn abstract_reset_port_reports_b1() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("rst", Direction::Input, Type::Reset));
        let c = Circuit::single(m);
        let report = check_clocking(c.top_module().unwrap(), &c);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::AbstractResetNotInferred);
        assert!(err.message.contains("InferResets"));
    }

    #[test]
    fn implicit_abstract_reset_is_inferrable() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::Reset));
        let c = Circuit::single(m);
        assert!(!check_clocking(c.top_module().unwrap(), &c).has_errors());
    }
}
