//! Width inference checking.
//!
//! Ports must carry explicit widths. Wires and registers declared without a width
//! (`UInt()` / `SInt()`) must be inferrable from an unconditional driving connection;
//! otherwise the pass reports [`ErrorCode::WidthInferenceFailure`].
//!
//! The inference itself runs once per module, when the module is elaborated
//! ([`Elaborated::inferred_widths`]). This pass reads it, and lowering reads the top
//! module's: it rewrites the width-less declarations on a copy of the module only
//! when some width was inferred.

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Module, Statement};
use crate::typeenv::{has_known_width, Elaborated};

/// Runs the width checks over `module`, elaborating it first.
pub fn check_widths(module: &Module, circuit: &Circuit) -> DiagnosticReport {
    run(module, circuit, &Elaborated::new(module, circuit))
}

/// The width checks over `module`, given its elaboration.
pub(crate) fn run(
    module: &Module,
    _circuit: &Circuit,
    elaborated: &Elaborated,
) -> DiagnosticReport {
    let mut report = DiagnosticReport::new();
    for port in &module.ports {
        if !has_known_width(&port.ty) {
            report.push(
                Diagnostic::error(
                    ErrorCode::WidthInferenceFailure,
                    port.info.clone(),
                    format!("port {} must have an explicit width", port.name),
                )
                .with_subject(port.name.clone()),
            );
        }
    }
    let inferred = elaborated.inferred_widths();
    module.visit_statements(&mut |stmt| match stmt {
        // Memory words are storage: their width is never inferrable from a driver, so
        // the declaration must be explicit.
        Statement::Mem { name, ty, info, .. } if !has_known_width(ty) => {
            report.push(
                Diagnostic::error(
                    ErrorCode::WidthInferenceFailure,
                    info.clone(),
                    format!("memory {name} must declare an explicit word width"),
                )
                .with_suggestion("declare an explicit width, e.g. UInt(8.W)")
                .with_subject(name.clone()),
            );
        }
        Statement::Wire { name, ty, info } | Statement::Reg { name, ty, info, .. }
            if !has_known_width(ty) && !inferred.contains_key(name) =>
        {
            report.push(
                Diagnostic::error(
                    ErrorCode::WidthInferenceFailure,
                    info.clone(),
                    format!(
                        "unable to infer a width for {name}; it is never driven by a value \
                             with a known width"
                    ),
                )
                .with_suggestion("declare an explicit width, e.g. UInt(8.W)")
                .with_subject(name.clone()),
            );
        }
        _ => {}
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Direction, Expression, ModuleKind, Port, SourceInfo, Type};

    fn check(m: Module) -> DiagnosticReport {
        let c = Circuit::single(m);
        check_widths(c.top_module().unwrap(), &c)
    }

    #[test]
    fn explicit_widths_are_clean() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("a", Direction::Input, Type::uint(4)));
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::uint(4),
            info: SourceInfo::unknown(),
        });
        assert!(!check(m).has_errors());
    }

    #[test]
    fn widthless_port_rejected() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("a", Direction::Input, Type::UInt(None)));
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::WidthInferenceFailure));
    }

    #[test]
    fn wire_width_inferred_from_driver() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("a", Direction::Input, Type::uint(7)));
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::UInt(None),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("w"),
            expr: Expression::reference("a"),
            info: SourceInfo::unknown(),
        });
        assert!(!check(m.clone()).has_errors());
        let c = Circuit::single(m);
        let elaborated = Elaborated::new(c.top_module().unwrap(), &c);
        assert_eq!(elaborated.inferred_widths().get("w"), Some(&Type::uint(7)));
    }

    #[test]
    fn undriven_widthless_wire_rejected() {
        let mut m = Module::new("T", ModuleKind::Module);
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::UInt(None),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::WidthInferenceFailure);
        assert!(err.suggestion.is_some());
    }
}
