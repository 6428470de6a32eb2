//! Full-circuit checking: the "Chisel elaboration + FIRRTL compilation" stage of the
//! ReChisel workflow (step ❷ of Fig. 2).
//!
//! [`check_circuit`] runs every pass over every module and returns the collected
//! diagnostics. An empty error set means the design can be lowered to a netlist and
//! emitted as Verilog.

use crate::diagnostics::DiagnosticReport;
use crate::ir::Circuit;
use crate::pipeline::PassManager;

/// Checks a full circuit with the standard passes ([`PassManager::standard`]).
pub fn check_circuit(circuit: &Circuit) -> DiagnosticReport {
    PassManager::standard().run(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::ErrorCode;
    use crate::ir::{Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type};

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
    fn clean_circuit_passes_all_checks() {
        let report = check_circuit(&passthrough());
        assert!(!report.has_errors(), "unexpected diagnostics: {report:?}");
    }

    #[test]
    fn missing_top_module_reported() {
        let c = Circuit::new("Ghost", vec![]);
        let report = check_circuit(&c);
        assert!(report.errors().any(|d| d.code == ErrorCode::MissingTopModule));
    }
}
