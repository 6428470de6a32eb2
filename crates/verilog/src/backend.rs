//! The Verilog [`EmitBackend`] — the production backend of the compile pipeline.

use rechisel_firrtl::diagnostics::{Diagnostic, ErrorCode};
use rechisel_firrtl::ir::{Circuit, SourceInfo};
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::pipeline::EmitBackend;

use crate::emit::emit_verilog;

/// Emits synthesizable Verilog from the lowered netlist.
///
/// This is the backend the ReChisel workflow uses for the artifact it hands to the
/// simulator; `rechisel_firrtl::FirrtlBackend` is the debugging/second backend proving
/// the [`EmitBackend`] seam.
///
/// # Example
///
/// ```
/// use rechisel_firrtl::pipeline::Pipeline;
/// use rechisel_hcl::prelude::*;
/// use rechisel_verilog::VerilogBackend;
///
/// let mut m = ModuleBuilder::new("Inverter");
/// let a = m.input("a", Type::bool());
/// let y = m.output("y", Type::bool());
/// m.connect(&y, &a.not());
///
/// let pipeline = Pipeline::new(VerilogBackend);
/// assert_eq!(pipeline.backend().name(), "verilog");
/// let (_netlist, verilog) = pipeline.run(&m.into_circuit()).expect("clean design");
/// assert!(verilog.contains("module Inverter"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct VerilogBackend;

impl EmitBackend for VerilogBackend {
    fn name(&self) -> &'static str {
        "verilog"
    }

    fn file_extension(&self) -> &'static str {
        "v"
    }

    fn emit(&self, _circuit: &Circuit, netlist: &Netlist) -> Result<String, Diagnostic> {
        emit_verilog(netlist).map_err(|e| {
            Diagnostic::error(
                ErrorCode::WidthInferenceFailure,
                SourceInfo::unknown(),
                format!("verilog emission failed: {e}"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::pipeline::{FirrtlBackend, Pipeline};
    use rechisel_hcl::prelude::*;

    #[test]
    fn verilog_and_firrtl_backends_emit_from_the_same_netlist() {
        let mut m = ModuleBuilder::new("Buf");
        let a = m.input("a", Type::bool());
        let y = m.output("y", Type::bool());
        m.connect(&y, &a);
        let circuit = m.into_circuit();

        let (netlist, verilog) = Pipeline::new(VerilogBackend).run(&circuit).unwrap();
        assert!(verilog.contains("module Buf"));
        assert_eq!(verilog, emit_verilog(&netlist).unwrap());

        let (firrtl_netlist, firrtl) = Pipeline::new(FirrtlBackend).run(&circuit).unwrap();
        assert_eq!(firrtl_netlist, netlist);
        assert!(firrtl.starts_with("circuit Buf"));
    }
}
