//! Generation candidates.
//!
//! A [`Candidate`] is one version of the Chisel code produced by the Generator agent:
//! the elaborated circuit, whose pseudo-Chisel source text ([`Candidate::source`]) is
//! what traces and the case-study walkthrough (paper Fig. 8) show.

use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::print_chisel;

/// One generated design version.
///
/// The source text is rendered on demand, not stored: the reflection loop produces
/// and clones many candidates and reads none of their text. A clone shares the
/// circuit's modules (see [`Circuit`]), so keeping a candidate in the trace copies no
/// module.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Unique id within a workflow run (used by the synthetic LLM to track its internal
    /// defect bookkeeping; a real LLM backend can ignore it).
    pub id: u64,
    /// Which reflection iteration produced this candidate (0 = zero-shot).
    pub iteration: u32,
    /// The elaborated design.
    pub circuit: Circuit,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(id: u64, iteration: u32, circuit: Circuit) -> Self {
        Self { id, iteration, circuit }
    }

    /// Pseudo-Chisel source text of the design, rendered from the circuit.
    pub fn source(&self) -> String {
        print_chisel(&self.circuit)
    }

    /// Line count of the rendered source (a rough size proxy reported by benches).
    pub fn source_lines(&self) -> usize {
        self.source().lines().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::ir::{
        Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type,
    };

    #[test]
    fn candidate_renders_source() {
        let mut m = Module::new("Tiny", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("a", Direction::Input, Type::bool()));
        m.ports.push(Port::new("y", Direction::Output, Type::bool()));
        m.body.push(Statement::Connect {
            loc: Expression::reference("y"),
            expr: Expression::reference("a"),
            info: SourceInfo::unknown(),
        });
        let c = Candidate::new(1, 0, Circuit::single(m));
        assert!(c.source().contains("class Tiny extends Module"));
        assert!(c.source_lines() > 3);
        assert_eq!(c.iteration, 0);
    }
}
