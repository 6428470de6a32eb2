//! Combinational-loop detection (Table II row C2).
//!
//! A cycle through purely combinational definitions (wires, nodes, output ports) makes
//! the design unsynthesizable and its simulation value undefined; the FIRRTL compiler
//! rejects it with "Detected combinational cycle in a FIRRTL module" and a sample path.
//! Registers break cycles because their value only updates at clock edges.
//!
//! The analysis works on ground paths: `v[0] := v[1]` is *not* a loop, while
//! `a := a + 1.U` is. Dynamic vector accesses are handled conservatively (a dynamic
//! read of `v` depends on every element of `v`).

use std::collections::{BTreeMap, BTreeSet};

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Expression, Module, SourceInfo, Statement, Type};
use crate::paths::{ground_paths, static_path};
use crate::typeenv::{Elaborated, ExprTyper, SymbolKind, SymbolTable};

/// Runs combinational-loop detection over `module`, elaborating it first.
pub fn check_combinational_loops(module: &Module, circuit: &Circuit) -> DiagnosticReport {
    run(module, circuit, &Elaborated::new(module, circuit))
}

/// The combinational-loop detection over `module`, given its elaboration.
pub(crate) fn run(
    module: &Module,
    _circuit: &Circuit,
    elaborated: &Elaborated,
) -> DiagnosticReport {
    let symbols = elaborated.symbols();
    let mut graph = DependencyGraph::default();
    let mut builder = GraphBuilder { symbols, graph: &mut graph };
    builder.build(&module.body, &[]);

    let mut report = DiagnosticReport::new();
    if let Some(cycle) = graph.find_cycle() {
        let path = cycle.join(" <- ");
        let head = cycle.first().cloned().unwrap_or_default();
        report.push(
            Diagnostic::error(
                ErrorCode::CombinationalLoop,
                graph.location_of(&head).unwrap_or_else(SourceInfo::unknown),
                format!(
                    "detected combinational cycle in a FIRRTL module. Sample path: {{{path} <- {head}}}"
                ),
            )
            .with_suggestion("break the cycle with a register (RegNext) or restructure the logic")
            .with_subject(head),
        );
    }
    report
}

/// Dependency edges between ground signal paths: `edges[sink]` holds all paths the sink
/// combinationally depends on.
#[derive(Default)]
struct DependencyGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
    locations: BTreeMap<String, SourceInfo>,
}

impl DependencyGraph {
    fn add_edge(&mut self, sink: String, source: String, info: &SourceInfo) {
        self.locations.entry(sink.clone()).or_insert_with(|| info.clone());
        self.edges.entry(sink).or_default().insert(source);
    }

    fn location_of(&self, node: &str) -> Option<SourceInfo> {
        self.locations.get(node).cloned()
    }

    /// Returns one cycle as a list of nodes, if any exists.
    fn find_cycle(&self) -> Option<Vec<String>> {
        // 0 = unvisited, 1 = on the current DFS stack, 2 = fully explored.
        let mut marks: BTreeMap<String, u8> = BTreeMap::new();
        for key in self.edges.keys() {
            if marks.get(key).copied().unwrap_or(0) == 0 {
                let mut stack: Vec<String> = Vec::new();
                if let Some(cycle) = self.dfs(key, &mut marks, &mut stack) {
                    return Some(cycle);
                }
            }
        }
        None
    }

    fn dfs(
        &self,
        node: &str,
        marks: &mut BTreeMap<String, u8>,
        stack: &mut Vec<String>,
    ) -> Option<Vec<String>> {
        marks.insert(node.to_string(), 1);
        stack.push(node.to_string());
        if let Some(succs) = self.edges.get(node) {
            for succ in succs {
                match marks.get(succ.as_str()).copied().unwrap_or(0) {
                    1 => {
                        // Found a cycle: slice the stack from the first occurrence.
                        let start = stack.iter().position(|n| n == succ).unwrap_or(0);
                        return Some(stack[start..].to_vec());
                    }
                    2 => {}
                    _ => {
                        if self.edges.contains_key(succ.as_str()) {
                            if let Some(cycle) = self.dfs(succ, marks, stack) {
                                return Some(cycle);
                            }
                        }
                    }
                }
            }
        }
        stack.pop();
        marks.insert(node.to_string(), 2);
        None
    }
}

struct GraphBuilder<'a> {
    symbols: &'a SymbolTable,
    graph: &'a mut DependencyGraph,
}

impl<'a> GraphBuilder<'a> {
    fn build(&mut self, stmts: &[Statement], conditions: &[Expression]) {
        for stmt in stmts {
            match stmt {
                Statement::Connect { loc, expr, info } => {
                    let sinks = self.sink_paths(loc);
                    let mut sources = self.read_paths(expr);
                    for cond in conditions {
                        sources.extend(self.read_paths(cond));
                    }
                    // A connect whose sink path includes a dynamic index also reads the
                    // index combinationally.
                    sources.extend(self.dynamic_index_reads(loc));
                    for sink in &sinks {
                        for src in &sources {
                            self.graph.add_edge(sink.clone(), src.clone(), info);
                        }
                    }
                }
                Statement::Node { name, value, info } => {
                    let sources = self.read_paths(value);
                    for src in sources {
                        self.graph.add_edge(name.clone(), src, info);
                    }
                }
                Statement::When { cond, then_body, else_body, .. } => {
                    let mut nested = conditions.to_vec();
                    nested.push(cond.clone());
                    self.build(then_body, &nested);
                    self.build(else_body, &nested);
                }
                _ => {}
            }
        }
    }

    /// Ground paths written by a connect target (empty for dynamic sinks, which cannot
    /// participate in a statically detectable loop in this analysis).
    fn sink_paths(&self, loc: &Expression) -> Vec<String> {
        let Some(path) = static_path(loc) else { return Vec::new() };
        match ExprTyper::new(self.symbols).infer(loc) {
            Ok(ty) => ground_paths(&path, &ty).into_iter().map(|(p, _)| p).collect(),
            Err(_) => vec![path],
        }
    }

    /// Ground paths read combinationally by an expression. Registers and input ports do
    /// not contribute.
    fn read_paths(&self, expr: &Expression) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_reads(expr, &mut out);
        out
    }

    fn collect_reads(&self, expr: &Expression, out: &mut Vec<String>) {
        match expr {
            Expression::Ref(_) | Expression::SubField(..) | Expression::SubIndex(..) => {
                if let Some(path) = static_path(expr) {
                    let root = expr.root_ref().unwrap_or_default();
                    if self.is_combinational_source(root) {
                        match ExprTyper::new(self.symbols).infer(expr) {
                            Ok(ty) => {
                                out.extend(ground_paths(&path, &ty).into_iter().map(|(p, _)| p))
                            }
                            Err(_) => out.push(path),
                        }
                    }
                }
            }
            Expression::SubAccess(inner, index) => {
                // Conservative: a dynamic read depends on every element of the vector.
                if let Some(path) = static_path(inner) {
                    let root = inner.root_ref().unwrap_or_default();
                    if self.is_combinational_source(root) {
                        if let Ok(ty) = ExprTyper::new(self.symbols).infer(inner) {
                            out.extend(ground_paths(&path, &ty).into_iter().map(|(p, _)| p));
                        } else {
                            out.push(path);
                        }
                    }
                }
                self.collect_reads(index, out);
            }
            Expression::MemRead { addr, .. } => {
                // Memory contents are sequential (like a register) and cannot carry a
                // combinational loop; the address is read combinationally.
                self.collect_reads(addr, out);
            }
            _ => expr.for_each_child(&mut |child| self.collect_reads(child, out)),
        }
    }

    fn dynamic_index_reads(&self, loc: &Expression) -> Vec<String> {
        let mut out = Vec::new();
        if let Expression::SubAccess(inner, index) = loc {
            self.collect_reads(index, &mut out);
            self.collect_reads(inner, &mut out);
        }
        out
    }

    fn is_combinational_source(&self, root: &str) -> bool {
        match self.symbols.get(root).map(|s| &s.kind) {
            Some(SymbolKind::Wire)
            | Some(SymbolKind::Node)
            | Some(SymbolKind::OutputPort)
            | Some(SymbolKind::Instance(_)) => true,
            Some(SymbolKind::Reg)
            | Some(SymbolKind::Mem(_))
            | Some(SymbolKind::InputPort)
            | Some(SymbolKind::BareIo)
            | None => false,
        }
    }
}

/// Helper used by tests: true if a type has any ground leaves at all.
#[allow(dead_code)]
fn has_leaves(ty: &Type) -> bool {
    !ground_paths("x", ty).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ClockSpec, Direction, ModuleKind, Port, PrimOp};

    fn base_module() -> Module {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("in", Direction::Input, Type::uint(4)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(4)));
        m
    }

    fn run(m: Module) -> DiagnosticReport {
        let c = Circuit::single(m);
        check_combinational_loops(c.top_module().unwrap(), &c)
    }

    #[test]
    fn self_increment_is_a_loop() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "a".into(),
            ty: Type::uint(4),
            info: SourceInfo::new("T.scala", 4, 3),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("a"),
            expr: Expression::prim(
                PrimOp::Add,
                vec![Expression::reference("a"), Expression::uint_lit(1)],
                vec![],
            ),
            info: SourceInfo::new("T.scala", 5, 3),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("a"),
            info: SourceInfo::unknown(),
        });
        let report = run(m);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::CombinationalLoop);
        assert!(err.message.contains("Sample path"));
        assert!(err.message.contains("a"));
    }

    #[test]
    fn register_breaks_the_loop() {
        let mut m = base_module();
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("r"),
            expr: Expression::prim(
                PrimOp::Add,
                vec![Expression::reference("r"), Expression::uint_lit(1)],
                vec![],
            ),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("r"),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn two_wire_cycle_detected() {
        let mut m = base_module();
        for name in ["x", "y"] {
            m.body.push(Statement::Wire {
                name: name.into(),
                ty: Type::uint(4),
                info: SourceInfo::unknown(),
            });
        }
        m.body.push(Statement::Connect {
            loc: Expression::reference("x"),
            expr: Expression::reference("y"),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("y"),
            expr: Expression::prim(PrimOp::Not, vec![Expression::reference("x")], vec![]),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("x"),
            info: SourceInfo::unknown(),
        });
        let report = run(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::CombinationalLoop));
    }

    #[test]
    fn element_shift_between_vector_slots_is_not_a_loop() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "v".into(),
            ty: Type::vec(Type::bool(), 3),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::SubIndex(Box::new(Expression::reference("v")), 0),
            expr: Expression::reference("reset"),
            info: SourceInfo::unknown(),
        });
        for i in 1..3usize {
            m.body.push(Statement::Connect {
                loc: Expression::SubIndex(Box::new(Expression::reference("v")), i as i64),
                expr: Expression::SubIndex(Box::new(Expression::reference("v")), (i - 1) as i64),
                info: SourceInfo::unknown(),
            });
        }
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        assert!(!run(m).has_errors());
    }

    #[test]
    fn loop_through_when_condition_detected() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("w"),
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
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        let report = run(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::CombinationalLoop));
    }
}
