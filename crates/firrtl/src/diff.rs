//! Structural diffing between two revisions of a [`Circuit`].
//!
//! The reflection loop recompiles a design many times with small edits between
//! revisions. [`CircuitDiff::between`] aligns the statement lists of matching modules
//! using per-statement structural fingerprints (see
//! [`fingerprint_statement`]) and classifies
//! every statement as unchanged, modified, added or removed. The incremental
//! recompilation driver ([`crate::incremental`]) consumes the classification to decide
//! how much of the previous revision's artifacts can be reused.
//!
//! Alignment is intentionally simple and deterministic: the longest common *prefix*
//! and *suffix* of the fingerprint sequences are matched as unchanged, and the middle
//! windows are paired positionally when they have equal lengths (a pure in-place edit)
//! or reported as additions/removals otherwise. This is exact for the dominant
//! reflection-loop shape — k statements rewritten in place — and conservatively
//! degrades to "everything in the middle changed" for reorderings, which simply sends
//! the driver down the full-rebuild path.

use std::collections::BTreeSet;

use crate::fingerprint::fingerprint_statement;
use crate::ir::{Circuit, Module};

/// Classification of one statement position produced by aligning two revisions of a
/// module body.
///
/// Indices refer to the *top-level* statement lists (`Module::body`) of the old and new
/// modules; nested statements inside a `when` arm are covered by their enclosing
/// top-level statement's fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementEdit {
    /// The statement is structurally identical in both revisions.
    Unchanged {
        /// Index into the old module's body.
        old_index: usize,
        /// Index into the new module's body.
        new_index: usize,
    },
    /// The statement at this position was rewritten in place.
    Modified {
        /// Index into the old module's body.
        old_index: usize,
        /// Index into the new module's body.
        new_index: usize,
    },
    /// The statement exists only in the new revision.
    Added {
        /// Index into the new module's body.
        new_index: usize,
    },
    /// The statement exists only in the old revision.
    Removed {
        /// Index into the old module's body.
        old_index: usize,
    },
}

/// Diff of one module present in both revisions (matched by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDiff {
    /// Module name.
    pub name: String,
    /// True when the port list differs structurally (names, directions or types) or
    /// the module kind changed. The kind decides the implicit clock and reset
    /// (`Module` vs `RawModule`), so a kind flip is an interface change even when the
    /// declared ports are identical.
    pub ports_changed: bool,
    /// Per-statement classification of the module body.
    pub statements: Vec<StatementEdit>,
}

impl ModuleDiff {
    /// True when the module is structurally identical in both revisions.
    pub fn is_identical(&self) -> bool {
        !self.ports_changed
            && self.statements.iter().all(|e| matches!(e, StatementEdit::Unchanged { .. }))
    }

    /// Iterates over the `(old_index, new_index)` pairs of modified statements.
    pub fn modified_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.statements.iter().filter_map(|e| match e {
            StatementEdit::Modified { old_index, new_index } => Some((*old_index, *new_index)),
            _ => None,
        })
    }

    /// True when the body diff contains additions or removals (as opposed to pure
    /// in-place modifications).
    pub fn has_insertions_or_deletions(&self) -> bool {
        self.statements
            .iter()
            .any(|e| matches!(e, StatementEdit::Added { .. } | StatementEdit::Removed { .. }))
    }
}

/// Structural diff between two revisions of a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitDiff {
    /// True when the two circuits name different top modules.
    pub top_changed: bool,
    /// Diffs of the modules present in both revisions, in the *new* circuit's module
    /// order.
    pub modules: Vec<ModuleDiff>,
    /// Names of modules present only in the new revision.
    pub added_modules: Vec<String>,
    /// Names of modules present only in the old revision.
    pub removed_modules: Vec<String>,
}

impl CircuitDiff {
    /// Computes the structural diff between `old` and `new`.
    ///
    /// Modules are matched by name; the statement lists of matched modules are aligned
    /// by fingerprint as described in the module docs. Source locations never
    /// participate (two statements differing only in [`SourceInfo`](crate::ir::SourceInfo)
    /// are `Unchanged`).
    pub fn between(old: &Circuit, new: &Circuit) -> CircuitDiff {
        let old_names: BTreeSet<&str> = old.modules.iter().map(|m| m.name.as_str()).collect();
        let new_names: BTreeSet<&str> = new.modules.iter().map(|m| m.name.as_str()).collect();
        let added_modules =
            new_names.difference(&old_names).map(|n| (*n).to_string()).collect::<Vec<_>>();
        let removed_modules =
            old_names.difference(&new_names).map(|n| (*n).to_string()).collect::<Vec<_>>();

        let mut modules = Vec::new();
        for new_module in &new.modules {
            let Some(old_module) = old.modules.iter().find(|m| m.name == new_module.name) else {
                continue;
            };
            modules.push(diff_module(old_module, new_module));
        }

        CircuitDiff { top_changed: old.top != new.top, modules, added_modules, removed_modules }
    }

    /// True when the two circuits are structurally identical (same top, same module
    /// set, every matched module identical).
    pub fn is_identical(&self) -> bool {
        !self.top_changed
            && self.added_modules.is_empty()
            && self.removed_modules.is_empty()
            && self.modules.iter().all(ModuleDiff::is_identical)
    }

    /// Names of the matched modules whose body or ports changed.
    pub fn changed_modules(&self) -> impl Iterator<Item = &str> {
        self.modules.iter().filter(|m| !m.is_identical()).map(|m| m.name.as_str())
    }

    /// Looks up the diff of a matched module by name.
    pub fn module(&self, name: &str) -> Option<&ModuleDiff> {
        self.modules.iter().find(|m| m.name == name)
    }
}

fn diff_module(old: &Module, new: &Module) -> ModuleDiff {
    let ports_changed = old.ports != new.ports || old.kind != new.kind;

    let old_fp: Vec<u128> = old.body.iter().map(|s| fingerprint_statement(s).0).collect();
    let new_fp: Vec<u128> = new.body.iter().map(|s| fingerprint_statement(s).0).collect();

    // Longest common prefix.
    let mut prefix = 0;
    while prefix < old_fp.len() && prefix < new_fp.len() && old_fp[prefix] == new_fp[prefix] {
        prefix += 1;
    }
    // Longest common suffix of the remainder (non-overlapping with the prefix).
    let mut suffix = 0;
    while suffix < old_fp.len() - prefix
        && suffix < new_fp.len() - prefix
        && old_fp[old_fp.len() - 1 - suffix] == new_fp[new_fp.len() - 1 - suffix]
    {
        suffix += 1;
    }

    let mut statements = Vec::with_capacity(old_fp.len().max(new_fp.len()));
    for i in 0..prefix {
        statements.push(StatementEdit::Unchanged { old_index: i, new_index: i });
    }

    let old_mid = prefix..old_fp.len() - suffix;
    let new_mid = prefix..new_fp.len() - suffix;
    if old_mid.len() == new_mid.len() {
        // Pure in-place edit window: pair positionally. A pair can still match when
        // the window contains interleaved changes (e.g. positions 3 and 5 edited but
        // 4 untouched).
        for (o, n) in old_mid.zip(new_mid) {
            if old_fp[o] == new_fp[n] {
                statements.push(StatementEdit::Unchanged { old_index: o, new_index: n });
            } else {
                statements.push(StatementEdit::Modified { old_index: o, new_index: n });
            }
        }
    } else {
        // Length change: report the windows as removals followed by additions. The
        // incremental driver treats any addition/removal as a full-rebuild trigger,
        // so a finer alignment would buy nothing here.
        for o in old_mid {
            statements.push(StatementEdit::Removed { old_index: o });
        }
        for n in new_mid {
            statements.push(StatementEdit::Added { new_index: n });
        }
    }

    for i in 0..suffix {
        statements.push(StatementEdit::Unchanged {
            old_index: old_fp.len() - suffix + i,
            new_index: new_fp.len() - suffix + i,
        });
    }

    ModuleDiff { name: new.name.clone(), ports_changed, statements }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Direction, Expression, ModuleKind, Port, SourceInfo, Statement, Type};

    fn module(name: &str, body: Vec<Statement>) -> Module {
        let mut m = Module::new(name, ModuleKind::RawModule);
        m.ports.push(Port::new("a", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body = body;
        m
    }

    fn connect(loc: &str, expr: Expression) -> Statement {
        Statement::Connect { loc: Expression::reference(loc), expr, info: SourceInfo::unknown() }
    }

    fn node(name: &str, value: Expression) -> Statement {
        Statement::Node { name: name.into(), value, info: SourceInfo::unknown() }
    }

    #[test]
    fn identical_circuits_diff_to_identity() {
        let m = module(
            "Top",
            vec![node("n", Expression::reference("a")), connect("out", Expression::reference("n"))],
        );
        let c = Circuit::single(m);
        let diff = CircuitDiff::between(&c, &c.clone());
        assert!(diff.is_identical());
        assert_eq!(diff.changed_modules().count(), 0);
        assert_eq!(diff.modules[0].statements.len(), 2);
    }

    #[test]
    fn source_info_changes_are_invisible() {
        let mut with_info = module("Top", vec![connect("out", Expression::reference("a"))]);
        if let Statement::Connect { info, .. } = &mut with_info.body[0] {
            *info = SourceInfo::new("other.scala", 42, 7);
        }
        let old = Circuit::single(module("Top", vec![connect("out", Expression::reference("a"))]));
        let new = Circuit::single(with_info);
        assert!(CircuitDiff::between(&old, &new).is_identical());
    }

    #[test]
    fn single_modified_statement_is_paired_in_place() {
        let old = Circuit::single(module(
            "Top",
            vec![
                node("n0", Expression::reference("a")),
                node("n1", Expression::reference("n0")),
                connect("out", Expression::reference("n1")),
            ],
        ));
        let new = Circuit::single(module(
            "Top",
            vec![
                node("n0", Expression::reference("a")),
                node("n1", Expression::reference("n0")),
                connect("out", Expression::reference("n0")),
            ],
        ));
        let diff = CircuitDiff::between(&old, &new);
        assert!(!diff.is_identical());
        let md = diff.module("Top").unwrap();
        assert!(!md.ports_changed);
        assert_eq!(md.modified_pairs().collect::<Vec<_>>(), vec![(2, 2)]);
        assert!(!md.has_insertions_or_deletions());
        assert_eq!(md.statements[0], StatementEdit::Unchanged { old_index: 0, new_index: 0 });
    }

    #[test]
    fn interleaved_edits_keep_untouched_middle_statements_unchanged() {
        let mk = |second: &str, fourth: &str| {
            Circuit::single(module(
                "Top",
                vec![
                    node("n0", Expression::reference("a")),
                    node("n1", Expression::reference(second)),
                    node("n2", Expression::reference("n1")),
                    node("n3", Expression::reference(fourth)),
                    connect("out", Expression::reference("n3")),
                ],
            ))
        };
        let diff = CircuitDiff::between(&mk("n0", "n2"), &mk("a", "n0"));
        let md = diff.module("Top").unwrap();
        assert_eq!(md.modified_pairs().collect::<Vec<_>>(), vec![(1, 1), (3, 3)]);
        assert_eq!(md.statements[2], StatementEdit::Unchanged { old_index: 2, new_index: 2 });
    }

    #[test]
    fn insertion_reports_added_and_removed_windows() {
        let old = Circuit::single(module(
            "Top",
            vec![
                node("n0", Expression::reference("a")),
                connect("out", Expression::reference("n0")),
            ],
        ));
        let new = Circuit::single(module(
            "Top",
            vec![
                node("n0", Expression::reference("a")),
                node("n1", Expression::reference("n0")),
                connect("out", Expression::reference("n1")),
            ],
        ));
        let diff = CircuitDiff::between(&old, &new);
        let md = diff.module("Top").unwrap();
        assert!(md.has_insertions_or_deletions());
        // Prefix matches n0; the old `connect out, n0` and the new pair both land in
        // the middle window.
        assert!(md.statements.contains(&StatementEdit::Removed { old_index: 1 }));
        assert!(md.statements.contains(&StatementEdit::Added { new_index: 1 }));
        assert!(md.statements.contains(&StatementEdit::Added { new_index: 2 }));
    }

    #[test]
    fn port_and_module_set_changes_are_reported() {
        let old = Circuit::single(module("Top", vec![]));
        let mut changed_ports = module("Top", vec![]);
        changed_ports.ports[0].ty = Type::uint(16);
        let mut new = Circuit::single(changed_ports);
        new.modules.push(module("Helper", vec![]));
        let diff = CircuitDiff::between(&old, &new);
        assert!(diff.module("Top").unwrap().ports_changed);
        assert_eq!(diff.added_modules, vec!["Helper".to_string()]);
        assert!(diff.removed_modules.is_empty());
        assert!(!diff.top_changed);

        let mut retopped = old.clone();
        retopped.top = "Elsewhere".into();
        assert!(CircuitDiff::between(&old, &retopped).top_changed);
    }
}
