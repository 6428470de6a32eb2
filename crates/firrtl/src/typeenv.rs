//! Elaboration, symbol tables and expression typing.
//!
//! The checking passes and the lowering pipeline all need to answer "what is the type
//! of this expression in this module?". [`SymbolTable`] records every declared name of a
//! module (ports, wires, registers, nodes, instances) and the value of each node, and
//! [`ExprTyper`] computes expression types from the table alone, reporting the Table
//! II-style diagnostics for ill-formed expressions: unknown references (A1), Scala
//! casts (A2), bad invocations (A3), unsupported casts (B6), out-of-bounds static
//! indices (B7) and type mismatches (B5).
//!
//! [`Elaborated`] is one module's elaboration: its symbol table plus the widths
//! inferred for its width-less wires and registers. The pass manager builds it once
//! per module and hands it to every check pass; the compile pipeline
//! ([`crate::pipeline::Pipeline::run`]) carries the top module's elaboration on into
//! lowering, so a revision is elaborated once, not once per pass. Lowering builds
//! another [`SymbolTable`] only for a flattened or width-resolved copy of the top
//! module.

use std::collections::BTreeMap;

use crate::diagnostics::{closest_name, Diagnostic, ErrorCode};
use crate::ir::{
    Circuit, Direction, Expression, Field, Module, PrimOp, SourceInfo, Statement, Type,
};
use crate::paths::static_path;

/// What kind of hardware object a name refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum SymbolKind {
    /// Module input port.
    InputPort,
    /// Module output port.
    OutputPort,
    /// Wire.
    Wire,
    /// Register.
    Reg,
    /// Named intermediate value.
    Node,
    /// Memory (RAM); the payload is the word depth. The symbol's type is the element
    /// type.
    Mem(usize),
    /// Child module instance; the payload is the instantiated module name.
    Instance(String),
    /// A bare (non-IO-wrapped) interface declaration — a defect carrier.
    BareIo,
}

impl SymbolKind {
    /// True if a value of this kind may legally appear as the target of a connect.
    pub fn is_sink(&self) -> bool {
        matches!(
            self,
            SymbolKind::OutputPort | SymbolKind::Wire | SymbolKind::Reg | SymbolKind::Instance(_)
        )
    }

    /// True if the symbol holds sequential state.
    pub fn is_reg(&self) -> bool {
        matches!(self, SymbolKind::Reg)
    }
}

/// A declared symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// Declared name.
    pub name: String,
    /// Declared type. For instances this is a bundle of the child's ports.
    pub ty: Type,
    /// Kind of declaration.
    pub kind: SymbolKind,
    /// Declaration site.
    pub info: SourceInfo,
}

#[cfg(test)]
thread_local! {
    /// Symbol tables built on this thread, counted by unit tests.
    pub(crate) static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// All symbols declared in one module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolTable {
    symbols: BTreeMap<String, Symbol>,
    /// The value of every name whose first declaration is a node.
    nodes: BTreeMap<String, Expression>,
    duplicates: Vec<Diagnostic>,
}

impl SymbolTable {
    /// Builds the symbol table of `module`, resolving instance port bundles against
    /// `circuit`.
    ///
    /// Duplicate declarations are recorded and reported via [`SymbolTable::duplicates`];
    /// the first declaration wins.
    pub fn build(module: &Module, circuit: &Circuit) -> Self {
        #[cfg(test)]
        TABLES_BUILT.with(|n| n.set(n.get() + 1));
        let mut table = SymbolTable::default();
        for port in &module.ports {
            let kind = match port.direction {
                Direction::Input => SymbolKind::InputPort,
                Direction::Output => SymbolKind::OutputPort,
            };
            table.insert(Symbol {
                name: port.name.clone(),
                ty: port.ty.clone(),
                kind,
                info: port.info.clone(),
            });
        }
        module.visit_statements(&mut |stmt| match stmt {
            Statement::Wire { name, ty, info } => table.insert(Symbol {
                name: name.clone(),
                ty: ty.clone(),
                kind: SymbolKind::Wire,
                info: info.clone(),
            }),
            Statement::Reg { name, ty, info, .. } => table.insert(Symbol {
                name: name.clone(),
                ty: ty.clone(),
                kind: SymbolKind::Reg,
                info: info.clone(),
            }),
            Statement::Node { name, value, info } => {
                if table.get(name).is_none() {
                    table.nodes.insert(name.clone(), value.clone());
                }
                table.insert(Symbol {
                    name: name.clone(),
                    // Node types are computed on demand by the typer from the recorded
                    // value; the symbol holds an unknown-width placeholder.
                    ty: Type::UInt(None),
                    kind: SymbolKind::Node,
                    info: info.clone(),
                })
            }
            Statement::Mem { name, ty, depth, info, .. } => table.insert(Symbol {
                name: name.clone(),
                ty: ty.clone(),
                kind: SymbolKind::Mem(*depth),
                info: info.clone(),
            }),
            Statement::Instance { name, module: child, info } => {
                let ty = circuit
                    .module(child)
                    .map(instance_bundle_type)
                    .unwrap_or(Type::Bundle(Vec::new()));
                table.insert(Symbol {
                    name: name.clone(),
                    ty,
                    kind: SymbolKind::Instance(child.clone()),
                    info: info.clone(),
                });
            }
            Statement::BareIoDecl { name, ty, info, .. } => table.insert(Symbol {
                name: name.clone(),
                ty: ty.clone(),
                kind: SymbolKind::BareIo,
                info: info.clone(),
            }),
            _ => {}
        });
        table
    }

    fn insert(&mut self, symbol: Symbol) {
        if let Some(existing) = self.symbols.get(&symbol.name) {
            self.duplicates.push(
                Diagnostic::error(
                    ErrorCode::DuplicateDeclaration,
                    symbol.info.clone(),
                    format!("{} is already declared at {}", symbol.name, existing.info),
                )
                .with_subject(symbol.name.clone()),
            );
            return;
        }
        self.symbols.insert(symbol.name.clone(), symbol);
    }

    /// Looks up a symbol by name.
    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// The value of node `name`, when the first declaration of `name` is a node.
    pub(crate) fn node_value(&self, name: &str) -> Option<&Expression> {
        self.nodes.get(name)
    }

    /// Iterates over all symbols in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.values()
    }

    /// All declared names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.symbols.keys().map(|s| s.as_str())
    }

    /// Diagnostics for duplicate declarations found while building the table.
    pub fn duplicates(&self) -> &[Diagnostic] {
        &self.duplicates
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when no symbols are declared.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// One module's elaboration: its [`SymbolTable`] and the widths inferred for its
/// width-less ground wires and registers.
///
/// [`PassManager::run`](crate::pipeline::PassManager::run) builds one per module and
/// hands it to every pass; [`Pipeline::run`](crate::pipeline::Pipeline::run) keeps
/// the top module's elaboration and lowers from it. The standalone `passes::check_*`
/// functions and [`lower_circuit`](crate::lower_circuit) build their own.
///
/// # Example
///
/// ```
/// use rechisel_firrtl::ir::{
///     Circuit, Direction, Expression, Module, ModuleKind, Port, SourceInfo, Statement, Type,
/// };
/// use rechisel_firrtl::typeenv::Elaborated;
///
/// let mut m = Module::new("T", ModuleKind::Module);
/// m.ports.push(Port::new("a", Direction::Input, Type::uint(7)));
/// m.body.push(Statement::Wire { name: "w".into(), ty: Type::UInt(None), info: SourceInfo::unknown() });
/// m.body.push(Statement::Connect {
///     loc: Expression::reference("w"),
///     expr: Expression::reference("a"),
///     info: SourceInfo::unknown(),
/// });
/// let circuit = Circuit::single(m);
///
/// let elaborated = Elaborated::new(circuit.top_module().unwrap(), &circuit);
/// assert!(elaborated.symbols().get("w").is_some());
/// assert_eq!(elaborated.inferred_widths().get("w"), Some(&Type::uint(7)));
/// ```
#[derive(Debug, PartialEq)]
pub struct Elaborated {
    symbols: SymbolTable,
    widths: BTreeMap<String, Type>,
}

impl Elaborated {
    /// Elaborates `module`, resolving instance port bundles against `circuit`.
    pub fn new(module: &Module, circuit: &Circuit) -> Self {
        let symbols = SymbolTable::build(module, circuit);
        let widths = infer_declaration_widths(module, &symbols);
        Self { symbols, widths }
    }

    /// The module's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The inferred ground type of every width-less ground wire and register that an
    /// unconditional connect drives with a value of known width (the widest driver
    /// wins). Empty when every declaration states its width.
    pub fn inferred_widths(&self) -> &BTreeMap<String, Type> {
        &self.widths
    }
}

/// Infers a ground type for every width-less ground wire or register from the connects
/// that drive exactly that name, taking the widest driver.
fn infer_declaration_widths(module: &Module, symbols: &SymbolTable) -> BTreeMap<String, Type> {
    let mut unresolved: Vec<(String, bool)> = Vec::new();
    module.visit_statements(&mut |stmt| match stmt {
        Statement::Wire { name, ty, .. } | Statement::Reg { name, ty, .. }
            if !has_known_width(ty) && ty.is_ground() =>
        {
            unresolved.push((name.clone(), ty.is_signed()));
        }
        _ => {}
    });
    let mut inferred: BTreeMap<String, Type> = BTreeMap::new();
    if unresolved.is_empty() {
        return inferred;
    }
    // Look at every connect whose sink is exactly the unresolved name and take the
    // widest driving expression.
    module.visit_statements(&mut |stmt| {
        if let Statement::Connect { loc, expr, info } = stmt {
            if let Some(path) = static_path(loc) {
                if let Some((_, signed)) = unresolved.iter().find(|(n, _)| *n == path) {
                    if let Ok(ty) = ExprTyper::new(symbols).at(info).infer(expr) {
                        if let Some(w) = ty.width() {
                            let new_ty =
                                if *signed { Type::SInt(Some(w)) } else { Type::UInt(Some(w)) };
                            inferred
                                .entry(path)
                                .and_modify(|existing| {
                                    if existing.width().unwrap_or(0) < w {
                                        *existing = new_ty.clone();
                                    }
                                })
                                .or_insert(new_ty);
                        }
                    }
                }
            }
        }
    });
    inferred
}

/// True when every ground leaf of `ty` states its width.
pub(crate) fn has_known_width(ty: &Type) -> bool {
    match ty {
        Type::UInt(w) | Type::SInt(w) => w.is_some(),
        Type::Vec(elem, _) => has_known_width(elem),
        Type::Bundle(fields) => fields.iter().all(|f| has_known_width(&f.ty)),
        _ => true,
    }
}

/// Builds the bundle type describing an instance's ports (child outputs become
/// readable fields, child inputs become flipped fields that the parent must drive).
pub fn instance_bundle_type(child: &Module) -> Type {
    let fields = child
        .ports
        .iter()
        .map(|p| Field {
            name: p.name.clone(),
            ty: p.ty.clone(),
            flipped: p.direction == Direction::Input,
        })
        .collect();
    Type::Bundle(fields)
}

/// Returns the minimum number of bits needed to represent `value` as unsigned.
pub fn min_uint_width(value: u128) -> u32 {
    if value == 0 {
        1
    } else {
        128 - value.leading_zeros()
    }
}

/// Returns the minimum number of bits needed to represent `value` as signed
/// two's-complement.
pub fn min_sint_width(value: i128) -> u32 {
    if value >= 0 {
        min_uint_width(value as u128) + 1
    } else {
        128 - (!(value)).leading_zeros() + 1
    }
}

/// The location of diagnostics typed without one.
static UNKNOWN: SourceInfo = SourceInfo { file: String::new(), line: 0, col: 0 };

/// Expression typer for a single module.
pub struct ExprTyper<'a> {
    symbols: &'a SymbolTable,
    /// Location to attribute diagnostics to when the expression itself has no location.
    context: &'a SourceInfo,
}

impl<'a> ExprTyper<'a> {
    /// Creates a typer over the module whose symbol table is `symbols`. Its diagnostics
    /// carry an unknown location until [`ExprTyper::at`] sets one.
    pub fn new(symbols: &'a SymbolTable) -> Self {
        Self { symbols, context: &UNKNOWN }
    }

    /// Sets the source location used for diagnostics produced while typing. The typer
    /// borrows `info`; only a diagnostic it returns holds a copy.
    pub fn at(&mut self, info: &'a SourceInfo) -> &mut Self {
        self.context = info;
        self
    }

    /// Infers the type of `expr`, producing a diagnostic on the first error found.
    pub fn infer(&self, expr: &Expression) -> Result<Type, Diagnostic> {
        self.infer_depth(expr, 0)
    }

    fn infer_depth(&self, expr: &Expression, depth: usize) -> Result<Type, Diagnostic> {
        if depth > 64 {
            return Err(Diagnostic::error(
                ErrorCode::WidthInferenceFailure,
                self.context.clone(),
                "expression nesting is too deep to infer a type",
            ));
        }
        match expr {
            Expression::Ref(name) => match self.symbols.get(name) {
                Some(sym) => {
                    if sym.kind == SymbolKind::Node {
                        if let Some(value) = self.symbols.node_value(name) {
                            return self.infer_depth(value, depth + 1);
                        }
                    }
                    if let SymbolKind::Mem(_) = sym.kind {
                        return Err(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            self.context.clone(),
                            format!("memory {name} cannot be used as a value"),
                        )
                        .with_suggestion("read the memory through an address, e.g. mem.read(addr)")
                        .with_subject(name.clone()));
                    }
                    Ok(sym.ty.clone())
                }
                None => {
                    let mut d = Diagnostic::error(
                        ErrorCode::UnknownReference,
                        self.context.clone(),
                        format!("value {name} is not a member of this module"),
                    )
                    .with_subject(name.clone());
                    if let Some(best) = closest_name(name, self.symbols.names()) {
                        d = d.with_suggestion(format!("Did you mean {best}?"));
                    }
                    Err(d)
                }
            },
            Expression::SubField(inner, field) => {
                let inner_ty = self.infer_depth(inner, depth + 1)?;
                match inner_ty {
                    Type::Bundle(fields) => {
                        fields.iter().find(|f| &f.name == field).map(|f| f.ty.clone()).ok_or_else(
                            || {
                                Diagnostic::error(
                                    ErrorCode::BundleFieldMismatch,
                                    self.context.clone(),
                                    format!(
                                        "record has no field named {field}; available fields: {}",
                                        fields
                                            .iter()
                                            .map(|f| f.name.clone())
                                            .collect::<Vec<_>>()
                                            .join(", ")
                                    ),
                                )
                                .with_subject(field.clone())
                            },
                        )
                    }
                    other => Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!(
                            "cannot select field {field} from a value of type {}",
                            other.chisel_name()
                        ),
                    )),
                }
            }
            Expression::SubIndex(inner, idx) => {
                let inner_ty = self.infer_depth(inner, depth + 1)?;
                match inner_ty {
                    Type::Vec(elem, len) => {
                        if *idx < 0 || *idx as usize >= len {
                            Err(Diagnostic::error(
                                ErrorCode::IndexOutOfBounds,
                                self.context.clone(),
                                format!(
                                    "{idx} is out of bounds (min 0, max {})",
                                    len.saturating_sub(1)
                                ),
                            )
                            .with_subject(inner.root_ref().unwrap_or_default().to_string()))
                        } else {
                            Ok(*elem)
                        }
                    }
                    Type::UInt(w) => {
                        // Reading a bit of a UInt is fine; the connect checker rejects
                        // it as a sink.
                        if let Some(w) = w {
                            if *idx < 0 || *idx as u32 >= w {
                                return Err(Diagnostic::error(
                                    ErrorCode::IndexOutOfBounds,
                                    self.context.clone(),
                                    format!(
                                        "{idx} is out of bounds (min 0, max {})",
                                        w.saturating_sub(1)
                                    ),
                                )
                                .with_subject(inner.root_ref().unwrap_or_default().to_string()));
                            }
                        }
                        Ok(Type::Bool)
                    }
                    other => Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!("cannot index into a value of type {}", other.chisel_name()),
                    )),
                }
            }
            Expression::SubAccess(inner, index) => {
                let inner_ty = self.infer_depth(inner, depth + 1)?;
                let index_ty = self.infer_depth(index, depth + 1)?;
                if !matches!(index_ty, Type::UInt(_) | Type::Bool) {
                    return Err(Diagnostic::error(
                        ErrorCode::InvalidIndexType,
                        self.context.clone(),
                        format!(
                            "dynamic index must be an unsigned integer, found {}",
                            index_ty.chisel_name()
                        ),
                    ));
                }
                match inner_ty {
                    Type::Vec(elem, _) => Ok(*elem),
                    Type::UInt(_) => Ok(Type::Bool),
                    other => Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!("cannot index into a value of type {}", other.chisel_name()),
                    )),
                }
            }
            Expression::UIntLiteral { value, width } => {
                let w = width.unwrap_or_else(|| min_uint_width(*value));
                if let Some(explicit) = width {
                    if min_uint_width(*value) > *explicit {
                        return Err(Diagnostic::error(
                            ErrorCode::WidthInferenceFailure,
                            self.context.clone(),
                            format!("literal {value} does not fit in {explicit} bits"),
                        ));
                    }
                }
                Ok(Type::UInt(Some(w)))
            }
            Expression::SIntLiteral { value, width } => {
                let w = width.unwrap_or_else(|| min_sint_width(*value));
                Ok(Type::SInt(Some(w)))
            }
            Expression::Mux { cond, tval, fval } => {
                let cond_ty = self.infer_depth(cond, depth + 1)?;
                if !matches!(cond_ty, Type::Bool | Type::UInt(Some(1)) | Type::UInt(None)) {
                    return Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!("mux condition must be a Bool, found {}", cond_ty.chisel_name()),
                    ));
                }
                let t = self.infer_depth(tval, depth + 1)?;
                let f = self.infer_depth(fval, depth + 1)?;
                merge_mux_types(&t, &f).ok_or_else(|| {
                    Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!(
                            "mux arms have incompatible types: found {}, required {}",
                            f.chisel_name(),
                            t.chisel_name()
                        ),
                    )
                })
            }
            Expression::MemRead { mem, addr, en, clock, .. } => {
                let Some(sym) = self.symbols.get(mem) else {
                    let mut d = Diagnostic::error(
                        ErrorCode::UnknownReference,
                        self.context.clone(),
                        format!("memory {mem} is not a member of this module"),
                    )
                    .with_subject(mem.clone());
                    if let Some(best) = closest_name(mem, self.symbols.names()) {
                        d = d.with_suggestion(format!("Did you mean {best}?"));
                    }
                    return Err(d);
                };
                let SymbolKind::Mem(mem_depth) = sym.kind else {
                    return Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!("{mem} is not a memory and has no read ports"),
                    )
                    .with_subject(mem.clone()));
                };
                let addr_ty = self.infer_depth(addr, depth + 1)?;
                if !matches!(addr_ty, Type::UInt(_) | Type::Bool) {
                    return Err(Diagnostic::error(
                        ErrorCode::InvalidIndexType,
                        self.context.clone(),
                        format!(
                            "memory address must be an unsigned integer, found {}",
                            addr_ty.chisel_name()
                        ),
                    ));
                }
                if let Expression::UIntLiteral { value, .. } = addr.as_ref() {
                    if *value >= mem_depth as u128 {
                        return Err(Diagnostic::error(
                            ErrorCode::IndexOutOfBounds,
                            self.context.clone(),
                            format!(
                                "{value} is out of bounds for memory {mem} (min 0, max {})",
                                mem_depth.saturating_sub(1)
                            ),
                        )
                        .with_subject(mem.clone()));
                    }
                }
                if let Some(en) = en {
                    let en_ty = self.infer_depth(en, depth + 1)?;
                    if !matches!(en_ty, Type::Bool | Type::UInt(Some(1)) | Type::UInt(None)) {
                        return Err(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            self.context.clone(),
                            format!("read enable must be a Bool, found {}", en_ty.chisel_name()),
                        )
                        .with_subject(mem.clone()));
                    }
                }
                if let Some(clk) = clock {
                    let clk_ty = self.infer_depth(clk, depth + 1)?;
                    if clk_ty != Type::Clock {
                        return Err(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            self.context.clone(),
                            format!("read clock must be a Clock, found {}", clk_ty.chisel_name()),
                        )
                        .with_suggestion("convert with .asClock if the source is a Bool")
                        .with_subject(mem.clone()));
                    }
                }
                Ok(sym.ty.clone())
            }
            Expression::Prim { op, args, params } => self.infer_prim(*op, args, params, depth),
            Expression::ScalaCast { arg, target } => {
                let from = self
                    .infer_depth(arg, depth + 1)
                    .map(|t| t.chisel_name())
                    .unwrap_or_else(|_| "chisel3.Data".to_string());
                Err(Diagnostic::error(
                    ErrorCode::ScalaChiselMixup,
                    self.context.clone(),
                    format!("class {from} cannot be cast to class chisel3.{target}"),
                )
                .with_suggestion(format!("use the Chisel cast .as{target} instead of asInstanceOf"))
                .with_subject(arg.root_ref().unwrap_or_default().to_string()))
            }
            Expression::BadApply { target, args } => {
                let found = args.len();
                Err(Diagnostic::error(
                    ErrorCode::BadInvocation,
                    self.context.clone(),
                    format!(
                        "too many arguments. Found {found}, expected 1 for method apply: (i: Int)"
                    ),
                )
                .with_subject(target.root_ref().unwrap_or_default().to_string()))
            }
        }
    }

    fn infer_prim(
        &self,
        op: PrimOp,
        args: &[Expression],
        params: &[i64],
        depth: usize,
    ) -> Result<Type, Diagnostic> {
        if args.len() != op.arity() {
            return Err(Diagnostic::error(
                ErrorCode::BadInvocation,
                self.context.clone(),
                format!("primitive {op} expects {} argument(s), found {}", op.arity(), args.len()),
            ));
        }
        if params.len() != op.param_count() {
            return Err(Diagnostic::error(
                ErrorCode::BadInvocation,
                self.context.clone(),
                format!(
                    "primitive {op} expects {} integer parameter(s), found {}",
                    op.param_count(),
                    params.len()
                ),
            ));
        }
        let arg_tys: Vec<Type> =
            args.iter().map(|a| self.infer_depth(a, depth + 1)).collect::<Result<_, _>>()?;
        // `asUInt` on an aggregate is legal Chisel: it concatenates the flattened
        // elements (element 0 in the least-significant bits). Every other primitive
        // requires ground operands.
        if op == PrimOp::AsUInt {
            if let Some(ty @ (Type::Vec(..) | Type::Bundle(..))) = arg_tys.first() {
                return match ty.width() {
                    Some(w) => Ok(Type::UInt(Some(w))),
                    None => Err(Diagnostic::error(
                        ErrorCode::WidthInferenceFailure,
                        self.context.clone(),
                        format!("cannot compute the width of {} for asUInt", ty.chisel_name()),
                    )),
                };
            }
        }
        for ty in &arg_tys {
            if matches!(ty, Type::Vec(..) | Type::Bundle(..)) {
                return Err(Diagnostic::error(
                    ErrorCode::TypeMismatch,
                    self.context.clone(),
                    format!(
                        "primitive {op} cannot be applied to an aggregate of type {}",
                        ty.chisel_name()
                    ),
                ));
            }
        }
        use PrimOp::*;
        let w = |t: &Type| t.width();
        let numeric_width = |t: &Type| match t {
            Type::Bool | Type::Reset | Type::AsyncReset | Type::Clock => Some(1),
            Type::UInt(w) | Type::SInt(w) => *w,
            _ => None,
        };
        let is_clock_like = |t: &Type| matches!(t, Type::Clock);
        match op {
            Add | Sub => {
                self.require_numeric(op, &arg_tys)?;
                let signed = arg_tys.iter().any(|t| t.is_signed());
                let width = max_width(numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1]))
                    .map(|w| w + 1);
                Ok(if signed { Type::SInt(width) } else { Type::UInt(width) })
            }
            Mul => {
                self.require_numeric(op, &arg_tys)?;
                let signed = arg_tys.iter().any(|t| t.is_signed());
                let width = match (numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1])) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
                Ok(if signed { Type::SInt(width) } else { Type::UInt(width) })
            }
            Div => {
                self.require_numeric(op, &arg_tys)?;
                let signed = arg_tys.iter().any(|t| t.is_signed());
                let width = numeric_width(&arg_tys[0]).map(|a| if signed { a + 1 } else { a });
                Ok(if signed { Type::SInt(width) } else { Type::UInt(width) })
            }
            Rem => {
                self.require_numeric(op, &arg_tys)?;
                let signed = arg_tys.iter().any(|t| t.is_signed());
                let width = match (numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1])) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    _ => None,
                };
                Ok(if signed { Type::SInt(width) } else { Type::UInt(width) })
            }
            And | Or | Xor => {
                // Chisel requires both operands to be UInt (Bool is fine); Bool op UInt
                // mixes are the classic B5 mismatch.
                let bad = arg_tys
                    .iter()
                    .find(|t| !matches!(t, Type::UInt(_) | Type::Bool | Type::SInt(_)));
                if let Some(bad) = bad {
                    return Err(self.type_mismatch(bad, "chisel3.UInt"));
                }
                let width = max_width(numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1]));
                if arg_tys.iter().all(|t| matches!(t, Type::Bool)) {
                    Ok(Type::Bool)
                } else {
                    Ok(Type::UInt(width))
                }
            }
            Not => {
                let t = &arg_tys[0];
                if !matches!(t, Type::UInt(_) | Type::Bool) {
                    return Err(self.type_mismatch(t, "chisel3.UInt"));
                }
                Ok(if matches!(t, Type::Bool) { Type::Bool } else { Type::UInt(w(t)) })
            }
            Eq | Neq | Lt | Leq | Gt | Geq => {
                self.require_numeric(op, &arg_tys)?;
                Ok(Type::Bool)
            }
            Shl => {
                self.require_numeric(op, &arg_tys)?;
                let amount = params[0].max(0) as u32;
                let width = numeric_width(&arg_tys[0]).map(|a| a + amount);
                Ok(if arg_tys[0].is_signed() { Type::SInt(width) } else { Type::UInt(width) })
            }
            Shr => {
                self.require_numeric(op, &arg_tys)?;
                let amount = params[0].max(0) as u32;
                let width = numeric_width(&arg_tys[0]).map(|a| a.saturating_sub(amount).max(1));
                Ok(if arg_tys[0].is_signed() { Type::SInt(width) } else { Type::UInt(width) })
            }
            Dshl => {
                self.require_numeric(op, &arg_tys)?;
                let width = match (numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1])) {
                    (Some(a), Some(b)) => Some(a + (1u32 << b.min(6)) - 1),
                    _ => None,
                };
                Ok(if arg_tys[0].is_signed() { Type::SInt(width) } else { Type::UInt(width) })
            }
            Dshr => {
                self.require_numeric(op, &arg_tys)?;
                Ok(arg_tys[0].clone())
            }
            Cat => {
                let width = match (numeric_width(&arg_tys[0]), numeric_width(&arg_tys[1])) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
                Ok(Type::UInt(width))
            }
            Bits => {
                let hi = params[0];
                let lo = params[1];
                if lo < 0 || hi < lo {
                    return Err(Diagnostic::error(
                        ErrorCode::IndexOutOfBounds,
                        self.context.clone(),
                        format!("invalid bit range [{hi}:{lo}]"),
                    ));
                }
                if let Some(aw) = numeric_width(&arg_tys[0]) {
                    if hi as u32 >= aw {
                        return Err(Diagnostic::error(
                            ErrorCode::IndexOutOfBounds,
                            self.context.clone(),
                            format!(
                                "high bit {hi} is out of bounds (min 0, max {})",
                                aw.saturating_sub(1)
                            ),
                        ));
                    }
                }
                Ok(Type::UInt(Some((hi - lo + 1) as u32)))
            }
            AndR | OrR | XorR => {
                let t = &arg_tys[0];
                if !matches!(t, Type::UInt(_) | Type::SInt(_) | Type::Bool) {
                    return Err(self.type_mismatch(t, "chisel3.UInt"));
                }
                Ok(Type::Bool)
            }
            AsUInt => Ok(Type::UInt(w(&arg_tys[0]))),
            AsSInt => Ok(Type::SInt(w(&arg_tys[0]))),
            AsBool => {
                let t = &arg_tys[0];
                match numeric_width(t) {
                    Some(1) | None => Ok(Type::Bool),
                    Some(n) => Err(Diagnostic::error(
                        ErrorCode::UnsupportedCast,
                        self.context.clone(),
                        format!("cannot convert a {n}-bit value to Bool; only 1-bit values can be converted"),
                    )),
                }
            }
            AsClock => {
                let t = &arg_tys[0];
                if matches!(t, Type::Bool)
                    || matches!(numeric_width(t), Some(1)) && !is_clock_like(t)
                {
                    Ok(Type::Clock)
                } else {
                    Err(Diagnostic::error(
                        ErrorCode::UnsupportedCast,
                        self.context.clone(),
                        format!("value asClock is not a member of {}", t.chisel_name()),
                    )
                    .with_suggestion("convert to Bool first, e.g. x(0).asBool.asClock"))
                }
            }
            AsAsyncReset => {
                let t = &arg_tys[0];
                if matches!(t, Type::Bool) || matches!(numeric_width(t), Some(1)) {
                    Ok(Type::AsyncReset)
                } else {
                    Err(Diagnostic::error(
                        ErrorCode::UnsupportedCast,
                        self.context.clone(),
                        format!("value asAsyncReset is not a member of {}", t.chisel_name()),
                    ))
                }
            }
            Neg => {
                self.require_numeric(op, &arg_tys)?;
                Ok(Type::SInt(numeric_width(&arg_tys[0]).map(|a| a + 1)))
            }
            Pad => {
                self.require_numeric(op, &arg_tys)?;
                let target = params[0].max(0) as u32;
                let width = numeric_width(&arg_tys[0]).map(|a| a.max(target));
                Ok(if arg_tys[0].is_signed() { Type::SInt(width) } else { Type::UInt(width) })
            }
            Tail => {
                let drop = params[0].max(0) as u32;
                let width = numeric_width(&arg_tys[0]).map(|a| a.saturating_sub(drop).max(1));
                Ok(Type::UInt(width))
            }
            Head => {
                let keep = params[0].max(0) as u32;
                Ok(Type::UInt(Some(keep.max(1))))
            }
        }
    }

    fn require_numeric(&self, op: PrimOp, tys: &[Type]) -> Result<(), Diagnostic> {
        for t in tys {
            match t {
                Type::UInt(_) | Type::SInt(_) | Type::Bool => {}
                other => {
                    return Err(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        self.context.clone(),
                        format!(
                            "primitive {op} cannot be applied to a value of type {}",
                            other.chisel_name()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn type_mismatch(&self, found: &Type, required: &str) -> Diagnostic {
        Diagnostic::error(
            ErrorCode::TypeMismatch,
            self.context.clone(),
            format!("found: {}\nrequired: {required}", found.chisel_name()),
        )
        .with_suggestion("insert an explicit conversion such as .asUInt")
    }
}

fn max_width(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    }
}

/// Computes the common type of two mux arms, if compatible.
fn merge_mux_types(t: &Type, f: &Type) -> Option<Type> {
    match (t, f) {
        (Type::Bool, Type::Bool) => Some(Type::Bool),
        (Type::Bool, Type::UInt(w)) | (Type::UInt(w), Type::Bool) => {
            Some(Type::UInt(w.map(|w| w.max(1))))
        }
        (Type::UInt(a), Type::UInt(b)) => Some(Type::UInt(max_width(*a, *b))),
        (Type::SInt(a), Type::SInt(b)) => Some(Type::SInt(max_width(*a, *b))),
        (Type::Clock, Type::Clock) => Some(Type::Clock),
        (Type::AsyncReset, Type::AsyncReset) => Some(Type::AsyncReset),
        (Type::Vec(ea, la), Type::Vec(eb, lb)) if la == lb => {
            merge_mux_types(ea, eb).map(|e| Type::Vec(Box::new(e), *la))
        }
        (Type::Bundle(fa), Type::Bundle(fb)) if fa == fb => Some(Type::Bundle(fa.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ClockSpec, ModuleKind, Port};

    fn test_module() -> (Module, Circuit) {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("a", Direction::Input, Type::uint(4)));
        m.ports.push(Port::new("b", Direction::Input, Type::uint(4)));
        m.ports.push(Port::new("flag", Direction::Input, Type::bool()));
        m.ports.push(Port::new("v", Direction::Input, Type::vec(Type::bool(), 5)));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::uint(4),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(4),
            clock: ClockSpec::Implicit,
            reset: None,
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Node {
            name: "sum".into(),
            value: Expression::prim(
                PrimOp::Add,
                vec![Expression::reference("a"), Expression::reference("b")],
                vec![],
            ),
            info: SourceInfo::unknown(),
        });
        let c = Circuit::single(m.clone());
        (m, c)
    }

    #[test]
    fn symbol_table_contains_everything() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        assert!(table.get("a").is_some());
        assert!(table.get("w").is_some());
        assert!(table.get("r").is_some());
        assert!(table.get("sum").is_some());
        assert!(table.get("nonexistent").is_none());
        assert!(table.duplicates().is_empty());
        assert_eq!(table.len(), 10);
    }

    #[test]
    fn duplicate_declaration_reported() {
        let (mut m, _) = test_module();
        m.body.push(Statement::Wire {
            name: "w".into(),
            ty: Type::bool(),
            info: SourceInfo::new("T.scala", 9, 3),
        });
        let c = Circuit::single(m.clone());
        let table = SymbolTable::build(&m, &c);
        assert_eq!(table.duplicates().len(), 1);
        assert_eq!(table.duplicates()[0].code, ErrorCode::DuplicateDeclaration);
    }

    #[test]
    fn unknown_reference_has_suggestion() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let err = typer.infer(&Expression::reference("flg")).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownReference);
        assert!(err.suggestion.unwrap().contains("flag"));
    }

    #[test]
    fn node_types_resolve_through_definition() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let ty = typer.infer(&Expression::reference("sum")).unwrap();
        assert_eq!(ty, Type::UInt(Some(5)));
    }

    #[test]
    fn add_and_mul_widths() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let add = Expression::prim(
            PrimOp::Add,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        assert_eq!(typer.infer(&add).unwrap(), Type::UInt(Some(5)));
        let mul = Expression::prim(
            PrimOp::Mul,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        assert_eq!(typer.infer(&mul).unwrap(), Type::UInt(Some(8)));
    }

    #[test]
    fn static_index_bounds_checked() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let ok = Expression::SubIndex(Box::new(Expression::reference("v")), 4);
        assert_eq!(typer.infer(&ok).unwrap(), Type::Bool);
        let bad = Expression::SubIndex(Box::new(Expression::reference("v")), 5);
        let err = typer.infer(&bad).unwrap_err();
        assert_eq!(err.code, ErrorCode::IndexOutOfBounds);
        assert!(err.message.contains("max 4"));
        let neg = Expression::SubIndex(Box::new(Expression::reference("v")), -1);
        assert_eq!(typer.infer(&neg).unwrap_err().code, ErrorCode::IndexOutOfBounds);
    }

    #[test]
    fn scala_cast_is_rejected() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let cast = Expression::ScalaCast {
            arg: Box::new(Expression::reference("a")),
            target: "SInt".into(),
        };
        let err = typer.infer(&cast).unwrap_err();
        assert_eq!(err.code, ErrorCode::ScalaChiselMixup);
        assert!(err.message.contains("cannot be cast"));
    }

    #[test]
    fn bad_apply_is_rejected() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let call = Expression::BadApply {
            target: Box::new(Expression::reference("v")),
            args: vec![Expression::uint_lit(0), Expression::uint_lit(2)],
        };
        let err = typer.infer(&call).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadInvocation);
        assert!(err.message.contains("Found 2"));
    }

    #[test]
    fn asclock_on_wide_uint_is_unsupported() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let cast = Expression::prim(PrimOp::AsClock, vec![Expression::reference("a")], vec![]);
        let err = typer.infer(&cast).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedCast);
        assert!(err.message.contains("asClock is not a member"));
        let ok = Expression::prim(PrimOp::AsClock, vec![Expression::reference("flag")], vec![]);
        assert_eq!(typer.infer(&ok).unwrap(), Type::Clock);
    }

    #[test]
    fn literal_width_checked() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        assert!(typer.infer(&Expression::uint_lit_w(255, 8)).is_ok());
        assert!(typer.infer(&Expression::uint_lit_w(256, 8)).is_err());
    }

    #[test]
    fn min_widths() {
        assert_eq!(min_uint_width(0), 1);
        assert_eq!(min_uint_width(1), 1);
        assert_eq!(min_uint_width(2), 2);
        assert_eq!(min_uint_width(255), 8);
        assert_eq!(min_uint_width(256), 9);
        assert_eq!(min_sint_width(0), 2);
        assert_eq!(min_sint_width(-1), 1);
        assert_eq!(min_sint_width(-2), 2);
        assert_eq!(min_sint_width(3), 3);
    }

    #[test]
    fn bits_range_checked() {
        let (m, c) = test_module();
        let table = SymbolTable::build(&m, &c);
        let typer = ExprTyper::new(&table);
        let ok = Expression::prim(PrimOp::Bits, vec![Expression::reference("a")], vec![3, 1]);
        assert_eq!(typer.infer(&ok).unwrap(), Type::UInt(Some(3)));
        let bad = Expression::prim(PrimOp::Bits, vec![Expression::reference("a")], vec![4, 0]);
        assert_eq!(typer.infer(&bad).unwrap_err().code, ErrorCode::IndexOutOfBounds);
    }
}
