//! Connection, expression and declaration checking.
//!
//! This pass types every expression in the module (which surfaces the structural and
//! typing defects of Table II rows A1–A3, B5–B7), validates connection sinks and
//! sink/source type compatibility (rows B4/B5 and the Fig. 8 "bits of a UInt are
//! read-only" error), rejects bare non-IO interface declarations (row B2), and verifies
//! that instantiated modules exist.

use crate::diagnostics::{Diagnostic, DiagnosticReport, ErrorCode};
use crate::ir::{Circuit, Expression, Module, RegReset, SourceInfo, Statement, Type};
use crate::typeenv::{Elaborated, ExprTyper, SymbolKind, SymbolTable};

/// Runs the connection/typing checks over `module`, elaborating it first.
pub fn check_connects(module: &Module, circuit: &Circuit) -> DiagnosticReport {
    run(module, circuit, &Elaborated::new(module, circuit))
}

/// The connection/typing checks over `module`, given its elaboration.
pub(crate) fn run(module: &Module, circuit: &Circuit, elaborated: &Elaborated) -> DiagnosticReport {
    let symbols = elaborated.symbols();
    let mut report = DiagnosticReport::new();
    for d in symbols.duplicates() {
        report.push(d.clone());
    }
    let mut checker = ConnectChecker { module, circuit, symbols, report: &mut report };
    checker.run();
    report
}

struct ConnectChecker<'a> {
    module: &'a Module,
    circuit: &'a Circuit,
    symbols: &'a SymbolTable,
    report: &'a mut DiagnosticReport,
}

impl<'a> ConnectChecker<'a> {
    fn run(&mut self) {
        let stmts: Vec<&Statement> = {
            let mut v = Vec::new();
            self.module.visit_statements(&mut |s| v.push(s));
            v
        };
        for stmt in stmts {
            self.check_statement(stmt);
        }
    }

    fn type_of(&mut self, expr: &Expression, info: &SourceInfo) -> Option<Type> {
        match ExprTyper::new(self.symbols).at(info).infer(expr) {
            Ok(ty) => Some(ty),
            Err(d) => {
                self.report.push(d);
                None
            }
        }
    }

    fn check_statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Node { value, info, .. } => {
                self.type_of(value, info);
            }
            Statement::Connect { loc, expr, info } => {
                self.check_sink(loc, info);
                let sink_ty = self.type_of(loc, info);
                let src_ty = self.type_of(expr, info);
                if let (Some(sink), Some(src)) = (sink_ty, src_ty) {
                    self.check_compatibility(loc, &sink, &src, info);
                }
            }
            Statement::Invalidate { loc, info } => {
                self.check_sink(loc, info);
                self.type_of(loc, info);
            }
            Statement::When { cond, info, .. } => {
                if let Some(ty) = self.type_of(cond, info) {
                    if !matches!(ty, Type::Bool | Type::UInt(Some(1)) | Type::UInt(None)) {
                        self.report.push(
                            Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                info.clone(),
                                format!(
                                    "when condition must be a Bool, found {}",
                                    ty.chisel_name()
                                ),
                            )
                            .with_suggestion("compare explicitly, e.g. x =/= 0.U"),
                        );
                    }
                }
            }
            Statement::Reg { name, ty, reset, info, .. } => {
                if let Some(RegReset { reset, init }) = reset {
                    if let Some(reset_ty) = self.type_of(reset, info) {
                        if !reset_ty.is_reset() {
                            self.report.push(
                                Diagnostic::error(
                                    ErrorCode::TypeMismatch,
                                    info.clone(),
                                    format!(
                                        "register reset must be a Reset or Bool, found {}",
                                        reset_ty.chisel_name()
                                    ),
                                )
                                .with_subject(name.clone()),
                            );
                        }
                    }
                    if let Some(init_ty) = self.type_of(init, info) {
                        // A ground literal init on an aggregate register broadcasts to
                        // every element (the HCL's shorthand for
                        // `RegInit(VecInit(Seq.fill(n)(init)))`).
                        let broadcast = !ty.is_ground() && init_ty.is_ground();
                        if !broadcast && !ground_compatible(ty, &init_ty) {
                            self.report.push(
                                Diagnostic::error(
                                    ErrorCode::TypeMismatch,
                                    info.clone(),
                                    format!(
                                        "register init value has type {}, expected {}",
                                        init_ty.chisel_name(),
                                        ty.chisel_name()
                                    ),
                                )
                                .with_subject(name.clone()),
                            );
                        }
                    }
                }
            }
            Statement::Mem { name, ty, depth, init, info, .. } => {
                if !ty.is_ground() || ty.is_clock() {
                    self.report.push(
                        Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            info.clone(),
                            format!(
                                "memory {name} must hold a ground data type, found {}",
                                ty.chisel_name()
                            ),
                        )
                        .with_subject(name.clone()),
                    );
                }
                if *depth == 0 {
                    self.report.push(
                        Diagnostic::error(
                            ErrorCode::IndexOutOfBounds,
                            info.clone(),
                            format!("memory {name} must have a depth of at least 1"),
                        )
                        .with_subject(name.clone()),
                    );
                }
                if let Some(words) = init {
                    self.check_mem_init(name, ty, *depth, words, info);
                }
            }
            Statement::MemWrite { mem, addr, value, mask, info, .. } => {
                self.check_mem_write(mem, addr, value, mask.as_ref(), info);
            }
            Statement::Instance { name, module, info } => {
                if self.circuit.module(module).is_none() {
                    self.report.push(
                        Diagnostic::error(
                            ErrorCode::UnknownModule,
                            info.clone(),
                            format!("instantiated module {module} is not defined in the circuit"),
                        )
                        .with_subject(name.clone()),
                    );
                }
            }
            Statement::BareIoDecl { name, ty, info, .. } => {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::BareChiselType,
                        info.clone(),
                        format!("{} must be hardware, not a bare Chisel type", ty.chisel_name()),
                    )
                    .with_suggestion("Perhaps you forgot to wrap it in Wire(_) or IO(_)?")
                    .with_subject(name.clone()),
                );
            }
            Statement::Wire { .. } => {}
        }
    }

    /// Validates a memory's initial contents: at most `depth` words, each within the
    /// word width (out-of-range images are rejected, never silently truncated).
    fn check_mem_init(
        &mut self,
        name: &str,
        ty: &Type,
        depth: usize,
        words: &[u128],
        info: &SourceInfo,
    ) {
        if words.len() > depth {
            self.report.push(
                Diagnostic::error(
                    ErrorCode::IndexOutOfBounds,
                    info.clone(),
                    format!(
                        "memory {name} initializes {} words but holds only {depth}",
                        words.len()
                    ),
                )
                .with_suggestion("shorten the init image or deepen the memory")
                .with_subject(name.to_string()),
            );
        }
        if let Some(width) = ty.width() {
            let limit = if width >= 128 { u128::MAX } else { (1u128 << width) - 1 };
            if let Some((index, word)) = words.iter().enumerate().find(|(_, w)| **w > limit) {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        info.clone(),
                        format!(
                            "init word {index} ({word:#x}) does not fit the {width}-bit word of \
                             memory {name}"
                        ),
                    )
                    .with_subject(name.to_string()),
                );
            }
        }
    }

    /// Validates one memory write port: the target must be a memory, the address an
    /// in-range unsigned value, the data port no wider than the memory's word, and
    /// the lane mask (when present) exactly one bit per data bit.
    fn check_mem_write(
        &mut self,
        mem: &str,
        addr: &Expression,
        value: &Expression,
        mask: Option<&Expression>,
        info: &SourceInfo,
    ) {
        let Some(symbol) = self.symbols.get(mem) else {
            self.report.push(
                Diagnostic::error(
                    ErrorCode::UnknownReference,
                    info.clone(),
                    format!("memory {mem} is not a member of this module"),
                )
                .with_subject(mem.to_string()),
            );
            return;
        };
        let SymbolKind::Mem(depth) = symbol.kind else {
            self.report.push(
                Diagnostic::error(
                    ErrorCode::InvalidSink,
                    info.clone(),
                    format!("{mem} is not a memory and cannot take a write port"),
                )
                .with_subject(mem.to_string()),
            );
            return;
        };
        if let Some(addr_ty) = self.type_of(addr, info) {
            if !matches!(addr_ty, Type::UInt(_) | Type::Bool) {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::InvalidIndexType,
                        info.clone(),
                        format!(
                            "memory address must be an unsigned integer, found {}",
                            addr_ty.chisel_name()
                        ),
                    )
                    .with_subject(mem.to_string()),
                );
            }
        }
        if let Expression::UIntLiteral { value: a, .. } = addr {
            if *a >= depth as u128 {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::IndexOutOfBounds,
                        info.clone(),
                        format!(
                            "{a} is out of bounds for memory {mem} (min 0, max {})",
                            depth.saturating_sub(1)
                        ),
                    )
                    .with_subject(mem.to_string()),
                );
            }
        }
        let elem_ty = symbol.ty.clone();
        if let Some(value_ty) = self.type_of(value, info) {
            if let Some(problem) = connection_problem(&elem_ty, &value_ty) {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        info.clone(),
                        format!("memory write to {mem} failed: {problem}"),
                    )
                    .with_suggestion("insert an explicit conversion such as .asUInt or .asSInt")
                    .with_subject(mem.to_string()),
                );
            } else if let (Some(ew), Some(vw)) = (elem_ty.width(), value_ty.width()) {
                if vw > ew {
                    self.report.push(
                        Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            info.clone(),
                            format!(
                                "memory write data is {vw} bits wide but {mem} holds {ew}-bit \
                                 words"
                            ),
                        )
                        .with_suggestion(format!("truncate explicitly, e.g. .bits({}, 0)", ew - 1))
                        .with_subject(mem.to_string()),
                    );
                }
            }
        }
        if let Some(mask) = mask {
            if let Some(mask_ty) = self.type_of(mask, info) {
                if !matches!(mask_ty, Type::UInt(_) | Type::Bool) {
                    self.report.push(
                        Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            info.clone(),
                            format!(
                                "write mask must be an unsigned integer, found {}",
                                mask_ty.chisel_name()
                            ),
                        )
                        .with_subject(mem.to_string()),
                    );
                } else if let (Some(ew), Some(mw)) = (elem_ty.width(), mask_ty.width()) {
                    // Lane-granular contract: exactly one mask bit per data bit.
                    if mw != ew {
                        self.report.push(
                            Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                info.clone(),
                                format!(
                                    "write mask is {mw} bits wide but {mem} holds {ew}-bit \
                                     words; the mask needs one lane bit per data bit"
                                ),
                            )
                            .with_suggestion(format!("resize the mask, e.g. .pad({ew}) or .bits"))
                            .with_subject(mem.to_string()),
                        );
                    }
                }
            }
        }
    }

    /// Validates that `loc` is something that may legally be driven.
    fn check_sink(&mut self, loc: &Expression, info: &SourceInfo) {
        // Bit-select on a UInt used as a sink: the Fig. 8 case-study error.
        if let Expression::SubIndex(inner, _) | Expression::SubAccess(inner, _) = loc {
            if let Ok(Type::UInt(_) | Type::Bool) =
                ExprTyper::new(self.symbols).at(info).infer(inner)
            {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::InvalidSink,
                        info.clone(),
                        "individual bits of a UInt are read-only in Chisel".to_string(),
                    )
                    .with_suggestion(
                        "use a Vec of Bool for bit-level manipulation and convert it to UInt \
                         with asUInt after assignments",
                    )
                    .with_subject(inner.root_ref().unwrap_or_default().to_string()),
                );
                return;
            }
        }
        let Some(root) = loc.root_ref() else {
            self.report.push(Diagnostic::error(
                ErrorCode::InvalidSink,
                info.clone(),
                format!("expression {loc} cannot be the target of a connection"),
            ));
            return;
        };
        let Some(symbol) = self.symbols.get(root) else {
            // Unknown root reference: reported by expression typing.
            return;
        };
        match &symbol.kind {
            SymbolKind::InputPort => {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::InvalidSink,
                        info.clone(),
                        format!("cannot connect to input port {root} from inside the module"),
                    )
                    .with_subject(root.to_string()),
                );
            }
            SymbolKind::Node => {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::InvalidSink,
                        info.clone(),
                        format!(
                            "{root} is an immutable value (val); declare it as a Wire to connect \
                             to it"
                        ),
                    )
                    .with_subject(root.to_string()),
                );
            }
            SymbolKind::BareIo => {
                // Reported once at the declaration site (B2); connecting to it is not
                // separately diagnosed.
            }
            SymbolKind::Mem(_) => {
                self.report.push(
                    Diagnostic::error(
                        ErrorCode::InvalidSink,
                        info.clone(),
                        format!("memory {root} cannot be connected directly"),
                    )
                    .with_suggestion("drive the memory through a write port, e.g. m.mem_write(...)")
                    .with_subject(root.to_string()),
                );
            }
            SymbolKind::Instance(_) => {
                // Driving a child *output* is illegal; driving a child input is the
                // normal way to wire up an instance.
                if let Expression::SubField(_, field) = loc {
                    if let Type::Bundle(fields) = &symbol.ty {
                        if let Some(f) = fields.iter().find(|f| &f.name == field) {
                            if !f.flipped {
                                self.report.push(
                                    Diagnostic::error(
                                        ErrorCode::InvalidSink,
                                        info.clone(),
                                        format!(
                                            "cannot drive output port {field} of child instance \
                                             {root}"
                                        ),
                                    )
                                    .with_subject(root.to_string()),
                                );
                            }
                        }
                    }
                }
            }
            SymbolKind::OutputPort | SymbolKind::Wire | SymbolKind::Reg => {}
        }
    }

    fn check_compatibility(
        &mut self,
        loc: &Expression,
        sink: &Type,
        src: &Type,
        info: &SourceInfo,
    ) {
        if let Some(problem) = connection_problem(sink, src) {
            let code = if matches!(sink, Type::Bundle(_)) || matches!(src, Type::Bundle(_)) {
                ErrorCode::BundleFieldMismatch
            } else {
                ErrorCode::TypeMismatch
            };
            let mut d = Diagnostic::error(
                code,
                info.clone(),
                format!(
                    "connection between sink ({} of type {}) and source (type {}) failed: {problem}",
                    loc,
                    sink.chisel_name(),
                    src.chisel_name()
                ),
            )
            .with_subject(loc.root_ref().unwrap_or_default().to_string());
            if code == ErrorCode::TypeMismatch {
                d = d.with_suggestion("insert an explicit conversion such as .asUInt or .asSInt");
            }
            self.report.push(d);
        }
    }
}

/// Returns a human-readable description of why `src` cannot drive `sink`, or `None` if
/// the connection is legal.
pub fn connection_problem(sink: &Type, src: &Type) -> Option<String> {
    use Type::*;
    match (sink, src) {
        (UInt(_), UInt(_)) | (SInt(_), SInt(_)) => None,
        (UInt(_), Bool) | (Bool, Bool) => None,
        (Bool, UInt(Some(1))) | (Bool, UInt(None)) => None,
        (Bool, UInt(Some(w))) => {
            Some(format!("cannot connect a {w}-bit UInt to a Bool; extract a single bit first"))
        }
        (UInt(_), SInt(_)) => Some("found: chisel3.SInt, required: chisel3.UInt".to_string()),
        (SInt(_), UInt(_)) => Some("found: chisel3.UInt, required: chisel3.SInt".to_string()),
        (SInt(_), Bool) => Some("found: chisel3.Bool, required: chisel3.SInt".to_string()),
        (Clock, Clock) => None,
        (Clock, _) => Some(format!("found: {}, required: chisel3.Clock", src.chisel_name())),
        (_, Clock) => Some("a Clock can only drive another Clock".to_string()),
        (Reset, other) if other.is_reset() => None,
        (AsyncReset, AsyncReset) => None,
        (AsyncReset, other) => {
            Some(format!("found: {}, required: chisel3.AsyncReset", other.chisel_name()))
        }
        (Bool, Reset) | (Bool, AsyncReset) => None,
        (UInt(_), Reset) | (UInt(_), AsyncReset) => None,
        (Reset, other) => Some(format!("found: {}, required: chisel3.Reset", other.chisel_name())),
        (Vec(se, sl), Vec(oe, ol)) => {
            if sl != ol {
                Some(format!("vector lengths differ: sink has {sl} elements, source has {ol}"))
            } else {
                connection_problem(se, oe)
            }
        }
        (Bundle(sf), Bundle(of)) => {
            for f in sf {
                match of.iter().find(|o| o.name == f.name) {
                    None => {
                        return Some(format!("source Record missing field ({})", f.name));
                    }
                    Some(o) => {
                        if let Some(p) = connection_problem(&f.ty, &o.ty) {
                            return Some(format!("field {}: {p}", f.name));
                        }
                    }
                }
            }
            for o in of {
                if !sf.iter().any(|f| f.name == o.name) {
                    return Some(format!("sink Record missing field ({})", o.name));
                }
            }
            None
        }
        (Vec(..), _) | (_, Vec(..)) | (Bundle(..), _) | (_, Bundle(..)) => Some(format!(
            "aggregate/ground mismatch: sink is {}, source is {}",
            sink.chisel_name(),
            src.chisel_name()
        )),
        _ => Some(format!("found: {}, required: {}", src.chisel_name(), sink.chisel_name())),
    }
}

/// Ground-type compatibility used for register init values.
fn ground_compatible(reg_ty: &Type, init_ty: &Type) -> bool {
    connection_problem(reg_ty, init_ty).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ClockSpec, Direction, Field, ModuleKind, Port, PrimOp};

    fn base_module() -> Module {
        let mut m = Module::new("T", ModuleKind::Module);
        m.ports.push(Port::new("clock", Direction::Input, Type::Clock));
        m.ports.push(Port::new("reset", Direction::Input, Type::bool()));
        m.ports.push(Port::new("in", Direction::Input, Type::uint(8)));
        m.ports.push(Port::new("sel", Direction::Input, Type::bool()));
        m.ports.push(Port::new("out", Direction::Output, Type::uint(8)));
        m
    }

    fn check(m: Module) -> DiagnosticReport {
        let c = Circuit::single(m);
        check_connects(c.top_module().unwrap(), &c)
    }

    #[test]
    fn clean_module_has_no_errors() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        assert!(!check(m).has_errors());
    }

    #[test]
    fn misspelled_reference_reported_with_suggestion() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("inn"),
            info: SourceInfo::new("T.scala", 4, 3),
        });
        let report = check(m);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::UnknownReference);
        assert!(err.suggestion.as_ref().unwrap().contains("in"));
    }

    #[test]
    fn connect_to_input_port_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("in"),
            expr: Expression::uint_lit(0),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::InvalidSink));
    }

    #[test]
    fn bit_assignment_to_uint_output_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::SubIndex(Box::new(Expression::reference("out")), 3),
            expr: Expression::uint_lit(1),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::InvalidSink);
        assert!(err.message.contains("read-only"));
        assert!(err.suggestion.as_ref().unwrap().contains("Vec of Bool"));
    }

    #[test]
    fn sint_to_uint_connection_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Wire {
            name: "s".into(),
            ty: Type::sint(8),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("s"),
            expr: Expression::sint_lit_w(-1, 8),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("s"),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::TypeMismatch));
    }

    #[test]
    fn bundle_mismatch_reports_missing_field() {
        let mut m = base_module();
        let a = Type::bundle(vec![Field::new("x", Type::uint(4)), Field::new("c", Type::bool())]);
        let b = Type::bundle(vec![Field::new("x", Type::uint(4))]);
        m.body.push(Statement::Wire { name: "wa".into(), ty: a, info: SourceInfo::unknown() });
        m.body.push(Statement::Wire { name: "wb".into(), ty: b, info: SourceInfo::unknown() });
        m.body.push(Statement::Connect {
            loc: Expression::reference("wa"),
            expr: Expression::reference("wb"),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report
            .errors()
            .find(|d| d.code == ErrorCode::BundleFieldMismatch)
            .expect("bundle mismatch");
        assert!(err.message.contains("missing field (c)"));
    }

    #[test]
    fn bare_io_decl_rejected() {
        let mut m = base_module();
        m.body.push(Statement::BareIoDecl {
            name: "clk".into(),
            ty: Type::Clock,
            direction: Direction::Input,
            info: SourceInfo::new("T.scala", 2, 7),
        });
        let report = check(m);
        let err = report.errors().next().unwrap();
        assert_eq!(err.code, ErrorCode::BareChiselType);
        assert!(err.suggestion.as_ref().unwrap().contains("IO(_)"));
    }

    #[test]
    fn unknown_instance_module_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Instance {
            name: "child".into(),
            module: "Missing".into(),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::UnknownModule));
    }

    #[test]
    fn reg_init_type_checked() {
        let mut m = base_module();
        m.body.push(Statement::Reg {
            name: "r".into(),
            ty: Type::uint(8),
            clock: ClockSpec::Implicit,
            reset: Some(RegReset {
                reset: Expression::reference("reset"),
                init: Expression::sint_lit_w(-1, 8),
            }),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("r"),
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::TypeMismatch));
    }

    #[test]
    fn when_condition_must_be_bool() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::reference("in"),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("out"),
                expr: Expression::uint_lit(0),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![],
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::TypeMismatch));
    }

    #[test]
    fn comparison_in_when_is_fine() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::reference("in"),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::When {
            cond: Expression::prim(
                PrimOp::Eq,
                vec![Expression::reference("in"), Expression::uint_lit(3)],
                vec![],
            ),
            then_body: vec![Statement::Connect {
                loc: Expression::reference("out"),
                expr: Expression::uint_lit(0),
                info: SourceInfo::unknown(),
            }],
            else_body: vec![],
            info: SourceInfo::unknown(),
        });
        assert!(!check(m).has_errors());
    }

    #[test]
    fn mem_write_mask_width_must_match_word_width() {
        let mut m = base_module();
        m.body.push(Statement::Mem {
            name: "store".into(),
            ty: Type::uint(8),
            depth: 4,
            init: None,
            ruw: Default::default(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::MemWrite {
            mem: "store".into(),
            addr: Expression::uint_lit_w(0, 2),
            value: Expression::reference("in"),
            // 4-bit mask against 8-bit words: one lane bit per data bit is required.
            mask: Some(Expression::uint_lit_w(0xF, 4)),
            clock: ClockSpec::Implicit,
            info: SourceInfo::new("T.scala", 9, 3),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::MemRead {
                mem: "store".into(),
                addr: Box::new(Expression::uint_lit_w(0, 2)),
                sync: false,
                en: None,
                clock: None,
            },
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report.errors().find(|d| d.code == ErrorCode::TypeMismatch).unwrap();
        assert!(err.message.contains("mask is 4 bits wide"), "{err}");
        assert!(err.message.contains("8-bit words"), "{err}");
        // The rendered diagnostic carries the location and the taxonomy label.
        let shown = err.to_string();
        assert!(shown.contains("T.scala:9:3"), "{shown}");
        assert!(shown.contains("B5"), "{shown}");
    }

    #[test]
    fn mem_write_mask_of_matching_width_is_clean() {
        let mut m = base_module();
        m.body.push(Statement::Mem {
            name: "store".into(),
            ty: Type::uint(8),
            depth: 4,
            init: None,
            ruw: Default::default(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::MemWrite {
            mem: "store".into(),
            addr: Expression::uint_lit_w(0, 2),
            value: Expression::reference("in"),
            mask: Some(Expression::uint_lit_w(0x0F, 8)),
            clock: ClockSpec::Implicit,
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::MemRead {
                mem: "store".into(),
                addr: Box::new(Expression::uint_lit_w(0, 2)),
                sync: false,
                en: None,
                clock: None,
            },
            info: SourceInfo::unknown(),
        });
        assert!(!check(m).has_errors());
    }

    #[test]
    fn mem_init_longer_than_depth_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Mem {
            name: "rom".into(),
            ty: Type::uint(8),
            depth: 2,
            init: Some(vec![1, 2, 3]),
            ruw: Default::default(),
            info: SourceInfo::new("T.scala", 4, 3),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::MemRead {
                mem: "rom".into(),
                addr: Box::new(Expression::uint_lit_w(0, 1)),
                sync: false,
                en: None,
                clock: None,
            },
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report.errors().find(|d| d.code == ErrorCode::IndexOutOfBounds).unwrap();
        assert!(err.message.contains("initializes 3 words but holds only 2"), "{err}");
        assert!(err.to_string().contains("T.scala:4:3"), "{err}");
    }

    #[test]
    fn mem_init_word_wider_than_the_word_rejected() {
        let mut m = base_module();
        m.body.push(Statement::Mem {
            name: "rom".into(),
            ty: Type::uint(4),
            depth: 4,
            init: Some(vec![0xF, 0x10]),
            ruw: Default::default(),
            info: SourceInfo::unknown(),
        });
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::MemRead {
                mem: "rom".into(),
                addr: Box::new(Expression::uint_lit_w(0, 2)),
                sync: false,
                en: None,
                clock: None,
            },
            info: SourceInfo::unknown(),
        });
        let report = check(m);
        let err = report.errors().find(|d| d.code == ErrorCode::TypeMismatch).unwrap();
        assert!(err.message.contains("init word 1 (0x10)"), "{err}");
        assert!(err.message.contains("4-bit word"), "{err}");
    }

    #[test]
    fn scala_cast_in_connect_reported() {
        let mut m = base_module();
        m.body.push(Statement::Connect {
            loc: Expression::reference("out"),
            expr: Expression::ScalaCast {
                arg: Box::new(Expression::reference("in")),
                target: "SInt".into(),
            },
            info: SourceInfo::new("T.scala", 11, 5),
        });
        let report = check(m);
        assert!(report.errors().any(|d| d.code == ErrorCode::ScalaChiselMixup));
    }
}
