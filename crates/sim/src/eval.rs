//! Expression evaluation over ground signals.
//!
//! The simulator evaluates lowered [`Expression`]s (the ground subset produced by
//! `rechisel_firrtl::lower`) against an environment mapping signal names to bit values.
//! Values are stored as `u128` bit patterns masked to the signal width; signed
//! interpretation happens locally inside the operations that need it.
//!
//! # Word-size semantics
//!
//! The physical word is [`WORD_BITS`] (= 128) bits. Operator result widths saturate at
//! the word size (an `add` of two 128-bit values still produces a 128-bit result, i.e.
//! arithmetic is performed modulo 2^128), and shifting by the word size or more yields
//! zero for logical shifts and sign-fill for arithmetic shifts — never a panic or a
//! wrapped shift amount. Both engines (interpreter and compiled tape) run through
//! [`apply_prim`], so these rules hold uniformly.

use std::collections::BTreeMap;

use rechisel_firrtl::ir::{Expression, PrimOp};
use rechisel_firrtl::lower::SignalInfo;

/// The result of evaluating an expression: a bit pattern plus its physical
/// interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalValue {
    /// Bit pattern, masked to `width`.
    pub bits: u128,
    /// Width in bits (0..=[`WORD_BITS`]; operator results saturate at the word size).
    pub width: u32,
    /// Two's-complement signed interpretation.
    pub signed: bool,
}

impl EvalValue {
    /// Creates a value, masking `bits` to `width`.
    pub fn new(bits: u128, width: u32, signed: bool) -> Self {
        Self { bits: mask(bits, width), width, signed }
    }

    /// Unsigned value of the bit pattern.
    pub fn as_u128(&self) -> u128 {
        self.bits
    }

    /// Signed (two's complement) interpretation of the bit pattern.
    ///
    /// Sign-extends through bit 127 with a shift pair rather than subtracting
    /// `1 << width` — the subtraction form overflows `i128` at width 127, and at
    /// width 128 the bit pattern already *is* the two's-complement value.
    pub fn as_i128(&self) -> i128 {
        if self.signed && self.width > 0 && self.width < 128 {
            let shift = 128 - self.width;
            ((self.bits << shift) as i128) >> shift
        } else {
            self.bits as i128
        }
    }
}

/// The physical word size in bits: values are stored as `u128` bit patterns, so
/// operator result widths saturate here and wider arithmetic wraps modulo 2^128.
pub const WORD_BITS: u32 = 128;

/// Masks `bits` to the lowest `width` bits.
pub fn mask(bits: u128, width: u32) -> u128 {
    if width == 0 {
        0
    } else if width >= WORD_BITS {
        bits
    } else {
        bits & ((1u128 << width) - 1)
    }
}

/// Shifts `bits` left by `amount`, yielding zero once the shift amount reaches the
/// word size (a raw `<<` would panic in debug builds and wrap the amount in release).
pub fn shl_bits(bits: u128, amount: u32) -> u128 {
    bits.checked_shl(amount).unwrap_or(0)
}

/// Logical right shift with the same over-shift-to-zero guarantee as [`shl_bits`].
pub fn shr_bits(bits: u128, amount: u32) -> u128 {
    bits.checked_shr(amount).unwrap_or(0)
}

/// Contents and physical properties of one memory during interpretation.
///
/// Words are stored as bit patterns masked to the word width; an out-of-range read
/// returns zero (both engines agree on this by differential fuzzing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemState {
    /// Physical properties of one word.
    pub info: SignalInfo,
    /// The backing store, one entry per word.
    pub words: Vec<u128>,
}

impl MemState {
    /// A zero-initialised memory of `depth` words.
    pub fn new(info: SignalInfo, depth: usize) -> Self {
        Self { info, words: vec![0; depth] }
    }

    /// A memory of `depth` words preloaded from `init` (each word masked to the word
    /// width); words beyond the image start as zero.
    pub fn with_init(info: SignalInfo, depth: usize, init: &[u128]) -> Self {
        let mut state = Self::new(info, depth);
        for (word, value) in state.words.iter_mut().zip(init) {
            *word = mask(*value, info.width);
        }
        state
    }
}

/// Errors produced by evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced signal has no value in the environment.
    UnknownSignal(String),
    /// An expression form that lowering should have eliminated was encountered.
    UnsupportedExpression(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownSignal(name) => write!(f, "unknown signal {name}"),
            EvalError::UnsupportedExpression(what) => {
                write!(f, "unsupported expression during simulation: {what}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a ground expression.
///
/// `env` maps signal names to their current values, and `infos` provides width/sign
/// information for referenced signals.
///
/// # Errors
///
/// Returns [`EvalError::UnknownSignal`] for dangling references and
/// [`EvalError::UnsupportedExpression`] for non-ground expression forms.
pub fn eval_expr(
    expr: &Expression,
    env: &BTreeMap<String, u128>,
    infos: &BTreeMap<String, SignalInfo>,
) -> Result<EvalValue, EvalError> {
    eval_expr_with_mems(expr, env, infos, &BTreeMap::new())
}

/// Evaluates a ground expression with memory read ports in scope.
///
/// Identical to [`eval_expr`], plus support for [`Expression::MemRead`]: the addressed
/// word of `mems[name]` is returned with the memory's word metadata; out-of-range
/// addresses read as zero.
///
/// # Errors
///
/// Same conditions as [`eval_expr`]; a read of an unknown memory reports
/// [`EvalError::UnknownSignal`].
pub fn eval_expr_with_mems(
    expr: &Expression,
    env: &BTreeMap<String, u128>,
    infos: &BTreeMap<String, SignalInfo>,
    mems: &BTreeMap<String, MemState>,
) -> Result<EvalValue, EvalError> {
    match expr {
        Expression::Ref(name) => {
            let bits = *env.get(name).ok_or_else(|| EvalError::UnknownSignal(name.clone()))?;
            let info = infos.get(name).copied().unwrap_or(SignalInfo {
                width: 64,
                signed: false,
                is_clock: false,
            });
            Ok(EvalValue::new(bits, info.width, info.signed))
        }
        Expression::UIntLiteral { value, width } => {
            let w = width.unwrap_or_else(|| min_width(*value));
            Ok(EvalValue::new(*value, w, false))
        }
        Expression::SIntLiteral { value, width } => {
            let w = width.unwrap_or(64);
            Ok(EvalValue::new(*value as u128, w, true))
        }
        Expression::Mux { cond, tval, fval } => {
            let c = eval_expr_with_mems(cond, env, infos, mems)?;
            if c.bits & 1 != 0 {
                eval_expr_with_mems(tval, env, infos, mems)
            } else {
                eval_expr_with_mems(fval, env, infos, mems)
            }
        }
        Expression::MemRead { mem, addr, sync: false, .. } => {
            let state = mems.get(mem).ok_or_else(|| EvalError::UnknownSignal(mem.clone()))?;
            let a = eval_expr_with_mems(addr, env, infos, mems)?.as_u128();
            let word = if a < state.words.len() as u128 { state.words[a as usize] } else { 0 };
            Ok(EvalValue::new(word, state.info.width, state.info.signed))
        }
        // Sequential reads never reach expression evaluation: lowering hoists each
        // one into an implicit read register whose next-state is the combinational
        // read above. A surviving sync read means the netlist skipped lowering.
        Expression::MemRead { sync: true, .. } => {
            Err(EvalError::UnsupportedExpression(expr.to_string()))
        }
        Expression::Prim { op, args, params } => eval_prim(*op, args, params, env, infos, mems),
        other => Err(EvalError::UnsupportedExpression(other.to_string())),
    }
}

pub(crate) fn min_width(value: u128) -> u32 {
    if value == 0 {
        1
    } else {
        128 - value.leading_zeros()
    }
}

fn eval_prim(
    op: PrimOp,
    args: &[Expression],
    params: &[i64],
    env: &BTreeMap<String, u128>,
    infos: &BTreeMap<String, SignalInfo>,
    mems: &BTreeMap<String, MemState>,
) -> Result<EvalValue, EvalError> {
    let a = eval_expr_with_mems(&args[0], env, infos, mems)?;
    let b =
        if args.len() > 1 { Some(eval_expr_with_mems(&args[1], env, infos, mems)?) } else { None };
    Ok(apply_prim(op, a, b, params))
}

/// Applies a primitive operation to already-evaluated operands.
///
/// This is the single source of truth for operator semantics (bit patterns, result
/// widths, signedness): the tree-walking interpreter calls it per node, and the
/// compiled engine calls it per tape instruction, so the two can never drift apart.
///
/// # Panics
///
/// Panics when a binary operation is applied without a second operand or a
/// parameterized operation without its parameters — conditions that lowering never
/// produces (compiled tapes reject them at build time instead).
pub fn apply_prim(op: PrimOp, a: EvalValue, b: Option<EvalValue>, params: &[i64]) -> EvalValue {
    use PrimOp::*;
    match op {
        Add => {
            let b = b.expect("binary op");
            let w = a.width.max(b.width).saturating_add(1).min(WORD_BITS);
            let signed = a.signed || b.signed;
            EvalValue::new((a.as_i128().wrapping_add(b.as_i128())) as u128, w, signed)
        }
        Sub => {
            let b = b.expect("binary op");
            let w = a.width.max(b.width).saturating_add(1).min(WORD_BITS);
            let signed = a.signed || b.signed;
            EvalValue::new((a.as_i128().wrapping_sub(b.as_i128())) as u128, w, signed)
        }
        Mul => {
            let b = b.expect("binary op");
            let w = a.width.saturating_add(b.width).min(WORD_BITS);
            let signed = a.signed || b.signed;
            EvalValue::new((a.as_i128().wrapping_mul(b.as_i128())) as u128, w, signed)
        }
        Div => {
            let b = b.expect("binary op");
            let signed = a.signed || b.signed;
            let value = if b.as_i128() == 0 {
                0
            } else if signed {
                a.as_i128().wrapping_div(b.as_i128()) as u128
            } else {
                a.as_u128() / b.as_u128()
            };
            EvalValue::new(value, a.width.saturating_add(u32::from(signed)).min(WORD_BITS), signed)
        }
        Rem => {
            let b = b.expect("binary op");
            let signed = a.signed || b.signed;
            let value = if b.as_i128() == 0 {
                0
            } else if signed {
                a.as_i128().wrapping_rem(b.as_i128()) as u128
            } else {
                a.as_u128() % b.as_u128()
            };
            EvalValue::new(value, a.width.min(b.width), signed)
        }
        And | Or | Xor => {
            let b = b.expect("binary op");
            let w = a.width.max(b.width);
            let value = match op {
                And => a.bits & b.bits,
                Or => a.bits | b.bits,
                _ => a.bits ^ b.bits,
            };
            EvalValue::new(value, w, false)
        }
        Not => EvalValue::new(!a.bits, a.width, false),
        Eq => EvalValue::new(u128::from(a.as_i128() == b.expect("binary op").as_i128()), 1, false),
        Neq => EvalValue::new(u128::from(a.as_i128() != b.expect("binary op").as_i128()), 1, false),
        Lt => EvalValue::new(
            u128::from(cmp(a, b.expect("binary op")) == std::cmp::Ordering::Less),
            1,
            false,
        ),
        Leq => EvalValue::new(
            u128::from(cmp(a, b.expect("binary op")) != std::cmp::Ordering::Greater),
            1,
            false,
        ),
        Gt => EvalValue::new(
            u128::from(cmp(a, b.expect("binary op")) == std::cmp::Ordering::Greater),
            1,
            false,
        ),
        Geq => EvalValue::new(
            u128::from(cmp(a, b.expect("binary op")) != std::cmp::Ordering::Less),
            1,
            false,
        ),
        // Shift semantics (explicit, shared by every engine): the result width
        // saturates at the word size, a logical over-shift yields zero, and an
        // arithmetic right over-shift yields pure sign fill.
        Shl => {
            let amount = params[0].max(0) as u32;
            let w = a.width.saturating_add(amount).min(WORD_BITS);
            EvalValue::new(shl_bits(a.bits, amount), w, a.signed)
        }
        Shr => {
            let amount = params[0].max(0) as u32;
            let value = if a.signed {
                (a.as_i128() >> amount.min(WORD_BITS - 1)) as u128
            } else {
                shr_bits(a.bits, amount)
            };
            EvalValue::new(value, a.width.saturating_sub(amount).max(1), a.signed)
        }
        Dshl => {
            let b = b.expect("binary op");
            let amount = b.as_u128().min(u128::from(WORD_BITS)) as u32;
            let w = a.width.saturating_add(amount).min(WORD_BITS);
            EvalValue::new(shl_bits(a.bits, amount), w, a.signed)
        }
        Dshr => {
            let b = b.expect("binary op");
            let amount = b.as_u128().min(u128::from(WORD_BITS)) as u32;
            let value = if a.signed {
                (a.as_i128() >> amount.min(WORD_BITS - 1)) as u128
            } else {
                shr_bits(a.bits, amount)
            };
            EvalValue::new(value, a.width, a.signed)
        }
        Cat => {
            let b = b.expect("binary op");
            let w = a.width.saturating_add(b.width).min(WORD_BITS);
            EvalValue::new(shl_bits(a.bits, b.width) | b.bits, w, false)
        }
        Bits => {
            let hi = params[0].max(0) as u32;
            let lo = params[1].max(0) as u32;
            let w = (hi.saturating_sub(lo) + 1).min(WORD_BITS);
            EvalValue::new(shr_bits(a.bits, lo), w, false)
        }
        AndR => EvalValue::new(u128::from(a.bits == mask(u128::MAX, a.width)), 1, false),
        OrR => EvalValue::new(u128::from(a.bits != 0), 1, false),
        XorR => EvalValue::new(u128::from(a.bits.count_ones() % 2 == 1), 1, false),
        AsUInt => EvalValue::new(a.bits, a.width, false),
        AsSInt => EvalValue::new(a.bits, a.width, true),
        AsBool => EvalValue::new(a.bits & 1, 1, false),
        AsClock => EvalValue::new(a.bits & 1, 1, false),
        AsAsyncReset => EvalValue::new(a.bits & 1, 1, false),
        Neg => EvalValue::new(
            a.as_i128().wrapping_neg() as u128,
            a.width.saturating_add(1).min(WORD_BITS),
            true,
        ),
        Pad => {
            let target = params[0].max(0) as u32;
            let w = a.width.max(target).min(WORD_BITS);
            let value = if a.signed { a.as_i128() as u128 } else { a.bits };
            EvalValue::new(value, w, a.signed)
        }
        Tail => {
            let drop = params[0].max(0) as u32;
            let w = a.width.saturating_sub(drop).max(1);
            EvalValue::new(a.bits, w, false)
        }
        Head => {
            let keep = params[0].max(0) as u32;
            let keep = keep.max(1);
            let shift = a.width.saturating_sub(keep);
            EvalValue::new(shr_bits(a.bits, shift), keep, false)
        }
    }
}

fn cmp(a: EvalValue, b: EvalValue) -> std::cmp::Ordering {
    if a.signed || b.signed {
        a.as_i128().cmp(&b.as_i128())
    } else {
        a.as_u128().cmp(&b.as_u128())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(
        pairs: &[(&str, u128, u32, bool)],
    ) -> (BTreeMap<String, u128>, BTreeMap<String, SignalInfo>) {
        let mut env = BTreeMap::new();
        let mut infos = BTreeMap::new();
        for (name, value, width, signed) in pairs {
            env.insert(name.to_string(), *value);
            infos.insert(
                name.to_string(),
                SignalInfo { width: *width, signed: *signed, is_clock: false },
            );
        }
        (env, infos)
    }

    fn eval(expr: &Expression, pairs: &[(&str, u128, u32, bool)]) -> EvalValue {
        let (env, infos) = env_of(pairs);
        eval_expr(expr, &env, &infos).unwrap()
    }

    #[test]
    fn masking_and_sign() {
        assert_eq!(mask(0xFF, 4), 0xF);
        let v = EvalValue::new(0b1000, 4, true);
        assert_eq!(v.as_i128(), -8);
        let v = EvalValue::new(0b0111, 4, true);
        assert_eq!(v.as_i128(), 7);
    }

    #[test]
    fn add_and_mul() {
        let e = Expression::prim(
            PrimOp::Add,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&e, &[("a", 200, 8, false), ("b", 100, 8, false)]);
        assert_eq!(v.bits, 300);
        assert_eq!(v.width, 9);
        let e = Expression::prim(
            PrimOp::Mul,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&e, &[("a", 15, 4, false), ("b", 15, 4, false)]);
        assert_eq!(v.bits, 225);
    }

    #[test]
    fn subtraction_wraps_in_width() {
        let e = Expression::prim(
            PrimOp::Sub,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&e, &[("a", 3, 8, false), ("b", 5, 8, false)]);
        // 3 - 5 = -2 masked into 9 bits.
        assert_eq!(v.bits, mask((-2i128) as u128, 9));
    }

    #[test]
    fn signed_comparison() {
        let e = Expression::prim(
            PrimOp::Lt,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        // a = -1 (0xF in 4-bit signed), b = 2.
        let v = eval(&e, &[("a", 0xF, 4, true), ("b", 2, 4, true)]);
        assert_eq!(v.bits, 1);
        // Unsigned: 0xF > 2.
        let v = eval(&e, &[("a", 0xF, 4, false), ("b", 2, 4, false)]);
        assert_eq!(v.bits, 0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let e = Expression::prim(
            PrimOp::Div,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&e, &[("a", 7, 4, false), ("b", 0, 4, false)]);
        assert_eq!(v.bits, 0);
    }

    #[test]
    fn cat_bits_and_reductions() {
        let cat = Expression::prim(
            PrimOp::Cat,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&cat, &[("a", 0b10, 2, false), ("b", 0b11, 2, false)]);
        assert_eq!(v.bits, 0b1011);
        assert_eq!(v.width, 4);

        let bits = Expression::prim(PrimOp::Bits, vec![Expression::reference("a")], vec![2, 1]);
        let v = eval(&bits, &[("a", 0b1010, 4, false)]);
        assert_eq!(v.bits, 0b01);

        let orr = Expression::prim(PrimOp::OrR, vec![Expression::reference("a")], vec![]);
        assert_eq!(eval(&orr, &[("a", 0, 4, false)]).bits, 0);
        assert_eq!(eval(&orr, &[("a", 2, 4, false)]).bits, 1);

        let andr = Expression::prim(PrimOp::AndR, vec![Expression::reference("a")], vec![]);
        assert_eq!(eval(&andr, &[("a", 0xF, 4, false)]).bits, 1);
        assert_eq!(eval(&andr, &[("a", 0x7, 4, false)]).bits, 0);

        let xorr = Expression::prim(PrimOp::XorR, vec![Expression::reference("a")], vec![]);
        assert_eq!(eval(&xorr, &[("a", 0b101, 3, false)]).bits, 0);
        assert_eq!(eval(&xorr, &[("a", 0b100, 3, false)]).bits, 1);
    }

    #[test]
    fn mux_selects() {
        let e = Expression::mux(
            Expression::reference("sel"),
            Expression::reference("a"),
            Expression::reference("b"),
        );
        let v = eval(&e, &[("sel", 1, 1, false), ("a", 5, 4, false), ("b", 9, 4, false)]);
        assert_eq!(v.bits, 5);
        let v = eval(&e, &[("sel", 0, 1, false), ("a", 5, 4, false), ("b", 9, 4, false)]);
        assert_eq!(v.bits, 9);
    }

    #[test]
    fn shifts() {
        let shl = Expression::prim(PrimOp::Shl, vec![Expression::reference("a")], vec![2]);
        assert_eq!(eval(&shl, &[("a", 0b11, 2, false)]).bits, 0b1100);
        let dshr = Expression::prim(
            PrimOp::Dshr,
            vec![Expression::reference("a"), Expression::reference("s")],
            vec![],
        );
        assert_eq!(eval(&dshr, &[("a", 0b1100, 4, false), ("s", 2, 2, false)]).bits, 0b11);
    }

    #[test]
    fn unknown_signal_is_an_error() {
        let (env, infos) = env_of(&[]);
        let err = eval_expr(&Expression::reference("ghost"), &env, &infos).unwrap_err();
        assert!(matches!(err, EvalError::UnknownSignal(_)));
        assert_eq!(err.to_string(), "unknown signal ghost");
        // Unknown signals are detected inside nested operands and mux branches too.
        let nested = Expression::prim(
            PrimOp::Add,
            vec![Expression::uint_lit(1), Expression::reference("ghost")],
            vec![],
        );
        assert!(
            matches!(eval_expr(&nested, &env, &infos), Err(EvalError::UnknownSignal(n)) if n == "ghost")
        );
        let mux = Expression::mux(
            Expression::uint_lit(1),
            Expression::reference("ghost"),
            Expression::uint_lit(0),
        );
        assert!(matches!(eval_expr(&mux, &env, &infos), Err(EvalError::UnknownSignal(_))));
    }

    #[test]
    fn non_ground_expressions_are_unsupported() {
        let (env, infos) = env_of(&[("x", 1, 4, false)]);
        let field = Expression::SubField(Box::new(Expression::reference("x")), "f".into());
        let err = eval_expr(&field, &env, &infos).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedExpression(_)));
        assert_eq!(err.to_string(), "unsupported expression during simulation: x.f");

        let cast = Expression::ScalaCast {
            arg: Box::new(Expression::reference("x")),
            target: "SInt".into(),
        };
        let err = eval_expr(&cast, &env, &infos).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedExpression(w) if w.contains("asInstanceOf")));

        let apply = Expression::BadApply {
            target: Box::new(Expression::reference("x")),
            args: vec![Expression::uint_lit(0)],
        };
        assert!(matches!(
            eval_expr(&apply, &env, &infos),
            Err(EvalError::UnsupportedExpression(_))
        ));
        let index = Expression::SubIndex(Box::new(Expression::reference("x")), 0);
        assert!(matches!(
            eval_expr(&index, &env, &infos),
            Err(EvalError::UnsupportedExpression(_))
        ));
    }

    #[test]
    fn apply_prim_matches_tree_evaluation() {
        // The shared kernel is what both engines execute; spot-check it directly.
        let a = EvalValue::new(200, 8, false);
        let b = EvalValue::new(100, 8, false);
        let sum = apply_prim(PrimOp::Add, a, Some(b), &[]);
        assert_eq!((sum.bits, sum.width, sum.signed), (300, 9, false));
        let sliced = apply_prim(PrimOp::Bits, sum, None, &[3, 1]);
        assert_eq!((sliced.bits, sliced.width), ((300 >> 1) & 0b111, 3));
        let neg = apply_prim(PrimOp::Neg, EvalValue::new(3, 4, false), None, &[]);
        assert_eq!(neg.as_i128(), -3);
    }

    #[test]
    fn width_zero_masks_everything_away() {
        assert_eq!(mask(u128::MAX, 0), 0);
        assert_eq!(mask(1, 0), 0);
        let v = EvalValue::new(0b1011, 0, false);
        assert_eq!(v.bits, 0);
        assert_eq!(v.as_u128(), 0);
        // Signed interpretation of a zero-width value is still zero (no sign bit).
        let v = EvalValue::new(0b1011, 0, true);
        assert_eq!(v.as_i128(), 0);
        // A width-0 signal in the environment reads back as zero regardless of the
        // stored bit pattern.
        let e = Expression::reference("z");
        let v = eval(&e, &[("z", 0xDEAD, 0, false)]);
        assert_eq!(v.bits, 0);
        assert_eq!(v.width, 0);
    }

    #[test]
    fn width_64_boundary_is_not_truncated() {
        let all_ones = u64::MAX as u128;
        assert_eq!(mask(all_ones, 64), all_ones);
        assert_eq!(mask(all_ones << 1 | 1, 64), all_ones);
        let v = eval(&Expression::reference("a"), &[("a", all_ones, 64, false)]);
        assert_eq!(v.bits, all_ones);
        assert_eq!(v.width, 64);
        // Addition at the 64-bit boundary carries into bit 64 instead of wrapping.
        let add = Expression::prim(
            PrimOp::Add,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&add, &[("a", all_ones, 64, false), ("b", 1, 64, false)]);
        assert_eq!(v.width, 65);
        assert_eq!(v.bits, 1u128 << 64);
        // Cat of two full 64-bit values fills exactly 128 bits.
        let cat = Expression::prim(
            PrimOp::Cat,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        let v = eval(&cat, &[("a", all_ones, 64, false), ("b", all_ones, 64, false)]);
        assert_eq!(v.width, 128);
        assert_eq!(v.bits, u128::MAX);
        // 64-bit signed -1 round-trips through the signed interpretation.
        let v = eval(&Expression::reference("s"), &[("s", all_ones, 64, true)]);
        assert_eq!(v.as_i128(), -1);
    }

    #[test]
    fn signed_sub_wraparound() {
        let sub = Expression::prim(
            PrimOp::Sub,
            vec![Expression::reference("a"), Expression::reference("b")],
            vec![],
        );
        // 4-bit signed: (-8) - 7 = -15, held exactly in the 5-bit result.
        let v = eval(&sub, &[("a", 0b1000, 4, true), ("b", 0b0111, 4, true)]);
        assert_eq!(v.width, 5);
        assert!(v.signed);
        assert_eq!(v.as_i128(), -15);
        assert_eq!(v.bits, mask((-15i128) as u128, 5));
        // 7 - (-8) = 15: the most positive 5-bit signed value.
        let v = eval(&sub, &[("a", 0b0111, 4, true), ("b", 0b1000, 4, true)]);
        assert_eq!(v.as_i128(), 15);
        // Re-truncating the 5-bit result to 4 bits (Bits) wraps: -15 -> 0b0001 -> 1.
        let trunc = Expression::prim(
            PrimOp::Bits,
            vec![Expression::prim(
                PrimOp::Sub,
                vec![Expression::reference("a"), Expression::reference("b")],
                vec![],
            )],
            vec![3, 0],
        );
        let v = eval(&trunc, &[("a", 0b1000, 4, true), ("b", 0b0111, 4, true)]);
        assert_eq!(v.bits, 1);
        assert_eq!(v.width, 4);
    }

    #[test]
    fn mask_and_sign_at_the_word_boundary() {
        // Widths 127 and 128 exercise the `1u128 << width` hazards directly.
        assert_eq!(mask(u128::MAX, 127), u128::MAX >> 1);
        assert_eq!(mask(u128::MAX, 128), u128::MAX);
        assert_eq!(shl_bits(1, 127), 1u128 << 127);
        assert_eq!(shl_bits(u128::MAX, 128), 0);
        assert_eq!(shr_bits(u128::MAX, 127), 1);
        assert_eq!(shr_bits(u128::MAX, 128), 0);
        // Signed interpretation: the sign bit of a 127-bit value is bit 126; of a
        // 128-bit value it is bit 127 (plain two's-complement reinterpretation).
        let v = EvalValue::new(1u128 << 126, 127, true);
        assert_eq!(v.as_i128(), -(1i128 << 126));
        let v = EvalValue::new(u128::MAX, 128, true);
        assert_eq!(v.as_i128(), -1);
        let v = EvalValue::new(u128::MAX >> 1, 128, true);
        assert_eq!(v.as_i128(), i128::MAX);
    }

    #[test]
    fn wide_shifts_saturate_instead_of_panicking() {
        let wide = EvalValue::new(u128::MAX, 128, false);
        // shl result width saturates at the word size; shifted-out bits are dropped.
        let v = apply_prim(PrimOp::Shl, wide, None, &[1]);
        assert_eq!((v.bits, v.width), (u128::MAX - 1, 128));
        let v = apply_prim(PrimOp::Shl, wide, None, &[128]);
        assert_eq!((v.bits, v.width), (0, 128));
        // A 120-bit shift amount used to be silently clamped to 100.
        let v = apply_prim(PrimOp::Shr, wide, None, &[120]);
        assert_eq!(v.bits, 0xFF);
        let v = apply_prim(PrimOp::Shr, wide, None, &[200]);
        assert_eq!(v.bits, 0);
        // Arithmetic right over-shift is pure sign fill.
        let sneg = EvalValue::new(u128::MAX, 128, true);
        let v = apply_prim(PrimOp::Shr, sneg, None, &[500]);
        assert_eq!(v.as_i128(), -1);
    }

    #[test]
    fn dynamic_shifts_at_width_128() {
        let wide = EvalValue::new(u128::MAX, 128, false);
        let amt = |n: u128| Some(EvalValue::new(n, 8, false));
        // dshl result width saturates at 128 (not the old 127), so a 1-bit shift of a
        // 127-bit value keeps its top bit.
        let narrow = EvalValue::new(1u128 << 126, 127, false);
        let v = apply_prim(PrimOp::Dshl, narrow, amt(1), &[]);
        assert_eq!((v.bits, v.width), (1u128 << 127, 128));
        // Over-shift yields zero instead of clamping the amount to 100.
        let v = apply_prim(PrimOp::Dshl, wide, amt(120), &[]);
        assert_eq!(v.bits, u128::MAX << 120);
        let big = Some(EvalValue::new(200, 16, false));
        assert_eq!(apply_prim(PrimOp::Dshl, wide, big, &[]).bits, 0);
        assert_eq!(apply_prim(PrimOp::Dshr, wide, big, &[]).bits, 0);
        let v = apply_prim(PrimOp::Dshr, wide, amt(127), &[]);
        assert_eq!(v.bits, 1);
        // Signed dynamic over-shift sign-fills.
        let sneg = EvalValue::new(u128::MAX, 128, true);
        assert_eq!(apply_prim(PrimOp::Dshr, sneg, big, &[]).as_i128(), -1);
    }

    #[test]
    fn cat_add_and_neg_at_the_word_boundary() {
        let wide = EvalValue::new(u128::MAX, 128, false);
        let one = EvalValue::new(1, 128, false);
        // Cat with a 128-bit rhs keeps only the rhs (lhs is shifted past the word).
        let v = apply_prim(PrimOp::Cat, one, Some(wide), &[]);
        assert_eq!((v.bits, v.width), (u128::MAX, 128));
        // Cat of 127+1 bits fills the word exactly.
        let hi = EvalValue::new(u128::MAX >> 1, 127, false);
        let lo1 = EvalValue::new(1, 1, false);
        let v = apply_prim(PrimOp::Cat, hi, Some(lo1), &[]);
        assert_eq!((v.bits, v.width), (u128::MAX, 128));
        // Add at width 128 wraps modulo 2^128 (result width saturates at the word).
        let v = apply_prim(PrimOp::Add, wide, Some(one), &[]);
        assert_eq!((v.bits, v.width), (0, 128));
        // Mul of two 64-bit values lands exactly on the word boundary.
        let m = EvalValue::new(u64::MAX as u128, 64, false);
        let v = apply_prim(PrimOp::Mul, m, Some(m), &[]);
        assert_eq!((v.bits, v.width), ((u64::MAX as u128).wrapping_mul(u64::MAX as u128), 128));
        // Neg of the most negative 128-bit value wraps instead of panicking.
        let min = EvalValue::new(1u128 << 127, 128, true);
        let v = apply_prim(PrimOp::Neg, min, None, &[]);
        assert_eq!((v.bits, v.width), (1u128 << 127, 128));
    }

    #[test]
    fn neg_and_pad() {
        let neg = Expression::prim(PrimOp::Neg, vec![Expression::reference("a")], vec![]);
        let v = eval(&neg, &[("a", 3, 4, false)]);
        assert_eq!(v.as_i128(), -3);
        let pad = Expression::prim(PrimOp::Pad, vec![Expression::reference("s")], vec![8]);
        let v = eval(&pad, &[("s", 0xF, 4, true)]);
        // -1 sign-extended to 8 bits.
        assert_eq!(v.bits, 0xFF);
    }
}
