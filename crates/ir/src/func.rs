//! Primitive operators and the symbolic language of pure functions.
//!
//! The pure-generation rewrites of the paper's §3.2 incrementally turn a loop
//! body into a single *Pure* component. A Pure component applies a function
//! to its single input; during rewriting these functions are composed
//! symbolically, so we represent them as a small cartesian combinator
//! language, [`PureFn`], that is both *comparable* (rewrites are matched by
//! structural equality on ExprLow) and *executable* (the semantics and the
//! simulator evaluate it on token values).

use crate::value::{Ty, Value};
use std::fmt;

/// An error raised when evaluating an operator on ill-typed or invalid
/// operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl EvalError {
    fn new(message: impl Into<String>) -> Self {
        EvalError { message: message.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// A primitive circuit operator, implemented by an `op`-labelled component
/// (Table 1 of the paper).
///
/// Each operator has a fixed [arity](Op::arity) and a pure evaluation
/// function; latency and area are assigned by the performance models, not
/// here. Memory accesses are separate component kinds, which is what makes
/// the pure-generation phase refuse loop bodies with stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Integer addition.
    AddI,
    /// Integer subtraction.
    SubI,
    /// Integer multiplication.
    MulI,
    /// Integer remainder (the GCD example's `%`).
    Mod,
    /// Integer division (truncating), used for index arithmetic.
    DivI,
    /// Integer signed less-than.
    LtI,
    /// Integer signed greater-or-equal.
    GeI,
    /// Integer equality.
    EqI,
    /// Integer disequality with zero (`x != 0`).
    NeZero,
    /// Boolean negation.
    Not,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Floating-point addition.
    AddF,
    /// Floating-point subtraction.
    SubF,
    /// Floating-point multiplication.
    MulF,
    /// Floating-point division.
    DivF,
    /// Floating-point greater-or-equal comparison.
    GeF,
    /// Floating-point less-than comparison.
    LtF,
    /// Ternary select: `select(c, t, f) = if c then t else f`.
    Select,
    /// Integer-to-float conversion.
    IToF,
}

impl Op {
    /// Every operator, for tests that must cover them all.
    #[cfg(test)]
    pub(crate) const ALL: [Op; 20] = [
        Op::AddI,
        Op::SubI,
        Op::MulI,
        Op::Mod,
        Op::DivI,
        Op::LtI,
        Op::GeI,
        Op::EqI,
        Op::NeZero,
        Op::Not,
        Op::And,
        Op::Or,
        Op::AddF,
        Op::SubF,
        Op::MulF,
        Op::DivF,
        Op::GeF,
        Op::LtF,
        Op::Select,
        Op::IToF,
    ];

    /// Number of input operands.
    pub fn arity(self) -> usize {
        match self {
            Op::Not | Op::NeZero | Op::IToF => 1,
            Op::Select => 3,
            _ => 2,
        }
    }

    /// The operand and result types `(inputs, output)`.
    pub fn signature(self) -> (Vec<Ty>, Ty) {
        use Op::*;
        match self {
            AddI | SubI | MulI | Mod | DivI => (vec![Ty::Int, Ty::Int], Ty::Int),
            LtI | GeI | EqI => (vec![Ty::Int, Ty::Int], Ty::Bool),
            NeZero => (vec![Ty::Int], Ty::Bool),
            Not => (vec![Ty::Bool], Ty::Bool),
            And | Or => (vec![Ty::Bool, Ty::Bool], Ty::Bool),
            AddF | SubF | MulF | DivF => (vec![Ty::F64, Ty::F64], Ty::F64),
            GeF | LtF => (vec![Ty::F64, Ty::F64], Ty::Bool),
            Select => (vec![Ty::Bool, Ty::Any, Ty::Any], Ty::Any),
            IToF => (vec![Ty::Int], Ty::F64),
        }
    }

    /// Evaluates the operator on its operands.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on arity or type mismatch, or on division /
    /// remainder by zero.
    pub fn eval(self, args: &[Value]) -> Result<Value, EvalError> {
        if args.len() != self.arity() {
            return Err(EvalError::new(format!(
                "operator {self} expects {} operands, got {}",
                self.arity(),
                args.len()
            )));
        }
        let int = |v: &Value| {
            v.as_int()
                .ok_or_else(|| EvalError::new(format!("operator {self}: expected int, got {v}")))
        };
        let flt = |v: &Value| {
            v.as_f64()
                .ok_or_else(|| EvalError::new(format!("operator {self}: expected f64, got {v}")))
        };
        let boo = |v: &Value| {
            v.as_bool()
                .ok_or_else(|| EvalError::new(format!("operator {self}: expected bool, got {v}")))
        };
        Ok(match self {
            Op::AddI => Value::Int(int(&args[0])?.wrapping_add(int(&args[1])?)),
            Op::SubI => Value::Int(int(&args[0])?.wrapping_sub(int(&args[1])?)),
            Op::MulI => Value::Int(int(&args[0])?.wrapping_mul(int(&args[1])?)),
            Op::Mod => {
                let b = int(&args[1])?;
                if b == 0 {
                    return Err(EvalError::new("remainder by zero"));
                }
                Value::Int(int(&args[0])?.rem_euclid(b))
            }
            Op::DivI => {
                let b = int(&args[1])?;
                if b == 0 {
                    return Err(EvalError::new("division by zero"));
                }
                Value::Int(int(&args[0])?.wrapping_div(b))
            }
            Op::LtI => Value::Bool(int(&args[0])? < int(&args[1])?),
            Op::GeI => Value::Bool(int(&args[0])? >= int(&args[1])?),
            Op::EqI => Value::Bool(int(&args[0])? == int(&args[1])?),
            Op::NeZero => Value::Bool(int(&args[0])? != 0),
            Op::Not => Value::Bool(!boo(&args[0])?),
            Op::And => Value::Bool(boo(&args[0])? && boo(&args[1])?),
            Op::Or => Value::Bool(boo(&args[0])? || boo(&args[1])?),
            Op::AddF => Value::from_f64(flt(&args[0])? + flt(&args[1])?),
            Op::SubF => Value::from_f64(flt(&args[0])? - flt(&args[1])?),
            Op::MulF => Value::from_f64(flt(&args[0])? * flt(&args[1])?),
            Op::DivF => Value::from_f64(flt(&args[0])? / flt(&args[1])?),
            Op::GeF => Value::Bool(flt(&args[0])? >= flt(&args[1])?),
            Op::LtF => Value::Bool(flt(&args[0])? < flt(&args[1])?),
            Op::Select => {
                if boo(&args[0])? {
                    args[1].clone()
                } else {
                    args[2].clone()
                }
            }
            Op::IToF => Value::from_f64(int(&args[0])? as f64),
        })
    }

    /// Parses the DOT attribute spelling produced by [`Op::name`].
    pub fn parse(name: &str) -> Option<Op> {
        use Op::*;
        Some(match name {
            "addi" => AddI,
            "subi" => SubI,
            "muli" => MulI,
            "mod" => Mod,
            "divi" => DivI,
            "lti" => LtI,
            "gei" => GeI,
            "eqi" => EqI,
            "nez" => NeZero,
            "not" => Not,
            "and" => And,
            "or" => Or,
            "addf" => AddF,
            "subf" => SubF,
            "mulf" => MulF,
            "divf" => DivF,
            "gef" => GeF,
            "ltf" => LtF,
            "select" => Select,
            "itof" => IToF,
            _ => return None,
        })
    }

    /// The DOT attribute spelling of this operator.
    pub fn name(self) -> &'static str {
        use Op::*;
        match self {
            AddI => "addi",
            SubI => "subi",
            MulI => "muli",
            Mod => "mod",
            DivI => "divi",
            LtI => "lti",
            GeI => "gei",
            EqI => "eqi",
            NeZero => "nez",
            Not => "not",
            And => "and",
            Or => "or",
            AddF => "addf",
            SubF => "subf",
            MulF => "mulf",
            DivF => "divf",
            GeF => "gef",
            LtF => "ltf",
            Select => "select",
            IToF => "itof",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A symbolic pure function, as applied by a *Pure* component.
///
/// `PureFn` is a small cartesian combinator language closed under the
/// pure-generation rewrites: composing two Pure components fuses their
/// functions with [`PureFn::comp`], moving a Pure over a Join uses
/// [`PureFn::Par`], and eliminating a Fork produces [`PureFn::Dup`] followed
/// by a Split. Multi-operand operators take their operands as right-nested
/// pairs: a binary `op` sees `(a, b)`, a ternary one `(a, (b, c))`.
///
/// # Examples
///
/// ```
/// use graphiti_ir::{Op, PureFn, Value};
/// // The GCD body: (a, b) -> ((b, a % b), (a % b) != 0)
/// let f = PureFn::comp(
///     PureFn::Par(Box::new(PureFn::Id), Box::new(PureFn::Op(Op::NeZero))),
///     PureFn::comp(
///         PureFn::Par(
///             Box::new(PureFn::pair(PureFn::Snd, PureFn::Op(Op::Mod))),
///             Box::new(PureFn::Op(Op::Mod)),
///         ),
///         PureFn::Dup,
///     ),
/// );
/// let out = f.eval(&Value::pair(Value::Int(6), Value::Int(4))).unwrap();
/// assert_eq!(out, Value::pair(Value::pair(Value::Int(4), Value::Int(2)), Value::Bool(true)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PureFn {
    /// The identity function.
    #[default]
    Id,
    /// `Comp(f, g)` applies `g` first, then `f` (i.e. `f ∘ g`).
    Comp(Box<PureFn>, Box<PureFn>),
    /// `Par(f, g)` maps `(a, b)` to `(f a, g b)`.
    Par(Box<PureFn>, Box<PureFn>),
    /// Duplication: `a -> (a, a)` (the pure image of a Fork).
    Dup,
    /// First projection: `(a, b) -> a` (the pure image of sinking `b`).
    Fst,
    /// Second projection: `(a, b) -> b`.
    Snd,
    /// Reassociation `(a, (b, c)) -> ((a, b), c)`.
    AssocL,
    /// Reassociation `((a, b), c) -> (a, (b, c))`.
    AssocR,
    /// Swap `(a, b) -> (b, a)`.
    Swap,
    /// A primitive operator on tuple-encoded operands.
    Op(Op),
    /// The constant function, discarding its input.
    Const(Value),
    /// A read from the named memory: `addr -> mem[addr]`.
    ///
    /// Loads are *read-only* and therefore allowed inside a region that pure
    /// generation reorders; evaluation without a memory environment (the
    /// abstract semantics) reads a constant-zero memory. Use
    /// [`PureFn::eval_with_mem`] to supply real contents.
    Load(String),
}

impl PureFn {
    /// Composition `f ∘ g` with peephole identity elimination.
    pub fn comp(f: PureFn, g: PureFn) -> PureFn {
        match (f, g) {
            (PureFn::Id, g) => g,
            (f, PureFn::Id) => f,
            (f, g) => PureFn::Comp(Box::new(f), Box::new(g)),
        }
    }

    /// Parallel composition `f × g`.
    pub fn par(f: PureFn, g: PureFn) -> PureFn {
        match (f, g) {
            (PureFn::Id, PureFn::Id) => PureFn::Id,
            (f, g) => PureFn::Par(Box::new(f), Box::new(g)),
        }
    }

    /// The pairing `⟨f, g⟩ : a -> (f a, g a)`, derived as `(f × g) ∘ dup`.
    pub fn pair(f: PureFn, g: PureFn) -> PureFn {
        PureFn::comp(PureFn::par(f, g), PureFn::Dup)
    }

    /// Evaluates the function on a value.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the value does not match the structural
    /// expectations of the combinators (e.g. projecting from a non-pair).
    pub fn eval(&self, v: &Value) -> Result<Value, EvalError> {
        match self {
            PureFn::Id => Ok(v.clone()),
            PureFn::Comp(f, g) => f.eval(&g.eval(v)?),
            PureFn::Par(f, g) => match v {
                Value::Pair(a, b) => Ok(Value::pair(f.eval(a)?, g.eval(b)?)),
                other => Err(EvalError::new(format!("par: expected pair, got {other}"))),
            },
            PureFn::Dup => Ok(Value::pair(v.clone(), v.clone())),
            PureFn::Fst => match v {
                Value::Pair(a, _) => Ok((**a).clone()),
                other => Err(EvalError::new(format!("fst: expected pair, got {other}"))),
            },
            PureFn::Snd => match v {
                Value::Pair(_, b) => Ok((**b).clone()),
                other => Err(EvalError::new(format!("snd: expected pair, got {other}"))),
            },
            PureFn::AssocL => match v {
                Value::Pair(a, bc) => match &**bc {
                    Value::Pair(b, c) => {
                        Ok(Value::pair(Value::pair((**a).clone(), (**b).clone()), (**c).clone()))
                    }
                    other => {
                        Err(EvalError::new(format!("assocl: expected (a,(b,c)), got (_, {other})")))
                    }
                },
                other => Err(EvalError::new(format!("assocl: expected pair, got {other}"))),
            },
            PureFn::AssocR => match v {
                Value::Pair(ab, c) => match &**ab {
                    Value::Pair(a, b) => {
                        Ok(Value::pair((**a).clone(), Value::pair((**b).clone(), (**c).clone())))
                    }
                    other => {
                        Err(EvalError::new(format!("assocr: expected ((a,b),c), got ({other}, _)")))
                    }
                },
                other => Err(EvalError::new(format!("assocr: expected pair, got {other}"))),
            },
            PureFn::Swap => match v {
                Value::Pair(a, b) => Ok(Value::pair((**b).clone(), (**a).clone())),
                other => Err(EvalError::new(format!("swap: expected pair, got {other}"))),
            },
            PureFn::Op(op) => {
                let mut args = Vec::with_capacity(op.arity());
                flatten_args(v, op.arity(), &mut args)?;
                op.eval(&args)
            }
            PureFn::Const(c) => Ok(c.clone()),
            PureFn::Load(mem) => {
                let _ = v.as_int().ok_or_else(|| {
                    EvalError::new(format!("load[{mem}]: expected int address, got {v}"))
                })?;
                Ok(Value::Int(0))
            }
        }
    }

    /// Evaluates the function with a memory environment resolving
    /// [`PureFn::Load`] reads: `mem(name, addr)` returns the loaded value.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] exactly as [`PureFn::eval`] does.
    pub fn eval_with_mem(
        &self,
        v: &Value,
        mem: &dyn Fn(&str, i64) -> Value,
    ) -> Result<Value, EvalError> {
        match self {
            PureFn::Load(name) => {
                let addr = v.as_int().ok_or_else(|| {
                    EvalError::new(format!("load[{name}]: expected int address, got {v}"))
                })?;
                Ok(mem(name, addr))
            }
            PureFn::Comp(f, g) => f.eval_with_mem(&g.eval_with_mem(v, mem)?, mem),
            PureFn::Par(f, g) => match v {
                Value::Pair(a, b) => {
                    Ok(Value::pair(f.eval_with_mem(a, mem)?, g.eval_with_mem(b, mem)?))
                }
                other => Err(EvalError::new(format!("par: expected pair, got {other}"))),
            },
            other => other.eval(v),
        }
    }

    /// Whether the function reads memory (contains a [`PureFn::Load`]).
    pub fn reads_memory(&self) -> bool {
        match self {
            PureFn::Load(_) => true,
            PureFn::Comp(f, g) | PureFn::Par(f, g) => f.reads_memory() || g.reads_memory(),
            _ => false,
        }
    }

    /// Number of combinator nodes, used by the e-graph oracle's cost model.
    pub fn size(&self) -> usize {
        match self {
            PureFn::Comp(f, g) | PureFn::Par(f, g) => 1 + f.size() + g.size(),
            _ => 1,
        }
    }
}

/// Flattens a right-nested tuple value into `arity` operator arguments.
fn flatten_args(v: &Value, arity: usize, out: &mut Vec<Value>) -> Result<(), EvalError> {
    if arity == 1 {
        out.push(v.clone());
        return Ok(());
    }
    match v {
        Value::Pair(a, rest) => {
            out.push((**a).clone());
            flatten_args(rest, arity - 1, out)
        }
        other => {
            Err(EvalError::new(format!("expected {arity}-tuple operand encoding, got {other}")))
        }
    }
}

impl fmt::Display for PureFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PureFn::Id => write!(f, "id"),
            PureFn::Comp(a, b) => write!(f, "({a} . {b})"),
            PureFn::Par(a, b) => write!(f, "({a} x {b})"),
            PureFn::Dup => write!(f, "dup"),
            PureFn::Fst => write!(f, "fst"),
            PureFn::Snd => write!(f, "snd"),
            PureFn::AssocL => write!(f, "assocl"),
            PureFn::AssocR => write!(f, "assocr"),
            PureFn::Swap => write!(f, "swap"),
            PureFn::Op(op) => write!(f, "{op}"),
            PureFn::Const(v) => write!(f, "const {v}"),
            PureFn::Load(m) => write!(f, "load[{m}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_arities_match_signatures() {
        for op in Op::ALL {
            assert_eq!(op.arity(), op.signature().0.len(), "{op}");
            assert_eq!(Op::parse(op.name()), Some(op));
        }
    }

    #[test]
    fn integer_ops() {
        assert_eq!(Op::AddI.eval(&[Value::Int(2), Value::Int(3)]), Ok(Value::Int(5)));
        assert_eq!(Op::Mod.eval(&[Value::Int(7), Value::Int(4)]), Ok(Value::Int(3)));
        assert!(Op::Mod.eval(&[Value::Int(7), Value::Int(0)]).is_err());
        assert_eq!(Op::NeZero.eval(&[Value::Int(0)]), Ok(Value::Bool(false)));
    }

    #[test]
    fn float_ops() {
        assert_eq!(
            Op::MulF.eval(&[Value::from_f64(1.5), Value::from_f64(2.0)]),
            Ok(Value::from_f64(3.0))
        );
        assert_eq!(
            Op::GeF.eval(&[Value::from_f64(1.0), Value::from_f64(2.0)]),
            Ok(Value::Bool(false))
        );
    }

    #[test]
    fn select_op() {
        let args = [Value::Bool(true), Value::Int(1), Value::Int(2)];
        assert_eq!(Op::Select.eval(&args), Ok(Value::Int(1)));
        let args = [Value::Bool(false), Value::Int(1), Value::Int(2)];
        assert_eq!(Op::Select.eval(&args), Ok(Value::Int(2)));
    }

    #[test]
    fn eval_errors_on_type_mismatch() {
        assert!(Op::AddI.eval(&[Value::Bool(true), Value::Int(1)]).is_err());
        assert!(Op::AddI.eval(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn purefn_structural_combinators() {
        let v = Value::pair(Value::Int(1), Value::pair(Value::Int(2), Value::Int(3)));
        assert_eq!(
            PureFn::AssocL.eval(&v).unwrap(),
            Value::pair(Value::pair(Value::Int(1), Value::Int(2)), Value::Int(3))
        );
        assert_eq!(PureFn::AssocR.eval(&PureFn::AssocL.eval(&v).unwrap()).unwrap(), v);
        assert_eq!(
            PureFn::Swap.eval(&Value::pair(Value::Int(1), Value::Int(2))).unwrap(),
            Value::pair(Value::Int(2), Value::Int(1))
        );
    }

    #[test]
    fn purefn_identity_smart_constructors() {
        assert_eq!(PureFn::comp(PureFn::Id, PureFn::Dup), PureFn::Dup);
        assert_eq!(PureFn::comp(PureFn::Dup, PureFn::Id), PureFn::Dup);
        assert_eq!(PureFn::par(PureFn::Id, PureFn::Id), PureFn::Id);
    }

    #[test]
    fn purefn_op_tuple_encoding() {
        let f = PureFn::Op(Op::Select);
        let v = Value::pair(Value::Bool(false), Value::pair(Value::Int(5), Value::Int(9)));
        assert_eq!(f.eval(&v).unwrap(), Value::Int(9));
    }

    #[test]
    fn purefn_pairing() {
        // ⟨snd, fst⟩ == swap, pointwise.
        let f = PureFn::pair(PureFn::Snd, PureFn::Fst);
        let v = Value::pair(Value::Int(1), Value::Int(2));
        assert_eq!(f.eval(&v).unwrap(), PureFn::Swap.eval(&v).unwrap());
    }

    #[test]
    fn purefn_load_defaults_to_zero_memory() {
        let f = PureFn::Load("arr".into());
        assert_eq!(f.eval(&Value::Int(3)).unwrap(), Value::Int(0));
        assert!(f.eval(&Value::Bool(true)).is_err());
        let mem = |name: &str, addr: i64| {
            assert_eq!(name, "arr");
            Value::Int(addr * 10)
        };
        assert_eq!(f.eval_with_mem(&Value::Int(3), &mem).unwrap(), Value::Int(30));
        assert!(f.reads_memory());
        assert!(!PureFn::Dup.reads_memory());
        assert!(PureFn::comp(PureFn::Fst, PureFn::Load("a".into())).reads_memory());
    }

    #[test]
    fn purefn_const_discards() {
        let f = PureFn::Const(Value::Int(42));
        assert_eq!(f.eval(&Value::Unit).unwrap(), Value::Int(42));
    }
}
