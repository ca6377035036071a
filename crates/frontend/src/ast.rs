//! The mini loop-nest language accepted by the dynamic-HLS front-end.
//!
//! This plays the role of the C front-end of Dynamatic in the paper's flow:
//! benchmarks are expressed as *outer loops* driving an *inner do-while
//! loop* over a tuple of loop-carried state variables, with optional stores
//! inside the inner body (bicg) and an epilogue of stores after the inner
//! loop completes. This normalized shape is exactly what fast-token-delivery
//! dataflow generation handles, and every benchmark of the paper's
//! evaluation (§6.1) fits it.

use graphiti_ir::{EvalError, Op, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A scalar expression over loop variables, constants, and array loads.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// A variable reference (outer induction variable or inner state var).
    Var(String),
    /// A load `array[index]` from a flattened 1-D array.
    Load(String, Box<Expr>),
    /// A unary operator application.
    Un(Op, Box<Expr>),
    /// A binary operator application.
    Bin(Op, Box<Expr>, Box<Expr>),
    /// A ternary select `cond ? t : f` (if-converted conditional).
    Sel(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// An integer literal.
    pub fn int(x: i64) -> Expr {
        Expr::Const(Value::Int(x))
    }

    /// A float literal.
    pub fn f64(x: f64) -> Expr {
        Expr::Const(Value::from_f64(x))
    }

    /// A variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// A load from an array.
    pub fn load(array: &str, idx: Expr) -> Expr {
        Expr::Load(array.to_string(), Box::new(idx))
    }

    /// A binary application.
    pub fn bin(op: Op, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// A unary application.
    pub fn un(op: Op, a: Expr) -> Expr {
        Expr::Un(op, Box::new(a))
    }

    /// A select.
    pub fn sel(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::Sel(Box::new(c), Box::new(t), Box::new(f))
    }

    /// `a + b` on integers.
    pub fn addi(a: Expr, b: Expr) -> Expr {
        Expr::bin(Op::AddI, a, b)
    }

    /// `a * b` on integers.
    pub fn muli(a: Expr, b: Expr) -> Expr {
        Expr::bin(Op::MulI, a, b)
    }

    /// `a + b` on floats.
    pub fn addf(a: Expr, b: Expr) -> Expr {
        Expr::bin(Op::AddF, a, b)
    }

    /// `a * b` on floats.
    pub fn mulf(a: Expr, b: Expr) -> Expr {
        Expr::bin(Op::MulF, a, b)
    }
}

/// A store `array[index] = value` (the only effect in the language).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStmt {
    /// Target array.
    pub array: String,
    /// Flattened index expression.
    pub index: Expr,
    /// Stored value expression.
    pub value: Expr,
}

/// The inner do-while loop over a tuple of loop-carried state variables.
///
/// Semantics per outer iteration: initialize every state variable from its
/// init expression (which may reference the outer induction variable), then
/// repeatedly (a) execute the body effects using the *current* state, (b)
/// compute the updated state, (c) continue while `cond` — evaluated on the
/// *updated* state — is true. The loop body executes at least once
/// (do-while), matching the paper's GCD example.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerLoop {
    /// State variables: `(name, init expression over the outer variable)`.
    pub vars: Vec<(String, Expr)>,
    /// Parallel update: `(name, expression over current state)`, one entry
    /// per state variable, same order as `vars`.
    pub update: Vec<(String, Expr)>,
    /// Continue condition over the *updated* state.
    pub cond: Expr,
    /// Stores executed each iteration using the *current* state (these make
    /// the loop body impure, e.g. bicg).
    pub effects: Vec<StoreStmt>,
}

/// An outer counting loop `for var in 0..trip` around an inner loop, with an
/// epilogue of stores that may use the outer variable and the inner loop's
/// final state.
#[derive(Debug, Clone, PartialEq)]
pub struct OuterLoop {
    /// The induction variable name.
    pub var: String,
    /// Trip count.
    pub trip: i64,
    /// The inner loop.
    pub inner: InnerLoop,
    /// Stores after the inner loop completes; expressions may use `var` and
    /// the inner state variables (their final values).
    pub epilogue: Vec<StoreStmt>,
    /// Marked for the out-of-order transformation, with the tag budget the
    /// oracle assigns (the paper reuses DF-OoO's loop marking and per-
    /// benchmark tag counts).
    pub ooo_tags: Option<u32>,
}

/// A program: named arrays with initial contents plus a sequence of kernels
/// executed in program order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Arrays (flattened 1-D) with initial contents.
    pub arrays: BTreeMap<String, Vec<Value>>,
    /// Kernels in execution order.
    pub kernels: Vec<OuterLoop>,
}

/// Memory state: array name → contents.
pub type Memory = BTreeMap<String, Vec<Value>>;

/// Errors raised by the reference interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Unknown variable.
    UnknownVar(String),
    /// Unknown array.
    UnknownArray(String),
    /// Out-of-bounds access.
    OutOfBounds(String, i64),
    /// Operator evaluation failed.
    Eval(EvalError),
    /// A non-Boolean loop condition.
    BadCondition,
    /// A non-integer index.
    BadIndex,
    /// Runaway loop (safety bound exceeded).
    Diverged,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            InterpError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            InterpError::OutOfBounds(a, i) => write!(f, "index {i} out of bounds for `{a}`"),
            InterpError::Eval(e) => write!(f, "{e}"),
            InterpError::BadCondition => write!(f, "loop condition is not a boolean"),
            InterpError::BadIndex => write!(f, "array index is not an integer"),
            InterpError::Diverged => write!(f, "loop exceeded the iteration safety bound"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<EvalError> for InterpError {
    fn from(e: EvalError) -> Self {
        InterpError::Eval(e)
    }
}

/// Evaluates an expression in a variable environment against a memory.
fn eval_expr(e: &Expr, env: &BTreeMap<String, Value>, mem: &Memory) -> Result<Value, InterpError> {
    match e {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(v) => env.get(v).cloned().ok_or_else(|| InterpError::UnknownVar(v.clone())),
        Expr::Load(a, idx) => {
            let i = eval_expr(idx, env, mem)?.as_int().ok_or(InterpError::BadIndex)?;
            let arr = mem.get(a).ok_or_else(|| InterpError::UnknownArray(a.clone()))?;
            arr.get(i as usize).cloned().ok_or_else(|| InterpError::OutOfBounds(a.clone(), i))
        }
        Expr::Un(op, a) => Ok(op.eval(&[eval_expr(a, env, mem)?])?),
        Expr::Bin(op, a, b) => Ok(op.eval(&[eval_expr(a, env, mem)?, eval_expr(b, env, mem)?])?),
        Expr::Sel(c, t, f) => Ok(Op::Select.eval(&[
            eval_expr(c, env, mem)?,
            eval_expr(t, env, mem)?,
            eval_expr(f, env, mem)?,
        ])?),
    }
}

fn run_store(
    st: &StoreStmt,
    env: &BTreeMap<String, Value>,
    mem: &mut Memory,
) -> Result<(), InterpError> {
    let i = eval_expr(&st.index, env, mem)?.as_int().ok_or(InterpError::BadIndex)?;
    let v = eval_expr(&st.value, env, mem)?;
    let arr = mem.get_mut(&st.array).ok_or_else(|| InterpError::UnknownArray(st.array.clone()))?;
    let slot = arr.get_mut(i as usize).ok_or(InterpError::OutOfBounds(st.array.clone(), i))?;
    *slot = v;
    Ok(())
}

/// Safety bound on inner-loop iterations per outer iteration.
const MAX_INNER_ITERS: usize = 1_000_000;

/// Runs a kernel on a memory, mutating it; the reference semantics for the
/// dataflow circuit. Returns the number of inner-loop iterations run,
/// summed over the outer iterations.
///
/// # Errors
///
/// Fails on an evaluation error, or with [`InterpError::Diverged`] when one
/// outer iteration runs more than 1,000,000 inner iterations.
pub fn run_kernel(k: &OuterLoop, mem: &mut Memory) -> Result<u64, InterpError> {
    let mut iterations = 0;
    for i in 0..k.trip {
        let mut env: BTreeMap<String, Value> = BTreeMap::new();
        env.insert(k.var.clone(), Value::Int(i));
        // Initialize state.
        let mut state: BTreeMap<String, Value> = BTreeMap::new();
        for (name, init) in &k.inner.vars {
            state.insert(name.clone(), eval_expr(init, &env, mem)?);
        }
        // Do-while.
        let mut iters = 0usize;
        loop {
            iters += 1;
            if iters > MAX_INNER_ITERS {
                return Err(InterpError::Diverged);
            }
            // Effects see the current state.
            for st in &k.inner.effects {
                run_store(st, &state, mem)?;
            }
            // Parallel update.
            let mut next = BTreeMap::new();
            for (name, upd) in &k.inner.update {
                next.insert(name.clone(), eval_expr(upd, &state, mem)?);
            }
            state = next;
            let c = eval_expr(&k.inner.cond, &state, mem)?
                .as_bool()
                .ok_or(InterpError::BadCondition)?;
            if !c {
                break;
            }
        }
        iterations += iters as u64;
        // Epilogue sees the outer variable and the final state.
        let mut epi_env = state;
        epi_env.insert(k.var.clone(), Value::Int(i));
        for st in &k.epilogue {
            run_store(st, &epi_env, mem)?;
        }
    }
    Ok(iterations)
}

/// Runs a whole program, returning the final memory.
pub fn run_program(p: &Program) -> Result<Memory, InterpError> {
    let mut mem = p.arrays.clone();
    for k in &p.kernels {
        run_kernel(k, &mut mem)?;
    }
    Ok(mem)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GCD of array pairs: the paper's running example (Fig. 2a).
    fn gcd_program() -> Program {
        let inner = InnerLoop {
            vars: vec![
                ("a".into(), Expr::load("arr1", Expr::var("i"))),
                ("b".into(), Expr::load("arr2", Expr::var("i"))),
            ],
            update: vec![
                ("a".into(), Expr::var("b")),
                ("b".into(), Expr::bin(Op::Mod, Expr::var("a"), Expr::var("b"))),
            ],
            cond: Expr::un(Op::NeZero, Expr::var("b")),
            effects: vec![],
        };
        Program {
            name: "gcd".into(),
            arrays: [
                ("arr1".to_string(), vec![Value::Int(12), Value::Int(35), Value::Int(7)]),
                ("arr2".to_string(), vec![Value::Int(18), Value::Int(21), Value::Int(13)]),
                ("result".to_string(), vec![Value::Int(0); 3]),
            ]
            .into_iter()
            .collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip: 3,
                inner,
                epilogue: vec![StoreStmt {
                    array: "result".into(),
                    index: Expr::var("i"),
                    value: Expr::var("a"),
                }],
                ooo_tags: Some(4),
            }],
        }
    }

    #[test]
    fn gcd_interpreter_matches_euclid() {
        let mem = run_program(&gcd_program()).unwrap();
        assert_eq!(mem["result"], vec![Value::Int(6), Value::Int(7), Value::Int(1)]);
    }

    #[test]
    fn do_while_executes_at_least_once() {
        // state x init 5; update x' = x - 5; cond x' != 0 -> exits after one
        // iteration with x = 0.
        let p = Program {
            name: "dw".into(),
            arrays: [("out".to_string(), vec![Value::Int(99)])].into_iter().collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip: 1,
                inner: InnerLoop {
                    vars: vec![("x".into(), Expr::int(5))],
                    update: vec![("x".into(), Expr::bin(Op::SubI, Expr::var("x"), Expr::int(5)))],
                    cond: Expr::un(Op::NeZero, Expr::var("x")),
                    effects: vec![],
                },
                epilogue: vec![StoreStmt {
                    array: "out".into(),
                    index: Expr::int(0),
                    value: Expr::var("x"),
                }],
                ooo_tags: None,
            }],
        };
        let mem = run_program(&p).unwrap();
        assert_eq!(mem["out"], vec![Value::Int(0)]);
    }

    #[test]
    fn effects_run_with_current_state() {
        // Inner loop stores j into out[j] each iteration, for j = 0..3.
        let p = Program {
            name: "fx".into(),
            arrays: [("out".to_string(), vec![Value::Int(-1); 4])].into_iter().collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip: 1,
                inner: InnerLoop {
                    vars: vec![("j".into(), Expr::int(0))],
                    update: vec![("j".into(), Expr::addi(Expr::var("j"), Expr::int(1)))],
                    cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(4)),
                    effects: vec![StoreStmt {
                        array: "out".into(),
                        index: Expr::var("j"),
                        value: Expr::var("j"),
                    }],
                },
                epilogue: vec![],
                ooo_tags: None,
            }],
        };
        let mem = run_program(&p).unwrap();
        assert_eq!(mem["out"], vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn interp_errors_are_reported() {
        let mut p = gcd_program();
        p.arrays.remove("arr1");
        assert!(matches!(run_program(&p), Err(InterpError::UnknownArray(_))));
    }

    #[test]
    fn select_if_conversion() {
        let env: BTreeMap<String, Value> =
            [("d".to_string(), Value::from_f64(-2.0))].into_iter().collect();
        let e = Expr::sel(
            Expr::bin(Op::GeF, Expr::var("d"), Expr::f64(0.0)),
            Expr::mulf(Expr::var("d"), Expr::var("d")),
            Expr::f64(0.0),
        );
        assert_eq!(eval_expr(&e, &env, &Memory::new()).unwrap(), Value::from_f64(0.0));
    }
}
