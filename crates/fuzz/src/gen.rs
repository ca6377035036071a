//! Seeded random generation of *well-formed* front-end programs.
//!
//! The generator produces [`Program`]s (not raw circuits): every draw
//! compiles through the front-end into an elastic circuit, so the fuzz
//! harness explores the same kernel shapes the paper's flow handles —
//! outer loops over inner do-while loops — while staying inside the
//! grammar where the metamorphic oracles have ground truth (the reference
//! interpreter).
//!
//! Well-formedness invariants the generator maintains by construction:
//!
//! * **Termination** — state variable 0 is always a counter `j` with
//!   `init j = i`, `update j = j + 1`, `while j < i + BOUND`, so every
//!   inner loop runs a bounded number of iterations regardless of what
//!   the other updates compute.
//! * **No faults** — `/` and `%` only appear with non-zero constant
//!   divisors (a dataflow `select` evaluates both arms eagerly, so even a
//!   guarded variable divisor would fault the circuit).
//! * **In-bounds memory** — load and store indices are either the outer
//!   induction variable `i` (arrays are sized to the trip count) or a
//!   constant below the array length.
//! * **Type discipline** — each state variable is integer- or
//!   float-typed and its init/update expressions are generated in that
//!   type (crossing only through `itof`).

use graphiti_frontend::{Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{CompKind, ExprHigh, Op, Value};
use rand::rngs::StdRng;
use rand::Rng;

// Bounds of the random program space. Every draw may mark kernels for the
// out-of-order transformation, store inside the inner body (impure kernels
// exercise the pipeline's refusal path, as bicg does in the paper), draw
// multi-site-store shapes that compile through a store queue, and use
// float-typed state variables and operators.

/// Maximum kernels per program (each compiles to its own circuit).
const MAX_KERNELS: usize = 2;
/// Maximum inner-loop state variables besides the counter.
const MAX_STATE_VARS: usize = 2;
/// Maximum expression depth.
const MAX_EXPR_DEPTH: u32 = 3;
/// Maximum outer trip count (arrays are sized to the trip).
const MAX_TRIP: i64 = 3;
/// Maximum inner-loop iteration bound.
const MAX_BOUND: i64 = 4;
/// Upper bound for random tag budgets.
const MAX_TAGS: u32 = 12;

/// The type a generated expression evaluates to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Float,
}

/// Expression-generation context: which variables of each type are in
/// scope, and which arrays (with their lengths) may be loaded.
struct Scope {
    int_vars: Vec<String>,
    float_vars: Vec<String>,
    int_arrays: Vec<(String, i64)>,
    float_arrays: Vec<(String, i64)>,
    /// Whether the outer induction variable `i` is in scope. The
    /// interpreter binds it for init and epilogue expressions only;
    /// update, condition, and effect expressions see the state variables.
    outer: bool,
}

fn gen_index(rng: &mut StdRng, sc: &Scope, len: i64) -> Expr {
    // `i` is always in bounds (arrays are trip-sized) but only exists in
    // init/epilogue scope; otherwise a constant below the length.
    if sc.outer && rng.gen_bool(0.6) {
        Expr::var("i")
    } else {
        Expr::int(rng.gen_range(0..len.max(1)))
    }
}

fn gen_expr(rng: &mut StdRng, sc: &Scope, ty: Ty, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    match ty {
        Ty::Int => {
            if leaf {
                match rng.gen_range(0u8..4) {
                    0 => Expr::int(rng.gen_range(-4i64..5)),
                    1 if !sc.int_vars.is_empty() => {
                        Expr::var(&sc.int_vars[rng.gen_range(0..sc.int_vars.len())].clone())
                    }
                    2 if !sc.int_arrays.is_empty() => {
                        let (a, len) = sc.int_arrays[rng.gen_range(0..sc.int_arrays.len())].clone();
                        Expr::load(&a, gen_index(rng, sc, len))
                    }
                    _ if sc.outer => Expr::var("i"),
                    _ if !sc.int_vars.is_empty() => {
                        Expr::var(&sc.int_vars[rng.gen_range(0..sc.int_vars.len())].clone())
                    }
                    _ => Expr::int(rng.gen_range(-4i64..5)),
                }
            } else {
                match rng.gen_range(0u8..7) {
                    0 => Expr::bin(
                        Op::AddI,
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                    ),
                    1 => Expr::bin(
                        Op::SubI,
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                    ),
                    2 => Expr::bin(
                        Op::MulI,
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                    ),
                    3 => {
                        // Non-zero constant divisor only: select evaluates
                        // both arms, so a guarded variable divisor still
                        // faults the dataflow circuit.
                        let d = *[-3i64, -2, 2, 3, 5].get(rng.gen_range(0usize..5)).unwrap_or(&2);
                        let op = if rng.gen_bool(0.5) { Op::DivI } else { Op::Mod };
                        Expr::bin(op, gen_expr(rng, sc, Ty::Int, depth - 1), Expr::int(d))
                    }
                    4 | 5 => Expr::sel(
                        gen_cond(rng, sc, depth - 1),
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                        gen_expr(rng, sc, Ty::Int, depth - 1),
                    ),
                    _ => Expr::un(Op::Not, gen_cond(rng, sc, depth - 1)).pipe_bool_to_int(rng),
                }
            }
        }
        Ty::Float => {
            if leaf {
                match rng.gen_range(0u8..4) {
                    0 => Expr::f64(f64::from(rng.gen_range(-4i32..5)) * 0.5),
                    1 if !sc.float_vars.is_empty() => {
                        Expr::var(&sc.float_vars[rng.gen_range(0..sc.float_vars.len())].clone())
                    }
                    2 if !sc.float_arrays.is_empty() => {
                        let (a, len) =
                            sc.float_arrays[rng.gen_range(0..sc.float_arrays.len())].clone();
                        Expr::load(&a, gen_index(rng, sc, len))
                    }
                    _ => Expr::un(Op::IToF, gen_expr(rng, sc, Ty::Int, 0)),
                }
            } else {
                match rng.gen_range(0u8..4) {
                    0 => Expr::bin(
                        Op::AddF,
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                    ),
                    1 => Expr::bin(
                        Op::SubF,
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                    ),
                    2 => Expr::bin(
                        Op::MulF,
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                    ),
                    _ => Expr::sel(
                        gen_cond(rng, sc, depth - 1),
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                        gen_expr(rng, sc, Ty::Float, depth - 1),
                    ),
                }
            }
        }
    }
}

/// A boolean-valued expression (comparison or `nez`).
fn gen_cond(rng: &mut StdRng, sc: &Scope, depth: u32) -> Expr {
    if !sc.float_vars.is_empty() && rng.gen_bool(0.25) {
        let op = if rng.gen_bool(0.5) { Op::GeF } else { Op::LtF };
        Expr::bin(op, gen_expr(rng, sc, Ty::Float, depth), gen_expr(rng, sc, Ty::Float, depth))
    } else {
        match rng.gen_range(0u8..4) {
            0 => Expr::un(Op::NeZero, gen_expr(rng, sc, Ty::Int, depth)),
            1 => Expr::bin(
                Op::GeI,
                gen_expr(rng, sc, Ty::Int, depth),
                gen_expr(rng, sc, Ty::Int, depth),
            ),
            2 => Expr::bin(
                Op::EqI,
                gen_expr(rng, sc, Ty::Int, depth),
                gen_expr(rng, sc, Ty::Int, depth),
            ),
            _ => Expr::bin(
                Op::LtI,
                gen_expr(rng, sc, Ty::Int, depth),
                gen_expr(rng, sc, Ty::Int, depth),
            ),
        }
    }
}

trait BoolToInt {
    fn pipe_bool_to_int(self, rng: &mut StdRng) -> Expr;
}

impl BoolToInt for Expr {
    /// Lowers a boolean into the int world via `select(b, 1, 0)` so `not`
    /// chains still type-check downstream.
    fn pipe_bool_to_int(self, rng: &mut StdRng) -> Expr {
        let t = rng.gen_range(0i64..3);
        Expr::sel(self, Expr::int(t), Expr::int(0))
    }
}

/// Draws one random well-formed program.
pub fn gen_program(rng: &mut StdRng) -> Program {
    let n_kernels = rng.gen_range(1..MAX_KERNELS + 1);
    let trip = rng.gen_range(1..MAX_TRIP + 1);
    let mut p = Program { name: "fuzzcase".into(), ..Default::default() };

    // A shared pool of arrays: inputs (pre-filled) and outputs (zeroed).
    let n_int_arrays = rng.gen_range(1usize..3);
    let mut int_arrays = Vec::new();
    for a in 0..n_int_arrays {
        let name = format!("ia{a}");
        let vals: Vec<Value> = (0..trip).map(|_| Value::Int(rng.gen_range(-9i64..10))).collect();
        p.arrays.insert(name.clone(), vals);
        int_arrays.push((name, trip));
    }
    let name = "fa0".to_string();
    let vals: Vec<Value> =
        (0..trip).map(|_| Value::from_f64(f64::from(rng.gen_range(-8i32..9)) * 0.25)).collect();
    p.arrays.insert(name.clone(), vals);
    let float_arrays = vec![(name, trip)];

    for knum in 0..n_kernels {
        let bound = rng.gen_range(1..MAX_BOUND + 1);
        let n_vars = rng.gen_range(0..MAX_STATE_VARS + 1);
        let mut vars: Vec<(String, Expr)> = Vec::new();
        let mut update: Vec<(String, Expr)> = Vec::new();
        let mut int_vars = vec!["j".to_string(), "lim".to_string()];
        let mut float_vars: Vec<String> = Vec::new();

        // Variable 0: the terminating counter. Variable 1: its limit —
        // the condition runs in state-only scope (no `i`), so the bound
        // `i + BOUND` is computed at init and carried unchanged.
        vars.push(("j".into(), Expr::var("i")));
        vars.push(("lim".into(), Expr::addi(Expr::var("i"), Expr::int(bound))));

        // Pre-declare the extra variables so updates can reference each
        // other (loop-carried cross dependencies).
        let mut tys = Vec::new();
        for v in 0..n_vars {
            let name = format!("v{v}");
            let ty = if rng.gen_bool(0.3) { Ty::Float } else { Ty::Int };
            match ty {
                Ty::Int => int_vars.push(name.clone()),
                Ty::Float => float_vars.push(name.clone()),
            }
            tys.push((name, ty));
        }
        let sc = Scope {
            int_vars: int_vars.clone(),
            float_vars: float_vars.clone(),
            int_arrays: int_arrays.clone(),
            float_arrays: float_arrays.clone(),
            outer: false,
        };
        // Init expressions only see `i` and the arrays (state is not yet
        // defined), so generate them in a scope without the state vars.
        let init_sc = Scope {
            int_vars: vec![],
            float_vars: vec![],
            int_arrays: int_arrays.clone(),
            float_arrays: float_arrays.clone(),
            outer: true,
        };
        for (name, ty) in &tys {
            vars.push((name.clone(), gen_expr(rng, &init_sc, *ty, MAX_EXPR_DEPTH.min(2))));
        }
        update.push(("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))));
        update.push(("lim".into(), Expr::var("lim")));
        for (name, ty) in &tys {
            update.push((name.clone(), gen_expr(rng, &sc, *ty, MAX_EXPR_DEPTH)));
        }

        // Output array for this kernel, plus optional in-body effects.
        let out = format!("out{knum}");
        p.arrays.insert(out.clone(), vec![Value::Int(0); trip as usize]);
        let mut effects = Vec::new();
        if rng.gen_bool(0.25) {
            // Effects run in state-only scope: a constant index (kept in
            // bounds) instead of `i`. They get their own array; the loads
            // embedded below are the only reads of it — a read anywhere
            // else (inits, updates, the condition) is the one shape the
            // store queue cannot order and codegen still rejects.
            let eff = format!("eff{knum}");
            p.arrays.insert(eff.clone(), vec![Value::Int(0); trip as usize]);
            effects.push(StoreStmt {
                array: eff.clone(),
                index: Expr::int(rng.gen_range(0..trip)),
                value: gen_expr(rng, &sc, Ty::Int, 1),
            });
            // Multi-site shapes compile through a store queue that
            // serialises the accesses in program order; the oracles then
            // hold the queue to the interpreter's memory.
            if rng.gen_bool(0.5) {
                match rng.gen_range(0u8..3) {
                    // A second body store to the same array: two body sites.
                    0 => effects.push(StoreStmt {
                        array: eff,
                        index: Expr::int(rng.gen_range(0..trip)),
                        value: gen_expr(rng, &sc, Ty::Int, 1),
                    }),
                    // A body read-modify-write: the store statement loads
                    // its own array (the histogram shape).
                    1 => effects.push(StoreStmt {
                        array: eff.clone(),
                        index: Expr::int(rng.gen_range(0..trip)),
                        value: Expr::addi(
                            Expr::load(&eff, Expr::int(rng.gen_range(0..trip))),
                            gen_expr(rng, &sc, Ty::Int, 1),
                        ),
                    }),
                    // A body store to the epilogue's output array: body +
                    // epilogue sites (the minimised reproducer's shape).
                    _ => effects.push(StoreStmt {
                        array: out.clone(),
                        index: Expr::int(rng.gen_range(0..trip)),
                        value: gen_expr(rng, &sc, Ty::Int, 1),
                    }),
                }
            }
        }
        let result_var = if int_vars.len() > 1 && rng.gen_bool(0.7) {
            int_vars[rng.gen_range(1..int_vars.len())].clone()
        } else {
            "j".to_string()
        };
        let epilogue = vec![StoreStmt {
            array: out.clone(),
            index: Expr::var("i"),
            value: Expr::var(&result_var),
        }];

        let ooo_tags = rng.gen_bool(0.6).then(|| rng.gen_range(1..MAX_TAGS + 1));
        p.kernels.push(OuterLoop {
            var: "i".into(),
            trip,
            inner: InnerLoop {
                vars,
                update,
                cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::var("lim")),
                effects,
            },
            epilogue,
            ooo_tags,
        });
    }
    p
}

/// Randomly widens buffer capacities in a placed circuit (the buffer
/// placement knob): extra slack must never change token streams, only
/// timing — which oracle 1 then cross-checks between the two schedulers.
pub fn mutate_buffer_slots(rng: &mut StdRng, g: &ExprHigh) -> ExprHigh {
    let mut out = g.clone();
    let names: Vec<String> = g
        .nodes()
        .filter(|(_, k)| matches!(k, CompKind::Buffer { .. }))
        .map(|(n, _)| n.clone())
        .collect();
    for n in names {
        if rng.gen_bool(0.3) {
            if let Some(CompKind::Buffer { transparent, .. }) = g.kind(&n) {
                let slots = rng.gen_range(1usize..4);
                let kind = CompKind::Buffer { slots, transparent: *transparent };
                out.set_kind(&n, kind).expect("same interface");
            }
        }
    }
    out
}
