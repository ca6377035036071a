//! A statically scheduled HLS baseline — the Vericert substitute.
//!
//! Vericert [31, 32] compiles imperative code to a static state machine: a
//! list schedule over *shared* functional units, executed sequentially with
//! no loop pipelining. That gives it the profile the paper reports: far
//! worse cycle counts on irregular loops (no dynamic overlap), but the best
//! clock period (no handshake logic) and the smallest area (one FP adder,
//! one FP multiplier, DSP count constant at 5).
//!
//! The baseline here schedules each section of a loop-nest kernel (inner
//! body, init, epilogue) with resource-constrained list scheduling and
//! charges the schedule length per executed iteration; iteration counts
//! come from actually running the reference interpreter
//! ([`graphiti_frontend::run_kernel`]), so data-dependent loops (GCD) are
//! costed exactly and a loop that never exits is reported as
//! [`InterpError::Diverged`].

#![warn(missing_docs)]

use graphiti_frontend::{run_kernel, Expr, InterpError, Memory, OuterLoop, Program, StoreStmt};
use graphiti_ir::Op;
use graphiti_sim::Area;
use std::collections::{BTreeMap, BTreeSet};

/// Functional-unit classes of the shared datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FuClass {
    /// Floating-point adder/subtractor (one unit).
    FAdd,
    /// Floating-point multiplier (one unit).
    FMul,
    /// Floating-point divider (one unit).
    FDiv,
    /// Integer divider / remainder unit (one unit).
    IDiv,
    /// Memory port (one load or store per cycle).
    Mem,
    /// Simple integer/logic ALU (two units).
    Alu,
}

/// The unit class and occupancy (cycles the unit is busy, unpipelined) of
/// an operation.
pub fn op_fu(op: Op) -> (FuClass, u64) {
    match op {
        Op::AddF | Op::SubF => (FuClass::FAdd, 10),
        Op::MulF => (FuClass::FMul, 8),
        Op::DivF => (FuClass::FDiv, 20),
        Op::GeF | Op::LtF => (FuClass::FAdd, 3),
        Op::IToF => (FuClass::Alu, 3),
        Op::Mod | Op::DivI => (FuClass::IDiv, 8),
        Op::MulI => (FuClass::Alu, 2),
        _ => (FuClass::Alu, 1),
    }
}

fn fu_units(class: FuClass) -> u64 {
    match class {
        FuClass::Alu => 2,
        _ => 1,
    }
}

/// Aggregated operation demands of a section.
#[derive(Debug, Clone, Default)]
struct Demand {
    /// Busy cycles per unit class.
    busy: BTreeMap<FuClass, u64>,
    /// Dependence-critical path in cycles.
    critical: u64,
    /// Operation count (for area/control estimation).
    ops: u64,
}

fn expr_demand(e: &Expr, d: &mut Demand) -> u64 {
    // Returns the critical-path depth of this expression.
    match e {
        Expr::Const(_) => 0,
        Expr::Var(_) => 0,
        Expr::Load(_, idx) => {
            let under = expr_demand(idx, d);
            *d.busy.entry(FuClass::Mem).or_insert(0) += 2;
            d.ops += 1;
            under + 2
        }
        Expr::Un(op, a) => {
            let under = expr_demand(a, d);
            let (c, occ) = op_fu(*op);
            *d.busy.entry(c).or_insert(0) += occ;
            d.ops += 1;
            under + occ
        }
        Expr::Bin(op, a, b) => {
            let ua = expr_demand(a, d);
            let ub = expr_demand(b, d);
            let (c, occ) = op_fu(*op);
            *d.busy.entry(c).or_insert(0) += occ;
            d.ops += 1;
            ua.max(ub) + occ
        }
        Expr::Sel(c, t, f) => {
            let uc = expr_demand(c, d);
            let ut = expr_demand(t, d);
            let uf = expr_demand(f, d);
            *d.busy.entry(FuClass::Alu).or_insert(0) += 1;
            d.ops += 1;
            uc.max(ut).max(uf) + 1
        }
    }
}

fn section_demand(exprs: &[&Expr], stores: &[&StoreStmt]) -> Demand {
    let mut d = Demand::default();
    let mut crit = 0;
    for e in exprs {
        crit = crit.max(expr_demand(e, &mut d));
    }
    for st in stores {
        let ui = expr_demand(&st.index, &mut d);
        let uv = expr_demand(&st.value, &mut d);
        *d.busy.entry(FuClass::Mem).or_insert(0) += 1;
        d.ops += 1;
        crit = crit.max(ui.max(uv) + 1);
    }
    d.critical = crit;
    d
}

/// Busy time of the most contended unit class, divided by its unit count
/// — the resource bound on the section's initiation interval.
fn resource_bound(d: &Demand) -> u64 {
    d.busy.iter().map(|(c, busy)| busy.div_ceil(fu_units(*c))).max().unwrap_or(0)
}

/// Resource-constrained schedule length of a section: the maximum of the
/// dependence critical path and each unit class's busy time divided by its
/// unit count, plus one FSM transition state.
fn schedule_length(d: &Demand) -> u64 {
    // Three control states: operand fetch, FSM transition, writeback.
    d.critical.max(resource_bound(d)) + 3
}

/// Per-section demands of a kernel: init, body, epilogue.
fn kernel_demands(k: &OuterLoop) -> [Demand; 3] {
    let init_exprs: Vec<&Expr> = k.inner.vars.iter().map(|(_, e)| e).collect();
    let init_d = section_demand(&init_exprs, &[]);
    let body_exprs: Vec<&Expr> =
        k.inner.update.iter().map(|(_, e)| e).chain(std::iter::once(&k.inner.cond)).collect();
    let body_stores: Vec<&StoreStmt> = k.inner.effects.iter().collect();
    let body_d = section_demand(&body_exprs, &body_stores);
    let epi_stores: Vec<&StoreStmt> = k.epilogue.iter().collect();
    let epi_d = section_demand(&[], &epi_stores);
    [init_d, body_d, epi_d]
}

/// The statically scheduled implementation's figures for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticReport {
    /// Total cycles over all kernels.
    pub cycles: u64,
    /// Clock period (ns) of the static datapath.
    pub clock_period: f64,
    /// Area of the shared datapath.
    pub area: Area,
    /// Final memory (the baseline is also functionally validated).
    pub memory: Memory,
}

/// Runs a program on the static-HLS baseline, producing cycles, clock
/// period, area, and the final memory.
///
/// A kernel costs its entry and exit states, one control state plus the
/// init and epilogue schedules per outer iteration, and the body schedule
/// per inner iteration the reference interpreter ran.
///
/// # Errors
///
/// Propagates interpreter errors (the cost model rides on real execution).
pub fn run_static(p: &Program) -> Result<StaticReport, InterpError> {
    let mut mem = p.arrays.clone();
    let mut cycles: u64 = 0;
    let mut total_ops: u64 = 0;
    let mut classes_used: BTreeSet<FuClass> = BTreeSet::new();
    for k in &p.kernels {
        let iterations = run_kernel(k, &mut mem)?;
        let demands = kernel_demands(k);
        let [init, body, epilogue] = demands.each_ref().map(schedule_length);
        cycles += 2 + k.trip.max(0) as u64 * (1 + init + epilogue) + iterations * body;
        for d in demands {
            total_ops += d.ops;
            classes_used.extend(d.busy.into_keys());
        }
    }

    // Clock period: registered shared units, no elastic handshake. The
    // datapath mux fan-in grows slowly with the number of ops.
    let base = 4.55;
    let clock_period = base + 0.018 * (total_ops as f64).sqrt() * 2.0;

    // Area: one instance of each used unit class plus control/state.
    let mut area = Area::new(150 + 14 * total_ops, 900 + 16 * total_ops, 0);
    for class in classes_used {
        area = area
            + match class {
                FuClass::FAdd => Area::new(310, 260, 2),
                FuClass::FMul => Area::new(118, 145, 3),
                FuClass::FDiv => Area::new(760, 710, 0),
                FuClass::IDiv => Area::new(190, 170, 0),
                FuClass::Mem => Area::new(60, 40, 0),
                FuClass::Alu => Area::new(80, 10, 0),
            };
    }
    Ok(StaticReport { cycles, clock_period, area, memory: mem })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_frontend::{run_program, InnerLoop};
    use graphiti_ir::Value;

    fn accum_program(trip: i64, m: i64) -> Program {
        let inner = InnerLoop {
            vars: vec![
                ("j".into(), Expr::int(0)),
                ("acc".into(), Expr::f64(0.0)),
                ("off".into(), Expr::muli(Expr::var("i"), Expr::int(m))),
            ],
            update: vec![
                ("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))),
                (
                    "acc".into(),
                    Expr::addf(
                        Expr::var("acc"),
                        Expr::mulf(
                            Expr::load("a", Expr::addi(Expr::var("off"), Expr::var("j"))),
                            Expr::f64(1.5),
                        ),
                    ),
                ),
                ("off".into(), Expr::var("off")),
            ],
            cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(m)),
            effects: vec![],
        };
        Program {
            name: "accum".into(),
            arrays: [
                ("a".to_string(), (0..trip * m).map(|x| Value::from_f64(x as f64)).collect()),
                ("y".to_string(), vec![Value::from_f64(0.0); trip as usize]),
            ]
            .into_iter()
            .collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip,
                inner,
                epilogue: vec![StoreStmt {
                    array: "y".into(),
                    index: Expr::var("i"),
                    value: Expr::var("acc"),
                }],
                ooo_tags: Some(8),
            }],
        }
    }

    #[test]
    fn static_baseline_is_functionally_correct() {
        let p = accum_program(4, 5);
        let expected = run_program(&p).unwrap();
        let r = run_static(&p).unwrap();
        assert_eq!(r.memory["y"], expected["y"]);
    }

    #[test]
    fn static_baseline_profile_matches_the_paper() {
        let p = accum_program(6, 8);
        let r = run_static(&p).unwrap();
        // No pipelining: each inner iteration costs at least the fadd
        // occupancy.
        assert!(r.cycles >= 6 * 8 * 10, "cycles = {}", r.cycles);
        // Best clock period of all flows (paper: ~4.8-5.1 ns).
        assert!(r.clock_period < 5.2, "cp = {}", r.clock_period);
        // Shared units: DSP = fadd(2) + fmul(3) = 5, the constant column of
        // Table 3.
        assert_eq!(r.area.dsp, 5);
    }

    #[test]
    fn kernel_schedule_matches_the_costed_run() {
        let p = accum_program(3, 4);
        let k = &p.kernels[0];
        let [init, body, epilogue] = kernel_demands(k).map(|d| schedule_length(&d));
        // The body carries the fadd/fmul chain: its II dominates.
        assert!(body >= 10, "body II too small: {body}");
        // The section lengths reproduce run_static's cycle count exactly:
        // per outer iteration one control state + init + (inner trips ×
        // body) + epilogue, plus entry/exit.
        let trips_per_iter = 4; // cond is j < m after the first update
        let expected = 2 + k.trip as u64 * (1 + init + trips_per_iter * body + epilogue);
        let r = run_static(&p).unwrap();
        assert_eq!(r.cycles, expected, "section lengths diverge from the costed run");
    }

    #[test]
    fn a_loop_that_never_exits_is_reported_as_diverged() {
        let mut p = accum_program(1, 4);
        p.kernels[0].inner = InnerLoop {
            vars: vec![("j".into(), Expr::int(0))],
            update: vec![("j".into(), Expr::addi(Expr::var("j"), Expr::int(1)))],
            cond: Expr::Const(Value::Bool(true)),
            effects: vec![],
        };
        assert_eq!(run_static(&p), Err(InterpError::Diverged));
    }

    #[test]
    fn data_dependent_trip_counts_are_costed_exactly() {
        // GCD: iteration counts vary by input pair.
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
        let mk = |pairs: Vec<(i64, i64)>| Program {
            name: "gcd".into(),
            arrays: [
                ("arr1".to_string(), pairs.iter().map(|(a, _)| Value::Int(*a)).collect()),
                ("arr2".to_string(), pairs.iter().map(|(_, b)| Value::Int(*b)).collect()),
                ("result".to_string(), vec![Value::Int(0); pairs.len()]),
            ]
            .into_iter()
            .collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip: pairs.len() as i64,
                inner: inner.clone(),
                epilogue: vec![StoreStmt {
                    array: "result".into(),
                    index: Expr::var("i"),
                    value: Expr::var("a"),
                }],
                ooo_tags: None,
            }],
        };
        // Fibonacci-adjacent pairs iterate much longer than equal pairs.
        let slow = run_static(&mk(vec![(987, 610)])).unwrap();
        let fast = run_static(&mk(vec![(8, 8)])).unwrap();
        assert!(slow.cycles > 3 * fast.cycles, "{} vs {}", slow.cycles, fast.cycles);
    }
}
