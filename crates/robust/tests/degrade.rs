//! Degradation-ladder integration: injected compiled-backend faults fall
//! back to the reference sweep with bit-identical results, while circuit
//! diagnoses (deadlock) refuse to degrade.
//!
//! Failpoint state is process-global; the tests serialize on a local
//! mutex and clear the schedule via a drop guard.

use graphiti_ir::{ep, CompKind, ExprHigh, Value};
use graphiti_robust::simulate_resilient;
use graphiti_sim::{simulate, Memory, Scheduler, SimConfig, SimError};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct FpGuard;
impl Drop for FpGuard {
    fn drop(&mut self) {
        graphiti_obs::failpoint::clear();
    }
}

fn feeds(name: &str, vals: Vec<Value>) -> BTreeMap<String, Vec<Value>> {
    [(name.to_string(), vals)].into_iter().collect()
}

fn square_kernel() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("m", CompKind::Operator { op: graphiti_ir::Op::MulI }).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
    g.expose_output("y", ep("m", "out")).unwrap();
    g
}

#[test]
fn compiled_fault_degrades_to_the_sweep_bit_identically() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    let g = square_kernel();
    let input = feeds("x", vec![Value::Int(7), Value::Int(9)]);
    let truth = simulate(
        &g,
        &input,
        Memory::new(),
        SimConfig { scheduler: Scheduler::ReferenceSweep, ..Default::default() },
    )
    .unwrap();
    graphiti_obs::failpoint::configure("seed=9;sim.fire.compiled=1/1").unwrap();
    let cfg = SimConfig { scheduler: Scheduler::Compiled, ..Default::default() };
    let (r, used) = simulate_resilient(&g, &input, Memory::new(), cfg)
        .expect("the ladder must absorb a compiled-only fault");
    assert_eq!(used, Scheduler::ReferenceSweep, "the fallback rung");
    assert_eq!(r.outputs, truth.outputs);
    assert_eq!(r.cycles, truth.cycles);
    assert_eq!(r.firings, truth.firings);
}

#[test]
fn interpreter_faults_walk_the_whole_ladder_or_fail_gracefully() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    let g = square_kernel();
    let input = feeds("x", vec![Value::Int(3)]);
    // With both fire sites armed at a 1/1 rate every rung fails, so the
    // ladder exhausts and the last error comes back — an Err, never a
    // panic or a wrong answer.
    graphiti_obs::failpoint::configure("seed=2;sim.fire=1/1;sim.fire.compiled=1/1").unwrap();
    let cfg = SimConfig { scheduler: Scheduler::Compiled, ..Default::default() };
    let err = simulate_resilient(&g, &input, Memory::new(), cfg).unwrap_err();
    assert_eq!(err, SimError::Injected("sim.fire".into()));
}

#[test]
fn observed_runs_stay_on_the_compiled_backend() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    let g = square_kernel();
    let input = feeds("x", vec![Value::Int(4)]);
    // The compiled backend observes directly; nothing is left for the
    // ladder to absorb.
    let cfg = SimConfig { scheduler: Scheduler::Compiled, waveform: true, ..Default::default() };
    let (r, used) = simulate_resilient(&g, &input, Memory::new(), cfg).unwrap();
    assert_eq!(used, Scheduler::Compiled);
    assert!(r.waveform.is_some());
}

#[test]
fn deadlock_is_a_circuit_diagnosis_and_never_degrades() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    // The wedge from the sim resilience tests: fork blocked by a starved
    // join, loop tokens frozen.
    let mut g = ExprHigh::new();
    g.add_node("m", CompKind::Merge).unwrap();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("b", CompKind::Buffer { slots: 2, transparent: false }).unwrap();
    g.add_node("j", CompKind::Join).unwrap();
    g.add_node("k", CompKind::Sink).unwrap();
    g.expose_input("x", ep("m", "in0")).unwrap();
    g.connect(ep("m", "out"), ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("b", "in")).unwrap();
    g.connect(ep("b", "out"), ep("m", "in1")).unwrap();
    g.connect(ep("f", "out1"), ep("j", "in0")).unwrap();
    g.expose_input("never", ep("j", "in1")).unwrap();
    g.connect(ep("j", "out"), ep("k", "in")).unwrap();
    let cfg = SimConfig {
        scheduler: Scheduler::Compiled,
        deadlock_window: 64,
        max_cycles: 10_000,
        ..Default::default()
    };
    let err = simulate_resilient(&g, &feeds("x", vec![Value::Int(1)]), Memory::new(), cfg)
        .expect_err("a deadlocked circuit must not be retried into a wrong answer");
    match err {
        SimError::Deadlock(report) => assert!(!report.wavefront.is_empty()),
        other => panic!("expected Deadlock, got {other:?}"),
    }
}
