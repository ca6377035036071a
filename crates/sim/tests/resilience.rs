//! Resilience-facing integration tests for the simulator: a wedged
//! circuit ends as quiescence with leftovers that stall attribution
//! explains identically on both schedulers, cooperative cancellation, and
//! the per-thread lowering count that benchmark harnesses read around
//! their own `simulate` calls.

use graphiti_ir::{ep, CompKind, ExprHigh, Value};
use graphiti_sim::{simulate, Memory, Scheduler, SimConfig, SimError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn feeds(name: &str, vals: Vec<Value>) -> BTreeMap<String, Vec<Value>> {
    [(name.to_string(), vals)].into_iter().collect()
}

/// A circuit that wedges permanently: the fork cannot fire because its
/// `out1` consumer is a join starved of its never-fed second operand, so
/// the loop through the buffer fills up and every token freezes in place.
fn wedge_kernel() -> ExprHigh {
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
    g
}

#[test]
fn a_wedged_circuit_finishes_short_and_both_cores_explain_where() {
    // Quiescence with frozen tokens is an ordinary finish with leftovers;
    // stall attribution says where the circuit wedged, and both cores say
    // it identically.
    let g = wedge_kernel();
    let run = |scheduler| {
        let cfg = SimConfig {
            max_cycles: 10_000,
            scheduler,
            attribute_stalls: true,
            ..Default::default()
        };
        simulate(&g, &feeds("x", vec![Value::Int(1), Value::Int(2)]), Memory::new(), cfg)
            .expect("the wedge quiesces as a normal finish")
    };
    let (sweep, compiled) = (run(Scheduler::ReferenceSweep), run(Scheduler::Compiled));
    assert_eq!(
        (compiled.cycles, compiled.leftover_tokens, &compiled.stalls),
        (sweep.cycles, sweep.leftover_tokens, &sweep.stalls),
        "the cores disagree on the wedge"
    );
    assert_eq!((sweep.cycles, sweep.leftover_tokens), (2, 3));
    assert!(sweep.outputs.values().all(|v| v.is_empty()));
    let stalls = sweep.stalls.expect("attribution was armed");
    let chains: Vec<_> = stalls
        .chains
        .iter()
        .map(|c| (c.cause.as_str(), c.path.join(" -> "), c.lost_cycles))
        .collect();
    assert_eq!(
        chains,
        [
            ("starved-by-source", "in.never".to_string(), 2),
            ("blocked-downstream", "f.out1-j.in0".to_string(), 1),
        ]
    );
}

/// A healthy little pipeline used by the cancellation and lowering-count
/// tests.
fn healthy_kernel() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("a", CompKind::Operator { op: graphiti_ir::Op::AddI }).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
    g.expose_output("y", ep("a", "out")).unwrap();
    g
}

#[test]
fn pre_tripped_token_cancels_every_scheduler() {
    let g = healthy_kernel();
    for sched in [Scheduler::ReferenceSweep, Scheduler::Compiled] {
        let token = graphiti_obs::CancelToken::new();
        token.cancel();
        let cfg = SimConfig { scheduler: sched, cancel: Some(token), ..Default::default() };
        let err = simulate(&g, &feeds("x", vec![Value::Int(3)]), Memory::new(), cfg)
            .expect_err("tripped token must cancel the run");
        assert_eq!(err, SimError::Cancelled, "{sched:?}");
    }
}

#[test]
fn lowering_count_is_per_thread_and_one_per_simulate() {
    // Four other threads simulate in a loop, and the barriers put at
    // least one of each thread's lowerings between this thread's two
    // reads. The count must still move only by this thread's two calls,
    // and lowering one circuit twice must change nothing observable.
    let g = healthy_kernel();
    let x = || feeds("x", vec![Value::Int(3), Value::Int(4)]);
    let run = || simulate(&g, &x(), Memory::new(), SimConfig::default());
    let (go, done) = (Barrier::new(5), Barrier::new(5));
    let stop = AtomicBool::new(false);
    let (delta, a, b) = std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                go.wait();
                let first = run();
                done.wait();
                first.unwrap();
                while !stop.load(Ordering::Relaxed) {
                    run().unwrap();
                }
            });
        }
        let (h0, m0) = graphiti_sim::compile_cache_stats();
        go.wait();
        let (a, b) = (run(), run());
        done.wait();
        let (h1, m1) = graphiti_sim::compile_cache_stats();
        stop.store(true, Ordering::Relaxed);
        ((h1 - h0, m1 - m0), a, b)
    });
    assert_eq!(delta, (0, 2), "one lowering per simulate call, and no hits");
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.outputs["y"], vec![Value::Int(6), Value::Int(8)]);
    assert_eq!((&a.outputs, a.cycles, a.firings), (&b.outputs, b.cycles, b.firings));
}
