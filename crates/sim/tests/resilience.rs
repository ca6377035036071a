//! Resilience-facing integration tests for the simulator: the deadlock
//! detector (identical across both schedulers), cooperative cancellation,
//! and the compiled-artifact cache's hit/miss accounting, LRU bound and
//! byte accounting under racing workers.
//!
//! The artifact cache and its hit, miss and eviction counters are
//! process-global, and `artifact_cache_counts_hits_and_misses` asserts
//! exact deltas. So every test here that simulates or compiles serializes
//! on [`cache_lock`].

use graphiti_ir::{ep, CompKind, ExprHigh, Value};
use graphiti_sim::{simulate, Memory, Scheduler, SimConfig, SimError};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary around the process-global
/// artifact cache and its counters.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn feeds(name: &str, vals: Vec<Value>) -> BTreeMap<String, Vec<Value>> {
    [(name.to_string(), vals)].into_iter().collect()
}

/// A circuit that wedges permanently: the fork cannot fire because its
/// `out1` consumer is a join starved of its never-fed second operand, so
/// the loop through the buffer fills up and every token freezes in place.
fn deadlock_kernel() -> ExprHigh {
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
fn deadlock_is_reported_identically_on_both_schedulers() {
    let _serial = cache_lock();
    let g = deadlock_kernel();
    let mut reports = Vec::new();
    for sched in [Scheduler::ReferenceSweep, Scheduler::Compiled] {
        let cfg = SimConfig {
            max_cycles: 10_000,
            deadlock_window: 64,
            scheduler: sched,
            ..Default::default()
        };
        let err = simulate(&g, &feeds("x", vec![Value::Int(1), Value::Int(2)]), Memory::new(), cfg)
            .expect_err("the kernel must deadlock");
        match err {
            SimError::Deadlock(report) => {
                assert!(
                    !report.wavefront.is_empty(),
                    "{sched:?}: deadlock report must carry a stuck wavefront"
                );
                assert!(report.tokens_in_flight > 0, "{sched:?}: tokens must be frozen in flight");
                // At least one node is *stalled* (operands present, cannot
                // fire) — the signature that distinguishes a deadlock from
                // benign loop-priming leftovers.
                assert!(
                    report.wavefront.iter().any(|n| n.stalled),
                    "{sched:?}: wavefront must contain a stalled node: {}",
                    report.render()
                );
                reports.push((sched, *report));
            }
            other => panic!("{sched:?}: expected Deadlock, got {other:?}"),
        }
    }
    // The wavefront — nodes, stalled/starved split, causes, blame paths —
    // and the frozen token count are identical across schedulers. (The
    // wavefront is sorted by node index, which coincides across cores.)
    let (_, first) = &reports[0];
    for (sched, report) in &reports[1..] {
        assert_eq!(report, first, "{sched:?} deadlock report diverges from {:?}", reports[0].0);
    }
}

#[test]
fn without_the_window_the_deadlock_kernel_just_finishes_short() {
    // Detection off (the default): quiescence with frozen tokens is an
    // ordinary finish with leftovers, preserving pre-existing behavior.
    let _serial = cache_lock();
    let g = deadlock_kernel();
    let r = simulate(
        &g,
        &feeds("x", vec![Value::Int(1), Value::Int(2)]),
        Memory::new(),
        SimConfig { max_cycles: 10_000, ..Default::default() },
    )
    .expect("detection off: the wedge quiesces as a normal finish");
    assert!(r.leftover_tokens > 0);
    assert!(r.outputs.values().all(|v| v.is_empty()));
}

/// A healthy little pipeline used by the cancellation test.
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
    let _serial = cache_lock();
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
fn artifact_cache_counts_hits_and_misses() {
    // Every test here that compiles holds the lock, so the process-wide
    // counters move only by this test's lookups.
    let _serial = cache_lock();
    let build = |slots| {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots, transparent: true }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_output("y", ep("b", "out")).unwrap();
        g
    };
    let cfg = SimConfig::default();
    graphiti_sim::compile_cache_clear();
    let (h0, m0) = graphiti_sim::compile_cache_stats();
    graphiti_sim::precompile(&build(3), &cfg).unwrap();
    // Same circuit: cache hit. Different slot count: distinct artifact.
    graphiti_sim::precompile(&build(3), &cfg).unwrap();
    graphiti_sim::precompile(&build(4), &cfg).unwrap();
    let (h1, m1) = graphiti_sim::compile_cache_stats();
    assert_eq!(h1 - h0, 1);
    assert_eq!(m1 - m0, 2);
}

#[test]
fn artifact_cache_is_bounded_by_lru_eviction() {
    // 300 distinct circuits (disambiguated by buffer depth) overflow the
    // 256-entry cap no matter what other tests have inserted; the cache
    // must evict rather than grow without bound. Serialised with the
    // hit/miss test: its cache clear mid-loop would otherwise empty the
    // cache under these inserts and hide evictions.
    let _serial = cache_lock();
    let (ev0, _, _) = graphiti_sim::compile_cache_detail();
    let cfg = SimConfig { scheduler: Scheduler::Compiled, ..Default::default() };
    for slots in 0..300usize {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots: 2 + slots, transparent: false }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_output("y", ep("b", "out")).unwrap();
        graphiti_sim::precompile(&g, &cfg).unwrap();
    }
    let (ev1, entries, bytes) = graphiti_sim::compile_cache_detail();
    assert!(ev1 - ev0 >= 44, "300 inserts over a 256-entry cap must evict (got {})", ev1 - ev0);
    assert!(entries <= 256, "entry cap violated: {entries}");
    assert!(bytes <= 64 << 20, "byte cap violated: {bytes}");
}

/// A pipeline of `n` buffers, big enough that lowering it outlasts the
/// moment racing workers all look the circuit up.
fn buffer_chain(n: usize) -> ExprHigh {
    let mut g = ExprHigh::new();
    for i in 0..n {
        g.add_node(format!("b{i}"), CompKind::Buffer { slots: 2, transparent: false }).unwrap();
        if i > 0 {
            g.connect(ep(format!("b{}", i - 1), "out"), ep(format!("b{i}"), "in")).unwrap();
        }
    }
    g.expose_input("x", ep("b0", "in")).unwrap();
    g.expose_output("y", ep(format!("b{}", n - 1), "out")).unwrap();
    g
}

#[test]
fn racing_workers_charge_the_byte_cap_once() {
    // Workers that miss on one circuit at once each lower it; the cache
    // must still hold one entry, charged once.
    let _serial = cache_lock();
    let g = buffer_chain(400);
    let cfg = SimConfig::default();
    graphiti_sim::compile_cache_clear();
    graphiti_sim::precompile(&g, &cfg).unwrap();
    let (_, _, single) = graphiti_sim::compile_cache_detail();
    for round in 0..10 {
        graphiti_sim::compile_cache_clear();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    graphiti_sim::precompile(&g, &cfg).unwrap();
                });
            }
        });
        let (_, entries, bytes) = graphiti_sim::compile_cache_detail();
        assert_eq!((entries, bytes), (1, single), "round {round}: one artifact is {single} bytes");
    }
}
