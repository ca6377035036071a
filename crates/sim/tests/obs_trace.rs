//! Golden test for the simulator's Chrome trace emission: a two-node
//! circuit (adder feeding a buffer) with both nodes listed must produce
//! exactly the expected fire events on the simulated-time lanes, with
//! matching registry counters and a well-formed exported document; the
//! same run with no node listed emits no fire event.
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]` — no other test races the registry.

use graphiti_ir::{ep, CompKind, ExprHigh, Op, Value};
use graphiti_sim::{simulate, Memory, SimConfig};
use std::collections::BTreeMap;

#[test]
fn two_node_circuit_emits_golden_trace() {
    graphiti_obs::reset();
    graphiti_obs::enable();

    // add → buf: two additions flow through a one-slot opaque buffer.
    let mut g = ExprHigh::new();
    g.add_node("add", CompKind::Operator { op: Op::AddI }).unwrap();
    g.add_node("buf", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
    g.expose_input("a", ep("add", "in0")).unwrap();
    g.expose_input("b", ep("add", "in1")).unwrap();
    g.connect(ep("add", "out"), ep("buf", "in")).unwrap();
    g.expose_output("y", ep("buf", "out")).unwrap();
    g.validate().unwrap();

    let feeds: BTreeMap<String, Vec<Value>> = [
        ("a".to_string(), vec![Value::Int(1), Value::Int(10)]),
        ("b".to_string(), vec![Value::Int(2), Value::Int(20)]),
    ]
    .into_iter()
    .collect();
    let sim_events =
        || graphiti_obs::trace_events().into_iter().filter(|e| e.pid == graphiti_obs::PID_SIM);
    // Metrics alone build no per-fire record.
    let r = simulate(&g, &feeds, Memory::new(), SimConfig::default()).unwrap();
    assert_eq!(sim_events().count(), 0, "no node listed, no fire event");
    assert!(r.trace.is_empty());
    graphiti_obs::reset();

    let cfg = SimConfig { trace_nodes: vec!["add".into(), "buf".into()], ..Default::default() };
    let r = simulate(&g, &feeds, Memory::new(), cfg).unwrap();
    assert_eq!(r.outputs["y"], vec![Value::Int(3), Value::Int(30)]);

    // The golden trace: one complete event per node fire on the PID_SIM
    // process, timestamped with the cycle (1 cycle = 1 µs), one lane (tid)
    // per node in declaration order.
    let fires: Vec<(String, u32, u64)> = sim_events().map(|e| (e.name, e.tid, e.ts_us)).collect();
    let golden: Vec<(String, u32, u64)> = [
        ("add", 0, 0), // first addition the cycle both operands arrive
        ("buf", 1, 0), // buffer latches it the same cycle (elastic handoff)
        ("add", 0, 1), // second addition pipelines right behind
        ("buf", 1, 1), // first token out, second token in
        ("buf", 1, 2), // second token drains
    ]
    .into_iter()
    .map(|(n, tid, ts)| (n.to_string(), tid, ts))
    .collect();
    assert_eq!(fires, golden);
    // The slices are the node trace: the adder's two fires consumed
    // operands, the buffer's three carry none.
    let traced: Vec<(&str, u64, usize)> =
        r.trace.iter().map(|e| (e.node.as_str(), e.cycle, e.values.len())).collect();
    assert_eq!(traced, [("add", 0, 2), ("buf", 0, 0), ("add", 1, 2), ("buf", 1, 0), ("buf", 2, 0)]);

    // Counters must agree with both the trace and the simulator's result.
    assert_eq!(graphiti_obs::counter("sim.fire.add").get(), 2);
    assert_eq!(graphiti_obs::counter("sim.fire.buf").get(), 3);
    assert_eq!(graphiti_obs::counter("sim.firings").get(), r.firings);
    assert_eq!(graphiti_obs::counter("sim.cycles").get(), r.cycles);

    // And the exporter renders it as a loadable Chrome trace document.
    let doc = graphiti_obs::chrome_trace_json();
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\":\"X\""));
    assert!(doc.contains("\"add\""));

    graphiti_obs::disable();
    graphiti_obs::reset();
}
