//! Simulator behaviours beyond the unit tests: memory ordering across
//! multiple store ports, deep-pipeline fast-forwarding, tag exhaustion
//! under backpressure, and leftover-token accounting for primed loops.

use graphiti_ir::{ep, CompKind, ExprHigh, Op, Value};
use graphiti_sim::{place_buffers, simulate, Memory, SimConfig};
use std::collections::BTreeMap;

fn feeds(pairs: &[(&str, Vec<Value>)]) -> BTreeMap<String, Vec<Value>> {
    pairs.iter().map(|(n, v)| (n.to_string(), v.clone())).collect()
}

#[test]
fn two_store_ports_commit_in_arrival_order() {
    // Two store units write the same cell; the second is delayed behind a
    // deep fdiv, so the first unit's write lands first and the second wins.
    let mut g = ExprHigh::new();
    g.add_node("fast", CompKind::Store { mem: "cell".into() }).unwrap();
    g.add_node("slow", CompKind::Store { mem: "cell".into() }).unwrap();
    g.add_node("div", CompKind::Operator { op: Op::DivF }).unwrap();
    g.add_node("itoa", CompKind::Operator { op: Op::Not }).unwrap(); // placeholder shaping
    g.add_node("kf", CompKind::Sink).unwrap();
    g.add_node("ks", CompKind::Sink).unwrap();
    g.add_node("kx", CompKind::Sink).unwrap();
    // fast path: addr + data fed directly.
    g.expose_input("fa", ep("fast", "addr")).unwrap();
    g.expose_input("fd", ep("fast", "data")).unwrap();
    g.connect(ep("fast", "done"), ep("kf", "in")).unwrap();
    // slow path: its data goes through a 20-cycle divider first.
    g.expose_input("sa", ep("slow", "addr")).unwrap();
    g.expose_input("d0", ep("div", "in0")).unwrap();
    g.expose_input("d1", ep("div", "in1")).unwrap();
    g.connect(ep("div", "out"), ep("slow", "data")).unwrap();
    g.connect(ep("slow", "done"), ep("ks", "in")).unwrap();
    // park the placeholder op.
    g.expose_input("nb", ep("itoa", "in0")).unwrap();
    g.connect(ep("itoa", "out"), ep("kx", "in")).unwrap();

    let mem: Memory = [("cell".to_string(), vec![Value::from_f64(0.0)])].into_iter().collect();
    let r = simulate(
        &g,
        &feeds(&[
            ("fa", vec![Value::Int(0)]),
            ("fd", vec![Value::from_f64(1.0)]),
            ("sa", vec![Value::Int(0)]),
            ("d0", vec![Value::from_f64(9.0)]),
            ("d1", vec![Value::from_f64(3.0)]),
            ("nb", vec![Value::Bool(true)]),
        ]),
        mem,
        SimConfig::default(),
    )
    .unwrap();
    // The divider's result (3.0) arrives ~20 cycles later and overwrites.
    assert_eq!(r.memory["cell"], vec![Value::from_f64(3.0)]);
    assert!(r.cycles >= 20, "cycles = {}", r.cycles);
}

#[test]
fn fast_forward_skips_idle_pipeline_cycles_correctly() {
    // A lone fdiv (latency 20): the simulator fast-forwards the idle wait
    // but the cycle count still reflects the full latency.
    let mut g = ExprHigh::new();
    g.add_node("d", CompKind::Operator { op: Op::DivF }).unwrap();
    g.expose_input("a", ep("d", "in0")).unwrap();
    g.expose_input("b", ep("d", "in1")).unwrap();
    g.expose_output("y", ep("d", "out")).unwrap();
    let r = simulate(
        &g,
        &feeds(&[("a", vec![Value::from_f64(10.0)]), ("b", vec![Value::from_f64(4.0)])]),
        Memory::new(),
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.outputs["y"], vec![Value::from_f64(2.5)]);
    assert_eq!(r.cycles, 21);
}

#[test]
fn tag_exhaustion_backpressures_but_recovers() {
    // Tagger with 1 tag feeding an identity region: three tokens must still
    // all pass, strictly serialized by tag reuse.
    let mut g = ExprHigh::new();
    g.add_node("t", CompKind::TaggerUntagger { tags: 1 }).unwrap();
    g.add_node("b", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
    g.expose_input("x", ep("t", "in")).unwrap();
    g.connect(ep("t", "tagged"), ep("b", "in")).unwrap();
    g.connect(ep("b", "out"), ep("t", "retag")).unwrap();
    g.expose_output("y", ep("t", "out")).unwrap();
    let vals: Vec<Value> = (0..3).map(Value::Int).collect();
    let r =
        simulate(&g, &feeds(&[("x", vals.clone())]), Memory::new(), SimConfig::default()).unwrap();
    assert_eq!(r.outputs["y"], vals);
    assert_eq!(r.leftover_tokens, 0);
}

#[test]
fn primed_loop_leftovers_are_reported_not_fatal() {
    // A sequential counting loop leaves its final `false` condition parked
    // at the Mux: the simulator quiesces and reports the leftover.
    let mut g = ExprHigh::new();
    g.add_node("mux", CompKind::Mux).unwrap();
    g.add_node("f", CompKind::Fork { ways: 3 }).unwrap();
    g.add_node("one", CompKind::Constant { value: Value::Int(1) }).unwrap();
    g.add_node("add", CompKind::Operator { op: Op::AddI }).unwrap();
    g.add_node("fup", CompKind::Fork { ways: 3 }).unwrap();
    g.add_node("lim", CompKind::Constant { value: Value::Int(3) }).unwrap();
    g.add_node("lt", CompKind::Operator { op: Op::LtI }).unwrap();
    g.add_node("cf", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("init", CompKind::Init { initial: false }).unwrap();
    g.add_node("br", CompKind::Branch).unwrap();
    g.add_node("ksink", CompKind::Sink).unwrap();
    g.expose_input("start", ep("mux", "f")).unwrap();
    g.connect(ep("init", "out"), ep("mux", "cond")).unwrap();
    g.connect(ep("mux", "out"), ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("add", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("one", "ctrl")).unwrap();
    g.connect(ep("f", "out2"), ep("ksink", "in")).unwrap();
    g.connect(ep("one", "out"), ep("add", "in1")).unwrap();
    g.connect(ep("add", "out"), ep("fup", "in")).unwrap();
    g.connect(ep("fup", "out0"), ep("br", "in")).unwrap();
    g.connect(ep("fup", "out1"), ep("lt", "in0")).unwrap();
    g.connect(ep("fup", "out2"), ep("lim", "ctrl")).unwrap();
    g.connect(ep("lim", "out"), ep("lt", "in1")).unwrap();
    g.connect(ep("lt", "out"), ep("cf", "in")).unwrap();
    g.connect(ep("cf", "out0"), ep("br", "cond")).unwrap();
    g.connect(ep("cf", "out1"), ep("init", "in")).unwrap();
    g.connect(ep("br", "t"), ep("mux", "t")).unwrap();
    g.expose_output("out", ep("br", "f")).unwrap();
    let (placed, _) = place_buffers(&g);
    let r = simulate(
        &placed,
        &feeds(&[("start", vec![Value::Int(0)])]),
        Memory::new(),
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.outputs["out"], vec![Value::Int(3)], "counts 0 -> 3");
    assert!(r.leftover_tokens >= 1, "the parked false condition is reported");
    assert!(r.leftover_tokens <= 2, "but nothing else leaks: {}", r.leftover_tokens);
}

#[test]
fn unknown_feed_port_is_an_error() {
    let mut g = ExprHigh::new();
    g.add_node("k", CompKind::Sink).unwrap();
    g.expose_input("x", ep("k", "in")).unwrap();
    let err =
        simulate(&g, &feeds(&[("zz", vec![Value::Unit])]), Memory::new(), SimConfig::default())
            .unwrap_err();
    assert!(err.to_string().contains("no input named"), "{err}");
}

#[test]
fn incomplete_graph_is_rejected_up_front() {
    let mut g = ExprHigh::new();
    g.add_node("k", CompKind::Sink).unwrap();
    let err = simulate(&g, &feeds(&[]), Memory::new(), SimConfig::default()).unwrap_err();
    assert!(err.to_string().contains("not simulatable"), "{err}");
}
