//! Cross-validation of the two interpretations of a circuit: the abstract
//! nondeterministic module semantics (graphiti-sem, used for refinement)
//! and the cycle-accurate elastic simulator (graphiti-sim, used for
//! performance). For deterministic circuits (no Merge), every schedule of
//! the abstract semantics and the timed simulation must produce the same
//! output streams; for circuits containing the out-of-order loop, the
//! Untagger makes the *visible* behaviour deterministic again, so the same
//! cross-check applies.

use graphiti::prelude::*;
use graphiti_ir::PortName;
use graphiti_sem::run_random;
use std::collections::BTreeMap;

/// Runs a circuit both ways on the same single-input feed and compares the
/// output streams.
fn cross_check(g: &ExprHigh, input_name: &str, output_name: &str, inputs: Vec<Value>) {
    // Abstract semantics (several random schedules).
    let (m, lowered) = denote_graph(g, &Env::standard()).unwrap();
    let in_idx = lowered
        .input_names
        .iter()
        .find(|(_, n)| *n == input_name)
        .map(|(i, _)| *i)
        .expect("input exists");
    let out_idx = lowered
        .output_names
        .iter()
        .find(|(_, n)| *n == output_name)
        .map(|(i, _)| *i)
        .expect("output exists");
    let feeds: BTreeMap<PortName, Vec<Value>> =
        [(PortName::Io(in_idx), inputs.clone())].into_iter().collect();
    let mut abstract_outs = None;
    for seed in 0..8 {
        let r = run_random(&m, &feeds, seed, 50_000);
        assert!(r.inputs_exhausted, "seed {seed}");
        let outs = r.outputs.get(&PortName::Io(out_idx)).cloned().unwrap_or_default();
        match &abstract_outs {
            None => abstract_outs = Some(outs),
            Some(prev) => assert_eq!(prev, &outs, "abstract semantics diverged at seed {seed}"),
        }
    }

    // Timed simulation (after buffer placement).
    let (placed, _) = place_buffers(g);
    let sim_feeds: BTreeMap<String, Vec<Value>> =
        [(input_name.to_string(), inputs)].into_iter().collect();
    let r = simulate(&placed, &sim_feeds, Default::default(), SimConfig::default()).unwrap();
    assert_eq!(
        r.outputs[output_name],
        abstract_outs.expect("at least one schedule ran"),
        "timed simulation disagrees with the abstract semantics"
    );
}

#[test]
fn deterministic_datapath_agrees() {
    // x -> fork -> (mod, passthrough buffer) -> join -> split -> outputs...
    // kept single-output: y = (x mod 7 != 0).
    let mut g = ExprHigh::new();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("c7", CompKind::Constant { value: Value::Int(7) }).unwrap();
    g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
    g.add_node("nz", CompKind::Operator { op: Op::NeZero }).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("c7", "ctrl")).unwrap();
    g.connect(ep("c7", "out"), ep("m", "in1")).unwrap();
    g.connect(ep("m", "out"), ep("nz", "in0")).unwrap();
    g.expose_output("y", ep("nz", "out")).unwrap();
    cross_check(&g, "x", "y", vec![Value::Int(14), Value::Int(15), Value::Int(0), Value::Int(3)]);
}

#[test]
fn sequential_loop_agrees() {
    let f = PureFn::comp(
        PureFn::par(PureFn::Id, PureFn::Op(Op::NeZero)),
        PureFn::comp(
            PureFn::par(PureFn::pair(PureFn::Snd, PureFn::Op(Op::Mod)), PureFn::Op(Op::Mod)),
            PureFn::Dup,
        ),
    );
    let mut g = ExprHigh::new();
    g.add_node("mux", CompKind::Mux).unwrap();
    g.add_node("body", CompKind::Pure { func: f }).unwrap();
    g.add_node("split", CompKind::Split).unwrap();
    g.add_node("br", CompKind::Branch).unwrap();
    g.add_node("fork", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("init", CompKind::Init { initial: false }).unwrap();
    g.connect(ep("mux", "out"), ep("body", "in")).unwrap();
    g.connect(ep("body", "out"), ep("split", "in")).unwrap();
    g.connect(ep("split", "out0"), ep("br", "in")).unwrap();
    g.connect(ep("split", "out1"), ep("fork", "in")).unwrap();
    g.connect(ep("fork", "out0"), ep("br", "cond")).unwrap();
    g.connect(ep("fork", "out1"), ep("init", "in")).unwrap();
    g.connect(ep("init", "out"), ep("mux", "cond")).unwrap();
    g.connect(ep("br", "t"), ep("mux", "t")).unwrap();
    g.expose_input("entry", ep("mux", "f")).unwrap();
    g.expose_output("exit", ep("br", "f")).unwrap();

    let inputs = vec![
        Value::pair(Value::Int(30), Value::Int(12)),
        Value::pair(Value::Int(7), Value::Int(5)),
    ];
    cross_check(&g, "entry", "exit", inputs.clone());

    // The out-of-order rewrite keeps the visible behaviour deterministic
    // (the Untagger releases in order), so the cross-check still applies.
    let mut engine = Engine::new();
    let mut ooo = g.clone();
    assert!(engine.apply_first(&mut ooo, &catalog::ooo::loop_ooo(2)).unwrap(), "loop matches");
    cross_check(&ooo, "entry", "exit", inputs);
}
