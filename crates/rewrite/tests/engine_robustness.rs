//! Engine-level integration tests: determinism, boundary validation, fresh
//! naming, rewrite logs, and the interplay of the pure-generation rewrites
//! with the extraction oracle on a nontrivial loop body.

use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh, NodeId, Op, Value};
use graphiti_rewrite::{
    catalog, extract_region_function, wire_consumer, Engine, Match, Replacement, Rewrite,
    RewriteError,
};
use std::collections::{BTreeMap, BTreeSet};

/// The GCD-ish body region of the paper's Fig. 5: split, fork, mod, nez.
fn body_region() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("s", CompKind::Split).unwrap();
    g.add_node("fa", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
    g.add_node("fm", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("nz", CompKind::Operator { op: Op::NeZero }).unwrap();
    g.add_node("jout", CompKind::Join).unwrap();
    g.add_node("jdata", CompKind::Join).unwrap();
    g.expose_input("x", ep("s", "in")).unwrap();
    // (a, b): a % b with b recirculated: data' = (b, a % b), cond = nez.
    g.connect(ep("s", "out0"), ep("m", "in0")).unwrap();
    g.connect(ep("s", "out1"), ep("fa", "in")).unwrap();
    g.connect(ep("fa", "out0"), ep("jdata", "in0")).unwrap();
    g.connect(ep("fa", "out1"), ep("m", "in1")).unwrap();
    g.connect(ep("m", "out"), ep("fm", "in")).unwrap();
    g.connect(ep("fm", "out0"), ep("jdata", "in1")).unwrap();
    g.connect(ep("fm", "out1"), ep("nz", "in0")).unwrap();
    g.connect(ep("jdata", "out"), ep("jout", "in0")).unwrap();
    g.connect(ep("nz", "out"), ep("jout", "in1")).unwrap();
    g.expose_output("y", ep("jout", "out")).unwrap();
    g.validate().unwrap();
    g
}

#[test]
fn extraction_matches_rewrite_based_pure_generation() {
    // Reduce the region with the pure-generation catalogue; whatever single
    // Pure emerges must agree pointwise with the symbolic extraction of the
    // original region.
    let g = body_region();
    let rf = extract_region_function(&g, &g.node_names()).unwrap();
    assert_eq!(rf.outputs.len(), 1);
    let oracle_fn = rf.outputs[0].1.clone();

    let mut engine = Engine::new();
    let rws = [
        catalog::pure_gen::op_to_pure(),
        catalog::pure_gen::fork_to_pure(),
        catalog::pure_gen::pure_fuse(),
        catalog::pure_gen::pure_over_join_left(),
        catalog::pure_gen::pure_over_join_right(),
        catalog::pure_gen::pure_over_split_left(),
        catalog::pure_gen::pure_over_split_right(),
        catalog::elim::split_join_elim(),
        catalog::elim::split_join_swap(),
        catalog::elim::join_split_elim(),
    ];
    let reduced = engine.exhaust(g, &rws, None).unwrap();
    reduced.validate().unwrap();
    assert!(engine.rewrites_applied() >= 5, "applied {}", engine.rewrites_applied());

    // The catalogue reduced the region to pures (and possibly residue);
    // evaluate both on sample inputs end-to-end via the semantics.
    use graphiti_sem::{denote_graph, run_random, Env};
    let (m, _) = denote_graph(&reduced, &Env::standard()).unwrap();
    for (a, b) in [(30i64, 12i64), (7, 3), (9, 9)] {
        let input = Value::pair(Value::Int(a), Value::Int(b));
        let expected = oracle_fn.eval(&input).unwrap();
        let feeds: BTreeMap<graphiti_ir::PortName, Vec<Value>> =
            [(graphiti_ir::PortName::Io(0), vec![input])].into_iter().collect();
        let r = run_random(&m, &feeds, 7, 5_000);
        assert_eq!(r.outputs[&graphiti_ir::PortName::Io(0)], vec![expected], "inputs ({a}, {b})");
    }
}

#[test]
fn exhaust_is_deterministic() {
    let rws = [
        catalog::pure_gen::op_to_pure(),
        catalog::pure_gen::fork_to_pure(),
        catalog::pure_gen::pure_fuse(),
    ];
    let mut a = Engine::new();
    let mut b = Engine::new();
    let ga = a.exhaust(body_region(), &rws, None).unwrap();
    let gb = b.exhaust(body_region(), &rws, None).unwrap();
    assert_eq!(ga, gb);
    assert_eq!(a.rewrites_applied(), b.rewrites_applied());
    let names_a: Vec<&str> = a.log.iter().map(|x| x.rewrite.as_str()).collect();
    let names_b: Vec<&str> = b.log.iter().map(|x| x.rewrite.as_str()).collect();
    assert_eq!(names_a, names_b);
}

#[test]
fn exhaust_in_a_region_rewrites_only_inside_it_and_tracks_created_nodes() {
    // Both operators match `op-to-pure`; the region admits only `m`.
    let mut region: BTreeSet<NodeId> = ["m".to_string()].into();
    let mut engine = Engine::new();
    let rws = [catalog::pure_gen::op_to_pure()];
    let g = engine.exhaust(body_region(), &rws, Some(&mut region)).unwrap();
    assert_eq!(engine.rewrites_applied(), 1);
    assert_eq!(engine.log[0].nodes, ["m".to_string()].into());
    assert!(g.kind("nz").is_some(), "`nz` lies outside the region");
    // `m` left the region and the nodes that replaced it joined.
    assert!(!engine.log[0].created.is_empty());
    assert_eq!(region, engine.log[0].created.iter().cloned().collect());
}

#[test]
fn boundary_mismatch_is_rejected() {
    // A rewrite whose replacement forgets one boundary output.
    let broken = Rewrite::new(
        "broken",
        false,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Fork { ways: 2 }))
                .map(|(n, _)| Match {
                    nodes: [n.clone()].into_iter().collect(),
                    bindings: [("fork".to_string(), n.clone())].into_iter().collect(),
                })
                .collect()
        },
        |_, m| {
            let f = m.node("fork");
            // Claims to be a wire from in to out0 but drops out1.
            Ok(Replacement::Passthrough {
                wires: vec![(ep(f.clone(), "in"), ep(f.clone(), "out0"))],
            })
        },
    );
    let g = body_region();
    let mut engine = Engine::new();
    let err = engine.apply_first(&g, &broken).unwrap_err();
    assert!(matches!(err, RewriteError::BoundaryMismatch(_)), "{err}");
    // And the log records nothing for the failed application.
    assert_eq!(engine.rewrites_applied(), 0);
}

#[test]
fn fresh_names_never_collide_across_applications() {
    let g = body_region();
    let mut engine = Engine::new();
    let rws = [catalog::pure_gen::op_to_pure()];
    let g2 = engine.exhaust(g, &rws, None).unwrap();
    let names = g2.node_names();
    assert_eq!(names.len(), g2.node_count());
    // Two operator replacements happened; their join/pure nodes all have
    // distinct generated names.
    let pures = g2.nodes().filter(|(_, k)| matches!(k, CompKind::Pure { .. })).count();
    assert_eq!(pures, 2);
}

#[test]
fn log_records_the_rewrite_sequence() {
    let g = body_region();
    let mut engine = Engine::new();
    let rws = [catalog::pure_gen::op_to_pure(), catalog::pure_gen::fork_to_pure()];
    let _ = engine.exhaust(g, &rws, None).unwrap();
    assert!(engine.obligations.is_empty(), "unchecked mode records no obligations");
    assert!(engine.log.iter().any(|a| a.rewrite == "op-to-pure"));
    assert!(engine.log.iter().any(|a| a.rewrite == "fork-to-pure"));
    // Every logged application names nodes that existed at its time; at
    // minimum the sets are non-empty.
    assert!(engine.log.iter().all(|a| !a.nodes.is_empty()));
}

#[test]
fn targeted_rewrites_do_not_leak_to_other_sites() {
    // Two separate fork-of-sink sites; a targeted single-match rewrite must
    // only fire at its site.
    let mut g = ExprHigh::new();
    for i in 0..2 {
        g.add_node(format!("f{i}"), CompKind::Fork { ways: 2 }).unwrap();
        g.add_node(format!("k{i}a"), CompKind::Sink).unwrap();
        g.add_node(format!("k{i}b"), CompKind::Sink).unwrap();
        g.expose_input(format!("x{i}"), ep(format!("f{i}"), "in")).unwrap();
        g.connect(ep(format!("f{i}"), "out0"), ep(format!("k{i}a"), "in")).unwrap();
        g.connect(ep(format!("f{i}"), "out1"), ep(format!("k{i}b"), "in")).unwrap();
    }
    let targeted = Rewrite::new(
        "prune-f1-only",
        true,
        |g| {
            catalog::elim::fork_sink_prune()
                .matches(g)
                .into_iter()
                .filter(|m| m.nodes.contains("f1"))
                .collect()
        },
        |g, m| catalog::elim::fork_sink_prune().build(g, m),
    );
    let mut engine = Engine::new();
    let g2 = engine.apply_first(&g, &targeted).unwrap().expect("match at f1");
    assert!(g2.kind("f0").is_some(), "other site untouched");
    assert!(matches!(g2.kind("f0"), Some(CompKind::Fork { ways: 2 })));
}

#[test]
fn wire_helpers_resolve_only_wires() {
    let g = body_region();
    assert_eq!(wire_consumer(&g, &ep("s", "out0")), Some(ep("m", "in0")));
    assert_eq!(wire_consumer(&g, &ep("jout", "out")), None, "external outputs are not wires");
    let _: Option<Endpoint> = wire_consumer(&g, &ep("nz", "out"));
}

/// An `AddI` named `m` whose ports are attached only where `wired` says.
fn lone_adder(wired: &[&str]) -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("m", CompKind::Operator { op: Op::AddI }).unwrap();
    for &p in wired {
        if p == "out" {
            g.expose_output("y", ep("m", p)).unwrap();
        } else {
            g.expose_input(p, ep("m", p)).unwrap();
        }
    }
    g
}

#[test]
fn subgraph_rewrite_refuses_an_undriven_boundary_port() {
    // The splice inherits the driver of each boundary in-port; with none to
    // inherit, the rewrite must fail rather than invent a graph input.
    let g = lone_adder(&["in0", "out"]);
    let mut engine = Engine::new();
    let err = engine.apply_first(&g, &catalog::pure_gen::op_to_pure()).unwrap_err();
    assert!(
        matches!(&err, RewriteError::BoundaryMismatch(m) if m == "no driver for m.in1"),
        "{err}"
    );
    assert_eq!(engine.rewrites_applied(), 0);
}

#[test]
fn subgraph_rewrite_refuses_an_unconsumed_boundary_port() {
    let g = lone_adder(&["in0", "in1"]);
    let mut engine = Engine::new();
    let err = engine.apply_first(&g, &catalog::pure_gen::op_to_pure()).unwrap_err();
    assert!(
        matches!(&err, RewriteError::BoundaryMismatch(m) if m == "no consumer for m.out"),
        "{err}"
    );
    assert_eq!(engine.rewrites_applied(), 0);
}
