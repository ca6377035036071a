//! Engine-level integration tests: determinism, boundary validation, fresh
//! naming and rewrite logs.
//!
//! The engine rewrites a graph in place and runs every check that can
//! refuse an application before it mutates anything, so each refusal test
//! also checks that the graph, the log and the obligations are as they were.

use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh, Op};
use graphiti_rewrite::{
    catalog, wire_consumer, CheckMode, Engine, Match, Replacement, Rewrite, RewriteError,
};

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

/// The residue phases 1-2 clean up: a fork tree (`f` into `g`), a sunk
/// fork output (`k`), an in-order Split/Join pair (`s`, `j`) and a 1-way
/// fork (`u`). Exhausting [`normalize_then_eliminate`] applies
/// `fork-flatten`, `fork1-elim`, `split-join-elim` and `fork-sink-prune`
/// once each and leaves one 3-way fork.
fn residue() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("f", CompKind::Fork { ways: 3 }).unwrap();
    g.add_node("g", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("k", CompKind::Sink).unwrap();
    g.add_node("s", CompKind::Split).unwrap();
    g.add_node("j", CompKind::Join).unwrap();
    g.add_node("u", CompKind::Fork { ways: 1 }).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("g", "in")).unwrap();
    g.connect(ep("f", "out1"), ep("k", "in")).unwrap();
    g.connect(ep("f", "out2"), ep("s", "in")).unwrap();
    g.connect(ep("s", "out0"), ep("j", "in0")).unwrap();
    g.connect(ep("s", "out1"), ep("j", "in1")).unwrap();
    g.connect(ep("j", "out"), ep("u", "in")).unwrap();
    g.expose_output("y0", ep("u", "out0")).unwrap();
    g.expose_output("y1", ep("g", "out0")).unwrap();
    g.expose_output("y2", ep("g", "out1")).unwrap();
    g.validate().unwrap();
    g
}

/// Phase 1's rewrites, then phase 2's, as one list.
fn normalize_then_eliminate() -> Vec<Rewrite> {
    let mut rws = catalog::normalize_phase();
    rws.extend(catalog::eliminate_phase());
    rws
}

/// Every Operator, bound as `op`.
fn operators(g: &ExprHigh) -> Vec<Match> {
    g.nodes()
        .filter(|(_, k)| matches!(k, CompKind::Operator { .. }))
        .map(|(n, _)| Match {
            nodes: [n.clone()].into(),
            bindings: [("op".into(), n.clone())].into(),
        })
        .collect()
}

/// Replaces an Operator by a fresh copy of itself: a sound subgraph
/// rewrite that inherits every boundary port.
fn op_copy() -> Rewrite {
    Rewrite::new("op-copy", operators, |g, m| {
        let op = m.node("op");
        let kind = g.kind(op).expect("matched node").clone();
        let (ins, outs) = kind.interface();
        let mut frag = ExprHigh::new();
        frag.add_node("op", kind)?;
        for p in &ins {
            frag.expose_input(p.clone(), ep("op", p.clone()))?;
        }
        for p in &outs {
            frag.expose_output(p.clone(), ep("op", p.clone()))?;
        }
        Ok(Replacement::Subgraph {
            graph: frag,
            boundary_ins: ins.into_iter().map(|p| (p.clone(), ep(op.clone(), p))).collect(),
            boundary_outs: outs.into_iter().map(|p| (p.clone(), ep(op.clone(), p))).collect(),
        })
    })
}

#[test]
fn exhaust_is_deterministic() {
    let rws = normalize_then_eliminate();
    let mut a = Engine::new();
    let mut b = Engine::new();
    let (mut ga, mut gb) = (residue(), residue());
    a.exhaust(&mut ga, &rws).unwrap();
    b.exhaust(&mut gb, &rws).unwrap();
    assert_eq!(ga, gb);
    assert_eq!(a.rewrites_applied(), 4);
    assert_eq!(a.rewrites_applied(), b.rewrites_applied());
    let names_a: Vec<&str> = a.log.iter().map(|x| x.rewrite.as_str()).collect();
    let names_b: Vec<&str> = b.log.iter().map(|x| x.rewrite.as_str()).collect();
    assert_eq!(names_a, names_b);
}

/// Applies `rw` to `g` once with each engine mode, expecting a refusal that
/// leaves the graph, the log and the obligations as they were; returns the
/// refusal.
fn refused(g: &ExprHigh, rw: &Rewrite) -> RewriteError {
    let [off, deferred] = [Engine::new(), Engine::deferring()].map(|mut engine| {
        let mut g2 = g.clone();
        let err = engine.apply_first(&mut g2, rw).unwrap_err();
        assert_eq!(&g2, g, "a refused `{}` changed the graph", rw.name);
        assert!(engine.log.is_empty(), "a refused `{}` was logged", rw.name);
        assert!(engine.obligations.is_empty(), "a refused `{}` left an obligation", rw.name);
        err
    });
    assert_eq!(off.to_string(), deferred.to_string());
    off
}

#[test]
fn boundary_mismatch_is_rejected() {
    // A rewrite whose replacement forgets one boundary output.
    let broken = Rewrite::new(
        "broken",
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
    let err = refused(&body_region(), &broken);
    assert!(matches!(err, RewriteError::BoundaryMismatch(_)), "{err}");
}

#[test]
fn a_builder_rejection_leaves_the_graph_as_it_was() {
    let rejecting =
        Rewrite::new("rejecting", operators, |_, _| Err(RewriteError::BuilderFailed("no".into())));
    let err = refused(&body_region(), &rejecting);
    assert!(matches!(&err, RewriteError::BuilderFailed(m) if m == "no"), "{err}");
}

/// `a`: a 1-way fork from the graph input `xa` to a sink; `b`: a 1-way fork
/// from the graph input `xb` straight to the graph output `yb`.
fn two_unit_forks() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("a", CompKind::Fork { ways: 1 }).unwrap();
    g.add_node("k", CompKind::Sink).unwrap();
    g.add_node("b", CompKind::Fork { ways: 1 }).unwrap();
    g.expose_input("xa", ep("a", "in")).unwrap();
    g.connect(ep("a", "out0"), ep("k", "in")).unwrap();
    g.expose_input("xb", ep("b", "in")).unwrap();
    g.expose_output("yb", ep("b", "out0")).unwrap();
    g
}

#[test]
fn a_passthrough_from_an_external_to_an_external_is_refused() {
    let mut g = two_unit_forks();
    g.remove_node("a").unwrap();
    g.remove_node("k").unwrap();
    let err = refused(&g, &catalog::elim::fork1_elim());
    assert_eq!(
        err.to_string(),
        "unsupported: passthrough would wire external `xb` directly to external `yb`"
    );
}

#[test]
fn an_exhaust_refused_midway_keeps_the_applications_before_it() {
    // `fork1-elim` takes `a` first and then refuses `b`.
    let rws = [catalog::elim::fork1_elim()];
    let mut first = two_unit_forks();
    assert!(Engine::new().apply_first(&mut first, &rws[0]).unwrap());
    assert!(first.kind("a").is_none() && first.kind("b").is_some());
    for mut engine in [Engine::new(), Engine::deferring()] {
        let mut g = two_unit_forks();
        let err = engine.exhaust(&mut g, &rws).unwrap_err();
        assert!(matches!(err, RewriteError::Unsupported(_)), "{err}");
        assert_eq!(g, first, "the graph after the first application");
        assert_eq!(engine.log.len(), 1);
        let recorded = usize::from(engine.mode == CheckMode::Deferred);
        assert_eq!(engine.obligations.len(), recorded);
    }
}

#[test]
fn a_deferred_exhaust_records_one_obligation_per_application() {
    let mut engine = Engine::deferring();
    engine.exhaust(&mut residue(), &normalize_then_eliminate()).unwrap();
    let names: Vec<&str> = engine.obligations.iter().map(|o| o.rewrite.as_str()).collect();
    let logged: Vec<&str> = engine.log.iter().map(|a| a.rewrite.as_str()).collect();
    assert_eq!(names, logged);
    assert_eq!(names.len(), 4);
}

#[test]
fn fresh_names_never_collide_across_applications() {
    // `fork_1` is taken, so the two forks the rewrites create are named
    // past it; each application's log entry names the node it created.
    let mut g = residue();
    g.add_node("fork_1", CompKind::Sink).unwrap();
    g.expose_input("z", ep("fork_1", "in")).unwrap();
    let mut engine = Engine::new();
    engine.exhaust(&mut g, &normalize_then_eliminate()).unwrap();
    let created: Vec<(&str, &[String])> =
        engine.log.iter().map(|a| (a.rewrite.as_str(), a.created.as_slice())).collect();
    assert_eq!(
        created,
        [
            ("fork-flatten", &["fork_2".to_string()][..]),
            ("fork1-elim", &[][..]),
            ("split-join-elim", &[][..]),
            ("fork-sink-prune", &["fork_3".to_string()][..]),
        ]
    );
    assert!(matches!(g.kind("fork_1"), Some(CompKind::Sink)), "the taken name kept its node");
    assert!(matches!(g.kind("fork_3"), Some(CompKind::Fork { ways: 3 })));
    assert_eq!(g.node_count(), 2);
}

#[test]
fn log_records_the_rewrite_sequence() {
    let mut engine = Engine::new();
    engine.exhaust(&mut residue(), &normalize_then_eliminate()).unwrap();
    assert!(engine.obligations.is_empty(), "unchecked mode records no obligations");
    let names: Vec<&str> = engine.log.iter().map(|a| a.rewrite.as_str()).collect();
    assert_eq!(names, ["fork-flatten", "fork1-elim", "split-join-elim", "fork-sink-prune"]);
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
    assert!(engine.apply_first(&mut g, &targeted).unwrap(), "match at f1");
    assert!(matches!(g.kind("f0"), Some(CompKind::Fork { ways: 2 })), "other site untouched");
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
    // inherit, the rewrite must fail rather than invent a graph input. A
    // deferring engine records no obligation for it.
    let err = refused(&lone_adder(&["in0", "out"]), &op_copy());
    assert!(
        matches!(&err, RewriteError::BoundaryMismatch(m) if m == "no driver for m.in1"),
        "{err}"
    );
}

#[test]
fn subgraph_rewrite_refuses_an_unconsumed_boundary_port() {
    let err = refused(&lone_adder(&["in0", "in1"]), &op_copy());
    assert!(
        matches!(&err, RewriteError::BoundaryMismatch(m) if m == "no consumer for m.out"),
        "{err}"
    );
}

#[test]
fn an_incomplete_graph_is_refused_before_the_splice() {
    // `m` is complete and matches; the unmatched sink `k` is not connected.
    let mut g = lone_adder(&["in0", "in1", "out"]);
    g.add_node("k", CompKind::Sink).unwrap();
    let err = refused(&g, &op_copy());
    assert_eq!(err.to_string(), "graph error: port `k.in` is unconnected");
}

#[test]
fn a_boundary_assignment_no_subgraph_port_takes_is_refused() {
    // The replacement assigns both inputs of `m` but exposes only `a`, so
    // the splice would drop the graph input driving `m.in1`.
    let dropping = Rewrite::new("dropping", operators, |_, m| {
        let n = m.nodes.first().expect("one node").clone();
        let mut frag = ExprHigh::new();
        frag.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        frag.add_node("s", CompKind::Sink).unwrap();
        frag.connect(ep("f", "out1"), ep("s", "in")).unwrap();
        frag.expose_input("a", ep("f", "in")).unwrap();
        frag.expose_output("y", ep("f", "out0")).unwrap();
        let ins = [("a", "in0"), ("b", "in1")];
        Ok(Replacement::Subgraph {
            graph: frag,
            boundary_ins: ins.map(|(x, p)| (x.to_string(), ep(n.clone(), p))).into(),
            boundary_outs: [("y".to_string(), ep(n, "out"))].into(),
        })
    });
    let err = refused(&lone_adder(&["in0", "in1", "out"]), &dropping);
    assert_eq!(err.to_string(), "boundary mismatch: boundary input `b` is not a subgraph input");
}

#[test]
fn a_boundary_port_two_subgraph_ports_take_is_refused() {
    // `b` and `c` both take over `m.in1`, whose one driver only one of
    // them can inherit.
    let doubling = Rewrite::new("doubling", operators, |_, m| {
        let n = m.nodes.first().expect("one node").clone();
        let mut frag = ExprHigh::new();
        frag.add_node("j", CompKind::Join).unwrap();
        frag.add_node("s", CompKind::Sink).unwrap();
        frag.expose_input("a", ep("j", "in0")).unwrap();
        frag.expose_input("b", ep("j", "in1")).unwrap();
        frag.expose_input("c", ep("s", "in")).unwrap();
        frag.expose_output("y", ep("j", "out")).unwrap();
        let ins = [("a", "in0"), ("b", "in1"), ("c", "in1")];
        Ok(Replacement::Subgraph {
            graph: frag,
            boundary_ins: ins.map(|(x, p)| (x.to_string(), ep(n.clone(), p))).into(),
            boundary_outs: [("y".to_string(), ep(n, "out"))].into(),
        })
    });
    let err = refused(&lone_adder(&["in0", "in1", "out"]), &doubling);
    assert_eq!(err.to_string(), "boundary mismatch: no driver for m.in1");
}
