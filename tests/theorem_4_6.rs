//! Theorem 4.6 (replacement refines), executably: if `⟦rhs⟧ ⊑ ⟦lhs⟧` for a
//! rewrite, then applying it to a *whole graph* `e` yields
//! `⟦e[lhs := rhs]⟧ ⊑ ⟦e⟧`. A checked run records the premise of every
//! application and discharges the batch with `verify::discharge`; here we
//! check that path, the *conclusion* on the full circuits, and the
//! preorder/congruence properties of §4.6 that the proof rests on.

use graphiti::prelude::*;
use graphiti_ir::{lift_expr, lower_grouped};
use graphiti_rewrite::verify::{discharge, first_violation};
use graphiti_rewrite::{Match, Replacement};
use graphiti_sem::{Event, Module};
use std::collections::BTreeMap;

fn io_module(g: &ExprHigh) -> Module {
    let (m, _) = denote_graph(g, &Env::standard()).unwrap();
    m
}

fn small_cfg() -> RefineConfig {
    RefineConfig { domain: vec![Value::Int(0), Value::Int(1)], max_depth: 8, ..Default::default() }
}

/// A small circuit containing a fork-of-fork tree feeding sinks and an
/// operator — fork-flatten applies inside a bigger context.
fn fork_tree_graph() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("a", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("b", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("add", CompKind::Operator { op: Op::AddI }).unwrap();
    g.add_node("k", CompKind::Sink).unwrap();
    g.expose_input("x", ep("a", "in")).unwrap();
    g.connect(ep("a", "out0"), ep("b", "in")).unwrap();
    g.connect(ep("a", "out1"), ep("k", "in")).unwrap();
    g.connect(ep("b", "out0"), ep("add", "in0")).unwrap();
    g.connect(ep("b", "out1"), ep("add", "in1")).unwrap();
    g.expose_output("y", ep("add", "out")).unwrap();
    g
}

#[test]
fn whole_graph_refinement_after_fork_flatten() {
    let g = fork_tree_graph();
    let mut engine = Engine::new();
    let mut g2 = g.clone();
    assert!(engine.apply_first(&mut g2, &catalog::normalize::fork_flatten()).unwrap(), "match");
    // Conclusion of Theorem 4.6 on the full circuits.
    let before = io_module(&g);
    let after = io_module(&g2);
    let r = check_refinement(&after, &before, &small_cfg());
    assert!(r.is_ok(), "{r:?}");
    // This rewrite is actually an equivalence.
    let r = check_refinement(&before, &after, &small_cfg());
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn refinement_is_reflexive() {
    let g = fork_tree_graph();
    let m = io_module(&g);
    let r = check_refinement(&m, &m, &small_cfg());
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn refinement_is_transitive_on_buffer_chains() {
    // chains of 1, 2, 3 buffers: 3 ⊑ 2 and 2 ⊑ 1 imply 3 ⊑ 1; check all
    // three edges hold (they are trace-equal).
    let chain = |n: usize| {
        let mut g = ExprHigh::new();
        for i in 0..n {
            g.add_node(format!("b{i}"), CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        }
        g.expose_input("x", ep("b0", "in")).unwrap();
        for i in 0..n - 1 {
            g.connect(ep(format!("b{i}"), "out"), ep(format!("b{}", i + 1), "in")).unwrap();
        }
        g.expose_output("y", ep(format!("b{}", n - 1), "out")).unwrap();
        io_module(&g)
    };
    let (m1, m2, m3) = (chain(1), chain(2), chain(3));
    let cfg = small_cfg();
    assert!(check_refinement(&m3, &m2, &cfg).is_ok());
    assert!(check_refinement(&m2, &m1, &cfg).is_ok());
    assert!(check_refinement(&m3, &m1, &cfg).is_ok());
}

#[test]
fn refinement_is_preserved_by_product_and_connect() {
    // m ⊑ m' implies (m ⊎ k)[o ⇝ i] ⊑ (m' ⊎ k)[o ⇝ i]: compare a 2-buffer
    // implementation against a 1-buffer spec, both wrapped in the same
    // context (a downstream buffer connected to the output).
    let wrap = |inner_n: usize| {
        let mut g = ExprHigh::new();
        for i in 0..inner_n {
            g.add_node(format!("b{i}"), CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        }
        g.add_node("ctx", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.expose_input("x", ep("b0", "in")).unwrap();
        for i in 0..inner_n - 1 {
            g.connect(ep(format!("b{i}"), "out"), ep(format!("b{}", i + 1), "in")).unwrap();
        }
        g.connect(ep(format!("b{}", inner_n - 1), "out"), ep("ctx", "in")).unwrap();
        g.expose_output("y", ep("ctx", "out")).unwrap();
        io_module(&g)
    };
    let r = check_refinement(&wrap(2), &wrap(1), &small_cfg());
    assert!(r.is_ok(), "{r:?}");
}

/// The engine splices on ExprHigh; the paper applies a rewrite by the
/// substitution `e[lhs := rhs]` on ExprLow (§4.2). The two agree exactly,
/// fresh names included: at every match of every catalogue rewrite whose
/// replacement is a subgraph and whose application records an obligation,
/// on every evaluation-suite kernel and on `fork_tree_graph`, the engine's
/// graph is the lift of the grouped lowering with the obligation's `lhs`
/// substituted by its `rhs`. That is 16 applications.
#[test]
fn substitution_on_exprlow_matches_engine_result() {
    let mut graphs = vec![fork_tree_graph()];
    for p in graphiti::bench::suite::evaluation_suite() {
        graphs.extend(compile(&p).unwrap().kernels.into_iter().map(|k| k.graph));
    }
    let rewrites = catalog::all_rewrites();
    let mut compared = 0;
    for g in &graphs {
        for rw in &rewrites {
            for m in rw.matches(g) {
                if !matches!(rw.build(g, &m), Ok(Replacement::Subgraph { .. })) {
                    continue;
                }
                let mut engine = Engine::deferring();
                let mut g2 = g.clone();
                if engine.apply_at(&mut g2, rw, &m).is_err() {
                    continue;
                }
                let [ob] = engine.obligations.as_slice() else { continue };
                let lowered = lower_grouped(g, &m.nodes).unwrap();
                let expr = lowered.expr.substitute(&ob.lhs, &ob.rhs);
                let spec = lift_expr(&expr, &lowered.input_names, &lowered.output_names).unwrap();
                assert_eq!(g2, spec, "`{}` at {:?}", rw.name, m.nodes);
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 16);
}

#[test]
fn checked_engine_records_verdicts_per_application() {
    let mut g = fork_tree_graph();
    let mut engine = Engine::deferring();
    assert!(engine.apply_first(&mut g, &catalog::normalize::fork_flatten()).unwrap(), "match");
    assert_eq!(engine.log.len(), 1);
    assert_eq!(engine.log[0].rewrite, "fork-flatten");
    let verdicts = discharge(engine.obligations, &small_cfg());
    assert_eq!(verdicts.len(), 1, "one obligation per application");
    assert_eq!(verdicts[0].rewrite, "fork-flatten");
    assert!(verdicts[0].verdict.is_ok(), "{:?}", verdicts[0].verdict);
}

/// A rewrite that claims to be verified but swaps `AddI` for `SubI`.
fn unsound_add_to_sub() -> Rewrite {
    Rewrite::new(
        "add-to-sub-unsound",
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Operator { op: Op::AddI }))
                .map(|(n, _)| Match {
                    nodes: [n.clone()].into(),
                    bindings: [("op".to_string(), n.clone())].into(),
                })
                .collect()
        },
        |_, m| {
            let op = m.node("op");
            let mut frag = ExprHigh::new();
            frag.add_node("sub", CompKind::Operator { op: Op::SubI })?;
            frag.expose_input("a", ep("sub", "in0"))?;
            frag.expose_input("b", ep("sub", "in1"))?;
            frag.expose_output("y", ep("sub", "out"))?;
            let boundary_ins = BTreeMap::from([
                ("a".into(), ep(op.clone(), "in0")),
                ("b".into(), ep(op.clone(), "in1")),
            ]);
            let boundary_outs = BTreeMap::from([("y".into(), ep(op.clone(), "out"))]);
            Ok(Replacement::Subgraph { graph: frag, boundary_ins, boundary_outs })
        },
    )
}

/// The engine applies an unsound verified rewrite like any other; the
/// discharged batch names it with a counterexample that ends where the
/// two sides disagree, on an output.
#[test]
fn discharge_catches_an_unsound_verified_rewrite() {
    let g = fork_tree_graph();
    let mut engine = Engine::deferring();
    let mut g2 = g.clone();
    assert!(engine.apply_first(&mut g2, &unsound_add_to_sub()).unwrap(), "match");
    assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Operator { op: Op::SubI })));
    let verdicts = discharge(engine.obligations, &small_cfg());
    let bad = first_violation(&verdicts).expect("the swap is caught");
    assert_eq!(bad.rewrite, "add-to-sub-unsound");
    let Refinement::Fails { trace } = &bad.verdict else {
        panic!("expected a counterexample, got {:?}", bad.verdict)
    };
    assert!(matches!(trace.last(), Some(Event::Out(..))), "{trace:?}");
}
