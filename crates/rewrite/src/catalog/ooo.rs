//! The main out-of-order loop rewrite (Fig. 3d) — the rewrite the paper
//! formally verifies (§5).
//!
//! Left-hand side: a sequential loop — a Mux (initialized through an Init on
//! its condition), a Pure body `f : T → T × bool`, a Split separating the
//! next value from the continue condition, a condition Fork feeding the
//! Branch and the Init, and the Branch steering the value back to the Mux or
//! out of the loop.
//!
//! Right-hand side: a Tagger/Untagger region — entering values receive a
//! tag, an unconditional Merge admits both fresh and recirculating values
//! (this is what lets iterations of different loop executions overlap and
//! overtake), the tag-transparent Pure computes `f` on the payload, and
//! completed values re-enter the Untagger, which releases them in program
//! order.
//!
//! The refinement `⟦rhs⟧ ⊑ ⟦lhs⟧` is the paper's Theorem 5.3; here it is
//! discharged per-application by the bounded refinement checker in checked
//! mode, and probed on unbounded domains by randomized property tests.

use super::Frag;
use crate::engine::{wire_consumer, Match, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, ExprHigh, NodeId};
use std::collections::BTreeMap;

/// Describes a matched sequential loop.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// The Mux at the loop head.
    pub mux: NodeId,
    /// The Pure body.
    pub body: NodeId,
    /// The Split separating data from condition.
    pub split: NodeId,
    /// The Branch at the loop exit.
    pub branch: NodeId,
    /// The condition fork.
    pub fork: NodeId,
    /// The Init on the Mux condition.
    pub init: NodeId,
}

/// Finds the canonical sequential-loop shape in `g`.
pub fn find_loops(g: &ExprHigh) -> Vec<LoopShape> {
    let mut out = Vec::new();
    for (mux, kind) in g.nodes() {
        if !matches!(kind, CompKind::Mux) {
            continue;
        }
        // mux.out -> body (Pure)
        let body = match wire_consumer(g, &ep(mux.clone(), "out")) {
            Some(d) if d.port == "in" && matches!(g.kind(&d.node), Some(CompKind::Pure { .. })) => {
                d.node
            }
            _ => continue,
        };
        // body.out -> split
        let split = match wire_consumer(g, &ep(body.clone(), "out")) {
            Some(d) if d.port == "in" && matches!(g.kind(&d.node), Some(CompKind::Split)) => d.node,
            _ => continue,
        };
        // split.out0 -> branch.in
        let branch = match wire_consumer(g, &ep(split.clone(), "out0")) {
            Some(d) if d.port == "in" && matches!(g.kind(&d.node), Some(CompKind::Branch)) => {
                d.node
            }
            _ => continue,
        };
        // split.out1 -> fork.in (2-way condition fork)
        let fork = match wire_consumer(g, &ep(split.clone(), "out1")) {
            Some(d)
                if d.port == "in"
                    && matches!(g.kind(&d.node), Some(CompKind::Fork { ways: 2 })) =>
            {
                d.node
            }
            _ => continue,
        };
        // fork.out0 -> branch.cond, fork.out1 -> init.in (either order)
        let c0 = wire_consumer(g, &ep(fork.clone(), "out0"));
        let c1 = wire_consumer(g, &ep(fork.clone(), "out1"));
        let init = match (c0, c1) {
            (Some(a), Some(b))
                if a.node == branch
                    && a.port == "cond"
                    && b.port == "in"
                    && matches!(g.kind(&b.node), Some(CompKind::Init { .. })) =>
            {
                b.node
            }
            (Some(b), Some(a))
                if a.node == branch
                    && a.port == "cond"
                    && b.port == "in"
                    && matches!(g.kind(&b.node), Some(CompKind::Init { .. })) =>
            {
                b.node
            }
            _ => continue,
        };
        // init.out -> mux.cond and branch.t -> mux.t close the loop.
        match wire_consumer(g, &ep(init.clone(), "out")) {
            Some(d) if d.node == *mux && d.port == "cond" => {}
            _ => continue,
        }
        match wire_consumer(g, &ep(branch.clone(), "t")) {
            Some(d) if d.node == *mux && d.port == "t" => {}
            _ => continue,
        }
        out.push(LoopShape { mux: mux.clone(), body, split, branch, fork, init });
    }
    out
}

fn loop_match(l: &LoopShape) -> Match {
    let mut bind = BTreeMap::new();
    bind.insert("mux".to_string(), l.mux.clone());
    bind.insert("body".to_string(), l.body.clone());
    bind.insert("split".to_string(), l.split.clone());
    bind.insert("branch".to_string(), l.branch.clone());
    bind.insert("fork".to_string(), l.fork.clone());
    bind.insert("init".to_string(), l.init.clone());
    Match {
        nodes: [
            l.mux.clone(),
            l.body.clone(),
            l.split.clone(),
            l.branch.clone(),
            l.fork.clone(),
            l.init.clone(),
        ]
        .into_iter()
        .collect(),
        bindings: bind,
    }
}

/// The out-of-order loop rewrite, allocating `tags` tags to the region.
pub fn loop_ooo(tags: u32) -> Rewrite {
    Rewrite::new(
        "loop-ooo",
        |g| find_loops(g).iter().map(loop_match).collect(),
        move |g, m| {
            let body_func = match g.kind(m.node("body")) {
                Some(CompKind::Pure { func }) => func.clone(),
                _ => return Err(RewriteError::BuilderFailed("body is not pure".into())),
            };
            let mux = m.node("mux");
            let branch = m.node("branch");
            let mut fr = Frag::new();
            fr.node("tagger", CompKind::TaggerUntagger { tags })
                .node("merge", CompKind::Merge)
                .node("body", CompKind::Pure { func: body_func })
                .node("split", CompKind::Split)
                .node("br", CompKind::Branch);
            fr.edge(("tagger", "tagged"), ("merge", "in0"))
                .edge(("merge", "out"), ("body", "in"))
                .edge(("body", "out"), ("split", "in"))
                .edge(("split", "out0"), ("br", "in"))
                .edge(("split", "out1"), ("br", "cond"))
                .edge(("br", "t"), ("merge", "in1"))
                .edge(("br", "f"), ("tagger", "retag"));
            fr.input("entry", ("tagger", "in"), ep(mux.clone(), "f"));
            fr.output("exit", ("tagger", "out"), ep(branch.clone(), "f"));
            fr.build()
        },
    )
}

/// A targeted variant of [`loop_ooo`] that only fires on the loop whose Mux
/// is `mux` — the oracle marks which loops run out of order (§3.1).
pub fn loop_ooo_at(tags: u32, mux: NodeId) -> Rewrite {
    Rewrite::new(
        "loop-ooo",
        move |g| find_loops(g).iter().filter(|l| l.mux == mux).map(loop_match).collect(),
        move |g, m| loop_ooo(tags).build(g, m),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use graphiti_ir::{Op, PortName, PureFn, Value};
    use graphiti_sem::{denote_graph, run_random, Env};
    use std::collections::BTreeMap as Map;

    /// The GCD loop of the paper's running example, in the canonical shape:
    /// body `f(a, b) = ((b, a mod b), (a mod b) != 0)`.
    pub(crate) fn gcd_loop() -> ExprHigh {
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
        g.validate().unwrap();
        g
    }

    fn gcd(mut a: i64, mut b: i64) -> i64 {
        while b != 0 {
            let t = b;
            b = a.rem_euclid(b);
            a = t;
        }
        a
    }

    fn run_loop(g: &ExprHigh, inputs: Vec<(i64, i64)>, seed: u64) -> Vec<Value> {
        let (m, _) = denote_graph(g, &Env::standard()).unwrap();
        let feeds: Map<_, _> = [(
            PortName::Io(0),
            inputs
                .iter()
                .map(|(a, b)| Value::pair(Value::Int(*a), Value::Int(*b)))
                .collect::<Vec<_>>(),
        )]
        .into_iter()
        .collect();
        let r = run_random(&m, &feeds, seed, 20_000);
        r.outputs.get(&PortName::Io(0)).cloned().unwrap_or_default()
    }

    #[test]
    fn sequential_gcd_loop_computes_gcd() {
        let g = gcd_loop();
        let outs = run_loop(&g, vec![(12, 18), (35, 21)], 1);
        // Loop convention: the exit value is the state at termination, i.e.
        // (gcd, 0) as a pair.
        assert_eq!(
            outs,
            vec![
                Value::pair(Value::Int(gcd(12, 18)), Value::Int(0)),
                Value::pair(Value::Int(gcd(35, 21)), Value::Int(0)),
            ]
        );
    }

    #[test]
    fn loop_ooo_matches_the_canonical_shape() {
        let g = gcd_loop();
        let loops = find_loops(&g);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].mux, "mux");
        assert_eq!(loops[0].body, "body");
    }

    #[test]
    fn loop_ooo_rewrites_to_tagged_merge_loop() {
        let g = gcd_loop();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &loop_ooo(4)).unwrap(), "match");
        g2.validate().unwrap();
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::TaggerUntagger { tags: 4 })));
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Merge)));
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Mux)));
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Init { .. })));
    }

    #[test]
    fn ooo_gcd_produces_in_order_gcd_results_under_any_schedule() {
        let g = gcd_loop();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &loop_ooo(3)).unwrap(), "match");
        let inputs = vec![(48, 18), (7, 3), (100, 75), (9, 9)];
        let expected: Vec<Value> = inputs
            .iter()
            .map(|(a, b)| Value::pair(Value::Int(gcd(*a, *b)), Value::Int(0)))
            .collect();
        for seed in 0..15 {
            let outs = run_loop(&g2, inputs.clone(), seed);
            assert_eq!(outs, expected, "seed {seed}");
        }
    }

    #[test]
    fn targeted_loop_ooo_respects_mux_choice() {
        let g = gcd_loop();
        assert_eq!(loop_ooo_at(4, "mux".into()).matches(&g).len(), 1);
        assert!(loop_ooo_at(4, "other".into()).matches(&g).is_empty());
    }
}
