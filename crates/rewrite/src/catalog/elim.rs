//! Elimination rewrites (Fig. 3b): remove residual components introduced by
//! normalization — degenerate forks, cancelling Split/Join pairs, and sunk
//! values.
//!
//! `join-split-elim` removes synchronization and therefore *adds* behaviours;
//! like the paper's minor rewrites it is left unverified and is only applied
//! inside regions that pure generation is about to collapse, where every
//! queue carries the same token stream.

use super::Frag;
use crate::engine::{wire_consumer, Match, Replacement, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, NodeId, PureFn};
use std::collections::BTreeMap;

fn single_match(nodes: Vec<NodeId>, bindings: Vec<(&str, NodeId)>) -> Match {
    Match {
        nodes: nodes.into_iter().collect(),
        bindings: bindings.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

/// A 1-way Fork is a wire.
pub fn fork1_elim() -> Rewrite {
    Rewrite::new(
        "fork1-elim",
        true,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Fork { ways: 1 }))
                .map(|(n, _)| single_match(vec![n.clone()], vec![("fork", n.clone())]))
                .collect()
        },
        |_, m| {
            let f = m.node("fork");
            Ok(Replacement::Passthrough {
                wires: vec![(ep(f.clone(), "in"), ep(f.clone(), "out0"))],
            })
        },
    )
}

/// A Split whose two outputs feed the two inputs of a Join *in order*
/// reconstructs its input: `join ∘ split = id`.
pub fn split_join_elim() -> Rewrite {
    Rewrite::new(
        "split-join-elim",
        true,
        |g| {
            let mut out = Vec::new();
            for (s, kind) in g.nodes() {
                if !matches!(kind, CompKind::Split) {
                    continue;
                }
                let c0 = wire_consumer(g, &ep(s.clone(), "out0"));
                let c1 = wire_consumer(g, &ep(s.clone(), "out1"));
                if let (Some(a), Some(b)) = (c0, c1) {
                    if a.node == b.node
                        && a.port == "in0"
                        && b.port == "in1"
                        && matches!(g.kind(&a.node), Some(CompKind::Join))
                    {
                        out.push(single_match(
                            vec![s.clone(), a.node.clone()],
                            vec![("split", s.clone()), ("join", a.node)],
                        ));
                    }
                }
            }
            out
        },
        |_, m| {
            let s = m.node("split");
            let j = m.node("join");
            Ok(Replacement::Passthrough {
                wires: vec![(ep(s.clone(), "in"), ep(j.clone(), "out"))],
            })
        },
    )
}

/// A Split whose outputs feed a Join *crosswise* is a Pure swap.
pub fn split_join_swap() -> Rewrite {
    Rewrite::new(
        "split-join-swap",
        true,
        |g| {
            let mut out = Vec::new();
            for (s, kind) in g.nodes() {
                if !matches!(kind, CompKind::Split) {
                    continue;
                }
                let c0 = wire_consumer(g, &ep(s.clone(), "out0"));
                let c1 = wire_consumer(g, &ep(s.clone(), "out1"));
                if let (Some(a), Some(b)) = (c0, c1) {
                    if a.node == b.node
                        && a.port == "in1"
                        && b.port == "in0"
                        && matches!(g.kind(&a.node), Some(CompKind::Join))
                    {
                        out.push(single_match(
                            vec![s.clone(), a.node.clone()],
                            vec![("split", s.clone()), ("join", a.node)],
                        ));
                    }
                }
            }
            out
        },
        |_, m| {
            let s = m.node("split");
            let j = m.node("join");
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::Swap });
            fr.input("in", ("p", "in"), ep(s.clone(), "in"));
            fr.output("out", ("p", "out"), ep(j.clone(), "out"));
            fr.build()
        },
    )
}

/// A Join immediately re-split is removed (unverified: dropping the Join
/// removes synchronization between the two streams, so this is only safe in
/// contexts where both streams carry the same token count — exactly the
/// regions pure generation collapses).
pub fn join_split_elim() -> Rewrite {
    Rewrite::new(
        "join-split-elim",
        false,
        |g| {
            let mut out = Vec::new();
            for (j, kind) in g.nodes() {
                if !matches!(kind, CompKind::Join) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(j.clone(), "out")) {
                    if dst.port == "in" && matches!(g.kind(&dst.node), Some(CompKind::Split)) {
                        out.push(single_match(
                            vec![j.clone(), dst.node.clone()],
                            vec![("join", j.clone()), ("split", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        |_, m| {
            let j = m.node("join");
            let s = m.node("split");
            Ok(Replacement::Passthrough {
                wires: vec![
                    (ep(j.clone(), "in0"), ep(s.clone(), "out0")),
                    (ep(j.clone(), "in1"), ep(s.clone(), "out1")),
                ],
            })
        },
    )
}

/// A Fork output feeding a Sink is dropped, narrowing the Fork.
pub fn fork_sink_prune() -> Rewrite {
    Rewrite::new(
        "fork-sink-prune",
        true,
        |g| {
            let mut out = Vec::new();
            for (f, kind) in g.nodes() {
                let ways = match kind {
                    CompKind::Fork { ways } if *ways >= 2 => *ways,
                    _ => continue,
                };
                for k in 0..ways {
                    if let Some(dst) = wire_consumer(g, &ep(f.clone(), format!("out{k}"))) {
                        if matches!(g.kind(&dst.node), Some(CompKind::Sink)) {
                            let mut bind = BTreeMap::new();
                            bind.insert("fork".to_string(), f.clone());
                            bind.insert("sink".to_string(), dst.node.clone());
                            bind.insert("__k".to_string(), k.to_string());
                            out.push(Match {
                                nodes: [f.clone(), dst.node.clone()].into_iter().collect(),
                                bindings: bind,
                            });
                        }
                    }
                }
            }
            out
        },
        |g, m| {
            let f = m.node("fork");
            let k: usize = m.bindings["__k"].parse().expect("binding is an index");
            let ways = match g.kind(f) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("fork vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("fork", CompKind::Fork { ways: ways - 1 });
            fr.input("fin", ("fork", "in"), ep(f.clone(), "in"));
            let mut j = 0;
            for kk in 0..ways {
                if kk == k {
                    continue;
                }
                fr.output(
                    &format!("f{j}"),
                    ("fork", &format!("out{j}")),
                    ep(f.clone(), format!("out{kk}")),
                );
                j += 1;
            }
            fr.build()
        },
    )
}

/// A Pure whose output is sunk is itself sunk (unverified: valid for total
/// functions; a partial Pure could block its input where the Sink would
/// not).
pub fn sink_absorb_pure() -> Rewrite {
    Rewrite::new(
        "sink-absorb-pure",
        false,
        |g| {
            let mut out = Vec::new();
            for (p, kind) in g.nodes() {
                if !matches!(kind, CompKind::Pure { .. }) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(p.clone(), "out")) {
                    if matches!(g.kind(&dst.node), Some(CompKind::Sink)) {
                        out.push(single_match(
                            vec![p.clone(), dst.node.clone()],
                            vec![("pure", p.clone()), ("sink", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        |_, m| {
            let p = m.node("pure");
            let mut fr = Frag::new();
            fr.node("sink", CompKind::Sink);
            fr.input("in", ("sink", "in"), ep(p.clone(), "in"));
            fr.build()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::verify::discharge;
    use graphiti_ir::ExprHigh;
    use graphiti_ir::Value;
    use graphiti_sem::RefineConfig;

    fn wire_graph() -> ExprHigh {
        // x -> fork1 -> sinkish pipeline with a split/join pair.
        let mut g = ExprHigh::new();
        g.add_node("f1", CompKind::Fork { ways: 1 }).unwrap();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("j", CompKind::Join).unwrap();
        g.expose_input("x", ep("f1", "in")).unwrap();
        g.connect(ep("f1", "out0"), ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("j", "in0")).unwrap();
        g.connect(ep("s", "out1"), ep("j", "in1")).unwrap();
        g.expose_output("y", ep("j", "out")).unwrap();
        g.validate().unwrap();
        g
    }

    #[test]
    fn fork1_elim_splices_the_wire() {
        let g = wire_graph();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &fork1_elim()).unwrap(), "match");
        g2.validate().unwrap();
        assert_eq!(g2.node_count(), 2, "{g2}");
        // The external input now drives the split directly.
        assert_eq!(g2.driver(&ep("s", "in")), Some(graphiti_ir::Attachment::External("x".into())));
        // Eliminating the split/join pair as well would wire the external
        // input straight to the external output, which has no graph
        // representation; the engine reports it rather than corrupting the
        // graph.
        let err = engine.apply_first(&mut g2, &split_join_elim()).unwrap_err();
        assert!(matches!(err, crate::engine::RewriteError::Unsupported(_)), "{err}");
    }

    #[test]
    fn split_join_elim_is_a_refinement() {
        let mut g = ExprHigh::new();
        g.add_node("src", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("j", CompKind::Join).unwrap();
        g.expose_input("x", ep("src", "in")).unwrap();
        g.connect(ep("src", "out"), ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("j", "in0")).unwrap();
        g.connect(ep("s", "out1"), ep("j", "in1")).unwrap();
        g.expose_output("y", ep("j", "out")).unwrap();
        let pairs = Value::pair(Value::Int(0), Value::Bool(true));
        let cfg = RefineConfig { domain: vec![pairs], max_depth: 6, ..Default::default() };
        let mut engine = Engine::deferring();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &split_join_elim()).unwrap(), "match");
        g2.validate().unwrap();
        let verdicts = discharge(engine.obligations, &cfg);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].verdict.is_ok(), "{:?}", verdicts[0].verdict);
    }

    #[test]
    fn split_join_swap_becomes_pure_swap() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("j", CompKind::Join).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("j", "in1")).unwrap();
        g.connect(ep("s", "out1"), ep("j", "in0")).unwrap();
        g.expose_output("y", ep("j", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &split_join_swap()).unwrap(), "match");
        g2.validate().unwrap();
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Pure { func: PureFn::Swap })));
        assert_eq!(g2.node_count(), 1);
    }

    #[test]
    fn join_split_elim_is_marked_unverified() {
        let rw = join_split_elim();
        assert!(!rw.verified);
        let mut g = ExprHigh::new();
        g.add_node("j", CompKind::Join).unwrap();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("b0", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.add_node("b1", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.expose_input("a", ep("j", "in0")).unwrap();
        g.expose_input("b", ep("j", "in1")).unwrap();
        g.connect(ep("j", "out"), ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("b0", "in")).unwrap();
        g.connect(ep("s", "out1"), ep("b1", "in")).unwrap();
        g.expose_output("x", ep("b0", "out")).unwrap();
        g.expose_output("y", ep("b1", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &rw).unwrap(), "match");
        g2.validate().unwrap();
        assert_eq!(g2.node_count(), 2);
    }

    #[test]
    fn fork_sink_prune_narrows_fork() {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 3 }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.add_node("b0", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.add_node("b1", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("b0", "in")).unwrap();
        g.connect(ep("f", "out1"), ep("k", "in")).unwrap();
        g.connect(ep("f", "out2"), ep("b1", "in")).unwrap();
        g.expose_output("o0", ep("b0", "out")).unwrap();
        g.expose_output("o1", ep("b1", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &fork_sink_prune()).unwrap(), "match");
        g2.validate().unwrap();
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Fork { ways: 2 })));
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Sink)));
    }

    #[test]
    fn sink_absorb_pure_moves_sink_up() {
        let mut g = ExprHigh::new();
        g.add_node("p", CompKind::Pure { func: PureFn::Dup }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("p", "in")).unwrap();
        g.connect(ep("p", "out"), ep("k", "in")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &sink_absorb_pure()).unwrap(), "match");
        g2.validate().unwrap();
        assert_eq!(g2.node_count(), 1);
        assert!(g2.nodes().all(|(_, k)| matches!(k, CompKind::Sink)));
    }
}
