//! Elimination rewrites (Fig. 3b): remove residual components introduced by
//! normalization — degenerate forks, cancelling Split/Join pairs, and sunk
//! values.

use super::Frag;
use crate::engine::{wire_consumer, Match, Replacement, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, NodeId};
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

/// A Fork output feeding a Sink is dropped, narrowing the Fork.
pub fn fork_sink_prune() -> Rewrite {
    Rewrite::new(
        "fork-sink-prune",
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
}
