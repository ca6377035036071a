//! Normalization rewrites (Fig. 3a): combine the Muxes and Branches of a
//! multi-variable loop into single components over joined data, so the main
//! loop rewrite sees the canonical single-Mux/single-Branch shape.

use super::Frag;
use crate::engine::{wire_consumer, Match, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh, NodeId};
use std::collections::BTreeMap;

/// The fork outputs of `fork` whose consumers satisfy `pred`, in port order.
fn fork_consumers(
    g: &ExprHigh,
    fork: &NodeId,
    ways: usize,
    pred: impl Fn(&CompKind) -> bool,
) -> Vec<(usize, Endpoint)> {
    let mut found = Vec::new();
    for k in 0..ways {
        if let Some(dst) = wire_consumer(g, &ep(fork.clone(), format!("out{k}"))) {
            if let Some(kind) = g.kind(&dst.node) {
                if pred(kind) {
                    found.push((k, dst));
                }
            }
        }
    }
    found
}

/// Two Muxes whose conditions come from the same Fork are combined into one
/// Mux over joined data, followed by a Split (Fig. 3a).
///
/// The combined form synchronizes the two data paths, which is the extra
/// synchronization the paper discusses in §6.2; it only ever removes
/// behaviours, so the rewrite is a refinement.
pub fn mux_combine() -> Rewrite {
    Rewrite::new(
        "mux-combine",
        |g| {
            let mut out = Vec::new();
            for (f, kind) in g.nodes() {
                let ways = match kind {
                    CompKind::Fork { ways } => *ways,
                    _ => continue,
                };
                let muxes = fork_consumers(g, f, ways, |k| matches!(k, CompKind::Mux));
                let cond_muxes: Vec<_> =
                    muxes.into_iter().filter(|(_, dst)| dst.port == "cond").collect();
                if cond_muxes.len() >= 2 {
                    let (ka, a) = &cond_muxes[0];
                    let (kb, b) = &cond_muxes[1];
                    if a.node == b.node {
                        continue;
                    }
                    // Data inputs must come from outside the matched trio.
                    let members = [f.clone(), a.node.clone(), b.node.clone()];
                    let external =
                        |e: &graphiti_ir::Endpoint| match crate::engine::wire_driver(g, e) {
                            Some(src) => !members.contains(&src.node),
                            None => true,
                        };
                    if !(external(&ep(a.node.clone(), "t"))
                        && external(&ep(a.node.clone(), "f"))
                        && external(&ep(b.node.clone(), "t"))
                        && external(&ep(b.node.clone(), "f")))
                    {
                        continue;
                    }
                    let mut bind = BTreeMap::new();
                    bind.insert("fork".to_string(), f.clone());
                    bind.insert("mux_a".to_string(), a.node.clone());
                    bind.insert("mux_b".to_string(), b.node.clone());
                    bind.insert("__ka".to_string(), ka.to_string());
                    bind.insert("__kb".to_string(), kb.to_string());
                    out.push(Match {
                        nodes: [f.clone(), a.node.clone(), b.node.clone()].into_iter().collect(),
                        bindings: bind,
                    });
                }
            }
            out
        },
        |g, m| {
            let f = m.node("fork");
            let a = m.node("mux_a");
            let b = m.node("mux_b");
            let ka: usize = m.bindings["__ka"].parse().expect("binding is an index");
            let kb: usize = m.bindings["__kb"].parse().expect("binding is an index");
            let ways = match g.kind(f) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("fork vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("fork", CompKind::Fork { ways: ways - 1 })
                .node("jt", CompKind::Join)
                .node("jf", CompKind::Join)
                .node("mux", CompKind::Mux)
                .node("split", CompKind::Split);
            fr.edge(("fork", "out0"), ("mux", "cond"))
                .edge(("jt", "out"), ("mux", "t"))
                .edge(("jf", "out"), ("mux", "f"))
                .edge(("mux", "out"), ("split", "in"));
            fr.input("fin", ("fork", "in"), ep(f.clone(), "in"))
                .input("at", ("jt", "in0"), ep(a.clone(), "t"))
                .input("bt", ("jt", "in1"), ep(b.clone(), "t"))
                .input("af", ("jf", "in0"), ep(a.clone(), "f"))
                .input("bf", ("jf", "in1"), ep(b.clone(), "f"));
            fr.output("aout", ("split", "out0"), ep(a.clone(), "out")).output(
                "bout",
                ("split", "out1"),
                ep(b.clone(), "out"),
            );
            // Remaining fork outputs keep their consumers, shifted onto the
            // smaller fork.
            let mut j = 1;
            for k in 0..ways {
                if k == ka || k == kb {
                    continue;
                }
                fr.output(
                    &format!("fout{j}"),
                    ("fork", &format!("out{j}")),
                    ep(f.clone(), format!("out{k}")),
                );
                j += 1;
            }
            fr.build()
        },
    )
}

/// Two Branches whose conditions come from the same Fork are combined into
/// one Branch over joined data, with Splits on both outputs (Fig. 3a).
pub fn branch_combine() -> Rewrite {
    Rewrite::new(
        "branch-combine",
        |g| {
            let mut out = Vec::new();
            for (f, kind) in g.nodes() {
                let ways = match kind {
                    CompKind::Fork { ways } => *ways,
                    _ => continue,
                };
                let brs = fork_consumers(g, f, ways, |k| matches!(k, CompKind::Branch));
                let cond_brs: Vec<_> =
                    brs.into_iter().filter(|(_, dst)| dst.port == "cond").collect();
                if cond_brs.len() >= 2 {
                    let (ka, a) = &cond_brs[0];
                    let (kb, b) = &cond_brs[1];
                    if a.node == b.node {
                        continue;
                    }
                    // Data inputs must come from outside the matched trio.
                    let members = [f.clone(), a.node.clone(), b.node.clone()];
                    let external =
                        |e: &graphiti_ir::Endpoint| match crate::engine::wire_driver(g, e) {
                            Some(src) => !members.contains(&src.node),
                            None => true,
                        };
                    if !(external(&ep(a.node.clone(), "in")) && external(&ep(b.node.clone(), "in")))
                    {
                        continue;
                    }
                    let mut bind = BTreeMap::new();
                    bind.insert("fork".to_string(), f.clone());
                    bind.insert("br_a".to_string(), a.node.clone());
                    bind.insert("br_b".to_string(), b.node.clone());
                    bind.insert("__ka".to_string(), ka.to_string());
                    bind.insert("__kb".to_string(), kb.to_string());
                    out.push(Match {
                        nodes: [f.clone(), a.node.clone(), b.node.clone()].into_iter().collect(),
                        bindings: bind,
                    });
                }
            }
            out
        },
        |g, m| {
            let f = m.node("fork");
            let a = m.node("br_a");
            let b = m.node("br_b");
            let ka: usize = m.bindings["__ka"].parse().expect("binding is an index");
            let kb: usize = m.bindings["__kb"].parse().expect("binding is an index");
            let ways = match g.kind(f) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("fork vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("fork", CompKind::Fork { ways: ways - 1 })
                .node("join", CompKind::Join)
                .node("br", CompKind::Branch)
                .node("st", CompKind::Split)
                .node("sf", CompKind::Split);
            fr.edge(("fork", "out0"), ("br", "cond"))
                .edge(("join", "out"), ("br", "in"))
                .edge(("br", "t"), ("st", "in"))
                .edge(("br", "f"), ("sf", "in"));
            fr.input("fin", ("fork", "in"), ep(f.clone(), "in"))
                .input("ain", ("join", "in0"), ep(a.clone(), "in"))
                .input("bin", ("join", "in1"), ep(b.clone(), "in"));
            fr.output("at", ("st", "out0"), ep(a.clone(), "t"))
                .output("bt", ("st", "out1"), ep(b.clone(), "t"))
                .output("af", ("sf", "out0"), ep(a.clone(), "f"))
                .output("bf", ("sf", "out1"), ep(b.clone(), "f"));
            let mut j = 1;
            for k in 0..ways {
                if k == ka || k == kb {
                    continue;
                }
                fr.output(
                    &format!("fout{j}"),
                    ("fork", &format!("out{j}")),
                    ep(f.clone(), format!("out{k}")),
                );
                j += 1;
            }
            fr.build()
        },
    )
}

/// A Fork feeding another Fork is flattened into a single wider Fork.
pub fn fork_flatten() -> Rewrite {
    Rewrite::new(
        "fork-flatten",
        |g| {
            let mut out = Vec::new();
            for (a, kind) in g.nodes() {
                let wa = match kind {
                    CompKind::Fork { ways } => *ways,
                    _ => continue,
                };
                for k in 0..wa {
                    if let Some(dst) = wire_consumer(g, &ep(a.clone(), format!("out{k}"))) {
                        if dst.port == "in"
                            && dst.node != *a
                            && matches!(g.kind(&dst.node), Some(CompKind::Fork { .. }))
                        {
                            let mut bind = BTreeMap::new();
                            bind.insert("outer".to_string(), a.clone());
                            bind.insert("inner".to_string(), dst.node.clone());
                            bind.insert("__k".to_string(), k.to_string());
                            out.push(Match {
                                nodes: [a.clone(), dst.node.clone()].into_iter().collect(),
                                bindings: bind,
                            });
                        }
                    }
                }
            }
            out
        },
        |g, m| {
            let a = m.node("outer");
            let b = m.node("inner");
            let k: usize = m.bindings["__k"].parse().expect("binding is an index");
            let wa = match g.kind(a) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("outer fork vanished".into())),
            };
            let wb = match g.kind(b) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("inner fork vanished".into())),
            };
            let total = wa - 1 + wb;
            let mut fr = Frag::new();
            fr.node("fork", CompKind::Fork { ways: total });
            fr.input("fin", ("fork", "in"), ep(a.clone(), "in"));
            let mut j = 0;
            for ka in 0..wa {
                if ka == k {
                    continue;
                }
                fr.output(
                    &format!("a{j}"),
                    ("fork", &format!("out{j}")),
                    ep(a.clone(), format!("out{ka}")),
                );
                j += 1;
            }
            for kb in 0..wb {
                fr.output(
                    &format!("b{j}"),
                    ("fork", &format!("out{j}")),
                    ep(b.clone(), format!("out{kb}")),
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
    use graphiti_ir::Value;
    use graphiti_sem::RefineConfig;

    /// A two-variable sequential loop skeleton: one init-fork driving two
    /// Mux conditions, one body-fork driving two Branch conditions.
    fn two_var_loop() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("init", CompKind::Init { initial: false }).unwrap();
        g.add_node("fc", CompKind::Fork { ways: 2 }).unwrap(); // cond fork for muxes
        g.add_node("ma", CompKind::Mux).unwrap();
        g.add_node("mb", CompKind::Mux).unwrap();
        g.add_node("body", CompKind::Operator { op: graphiti_ir::Op::Mod }).unwrap();
        g.add_node("cond", CompKind::Operator { op: graphiti_ir::Op::NeZero }).unwrap();
        g.add_node("bodyfork", CompKind::Fork { ways: 3 }).unwrap();
        g.add_node("fb", CompKind::Fork { ways: 3 }).unwrap(); // branch conds + init
        g.add_node("ba", CompKind::Branch).unwrap();
        g.add_node("bb", CompKind::Branch).unwrap();
        // condition plumbing
        g.connect(ep("init", "out"), ep("fc", "in")).unwrap();
        g.connect(ep("fc", "out0"), ep("ma", "cond")).unwrap();
        g.connect(ep("fc", "out1"), ep("mb", "cond")).unwrap();
        g.connect(ep("fb", "out0"), ep("ba", "cond")).unwrap();
        g.connect(ep("fb", "out1"), ep("bb", "cond")).unwrap();
        g.connect(ep("fb", "out2"), ep("init", "in")).unwrap();
        // datapath: body consumes both variables, produces the new b; cond
        // tests it; variable a recirculates the mod result too (toy shape).
        g.connect(ep("ma", "out"), ep("body", "in0")).unwrap();
        g.connect(ep("mb", "out"), ep("body", "in1")).unwrap();
        g.connect(ep("body", "out"), ep("bodyfork", "in")).unwrap();
        g.connect(ep("bodyfork", "out0"), ep("cond", "in0")).unwrap();
        g.connect(ep("cond", "out"), ep("fb", "in")).unwrap();
        g.connect(ep("ba", "t"), ep("ma", "t")).unwrap();
        g.connect(ep("bb", "t"), ep("mb", "t")).unwrap();
        g.connect(ep("bodyfork", "out1"), ep("ba", "in")).unwrap();
        g.connect(ep("bodyfork", "out2"), ep("bb", "in")).unwrap();
        // loop I/O
        g.expose_input("a0", ep("ma", "f")).unwrap();
        g.expose_input("b0", ep("mb", "f")).unwrap();
        g.expose_output("res", ep("bb", "f")).unwrap();
        g.expose_output("res_a", ep("ba", "f")).unwrap();
        g.validate().unwrap();
        g
    }

    #[test]
    fn mux_combine_applies_and_validates() {
        let g = two_var_loop();
        let mut engine = Engine::new();
        let rw = mux_combine();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &rw).unwrap(), "match found");
        g2.validate().unwrap();
        // Two muxes replaced by one; joins and a split introduced.
        let muxes = g2.nodes().filter(|(_, k)| matches!(k, CompKind::Mux)).count();
        assert_eq!(muxes, 1);
        let joins = g2.nodes().filter(|(_, k)| matches!(k, CompKind::Join)).count();
        assert_eq!(joins, 2);
        assert_eq!(engine.rewrites_applied(), 1);
    }

    #[test]
    fn mux_combine_is_a_refinement() {
        let g = two_var_loop();
        let cfg = RefineConfig {
            domain: vec![Value::Bool(true), Value::Bool(false)],
            max_depth: 6,
            max_states: 20_000,
            ..Default::default()
        };
        let mut engine = Engine::deferring();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &mux_combine()).unwrap(), "match found");
        g2.validate().unwrap();
        let verdicts = discharge(engine.obligations, &cfg);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].verdict.is_ok(), "{:?}", verdicts[0].verdict);
    }

    #[test]
    fn branch_combine_applies_and_validates() {
        let g = two_var_loop();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &branch_combine()).unwrap(), "match found");
        g2.validate().unwrap();
        let brs = g2.nodes().filter(|(_, k)| matches!(k, CompKind::Branch)).count();
        assert_eq!(brs, 1);
        // Fork narrowed from 3 to 2 ways.
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Fork { ways: 2 })));
    }

    #[test]
    fn fork_flatten_merges_fork_trees() {
        let mut g = ExprHigh::new();
        g.add_node("a", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("b", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("s1", CompKind::Sink).unwrap();
        g.add_node("s2", CompKind::Sink).unwrap();
        g.add_node("s3", CompKind::Sink).unwrap();
        g.expose_input("x", ep("a", "in")).unwrap();
        g.connect(ep("a", "out0"), ep("b", "in")).unwrap();
        g.connect(ep("a", "out1"), ep("s1", "in")).unwrap();
        g.connect(ep("b", "out0"), ep("s2", "in")).unwrap();
        g.connect(ep("b", "out1"), ep("s3", "in")).unwrap();
        g.validate().unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &fork_flatten()).unwrap(), "match");
        g2.validate().unwrap();
        let forks: Vec<_> = g2
            .nodes()
            .filter_map(|(_, k)| match k {
                CompKind::Fork { ways } => Some(*ways),
                _ => None,
            })
            .collect();
        assert_eq!(forks, vec![3]);
    }

    #[test]
    fn fork_flatten_check_passes() {
        let mut g = ExprHigh::new();
        g.add_node("a", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("b", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("s1", CompKind::Sink).unwrap();
        g.add_node("s2", CompKind::Sink).unwrap();
        g.add_node("s3", CompKind::Sink).unwrap();
        g.expose_input("x", ep("a", "in")).unwrap();
        g.connect(ep("a", "out0"), ep("b", "in")).unwrap();
        g.connect(ep("a", "out1"), ep("s1", "in")).unwrap();
        g.connect(ep("b", "out0"), ep("s2", "in")).unwrap();
        g.connect(ep("b", "out1"), ep("s3", "in")).unwrap();
        let cfg = RefineConfig { domain: vec![Value::Int(0)], max_depth: 6, ..Default::default() };
        let mut engine = Engine::deferring();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &fork_flatten()).unwrap(), "match");
        g2.validate().unwrap();
        let verdicts = discharge(engine.obligations, &cfg);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].verdict.is_ok(), "{:?}", verdicts[0].verdict);
    }
}
