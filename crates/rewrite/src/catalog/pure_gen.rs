//! Pure-generation rewrites (§3.2, Fig. 5): incrementally turn an
//! effect-free loop body into a single Pure component.
//!
//! The stages mirror the paper: operators (and loads/constants) become Pure
//! applications fed by Join trees; Forks become `dup` Pures followed by
//! Splits; Pures then migrate through Joins and Splits and fuse, leaving a
//! residue of Splits and Joins that the oracle's region-to-Pure step
//! collapses.

use super::Frag;
use crate::engine::{wire_consumer, Match, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, ExprHigh, NodeId, PureFn};

fn single_match(nodes: Vec<NodeId>, bindings: Vec<(&str, NodeId)>) -> Match {
    Match {
        nodes: nodes.into_iter().collect(),
        bindings: bindings.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

fn pure_func(g: &ExprHigh, n: &NodeId) -> Option<PureFn> {
    match g.kind(n) {
        Some(CompKind::Pure { func }) => Some(func.clone()),
        _ => None,
    }
}

/// An n-ary operator becomes a Join tree feeding `Pure(op)` (Fig. 5b).
///
/// Operands are tuple-encoded right-nested: a ternary op sees `(a, (b, c))`.
pub fn op_to_pure() -> Rewrite {
    Rewrite::new(
        "op-to-pure",
        true,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Operator { .. }))
                .map(|(n, _)| single_match(vec![n.clone()], vec![("op", n.clone())]))
                .collect()
        },
        |g, m| {
            let n = m.node("op");
            let op = match g.kind(n) {
                Some(CompKind::Operator { op }) => *op,
                _ => return Err(RewriteError::BuilderFailed("operator vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::Op(op) });
            match op.arity() {
                1 => {
                    fr.input("a", ("p", "in"), ep(n.clone(), "in0"));
                }
                2 => {
                    fr.node("j", CompKind::Join);
                    fr.edge(("j", "out"), ("p", "in"));
                    fr.input("a", ("j", "in0"), ep(n.clone(), "in0")).input(
                        "b",
                        ("j", "in1"),
                        ep(n.clone(), "in1"),
                    );
                }
                3 => {
                    fr.node("j1", CompKind::Join).node("j2", CompKind::Join);
                    fr.edge(("j2", "out"), ("j1", "in1")).edge(("j1", "out"), ("p", "in"));
                    fr.input("a", ("j1", "in0"), ep(n.clone(), "in0"))
                        .input("b", ("j2", "in0"), ep(n.clone(), "in1"))
                        .input("c", ("j2", "in1"), ep(n.clone(), "in2"));
                }
                other => {
                    return Err(RewriteError::Unsupported(format!(
                        "operator arity {other} not supported by op-to-pure"
                    )))
                }
            }
            fr.output("out", ("p", "out"), ep(n.clone(), "out"));
            fr.build()
        },
    )
}

/// A Load port becomes `Pure(load)` — read-only, hence reorderable.
pub fn load_to_pure() -> Rewrite {
    Rewrite::new(
        "load-to-pure",
        true,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Load { .. }))
                .map(|(n, _)| single_match(vec![n.clone()], vec![("ld", n.clone())]))
                .collect()
        },
        |g, m| {
            let n = m.node("ld");
            let mem = match g.kind(n) {
                Some(CompKind::Load { mem }) => mem.clone(),
                _ => return Err(RewriteError::BuilderFailed("load vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::Load(mem) });
            fr.input("a", ("p", "in"), ep(n.clone(), "addr"));
            fr.output("out", ("p", "out"), ep(n.clone(), "data"));
            fr.build()
        },
    )
}

/// A Constant becomes `Pure(const v)` applied to its control token.
pub fn constant_to_pure() -> Rewrite {
    Rewrite::new(
        "constant-to-pure",
        true,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Constant { .. }))
                .map(|(n, _)| single_match(vec![n.clone()], vec![("c", n.clone())]))
                .collect()
        },
        |g, m| {
            let n = m.node("c");
            let value = match g.kind(n) {
                Some(CompKind::Constant { value }) => value.clone(),
                _ => return Err(RewriteError::BuilderFailed("constant vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::Const(value) });
            fr.input("a", ("p", "in"), ep(n.clone(), "ctrl"));
            fr.output("out", ("p", "out"), ep(n.clone(), "out"));
            fr.build()
        },
    )
}

/// Two chained Pures fuse by composition.
pub fn pure_fuse() -> Rewrite {
    Rewrite::new(
        "pure-fuse",
        true,
        |g| {
            let mut out = Vec::new();
            for (p1, k) in g.nodes() {
                if !matches!(k, CompKind::Pure { .. }) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(p1.clone(), "out")) {
                    if dst.port == "in"
                        && dst.node != *p1
                        && matches!(g.kind(&dst.node), Some(CompKind::Pure { .. }))
                    {
                        out.push(single_match(
                            vec![p1.clone(), dst.node.clone()],
                            vec![("first", p1.clone()), ("second", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        |g, m| {
            let f1 = pure_func(g, m.node("first"))
                .ok_or_else(|| RewriteError::BuilderFailed("pure vanished".into()))?;
            let f2 = pure_func(g, m.node("second"))
                .ok_or_else(|| RewriteError::BuilderFailed("pure vanished".into()))?;
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::comp(f2, f1) });
            fr.input("a", ("p", "in"), ep(m.node("first").clone(), "in"));
            fr.output("out", ("p", "out"), ep(m.node("second").clone(), "out"));
            fr.build()
        },
    )
}

/// A 2-way Fork becomes `Pure(dup)` followed by a Split; a wider fork peels
/// one way at a time (Fig. 5d).
pub fn fork_to_pure() -> Rewrite {
    Rewrite::new(
        "fork-to-pure",
        true,
        |g| {
            g.nodes()
                .filter(|(_, k)| matches!(k, CompKind::Fork { ways } if *ways >= 2))
                .map(|(n, _)| single_match(vec![n.clone()], vec![("fork", n.clone())]))
                .collect()
        },
        |g, m| {
            let fork = m.node("fork");
            let ways = match g.kind(fork) {
                Some(CompKind::Fork { ways }) => *ways,
                _ => return Err(RewriteError::BuilderFailed("fork vanished".into())),
            };
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: PureFn::Dup }).node("s", CompKind::Split);
            fr.edge(("p", "out"), ("s", "in"));
            fr.input("a", ("p", "in"), ep(fork.clone(), "in"));
            fr.output("o0", ("s", "out0"), ep(fork.clone(), "out0"));
            if ways == 2 {
                fr.output("o1", ("s", "out1"), ep(fork.clone(), "out1"));
            } else {
                fr.node("rest", CompKind::Fork { ways: ways - 1 });
                fr.edge(("s", "out1"), ("rest", "in"));
                for k in 1..ways {
                    fr.output(
                        &format!("o{k}"),
                        ("rest", &format!("out{}", k - 1)),
                        ep(fork.clone(), format!("out{k}")),
                    );
                }
            }
            fr.build()
        },
    )
}

/// A Pure on the first Join input moves below the Join as `f × id`.
pub fn pure_over_join_left() -> Rewrite {
    pure_over_join("pure-over-join-l", "in0", |f| PureFn::par(f, PureFn::Id))
}

/// A Pure on the second Join input moves below the Join as `id × f`.
pub fn pure_over_join_right() -> Rewrite {
    pure_over_join("pure-over-join-r", "in1", |f| PureFn::par(PureFn::Id, f))
}

fn pure_over_join(
    name: &'static str,
    port: &'static str,
    wrap: impl Fn(PureFn) -> PureFn + 'static,
) -> Rewrite {
    Rewrite::new(
        name,
        true,
        move |g| {
            let mut out = Vec::new();
            for (p, k) in g.nodes() {
                if !matches!(k, CompKind::Pure { .. }) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(p.clone(), "out")) {
                    if dst.port == port && matches!(g.kind(&dst.node), Some(CompKind::Join)) {
                        out.push(single_match(
                            vec![p.clone(), dst.node.clone()],
                            vec![("pure", p.clone()), ("join", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        move |g, m| {
            let f = pure_func(g, m.node("pure"))
                .ok_or_else(|| RewriteError::BuilderFailed("pure vanished".into()))?;
            let join = m.node("join");
            let pure = m.node("pure");
            let other = if port == "in0" { "in1" } else { "in0" };
            let mut fr = Frag::new();
            fr.node("j", CompKind::Join).node("p", CompKind::Pure { func: wrap(f) });
            fr.edge(("j", "out"), ("p", "in"));
            if port == "in0" {
                fr.input("a", ("j", "in0"), ep(pure.clone(), "in")).input(
                    "b",
                    ("j", "in1"),
                    ep(join.clone(), other),
                );
            } else {
                fr.input("a", ("j", "in0"), ep(join.clone(), other)).input(
                    "b",
                    ("j", "in1"),
                    ep(pure.clone(), "in"),
                );
            }
            fr.output("out", ("p", "out"), ep(join.clone(), "out"));
            fr.build()
        },
    )
}

/// A Pure on the first Split output moves above the Split as `f × id`.
pub fn pure_over_split_left() -> Rewrite {
    pure_over_split("pure-over-split-l", "out0", |f| PureFn::par(f, PureFn::Id))
}

/// A Pure on the second Split output moves above the Split as `id × f`.
pub fn pure_over_split_right() -> Rewrite {
    pure_over_split("pure-over-split-r", "out1", |f| PureFn::par(PureFn::Id, f))
}

fn pure_over_split(
    name: &'static str,
    port: &'static str,
    wrap: impl Fn(PureFn) -> PureFn + 'static,
) -> Rewrite {
    Rewrite::new(
        name,
        true,
        move |g| {
            let mut out = Vec::new();
            for (s, k) in g.nodes() {
                if !matches!(k, CompKind::Split) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(s.clone(), port)) {
                    if dst.port == "in" && matches!(g.kind(&dst.node), Some(CompKind::Pure { .. }))
                    {
                        out.push(single_match(
                            vec![s.clone(), dst.node.clone()],
                            vec![("split", s.clone()), ("pure", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        move |g, m| {
            let f = pure_func(g, m.node("pure"))
                .ok_or_else(|| RewriteError::BuilderFailed("pure vanished".into()))?;
            let split = m.node("split");
            let pure = m.node("pure");
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: wrap(f) }).node("s", CompKind::Split);
            fr.edge(("p", "out"), ("s", "in"));
            fr.input("a", ("p", "in"), ep(split.clone(), "in"));
            if port == "out0" {
                fr.output("o0", ("s", "out0"), ep(pure.clone(), "out")).output(
                    "o1",
                    ("s", "out1"),
                    ep(split.clone(), "out1"),
                );
            } else {
                fr.output("o0", ("s", "out0"), ep(split.clone(), "out0")).output(
                    "o1",
                    ("s", "out1"),
                    ep(pure.clone(), "out"),
                );
            }
            fr.build()
        },
    )
}

/// A Split whose second output is sunk is the first projection.
pub fn split_fst() -> Rewrite {
    split_proj("split-fst", "out1", "out0", PureFn::Fst)
}

/// A Split whose first output is sunk is the second projection.
pub fn split_snd() -> Rewrite {
    split_proj("split-snd", "out0", "out1", PureFn::Snd)
}

fn split_proj(name: &'static str, sunk: &'static str, kept: &'static str, proj: PureFn) -> Rewrite {
    Rewrite::new(
        name,
        true,
        move |g| {
            let mut out = Vec::new();
            for (s, k) in g.nodes() {
                if !matches!(k, CompKind::Split) {
                    continue;
                }
                if let Some(dst) = wire_consumer(g, &ep(s.clone(), sunk)) {
                    if matches!(g.kind(&dst.node), Some(CompKind::Sink)) {
                        out.push(single_match(
                            vec![s.clone(), dst.node.clone()],
                            vec![("split", s.clone()), ("sink", dst.node)],
                        ));
                    }
                }
            }
            out
        },
        move |_, m| {
            let s = m.node("split");
            let mut fr = Frag::new();
            fr.node("p", CompKind::Pure { func: proj.clone() });
            fr.input("a", ("p", "in"), ep(s.clone(), "in"));
            fr.output("out", ("p", "out"), ep(s.clone(), kept));
            fr.build()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use graphiti_ir::Op;
    use graphiti_ir::{Attachment, Value};
    use graphiti_sem::{denote_graph, run_random, Env};
    use std::collections::BTreeMap as Map;

    /// Runs a single-input graph on a value sequence and returns the values
    /// seen at its single output, using a fixed schedule seed.
    fn run(g: &ExprHigh, inputs: Vec<Value>, seed: u64) -> Vec<Value> {
        let (m, lowered) = denote_graph(g, &Env::standard()).unwrap();
        assert_eq!(lowered.input_names.len(), 1, "single input expected");
        assert_eq!(lowered.output_names.len(), 1, "single output expected");
        let feeds: Map<_, _> = [(graphiti_ir::PortName::Io(0), inputs)].into_iter().collect();
        let r = run_random(&m, &feeds, seed, 2000);
        r.outputs.get(&graphiti_ir::PortName::Io(0)).cloned().unwrap_or_default()
    }

    /// The GCD body: fork feeding a modulo, i.e. computes `x % x`... here we
    /// use a richer DAG: out = (a % b) for input (a, b), via split.
    fn mod_of_pair() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("s", "out1"), ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        g
    }

    #[test]
    fn op_to_pure_preserves_behaviour() {
        let g = mod_of_pair();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &op_to_pure()).unwrap(), "match");
        g2.validate().unwrap();
        // The rewritten graph contains a join + pure instead of the op.
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Pure { .. })));
        let ins: Vec<Value> = vec![
            Value::pair(Value::Int(17), Value::Int(5)),
            Value::pair(Value::Int(9), Value::Int(3)),
        ];
        for seed in 0..5 {
            assert_eq!(
                run(&g, ins.clone(), seed),
                vec![Value::Int(2), Value::Int(0)],
                "original, seed {seed}"
            );
            assert_eq!(
                run(&g2, ins.clone(), seed),
                vec![Value::Int(2), Value::Int(0)],
                "rewritten, seed {seed}"
            );
        }
    }

    #[test]
    fn pure_fuse_composes_functions() {
        let mut g = ExprHigh::new();
        g.add_node("p1", CompKind::Pure { func: PureFn::Dup }).unwrap();
        g.add_node("p2", CompKind::Pure { func: PureFn::Fst }).unwrap();
        g.expose_input("x", ep("p1", "in")).unwrap();
        g.connect(ep("p1", "out"), ep("p2", "in")).unwrap();
        g.expose_output("y", ep("p2", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &pure_fuse()).unwrap(), "match");
        assert_eq!(g2.node_count(), 1);
        let (_, k) = g2.nodes().next().unwrap();
        match k {
            CompKind::Pure { func } => {
                assert_eq!(func.eval(&Value::Int(3)).unwrap(), Value::Int(3));
            }
            other => panic!("expected pure, got {other}"),
        }
    }

    #[test]
    fn fork_to_pure_produces_dup_split() {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 3 }).unwrap();
        for k in 0..3 {
            g.add_node(format!("k{k}"), CompKind::Sink).unwrap();
            g.connect(ep("f", format!("out{k}")), ep(format!("k{k}"), "in")).unwrap();
        }
        g.expose_input("x", ep("f", "in")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &fork_to_pure()).unwrap(), "match");
        g2.validate().unwrap();
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Pure { func: PureFn::Dup })));
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Fork { ways: 2 })));
        // Applying repeatedly eliminates all forks.
        let rws = [fork_to_pure()];
        engine.exhaust(&mut g2, &rws, None).unwrap();
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Fork { .. })));
    }

    #[test]
    fn pure_over_join_moves_pure_below() {
        let mut g = ExprHigh::new();
        g.add_node("p", CompKind::Pure { func: PureFn::Dup }).unwrap();
        g.add_node("j", CompKind::Join).unwrap();
        g.expose_input("a", ep("p", "in")).unwrap();
        g.expose_input("b", ep("j", "in1")).unwrap();
        g.connect(ep("p", "out"), ep("j", "in0")).unwrap();
        g.expose_output("y", ep("j", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &pure_over_join_left()).unwrap(), "match");
        g2.validate().unwrap();
        // Now the join is fed by both externals and the pure is below it.
        let pure_node = g2
            .nodes()
            .find(|(_, k)| matches!(k, CompKind::Pure { .. }))
            .map(|(n, _)| n.clone())
            .unwrap();
        assert!(matches!(g2.consumer(&ep(pure_node, "out")), Some(Attachment::External(_))));
    }

    #[test]
    fn pure_over_split_moves_pure_above() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("p", CompKind::Pure { func: PureFn::Dup }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("p", "in")).unwrap();
        g.connect(ep("s", "out1"), ep("k", "in")).unwrap();
        g.expose_output("y", ep("p", "out")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &pure_over_split_left()).unwrap(), "match");
        g2.validate().unwrap();
        let pure_node = g2
            .nodes()
            .find(|(_, k)| matches!(k, CompKind::Pure { .. }))
            .map(|(n, _)| n.clone())
            .unwrap();
        assert!(matches!(g2.driver(&ep(pure_node, "in")), Some(Attachment::External(_))));
    }

    #[test]
    fn split_projections() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out1"), ep("k", "in")).unwrap();
        g.expose_output("y", ep("s", "out0")).unwrap();
        let mut engine = Engine::new();
        let mut g2 = g.clone();
        assert!(engine.apply_first(&mut g2, &split_fst()).unwrap(), "match");
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Pure { func: PureFn::Fst })));
        assert_eq!(g2.node_count(), 1);
    }
}
