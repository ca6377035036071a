//! The *unverified* DF-OoO baseline transformation [Elakhras et al.,
//! FPGA'24], reimplemented as direct graph surgery.
//!
//! It normalizes the loop like the verified pipeline (phases 1–2) and then
//! converts the Mux to a Merge, removes the Init, and wraps the loop in a
//! Tagger/Untagger — **without** proving (or even checking) that the loop
//! body is reorderable. In particular it happily transforms a loop with a
//! Store in its body; on bicg this reproduces the compilation bug the paper
//! discovered: stores commit out of program order and the final memory is
//! wrong.

use crate::pipeline::{body_outputs, normalize, PipelineError, PipelineOptions};
use graphiti_ir::{ep, Attachment, CompKind, ExprHigh, NodeId};
use graphiti_rewrite::{wire_consumer, wire_driver, Engine};
use std::fmt;

/// Errors of the DF-OoO surgery.
#[derive(Debug)]
pub enum DfOooError {
    /// Normalization failed.
    Pipeline(PipelineError),
    /// The loop skeleton was not found.
    LoopNotFound,
    /// Graph surgery failed.
    Graph(graphiti_ir::GraphError),
}

impl fmt::Display for DfOooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfOooError::Pipeline(e) => write!(f, "normalization failed: {e}"),
            DfOooError::LoopNotFound => write!(f, "loop skeleton not found"),
            DfOooError::Graph(e) => write!(f, "surgery failed: {e}"),
        }
    }
}

impl std::error::Error for DfOooError {}

impl From<graphiti_ir::GraphError> for DfOooError {
    fn from(e: graphiti_ir::GraphError) -> Self {
        DfOooError::Graph(e)
    }
}

/// Applies the unverified DF-OoO transformation to the loop identified by
/// its Init node.
///
/// # Errors
///
/// Fails if the loop cannot be found or surgery breaks connectivity; unlike
/// the verified pipeline there is **no purity refusal**.
pub fn dfooo_loop(
    graph: &ExprHigh,
    init: &NodeId,
    opts: &PipelineOptions,
) -> Result<ExprHigh, DfOooError> {
    // Phases 1-2 (the verified flow's normalization).
    let mut g = graph.clone();
    let l = normalize(&mut Engine::new(), &mut g, init)
        .map_err(DfOooError::Pipeline)?
        .ok_or(DfOooError::LoopNotFound)?;

    // Boundary wires of the loop.
    let entry = match g.driver(&ep(l.mux.clone(), "f")) {
        Some(d) => d,
        None => return Err(DfOooError::LoopNotFound),
    };
    let exit = match g.consumer(&ep(l.branch.clone(), "f")) {
        Some(c) => c,
        None => return Err(DfOooError::LoopNotFound),
    };
    let body_in = wire_consumer(&g, &ep(l.mux.clone(), "out")).ok_or(DfOooError::LoopNotFound)?;
    let (_, cond_src) = body_outputs(&g, &l).ok_or(DfOooError::LoopNotFound)?;
    // The condition fork's ways beyond the Init feed the Branch condition
    // and possibly extra taps (a store queue's `seq` stream). All of them
    // must keep firing after the fork is replaced — note their consumers
    // before the removal detaches the wires. No ordering is imposed on the
    // tapped stream: with several tagged iterations in flight the sequence
    // tokens arrive in completion order, which is exactly the unsoundness
    // this baseline is meant to exhibit.
    let fork_ways = match g.kind(&l.fork) {
        Some(CompKind::Fork { ways }) => *ways,
        _ => return Err(DfOooError::LoopNotFound),
    };
    let init_way = match wire_driver(&g, &ep(l.init.clone(), "in")) {
        Some(s) => s.port,
        None => return Err(DfOooError::LoopNotFound),
    };
    let mut taps = Vec::new();
    for w in 0..fork_ways {
        let port = format!("out{w}");
        if port == init_way {
            continue;
        }
        if let Some(c) = wire_consumer(&g, &ep(l.fork.clone(), port)) {
            taps.push(c);
        }
    }

    // Detach and remove the steering we replace: mux, init, cond fork.
    g.detach_input(&ep(l.mux.clone(), "f"));
    g.detach_output(&ep(l.branch.clone(), "f"));
    let loopback = ep(l.branch.clone(), "t");
    g.detach_output(&loopback);
    g.remove_node(&l.mux)?;
    g.remove_node(&l.init)?;
    g.remove_node(&l.fork)?;
    // The branch condition (and any extra taps) lost their driver when the
    // fork was removed. Rewire them from the condition source: directly
    // for the usual 2-way fork, through a narrower fork otherwise.
    g.detach_output(&cond_src);
    if taps.len() <= 1 {
        g.connect(cond_src, ep(l.branch.clone(), "cond"))?;
    } else {
        let refan = g.fresh("dfooo_condfork");
        g.add_node(refan.clone(), CompKind::Fork { ways: taps.len() })?;
        g.connect(cond_src, ep(refan.clone(), "in"))?;
        for (w, tap) in taps.into_iter().enumerate() {
            g.connect(ep(refan.clone(), format!("out{w}")), tap)?;
        }
    }

    // Insert the tagger and the merge.
    let tagger = g.fresh("dfooo_tagger");
    g.add_node(tagger.clone(), CompKind::TaggerUntagger { tags: opts.tags })?;
    let merge = g.fresh("dfooo_merge");
    g.add_node(merge.clone(), CompKind::Merge)?;

    match entry {
        Attachment::Wire(from) => g.connect(from, ep(tagger.clone(), "in"))?,
        Attachment::External(name) => g.expose_input(name, ep(tagger.clone(), "in"))?,
    }
    g.connect(ep(tagger.clone(), "tagged"), ep(merge.clone(), "in0"))?;
    g.connect(loopback, ep(merge.clone(), "in1"))?;
    g.connect(ep(merge, "out"), body_in)?;
    g.connect(ep(l.branch.clone(), "f"), ep(tagger.clone(), "retag"))?;
    match exit {
        Attachment::Wire(to) => g.connect(ep(tagger, "out"), to)?,
        Attachment::External(name) => g.expose_output(name, ep(tagger, "out"))?,
    }

    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::{Op, PureFn};

    /// A canonical sequential loop with a Pure body (already normalized).
    fn seq_loop() -> ExprHigh {
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
        g
    }

    #[test]
    fn dfooo_transforms_without_purity_check() {
        let g = seq_loop();
        let opts = PipelineOptions { tags: 4, ..Default::default() };
        let g2 = dfooo_loop(&g, &"init".into(), &opts).unwrap();
        g2.validate().unwrap();
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::TaggerUntagger { .. })));
        assert!(g2.nodes().any(|(_, k)| matches!(k, CompKind::Merge)));
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Mux)));
        assert!(!g2.nodes().any(|(_, k)| matches!(k, CompKind::Init { .. })));
    }

    #[test]
    fn dfooo_fails_cleanly_without_a_loop() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Sink).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        let opts = PipelineOptions::default();
        assert!(matches!(dfooo_loop(&g, &"init".into(), &opts), Err(DfOooError::LoopNotFound)));
    }
}
