//! Defining and checking a rewrite.
//!
//! Shows the verification story of the paper at work in the executable
//! setting: the engine records each application's refinement
//! obligation and `verify::discharge` checks it. A *correct* rewrite (the
//! canonical out-of-order loop rewrite of Fig. 3d) passes, while a
//! deliberately *wrong* variant — a Merge loop **without** the
//! Tagger/Untagger, which can emit results out of program order — fails the
//! bounded refinement check with a counterexample trace.
//!
//! Run with: `cargo run --release --example verified_rewrite`

use graphiti::prelude::*;
use graphiti::rewrite::verify::{discharge, first_violation};
use graphiti::rewrite::{Match, Replacement, RewriteError};
use graphiti_ir::GraphError;
use std::collections::BTreeMap;

/// The canonical sequential loop of Fig. 3d (lhs), with a tiny integer body
/// `f(x) = (x - 2, x - 2 >= 1)`, chosen so different inputs take different
/// iteration counts *and* exit with distinguishable values — a reordering
/// of loop executions is then visible in the traces.
fn countdown_loop() -> Result<ExprHigh, GraphError> {
    let step =
        PureFn::comp(PureFn::Op(Op::SubI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(2))));
    let continue_cond =
        PureFn::comp(PureFn::Op(Op::GeI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(1))));
    let f = PureFn::comp(PureFn::par(PureFn::Id, continue_cond), PureFn::comp(PureFn::Dup, step));
    let mut g = ExprHigh::new();
    g.add_node("mux", CompKind::Mux)?;
    g.add_node("body", CompKind::Pure { func: f })?;
    g.add_node("split", CompKind::Split)?;
    g.add_node("br", CompKind::Branch)?;
    g.add_node("fork", CompKind::Fork { ways: 2 })?;
    g.add_node("init", CompKind::Init { initial: false })?;
    g.connect(ep("mux", "out"), ep("body", "in"))?;
    g.connect(ep("body", "out"), ep("split", "in"))?;
    g.connect(ep("split", "out0"), ep("br", "in"))?;
    g.connect(ep("split", "out1"), ep("fork", "in"))?;
    g.connect(ep("fork", "out0"), ep("br", "cond"))?;
    g.connect(ep("fork", "out1"), ep("init", "in"))?;
    g.connect(ep("init", "out"), ep("mux", "cond"))?;
    g.connect(ep("br", "t"), ep("mux", "t"))?;
    g.expose_input("entry", ep("mux", "f"))?;
    g.expose_output("exit", ep("br", "f"))?;
    Ok(g)
}

/// An *unsound* variant of the loop rewrite: Mux -> Merge with no
/// Tagger/Untagger. Results can overtake each other and leave the loop out
/// of program order — new behaviours the sequential loop does not have.
fn unsound_loop_ooo() -> Rewrite {
    let sound = catalog::ooo::loop_ooo(2);
    // Every application records an obligation: discharging this one
    // exposes the unsound rewrite.
    Rewrite::new(
        "loop-ooo-unsound",
        move |g| sound.matches(g),
        move |g, m: &Match| {
            let body_func = match g.kind(m.node("body")) {
                Some(CompKind::Pure { func }) => func.clone(),
                _ => return Err(RewriteError::BuilderFailed("body is not pure".into())),
            };
            let mut frag = ExprHigh::new();
            let build = || -> Result<ExprHigh, GraphError> {
                let mut fr = ExprHigh::new();
                fr.add_node("merge", CompKind::Merge)?;
                fr.add_node("body", CompKind::Pure { func: body_func.clone() })?;
                fr.add_node("split", CompKind::Split)?;
                fr.add_node("br", CompKind::Branch)?;
                fr.connect(ep("merge", "out"), ep("body", "in"))?;
                fr.connect(ep("body", "out"), ep("split", "in"))?;
                fr.connect(ep("split", "out0"), ep("br", "in"))?;
                fr.connect(ep("split", "out1"), ep("br", "cond"))?;
                fr.connect(ep("br", "t"), ep("merge", "in1"))?;
                fr.expose_input("entry", ep("merge", "in0"))?;
                fr.expose_output("exit", ep("br", "f"))?;
                Ok(fr)
            };
            frag.clone_from(&build().map_err(RewriteError::Graph)?);
            let mut ins = BTreeMap::new();
            ins.insert("entry".to_string(), ep(m.node("mux").clone(), "f"));
            let mut outs = BTreeMap::new();
            outs.insert("exit".to_string(), ep(m.node("branch").clone(), "f"));
            Ok(Replacement::Subgraph { graph: frag, boundary_ins: ins, boundary_outs: outs })
        },
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut g = countdown_loop()?;
    // Inputs 2 (one iteration, exits 0) and 3 (two iterations, exits -1).
    let cfg = RefineConfig {
        domain: vec![Value::Int(2), Value::Int(3)],
        max_depth: 20,
        max_states: 400_000,
        ..Default::default()
    };

    // The sound rewrite's obligation holds.
    let mut engine = Engine::deferring();
    let mut g2 = g.clone();
    assert!(engine.apply_first(&mut g2, &catalog::ooo::loop_ooo(2))?, "loop matches");
    g2.validate()?;
    let verdicts = discharge(engine.obligations, &cfg);
    println!("sound loop-ooo: applied, checker verdict = {:?}", verdicts[0].verdict);
    assert!(first_violation(&verdicts).is_none());

    // The unsound variant's obligation fails with a counterexample trace.
    let mut engine = Engine::deferring();
    assert!(engine.apply_first(&mut g, &unsound_loop_ooo())?, "loop matches");
    let verdicts = discharge(engine.obligations, &cfg);
    let bad = first_violation(&verdicts).expect("a refinement violation");
    let Refinement::Fails { trace } = &bad.verdict else {
        panic!("expected a counterexample, got {:?}", bad.verdict)
    };
    println!("unsound `{}` rejected; counterexample:", bad.rewrite);
    for e in trace {
        println!("  {e}");
    }
    Ok(())
}
