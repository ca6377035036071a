//! The `graphiti-obs` rewrite counters must agree with the engine's own
//! application log on a known catalogue run — the log is the ground
//! truth, the counters are the cheap always-on view of the same events.
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]` — no other test races the registry.

use graphiti_ir::{ep, CompKind, ExprHigh, Op};
use graphiti_rewrite::{catalog, Engine, Match, Replacement, Rewrite, RewriteError};
use std::collections::BTreeMap;

/// The GCD-ish body region of the paper's Fig. 5 (same shape as the
/// engine-robustness tests): split, fork, mod, nez, joins.
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

fn rewrite_counter(kind: &str, name: &str) -> u64 {
    graphiti_obs::counter(&format!("rewrite.{kind}.{name}")).get()
}

#[test]
fn counters_match_engine_log() {
    graphiti_obs::reset();
    graphiti_obs::enable();

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
    let mut engine = Engine::new();
    let mut reduced = body_region();
    engine.exhaust(&mut reduced, &rws, None).unwrap();
    reduced.validate().unwrap();
    assert!(engine.rewrites_applied() >= 5, "applied {}", engine.rewrites_applied());

    // Per-rewrite applied counters equal the log's per-rewrite counts.
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for a in &engine.log {
        *by_name.entry(a.rewrite.as_str()).or_default() += 1;
    }
    for rw in &rws {
        let applied = rewrite_counter("applied", rw.name);
        let matched = rewrite_counter("matched", rw.name);
        let attempted = rewrite_counter("attempted", rw.name);
        assert_eq!(
            applied,
            by_name.get(rw.name).copied().unwrap_or(0),
            "applied counter for `{}` disagrees with engine log",
            rw.name
        );
        assert_eq!(rewrite_counter("refused", rw.name), 0, "{}", rw.name);
        assert!(matched >= applied, "{}: matched {matched} < applied {applied}", rw.name);
        assert!(attempted >= matched, "{}: attempted {attempted} < matched {matched}", rw.name);
    }
    let total: u64 = rws.iter().map(|rw| rewrite_counter("applied", rw.name)).sum();
    assert_eq!(total as usize, engine.rewrites_applied());

    // A rejected application lands in the refused counter, not applied,
    // and leaves the engine log untouched (mirrors the boundary-mismatch
    // robustness test, now observed through the registry).
    let broken = Rewrite::new(
        "obs-broken",
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
    let before = engine.rewrites_applied();
    let err = engine.apply_first(&mut body_region(), &broken).unwrap_err();
    assert!(matches!(err, RewriteError::BoundaryMismatch(_)), "{err}");
    assert_eq!(engine.rewrites_applied(), before);
    assert_eq!(rewrite_counter("attempted", "obs-broken"), 1);
    assert_eq!(rewrite_counter("matched", "obs-broken"), 1);
    assert_eq!(rewrite_counter("applied", "obs-broken"), 0);
    assert_eq!(rewrite_counter("refused", "obs-broken"), 1);

    graphiti_obs::disable();
    graphiti_obs::reset();
}
