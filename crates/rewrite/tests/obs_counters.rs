//! The `graphiti-obs` rewrite counters must agree with the engine's own
//! application log on a known catalogue run — the log is the ground
//! truth, the counters are the cheap always-on view of the same events.
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]` — no other test races the registry.

use graphiti_ir::{ep, CompKind, ExprHigh};
use graphiti_rewrite::{catalog, Engine, Match, Replacement, Rewrite, RewriteError};
use std::collections::BTreeMap;

/// The residue phases 1-2 clean up (same shape as the engine-robustness
/// tests): a fork tree, a sunk fork output, an in-order Split/Join pair and
/// a 1-way fork.
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

fn rewrite_counter(kind: &str, name: &str) -> u64 {
    graphiti_obs::counter(&format!("rewrite.{kind}.{name}")).get()
}

#[test]
fn counters_match_engine_log() {
    graphiti_obs::reset();
    graphiti_obs::enable();

    let mut rws = catalog::normalize_phase();
    rws.extend(catalog::eliminate_phase());
    let mut engine = Engine::new();
    let mut reduced = residue();
    engine.exhaust(&mut reduced, &rws).unwrap();
    reduced.validate().unwrap();
    assert_eq!(engine.rewrites_applied(), 4);

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
    let err = engine.apply_first(&mut residue(), &broken).unwrap_err();
    assert!(matches!(err, RewriteError::BoundaryMismatch(_)), "{err}");
    assert_eq!(engine.rewrites_applied(), before);
    assert_eq!(rewrite_counter("attempted", "obs-broken"), 1);
    assert_eq!(rewrite_counter("matched", "obs-broken"), 1);
    assert_eq!(rewrite_counter("applied", "obs-broken"), 0);
    assert_eq!(rewrite_counter("refused", "obs-broken"), 1);

    graphiti_obs::disable();
    graphiti_obs::reset();
}
