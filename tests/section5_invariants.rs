//! The §5 proof structure, mechanized as executable invariants.
//!
//! The paper's refinement proof for the loop rewrite rests on:
//!
//! * **ψ (Lemma 5.2, "state invariant")** — *no-duplication*: each
//!   allocated tag appears on at most one in-flight value across the entire
//!   state; *in-order*: the Tagger's allocation order records distinct live
//!   tags and completed tags are exactly a subset of the allocated ones.
//! * **ω (Lemma 5.1, "flushing invariant")** — after the sequential loop
//!   drains, everything except its input queue is empty.
//! * **match / program order (Theorem 5.3)** — outputs leave the region in
//!   the order inputs entered.
//!
//! Lemma 5.2's statement — ψ holds initially and every internal transition
//! preserves it — is checked here on randomized walks over the denoted
//! out-of-order module: ψ is asserted at *every* step of every walk.

use graphiti::prelude::*;
use graphiti_ir::{PortName, Tag};
use graphiti_sem::{CompState, State};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the canonical sequential countdown loop and its tagged rewrite.
fn loops(tags: u32) -> (ExprHigh, ExprHigh) {
    let step =
        PureFn::comp(PureFn::Op(Op::SubI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(2))));
    let cond =
        PureFn::comp(PureFn::Op(Op::GeI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(1))));
    let f = PureFn::comp(PureFn::par(PureFn::Id, cond), PureFn::comp(PureFn::Dup, step));
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
    let mut engine = Engine::new();
    let mut ooo = g.clone();
    assert!(engine.apply_first(&mut ooo, &catalog::ooo::loop_ooo(tags)).unwrap(), "loop matches");
    (g, ooo)
}

/// The tagger leaf of a state (the out-of-order module has exactly one).
fn tagger_state(s: &State) -> &graphiti_sem::TaggerState {
    let taggers: Vec<_> = s
        .leaves()
        .iter()
        .filter_map(|l| match l {
            CompState::Tagger(t) => Some(t),
            _ => None,
        })
        .collect();
    assert_eq!(taggers.len(), 1, "one tagger in the rewritten loop");
    taggers[0]
}

/// ψ, the state invariant of Lemma 5.2.
fn psi(s: &State, tags: u32) {
    let t = tagger_state(s);

    // In-order part 1: the allocation order holds distinct tags, all from
    // the pool.
    let order: Vec<Tag> = t.order.iter().copied().collect();
    let order_set: BTreeSet<Tag> = order.iter().copied().collect();
    assert_eq!(order.len(), order_set.len(), "allocation order has duplicates");
    assert!(order_set.iter().all(|x| *x < tags), "tag outside the pool");

    // In-order part 2: free ∪ allocated = pool, disjointly.
    assert!(t.free.is_disjoint(&order_set), "free and allocated overlap");
    assert_eq!(t.free.len() + order_set.len(), tags as usize, "pool conservation");

    // Completions are a subset of the allocated tags.
    for tag in t.done.keys() {
        assert!(order_set.contains(tag), "completed tag {tag} is not allocated");
    }

    // No-duplication: per tag, at most one in-flight *data* value (Int or
    // Pair payload) and at most one in-flight *condition* (Bool payload) —
    // the Split transiently separates an iteration's value from its
    // continue bit, so the two roles are counted separately, exactly as the
    // paper's in-order property links tags with "the correct value".
    let mut data_seen: BTreeMap<Tag, usize> = BTreeMap::new();
    let mut cond_seen: BTreeMap<Tag, usize> = BTreeMap::new();
    for v in s.all_values() {
        if let (Some(tag), payload) = v.untag() {
            let slot = if matches!(payload, Value::Bool(_)) {
                cond_seen.entry(tag).or_insert(0)
            } else {
                data_seen.entry(tag).or_insert(0)
            };
            *slot += 1;
        }
    }
    for tag in t.done.keys() {
        *data_seen.entry(*tag).or_insert(0) += 1;
    }
    for (label, seen) in [("data", &data_seen), ("cond", &cond_seen)] {
        for (tag, count) in seen {
            assert!(count <= &1, "tag {tag} appears on {count} in-flight {label} values:\n{s}");
            assert!(order_set.contains(tag), "in-flight tag {tag} is not allocated");
        }
    }
}

/// Randomized walk over the module's transitions, asserting ψ at every
/// state.
fn psi_preserved_walk(tags: u32, inputs: &[i64], seed: u64) {
    let (_, ooo) = loops(tags);
    let (m, _) = denote_graph(&ooo, &Env::standard()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = m.init()[0].clone();
    psi(&state, tags);
    let mut pending: Vec<Value> = inputs.iter().rev().map(|x| Value::Int(*x)).collect();
    let in_port = PortName::Io(0);
    let out_port = PortName::Io(0);
    for _ in 0..3000 {
        let mut actions: Vec<State> = Vec::new();
        if let Some(v) = pending.last() {
            actions.extend(m.input_step(&in_port, &state, v));
        }
        let n_input_actions = actions.len();
        actions.extend(m.internal_step(&state));
        let outputs: Vec<(Value, State)> = m.output_step(&out_port, &state);
        let n_before_outputs = actions.len();
        actions.extend(outputs.into_iter().map(|(_, s)| s));
        if actions.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..actions.len());
        if pick < n_input_actions {
            pending.pop();
        }
        let _ = n_before_outputs;
        state = actions.swap_remove(pick);
        psi(&state, tags);
    }
}

#[test]
fn lemma_5_2_psi_is_preserved_by_every_step() {
    for seed in 0..10 {
        psi_preserved_walk(2, &[7, 4, 9, 2], seed);
    }
    for seed in 0..5 {
        psi_preserved_walk(4, &[3, 3, 11, 5, 6, 2], 100 + seed);
    }
}

/// ω of Lemma 5.1: once the sequential loop has emitted all results, every
/// component is empty except (possibly) its input-side queues.
#[test]
fn lemma_5_1_omega_after_flushing() {
    let (seq, _) = loops(2);
    let (m, _) = denote_graph(&seq, &Env::standard()).unwrap();
    let feeds: BTreeMap<PortName, Vec<Value>> =
        [(PortName::Io(0), vec![Value::Int(5), Value::Int(8)])].into_iter().collect();
    let r = graphiti_sem::run_random(&m, &feeds, 3, 30_000);
    assert_eq!(r.outputs[&PortName::Io(0)].len(), 2, "both inputs flushed");
    // After flushing: the only resident token is the final `false`
    // condition parked at the Mux (the loop is primed for the next input);
    // in particular no data values remain in flight.
    let residual: Vec<&Value> = r.final_state.all_values();
    assert!(
        residual.iter().all(|v| matches!(v, Value::Bool(false))),
        "unexpected in-flight values after flushing: {residual:?}"
    );
    assert!(residual.len() <= 1, "{residual:?}");
}

/// The match/program-order part of Theorem 5.3, checked directly on the
/// module: outputs appear in input order even when the scheduler lets later
/// inputs finish their loop bodies first.
#[test]
fn theorem_5_3_outputs_in_program_order() {
    let (_, ooo) = loops(3);
    let (m, _) = denote_graph(&ooo, &Env::standard()).unwrap();
    // With f(x) = x - 2 continuing while x - 2 >= 1: the input 9 steps
    // 9 -> 7 -> 5 -> 3 -> 1 -> -1 (five iterations, exits with -1) while
    // the input 2 exits immediately with 0. Under every schedule the -1
    // must still come out before the 0.
    let feeds: BTreeMap<PortName, Vec<Value>> =
        [(PortName::Io(0), vec![Value::Int(9), Value::Int(2)])].into_iter().collect();
    for seed in 0..30 {
        let r = graphiti_sem::run_random(&m, &feeds, seed, 30_000);
        let outs = &r.outputs[&PortName::Io(0)];
        assert_eq!(outs, &vec![Value::Int(-1), Value::Int(0)], "seed {seed}");
    }
}
