//! The subset-construction checker against an independent oracle.
//!
//! `bounded_traces` enumerates a module's weak traces explicitly, one
//! (state, trace) pair at a time, and shares no code with the checker's
//! exploration over interned spec-state sets. Over seeded random graphs of
//! one to four components, paired on the same `Io(k)` ports, every
//! counterexample the checker reports must replay in the enumeration (a
//! trace of the implementation, not of the specification), every `Holds`
//! must agree with explicit trace inclusion, and so must every check that
//! only the queue cap bounded.

use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh, Op, Value};
use graphiti_sem::{
    bounded_traces, check_refinement_with_stats, denote_graph, trace_subset, BoundHit, BoundKind,
    Env, Module, RefineConfig, Refinement,
};
use proptest::test_runner::TestRng;
use proptest::Strategy;

/// Random cases checked.
const CASES: u64 = 300;

/// The event bound of the explicit inclusion checks.
const EVENTS: usize = 4;

/// The queue cap of the enumerations, high enough that neither side is
/// ever pruned (except where the implementation is enumerated at the
/// checker's own cap). The graphs are acyclic with at most four components, so a
/// token reaches a queue along at most 2³ paths (Fork and Split copy it),
/// and within four events there are at most 4 + 4 tokens to copy: the
/// inputs and the Init components' initial ones.
const CAP: usize = 64;

fn domain() -> Vec<Value> {
    vec![Value::Bool(false), Value::Int(1)]
}

/// Checker bounds: a path of at most four steps keeps every trace to
/// replay within four events, which the enumeration covers quickly, and a
/// queue cap of one lets many checks cover every state within the cap
/// before a path reaches the depth bound.
fn config() -> RefineConfig {
    RefineConfig {
        domain: domain(),
        queue_cap: 1,
        max_depth: 4,
        max_states: 5_000,
        well_typed_inputs: false,
        ..Default::default()
    }
}

/// Component kinds with at most two inputs and two outputs.
const KINDS: [CompKind; 10] = [
    CompKind::Buffer { slots: 1, transparent: false },
    CompKind::Buffer { slots: 1, transparent: true },
    CompKind::Fork { ways: 2 },
    CompKind::Merge,
    CompKind::Join,
    CompKind::Split,
    CompKind::Sink,
    CompKind::Constant { value: Value::Int(1) },
    CompKind::Init { initial: false },
    CompKind::Operator { op: Op::AddI },
];

fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize].clone()
}

/// An acyclic graph of one to four random components. Each input is wired,
/// with even odds, from a still unconsumed output of an earlier component;
/// the other ports become the graph inputs `i0, i1, …` and outputs
/// `o0, o1, …`, which lower to `Io(0), Io(1), …` in that order.
fn graph(rng: &mut TestRng) -> ExprHigh {
    let mut g = ExprHigh::new();
    let mut free: Vec<Endpoint> = Vec::new();
    let mut inputs = 0;
    for n in 0..=rng.below(4) {
        let (name, kind) = (format!("n{n}"), pick(rng, &KINDS));
        let (ins, outs) = kind.interface();
        g.add_node(&name, kind).unwrap();
        for p in ins {
            if !free.is_empty() && rng.below(2) == 0 {
                let from = free.remove(rng.below(free.len() as u64) as usize);
                g.connect(from, ep(&name, p)).unwrap();
            } else {
                g.expose_input(format!("i{inputs}"), ep(&name, p)).unwrap();
                inputs += 1;
            }
        }
        free.extend(outs.into_iter().map(|p| ep(&name, p)));
    }
    for (k, from) in free.into_iter().enumerate() {
        g.expose_output(format!("o{k}"), from).unwrap();
    }
    g
}

fn ports(g: &ExprHigh) -> (usize, usize) {
    (g.inputs().count(), g.outputs().count())
}

/// `g` with one component swapped for another kind with the same ports,
/// when it has such a component.
fn retuned(g: &ExprHigh, rng: &mut TestRng) -> ExprHigh {
    let mut g = g.clone();
    let names: Vec<String> = g.node_names().into_iter().collect();
    let name = pick(rng, &names);
    let old = g.kind(&name).cloned().expect("node exists");
    let start = rng.below(KINDS.len() as u64) as usize;
    for k in (0..KINDS.len()).map(|i| &KINDS[(start + i) % KINDS.len()]) {
        if *k != old && g.set_kind(&name, k.clone()).is_ok() {
            break;
        }
    }
    g
}

/// (implementation, specification) pairs with the same ports, at most two
/// of each direction: a graph with itself, with one component retuned, or
/// with an unrelated graph.
struct Pairs;

impl Strategy for Pairs {
    type Value = (ExprHigh, ExprHigh);

    fn generate(&self, rng: &mut TestRng) -> (ExprHigh, ExprHigh) {
        loop {
            let imp = graph(rng);
            let io = ports(&imp);
            if io.0 > 2 || io.1 > 2 {
                continue;
            }
            let spec = match rng.below(3) {
                0 => imp.clone(),
                1 => retuned(&imp, rng),
                _ => match (0..200).map(|_| graph(rng)).find(|g| ports(g) == io) {
                    Some(g) => g,
                    None => continue,
                },
            };
            return (imp, spec);
        }
    }
}

fn module(g: &ExprHigh) -> Module {
    denote_graph(g, &Env::standard()).expect("complete graph lowers").0
}

#[test]
fn checker_verdicts_agree_with_explicit_trace_enumeration() {
    let (cfg, domain) = (config(), domain());
    let (mut fails, mut holds, mut within_cap, mut bounded) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::new(case);
        let (imp_g, spec_g) = Pairs.generate(&mut rng);
        let (imp, spec) = (module(&imp_g), module(&spec_g));
        let shown = || format!("case {case}:\nimp {imp_g}\nspec {spec_g}");
        let (verdict, stats) = check_refinement_with_stats(&imp, &spec, &cfg);
        match verdict {
            Refinement::Fails { trace } => {
                fails += 1;
                let n = trace.len();
                assert!(
                    bounded_traces(&imp, &domain, n, CAP).contains(&trace),
                    "{}\nthe implementation cannot perform {trace:?}",
                    shown()
                );
                assert!(
                    !bounded_traces(&spec, &domain, n, CAP).contains(&trace),
                    "{}\nthe specification can perform {trace:?}",
                    shown()
                );
            }
            Refinement::Holds => {
                holds += 1;
                assert!(
                    trace_subset(&imp, &spec, &domain, EVENTS, CAP),
                    "{}\nholds, but a trace of at most {EVENTS} events is missing",
                    shown()
                );
            }
            // No path reached the depth bound, so the search covered every
            // implementation state within the queue cap: each trace of
            // those states must be a specification trace.
            Refinement::BoundReached(BoundHit { kind: BoundKind::QueueCap, .. })
                if stats.depth_prunes == 0 =>
            {
                within_cap += 1;
                let imp_traces = bounded_traces(&imp, &domain, EVENTS, cfg.queue_cap);
                let spec_traces = bounded_traces(&spec, &domain, EVENTS, CAP);
                let missing = imp_traces.difference(&spec_traces).next();
                assert!(missing.is_none(), "{}\nbounded by the queue cap alone, but the specification cannot perform {missing:?}", shown());
            }
            Refinement::BoundReached(_) => bounded += 1,
            Refinement::Incomparable(why) => panic!("{}\nsame ports, yet {why}", shown()),
        }
    }
    // Each verdict class the oracle checks must actually occur.
    assert!(
        fails >= 20 && holds >= 20 && within_cap >= 20,
        "fails {fails}, holds {holds}, exhaustive within the queue cap {within_cap}, \
         otherwise bounded {bounded}"
    );
}
