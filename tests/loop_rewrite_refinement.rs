//! The paper's §5: the out-of-order loop refines the sequential loop.
//!
//! Theorem 5.3 is checked three ways:
//! 1. bounded trace inclusion `⟦rhs⟧ ⊑ ⟦lhs⟧` on a small value domain,
//! 2. randomized nondeterministic execution — any scheduling of the tagged
//!    loop must produce the sequential loop's output stream, including its
//!    order (the in-order release property of the Untagger, §5.2),
//! 3. property-based testing over random input batches (GCD pairs).

use graphiti::prelude::*;
use graphiti_ir::PortName;
use graphiti_sem::run_random;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds the canonical sequential loop with body `f`.
fn seq_loop(f: PureFn) -> ExprHigh {
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

/// The GCD step `f(a, b) = ((b, a mod b), (a mod b) != 0)`.
fn gcd_body() -> PureFn {
    PureFn::comp(
        PureFn::par(PureFn::Id, PureFn::Op(Op::NeZero)),
        PureFn::comp(
            PureFn::par(PureFn::pair(PureFn::Snd, PureFn::Op(Op::Mod)), PureFn::Op(Op::Mod)),
            PureFn::Dup,
        ),
    )
}

/// Countdown body `f(x) = (x - 2, x - 2 >= 1)`: distinguishable exits.
fn countdown_body() -> PureFn {
    let step =
        PureFn::comp(PureFn::Op(Op::SubI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(2))));
    let cond =
        PureFn::comp(PureFn::Op(Op::GeI), PureFn::pair(PureFn::Id, PureFn::Const(Value::Int(1))));
    PureFn::comp(PureFn::par(PureFn::Id, cond), PureFn::comp(PureFn::Dup, step))
}

fn apply_ooo(g: &ExprHigh, tags: u32) -> ExprHigh {
    let mut g = g.clone();
    assert!(
        Engine::new().apply_first(&mut g, &catalog::ooo::loop_ooo(tags)).unwrap(),
        "loop matches"
    );
    g
}

#[test]
fn bounded_trace_inclusion_holds() {
    let lhs = seq_loop(countdown_body());
    let rhs = apply_ooo(&lhs, 2);
    let (imp, _) = denote_graph(&rhs, &Env::standard()).unwrap();
    let (spec, _) = denote_graph(&lhs, &Env::standard()).unwrap();
    let cfg = RefineConfig {
        domain: vec![Value::Int(2), Value::Int(3)],
        max_depth: 16,
        max_states: 300_000,
        ..Default::default()
    };
    let r = check_refinement(&imp, &spec, &cfg);
    assert!(r.is_ok(), "{r:?}");
}

fn run_loop(g: &ExprHigh, inputs: &[Value], seed: u64) -> Vec<Value> {
    let (m, _) = denote_graph(g, &Env::standard()).unwrap();
    let feeds: BTreeMap<PortName, Vec<Value>> =
        [(PortName::Io(0), inputs.to_vec())].into_iter().collect();
    let r = run_random(&m, &feeds, seed, 60_000);
    assert!(r.inputs_exhausted, "schedule starved the inputs");
    r.outputs.get(&PortName::Io(0)).cloned().unwrap_or_default()
}

#[test]
fn any_schedule_preserves_program_order() {
    let lhs = seq_loop(countdown_body());
    let rhs = apply_ooo(&lhs, 3);
    let inputs: Vec<Value> = [7, 2, 9, 4, 3].iter().map(|x| Value::Int(*x)).collect();
    let expected = run_loop(&lhs, &inputs, 0);
    assert_eq!(expected.len(), inputs.len());
    for seed in 0..25 {
        let got = run_loop(&rhs, &inputs, seed);
        assert_eq!(got, expected, "seed {seed}");
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = b;
        b = a.rem_euclid(b);
        a = t;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random GCD batches through the tagged loop, random schedules: the
    /// output stream equals the sequential results, in order.
    #[test]
    fn ooo_gcd_refines_sequential_gcd(
        pairs in proptest::collection::vec((1i64..300, 1i64..300), 1..5),
        seed in 0u64..1000,
    ) {
        let lhs = seq_loop(gcd_body());
        let rhs = apply_ooo(&lhs, 3);
        let inputs: Vec<Value> = pairs
            .iter()
            .map(|(a, b)| Value::pair(Value::Int(*a), Value::Int(*b)))
            .collect();
        let expected: Vec<Value> = pairs
            .iter()
            .map(|(a, b)| Value::pair(Value::Int(gcd(*a, *b)), Value::Int(0)))
            .collect();
        let got = run_loop(&rhs, &inputs, seed);
        prop_assert_eq!(got, expected);
    }

    /// The tag pool bounds in-flight executions but never loses or
    /// duplicates results, for any pool size.
    #[test]
    fn tag_pool_size_does_not_affect_results(
        tags in 1u32..6,
        xs in proptest::collection::vec(2i64..20, 1..6),
        seed in 0u64..500,
    ) {
        let lhs = seq_loop(countdown_body());
        let rhs = apply_ooo(&lhs, tags);
        let inputs: Vec<Value> = xs.iter().map(|x| Value::Int(*x)).collect();
        let expected = run_loop(&lhs, &inputs, 1);
        let got = run_loop(&rhs, &inputs, seed);
        prop_assert_eq!(got, expected);
    }
}
