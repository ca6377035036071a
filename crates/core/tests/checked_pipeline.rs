//! The pipeline in *checked* mode: every rewrite application
//! records its refinement obligation, and the batch is discharged with the
//! bounded checker once the transformation is done — the runtime analogue
//! of carrying the Lean proof through the extracted tool.

use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::{compile_kernel, Expr, InnerLoop, OuterLoop};
use graphiti_ir::{CompKind, Op, Value};
use graphiti_rewrite::{verify, CheckMode, Obligation};
use graphiti_sem::{denote, run_random, Env, RefineConfig};

fn tight_cfg() -> RefineConfig {
    RefineConfig {
        domain: vec![Value::Bool(true), Value::Bool(false), Value::Int(1)],
        max_depth: 3,
        max_states: 200,
        closure_limit: 64,
        queue_cap: 2,
        well_typed_inputs: true,
    }
}

fn pure_gcd_kernel() -> OuterLoop {
    OuterLoop {
        var: "i".into(),
        trip: 2,
        inner: InnerLoop {
            vars: vec![
                ("a".into(), Expr::addi(Expr::var("i"), Expr::int(6))),
                ("b".into(), Expr::int(4)),
            ],
            update: vec![
                ("a".into(), Expr::var("b")),
                ("b".into(), Expr::bin(Op::Mod, Expr::var("a"), Expr::var("b"))),
            ],
            cond: Expr::un(Op::NeZero, Expr::var("b")),
            effects: vec![],
        },
        epilogue: vec![],
        ooo_tags: Some(2),
    }
}

#[test]
fn checked_pipeline_completes_and_transforms() {
    let kc = compile_kernel(&pure_gcd_kernel(), "gcd").unwrap();
    let unchecked = PipelineOptions { tags: 2, ..Default::default() };
    let checked = PipelineOptions { check: CheckMode::Deferred, ..unchecked.clone() };
    let (g, report) = optimize_loop(&kc.graph, &kc.inner_init, &checked).unwrap();
    assert!(report.transformed, "refusal: {:?}", report.refusal);
    assert!(g.nodes().any(|(_, k)| matches!(k, CompKind::TaggerUntagger { .. })));
    g.validate().unwrap();

    // Recording obligations does not change the circuit.
    let (g_off, r_off) = optimize_loop(&kc.graph, &kc.inner_init, &unchecked).unwrap();
    assert_eq!(g, g_off);
    assert_eq!(report.rewrites, r_off.rewrites);
    assert!(r_off.obligations.is_empty(), "an unchecked run records no obligations");

    // The batch discharges on the pool with no violation. Tight bounds:
    // each obligation is explored until BoundReached — the machinery is
    // exercised on every application while the deep verdicts are covered
    // by the dedicated refinement tests.
    let count = report.obligations.len();
    assert!(count > 0);
    let discharged = verify::discharge(report.obligations, &tight_cfg());
    assert_eq!(discharged.len(), count);
    assert!(verify::first_violation(&discharged).is_none());
}

#[test]
fn checked_and_unchecked_agree_on_refusals() {
    use graphiti_frontend::StoreStmt;
    let mut k = pure_gcd_kernel();
    k.inner.effects.push(StoreStmt {
        array: "log".into(),
        index: Expr::int(0),
        value: Expr::var("a"),
    });
    let kc = compile_kernel(&k, "gcd_store").unwrap();
    for check in [CheckMode::Off, CheckMode::Deferred] {
        let opts = PipelineOptions { tags: 2, check, ..Default::default() };
        let (g, report) = optimize_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
        assert!(!report.transformed, "{check:?}");
        assert_eq!(&g, &kc.graph, "{check:?}");
        // On refusal the original graph comes back, but the normalisation
        // rewrites applied before the refusal recorded their obligations,
        // and these must discharge.
        if check == CheckMode::Off {
            assert!(report.obligations.is_empty(), "an unchecked run records no obligations");
        } else {
            assert!(!report.obligations.is_empty(), "the refused run applied no rewrite");
            let discharged = verify::discharge(report.obligations, &tight_cfg());
            assert!(verify::first_violation(&discharged).is_none());
        }
    }
}

/// The deferred obligations of `examples/gcd.gsl`, in application order.
fn gcd_obligations() -> Vec<Obligation> {
    let program = graphiti_frontend::parse_program(include_str!("../../../examples/gcd.gsl"))
        .expect("example parses");
    let compiled = graphiti_frontend::compile(&program).expect("example compiles");
    let kernel = &compiled.kernels[0];
    let opts = PipelineOptions {
        tags: kernel.ooo_tags.expect("kernel is marked ooo"),
        check: CheckMode::Deferred,
        ..Default::default()
    };
    optimize_loop(&kernel.graph, &kernel.inner_init, &opts).unwrap().1.obligations
}

/// The checker's exploration pinned on `examples/gcd.gsl`: the verdict and
/// every exploration counter of all 7 deferred obligations, in obligation
/// order, at a 2 000-state budget. The counters depend on the DFS order
/// (internal steps first, wire by wire in denotation order, then inputs
/// and outputs with ports in name order, successors in relation order) and
/// on the visited-at-pop rule, so any change to the exploration shows up
/// here as a changed number.
#[test]
fn gcd_obligations_pin_verdicts_and_exploration_counters() {
    use graphiti_sem::{BoundHit, BoundKind, Refinement};

    let cfg = RefineConfig { max_states: 2_000, ..Default::default() };
    // `discharge` returns the verdicts in obligation order at any worker
    // count, and each check is deterministic in its obligation.
    let got: Vec<(String, Refinement, [u64; 5])> = verify::discharge(gcd_obligations(), &cfg)
        .into_iter()
        .map(|d| {
            let s = d.stats;
            let counters =
                [s.visited_states, s.frontier_peak, s.closures, s.depth_prunes, s.queue_prunes];
            (d.rewrite, d.verdict, counters)
        })
        .collect();

    let bound = |kind, at| Refinement::BoundReached(BoundHit { kind, at });
    let states = bound(BoundKind::States, 2001);
    let queue_cap = bound(BoundKind::QueueCap, 3);
    let expected: Vec<(&str, Refinement, [u64; 5])> = vec![
        ("mux-combine", states.clone(), [2001, 131, 7661, 1617, 4412]),
        ("branch-combine", states.clone(), [2001, 90, 6901, 1436, 3840]),
        ("fork1-elim", queue_cap, [21, 11, 105, 0, 64]),
        ("split-join-elim", Refinement::Holds, [1, 1, 5, 0, 0]),
        // Its left side starts with a Split, which rejects every value of
        // the default domain: a vacuous hold (see the test below).
        ("region-to-pure", Refinement::Holds, [1, 1, 5, 0, 0]),
        ("loop-ooo", states, [2001, 23, 5521, 620, 4678]),
        ("pure-expand", Refinement::Holds, [1, 1, 1, 0, 0]),
    ];
    assert_eq!(got.len(), expected.len(), "obligation count");
    for (i, ((name, verdict, counters), (want_name, want_verdict, want_counters))) in
        got.iter().zip(&expected).enumerate()
    {
        assert_eq!(name, want_name, "obligation {i}");
        assert_eq!(verdict, want_verdict, "obligation {i} ({name})");
        assert_eq!(
            counters, want_counters,
            "obligation {i} ({name}): visited/frontier/closures/depth/queue"
        );
    }
}

/// The oracle against ground truth: both sides of gcd's `region-to-pure`
/// obligation compute the loop body of the paper's Fig. 5. Fed a pair
/// `(a, b)`, each emits `(b, a mod b)` on the data port (the one the
/// replacement's Split drives from `out0`) and `a mod b ≠ 0` on the
/// condition port. The obligation's bounded check holds vacuously, so this
/// is the test that exercises what the oracle extracted and simplified.
#[test]
fn region_to_pure_computes_the_gcd_body_on_concrete_pairs() {
    let ob = gcd_obligations()
        .into_iter()
        .find(|o| o.rewrite == "region-to-pure")
        .expect("phase 3 records one region-to-pure obligation");
    let (_, _, split) = ob
        .rhs
        .bases()
        .into_iter()
        .find(|(_, kind, _)| matches!(kind, CompKind::Split))
        .expect("the replacement ends in a Split");
    let (data, cond) = (split.outs["out0"].clone(), split.outs["out1"].clone());
    let env = Env::standard();
    for (side, expr) in [("lhs", &ob.lhs), ("rhs", &ob.rhs)] {
        let m = denote(expr, &env);
        let input = match m.input_ports().as_slice() {
            [input] => input.clone(),
            ports => panic!("{side}: one input expected, got {ports:?}"),
        };
        let mut outputs = m.output_ports();
        outputs.sort();
        let mut want = vec![data.clone(), cond.clone()];
        want.sort();
        assert_eq!(outputs, want, "{side}: output ports");
        for (a, b) in [(30, 12), (7, 3), (9, 9), (1000, 17)] {
            let feeds = [(input.clone(), vec![Value::pair(Value::Int(a), Value::Int(b))])].into();
            let r = run_random(&m, &feeds, 7, 5_000);
            let emitted = |port| r.outputs.get(port).cloned().unwrap_or_default();
            let next = Value::pair(Value::Int(b), Value::Int(a % b));
            assert_eq!(emitted(&data), [next], "{side}: data for ({a}, {b})");
            assert_eq!(emitted(&cond), [Value::Bool(a % b != 0)], "{side}: cond for ({a}, {b})");
        }
    }
}
