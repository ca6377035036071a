//! End-to-end behaviour of the out-of-order transformation:
//!
//! * the optimized circuit computes the same memory as the sequential one
//!   and as the reference interpreter,
//! * it is substantially faster when the inner loop's latency can be
//!   overlapped across outer iterations,
//! * impure loop bodies are refused (the bicg case) while the unverified
//!   DF-OoO transformation proceeds; its stores still commit in program
//!   order through the in-order store queue, so no run here shows the
//!   paper's memory corruption,
//! * on every loop it transforms, the verified flow builds the DF-OoO
//!   circuit up to node names.

use graphiti_bench::suite::{evaluation_suite, gcd};
use graphiti_core::{dfooo_loop, optimize_loop, PipelineOptions, Refusal};
use graphiti_frontend::{compile, run_program, Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{ep, Attachment, Endpoint, ExprHigh, NodeId, Op, Value};
use graphiti_rewrite::CheckMode;
use graphiti_sim::{place_buffers, simulate, Memory, SimConfig};
use std::collections::BTreeMap;

fn run_graph(g: &ExprHigh, mem: Memory) -> graphiti_sim::SimResult {
    let (g, _) = place_buffers(g);
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    simulate(&g, &feeds, mem, SimConfig::default()).expect("simulation succeeds")
}

/// Float accumulation benchmark (mini matvec): high in-order II from the
/// loop-carried fadd, independent outer iterations.
fn accum_program(trip: i64, m: i64, tags: u32) -> Program {
    let inner = InnerLoop {
        vars: vec![
            ("j".into(), Expr::int(0)),
            ("acc".into(), Expr::f64(0.0)),
            ("off".into(), Expr::muli(Expr::var("i"), Expr::int(m))),
        ],
        update: vec![
            ("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))),
            (
                "acc".into(),
                Expr::addf(
                    Expr::var("acc"),
                    Expr::load("a", Expr::addi(Expr::var("off"), Expr::var("j"))),
                ),
            ),
            ("off".into(), Expr::var("off")),
        ],
        cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(m)),
        effects: vec![],
    };
    Program {
        name: "accum".into(),
        arrays: [
            (
                "a".to_string(),
                (0..trip * m).map(|k| Value::from_f64((k % 7) as f64 + 0.5)).collect(),
            ),
            ("y".to_string(), vec![Value::from_f64(0.0); trip as usize]),
        ]
        .into_iter()
        .collect(),
        kernels: vec![OuterLoop {
            var: "i".into(),
            trip,
            inner,
            epilogue: vec![StoreStmt {
                array: "y".into(),
                index: Expr::var("i"),
                value: Expr::var("acc"),
            }],
            ooo_tags: Some(tags),
        }],
    }
}

#[test]
fn ooo_accumulation_is_correct_and_faster() {
    let p = accum_program(8, 6, 6);
    let expected = run_program(&p).unwrap();
    let compiled = compile(&p).unwrap();
    let kc = &compiled.kernels[0];

    // Sequential (DF-IO).
    let seq = run_graph(&kc.graph, p.arrays.clone());
    assert_eq!(seq.memory["y"], expected["y"], "sequential circuit is correct");

    // Verified out-of-order.
    let opts = PipelineOptions { tags: 6, ..Default::default() };
    let (opt, report) = optimize_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    assert!(report.transformed, "refusal: {:?}", report.refusal);
    assert_eq!(report.rewrites, 10);
    // Every application records its obligation, so a deferred run's
    // obligations are the rewrite log: one oracle step, one loop rewrite
    // and one expansion, after the normalization rewrites.
    let deferred = PipelineOptions { check: CheckMode::Deferred, ..opts.clone() };
    let (_, checked) = optimize_loop(&kc.graph, &kc.inner_init, &deferred).unwrap();
    let log: Vec<&str> = checked.obligations.iter().map(|o| o.rewrite.as_str()).collect();
    assert_eq!(log.len(), report.rewrites);
    for name in ["region-to-pure", "loop-ooo", "pure-expand"] {
        assert_eq!(log.iter().filter(|n| **n == name).count(), 1, "{name} in {log:?}");
    }
    let ooo = run_graph(&opt, p.arrays.clone());
    assert_eq!(ooo.memory["y"], expected["y"], "out-of-order circuit is correct");

    let speedup = seq.cycles as f64 / ooo.cycles as f64;
    assert!(
        speedup > 2.0,
        "expected >2x cycle speedup, got {speedup:.2} ({} -> {})",
        seq.cycles,
        ooo.cycles
    );
}

#[test]
fn ooo_gcd_program_is_correct() {
    let inner = InnerLoop {
        vars: vec![
            ("a".into(), Expr::load("arr1", Expr::var("i"))),
            ("b".into(), Expr::load("arr2", Expr::var("i"))),
        ],
        update: vec![
            ("a".into(), Expr::var("b")),
            ("b".into(), Expr::bin(Op::Mod, Expr::var("a"), Expr::var("b"))),
        ],
        cond: Expr::un(Op::NeZero, Expr::var("b")),
        effects: vec![],
    };
    let p = Program {
        name: "gcd".into(),
        arrays: [
            (
                "arr1".to_string(),
                vec![
                    Value::Int(12),
                    Value::Int(35),
                    Value::Int(1024),
                    Value::Int(17),
                    Value::Int(90),
                ],
            ),
            (
                "arr2".to_string(),
                vec![Value::Int(18), Value::Int(21), Value::Int(6), Value::Int(5), Value::Int(120)],
            ),
            ("result".to_string(), vec![Value::Int(0); 5]),
        ]
        .into_iter()
        .collect(),
        kernels: vec![OuterLoop {
            var: "i".into(),
            trip: 5,
            inner,
            epilogue: vec![StoreStmt {
                array: "result".into(),
                index: Expr::var("i"),
                value: Expr::var("a"),
            }],
            ooo_tags: Some(4),
        }],
    };
    let expected = run_program(&p).unwrap();
    let compiled = compile(&p).unwrap();
    let kc = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 4, ..Default::default() };
    let (opt, report) = optimize_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    assert!(report.transformed, "refusal: {:?}", report.refusal);
    let ooo = run_graph(&opt, p.arrays.clone());
    assert_eq!(ooo.memory["result"], expected["result"]);
}

/// A bicg-like kernel: a store *inside* the inner loop body.
fn store_in_body_program() -> Program {
    let n = 4i64;
    let inner = InnerLoop {
        vars: vec![
            ("j".into(), Expr::int(0)),
            ("q".into(), Expr::f64(0.0)),
            ("off".into(), Expr::muli(Expr::var("i"), Expr::int(n))),
        ],
        update: vec![
            ("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))),
            (
                "q".into(),
                Expr::addf(
                    Expr::var("q"),
                    Expr::load("a", Expr::addi(Expr::var("off"), Expr::var("j"))),
                ),
            ),
            ("off".into(), Expr::var("off")),
        ],
        cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(n)),
        // s[j] = s[j] + a[off + j]: the impure accumulation across outer
        // iterations that makes reordering unsound.
        effects: vec![StoreStmt {
            array: "s".into(),
            index: Expr::var("j"),
            value: Expr::addf(
                Expr::load("s", Expr::var("j")),
                Expr::load("a", Expr::addi(Expr::var("off"), Expr::var("j"))),
            ),
        }],
    };
    Program {
        name: "bicg_like".into(),
        arrays: [
            ("a".to_string(), (0..n * n).map(|k| Value::from_f64(k as f64)).collect()),
            ("s".to_string(), vec![Value::from_f64(0.0); n as usize]),
            ("qout".to_string(), vec![Value::from_f64(0.0); n as usize]),
        ]
        .into_iter()
        .collect(),
        kernels: vec![OuterLoop {
            var: "i".into(),
            trip: n,
            inner,
            epilogue: vec![StoreStmt {
                array: "qout".into(),
                index: Expr::var("i"),
                value: Expr::var("q"),
            }],
            ooo_tags: Some(4),
        }],
    }
}

#[test]
fn impure_body_is_refused_and_left_as_df_io() {
    let p = store_in_body_program();
    let expected = run_program(&p).unwrap();
    let compiled = compile(&p).unwrap();
    let kc = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 4, ..Default::default() };
    let (opt, report) = optimize_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    assert!(!report.transformed);
    assert!(matches!(report.refusal, Some(Refusal::ImpureBody(_))), "{:?}", report.refusal);
    // The graph is returned untouched: GRAPHITI == DF-IO for bicg.
    assert_eq!(&opt, &kc.graph);
    let r = run_graph(&opt, p.arrays.clone());
    assert_eq!(r.memory["s"], expected["s"]);
    assert_eq!(r.memory["qout"], expected["qout"]);
}

#[test]
fn unverified_dfooo_transforms_the_impure_loop() {
    let p = store_in_body_program();
    let compiled = compile(&p).unwrap();
    let kc = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 4, ..Default::default() };
    // The unverified transformation goes ahead...
    let g2 = dfooo_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    assert!(g2.nodes().any(|(_, k)| matches!(k, graphiti_ir::CompKind::TaggerUntagger { .. })));
    // ...and the resulting circuit still runs. Nothing in the
    // transformation forbids a store reordering; only the pure part, the
    // q accumulation, is asserted to match the reference here.
    let expected = run_program(&p).unwrap();
    let r = run_graph(&g2, p.arrays.clone());
    assert_eq!(r.memory["qout"], expected["qout"], "pure accumulation is unaffected");
}

#[test]
fn dfooo_matches_verified_performance_on_pure_loops() {
    let p = accum_program(8, 6, 6);
    let compiled = compile(&p).unwrap();
    let kc = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 6, ..Default::default() };
    let (opt, _) = optimize_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    let dfooo = dfooo_loop(&kc.graph, &kc.inner_init, &opts).unwrap();
    let a = run_graph(&opt, p.arrays.clone());
    let b = run_graph(&dfooo, p.arrays.clone());
    assert_eq!(a.memory["y"], b.memory["y"]);
    let ratio = a.cycles as f64 / b.cycles as f64;
    assert!(
        (0.7..1.5).contains(&ratio),
        "verified and unverified flows should perform alike: {} vs {}",
        a.cycles,
        b.cycles
    );
}

/// A node bijection grown from the external ports inward.
#[derive(Default)]
struct Renaming {
    fwd: BTreeMap<NodeId, NodeId>,
    back: BTreeMap<NodeId, NodeId>,
    todo: Vec<(NodeId, NodeId)>,
}

impl Renaming {
    /// Binds the node of `x` to the node of `y`; the ports must agree, and
    /// neither node may already be bound to another.
    fn bind(&mut self, x: &Endpoint, y: &Endpoint) -> Result<(), String> {
        if x.port != y.port {
            return Err(format!("`{x}` faces `{y}`"));
        }
        match (self.fwd.get(&x.node), self.back.get(&y.node)) {
            (None, None) => {
                self.fwd.insert(x.node.clone(), y.node.clone());
                self.back.insert(y.node.clone(), x.node.clone());
                self.todo.push((x.node.clone(), y.node.clone()));
                Ok(())
            }
            (Some(fy), Some(bx)) if *fy == y.node && *bx == x.node => Ok(()),
            _ => Err(format!("`{}` and `{}` are bound twice", x.node, y.node)),
        }
    }
}

/// Whether `a` and `b` are one circuit up to a renaming of nodes: external
/// ports bind by name, wires are followed port by port from there, every
/// bound pair has the same `CompKind` and the same peer on every port, and
/// every node of both graphs is reached.
fn same_up_to_node_names(a: &ExprHigh, b: &ExprHigh) -> Result<(), String> {
    let names = |g: &ExprHigh| {
        let ins: Vec<String> = g.inputs().map(|(n, _)| n.clone()).collect();
        let outs: Vec<String> = g.outputs().map(|(n, _)| n.clone()).collect();
        (ins, outs)
    };
    if names(a) != names(b) {
        return Err(format!("external ports differ: {:?} vs {:?}", names(a), names(b)));
    }
    let mut r = Renaming::default();
    for ((_, x), (_, y)) in a.inputs().zip(b.inputs()).chain(a.outputs().zip(b.outputs())) {
        r.bind(x, y)?;
    }
    while let Some((x, y)) = r.todo.pop() {
        let kind = a.kind(&x).expect("bound node");
        if b.kind(&y) != Some(kind) {
            return Err(format!("`{x}` is {kind:?}, `{y}` is {:?}", b.kind(&y)));
        }
        let (ins, outs) = kind.interface();
        let mut peers = Vec::new();
        for p in ins {
            peers.push((a.driver(&ep(x.clone(), p.clone())), b.driver(&ep(y.clone(), p))));
        }
        for p in outs {
            peers.push((a.consumer(&ep(x.clone(), p.clone())), b.consumer(&ep(y.clone(), p))));
        }
        for peer in peers {
            match peer {
                (Some(Attachment::Wire(u)), Some(Attachment::Wire(v))) => r.bind(&u, &v)?,
                (Some(Attachment::External(m)), Some(Attachment::External(n))) if m == n => {}
                (pa, pb) => return Err(format!("`{x}` meets {pa:?}, `{y}` meets {pb:?}")),
            }
        }
    }
    if r.fwd.len() != a.node_count() || r.back.len() != b.node_count() {
        return Err(format!(
            "{} of {} and {} of {} nodes reached",
            r.fwd.len(),
            a.node_count(),
            r.back.len(),
            b.node_count()
        ));
    }
    Ok(())
}

/// DESIGN §5: on pure loops the DF-OoO surgery and the verified flow build
/// the same circuit. Only the verified flow's fresh node names differ.
#[test]
fn the_verified_flow_is_dfooo_up_to_node_names() {
    let mut programs = evaluation_suite();
    programs.push(gcd(8));
    let (mut transformed, mut refused) = (Vec::new(), Vec::new());
    for p in &programs {
        for k in compile(p).unwrap().kernels {
            let Some(tags) = k.ooo_tags else { continue };
            let name = format!("{}/{}", p.name, k.name);
            let opts = PipelineOptions { tags, ..Default::default() };
            let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts).unwrap();
            if !report.transformed {
                refused.push(name);
                continue;
            }
            let dfooo = dfooo_loop(&k.graph, &k.inner_init, &opts).unwrap();
            if let Err(e) = same_up_to_node_names(&g, &dfooo) {
                panic!("{name}: {e}");
            }
            transformed.push(name);
        }
    }
    assert_eq!(
        transformed,
        [
            "gemm/gemm_k0",
            "gsum-many/gsum-many_k0",
            "gsum-single/gsum-single_k0",
            "matvec/matvec_k0",
            "mvt/mvt_k0",
            "mvt/mvt_k1",
            "gcd/gcd_k0"
        ]
    );
    assert_eq!(refused, ["bicg/bicg_k0"]);
}

/// The matcher itself: a renamed copy matches, a rewired or re-kinded one
/// does not.
#[test]
fn the_node_name_matcher_tells_rewiring_from_renaming() {
    let chain = |names: [&str; 2], second: graphiti_ir::CompKind, swap: bool| {
        let mut g = ExprHigh::new();
        g.add_node(names[0], graphiti_ir::CompKind::Fork { ways: 2 }).unwrap();
        g.add_node(names[1], second).unwrap();
        g.expose_input("x", ep(names[0], "in")).unwrap();
        let (p, q) = if swap { ("out1", "out0") } else { ("out0", "out1") };
        g.connect(ep(names[0], p), ep(names[1], "in0")).unwrap();
        g.connect(ep(names[0], q), ep(names[1], "in1")).unwrap();
        g.expose_output("y", ep(names[1], "out")).unwrap();
        g
    };
    let sub = || graphiti_ir::CompKind::Operator { op: Op::SubI };
    let base = chain(["f", "s"], sub(), false);
    assert_eq!(same_up_to_node_names(&base, &chain(["g", "t"], sub(), false)), Ok(()));
    assert!(same_up_to_node_names(&base, &chain(["f", "s"], sub(), true)).is_err());
    let add = graphiti_ir::CompKind::Operator { op: Op::AddI };
    assert!(same_up_to_node_names(&base, &chain(["f", "s"], add, false)).is_err());
}
