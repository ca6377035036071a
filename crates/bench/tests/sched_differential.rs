//! Differential testing of the two simulator schedulers.
//!
//! The compiled backend claims *exact* equivalence with the reference
//! sweep, the executable specification — not just the same outputs, but
//! the same cycle counts, final memory, per-node firing totals, leftovers,
//! waveforms, stall reports, and node traces. These tests pin that claim
//! against the full seven-kernel suite (in-order and after the verified
//! out-of-order transformation) and against randomly generated front-end
//! kernels.

use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, run_program, Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{Op, Value};
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, SimResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

fn run_with(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    scheduler: Scheduler,
) -> SimResult {
    let cfg = SimConfig { scheduler, ..SimConfig::default() };
    simulate(g, &start_feed(), mem, cfg).expect("simulation succeeds")
}

/// One observed run: waveform capture, stall attribution, and the node
/// trace of every node on. Every channel touches a node, so listing them
/// all keeps the waveform's full signal set.
fn run_observed(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    scheduler: Scheduler,
    wave_sample: u64,
) -> SimResult {
    let cfg = SimConfig {
        scheduler,
        waveform: true,
        attribute_stalls: true,
        trace_nodes: g.nodes().map(|(name, _)| name.clone()).collect(),
        wave_sample,
        ..SimConfig::default()
    };
    simulate(g, &start_feed(), mem, cfg).expect("observed simulation succeeds")
}

/// Asserts the compiled backend's observations match the reference
/// sweep's: byte-identical VCD, identical stall report and node trace, and
/// per-cause sums equal to the totals.
fn assert_observations_agree(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    what: &str,
) {
    let sw = run_observed(g, mem.clone(), Scheduler::ReferenceSweep, 1);
    let co = run_observed(g, mem.clone(), Scheduler::Compiled, 1);
    assert_eq!(sw.waveform, co.waveform, "{what}: VCD documents differ");
    assert_eq!(sw.stalls, co.stalls, "{what}: stall reports differ");
    assert_eq!(sw.trace, co.trace, "{what}: node traces differ");
    assert_eq!(co.trace.len() as u64, co.firings, "{what}: one node-trace event per fire");
    let report = co.stalls.as_ref().expect("attribution requested");
    assert_eq!(
        report.cause_totals().values().sum::<u64>(),
        report.stall_cycles + report.starved_cycles,
        "{what}: compiled cause sums diverge from totals"
    );
    // Sampled waveforms agree too (and attribution stays cycle-exact).
    let sws = run_observed(g, mem.clone(), Scheduler::ReferenceSweep, 5);
    let cos = run_observed(g, mem, Scheduler::Compiled, 5);
    assert_eq!(sws.waveform, cos.waveform, "{what}: sampled VCDs differ");
    assert_eq!(cos.stalls, co.stalls, "{what}: sampling changed attribution");
}

/// Asserts both schedulers agree on every observable of `g`, then
/// returns the (common) final memory so kernel sequences can be chained.
fn assert_schedulers_agree(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    what: &str,
) -> graphiti_frontend::Memory {
    let sw = run_with(g, mem.clone(), Scheduler::ReferenceSweep);
    let co = run_with(g, mem.clone(), Scheduler::Compiled);
    assert_eq!(sw.cycles, co.cycles, "{what}: cycles differ");
    assert_eq!(sw.outputs, co.outputs, "{what}: outputs differ");
    assert_eq!(sw.memory, co.memory, "{what}: memory differs");
    assert_eq!(sw.firings, co.firings, "{what}: total firings differ");
    assert_eq!(sw.firings_by_node, co.firings_by_node, "{what}: per-node firings differ");
    assert_eq!(sw.leftover_tokens, co.leftover_tokens, "{what}: leftover tokens differ");
    assert_observations_agree(g, mem, what);
    sw.memory
}

/// The seven kernels at reduced sizes (the CI smoke sizes plus gcd).
fn seven_kernels() -> Vec<Program> {
    let mut v = graphiti_bench::small_suite();
    v.push(graphiti_bench::suite::gcd(4));
    v
}

/// In-order variant: the compiled kernels as-is, both schedulers, all
/// observables equal, and the final memory matches the interpreter.
#[test]
fn schedulers_agree_on_all_kernels_in_order() {
    for p in seven_kernels() {
        let expected = run_program(&p).unwrap();
        let compiled = compile(&p).unwrap();
        let mut mem = p.arrays.clone();
        for k in &compiled.kernels {
            let (placed, _) = place_buffers(&k.graph);
            mem = assert_schedulers_agree(&placed, mem, &format!("{} (in order)", p.name));
        }
        assert_eq!(mem, expected, "{}: in-order result wrong", p.name);
    }
}

/// Out-of-order variant: each marked kernel is run through the verified
/// pipeline first (bicg's refusal leaves it in order — also worth testing).
#[test]
fn schedulers_agree_on_all_kernels_out_of_order() {
    for p in seven_kernels() {
        let compiled = compile(&p).unwrap();
        let mut mem = p.arrays.clone();
        for k in &compiled.kernels {
            let g = match k.ooo_tags {
                Some(tags) => {
                    let opts = PipelineOptions { tags, ..Default::default() };
                    optimize_loop(&k.graph, &k.inner_init, &opts).unwrap().0
                }
                None => k.graph.clone(),
            };
            let (placed, _) = place_buffers(&g);
            mem = assert_schedulers_agree(&placed, mem, &format!("{} (ooo)", p.name));
        }
    }
}

/// Store-queue kernels: multi-site and read-modify-write arrays compile
/// through a `StoreQueue` that serialises commits in program order. Both
/// schedulers must execute the queue bit-identically — same cycle counts,
/// firings, observations — and the final memory must match the
/// reference interpreter (the property whose violation the fuzzer's
/// store-race reproducer originally pinned).
#[test]
fn schedulers_agree_on_lsq_kernels() {
    for p in [graphiti_bench::suite::histogram(3, 5, 4), graphiti_bench::suite::scatter(3, 4, 6)] {
        let expected = run_program(&p).unwrap();
        let compiled = compile(&p).unwrap();
        let mut mem = p.arrays.clone();
        for k in &compiled.kernels {
            assert!(
                k.graph
                    .nodes()
                    .any(|(_, kind)| matches!(kind, graphiti_ir::CompKind::StoreQueue { .. })),
                "{}: expected a store queue in the circuit",
                p.name
            );
            let (placed, _) = place_buffers(&k.graph);
            mem = assert_schedulers_agree(&placed, mem, &format!("{} (lsq)", p.name));
        }
        assert_eq!(mem, expected, "{}: lsq result diverges from the interpreter", p.name);
    }
}

/// The verified pipeline must refuse to tag a loop that drives a store
/// queue (the sequence stream encodes program order, which tagging would
/// scramble) — and the refused circuit still runs identically on both
/// schedulers.
#[test]
fn lsq_kernels_survive_the_ooo_pipeline_unchanged() {
    let p = graphiti_bench::suite::histogram(2, 4, 3);
    let compiled = compile(&p).unwrap();
    let k = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 4, ..Default::default() };
    let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts).unwrap();
    assert!(!report.transformed, "tagging around a store queue must be refused");
    assert_eq!(&g, &k.graph, "the refusal returns the circuit unchanged");
    let (placed, _) = place_buffers(&g);
    let mem = assert_schedulers_agree(&placed, p.arrays.clone(), "histogram (refused ooo)");
    assert_eq!(mem, run_program(&p).unwrap());
}

/// Random integer kernels (same shape as the front-end codegen fuzz
/// strategy): expressions over `j`/`acc` with select, compiled and run
/// under both schedulers.
fn int_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf =
        prop_oneof![(-4i64..5).prop_map(Expr::int), Just(Expr::var("j")), Just(Expr::var("acc")),];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(Op::AddI, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(Op::SubI, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(Op::MulI, a, b)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| Expr::sel(
                Expr::bin(Op::LtI, c, Expr::int(0)),
                t,
                f
            )),
        ]
    })
}

fn kernel_strategy() -> impl Strategy<Value = Program> {
    (int_expr(3), 1i64..4, 1i64..5, -3i64..4).prop_map(|(update, trip, bound, init_acc)| {
        let inner = InnerLoop {
            vars: vec![("j".into(), Expr::var("i")), ("acc".into(), Expr::int(init_acc))],
            update: vec![
                ("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))),
                ("acc".into(), update),
            ],
            cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(bound + 4)),
            effects: vec![],
        };
        Program {
            name: "fuzz".into(),
            arrays: [("out".to_string(), vec![Value::Int(0); trip as usize])].into_iter().collect(),
            kernels: vec![OuterLoop {
                var: "i".into(),
                trip,
                inner,
                epilogue: vec![StoreStmt {
                    array: "out".into(),
                    index: Expr::var("i"),
                    value: Expr::var("acc"),
                }],
                ooo_tags: None,
            }],
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn schedulers_agree_on_random_kernels(p in kernel_strategy()) {
        let compiled = compile(&p).unwrap();
        let (placed, _) = place_buffers(&compiled.kernels[0].graph);
        let sw = run_with(&placed, p.arrays.clone(), Scheduler::ReferenceSweep);
        let co = run_with(&placed, p.arrays.clone(), Scheduler::Compiled);
        prop_assert_eq!(sw.cycles, co.cycles);
        prop_assert_eq!(&sw.outputs, &co.outputs);
        prop_assert_eq!(&sw.memory, &co.memory);
        prop_assert_eq!(&sw.firings_by_node, &co.firings_by_node);
        prop_assert_eq!(sw.leftover_tokens, co.leftover_tokens);
        // The compiled backend's observations must match the sweep's byte
        // for byte.
        let swo = run_observed(&placed, p.arrays.clone(), Scheduler::ReferenceSweep, 1);
        let coo = run_observed(&placed, p.arrays.clone(), Scheduler::Compiled, 1);
        prop_assert_eq!(&swo.waveform, &coo.waveform);
        prop_assert_eq!(&swo.stalls, &coo.stalls);
        prop_assert_eq!(&swo.trace, &coo.trace);
        prop_assert_eq!(swo.trace.len() as u64, swo.firings);
        // And the compiled run is still *correct*, not just consistent.
        let expected = run_program(&p).unwrap();
        prop_assert_eq!(&co.memory["out"], &expected["out"]);
    }
}
