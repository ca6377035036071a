//! Waveform capture and stall attribution at benchmark scale.
//!
//! The sim crate pins the recorder and attribution engine on small
//! hand-built graphs; these tests pin them on the real compiled suite:
//! the VCD dump must be *byte-identical* under both schedulers on all
//! seven differential kernels, dumps must replay cleanly (change-based,
//! monotonic, tag lanes defined only while a token is present), and on
//! random front-end kernels the per-cause counters must partition each
//! node's lost cycles exactly.

use graphiti_frontend::{compile, Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{Op, Value};
use graphiti_obs::vcd::{self, VcdValue};
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, SimResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

/// The seven kernels at reduced sizes (the CI smoke sizes plus gcd).
fn seven_kernels() -> Vec<Program> {
    let mut v = graphiti_bench::small_suite();
    v.push(graphiti_bench::suite::gcd(4));
    v
}

fn run_with(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    cfg: SimConfig,
) -> SimResult {
    simulate(g, &start_feed(), mem, cfg).expect("simulation succeeds")
}

/// Every kernel of every suite program dumps the same bytes under the
/// compiled backend as under the reference sweep: the waveform is a
/// property of the circuit, not of the scheduling core.
#[test]
fn waveforms_are_byte_identical_across_schedulers_on_the_suite() {
    for p in seven_kernels() {
        let compiled = compile(&p).unwrap();
        let mut mem_co = p.arrays.clone();
        let mut mem_sw = p.arrays.clone();
        for k in &compiled.kernels {
            let (placed, _) = place_buffers(&k.graph);
            let cfg = |scheduler| SimConfig { waveform: true, scheduler, ..SimConfig::default() };
            let co = run_with(&placed, mem_co, cfg(Scheduler::Compiled));
            let sw = run_with(&placed, mem_sw, cfg(Scheduler::ReferenceSweep));
            let (co_vcd, sw_vcd) = (co.waveform.unwrap(), sw.waveform.unwrap());
            assert!(!co_vcd.is_empty(), "{}: empty waveform", p.name);
            assert_eq!(co_vcd, sw_vcd, "{}: waveform depends on the scheduler", p.name);
            mem_co = co.memory;
            mem_sw = sw.memory;
        }
    }
}

/// Replays a kernel's dump change-by-change and checks the recorder's
/// contract: three wires per channel, strictly monotonic change times,
/// no redundant changes (change-based dump), scalar lanes confined to
/// 0/1, and a tag lane that is only ever defined while the channel
/// holds a token (`valid` is 1).
fn replay_one(p: &Program) {
    let compiled = compile(p).unwrap();
    let mut mem = p.arrays.clone();
    for k in &compiled.kernels {
        let (placed, _) = place_buffers(&k.graph);
        let r = run_with(&placed, mem, SimConfig { waveform: true, ..SimConfig::default() });
        let dump = vcd::parse(r.waveform.as_ref().unwrap()).expect("dump parses");
        assert_eq!(dump.signals.len() % 3, 0, "valid/ready/tag per channel");
        assert!(dump.end_time() < r.cycles);
        for sig in &dump.signals {
            let changes = &dump.changes[&sig.name];
            for w in changes.windows(2) {
                assert!(w[0].0 < w[1].0, "{}: non-monotonic times", sig.name);
                assert_ne!(w[0].1, w[1].1, "{}: redundant change recorded", sig.name);
            }
            if sig.width == 1 {
                for &(t, v) in changes {
                    assert!(
                        matches!(v, VcdValue::Bits(0) | VcdValue::Bits(1)),
                        "{}: non-binary scalar {v:?} at {t}",
                        sig.name
                    );
                }
            }
            if let Some(chan) = sig.name.strip_suffix(".tag") {
                for &(t, v) in changes {
                    if v != VcdValue::X {
                        assert_eq!(
                            dump.value_at(&format!("{chan}.valid"), t),
                            Some(VcdValue::Bits(1)),
                            "{}: tag defined on an empty channel at {t}",
                            sig.name
                        );
                    }
                }
            }
        }
        mem = r.memory;
    }
}

/// Golden replay on two of the seven differential kernels: the loop
/// kernel with the deepest control (gcd) and the first CI smoke kernel.
#[test]
fn vcd_replay_holds_on_two_suite_kernels() {
    replay_one(&graphiti_bench::suite::gcd(4));
    replay_one(&graphiti_bench::small_suite()[0]);
}

/// Attribution on the full suite: every classified node-cycle lands in
/// exactly one cause bucket, so the per-node cause sums — and the report
/// totals — partition the lost cycles, on every kernel of every program.
#[test]
fn attribution_partitions_lost_cycles_on_the_suite() {
    for p in seven_kernels() {
        let compiled = compile(&p).unwrap();
        let mut mem = p.arrays.clone();
        for k in &compiled.kernels {
            let (placed, _) = place_buffers(&k.graph);
            let r = run_with(
                &placed,
                mem,
                SimConfig { attribute_stalls: true, ..SimConfig::default() },
            );
            let report = r.stalls.expect("attribution requested");
            let (mut stalled, mut starved) = (0u64, 0u64);
            for (node, stats) in &report.by_node {
                assert_eq!(
                    stats.causes.values().sum::<u64>(),
                    stats.stalled + stats.starved,
                    "{}/{node}: cause partition broken",
                    p.name
                );
                stalled += stats.stalled;
                starved += stats.starved;
            }
            assert_eq!(report.stall_cycles, stalled, "{}: stall total", p.name);
            assert_eq!(report.starved_cycles, starved, "{}: starve total", p.name);
            mem = r.memory;
        }
    }
}

/// Random integer kernels (the same shape as the scheduler-differential
/// fuzz strategy): expressions over `j`/`acc` with select.
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

    /// On random kernels: the cause partition holds per node, the report
    /// is scheduler-independent, and so is the waveform.
    #[test]
    fn attribution_and_waveform_hold_on_random_kernels(p in kernel_strategy()) {
        let compiled = compile(&p).unwrap();
        let (placed, _) = place_buffers(&compiled.kernels[0].graph);
        let cfg = |scheduler| SimConfig {
            waveform: true,
            attribute_stalls: true,
            scheduler,
            ..SimConfig::default()
        };
        let co = run_with(&placed, p.arrays.clone(), cfg(Scheduler::Compiled));
        let sw = run_with(&placed, p.arrays.clone(), cfg(Scheduler::ReferenceSweep));
        prop_assert_eq!(co.waveform.as_ref(), sw.waveform.as_ref());
        let report = co.stalls.unwrap();
        prop_assert_eq!(&report, &sw.stalls.unwrap());
        let (mut stalled, mut starved) = (0u64, 0u64);
        for stats in report.by_node.values() {
            prop_assert_eq!(stats.causes.values().sum::<u64>(), stats.stalled + stats.starved);
            stalled += stats.stalled;
            starved += stats.starved;
        }
        prop_assert_eq!(report.stall_cycles, stalled);
        prop_assert_eq!(report.starved_cycles, starved);
    }
}
