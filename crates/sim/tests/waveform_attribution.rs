//! Waveform capture and stall attribution, exercised without the
//! process-global `graphiti-obs` registry (obs stays disabled here; the
//! counter-equality contract lives in its own test binary).

use graphiti_ir::{ep, CompKind, ExprHigh, Op, Value};
use graphiti_obs::vcd::{self, VcdValue};
use graphiti_sim::{simulate, Memory, Scheduler, SimConfig, SimResult, StallCause};
use std::collections::BTreeMap;

/// Tagger + pipelined FU + buffer: exercises channel pushes/pops,
/// per-cycle cap resets, pipeline maturities, and idle fast-forward.
fn tagged_pipeline() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("t", CompKind::TaggerUntagger { tags: 2 }).unwrap();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("a", CompKind::Operator { op: Op::AddF }).unwrap();
    g.add_node("b", CompKind::Buffer { slots: 4, transparent: false }).unwrap();
    g.expose_input("x", ep("t", "in")).unwrap();
    g.connect(ep("t", "tagged"), ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
    g.connect(ep("a", "out"), ep("b", "in")).unwrap();
    g.connect(ep("b", "out"), ep("t", "retag")).unwrap();
    g.expose_output("y", ep("t", "out")).unwrap();
    g
}

/// An unbalanced join fed by a long-latency side pipeline: `j` first
/// starves on the drained `b` feed while the `m` pipeline keeps cycles
/// active, so starvation is attributed over many observed cycles.
fn starving_join() -> ExprHigh {
    let mut g = ExprHigh::new();
    g.add_node("j", CompKind::Join).unwrap();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("m", CompKind::Operator { op: Op::MulF }).unwrap();
    g.expose_input("a", ep("j", "in0")).unwrap();
    g.expose_input("b", ep("j", "in1")).unwrap();
    g.expose_output("y", ep("j", "out")).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
    g.expose_output("z", ep("m", "out")).unwrap();
    g
}

fn run(g: &ExprHigh, feeds: &BTreeMap<String, Vec<Value>>, cfg: SimConfig) -> SimResult {
    simulate(g, feeds, Memory::new(), cfg).unwrap()
}

fn floats(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::from_f64(i as f64)).collect()
}

#[test]
fn vcd_dumps_are_byte_identical_across_schedulers() {
    let g = tagged_pipeline();
    let feeds: BTreeMap<String, Vec<Value>> = [("x".to_string(), floats(6))].into_iter().collect();
    let cfg = |scheduler| SimConfig { waveform: true, scheduler, ..Default::default() };
    let co = run(&g, &feeds, cfg(Scheduler::Compiled));
    let sw = run(&g, &feeds, cfg(Scheduler::ReferenceSweep));
    let (co_vcd, sw_vcd) = (co.waveform.unwrap(), sw.waveform.unwrap());
    assert!(!co_vcd.is_empty());
    assert_eq!(co_vcd, sw_vcd, "waveforms must not depend on the scheduling core");

    let dump = vcd::parse(&co_vcd).expect("writer output parses");
    // Three wires (valid/ready/tag) per channel: 5 edges + 1 input + 1 output.
    assert_eq!(dump.signals.len(), 3 * 7);
    assert!(dump.end_time() < co.cycles, "samples are taken at pre-advance cycle numbers");
}

#[test]
fn vcd_replay_matches_final_channel_states() {
    // An unbalanced tagged diamond: f.out0's token rests in its channel
    // for a cycle while the opaque buffer on the other arm latches, so a
    // defined tag is observable at a cycle boundary.
    let mut g = ExprHigh::new();
    g.add_node("t", CompKind::TaggerUntagger { tags: 2 }).unwrap();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("b", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
    g.add_node("j", CompKind::Join).unwrap();
    g.expose_input("x", ep("t", "in")).unwrap();
    g.connect(ep("t", "tagged"), ep("f", "in")).unwrap();
    g.connect(ep("f", "out0"), ep("j", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("b", "in")).unwrap();
    g.connect(ep("b", "out"), ep("j", "in1")).unwrap();
    g.connect(ep("j", "out"), ep("t", "retag")).unwrap();
    g.expose_output("y", ep("t", "out")).unwrap();
    let feeds: BTreeMap<String, Vec<Value>> =
        [("x".to_string(), vec![Value::Int(7), Value::Int(8)])].into_iter().collect();
    let r = run(&g, &feeds, SimConfig { waveform: true, ..Default::default() });
    assert_eq!(r.leftover_tokens, 0);
    let dump = vcd::parse(r.waveform.as_ref().unwrap()).unwrap();
    let end = dump.end_time();
    for sig in &dump.signals {
        let Some(chan) = sig.name.strip_suffix(".valid") else { continue };
        let v = dump.value_at(&sig.name, end).expect("valid sampled every active cycle");
        if chan.starts_with("out.") {
            // Output channels hold the collected tokens at quiescence.
            assert_eq!(v, VcdValue::Bits(1), "{chan} should end full");
        } else {
            // With zero leftover tokens every other channel drained.
            assert_eq!(v, VcdValue::Bits(0), "{chan} should end empty");
        }
    }
    // The direct arm held its tagged token at the end of cycle 0 while
    // the buffer arm latched: tag 0 is visible on the channel.
    assert_eq!(dump.value_at("f.out0_j.in0.valid", 0), Some(VcdValue::Bits(1)));
    assert_eq!(dump.value_at("f.out0_j.in0.tag", 0), Some(VcdValue::Bits(0)));
}

#[test]
fn trace_nodes_filters_waveform_signals() {
    let g = tagged_pipeline();
    let feeds: BTreeMap<String, Vec<Value>> = [("x".to_string(), floats(2))].into_iter().collect();
    let r = run(
        &g,
        &feeds,
        SimConfig { waveform: true, trace_nodes: vec!["a".to_string()], ..Default::default() },
    );
    let dump = vcd::parse(r.waveform.as_ref().unwrap()).unwrap();
    // Only channels touching node `a`: f.out0-a.in0, f.out1-a.in1, a.out-b.in.
    assert_eq!(dump.signals.len(), 3 * 3);
    for sig in &dump.signals {
        assert!(sig.name.contains("a."), "unexpected signal {}", sig.name);
    }
}

#[test]
fn attribution_sums_match_waiting_totals_per_node() {
    let g = starving_join();
    let mut feeds: BTreeMap<String, Vec<Value>> =
        [("x".to_string(), floats(5))].into_iter().collect();
    feeds.insert("a".to_string(), floats(3));
    feeds.insert("b".to_string(), floats(1));
    let cfg = |scheduler| SimConfig { attribute_stalls: true, scheduler, ..Default::default() };
    let co = run(&g, &feeds, cfg(Scheduler::Compiled));
    let sw = run(&g, &feeds, cfg(Scheduler::ReferenceSweep));
    let report = co.stalls.unwrap();
    assert_eq!(report, sw.stalls.unwrap(), "attribution must not depend on the scheduler");

    // Per node, the cause counters partition the waiting cycles.
    let (mut stalled, mut starved) = (0, 0);
    for (node, stats) in &report.by_node {
        let cause_sum: u64 = stats.causes.values().sum();
        assert_eq!(cause_sum, stats.stalled + stats.starved, "partition broken for {node}");
        stalled += stats.stalled;
        starved += stats.starved;
    }
    assert_eq!(report.stall_cycles, stalled);
    assert_eq!(report.starved_cycles, starved);

    // The join starves on the drained `b` feed while `m`'s pipeline keeps
    // cycles active; the root cause is the exhausted external input.
    let j = &report.by_node["j"];
    assert!(j.starved > 0, "join must starve: {report:?}");
    assert!(j.causes.contains_key(&StallCause::StarvedBySource), "causes: {:?}", j.causes);
    // And the critical-chain ranking points at the starving feed channel.
    assert!(
        report.chains.iter().any(|c| c.path.iter().any(|p| p == "in.b")),
        "chains: {:?}",
        report.chains
    );
    assert!(report.channels.iter().any(|(name, _)| name == "in.b"));
}

#[test]
fn attribution_classifies_pipeline_latency() {
    // add(lat 10) -> j.in0 with a plentiful direct feed on j.in1: the
    // join starves on the FP pipeline for ~10 cycles per token.
    let mut g = ExprHigh::new();
    g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
    g.add_node("add", CompKind::Operator { op: Op::AddF }).unwrap();
    g.add_node("j", CompKind::Join).unwrap();
    g.expose_input("x", ep("f", "in")).unwrap();
    g.expose_input("c", ep("j", "in1")).unwrap();
    g.connect(ep("f", "out0"), ep("add", "in0")).unwrap();
    g.connect(ep("f", "out1"), ep("add", "in1")).unwrap();
    g.connect(ep("add", "out"), ep("j", "in0")).unwrap();
    g.expose_output("y", ep("j", "out")).unwrap();
    let mut feeds: BTreeMap<String, Vec<Value>> =
        [("x".to_string(), floats(4))].into_iter().collect();
    feeds.insert("c".to_string(), floats(4));
    let r = run(&g, &feeds, SimConfig { attribute_stalls: true, ..Default::default() });
    let report = r.stalls.unwrap();
    let j = &report.by_node["j"];
    assert!(j.starved > 0);
    assert_eq!(
        j.causes.get(&StallCause::PipelineLatency).copied().unwrap_or(0),
        j.starved,
        "the join behind the FP adder waits only on its pipeline: {report:?}"
    );
}

#[test]
fn report_renders_human_readable_summary() {
    let g = starving_join();
    let mut feeds: BTreeMap<String, Vec<Value>> =
        [("x".to_string(), floats(5))].into_iter().collect();
    feeds.insert("a".to_string(), floats(3));
    feeds.insert("b".to_string(), floats(1));
    let r = run(&g, &feeds, SimConfig { attribute_stalls: true, ..Default::default() });
    let text = r.stalls.unwrap().render(5);
    assert!(text.contains("lost node-cycles:"), "{text}");
    assert!(text.contains("starved-by-source"), "{text}");
    assert!(text.contains("critical channels:"), "{text}");
}

#[test]
fn disabled_run_carries_no_waveform_or_report() {
    let g = tagged_pipeline();
    let feeds: BTreeMap<String, Vec<Value>> = [("x".to_string(), floats(2))].into_iter().collect();
    let r = run(&g, &feeds, SimConfig::default());
    assert!(r.waveform.is_none());
    assert!(r.stalls.is_none());
}
