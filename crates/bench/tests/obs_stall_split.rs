//! The stall report's stalled/starved split must equal the
//! `sim.stall_cycles` / `sim.starved_cycles` counters on circuits with
//! memory ports. A starved node whose upstream walk ends at a Load or a
//! store queue is rooted in `memory-dependency` / `lsq-ordering`, causes
//! that also end back-pressure walks; the report books the node-cycle by
//! how the node waited, exactly like the counters, not by its cause.
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]`.

use graphiti_frontend::compile;
use graphiti_ir::Value;
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, StallReport};
use std::collections::BTreeMap;

#[test]
fn report_split_equals_the_waiting_counters_on_memory_kernels() {
    graphiti_obs::enable();
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let programs = [
        graphiti_bench::suite::bicg(6),
        graphiti_bench::suite::gsum_single(40),
        graphiti_bench::suite::histogram(16, 4, 8),
    ];
    for p in &programs {
        let compiled = compile(p).unwrap();
        for scheduler in [Scheduler::ReferenceSweep, Scheduler::Compiled] {
            graphiti_obs::reset();
            let mut mem = p.arrays.clone();
            let mut reports: Vec<StallReport> = Vec::new();
            for k in &compiled.kernels {
                let (placed, _) = place_buffers(&k.graph);
                let cfg = SimConfig { scheduler, attribute_stalls: true, ..SimConfig::default() };
                let r = simulate(&placed, &feeds, mem, cfg).expect("simulation succeeds");
                reports.push(r.stalls.expect("attribution requested"));
                mem = r.memory;
            }
            let what = format!("{} under {scheduler:?}", p.name);
            let stalled: u64 = reports.iter().map(|r| r.stall_cycles).sum();
            let starved: u64 = reports.iter().map(|r| r.starved_cycles).sum();
            assert_eq!(stalled, graphiti_obs::counter("sim.stall_cycles").get(), "{what}");
            assert_eq!(starved, graphiti_obs::counter("sim.starved_cycles").get(), "{what}");
            let mut by_node: BTreeMap<&str, u64> = BTreeMap::new();
            for report in &reports {
                for (node, stats) in &report.by_node {
                    assert_eq!(stats.causes.values().sum::<u64>(), stats.stalled + stats.starved);
                    *by_node.entry(node).or_insert(0) += stats.stalled;
                }
            }
            for (node, n) in by_node {
                let counter = graphiti_obs::counter(&format!("sim.stall_cycles.{node}")).get();
                assert_eq!(n, counter, "{what}: per-node stall counter diverged for {node}");
            }
            // The kernel really exercises the split: summing causes by
            // `is_stall` gives a different stall total.
            let by_cause: u64 = reports
                .iter()
                .flat_map(StallReport::cause_totals)
                .filter(|(cause, _)| cause.is_stall())
                .map(|(_, n)| n)
                .sum();
            assert_ne!(by_cause, stalled, "{what}: no memory-rooted starvation to split");
        }
    }
    graphiti_obs::disable();
    graphiti_obs::reset();
}
