//! Observability parity between the two simulator cores: with
//! `graphiti-obs` collection and stall attribution on, the compiled
//! backend must mint exactly the `sim.*` metrics and per-fire trace events
//! the reference sweep mints — the same fire, occupancy, latency, stall,
//! and cause counters, the same histograms, the same `PID_SIM` lanes.
//! Only the backend facts differ: `sim.sched.*` (scheduler efficiency)
//! and `sim.compile.*` (lowering).
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]`.

use graphiti_frontend::{compile, Program};
use graphiti_ir::Value;
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, SimResult};
use std::collections::BTreeMap;

/// Metric families that describe the backend rather than the circuit.
const BACKEND_FACTS: [&str; 2] = ["\"sim.sched.", "\"sim.compile."];

/// One `PID_SIM` trace event: (name, lane, cycle, duration, args).
type SimEvent = (String, u32, u64, u64, Vec<(String, String)>);

/// The seven `simbench` kernels: the reduced paper suite plus gcd.
fn seven_kernels() -> Vec<Program> {
    let mut v = graphiti_bench::small_suite();
    v.push(graphiti_bench::suite::gcd(4));
    v
}

/// Runs one kernel from a fresh registry, with every node listed so that
/// each fire is a `PID_SIM` slice, and returns its result, its `sim.*`
/// metric lines (backend facts excluded), and its `PID_SIM` events.
fn observe(
    g: &graphiti_ir::ExprHigh,
    mem: graphiti_frontend::Memory,
    scheduler: Scheduler,
) -> (SimResult, Vec<String>, Vec<SimEvent>) {
    graphiti_obs::reset();
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let cfg = SimConfig {
        scheduler,
        attribute_stalls: true,
        trace_nodes: g.nodes().map(|(name, _)| name.clone()).collect(),
        ..SimConfig::default()
    };
    let r = simulate(g, &feeds, mem, cfg).expect("simulation succeeds");
    // One metric per line in the JSON export; the separator comma
    // depends on the neighbouring metric, so it is stripped.
    let metrics = graphiti_obs::metrics_json()
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("\"sim.") && !BACKEND_FACTS.iter().any(|p| l.starts_with(p)))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    let events = graphiti_obs::trace_events()
        .into_iter()
        .filter(|e| e.pid == graphiti_obs::PID_SIM)
        .map(|e| (e.name, e.tid, e.ts_us, e.dur_us, e.args))
        .collect();
    (r, metrics, events)
}

#[test]
fn compiled_core_mints_the_sweeps_metrics_and_trace_events() {
    graphiti_obs::enable();
    for p in seven_kernels() {
        let compiled = compile(&p).unwrap();
        let mut mem = p.arrays.clone();
        for (k, kernel) in compiled.kernels.iter().enumerate() {
            let what = format!("{} kernel {k}", p.name);
            let (placed, _) = place_buffers(&kernel.graph);
            let (sw, sw_metrics, sw_events) =
                observe(&placed, mem.clone(), Scheduler::ReferenceSweep);
            let (co, co_metrics, co_events) = observe(&placed, mem, Scheduler::Compiled);
            assert_eq!(sw.memory, co.memory, "{what}: memory differs");
            for family in ["sim.buf_occupancy.", "sim.token_latency_cycles", "sim.stall_cycles"] {
                assert!(
                    sw_metrics.iter().any(|l| l.contains(family)),
                    "{what}: the sweep minted no {family} metric"
                );
            }
            let only_sweep: Vec<&String> =
                sw_metrics.iter().filter(|l| !co_metrics.contains(l)).collect();
            let only_compiled: Vec<&String> =
                co_metrics.iter().filter(|l| !sw_metrics.contains(l)).collect();
            assert!(
                only_sweep.is_empty() && only_compiled.is_empty(),
                "{what}: metric snapshots differ\n sweep only: {only_sweep:#?}\n \
                 compiled only: {only_compiled:#?}"
            );
            assert_eq!(sw_metrics, co_metrics, "{what}: metric order differs");
            assert_eq!(sw_events.len() as u64, sw.firings, "{what}: one slice per fire");
            assert_eq!(sw_events.len(), co_events.len(), "{what}: trace event counts differ");
            assert_eq!(sw_events, co_events, "{what}: PID_SIM trace events differ");
            mem = sw.memory;
        }
    }
    graphiti_obs::disable();
    graphiti_obs::reset();
}
