//! Schema drift gate: the in-code schema ([`graphiti_obs::schema::SCHEMA`])
//! and the checked-in golden file `obs/schema.json` must agree byte for
//! byte. Adding, renaming, re-kinding, or re-tiering a metric without
//! regenerating the golden (`graphiti-cli schema > obs/schema.json`)
//! fails here — which is the point: the golden diff is the reviewable
//! record of every metrics-contract change.

use graphiti_obs::schema;

const GOLDEN: &str = include_str!("../../../obs/schema.json");

#[test]
fn schema_json_matches_checked_in_golden() {
    let rendered = schema::schema_json();
    assert_eq!(
        rendered, GOLDEN,
        "obs::schema::SCHEMA drifted from obs/schema.json; \
         regenerate with `graphiti-cli schema > obs/schema.json` and review the diff"
    );
}

#[test]
fn golden_declares_every_stable_tier_row() {
    // Belt and braces beyond byte equality: each schema entry's name and
    // tier appear verbatim in the golden document.
    for spec in schema::SCHEMA {
        assert!(
            GOLDEN.contains(&format!("\"name\": \"{}\"", spec.name)),
            "`{}` missing from obs/schema.json",
            spec.name
        );
    }
    assert_eq!(GOLDEN.matches("\"name\"").count(), schema::SCHEMA.len());
}

#[test]
fn workspace_hot_metrics_are_declared() {
    use schema::MetricKind::{Counter, Gauge, Histogram};
    // The names instrumentation actually mints (spot-checking the fixed
    // names plus one representative of each wildcard family).
    for (name, kind) in [
        ("sim.firings", Counter),
        ("sim.cycles", Counter),
        ("sim.stall_cycles", Counter),
        ("sim.starved_cycles", Counter),
        ("sim.stall_cycles.mux3", Counter),
        ("sim.stall_cause.blocked-by-sink", Counter),
        ("sim.fire.init7", Counter),
        ("sim.buf_occupancy.buf2", Histogram),
        ("sim.token_latency_cycles", Histogram),
        ("sim.sched.examined", Counter),
        ("sim.sched.examined_per_cycle", Histogram),
        ("sim.compile.lowerings", Counter),
        ("sim.compile.nodes", Counter),
        ("sim.compile.chans", Counter),
        ("rewrite.attempted.loop-ooo", Counter),
        ("rewrite.applied.mux-combine", Counter),
        ("refine.checks", Counter),
        ("refine.visited_states", Counter),
        ("refine.visited_states_per_check", Histogram),
        ("refine.frontier_peak", Histogram),
        ("refine.bound_hits.depth", Counter),
        ("pool.workers", Gauge),
        ("pool.jobs.worker_0", Counter),
        ("span.optimize.us", Histogram),
    ] {
        assert!(
            schema::validate(name, kind).is_ok(),
            "hot metric `{name}` ({kind:?}) fails schema validation"
        );
    }
}
