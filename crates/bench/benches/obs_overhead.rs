//! Micro-benchmark of the `graphiti-obs` zero-cost-when-disabled contract.
//!
//! The simulator inner loop is the hottest path in the repository; the
//! observability layer's promise (DESIGN.md) is that with no sink
//! installed its entire footprint is one relaxed atomic load when a run
//! starts, so the disabled numbers here must stay within
//! ~2% of a build without the instrumentation at all. The enabled
//! numbers quantify what a profile costs when you do ask for one.
//!
//! Run with `cargo bench --bench obs_overhead`; compare the
//! `sim/obs_disabled` and `sim/obs_enabled` lines. The
//! `sim/waveform_enabled` line prices the cycle-accurate VCD recorder
//! and stall attribution against the same disabled baseline,
//! `sim/flight_enabled` prices the flight recorder's ring writes on the
//! same macro path. These rows run the default (compiled) core through
//! `simulate`, which lowers the circuit on every call;
//! `sim/compiled_run` runs an artifact lowered once up front, and
//! `sim/compiled_telemetry` prices waveform capture plus stall
//! attribution on that same artifact.
//!
//! The `robust/supervised` row prices a supervised no-op stage (token
//! poll + clock read + outcome accounting).
//!
//! The `metric/*` group isolates the fire-path accounting the simulator
//! used to pay per call: `per_call_lookup` is the old pattern (registry
//! mutex + BTreeMap walk on every increment), `memoised_handle` is what
//! `SimObs` does now (resolve once per run, atomic add per event), and
//! `disabled_gate` is the entire disabled-path cost (one relaxed load).
//! The `flight/*` group does the same for `flight::record` — disabled
//! must be a branch on a relaxed load, with the closure never run.

use criterion::{criterion_group, criterion_main, Criterion};
use graphiti_frontend::compile;
use graphiti_ir::Value;
use graphiti_sim::{place_buffers_targeted, simulate, CompiledCircuit, SimConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let p = graphiti_bench::suite::matvec(8);
    let compiled = compile(&p).expect("compiles");
    let k = &compiled.kernels[0];
    let (placed, _) = place_buffers_targeted(&k.graph, 6.5);
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();

    let mut group = c.benchmark_group("sim");

    graphiti_obs::disable();
    group.bench_function("obs_disabled", |b| {
        b.iter(|| {
            let r = simulate(&placed, &feeds, p.arrays.clone(), SimConfig::default())
                .expect("simulates");
            black_box(r.cycles);
        })
    });

    graphiti_obs::reset();
    graphiti_obs::enable();
    group.bench_function("obs_enabled", |b| {
        b.iter(|| {
            // Keep the trace buffer from saturating (and the registry from
            // growing unboundedly skewed) across iterations.
            graphiti_obs::reset();
            let r = simulate(&placed, &feeds, p.arrays.clone(), SimConfig::default())
                .expect("simulates");
            black_box(r.cycles);
        })
    });
    graphiti_obs::disable();

    // What a full cycle-accurate capture costs: waveform recording plus
    // stall attribution, with the obs sink off so the delta against
    // `obs_disabled` isolates the recorder itself.
    group.bench_function("waveform_enabled", |b| {
        b.iter(|| {
            let cfg = SimConfig { waveform: true, attribute_stalls: true, ..SimConfig::default() };
            let r = simulate(&placed, &feeds, p.arrays.clone(), cfg).expect("simulates");
            black_box(r.waveform.as_ref().map(String::len));
        })
    });

    // The flight recorder on the macro path: obs sink off, ring on. The
    // simulator records one start/finish pair per run, so this must sit
    // on top of `obs_disabled` within noise.
    graphiti_obs::flight::enable();
    group.bench_function("flight_enabled", |b| {
        b.iter(|| {
            let r = simulate(&placed, &feeds, p.arrays.clone(), SimConfig::default())
                .expect("simulates");
            black_box(r.cycles);
        })
    });
    graphiti_obs::flight::disable();
    graphiti_obs::flight::clear();

    // The compiled backend without the lowering: one artifact, lowered
    // up front, runs on every iteration.
    let plain_cfg = SimConfig::default();
    let art = CompiledCircuit::new(&placed).expect("lowers");
    group.bench_function("compiled_run", |b| {
        b.iter(|| {
            let r = art.run(&feeds, p.arrays.clone(), &plain_cfg).expect("simulates");
            black_box(r.cycles);
        })
    });

    // The same artifact with waveform capture and stall attribution on.
    // The delta against `compiled_run` prices full-fidelity observation;
    // the unobserved row above is the zero-overhead contract.
    let observed_cfg = SimConfig { waveform: true, attribute_stalls: true, ..SimConfig::default() };
    group.bench_function("compiled_telemetry", |b| {
        b.iter(|| {
            let r = art.run(&feeds, p.arrays.clone(), &observed_cfg).expect("simulates");
            black_box(r.waveform.as_ref().map(String::len));
        })
    });

    group.finish();
}

fn bench_metric_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric");

    graphiti_obs::reset();
    graphiti_obs::enable();
    // The pre-PR fire-path pattern: name lookup on every increment.
    group.bench_function("per_call_lookup", |b| {
        b.iter(|| graphiti_obs::counter("sim.firings").add(1))
    });
    // The memoised pattern `SimObs` (and the rewrite engine / refinement
    // checker) use now: resolve once, atomic add per event.
    let handle = graphiti_obs::counter("sim.firings");
    group.bench_function("memoised_handle", |b| b.iter(|| handle.add(1)));

    // The disabled path instrumented sites actually take: one relaxed
    // load, no registry access, no schema check.
    graphiti_obs::disable();
    group.bench_function("disabled_gate", |b| {
        b.iter(|| {
            if graphiti_obs::enabled() {
                graphiti_obs::counter("sim.firings").add(1);
            }
        })
    });
    graphiti_obs::reset();

    group.finish();
}

fn bench_robust(c: &mut Criterion) {
    let mut group = c.benchmark_group("robust");

    // A supervised stage wrapping a trivial body: the per-stage price of
    // supervision (token poll, clock read, outcome accounting) when
    // nothing goes wrong.
    graphiti_obs::disable();
    let token = graphiti_obs::CancelToken::new();
    group.bench_function("supervised", |b| {
        b.iter(|| {
            let r = graphiti_robust::supervise("bench", &token, || Ok::<_, String>(black_box(1)));
            black_box(r.unwrap());
        })
    });

    group.finish();
}

fn bench_flight_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight");

    graphiti_obs::flight::clear();
    // Disabled: a branch on a relaxed load; the closure must never run.
    group.bench_function("record_disabled", |b| {
        b.iter(|| graphiti_obs::flight::record("test.bench", || unreachable!("closure ran")))
    });

    graphiti_obs::flight::enable();
    group.bench_function("record_enabled", |b| {
        b.iter(|| graphiti_obs::flight::record("test.bench", || "slot write".to_string()))
    });
    graphiti_obs::flight::disable();
    graphiti_obs::flight::clear();

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_obs_overhead, bench_metric_lookup, bench_robust, bench_flight_recorder
}
criterion_main!(benches);
