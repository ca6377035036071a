//! Raw simulation-speed comparison of the two schedulers.
//!
//! ```text
//! simbench [--reps N] [--json] [--min-speedup X]
//! ```
//!
//! Runs the seven-kernel report suite (the six paper benchmarks at the
//! reduced sizes plus gcd) under both schedulers, checks that they agree
//! on every observable — cycles, outputs, final memory, total and
//! per-node firings, leftover tokens — and then times `--reps`
//! simulation-only repetitions per backend. The timed loop excludes
//! placement/area/clock modelling (identical across backends) but
//! *includes* the compiled backend's lowering: each kernel is lowered
//! once into a `CompiledCircuit` before the first repetition, and every
//! repetition runs those artifacts, which is exactly the
//! compile-once/simulate-many shape the backend exists for.
//!
//! * `--reps N` — simulation repetitions per backend (default 20).
//! * `--json` — machine-readable output instead of the table.
//! * `--min-speedup X` — exit non-zero unless the compiled backend's
//!   total speedup over the reference sweep reaches `X`. Measured on a
//!   2-vCPU shared host: ~10–11× over the sweep; the CI gate uses 7.

use graphiti_bench::{json::escape, small_suite, suite};
use graphiti_frontend::{compile, Memory, Program};
use graphiti_ir::{ExprHigh, Value};
use graphiti_sim::{place_buffers, simulate, CompiledCircuit, Scheduler, SimConfig, SimResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seven kernels of the report suite (CI smoke sizes plus gcd).
fn seven_kernels() -> Vec<Program> {
    let mut v = small_suite();
    v.push(suite::gcd(4));
    v
}

const SCHEDULERS: [(Scheduler, &str); 2] =
    [(Scheduler::ReferenceSweep, "reference-sweep"), (Scheduler::Compiled, "compiled")];

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

/// One prepared benchmark: its placed kernel graphs and initial memory.
struct Prepared {
    name: String,
    graphs: Vec<ExprHigh>,
    initial: Memory,
}

fn prepare(p: &Program) -> Prepared {
    let compiled = compile(p).expect("suite programs compile");
    let graphs = compiled.kernels.iter().map(|k| place_buffers(&k.graph).0).collect();
    Prepared { name: p.name.clone(), graphs, initial: p.arrays.clone() }
}

/// Simulates the benchmark's kernel sequence once, returning the
/// per-kernel results. `sim(i, memory)` runs kernel `i` on the memory the
/// kernels before it left.
fn run_once(b: &Prepared, mut sim: impl FnMut(usize, Memory) -> SimResult) -> Vec<SimResult> {
    let mut mem = b.initial.clone();
    let mut out = Vec::with_capacity(b.graphs.len());
    for i in 0..b.graphs.len() {
        let r = sim(i, mem);
        mem = r.memory.clone();
        out.push(r);
    }
    out
}

/// Simulates the benchmark's kernel sequence once through [`simulate`].
fn simulate_once(b: &Prepared, cfg: &SimConfig) -> Vec<SimResult> {
    run_once(b, |i, mem| {
        simulate(&b.graphs[i], &start_feed(), mem, cfg.clone()).expect("simulation succeeds")
    })
}

/// Asserts two scheduler runs agree on every observable.
fn assert_equivalent(name: &str, other_name: &str, spec: &[SimResult], other: &[SimResult]) {
    assert_eq!(spec.len(), other.len());
    for (i, (a, b)) in spec.iter().zip(other).enumerate() {
        assert_eq!(a.cycles, b.cycles, "{name} kernel {i}: cycles differ vs {other_name}");
        assert_eq!(a.outputs, b.outputs, "{name} kernel {i}: outputs differ vs {other_name}");
        assert_eq!(a.memory, b.memory, "{name} kernel {i}: memory differs vs {other_name}");
        assert_eq!(a.firings, b.firings, "{name} kernel {i}: firings differ vs {other_name}");
        assert_eq!(
            a.firings_by_node, b.firings_by_node,
            "{name} kernel {i}: per-node firings differ vs {other_name}"
        );
        assert_eq!(
            a.leftover_tokens, b.leftover_tokens,
            "{name} kernel {i}: leftovers differ vs {other_name}"
        );
    }
}

fn main() {
    let mut reps: u32 = 20;
    let mut json_out = false;
    let mut min_speedup: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--reps" => {
                reps = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("simbench: --reps needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--min-speedup" => {
                min_speedup = Some(it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("simbench: --min-speedup needs a number");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("simbench: unknown argument `{other}`");
                eprintln!("usage: simbench [--reps N] [--json] [--min-speedup X]");
                std::process::exit(2);
            }
        }
    }

    let prepared: Vec<Prepared> = seven_kernels().iter().map(prepare).collect();

    // Equivalence first: both schedulers, every observable, every
    // benchmark. A timing table over disagreeing simulators would be
    // meaningless.
    let config = |scheduler| SimConfig { scheduler, ..SimConfig::default() };
    for b in &prepared {
        let spec = simulate_once(b, &config(Scheduler::ReferenceSweep));
        let compiled = simulate_once(b, &config(Scheduler::Compiled));
        assert_equivalent(&b.name, "compiled", &spec, &compiled);
    }

    // Timed repetitions. The compiled backend lowers each kernel once,
    // inside the timed region, and every repetition runs the artifacts.
    let mut totals: Vec<(&str, f64)> = Vec::new();
    let mut per_bench: Vec<(String, Vec<f64>)> =
        prepared.iter().map(|b| (b.name.clone(), Vec::new())).collect();
    for (scheduler, sname) in SCHEDULERS {
        let cfg = config(scheduler);
        let mut total = 0.0;
        for (b, (_, times)) in prepared.iter().zip(per_bench.iter_mut()) {
            let t0 = Instant::now();
            if scheduler == Scheduler::Compiled {
                let arts: Vec<CompiledCircuit> = b
                    .graphs
                    .iter()
                    .map(|g| CompiledCircuit::new(g).expect("lowering succeeds"))
                    .collect();
                for _ in 0..reps {
                    run_once(b, |i, mem| {
                        arts[i].run(&start_feed(), mem, &cfg).expect("simulation succeeds")
                    });
                }
            } else {
                for _ in 0..reps {
                    simulate_once(b, &cfg);
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            times.push(secs);
            total += secs;
        }
        totals.push((sname, total));
    }

    let sw_total = totals[0].1;
    let co_total = totals[1].1;
    let speedup = sw_total / co_total;

    if json_out {
        println!("{{");
        println!("  \"reps\": {reps},");
        println!("  \"benchmarks\": [");
        for (i, (name, times)) in per_bench.iter().enumerate() {
            let sep = if i + 1 < per_bench.len() { "," } else { "" };
            println!(
                "    {{\"name\": \"{}\", \"reference_sweep_s\": {:.6}, \
                 \"compiled_s\": {:.6}, \"speedup\": {:.2}}}{sep}",
                escape(name),
                times[0],
                times[1],
                times[0] / times[1],
            );
        }
        println!("  ],");
        println!(
            "  \"totals\": {{\"reference_sweep_s\": {sw_total:.6}, \
             \"compiled_s\": {co_total:.6}, \"speedup\": {speedup:.2}}}"
        );
        println!("}}");
    } else {
        println!(
            "{:<14}  {:>16}  {:>12}  {:>9}",
            "benchmark", "reference-sweep", "compiled", "speedup"
        );
        for (name, times) in &per_bench {
            println!(
                "{name:<14}  {:>14.1}ms  {:>10.1}ms  {:>8.1}x",
                times[0] * 1e3,
                times[1] * 1e3,
                times[0] / times[1],
            );
        }
        println!(
            "{:<14}  {:>14.1}ms  {:>10.1}ms  {:>8.1}x",
            "TOTAL",
            sw_total * 1e3,
            co_total * 1e3,
            speedup
        );
    }

    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!(
                "simbench: compiled-backend speedup {speedup:.2}x below required {min}x \
                 ({sw_total:.3}s reference sweep vs {co_total:.3}s compiled, {reps} reps)"
            );
            std::process::exit(1);
        }
    }
}
