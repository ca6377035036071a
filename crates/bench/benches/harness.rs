//! Criterion benches regenerating each evaluation artefact of the paper.
//!
//! One group per table/figure — `table2` (cycle counts via simulation),
//! `table3` (area models), `fig8` (relative performance) — plus groups for
//! the machinery itself: the rewriting engine (§6.3's throughput numbers),
//! the cycle simulator, the compiled backend's compile-once/simulate-many
//! economics, the bounded refinement checker, and the e-graph oracle. The table groups run on reduced problem sizes; the `table2`,
//! `table3`, `fig8` and `stats` *binaries* produce the full-size artefacts.

use criterion::{criterion_group, criterion_main, Criterion};
use graphiti_bench::{evaluate, suite, tables, Flow};
use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::compile;
use graphiti_ir::{CompKind, ExprHigh, ExprLow, Op, PortName, PureFn, Value};
use graphiti_rewrite::simplify;
use graphiti_sem::{check_refinement, denote, Env, RefineConfig};
use graphiti_sim::{place_buffers_targeted, simulate, CompiledCircuit, Scheduler, SimConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

fn tiny_suite() -> Vec<graphiti_frontend::Program> {
    vec![suite::bicg(5), suite::gsum_single(24), suite::matvec(6), suite::mvt(5)]
}

/// Per-benchmark-group metrics files: when `GRAPHITI_METRICS_DIR` is set,
/// each group runs with the `graphiti-obs` sink enabled and dumps
/// `$GRAPHITI_METRICS_DIR/<group>.metrics.json` when it finishes. The
/// registry is reset on entry so profiles don't bleed between groups.
/// Without the variable this is inert and the benches measure the
/// uninstrumented (sink-off) hot path.
struct ObsScope(Option<String>);

impl ObsScope {
    fn new(group: &str) -> ObsScope {
        match std::env::var("GRAPHITI_METRICS_DIR") {
            Ok(dir) => {
                std::fs::create_dir_all(&dir).expect("create GRAPHITI_METRICS_DIR");
                graphiti_obs::reset();
                graphiti_obs::enable();
                ObsScope(Some(format!("{dir}/{group}.metrics.json")))
            }
            Err(_) => ObsScope(None),
        }
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            graphiti_obs::write_metrics_json(path)
                .unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            graphiti_obs::disable();
        }
    }
}

/// Table 2: cycle count / clock period / execution time across the flows.
fn bench_table2(c: &mut Criterion) {
    let _obs = ObsScope::new("table2");
    let programs = tiny_suite();
    c.bench_function("table2/regenerate", |b| {
        b.iter(|| {
            let results: Vec<_> =
                programs.iter().map(|p| evaluate(p).expect("evaluation")).collect();
            let rendered = tables::table2(&results);
            black_box(rendered);
        })
    });
}

/// Table 3: area totals (cheap; area model only needs placement).
fn bench_table3(c: &mut Criterion) {
    let _obs = ObsScope::new("table3");
    let programs = tiny_suite();
    c.bench_function("table3/area_models", |b| {
        b.iter(|| {
            for p in &programs {
                let compiled = compile(p).expect("compiles");
                for k in &compiled.kernels {
                    let (placed, _) = place_buffers_targeted(&k.graph, 6.5);
                    black_box(graphiti_sim::circuit_area(&placed));
                    black_box(graphiti_sim::elastic_clock_period(&placed).expect("acyclic"));
                }
            }
        })
    });
}

/// Figure 8: relative-performance series (normalization on top of table 2
/// data; benchmarked end to end on one program).
fn bench_fig8(c: &mut Criterion) {
    let _obs = ObsScope::new("fig8");
    let p = suite::matvec(6);
    c.bench_function("fig8/matvec_relative", |b| {
        b.iter(|| {
            let r = evaluate(&p).expect("evaluation");
            let base = r.flows[&Flow::DfOoo].cycles as f64;
            let series = (
                r.flows[&Flow::DfIo].cycles as f64 / base,
                r.flows[&Flow::Graphiti].cycles as f64 / base,
            );
            black_box(series);
        })
    });
}

/// §6.3: rewriting-engine throughput (the paper reports seconds-scale for
/// thousands of rewrites on graphs of 90-180 nodes).
fn bench_rewrite_engine(c: &mut Criterion) {
    let _obs = ObsScope::new("rewrite_engine");
    let p = suite::matvec(8);
    let compiled = compile(&p).expect("compiles");
    let k = compiled.kernels[0].clone();
    c.bench_function("rewrite_engine/matvec_pipeline", |b| {
        b.iter(|| {
            let opts = PipelineOptions { tags: 8, ..Default::default() };
            let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts).expect("pipeline");
            black_box((g.node_count(), report.rewrites));
        })
    });
}

/// The elastic cycle simulator on an in-order and an out-of-order circuit.
fn bench_simulator(c: &mut Criterion) {
    let _obs = ObsScope::new("simulator");
    let p = suite::matvec(8);
    let compiled = compile(&p).expect("compiles");
    let k = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 8, ..Default::default() };
    let (ooo, _) = optimize_loop(&k.graph, &k.inner_init, &opts).expect("pipeline");
    let (seq_placed, _) = place_buffers_targeted(&k.graph, 6.5);
    let (ooo_placed, _) = place_buffers_targeted(&ooo, 6.5);
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let mut group = c.benchmark_group("simulator");
    group.bench_function("matvec_in_order", |b| {
        b.iter(|| {
            let r = simulate(&seq_placed, &feeds, p.arrays.clone(), SimConfig::default())
                .expect("simulates");
            black_box(r.cycles);
        })
    });
    group.bench_function("matvec_out_of_order", |b| {
        b.iter(|| {
            let r = simulate(&ooo_placed, &feeds, p.arrays.clone(), SimConfig::default())
                .expect("simulates");
            black_box(r.cycles);
        })
    });
    group.finish();
}

/// The bounded refinement checker on a small equivalence.
fn bench_refinement_checker(c: &mut Criterion) {
    let _obs = ObsScope::new("refinement");
    let chain = |n: usize| -> graphiti_sem::Module {
        let bases: Vec<ExprLow> = (0..n)
            .map(|i| {
                ExprLow::base(format!("b{i}"), CompKind::Buffer { slots: 1, transparent: false })
            })
            .collect();
        let wires: Vec<_> = (0..n - 1)
            .map(|i| {
                (
                    PortName::local(format!("b{i}"), "out"),
                    PortName::local(format!("b{}", i + 1), "in"),
                )
            })
            .collect();
        let expr = ExprLow::product_of(bases).connect_all(wires);
        let mut in_map = BTreeMap::new();
        in_map.insert(PortName::local("b0", "in"), PortName::Io(0));
        let mut out_map = BTreeMap::new();
        out_map.insert(PortName::local(format!("b{}", n - 1), "out"), PortName::Io(0));
        denote(&expr, &Env::standard()).rename(&in_map, &out_map)
    };
    let two = chain(2);
    let three = chain(3);
    let cfg = RefineConfig {
        domain: vec![Value::Int(0), Value::Int(1)],
        max_depth: 8,
        ..Default::default()
    };
    c.bench_function("refinement/buffer_chains", |b| {
        b.iter(|| {
            black_box(check_refinement(&three, &two, &cfg));
        })
    });
}

/// The e-graph oracle simplifying a composed pure function.
fn bench_egraph(c: &mut Criterion) {
    let _obs = ObsScope::new("egraph");
    let f = PureFn::comp(
        PureFn::comp(PureFn::Swap, PureFn::Swap),
        PureFn::comp(
            PureFn::par(
                PureFn::comp(PureFn::Fst, PureFn::Dup),
                PureFn::comp(PureFn::Op(Op::NeZero), PureFn::Id),
            ),
            PureFn::comp(PureFn::AssocL, PureFn::AssocR),
        ),
    );
    c.bench_function("egraph/simplify", |b| {
        b.iter(|| {
            black_box(simplify(&f, 8));
        })
    });
}

/// The compiled backend's compile-once/simulate-many economics: what
/// lowering a circuit into a `CompiledCircuit` costs, what one run of
/// the lowered artifact costs, and the reference-sweep run it displaces.
/// After the criterion rows, a quick wall-clock estimate prints the
/// amortisation point — the number of simulations at which the lowering
/// has paid for itself.
fn bench_compile_backend(c: &mut Criterion) {
    let _obs = ObsScope::new("compile_backend");
    let p = suite::matvec(8);
    let compiled = compile(&p).expect("compiles");
    let k = &compiled.kernels[0];
    let (placed, _) = place_buffers_targeted(&k.graph, 6.5);
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let compiled_cfg = SimConfig { scheduler: Scheduler::Compiled, ..SimConfig::default() };
    let sweep_cfg = SimConfig { scheduler: Scheduler::ReferenceSweep, ..SimConfig::default() };

    let mut group = c.benchmark_group("compile_backend");
    let lower = || CompiledCircuit::new(&placed).expect("lowers");
    group.bench_function("compile_cold", |b| b.iter(|| black_box(lower().stats())));
    let art = lower();
    let run = || art.run(&feeds, p.arrays.clone(), &compiled_cfg).expect("simulates");
    group.bench_function("compiled_run_warm", |b| b.iter(|| black_box(run().cycles)));
    group.bench_function("reference_sweep_run", |b| {
        b.iter(|| {
            let r =
                simulate(&placed, &feeds, p.arrays.clone(), sweep_cfg.clone()).expect("simulates");
            black_box(r.cycles);
        })
    });
    group.finish();

    let time = |f: &mut dyn FnMut()| {
        let reps = 20;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(reps)
    };
    let t_compile = time(&mut || drop(lower()));
    let t_warm = time(&mut || drop(run()));
    let t_sweep = time(&mut || {
        simulate(&placed, &feeds, p.arrays.clone(), sweep_cfg.clone()).expect("simulates");
    });
    if t_sweep > t_warm {
        println!(
            "compile_backend: lowering {:.1}us amortises after {:.1} simulations \
             (reference sweep {:.1}us/run, compiled warm {:.1}us/run)",
            t_compile * 1e6,
            t_compile / (t_sweep - t_warm),
            t_sweep * 1e6,
            t_warm * 1e6,
        );
    } else {
        println!(
            "compile_backend: compiled warm run ({:.1}us) not faster than the reference \
             sweep ({:.1}us) on this host; lowering cost {:.1}us never amortises",
            t_warm * 1e6,
            t_sweep * 1e6,
            t_compile * 1e6,
        );
    }
}

/// Buffer placement and static timing on a benchmark-sized circuit.
fn bench_placement(c: &mut Criterion) {
    let _obs = ObsScope::new("placement");
    let p = suite::gemm(3, 3, 4);
    let compiled = compile(&p).expect("compiles");
    let g: ExprHigh = compiled.kernels[0].graph.clone();
    c.bench_function("placement/gemm_timing_driven", |b| {
        b.iter(|| {
            let (placed, stats) = place_buffers_targeted(&g, 6.5);
            black_box((placed.node_count(), stats.inserted));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table2, bench_table3, bench_fig8, bench_rewrite_engine,
              bench_simulator, bench_compile_backend, bench_refinement_checker,
              bench_egraph, bench_placement
}
criterion_main!(benches);
