//! The three workloads: what each sets up, and what one timed pass does.
//!
//! Every call into a layer's public functions goes through
//! [`Tracer::span`], so a traced pass records one span per call, nested
//! pass → kernel → flow → layer call. Every flow's final memory is checked
//! against the reference interpreter and every refinement verdict is
//! classified; misses are counted, never hidden.

use crate::inputs;
use crate::trace::{Ctx, Tracer};
use graphiti_bench::eval::CP_TARGET_NS;
use graphiti_bench::{geomean, suite, Flow};
use graphiti_core::{dfooo_loop, optimize_loop, PipelineOptions};
use graphiti_frontend::{
    compile, parse_program, print_program, run_program, CompiledProgram, Memory, Program,
};
use graphiti_ir::{ExprHigh, Value};
use graphiti_rewrite::{verify, CheckMode, Obligation};
use graphiti_sem::{
    check_refinement_with_stats, denote, BoundKind, Env, RefineConfig, RefineStats, Refinement,
};
use graphiti_sim::{
    circuit_area, compile_cache_clear, compile_cache_stats, elastic_clock_period,
    place_buffers_targeted, simulate, SimConfig,
};
use graphiti_static::run_static;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["table2", "sim-large", "checked-gcd"];

/// Dimension multiplier of `sim-large` relative to `table2`.
pub const LARGE_SCALE: i64 = 4;

/// Pairs in the `checked-gcd` program. The obligations depend only on the
/// circuit's shape, so this sizes the simulation, not the check.
pub const GCD_PAIRS: i64 = 2048;

/// The four flows of Table 2, in the order `evaluate` runs them.
const FLOWS: [Flow; 4] = [Flow::DfIo, Flow::Graphiti, Flow::DfOoo, Flow::Vericert];

/// The three dataflow flows `sim-large` simulates.
const DATAFLOW: [Flow; 3] = [Flow::DfIo, Flow::Graphiti, Flow::DfOoo];

/// How one refinement obligation came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Exhaustive: no violation and no bound hit.
    Holds,
    /// No violation found before this bound stopped the search.
    Bounded(BoundKind),
    /// A violating trace.
    Fails,
    /// The two sides expose different ports.
    Incomparable,
}

impl Verdict {
    fn of(r: &Refinement) -> Verdict {
        match r {
            Refinement::Holds => Verdict::Holds,
            Refinement::BoundReached(hit) => Verdict::Bounded(hit.kind),
            Refinement::Fails { .. } => Verdict::Fails,
            Refinement::Incomparable(_) => Verdict::Incomparable,
        }
    }
}

/// The exact counts and modelled results of one pass. Two passes over the
/// same arrays produce equal `Counts`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Checked operations: flow runs compared with `run_program`, and
    /// obligations discharged.
    pub attempted: u64,
    /// Checked operations that missed their known answer.
    pub failed: u64,
    /// One line per miss.
    pub failures: Vec<String>,
    /// DF-OoO on bicg (the paper's documented miscompile), kept out of
    /// `attempted`: whether its memory matched.
    pub bicg_dfooo_correct: Option<bool>,
    /// Total GRAPHITI-flow simulated cycles.
    pub graphiti_cycles: u64,
    /// Total GRAPHITI-flow LUTs.
    pub graphiti_lut: u64,
    /// Per kernel, DF-IO execution time over GRAPHITI execution time.
    pub speedups: Vec<f64>,
    /// Components in the compiled kernels.
    pub nodes: u64,
    /// Rewrites applied (`PipelineReport::rewrites`).
    pub rewrites: u64,
    /// Refinement obligations collected in deferred mode.
    pub obligations: u64,
    /// Per obligation, in order: the rewrite and its verdict.
    pub verdicts: Vec<(String, Verdict)>,
    /// Refinement states visited (traced passes only: the statistics come
    /// from `check_refinement_with_stats`).
    pub visited_states: u64,
    /// Spec closures computed (traced passes only).
    pub closures: u64,
    /// Pool workers of the largest discharge.
    pub workers: u64,
    /// Simulated cycles, all flows.
    pub sim_cycles: u64,
    /// Component firings, all flows.
    pub sim_firings: u64,
    /// Node-cycles lost to back-pressure (attributed runs only).
    pub stall_cycles: u64,
    /// Node-cycles lost to missing operands (attributed runs only).
    pub starved_cycles: u64,
    /// Compiled-artifact cache hits during `simulate`.
    pub cache_hits: u64,
    /// Compiled-artifact cache misses during `simulate`.
    pub cache_misses: u64,
}

impl Counts {
    /// The paper's headline: geometric mean of the per-kernel speedups.
    pub fn graphiti_speedup(&self) -> f64 {
        geomean(self.speedups.iter().copied())
    }

    fn check(&mut self, program: &str, flow: Flow, ok: bool) {
        if program == "bicg" && flow == Flow::DfOoo {
            self.bicg_dfooo_correct = Some(ok);
            return;
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{program} {flow}: final memory differs from run_program"));
        }
    }

    fn verdict(&mut self, rewrite: String, r: &Refinement, stats: Option<RefineStats>) {
        let v = Verdict::of(r);
        self.attempted += 1;
        if matches!(v, Verdict::Fails | Verdict::Incomparable) {
            self.failed += 1;
            self.failures.push(format!("obligation `{rewrite}`: {r:?}"));
        }
        if let Some(s) = stats {
            self.visited_states += s.visited_states;
            self.closures += s.closures;
        }
        self.verdicts.push((rewrite, v));
    }
}

/// What one timed pass returns besides its spans.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Exact counts and modelled results.
    pub counts: Counts,
    /// Seconds from the pass start to the last obligation verdict
    /// (`checked-gcd` only; zero elsewhere).
    pub verdict_s: f64,
}

/// Placed kernel circuits of one flow, with the modelled clock and area.
struct Placed {
    graphs: Vec<ExprHigh>,
    clock_ns: f64,
    lut: u64,
}

/// The outcome of running one flow of one program.
struct FlowRun {
    cycles: u64,
    clock_ns: f64,
    lut: u64,
    memory: Memory,
}

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

fn node_count(c: &CompiledProgram) -> u64 {
    c.kernels.iter().map(|k| k.graph.node_count() as u64).sum()
}

/// The unchecked circuits of one dataflow flow: DF-IO as compiled,
/// GRAPHITI through `optimize_loop`, DF-OoO through `dfooo_loop`.
fn transform(
    tr: &Tracer,
    ctx: Ctx,
    flow: Flow,
    compiled: &CompiledProgram,
    counts: &mut Counts,
) -> Result<Vec<ExprHigh>, String> {
    let mut graphs = Vec::with_capacity(compiled.kernels.len());
    for k in &compiled.kernels {
        let Some(tags) = k.ooo_tags.filter(|_| flow != Flow::DfIo) else {
            graphs.push(k.graph.clone());
            continue;
        };
        let opts = PipelineOptions { tags, ..Default::default() };
        let g = if flow == Flow::Graphiti {
            let (g, report) = tr
                .span(ctx, "rewrite.optimize", &k.name, |_| {
                    optimize_loop(&k.graph, &k.inner_init, &opts)
                })
                .map_err(|e| format!("{}: optimize_loop: {e}", k.name))?;
            counts.rewrites += report.rewrites as u64;
            g
        } else {
            tr.span(ctx, "rewrite.dfooo", &k.name, |_| dfooo_loop(&k.graph, &k.inner_init, &opts))
                .map_err(|e| format!("{}: dfooo_loop: {e}", k.name))?
        };
        graphs.push(g);
    }
    Ok(graphs)
}

/// Buffer placement, static timing and area of each kernel circuit.
fn place(tr: &Tracer, ctx: Ctx, graphs: &[ExprHigh]) -> Result<Placed, String> {
    let mut placed = Placed { graphs: Vec::with_capacity(graphs.len()), clock_ns: 0.0, lut: 0 };
    for g in graphs {
        let (pg, _) = tr.span(ctx, "sim.place", "", |_| place_buffers_targeted(g, CP_TARGET_NS));
        let cp = tr
            .span(ctx, "sim.sta", "", |_| elastic_clock_period(&pg))
            .map_err(|e| format!("elastic_clock_period: {e}"))?;
        placed.clock_ns = placed.clock_ns.max(cp);
        placed.lut += tr.span(ctx, "sim.area", "", |_| circuit_area(&pg)).lut;
        placed.graphs.push(pg);
    }
    Ok(placed)
}

/// Simulates the kernel circuits in order against one memory.
fn run_dataflow(
    tr: &Tracer,
    ctx: Ctx,
    placed: &Placed,
    mut memory: Memory,
    attribute_stalls: bool,
    counts: &mut Counts,
) -> Result<FlowRun, String> {
    let feeds = start_feed();
    let mut cycles = 0;
    for g in &placed.graphs {
        let cfg = SimConfig { attribute_stalls, ..SimConfig::default() };
        let (hits, misses) = compile_cache_stats();
        let r = tr
            .span(ctx, "sim.simulate", "", |_| simulate(g, &feeds, memory, cfg))
            .map_err(|e| format!("simulate: {e}"))?;
        let (hits2, misses2) = compile_cache_stats();
        counts.cache_hits += hits2 - hits;
        counts.cache_misses += misses2 - misses;
        counts.sim_cycles += r.cycles;
        counts.sim_firings += r.firings;
        if let Some(s) = &r.stalls {
            counts.stall_cycles += s.stall_cycles;
            counts.starved_cycles += s.starved_cycles;
        }
        cycles += r.cycles;
        memory = r.memory;
    }
    Ok(FlowRun { cycles, clock_ns: placed.clock_ns, lut: placed.lut, memory })
}

/// Folds one program's flow runs into the pass counts: correctness per
/// flow, the GRAPHITI totals, and the DF-IO/GRAPHITI speedup.
fn record(counts: &mut Counts, program: &str, runs: &[(Flow, FlowRun)], expected: &Memory) {
    let exec =
        |f: Flow| runs.iter().find(|(g, _)| *g == f).map(|(_, r)| r.cycles as f64 * r.clock_ns);
    for (flow, r) in runs {
        counts.check(program, *flow, r.memory == *expected);
        if *flow == Flow::Graphiti {
            counts.graphiti_cycles += r.cycles;
            counts.graphiti_lut += r.lut;
        }
    }
    if let (Some(io), Some(gr)) = (exec(Flow::DfIo), exec(Flow::Graphiti)) {
        counts.speedups.push(io / gr);
    }
}

/// `table2`: the paper's evaluation, all four flows over every kernel,
/// unchecked, with stall attribution on, on one thread.
pub struct Table2 {
    programs: Vec<Program>,
}

impl Table2 {
    /// Draws the arrays and runs one untimed warm-up pass.
    ///
    /// # Errors
    ///
    /// Any layer error of the warm-up pass.
    pub fn setup(shapes: &[Program], seed: u64) -> Result<Table2, String> {
        let mut rng = inputs::rng(seed, 0);
        let programs = shapes.iter().map(|s| inputs::seeded(s, &mut rng)).collect();
        let t = Table2 { programs };
        t.pass(&Tracer::new(false), 0)?;
        Ok(t)
    }

    /// The seeded programs every pass runs.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// One evaluation pass, starting from a cold compiled-artifact cache
    /// as a fresh `report` process would.
    ///
    /// # Errors
    ///
    /// Any layer error; wrong answers are counted, not errors.
    pub fn pass(&self, tr: &Tracer, pass: u64) -> Result<PassOutcome, String> {
        compile_cache_clear();
        let mut counts = Counts::default();
        tr.span(Ctx::root(pass), "pass", "table2", |c| {
            self.programs.iter().try_for_each(|p| {
                tr.span(c, "kernel", &p.name, |k| table2_program(tr, k, p, &mut counts))
            })
        })?;
        Ok(PassOutcome { counts, verdict_s: 0.0 })
    }
}

fn table2_program(tr: &Tracer, k: Ctx, p: &Program, counts: &mut Counts) -> Result<(), String> {
    let expected = tr
        .span(k, "frontend.interp", "", |_| run_program(p))
        .map_err(|e| format!("{}: run_program: {e}", p.name))?;
    let compiled = tr
        .span(k, "frontend.codegen", "", |_| compile(p))
        .map_err(|e| format!("{}: compile: {e}", p.name))?;
    counts.nodes += node_count(&compiled);
    let mut runs = Vec::with_capacity(FLOWS.len());
    for flow in FLOWS {
        let run = tr.span(k, "flow", &flow.to_string(), |f| {
            if flow == Flow::Vericert {
                let st = tr
                    .span(f, "staticsched.run", "", |_| run_static(p))
                    .map_err(|e| format!("{}: run_static: {e}", p.name))?;
                return Ok(FlowRun {
                    cycles: st.cycles,
                    clock_ns: st.clock_period,
                    lut: st.area.lut,
                    memory: st.memory,
                });
            }
            let graphs = transform(tr, f, flow, &compiled, counts)?;
            let placed = place(tr, f, &graphs)?;
            run_dataflow(tr, f, &placed, p.arrays.clone(), true, counts)
        })?;
        runs.push((flow, run));
    }
    record(counts, &p.name, &runs, &expected);
    Ok(())
}

/// `sim-large`: the same kernels with every dimension scaled up, through
/// the three dataflow flows. Circuits are compiled, rewritten and placed
/// once in set-up; each pass draws fresh arrays and only simulates.
pub struct SimLarge {
    seed: u64,
    kernels: Vec<LargeKernel>,
    nodes: u64,
}

struct LargeKernel {
    shape: Program,
    flows: Vec<(Flow, Placed)>,
}

impl SimLarge {
    /// Compiles, rewrites and places every flow of every kernel.
    ///
    /// # Errors
    ///
    /// Any layer error.
    pub fn setup(shapes: Vec<Program>, seed: u64) -> Result<SimLarge, String> {
        let off = Tracer::new(false);
        let root = Ctx::root(0);
        let mut counts = Counts::default();
        let mut kernels = Vec::with_capacity(shapes.len());
        for shape in shapes {
            let compiled = compile(&shape).map_err(|e| format!("{}: compile: {e}", shape.name))?;
            counts.nodes += node_count(&compiled);
            let mut flows = Vec::with_capacity(DATAFLOW.len());
            for flow in DATAFLOW {
                let graphs = transform(&off, root, flow, &compiled, &mut counts)?;
                flows.push((flow, place(&off, root, &graphs)?));
            }
            kernels.push(LargeKernel { shape, flows });
        }
        Ok(SimLarge { seed, kernels, nodes: counts.nodes })
    }

    /// Pass `pass` draws its own arrays (stream `pass` of the seed) and
    /// simulates every placed circuit with observation off.
    ///
    /// # Errors
    ///
    /// Any layer error; wrong answers are counted, not errors.
    pub fn pass(&self, tr: &Tracer, pass: u64) -> Result<PassOutcome, String> {
        let mut rng = inputs::rng(self.seed, pass);
        let mut counts = Counts { nodes: self.nodes, ..Counts::default() };
        tr.span(Ctx::root(pass), "pass", "sim-large", |c| {
            self.kernels.iter().try_for_each(|lk| {
                let p = inputs::seeded(&lk.shape, &mut rng);
                tr.span(c, "kernel", &p.name, |k| {
                    let expected = tr
                        .span(k, "frontend.interp", "", |_| run_program(&p))
                        .map_err(|e| format!("{}: run_program: {e}", p.name))?;
                    let mut runs = Vec::with_capacity(lk.flows.len());
                    for (flow, placed) in &lk.flows {
                        let run = tr.span(k, "flow", &flow.to_string(), |f| {
                            run_dataflow(tr, f, placed, p.arrays.clone(), false, &mut counts)
                        })?;
                        runs.push((*flow, run));
                    }
                    record(&mut counts, &p.name, &runs, &expected);
                    Ok::<(), String>(())
                })
            })
        })?;
        Ok(PassOutcome { counts, verdict_s: 0.0 })
    }
}

/// `checked-gcd`: the verified path as the CLI runs it. Parse the gcd
/// program's text, compile, run `optimize_loop` in deferred mode, discharge
/// every obligation on the pool, then place and simulate the result next
/// to the in-order circuit.
pub struct CheckedGcd {
    text: String,
    expected: Memory,
    refine: RefineConfig,
}

impl CheckedGcd {
    /// Draws the gcd arrays, prints the program as text, computes the
    /// reference memory, and warms up with one unchecked pass.
    ///
    /// # Errors
    ///
    /// Any layer error.
    pub fn setup(pairs: i64, refine: RefineConfig, seed: u64) -> Result<CheckedGcd, String> {
        let p = inputs::seeded(&suite::gcd(pairs), &mut inputs::rng(seed, 0));
        let expected = run_program(&p).map_err(|e| format!("gcd: run_program: {e}"))?;
        let g = CheckedGcd { text: print_program(&p), expected, refine };
        g.run(&Tracer::new(false), 0, CheckMode::Off)?;
        Ok(g)
    }

    /// The program text every pass parses.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// One verified pass.
    ///
    /// # Errors
    ///
    /// Any layer error; failed obligations and wrong answers are counted,
    /// not errors.
    pub fn pass(&self, tr: &Tracer, pass: u64) -> Result<PassOutcome, String> {
        self.run(tr, pass, CheckMode::Deferred)
    }

    fn run(&self, tr: &Tracer, pass: u64, check: CheckMode) -> Result<PassOutcome, String> {
        let t0 = Instant::now();
        let mut counts = Counts::default();
        let mut verdict_s = 0.0;
        tr.span(Ctx::root(pass), "pass", "checked-gcd", |c| {
            tr.span(c, "kernel", "gcd", |k| {
                let program = tr
                    .span(k, "frontend.parse", "", |_| parse_program(&self.text))
                    .map_err(|e| format!("gcd: parse_program: {e}"))?;
                let compiled = tr
                    .span(k, "frontend.codegen", "", |_| compile(&program))
                    .map_err(|e| format!("gcd: compile: {e}"))?;
                counts.nodes += node_count(&compiled);
                let graphiti = tr.span(k, "flow", "GRAPHITI", |f| {
                    let mut graphs = Vec::with_capacity(compiled.kernels.len());
                    for kernel in &compiled.kernels {
                        let Some(tags) = kernel.ooo_tags else {
                            graphs.push(kernel.graph.clone());
                            continue;
                        };
                        let opts = PipelineOptions {
                            tags,
                            check,
                            refine_cfg: self.refine.clone(),
                            ..Default::default()
                        };
                        let name = if check == CheckMode::Off {
                            "rewrite.optimize"
                        } else {
                            "rewrite.deferred"
                        };
                        let (g, mut report) = tr
                            .span(f, name, &kernel.name, |_| {
                                optimize_loop(&kernel.graph, &kernel.inner_init, &opts)
                            })
                            .map_err(|e| format!("gcd: optimize_loop: {e}"))?;
                        counts.rewrites += report.rewrites as u64;
                        let obligations = std::mem::take(&mut report.obligations);
                        counts.obligations += obligations.len() as u64;
                        discharge(tr, f, obligations, &self.refine, &mut counts);
                        graphs.push(g);
                    }
                    verdict_s = t0.elapsed().as_secs_f64();
                    let placed = place(tr, f, &graphs)?;
                    run_dataflow(tr, f, &placed, program.arrays.clone(), false, &mut counts)
                })?;
                let in_order = tr.span(k, "flow", "DF-IO", |f| {
                    let graphs: Vec<ExprHigh> =
                        compiled.kernels.iter().map(|kc| kc.graph.clone()).collect();
                    let placed = place(tr, f, &graphs)?;
                    run_dataflow(tr, f, &placed, program.arrays.clone(), false, &mut counts)
                })?;
                let runs = [(Flow::Graphiti, graphiti), (Flow::DfIo, in_order)];
                record(&mut counts, "gcd", &runs, &self.expected);
                Ok::<(), String>(())
            })
        })?;
        Ok(PassOutcome { counts, verdict_s })
    }
}

/// Discharges a batch of obligations on the pool. Untraced, this is
/// `verify::discharge` exactly as the CLI calls it; traced, the benchmark
/// fans the same per-obligation work (denote both sides, check
/// `⟦rhs⟧ ⊑ ⟦lhs⟧`) out itself, so that `denote` and
/// `check_refinement_with_stats` get spans and statistics of their own.
fn discharge(
    tr: &Tracer,
    ctx: Ctx,
    obligations: Vec<Obligation>,
    cfg: &RefineConfig,
    counts: &mut Counts,
) {
    if obligations.is_empty() {
        return;
    }
    counts.workers = counts.workers.max(graphiti_pool::worker_count(obligations.len()) as u64);
    let verdicts: Vec<(String, Refinement, Option<RefineStats>)> =
        tr.span(ctx, "pool.discharge", "", |d| {
            if !tr.on() {
                return verify::discharge(obligations, cfg)
                    .into_iter()
                    .map(|v| (v.rewrite, v.verdict, None))
                    .collect();
            }
            graphiti_pool::parallel_map(obligations, |ob| {
                let env = Env::standard();
                let (lhs, rhs) = tr.span(d, "sem.denote", &ob.rewrite, |_| {
                    (denote(&ob.lhs, &env), denote(&ob.rhs, &env))
                });
                let (verdict, stats) = tr.span(d, "sem.check", &ob.rewrite, |_| {
                    check_refinement_with_stats(&rhs, &lhs, cfg)
                });
                (ob.rewrite, verdict, Some(stats))
            })
        });
    for (rewrite, verdict, stats) in verdicts {
        counts.verdict(rewrite, &verdict, stats);
    }
}

/// A workload, set up and ready for timed passes.
pub enum Bench {
    /// See [`Table2`].
    Table2(Table2),
    /// See [`SimLarge`].
    SimLarge(SimLarge),
    /// See [`CheckedGcd`].
    CheckedGcd(CheckedGcd),
}

impl Bench {
    /// Sets up workload `name` at its benchmark sizes.
    ///
    /// # Errors
    ///
    /// An unknown workload, or any layer error during set-up.
    pub fn setup(name: &str, seed: u64) -> Result<Bench, String> {
        match name {
            "table2" => Table2::setup(&inputs::shapes(1), seed).map(Bench::Table2),
            "sim-large" => SimLarge::setup(inputs::shapes(LARGE_SCALE), seed).map(Bench::SimLarge),
            "checked-gcd" => {
                CheckedGcd::setup(GCD_PAIRS, RefineConfig::default(), seed).map(Bench::CheckedGcd)
            }
            other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
        }
    }

    /// Runs timed pass number `pass` (from 1).
    ///
    /// # Errors
    ///
    /// Any layer error.
    pub fn pass(&self, tr: &Tracer, pass: u64) -> Result<PassOutcome, String> {
        match self {
            Bench::Table2(b) => b.pass(tr, pass),
            Bench::SimLarge(b) => b.pass(tr, pass),
            Bench::CheckedGcd(b) => b.pass(tr, pass),
        }
    }

    /// Whether every pass draws the same arrays, so that every pass must
    /// give identical counts.
    pub fn fixed_inputs(&self) -> bool {
        !matches!(self, Bench::SimLarge(_))
    }
}
