//! The evaluation harness: runs each benchmark through the four flows of
//! the paper's Table 2 — **DF-IO** (in-order dataflow), **DF-OoO** (the
//! unverified out-of-order transformation), **GRAPHITI** (the verified
//! pipeline), and **Vericert** (the static-HLS baseline) — and collects
//! cycle counts, clock period, execution time, area, functional
//! correctness, and the rewrite statistics of §6.3.

use graphiti_core::{dfooo_loop, optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, run_program, KernelCircuit, Memory, Program};
use graphiti_ir::{ExprHigh, Value};
use graphiti_sim::{
    circuit_area, elastic_clock_period, place_buffers_targeted, simulate, Scheduler, SimConfig,
    SimError, StallReport,
};
use graphiti_static::run_static;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// The four implementation flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flow {
    /// In-order dataflow circuits (fast token delivery) \[21\].
    DfIo,
    /// Unverified out-of-order transformation \[22\].
    DfOoo,
    /// The verified Graphiti pipeline.
    Graphiti,
    /// Statically scheduled verified HLS [31, 32].
    Vericert,
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flow::DfIo => write!(f, "DF-IO"),
            Flow::DfOoo => write!(f, "DF-OoO"),
            Flow::Graphiti => write!(f, "GRAPHITI"),
            Flow::Vericert => write!(f, "Vericert"),
        }
    }
}

/// How many critical channels a [`StallSummary`] keeps per flow.
pub const CRITICAL_CHANNELS_KEPT: usize = 5;

/// Stall-cause summary of one flow, merged over its kernel simulations
/// (embedded into the `--json` reports; see `graphiti_sim::StallReport`
/// for the full per-run attribution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallSummary {
    /// Node-cycles lost to back-pressure across all kernels.
    pub stall_cycles: u64,
    /// Node-cycles lost to missing operands across all kernels.
    pub starved_cycles: u64,
    /// Lost node-cycles per root cause (kebab-case names). Sums to
    /// `stall_cycles + starved_cycles`.
    pub causes: BTreeMap<String, u64>,
    /// Top [`CRITICAL_CHANNELS_KEPT`] channels by node-cycles lost along
    /// chains through them, descending.
    pub critical_channels: Vec<(String, u64)>,
}

impl StallSummary {
    /// Merges per-kernel attribution reports into one flow summary.
    fn merge(reports: &[StallReport]) -> StallSummary {
        let mut s = StallSummary::default();
        let mut channels: BTreeMap<String, u64> = BTreeMap::new();
        for r in reports {
            s.stall_cycles += r.stall_cycles;
            s.starved_cycles += r.starved_cycles;
            for (cause, n) in r.cause_totals() {
                *s.causes.entry(cause.to_string()).or_insert(0) += n;
            }
            for (name, n) in &r.channels {
                *channels.entry(name.clone()).or_insert(0) += n;
            }
        }
        let mut ranked: Vec<(String, u64)> = channels.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(CRITICAL_CHANNELS_KEPT);
        s.critical_channels = ranked;
        s
    }
}

/// Metrics of one flow on one benchmark (one row-group cell of Tables 2/3).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMetrics {
    /// Simulated cycle count.
    pub cycles: u64,
    /// Post-placement clock period (ns).
    pub clock_period_ns: f64,
    /// `cycles × clock period` (ns).
    pub exec_time_ns: f64,
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP blocks.
    pub dsp: u64,
    /// Whether the final memory matched the reference interpreter.
    pub correct: bool,
    /// Stall-cause attribution, merged over the flow's kernels. `None`
    /// for the statically scheduled Vericert flow (no elastic handshakes
    /// to attribute).
    pub stalls: Option<StallSummary>,
}

/// The full result for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Metrics per flow.
    pub flows: BTreeMap<Flow, FlowMetrics>,
    /// Rewrites applied by the Graphiti pipeline (§6.3 statistic).
    pub rewrites: usize,
    /// Wall-clock seconds spent in the rewriting pipeline.
    pub rewrite_seconds: f64,
    /// Whether the verified flow refused the transformation (bicg).
    pub refused: bool,
    /// Node count of the largest kernel graph (§6.3 statistic).
    pub graph_nodes: usize,
}

/// Harness errors.
#[derive(Debug)]
pub enum EvalError {
    /// Compilation failed.
    Compile(String),
    /// Simulation failed.
    Sim(SimError),
    /// A model stage failed.
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Compile(m) => write!(f, "compile: {m}"),
            EvalError::Sim(e) => write!(f, "simulate: {e}"),
            EvalError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

/// Clock-period constraint handed to buffer placement (the paper constrains
/// Vivado to 4 ns; the elastic delay table here is coarser).
pub const CP_TARGET_NS: f64 = 6.5;

/// The canonical label of a scheduler (`compiled`, `reference-sweep`), as
/// `pipebench` prints it in its run header.
pub fn backend_name(scheduler: Scheduler) -> &'static str {
    match scheduler {
        Scheduler::ReferenceSweep => "reference-sweep",
        Scheduler::Compiled => "compiled",
    }
}

/// Runs a sequence of kernel graphs against shared memory, returning
/// `(total cycles, max clock period, total area, final memory, stalls)`.
/// Stall attribution is on for every scheduler (both walk waiting
/// node-cycles through the same observer), so every `--json` report
/// embeds the cause summary.
fn run_dataflow(
    graphs: &[ExprHigh],
    initial: Memory,
    scheduler: Scheduler,
) -> Result<(u64, f64, graphiti_sim::Area, Memory, Option<StallSummary>), EvalError> {
    let mut mem = initial;
    let mut cycles = 0u64;
    let mut cp: f64 = 0.0;
    let mut area = graphiti_sim::Area::default();
    let mut reports = Vec::with_capacity(graphs.len());
    for g in graphs {
        let (placed, _) = place_buffers_targeted(g, CP_TARGET_NS);
        cp = cp.max(elastic_clock_period(&placed).map_err(|e| EvalError::Other(e.to_string()))?);
        area = area + circuit_area(&placed);
        let feeds: BTreeMap<String, Vec<Value>> =
            [("start".to_string(), vec![Value::Unit])].into_iter().collect();
        let cfg = SimConfig { attribute_stalls: true, scheduler, ..SimConfig::default() };
        let r = simulate(&placed, &feeds, mem, cfg)?;
        cycles += r.cycles;
        mem = r.memory;
        reports.push(r.stalls.expect("attribution requested"));
    }
    Ok((cycles, cp, area, mem, Some(StallSummary::merge(&reports))))
}

fn metrics(
    cycles: u64,
    cp: f64,
    area: graphiti_sim::Area,
    mem: &Memory,
    expected: &Memory,
    stalls: Option<StallSummary>,
) -> FlowMetrics {
    FlowMetrics {
        cycles,
        clock_period_ns: cp,
        exec_time_ns: cycles as f64 * cp,
        lut: area.lut,
        ff: area.ff,
        dsp: area.dsp,
        correct: mem == expected,
        stalls,
    }
}

/// Prepared per-benchmark context shared by the four flow jobs: the
/// reference memory, the compiled kernels, and the §6.3 graph statistic.
/// Everything inside is plain data, so one context can be shared across
/// worker threads.
struct BenchCtx<'a> {
    program: &'a Program,
    expected: Memory,
    kernels: Vec<KernelCircuit>,
    graph_nodes: usize,
}

/// The result of one (benchmark, flow) job: the metrics cell plus the
/// rewrite statistics, which only the GRAPHITI flow produces.
struct FlowOutcome {
    metrics: FlowMetrics,
    rewrites: usize,
    rewrite_seconds: f64,
    refused: bool,
}

impl FlowOutcome {
    fn plain(metrics: FlowMetrics) -> FlowOutcome {
        FlowOutcome { metrics, rewrites: 0, rewrite_seconds: 0.0, refused: false }
    }
}

/// All four flows, in the order jobs are spawned per benchmark.
const FLOWS: [Flow; 4] = [Flow::DfIo, Flow::Graphiti, Flow::DfOoo, Flow::Vericert];

fn prepare(p: &Program) -> Result<BenchCtx<'_>, EvalError> {
    let expected = run_program(p).map_err(|e| EvalError::Other(e.to_string()))?;
    let compiled = compile(p).map_err(|e| EvalError::Compile(e.to_string()))?;
    let graph_nodes = compiled.kernels.iter().map(|k| k.graph.node_count()).max().unwrap_or(0);
    Ok(BenchCtx { program: p, expected, kernels: compiled.kernels, graph_nodes })
}

/// Runs one flow of one benchmark under `scheduler`. Independent of every
/// other (benchmark, flow) pair, so the suite fans these out across the
/// worker pool.
fn run_flow(
    ctx: &BenchCtx<'_>,
    flow: Flow,
    scheduler: Scheduler,
) -> Result<FlowOutcome, EvalError> {
    let kernels: &[KernelCircuit] = &ctx.kernels;
    match flow {
        // DF-IO: the compiled circuits as-is.
        Flow::DfIo => {
            let graphs: Vec<ExprHigh> = kernels.iter().map(|k| k.graph.clone()).collect();
            let (c, cp, a, mem, st) = run_dataflow(&graphs, ctx.program.arrays.clone(), scheduler)?;
            Ok(FlowOutcome::plain(metrics(c, cp, a, &mem, &ctx.expected, st)))
        }
        // GRAPHITI: the verified pipeline per marked kernel.
        Flow::Graphiti => {
            let mut rewrites = 0usize;
            let mut refused = false;
            let t0 = Instant::now();
            let mut graphs = Vec::new();
            for k in kernels {
                match k.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions { tags, ..Default::default() };
                        let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts)
                            .map_err(|e| EvalError::Other(e.to_string()))?;
                        rewrites += report.rewrites;
                        refused |= !report.transformed;
                        graphs.push(g);
                    }
                    None => graphs.push(k.graph.clone()),
                }
            }
            let rewrite_seconds = t0.elapsed().as_secs_f64();
            let (c, cp, a, mem, st) = run_dataflow(&graphs, ctx.program.arrays.clone(), scheduler)?;
            Ok(FlowOutcome {
                metrics: metrics(c, cp, a, &mem, &ctx.expected, st),
                rewrites,
                rewrite_seconds,
                refused,
            })
        }
        // DF-OoO: unverified surgery (no refusal; reproduces the bicg bug).
        Flow::DfOoo => {
            let mut graphs = Vec::new();
            for k in kernels {
                match k.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions { tags, ..Default::default() };
                        let g = dfooo_loop(&k.graph, &k.inner_init, &opts)
                            .map_err(|e| EvalError::Other(e.to_string()))?;
                        graphs.push(g);
                    }
                    None => graphs.push(k.graph.clone()),
                }
            }
            let (c, cp, a, mem, st) = run_dataflow(&graphs, ctx.program.arrays.clone(), scheduler)?;
            Ok(FlowOutcome::plain(metrics(c, cp, a, &mem, &ctx.expected, st)))
        }
        // Vericert: static baseline (no elastic handshakes to attribute).
        Flow::Vericert => {
            let st = run_static(ctx.program).map_err(|e| EvalError::Other(e.to_string()))?;
            Ok(FlowOutcome::plain(FlowMetrics {
                cycles: st.cycles,
                clock_period_ns: st.clock_period,
                exec_time_ns: st.cycles as f64 * st.clock_period,
                lut: st.area.lut,
                ff: st.area.ff,
                dsp: st.area.dsp,
                correct: st.memory == ctx.expected,
                stalls: None,
            }))
        }
    }
}

/// Folds the four flow outcomes of one benchmark into its result row.
fn assemble(ctx: &BenchCtx<'_>, outcomes: Vec<(Flow, FlowOutcome)>) -> BenchResult {
    let mut flows = BTreeMap::new();
    let mut rewrites = 0;
    let mut rewrite_seconds = 0.0;
    let mut refused = false;
    for (flow, o) in outcomes {
        flows.insert(flow, o.metrics);
        rewrites += o.rewrites;
        rewrite_seconds += o.rewrite_seconds;
        refused |= o.refused;
    }
    BenchResult {
        name: ctx.program.name.clone(),
        flows,
        rewrites,
        rewrite_seconds,
        refused,
        graph_nodes: ctx.graph_nodes,
    }
}

/// Evaluates one benchmark across all four flows, serially on the calling
/// thread. Used for instrumented per-benchmark profiling (where the
/// process-global `graphiti-obs` registry must not see concurrent
/// benchmarks) and by [`evaluate_suite`]'s workers.
///
/// # Errors
///
/// Fails on compilation or simulation errors; refusals and incorrect
/// results (the DF-OoO bicg bug) are *recorded*, not errors.
pub fn evaluate(p: &Program) -> Result<BenchResult, EvalError> {
    evaluate_with(p, Scheduler::default())
}

/// Like [`evaluate`], but simulating the dataflow flows under `scheduler`
/// (the Vericert flow is statically scheduled and unaffected).
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_with(p: &Program, scheduler: Scheduler) -> Result<BenchResult, EvalError> {
    let ctx = prepare(p)?;
    let mut outcomes = Vec::with_capacity(FLOWS.len());
    for flow in FLOWS {
        outcomes.push((flow, run_flow(&ctx, flow, scheduler)?));
    }
    Ok(assemble(&ctx, outcomes))
}

/// Evaluates the whole suite (Table 2 row order), fanning the independent
/// (benchmark, flow) jobs out across a scoped worker pool sized by
/// `available_parallelism` (override with `GRAPHITI_JOBS`). Results are
/// reassembled by input index, so the output order and every table
/// number are identical to a serial run. The `pool.*` obs metrics are
/// not: the pool records per-worker job counts.
///
/// # Errors
///
/// Propagates the first benchmark failure, in deterministic (suite, flow)
/// order.
pub fn evaluate_suite(suite: &[Program]) -> Result<Vec<BenchResult>, EvalError> {
    let ctxs: Vec<BenchCtx<'_>> = suite.iter().map(prepare).collect::<Result<_, _>>()?;
    let jobs: Vec<(usize, Flow)> =
        (0..ctxs.len()).flat_map(|b| FLOWS.into_iter().map(move |f| (b, f))).collect();
    let outcomes = graphiti_pool::parallel_map(jobs, |(b, flow)| {
        (b, flow, run_flow(&ctxs[b], flow, Scheduler::default()))
    });
    let mut per_bench: Vec<Vec<(Flow, FlowOutcome)>> =
        (0..ctxs.len()).map(|_| Vec::with_capacity(FLOWS.len())).collect();
    for (b, flow, outcome) in outcomes {
        per_bench[b].push((flow, outcome?));
    }
    Ok(ctxs.iter().zip(per_bench).map(|(ctx, outcomes)| assemble(ctx, outcomes)).collect())
}

/// Geometric mean helper.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for x in xs {
        if x > 0.0 {
            log_sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn geomean_is_correct() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn small_matvec_evaluation_has_paper_shape() {
        let p = suite::matvec(8);
        let r = evaluate(&p).unwrap();
        let io = &r.flows[&Flow::DfIo];
        let gr = &r.flows[&Flow::Graphiti];
        let oo = &r.flows[&Flow::DfOoo];
        let vc = &r.flows[&Flow::Vericert];
        // Everything except possibly DF-OoO must be functionally correct;
        // matvec is pure so DF-OoO is also correct.
        assert!(io.correct && gr.correct && oo.correct && vc.correct);
        assert!(!r.refused);
        assert!(r.rewrites > 10, "rewrites = {}", r.rewrites);
        // Shapes: GRAPHITI much faster than DF-IO in cycles; Vericert the
        // slowest in cycles but fastest clock; tagged circuits cost area.
        assert!(
            (gr.cycles as f64) < 0.6 * io.cycles as f64,
            "graphiti {} vs io {}",
            gr.cycles,
            io.cycles
        );
        assert!(vc.cycles > io.cycles);
        assert!(vc.clock_period_ns < io.clock_period_ns);
        assert!(gr.ff > io.ff);
        assert_eq!(gr.dsp, io.dsp, "DSPs identical across dataflow flows");
        assert_eq!(vc.dsp, 5);
    }

    #[test]
    fn dataflow_flows_carry_stall_summaries() {
        let p = suite::gcd(4);
        let r = evaluate(&p).unwrap();
        for flow in [Flow::DfIo, Flow::Graphiti, Flow::DfOoo] {
            let s = r.flows[&flow].stalls.as_ref().expect("dataflow flows attribute stalls");
            // The cause map partitions the lost node-cycles...
            assert_eq!(
                s.causes.values().sum::<u64>(),
                s.stall_cycles + s.starved_cycles,
                "{flow}: cause sums diverge"
            );
            // ...and the channel ranking is bounded and populated whenever
            // any cycle was lost.
            assert!(s.critical_channels.len() <= CRITICAL_CHANNELS_KEPT);
            if s.stall_cycles + s.starved_cycles > 0 {
                assert!(!s.critical_channels.is_empty() || !s.causes.is_empty());
            }
        }
        assert!(r.flows[&Flow::Vericert].stalls.is_none(), "static flow has no handshakes");
    }

    #[test]
    fn compiled_backend_matches_the_sweep_with_stalls() {
        let p = suite::matvec(8);
        let sw = evaluate_with(&p, Scheduler::ReferenceSweep).unwrap();
        let co = evaluate(&p).unwrap();
        for flow in [Flow::DfIo, Flow::Graphiti, Flow::DfOoo] {
            assert_eq!(sw.flows[&flow].cycles, co.flows[&flow].cycles, "{flow}: cycles diverge");
            assert!(co.flows[&flow].correct, "{flow}: compiled run incorrect");
            // The summary must match the sweep's exactly.
            let e = sw.flows[&flow].stalls.as_ref().expect("the sweep attributes");
            let c = co.flows[&flow].stalls.as_ref().expect("the compiled core attributes");
            assert_eq!(e, c, "{flow}: stall summaries diverge");
            assert_eq!(
                c.causes.values().sum::<u64>(),
                c.stall_cycles + c.starved_cycles,
                "{flow}: compiled cause sums diverge"
            );
        }
        // The static flow is untouched by the scheduler choice.
        assert_eq!(sw.flows[&Flow::Vericert].cycles, co.flows[&Flow::Vericert].cycles);
    }

    #[test]
    fn bicg_is_refused_and_matches_df_io() {
        let p = suite::bicg(6);
        let r = evaluate(&p).unwrap();
        assert!(r.refused);
        let io = &r.flows[&Flow::DfIo];
        let gr = &r.flows[&Flow::Graphiti];
        assert_eq!(io.cycles, gr.cycles, "refusal leaves the circuit untouched");
        assert!(gr.correct);
    }
}
