//! The five metamorphic oracles.
//!
//! Each oracle states a property that must hold for *every* well-formed
//! program, so a generated case needs no hand-written expected output:
//!
//! 1. **Scheduler equivalence** — the compiled backend and the reference
//!    sweep agree on every observable (cycles, outputs, memory, firings,
//!    leftovers), even after buffer capacities are randomly widened; and
//!    the common result matches the reference interpreter.
//! 2. **Rewrite equivalence** — running the verified out-of-order
//!    pipeline and then simulating yields the same final memory as
//!    simulating the untransformed circuit; a refusal must leave the
//!    circuit byte-identical.
//! 3. **Round-trips** — `print_program` → `parse_program` is the
//!    identity, and the simulator's VCD waveform parses back with a
//!    consistent horizon.
//! 4. **Refinement agreement** — every obligation collected by the
//!    pipeline in deferred mode discharges `Holds`/`BoundReached` under
//!    a small input domain; a `Fails` verdict on a circuit whose
//!    simulations agree (oracle 2 ran first) is a checker/simulator
//!    disagreement.
//! 5. **Telemetry equivalence** — the compiled backend yields a VCD
//!    byte-identical to the reference sweep's and an identical stall
//!    report whose per-cause sums equal the stall/starve totals
//!    (WaveCert's framing: the fast path's observations are validated
//!    against the reference, not trusted).

use crate::gen::mutate_buffer_slots;
use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, parse_program, print_program, run_program, Memory, Program};
use graphiti_ir::Value;
use graphiti_rewrite::{verify, CheckMode};
use graphiti_sem::RefineConfig;
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, SimResult};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::fmt;

/// Which oracles to run (oracle 4 is by far the most expensive, so the
/// harness subsamples it).
#[derive(Debug, Clone)]
pub struct OracleOpts {
    /// Run the deferred-obligation discharge oracle.
    pub refinement: bool,
}

impl Default for OracleOpts {
    fn default() -> Self {
        OracleOpts { refinement: true }
    }
}

/// One oracle violation. `kind` is a short *stable* tag — the shrinker
/// preserves it while minimising, so a candidate that fails differently
/// (e.g. stops compiling) is rejected rather than chased.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Stable failure class within the oracle (shrinker identity).
    pub kind: String,
    /// Human-readable specifics (node names, values, verdicts).
    pub detail: String,
}

impl Failure {
    fn new(oracle: &'static str, kind: &str, detail: String) -> Failure {
        Failure { oracle, kind: kind.to_string(), detail }
    }

    /// The identity used for deduplication and shrinking.
    pub fn fingerprint(&self) -> String {
        format!("{}/{}", self.oracle, self.kind)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.kind, self.detail)
    }
}

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

fn run(
    g: &graphiti_ir::ExprHigh,
    mem: Memory,
    scheduler: Scheduler,
    waveform: bool,
    oracle: &'static str,
) -> Result<SimResult, Failure> {
    let cfg = SimConfig { scheduler, waveform, ..SimConfig::default() };
    simulate(g, &start_feed(), mem, cfg)
        .map_err(|e| Failure::new(oracle, "sim-error", format!("{scheduler:?}: {e}")))
}

/// The small domain for bounded refinement checks: enough values to
/// distinguish the control/data paths without blowing up the product
/// construction on every rewrite application.
pub fn small_refine_cfg() -> RefineConfig {
    RefineConfig {
        domain: vec![Value::Bool(true), Value::Bool(false), Value::Int(0), Value::Int(1)],
        max_depth: 3,
        max_states: 2_000,
        closure_limit: 128,
        queue_cap: 2,
        well_typed_inputs: true,
    }
}

/// Oracle 1: scheduler equivalence under random buffer widening, plus
/// interpreter ground truth on the final memory.
pub fn oracle_sched(p: &Program, rng: &mut StdRng) -> Result<(), Failure> {
    const O: &str = "sched-equiv";
    let expected = run_program(p)
        .map_err(|e| Failure::new(O, "interp-error", format!("reference interpreter: {e}")))?;
    let compiled =
        compile(p).map_err(|e| Failure::new(O, "compile-error", format!("codegen: {e}")))?;
    let mut mem = p.arrays.clone();
    for k in &compiled.kernels {
        let (placed, _) = place_buffers(&k.graph);
        let placed = mutate_buffer_slots(rng, &placed);
        let sw = run(&placed, mem.clone(), Scheduler::ReferenceSweep, false, O)?;
        let co = run(&placed, mem, Scheduler::Compiled, false, O)?;
        let checks: [(&str, bool); 6] = [
            ("cycles", sw.cycles == co.cycles),
            ("outputs", sw.outputs == co.outputs),
            ("memory", sw.memory == co.memory),
            ("firings", sw.firings == co.firings),
            ("firings-by-node", sw.firings_by_node == co.firings_by_node),
            ("leftovers", sw.leftover_tokens == co.leftover_tokens),
        ];
        for (what, ok) in checks {
            if !ok {
                return Err(Failure::new(
                    O,
                    what,
                    format!(
                        "kernel `{}`: schedulers disagree on {what} \
                         (reference-sweep cycles={}, compiled cycles={})",
                        k.name, sw.cycles, co.cycles
                    ),
                ));
            }
        }
        mem = sw.memory;
    }
    if mem != expected {
        let which: Vec<&String> = expected
            .iter()
            .filter(|(name, vals)| mem.get(name.as_str()) != Some(vals))
            .map(|(name, _)| name)
            .collect();
        return Err(Failure::new(
            O,
            "vs-interpreter",
            format!("circuit memory diverges from the interpreter on arrays {which:?}"),
        ));
    }
    Ok(())
}

/// Oracle 2: the out-of-order pipeline preserves final memory, and a
/// refusal returns the circuit unchanged.
pub fn oracle_rewrite(p: &Program) -> Result<(), Failure> {
    const O: &str = "rewrite-equiv";
    let compiled =
        compile(p).map_err(|e| Failure::new(O, "compile-error", format!("codegen: {e}")))?;
    let mut mem_io = p.arrays.clone();
    let mut mem_ooo = p.arrays.clone();
    for k in &compiled.kernels {
        // Kernels not marked for out-of-order still go through the
        // pipeline with a small budget: the normalization rewrites must
        // be sound on them too.
        let tags = k.ooo_tags.unwrap_or(2);
        let opts = PipelineOptions { tags, ..Default::default() };
        let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts)
            .map_err(|e| Failure::new(O, "pipeline-error", format!("kernel `{}`: {e}", k.name)))?;
        if report.refusal.is_some() && g != k.graph {
            return Err(Failure::new(
                O,
                "refusal-mutates",
                format!("kernel `{}`: refused ({:?}) but graph changed", k.name, report.refusal),
            ));
        }
        if let Err(e) = g.validate() {
            return Err(Failure::new(
                O,
                "invalid-graph",
                format!("kernel `{}`: transformed graph invalid: {e}", k.name),
            ));
        }
        let (placed_io, _) = place_buffers(&k.graph);
        let (placed_ooo, _) = place_buffers(&g);
        let rio = run(&placed_io, mem_io, Scheduler::Compiled, false, O)?;
        let rooo = run(&placed_ooo, mem_ooo, Scheduler::Compiled, false, O)?;
        if rio.memory != rooo.memory {
            return Err(Failure::new(
                O,
                "memory",
                format!(
                    "kernel `{}` (tags {tags}, transformed {}): \
                     in-order and rewritten circuits end with different memory",
                    k.name, report.transformed
                ),
            ));
        }
        mem_io = rio.memory;
        mem_ooo = rooo.memory;
    }
    Ok(())
}

/// Oracle 3: `print_program` → `parse_program` is the identity, and the
/// waveform the simulator emits parses back consistently.
pub fn oracle_roundtrip(p: &Program) -> Result<(), Failure> {
    const O: &str = "round-trip";
    let text = print_program(p);
    let back = parse_program(&text)
        .map_err(|e| Failure::new(O, "gsl-parse", format!("printed program rejected: {e}")))?;
    if &back != p {
        return Err(Failure::new(
            O,
            "gsl-identity",
            "print → parse is not the identity".to_string(),
        ));
    }

    // One kernel is enough for the VCD check — the writer is per-run.
    let compiled =
        compile(p).map_err(|e| Failure::new(O, "compile-error", format!("codegen: {e}")))?;
    if let Some(k) = compiled.kernels.first() {
        let (placed, _) = place_buffers(&k.graph);
        let r = run(&placed, p.arrays.clone(), Scheduler::Compiled, true, O)?;
        let wave = r.waveform.as_deref().unwrap_or_default();
        let dump = graphiti_obs::vcd::parse(wave)
            .map_err(|e| Failure::new(O, "vcd-parse", format!("emitted VCD rejected: {e}")))?;
        if dump.end_time() > r.cycles {
            return Err(Failure::new(
                O,
                "vcd-horizon",
                format!("VCD end time {} exceeds the run's {} cycles", dump.end_time(), r.cycles),
            ));
        }
    }
    Ok(())
}

/// Oracle 4: deferred obligations discharge under a small domain. Runs
/// after oracle 2, so a `Fails` verdict here means the bounded checker
/// and the simulator disagree about the same circuit.
pub fn oracle_refinement(p: &Program) -> Result<(), Failure> {
    const O: &str = "refinement";
    let compiled =
        compile(p).map_err(|e| Failure::new(O, "compile-error", format!("codegen: {e}")))?;
    let cfg = small_refine_cfg();
    for k in &compiled.kernels {
        let Some(tags) = k.ooo_tags else { continue };
        let opts = PipelineOptions { tags, check: CheckMode::Deferred, ..Default::default() };
        let (_, report) = optimize_loop(&k.graph, &k.inner_init, &opts)
            .map_err(|e| Failure::new(O, "pipeline-error", format!("kernel `{}`: {e}", k.name)))?;
        let n = report.obligations.len();
        let verdicts = verify::discharge(report.obligations, &cfg);
        if verdicts.len() != n {
            return Err(Failure::new(
                O,
                "verdict-count",
                format!("kernel `{}`: {n} obligations, {} verdicts", k.name, verdicts.len()),
            ));
        }
        if let Some(v) = verify::first_violation(&verdicts) {
            return Err(Failure::new(
                O,
                "violation",
                format!(
                    "kernel `{}`: rewrite `{}` discharged as {:?} though simulation agrees",
                    k.name, v.rewrite, v.verdict
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 5: telemetry equivalence. The compiled backend must reproduce
/// the reference sweep's observations exactly: byte-identical VCD,
/// identical stall report, cause sums equal totals.
pub fn oracle_telemetry(p: &Program) -> Result<(), Failure> {
    const O: &str = "telemetry-equiv";
    let compiled =
        compile(p).map_err(|e| Failure::new(O, "compile-error", format!("codegen: {e}")))?;
    let mut mem = p.arrays.clone();
    for k in &compiled.kernels {
        let (placed, _) = place_buffers(&k.graph);
        let observe = |scheduler: Scheduler, mem: Memory| {
            let cfg = SimConfig {
                scheduler,
                waveform: true,
                attribute_stalls: true,
                ..SimConfig::default()
            };
            simulate(&placed, &start_feed(), mem, cfg)
                .map_err(|e| Failure::new(O, "sim-error", format!("{scheduler:?}: {e}")))
        };
        let sw = observe(Scheduler::ReferenceSweep, mem.clone())?;
        let co = observe(Scheduler::Compiled, mem)?;
        if sw.waveform != co.waveform {
            return Err(Failure::new(
                O,
                "vcd",
                format!("kernel `{}`: compiled VCD differs from the sweep's", k.name),
            ));
        }
        if sw.stalls != co.stalls {
            return Err(Failure::new(
                O,
                "stalls",
                format!("kernel `{}`: compiled stall report differs", k.name),
            ));
        }
        let report = co.stalls.as_ref().expect("attribution requested");
        let attributed: u64 = report.cause_totals().values().sum();
        if attributed != report.stall_cycles + report.starved_cycles {
            return Err(Failure::new(
                O,
                "cause-sums",
                format!(
                    "kernel `{}`: {attributed} attributed node-cycles vs {} stalled + {} starved",
                    k.name, report.stall_cycles, report.starved_cycles
                ),
            ));
        }
        mem = co.memory;
    }
    Ok(())
}

/// Runs the oracles in order and returns the first violation.
pub fn check_program(p: &Program, rng: &mut StdRng, opts: &OracleOpts) -> Result<(), Failure> {
    oracle_sched(p, rng)?;
    oracle_rewrite(p)?;
    oracle_roundtrip(p)?;
    oracle_telemetry(p)?;
    if opts.refinement {
        oracle_refinement(p)?;
    }
    Ok(())
}
