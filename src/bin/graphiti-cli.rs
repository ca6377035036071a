//! `graphiti-cli` — the command-line face of the rewriting framework.
//!
//! The paper's Lean development extracts to a C program that sits between
//! Dynamatic's front-end and back-end (Fig. 1 / §6.3): dot graph in,
//! rewritten dot graph out. This binary plays that role:
//!
//! ```text
//! graphiti-cli [--tags N] [--mark INIT_NODE] [--checked] [--stats]
//!              [--metrics-out FILE] [--trace-out FILE] [INPUT.dot]
//! graphiti-cli --compile [--vcd-out FILE] [--trace-nodes a,b,c] [PROGRAM.gsl]
//! graphiti-cli explain-stalls [--top K] [PROGRAM.gsl]
//! graphiti-cli profile [--json FILE] [--folded FILE] PROGRAM.gsl
//! graphiti-cli vcd-check FILE.vcd
//! ```
//!
//! Every input runs one pipeline of phases, each a span under a root
//! `pipeline` span:
//!
//! * **parse** — a circuit in the dot dialect (stdin when no file is
//!   given) and its marked sequential loop (by its Init node, or the
//!   unique canonical loop when `--mark` is omitted); or, with
//!   `--compile`, a loop-nest *program* in the front-end's surface syntax,
//!   compiled kernel by kernel, with its marked kernels and their declared
//!   tag budgets. A `.gsl` input file implies `--compile`.
//! * **rewrite** — each marked loop through the five-phase out-of-order
//!   pipeline. Refusals (impure loop bodies) leave the kernel in order and
//!   are reported on stderr, exactly like the bicg case in the paper's
//!   evaluation.
//! * **check** — with `--checked`, each rewrite application's refinement
//!   obligation is collected while the (sequential) rewriting runs, and
//!   the run's whole batch is discharged on worker threads, so the
//!   independent checks overlap. A batch that finds no violation is
//!   summarised as one verdict tally, e.g. `3 hold, 4 bounded (states 2,
//!   queue_cap 2), 0 fail`: a check that stopped at a bound is not a proof.
//! * **emit** — the rewritten circuits as dot on stdout (skipped by
//!   `explain-stalls` and `profile`).
//! * **simulate** — a program's kernels on its arrays, when the run
//!   observes, writes a waveform, explains stalls or profiles. Dot
//!   circuits carry no input arrays, so they are never simulated.
//!
//! `--metrics-out FILE` / `--trace-out FILE` install the `graphiti-obs`
//! collection sink and write a metrics JSON document / Chrome trace-event
//! file (loadable in Perfetto) when the run finishes. Either implies
//! `--checked` (so refinement-check metrics exist) and simulates a
//! program, so the profile includes simulator fire/stall counters.
//!
//! Waveforms, traces and stall attribution (compile mode only):
//!
//! * `--vcd-out FILE` simulates each kernel with waveform capture and
//!   writes a VCD document (openable in GTKWave/Surfer); with several
//!   kernels the kernel name is inserted before the file name's extension.
//! * `--trace-out` records every fire of every placed node as a slice on
//!   the simulated-cycle track. `--trace-nodes a,b,c` narrows those slices
//!   and the captured waveform signals to the listed nodes (an empty list
//!   lists no node, so a run that writes neither rejects the flag), and a
//!   listed name that is no node of any placed kernel is an error.
//! * `explain-stalls` simulates each kernel with stall attribution and
//!   prints the top-K blockage chains with per-cause breakdowns
//!   (`--top K`, default 10) instead of dot output.
//! * `profile` is the same run with collection on; it prints per-phase
//!   and per-rewrite self/total attribution instead of dot.
//! * `vcd-check FILE` parses a previously dumped VCD and reports its
//!   signal/change/time summary — the CI round-trip gate.
//!
//! Scheduler selection:
//!
//! * `--scheduler compiled|sweep` picks the simulation core (default
//!   compiled). `sweep` runs the reference sweep, the executable
//!   specification; waveforms, stall attribution, and node traces are
//!   byte-identical under both.
//! * `--wave-sample N` captures every N-th active cycle into the waveform
//!   (either scheduler), bounding VCD growth on long runs; stall
//!   attribution stays cycle-exact regardless of the stride.
//!
//! Deadlines (see DESIGN.md §3.13): `--deadline-ms N` gives the run an
//! N-millisecond wall-clock budget on a shared cancellation token. Every
//! phase runs as one supervised stage under it; a stage that overruns is
//! cut off with a structured stage error instead of hanging the run, and
//! its outcome is counted under `robust.stage.*`.

use graphiti::pipeline::{find_seq_loops, optimize_loop, PipelineOptions};
use graphiti::prelude::*;
use graphiti::sim::Memory;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What the invocation asks for (selected by the first positional word).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Default: rewrite a dot circuit (or compile a `.gsl` program).
    Rewrite,
    /// Simulate each kernel with stall attribution and print the report.
    ExplainStalls,
    /// Parse a VCD file and print its summary (round-trip check).
    VcdCheck,
    /// Run the pipeline with collection on and print per-phase and
    /// per-rewrite self/total cost attribution instead of dot.
    Profile,
    /// Print the canonical metrics schema document (`obs/schema.json`).
    Schema,
}

struct Args {
    tags: u32,
    mark: Option<String>,
    checked: bool,
    stats: bool,
    compile: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    vcd_out: Option<String>,
    trace_nodes: Vec<String>,
    scheduler: graphiti::sim::Scheduler,
    wave_sample: u64,
    top: usize,
    mode: Mode,
    input: Option<String>,
    json_out: Option<String>,
    folded_out: Option<String>,
    flight_out: Option<String>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tags: 8,
        mark: None,
        checked: false,
        stats: false,
        compile: false,
        metrics_out: None,
        trace_out: None,
        vcd_out: None,
        trace_nodes: Vec::new(),
        scheduler: graphiti::sim::Scheduler::default(),
        wave_sample: 1,
        top: 10,
        mode: Mode::Rewrite,
        input: None,
        json_out: None,
        folded_out: None,
        flight_out: None,
        deadline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    let mut first_positional = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tags" => {
                let v = it.next().ok_or("--tags needs a value")?;
                args.tags = v.parse().map_err(|_| format!("bad tag count `{v}`"))?;
                // The tag pool is materialised per tagger, so an absurd
                // budget is an allocation bomb rather than a tuning knob.
                if args.tags == 0 || args.tags > 4096 {
                    return Err(format!("--tags {} outside 1..=4096", args.tags));
                }
            }
            "--mark" => {
                args.mark = Some(it.next().ok_or("--mark needs an Init node name")?);
            }
            "--checked" => args.checked = true,
            "--stats" => args.stats = true,
            "--compile" => args.compile = true,
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a file path")?);
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("--trace-out needs a file path")?);
            }
            "--vcd-out" => {
                args.vcd_out = Some(it.next().ok_or("--vcd-out needs a file path")?);
            }
            "--trace-nodes" => {
                let v = it.next().ok_or("--trace-nodes needs a comma-separated node list")?;
                args.trace_nodes =
                    v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(Into::into).collect();
            }
            "--scheduler" => {
                let v = it.next().ok_or("--scheduler needs a value")?;
                args.scheduler = match v.as_str() {
                    "sweep" => graphiti::sim::Scheduler::ReferenceSweep,
                    "compiled" => graphiti::sim::Scheduler::Compiled,
                    other => {
                        return Err(format!(
                            "unknown scheduler `{other}` (expected compiled or sweep)"
                        ))
                    }
                };
            }
            "--wave-sample" => {
                let v = it.next().ok_or("--wave-sample needs a cycle stride")?;
                args.wave_sample = v.parse().map_err(|_| format!("bad sample stride `{v}`"))?;
                if args.wave_sample == 0 {
                    return Err("--wave-sample stride must be at least 1".to_string());
                }
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                args.top = v.parse().map_err(|_| format!("bad chain count `{v}`"))?;
            }
            "--json" => {
                args.json_out = Some(it.next().ok_or("--json needs a file path")?);
            }
            "--folded" => {
                args.folded_out = Some(it.next().ok_or("--folded needs a file path")?);
            }
            "--flight-out" => {
                args.flight_out = Some(it.next().ok_or("--flight-out needs a file path")?);
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a millisecond budget")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad deadline `{v}`"))?;
                if ms == 0 {
                    return Err("--deadline-ms budget must be at least 1".to_string());
                }
                args.deadline_ms = Some(ms);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: graphiti-cli [--tags N] [--mark INIT_NODE] [--checked] [--stats] [--metrics-out FILE] [--trace-out FILE] [--flight-out FILE] [--deadline-ms N] [INPUT.dot]\n       graphiti-cli --compile [--scheduler compiled|sweep] [--vcd-out FILE] [--wave-sample N] [--trace-nodes a,b,c] [--deadline-ms N] [PROGRAM.gsl]\n       graphiti-cli profile [--scheduler NAME] [--deadline-ms N] [--json FILE] [--folded FILE] [--flight-out FILE] PROGRAM.gsl\n       graphiti-cli explain-stalls [--scheduler NAME] [--top K] [PROGRAM.gsl]\n       graphiti-cli vcd-check FILE.vcd\n       graphiti-cli schema"
                        .to_string(),
                )
            }
            "explain-stalls" | "vcd-check" | "profile" | "schema" if first_positional => {
                args.mode = match a.as_str() {
                    "explain-stalls" => Mode::ExplainStalls,
                    "vcd-check" => Mode::VcdCheck,
                    "profile" => Mode::Profile,
                    _ => Mode::Schema,
                };
                first_positional = false;
            }
            other if !other.starts_with('-') => {
                args.input = Some(other.to_string());
                first_positional = false;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let gsl = args.input.as_deref().is_some_and(|p| p.ends_with(".gsl"));
    if args.mode == Mode::Profile && !gsl {
        // Profiling covers the whole pipeline through simulation.
        return Err("profile needs a `.gsl` program (the simulate phase runs the kernels)".into());
    }
    // Stall attribution needs a runnable program: only compile mode
    // carries the arrays to feed the circuit.
    args.compile |= gsl || matches!(args.mode, Mode::ExplainStalls | Mode::Profile);
    if args.vcd_out.is_some() && !args.compile {
        return Err("waveforms and stall attribution need a `.gsl` program (compile mode): \
                    dot circuits carry no input arrays to simulate"
            .to_string());
    }
    let narrowed = args.compile && (args.vcd_out.is_some() || args.trace_out.is_some());
    if !args.trace_nodes.is_empty() && !narrowed {
        return Err("--trace-nodes narrows only a compile-mode run's `--vcd-out` waveform or \
                    `--trace-out` simulator events, and this run writes neither"
            .to_string());
    }
    if args.metrics_out.is_some() || args.trace_out.is_some() || args.mode == Mode::Profile {
        // A profile without refinement-check metrics would be misleading:
        // observed runs are always checked.
        args.checked = true;
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.mode == Mode::Schema {
        print!("{}", graphiti::obs::schema::schema_json());
        return Ok(());
    }
    let observing =
        args.metrics_out.is_some() || args.trace_out.is_some() || args.mode == Mode::Profile;
    if observing {
        graphiti::obs::enable();
    }
    if let Some(path) = &args.flight_out {
        // On-demand + on-panic flight recording: the ring dumps to the
        // requested path either way.
        graphiti::obs::flight::enable();
        graphiti::obs::flight::install_panic_hook(path);
    }
    let result = run_inner(&args);
    if observing {
        // Export whatever was collected even when the run failed: a
        // partial profile is exactly what a failure investigation needs.
        write_observations(&args)?;
    }
    if let Some(path) = &args.flight_out {
        graphiti::obs::flight::write_jsonl(path)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!(
            "graphiti-cli: flight recorder wrote {} events to {path} ({} dropped)",
            graphiti::obs::flight::events().len(),
            graphiti::obs::flight::dropped()
        );
    }
    result
}

fn write_observations(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.metrics_out {
        graphiti::obs::write_metrics_json(path)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        graphiti::obs::write_chrome_trace(path)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if args.stats {
        eprint!("{}", graphiti::obs::summary_table());
    }
    Ok(())
}

fn run_inner(args: &Args) -> Result<(), String> {
    let src = match &args.input {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    if args.mode == Mode::VcdCheck {
        return vcd_check(&src, args);
    }
    {
        let _root = graphiti::obs::span("pipeline");
        if args.mode == Mode::Profile {
            graphiti::obs::flight::record("profile.start", || {
                format!("profiling `{}`", args.input.as_deref().unwrap_or("<stdin>"))
            });
        }
        pipeline(&src, args)?;
    }
    if args.mode == Mode::Profile {
        print_profile(args)?;
    }
    Ok(())
}

/// One circuit of the run: the dot input, or one kernel of a `.gsl`
/// program.
struct Kernel {
    name: String,
    graph: ExprHigh,
    /// The marked loop's Init node and tag budget (`None`: left in order).
    mark: Option<(String, u32)>,
}

/// The run's phases — parse, rewrite, check, emit dot, simulate — each one
/// supervised stage under the run token (`--deadline-ms`) and one span of
/// the same name. A failed or overrunning stage surfaces as a structured
/// stage error naming the stage and its elapsed time.
fn pipeline(src: &str, args: &Args) -> Result<(), String> {
    let token = match args.deadline_ms {
        Some(ms) => graphiti::obs::CancelToken::with_deadline_ms(ms),
        None => graphiti::obs::CancelToken::new(),
    };
    let (mut kernels, arrays) = stage("parse", &token, || parse(src, args))?;
    let obligations = stage("rewrite", &token, || rewrite(&mut kernels, args))?;
    stage("check", &token, || check(obligations, &token))?;
    let explain = args.mode == Mode::ExplainStalls;
    if !explain && args.mode != Mode::Profile {
        stage("emit", &token, || {
            for k in &kernels {
                if args.compile {
                    println!("// kernel {}", k.name);
                }
                println!("{}", print_dot(&k.graph));
            }
            Ok(())
        })?;
    }
    // Only a program carries the arrays to run its kernels on.
    let Some(arrays) = arrays else { return Ok(()) };
    if graphiti::obs::enabled() || args.vcd_out.is_some() || explain {
        stage("simulate", &token, || simulate_all(&kernels, arrays, args, &token))?;
    }
    Ok(())
}

/// Runs `f` as the supervised stage `name` inside a span of that name.
fn stage<T>(
    name: &'static str,
    token: &graphiti::obs::CancelToken,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let _span = graphiti::obs::span(name);
    graphiti_robust::supervise(name, token, f).map_err(|e| format!("graphiti-cli: {e}"))
}

/// A dot circuit and its marked loop (by its Init node, or the unique
/// canonical loop when `--mark` is omitted), or a `.gsl` program's
/// kernels and the arrays they run on.
fn parse(src: &str, args: &Args) -> Result<(Vec<Kernel>, Option<Memory>), String> {
    if args.compile {
        let program = graphiti::frontend::parse_program(src).map_err(|e| e.to_string())?;
        let compiled = graphiti::frontend::compile(&program).map_err(|e| e.to_string())?;
        let kernels = compiled.kernels.into_iter().map(|k| Kernel {
            mark: k.ooo_tags.map(|tags| (k.inner_init, tags)),
            name: k.name,
            graph: k.graph,
        });
        return Ok((kernels.collect(), Some(program.arrays)));
    }
    let g = parse_dot(src).map_err(|e| e.to_string())?;
    g.validate().map_err(|e| format!("circuit incomplete: {e}"))?;
    let init = match &args.mark {
        Some(name) if g.kind(name).is_none() => {
            return Err(format!("--mark `{name}`: no such node"))
        }
        Some(name) => name.clone(),
        None => match find_seq_loops(&g).as_slice() {
            [l] => l.init.clone(),
            [] => return Err("no canonical sequential loop found; use --mark".into()),
            many => {
                let inits: Vec<&str> = many.iter().map(|l| l.init.as_str()).collect();
                return Err(format!(
                    "{} loops found ({}); pick one with --mark",
                    many.len(),
                    inits.join(", ")
                ));
            }
        },
    };
    Ok((vec![Kernel { name: "circuit".into(), graph: g, mark: Some((init, args.tags)) }], None))
}

/// Runs every marked loop through the five-phase out-of-order pipeline in
/// place, collecting each rewrite application's refinement obligation
/// when the run is checked. Refusals (impure loop bodies) leave the
/// kernel in order and are reported on stderr.
fn rewrite(
    kernels: &mut [Kernel],
    args: &Args,
) -> Result<Vec<graphiti::rewrite::Obligation>, String> {
    let check = if args.checked { CheckMode::Deferred } else { CheckMode::Off };
    let mut obligations = Vec::new();
    for Kernel { name, graph, mark } in kernels {
        let Some((init, tags)) = mark else { continue };
        let opts = PipelineOptions { tags: *tags, check, ..Default::default() };
        let (g, mut report) =
            optimize_loop(graph, init, &opts).map_err(|e| format!("kernel `{name}`: {e}"))?;
        obligations.append(&mut report.obligations);
        if args.stats {
            eprintln!(
                "graphiti-cli: kernel `{name}`: transformed = {}, rewrites = {}",
                report.transformed, report.rewrites
            );
        }
        if let Some(refusal) = &report.refusal {
            eprintln!("graphiti-cli: kernel `{name}` refused: {refusal}; left in order");
        }
        *graph = g;
    }
    Ok(obligations)
}

/// Discharges the run's obligations as one batch in parallel at the
/// checker's default bounds and prints its verdict tally, failing on the
/// first violation. A batch abandoned because the token tripped surfaces
/// as a stage error naming the deadline or the cancellation.
fn check(
    obligations: Vec<graphiti::rewrite::Obligation>,
    token: &graphiti::obs::CancelToken,
) -> Result<(), String> {
    use graphiti::rewrite::verify;
    if obligations.is_empty() {
        return Ok(());
    }
    let n = obligations.len();
    let verdicts = verify::discharge_cancellable(obligations, token, &RefineConfig::default())
        .ok_or("deferred obligation batch abandoned")?;
    if let Some(v) = verify::first_violation(&verdicts) {
        return Err(format!("deferred obligation of `{}` failed: {:?}", v.rewrite, v.verdict));
    }
    let tally = verify::Tally::of(&verdicts);
    eprintln!("graphiti-cli: discharged {n} deferred obligations in parallel: {tally}");
    Ok(())
}

/// Places and runs each kernel in program order on the program's arrays,
/// writing its waveform and printing its stall report when asked. Under
/// `--trace-out` without `--trace-nodes` every placed node is listed, so
/// each fire is a trace slice.
fn simulate_all(
    kernels: &[Kernel],
    mut mem: Memory,
    args: &Args,
    token: &graphiti::obs::CancelToken,
) -> Result<(), String> {
    let placed: Vec<(&String, ExprHigh)> =
        kernels.iter().map(|k| (&k.name, place_buffers(&k.graph).0)).collect();
    let no_node = |t: &&String| placed.iter().all(|(_, g)| g.kind(t).is_none());
    if let Some(t) = args.trace_nodes.iter().find(no_node) {
        return Err(format!("--trace-nodes: no kernel has a node named `{t}`"));
    }
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    for (name, g) in &placed {
        let trace_nodes = if args.trace_nodes.is_empty() && args.trace_out.is_some() {
            g.nodes().map(|(node, _)| node.clone()).collect()
        } else {
            args.trace_nodes.clone()
        };
        let cfg = SimConfig {
            trace_nodes,
            waveform: args.vcd_out.is_some(),
            attribute_stalls: args.mode == Mode::ExplainStalls,
            scheduler: args.scheduler,
            wave_sample: args.wave_sample,
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let r = simulate(g, &feeds, mem, cfg).map_err(|e| format!("kernel `{name}`: {e}"))?;
        eprintln!(
            "graphiti-cli: kernel `{name}` simulated: {} cycles, {} firings",
            r.cycles, r.firings
        );
        if let (Some(requested), Some(vcd)) = (&args.vcd_out, &r.waveform) {
            let path = vcd_path(requested, name, kernels.len());
            std::fs::write(&path, vcd)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            eprintln!("graphiti-cli: kernel `{name}` waveform written to {}", path.display());
        }
        if let Some(report) = &r.stalls {
            println!("kernel `{name}` stall attribution:");
            print!("{}", report.render(args.top));
        }
        mem = r.memory;
    }
    Ok(())
}

/// `profile`: prints per-phase and per-rewrite self/total attribution of
/// the run just finished, reconstructed from the trace, and how far the
/// phase sum drifts from the root `pipeline` span. `--json` / `--folded`
/// additionally write the JSON document and flamegraph-ready folded
/// stacks.
fn print_profile(args: &Args) -> Result<(), String> {
    let profile = graphiti::obs::profile::Profile::from_trace();
    print!("{}", profile.text_table());
    let row = |path: &str| profile.rows.iter().find(|r| r.path == path);
    let total = |path: &str| row(path).map_or(0, |r| r.total_us);
    let pipeline_total = total("pipeline");
    let phase_sum: u64 =
        ["pipeline;parse", "pipeline;rewrite", "pipeline;check", "pipeline;simulate"]
            .iter()
            .map(|p| total(p))
            .sum::<u64>()
            + row("pipeline").map_or(0, |r| r.self_us);
    let drift_pct = if pipeline_total == 0 {
        0.0
    } else {
        (phase_sum as f64 - pipeline_total as f64) / pipeline_total as f64 * 100.0
    };
    println!(
        "phase self/total sum: {phase_sum} us; pipeline span: {pipeline_total} us; \
         drift {drift_pct:+.3}%"
    );
    if let Some(path) = &args.json_out {
        std::fs::write(path, profile.json()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("graphiti-cli: profile JSON written to {path}");
    }
    if let Some(path) = &args.folded_out {
        std::fs::write(path, profile.folded())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("graphiti-cli: folded stacks written to {path}");
    }
    Ok(())
}

/// `vcd-check FILE`: parse a waveform dump back and print its summary;
/// any malformation is a hard error (the CI round-trip gate).
fn vcd_check(src: &str, args: &Args) -> Result<(), String> {
    let file = args.input.as_deref().unwrap_or("<stdin>");
    let dump = graphiti::obs::vcd::parse(src).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "{file}: {} signals, {} changes, end time {} ({})",
        dump.signals.len(),
        dump.change_count(),
        dump.end_time(),
        if dump.timescale.is_empty() { "no timescale".to_string() } else { dump.timescale.clone() }
    );
    Ok(())
}

/// The VCD output path for one kernel: the requested path verbatim for a
/// single-kernel program, otherwise the kernel name is inserted before
/// the file name's extension (`out.vcd` → `out.gcd.vcd`, `out` →
/// `out.gcd`); the directory part is never touched.
fn vcd_path(requested: &str, kernel: &str, kernels: usize) -> PathBuf {
    let path = Path::new(requested);
    if kernels <= 1 {
        return path.to_path_buf();
    }
    let mut name = path.file_stem().unwrap_or_default().to_os_string();
    name.push(format!(".{kernel}"));
    if let Some(ext) = path.extension() {
        name.push(".");
        name.push(ext);
    }
    path.with_file_name(name)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
