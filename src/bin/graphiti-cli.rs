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
//! graphiti-cli vcd-check FILE.vcd
//! ```
//!
//! * reads a circuit in the dot dialect (stdin when no file is given),
//! * finds the marked sequential loop (by its Init node, or the unique
//!   canonical loop when `--mark` is omitted),
//! * runs the five-phase out-of-order pipeline,
//! * prints the rewritten circuit as dot on stdout; refusals (impure loop
//!   bodies) leave the circuit unchanged and are reported on stderr,
//!   exactly like the bicg case in the paper's evaluation.
//!
//! With `--compile` the input is a loop-nest *program* in the front-end's
//! surface syntax instead of a dot circuit: each kernel is compiled, marked
//! kernels are optimized (with their declared tag budgets), and the
//! resulting circuits are printed as dot. A `.gsl` input file implies
//! `--compile`.
//!
//! `--checked` collects each rewrite application's refinement obligation
//! while the (sequential) rewriting runs, then discharges the whole batch
//! on worker threads, so the independent checks overlap, before the
//! circuit is printed. A batch that finds no violation is summarised as a
//! verdict tally, e.g. `3 hold, 4 bounded (states 2, queue_cap 2), 0 fail`:
//! a check that stopped at a bound is not a proof.
//!
//! `--metrics-out FILE` / `--trace-out FILE` install the `graphiti-obs`
//! collection sink and write a metrics JSON document / Chrome trace-event
//! file (loadable in Perfetto) when the run finishes. Either implies
//! `--checked` (so refinement-check metrics exist), and in compile mode
//! the optimized kernels are additionally simulated against the program's
//! arrays so the profile includes simulator fire/stall counters.
//!
//! Waveforms and stall attribution (compile mode only, since only `.gsl`
//! programs carry the arrays needed to actually run the circuit):
//!
//! * `--vcd-out FILE` simulates each kernel with waveform capture and
//!   writes a VCD document (openable in GTKWave/Surfer); with several
//!   kernels the kernel name is inserted before the file name's extension.
//! * `--trace-nodes a,b,c` narrows the captured waveform signals to
//!   channels touching the listed nodes, and a `--trace-out` trace's
//!   per-fire simulator events to the listed nodes. A run that writes
//!   neither (or a `profile` run) rejects the flag, and a listed name
//!   that is no node of any placed kernel is an error.
//! * `explain-stalls` simulates each kernel with stall attribution and
//!   prints the top-K blockage chains with per-cause breakdowns
//!   (`--top K`, default 10) instead of dot output.
//! * `vcd-check FILE` parses a previously dumped VCD and reports its
//!   signal/change/time summary — the CI round-trip gate.
//!
//! Scheduler selection:
//!
//! * `--scheduler compiled|sweep` picks the simulation core for
//!   compile-mode runs (default compiled). `sweep` runs the reference
//!   sweep, the executable specification; waveforms, stall attribution,
//!   and node traces are byte-identical under both.
//! * `--wave-sample N` captures every N-th active cycle into the waveform
//!   (either scheduler), bounding VCD growth on long runs; stall
//!   attribution stays cycle-exact regardless of the stride.
//!
//! Deadlines (see DESIGN.md §3.13): `--deadline-ms N` gives the run an
//! N-millisecond wall-clock budget on a shared cancellation token. Each
//! pipeline stage (parse, rewrite and simulate in compile mode, and the
//! check in every mode) runs supervised under it; a stage that
//! overruns is cut off with a structured stage error instead of hanging
//! the run, and its outcome is counted under `robust.stage.*`.

use graphiti::pipeline::{find_seq_loops, optimize_loop, PipelineOptions};
use graphiti::prelude::*;
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
    /// Run the whole pipeline phase by phase and print per-phase and
    /// per-rewrite self/total cost attribution.
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
                    "usage: graphiti-cli [--tags N] [--mark INIT_NODE] [--checked] [--stats] [--metrics-out FILE] [--trace-out FILE] [--flight-out FILE] [--deadline-ms N] [INPUT.dot]\n       graphiti-cli --compile [--scheduler compiled|sweep] [--vcd-out FILE] [--wave-sample N] [--trace-nodes a,b,c] [--deadline-ms N] [PROGRAM.gsl]\n       graphiti-cli profile [--json FILE] [--folded FILE] [--flight-out FILE] PROGRAM.gsl\n       graphiti-cli explain-stalls [--scheduler NAME] [--top K] [PROGRAM.gsl]\n       graphiti-cli vcd-check FILE.vcd\n       graphiti-cli schema"
                        .to_string(),
                )
            }
            "explain-stalls" if first_positional => {
                args.mode = Mode::ExplainStalls;
                first_positional = false;
            }
            "vcd-check" if first_positional => {
                args.mode = Mode::VcdCheck;
                first_positional = false;
            }
            "profile" if first_positional => {
                args.mode = Mode::Profile;
                first_positional = false;
            }
            "schema" if first_positional => {
                args.mode = Mode::Schema;
                first_positional = false;
            }
            other if !other.starts_with('-') => {
                args.input = Some(other.to_string());
                first_positional = false;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.input.as_deref().is_some_and(|p| p.ends_with(".gsl")) {
        args.compile = true;
    }
    if args.mode == Mode::ExplainStalls {
        // Stall attribution needs a runnable program: only compile mode
        // carries the arrays to feed the circuit.
        args.compile = true;
    }
    if args.mode == Mode::Profile {
        // Profiling covers the whole pipeline through simulation, so it
        // needs a runnable program too.
        if !args.input.as_deref().is_some_and(|p| p.ends_with(".gsl")) {
            return Err(
                "profile needs a `.gsl` program (the simulate phase runs the kernels)".to_string()
            );
        }
        args.compile = true;
    }
    if (args.vcd_out.is_some() || args.mode == Mode::ExplainStalls) && !args.compile {
        return Err("waveforms and stall attribution need a `.gsl` program (compile mode): \
                    dot circuits carry no input arrays to simulate"
            .to_string());
    }
    let narrowed = args.compile && (args.vcd_out.is_some() || args.trace_out.is_some());
    if !args.trace_nodes.is_empty() && (args.mode == Mode::Profile || !narrowed) {
        return Err("--trace-nodes narrows only a compile-mode run's `--vcd-out` waveform or \
                    `--trace-out` simulator events, and this run writes neither"
            .to_string());
    }
    if args.metrics_out.is_some() || args.trace_out.is_some() {
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

fn check_mode(args: &Args) -> CheckMode {
    if args.checked {
        CheckMode::Deferred
    } else {
        CheckMode::Off
    }
}

/// The run-wide cancellation token: armed with the `--deadline-ms` budget
/// when given, otherwise a token that never trips on its own.
fn run_token(args: &Args) -> graphiti::obs::CancelToken {
    match args.deadline_ms {
        Some(ms) => graphiti::obs::CancelToken::with_deadline_ms(ms),
        None => graphiti::obs::CancelToken::new(),
    }
}

/// Discharges an obligation batch in parallel at the checker's default
/// bounds as the supervised `check` stage under the run token and prints
/// its verdict tally, failing on the first violation. A batch abandoned
/// because the token tripped surfaces as a stage error naming the deadline
/// or the cancellation.
fn discharge_deferred(
    context: &str,
    obligations: Vec<graphiti::rewrite::Obligation>,
    token: &graphiti::obs::CancelToken,
) -> Result<(), String> {
    if obligations.is_empty() {
        return Ok(());
    }
    let n = obligations.len();
    let cfg = graphiti::sem::RefineConfig::default();
    let tally = graphiti_robust::supervise("check", token, || {
        let verdicts = graphiti::rewrite::verify::discharge_cancellable(obligations, token, &cfg)
            .ok_or("deferred obligation batch abandoned")?;
        if let Some(v) = graphiti::rewrite::verify::first_violation(&verdicts) {
            return Err(format!("deferred obligation of `{}` failed: {:?}", v.rewrite, v.verdict));
        }
        Ok(graphiti::rewrite::verify::Tally::of(&verdicts))
    })
    .map_err(|e| format!("graphiti-cli: {context}: {e}"))?;
    eprintln!("graphiti-cli: {context}: discharged {n} deferred obligations in parallel: {tally}");
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
    if args.mode == Mode::Profile {
        return profile_mode(&src, args);
    }
    if args.compile {
        return compile_mode(&src, args);
    }

    let g = parse_dot(&src).map_err(|e| e.to_string())?;
    g.validate().map_err(|e| format!("circuit incomplete: {e}"))?;

    let init = match &args.mark {
        Some(name) => {
            if g.kind(name).is_none() {
                return Err(format!("--mark `{name}`: no such node"));
            }
            name.clone()
        }
        None => {
            let loops = find_seq_loops(&g);
            match loops.as_slice() {
                [l] => l.init.clone(),
                [] => return Err("no canonical sequential loop found; use --mark".into()),
                many => {
                    return Err(format!(
                        "{} loops found ({}); pick one with --mark",
                        many.len(),
                        many.iter().map(|l| l.init.as_str()).collect::<Vec<_>>().join(", ")
                    ))
                }
            }
        }
    };

    let opts = PipelineOptions { tags: args.tags, check: check_mode(args), ..Default::default() };
    let (out, mut report) = {
        let _span = graphiti::obs::span("optimize");
        optimize_loop(&g, &init, &opts).map_err(|e| e.to_string())?
    };
    discharge_deferred("circuit", std::mem::take(&mut report.obligations), &run_token(args))?;
    if args.stats {
        eprintln!(
            "graphiti-cli: transformed = {}, rewrites = {}",
            report.transformed, report.rewrites
        );
        let before = g.kind_histogram();
        let after = out.kind_histogram();
        eprintln!(
            "graphiti-cli: {} -> {} components, {} -> {} edges",
            g.node_count(),
            out.node_count(),
            g.edge_count(),
            out.edge_count()
        );
        for (kind, n) in &after {
            let b = before.get(kind).copied().unwrap_or(0);
            if *n != b {
                eprintln!("graphiti-cli:   {kind}: {b} -> {n}");
            }
        }
    }
    if let Some(refusal) = &report.refusal {
        eprintln!("graphiti-cli: transformation refused: {refusal}; circuit left unchanged");
    }
    println!("{}", print_dot(&out));
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

/// `--compile`: front-end program in, optimized dot circuits out. The
/// whole mode runs under the run token (`--deadline-ms`), each stage
/// supervised so a failed or overrunning stage surfaces as a structured
/// stage error naming the stage and its elapsed time.
fn compile_mode(src: &str, args: &Args) -> Result<(), String> {
    let token = run_token(args);
    let (program, compiled) = graphiti_robust::supervise("parse", &token, || {
        let program = graphiti::frontend::parse_program(src).map_err(|e| e.to_string())?;
        let compiled = graphiti::frontend::compile(&program).map_err(|e| e.to_string())?;
        Ok::<_, String>((program, compiled))
    })
    .map_err(|e| format!("graphiti-cli: {e}"))?;
    let mut optimized: Vec<(String, ExprHigh)> = Vec::new();
    for kernel in &compiled.kernels {
        let out = match kernel.ooo_tags {
            Some(tags) => {
                let opts = PipelineOptions { tags, check: check_mode(args), ..Default::default() };
                let (g, mut report) = graphiti_robust::supervise("rewrite", &token, || {
                    let _span = graphiti::obs::span("optimize");
                    optimize_loop(&kernel.graph, &kernel.inner_init, &opts)
                })
                .map_err(|e| format!("graphiti-cli: kernel `{}`: {e}", kernel.name))?;
                discharge_deferred(
                    &format!("kernel `{}`", kernel.name),
                    std::mem::take(&mut report.obligations),
                    &token,
                )?;
                if args.stats {
                    eprintln!(
                        "graphiti-cli: kernel `{}`: transformed = {}, rewrites = {}",
                        kernel.name, report.transformed, report.rewrites
                    );
                }
                if let Some(refusal) = &report.refusal {
                    eprintln!(
                        "graphiti-cli: kernel `{}` refused: {refusal}; left in order",
                        kernel.name
                    );
                }
                g
            }
            None => kernel.graph.clone(),
        };
        if args.mode != Mode::ExplainStalls {
            println!("// kernel {}", kernel.name);
            println!("{}", print_dot(&out));
        }
        optimized.push((kernel.name.clone(), out));
    }
    // Simulation pass: under --metrics-out / --trace-out (so the profile
    // carries fire/stall/latency data), under --vcd-out (waveform
    // capture), and in explain-stalls mode (attribution).
    let explain = args.mode == Mode::ExplainStalls;
    if graphiti::obs::enabled() || args.vcd_out.is_some() || explain {
        let _span = graphiti::obs::span("simulate");
        let mut mem = program.arrays.clone();
        let feeds: std::collections::BTreeMap<String, Vec<Value>> =
            [("start".to_string(), vec![Value::Unit])].into_iter().collect();
        let cfg = SimConfig {
            trace_nodes: args.trace_nodes.clone(),
            waveform: args.vcd_out.is_some(),
            attribute_stalls: explain,
            scheduler: args.scheduler,
            wave_sample: args.wave_sample,
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let placed: Vec<(&String, ExprHigh)> =
            optimized.iter().map(|(name, g)| (name, place_buffers(g).0)).collect();
        let no_node = |t: &&String| placed.iter().all(|(_, g)| g.kind(t).is_none());
        if let Some(t) = args.trace_nodes.iter().find(no_node) {
            return Err(format!("graphiti-cli: --trace-nodes: no kernel has a node named `{t}`"));
        }
        for (name, g) in &placed {
            let memory = mem.clone();
            let r = graphiti_robust::supervise("simulate", &token, || {
                simulate(g, &feeds, memory, cfg.clone())
            })
            .map_err(|e| format!("graphiti-cli: kernel `{name}`: {e}"))?;
            eprintln!(
                "graphiti-cli: kernel `{name}` simulated: {} cycles, {} firings",
                r.cycles, r.firings
            );
            if let (Some(requested), Some(vcd)) = (&args.vcd_out, &r.waveform) {
                let path = vcd_path(requested, name, optimized.len());
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
    }
    Ok(())
}

/// `profile PROGRAM.gsl`: run the pipeline phase by phase — parse →
/// rewrite → check → simulate, each a child span of one root `pipeline`
/// span — then print per-phase and per-rewrite self/total attribution
/// reconstructed from the trace. `--json` / `--folded` additionally write
/// the JSON document and flamegraph-ready folded stacks.
fn profile_mode(src: &str, args: &Args) -> Result<(), String> {
    let token = run_token(args);
    {
        let _root = graphiti::obs::span("pipeline");
        graphiti::obs::flight::record("profile.start", || {
            format!("profiling `{}`", args.input.as_deref().unwrap_or("<stdin>"))
        });

        let (program, compiled) = {
            let _phase = graphiti::obs::span("parse");
            let program = graphiti::frontend::parse_program(src).map_err(|e| e.to_string())?;
            let compiled = graphiti::frontend::compile(&program).map_err(|e| e.to_string())?;
            (program, compiled)
        };

        let mut optimized: Vec<(String, ExprHigh)> = Vec::new();
        let mut obligations: Vec<graphiti::rewrite::Obligation> = Vec::new();
        {
            let _phase = graphiti::obs::span("rewrite");
            for kernel in &compiled.kernels {
                match kernel.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions {
                            tags,
                            check: CheckMode::Deferred,
                            ..Default::default()
                        };
                        let (g, mut report) =
                            optimize_loop(&kernel.graph, &kernel.inner_init, &opts)
                                .map_err(|e| e.to_string())?;
                        obligations.append(&mut report.obligations);
                        if let Some(refusal) = &report.refusal {
                            eprintln!(
                                "graphiti-cli: kernel `{}` refused: {refusal}; left in order",
                                kernel.name
                            );
                        }
                        optimized.push((kernel.name.clone(), g));
                    }
                    None => optimized.push((kernel.name.clone(), kernel.graph.clone())),
                }
            }
        }

        {
            // Obligations discharge on the pool here; the workers adopt
            // this span, so refine_check spans parent under `check`.
            let _phase = graphiti::obs::span("check");
            discharge_deferred("profile", obligations, &token)?;
        }

        {
            // The compiled backend runs here so the profile shows the
            // lowering cost as its own `sim.compile` child span under
            // `simulate`, separate from the raw simulation time.
            let _phase = graphiti::obs::span("simulate");
            let mut mem = program.arrays.clone();
            let feeds: std::collections::BTreeMap<String, Vec<Value>> =
                [("start".to_string(), vec![Value::Unit])].into_iter().collect();
            let cfg = SimConfig {
                scheduler: graphiti::sim::Scheduler::Compiled,
                cancel: Some(token.clone()),
                ..SimConfig::default()
            };
            for (name, g) in &optimized {
                let (placed, _) = place_buffers(g);
                let r = simulate(&placed, &feeds, mem, cfg.clone())
                    .map_err(|e| format!("kernel `{name}` simulation: {e}"))?;
                eprintln!(
                    "graphiti-cli: kernel `{name}` simulated: {} cycles, {} firings",
                    r.cycles, r.firings
                );
                mem = r.memory;
            }
        }
    }

    let profile = graphiti::obs::profile::Profile::from_trace();
    print!("{}", profile.text_table());
    let total =
        |path: &str| profile.rows.iter().find(|r| r.path == path).map(|r| r.total_us).unwrap_or(0);
    let pipeline_total = total("pipeline");
    let phase_sum: u64 =
        ["pipeline;parse", "pipeline;rewrite", "pipeline;check", "pipeline;simulate"]
            .iter()
            .map(|p| total(p))
            .sum::<u64>()
            + profile.rows.iter().find(|r| r.path == "pipeline").map(|r| r.self_us).unwrap_or(0);
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

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
