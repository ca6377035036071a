//! `pipebench`: runs one workload for a fixed time and prints its metrics.
//! See the library documentation for the protocol.

use graphiti_bench::backend_name;
use graphiti_sim::SimConfig;
use pipebench::report::{self, Metric, BOUND_KINDS};
use pipebench::trace::{self, Tracer};
use pipebench::workloads::{Bench, PassOutcome, Verdict, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str =
    "usage: pipebench --workload table2|sim-large|checked-gcd [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("`--workload` must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// One timed pass.
struct Pass {
    traced: bool,
    wall_s: f64,
    out: PassOutcome,
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("pipebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("pipebench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so repeats do not raise peak RSS.
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::setup(&args.workload, args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    // Closed loop: passes back to back until the time is up. A traced run
    // alternates untraced and traced passes, so both are measured alike.
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let min_passes = if args.trace { 2 } else { 1 };
    let mut passes: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let k = passes.len() as u64 + 1;
        let traced = args.trace && k.is_multiple_of(2);
        let t0 = Instant::now();
        let out = bench.pass(if traced { &tracer } else { &off }, k)?;
        let wall_s = t0.elapsed().as_secs_f64();
        attempted += out.counts.attempted;
        failed += out.counts.failed;
        failures.extend(out.counts.failures.iter().map(|f| format!("pass {k}: {f}")));
        // Passes over the same arrays must repeat every exact count.
        if bench.fixed_inputs() {
            if let Some(first) = passes.iter().find(|p| p.traced == traced) {
                attempted += 1;
                if first.out.counts != out.counts {
                    failed += 1;
                    failures.push(format!("pass {k}: exact counts differ from the first pass"));
                }
            }
        }
        passes.push(Pass { traced, wall_s, out });
    }
    let rss = report::peak_rss_mb()?;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();

    println!(
        "pipebench: workload {}, seed {}, {} s, trace {}; simulator backend {}; \
         available_parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        backend_name(SimConfig::default().scheduler),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let e2e = report::end_to_end(&setup_s, &walls(&untraced), &outs(&untraced), rss);
    print_timing("setup_s", &setup_s, "s");
    print_timing("pass_s (untraced)", &walls(&untraced), "s");
    let first = &untraced[0].out;
    if args.workload == "checked-gcd" {
        let verdict: Vec<f64> = untraced.iter().map(|p| p.out.verdict_s).collect();
        print_timing("verdict_s (parse to last verdict)", &verdict, "s");
        print_verdicts(first);
    }
    for m in &e2e {
        println!("  {:<20} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {attempted} attempted, {failed} failed (failed_pct {:.3} %)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    for f in failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    let bicg: Vec<bool> = passes.iter().filter_map(|p| p.out.counts.bicg_dfooo_correct).collect();
    if !bicg.is_empty() {
        println!(
            "bicg DF-OoO (the paper's documented miscompile, outside the checks): final memory \
             matched run_program in {} of {} passes",
            bicg.iter().filter(|ok| **ok).count(),
            bicg.len()
        );
    }

    let metrics: Vec<Metric> = if args.trace {
        let spans = tracer.take();
        let path = std::path::PathBuf::from(format!(
            "target/pipebench/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        let layers = report::per_layer(&spans, &outs(&traced), &walls(&traced), &walls(&untraced));
        print_timing("pass_s (traced)", &walls(&traced), "s");
        println!("per-layer, per traced pass ({} spans in {}):", spans.len(), path.display());
        for m in &layers {
            println!("  {:<28} {:>16.3} {}", m.name, m.value, m.unit);
        }
        for (rewrite, us) in report::checks_by_time(&spans).iter().take(3) {
            println!("slow obligation: `{rewrite}` ({:.3} s)", us / 1e6);
        }
        layers
    } else {
        e2e
    };
    println!("{}", report::result_json(attempted, failed, &metrics));
    Ok(())
}

fn walls(ps: &[&Pass]) -> Vec<f64> {
    ps.iter().map(|p| p.wall_s).collect()
}

fn outs<'a>(ps: &[&'a Pass]) -> Vec<&'a PassOutcome> {
    ps.iter().map(|p| &p.out).collect()
}

fn print_timing(name: &str, xs: &[f64], unit: &str) {
    let tail = match report::tail(xs) {
        Some((p, v)) => format!(", p{p:.0} {v:.6} {unit}"),
        None => String::new(),
    };
    println!("{name}: median {:.6} {unit}{tail}, n = {}", report::median(xs), xs.len());
    let each: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    println!("  each: {}", each.join(" "));
}

/// Verdicts per rewrite family. `BoundReached` is never counted as holds.
fn print_verdicts(pass: &PassOutcome) {
    let mut families: BTreeMap<&str, Vec<Verdict>> = BTreeMap::new();
    for (rewrite, v) in &pass.counts.verdicts {
        families.entry(rewrite).or_default().push(*v);
    }
    let kinds: Vec<&str> = BOUND_KINDS.iter().map(|k| k.name()).collect();
    println!("verdicts per rewrite: holds / bounded ({}) / fails / incomparable", kinds.join(", "));
    for (rewrite, vs) in families {
        let count = |f: &dyn Fn(&Verdict) -> bool| vs.iter().filter(|v| f(v)).count();
        let bounded: Vec<String> = BOUND_KINDS
            .iter()
            .map(|k| count(&|v| *v == Verdict::Bounded(*k)).to_string())
            .collect();
        println!(
            "  {rewrite:<24} {} / ({}) / {} / {}",
            count(&|v| *v == Verdict::Holds),
            bounded.join(", "),
            count(&|v| *v == Verdict::Fails),
            count(&|v| *v == Verdict::Incomparable),
        );
    }
    let (holds, bounded, fails, incomparable) = report::verdict_totals(&pass.counts);
    println!(
        "  {:<24} {holds} / ({}) / {fails} / {incomparable}  (holds_pct {:.1} %)",
        "total",
        bounded.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
        100.0 * holds as f64 / pass.counts.verdicts.len().max(1) as f64,
    );
}
