//! Compares two `--json` report documents (from `report --json` or
//! `table2 --json`) and prints a delta table over cycle counts, harness
//! wall-clock, and the scheduler-efficiency counters.
//!
//! ```text
//! perfdiff BASELINE.json CURRENT.json [--threshold PCT] [--emit FILE]
//!          [--date STR] [--no-stall-gate] [--rebaseline REASON]
//! ```
//!
//! * exits non-zero if any (benchmark, flow) cycle count — or either of
//!   the suite-wide `sim.stall_cycles` / `sim.starved_cycles` totals —
//!   regressed by more than the threshold (default 10%); both are
//!   deterministic, so this is a sound CI gate (wall-clock, which is not,
//!   is only reported);
//! * `--no-stall-gate` — keep reporting the stall/starve deltas but do
//!   not fail on them (for PRs that intentionally trade waiting cycles);
//! * `--emit FILE` — append a dated entry to the perf trajectory (the
//!   `BENCH_sim.json` format; a legacy single-object file is wrapped as
//!   the first entry) so history accumulates across PRs;
//! * `--date STR` — the label stamped on the emitted entry. Passed in,
//!   never read from the system clock, so emissions are reproducible;
//!   defaults to `undated`.
//! * `--rebaseline REASON` — mark the emitted entry as an intended
//!   semantic change (a fix or feature that alters the circuits): the
//!   trajectory gate restarts its best-ever window at this entry for
//!   this backend, since older values measure circuits that no longer
//!   exist. The cycle-count gate against the baseline report is also
//!   skipped (the reason is printed instead) — rebaselining exists
//!   precisely because the honest new numbers differ.
//!
//! Reports carry a top-level `"scheduler"` member naming the simulation
//! backend (`table2 --scheduler`, default `compiled`). A report without
//! one is rejected rather than assumed to come from some backend: when
//! the two reports come from *different* backends the deltas are still
//! printed for inspection but never gated — raw cycle counts are only
//! comparable within one backend — so a guessed backend could silently
//! switch the gate off. The emitted trajectory entry is tagged with the
//! current report's backend so `perftrend` keeps the series separate too.

use graphiti_bench::jsonin::{parse, Json};
use graphiti_bench::trend;
use std::process::exit;

/// Everything perfdiff extracts from one report document.
struct Report {
    /// Simulation backend the report was produced under (`"scheduler"`
    /// member).
    backend: String,
    /// `benchmark/flow` → cycles, in document order.
    cycles: Vec<(String, u64)>,
    /// Harness wall-clock, if the document records it.
    wall_seconds: Option<f64>,
    /// Scheduler-efficiency counters, if a metrics snapshot is embedded.
    sched: Vec<(String, u64)>,
    /// Suite-wide stall/starve totals, if a metrics snapshot is embedded.
    stall: Vec<(String, u64)>,
}

/// Counters worth tracking across runs (subset of the obs registry).
const SCHED_COUNTERS: [&str; 4] =
    ["sim.firings", "sim.cycles", "sim.sched.examined", "sim.sched.worklist_pushes"];

/// Deterministic waiting-cycle totals, gated like cycle counts (a jump
/// here means circuits wait more even if end-to-end cycles hide it).
const STALL_COUNTERS: [&str; 2] = ["sim.stall_cycles", "sim.starved_cycles"];

fn load(path: &str) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfdiff: cannot read `{path}`: {e}");
        exit(2);
    });
    let doc = parse(&text).unwrap_or_else(|e| {
        eprintln!("perfdiff: `{path}` is not valid JSON: {e}");
        exit(2);
    });
    let mut cycles = Vec::new();
    for b in doc.get("benchmarks").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        for (flow, m) in b.get("flows").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(c) = m.get("cycles").and_then(Json::as_u64) {
                cycles.push((format!("{name}/{flow}"), c));
            }
        }
    }
    let Some(backend) = doc.get("scheduler").and_then(Json::as_str).map(str::to_string) else {
        eprintln!(
            "perfdiff: `{path}` has no \"scheduler\" member naming its simulation backend; \
             regenerate it with `table2 --json` or `report --json`"
        );
        exit(2);
    };
    let wall_seconds = doc.get("wall_seconds").and_then(Json::as_f64);
    let mut sched = Vec::new();
    let mut stall = Vec::new();
    if let Some(counters) = doc.get("metrics").and_then(|m| m.get("counters")) {
        for key in SCHED_COUNTERS {
            if let Some(v) = counters.get(key).and_then(Json::as_u64) {
                sched.push((key.to_string(), v));
            }
        }
        for key in STALL_COUNTERS {
            if let Some(v) = counters.get(key).and_then(Json::as_u64) {
                stall.push((key.to_string(), v));
            }
        }
    }
    Report { backend, cycles, wall_seconds, sched, stall }
}

/// Relative delta in percent. A zero baseline is not a silent `n/a`: a
/// flow that went 0 → 0 is unchanged (+0.00%), while 0 → anything is an
/// infinite regression that must still trip the gate.
fn pct(base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        (cur - base) / base * 100.0
    } else if cur == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

fn fmt_pct(p: f64) -> String {
    if p.is_finite() {
        format!("{p:+.2}%")
    } else if p == f64::INFINITY {
        "+inf%".to_string()
    } else {
        "n/a".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 10.0f64;
    let mut emit: Option<String> = None;
    let mut date = "undated".to_string();
    let mut stall_gate = true;
    let mut rebaseline: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-stall-gate" => stall_gate = false,
            "--rebaseline" => {
                rebaseline = Some(it.next().unwrap_or_else(|| {
                    eprintln!("perfdiff: --rebaseline needs a reason string");
                    exit(2);
                }));
            }
            "--threshold" => {
                let v = it.next().and_then(|s| s.parse::<f64>().ok());
                threshold = v.unwrap_or_else(|| {
                    eprintln!("perfdiff: --threshold needs a number");
                    exit(2);
                });
            }
            "--emit" => {
                emit = Some(it.next().unwrap_or_else(|| {
                    eprintln!("perfdiff: --emit needs a file path");
                    exit(2);
                }));
            }
            "--date" => {
                date = it.next().unwrap_or_else(|| {
                    eprintln!("perfdiff: --date needs a label");
                    exit(2);
                });
            }
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => {
                eprintln!("perfdiff: unknown argument `{other}`");
                eprintln!(
                    "usage: perfdiff BASELINE.json CURRENT.json [--threshold PCT] [--emit FILE] \
                     [--date STR] [--no-stall-gate] [--rebaseline REASON]"
                );
                exit(2);
            }
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: perfdiff BASELINE.json CURRENT.json [--threshold PCT] [--emit FILE] \
             [--date STR] [--no-stall-gate] [--rebaseline REASON]"
        );
        exit(2);
    }
    let base = load(&paths[0]);
    let cur = load(&paths[1]);
    let cross_backend = base.backend != cur.backend;
    if cross_backend {
        println!(
            "note: baseline backend `{}` != current backend `{}`; \
             deltas are informational and not gated",
            base.backend, cur.backend
        );
    }
    // A rebaseline declares the deltas intentional; report, don't gate.
    let gated = !cross_backend && rebaseline.is_none();
    if let Some(reason) = &rebaseline {
        println!("note: rebaseline ({reason}); deltas are informational and not gated");
    }

    let width = cur
        .cycles
        .iter()
        .chain(base.cycles.iter())
        .chain(cur.sched.iter())
        .chain(cur.stall.iter())
        .map(|(k, _)| k.len())
        .max()
        .unwrap_or(12)
        .max("benchmark/flow".len());
    println!("{:<width$}  {:>12}  {:>12}  {:>9}", "benchmark/flow", "baseline", "current", "delta");
    let mut regressions: Vec<(String, f64)> = Vec::new();
    let mut rows = Vec::new();
    for (key, c) in &cur.cycles {
        match base.cycles.iter().find(|(k, _)| k == key) {
            Some((_, b)) => {
                let d = pct(*b as f64, *c as f64);
                println!("{key:<width$}  {b:>12}  {c:>12}  {:>9}", fmt_pct(d));
                rows.push((key.clone(), *b, *c, d));
                if gated && d > threshold {
                    regressions.push((format!("{key} cycles"), d));
                }
            }
            None => println!("{key:<width$}  {:>12}  {c:>12}  {:>9}", "-", "new"),
        }
    }
    for (key, b) in &base.cycles {
        if !cur.cycles.iter().any(|(k, _)| k == key) {
            println!("{key:<width$}  {b:>12}  {:>12}  {:>9}", "-", "removed");
        }
    }

    println!();
    if let (Some(bw), Some(cw)) = (base.wall_seconds, cur.wall_seconds) {
        println!(
            "{:<width$}  {bw:>12.3}  {cw:>12.3}  {:>9}   (informational)",
            "wall_seconds",
            fmt_pct(pct(bw, cw)),
        );
    }
    for (key, c) in &cur.sched {
        if let Some((_, b)) = base.sched.iter().find(|(k, _)| k == key) {
            println!("{key:<width$}  {b:>12}  {c:>12}  {:>9}", fmt_pct(pct(*b as f64, *c as f64)));
        } else {
            println!("{key:<width$}  {:>12}  {c:>12}  {:>9}", "-", "new");
        }
    }
    for (key, c) in &cur.stall {
        match base.stall.iter().find(|(k, _)| k == key) {
            Some((_, b)) => {
                let d = pct(*b as f64, *c as f64);
                let note = if stall_gate && gated { "" } else { "   (ungated)" };
                println!("{key:<width$}  {b:>12}  {c:>12}  {:>9}{note}", fmt_pct(d));
                if stall_gate && gated && d > threshold {
                    regressions.push((key.clone(), d));
                }
            }
            None => println!("{key:<width$}  {:>12}  {c:>12}  {:>9}", "-", "new"),
        }
    }

    if let Some(path) = emit {
        // Cross-backend deltas are meaningless, so an entry emitted from
        // such a comparison records no worst-delta figure.
        let worst = if cross_backend {
            f64::NEG_INFINITY
        } else {
            regressions
                .iter()
                .map(|(_, d)| *d)
                .chain(rows.iter().map(|(_, _, _, d)| *d))
                .filter(|d| d.is_finite())
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let entry = trend::Entry {
            date,
            backend: cur.backend.clone(),
            // The current report's full cycle list — including keys the
            // baseline lacks, so a new backend's first emission is complete.
            cycles: cur.cycles.clone(),
            wall_seconds: cur.wall_seconds,
            scheduler: cur.sched.clone(),
            stalls: cur.stall.clone(),
            max_cycle_delta_pct: worst.is_finite().then_some(worst),
            rebaseline: rebaseline.clone(),
        };
        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                eprintln!("perfdiff: cannot read `{path}`: {e}");
                exit(2);
            }
        };
        let doc = trend::append_rendered(existing.as_deref(), entry).unwrap_or_else(|e| {
            eprintln!("perfdiff: cannot append to `{path}`: {e}");
            exit(2);
        });
        let entries = doc.matches("\"date\":").count();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfdiff: cannot write `{path}`: {e}");
            exit(2);
        }
        println!("\nwrote {path} ({entries} trajectory entries)");
    }

    if !regressions.is_empty() {
        println!();
        for (key, d) in &regressions {
            println!("REGRESSION: {key} {d:+.2}% (threshold {threshold}%)");
        }
        exit(1);
    }
}
