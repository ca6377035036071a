//! Regenerates the paper's `table2` artefact at the default problem sizes.
//!
//! ```text
//! table2 [--json] [--small] [--scheduler NAME]
//! ```
//!
//! * `--json` — print the results as a JSON document instead (evaluated
//!   with the `graphiti-obs` sink enabled, so the document embeds a
//!   metrics snapshot — including the scheduler-efficiency counters —
//!   alongside the table numbers and harness wall-clock, in the shape
//!   `perfdiff` consumes).
//! * `--small` — run the reduced-size suite (CI perf smoke).
//! * `--scheduler NAME` — simulate under `compiled` (default) or
//!   `reference-sweep`. The cycle counts are bit-identical across
//!   backends; the JSON report is stamped with a top-level `"scheduler"`
//!   member so `perfdiff` keeps the trajectories separate.

use graphiti_bench::{backend_name, evaluate_suite_with, json, small_suite, suite, tables};
use graphiti_sim::Scheduler;
use std::time::Instant;

fn main() {
    let mut json_out = false;
    let mut small = false;
    let mut scheduler = Scheduler::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--small" => small = true,
            "--scheduler" => {
                scheduler = match it.next().as_deref() {
                    Some("reference-sweep") => Scheduler::ReferenceSweep,
                    Some("compiled") => Scheduler::Compiled,
                    other => {
                        eprintln!(
                            "--scheduler needs one of reference-sweep|compiled, got {other:?}"
                        );
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: table2 [--json] [--small] [--scheduler NAME]");
                std::process::exit(2);
            }
        }
    }
    if json_out {
        graphiti_obs::enable();
    }
    let programs = if small { small_suite() } else { suite::evaluation_suite() };
    let t0 = Instant::now();
    let results = evaluate_suite_with(&programs, scheduler).expect("evaluation succeeds");
    let wall = t0.elapsed().as_secs_f64();
    if json_out {
        print!("{}", json::report_json_for(&results, wall, true, backend_name(scheduler)));
    } else {
        print!("{}", tables::table2(&results));
        println!();
        print!("{}", tables::headline(&results));
    }
}
