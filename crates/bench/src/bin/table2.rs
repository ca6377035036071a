//! Regenerates the paper's `table2` artefact at the default problem sizes.
//!
//! ```text
//! table2 [--json] [--small]
//! ```
//!
//! * `--json` — print the results as a JSON document instead (evaluated
//!   with the `graphiti-obs` sink enabled, so the document embeds a
//!   metrics snapshot alongside the table numbers and harness wall-clock).
//! * `--small` — run the reduced-size suite.
//!
//! `GRAPHITI_JOBS=1 table2 --json --small > ci/perf_baseline.json`
//! regenerates the baseline that `perfdiff` compares exactly. A report
//! taken at any worker count matches it, because `perfdiff` skips the
//! `pool.*` metrics; the regeneration runs serially so that the committed
//! baseline records none of them.

use graphiti_bench::{evaluate_suite, json, small_suite, suite, tables};
use std::time::Instant;

fn main() {
    let mut json_out = false;
    let mut small = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json_out = true,
            "--small" => small = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: table2 [--json] [--small]");
                std::process::exit(2);
            }
        }
    }
    if json_out {
        graphiti_obs::enable();
    }
    let programs = if small { small_suite() } else { suite::evaluation_suite() };
    let t0 = Instant::now();
    let results = evaluate_suite(&programs).expect("evaluation succeeds");
    let wall = t0.elapsed().as_secs_f64();
    if json_out {
        print!("{}", json::report_json(&results, wall, true));
    } else {
        print!("{}", tables::table2(&results));
        println!();
        print!("{}", tables::headline(&results));
    }
}
