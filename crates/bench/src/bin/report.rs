//! Produces the complete evaluation report — Tables 2 and 3, Figure 8, the
//! §6.3 statistics, the ablations, and the headline factors — in one run,
//! suitable for diffing against EXPERIMENTS.md.
//!
//! ```text
//! report [--json] [--metrics-dir DIR]
//! ```
//!
//! * `--json` — print the results as a JSON document on stdout (the human
//!   tables move to stderr) with an aggregate `graphiti-obs` metrics
//!   snapshot embedded.
//! * `--metrics-dir DIR` — run each benchmark with the obs sink enabled
//!   and write one `DIR/<bench>.metrics.json` profile per benchmark run.

use graphiti_bench::{
    ablations, backend_name, evaluate, evaluate_suite, json, suite, tables, BenchResult,
};
use graphiti_sim::Scheduler;
use std::time::Instant;

fn render_tables(results: &[BenchResult], to_stderr: bool) {
    let mut doc = String::from("# Graphiti evaluation report\n\n");
    doc.push_str(&tables::headline(results));
    doc.push('\n');
    doc.push_str(&tables::table2(results));
    doc.push('\n');
    doc.push_str(&tables::table3(results));
    doc.push('\n');
    doc.push_str(&tables::fig8(results));
    doc.push_str(&tables::stats(results));
    doc.push('\n');
    doc.push_str(&ablations::render_ablations().expect("ablations succeed"));
    if to_stderr {
        eprint!("{doc}");
    } else {
        print!("{doc}");
    }
}

fn main() {
    let mut json_out = false;
    let mut metrics_dir: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--metrics-dir" => {
                metrics_dir = Some(it.next().expect("--metrics-dir needs a directory"))
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: report [--json] [--metrics-dir DIR]");
                std::process::exit(2);
            }
        }
    }

    let programs = suite::evaluation_suite();
    let t0 = Instant::now();
    let results = match &metrics_dir {
        Some(dir) => {
            // One metrics file per benchmark run: reset the registry
            // before each so profiles don't bleed into each other.
            std::fs::create_dir_all(dir).expect("create --metrics-dir");
            graphiti_obs::enable();
            let mut rs = Vec::new();
            for p in &programs {
                graphiti_obs::reset();
                rs.push(evaluate(p).expect("evaluation succeeds"));
                let path = format!("{dir}/{}.metrics.json", p.name);
                graphiti_obs::write_metrics_json(&path)
                    .unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            }
            rs
        }
        None => {
            if json_out {
                // Populate the embedded metrics snapshot.
                graphiti_obs::enable();
            }
            evaluate_suite(&programs).expect("evaluation succeeds")
        }
    };

    let wall = t0.elapsed().as_secs_f64();

    if json_out {
        // With --metrics-dir the registry only holds the last benchmark,
        // so the combined document omits the (misleading) aggregate.
        let backend = backend_name(Scheduler::default());
        print!("{}", json::report_json_for(&results, wall, metrics_dir.is_none(), backend));
        render_tables(&results, true);
    } else {
        render_tables(&results, false);
    }
}
