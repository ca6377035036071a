//! Gates a `table2 --json --small` report against the committed baseline,
//! exactly.
//!
//! ```text
//! perfdiff BASELINE.json CURRENT.json
//! ```
//!
//! Every value of the two documents must be equal, except wall-clock
//! time. Objects are compared member by member and arrays element by
//! element, in both directions, so a member present on one side only is a
//! difference too. Two kinds of member are skipped as time:
//!
//! * a member whose key ends in `_seconds` (`wall_seconds`,
//!   `rewrite_seconds`);
//! * a metric (a member of `metrics.counters`, `.gauges` or
//!   `.histograms`) whose unit in [`graphiti_obs::schema`] is `us`
//!   (`sim.compile.us`, the `span.*.us` histograms). The schema decides
//!   what counts as time; an undeclared metric name is compared.
//!
//! Everything else (cycles, clock periods, areas, stall attributions and
//! every counter, gauge and histogram) is deterministic in a serial run,
//! so any difference is a real change. Each difference is printed with
//! both values, at a path that labels array elements by their `name`
//! member (`/benchmarks/gemm/flows/GRAPHITI/cycles`). `wall_seconds` is
//! printed for information only.
//!
//! Exits 0 when the documents agree, 1 on any difference (after printing
//! the regeneration command), and 2 on unreadable input. An intended
//! change regenerates the baseline in the same commit, serially: with
//! more than one worker the pool's per-worker counters depend on
//! scheduling.
//!
//! ```text
//! GRAPHITI_JOBS=1 table2 --json --small > ci/perf_baseline.json
//! ```

use graphiti_bench::jsonin::{parse, Json};
use std::process::exit;

/// The one command that regenerates the committed baseline.
const REGENERATE: &str = "GRAPHITI_JOBS=1 table2 --json --small > ci/perf_baseline.json";

/// The objects whose members are metrics, keyed by metric name.
const METRIC_FAMILIES: [&str; 3] = ["/metrics/counters", "/metrics/gauges", "/metrics/histograms"];

/// One value on which the documents disagree, both sides rendered.
#[derive(Debug)]
struct Difference {
    path: String,
    base: String,
    cur: String,
}

/// What comparing two documents found.
#[derive(Debug, Default)]
struct Comparison {
    /// Scalar values compared on both sides.
    compared: usize,
    differences: Vec<Difference>,
}

impl Comparison {
    fn differ(&mut self, path: String, base: Option<&Json>, cur: Option<&Json>) {
        self.differences.push(Difference { path, base: show(base), cur: show(cur) });
    }
}

/// One line for a value: scalars in full, containers by size.
fn show(v: Option<&Json>) -> String {
    match v {
        None => "(absent)".to_string(),
        Some(Json::Null) => "null".to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Num(x)) => x.to_string(),
        Some(Json::Str(s)) => format!("{s:?}"),
        Some(Json::Arr(xs)) => format!("[{} elements]", xs.len()),
        Some(Json::Obj(ms)) => format!("{{{} members}}", ms.len()),
    }
}

/// Whether member `key` of the object at `parent` holds wall-clock time.
fn is_time(parent: &str, key: &str) -> bool {
    key.ends_with("_seconds")
        || (METRIC_FAMILIES.contains(&parent)
            && graphiti_obs::schema::lookup(key).is_some_and(|spec| spec.unit == "us"))
}

fn walk(path: &str, base: &Json, cur: &Json, out: &mut Comparison) {
    match (base, cur) {
        (Json::Obj(bs), Json::Obj(cs)) => {
            for (key, b) in bs.iter().filter(|(k, _)| !is_time(path, k)) {
                let p = format!("{path}/{key}");
                match cur.get(key) {
                    Some(c) => walk(&p, b, c, out),
                    None => out.differ(p, Some(b), None),
                }
            }
            for (key, c) in cs.iter().filter(|(k, _)| !is_time(path, k)) {
                if base.get(key).is_none() {
                    out.differ(format!("{path}/{key}"), None, Some(c));
                }
            }
        }
        (Json::Arr(bs), Json::Arr(cs)) => {
            for i in 0..bs.len().max(cs.len()) {
                let (b, c) = (bs.get(i), cs.get(i));
                let name = b.or(c).and_then(|v| v.get("name")).and_then(Json::as_str);
                let p = format!("{path}/{}", name.map_or_else(|| i.to_string(), str::to_string));
                match (b, c) {
                    (Some(b), Some(c)) => walk(&p, b, c, out),
                    _ => out.differ(p, b, c),
                }
            }
        }
        _ => {
            out.compared += 1;
            if base != cur {
                out.differ(path.to_string(), Some(base), Some(cur));
            }
        }
    }
}

/// Compares every non-time value of `base` with `cur`.
fn compare(base: &Json, cur: &Json) -> Comparison {
    let mut out = Comparison::default();
    walk("", base, cur, &mut out);
    out
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfdiff: cannot read `{path}`: {e}");
        exit(2);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("perfdiff: `{path}` is not valid JSON: {e}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, cur_path] = args.as_slice() else {
        eprintln!("usage: perfdiff BASELINE.json CURRENT.json");
        exit(2);
    };
    let (base, cur) = (load(base_path), load(cur_path));
    println!(
        "wall_seconds: {} -> {} (information only)",
        show(base.get("wall_seconds")),
        show(cur.get("wall_seconds"))
    );
    let cmp = compare(&base, &cur);
    for d in &cmp.differences {
        println!("{}: {} -> {}", d.path, d.base, d.cur);
    }
    if cmp.differences.is_empty() {
        println!("perfdiff: all {} compared values are equal", cmp.compared);
        return;
    }
    let n = cmp.differences.len();
    println!(
        "\nperfdiff: {n} difference{} ({} values compared). If the change is intended, \
         regenerate the baseline in the same commit:\n  {REGENERATE}",
        if n == 1 { "" } else { "s" },
        cmp.compared
    );
    exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report in the shape `table2 --json` writes, cut down.
    const DOC: &str = r#"{
      "benchmarks": [
        {"name": "gemm",
         "flows": {"DF-IO": {"cycles": 120, "clock_period_ns": 6.5, "correct": true},
                   "GRAPHITI": {"cycles": 100, "clock_period_ns": 6.5, "correct": true}},
         "rewrites": 7, "rewrite_seconds": 0.01}
      ],
      "wall_seconds": 0.5,
      "metrics": {
        "counters": {"sim.cycles": 220, "sim.compile.us": 40},
        "gauges": {"sim.sched.fires_per_1k_examined": 298},
        "histograms": {"span.rewrite.optimize.us": {"count": 1, "sum": 90, "buckets": [{"le": 127, "count": 1}]}}
      }
    }"#;

    fn differences(base: &str, cur: &str) -> Vec<Difference> {
        compare(&parse(base).unwrap(), &parse(cur).unwrap()).differences
    }

    fn paths(base: &str, cur: &str) -> Vec<String> {
        differences(base, cur).into_iter().map(|d| d.path).collect()
    }

    #[test]
    fn identical_documents_agree() {
        let doc = parse(DOC).unwrap();
        let cmp = compare(&doc, &doc);
        assert!(cmp.differences.is_empty(), "{:?}", cmp.differences);
        assert_eq!(cmp.compared, 10);
    }

    #[test]
    fn a_cycle_count_moved_by_one_either_way_is_named() {
        for cycles in ["101", "99"] {
            let cur = DOC.replace("\"cycles\": 100", &format!("\"cycles\": {cycles}"));
            let ds = differences(DOC, &cur);
            assert_eq!(ds.len(), 1, "{ds:?}");
            assert_eq!(ds[0].path, "/benchmarks/gemm/flows/GRAPHITI/cycles");
            assert_eq!((ds[0].base.as_str(), ds[0].cur.as_str()), ("100", cycles));
        }
    }

    #[test]
    fn wall_clock_members_and_microsecond_metrics_are_skipped() {
        let cur = DOC
            .replace("\"wall_seconds\": 0.5", "\"wall_seconds\": 0.9")
            .replace("\"rewrite_seconds\": 0.01", "\"rewrite_seconds\": 0.02")
            .replace("\"sim.compile.us\": 40", "\"sim.compile.us\": 41")
            .replace("\"sum\": 90", "\"sum\": 95");
        assert_ne!(cur, DOC);
        assert!(paths(DOC, &cur).is_empty());
    }

    #[test]
    fn a_member_on_one_side_only_is_one_difference() {
        let extra = DOC.replace("\"sim.cycles\": 220", "\"sim.cycles\": 220, \"sim.firings\": 5");
        assert_eq!(paths(DOC, &extra), ["/metrics/counters/sim.firings"]);
        assert_eq!(paths(&extra, DOC), ["/metrics/counters/sim.firings"]);
        let one_flow = DOC.replace(
            "\"DF-IO\": {\"cycles\": 120, \"clock_period_ns\": 6.5, \"correct\": true},",
            "",
        );
        let ds = differences(DOC, &one_flow);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].path, "/benchmarks/gemm/flows/DF-IO");
        assert_eq!(ds[0].cur, "(absent)");
    }

    #[test]
    fn an_undeclared_metric_is_compared_even_if_it_looks_like_time() {
        let with = |v: u32| {
            DOC.replace("\"sim.cycles\": 220", &format!("\"sim.cycles\": 220, \"made.up.us\": {v}"))
        };
        assert!(graphiti_obs::schema::lookup("made.up.us").is_none());
        assert_eq!(paths(&with(1), &with(2)), ["/metrics/counters/made.up.us"]);
    }
}
