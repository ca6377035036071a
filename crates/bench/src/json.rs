//! Hand-rolled JSON rendering of benchmark results.
//!
//! The build environment is offline (no serde), so this mirrors the
//! exporters in `graphiti-obs`: their escape helper plus one explicit
//! renderer. The `--json` flag of the bench binaries routes through
//! [`report_json`], which can embed the metrics document produced by
//! [`graphiti_obs::metrics_json`] so a profile travels alongside the
//! headline numbers.

use crate::eval::{BenchResult, StallSummary};

pub use graphiti_obs::json_escape as escape;

/// A JSON number literal for `x` (`null` for non-finite values).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a flow's stall-cause summary as a `, "stalls": {...}` member.
fn stalls_json(s: &StallSummary) -> String {
    let causes = s
        .causes
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let channels = s
        .critical_channels
        .iter()
        .map(|(k, v)| format!("{{\"channel\": \"{}\", \"lost_cycles\": {v}}}", escape(k)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        ", \"stalls\": {{\"stall_cycles\": {}, \"starved_cycles\": {}, \
         \"causes\": {{{causes}}}, \"critical_channels\": [{channels}]}}",
        s.stall_cycles, s.starved_cycles,
    )
}

/// Renders a report as a JSON document: `{"benchmarks": [{"name",
/// "flows": {...}, "rewrites", ...}], "wall_seconds"}`, plus (when
/// `with_metrics`) a `"metrics"` member holding the current
/// [`graphiti_obs`] registry snapshot. Call with the sink enabled so the
/// evaluation's counters and histograms are populated. This is the shape
/// `perfdiff` compares.
pub fn report_json(results: &[BenchResult], wall_seconds: f64, with_metrics: bool) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", escape(&r.name)));
        out.push_str("      \"flows\": {\n");
        for (j, (flow, m)) in r.flows.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {{\"cycles\": {}, \"clock_period_ns\": {}, \
                 \"exec_time_ns\": {}, \"lut\": {}, \"ff\": {}, \"dsp\": {}, \
                 \"correct\": {}{}}}{}\n",
                escape(&flow.to_string()),
                m.cycles,
                num(m.clock_period_ns),
                num(m.exec_time_ns),
                m.lut,
                m.ff,
                m.dsp,
                m.correct,
                m.stalls.as_ref().map(stalls_json).unwrap_or_default(),
                if j + 1 < r.flows.len() { "," } else { "" },
            ));
        }
        out.push_str("      },\n");
        out.push_str(&format!("      \"rewrites\": {},\n", r.rewrites));
        out.push_str(&format!("      \"rewrite_seconds\": {},\n", num(r.rewrite_seconds)));
        out.push_str(&format!("      \"refused\": {},\n", r.refused));
        out.push_str(&format!("      \"graph_nodes\": {}\n", r.graph_nodes));
        out.push_str(&format!("    }}{}\n", if i + 1 < results.len() { "," } else { "" }));
    }
    out.push_str(&format!("  ],\n  \"wall_seconds\": {}", num(wall_seconds)));
    if with_metrics {
        out.push_str(",\n  \"metrics\": ");
        out.push_str(graphiti_obs::metrics_json().trim_end());
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Flow, FlowMetrics};
    use std::collections::BTreeMap;

    fn sample() -> BenchResult {
        let mut flows = BTreeMap::new();
        flows.insert(
            Flow::Graphiti,
            FlowMetrics {
                cycles: 42,
                clock_period_ns: 6.5,
                exec_time_ns: 273.0,
                lut: 10,
                ff: 20,
                dsp: 1,
                correct: true,
                stalls: Some(StallSummary {
                    stall_cycles: 3,
                    starved_cycles: 4,
                    causes: [("starved-by-source".to_string(), 7)].into_iter().collect(),
                    critical_channels: vec![("in.b".to_string(), 7)],
                }),
            },
        );
        BenchResult {
            name: "gcd \"quoted\"".to_string(),
            flows,
            rewrites: 7,
            rewrite_seconds: 0.25,
            refused: false,
            graph_nodes: 30,
        }
    }

    #[test]
    fn renders_escaped_names_and_balanced_braces() {
        let doc = report_json(&[sample()], 0.5, false);
        assert!(doc.contains("\"gcd \\\"quoted\\\"\""));
        assert!(doc.contains("\"cycles\": 42"));
        assert!(doc.contains("\"correct\": true"));
        assert!(doc.contains("\"stalls\": {\"stall_cycles\": 3, \"starved_cycles\": 4"));
        assert!(doc.contains("\"starved-by-source\": 7"));
        assert!(doc.contains("{\"channel\": \"in.b\", \"lost_cycles\": 7}"));
        let (mut depth, mut min_depth) = (0i64, 0i64);
        let mut in_str = false;
        let mut escaped = false;
        for c in doc.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => {
                    depth -= 1;
                    min_depth = min_depth.min(depth);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert_eq!(min_depth, 0);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }
}
