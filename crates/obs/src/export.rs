//! Exporters: metrics JSON, Chrome trace-event JSON, and a summary table.
//!
//! JSON is rendered by hand — the workspace is dependency-free and the
//! documents are flat enough that serde would be overkill.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::trace::{dropped_events, trace_events, PID_SIM, PID_WALL};
use crate::{bucket_upper_bound, snapshot};

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The metrics registry rendered as a JSON document.
///
/// Layout:
///
/// ```json
/// {
///   "counters": { "sim.firings": 42, ... },
///   "gauges": { ... },
///   "histograms": {
///     "sim.token_latency_cycles": {
///       "count": 10, "sum": 55, "max": 9,
///       "p50": 7, "p90": 15, "p95": 15, "p99": 15,
///       "buckets": [ { "le": 0, "count": 1 }, { "le": 3, "count": 4 } ]
///     }
///   }
/// }
/// ```
///
/// Only non-empty buckets are listed; `le` is the bucket's inclusive
/// upper bound.
pub fn metrics_json() -> String {
    let snap = snapshot();
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            json_escape(name),
            h.count,
            h.sum,
            h.max,
            h.p50,
            h.p90,
            h.p95,
            h.p99,
        );
        let mut first = true;
        for (idx, c) in h.buckets.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(out, "{sep}{{ \"le\": {}, \"count\": {c} }}", bucket_upper_bound(idx));
        }
        out.push_str("] }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// The buffered trace rendered in Chrome trace-event format.
///
/// The document loads directly in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`. Process [`PID_WALL`] carries wall-clock spans (one
/// track per thread); process [`PID_SIM`] carries simulated-time events
/// where 1 cycle = 1 µs and each circuit node is its own track.
pub fn chrome_trace_json() -> String {
    let events = trace_events();
    let mut out = String::from("{\"traceEvents\":[\n");
    // Metadata naming the two process rows.
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{PID_WALL},\"name\":\"process_name\",\"args\":{{\"name\":\"wall clock\"}}}},\n\
         {{\"ph\":\"M\",\"pid\":{PID_SIM},\"name\":\"process_name\",\"args\":{{\"name\":\"simulated cycles (1 cycle = 1us)\"}}}}"
    );
    for ev in &events {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            json_escape(&ev.name),
            ev.ph.as_str(),
            ev.ts_us,
            ev.pid,
            ev.tid,
        );
        if ev.ph == crate::TracePhase::Complete {
            let _ = write!(out, ",\"dur\":{}", ev.dur_us);
        } else {
            // Instant events need a scope; "t" = thread-scoped.
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{}}}}}\n",
        dropped_events()
    );
    out
}

/// The metrics registry rendered as an aligned, human-readable table.
pub fn summary_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.gauges.iter().map(|(n, _)| n.len()))
        .chain(snap.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0)
        .max(6);
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.histograms {
            let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
            let _ = writeln!(
                out,
                "  {name:<width$}  count={} mean={mean:.1} p50<={} p90<={} p95<={} p99<={} max={}",
                h.count, h.p50, h.p90, h.p95, h.p99, h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Writes [`metrics_json`] to `path`.
pub fn write_metrics_json(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, metrics_json())
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn exports_render_registered_metrics() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::counter("test.exp.ctr").add(7);
        crate::gauge("test.exp.gauge").set(-2);
        let h = crate::histogram("test.exp.hist");
        h.record(3);
        h.record(300);

        let json = metrics_json();
        assert!(json.contains("\"test.exp.ctr\": 7"));
        assert!(json.contains("\"test.exp.gauge\": -2"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("{ \"le\": 3, \"count\": 1 }"));

        let table = summary_table();
        assert!(table.contains("test.exp.ctr"));
        assert!(table.contains("count=2"));
    }

    #[test]
    fn percentiles_agree_across_all_exporters() {
        let _guard = crate::test_lock();
        crate::reset();
        let h = crate::histogram("sim.token_latency_cycles");
        for v in 1..=100u64 {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        let json = metrics_json();
        assert!(json.contains(&format!("\"p50\": {p50}")), "JSON p50 differs");
        assert!(json.contains(&format!("\"p95\": {p95}")), "JSON p95 differs");
        assert!(json.contains(&format!("\"p99\": {p99}")), "JSON p99 differs");
        let table = summary_table();
        assert!(table.contains(&format!("p50<={p50}")), "summary p50 differs");
        assert!(table.contains(&format!("p95<={p95}")), "summary p95 differs");
        assert!(table.contains(&format!("p99<={p99}")), "summary p99 differs");
        crate::reset();
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::emit_complete(PID_SIM, 0, "fire", 5, 1, vec![("v".into(), "1".into())]);
        crate::emit_instant(PID_WALL, 0, "mark", 9, vec![]);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
