//! Turning passes and spans into the benchmark's named metrics.

use crate::trace::{self_times, Span};
use crate::workloads::{Counts, PassOutcome, Verdict};
use graphiti_sem::BoundKind;
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` declares it.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples above it,
/// as `(percentile, value)`; `None` below 20 samples, where that
/// percentile would not exceed the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 10;
    Some((100.0 * k as f64 / n as f64, v[k - 1]))
}

/// Peak resident memory of this process in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable (not Linux) or lacks the line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The end-to-end metrics of an untraced run. Exact counts come from the
/// first pass; timings are medians over all passes. Simulator throughput
/// is simulated cycles per host second of the whole pass, so it counts
/// what a user waits for around the simulation too.
pub fn end_to_end(
    setup_s: &[f64],
    walls: &[f64],
    passes: &[&PassOutcome],
    rss_mb: f64,
) -> Vec<Metric> {
    let first = &passes[0].counts;
    let throughput: Vec<f64> =
        passes.iter().zip(walls).map(|(p, wall)| p.counts.sim_cycles as f64 / wall).collect();
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("pass_s", median(walls), "s"),
        metric("sim_cycles_per_s", median(&throughput), "cycles/s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("graphiti_speedup", first.graphiti_speedup(), "ratio"),
        metric("graphiti_cycles", first.graphiti_cycles as f64, "cycles"),
        metric("graphiti_lut", first.graphiti_lut as f64, "LUT"),
    ]
}

/// Layer calls that get a span; each becomes a `<name>_us` self-time
/// metric, except `pool.discharge`, whose metric is its wall time.
pub const LAYER_SPANS: [&str; 14] = [
    "frontend.parse",
    "frontend.codegen",
    "frontend.interp",
    "rewrite.optimize",
    "rewrite.dfooo",
    "rewrite.deferred",
    "sem.denote",
    "sem.check",
    "pool.discharge",
    "sim.place",
    "sim.sta",
    "sim.area",
    "sim.simulate",
    "staticsched.run",
];

/// Bound kinds in reporting order.
pub const BOUND_KINDS: [BoundKind; 4] =
    [BoundKind::States, BoundKind::Depth, BoundKind::QueueCap, BoundKind::ClosureLimit];

/// Verdict totals of one pass: `(holds, bounded per kind, fails,
/// incomparable)`.
pub fn verdict_totals(c: &Counts) -> (u64, [u64; 4], u64, u64) {
    let (mut holds, mut bounded, mut fails, mut incomparable) = (0, [0u64; 4], 0, 0);
    for (_, v) in &c.verdicts {
        match v {
            Verdict::Holds => holds += 1,
            Verdict::Bounded(kind) => {
                let i =
                    BOUND_KINDS.iter().position(|k| k == kind).expect("every bound kind listed");
                bounded[i] += 1;
            }
            Verdict::Fails => fails += 1,
            Verdict::Incomparable => incomparable += 1,
        }
    }
    (holds, bounded, fails, incomparable)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every refinement check as `(rewrite, microseconds)`, slowest first. With
/// the checks on parallel workers, the slowest sets the discharge's wall
/// time.
pub fn checks_by_time(spans: &[Span]) -> Vec<(String, f64)> {
    let mut checks: Vec<&Span> = spans.iter().filter(|s| s.name == "sem.check").collect();
    checks.sort_by_key(|s| std::cmp::Reverse(s.dur_ns()));
    checks.iter().map(|s| (s.label.clone(), s.dur_ns() as f64 / 1e3)).collect()
}

/// The per-layer metrics of a traced run, per traced pass. Times are means
/// over the traced passes, counts come from the first traced pass, and
/// ratios divide totals over all traced passes. `traced_walls` and
/// `untraced_walls` give the tracing overhead.
pub fn per_layer(
    spans: &[Span],
    passes: &[&PassOutcome],
    traced_walls: &[f64],
    untraced_walls: &[f64],
) -> Vec<Metric> {
    let n = passes.len() as f64;
    let mut self_us: BTreeMap<&str, f64> = BTreeMap::new();
    let mut wall_us: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *self_us.entry(s.name).or_default() += self_ns as f64 / 1e3;
        *wall_us.entry(s.name).or_default() += s.dur_ns() as f64 / 1e3;
    }
    let us = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    let wall = |name: &str| wall_us.get(name).copied().unwrap_or(0.0);
    let total = |f: fn(&Counts) -> u64| passes.iter().map(|p| f(&p.counts) as f64).sum::<f64>();
    let first = &passes[0].counts;
    let (holds, bounded, fails, incomparable) = verdict_totals(first);

    let mut m = Vec::new();
    for name in LAYER_SPANS {
        let v = if name == "pool.discharge" { wall(name) } else { us(name) };
        m.push(metric(&format!("{name}_us"), v / n, "us"));
    }
    m.push(metric("frontend.nodes", first.nodes as f64, "count"));
    m.push(metric("rewrite.applied", first.rewrites as f64, "count"));
    m.push(metric(
        "rewrite.us_per_applied",
        ratio(us("rewrite.optimize") + us("rewrite.deferred"), total(|c| c.rewrites)),
        "us/rewrite",
    ));
    m.push(metric("rewrite.obligations", first.obligations as f64, "count"));
    m.push(metric("sem.check_max_us", checks_by_time(spans).first().map_or(0.0, |s| s.1), "us"));
    m.push(metric("sem.visited_states", first.visited_states as f64, "count"));
    m.push(metric("sem.closures", first.closures as f64, "count"));
    m.push(metric(
        "sem.us_per_state",
        ratio(us("sem.check"), total(|c| c.visited_states)),
        "us/state",
    ));
    m.push(metric("sem.holds", holds as f64, "count"));
    for (kind, count) in BOUND_KINDS.iter().zip(bounded) {
        m.push(metric(&format!("sem.bounded.{}", kind.name()), count as f64, "count"));
    }
    m.push(metric("sem.fails", fails as f64, "count"));
    m.push(metric("sem.incomparable", incomparable as f64, "count"));
    m.push(metric("sem.holds_pct", 100.0 * ratio(holds as f64, first.verdicts.len() as f64), "%"));
    m.push(metric("pool.workers", first.workers as f64, "count"));
    m.push(metric(
        "pool.busy_pct",
        100.0 * ratio(us("sem.check"), wall("pool.discharge") * first.workers as f64),
        "%",
    ));
    m.push(metric("sim.cycles", first.sim_cycles as f64, "cycles"));
    m.push(metric("sim.firings", first.sim_firings as f64, "count"));
    m.push(metric(
        "sim.ns_per_firing",
        1e3 * ratio(us("sim.simulate"), total(|c| c.sim_firings)),
        "ns/firing",
    ));
    m.push(metric("sim.cache_hits", first.cache_hits as f64, "count"));
    m.push(metric("sim.cache_misses", first.cache_misses as f64, "count"));
    m.push(metric("sim.stall_cycles", first.stall_cycles as f64, "cycles"));
    m.push(metric("sim.starved_cycles", first.starved_cycles as f64, "cycles"));
    let glue = us("pass") + us("kernel") + us("flow");
    m.push(metric("bench.self_us", glue / n, "us"));
    let (t, u) = (median(traced_walls), median(untraced_walls));
    m.push(metric("trace.overhead_pct", 100.0 * ratio(t - u, u), "%"));
    m
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 of 40 samples at or below the 75th percentile, 10 above it.
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_json(3, 0, &[metric("pass_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"pass_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
