//! `graphiti-obs`: the workspace's instrumentation layer.
//!
//! A zero-dependency metrics/tracing substrate shared by the simulator,
//! the rewrite engine, the refinement checker, and the bench harness:
//!
//! * a **metrics registry** ([`counter`], [`gauge`], [`histogram`]) backed
//!   by atomics, with histograms bucketed at powers of two;
//! * **hierarchical timed spans** ([`span`]) tracked on a thread-local
//!   stack, each recording a duration histogram and a Chrome trace event;
//! * **exporters**: a metrics JSON document ([`metrics_json`]), a Chrome
//!   trace-event file loadable in Perfetto / `chrome://tracing`
//!   ([`chrome_trace_json`]), and a human-readable summary table
//!   ([`summary_table`]);
//! * a **VCD waveform writer and parser** ([`vcd`]) used by the simulator
//!   to dump per-channel `valid`/`ready`/`tag` waves for GTKWave/Surfer;
//! * a **cancellation token** ([`CancelToken`]) with an optional deadline,
//!   polled by the simulator and the worker pool so a supervised stage can
//!   be cut off.
//!
//! The whole layer costs nothing until a sink is installed: every
//! instrumentation site first checks [`enabled`], a single relaxed atomic
//! load, and does no allocation, locking, or clock reads while it returns
//! `false`. Call [`enable`] (done by the `--metrics-out` / `--trace-out`
//! CLI flags and the bench harness) to start collecting.
//!
//! Metric and span state is global. Tests that assert on collected values
//! must serialize against each other and call [`reset`] first; the
//! workspace keeps such tests in dedicated integration-test binaries.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod cancel;
mod export;
pub mod flight;
pub mod profile;
pub mod schema;
mod span;
mod trace;
pub mod vcd;

pub use cancel::CancelToken;
pub use export::{
    chrome_trace_json, json_escape, metrics_json, summary_table, write_chrome_trace,
    write_metrics_json,
};
pub use span::{adopt_parent, current_span_id, span, ParentGuard, SpanGuard};
pub use trace::{
    emit_complete, emit_instant, trace_events, TraceEvent, TracePhase, PID_SIM, PID_WALL,
};

/// Global collection switch. Off by default; flipped by [`enable`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a sink is installed and instrumentation should collect.
///
/// This is the hot-path guard: a single relaxed atomic load. Every
/// instrumentation site in the workspace checks it before doing any work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the collection sink: subsequent metric and span calls record.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the collection sink; instrumentation returns to no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all collected metrics, spans, trace events, and the flight
/// recorder ring.
///
/// The enabled flag is left as-is. Metric handles obtained before the
/// reset keep working but are detached from the registry; re-fetch them
/// by name afterwards (handle caches can detect the detachment by
/// comparing [`generation`]). The bench harness calls this between
/// benchmark runs so each run exports a clean profile.
pub fn reset() {
    registry().clear();
    GENERATION.fetch_add(1, Ordering::Relaxed);
    trace::clear_events();
    span::clear_current_span();
    flight::clear();
}

/// Registry generation counter, bumped by every [`reset`].
///
/// Long-lived caches of metric handles (e.g. the rewrite engine's
/// per-rewrite counter cache) record the generation at mint time and
/// re-fetch their handles when it changes, so a reset cannot leave them
/// silently recording into detached metrics.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The current registry generation; changes on every [`reset`].
pub fn generation() -> u64 {
    GENERATION.load(Ordering::Relaxed)
}

/// The process-wide time origin for wall-clock trace timestamps.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed value that can move both ways.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Shifts the value by `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values are binned by bit length, so
/// bucket `i` holds values in `[2^(i-1), 2^i - 1]` (bucket 0 holds only
/// zero) and bucket 64 tops out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A distribution of `u64` samples over fixed power-of-two buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// The bucket index for a sample: its bit length.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value a bucket admits (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS);
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, indexed by [`bucket_index`].
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// An upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper bound of the bucket where the cumulative count
    /// crosses `q`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's nominal bound is u64::MAX; the observed
                // max is a tighter honest answer.
                return bucket_upper_bound(i).min(self.max().max(1));
            }
        }
        self.max()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new())).lock().unwrap_or_else(|e| e.into_inner())
}

/// First-mint schema gate: a name entering the registry must be declared
/// in [`schema::SCHEMA`]. Only called on the insert path, so steady-state
/// lookups of existing metrics never touch the schema.
fn check_schema(reg: &BTreeMap<String, Metric>, name: &str, kind: schema::MetricKind) {
    if !reg.contains_key(name) {
        if let Err(e) = schema::validate(name, kind) {
            panic!("graphiti-obs: {e}");
        }
    }
}

/// Gets or creates the counter registered under `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind, or
/// on first mint of a name the schema does not declare as a counter.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry();
    check_schema(&reg, name, schema::MetricKind::Counter);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Gets or creates the gauge registered under `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind, or
/// on first mint of a name the schema does not declare as a gauge.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry();
    check_schema(&reg, name, schema::MetricKind::Gauge);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Gets or creates the histogram registered under `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind, or
/// on first mint of a name the schema does not declare as a histogram.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = registry();
    check_schema(&reg, name, schema::MetricKind::Histogram);
    match reg.entry(name.to_string()).or_insert_with(|| {
        Metric::Histogram(Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// A point-in-time copy of every registered metric, for the exporters.
pub(crate) struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A point-in-time copy of one histogram.
pub(crate) struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub p50: u64,
    pub p90: u64,
    pub p95: u64,
    pub p99: u64,
}

pub(crate) fn snapshot() -> Snapshot {
    let reg = registry();
    let mut snap = Snapshot { counters: Vec::new(), gauges: Vec::new(), histograms: Vec::new() };
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Metric::Histogram(h) => snap.histograms.push((
                name.clone(),
                HistogramSnapshot {
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    buckets: h.bucket_counts(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                },
            )),
        }
    }
    snap
}

#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_follows_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Each bucket's upper bound admits exactly the values of its bit
        // length: bound(i) has bit length i, bound(i) + 1 has i + 1.
        for i in 1..64 {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i);
            assert_eq!(bucket_index(ub + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_sum_and_quantiles() {
        let _guard = test_lock();
        reset();
        let h = histogram("test.lib.hist");
        for v in [0u64, 1, 1, 3, 5, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1118);
        assert_eq!(h.max(), 1000);
        let b = h.bucket_counts();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 2); // 1, 1
        assert_eq!(b[2], 1); // 3
        assert_eq!(b[3], 1); // 5
        assert_eq!(b[4], 1); // 8
        assert_eq!(b[7], 1); // 100
        assert_eq!(b[10], 1); // 1000
        assert!(h.quantile(0.5) <= 7);
        assert_eq!(h.quantile(1.0), 1000.min(bucket_upper_bound(10)));
        assert_eq!(histogram("test.lib.hist.empty").quantile(0.99), 0);
    }

    #[test]
    fn bucket_upper_bounds_are_strictly_monotonic() {
        let mut prev = None;
        for i in 0..HISTOGRAM_BUCKETS {
            let ub = bucket_upper_bound(i);
            if let Some(p) = prev {
                assert!(ub > p, "bucket {i} bound {ub} not above {p}");
            }
            prev = Some(ub);
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_edge_cases_empty_single_and_max_bucket() {
        let _guard = test_lock();
        reset();
        // Empty histogram: every quantile is 0.
        let empty = histogram("test.quant.empty");
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        // Single sample: every quantile is that sample (capped by max).
        let single = histogram("test.quant.single");
        single.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 42);
        }
        // Max-bucket sample: the top bucket's nominal bound is u64::MAX, but
        // the reported quantile is capped at the observed max.
        let top = histogram("test.quant.top");
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.99), u64::MAX);
        let top2 = histogram("test.quant.top2");
        top2.record(u64::MAX - 12345);
        assert_eq!(top2.quantile(1.0), u64::MAX - 12345);
        // Out-of-range q values clamp instead of panicking.
        assert_eq!(single.quantile(-1.0), 42);
        assert_eq!(single.quantile(2.0), 42);
        reset();
    }

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let _guard = test_lock();
        reset();
        let a = counter("test.lib.ctr");
        let b = counter("test.lib.ctr");
        a.inc();
        b.add(2);
        assert_eq!(counter("test.lib.ctr").get(), 3);

        let g = gauge("test.lib.gauge");
        g.set(5);
        gauge("test.lib.gauge").add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn enabled_flag_toggles() {
        let _guard = test_lock();
        let was = enabled();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
        if was {
            enable();
        }
    }
}
