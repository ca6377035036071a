//! The traced run's span recorder.
//!
//! The benchmark wraps every call it makes into a layer's public functions
//! in a span, nested pass → kernel → flow → layer call. Spans carry the id
//! of the pass they belong to, stay in memory while the run measures, and
//! are written out as JSON lines when it ends. A disabled tracer calls the
//! wrapped function directly and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span goes: the pass it belongs to and its parent span
/// (`0` for a pass root).
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The pass id every span of one pass shares.
    pub pass: u64,
    /// The enclosing span, `0` at the root.
    pub parent: u64,
}

impl Ctx {
    /// The root context of pass `pass`.
    pub fn root(pass: u64) -> Ctx {
        Ctx { pass, parent: 0 }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (starting at 1).
    pub id: u64,
    /// Parent span id, `0` at a pass root.
    pub parent: u64,
    /// The pass this span belongs to.
    pub pass: u64,
    /// The layer call or structural level (`pass`, `kernel`, `flow`).
    pub name: &'static str,
    /// Kernel, flow or rewrite name, where one applies.
    pub label: String,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span buffer, shared by the worker threads of a fan-out.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context for spans nested inside this one.
    pub fn span<R>(
        &self,
        ctx: Ctx,
        name: &'static str,
        label: &str,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        if !self.on {
            return f(ctx);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(Ctx { pass: ctx.pass, parent: id });
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent: ctx.parent,
            pass: ctx.pass,
            name,
            label: label.into(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("a span recorder panicked").push(span);
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Removes and returns every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("a span recorder panicked"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its children cover. Children of a
/// fan-out run in parallel, so covered time is the union of their
/// intervals, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes the spans as JSON lines (durations in microseconds).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"pass\": {}, \"name\": \"{}\", \"label\": \"{}\", \
             \"start_us\": {:.3}, \"dur_us\": {:.3}, \"self_us\": {:.3}}}",
            s.id,
            s.parent,
            s.pass,
            s.name,
            graphiti_bench::json::escape(&s.label),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            self_ns as f64 / 1e3,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, pass: 1, name: "t", label: String::new(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..60 (a
        // two-worker fan-out) and a disjoint child 80..90.
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 80, 90)];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let r = t.span(Ctx::root(1), "x", "", |c| c.parent);
        assert_eq!(r, 0);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_nest_by_context() {
        let t = Tracer::new(true);
        t.span(Ctx::root(7), "pass", "", |c| t.span(c, "kernel", "k", |_| ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let pass = spans.iter().find(|s| s.name == "pass").expect("pass span");
        let kernel = spans.iter().find(|s| s.name == "kernel").expect("kernel span");
        assert_eq!(kernel.parent, pass.id);
        assert!(spans.iter().all(|s| s.pass == 7));
    }
}
