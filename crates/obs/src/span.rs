//! Hierarchical timed spans with process-unique span IDs for causal
//! (cross-thread) parenting.
//!
//! Every open span has a non-zero ID from a global counter and a parent
//! ID: the span enclosing it on the *same* thread, or — on a worker
//! thread that called [`adopt_parent`] — the span that was current on the
//! spawning thread. `graphiti-pool` propagates the caller's current span
//! through `parallel_map` this way, so fan-out work (deferred refinement
//! discharge, bench flow jobs) appears parented under the spawning span
//! in the Chrome trace instead of floating as orphan roots. The parent
//! chain is the one record of nesting: `obs::profile` rebuilds each
//! span's causal path from it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use crate::trace::{emit_complete, PID_WALL};

thread_local! {
    // ID of the innermost open (or adopted) span; 0 = none.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static THREAD_ORDINAL: u32 = next_thread_ordinal();
}

fn next_thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// This thread's stable ordinal (the `tid` used for trace tracks and
/// flight-recorder events).
pub(crate) fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| *t)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Forgets this thread's current span, so spans opened after a reset
/// start a new root.
pub(crate) fn clear_current_span() {
    CURRENT_SPAN.with(|c| c.set(0));
}

/// The ID of the innermost span open (or adopted) on this thread, or 0
/// when none is. Capture this before handing work to another thread and
/// re-establish it there with [`adopt_parent`].
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// Makes `parent` the ambient parent span for this thread until the
/// returned guard drops: spans opened meanwhile record it as their
/// parent, giving cross-thread work a causal edge back to the span that
/// spawned it. Passing 0 (no parent) is a no-op guard.
pub fn adopt_parent(parent: u64) -> ParentGuard {
    let prev = CURRENT_SPAN.with(|c| c.replace(parent));
    ParentGuard { prev }
}

/// RAII guard of [`adopt_parent`]; restores the previous parent on drop.
pub struct ParentGuard {
    prev: u64,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|c| c.set(self.prev));
    }
}

/// Opens a timed span named `name`.
///
/// While the returned guard lives, the span is the thread's current span
/// ([`current_span_id`]), so nested [`span`] calls record it as their
/// parent. On drop it records the elapsed time into the `span.{name}.us`
/// histogram and emits a wall-clock Chrome trace slice whose args carry
/// the span `id` and — when the span has one — its `parent` ID.
///
/// When collection is disabled ([`crate::enabled`] is false) this is a
/// no-op costing one relaxed atomic load; the guard does nothing on drop.
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let id = next_span_id();
    let parent = CURRENT_SPAN.with(|c| c.replace(id));
    SpanGuard { live: Some(LiveSpan { name: name.to_string(), start: Instant::now(), id, parent }) }
}

struct LiveSpan {
    name: String,
    start: Instant,
    id: u64,
    parent: u64,
}

/// RAII guard returned by [`span`]; records the span when dropped.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// This span's process-unique ID, or 0 when disabled.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_us = live.start.elapsed().as_micros() as u64;
        let end_us = crate::now_us();
        CURRENT_SPAN.with(|c| {
            // Restore the enclosing/adopted parent — unless reset()
            // already zeroed the current span mid-flight.
            if c.get() == live.id {
                c.set(live.parent);
            }
        });
        crate::histogram(&format!("span.{}.us", live.name)).record(dur_us);
        let mut args = vec![("id".to_string(), live.id.to_string())];
        if live.parent != 0 {
            args.push(("parent".to_string(), live.parent.to_string()));
        }
        emit_complete(
            PID_WALL,
            thread_ordinal(),
            &live.name,
            end_us.saturating_sub(dur_us),
            dur_us,
            args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_events, TraceEvent, TracePhase};

    fn arg<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e str> {
        e.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    #[test]
    fn spans_nest_under_their_parent_ids() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _second = span("second");
            }
        }
        crate::disable();

        assert_eq!(crate::histogram("span.outer.us").count(), 1);
        assert_eq!(crate::histogram("span.inner.us").count(), 1);
        assert_eq!(crate::histogram("span.second.us").count(), 1);

        let evs = trace_events();
        let complete: Vec<&TraceEvent> =
            evs.iter().filter(|e| e.ph == TracePhase::Complete).collect();
        // Inner spans close first, so their events come first.
        let names: Vec<&str> = complete.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["inner", "second", "outer"]);
        // Causal edges: both inner spans parent to outer's ID.
        let outer_id = arg(complete[2], "id").unwrap();
        assert_eq!(arg(complete[0], "parent"), Some(outer_id));
        assert_eq!(arg(complete[1], "parent"), Some(outer_id));
        assert_eq!(arg(complete[2], "parent"), None);
    }

    #[test]
    fn adopted_parents_cross_threads() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        let parent_id = {
            let outer = span("outer");
            let id = outer.id();
            assert_ne!(id, 0);
            assert_eq!(current_span_id(), id);
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(current_span_id(), 0);
                    let _adopt = adopt_parent(id);
                    let _job = span("job");
                });
            });
            id
        };
        crate::disable();
        let evs = trace_events();
        let job = evs.iter().find(|e| e.name == "job").expect("job span recorded");
        assert_eq!(arg(job, "parent"), Some(parent_id.to_string().as_str()));
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::disable();
        {
            let g = span("noop");
            assert_eq!(g.id(), 0);
        }
        assert_eq!(crate::histogram("span.noop.us").count(), 0);
        assert!(trace_events().is_empty());
    }
}
