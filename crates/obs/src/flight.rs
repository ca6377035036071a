//! The flight recorder: a fixed-capacity ring of recent structured
//! events, dumped as JSONL on panic or on demand.
//!
//! Metrics answer "how much"; the Chrome trace answers "when" — but both
//! are only written out at the *end* of a healthy run. The flight
//! recorder answers "what just happened" when a run dies: instrumented
//! sites append one-line events (a simulation starting, a rewrite
//! applying, a refinement bound tripping) into a ring of the most recent
//! [`CAPACITY`] entries, and the ring is serialized as JSONL either by an
//! installed panic hook ([`install_panic_hook`]) or explicitly
//! ([`jsonl`], the CLI's `--flight-out`). `graphiti-fuzz` attaches the
//! tail of the ring to every minimised reproducer, so a triaged crash
//! carries its own last moments.
//!
//! Cost model: recording is off until [`enable`] flips one atomic, and
//! every instrumentation site checks [`enabled`] (a relaxed load) before
//! formatting anything — the disabled path stays within the
//! zero-overhead contract (`disabled_recording_is_inert` pins it). When
//! enabled, a writer claims its slot with one wait-free `fetch_add` and
//! takes only that slot's private mutex to store the payload; there is no
//! global lock on the record path, so concurrent writers never serialize
//! against each other (two writers contend only when the ring has lapped
//! and they land on the same slot).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::export::json_escape;

/// Ring capacity: the recorder keeps the most recent this-many events.
pub const CAPACITY: usize = 1024;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Global sequence number (monotonic across the whole process).
    pub seq: u64,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Ordinal of the recording thread (same numbering as span tracks).
    pub thread: u32,
    /// Event category, e.g. `sim.start`, `rewrite.applied`.
    pub kind: &'static str,
    /// Free-form detail line.
    pub detail: String,
}

static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);
static HEAD: AtomicU64 = AtomicU64::new(0);

fn slots() -> &'static [Mutex<Option<FlightEvent>>] {
    static SLOTS: OnceLock<Vec<Mutex<Option<FlightEvent>>>> = OnceLock::new();
    SLOTS.get_or_init(|| (0..CAPACITY).map(|_| Mutex::new(None)).collect())
}

/// Whether the recorder is collecting. The hot-path guard: one relaxed
/// atomic load; when false, [`record`] neither formats nor locks.
#[inline(always)]
pub fn enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Starts recording (idempotent).
pub fn enable() {
    slots(); // materialise the ring outside any recording fast path
    FLIGHT_ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording; the ring contents stay readable.
pub fn disable() {
    FLIGHT_ENABLED.store(false, Ordering::Relaxed);
}

/// Empties the ring and resets the sequence counter.
pub fn clear() {
    for slot in slots() {
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
    HEAD.store(0, Ordering::Relaxed);
}

/// Records one event. `detail` is a closure so the disabled path pays no
/// formatting; call as `record("sim.start", || format!(...))`.
#[inline]
pub fn record(kind: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let seq = HEAD.fetch_add(1, Ordering::Relaxed);
    let ev = FlightEvent {
        seq,
        ts_us: crate::now_us(),
        thread: crate::span::thread_ordinal(),
        kind,
        detail: detail(),
    };
    let slot = &slots()[(seq % CAPACITY as u64) as usize];
    let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
    // A writer descheduled between claiming its sequence number and
    // reaching the slot can arrive after a faster writer from the next
    // lap; keep the newest event rather than letting the straggler
    // clobber it with a stale one.
    if guard.as_ref().is_none_or(|old| old.seq < seq) {
        *guard = Some(ev);
    }
}

/// Events recorded so far in total (including ones the ring has dropped).
pub fn recorded() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

/// Events overwritten because the ring wrapped.
pub fn dropped() -> u64 {
    recorded().saturating_sub(CAPACITY as u64)
}

/// The ring contents, oldest first.
pub fn events() -> Vec<FlightEvent> {
    let mut out: Vec<FlightEvent> = slots()
        .iter()
        .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
        .collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// One event rendered as a JSON object (one JSONL line, no newline).
fn event_json(e: &FlightEvent) -> String {
    format!(
        "{{\"seq\": {}, \"ts_us\": {}, \"thread\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
        e.seq,
        e.ts_us,
        e.thread,
        json_escape(e.kind),
        json_escape(&e.detail),
    )
}

/// The ring serialized as JSONL (one event per line, oldest first).
pub fn jsonl() -> String {
    let mut out = String::new();
    for e in events() {
        let _ = writeln!(out, "{}", event_json(&e));
    }
    out
}

/// The last `n` events rendered as JSONL lines (for embedding in fuzz
/// reproducers and failure reports).
pub fn tail_lines(n: usize) -> Vec<String> {
    let evs = events();
    evs.iter().skip(evs.len().saturating_sub(n)).map(event_json).collect()
}

/// Writes [`jsonl`] to `path`.
///
/// # Errors
///
/// Propagates the filesystem error.
pub fn write_jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, jsonl())
}

/// Installs a panic hook that dumps the ring as JSONL to `path` before
/// delegating to the previously installed hook. Safe to call more than
/// once (each call chains the hook installed before it); a no-op dump when
/// the recorder is disabled or empty.
pub fn install_panic_hook(path: impl Into<PathBuf>) {
    let path = path.into();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if enabled() && recorded() > 0 {
            match write_jsonl(&path) {
                Ok(()) => eprintln!(
                    "graphiti-obs: flight recorder dumped {} events to {}",
                    events().len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!(
                        "graphiti-obs: cannot dump flight recorder to {}: {e}",
                        path.display()
                    )
                }
            }
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    // Flight state is process-global like the metrics registry; these
    // tests serialize on the same lock the registry tests use.

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = crate::test_lock();
        clear();
        disable();
        record("test.noop", || unreachable!("detail must not be formatted when disabled"));
        assert_eq!(recorded(), 0);
        assert!(events().is_empty());
        assert!(jsonl().is_empty());
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent() {
        let _guard = crate::test_lock();
        clear();
        enable();
        for i in 0..(CAPACITY as u64 + 50) {
            record("test.fill", move || format!("event {i}"));
        }
        disable();
        let evs = events();
        assert_eq!(evs.len(), CAPACITY);
        assert_eq!(dropped(), 50);
        assert_eq!(evs.first().unwrap().seq, 50);
        assert_eq!(evs.last().unwrap().seq, CAPACITY as u64 + 49);
        // Oldest-first and gap-free.
        for (k, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, 50 + k as u64);
        }
        assert_eq!(tail_lines(3).len(), 3);
        assert!(tail_lines(3)[2].contains(&format!("event {}", CAPACITY + 49)));
        clear();
        assert_eq!(recorded(), 0);
    }

    #[test]
    fn jsonl_lines_are_json_objects() {
        let _guard = crate::test_lock();
        clear();
        enable();
        record("test.kind", || "say \"hi\"\nline2".to_string());
        disable();
        let dump = jsonl();
        let line = dump.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\": \"test.kind\""));
        assert!(line.contains("say \\\"hi\\\"\\nline2"));
        clear();
    }
}
