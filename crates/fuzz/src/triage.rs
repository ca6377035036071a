//! Crash capture and deduplicating triage.
//!
//! The harness runs every case under [`catching`], which converts a panic
//! anywhere in the workspace into a [`Crash`] carrying the panic message
//! and source location. Crashes (and oracle failures) are grouped by
//! [`fingerprint`](Crash::fingerprint) so a fuzz run reports *distinct*
//! bugs, not one bug a thousand times.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// The last panic observed by the installed hook (message, location).
static LAST_PANIC: Mutex<Option<(String, String)>> = Mutex::new(None);

/// One caught panic.
#[derive(Debug, Clone)]
pub struct Crash {
    /// The panic payload, if it was a string.
    pub message: String,
    /// `file:line` of the panic site.
    pub location: String,
}

impl Crash {
    /// Deduplication identity: the panic site plus a truncated message
    /// prefix (so `index out of bounds: the len is 3 ...` and
    /// `... the len is 7 ...` fold into one bucket via the site).
    pub fn fingerprint(&self) -> String {
        let prefix: String = self.message.chars().take(24).collect();
        format!("panic@{}:{prefix}", self.location)
    }
}

/// Installs a panic hook that records the message and location instead of
/// printing a backtrace. Idempotent per process; call once at startup.
pub fn install_hook() {
    panic::set_hook(Box::new(|info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "<unknown>".to_string());
        *LAST_PANIC.lock().unwrap() = Some((message, location));
    }));
}

/// Runs `f`, converting a panic into `Err(Crash)`. [`install_hook`] must
/// have been called for the message/location to be captured.
pub fn catching<R>(f: impl FnOnce() -> R) -> Result<R, Crash> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(_) => {
            let (message, location) =
                LAST_PANIC.lock().unwrap().take().unwrap_or_else(|| {
                    ("<panic before hook>".to_string(), "<unknown>".to_string())
                });
            Err(Crash { message, location })
        }
    }
}

/// One triage bucket: a distinct failure identity with every seed that
/// reproduced it.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Representative human-readable description.
    pub detail: String,
    /// Seeds (or case labels) that landed in this bucket.
    pub seeds: Vec<u64>,
}

/// Deduplicating failure collector.
#[derive(Debug, Default)]
pub struct Triage {
    buckets: BTreeMap<String, Bucket>,
}

impl Triage {
    /// Fresh, empty triage table.
    pub fn new() -> Triage {
        Triage::default()
    }

    /// Records one failure; returns `true` if its fingerprint is new.
    pub fn record(&mut self, fingerprint: String, detail: String, seed: u64) -> bool {
        let fresh = !self.buckets.contains_key(&fingerprint);
        let b =
            self.buckets.entry(fingerprint).or_insert_with(|| Bucket { detail, seeds: Vec::new() });
        b.seeds.push(seed);
        fresh
    }

    /// Distinct failure count.
    pub fn distinct(&self) -> usize {
        self.buckets.len()
    }

    /// Total failure count across buckets.
    pub fn total(&self) -> usize {
        self.buckets.values().map(|b| b.seeds.len()).sum()
    }

    /// Iterates `(fingerprint, bucket)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Bucket)> {
        self.buckets.iter()
    }

    /// Renders the triage table.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (fp, b) in &self.buckets {
            let shown: Vec<String> = b.seeds.iter().take(5).map(u64::to_string).collect();
            let more = if b.seeds.len() > 5 {
                format!(" (+{} more)", b.seeds.len() - 5)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{fp}");
            let _ = writeln!(out, "  {}", b.detail);
            let _ = writeln!(out, "  seeds: {}{more}", shown.join(", "));
        }
        out
    }
}
