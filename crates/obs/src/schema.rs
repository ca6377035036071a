//! The metrics schema registry: every metric name the workspace emits is
//! declared here *once*, with its kind, unit, help text, and stability
//! tier. The declarations are the naming contract consumers (dashboards
//! and the `perfdiff` gate) can rely on:
//!
//! * **stable** metrics keep their name and meaning across releases —
//!   renaming or re-semanticising one is a breaking change that must touch
//!   the checked-in golden file `obs/schema.json` (CI diffs it);
//! * **unstable** metrics are implementation detail (per-node breakdowns,
//!   scheduler internals) and may be renamed between PRs, but still must
//!   be declared so typos never mint an accidental metric family.
//!
//! The tiers govern names, not values. `perfdiff` compares every value of
//! a serial `table2 --json --small` report in both tiers against the
//! committed baseline, skipping only metrics whose unit here is `us`, so
//! moving any other value needs a baseline update in the same PR.
//!
//! Enforcement: [`crate::counter`] / [`crate::gauge`] / [`crate::histogram`]
//! validate a name against the schema the *first* time it is minted, in
//! every build. An undeclared name, or a declared name requested with the
//! wrong kind, is an error — a panic at the offending call site.
//!
//! Dynamic name families (`sim.fire.<node>`, `span.<name>.us`, …) are
//! declared with a single `*` wildcard that matches any non-empty
//! substring; exact declarations take precedence over wildcards. Names
//! under the `test.` prefix are exempt — that namespace is reserved for
//! unit-test scratch metrics and never exported as part of the contract.

use std::fmt;

/// What a declared metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count ([`crate::Counter`]).
    Counter,
    /// Point-in-time signed value ([`crate::Gauge`]).
    Gauge,
    /// Power-of-two bucketed distribution ([`crate::Histogram`]).
    Histogram,
}

impl MetricKind {
    /// The lowercase name used in `obs/schema.json` and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How frozen a metric name is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Part of the exported contract; renaming is a breaking change.
    Stable,
    /// Implementation detail; may change between PRs (but is still
    /// declared, so undeclared names remain errors).
    Unstable,
}

impl Stability {
    /// The lowercase tier name used in `obs/schema.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Unstable => "unstable",
        }
    }
}

/// One declared metric (or, with a `*` in `name`, a metric family).
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// The metric name, or a pattern with one `*` wildcard matching any
    /// non-empty substring (`sim.fire.*`, `span.*.us`).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The unit of the recorded value (`cycles`, `events`, `us`, …).
    pub unit: &'static str,
    /// One-line human description, the `help` field of `obs/schema.json`.
    pub help: &'static str,
    /// Contract tier.
    pub stability: Stability,
}

use MetricKind::{Counter, Gauge, Histogram};
use Stability::{Stable, Unstable};

/// Every metric the workspace may emit. Sorted by name; keep it that way —
/// the golden file `obs/schema.json` is rendered in this order.
pub const SCHEMA: &[MetricSpec] = &[
    MetricSpec {
        name: "pool.jobs.worker_*",
        kind: Counter,
        unit: "jobs",
        help: "Jobs executed by one worker of the scoped thread pool (scheduling-skew probe).",
        stability: Unstable,
    },
    MetricSpec {
        name: "pool.workers",
        kind: Gauge,
        unit: "threads",
        help: "Worker threads used by the most recent parallel_map fan-out.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.bound_hits.*",
        kind: Counter,
        unit: "events",
        help: "Bounded refinement checks that hit the named exploration bound.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.checks",
        kind: Counter,
        unit: "events",
        help: "Bounded refinement checks performed.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.frontier_peak",
        kind: Histogram,
        unit: "states",
        help: "Peak frontier size per refinement check.",
        stability: Unstable,
    },
    MetricSpec {
        name: "refine.verdict.bounded",
        kind: Counter,
        unit: "events",
        help: "Refinement checks that found no violation but hit an exploration bound (not a proof).",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.verdict.fails",
        kind: Counter,
        unit: "events",
        help: "Refinement checks that found a counterexample trace.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.verdict.holds",
        kind: Counter,
        unit: "events",
        help: "Refinement checks that explored their whole bounded space without hitting a bound.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.verdict.incomparable",
        kind: Counter,
        unit: "events",
        help: "Refinement checks whose two modules expose different ports.",
        stability: Stable,
    },
    MetricSpec {
        name: "refine.visited_states",
        kind: Counter,
        unit: "states",
        help: "Product-automaton states visited across all refinement checks.",
        stability: Unstable,
    },
    MetricSpec {
        name: "refine.visited_states_per_check",
        kind: Histogram,
        unit: "states",
        help: "Product-automaton states visited per refinement check.",
        stability: Unstable,
    },
    MetricSpec {
        name: "rewrite.*",
        kind: Counter,
        unit: "events",
        help: "Rewrite-engine outcomes per rewrite: rewrite.{attempted|matched|applied|refused}.<name>.",
        stability: Stable,
    },
    MetricSpec {
        name: "robust.*",
        kind: Counter,
        unit: "events",
        help: "Supervised pipeline-stage outcomes: robust.stage.<stage>.{ok|failed|cancelled|deadline}.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.buf_occupancy.*",
        kind: Histogram,
        unit: "tokens",
        help: "Queue occupancy per cycle for one buffering component.",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.compile.*",
        kind: Counter,
        unit: "events",
        help: "Compiled-backend lowering facts: sim.compile.{lowerings|nodes|chans}.",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.cycles",
        kind: Counter,
        unit: "cycles",
        help: "Simulated cycles across all runs.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.fire.*",
        kind: Counter,
        unit: "events",
        help: "Firings of one circuit node.",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.firings",
        kind: Counter,
        unit: "events",
        help: "Component firings across all simulated runs.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.lsq.*",
        kind: Counter,
        unit: "events",
        help: "Store-queue activity: sim.lsq.{allocs|commits|issues} — rounds allocated from the sequence stream, stores committed in program order, loads issued after disambiguation.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.sched.examined",
        kind: Counter,
        unit: "events",
        help: "Node examinations by the scheduler (efficiency probe).",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.sched.examined_per_cycle",
        kind: Histogram,
        unit: "events",
        help: "Node examinations per active cycle.",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.stall_cause.*",
        kind: Counter,
        unit: "cycles",
        help: "Lost node-cycles attributed to one of the eight stall root causes.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.stall_cycles",
        kind: Counter,
        unit: "cycles",
        help: "Node-cycles lost to back-pressure (operands ready, no fire).",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.stall_cycles.*",
        kind: Counter,
        unit: "cycles",
        help: "Back-pressure cycles lost by one circuit node.",
        stability: Unstable,
    },
    MetricSpec {
        name: "sim.starved_cycles",
        kind: Counter,
        unit: "cycles",
        help: "Node-cycles lost waiting on missing operands.",
        stability: Stable,
    },
    MetricSpec {
        name: "sim.token_latency_cycles",
        kind: Histogram,
        unit: "cycles",
        help: "Source-to-sink token latency distribution.",
        stability: Stable,
    },
    MetricSpec {
        name: "span.*.us",
        kind: Histogram,
        unit: "us",
        help: "Wall-clock duration of one named timed span.",
        stability: Stable,
    },
];

/// Why a metric name was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No schema entry matches the name.
    Undeclared {
        /// The offending name.
        name: String,
    },
    /// A spec matches but declares a different kind.
    KindMismatch {
        /// The offending name.
        name: String,
        /// The kind the call site asked for.
        requested: MetricKind,
        /// The kind the schema declares.
        declared: MetricKind,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Undeclared { name } => write!(
                f,
                "metric `{name}` is not declared in obs::schema::SCHEMA; declare it (and \
                 regenerate obs/schema.json) or use the exempt `test.` prefix"
            ),
            SchemaError::KindMismatch { name, requested, declared } => {
                write!(f, "metric `{name}` requested as a {requested} but declared as a {declared}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Whether `name` matches `pattern` (exact, or one `*` wildcard standing
/// for any non-empty substring).
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((prefix, suffix)) => {
            name.len() > prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        }
    }
}

/// The schema entry governing `name`: an exact declaration if one exists,
/// otherwise the wildcard family with the longest literal prefix.
pub fn lookup(name: &str) -> Option<&'static MetricSpec> {
    let mut best: Option<&MetricSpec> = None;
    for spec in SCHEMA {
        if !matches(spec.name, name) {
            continue;
        }
        if !spec.name.contains('*') {
            return Some(spec);
        }
        if best.is_none_or(|b| spec.name.len() > b.name.len()) {
            best = Some(spec);
        }
    }
    best
}

/// Whether `name` sits in the enforcement-exempt test namespace.
pub fn is_exempt(name: &str) -> bool {
    name.starts_with("test.")
}

/// Validates that `name` may be minted as a metric of `kind`.
///
/// # Errors
///
/// [`SchemaError::Undeclared`] when no entry matches,
/// [`SchemaError::KindMismatch`] when the matching entry declares a
/// different kind. Exempt (`test.`) names always pass.
pub fn validate(name: &str, kind: MetricKind) -> Result<(), SchemaError> {
    if is_exempt(name) {
        return Ok(());
    }
    match lookup(name) {
        None => Err(SchemaError::Undeclared { name: name.to_string() }),
        Some(spec) if spec.kind != kind => Err(SchemaError::KindMismatch {
            name: name.to_string(),
            requested: kind,
            declared: spec.kind,
        }),
        Some(_) => Ok(()),
    }
}

/// The schema rendered as the canonical `obs/schema.json` document. Byte
/// equality against the checked-in golden file is the drift gate: adding,
/// renaming, or re-tiering a metric must regenerate the file (e.g. with
/// `graphiti-cli schema > obs/schema.json`).
pub fn schema_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"version\": 1,\n  \"metrics\": [\n");
    for (i, spec) in SCHEMA.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \"stability\": \"{}\", \
             \"help\": \"{}\"}}",
            crate::export::json_escape(spec.name),
            spec.kind.as_str(),
            crate::export::json_escape(spec.unit),
            spec.stability.as_str(),
            crate::export::json_escape(spec.help),
        );
        out.push_str(if i + 1 < SCHEMA.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_sorted_and_wildcards_are_single() {
        for pair in SCHEMA.windows(2) {
            assert!(pair[0].name < pair[1].name, "SCHEMA not sorted at `{}`", pair[1].name);
        }
        for spec in SCHEMA {
            assert!(spec.name.matches('*').count() <= 1, "`{}` has multiple wildcards", spec.name);
            assert!(!spec.help.is_empty() && !spec.unit.is_empty(), "`{}` undocumented", spec.name);
        }
    }

    #[test]
    fn exact_beats_wildcard_and_families_match() {
        // `sim.stall_cycles` is both an exact entry and covered by the
        // `sim.stall_cycles.*`-adjacent family; exact must win.
        assert_eq!(lookup("sim.stall_cycles").unwrap().name, "sim.stall_cycles");
        assert_eq!(lookup("sim.stall_cycles.mux3").unwrap().name, "sim.stall_cycles.*");
        assert_eq!(lookup("span.optimize.us").unwrap().name, "span.*.us");
        assert_eq!(lookup("rewrite.applied.fork-flatten").unwrap().name, "rewrite.*");
        assert_eq!(lookup("pool.jobs.worker_3").unwrap().name, "pool.jobs.worker_*");
        assert!(lookup("sim.nonsense").is_none());
        // The wildcard must consume at least one character.
        assert!(lookup("span..us").is_none());
    }

    #[test]
    fn validation_rejects_undeclared_and_wrong_kind() {
        assert!(validate("sim.firings", MetricKind::Counter).is_ok());
        assert!(matches!(
            validate("sim.firings", MetricKind::Gauge),
            Err(SchemaError::KindMismatch { .. })
        ));
        assert!(matches!(
            validate("totally.unknown", MetricKind::Counter),
            Err(SchemaError::Undeclared { .. })
        ));
        assert!(validate("test.anything.goes", MetricKind::Histogram).is_ok());
    }

    #[test]
    fn schema_json_is_valid_shape() {
        let doc = schema_json();
        assert!(doc.starts_with("{\n  \"version\": 1"));
        assert_eq!(doc.matches("\"name\"").count(), SCHEMA.len());
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
