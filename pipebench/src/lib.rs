//! Whole-pipeline benchmark of the graphiti workspace.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload table2|sim-large|checked-gcd --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop on one process: set up, then run timed
//! passes back to back until `--seconds` have passed. Every pass checks its
//! outputs against the reference interpreter (and, on `checked-gcd`, every
//! refinement verdict). The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced passes, so it
//! also reports the tracing overhead, and writes its spans to
//! `target/pipebench/trace-<workload>-seed<N>.jsonl`.
//!
//! * [`inputs`] — kernel shapes and seeded arrays;
//! * [`workloads`] — set-up and one timed pass of each workload;
//! * [`trace`] — the in-memory span recorder and self times;
//! * [`report`] — metrics and the result line.

#![warn(missing_docs)]

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;
