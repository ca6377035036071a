//! Benchmark suite and evaluation harness regenerating the Graphiti paper's
//! tables and figures.
//!
//! * [`suite`] — the six evaluation benchmarks (bicg, gemm, gsum-many,
//!   gsum-single, matvec, mvt) plus the GCD running example, expressed in
//!   the loop-nest front-end language with seeded workloads.
//! * [`eval`] — runs each benchmark through the four flows of Table 2
//!   (DF-IO, DF-OoO, GRAPHITI, Vericert) collecting cycles, clock period,
//!   execution time, area, functional correctness, and rewrite statistics.
//! * [`tables`] — renders Table 2, Table 3, Figure 8, and the §6.3
//!   statistics, with the paper's published values printed alongside.
//! * [`json`] — structured (machine-readable) rendering of the same
//!   results, optionally embedding a `graphiti-obs` metrics snapshot.
//! * [`jsonin`] — the matching minimal JSON reader, used by `perfdiff` to
//!   compare two `--json` report documents.
//! * [`ablations`] — tag-budget, buffer-slack, and clock-period-target
//!   sweeps for the design choices DESIGN.md calls out.
//!
//! Binaries: `table2`, `table3`, `fig8`, `stats`, `ablations`, and
//! `report` regenerate each artefact at the default problem sizes;
//! `perfdiff` requires a serial `table2 --json --small` report to equal
//! the committed `ci/perf_baseline.json` in every value but wall-clock
//! time; `simbench` times the two simulator cores on the reduced suite.

#![warn(missing_docs)]

pub mod ablations;
pub mod eval;
pub mod json;
pub mod jsonin;
pub mod suite;
pub mod tables;

pub use eval::{
    backend_name, evaluate, evaluate_suite, evaluate_with, geomean, BenchResult, EvalError, Flow,
    FlowMetrics, StallSummary,
};

/// A reduced-size suite for quick runs (unit tests, `table2 --small`,
/// `simbench`).
pub fn small_suite() -> Vec<graphiti_frontend::Program> {
    vec![
        suite::bicg(6),
        suite::gemm(3, 3, 5),
        suite::gsum_many(6, 10),
        suite::gsum_single(40),
        suite::matvec(8),
        suite::mvt(6),
    ]
}
