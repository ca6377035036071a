//! # graphiti
//!
//! A Rust reproduction of **Graphiti: Formally Verified Out-of-Order
//! Execution in Dataflow Circuits** (ASPLOS 2026): a rewriting framework
//! for the dataflow circuits produced by dynamic high-level synthesis,
//! together with the full substrate needed to evaluate it — a mini HLS
//! front-end, a cycle-accurate elastic-circuit simulator with buffer
//! placement, timing and area models, and a statically scheduled baseline.
//!
//! The paper's development is a Lean 4 proof; this reproduction replaces
//! deductive proofs with *executable* checking — a bounded trace-inclusion
//! refinement checker, run on the obligation of every rewrite
//! application, and randomized property tests — while implementing all of
//! the paper's algorithms
//! (ExprHigh/ExprLow, the denotational module semantics with the ⊎ and
//! `[o ⇝ i]` combinators, the substitution-based rewriting function, the
//! rewrite catalogue including the verified out-of-order loop rewrite, and
//! the five-phase optimization pipeline).
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ir`] | `graphiti-ir` | ExprHigh / ExprLow, values, DOT interchange |
//! | [`obs`] | `graphiti-obs` | metrics registry, timed spans, trace exporters |
//! | [`sem`] | `graphiti-sem` | module semantics, denotation, refinement checking |
//! | [`rewrite`] | `graphiti-rewrite` | rewriting engine, catalogue, e-graph oracle |
//! | [`frontend`] | `graphiti-frontend` | loop-nest language → elastic circuits |
//! | [`sim`] | `graphiti-sim` | cycle simulation, buffer placement, timing, area |
//! | [`staticsched`] | `graphiti-static` | the Vericert-style static baseline |
//! | [`pipeline`] | `graphiti-core` | the five-phase out-of-order pipeline |
//! | [`bench`](mod@bench) | `graphiti-bench` | benchmarks, evaluation harness, table printers |
//!
//! ## Quickstart
//!
//! ```
//! use graphiti::prelude::*;
//!
//! // The paper's §2 example: GCD over array pairs, made out-of-order.
//! let program = graphiti::bench::suite::gcd(6);
//! let compiled = compile(&program)?;
//! let kernel = &compiled.kernels[0];
//!
//! let opts = PipelineOptions { tags: 8, ..Default::default() };
//! let (optimized, report) = optimize_loop(&kernel.graph, &kernel.inner_init, &opts)?;
//! assert!(report.transformed);
//!
//! // Simulate both circuits; same results, fewer cycles.
//! let (seq, _) = place_buffers(&kernel.graph);
//! let (ooo, _) = place_buffers(&optimized);
//! let feeds = [("start".to_string(), vec![Value::Unit])].into_iter().collect();
//! let a = simulate(&seq, &feeds, program.arrays.clone(), SimConfig::default())?;
//! let b = simulate(&ooo, &feeds, program.arrays.clone(), SimConfig::default())?;
//! assert_eq!(a.memory["result"], b.memory["result"]);
//! assert!(b.cycles < a.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use graphiti_bench as bench;
pub use graphiti_core as pipeline;
pub use graphiti_frontend as frontend;
pub use graphiti_ir as ir;
pub use graphiti_obs as obs;
pub use graphiti_rewrite as rewrite;
pub use graphiti_sem as sem;
pub use graphiti_sim as sim;
pub use graphiti_static as staticsched;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use graphiti_core::{dfooo_loop, optimize_loop, PipelineOptions, Refusal};
    pub use graphiti_frontend::{
        compile, compile_kernel, run_program, Expr, InnerLoop, OuterLoop, Program, StoreStmt,
    };
    pub use graphiti_ir::{
        ep, parse_dot, print_dot, CompKind, Endpoint, ExprHigh, ExprLow, Op, PureFn, Value,
    };
    pub use graphiti_rewrite::{catalog, CheckMode, Engine, Rewrite};
    pub use graphiti_sem::{check_refinement, denote_graph, Env, RefineConfig, Refinement};
    pub use graphiti_sim::{place_buffers, place_buffers_targeted, simulate, SimConfig, SimResult};
}
