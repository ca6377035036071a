//! A verified-style rewriting engine for dataflow circuits.
//!
//! This crate implements the rewriting half of the Graphiti framework
//! (ASPLOS 2026):
//!
//! * [`Engine`] finds matches on [`ExprHigh`](graphiti_ir::ExprHigh) and
//!   splices each replacement into the graph there. The paper's mechanism,
//!   lowering the graph so the matched nodes form a contiguous
//!   [`ExprLow`](graphiti_ir::ExprLow) sub-expression, substituting
//!   `e[lhs := rhs]` (§4.2) and lifting back, is the spec: debug builds
//!   check every application against it. In [`CheckMode::Deferred`] each
//!   application records the premise of Theorem 4.6 as an [`Obligation`].
//! * [`catalog`] contains the rewrite catalogue of Fig. 3, including the
//!   formally-verified out-of-order loop rewrite
//!   ([`catalog::ooo::loop_ooo`]).
//! * [`extract_region_function`] and [`simplify`]/[`EGraph`] are the
//!   untrusted oracles of pure generation (§3.2), standing in for the
//!   paper's egg-based oracle; [`region_oracle`] is the pipeline's one call
//!   of both, and its result is applied as one checked rewrite.
//! * [`verify`] is where obligations are checked: [`verify::discharge`]
//!   denotes each recorded `lhs`/`rhs` pair and fans the independent
//!   bounded checks out across worker threads once rewriting is done.
//!
//! # Example
//!
//! ```
//! use graphiti_rewrite::{catalog, Engine};
//! use graphiti_ir::{ep, CompKind, ExprHigh};
//!
//! // A 1-way fork is a wire; fork1-elim removes it.
//! let mut g = ExprHigh::new();
//! g.add_node("f", CompKind::Fork { ways: 1 })?;
//! g.add_node("s", CompKind::Sink)?;
//! g.expose_input("x", ep("f", "in"))?;
//! g.connect(ep("f", "out0"), ep("s", "in"))?;
//!
//! // The engine rewrites the graph in place.
//! let mut engine = Engine::new();
//! assert!(engine.apply_first(&mut g, &catalog::elim::fork1_elim())?, "match");
//! assert_eq!(g.node_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod catalog;
mod egraph;
mod engine;
mod extract;
pub mod verify;

pub use egraph::{simplify, ClassId, EGraph, ENode};
pub use engine::{
    wire_consumer, wire_driver, Applied, CheckMode, Engine, Match, Obligation, Replacement,
    Rewrite, RewriteError,
};
pub use extract::{extract_region_function, region_oracle, ExtractError, RegionFunction};
