//! The rewrite catalogue (Fig. 3 of the paper).
//!
//! Rewrites are grouped by the phase of the out-of-order optimization that
//! uses them:
//!
//! * [`normalize`] — combining Muxes and Branches that share a condition
//!   fork, and flattening fork trees (Fig. 3a).
//! * [`elim`] — eliminating residual components introduced by
//!   normalization (Fig. 3b).
//! * [`pure_gen`] — the pure-generation rewrites of §3.2 / Fig. 5, which
//!   incrementally turn an effect-free loop body into a single Pure
//!   component.
//! * [`ooo`] — the main out-of-order loop rewrite (Fig. 3d), the one the
//!   paper formally verifies.
//!
//! The phase lists ([`normalize_phase`], [`eliminate_phase`],
//! [`to_pure_phase`], [`absorb_phase`]) fix the order in which the pipeline
//! tries the rewrites of each phase; [`all_rewrites`] is their union plus
//! the loop rewrite.
//!
//! Each rewrite records whether it carries a refinement obligation
//! (`verified`); an engine in [`CheckMode::Deferred`](crate::CheckMode)
//! records those obligations and [`crate::verify::discharge`] checks them
//! with the bounded refinement checker.

pub mod elim;
pub mod normalize;
pub mod ooo;
pub mod pure_gen;

use crate::engine::{Replacement, Rewrite, RewriteError};
use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh};
use std::collections::BTreeMap;

/// A builder for replacement fragments: a small [`ExprHigh`] under
/// construction together with its boundary assignment.
pub(crate) struct Frag {
    g: ExprHigh,
    ins: BTreeMap<String, Endpoint>,
    outs: BTreeMap<String, Endpoint>,
}

impl Frag {
    pub(crate) fn new() -> Frag {
        Frag { g: ExprHigh::new(), ins: BTreeMap::new(), outs: BTreeMap::new() }
    }

    /// Adds a node; fragment names are rewrite-controlled, so collisions are
    /// bugs.
    pub(crate) fn node(&mut self, name: &str, kind: CompKind) -> &mut Self {
        self.g.add_node(name, kind).expect("fragment node name unique");
        self
    }

    /// Adds an internal edge.
    pub(crate) fn edge(&mut self, from: (&str, &str), to: (&str, &str)) -> &mut Self {
        self.g.connect(ep(from.0, from.1), ep(to.0, to.1)).expect("fragment edge endpoints valid");
        self
    }

    /// Declares a boundary input: external name `ext` drives fragment port
    /// `to` and inherits the driver of old port `old`.
    pub(crate) fn input(&mut self, ext: &str, to: (&str, &str), old: Endpoint) -> &mut Self {
        self.g.expose_input(ext, ep(to.0, to.1)).expect("fragment input valid");
        self.ins.insert(ext.to_string(), old);
        self
    }

    /// Declares a boundary output: fragment port `from` is exposed as `ext`
    /// and inherits the consumer of old port `old`.
    pub(crate) fn output(&mut self, ext: &str, from: (&str, &str), old: Endpoint) -> &mut Self {
        self.g.expose_output(ext, ep(from.0, from.1)).expect("fragment output valid");
        self.outs.insert(ext.to_string(), old);
        self
    }

    /// Finishes the fragment.
    pub(crate) fn build(self) -> Result<Replacement, RewriteError> {
        self.g.validate().map_err(RewriteError::Graph)?;
        Ok(Replacement::Subgraph {
            graph: self.g,
            boundary_ins: self.ins,
            boundary_outs: self.outs,
        })
    }
}

/// Phase 1 of both flows: combine the Muxes and the Branches that share a
/// condition fork, and flatten fork trees (Fig. 3a).
pub fn normalize_phase() -> Vec<Rewrite> {
    vec![normalize::mux_combine(), normalize::branch_combine(), normalize::fork_flatten()]
}

/// Phase 2 of both flows: remove the degenerate forks and the Split/Join
/// pairs that combining introduced (Fig. 3b).
pub fn eliminate_phase() -> Vec<Rewrite> {
    vec![elim::fork1_elim(), elim::split_join_elim(), elim::fork_sink_prune()]
}

/// Phase 3, first pass: turn each operator, load and constant of the loop
/// body into a Pure (§3.2).
pub fn to_pure_phase() -> Vec<Rewrite> {
    vec![pure_gen::op_to_pure(), pure_gen::load_to_pure(), pure_gen::constant_to_pure()]
}

/// Phase 3, second pass: absorb forks, Pures, Splits, Joins and Sinks of
/// the loop body into one `Pure; Split` (Fig. 5).
pub fn absorb_phase() -> Vec<Rewrite> {
    vec![
        pure_gen::fork_to_pure(),
        pure_gen::pure_fuse(),
        pure_gen::pure_over_join_left(),
        pure_gen::pure_over_join_right(),
        pure_gen::pure_over_split_left(),
        pure_gen::pure_over_split_right(),
        pure_gen::split_fst(),
        pure_gen::split_snd(),
        elim::split_join_elim(),
        elim::split_join_swap(),
        elim::join_split_elim(),
        elim::sink_absorb_pure(),
    ]
}

/// Every catalogue rewrite the two flows apply: each rewrite of the four
/// phase lists once, in order of first appearance, then the loop rewrite.
/// The pipeline's targeted `region-to-pure` and `pure-expand` rewrites are
/// built per loop and are not listed.
pub fn all_rewrites() -> Vec<Rewrite> {
    let phases = [normalize_phase(), eliminate_phase(), to_pure_phase(), absorb_phase()];
    let mut all: Vec<Rewrite> = Vec::new();
    for rw in phases.into_iter().flatten().chain([ooo::loop_ooo(8)]) {
        if all.iter().all(|r| r.name != rw.name) {
            all.push(rw);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_the_papers_scale() {
        // The paper reports ~20 rewrites for the transformation: one core
        // (verified) out-of-order rewrite plus minor normalization rewrites.
        let all = all_rewrites();
        assert!(all.len() >= 20, "catalogue has {} rewrites", all.len());
        assert!(all.iter().any(|r| r.name == "loop-ooo"));
        let names: std::collections::BTreeSet<_> = all.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), all.len(), "rewrite names are unique");
    }
}
