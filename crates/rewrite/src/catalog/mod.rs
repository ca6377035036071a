//! The rewrite catalogue (Fig. 3 of the paper).
//!
//! Rewrites are grouped by the phase of the out-of-order optimization that
//! uses them:
//!
//! * [`normalize`] — combining Muxes and Branches that share a condition
//!   fork, and flattening fork trees (Fig. 3a).
//! * [`elim`] — eliminating residual components introduced by
//!   normalization (Fig. 3b).
//! * [`ooo`] — the main out-of-order loop rewrite (Fig. 3d), the one the
//!   paper formally verifies.
//!
//! Pure generation (§3.2, Fig. 5) is not a catalogue pass: the pipeline
//! collapses the loop body in one oracle step, a `region-to-pure` rewrite
//! built from the body's extracted function
//! ([`region_oracle`](crate::region_oracle)).
//!
//! The phase lists ([`normalize_phase`], [`eliminate_phase`]) fix the order
//! in which both flows try the rewrites of each phase; [`all_rewrites`] is
//! the two lists plus the loop rewrite.
//!
//! Every application carries a refinement obligation: an engine in
//! [`CheckMode::Deferred`](crate::CheckMode) records it and
//! [`crate::verify::discharge`] checks the batch with the bounded refinement
//! checker.

pub mod elim;
pub mod normalize;
pub mod ooo;

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

/// Every catalogue rewrite the two flows apply: phase 1, phase 2, then the
/// loop rewrite. The pipeline's targeted `region-to-pure` and `pure-expand`
/// rewrites are built per loop and are not listed.
pub fn all_rewrites() -> Vec<Rewrite> {
    let mut all = normalize_phase();
    all.extend(eliminate_phase());
    all.push(ooo::loop_ooo(8));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_lists_the_rewrites_both_flows_apply() {
        let names: Vec<&str> = all_rewrites().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "mux-combine",
                "branch-combine",
                "fork-flatten",
                "fork1-elim",
                "split-join-elim",
                "fork-sink-prune",
                "loop-ooo"
            ]
        );
    }
}
