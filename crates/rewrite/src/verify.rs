//! Parallel discharge of refinement obligations: the one place an
//! obligation is checked.
//!
//! An [`Engine`](crate::Engine) in [`CheckMode::Deferred`](crate::CheckMode)
//! records each application's obligation — the lowered `lhs`/`rhs` pair —
//! while rewriting. The pairs are plain
//! [`ExprLow`](graphiti_ir::ExprLow) data, so a batch collected on the
//! rewriting thread is denoted and checked on worker threads here. Verdicts
//! come back in obligation order, and denotation and checking are
//! deterministic in the expression pair, so a batch reports the same
//! verdicts at any worker count.
//!
//! Recording does *not* change which graph the engine produces: every
//! rewrite is applied, and a violation, if any, surfaces when the batch is
//! discharged ([`first_violation`]) — the way translation validation checks
//! a finished translation rather than each step inside it. The checked CLI
//! run, fuzz oracle 4 and the `checked-gcd` benchmark all check this way.
//! One copy of the per-obligation work lives outside this module: the
//! benchmark's *traced* pass denotes and checks each obligation itself, so
//! that denotation and checking get timing spans of their own.

use crate::engine::Obligation;
use graphiti_sem::{
    check_refinement_with_stats, denote, BoundKind, Env, RefineConfig, RefineStats, Refinement,
};
use std::collections::BTreeMap;
use std::fmt;

/// The verdict for one discharged obligation.
#[derive(Debug, Clone)]
pub struct Discharged {
    /// Name of the rewrite that incurred the obligation.
    pub rewrite: String,
    /// The bounded checker's verdict for `⟦rhs⟧ ⊑ ⟦lhs⟧`.
    pub verdict: Refinement,
    /// How much the check explored to reach the verdict.
    pub stats: RefineStats,
}

/// Discharges a batch of obligations, fanning the independent checks out
/// across worker threads (sized by `std::thread::available_parallelism`,
/// overridable with `GRAPHITI_JOBS`). Verdicts are returned in obligation
/// order regardless of which worker ran each check.
pub fn discharge(obligations: Vec<Obligation>, cfg: &RefineConfig) -> Vec<Discharged> {
    discharge_cancellable(obligations, &graphiti_obs::CancelToken::new(), cfg)
        .expect("a fresh token never trips")
}

/// [`discharge`] under a cooperative cancellation token (threaded through
/// [`graphiti_pool::parallel_map_cancellable`]): returns `None` when the
/// token tripped before every obligation was checked.
pub fn discharge_cancellable(
    obligations: Vec<Obligation>,
    token: &graphiti_obs::CancelToken,
    cfg: &RefineConfig,
) -> Option<Vec<Discharged>> {
    graphiti_pool::parallel_map_cancellable(obligations, token, |ob| check_one(ob, cfg))
}

/// One obligation's check: denote both sides, run the bounded checker.
fn check_one(ob: Obligation, cfg: &RefineConfig) -> Discharged {
    let _span = graphiti_obs::span("refine_check");
    let env = Env::standard();
    let lhs = denote(&ob.lhs, &env);
    let rhs = denote(&ob.rhs, &env);
    let (verdict, stats) = check_refinement_with_stats(&rhs, &lhs, cfg);
    Discharged { rewrite: ob.rewrite, verdict, stats }
}

/// The first violation in a batch of verdicts, if any.
pub fn first_violation(verdicts: &[Discharged]) -> Option<&Discharged> {
    verdicts.iter().find(|d| !d.verdict.is_ok())
}

/// Verdict counts of a discharged batch by class, so a summary never
/// reports a bounded check as a proof. Displays as, e.g.,
/// `3 hold, 4 bounded (states 2, queue_cap 2), 0 fail`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Exhaustive checks: no violation and no bound hit.
    pub holds: usize,
    /// No violation up to a bound, per bound kind.
    pub bounded: BTreeMap<BoundKind, usize>,
    /// Counterexamples found.
    pub fails: usize,
    /// Obligations whose sides expose different ports.
    pub incomparable: usize,
}

impl Tally {
    /// Counts the verdicts of a batch.
    pub fn of(verdicts: &[Discharged]) -> Tally {
        let mut t = Tally::default();
        for d in verdicts {
            match &d.verdict {
                Refinement::Holds => t.holds += 1,
                Refinement::BoundReached(hit) => *t.bounded.entry(hit.kind).or_insert(0) += 1,
                Refinement::Fails { .. } => t.fails += 1,
                Refinement::Incomparable(_) => t.incomparable += 1,
            }
        }
        t
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hold, {} bounded", self.holds, self.bounded.values().sum::<usize>())?;
        if !self.bounded.is_empty() {
            let kinds: Vec<String> =
                self.bounded.iter().map(|(kind, n)| format!("{kind} {n}")).collect();
            write!(f, " ({})", kinds.join(", "))?;
        }
        write!(f, ", {} fail", self.fails)?;
        if self.incomparable > 0 {
            write!(f, ", {} incomparable", self.incomparable)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, CheckMode, Engine};
    use graphiti_ir::{ep, CompKind, ExprHigh};

    /// A fork tree `f1 -> f2` that fork-flatten collapses; the engine in
    /// deferred mode must record the obligation and `discharge` must find
    /// it holds.
    fn fork_tree() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("f1", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("f2", CompKind::Fork { ways: 2 }).unwrap();
        g.expose_input("x", ep("f1", "in")).unwrap();
        g.connect(ep("f1", "out0"), ep("f2", "in")).unwrap();
        g.expose_output("a", ep("f1", "out1")).unwrap();
        g.expose_output("b", ep("f2", "out0")).unwrap();
        g.expose_output("c", ep("f2", "out1")).unwrap();
        g
    }

    #[test]
    fn deferred_mode_collects_and_discharges() {
        let g = fork_tree();
        let rw = catalog::normalize::fork_flatten();

        let mut unchecked = Engine::new();
        let mut g_unchecked = g.clone();
        assert!(unchecked.apply_first(&mut g_unchecked, &rw).unwrap(), "match");

        let mut deferred = Engine::deferring();
        assert_eq!(deferred.mode, CheckMode::Deferred);
        let mut g_deferred = g.clone();
        assert!(deferred.apply_first(&mut g_deferred, &rw).unwrap(), "match");

        // Same graph out, obligation captured alongside.
        assert_eq!(g_unchecked, g_deferred);
        assert!(unchecked.obligations.is_empty());
        assert_eq!(deferred.obligations.len(), 1);

        let verdicts =
            discharge(std::mem::take(&mut deferred.obligations), &RefineConfig::default());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].rewrite, rw.name);
        assert!(first_violation(&verdicts).is_none());
    }

    #[test]
    fn discharge_preserves_obligation_order() {
        let g = fork_tree();
        let rw = catalog::normalize::fork_flatten();
        let mut eng = Engine::deferring();
        // Two applications: flatten once, then the result still has the
        // obligation list in application order even if workers finish
        // out of order.
        let mut g2 = g.clone();
        assert!(eng.apply_first(&mut g2, &rw).unwrap(), "match");
        let _ = eng.apply_first(&mut g2, &rw).unwrap();
        let names: Vec<String> = eng.obligations.iter().map(|o| o.rewrite.clone()).collect();
        let verdicts = discharge(std::mem::take(&mut eng.obligations), &RefineConfig::default());
        let got: Vec<String> = verdicts.iter().map(|d| d.rewrite.clone()).collect();
        assert_eq!(names, got);
        assert!(verdicts.iter().all(|d| d.verdict.is_ok()));
    }

    #[test]
    fn tally_separates_bounded_from_holds() {
        use graphiti_sem::BoundHit;
        let d =
            |verdict| Discharged { rewrite: "r".into(), verdict, stats: RefineStats::default() };
        let bound = |kind, at| Refinement::BoundReached(BoundHit { kind, at });
        let batch = [
            d(Refinement::Holds),
            d(bound(BoundKind::QueueCap, 3)),
            d(bound(BoundKind::States, 2001)),
            d(bound(BoundKind::QueueCap, 3)),
        ];
        let t = Tally::of(&batch);
        assert_eq!(t.holds, 1);
        assert_eq!(t.to_string(), "1 hold, 3 bounded (states 1, queue_cap 2), 0 fail");
        let mixed =
            [d(Refinement::Fails { trace: vec![] }), d(Refinement::Incomparable("x".into()))];
        assert_eq!(Tally::of(&mixed).to_string(), "0 hold, 0 bounded, 1 fail, 1 incomparable");
    }
}
