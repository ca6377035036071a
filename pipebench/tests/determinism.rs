//! The benchmark's exact counts must repeat: two passes with one seed give
//! identical modelled metrics, verdicts, simulated cycles and firings,
//! rewrites applied and refinement states visited. A second seed changes
//! the arrays but not the rewriting.
//!
//! The workloads run here at reduced sizes and with a small state bound,
//! so the test is quick in a debug build; the code paths are the
//! benchmark's own.

use graphiti_bench::{small_suite, suite};
use graphiti_frontend::Program;
use graphiti_sem::RefineConfig;
use pipebench::report::verdict_totals;
use pipebench::trace::Tracer;
use pipebench::workloads::{CheckedGcd, SimLarge, Table2};

fn small_shapes() -> Vec<Program> {
    let mut v = small_suite();
    v.push(suite::gcd(4));
    v.push(suite::histogram(3, 5, 4));
    v.push(suite::scatter(3, 4, 6));
    v
}

fn small_bound() -> RefineConfig {
    RefineConfig { max_states: 300, ..RefineConfig::default() }
}

#[test]
fn table2_repeats_its_counts_and_a_new_seed_changes_only_the_arrays() {
    let off = Tracer::new(false);
    let a = Table2::setup(&small_shapes(), 1).expect("set-up");
    let (p1, p2) = (a.pass(&off, 1).expect("pass 1"), a.pass(&off, 2).expect("pass 2"));
    assert_eq!(p1.counts, p2.counts);
    assert_eq!(p1.counts.failed, 0, "{:?}", p1.counts.failures);
    assert!(p1.counts.rewrites > 0 && p1.counts.sim_firings > 0);

    let b = Table2::setup(&small_shapes(), 2).expect("set-up");
    let q = b.pass(&off, 1).expect("pass");
    assert_ne!(
        a.programs().iter().map(|p| &p.arrays).collect::<Vec<_>>(),
        b.programs().iter().map(|p| &p.arrays).collect::<Vec<_>>()
    );
    assert_eq!(q.counts.rewrites, p1.counts.rewrites);
    assert_eq!(q.counts.obligations, p1.counts.obligations);
    assert_eq!(q.counts.graphiti_lut, p1.counts.graphiti_lut, "area does not depend on data");
}

#[test]
fn checked_gcd_repeats_verdicts_and_visited_states() {
    let traced = Tracer::new(true);
    let a = CheckedGcd::setup(8, small_bound(), 1).expect("set-up");
    let (p1, p2) = (a.pass(&traced, 1).expect("pass 1"), a.pass(&traced, 2).expect("pass 2"));
    assert_eq!(p1.counts, p2.counts);
    assert_eq!(p1.counts.failed, 0, "{:?}", p1.counts.failures);
    assert!(p1.counts.visited_states > 0);
    assert_eq!(p1.counts.verdicts.len() as u64, p1.counts.obligations);
    let spans = traced.take();
    assert!(spans.iter().any(|s| s.name == "sem.check" && s.pass == 2));

    let b = CheckedGcd::setup(8, small_bound(), 2).expect("set-up");
    let q = b.pass(&traced, 1).expect("pass");
    assert_ne!(a.text(), b.text(), "a new seed draws new arrays");
    assert_eq!(q.counts.rewrites, p1.counts.rewrites);
    assert_eq!(q.counts.obligations, p1.counts.obligations);
    assert_eq!(verdict_totals(&q.counts), verdict_totals(&p1.counts));
}

#[test]
fn sim_large_passes_repeat_per_seed_and_pass() {
    let off = Tracer::new(false);
    let a = SimLarge::setup(small_shapes(), 1).expect("set-up");
    let b = SimLarge::setup(small_shapes(), 1).expect("set-up");
    let (p, q) = (a.pass(&off, 1).expect("pass"), b.pass(&off, 1).expect("pass"));
    assert_eq!(p.counts, q.counts);
    assert_eq!(p.counts.failed, 0, "{:?}", p.counts.failures);
    assert_eq!(p.counts.rewrites, 0, "rewriting is set-up work here");
}
