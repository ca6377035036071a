//! Every rewrite the pipeline applies is counted as attempted and matched
//! before it is counted as applied, in every phase: on each marked kernel
//! of the evaluation suite and of GCD, each catalogue rewrite and each of
//! the pipeline's targeted rewrites reads `attempted ≥ matched ≥ applied`
//! with nothing refused, and the applied counters sum to the rewrites the
//! reports count.
//!
//! `graphiti-obs` state is process-global, so this lives in its own test
//! binary with a single `#[test]`.

use graphiti::bench::suite::{evaluation_suite, gcd};
use graphiti::prelude::*;

fn rewrite_counter(kind: &str, name: &str) -> u64 {
    graphiti::obs::counter(&format!("rewrite.{kind}.{name}")).get()
}

#[test]
fn every_applied_rewrite_was_attempted_and_matched() {
    graphiti::obs::reset();
    graphiti::obs::enable();

    let mut programs = evaluation_suite();
    programs.push(gcd(8));
    let mut reported = 0;
    for p in &programs {
        for k in compile(p).unwrap().kernels {
            let Some(tags) = k.ooo_tags else { continue };
            let opts = PipelineOptions { tags, ..Default::default() };
            let (_, report) = optimize_loop(&k.graph, &k.inner_init, &opts).unwrap();
            reported += report.rewrites as u64;
        }
    }

    let mut names: Vec<&str> = catalog::all_rewrites().iter().map(|rw| rw.name).collect();
    names.extend(["region-to-pure", "pure-expand"]);
    assert_eq!(names.len(), 9);
    let mut applied_total = 0;
    for name in names {
        let [attempted, matched, applied, refused] =
            ["attempted", "matched", "applied", "refused"].map(|kind| rewrite_counter(kind, name));
        assert_eq!(refused, 0, "{name}: refused {refused}");
        assert!(matched >= applied, "{name}: matched {matched} < applied {applied}");
        assert!(attempted >= matched, "{name}: attempted {attempted} < matched {matched}");
        applied_total += applied;
    }
    assert!(applied_total > 0, "no rewrite was applied");
    assert_eq!(applied_total, reported, "applied counters disagree with the reports");

    graphiti::obs::disable();
    graphiti::obs::reset();
}
