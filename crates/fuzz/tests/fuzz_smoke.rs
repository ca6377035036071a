//! Fixed-seed smoke coverage of the fuzzing harness itself: generation is
//! deterministic, a small budget of generated cases passes every oracle,
//! and the shrinker preserves the failure it is minimising.

use graphiti_frontend::{compile, run_program, Program};
use graphiti_fuzz::gen::gen_program;
use graphiti_fuzz::oracle::{check_program, OracleOpts};
use graphiti_fuzz::{shrink, triage};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn generation_is_deterministic() {
    let a = gen_program(&mut StdRng::seed_from_u64(7));
    let b = gen_program(&mut StdRng::seed_from_u64(7));
    assert_eq!(a, b);
    let c = gen_program(&mut StdRng::seed_from_u64(8));
    assert_ne!(a, c, "different seeds draw different programs");
}

#[test]
fn generated_programs_are_well_formed() {
    for seed in 0..40u64 {
        let p = gen_program(&mut StdRng::seed_from_u64(seed));
        run_program(&p).unwrap_or_else(|e| panic!("seed {seed}: interpreter faults: {e}"));
        compile(&p).unwrap_or_else(|e| panic!("seed {seed}: does not compile: {e}"));
    }
}

#[test]
fn small_budget_passes_all_oracles() {
    for seed in 0..8u64 {
        let p = gen_program(&mut StdRng::seed_from_u64(seed));
        let opts = OracleOpts { refinement: seed % 4 == 0 };
        let verdict = triage::catching(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            check_program(&p, &mut rng, &opts)
        });
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(f)) => panic!("seed {seed}: {f}"),
            Err(c) => panic!("seed {seed}: panic at {}: {}", c.location, c.message),
        }
    }
}

#[test]
fn shrinker_minimises_while_preserving_the_failure() {
    // A synthetic "failure": programs whose second kernel stores to
    // `out1`. The shrinker must keep that property while stripping the
    // unrelated first kernel and expression structure.
    let p = (0..200u64)
        .map(|s| gen_program(&mut StdRng::seed_from_u64(s)))
        .find(|p| p.kernels.len() == 2)
        .expect("a two-kernel draw exists");
    let mut fails =
        |q: &Program| q.kernels.iter().any(|k| k.epilogue.iter().any(|st| st.array == "out1"));
    assert!(fails(&p));
    let min = shrink::shrink(&p, &mut fails);
    assert!(fails(&min), "shrinking preserved the predicate");
    assert!(min.kernels.len() == 1, "the unrelated kernel was dropped: {}", min.kernels.len());
    let size = |q: &Program| graphiti_frontend::print_program(q).len();
    assert!(size(&min) <= size(&p), "shrinking never grows the program");
}

#[test]
fn multi_site_store_shapes_are_drawn_and_pass_the_oracles() {
    // The generator must actually draw multi-site-store kernels (two
    // sites on one array, or a body read-modify-write) — the shapes that
    // compile through a store queue — and each drawn shape must pass the
    // full oracle stack, including the three-scheduler differential and
    // the rewrite round-trip.
    let multi_site = |p: &Program| {
        p.kernels.iter().any(|k| {
            let n_arrays: std::collections::BTreeSet<&str> =
                k.inner.effects.iter().chain(&k.epilogue).map(|st| st.array.as_str()).collect();
            k.inner.effects.len() + k.epilogue.len() > n_arrays.len()
                || k.inner.effects.iter().any(|st| format!("{:?}", st.value).contains("Load"))
        })
    };
    let drawn: Vec<u64> =
        (0..400u64).filter(|s| multi_site(&gen_program(&mut StdRng::seed_from_u64(*s)))).collect();
    assert!(drawn.len() >= 10, "only {} multi-site draws in 400 seeds", drawn.len());
    for seed in drawn.into_iter().take(6) {
        let p = gen_program(&mut StdRng::seed_from_u64(seed));
        let opts = OracleOpts { refinement: false };
        let verdict = triage::catching(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            check_program(&p, &mut rng, &opts)
        });
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(f)) => panic!("seed {seed}: {f}"),
            Err(c) => panic!("seed {seed}: panic at {}: {}", c.location, c.message),
        }
    }
}

#[test]
fn triage_deduplicates_by_fingerprint() {
    let mut t = triage::Triage::new();
    assert!(t.record("panic@a.rs:1:idx".into(), "first".into(), 1));
    assert!(!t.record("panic@a.rs:1:idx".into(), "again".into(), 2));
    assert!(t.record("sched-equiv/memory".into(), "other".into(), 3));
    assert_eq!(t.distinct(), 2);
    assert_eq!(t.total(), 3);
    let report = t.report();
    assert!(report.contains("panic@a.rs:1:idx") && report.contains("seeds: 1, 2"), "{report}");
}

#[test]
fn catching_converts_panics_into_crashes() {
    triage::install_hook();
    let r = triage::catching(|| -> () { panic!("boom {}", 42) });
    let c = r.expect_err("panic must be caught");
    assert!(c.message.contains("boom 42"), "{}", c.message);
    assert!(c.location.contains("fuzz_smoke.rs"), "{}", c.location);
    // And a non-panicking closure passes through.
    assert!(triage::catching(|| 7).is_ok_and(|v| v == 7));
}
