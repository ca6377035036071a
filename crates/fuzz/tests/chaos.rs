//! The chaos oracle: every corpus kernel is replayed under seeded fault
//! schedules aimed at the compiled backend, and three properties must
//! hold —
//!
//! 1. **no panic**: every injected fault surfaces as an `Err` (or is
//!    absorbed by a fallback), never a crash;
//! 2. **no wrong answer**: with `--fallback` semantics
//!    ([`graphiti_robust::simulate_resilient`]), a compiled-backend fault
//!    degrades to the reference sweep, whose result must be bit-identical
//!    to the undisturbed baseline run;
//! 3. **determinism**: replaying the same schedule reproduces the exact
//!    same injection log, so any failure here is a stable reproducer.
//!
//! The schedules arm only compiled-only sites (`compile.lower`,
//! `cache.read`, `sim.fire.compiled`), so the fallback interpreter runs
//! undisturbed and bit-identity is assertable. Failures additionally dump
//! a reproducer file under `target/chaos/` for CI to upload.

use graphiti_frontend::compile;
use graphiti_fuzz::corpus;
use graphiti_ir::Value;
use graphiti_robust::simulate_resilient;
use graphiti_sim::{place_buffers, simulate, Scheduler, SimConfig, SimResult};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Failpoint state is process-global; the chaos tests serialize here.
fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the failpoint schedule when dropped, even on panic.
struct FpGuard;
impl Drop for FpGuard {
    fn drop(&mut self) {
        graphiti_obs::failpoint::clear();
    }
}

/// Three distinct seeded fault schedules over the compiled-only sites.
const SCHEDULES: &[&str] = &[
    "seed=1;compile.lower=1/2;cache.read=1/3",
    "seed=77;sim.fire.compiled=1/5",
    "seed=424242;compile.lower=1/7;sim.fire.compiled=1/3;cache.read=1/2",
];

fn start_feed() -> BTreeMap<String, Vec<Value>> {
    [("start".to_string(), vec![Value::Unit])].into_iter().collect()
}

/// Dumps a failing case under `target/chaos/` so CI can upload it.
fn dump_reproducer(case: &str, schedule: &str, detail: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{}.txt", corpus::slug(&format!("{case}-{schedule}"))));
    let _ = std::fs::write(
        &path,
        format!(
            "case: {case}\nschedule: {schedule}\ndetail: {detail}\n\
             injection log: {:?}\n",
            graphiti_obs::failpoint::injection_log()
        ),
    );
}

/// Bit-identity on the observables the schedulers contract to agree on
/// (the same six `oracle_sched` checks).
fn same_observables(a: &SimResult, b: &SimResult) -> bool {
    a.cycles == b.cycles
        && a.outputs == b.outputs
        && a.memory == b.memory
        && a.firings == b.firings
        && a.firings_by_node == b.firings_by_node
        && a.leftover_tokens == b.leftover_tokens
}

/// Runs every kernel of one corpus program on the reference sweep with no
/// faults armed: the ground truth the chaotic runs must reproduce bit for
/// bit.
fn baseline(p: &graphiti_frontend::Program) -> Vec<SimResult> {
    let compiled = compile(p).expect("corpus program compiles");
    let mut mem = p.arrays.clone();
    let mut out = Vec::new();
    for k in &compiled.kernels {
        let (placed, _) = place_buffers(&k.graph);
        let cfg = SimConfig { scheduler: Scheduler::ReferenceSweep, ..Default::default() };
        let r = simulate(&placed, &start_feed(), mem.clone(), cfg)
            .expect("undisturbed corpus kernel simulates");
        mem = r.memory.clone();
        out.push(r);
    }
    out
}

#[test]
fn chaos_replay_degrades_gracefully_and_bit_identically() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    let cases = corpus::load(&corpus::default_dir()).expect("corpus readable");
    assert!(!cases.is_empty(), "the corpus must ship with regression cases");
    for (path, parsed) in cases {
        let case = path.display().to_string();
        let p = parsed.expect("corpus parses");
        graphiti_obs::failpoint::clear();
        let truth = baseline(&p);
        let compiled = compile(&p).expect("corpus program compiles");
        for schedule in SCHEDULES {
            graphiti_obs::failpoint::configure(schedule).expect("schedule parses");
            // Fresh cache per schedule so `compile.lower` and `cache.read`
            // actually sit on the path instead of being skipped by hits
            // from earlier schedules.
            graphiti_sim::compile_cache_clear();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut mem = p.arrays.clone();
                let mut results = Vec::new();
                for k in &compiled.kernels {
                    let (placed, _) = place_buffers(&k.graph);
                    let cfg = SimConfig { scheduler: Scheduler::Compiled, ..Default::default() };
                    let r = simulate_resilient(&placed, &start_feed(), mem.clone(), cfg);
                    if let Ok((r, _)) = &r {
                        mem = r.memory.clone();
                    }
                    results.push(r);
                }
                results
            }));
            let results = match outcome {
                Ok(r) => r,
                Err(_) => {
                    dump_reproducer(&case, schedule, "panicked under fault injection");
                    panic!("{case}: panicked under fault schedule `{schedule}`");
                }
            };
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok((r, _used)) => {
                        if !same_observables(r, &truth[i]) {
                            dump_reproducer(
                                &case,
                                schedule,
                                &format!("kernel #{i}: degraded result diverges from baseline"),
                            );
                            panic!(
                                "{case}: kernel #{i} under `{schedule}`: fallback result \
                                 is not bit-identical to the undisturbed run"
                            );
                        }
                    }
                    // The armed sites are compiled-only, so the ladder's
                    // sweep rung runs undisturbed: any hard error is a
                    // wrong-degradation bug.
                    Err(e) => {
                        dump_reproducer(&case, schedule, &format!("kernel #{i}: hard error {e}"));
                        panic!(
                            "{case}: kernel #{i} under `{schedule}`: compiled-only fault \
                             must degrade, got hard error: {e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn chaos_schedules_replay_deterministically() {
    let _serial = fp_lock();
    let _guard = FpGuard;
    let cases = corpus::load(&corpus::default_dir()).expect("corpus readable");
    let (path, parsed) = cases.into_iter().next().expect("non-empty corpus");
    let p = parsed.unwrap_or_else(|e| panic!("{}: no longer parses: {e}", path.display()));
    let compiled = compile(&p).expect("corpus program compiles");
    let replay = |schedule: &str| {
        graphiti_obs::failpoint::configure(schedule).unwrap();
        graphiti_sim::compile_cache_clear();
        let mut mem = p.arrays.clone();
        for k in &compiled.kernels {
            let (placed, _) = place_buffers(&k.graph);
            let cfg = SimConfig { scheduler: Scheduler::Compiled, ..Default::default() };
            if let Ok((r, _)) = simulate_resilient(&placed, &start_feed(), mem.clone(), cfg) {
                mem = r.memory.clone();
            }
        }
        graphiti_obs::failpoint::injection_log()
    };
    for schedule in SCHEDULES {
        let first = replay(schedule);
        let second = replay(schedule);
        assert_eq!(first, second, "schedule `{schedule}` must replay identically");
        assert!(
            first.iter().all(|(site, _)| {
                site == "compile.lower" || site == "cache.read" || site == "sim.fire.compiled"
            }),
            "only armed sites may inject: {first:?}"
        );
    }
}
