//! Resilience layer: supervised pipeline stages and graceful scheduler
//! degradation.
//!
//! The harness pipeline (parse → rewrite → check → simulate) is normally a
//! straight-line sequence of fallible calls; a wedged or faulted stage takes
//! the whole batch down with it. This crate wraps that sequence in two
//! defensive mechanisms, both built on [`graphiti_obs::CancelToken`] and the
//! deterministic [`graphiti_obs::failpoint`] subsystem:
//!
//! * [`supervise`] runs one named stage under a cooperative cancellation
//!   token with a wall-clock deadline. A stage that fails — or that is cut
//!   off because the token tripped — surfaces as a structured
//!   [`StageError`] naming the stage, the cause, and the elapsed time,
//!   instead of an ad-hoc error string (or a hang).
//! * [`simulate_resilient`] walks the scheduler degradation ladder
//!   `Compiled → ReferenceSweep`: when the compiled backend fails with a
//!   *backend-local* error (a fault injected into its lowering, cache, or
//!   drive loop), the run is retried on the executable-specification
//!   sweep and the degradation is counted under the frozen `robust.*`
//!   metric names and recorded in the flight ring.
//!
//! Degradation is deliberately conservative: only [`SimError::Injected`]
//! falls through the ladder. Errors that describe the *circuit* rather
//! than the backend —
//! [`SimError::Deadlock`], [`SimError::Timeout`], memory and evaluation
//! faults, bad graphs — are identical across schedulers by construction,
//! so retrying elsewhere would only launder a real bug into wasted work.
//! [`SimError::Cancelled`] aborts the ladder too: the supervisor asked the
//! whole run to stop, not just this backend.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use graphiti_ir::{ExprHigh, Value};
use graphiti_sim::{simulate, Memory, Scheduler, SimConfig, SimError, SimResult};

/// Why a supervised stage did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageErrorKind {
    /// The stage's cancellation token tripped because its deadline passed.
    DeadlineExceeded,
    /// The stage's cancellation token was tripped explicitly (supervisor
    /// shutdown, a wedged-worker failpoint, an upstream failure).
    Cancelled,
    /// The stage itself returned an error; the rendered message is kept.
    Failed(String),
}

/// A structured failure from one supervised pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageError {
    /// The stage that failed (`"parse"`, `"rewrite"`, `"check"`,
    /// `"simulate"`, …).
    pub stage: &'static str,
    /// Why it failed.
    pub kind: StageErrorKind,
    /// Wall-clock time the stage ran before failing (0 when the token had
    /// already tripped on entry).
    pub elapsed_ms: u64,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StageErrorKind::DeadlineExceeded => {
                write!(
                    f,
                    "stage `{}` exceeded its deadline after {} ms",
                    self.stage, self.elapsed_ms
                )
            }
            StageErrorKind::Cancelled => {
                write!(f, "stage `{}` cancelled after {} ms", self.stage, self.elapsed_ms)
            }
            StageErrorKind::Failed(msg) => {
                write!(f, "stage `{}` failed after {} ms: {msg}", self.stage, self.elapsed_ms)
            }
        }
    }
}

impl std::error::Error for StageError {}

/// The [`StageErrorKind`] for a tripped token: deadline if the clock did
/// it, explicit cancellation otherwise.
fn trip_kind(token: &graphiti_obs::CancelToken) -> StageErrorKind {
    if token.deadline_exceeded() {
        StageErrorKind::DeadlineExceeded
    } else {
        StageErrorKind::Cancelled
    }
}

/// Counts a stage outcome under `robust.stage.<stage>.<outcome>` and drops
/// a flight-ring record for non-`ok` outcomes.
fn note_stage(stage: &str, outcome: &str, elapsed_ms: u64) {
    if graphiti_obs::enabled() {
        graphiti_obs::counter(&format!("robust.stage.{stage}.{outcome}")).inc();
    }
    if outcome != "ok" {
        graphiti_obs::flight::record("robust.stage", || {
            format!("{stage} {outcome} after {elapsed_ms} ms")
        });
    }
}

/// Runs one pipeline stage under supervision.
///
/// The token is checked on entry (a batch whose budget is already spent
/// never starts the next stage) and again when the stage fails, so a
/// failure caused by cooperative cancellation — e.g.
/// [`SimError::Cancelled`] from a simulator polling the same token, or an
/// abandoned [`graphiti_pool::parallel_map_cancellable`] batch — is
/// reported as [`StageErrorKind::DeadlineExceeded`] /
/// [`StageErrorKind::Cancelled`] rather than a generic failure.
///
/// Outcomes are counted under `robust.stage.<stage>.{ok|failed|cancelled|
/// deadline}` when collection is enabled.
///
/// # Errors
///
/// Returns a [`StageError`] when the token has tripped or `f` fails.
pub fn supervise<T, E: fmt::Display>(
    stage: &'static str,
    token: &graphiti_obs::CancelToken,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, StageError> {
    if token.is_cancelled() {
        let kind = trip_kind(token);
        note_stage(stage, outcome_name(&kind), 0);
        return Err(StageError { stage, kind, elapsed_ms: 0 });
    }
    let start = Instant::now();
    let r = f();
    let elapsed_ms = start.elapsed().as_millis() as u64;
    match r {
        Ok(v) => {
            note_stage(stage, "ok", elapsed_ms);
            Ok(v)
        }
        Err(e) => {
            let kind = if token.is_cancelled() {
                trip_kind(token)
            } else {
                StageErrorKind::Failed(e.to_string())
            };
            note_stage(stage, outcome_name(&kind), elapsed_ms);
            Err(StageError { stage, kind, elapsed_ms })
        }
    }
}

/// The metric-suffix name for a [`StageErrorKind`].
fn outcome_name(kind: &StageErrorKind) -> &'static str {
    match kind {
        StageErrorKind::DeadlineExceeded => "deadline",
        StageErrorKind::Cancelled => "cancelled",
        StageErrorKind::Failed(_) => "failed",
    }
}

/// Whether a simulation error is *backend-local* — a fault injected into
/// the scheduler rather than a property of the circuit — and therefore
/// worth retrying on the next rung of the ladder.
fn degradable(e: &SimError) -> bool {
    matches!(e, SimError::Injected(_))
}

/// Runs a simulation with graceful scheduler degradation.
///
/// The requested scheduler is tried first; when it fails with a
/// backend-local error (see [`simulate_resilient`]'s module docs) the run
/// is repeated — on a fresh clone of `memory`, so a partial first attempt
/// cannot leak state — on the next scheduler down the ladder
/// `Compiled → ReferenceSweep`. The returned pair carries
/// the result together with the scheduler that actually produced it, so
/// callers can report degradations.
///
/// Each fallback increments `robust.degrade.<from>_to_<to>` and records a
/// flight-ring entry; a ladder exhausted without success returns the last
/// error and increments `robust.degrade.exhausted`.
///
/// # Errors
///
/// Returns the first non-degradable error, or the final rung's error when
/// every rung fails.
pub fn simulate_resilient(
    g: &ExprHigh,
    feeds: &BTreeMap<String, Vec<Value>>,
    memory: Memory,
    cfg: SimConfig,
) -> Result<(SimResult, Scheduler), SimError> {
    let ladder: &[Scheduler] = match cfg.scheduler {
        Scheduler::Compiled => &[Scheduler::Compiled, Scheduler::ReferenceSweep],
        Scheduler::ReferenceSweep => &[Scheduler::ReferenceSweep],
    };
    for (i, &sched) in ladder.iter().enumerate() {
        let mut attempt = cfg.clone();
        attempt.scheduler = sched;
        match simulate(g, feeds, memory.clone(), attempt) {
            Ok(r) => return Ok((r, sched)),
            Err(e) if degradable(&e) && i + 1 < ladder.len() => {
                let next = ladder[i + 1];
                if graphiti_obs::enabled() {
                    graphiti_obs::counter(&format!(
                        "robust.degrade.{}_to_{}",
                        sched_slug(sched),
                        sched_slug(next)
                    ))
                    .inc();
                }
                graphiti_obs::flight::record("robust.degrade", || {
                    format!("{sched:?} failed ({e}); retrying on {next:?}")
                });
            }
            Err(e) => {
                if degradable(&e) && graphiti_obs::enabled() {
                    graphiti_obs::counter("robust.degrade.exhausted").inc();
                }
                return Err(e);
            }
        }
    }
    unreachable!("every ladder has at least one rung")
}

/// Metric-name slug for a scheduler.
fn sched_slug(s: Scheduler) -> &'static str {
    match s {
        Scheduler::ReferenceSweep => "sweep",
        Scheduler::Compiled => "compiled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervise_passes_values_through() {
        let token = graphiti_obs::CancelToken::new();
        let v = supervise("parse", &token, || Ok::<_, String>(42)).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn supervise_wraps_stage_failures() {
        let token = graphiti_obs::CancelToken::new();
        let e = supervise::<i32, _>("check", &token, || Err("boom".to_string())).unwrap_err();
        assert_eq!(e.stage, "check");
        assert_eq!(e.kind, StageErrorKind::Failed("boom".into()));
        assert!(e.to_string().contains("stage `check` failed"));
    }

    #[test]
    fn supervise_refuses_to_start_after_cancellation() {
        let token = graphiti_obs::CancelToken::new();
        token.cancel();
        let e = supervise::<i32, String>("rewrite", &token, || panic!("must not run")).unwrap_err();
        assert_eq!(e.kind, StageErrorKind::Cancelled);
        assert_eq!(e.elapsed_ms, 0);
    }

    #[test]
    fn supervise_attributes_deadline_trips() {
        let token = graphiti_obs::CancelToken::with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let e =
            supervise::<i32, String>("simulate", &token, || panic!("must not run")).unwrap_err();
        assert_eq!(e.kind, StageErrorKind::DeadlineExceeded);
    }

    #[test]
    fn mid_stage_cancellation_is_reported_as_cancelled_not_failed() {
        let token = graphiti_obs::CancelToken::new();
        let e = supervise::<i32, _>("simulate", &token, || {
            token.cancel();
            Err(SimError::Cancelled)
        })
        .unwrap_err();
        assert_eq!(e.kind, StageErrorKind::Cancelled);
    }
}
