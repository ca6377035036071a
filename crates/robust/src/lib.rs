//! Supervised pipeline stages.
//!
//! The harness pipeline (parse → rewrite → check → simulate) is a
//! straight-line sequence of fallible calls. [`supervise`] runs one named
//! stage under a cooperative [`graphiti_obs::CancelToken`], usually armed
//! with a wall-clock deadline (`graphiti-cli --deadline-ms`). A stage that
//! fails, or that is cut off because the token tripped, surfaces as a
//! structured [`StageError`] naming the stage, the cause, and the elapsed
//! time, instead of an ad-hoc error string (or a hang).

#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

/// Why a supervised stage did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageErrorKind {
    /// The stage's cancellation token tripped because its deadline passed.
    DeadlineExceeded,
    /// The stage's cancellation token was tripped explicitly (supervisor
    /// shutdown, an upstream failure).
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
/// [`graphiti_sim::SimError::Cancelled`] from a simulator polling the same
/// token, or an abandoned `graphiti_pool::parallel_map_cancellable`
/// batch — is reported as [`StageErrorKind::DeadlineExceeded`] /
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_sim::SimError;

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
