//! Structured failure reporting for the analysis engines.
//!
//! Every fallible engine entry point (`OverlapCache::build`,
//! `run_null_model`, `try_analyze_world_view_observed`, …) reports a
//! [`StageFailure`]: which pipeline stage failed, at which task index,
//! and whether the task returned an error or panicked. Failures inherit
//! the worker pool's determinism contract — the lowest failing task
//! index wins — so the same fault produces a bit-identical
//! `StageFailure` for any thread count.
//!
//! Observability: engines increment an `error.<stage>` counter on the
//! supplied [`Metrics`] handle whenever they return a failure, so
//! operators can alert on failing stages without parsing error text.

use std::fmt;

use culinaria_obs::Metrics;
use culinaria_stats::pool::{FailureKind, TaskFailure};

/// How a stage task failed: a returned error or a caught panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The task reported an error, rendered as text.
    Error(String),
    /// The task panicked; the payload rendered as text.
    Panic(String),
}

/// A failure at one stage of an analysis pipeline.
///
/// `stage` is the same label the fault-injection harness and the span
/// metrics use (`"overlap.tile"`, `"mc.block"`, `"world.block"`, …);
/// `index` is the failing task's index within that stage (lowest wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailure {
    /// Pipeline stage label.
    pub stage: &'static str,
    /// Index of the lowest failing task within the stage.
    pub index: usize,
    /// Error or panic, with the rendered message.
    pub cause: FailureCause,
}

impl StageFailure {
    /// A failure for a task that reported an error.
    pub fn error(stage: &'static str, index: usize, message: impl Into<String>) -> StageFailure {
        StageFailure {
            stage,
            index,
            cause: FailureCause::Error(message.into()),
        }
    }

    /// Lift a worker-pool [`TaskFailure`] into a stage failure.
    pub fn from_task<E: fmt::Display>(
        stage: &'static str,
        failure: TaskFailure<E>,
    ) -> StageFailure {
        StageFailure {
            stage,
            index: failure.index,
            cause: match failure.kind {
                FailureKind::Failed(e) => FailureCause::Error(e.to_string()),
                FailureKind::Panicked(msg) => FailureCause::Panic(msg),
            },
        }
    }

    /// Bump the `error.<stage>` counter for this failure and return it,
    /// so fallible engines can `map_err(|f| f.record(metrics))` on
    /// their way out.
    pub fn record(self, metrics: &Metrics) -> StageFailure {
        metrics.counter(&format!("error.{}", self.stage)).incr();
        self
    }
}

impl fmt::Display for StageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cause {
            FailureCause::Error(msg) => {
                write!(f, "stage {}[{}] failed: {msg}", self.stage, self.index)
            }
            FailureCause::Panic(msg) => {
                write!(f, "stage {}[{}] panicked: {msg}", self.stage, self.index)
            }
        }
    }
}

impl std::error::Error for StageFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_both_causes() {
        let err = StageFailure::error("overlap.tile", 3, "unknown ingredient");
        assert_eq!(
            err.to_string(),
            "stage overlap.tile[3] failed: unknown ingredient"
        );
        let panic = StageFailure {
            stage: "mc.block",
            index: 7,
            cause: FailureCause::Panic("boom".to_string()),
        };
        assert_eq!(panic.to_string(), "stage mc.block[7] panicked: boom");
    }

    #[test]
    fn lifts_task_failures() {
        let failed: TaskFailure<String> = TaskFailure {
            index: 2,
            kind: FailureKind::Failed("bad row".to_string()),
        };
        assert_eq!(
            StageFailure::from_task("overlap.tile", failed),
            StageFailure::error("overlap.tile", 2, "bad row")
        );
        let panicked: TaskFailure<String> = TaskFailure {
            index: 5,
            kind: FailureKind::Panicked("boom".to_string()),
        };
        let lifted = StageFailure::from_task("mc.block", panicked);
        assert_eq!(lifted.cause, FailureCause::Panic("boom".to_string()));
        assert_eq!(lifted.index, 5);
    }

    #[test]
    fn record_bumps_the_stage_counter() {
        let metrics = Metrics::enabled();
        let err = StageFailure::error("mc.block", 0, "x").record(&metrics);
        assert_eq!(err.stage, "mc.block");
        let _ = StageFailure::error("mc.block", 1, "y").record(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("error.mc.block"), Some(2));
    }
}
