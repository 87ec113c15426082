//! Admission control for the serving engine: the policy knob, the
//! rejection vocabulary, and the per-specialization latency model behind
//! deadline-feasibility decisions.
//!
//! Both ingestion paths consult the same admission logic **on arrival** —
//! the synchronous slice path when it walks onto a request, the queue path
//! when the drainer pops its envelope. A request is rejected only when its
//! deadline *provably* cannot be met: the engine has a latency estimate for
//! the specialization rung the request would run on, and that estimate
//! already exceeds the request's whole deadline budget. Requests without a
//! deadline, and requests bound for rungs the engine has never timed, are
//! always admitted (optimistic cold start).
//!
//! The estimate is a per-specialization **EWMA** fed by the engine's
//! existing dispatch timing: every training step and evaluation
//! micro-batch contributes its executor wall-clock to the rung it ran on. Feasibility is assessed against the request's full
//! budget — the same quantity on both paths — so the decision never
//! depends on which path carried the request, only on the latency-model
//! state. A stream replayed through `Engine::serve` and
//! through the queue rejects the same requests whenever the estimates
//! agree: seed them (`Engine::seed_latency_estimate`), or keep budgets
//! decisively above or below the estimates — live EWMA cells drift with
//! dispatch timing and grouping, so borderline budgets may tip
//! differently (`tests/tests/engine.rs` exercises the deterministic
//! regimes).

use std::collections::HashMap;
use std::time::Duration;

use crate::engine::Response;

/// How the engine admits requests (set on `EngineConfig::admission`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every request is admitted; deadlines only shape batching. The
    /// historical behaviour and the default.
    #[default]
    AcceptAll,
    /// Reject-on-arrival requests whose deadline budget is below the
    /// engine's latency estimate for the rung they would dispatch on.
    DeadlineFeasible,
}

/// Why a request was rejected on arrival instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The deadline budget is provably too small: the engine's latency
    /// estimate for the target specialization already exceeds it.
    DeadlineInfeasible {
        /// The engine's latency estimate for the rung the request would
        /// have dispatched on.
        estimated: Duration,
        /// The request's deadline budget.
        budget: Duration,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::DeadlineInfeasible { estimated, budget } => write!(
                f,
                "deadline infeasible: estimated {estimated:?} exceeds budget {budget:?}"
            ),
        }
    }
}

/// The uniform result of serving one request, returned by `Engine::serve`
/// (one per request of the slice) and redeemed from the queue's `Ticket`.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The request was served.
    Completed(Response),
    /// Admission control rejected the request on arrival; it never
    /// executed and never touched the specialization cache.
    Rejected(RejectReason),
    /// The request was accepted but its serving path was torn down before
    /// dispatch (a drainer dropped mid-flight). The built-in shutdown
    /// drains first, so this surfaces only on abnormal teardown.
    Cancelled,
}

impl Outcome {
    /// The response by reference, if the request completed.
    pub fn as_response(&self) -> Option<&Response> {
        match self {
            Outcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The rejection reason, if the request was rejected on arrival.
    pub fn rejection(&self) -> Option<&RejectReason> {
        match self {
            Outcome::Rejected(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the request was served.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }

    /// Whether the request was rejected by admission control.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Outcome::Rejected(_))
    }

    /// Whether the request was cancelled before dispatch.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Outcome::Cancelled)
    }

    /// Unwraps the response.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`Outcome::Completed`].
    pub fn expect_completed(self, msg: &str) -> Response {
        match self {
            Outcome::Completed(r) => r,
            other => panic!("{msg}: {other:?}"),
        }
    }
}

/// EWMA smoothing factor: one dispatch moves the estimate 20% of the way
/// to the new observation — responsive to drift, robust to one-off
/// scheduler noise.
const EWMA_ALPHA: f64 = 0.2;

/// Per-specialization dispatch-latency estimates, keyed by rung.
#[derive(Debug, Default)]
pub(crate) struct LatencyModel {
    ewma_us: HashMap<usize, f64>,
}

impl LatencyModel {
    /// Feeds one dispatch observation into the rung's EWMA.
    pub(crate) fn observe(&mut self, batch: usize, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6;
        self.ewma_us
            .entry(batch)
            .and_modify(|mean| *mean = EWMA_ALPHA * us + (1.0 - EWMA_ALPHA) * *mean)
            .or_insert(us);
    }

    /// Overwrites the rung's estimate (offline profiles, tests).
    pub(crate) fn seed(&mut self, batch: usize, latency: Duration) {
        self.ewma_us.insert(batch, latency.as_secs_f64() * 1e6);
    }

    /// The rung's current estimate, if it was ever observed or seeded.
    pub(crate) fn estimate(&self, batch: usize) -> Option<Duration> {
        self.ewma_us
            .get(&batch)
            .map(|us| Duration::from_secs_f64(us / 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_initializes_then_blends() {
        let mut m = LatencyModel::default();
        assert_eq!(m.estimate(4), None);
        m.observe(4, Duration::from_micros(100));
        assert_eq!(m.estimate(4), Some(Duration::from_micros(100)));
        m.observe(4, Duration::from_micros(200));
        // 0.2 * 200 + 0.8 * 100 = 120.
        let blended = m.estimate(4).unwrap();
        assert!(
            (blended.as_secs_f64() * 1e6 - 120.0).abs() < 1e-6,
            "expected 120us, got {blended:?}"
        );
        // Different rungs are independent.
        assert_eq!(m.estimate(8), None);
    }

    #[test]
    fn seeding_overwrites_the_estimate() {
        let mut m = LatencyModel::default();
        m.observe(2, Duration::from_micros(50));
        m.seed(2, Duration::from_millis(3));
        assert_eq!(m.estimate(2), Some(Duration::from_millis(3)));
    }
}
