//! Vocabulary shared by the four workloads.

use std::time::Duration;

use crate::estimator::{self, Reduced};

/// Independent cold rounds per run.
pub const ROUNDS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FinetuneCnnFull,
    FinetuneBertSparse,
    ServeEvalTcp,
    ServeMixedFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FinetuneCnnFull,
        Workload::FinetuneBertSparse,
        Workload::ServeEvalTcp,
        Workload::ServeMixedFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FinetuneCnnFull => "finetune_cnn_full",
            Workload::FinetuneBertSparse => "finetune_bert_sparse",
            Workload::ServeEvalTcp => "serve_eval_tcp",
            Workload::ServeMixedFleet => "serve_mixed_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One op of this workload, for the reader of a report.
    pub fn op(self) -> &'static str {
        match self {
            Workload::FinetuneCnnFull | Workload::FinetuneBertSparse => "train_step",
            Workload::ServeEvalTcp | Workload::ServeMixedFleet => "request",
        }
    }
}

/// When a round's timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time (the measured runs).
    After(Duration),
    /// After this many ops per generator (the traced runs, so counts repeat).
    Ops(u64),
}

impl Stop {
    pub fn reached(self, elapsed_ns: u64, ops: u64) -> bool {
        match self {
            Stop::After(limit) => elapsed_ns >= limit.as_nanos() as u64,
            Stop::Ops(limit) => ops >= limit,
        }
    }
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// First library call of the round to its first completed op.
    pub setup_s: f64,
    /// The timed phase, reduced over its slices.
    pub timed: Reduced,
    /// Resident-set high-water mark of the round; the caller of the round
    /// resets the mark before it and reads it after.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// A run: its rounds and what the output checks found.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub rounds: Vec<RoundStats>,
    /// Ops the output checks found wrong, beyond the rounds' own failures.
    pub wrong_outputs: u64,
    /// One line per failed check.
    pub findings: Vec<String>,
}

impl RunReport {
    /// The run's value of a metric: the quiet-side quartile over its rounds.
    pub fn over_rounds(&self, lower_is_better: bool, pick: impl Fn(&RoundStats) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(pick).collect();
        estimator::quiet_quartile(&values, lower_is_better)
    }

    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum::<u64>() + self.wrong_outputs
    }

    pub fn latency_tail(&self) -> Option<(f64, f64)> {
        latency_tail(&self.rounds)
    }
}

/// The tail percentile every one of `rounds` could report, as `(quantile,
/// milliseconds)`: the lowest quantile any round fell back to, and the
/// quiet-side quartile over the rounds that reported that one.
pub fn latency_tail(rounds: &[RoundStats]) -> Option<(f64, f64)> {
    let tails: Vec<(f64, f64)> = rounds
        .iter()
        .map(|r| r.timed.latency_tail)
        .collect::<Option<_>>()?;
    let quantile = tails.iter().map(|t| t.0).fold(f64::MAX, f64::min);
    let values: Vec<f64> = tails
        .iter()
        .filter(|t| t.0 == quantile)
        .map(|t| t.1)
        .collect();
    Some((quantile, estimator::quiet_quartile(&values, true)))
}
