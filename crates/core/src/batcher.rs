//! The deadline-aware batcher: the drainer loop between the submission
//! queue and the engine.
//!
//! The synchronous slice path coalesces whatever evaluation requests happen
//! to sit *next to each other* in a pre-materialised slice. The batcher
//! works against an open queue instead, so it has a resource the slice path
//! never had: **time**. Each request carries a deadline (the submitter's
//! patience for companions), and the batcher grows an evaluation group
//! toward the largest batch size a cached specialization can serve —
//! waiting for more traffic only as long as *every* member's deadline
//! permits:
//!
//! * every popped request is first **checked against the program** (shapes,
//!   label and token ids in range): a malformed one resolves its ticket
//!   with the `ExecError` alone, so it never fails the requests around it;
//! * then it passes **admission control** (the same check the sync path
//!   runs on arrival — see [`crate::admission`]): a rejected request
//!   resolves its ticket as [`Outcome::Rejected`] on the spot, without
//!   executing, without flushing the pending group, and without touching
//!   the specialization cache;
//! * an eval group is dispatched as soon as it **fills the target rung**
//!   (the largest cached batch, capped by the largest warm batch);
//! * or when the **earliest deadline** in the group arrives — the group is
//!   then padded to the nearest cached rung exactly like the sync path, so
//!   a request never waits past its budget just to fill a batch;
//! * a request popped with its deadline **already expired** is dispatched
//!   immediately (solo if nothing else is pending) rather than waiting for
//!   companions it has no budget for;
//! * a **training request is a barrier**: it flushes the pending eval group
//!   and then runs exclusively, at its exact row count, under the
//!   `ParamStore` step guard — submission order between training steps is
//!   execution order (the queue never reorders across a train), which is
//!   what keeps the queued path bit-identical to the synchronous baseline.
//!
//! Groups are formed and executed inline on this one drainer thread: the
//! batcher runs each group before popping further, so group membership is a
//! pure function of submission order and deadlines. Grouping may differ
//! from the slice path's, but that is invisible in the results: evaluation
//! is read-only and padding/packing never leaks into per-request losses
//! (`tests/tests/engine.rs::eval_padding_does_not_change_real_rows`), so
//! only the train-step order matters — and that is FIFO on both paths.

use std::sync::Mutex;
use std::time::Instant;

use crate::admission::{Outcome, RejectReason};
use crate::engine::{Engine, GroupVerdict};
use crate::queue::{Envelope, Pop, Receiver};

use pe_data::serving::ServingKind;

/// The batcher's shared accounting: one mutex-guarded [`BatcherStats`] that
/// the drainer merges whole-group deltas into and the facade reads.
///
/// A group's whole accounting lands in one critical section after it runs,
/// so every [`BatcherCounters::snapshot`] satisfies
/// `eval_groups == target + deadline + barrier flushes`.
#[derive(Debug, Default)]
pub(crate) struct BatcherCounters {
    stats: Mutex<BatcherStats>,
}

/// A point-in-time snapshot of the batcher's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Evaluation micro-batches dispatched.
    pub eval_groups: u64,
    /// Groups dispatched because they filled the target rung.
    pub target_flushes: u64,
    /// Groups dispatched because a member's deadline arrived (includes
    /// groups that timed out waiting for companions).
    pub deadline_flushes: u64,
    /// Groups flushed by a barrier: a training request, a follow-up with
    /// no room left, or queue shutdown.
    pub barrier_flushes: u64,
    /// Requests whose deadline had already expired when popped; they
    /// dispatch immediately (solo unless companions were already pending).
    pub expired_dispatches: u64,
    /// Training steps dispatched.
    pub train_dispatches: u64,
    /// Requests rejected on arrival by admission control (resolved as
    /// [`Outcome::Rejected`], never dispatched).
    pub admission_rejections: u64,
}

impl BatcherStats {
    /// Adds `delta` into `self`.
    fn absorb(&mut self, delta: &BatcherStats) {
        self.eval_groups += delta.eval_groups;
        self.target_flushes += delta.target_flushes;
        self.deadline_flushes += delta.deadline_flushes;
        self.barrier_flushes += delta.barrier_flushes;
        self.expired_dispatches += delta.expired_dispatches;
        self.train_dispatches += delta.train_dispatches;
        self.admission_rejections += delta.admission_rejections;
    }
}

impl BatcherCounters {
    /// Merges one dispatch's whole delta in a single critical section.
    pub(crate) fn merge(&self, delta: &BatcherStats) {
        self.stats
            .lock()
            .expect("batcher stats lock poisoned")
            .absorb(delta);
    }

    pub(crate) fn snapshot(&self) -> BatcherStats {
        *self.stats.lock().expect("batcher stats lock poisoned")
    }
}

fn reject(
    engine: &mut Engine,
    envelope: Envelope,
    reason: RejectReason,
    counters: &BatcherCounters,
) {
    counters.merge(&BatcherStats {
        admission_rejections: 1,
        ..BatcherStats::default()
    });
    engine.note_rejection();
    envelope.fulfill(Ok(Outcome::Rejected(reason)));
}

/// Why the accumulation loop stopped growing the current group.
enum Flush {
    /// The group reached the target rung.
    Target,
    /// The earliest member deadline arrived (or was already expired).
    Deadline,
    /// A request that cannot join the group arrived; it is carried into the
    /// next iteration (boxed to keep the control-flow enum small).
    Barrier(Box<Envelope>),
    /// The queue is closed and drained; serve what is held, then stop.
    Shutdown,
}

/// Drains the queue into the engine until the queue is closed *and* empty.
///
/// Every popped envelope is fulfilled exactly once — with the served
/// [`crate::engine::Response`], an admission rejection, or the executor's
/// error — so producers blocked on tickets always resolve, including during
/// shutdown drain.
pub(crate) fn drain(engine: &mut Engine, rx: &Receiver, counters: &BatcherCounters) {
    let mut carried: Option<Envelope> = None;
    loop {
        let head = match carried.take() {
            Some(envelope) => envelope,
            None => match rx.pop(None) {
                Pop::Item(envelope) => *envelope,
                Pop::TimedOut => continue, // unreachable: no deadline given
                Pop::Drained => return,
            },
        };
        if let Err(e) = engine.program().check_request(head.request()) {
            head.fulfill(Err(e));
            continue;
        }
        if let Err(reason) = engine.admit(head.request()) {
            reject(engine, head, reason, counters);
            continue;
        }
        match head.request().kind {
            ServingKind::Train => dispatch_train(engine, head, counters),
            ServingKind::Eval => {
                // An expired head has no budget for companions:
                // `accumulate` then takes only what is already queued and
                // compatible, without waiting.
                let expired = head.deadline() <= Instant::now();
                let mut delta = BatcherStats {
                    expired_dispatches: u64::from(expired),
                    ..BatcherStats::default()
                };
                let target = engine.eval_target_rows();
                let mut rows = head.rows();
                let mut group = vec![head];
                let flush = accumulate(engine, rx, &mut group, &mut rows, target, counters);
                match flush {
                    Flush::Target => {
                        delta.target_flushes = 1;
                    }
                    Flush::Deadline => {
                        delta.deadline_flushes = 1;
                    }
                    Flush::Barrier(next) => {
                        delta.barrier_flushes = 1;
                        carried = Some(*next);
                    }
                    Flush::Shutdown => {
                        delta.barrier_flushes = 1;
                        dispatch_eval(engine, group, rows, counters, delta);
                        return;
                    }
                }
                dispatch_eval(engine, group, rows, counters, delta);
            }
        }
    }
}

/// Grows `group` until it fills `target` rows, the earliest member deadline
/// arrives, or an incompatible request shows up. Once that deadline has
/// passed, each pop returns a queued request or times out at once, so a
/// group with an expired member takes only what is already queued. Popped
/// requests that are malformed or fail admission resolve in place and
/// never join (nor flush) the group.
fn accumulate(
    engine: &mut Engine,
    rx: &Receiver,
    group: &mut Vec<Envelope>,
    rows: &mut usize,
    target: usize,
    counters: &BatcherCounters,
) -> Flush {
    loop {
        if *rows >= target {
            return Flush::Target;
        }
        // Deadlines only shrink as members join, so the minimum is exact.
        let earliest = group
            .iter()
            .map(Envelope::deadline)
            .min()
            .expect("group is never empty");
        match rx.pop(Some(earliest)) {
            Pop::Item(e) => match engine.classify_for_group(e.request(), *rows, target) {
                GroupVerdict::Join => {
                    *rows += e.rows();
                    group.push(*e);
                }
                GroupVerdict::Invalid(error) => e.fulfill(Err(error)),
                GroupVerdict::Reject(reason) => {
                    reject(engine, *e, reason, counters);
                }
                GroupVerdict::Barrier => return Flush::Barrier(e),
            },
            Pop::TimedOut => return Flush::Deadline,
            Pop::Drained => return Flush::Shutdown,
        }
    }
}

fn dispatch_train(engine: &mut Engine, mut envelope: Envelope, counters: &BatcherCounters) {
    let request = envelope.take_request();
    let result = engine
        .train_one(envelope.seq(), &request)
        .map(Outcome::Completed);
    // Merge before fulfilling: a redeemed ticket implies its dispatch is
    // already visible in the stats.
    counters.merge(&BatcherStats {
        train_dispatches: 1,
        ..BatcherStats::default()
    });
    envelope.fulfill(result);
}

/// Executes one formed eval group; the group's whole stats delta merges
/// after execution.
fn dispatch_eval(
    engine: &mut Engine,
    mut group: Vec<Envelope>,
    rows: usize,
    counters: &BatcherCounters,
    mut delta: BatcherStats,
) {
    delta.eval_groups = 1;
    let requests: Vec<_> = group
        .iter_mut()
        .map(|e| (e.seq(), e.take_request()))
        .collect();
    let pairs: Vec<(usize, &pe_data::serving::Request)> =
        requests.iter().map(|(seq, r)| (*seq, r)).collect();
    let outcome = engine.eval_group(&pairs, rows);
    // Merge before fulfilling: a redeemed ticket implies its group is
    // already visible in the stats.
    counters.merge(&delta);
    match outcome {
        Ok(responses) => {
            debug_assert_eq!(responses.len(), group.len());
            // eval_group answers in group order; zip envelopes back up.
            for (envelope, response) in group.into_iter().zip(responses) {
                envelope.fulfill(Ok(Outcome::Completed(response)));
            }
        }
        Err(e) => {
            for envelope in group {
                envelope.fulfill(Err(e.clone()));
            }
        }
    }
}
