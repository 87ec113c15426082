//! The unified submission trait: one client API over every ingestion
//! transport.
//!
//! PR 5 unified the *request* vocabulary ([`Request`]/[`crate::RequestMeta`]
//! carried by both the synchronous slice path and the bounded queue); this
//! module unifies the *submission* surface. [`Submit`] is the capability a
//! serving client programs against — accept a request now (or refuse with
//! backpressure), hand back a [`Ticket`] — and it is implemented by every
//! transport:
//!
//! * [`crate::Submitter`] / [`crate::engine::AsyncEngine`] — the in-process
//!   bounded MPSC queue;
//! * `pe_net::Client` — the TCP wire protocol, in the `pe_net` crate.
//!
//! Every transport hands out the same [`Ticket`], resolved through its
//! [`crate::queue::Resolver`]. Code written against `impl Submit` — tests
//! above all — runs unchanged whether the engine lives in-process or behind
//! a socket, which is what makes the network path's bit-identity claims
//! checkable: the *same* generic driver produces the baseline and the
//! networked run.

use std::time::Duration;

use pe_data::serving::Request;

use crate::queue::{SubmitError, Ticket};

/// The completion handle's former trait name, kept as an alias of
/// [`Ticket`] only because the benchmark harness in `benchmarks/` (its one
/// user) names it.
pub type SubmitHandle = Ticket;

/// The unified submission capability: accept a [`Request`], return a
/// future-style [`Ticket`].
///
/// Semantics every implementation upholds:
///
/// * [`Submit::submit`] applies **backpressure**: it may block while the
///   transport is saturated, and fails only when the serving path is gone
///   ([`SubmitError::Closed`]) — the request is handed back, so a
///   never-admitted request is always distinguishable from an in-flight
///   one cancelled by teardown.
/// * [`Submit::try_submit`] **never blocks indefinitely on capacity**: a
///   saturated transport is an explicit [`SubmitError::Full`] with the
///   request handed back, so shedding load is the caller's decision. (A
///   networked implementation performs one round trip to learn the
///   admission verdict, in this and the blocking mode both.)
/// * [`Submit::submit_with_deadline`] stamps the deadline budget into the
///   request's metadata before submitting, so admission control and the
///   batcher agree on it.
/// * Every accepted ticket **resolves** exactly once: with the served
///   response, an admission rejection, or [`crate::Outcome::Cancelled`] on
///   teardown (including a network connection dying under the request) —
///   never a hang.
pub trait Submit {
    /// Submits a request, blocking under backpressure.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the serving path is gone (queue closed,
    /// connection dead); the request is handed back.
    fn submit(&self, request: Request) -> Result<Ticket, SubmitError>;

    /// Submits without queue-capacity blocking; a saturated transport
    /// hands the request back.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] on a saturated transport,
    /// [`SubmitError::Closed`] on a dead one; both hand the request back.
    fn try_submit(&self, request: Request) -> Result<Ticket, SubmitError>;

    /// [`Submit::submit`] with an explicit deadline budget written into
    /// the request's metadata.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the serving path is gone.
    fn submit_with_deadline(
        &self,
        mut request: Request,
        deadline: Duration,
    ) -> Result<Ticket, SubmitError> {
        request.meta.deadline = Some(deadline);
        self.submit(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Outcome;
    use crate::queue::{channel, QueueConfig};
    use pe_tensor::Tensor;

    fn req(rows: usize) -> Request {
        Request::eval(Tensor::zeros([rows, 4]), Tensor::zeros([rows]))
    }

    /// A driver written against the trait, exercised over the in-process
    /// transport (the engine suites run the same shape over TCP).
    fn submit_and_cancel<S: Submit>(transport: &S) -> Vec<Ticket> {
        vec![
            transport.submit(req(1)).unwrap(),
            transport
                .submit_with_deadline(req(2), Duration::from_millis(5))
                .unwrap(),
            transport.try_submit(req(3)).unwrap(),
        ]
    }

    #[test]
    fn submitter_serves_the_trait_generically() {
        let (tx, rx) = channel(QueueConfig {
            capacity: 8,
            ..QueueConfig::default()
        });
        let handles = submit_and_cancel(&tx);
        // The deadline variant must stamp the budget into the metadata.
        let first = rx.try_pop().unwrap();
        assert_eq!(first.request().meta.deadline, None);
        let second = rx.try_pop().unwrap();
        assert_eq!(
            second.request().meta.deadline,
            Some(Duration::from_millis(5))
        );
        // Dropping the envelopes resolves every handle as Cancelled.
        drop(first);
        drop(second);
        drop(rx.try_pop().unwrap());
        for mut handle in handles {
            assert!(handle.is_ready());
            assert!(matches!(handle.try_take(), Some(Ok(Outcome::Cancelled))));
        }
    }

    #[test]
    fn full_and_closed_hand_the_request_back_through_the_trait() {
        let (tx, rx) = channel(QueueConfig {
            capacity: 1,
            ..QueueConfig::default()
        });
        let _held = Submit::submit(&tx, req(1)).unwrap();
        match Submit::try_submit(&tx, req(2)) {
            Err(SubmitError::Full(r)) => assert_eq!(r.rows(), 2),
            other => panic!("expected Full, got {other:?}"),
        }
        drop(rx);
        match Submit::submit(&tx, req(3)) {
            Err(SubmitError::Closed(r)) => assert_eq!(r.rows(), 3),
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}
