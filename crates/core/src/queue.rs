//! The bounded submission queue feeding the asynchronous engine.
//!
//! Producers and the engine's drainer communicate through a bounded MPSC
//! channel, built here on `Mutex` + `Condvar` (the container vendors no
//! async runtime, and the drainer is a plain thread — see
//! [`crate::engine::AsyncEngine`]):
//!
//! * [`channel`] creates a ([`Submitter`], [`Receiver`]) pair with a fixed
//!   capacity. [`Submitter`] is cheaply cloneable, so any number of producer
//!   threads can feed one queue.
//! * [`Submitter`] implements [`Submit`]: `submit` **blocks** while the
//!   queue is at capacity — the backpressure a bounded queue exists to
//!   apply — and `try_submit` never blocks: a full queue hands the request
//!   back as [`SubmitError::Full`], so callers can shed load explicitly
//!   instead of stalling.
//! * Every accepted request yields a [`Ticket`], a future-style handle the
//!   producer redeems for the request's [`Outcome`] once the drainer has
//!   resolved it. Tickets never dangle: the ticket's [`Resolver`] rides in
//!   the request's [`Envelope`], and a resolver dropped unfulfilled (a
//!   drainer torn down mid-flight) resolves its ticket with
//!   [`Outcome::Cancelled`].
//!
//! # Priority ordering
//!
//! The queue dispenses requests by [`Priority`] when it is backed up: the
//! drainer's pop returns the highest-priority queued request, FIFO within a
//! priority class. **Training requests are strict fences** — a train pops
//! only once it reaches the queue's front, and no request behind a queued
//! train is eligible before it. Only read-only evaluations between the
//! same two training steps ever reorder, which is why priority scheduling
//! stays bit-identical to in-order execution (evaluation results do not
//! depend on dispatch order between unchanged parameters). An empty-enough
//! queue degenerates to plain FIFO.
//!
//! Each request's [`crate::RequestMeta::deadline`] budget (or the queue default)
//! becomes an absolute **dispatch deadline**: the instant by which the
//! submitter wants the request dispatched. The batcher treats it as the
//! request's patience for companions — see `crate::batcher` for how
//! groups form under deadline budgets.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pe_data::serving::{Priority, Request, ServingKind};
use pe_runtime::ExecError;

use crate::admission::Outcome;
use crate::submit::Submit;

/// Submission-queue policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued (accepted but not yet dispatched) requests. Submitting
    /// beyond it blocks ([`Submit::submit`]) or is rejected
    /// ([`Submit::try_submit`]).
    pub capacity: usize,
    /// Deadline budget given to requests whose [`crate::RequestMeta::deadline`] is
    /// unset: how long a request may wait in the batcher for companions
    /// before it must be dispatched.
    pub default_deadline: Duration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            default_deadline: Duration::from_millis(2),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at capacity (only [`Submit::try_submit`] and
    /// [`Submitter::submit_for`] report this); the request is handed back
    /// untouched (boxed, so the error path stays cheap to return).
    Full(Box<Request>),
    /// The queue was closed (engine shut down); the request is handed back.
    Closed(Box<Request>),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "submission queue is full"),
            SubmitError::Closed(_) => write!(f, "submission queue is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// State of a ticket's completion slot.
#[derive(Debug)]
enum TicketSlot {
    /// The drainer has not resolved the request yet.
    Pending,
    /// Resolved at the recorded instant; the result awaits redemption.
    Ready(Box<Result<Outcome, ExecError>>, Instant),
    /// Resolved and already redeemed by [`Ticket::try_take`].
    Taken,
}

/// Shared completion cell between a [`Ticket`] and its [`Resolver`].
#[derive(Debug)]
struct TicketCell {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
    /// One registered completion watcher (see [`Ticket::watch`]), poked
    /// when the cell resolves.
    watcher: Mutex<Option<Arc<TicketNotify>>>,
}

impl TicketCell {
    fn fulfill(&self, result: Result<Outcome, ExecError>) {
        let mut slot = self.slot.lock().unwrap();
        if matches!(*slot, TicketSlot::Pending) {
            *slot = TicketSlot::Ready(Box::new(result), Instant::now());
            self.ready.notify_all();
            drop(slot);
            if let Some(notify) = self.watcher.lock().unwrap().as_ref() {
                notify.notify();
            }
        }
    }
}

/// A shared completion signal many [`Ticket`]s can be registered on.
///
/// A consumer that multiplexes tickets (the per-connection writer in
/// `pe_net`, say) cannot block in [`Ticket::wait`] — that commits the
/// thread to one ticket while others may resolve first. Instead it
/// registers every ticket on one `TicketNotify` via [`Ticket::watch`] and
/// sleeps on [`TicketNotify::wait`]; any resolution (in whatever order the
/// drainer fulfills tickets) bumps the generation counter and wakes it, so
/// the consumer drains completions in *completion order*.
#[derive(Debug, Default)]
pub struct TicketNotify {
    generation: Mutex<u64>,
    bumped: Condvar,
}

impl TicketNotify {
    /// A fresh signal at generation 0.
    pub fn new() -> Self {
        TicketNotify::default()
    }

    /// Bumps the generation and wakes every waiter. Public so producers
    /// multiplexing tickets with other event sources (new submissions, a
    /// shutdown flag) can share the one condvar.
    pub fn notify(&self) {
        *self.generation.lock().unwrap() += 1;
        self.bumped.notify_all();
    }

    /// The current generation; pass it to [`TicketNotify::wait`] to sleep
    /// until the next [`TicketNotify::notify`].
    pub fn generation(&self) -> u64 {
        *self.generation.lock().unwrap()
    }

    /// Blocks until the generation advances past `seen` or `timeout`
    /// elapses, returning the current generation. The timeout makes the
    /// wait robust against signals registered *after* a resolution already
    /// fired — callers re-scan their tickets on every wakeup.
    pub fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        let mut generation = self.generation.lock().unwrap();
        let deadline = Instant::now() + timeout;
        while *generation == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, _) = self
                .bumped
                .wait_timeout(generation, deadline - now)
                .unwrap();
            generation = next;
        }
        *generation
    }
}

/// A future-style handle for one accepted request: redeem it with
/// [`Ticket::wait`] once the drainer has resolved the request, or poll it
/// with [`Ticket::try_take`]. The resolved value is the same [`Outcome`]
/// vocabulary the synchronous paths return — completed, rejected by
/// admission control, or cancelled.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
    seq: usize,
}

impl Ticket {
    /// A pending ticket and the [`Resolver`] that completes it. Whoever
    /// holds the resolver owes the ticket exactly one result: fulfilling
    /// it, or dropping it (which resolves the ticket
    /// [`Outcome::Cancelled`]).
    pub fn pending(seq: usize) -> (Ticket, Resolver) {
        let cell = Arc::new(TicketCell {
            slot: Mutex::new(TicketSlot::Pending),
            ready: Condvar::new(),
            watcher: Mutex::new(None),
        });
        let resolver = Resolver {
            cell: Arc::clone(&cell),
        };
        (Ticket { cell, seq }, resolver)
    }

    /// The `seq` the ticket was made with: for a queue ticket, the
    /// request's submission sequence number (the `id` its
    /// [`crate::engine::Response`] will carry); for a ticket a `pe_net`
    /// client hands out, the submission's wire correlation id.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Whether the request has been resolved (stays `true` after the result
    /// was redeemed with [`Ticket::try_take`]).
    pub fn is_ready(&self) -> bool {
        !matches!(*self.cell.slot.lock().unwrap(), TicketSlot::Pending)
    }

    /// Registers `notify` to be poked when this ticket resolves, replacing
    /// any earlier watcher. If the ticket is already resolved the signal
    /// fires immediately, so a watcher registered late never sleeps through
    /// a completion. Poll with [`Ticket::try_take`] on each wakeup.
    pub fn watch(&self, notify: Arc<TicketNotify>) {
        *self.cell.watcher.lock().unwrap() = Some(notify);
        if self.is_ready() {
            let watcher = self.cell.watcher.lock().unwrap();
            if let Some(notify) = watcher.as_ref() {
                notify.notify();
            }
        }
    }

    /// Takes the result without blocking, if the request has been resolved.
    /// Returns `None` both while pending and after the result was already
    /// taken.
    pub fn try_take(&mut self) -> Option<Result<Outcome, ExecError>> {
        let mut slot = self.cell.slot.lock().unwrap();
        if matches!(*slot, TicketSlot::Ready(..)) {
            if let TicketSlot::Ready(result, _) = std::mem::replace(&mut *slot, TicketSlot::Taken) {
                return Some(*result);
            }
        }
        None
    }

    /// Blocks until the request has been resolved and returns its
    /// [`Outcome`] (or the executor's input error).
    ///
    /// # Panics
    ///
    /// Panics if the result was already redeemed via [`Ticket::try_take`]
    /// (rather than blocking forever on a result that cannot arrive again).
    pub fn wait(self) -> Result<Outcome, ExecError> {
        self.wait_timed().0
    }

    /// [`Ticket::wait`], additionally returning the instant the drainer
    /// resolved the request. A latency measurement taken from this instant
    /// is immune to redemption-order delays: a waiter draining tickets in
    /// submission order observes the true completion time even when
    /// priority scheduling resolved tickets out of that order.
    ///
    /// # Panics
    ///
    /// Panics if the result was already redeemed via [`Ticket::try_take`].
    pub fn wait_timed(self) -> (Result<Outcome, ExecError>, Instant) {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            match &*slot {
                TicketSlot::Ready(_, at) => {
                    let at = *at;
                    match std::mem::replace(&mut *slot, TicketSlot::Taken) {
                        TicketSlot::Ready(result, _) => return (*result, at),
                        _ => unreachable!("slot was just observed Ready"),
                    }
                }
                TicketSlot::Taken => {
                    panic!("ticket result was already taken via try_take")
                }
                TicketSlot::Pending => {
                    slot = self.cell.ready.wait(slot).unwrap();
                }
            }
        }
    }
}

/// The producer side of a [`Ticket`], made by [`Ticket::pending`].
///
/// Dropping a resolver unfulfilled resolves its ticket with
/// [`Outcome::Cancelled`], so a ticket never waits on a result nobody owes
/// any more.
#[derive(Debug)]
pub struct Resolver {
    cell: Arc<TicketCell>,
}

impl Resolver {
    /// Resolves the ticket with `result`.
    pub fn fulfill(self, result: Result<Outcome, ExecError>) {
        self.cell.fulfill(result);
        // Drop runs next but finds the cell already fulfilled.
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        self.cell.fulfill(Ok(Outcome::Cancelled));
    }
}

/// One queued request on the drainer side: the request (payload + meta),
/// its submission sequence number, its absolute dispatch deadline, and the
/// [`Resolver`] of the producer's ticket.
///
/// Dropping an envelope unserved drops its resolver, which resolves the
/// ticket with [`Outcome::Cancelled`], so producers never wait on a
/// request a drainer abandoned.
#[derive(Debug)]
pub struct Envelope {
    seq: usize,
    deadline: Instant,
    request: Option<Request>,
    resolver: Resolver,
}

impl Envelope {
    /// The submission sequence number.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// The instant by which the request wants to be dispatched.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The queued request.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Envelope::take_request`].
    pub(crate) fn request(&self) -> &Request {
        self.request.as_ref().expect("request already taken")
    }

    /// Moves the request out (for zero-copy dispatch).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_request(&mut self) -> Request {
        self.request.take().expect("request already taken")
    }

    /// Number of rows the queued request carries.
    pub(crate) fn rows(&self) -> usize {
        self.request().rows()
    }

    /// Whether the queued request trains or evaluates.
    pub(crate) fn kind(&self) -> ServingKind {
        self.request().kind
    }

    /// The queued request's scheduling priority.
    pub(crate) fn priority(&self) -> Priority {
        self.request().meta.priority
    }

    /// Resolves the producer's ticket.
    pub fn fulfill(self, result: Result<Outcome, ExecError>) {
        self.resolver.fulfill(result);
    }
}

/// Queue state behind the mutex.
#[derive(Debug)]
struct State {
    items: VecDeque<Envelope>,
    closed: bool,
    next_seq: usize,
}

impl State {
    /// Index the drainer should pop next: the front train if one leads the
    /// queue, else the highest-priority evaluation before the first queued
    /// train (FIFO within a priority class). Trains are fences — nothing
    /// behind one is eligible before it.
    fn pop_index(&self) -> Option<usize> {
        if self.items.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, envelope) in self.items.iter().enumerate() {
            if envelope.kind() == ServingKind::Train {
                if i == 0 {
                    return Some(0);
                }
                break;
            }
            if envelope.priority() > self.items[best].priority() {
                best = i;
            }
        }
        Some(best)
    }

    fn pop_next(&mut self) -> Option<Envelope> {
        let index = self.pop_index()?;
        self.items.remove(index)
    }
}

/// The shared bounded MPSC queue.
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    default_deadline: Duration,
}

impl Shared {
    fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Creates a bounded submission queue: a cloneable producer handle and the
/// single consumer end the drainer owns.
///
/// # Panics
///
/// Panics if the configured capacity is 0.
pub fn channel(config: QueueConfig) -> (Submitter, Receiver) {
    assert!(config.capacity > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(config.capacity),
            closed: false,
            next_seq: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity: config.capacity,
        default_deadline: config.default_deadline,
    });
    (
        Submitter {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Cloneable producer handle of a submission queue.
#[derive(Debug, Clone)]
pub struct Submitter {
    shared: Arc<Shared>,
}

impl Submitter {
    /// [`Submit::submit`] bounded to `wait`: blocks on a full queue like
    /// `submit`, but hands the request back as [`SubmitError::Full`] when
    /// no room opened within the window. Admission is condvar-driven, so
    /// room opening mid-wait admits immediately rather than on a poll tick
    /// — `pe_net`'s reader interleaves these with socket polls so a
    /// backpressure stall never makes the connection deaf to control
    /// frames.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Full`] when the queue stayed full for the
    /// whole window and [`SubmitError::Closed`] on a closed queue.
    pub fn submit_for(&self, request: Request, wait: Duration) -> Result<Ticket, SubmitError> {
        self.admit(request, Some(wait))
    }

    /// The one admission loop: enqueues `request`, waiting for room while
    /// the queue is full — without bound for `None`, else for at most
    /// `wait` (zero: not at all). The batching deadline is the request's
    /// own [`crate::RequestMeta::deadline`] budget, or the queue default
    /// when the request carries none.
    fn admit(&self, request: Request, wait: Option<Duration>) -> Result<Ticket, SubmitError> {
        let budget = request
            .meta
            .deadline
            .unwrap_or(self.shared.default_deadline);
        let give_up = wait.map(|wait| Instant::now() + wait);
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.closed {
                return Err(SubmitError::Closed(Box::new(request)));
            }
            if state.items.len() < self.shared.capacity {
                return Ok(push(&self.shared, &mut state, request, budget));
            }
            state = match give_up {
                None => self.shared.not_full.wait(state).unwrap(),
                Some(give_up) => {
                    let now = Instant::now();
                    if now >= give_up {
                        return Err(SubmitError::Full(Box::new(request)));
                    }
                    let timeout = give_up - now;
                    self.shared.not_full.wait_timeout(state, timeout).unwrap().0
                }
            };
        }
    }

    /// Requests currently queued (accepted, not yet popped by the drainer).
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().items.len()
    }

    /// Whether the queue holds no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending requests still drain, but every later
    /// submission fails with [`SubmitError::Closed`].
    pub fn close(&self) {
        self.shared.close();
    }
}

impl Submit for Submitter {
    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.admit(request, None)
    }

    fn try_submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.admit(request, Some(Duration::ZERO))
    }
}

fn push(shared: &Shared, state: &mut State, request: Request, budget: Duration) -> Ticket {
    let seq = state.next_seq;
    state.next_seq += 1;
    let (ticket, resolver) = Ticket::pending(seq);
    state.items.push_back(Envelope {
        seq,
        deadline: Instant::now() + budget,
        request: Some(request),
        resolver,
    });
    shared.not_empty.notify_one();
    ticket
}

/// Outcome of a [`Receiver::pop`].
#[derive(Debug)]
pub enum Pop {
    /// The next queued request by priority order (see the module docs;
    /// boxed to keep the control-flow enum small).
    Item(Box<Envelope>),
    /// `wait_until` passed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained: no request will ever arrive.
    Drained,
}

/// The consumer end of a submission queue (owned by the drainer).
///
/// Dropping the receiver closes the queue, so producers blocked in
/// [`Submit::submit`] unblock with [`SubmitError::Closed`] instead of
/// waiting forever on a dead drainer.
#[derive(Debug)]
pub struct Receiver {
    shared: Arc<Shared>,
}

impl Receiver {
    /// Pops the next request by priority order, blocking until one
    /// arrives, `wait_until` passes ([`Pop::TimedOut`]), or the queue is
    /// closed *and* empty ([`Pop::Drained`]). `None` waits with no timeout.
    pub fn pop(&self, wait_until: Option<Instant>) -> Pop {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if let Some(envelope) = state.pop_next() {
                drop(state);
                self.shared.not_full.notify_one();
                return Pop::Item(Box::new(envelope));
            }
            if state.closed {
                return Pop::Drained;
            }
            match wait_until {
                None => state = self.shared.not_empty.wait(state).unwrap(),
                Some(until) => {
                    let now = Instant::now();
                    if now >= until {
                        return Pop::TimedOut;
                    }
                    let (s, timeout) = self
                        .shared
                        .not_empty
                        .wait_timeout(state, until - now)
                        .unwrap();
                    state = s;
                    if timeout.timed_out() && state.items.is_empty() {
                        return if state.closed {
                            Pop::Drained
                        } else {
                            Pop::TimedOut
                        };
                    }
                }
            }
        }
    }

    /// Pops the next request by priority order without blocking.
    pub fn try_pop(&self) -> Option<Envelope> {
        let envelope = self.shared.state.lock().unwrap().pop_next();
        if envelope.is_some() {
            self.shared.not_full.notify_one();
        }
        envelope
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.shared.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_tensor::Tensor;

    fn req(rows: usize) -> Request {
        Request::eval(Tensor::zeros([rows, 4]), Tensor::zeros([rows]))
    }

    fn train(rows: usize) -> Request {
        Request::train(Tensor::zeros([rows, 4]), Tensor::zeros([rows]))
    }

    fn cfg(capacity: usize) -> QueueConfig {
        QueueConfig {
            capacity,
            default_deadline: Duration::from_millis(1),
        }
    }

    #[test]
    fn try_submit_rejects_when_full_and_hands_the_request_back() {
        let (tx, rx) = channel(cfg(2));
        tx.try_submit(req(1)).unwrap();
        tx.try_submit(req(2)).unwrap();
        assert_eq!(tx.len(), 2);
        match tx.try_submit(req(3)) {
            Err(SubmitError::Full(r)) => assert_eq!(r.rows(), 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one slot makes room again.
        let popped = rx.try_pop().unwrap();
        assert_eq!(popped.seq(), 0);
        tx.try_submit(req(3)).unwrap();
    }

    #[test]
    fn fifo_order_and_seq_numbers_at_equal_priority() {
        let (tx, rx) = channel(cfg(8));
        let t0 = tx.submit(req(1)).unwrap();
        let t1 = tx.submit(req(2)).unwrap();
        assert_eq!((t0.seq(), t1.seq()), (0, 1));
        assert_eq!(rx.try_pop().unwrap().rows(), 1);
        assert_eq!(rx.try_pop().unwrap().rows(), 2);
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn higher_priority_evals_pop_first() {
        let (tx, rx) = channel(cfg(8));
        tx.submit(req(1).priority(Priority::Low)).unwrap();
        tx.submit(req(2).priority(Priority::Normal)).unwrap();
        tx.submit(req(3).priority(Priority::High)).unwrap();
        tx.submit(req(4).priority(Priority::High)).unwrap();
        let order: Vec<usize> = (0..4).map(|_| rx.try_pop().unwrap().rows()).collect();
        // High first (FIFO within the class), then normal, then low.
        assert_eq!(order, vec![3, 4, 2, 1]);
    }

    #[test]
    fn trains_fence_priority_reordering() {
        let (tx, rx) = channel(cfg(8));
        tx.submit(req(1).priority(Priority::Low)).unwrap();
        tx.submit(train(2).priority(Priority::Low)).unwrap();
        tx.submit(req(3).priority(Priority::High)).unwrap();
        // The high-priority eval sits behind the train: not eligible.
        assert_eq!(rx.try_pop().unwrap().rows(), 1);
        // The train pops only at the front, regardless of its priority.
        let t = rx.try_pop().unwrap();
        assert_eq!((t.rows(), t.kind()), (2, ServingKind::Train));
        assert_eq!(rx.try_pop().unwrap().rows(), 3);
    }

    #[test]
    fn submit_blocks_until_capacity_frees() {
        let (tx, rx) = channel(cfg(1));
        tx.submit(req(1)).unwrap();
        let producer = std::thread::spawn(move || {
            // Blocks until the main thread pops.
            tx.submit(req(2)).unwrap();
            tx
        });
        std::thread::sleep(Duration::from_millis(20));
        let queued = rx.shared.state.lock().unwrap().items.len();
        assert_eq!(queued, 1, "producer must still be blocked");
        let first = rx.pop(None);
        assert!(matches!(first, Pop::Item(_)));
        let tx = producer.join().unwrap();
        assert_eq!(tx.len(), 1);
    }

    #[test]
    fn bounded_submit_hands_the_request_back_on_timeout_and_admits_on_room() {
        let (tx, rx) = channel(cfg(1));
        tx.submit(req(1)).unwrap();
        // Full for the whole window: Full, request intact.
        match tx.submit_for(req(2), Duration::from_millis(10)) {
            Err(SubmitError::Full(r)) => assert_eq!(r.rows(), 2),
            other => panic!("expected Full, got {other:?}"),
        }
        // Room opening mid-wait admits via the condvar, not a poll tick.
        let producer = std::thread::spawn(move || {
            tx.submit_for(req(3), Duration::from_secs(5)).unwrap();
            tx
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(rx.try_pop().is_some());
        let tx = producer.join().unwrap();
        assert_eq!(tx.len(), 1);
        // Closed queue: Closed, not Full, even while at capacity.
        tx.close();
        assert!(matches!(
            tx.submit_for(req(4), Duration::from_millis(10)),
            Err(SubmitError::Closed(_))
        ));
    }

    #[test]
    fn closed_queue_rejects_submissions_but_drains() {
        let (tx, rx) = channel(cfg(4));
        tx.submit(req(1)).unwrap();
        tx.close();
        assert!(matches!(tx.submit(req(2)), Err(SubmitError::Closed(_))));
        assert!(matches!(tx.try_submit(req(2)), Err(SubmitError::Closed(_))));
        assert!(matches!(rx.pop(None), Pop::Item(_)));
        assert!(matches!(rx.pop(None), Pop::Drained));
    }

    #[test]
    fn pop_times_out_on_an_empty_open_queue() {
        let (_tx, rx) = channel(cfg(4));
        let start = Instant::now();
        let outcome = rx.pop(Some(Instant::now() + Duration::from_millis(10)));
        assert!(matches!(outcome, Pop::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn submitted_deadline_budget_lands_in_the_meta() {
        let (tx, rx) = channel(cfg(4));
        tx.submit_with_deadline(req(1), Duration::from_millis(7))
            .unwrap();
        let envelope = rx.try_pop().unwrap();
        assert_eq!(
            envelope.request().meta.deadline,
            Some(Duration::from_millis(7)),
            "explicit budgets must be visible to admission control"
        );
    }

    #[test]
    fn dropping_an_unserved_envelope_cancels_its_ticket() {
        let (tx, rx) = channel(cfg(4));
        let ticket = tx.submit(req(1)).unwrap();
        drop(rx.try_pop().unwrap());
        assert!(matches!(ticket.wait(), Ok(Outcome::Cancelled)));
    }

    #[test]
    fn dropping_an_unfulfilled_resolver_cancels_and_pokes_the_watcher() {
        let notify = Arc::new(TicketNotify::new());
        let (mut ticket, resolver) = Ticket::pending(7);
        assert_eq!(ticket.seq(), 7);
        ticket.watch(Arc::clone(&notify));
        let seen = notify.generation();
        assert!(!ticket.is_ready());
        drop(resolver);
        assert!(notify.wait(seen, Duration::from_secs(5)) > seen);
        assert!(matches!(ticket.try_take(), Some(Ok(Outcome::Cancelled))));
    }

    #[test]
    fn fulfill_resolves_exactly_once() {
        let notify = Arc::new(TicketNotify::new());
        let (ticket, resolver) = Ticket::pending(0);
        ticket.watch(Arc::clone(&notify));
        let seen = notify.generation();
        let reason = crate::RejectReason::DeadlineInfeasible {
            estimated: Duration::from_millis(2),
            budget: Duration::from_millis(1),
        };
        resolver.fulfill(Ok(Outcome::Rejected(reason)));
        // The resolver's drop after `fulfill` neither overwrites the result
        // with `Cancelled` nor pokes the watcher a second time.
        assert_eq!(notify.generation(), seen + 1);
        assert!(matches!(ticket.wait(), Ok(Outcome::Rejected(r)) if r == reason));
    }

    #[test]
    fn try_take_redeems_once_and_is_ready_stays_true() {
        let (tx, rx) = channel(cfg(4));
        let mut ticket = tx.submit(req(1)).unwrap();
        assert!(!ticket.is_ready());
        assert!(ticket.try_take().is_none(), "pending: nothing to take");
        // Resolve it (cancellation counts as a result).
        drop(rx.try_pop().unwrap());
        assert!(ticket.is_ready());
        assert!(matches!(ticket.try_take(), Some(Ok(Outcome::Cancelled))));
        assert!(ticket.is_ready(), "resolved state must not revert");
        assert!(ticket.try_take().is_none(), "a result redeems only once");
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn wait_after_try_take_panics_instead_of_hanging() {
        let (tx, rx) = channel(cfg(4));
        let mut ticket = tx.submit(req(1)).unwrap();
        drop(rx.try_pop().unwrap());
        let _ = ticket.try_take();
        let _ = ticket.wait();
    }

    #[test]
    fn watch_signals_on_resolution_and_immediately_when_late() {
        let (tx, rx) = channel(cfg(4));
        let notify = Arc::new(TicketNotify::new());
        let mut early = tx.submit(req(1)).unwrap();
        early.watch(Arc::clone(&notify));
        let seen = notify.generation();
        drop(rx.try_pop().unwrap()); // resolves the ticket as Cancelled
        assert!(notify.wait(seen, Duration::from_secs(5)) > seen);
        assert!(matches!(early.try_take(), Some(Ok(Outcome::Cancelled))));
        // Watching a ticket that already resolved fires immediately, so a
        // late watcher never sleeps through the completion.
        let mut late = tx.submit(req(1)).unwrap();
        drop(rx.try_pop().unwrap());
        let seen = notify.generation();
        late.watch(Arc::clone(&notify));
        assert!(notify.wait(seen, Duration::from_secs(5)) > seen);
        assert!(matches!(late.try_take(), Some(Ok(Outcome::Cancelled))));
    }

    #[test]
    fn notify_wait_times_out_without_a_signal() {
        let notify = TicketNotify::new();
        let seen = notify.generation();
        let start = Instant::now();
        assert_eq!(notify.wait(seen, Duration::from_millis(10)), seen);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn dropping_the_receiver_closes_the_queue() {
        let (tx, rx) = channel(cfg(4));
        drop(rx);
        assert!(matches!(tx.submit(req(1)), Err(SubmitError::Closed(_))));
    }
}
