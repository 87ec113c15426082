//! # pe-fleet
//!
//! The multi-process serving fleet: a [`Balancer`] that listens on the
//! `pe_net` wire protocol — so [`pe_net::Client`] and every
//! `pockengine::Submit` driver work unchanged — and fans submissions out
//! to a pool of upstream `pe-server` workers.
//!
//! Routing rules:
//!
//! * **Evals** go to the *least-in-flight* healthy worker. An eval is a
//!   stateless read, so when a worker dies mid-request its in-flight evals
//!   re-dispatch to a healthy peer instead of resolving `Cancelled` — the
//!   caller never observes the failure.
//! * **Trains** are strict fences, exactly as in the in-process queue: the
//!   balancer waits for every in-flight eval to resolve, routes the train
//!   to the single *primary* (the lowest-indexed healthy worker), then
//!   broadcasts the primary's post-train [`pe_runtime::ParamStore`]
//!   snapshot to every follower (the `Checkpoint` frame) before the next
//!   eval dispatches. A mixed train/eval stream through the fleet is
//!   therefore bit-identical to a single in-process engine.
//! * **Health**: a probe thread `Ping`s every worker on an interval; a
//!   failed probe marks the worker down (severing its connection, which
//!   re-homes its in-flight evals) and reconnects with exponential
//!   backoff, pushing the latest checkpoint before the worker takes
//!   traffic again.
//!
//! The balancer's front door *is* [`pe_net::ServerCore`] over its own
//! priority/fence queue, so admission ordering, backpressure and the
//! disconnect guarantees are the battle-tested single-server code paths.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pe_net::{Client, ServerConfig, ServerCore};
use pockengine::pe_data::serving::Request;
use pockengine::queue::{self, Envelope, Pop, Receiver};
use pockengine::{
    Outcome, QueueConfig, ServingKind, Submit, SubmitError, Submitter, Ticket, TicketNotify,
};

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Front-door listener configuration (bind address, frame and
    /// connection limits) — the same knobs as a single `pe-server`.
    pub server: ServerConfig,
    /// The balancer's own submission queue (capacity, default deadline).
    /// Priority order and train fences come from this queue, so they
    /// match the in-process engine exactly.
    pub queue: QueueConfig,
    /// How often the health thread probes each worker.
    pub health_interval: Duration,
    /// How long a `Ping` may go unanswered before the worker is marked
    /// down.
    pub probe_timeout: Duration,
    /// TCP connect + handshake bound for worker (re)connects.
    pub connect_timeout: Duration,
    /// First reconnect delay after a failed reconnect attempt; doubles per
    /// failure up to a 5 s ceiling.
    pub initial_backoff: Duration,
}

/// Reconnect backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_secs(5);
/// Bound on one checkpoint fetch or push round trip.
const CHECKPOINT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a dispatch waits for *any* worker to come up before resolving
/// the request `Cancelled`. This is the fleet's no-hang guarantee when
/// every worker is down.
const NO_WORKER_GRACE: Duration = Duration::from_secs(5);
/// Re-dispatch attempts per eval before giving up (each attempt goes to a
/// different healthy worker when one exists).
const MAX_REDISPATCH: usize = 8;

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            server: ServerConfig::default(),
            queue: QueueConfig::default(),
            health_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(1),
            initial_backoff: Duration::from_millis(100),
        }
    }
}

/// One worker's live accounting, as reported by [`FleetStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's address, as configured.
    pub(crate) addr: String,
    /// Whether the worker is currently healthy (connected and answering
    /// probes).
    pub up: bool,
    /// Requests dispatched to this worker and not yet resolved.
    pub in_flight: usize,
    /// Requests ever dispatched to this worker (including re-dispatches
    /// *to* it).
    pub dispatched: u64,
    /// Requests this worker resolved (completed or rejected).
    pub(crate) completed: u64,
    /// In-flight evals lost by this worker and re-homed to a peer.
    pub(crate) redispatched: u64,
    /// Times the worker was marked down.
    pub(crate) mark_downs: u64,
    /// Times the worker came back up after a mark-down.
    pub(crate) reconnects: u64,
}

/// A point-in-time snapshot of the fleet's routing counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Per-worker accounting, in configuration order.
    pub workers: Vec<WorkerStats>,
    /// Evals routed (first dispatch, not counting re-dispatches).
    pub evals_routed: u64,
    /// Trains routed through the primary.
    pub trains_routed: u64,
    /// Post-train checkpoint broadcasts performed.
    pub checkpoints_broadcast: u64,
    /// Eval re-dispatches after a worker loss.
    pub redispatches: u64,
    /// Requests the fleet gave up on (resolved `Cancelled`: no healthy
    /// worker within the grace period, or a primary lost mid-train).
    pub cancelled: u64,
}

impl FleetStats {
    /// Number of workers currently healthy.
    pub fn workers_up(&self) -> usize {
        self.workers.iter().filter(|w| w.up).count()
    }
}

struct Worker {
    addr: String,
    /// `Some` while connected. Dropping the client severs the connection,
    /// which resolves its in-flight tickets `Cancelled` — the reaper then
    /// re-homes them.
    client: Mutex<Option<Client>>,
    up: AtomicBool,
    in_flight: AtomicUsize,
    backoff: Mutex<Duration>,
    next_reconnect: Mutex<Instant>,
    dispatched: AtomicU64,
    completed: AtomicU64,
    redispatched: AtomicU64,
    mark_downs: AtomicU64,
    reconnects: AtomicU64,
}

impl Worker {
    fn new(addr: String, client: Option<Client>, initial_backoff: Duration) -> Worker {
        let up = client.is_some();
        Worker {
            addr,
            client: Mutex::new(client),
            up: AtomicBool::new(up),
            in_flight: AtomicUsize::new(0),
            backoff: Mutex::new(initial_backoff),
            next_reconnect: Mutex::new(Instant::now()),
            dispatched: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            redispatched: AtomicU64::new(0),
            mark_downs: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    fn client(&self) -> Option<Client> {
        self.client.lock().unwrap().clone()
    }
}

/// One dispatched-but-unresolved eval.
struct InFlight {
    envelope: Envelope,
    /// Retained clone for re-dispatch after a worker loss.
    request: Request,
    worker: usize,
    ticket: Ticket,
    attempts: usize,
}

/// A lost eval the reaper is re-homing but has not yet placed on a worker
/// (every worker is down right now). Parked entries stay counted in
/// [`Window::pending`], so the train fence waits for them too.
struct Parked {
    envelope: Envelope,
    request: Request,
    /// The worker that lost it — avoided on re-dispatch when a peer exists.
    from: usize,
    attempts: usize,
    /// When the fleet gives up and resolves the eval `Cancelled`.
    give_up: Instant,
}

/// The eval window the train fence waits on, under one mutex: dispatched
/// entries awaiting resolution, plus the count of entries the reaper has
/// pulled out but not yet fulfilled or re-dispatched. A train may only run
/// once **both** are zero — a lost eval pending re-home is still "in
/// flight" as far as the fence is concerned, otherwise the re-dispatched
/// eval could execute against post-train params.
#[derive(Default)]
struct Window {
    entries: HashMap<u64, InFlight>,
    /// Entries removed by the reaper whose envelopes are not yet fulfilled
    /// and that have not been re-inserted into `entries`.
    pending: usize,
}

impl Window {
    fn is_drained(&self) -> bool {
        self.entries.is_empty() && self.pending == 0
    }
}

struct FleetShared {
    config: BalancerConfig,
    workers: Vec<Worker>,
    in_flight: Mutex<Window>,
    next_id: AtomicU64,
    /// Poked by every in-flight ticket's resolution (and by shutdown);
    /// the reaper sleeps on it.
    resolved: Arc<TicketNotify>,
    /// Paired with `in_flight`: the router waits here for the eval window
    /// to drain before dispatching a train (the fence).
    drained: Condvar,
    shutting_down: AtomicBool,
    router_done: AtomicBool,
    /// The primary's latest post-train snapshot, pushed to reconnecting
    /// workers before they take traffic.
    checkpoint: Mutex<Option<Vec<u8>>>,
    evals_routed: AtomicU64,
    trains_routed: AtomicU64,
    checkpoints_broadcast: AtomicU64,
    redispatches: AtomicU64,
    cancelled: AtomicU64,
}

impl FleetShared {
    /// Marks a worker down (idempotent) and drops its client, severing the
    /// connection so its in-flight tickets resolve `Cancelled` and re-home.
    fn mark_down(&self, idx: usize) {
        let worker = &self.workers[idx];
        if worker.up.swap(false, Ordering::SeqCst) {
            worker.mark_downs.fetch_add(1, Ordering::Relaxed);
            *worker.backoff.lock().unwrap() = self.config.initial_backoff;
            // First reconnect attempt is immediate; backoff grows only on
            // failed attempts.
            *worker.next_reconnect.lock().unwrap() = Instant::now();
        }
        *worker.client.lock().unwrap() = None;
    }

    /// The healthy worker with the fewest in-flight requests, skipping
    /// `avoid` whenever another healthy worker exists.
    fn pick_eval_worker(&self, avoid: Option<usize>) -> Option<usize> {
        let up = |(_, w): &(usize, &Worker)| w.up.load(Ordering::SeqCst);
        let load = |(_, w): &(usize, &Worker)| w.in_flight.load(Ordering::SeqCst);
        let candidates = || self.workers.iter().enumerate().filter(up);
        candidates()
            .filter(|(idx, _)| Some(*idx) != avoid)
            .min_by_key(load)
            .or_else(|| candidates().min_by_key(load))
            .map(|(idx, _)| idx)
    }

    /// The current primary: the lowest-indexed healthy worker.
    fn primary(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.up.load(Ordering::SeqCst))
    }

    /// Retires one reaper-held eval (its envelope was fulfilled, or it was
    /// re-inserted into the window); wakes the train fence when the window
    /// fully drains.
    fn settle_pending(&self) {
        let mut window = self.in_flight.lock().unwrap();
        window.pending -= 1;
        if window.is_drained() {
            self.drained.notify_all();
        }
    }
}

/// The fleet front door: owns the listener, the routing threads and the
/// worker connections. Dropping without [`Balancer::shutdown`] also shuts
/// down cleanly (queued and in-flight requests resolve, never hang).
pub struct Balancer {
    core: ServerCore,
    shared: Arc<FleetShared>,
    submitter: Submitter,
    router: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Balancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Balancer")
            .field("local_addr", &self.core.local_addr())
            .field("workers", &self.shared.workers.len())
            .finish()
    }
}

impl Balancer {
    /// Connects to `worker_addrs` (each a `pe-server` speaking the wire
    /// protocol), binds the front door and starts the router, reaper and
    /// health threads. Workers that refuse the initial connection start
    /// *down* and are retried on the health interval — but at least one
    /// worker must be reachable now.
    ///
    /// # Errors
    ///
    /// An empty address list, every worker unreachable, or a front-door
    /// bind failure.
    pub fn spawn(worker_addrs: &[String], config: BalancerConfig) -> io::Result<Balancer> {
        if worker_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one worker address",
            ));
        }
        let mut workers = Vec::with_capacity(worker_addrs.len());
        for addr in worker_addrs {
            let client = Client::connect_timeout(addr.as_str(), config.connect_timeout).ok();
            workers.push(Worker::new(addr.clone(), client, config.initial_backoff));
        }
        if !workers.iter().any(|w| w.up.load(Ordering::SeqCst)) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no worker reachable among {worker_addrs:?}"),
            ));
        }
        let (submitter, receiver) = queue::channel(config.queue);
        let core = ServerCore::spawn(submitter.clone(), None, config.server.clone())?;
        let shared = Arc::new(FleetShared {
            config,
            workers,
            in_flight: Mutex::new(Window::default()),
            next_id: AtomicU64::new(0),
            resolved: Arc::new(TicketNotify::new()),
            drained: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            router_done: AtomicBool::new(false),
            checkpoint: Mutex::new(None),
            evals_routed: AtomicU64::new(0),
            trains_routed: AtomicU64::new(0),
            checkpoints_broadcast: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let spawn = |name: &str, f: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .expect("spawn fleet thread")
        };
        let router_shared = Arc::clone(&shared);
        let router = spawn(
            "pe-fleet-router",
            Box::new(move || router_loop(&router_shared, &receiver)),
        );
        let reaper_shared = Arc::clone(&shared);
        let reaper = spawn(
            "pe-fleet-reaper",
            Box::new(move || reaper_loop(&reaper_shared)),
        );
        let health_shared = Arc::clone(&shared);
        let health = spawn(
            "pe-fleet-health",
            Box::new(move || health_loop(&health_shared)),
        );
        Ok(Balancer {
            core,
            shared,
            submitter,
            router: Some(router),
            reaper: Some(reaper),
            health: Some(health),
        })
    }

    /// The front door's bound address (resolves an ephemeral-port bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// A snapshot of the routing counters.
    pub fn stats(&self) -> FleetStats {
        let shared = &self.shared;
        FleetStats {
            workers: shared
                .workers
                .iter()
                .map(|w| WorkerStats {
                    addr: w.addr.clone(),
                    up: w.up.load(Ordering::SeqCst),
                    in_flight: w.in_flight.load(Ordering::SeqCst),
                    dispatched: w.dispatched.load(Ordering::Relaxed),
                    completed: w.completed.load(Ordering::Relaxed),
                    redispatched: w.redispatched.load(Ordering::Relaxed),
                    mark_downs: w.mark_downs.load(Ordering::Relaxed),
                    reconnects: w.reconnects.load(Ordering::Relaxed),
                })
                .collect(),
            evals_routed: shared.evals_routed.load(Ordering::Relaxed),
            trains_routed: shared.trains_routed.load(Ordering::Relaxed),
            checkpoints_broadcast: shared.checkpoints_broadcast.load(Ordering::Relaxed),
            redispatches: shared.redispatches.load(Ordering::Relaxed),
            cancelled: shared.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Stops the front door, drains the queue through the workers (every
    /// accepted request resolves), joins the threads and disconnects.
    /// Returns the final routing counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Order matters: close the front door first (no new submissions),
        // then the queue — the router drains what was admitted, so every
        // accepted ticket still resolves through a worker.
        self.core.stop();
        self.submitter.close();
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.resolved.notify();
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
        for worker in &self.shared.workers {
            *worker.client.lock().unwrap() = None;
        }
    }
}

impl Drop for Balancer {
    fn drop(&mut self) {
        if self.router.is_some() || self.reaper.is_some() || self.health.is_some() {
            self.stop();
        }
    }
}

/// Pops the balancer queue and routes: evals to the least-loaded worker,
/// trains through the fence + primary + broadcast protocol. Runs until the
/// queue closes and drains.
fn router_loop(shared: &Arc<FleetShared>, receiver: &Receiver) {
    loop {
        match receiver.pop(None) {
            Pop::Item(envelope) => route(shared, *envelope),
            Pop::TimedOut => continue,
            Pop::Drained => break,
        }
    }
    shared.router_done.store(true, Ordering::SeqCst);
    shared.resolved.notify();
}

fn route(shared: &Arc<FleetShared>, mut envelope: Envelope) {
    let request = envelope.take_request();
    match request.kind {
        ServingKind::Eval => {
            shared.evals_routed.fetch_add(1, Ordering::Relaxed);
            dispatch_eval(shared, envelope, request);
        }
        ServingKind::Train => route_train(shared, envelope, request),
    }
}

/// One routing pass: submits an eval to the least-in-flight healthy
/// worker, marking dead workers down along the way. Hands the
/// envelope/request back when no healthy worker remains — the caller
/// decides whether to wait (router), park (reaper) or cancel.
fn try_dispatch_eval(
    shared: &Arc<FleetShared>,
    envelope: Envelope,
    request: Request,
    attempts: usize,
    avoid: Option<usize>,
) -> Result<(), Box<(Envelope, Request)>> {
    loop {
        let Some(idx) = shared.pick_eval_worker(avoid) else {
            return Err(Box::new((envelope, request)));
        };
        let worker = &shared.workers[idx];
        let Some(client) = worker.client() else {
            shared.mark_down(idx);
            continue;
        };
        match client.submit(request.clone()) {
            Ok(ticket) => {
                worker.in_flight.fetch_add(1, Ordering::SeqCst);
                worker.dispatched.fetch_add(1, Ordering::Relaxed);
                // Watch before registering: a result that races back still
                // pokes the reaper after the entry is visible (watch
                // notifies immediately on an already-ready ticket, and the
                // reaper re-scans after every notify).
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                ticket.watch(Arc::clone(&shared.resolved));
                shared.in_flight.lock().unwrap().entries.insert(
                    id,
                    InFlight {
                        envelope,
                        request,
                        worker: idx,
                        ticket,
                        attempts,
                    },
                );
                shared.resolved.notify();
                return Ok(());
            }
            Err(SubmitError::Full(_)) | Err(SubmitError::Closed(_)) => {
                // Block-mode submits only fail when the connection died.
                shared.mark_down(idx);
                continue;
            }
        }
    }
}

/// Submits a fresh eval from the router, waiting out a total-outage window
/// up to the configured grace before giving up. (The reaper never calls
/// this — it must not block, so it parks unroutable evals instead.)
fn dispatch_eval(shared: &Arc<FleetShared>, envelope: Envelope, request: Request) {
    let give_up = Instant::now() + NO_WORKER_GRACE;
    let (mut envelope, mut request) = (envelope, request);
    loop {
        match try_dispatch_eval(shared, envelope, request, 0, None) {
            Ok(()) => return,
            Err(back) => {
                let (env, req) = *back;
                let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
                if shutting_down || Instant::now() >= give_up {
                    shared.cancelled.fetch_add(1, Ordering::Relaxed);
                    env.fulfill(Ok(Outcome::Cancelled));
                    return;
                }
                (envelope, request) = (env, req);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The train fence: wait for the eval window to drain, run the train on
/// the primary, then converge every follower on the primary's post-train
/// checkpoint before the next eval can dispatch.
fn route_train(shared: &Arc<FleetShared>, envelope: Envelope, request: Request) {
    // Fence: every in-flight eval resolves first (the queue already
    // guarantees nothing *behind* the train popped early). `is_drained`
    // also counts evals the reaper pulled out but has not yet re-homed —
    // a lost eval awaiting re-dispatch must run before the train, or it
    // would execute against post-train params.
    {
        let mut window = shared.in_flight.lock().unwrap();
        while !window.is_drained() {
            let (next, _) = shared
                .drained
                .wait_timeout(window, Duration::from_millis(50))
                .unwrap();
            window = next;
        }
    }
    let give_up = Instant::now() + NO_WORKER_GRACE;
    loop {
        let Some(idx) = shared.primary() else {
            let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
            if shutting_down || Instant::now() >= give_up {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                envelope.fulfill(Ok(Outcome::Cancelled));
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let worker = &shared.workers[idx];
        let Some(client) = worker.client() else {
            shared.mark_down(idx);
            continue;
        };
        let ticket = match client.submit(request.clone()) {
            Ok(ticket) => ticket,
            Err(_) => {
                shared.mark_down(idx);
                continue;
            }
        };
        worker.dispatched.fetch_add(1, Ordering::Relaxed);
        let result = ticket.wait();
        if matches!(result, Ok(Outcome::Cancelled)) && client.is_closed() {
            // The primary died mid-train. A training step has side effects
            // of unknown progress, so it is NOT retried on a peer — the
            // caller decides. (Peers still hold the pre-train params, so
            // the fleet stays consistent.)
            shared.mark_down(idx);
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.trains_routed.fetch_add(1, Ordering::Relaxed);
            envelope.fulfill(result);
            return;
        }
        if matches!(result, Ok(Outcome::Completed(_))) {
            broadcast_checkpoint(shared, idx, &client);
        }
        worker.completed.fetch_add(1, Ordering::Relaxed);
        shared.trains_routed.fetch_add(1, Ordering::Relaxed);
        envelope.fulfill(result);
        return;
    }
}

/// Pulls the primary's snapshot and pushes it to every healthy follower,
/// caching it for workers that reconnect later. Runs inside the train
/// fence, so followers are quiescent.
///
/// The checkpoint mutex is held across fetch + cache + pushes, and
/// [`reconnect`] takes the same mutex around its cache-read + push +
/// mark-up — so a rejoining worker can never converge on the stale
/// snapshot and take traffic while a fresh one is mid-broadcast. The cache
/// is written *before* the pushes for the same reason: a worker that
/// reconnects right after the lock drops must see the post-train bits.
fn broadcast_checkpoint(shared: &Arc<FleetShared>, primary: usize, client: &Client) {
    let mut cached = shared.checkpoint.lock().unwrap();
    match client.fetch_snapshot(CHECKPOINT_TIMEOUT) {
        Ok(bytes) => *cached = Some(bytes),
        Err(_) => {
            // The primary vanished between the outcome and the fetch.
            // Availability over convergence: the fleet keeps serving on the
            // followers' (pre-train) params; the caller saw the train
            // complete, so this window is observable — and unavoidable
            // without a distributed log.
            shared.mark_down(primary);
            return;
        }
    }
    let snapshot = cached.as_deref().expect("checkpoint cached above");
    for (idx, worker) in shared.workers.iter().enumerate() {
        if idx == primary || !worker.up.load(Ordering::SeqCst) {
            continue;
        }
        let Some(follower) = worker.client() else {
            shared.mark_down(idx);
            continue;
        };
        if follower
            .push_checkpoint(snapshot, CHECKPOINT_TIMEOUT)
            .is_err()
        {
            // The follower lost the push; it re-converges on reconnect via
            // the cached checkpoint.
            shared.mark_down(idx);
        }
    }
    shared.checkpoints_broadcast.fetch_add(1, Ordering::Relaxed);
}

/// Collects resolved in-flight evals: completions fulfill their front-door
/// envelope; `Cancelled` from a dead worker re-dispatches to a healthy
/// peer. Exits once the router is done and the window is fully drained.
///
/// The reaper never blocks on routing: a lost eval with no healthy worker
/// parks locally (still fenced via [`Window::pending`]) and is retried on
/// every pass until the grace deadline — so one unroutable eval cannot
/// head-of-line-block reaping the other workers' resolved tickets.
fn reaper_loop(shared: &Arc<FleetShared>) {
    let mut seen = shared.resolved.generation();
    let mut parked: Vec<Parked> = Vec::new();
    loop {
        let ready: Vec<InFlight> = {
            let mut window = shared.in_flight.lock().unwrap();
            let ids: Vec<u64> = window
                .entries
                .iter()
                .filter(|(_, entry)| entry.ticket.is_ready())
                .map(|(id, _)| *id)
                .collect();
            // Keep removed entries accounted until their envelope is
            // fulfilled or they are re-inserted: the train fence must not
            // observe an empty window while a lost eval awaits re-dispatch
            // (it would then run against post-train params).
            window.pending += ids.len();
            ids.into_iter()
                .map(|id| window.entries.remove(&id).expect("scanned id present"))
                .collect()
        };
        for mut entry in ready {
            let worker = &shared.workers[entry.worker];
            worker.in_flight.fetch_sub(1, Ordering::SeqCst);
            let result = entry
                .ticket
                .try_take()
                .expect("ready in-flight ticket yields its result");
            // A fleet eval only resolves `Cancelled` when its connection
            // died (workers complete or reject everything they admit; their
            // graceful shutdown severs connections first, which lands
            // here too).
            let worker_lost = matches!(result, Ok(Outcome::Cancelled));
            if worker_lost && entry.attempts < MAX_REDISPATCH {
                // The worker (or its connection) died with the eval in
                // flight. Evals are stateless reads: re-home, don't fail.
                // Only sever if the worker's current client is the dead
                // one — the health thread may have reconnected it already.
                if worker.client().is_none_or(|c| c.is_closed()) {
                    shared.mark_down(entry.worker);
                }
                shared.redispatches.fetch_add(1, Ordering::Relaxed);
                worker.redispatched.fetch_add(1, Ordering::Relaxed);
                redispatch(
                    shared,
                    &mut parked,
                    Parked {
                        envelope: entry.envelope,
                        request: entry.request,
                        from: entry.worker,
                        attempts: entry.attempts + 1,
                        give_up: Instant::now() + NO_WORKER_GRACE,
                    },
                );
            } else {
                if worker_lost {
                    shared.cancelled.fetch_add(1, Ordering::Relaxed);
                } else {
                    worker.completed.fetch_add(1, Ordering::Relaxed);
                }
                entry.envelope.fulfill(result);
                shared.settle_pending();
            }
        }
        // Retry parked evals every pass; each either lands on a worker,
        // parks again, or cancels at its deadline.
        for entry in std::mem::take(&mut parked) {
            redispatch(shared, &mut parked, entry);
        }
        {
            let window = shared.in_flight.lock().unwrap();
            if window.is_drained() {
                shared.drained.notify_all();
                if shared.router_done.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
        seen = shared.resolved.wait(seen, Duration::from_millis(50));
    }
}

/// One non-blocking re-home attempt for a lost eval: place it on a healthy
/// peer, park it for the next reaper pass, or — past its deadline or on
/// shutdown — resolve it `Cancelled`. Settles the eval's `pending` slot
/// whenever it leaves the reaper's hands.
fn redispatch(shared: &Arc<FleetShared>, parked: &mut Vec<Parked>, entry: Parked) {
    let Parked {
        envelope,
        request,
        from,
        attempts,
        give_up,
    } = entry;
    match try_dispatch_eval(shared, envelope, request, attempts, Some(from)) {
        Ok(()) => shared.settle_pending(),
        Err(back) => {
            let (envelope, request) = *back;
            let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
            if shutting_down || Instant::now() >= give_up {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                envelope.fulfill(Ok(Outcome::Cancelled));
                shared.settle_pending();
            } else {
                parked.push(Parked {
                    envelope,
                    request,
                    from,
                    attempts,
                    give_up,
                });
            }
        }
    }
}

/// Probes every healthy worker on the interval; marks failures down and
/// reconnects marked-down workers with exponential backoff, converging
/// them on the cached checkpoint before they take traffic again.
fn health_loop(shared: &Arc<FleetShared>) {
    let mut last_probe = Instant::now();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        if last_probe.elapsed() < shared.config.health_interval {
            continue;
        }
        last_probe = Instant::now();
        for (idx, worker) in shared.workers.iter().enumerate() {
            if worker.up.load(Ordering::SeqCst) {
                let Some(client) = worker.client() else {
                    shared.mark_down(idx);
                    continue;
                };
                if client.ping(shared.config.probe_timeout).is_err() {
                    shared.mark_down(idx);
                }
            } else if *worker.next_reconnect.lock().unwrap() <= Instant::now() {
                reconnect(shared, idx);
            }
        }
    }
}

/// One reconnect attempt: connect, converge on the cached checkpoint, then
/// (and only then) mark the worker up. Failure doubles the backoff.
///
/// The checkpoint mutex is held from the cache read through mark-up,
/// mutually exclusive with [`broadcast_checkpoint`]: without it, this
/// thread could push a stale cache and mark the worker up while the router
/// is mid-broadcast of a fresh post-train snapshot that skips down workers
/// — the rejoiner would then serve evals on pre-train params until the
/// next train. Holding the lock, the rejoiner either converges before the
/// broadcast starts (and is up, so the broadcast includes it) or waits and
/// reads the freshly cached post-train bits.
fn reconnect(shared: &Arc<FleetShared>, idx: usize) {
    let worker = &shared.workers[idx];
    let attempt = Client::connect_timeout(worker.addr.as_str(), shared.config.connect_timeout)
        .and_then(|client| {
            let cached = shared.checkpoint.lock().unwrap();
            if let Some(bytes) = cached.as_deref() {
                client.push_checkpoint(bytes, CHECKPOINT_TIMEOUT)?;
            }
            *worker.client.lock().unwrap() = Some(client);
            worker.up.store(true, Ordering::SeqCst);
            Ok(())
        });
    match attempt {
        Ok(()) => {
            *worker.backoff.lock().unwrap() = shared.config.initial_backoff;
            worker.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            let mut backoff = worker.backoff.lock().unwrap();
            *worker.next_reconnect.lock().unwrap() = Instant::now() + *backoff;
            *backoff = (*backoff * 2).min(MAX_BACKOFF);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_refuses_an_empty_worker_list() {
        let err = Balancer::spawn(&[], BalancerConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn spawn_refuses_a_fully_unreachable_fleet() {
        let config = BalancerConfig {
            connect_timeout: Duration::from_millis(200),
            ..BalancerConfig::default()
        };
        // A port from the ephemeral range on loopback with nothing bound:
        // connect fails fast with ECONNREFUSED (no timeout needed).
        let err = Balancer::spawn(&["127.0.0.1:1".to_string()], config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }
}
