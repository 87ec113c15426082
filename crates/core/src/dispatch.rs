//! The parallel drain's dispatch pool: N worker threads executing eval
//! groups the batcher forms.
//!
//! The batcher ([`crate::batcher`]) stays the sole owner of group
//! *formation* — membership, padding rung, specialization-cache state and
//! admission all remain single-threaded and therefore worker-count
//! independent. What the pool parallelises is group *execution*: each
//! worker lazily forks a private executor per rung from the
//! specialization's shared [`ExecutorSeed`], so all workers read one
//! [`pe_runtime::ParamStore`]. Evaluation takes the store's guard *shared*,
//! which is what makes concurrent groups sound; training takes it
//! exclusively, and the batcher additionally fences the pool
//! (`WorkerPool::quiesce`) before every training step so a group that has
//! not yet reached the guard can never observe a half-stepped parameter.
//!
//! Scheduling is priority-first: pending jobs are picked highest
//! [`Priority`] first, FIFO within a class, so a high-priority group
//! overtakes queued lower-priority work and — when a long-running
//! low-priority group occupies one worker — starts immediately on a free
//! one. Overtakes are counted in
//! [`crate::BatcherStats::priority_overtakes`].
//!
//! Every group's statistics delta merges into the shared
//! `BatcherCounters` *at retirement*, in one critical section, keeping
//! snapshots internally consistent no matter how many workers race.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pe_data::serving::{Priority, Request};
use pe_runtime::{Executor, ExecutorSeed};

use crate::admission::Outcome;
use crate::batcher::{BatcherCounters, BatcherStats};
use crate::engine::{execute_eval_group, Engine, EvalIo};
use crate::queue::Envelope;

/// One formed eval group, planned by the batcher thread
/// ([`Engine::plan_parallel_eval`]) and executed by a pool worker.
#[derive(Debug)]
pub(crate) struct EvalJob {
    /// The member envelopes, fulfilled by the worker in group order.
    pub(crate) group: Vec<Envelope>,
    /// Real rows across the group (before padding).
    pub(crate) rows: usize,
    /// The padded rung the group executes at.
    pub(crate) batch: usize,
    /// Recipe for the worker's private executor over the shared store.
    pub(crate) seed: Arc<ExecutorSeed>,
    /// Highest priority among the members; scheduling key.
    pub(crate) priority: Priority,
    /// The group's whole stats delta (flush cause, expired dispatches);
    /// merged into [`BatcherCounters`] at retirement.
    pub(crate) delta: BatcherStats,
}

/// What a retired group reports back to the engine: the batcher folds these
/// into `EngineMetrics` and the admission latency model on its own thread.
#[derive(Debug)]
pub(crate) struct Retirement {
    /// Padded rung the group executed at.
    pub(crate) batch: usize,
    /// Wall-clock execution time (includes the slow-kernel test shim, so
    /// the latency model sees what callers see).
    pub(crate) elapsed: Duration,
    /// Real rows served (before padding).
    pub(crate) rows: usize,
    /// Number of member requests.
    pub(crate) group_len: usize,
}

/// Per-worker dispatch accounting for the parallel drain, reported by
/// [`crate::AsyncEngine::worker_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerDispatchStats {
    /// Worker index within the pool (`0..drain_workers`).
    pub worker: usize,
    /// Eval groups this worker executed.
    pub groups: u64,
    /// Member requests across those groups.
    pub requests: u64,
    /// Private executors this worker forked from specialization seeds (one
    /// per distinct rung it has seen).
    pub executors_built: u64,
}

#[derive(Debug, Default)]
struct WorkerCell {
    groups: AtomicU64,
    requests: AtomicU64,
    executors_built: AtomicU64,
}

#[derive(Debug)]
struct PendingJob {
    /// Submission order, assigned by [`WorkerPool::submit`]; FIFO tiebreak
    /// within a priority class and the overtake detector's notion of
    /// "earlier".
    seq: u64,
    job: EvalJob,
}

#[derive(Debug, Default)]
struct PoolState {
    pending: Vec<PendingJob>,
    /// (submit seq, priority) of groups currently executing on a worker.
    in_flight: Vec<(u64, Priority)>,
    /// Retired groups not yet folded back into the engine.
    retired: Vec<Retirement>,
    /// Pending + executing: groups handed to the pool and not yet retired.
    outstanding: usize,
    next_seq: u64,
    closed: bool,
}

/// State shared between the batcher, the pool workers, and the
/// [`crate::AsyncEngine`] facade (which reads the in-flight gauge and
/// per-worker counters without touching the engine thread).
#[derive(Debug)]
pub(crate) struct DispatchShared {
    state: Mutex<PoolState>,
    /// Signalled on submit and close; workers wait here for jobs.
    job_ready: Condvar,
    /// Signalled on retirement; the batcher's fence waits here.
    retired_cv: Condvar,
    counters: Arc<BatcherCounters>,
    io: EvalIo,
    /// Slow-kernel test shim ([`crate::QueueConfig::eval_group_sleep`]).
    sleep: Option<Duration>,
    worker_cells: Vec<WorkerCell>,
}

impl DispatchShared {
    pub(crate) fn new(
        workers: usize,
        sleep: Option<Duration>,
        io: EvalIo,
        counters: Arc<BatcherCounters>,
    ) -> Self {
        DispatchShared {
            state: Mutex::new(PoolState::default()),
            job_ready: Condvar::new(),
            retired_cv: Condvar::new(),
            counters,
            io,
            sleep,
            worker_cells: (0..workers.max(1)).map(|_| WorkerCell::default()).collect(),
        }
    }

    /// Number of pool workers.
    pub(crate) fn workers(&self) -> usize {
        self.worker_cells.len()
    }

    /// Groups handed to the pool and not yet retired.
    pub(crate) fn in_flight(&self) -> usize {
        self.state
            .lock()
            .expect("pool state lock poisoned")
            .outstanding
    }

    /// Per-worker dispatch counters.
    pub(crate) fn worker_stats(&self) -> Vec<WorkerDispatchStats> {
        self.worker_cells
            .iter()
            .enumerate()
            .map(|(worker, cell)| WorkerDispatchStats {
                worker,
                groups: cell.groups.load(Ordering::Relaxed),
                requests: cell.requests.load(Ordering::Relaxed),
                executors_built: cell.executors_built.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// The running pool: worker threads plus their shared state. Owned by the
/// drainer thread; [`WorkerPool::shutdown`] quiesces and joins before the
/// engine is handed back.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<DispatchShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts one thread per worker cell in `shared`.
    pub(crate) fn start(shared: Arc<DispatchShared>) -> Self {
        let handles = (0..shared.workers())
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pe-drain-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("failed to spawn a drain worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Hands a formed group to the pool; a free worker picks it up by
    /// priority (FIFO within a class).
    pub(crate) fn submit(&self, job: EvalJob) {
        {
            let mut state = self.shared.state.lock().expect("pool state lock poisoned");
            let seq = state.next_seq;
            state.next_seq += 1;
            state.outstanding += 1;
            state.pending.push(PendingJob { seq, job });
        }
        self.shared.job_ready.notify_one();
    }

    /// Folds groups retired since the last call back into the engine's
    /// metrics and latency model. Non-blocking.
    pub(crate) fn drain_retired(&self, engine: &mut Engine) {
        let retired = {
            let mut state = self.shared.state.lock().expect("pool state lock poisoned");
            std::mem::take(&mut state.retired)
        };
        for r in &retired {
            engine.note_eval_retirement(r);
        }
    }

    /// Blocks until no group is pending or executing (the training fence),
    /// folding retirements into the engine as they land. Returns the time
    /// waited and whether any group was actually outstanding on entry —
    /// i.e. whether this fence truly had to wait.
    pub(crate) fn quiesce(&self, engine: &mut Engine) -> (Duration, bool) {
        let started = Instant::now();
        let mut had_work = false;
        loop {
            let (retired, done) = {
                let mut state = self.shared.state.lock().expect("pool state lock poisoned");
                if state.outstanding > 0 {
                    had_work = true;
                }
                while state.outstanding > 0 && state.retired.is_empty() {
                    state = self
                        .shared
                        .retired_cv
                        .wait(state)
                        .expect("pool state lock poisoned");
                }
                (std::mem::take(&mut state.retired), state.outstanding == 0)
            };
            for r in &retired {
                engine.note_eval_retirement(r);
            }
            if done {
                return (started.elapsed(), had_work);
            }
        }
    }

    /// Quiesces, closes, joins every worker, and folds any last
    /// retirements into the engine.
    pub(crate) fn shutdown(self, engine: &mut Engine) {
        self.quiesce(engine);
        let WorkerPool { shared, handles } = self;
        {
            let mut state = shared.state.lock().expect("pool state lock poisoned");
            state.closed = true;
        }
        shared.job_ready.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
        let retired = {
            let mut state = shared.state.lock().expect("pool state lock poisoned");
            std::mem::take(&mut state.retired)
        };
        for r in &retired {
            engine.note_eval_retirement(r);
        }
    }
}

/// Index of the best pending job: highest priority first, then lowest
/// submission seq (FIFO within a class).
fn best_pending(pending: &[PendingJob]) -> Option<usize> {
    pending
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| (p.job.priority, std::cmp::Reverse(p.seq)))
        .map(|(i, _)| i)
}

/// Picks the next job for a worker, blocking until one is pending or the
/// pool closes. Marks the job in flight and merges the overtake/high-water
/// accounting (outside the state lock).
fn next_job(shared: &DispatchShared) -> Option<(u64, EvalJob)> {
    let mut state = shared.state.lock().expect("pool state lock poisoned");
    loop {
        if let Some(at) = best_pending(&state.pending) {
            let PendingJob { seq, job } = state.pending.swap_remove(at);
            // An overtake is real only if a strictly lower-priority group
            // submitted strictly earlier is still executing: this group is
            // passing it mid-flight, not merely ahead of it in the queue.
            let overtake = state
                .in_flight
                .iter()
                .any(|&(s, p)| s < seq && p < job.priority);
            state.in_flight.push((seq, job.priority));
            let gauge = state.outstanding as u64;
            drop(state);
            shared.counters.merge(&BatcherStats {
                priority_overtakes: overtake as u64,
                max_in_flight: gauge,
                ..BatcherStats::default()
            });
            return Some((seq, job));
        }
        if state.closed {
            return None;
        }
        state = shared
            .job_ready
            .wait(state)
            .expect("pool state lock poisoned");
    }
}

/// One worker thread: picks jobs by priority, lazily forks a private
/// executor per rung from the job's seed, executes, fulfills the member
/// tickets, and retires the group (stats delta merged atomically,
/// retirement queued for the batcher, fence condvar signalled).
fn worker_loop(shared: &DispatchShared, index: usize) {
    let mut executors: HashMap<usize, Executor> = HashMap::new();
    while let Some((seq, job)) = next_job(shared) {
        let EvalJob {
            mut group,
            rows,
            batch,
            seed,
            priority: _,
            delta,
        } = job;
        let executor = executors.entry(batch).or_insert_with(|| {
            shared.worker_cells[index]
                .executors_built
                .fetch_add(1, Ordering::Relaxed);
            seed.executor()
        });
        // The clock starts before the slow-kernel shim so the latency model
        // (and the fence-wait accounting) see the full dwell time.
        let started = Instant::now();
        if let Some(sleep) = shared.sleep {
            std::thread::sleep(sleep);
        }
        let requests: Vec<_> = group
            .iter_mut()
            .map(|e| (e.seq(), e.take_request()))
            .collect();
        let pairs: Vec<(usize, &Request)> = requests.iter().map(|(s, r)| (*s, r)).collect();
        let outcome = execute_eval_group(executor, &shared.io, &pairs, rows, batch);
        let elapsed = started.elapsed();
        let group_len = group.len();
        // The whole group's stats delta — and the worker's own accounting —
        // land *before* the tickets resolve and before the group stops
        // counting as outstanding: a redeemed ticket — or a snapshot taken
        // after a fence or shutdown — observes every retired group's
        // counters.
        shared.counters.merge(&delta);
        shared.worker_cells[index]
            .groups
            .fetch_add(1, Ordering::Relaxed);
        shared.worker_cells[index]
            .requests
            .fetch_add(group_len as u64, Ordering::Relaxed);
        match outcome {
            Ok(responses) => {
                debug_assert_eq!(responses.len(), group_len);
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
        {
            let mut state = shared.state.lock().expect("pool state lock poisoned");
            state.in_flight.retain(|&(s, _)| s != seq);
            state.retired.push(Retirement {
                batch,
                elapsed,
                rows,
                group_len,
            });
            state.outstanding -= 1;
        }
        shared.retired_cv.notify_all();
    }
}

// Pool state crosses the batcher thread, N worker threads, and the facade.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<DispatchShared>();
    assert_sync::<DispatchShared>();
    assert_send::<EvalJob>();
};
