//! The serving facade: one [`Program`] (and therefore one shared
//! `ParamStore`), many batch-size specializations, mixed train/eval traffic
//! carried by the canonical [`Request`] type.
//!
//! An [`Engine`] accepts requests whose row counts vary freely and maps them
//! onto the program's specialization cache:
//!
//! * **Evaluation** requests are micro-batched: consecutive eval requests
//!   coalesce (up to the largest warm batch size) and the packed batch is
//!   padded up to the *nearest cached* batch size — the pad-to-nearest
//!   policy trades a few wasted rows for never recompiling. Only if no
//!   cached size fits is a new specialization compiled. Per-request losses
//!   are computed on the real (unpadded) rows, so padding never leaks into
//!   reported numbers.
//! * **Training** requests always run at their *exact* row count
//!   (specializing on first sight): padding a training batch would change
//!   the loss normalisation and therefore the gradients, silently training
//!   on fabricated rows. Exactness is what makes the engine bit-identical
//!   to a dedicated single executor fed the same batches.
//!
//! Because every specialization borrows the program's canonical parameter
//! store, a training request immediately improves subsequent evaluation
//! requests — at any batch size — without any parameter copying.
//!
//! On top of batching, the engine is an **admission controller**: every
//! request is checked on arrival against [`EngineConfig::admission`]. Under
//! [`AdmissionPolicy::DeadlineFeasible`], a request whose deadline budget is
//! below the engine's latency estimate for its target rung resolves as
//! [`Outcome::Rejected`] without executing (see [`crate::admission`]).
//! Every admitted request runs on the program's one specialization for its
//! batch size: there is one executor kind, so nothing is routed.
//!
//! Two ingestion paths feed one engine, sharing the [`Request`]/[`Outcome`]
//! vocabulary:
//!
//! * the **synchronous slice path** ([`Engine::serve`]) walks a
//!   pre-materialised request slice in order — the reference semantics;
//! * the **asynchronous queue path** ([`Engine::into_async`]) accepts
//!   requests through a bounded submission queue ([`crate::queue`]) drained
//!   by a deadline-aware batcher ([`crate::batcher`]) on a dedicated
//!   thread, and is proven bit-identical to the slice path
//!   (`tests/tests/engine_async.rs`, `tests/tests/engine.rs`).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pe_data::serving::{Request, ServingKind};
use pe_runtime::{ExecError, ParamStore};
use pe_tensor::kernels::{layout, norm};
use pe_tensor::Tensor;

use crate::admission::{AdmissionPolicy, LatencyModel, Outcome, RejectReason};
use crate::batcher::{self, BatcherCounters, BatcherStats};
use crate::program::{CacheStats, Program};
use crate::queue::{self, QueueConfig, SubmitError, Submitter, Ticket};
use crate::submit::Submit;

/// What to do with a candidate request relative to the evaluation group
/// being built — the shared decision of [`Engine::classify_for_group`].
#[derive(Debug)]
pub(crate) enum GroupVerdict {
    /// Admitted, an evaluation, and it fits: join the group.
    Join,
    /// Malformed for the program (see [`Program::check_request`]): it must
    /// not join, and resolves alone with the error.
    Invalid(ExecError),
    /// Rejected by admission control: resolve in place, skip it, keep
    /// accumulating (a rejection never breaks a group).
    Reject(RejectReason),
    /// Admitted but incompatible (a train, or no room left): the group
    /// flushes and the candidate starts the next unit of work.
    Barrier,
}

/// Engine policy knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Batch sizes pre-specialized at engine construction; also the pad
    /// ladder for evaluation requests. Sorted internally. The largest is the
    /// upper bound on rows packed into one evaluation micro-batch.
    pub warm_batches: Vec<usize>,
    /// The admission policy (default: accept everything).
    pub admission: AdmissionPolicy,
    /// Size budget of the specialization cache (LRU eviction beyond it);
    /// `None` (the default) keeps the cache unbounded. The warm ladder
    /// counts toward the budget.
    pub max_cached_specializations: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            warm_batches: vec![1, 4, 8],
            admission: AdmissionPolicy::default(),
            max_cached_specializations: None,
        }
    }
}

/// Result of serving one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Engine-assigned id: the index of the request in the submitted slice
    /// (sync path) or its submission sequence number (queue path).
    pub id: usize,
    /// The caller-assigned [`crate::RequestMeta::id`], echoed back.
    pub client_id: Option<u64>,
    /// Whether the request trained or evaluated.
    pub kind: ServingKind,
    /// Rows the request actually carried.
    pub rows: usize,
    /// Batch size of the specialization that served it (≥ `rows` for padded
    /// evaluation; == `rows` for training).
    pub batch: usize,
    /// Loss over the request's real rows (training: the step loss;
    /// evaluation: cross-entropy of the sliced logits), when the program
    /// exposes classification-shaped logits.
    pub loss: Option<f32>,
    /// Logits restricted to the request's rows, when available.
    pub logits: Option<Tensor>,
}

/// Serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Requests served (excludes rejections).
    pub requests: u64,
    /// Requests rejected on arrival by admission control.
    pub rejected: u64,
    /// Training steps executed.
    pub train_steps: u64,
    /// Evaluation micro-batches executed (after coalescing).
    pub eval_batches: u64,
    /// Real rows processed (excludes padding).
    pub rows: u64,
    /// Zero rows added by the pad-to-nearest-cached policy.
    pub padded_rows: u64,
}

/// Serves mixed-size training and inference traffic over one compiled
/// [`Program`] — see the module docs for the batching and admission
/// policies.
#[derive(Debug)]
pub struct Engine {
    program: Program,
    config: EngineConfig,
    metrics: EngineMetrics,
    latency: LatencyModel,
}

impl Engine {
    /// Wraps a program, pre-specializing every warm batch size and applying
    /// the specialization-cache budget.
    pub fn new(mut program: Program, mut config: EngineConfig) -> Self {
        config.warm_batches.sort_unstable();
        config.warm_batches.dedup();
        program.set_max_specializations(config.max_cached_specializations);
        for &batch in &config.warm_batches {
            program.specialize(batch);
        }
        Engine {
            program,
            config,
            metrics: EngineMetrics::default(),
            latency: LatencyModel::default(),
        }
    }

    /// The wrapped program (parameter store, specialization cache).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Serving counters so far.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Specialization-cache accounting (including warmup misses and LRU
    /// evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.program.cache_stats()
    }

    /// Seeds (overwrites) the latency estimate for a rung — from an
    /// offline profile, so admission control is armed before the first
    /// dispatch, or from a test that needs deterministic feasibility
    /// decisions. Later dispatches keep blending into the seeded value.
    pub fn seed_latency_estimate(&mut self, batch: usize, latency: Duration) {
        self.latency.seed(batch, latency);
    }

    /// Serves a stream of requests in order, returning one [`Outcome`] per
    /// request (same order). Consecutive admitted evaluation requests
    /// coalesce into padded micro-batches;
    /// training requests run individually at their exact size; rejected
    /// requests resolve as [`Outcome::Rejected`] without executing and
    /// without breaking the surrounding coalescing run (mirroring the
    /// queue path, where a rejected envelope is discarded mid-stream).
    ///
    /// The slice *is* the execution order: priorities never reorder the
    /// sync path (they order dispatch when the submission queue backs up);
    /// deadlines here feed admission only, since a materialised slice has
    /// no companions to wait for.
    ///
    /// # Errors
    ///
    /// Returns the first input error encountered (features/labels that do
    /// not fit the program's graph, or a label or token id out of range).
    /// A malformed request never joins a micro-batch: the requests before
    /// it run, then `serve` returns its error.
    pub fn serve(&mut self, requests: &[Request]) -> Result<Vec<Outcome>, ExecError> {
        let mut outcomes: Vec<Option<Outcome>> = requests.iter().map(|_| None).collect();
        let limit = self.max_coalesced_rows();
        let mut i = 0;
        while i < requests.len() {
            let head = &requests[i];
            self.program.check_request(head)?;
            if let Err(reason) = self.admit(head) {
                self.metrics.rejected += 1;
                outcomes[i] = Some(Outcome::Rejected(reason));
                i += 1;
                continue;
            }
            match head.kind {
                ServingKind::Train => {
                    let response = self.train_one(i, head)?;
                    outcomes[i] = Some(Outcome::Completed(response));
                    i += 1;
                }
                ServingKind::Eval => {
                    // Greedily coalesce the run of admitted eval requests
                    // while the packed row count stays within the
                    // micro-batch limit. Rejected requests in the run
                    // resolve in place and are skipped.
                    let mut group: Vec<(usize, &Request)> = vec![(i, head)];
                    let mut rows = head.rows();
                    let mut j = i + 1;
                    while j < requests.len() {
                        let next = &requests[j];
                        match self.classify_for_group(next, rows, limit) {
                            GroupVerdict::Reject(reason) => {
                                self.metrics.rejected += 1;
                                outcomes[j] = Some(Outcome::Rejected(reason));
                                j += 1;
                            }
                            GroupVerdict::Barrier | GroupVerdict::Invalid(_) => break,
                            GroupVerdict::Join => {
                                rows += next.rows();
                                group.push((j, next));
                                j += 1;
                            }
                        }
                    }
                    let responses = self.eval_group(&group, rows)?;
                    for ((idx, _), response) in group.iter().zip(responses) {
                        outcomes[*idx] = Some(Outcome::Completed(response));
                    }
                    i = j;
                }
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every request resolves to an outcome"))
            .collect())
    }

    /// Moves the engine behind a bounded submission queue drained by a
    /// dedicated batcher thread, returning the asynchronous facade.
    ///
    /// Producers submit through [`AsyncEngine`] (or cloned
    /// [`AsyncEngine::submitter`] handles) and redeem [`Ticket`]s; the
    /// drainer groups compatible evaluation requests under their deadline
    /// budgets and runs training requests as exact-size exclusive steps.
    /// [`AsyncEngine::shutdown`] drains in-flight requests and hands the
    /// engine back.
    pub fn into_async(self, config: QueueConfig) -> AsyncEngine {
        AsyncEngine::spawn(self, config)
    }

    /// The admission decision for a request: `Err` when
    /// the policy is [`AdmissionPolicy::DeadlineFeasible`], the request
    /// carries a deadline budget, and the engine's latency estimate for
    /// the target rung already exceeds that whole budget.
    ///
    /// The check is assessed against the full budget on both ingestion
    /// paths (queue wait is *not* subtracted), so the decision depends only
    /// on the request and the latency-model state — not on which path
    /// carried it. Strict reject-set parity between a slice replay and the
    /// queue therefore holds when the estimates agree: seed them
    /// ([`Engine::seed_latency_estimate`]) or keep budgets decisively above
    /// or below the estimates; live EWMA state drifts with dispatch timing
    /// and grouping, so a budget *near* the estimate may tip differently
    /// on the two paths.
    pub(crate) fn admit(&self, request: &Request) -> Result<(), RejectReason> {
        if self.config.admission == AdmissionPolicy::AcceptAll {
            return Ok(());
        }
        let Some(budget) = request.meta.deadline else {
            return Ok(());
        };
        let rung = match request.kind {
            ServingKind::Train => request.rows(),
            ServingKind::Eval => self
                .nearest_cached(request.rows())
                .unwrap_or_else(|| request.rows()),
        };
        match self.latency.estimate(rung) {
            Some(estimated) if estimated > budget => {
                Err(RejectReason::DeadlineInfeasible { estimated, budget })
            }
            _ => Ok(()),
        }
    }

    /// Records an admission rejection in the serving counters (the sync
    /// path inlines this; the batcher calls it for queue-path rejections).
    pub(crate) fn note_rejection(&mut self) {
        self.metrics.rejected += 1;
    }

    /// The one join/reject/barrier decision both ingestion paths apply to
    /// a candidate request relative to the evaluation group being built
    /// (`rows` = rows packed so far, `capacity` = the group's row bound).
    /// Keeping this in one place is what keeps the queue path
    /// bit-identical to the slice path: the request is checked against the
    /// program first, then admission (a rejection never breaks a group),
    /// then kind and fit.
    pub(crate) fn classify_for_group(
        &self,
        request: &Request,
        rows: usize,
        capacity: usize,
    ) -> GroupVerdict {
        if let Err(e) = self.program.check_request(request) {
            return GroupVerdict::Invalid(e);
        }
        if let Err(reason) = self.admit(request) {
            return GroupVerdict::Reject(reason);
        }
        if request.kind != ServingKind::Eval || rows + request.rows() > capacity {
            return GroupVerdict::Barrier;
        }
        GroupVerdict::Join
    }

    /// Upper bound on rows packed into one evaluation micro-batch: the
    /// largest warm batch.
    pub(crate) fn max_coalesced_rows(&self) -> usize {
        self.config.warm_batches.last().copied().unwrap_or(1).max(1)
    }

    /// The row count the deadline-aware batcher aims to fill for an eval
    /// group: the largest batch size already specialized, capped by the
    /// coalescing limit (falls back to the limit itself before anything is
    /// cached).
    pub(crate) fn eval_target_rows(&self) -> usize {
        let limit = self.max_coalesced_rows();
        self.program
            .cached_batches()
            .iter()
            .copied()
            .filter(|&b| b <= limit)
            .max()
            .unwrap_or(limit)
    }

    /// Smallest cached batch ≥ `rows`.
    fn nearest_cached(&self, rows: usize) -> Option<usize> {
        self.program
            .cached_batches()
            .iter()
            .copied()
            .find(|&b| b >= rows)
    }

    pub(crate) fn train_one(
        &mut self,
        id: usize,
        request: &Request,
    ) -> Result<Response, ExecError> {
        let rows = request.rows();
        let inputs = HashMap::from([
            (
                self.program.feature_input().to_string(),
                request.features.clone(),
            ),
            (
                self.program.label_input().to_string(),
                request.labels.clone(),
            ),
        ]);
        let spec = self.program.specialize_for_requests(rows, 1);
        let started = Instant::now();
        let result = spec.executor.run_step(&inputs)?;
        self.latency.observe(rows, started.elapsed());
        self.metrics.requests += 1;
        self.metrics.train_steps += 1;
        self.metrics.rows += rows as u64;
        Ok(Response {
            id,
            client_id: request.meta.id,
            kind: ServingKind::Train,
            rows,
            batch: rows,
            loss: result.loss,
            logits: result.outputs.get(self.program.logits_name()).cloned(),
        })
    }

    /// Runs one evaluation micro-batch over `group` (pairs of response id
    /// and request), packing and padding to the nearest cached rung, and
    /// returns one [`Response`] per request in group order.
    pub(crate) fn eval_group(
        &mut self,
        group: &[(usize, &Request)],
        rows: usize,
    ) -> Result<Vec<Response>, ExecError> {
        // Pad to the nearest cached size; compile an exact specialization
        // only when the ladder has no rung big enough.
        let batch = self.nearest_cached(rows).unwrap_or(rows);
        let features = pack_rows(group.iter().map(|(_, r)| &r.features), rows, batch);
        let labels = pack_rows(group.iter().map(|(_, r)| &r.labels), rows, batch);
        let inputs = HashMap::from([
            (self.program.feature_input().to_string(), features),
            (self.program.label_input().to_string(), labels),
        ]);
        let spec = self
            .program
            .specialize_for_requests(batch, group.len() as u64);
        let started = Instant::now();
        let result = spec.executor.run_eval(&inputs)?;
        let logits = result.outputs.get(self.program.logits_name());
        let mut responses = Vec::with_capacity(group.len());
        let mut offset = 0usize;
        for &(id, request) in group {
            let n = request.rows();
            let sliced = logits.and_then(|l| slice_rows(l, offset, n));
            let loss = sliced
                .as_ref()
                .filter(|l| l.dims().len() == 2 && request.labels.dims().len() == 1)
                .map(|l| {
                    let mut loss = [0.0];
                    norm::cross_entropy_loss_into(l.view(), request.labels.view(), &mut loss);
                    loss[0]
                });
            responses.push(Response {
                id,
                client_id: request.meta.id,
                kind: ServingKind::Eval,
                rows: n,
                batch,
                loss,
                logits: sliced,
            });
            offset += n;
        }
        self.latency.observe(batch, started.elapsed());
        self.metrics.eval_batches += 1;
        self.metrics.padded_rows += (batch - rows) as u64;
        self.metrics.requests += group.len() as u64;
        self.metrics.rows += rows as u64;
        Ok(responses)
    }
}

// The drainer thread takes ownership of the engine, so the whole serving
// stack (program, factory, specializations, executors) must stay `Send`.
// This fails to compile if a future field regresses that.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// The asynchronous ingestion facade: one [`Engine`] behind a bounded
/// submission queue, drained by a deadline-aware batcher thread.
///
/// Created by [`Engine::into_async`]. Producers submit [`Request`]s (from
/// any number of threads, via [`AsyncEngine::submitter`] clones) and redeem
/// the returned [`Ticket`]s for [`Outcome`]s. The batching policy — target
/// rung, deadline semantics, priority ordering, training barriers — is
/// documented in `crate::batcher` and [`crate::queue`].
///
/// # Backpressure contract
///
/// The queue is bounded by [`QueueConfig::capacity`]. [`Submit::submit`]
/// blocks while the queue is full; [`Submit::try_submit`] instead hands
/// the request back as [`SubmitError::Full`], so load shedding is the
/// caller's explicit decision. Requests are never silently dropped: every
/// accepted ticket resolves — with a [`Response`], an admission rejection,
/// or [`Outcome::Cancelled`] — even through [`AsyncEngine::shutdown`], which
/// closes the queue and drains in-flight requests before returning the
/// engine.
#[derive(Debug)]
pub struct AsyncEngine {
    submitter: Submitter,
    counters: Arc<BatcherCounters>,
    drainer: Option<JoinHandle<Engine>>,
    store: Arc<ParamStore>,
}

impl AsyncEngine {
    fn spawn(engine: Engine, config: QueueConfig) -> Self {
        let (submitter, receiver) = queue::channel(config);
        let counters = Arc::new(BatcherCounters::default());
        let store = Arc::clone(engine.program().store());
        let drainer_counters = Arc::clone(&counters);
        let mut engine = engine;
        let drainer = std::thread::Builder::new()
            .name("pe-engine-drainer".to_string())
            .spawn(move || {
                batcher::drain(&mut engine, &receiver, &drainer_counters);
                engine
            })
            .expect("failed to spawn the engine drainer thread");
        AsyncEngine {
            submitter,
            counters,
            drainer: Some(drainer),
            store,
        }
    }

    /// A cloneable producer handle, for feeding the queue from other
    /// threads. Handles outlive the facade but submissions fail with
    /// [`SubmitError::Closed`] once the engine shuts down.
    pub fn submitter(&self) -> Submitter {
        self.submitter.clone()
    }

    /// The engine's shared parameter store — the same store every
    /// specialization trains. Exposed so serving layers can take and apply
    /// [`ParamStore::snapshot`] checkpoints; callers that mutate it must
    /// quiesce submissions first (the store's step guard only orders
    /// individual steps, not a checkpoint against a stream of them).
    pub fn param_store(&self) -> Arc<ParamStore> {
        Arc::clone(&self.store)
    }

    /// Live batcher accounting (groups formed, deadline/target/barrier
    /// flushes, expired dispatches, admission rejections). Snapshots are
    /// internally consistent: every group's counters are merged in one
    /// critical section, so `eval_groups` always equals the sum of the
    /// flush-cause counters.
    pub fn batcher_stats(&self) -> BatcherStats {
        self.counters.snapshot()
    }

    /// Closes the queue, waits for the drainer to serve every in-flight
    /// request, and returns the engine (metrics, cache stats and the
    /// parameter store intact).
    ///
    /// # Panics
    ///
    /// Propagates a panic from the drainer thread.
    pub fn shutdown(self) -> Engine {
        self.shutdown_with_stats().0
    }

    /// [`AsyncEngine::shutdown`], additionally returning the batcher's
    /// final accounting (taken *after* the drain, so shutdown-flushed
    /// groups are included).
    ///
    /// # Panics
    ///
    /// Propagates a panic from the drainer thread.
    pub fn shutdown_with_stats(mut self) -> (Engine, BatcherStats) {
        self.submitter.close();
        let drainer = self.drainer.take().expect("drainer joined twice");
        let engine = drainer.join().expect("engine drainer thread panicked");
        (engine, self.counters.snapshot())
    }
}

impl Submit for AsyncEngine {
    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submitter.submit(request)
    }

    fn try_submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submitter.try_submit(request)
    }
}

impl Drop for AsyncEngine {
    fn drop(&mut self) {
        if let Some(drainer) = self.drainer.take() {
            self.submitter.close();
            // Dropping without `shutdown` still drains; swallow a drainer
            // panic rather than aborting via double panic.
            let _ = drainer.join();
        }
    }
}

/// Concatenates tensors of `rows` rows in all along axis 0 (`concat_into`)
/// into a zeroed `[batch, ..]` tensor: rows past `rows` are padding.
///
/// # Panics
///
/// Panics if the tensors disagree on trailing dimensions.
fn pack_rows<'a>(parts: impl Iterator<Item = &'a Tensor>, rows: usize, batch: usize) -> Tensor {
    let parts: Vec<_> = parts.map(Tensor::view).collect();
    let mut dims = parts.first().expect("at least one request").dims().to_vec();
    let filled = rows * dims[1..].iter().product::<usize>();
    dims[0] = batch;
    let mut packed = Tensor::zeros(dims);
    layout::concat_into(&parts, 0, &mut packed.data_mut()[..filled]);
    packed
}

/// Rows `[offset, offset + n)` of a tensor whose axis 0 is the batch (the
/// shared `slice_axis_into` kernel behind a bounds check).
fn slice_rows(t: &Tensor, offset: usize, n: usize) -> Option<Tensor> {
    let mut dims = t.dims().to_vec();
    if dims.is_empty() || dims[0] < offset + n {
        return None;
    }
    dims[0] = n;
    let mut rows = Tensor::zeros(dims);
    layout::slice_axis_into(t.view(), 0, offset, n, rows.data_mut());
    Some(rows)
}
