//! Engine serving benchmark: throughput and latency of mixed-size
//! train/eval traffic through the **queued ingestion path** (bounded
//! submission queue + deadline-aware batcher), with the synchronous slice
//! path measured alongside as the reference, plus specialization-cache,
//! batcher and admission accounting.
//!
//! Run via the `bench_serving` binary, which writes
//! `BENCH_engine_serving.json` (the committed baseline the CI `bench_check`
//! gate compares against):
//!
//! ```text
//! cargo run --release -p pe_bench --bin bench_serving
//! ```
//!
//! # Stability for gating
//!
//! The gated headline (`requests_per_sec`) must be reproducible within the
//! gate's tolerance band, so the benchmark (a) scales the workload to
//! thousands of requests — the original 256-request run finished in ~2 ms,
//! which is timer-noise territory — and (b) runs `trials` independent
//! passes and reports the **best**, which strips scheduler interference
//! (the minimum-cost pass is the closest observation of the true cost of
//! the work). The throughput pass runs with admission disabled and no
//! per-request deadlines, so its workload is identical release over
//! release; admission-control numbers (`rejected_requests`) and the
//! per-priority latency percentiles come from the separate latency pass,
//! whose engine runs `AdmissionPolicy::DeadlineFeasible` with seeded
//! latency estimates and a deterministic fraction of zero-budget requests.

use std::time::{Duration, Instant};

use pockengine::pe_data::serving::{
    generate_arrival_process, generate_request_stream, ArrivalProcessConfig, DeadlineDistribution,
    Priority, Request, RequestStreamConfig,
};
use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;
use pockengine::{
    AdmissionPolicy, ArtifactRegistry, BatcherStats, CompileOptions, Compiler, Engine,
    EngineConfig, EngineMetrics, Outcome, Program, QueueConfig,
};

use crate::report::Json;

/// Configuration of one serving-bench run.
#[derive(Debug, Clone)]
pub struct ServingBenchConfig {
    /// Number of requests in the closed-loop stream.
    pub requests: usize,
    /// Request row counts (uniformly drawn).
    pub batch_sizes: Vec<usize>,
    /// Pre-specialized batch ladder.
    pub warm_batches: Vec<usize>,
    /// Fraction of training requests.
    pub train_fraction: f64,
    /// Stream seed.
    pub seed: u64,
    /// Independent measurement passes; the best is reported.
    pub trials: usize,
    /// Submission-queue capacity for the queued path.
    pub queue_capacity: usize,
    /// Default deadline budget per queued request (closed loop).
    pub queue_deadline: Duration,
    /// In the latency/admission pass, every Nth request carries a
    /// zero-duration deadline budget, which `DeadlineFeasible` admission
    /// deterministically rejects (estimates are seeded). 0 disables.
    pub tight_deadline_every: usize,
    /// Seeded per-rung latency estimate arming admission control before
    /// the first dispatch of the latency pass.
    pub seeded_latency: Duration,
    /// Requests in the open-loop arrival-process run.
    pub open_loop_requests: usize,
    /// Offered rate (requests/second) of the open-loop run.
    pub open_loop_rate: f64,
    /// Drain-worker counts to measure the queued throughput pass at, in
    /// addition to the single-worker headline (the parallel drain:
    /// `QueueConfig::drain_workers`).
    pub parallel_drain_workers: Vec<usize>,
}

impl Default for ServingBenchConfig {
    fn default() -> Self {
        ServingBenchConfig {
            requests: 2048,
            batch_sizes: vec![1, 2, 4, 8],
            warm_batches: vec![4, 8],
            train_fraction: 0.5,
            seed: 0,
            trials: 5,
            queue_capacity: 256,
            queue_deadline: Duration::from_micros(200),
            tight_deadline_every: 16,
            seeded_latency: Duration::from_micros(50),
            open_loop_requests: 1024,
            open_loop_rate: 25_000.0,
            parallel_drain_workers: vec![2, 4],
        }
    }
}

/// Latency percentiles of one pass, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyPercentiles {
    /// Median submission-to-completion latency.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

pub(crate) fn percentiles(mut latencies_us: Vec<f64>) -> LatencyPercentiles {
    if latencies_us.is_empty() {
        return LatencyPercentiles::default();
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pick = |q: f64| {
        let idx = ((latencies_us.len() - 1) as f64 * q).round() as usize;
        latencies_us[idx]
    };
    LatencyPercentiles {
        p50_us: pick(0.50),
        p95_us: pick(0.95),
        p99_us: pick(0.99),
    }
}

/// Measured outcome of one serving-bench run.
#[derive(Debug, Clone)]
pub struct ServingBenchResult {
    /// Requests served per throughput pass.
    pub requests: u64,
    /// Measurement passes taken.
    pub trials: usize,
    /// Engine metrics of the best queued pass.
    pub metrics: EngineMetrics,
    /// Batcher accounting of the best queued pass.
    pub batcher: BatcherStats,
    /// Specialization-cache dispatch hits of the best queued pass.
    pub cache_hits: u64,
    /// Specialization-cache dispatch misses (including ladder warmup).
    pub cache_misses: u64,
    /// Per-request cache hits (coalesced members counted individually).
    pub cache_request_hits: u64,
    /// Per-request cache misses.
    pub cache_request_misses: u64,
    /// Distinct batch sizes specialized.
    pub specializations: usize,
    /// Wall-clock of the best queued pass (first submit → last completion).
    pub elapsed_secs: f64,
    /// **The gated headline**: queued-path throughput with the inline
    /// single-worker drain, best of `trials`.
    pub requests_per_sec: f64,
    /// Queued-path throughput of the parallel drain, best of `trials` per
    /// worker count in `parallel_drain_workers` (gated per count).
    pub queued_workers_rps: Vec<(usize, f64)>,
    /// Batcher accounting of the best pass at the highest worker count
    /// (train-fence waits, priority overtakes, in-flight high-water).
    pub parallel_batcher: BatcherStats,
    /// Real rows per second through the queue, best pass.
    pub rows_per_sec: f64,
    /// Closed-loop submission-to-completion latency percentiles (measured
    /// in a dedicated pass with a concurrent ticket waiter; includes
    /// admission wait under backpressure).
    pub latency: LatencyPercentiles,
    /// Latency percentiles split by request priority (same pass).
    pub latency_by_priority: [(Priority, LatencyPercentiles); 3],
    /// Requests rejected on arrival by `DeadlineFeasible` admission in the
    /// latency pass (the deterministic zero-budget fraction).
    pub rejected_requests: u64,
    /// Synchronous slice-path throughput (reference), best of `trials`.
    pub sync_requests_per_sec: f64,
    /// Synchronous slice-path rows per second, best pass.
    pub sync_rows_per_sec: f64,
    /// Offered rate of the open-loop arrival run.
    pub open_loop_offered_per_sec: f64,
    /// Achieved completion rate of the open-loop run.
    pub open_loop_achieved_per_sec: f64,
    /// Latency percentiles of the open-loop run.
    pub open_loop_latency: LatencyPercentiles,
    /// Cold start, JIT path: engine construction (warm-ladder compiles)
    /// through the first served response, best of `trials`, microseconds.
    pub cold_start_jit_us: f64,
    /// Cold start with a warm artifact registry: every rung loads from
    /// disk instead of compiling (registry population is untimed — it
    /// happens offline via `program-gen`). Best of `trials`, microseconds.
    pub cold_start_registry_us: f64,
}

/// The bench model: a small MLP classifier family (feature dim 32). Shared
/// with the network-serving bench ([`crate::net`]) so the two reports
/// measure the same engine workload with and without the TCP transport.
pub(crate) fn mlp_factory(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, 32]);
    let labels = b.input("labels", [batch]);
    let w1 = b.weight("fc1.weight", [64, 32], &mut rng);
    let b1 = b.bias("fc1.bias", 64);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [8, 64], &mut rng);
    let b2 = b.bias("fc2.bias", 8);
    let logits = b.linear(h, w2, Some(b2));
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "x".to_string(),
        label_input: "labels".to_string(),
        num_blocks: 2,
        name: "serving-mlp".to_string(),
    }
}

fn serving_program() -> Program {
    Compiler::new(CompileOptions {
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    })
    .compile(mlp_factory)
}

fn fresh_engine(cfg: &ServingBenchConfig, admission: AdmissionPolicy) -> Engine {
    Engine::new(
        serving_program(),
        EngineConfig {
            warm_batches: cfg.warm_batches.clone(),
            admission,
            ..EngineConfig::default()
        },
    )
}

/// Cold-start comparison: wall-clock from engine construction (ladder
/// warmup compiles) through the first served response, JIT-compiling
/// versus loading every rung from a warm artifact registry. Registry
/// population is untimed (it happens offline via `program-gen` in
/// production); each variant reports the best of `trials` runs, in
/// microseconds.
fn cold_start_pass(cfg: &ServingBenchConfig, stream: &[Request]) -> (f64, f64) {
    let first = stream.first().expect("non-empty stream");
    // Every rung the warm ladder or the first request can touch, so the
    // registry path never falls back to JIT.
    let mut rungs: Vec<usize> = cfg
        .warm_batches
        .iter()
        .chain(&cfg.batch_sizes)
        .copied()
        .collect();
    rungs.sort_unstable();
    rungs.dedup();
    let dir = std::env::temp_dir().join(format!("pe-serving-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut program = serving_program();
        program.attach_registry(None);
        program
            .export_artifacts(&ArtifactRegistry::new(&dir), &rungs)
            .expect("artifact export");
    }
    let time_best = |registry: Option<std::path::PathBuf>| {
        let mut best = f64::INFINITY;
        for _ in 0..cfg.trials {
            let start = Instant::now();
            let mut program = serving_program();
            if registry.is_none() {
                // Measure true JIT even when the ambient environment
                // names a registry (`PE_PROGRAM_REGISTRY`).
                program.attach_registry(None);
            }
            let mut engine = Engine::new(
                program,
                EngineConfig {
                    warm_batches: cfg.warm_batches.clone(),
                    registry: registry.clone(),
                    ..EngineConfig::default()
                },
            );
            engine.serve_one(first).expect("cold-start serve");
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    let jit_us = time_best(None);
    let registry_us = time_best(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    (jit_us, registry_us)
}

/// Seeds the engine's latency model for every rung the stream can touch
/// (train rungs are exact row counts; eval rungs are the warm ladder), so
/// `DeadlineFeasible` decisions are deterministic from the first request.
fn seed_estimates(engine: &mut Engine, cfg: &ServingBenchConfig) {
    for &batch in cfg.batch_sizes.iter().chain(&cfg.warm_batches) {
        engine.seed_latency_estimate(batch, cfg.seeded_latency);
    }
}

struct QueuedPass {
    elapsed: f64,
    metrics: EngineMetrics,
    batcher: BatcherStats,
    cache: pockengine::CacheStats,
    specializations: usize,
}

/// One latency observation from the concurrent ticket waiter.
struct Observation {
    priority: Priority,
    latency_us: f64,
}

/// What the waiter thread collected over one pass.
struct WaiterReport {
    observations: Vec<Observation>,
    rejected: u64,
    last: Instant,
}

/// Redeems tickets on a dedicated thread *while* the producer submits, so
/// the queue keeps draining at pace and memory stays bounded. Latencies
/// use the resolve instant the drainer stamped into each ticket
/// (`Ticket::wait_timed`), so per-request numbers are exact even when
/// priority scheduling resolves tickets out of the waiter's
/// submission-order redemption. Rejected requests resolve instantly and
/// are counted instead of timed.
fn redeem_concurrently(
    producer: impl FnOnce(&std::sync::mpsc::Sender<(Instant, Priority, pockengine::Ticket)>),
) -> WaiterReport {
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, Priority, pockengine::Ticket)>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut report = WaiterReport {
                observations: Vec::new(),
                rejected: 0,
                last: Instant::now(),
            };
            for (submitted, priority, ticket) in rx {
                let (outcome, resolved_at) = ticket.wait_timed();
                report.last = report.last.max(resolved_at);
                match outcome.expect("stream must be well-formed") {
                    Outcome::Completed(_) => report.observations.push(Observation {
                        priority,
                        latency_us: (resolved_at - submitted).as_secs_f64() * 1e6,
                    }),
                    Outcome::Rejected(_) => report.rejected += 1,
                    Outcome::Cancelled => panic!("request cancelled mid-bench"),
                }
            }
            report
        });
        producer(&tx);
        drop(tx);
        waiter.join().expect("ticket waiter panicked")
    })
}

/// One closed-loop **throughput** pass through the queue: submit the whole
/// stream as fast as backpressure admits, then let `shutdown` drain. Only
/// the producer and the drainer (plus `workers - 1` extra drain workers
/// when `workers >= 2`) run — no ticket-waiter thread — so the measurement
/// carries the minimum scheduling noise on small (1-core CI) containers;
/// tickets are fulfilled but intentionally dropped unredeemed. Latency
/// percentiles come from the separate [`latency_pass`].
fn queued_pass(cfg: &ServingBenchConfig, stream: &[Request], workers: usize) -> QueuedPass {
    let engine = fresh_engine(cfg, AdmissionPolicy::AcceptAll).into_async(QueueConfig {
        capacity: cfg.queue_capacity,
        default_deadline: cfg.queue_deadline,
        drain_workers: workers,
        eval_group_sleep: None,
    });
    let start = Instant::now();
    for r in stream {
        drop(engine.submit(r.clone()).expect("queue open"));
    }
    let (drained, batcher) = engine.shutdown_with_stats();
    // shutdown() returns only after the drainer served everything in
    // flight, so this instant bounds the last completion.
    let elapsed = start.elapsed().as_secs_f64();
    let metrics = drained.metrics();
    assert_eq!(metrics.requests, stream.len() as u64);
    QueuedPass {
        elapsed,
        metrics,
        batcher,
        cache: drained.cache_stats(),
        specializations: drained.program().cached_batches().len(),
    }
}

/// One closed-loop **latency + admission** pass: same submission pattern,
/// but a waiter thread redeems tickets concurrently so per-request
/// completion times are observed when the drainer fulfills them. The
/// engine runs `DeadlineFeasible` admission with seeded estimates; every
/// `tight_deadline_every`-th request carries a zero budget and is
/// deterministically rejected (counted, not timed).
fn latency_pass(cfg: &ServingBenchConfig, stream: &[Request]) -> (WaiterReport, u64) {
    let mut engine = fresh_engine(cfg, AdmissionPolicy::DeadlineFeasible);
    seed_estimates(&mut engine, cfg);
    let engine = engine.into_async(QueueConfig {
        capacity: cfg.queue_capacity,
        default_deadline: cfg.queue_deadline,
        drain_workers: 1,
        eval_group_sleep: None,
    });
    let report = redeem_concurrently(|tx| {
        for (i, r) in stream.iter().enumerate() {
            let mut request = r.clone();
            if cfg.tight_deadline_every > 0 && i % cfg.tight_deadline_every == 0 {
                request.meta.deadline = Some(Duration::ZERO);
            }
            let priority = request.meta.priority;
            let at = Instant::now();
            let ticket = engine.submit(request).expect("queue open");
            tx.send((at, priority, ticket)).expect("waiter alive");
        }
    });
    let rejected = engine.shutdown().metrics().rejected;
    (report, rejected)
}

/// One pass over the synchronous slice path (the reference semantics).
fn sync_pass(cfg: &ServingBenchConfig, stream: &[Request]) -> (f64, u64) {
    let mut engine = fresh_engine(cfg, AdmissionPolicy::AcceptAll);
    let start = Instant::now();
    let outcomes = engine.serve(stream).expect("stream must be well-formed");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(outcomes.len(), stream.len());
    (elapsed, engine.metrics().rows)
}

/// Runs the serving benchmark; see the module docs for the methodology.
pub fn run_serving_bench(cfg: &ServingBenchConfig) -> ServingBenchResult {
    assert!(cfg.trials > 0, "at least one trial required");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let stream_cfg = RequestStreamConfig {
        num_requests: cfg.requests,
        batch_sizes: cfg.batch_sizes.clone(),
        train_fraction: cfg.train_fraction,
        priorities: Priority::ALL.to_vec(),
        num_classes: 8,
        feature_dim: 32,
        ..RequestStreamConfig::default()
    };
    let stream = generate_request_stream(&stream_cfg, &mut rng);

    // Queued path: best of N (producer + drainer only; see `queued_pass`).
    let mut best: Option<QueuedPass> = None;
    for _ in 0..cfg.trials {
        let pass = queued_pass(cfg, &stream, 1);
        if best.as_ref().is_none_or(|b| pass.elapsed < b.elapsed) {
            best = Some(pass);
        }
    }
    let best = best.expect("trials > 0");

    // Parallel drain: the same throughput pass at each configured worker
    // count, best of N. The batcher accounting of the best pass at the
    // highest count is reported (fence waits, overtakes, in-flight peak).
    let mut queued_workers_rps = Vec::new();
    let mut parallel_batcher = best.batcher;
    for &workers in &cfg.parallel_drain_workers {
        let mut best_parallel: Option<QueuedPass> = None;
        for _ in 0..cfg.trials {
            let pass = queued_pass(cfg, &stream, workers);
            if best_parallel
                .as_ref()
                .is_none_or(|b| pass.elapsed < b.elapsed)
            {
                best_parallel = Some(pass);
            }
        }
        let best_parallel = best_parallel.expect("trials > 0");
        queued_workers_rps.push((
            workers,
            best_parallel.metrics.requests as f64 / best_parallel.elapsed.max(1e-9),
        ));
        parallel_batcher = best_parallel.batcher;
    }

    // Closed-loop latency percentiles + admission accounting (separate
    // pass with a ticket waiter and DeadlineFeasible admission).
    let (closed_report, rejected_requests) = latency_pass(cfg, &stream);
    let latency_by_priority = Priority::ALL.map(|p| {
        (
            p,
            percentiles(
                closed_report
                    .observations
                    .iter()
                    .filter(|o| o.priority == p)
                    .map(|o| o.latency_us)
                    .collect(),
            ),
        )
    });
    let closed_latencies: Vec<f64> = closed_report
        .observations
        .iter()
        .map(|o| o.latency_us)
        .collect();

    // Sync slice path: best of N (reference).
    let (mut sync_elapsed, mut sync_rows) = sync_pass(cfg, &stream);
    for _ in 1..cfg.trials {
        let (elapsed, rows) = sync_pass(cfg, &stream);
        if elapsed < sync_elapsed {
            (sync_elapsed, sync_rows) = (elapsed, rows);
        }
    }

    // Open-loop arrival process: offered rate fixed up front, latency under
    // deadline-diverse traffic.
    let process = generate_arrival_process(
        &ArrivalProcessConfig {
            stream: RequestStreamConfig {
                num_requests: cfg.open_loop_requests,
                ..stream_cfg.clone()
            },
            rate_per_sec: cfg.open_loop_rate,
            deadline: DeadlineDistribution::Uniform(
                Duration::from_micros(100),
                Duration::from_millis(1),
            ),
        },
        &mut rng,
    );
    let engine = fresh_engine(cfg, AdmissionPolicy::AcceptAll).into_async(QueueConfig {
        capacity: cfg.queue_capacity,
        default_deadline: cfg.queue_deadline,
        drain_workers: 1,
        eval_group_sleep: None,
    });
    let start = Instant::now();
    let open_report = redeem_concurrently(|tx| {
        for t in &process {
            // Pace the producer to the arrival process. Sleeping (rather
            // than spinning) keeps the producer off the drainer's core on
            // single-CPU containers; sub-granularity gaps become small
            // bursts, which an open queue absorbs.
            let arrival = t.meta.arrival.expect("open-loop requests carry arrivals");
            let now = start.elapsed();
            if now < arrival {
                std::thread::sleep(arrival - now);
            }
            let priority = t.meta.priority;
            let at = Instant::now();
            // The request's own meta.deadline is its batching budget.
            let ticket = engine.submit(t.clone()).expect("queue open");
            tx.send((at, priority, ticket)).expect("waiter alive");
        }
    });
    let open_elapsed = (open_report.last - start).as_secs_f64();
    drop(engine.shutdown());
    let open_latencies: Vec<f64> = open_report
        .observations
        .iter()
        .map(|o| o.latency_us)
        .collect();

    let (cold_start_jit_us, cold_start_registry_us) = cold_start_pass(cfg, &stream);

    ServingBenchResult {
        requests: best.metrics.requests,
        trials: cfg.trials,
        metrics: best.metrics,
        batcher: best.batcher,
        cache_hits: best.cache.hits,
        cache_misses: best.cache.misses,
        cache_request_hits: best.cache.request_hits,
        cache_request_misses: best.cache.request_misses,
        specializations: best.specializations,
        elapsed_secs: best.elapsed,
        requests_per_sec: best.metrics.requests as f64 / best.elapsed.max(1e-9),
        queued_workers_rps,
        parallel_batcher,
        rows_per_sec: best.metrics.rows as f64 / best.elapsed.max(1e-9),
        latency: percentiles(closed_latencies),
        latency_by_priority,
        rejected_requests,
        sync_requests_per_sec: stream.len() as f64 / sync_elapsed.max(1e-9),
        sync_rows_per_sec: sync_rows as f64 / sync_elapsed.max(1e-9),
        open_loop_offered_per_sec: cfg.open_loop_rate,
        open_loop_achieved_per_sec: cfg.open_loop_requests as f64 / open_elapsed.max(1e-9),
        open_loop_latency: percentiles(open_latencies),
        cold_start_jit_us,
        cold_start_registry_us,
    }
}

impl ServingBenchResult {
    /// The JSON representation written to `BENCH_engine_serving.json`.
    ///
    /// `requests_per_sec` is the field the CI `bench_check` gate compares
    /// against the committed baseline; `rejected_requests`, the per-priority
    /// latency percentiles and the other integer fields are informational.
    pub fn to_json(&self) -> Json {
        let fields = vec![
            ("bench", Json::Str("engine_serving".into())),
            ("requests", Json::Int(self.requests)),
            ("trials", Json::Int(self.trials as u64)),
            ("train_steps", Json::Int(self.metrics.train_steps)),
            ("eval_batches", Json::Int(self.metrics.eval_batches)),
            ("rows", Json::Int(self.metrics.rows)),
            ("padded_rows", Json::Int(self.metrics.padded_rows)),
            ("rejected_requests", Json::Int(self.rejected_requests)),
            ("cache_hits", Json::Int(self.cache_hits)),
            ("cache_misses", Json::Int(self.cache_misses)),
            ("cache_request_hits", Json::Int(self.cache_request_hits)),
            ("cache_request_misses", Json::Int(self.cache_request_misses)),
            ("specializations", Json::Int(self.specializations as u64)),
            ("batcher_eval_groups", Json::Int(self.batcher.eval_groups)),
            (
                "batcher_target_flushes",
                Json::Int(self.batcher.target_flushes),
            ),
            (
                "batcher_deadline_flushes",
                Json::Int(self.batcher.deadline_flushes),
            ),
            (
                "batcher_barrier_flushes",
                Json::Int(self.batcher.barrier_flushes),
            ),
            (
                "batcher_expired_dispatches",
                Json::Int(self.batcher.expired_dispatches),
            ),
            (
                "parallel_fence_waits",
                Json::Int(self.parallel_batcher.fence_waits),
            ),
            (
                "parallel_fence_wait_us",
                Json::Int(self.parallel_batcher.fence_wait_us),
            ),
            (
                "parallel_priority_overtakes",
                Json::Int(self.parallel_batcher.priority_overtakes),
            ),
            (
                "parallel_max_in_flight",
                Json::Int(self.parallel_batcher.max_in_flight),
            ),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("requests_per_sec", Json::Num(self.requests_per_sec)),
            ("rows_per_sec", Json::Num(self.rows_per_sec)),
            ("latency_p50_us", Json::Num(self.latency.p50_us)),
            ("latency_p95_us", Json::Num(self.latency.p95_us)),
            ("latency_p99_us", Json::Num(self.latency.p99_us)),
            (
                "sync_requests_per_sec",
                Json::Num(self.sync_requests_per_sec),
            ),
            ("sync_rows_per_sec", Json::Num(self.sync_rows_per_sec)),
            (
                "open_loop_offered_per_sec",
                Json::Num(self.open_loop_offered_per_sec),
            ),
            (
                "open_loop_achieved_per_sec",
                Json::Num(self.open_loop_achieved_per_sec),
            ),
            (
                "open_loop_latency_p50_us",
                Json::Num(self.open_loop_latency.p50_us),
            ),
            (
                "open_loop_latency_p95_us",
                Json::Num(self.open_loop_latency.p95_us),
            ),
            (
                "open_loop_latency_p99_us",
                Json::Num(self.open_loop_latency.p99_us),
            ),
            ("cold_start_jit_us", Json::Num(self.cold_start_jit_us)),
            (
                "cold_start_registry_us",
                Json::Num(self.cold_start_registry_us),
            ),
        ];
        let mut json = Json::obj(fields);
        if let Json::Obj(fields) = &mut json {
            // The single-worker headline doubles as the workers=1 entry of
            // the parallel-drain scaling series, so the gate reads one
            // uniform field family.
            fields.push((
                "requests_per_sec_workers_1".to_string(),
                Json::Num(self.requests_per_sec),
            ));
            for &(workers, rps) in &self.queued_workers_rps {
                fields.push((
                    format!("requests_per_sec_workers_{workers}"),
                    Json::Num(rps),
                ));
            }
            for (priority, latency) in &self.latency_by_priority {
                let name = priority.name();
                fields.push((format!("latency_p50_{name}_us"), Json::Num(latency.p50_us)));
                fields.push((format!("latency_p99_{name}_us"), Json::Num(latency.p99_us)));
            }
        }
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServingBenchConfig {
        ServingBenchConfig {
            requests: 48,
            trials: 2,
            open_loop_requests: 24,
            open_loop_rate: 100_000.0,
            ..ServingBenchConfig::default()
        }
    }

    #[test]
    fn serving_bench_runs_and_hits_the_cache() {
        let result = run_serving_bench(&tiny_cfg());
        assert_eq!(result.requests, 48);
        assert!(
            result.metrics.train_steps > 0,
            "stream should contain train steps"
        );
        assert!(result.cache_hits > 0, "steady state must hit the cache");
        assert_eq!(
            result.cache_request_hits + result.cache_request_misses,
            48,
            "every request attributed in the per-request accounting"
        );
        assert!(result.requests_per_sec > 0.0);
        assert!(result.sync_requests_per_sec > 0.0);
        assert!(result.open_loop_achieved_per_sec > 0.0);
        assert!(result.latency.p50_us <= result.latency.p99_us);
        // 48 requests with every 16th zero-budget: exactly 3 rejections.
        assert_eq!(result.rejected_requests, 3);
        assert!(result.cold_start_jit_us > 0.0);
        assert!(result.cold_start_registry_us > 0.0);
        let json = result.to_json().render();
        assert!(json.contains("\"requests_per_sec\""));
        assert!(json.contains("\"latency_p99_us\""));
        assert!(json.contains("\"batcher_eval_groups\""));
        assert!(json.contains("\"cache_request_hits\""));
        assert!(json.contains("\"rejected_requests\""));
        assert!(json.contains("\"latency_p99_high_us\""));
        assert!(json.contains("\"latency_p99_normal_us\""));
        assert!(json.contains("\"latency_p99_low_us\""));
        assert!(json.contains("\"cold_start_jit_us\""));
        assert!(json.contains("\"cold_start_registry_us\""));
        // Parallel drain: one throughput figure per configured worker
        // count, all non-zero (every pass asserts it served the stream).
        assert_eq!(result.queued_workers_rps.len(), 2);
        assert!(result.queued_workers_rps.iter().all(|&(_, rps)| rps > 0.0));
        assert!(json.contains("\"requests_per_sec_workers_1\""));
        assert!(json.contains("\"requests_per_sec_workers_2\""));
        assert!(json.contains("\"requests_per_sec_workers_4\""));
        assert!(json.contains("\"parallel_fence_waits\""));
        assert!(json.contains("\"parallel_max_in_flight\""));
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let p = percentiles((1..=100).map(|i| i as f64).collect());
        assert_eq!(p.p50_us, 51.0);
        assert_eq!(p.p95_us, 95.0);
        assert_eq!(p.p99_us, 99.0);
        let empty = percentiles(Vec::new());
        assert_eq!(empty.p50_us, 0.0);
    }
}
