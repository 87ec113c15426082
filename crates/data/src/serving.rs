//! Synthetic serving workloads: mixed-size streams of training and
//! evaluation requests, carried by the canonical [`Request`] type.
//!
//! The engine facade in `pockengine` serves heterogeneous traffic — requests
//! arrive with different batch sizes and mix on-device fine-tuning steps
//! with inference. [`Request`] is the one request type both of the engine's
//! ingestion paths (the synchronous slice path and the bounded submission
//! queue) accept: a tensor payload plus [`RequestMeta`] — deadline budget,
//! [`Priority`] and a caller-assigned id — built
//! via the `Request::eval(..)/train(..).deadline(..).priority(..)` builder.
//!
//! The generators here stand in for production traffic: a reproducible
//! stream of requests over one underlying classification task (shared class
//! templates, so training requests actually improve later evaluation
//! requests), with per-request row counts drawn from a configurable ladder.

use std::time::Duration;

use pe_tensor::{Rng, Tensor};

/// Whether a serving request asks for a training step or an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServingKind {
    /// Run one optimisation step on the request's batch.
    Train,
    /// Run inference only.
    Eval,
}

/// Scheduling priority of a request.
///
/// Priorities order dispatch when the submission queue is backed up: the
/// drainer pops the highest-priority request first, FIFO within a priority
/// class. Training requests are strict fences — no request is ever
/// reordered across a training request in either direction — which is what
/// keeps priority scheduling bit-identical to in-order execution (only
/// read-only evaluations reorder, and only between the same two training
/// steps). The synchronous slice path never reorders: a slice *is* its
/// order; priorities there only feed admission and accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Batch/background work: dispatched only when nothing more urgent
    /// waits.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive traffic: jumps queued `Normal`/`Low` evaluations.
    High,
}

/// Request metadata shared by both ingestion paths.
///
/// Every field is optional or defaulted: `Request::eval(..)` with no
/// builder calls behaves exactly like the historical bare request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// Caller-assigned correlation id, echoed back on the response.
    pub id: Option<u64>,
    /// Deadline budget: how long the request tolerates waiting (in the
    /// batcher, for companions) before it must be dispatched — and the
    /// budget admission control checks estimated latency against. `None`
    /// defers to the queue's default budget and is always admitted.
    pub deadline: Option<Duration>,
    /// Scheduling priority (see [`Priority`]).
    pub priority: Priority,
}

/// One serving request: the tensor payload plus [`RequestMeta`].
///
/// This is the canonical request type of the serving API — the same value
/// flows through `Engine::serve` (synchronous slices), `Engine::serve_one`
/// and the bounded submission queue. Build one with the fluent builder:
///
/// ```
/// use std::time::Duration;
/// use pe_data::serving::{Priority, Request};
/// use pe_tensor::Tensor;
///
/// let request = Request::eval(Tensor::zeros([2, 16]), Tensor::zeros([2]))
///     .deadline(Duration::from_micros(500))
///     .priority(Priority::High)
///     .id(42);
/// assert_eq!(request.rows(), 2);
/// assert_eq!(request.meta.id, Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    /// Train or eval.
    pub kind: ServingKind,
    /// Feature tensor, `[rows, feature_dim]`.
    pub features: Tensor,
    /// Integer class labels stored as floats, `[rows]`.
    pub labels: Tensor,
    /// Deadline budget, priority, caller id.
    pub meta: RequestMeta,
}

impl Request {
    /// A request of the given kind with default metadata.
    pub fn new(kind: ServingKind, features: Tensor, labels: Tensor) -> Self {
        Request {
            kind,
            features,
            labels,
            meta: RequestMeta::default(),
        }
    }

    /// An evaluation (inference-only) request with default metadata.
    pub fn eval(features: Tensor, labels: Tensor) -> Self {
        Request::new(ServingKind::Eval, features, labels)
    }

    /// A training-step request with default metadata.
    pub fn train(features: Tensor, labels: Tensor) -> Self {
        Request::new(ServingKind::Train, features, labels)
    }

    /// Sets the deadline budget (builder style).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.meta.deadline = Some(budget);
        self
    }

    /// Sets the scheduling priority (builder style).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.meta.priority = priority;
        self
    }

    /// Sets the caller-assigned correlation id (builder style).
    pub fn id(mut self, id: u64) -> Self {
        self.meta.id = Some(id);
        self
    }

    /// Number of examples in the request.
    pub fn rows(&self) -> usize {
        self.labels.numel()
    }
}

/// Configuration for [`generate_request_stream`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStreamConfig {
    /// Number of requests in the stream.
    pub num_requests: usize,
    /// Row counts drawn uniformly per request.
    pub batch_sizes: Vec<usize>,
    /// Fraction of requests that are training steps (0.0..=1.0).
    pub train_fraction: f64,
    /// Priorities drawn uniformly per request (default: all `Normal`).
    pub priorities: Vec<Priority>,
    /// Number of classes.
    pub num_classes: usize,
    /// Flat feature dimensionality.
    pub feature_dim: usize,
    /// Strength of the class signal.
    pub signal: f32,
    /// Noise standard deviation (higher = harder).
    pub noise: f32,
}

impl Default for RequestStreamConfig {
    fn default() -> Self {
        RequestStreamConfig {
            num_requests: 64,
            batch_sizes: vec![2, 4, 8],
            train_fraction: 0.5,
            priorities: vec![Priority::Normal],
            num_classes: 4,
            feature_dim: 16,
            signal: 1.5,
            noise: 0.3,
        }
    }
}

/// Generates a reproducible mixed train/eval request stream.
///
/// All requests sample the same underlying task (per-class feature
/// templates), so the stream is coherent: training requests move the model
/// toward higher accuracy on subsequent evaluation requests. Priorities are
/// drawn uniformly from `cfg.priorities`; deadlines are left unset (the
/// closed-loop regime).
///
/// # Panics
///
/// Panics if `batch_sizes` or `priorities` is empty, or if a batch size
/// is 0.
pub fn generate_request_stream(cfg: &RequestStreamConfig, rng: &mut Rng) -> Vec<Request> {
    assert!(
        cfg.batch_sizes.iter().all(|&b| b > 0) && !cfg.batch_sizes.is_empty(),
        "batch_sizes must be non-empty and positive"
    );
    assert!(!cfg.priorities.is_empty(), "priorities must be non-empty");
    let d = cfg.feature_dim;
    let templates: Vec<Tensor> = (0..cfg.num_classes)
        .map(|_| Tensor::randn([d], 1.0, rng))
        .collect();

    (0..cfg.num_requests)
        .map(|_| {
            let rows = cfg.batch_sizes[rng.next_usize(cfg.batch_sizes.len())];
            let kind = if (rng.next_usize(1_000_000) as f64) < cfg.train_fraction * 1_000_000.0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            let priority = cfg.priorities[rng.next_usize(cfg.priorities.len())];
            let mut features = Tensor::zeros([rows, d]);
            let mut labels = Tensor::zeros([rows]);
            for i in 0..rows {
                let cls = rng.next_usize(cfg.num_classes);
                labels.data_mut()[i] = cls as f32;
                for j in 0..d {
                    features.data_mut()[i * d + j] =
                        cfg.signal * templates[cls].data()[j] + cfg.noise * rng.normal();
                }
            }
            Request::new(kind, features, labels).priority(priority)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_meta_field() {
        let r = Request::train(Tensor::zeros([4, 8]), Tensor::zeros([4]))
            .deadline(Duration::from_micros(250))
            .priority(Priority::High)
            .id(7);
        assert_eq!(r.kind, ServingKind::Train);
        assert_eq!(r.rows(), 4);
        assert_eq!(r.meta.deadline, Some(Duration::from_micros(250)));
        assert_eq!(r.meta.priority, Priority::High);
        assert_eq!(r.meta.id, Some(7));
    }

    #[test]
    fn priorities_order_low_normal_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn stream_respects_config() {
        let cfg = RequestStreamConfig {
            num_requests: 40,
            batch_sizes: vec![2, 8],
            train_fraction: 0.5,
            priorities: vec![Priority::Low, Priority::High],
            ..RequestStreamConfig::default()
        };
        let mut rng = Rng::seed_from_u64(0);
        let stream = generate_request_stream(&cfg, &mut rng);
        assert_eq!(stream.len(), 40);
        for req in &stream {
            let rows = req.rows();
            assert!(rows == 2 || rows == 8);
            assert_eq!(req.features.dims(), &[rows, cfg.feature_dim]);
            assert!(req
                .labels
                .data()
                .iter()
                .all(|&l| (l as usize) < cfg.num_classes));
            assert!(req.meta.priority == Priority::Low || req.meta.priority == Priority::High);
            assert_eq!(req.meta.deadline, None, "closed-loop streams carry none");
        }
        let trains = stream
            .iter()
            .filter(|r| r.kind == ServingKind::Train)
            .count();
        assert!(trains > 5 && trains < 35, "train mix should be near half");
        let highs = stream
            .iter()
            .filter(|r| r.meta.priority == Priority::High)
            .count();
        assert!(highs > 5 && highs < 35, "priority mix should be near half");
    }

    #[test]
    fn all_train_and_all_eval_extremes() {
        let mut rng = Rng::seed_from_u64(1);
        let all_train = generate_request_stream(
            &RequestStreamConfig {
                num_requests: 10,
                train_fraction: 1.0,
                ..RequestStreamConfig::default()
            },
            &mut rng,
        );
        assert!(all_train.iter().all(|r| r.kind == ServingKind::Train));
        let all_eval = generate_request_stream(
            &RequestStreamConfig {
                num_requests: 10,
                train_fraction: 0.0,
                ..RequestStreamConfig::default()
            },
            &mut rng,
        );
        assert!(all_eval.iter().all(|r| r.kind == ServingKind::Eval));
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = RequestStreamConfig::default();
        let a = generate_request_stream(&cfg, &mut Rng::seed_from_u64(9));
        let b = generate_request_stream(&cfg, &mut Rng::seed_from_u64(9));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].features.data(), b[0].features.data());
        assert_eq!(a[0].kind, b[0].kind);
    }
}
