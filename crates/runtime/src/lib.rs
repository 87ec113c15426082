//! # pe-runtime
//!
//! The slim runtime that executes compiled PockEngine-RS training programs,
//! plus the optimizers, a conventional eager baseline, and training-loop
//! helpers.
//!
//! * [`Executor`] walks a pre-computed schedule over the training graph,
//!   dispatching nodes to the shared kernel library and applying parameter
//!   updates in place — no autodiff, shape inference or graph work at
//!   runtime. It executes out of one planner-sized slab (zero transient
//!   heap allocations per step) on the calling thread.
//! * [`ParamStore`] holds the canonical tensor and optimizer state of every
//!   parameter, keyed by stable `pe_graph::ParamKey` identities. Executors
//!   *borrow* a store (`Executor::with_store`), so many batch-size
//!   specializations of one model train a single set of weights.
//! * [`EagerEngine`] is the PyTorch/TensorFlow-style baseline: it re-derives
//!   the backward graph every step and applies all updates at the end, which
//!   is what the compilation-first design is measured against (Figure 7).
//! * [`Optimizer`] implements SGD, momentum, Adam and Lion.
//! * [`Trainer`] drives batches, tracks losses and computes accuracy.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
//! use pe_passes::{optimize, OptimizeOptions};
//! use pe_runtime::{Executor, Optimizer};
//! use pe_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", [2, 4]);
//! let labels = b.input("labels", [2]);
//! let w = b.weight("fc.weight", [3, 4], &mut rng);
//! let logits = b.linear(x, w, None);
//! let loss = b.cross_entropy(logits, labels);
//! let graph = b.finish(vec![loss]);
//! let tg = build_training_graph(graph, loss, &TrainSpec::new());
//! let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
//! let mut exec = Executor::new(tg, schedule, Optimizer::sgd(0.1));
//! let inputs = HashMap::from([
//!     ("x".to_string(), Tensor::ones(&[2, 4])),
//!     ("labels".to_string(), Tensor::zeros(&[2])),
//! ]);
//! let result = exec.run_step(&inputs)?;
//! assert!(result.loss.unwrap() > 0.0);
//! # Ok::<(), pe_runtime::ExecError>(())
//! ```

#![deny(missing_docs)]

mod arena;
pub(crate) mod eager;
pub(crate) mod executor;
pub(crate) mod optimizer;
pub(crate) mod store;
pub(crate) mod trainer;

pub use eager::EagerEngine;
pub use executor::{ExecError, Executor, ExecutorConfig, StepResult};
pub use optimizer::Optimizer;
pub use store::{ParamStore, SnapshotError};
pub use trainer::{Batch, Trainer, TrainingHistory};
