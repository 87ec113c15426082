//! # pe-passes
//!
//! Training-graph optimisation passes for PockEngine-RS (paper §3.2):
//!
//! * `dce` — dead-code elimination after sparse-backpropagation pruning;
//! * `schedule` — execution scheduling, including operator reordering that
//!   applies parameter updates as soon as their gradients are available;
//! * `manager` — the fixed pipeline combining all of the above.
//!
//! # Example
//!
//! ```
//! use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
//! use pe_passes::{optimize, OptimizeOptions};
//! use pe_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", [2, 8]);
//! let labels = b.input("labels", [2]);
//! let w = b.weight("fc.weight", [4, 8], &mut rng);
//! let bias = b.bias("fc.bias", 4);
//! let logits = b.linear(x, w, Some(bias));
//! let loss = b.cross_entropy(logits, labels);
//! let graph = b.finish(vec![loss]);
//! let tg = build_training_graph(graph, loss, &TrainSpec::new());
//! let (optimized, schedule, stats) = optimize(tg, OptimizeOptions::default());
//! assert_eq!(schedule.len(), optimized.graph.len());
//! assert!(stats.launches_after <= stats.launches_before);
//! ```

#![deny(missing_docs)]

pub(crate) mod dce;
pub(crate) mod manager;
pub(crate) mod schedule;

pub use manager::{optimize, FusionStats, OptimizeOptions, OptimizeStats};
pub use schedule::{build_schedule, Schedule, ScheduleStrategy};
