//! # pe-passes
//!
//! Execution scheduling for PockEngine-RS (paper §3.2), including operator
//! reordering that applies parameter updates as soon as their gradients are
//! available. Dead code needs no pass: autodiff prunes the backward graph
//! as it derives it, so every node of a training graph is live.
//!
//! # Example
//!
//! ```
//! use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
//! use pe_passes::{build_schedule, ScheduleStrategy};
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
//! let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
//! assert_eq!(schedule.len(), tg.graph.len());
//! ```

#![deny(missing_docs)]

pub(crate) mod manager;
pub(crate) mod schedule;

pub use manager::{optimize, FusionStats, OptimizeOptions, OptimizeStats};
pub use schedule::{build_schedule, Schedule, ScheduleStrategy};
