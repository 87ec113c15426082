//! # pe-graph
//!
//! The unified intermediate representation (IR) of PockEngine-RS and its
//! compile-time automatic differentiation.
//!
//! A [`Graph`] is a static, SSA-style DAG of [`Node`]s over a single shared
//! operator vocabulary ([`OpKind`]) used by both forward and backward
//! computation. Models are constructed with [`GraphBuilder`] (the frontend),
//! and [`build_training_graph`] extends a forward graph with its backward and
//! parameter-update nodes at compile time, honouring a sparse
//! backpropagation [`TrainSpec`].
//!
//! The vocabulary holds only what a frontend builds and what autodiff
//! derives from it: there is no subtraction, division, concatenation,
//! rank-2 transpose, average pooling or reduction node.
//!
//! # Example: compile a training step for a tiny classifier
//!
//! ```
//! use pe_graph::{GraphBuilder, TrainSpec, TrainKind, build_training_graph};
//! use pe_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", [8, 32]);
//! let labels = b.input("labels", [8]);
//! let w = b.weight("fc.weight", [10, 32], &mut rng);
//! let bias = b.bias("fc.bias", 10);
//! let logits = b.linear(x, w, Some(bias));
//! let loss = b.cross_entropy(logits, labels);
//! let graph = b.finish(vec![loss, logits]);
//!
//! // Bias-only sparse backpropagation: freeze the weight.
//! let mut spec = TrainSpec::new();
//! spec.insert(w, TrainKind::Frozen);
//! let training = build_training_graph(graph, loss, &spec);
//! assert_eq!(training.updates.len(), 1);
//! ```

#![deny(missing_docs)]

pub(crate) mod autodiff;
pub(crate) mod builder;
pub(crate) mod cost;
pub(crate) mod graph;
pub(crate) mod op;

pub use autodiff::{build_training_graph, TrainSpec, TrainingGraph};
pub use builder::GraphBuilder;
pub use cost::{graph_cost, NodeCost};
pub use graph::{Graph, Node, ParamInfo, ParamInit, ParamKey};
pub use op::{NodeId, OpKind, ParamRole, TrainKind};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_usable() {
        let mut b = crate::GraphBuilder::new();
        let x = b.input("x", [1, 1]);
        let g = b.finish(vec![x]);
        assert_eq!(g.len(), 1);
    }
}
