//! The static computation graph (unified IR).

use std::collections::HashMap;
use std::sync::Arc;

use pe_tensor::{Shape, Tensor};

use crate::op::{NodeId, OpKind, ParamRole};

/// A single value-producing operation in the IR.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier (index) of this node.
    pub id: NodeId,
    /// The operation and its static attributes.
    pub op: OpKind,
    /// Input value identifiers.
    pub inputs: Vec<NodeId>,
    /// Static output shape.
    pub shape: Shape,
    /// Human-readable name (`"blocks.3.conv1.weight"`, `"grad.logits"`, ...).
    pub name: String,
}

impl Node {
    /// Output storage size in bytes (`f32` elements).
    pub fn size_bytes(&self) -> usize {
        self.shape.numel() * 4
    }
}

/// Initial value of a parameter.
///
/// A concrete value is reference-counted: cloning a graph, deriving its
/// backward graph and materialising a parameter store all share the one
/// buffer the model builder allocated, so a weight exists once however
/// many graphs name it. Nothing writes through the
/// shared handle; a store cell that is updated unshares its value first.
///
/// Paper-scale model configurations (e.g. a 7B-parameter Llama used only for
/// memory and latency accounting) defer initialisation so that building the
/// graph does not allocate gigabytes; the runtime materialises deferred
/// parameters as zeros only if such a graph is actually executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamInit {
    /// A concrete initial tensor, shared by every graph and store built
    /// from this one.
    Value(Arc<Tensor>),
    /// No materialised value; the runtime substitutes zeros if needed.
    Deferred,
}

impl ParamInit {
    /// The concrete tensor, if one was provided.
    pub fn tensor(&self) -> Option<&Tensor> {
        match self {
            ParamInit::Value(t) => Some(t),
            ParamInit::Deferred => None,
        }
    }
}

impl From<Tensor> for ParamInit {
    fn from(value: Tensor) -> Self {
        ParamInit::Value(Arc::new(value))
    }
}

/// Stable identity of a parameter across graph rebuilds.
///
/// Node ids are positional and change whenever a model is rebuilt (for
/// example at a different batch size), but the canonical parameter *name*
/// does not: the model builders derive it from the layer structure, which
/// is batch-independent. A `ParamKey` wraps that name so a shared parameter
/// store can resolve the same logical parameter from every specialization
/// of a model family.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamKey(String);

impl ParamKey {
    /// Creates a key from a canonical parameter name.
    pub fn new(name: impl Into<String>) -> Self {
        ParamKey(name.into())
    }

    /// The canonical parameter name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ParamKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ParamKey {
    fn from(name: &str) -> Self {
        ParamKey::new(name)
    }
}

/// Metadata for a parameter node.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamInfo {
    /// The parameter's node id.
    pub(crate) node: NodeId,
    /// Role (weight / bias / norm scale / ...).
    pub role: ParamRole,
    /// Initial value used when the runtime materialises the parameter store.
    pub init: ParamInit,
}

/// A static computation graph in SSA form: every node produces exactly one
/// value, referenced by its [`NodeId`].
///
/// # Example
///
/// ```
/// use pe_graph::{GraphBuilder, OpKind};
///
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", [4, 8]);
/// let y = b.relu(x);
/// let g = b.finish(vec![y]);
/// assert_eq!(g.node(y).op, OpKind::Relu);
/// assert_eq!(g.node(y).shape.dims(), &[4, 8]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    params: HashMap<NodeId, ParamInfo>,
    constants: HashMap<NodeId, Tensor>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub(crate) fn new() -> Self {
        Graph::default()
    }

    /// All nodes in insertion (id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Graph input nodes (fed each step).
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Graph output nodes (loss, logits, ...).
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Replaces the output list.
    pub(crate) fn set_outputs(&mut self, outputs: Vec<NodeId>) {
        self.outputs = outputs;
    }

    /// Adds an output.
    pub(crate) fn push_output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }

    /// Parameter metadata keyed by node id.
    pub fn params(&self) -> &HashMap<NodeId, ParamInfo> {
        &self.params
    }

    /// Parameter ids sorted by node index (deterministic iteration order).
    pub fn param_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.params.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Stable identity key for a parameter node (its canonical name).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn param_key(&self, id: NodeId) -> ParamKey {
        ParamKey::new(&self.node(id).name)
    }

    /// `(id, key)` pairs for every parameter, sorted by node id.
    pub fn param_keys(&self) -> Vec<(NodeId, ParamKey)> {
        self.param_ids()
            .into_iter()
            .map(|id| (id, self.param_key(id)))
            .collect()
    }

    /// Looks up a parameter node by name.
    pub fn find_param(&self, name: &str) -> Option<NodeId> {
        self.params
            .keys()
            .copied()
            .find(|id| self.node(*id).name == name)
    }

    /// Total number of parameter elements.
    pub fn param_count(&self) -> usize {
        self.params
            .keys()
            .map(|id| self.node(*id).shape.numel())
            .sum()
    }

    /// Appends a node, assigning the next id.
    pub(crate) fn push_node(
        &mut self,
        op: OpKind,
        inputs: Vec<NodeId>,
        shape: Shape,
        name: impl Into<String>,
    ) -> NodeId {
        for &i in &inputs {
            assert!(i.0 < self.nodes.len(), "input {i} does not exist yet");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            op,
            inputs,
            shape,
            name: name.into(),
        });
        id
    }

    /// Registers a node as a step input.
    pub(crate) fn mark_input(&mut self, id: NodeId) {
        self.inputs.push(id);
    }

    /// Registers the baked-in value of a [`OpKind::Constant`] node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a constant or the value shape mismatches.
    pub(crate) fn mark_constant(&mut self, id: NodeId, value: Tensor) {
        assert!(
            matches!(self.node(id).op, OpKind::Constant),
            "not a constant node"
        );
        assert_eq!(
            value.shape(),
            &self.node(id).shape,
            "constant value shape mismatch"
        );
        self.constants.insert(id, value);
    }

    /// Values of constant nodes keyed by node id.
    pub fn constants(&self) -> &HashMap<NodeId, Tensor> {
        &self.constants
    }

    /// Registers parameter metadata for a node.
    ///
    /// # Panics
    ///
    /// Panics if a concrete initial value is provided whose shape differs
    /// from the node shape.
    pub(crate) fn mark_param(&mut self, id: NodeId, role: ParamRole, init: impl Into<ParamInit>) {
        let init = init.into();
        if let ParamInit::Value(t) = &init {
            assert_eq!(
                t.shape(),
                &self.node(id).shape,
                "parameter init shape must match the node shape"
            );
        }
        self.params.insert(
            id,
            ParamInfo {
                node: id,
                role,
                init,
            },
        );
    }

    /// Consumers of each node, indexed by node id.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut uses = vec![Vec::new(); self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                uses[input.0].push(node.id);
            }
        }
        uses
    }

    /// Nodes in a valid topological order.
    ///
    /// Node ids are created in topological order by construction (inputs must
    /// exist before a node referencing them), so this is simply id order; the
    /// method exists to make that contract explicit at call sites.
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// The set of nodes reachable (as ancestors) from `roots`, returned as a
    /// boolean mask indexed by node id.
    pub fn ancestors_of(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if live[id.0] {
                continue;
            }
            live[id.0] = true;
            for &input in &self.node(id).inputs {
                if !live[input.0] {
                    stack.push(input);
                }
            }
        }
        live
    }

    /// Validates basic graph invariants (acyclicity by construction, input
    /// existence, shape presence). Returns a list of human-readable problems;
    /// an empty list means the graph is well-formed.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for node in &self.nodes {
            for &input in &node.inputs {
                if input.0 >= node.id.0 {
                    problems.push(format!(
                        "node {} ({}) references input {} that does not precede it",
                        node.id, node.name, input
                    ));
                }
            }
            if node.op.is_leaf() && !node.inputs.is_empty() {
                problems.push(format!("leaf node {} has inputs", node.id));
            }
        }
        for &out in &self.outputs {
            if out.0 >= self.nodes.len() {
                problems.push(format!("output {out} out of range"));
            }
        }
        for id in self.params.keys() {
            if !matches!(self.node(*id).op, OpKind::Parameter) {
                problems.push(format!(
                    "param metadata attached to non-parameter node {id}"
                ));
            }
        }
        problems
    }

    /// Number of nodes that belong to the backward/update part of the graph.
    pub fn backward_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_backward()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.push_node(OpKind::Input, vec![], Shape::new(vec![2, 3]), "x");
        g.mark_input(x);
        let w = g.push_node(OpKind::Parameter, vec![], Shape::new(vec![4, 3]), "w");
        g.mark_param(w, ParamRole::Weight, Tensor::zeros([4, 3]));
        let y = g.push_node(
            OpKind::MatMul {
                trans_a: false,
                trans_b: true,
            },
            vec![x, w],
            Shape::new(vec![2, 4]),
            "y",
        );
        g.set_outputs(vec![y]);
        g
    }

    #[test]
    fn construction_and_lookup() {
        let g = tiny_graph();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.param_count(), 12);
        assert_eq!(g.find_param("w"), Some(NodeId(1)));
        assert_eq!(g.find_param("nope"), None);
        assert!(g.validate().is_empty());
    }

    #[test]
    fn consumers_are_tracked() {
        let g = tiny_graph();
        let uses = g.consumers();
        assert_eq!(uses[0], vec![NodeId(2)]);
        assert_eq!(uses[1], vec![NodeId(2)]);
        assert!(uses[2].is_empty());
    }

    #[test]
    fn ancestors_mask() {
        let g = tiny_graph();
        let live = g.ancestors_of(&[NodeId(2)]);
        assert_eq!(live, vec![true, true, true]);
        let live = g.ancestors_of(&[NodeId(0)]);
        assert_eq!(live, vec![true, false, false]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut g = Graph::new();
        g.push_node(OpKind::Relu, vec![NodeId(5)], Shape::new(vec![1]), "bad");
    }

    #[test]
    fn param_init_shape_checked() {
        let mut g = Graph::new();
        let w = g.push_node(OpKind::Parameter, vec![], Shape::new(vec![2, 2]), "w");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.mark_param(w, ParamRole::Weight, Tensor::zeros([3, 3]));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn validate_flags_bad_param_metadata() {
        let mut g = tiny_graph();
        // Attach param metadata to the matmul node (id 2) by force.
        let bad = NodeId(2);
        g.params.insert(
            bad,
            ParamInfo {
                node: bad,
                role: ParamRole::Weight,
                init: Tensor::zeros([2, 4]).into(),
            },
        );
        assert!(!g.validate().is_empty());
    }
}
