//! The computational-graph type and its builder.
//!
//! A [`Dag`] is an immutable directed acyclic graph whose nodes are DNN
//! operators ([`OpNode`]) and whose edges are tensor dataflows. Validity
//! (acyclicity, no self loops, no duplicate edges) is established once by
//! [`DagBuilder::build`] and then holds for the lifetime of the value, so
//! every scheduler in the workspace can rely on it.

use std::fmt;

use crate::error::GraphError;

/// Identifier of a node inside one [`Dag`].
///
/// Ids are dense indices `0..dag.len()`, assigned in insertion order by
/// [`DagBuilder::add_node`]. They are only meaningful relative to the graph
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Kind of a DNN operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// Standard 2-D convolution.
    Conv2d,
    /// Depthwise-separable convolution (Xception-style).
    DepthwiseConv2d,
    /// Fully connected / matmul layer.
    Dense,
    /// Max/avg pooling.
    Pool,
    /// Elementwise residual addition.
    Add,
    /// Channel concatenation (DenseNet/Inception-style).
    Concat,
    /// Activation (ReLU etc.); folded ops in TFLite often remain as nodes.
    Activation,
    /// Batch normalization.
    BatchNorm,
    /// Graph input placeholder.
    Input,
    /// Graph output / classifier head.
    Output,
    /// Anything else (reshape, softmax, ...).
    Other,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Conv2d => "conv2d",
            OpKind::DepthwiseConv2d => "dwconv2d",
            OpKind::Dense => "dense",
            OpKind::Pool => "pool",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::Activation => "act",
            OpKind::BatchNorm => "bn",
            OpKind::Input => "input",
            OpKind::Output => "output",
            OpKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One operator of a computational graph.
///
/// Carries exactly the attributes the RESPECT framework extracts from a
/// TFLite model: an operator name (hashed into the node-id embedding
/// column), parameter memory, output-tensor size (the communication cost of
/// an edge leaving this node), and MAC count (compute cost).
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// Operator name, e.g. `"conv2_block1_1_conv"`. Hashed for embedding.
    pub name: String,
    /// Operator kind.
    pub kind: OpKind,
    /// Bytes of trained parameters this operator must have resident (int8).
    pub param_bytes: u64,
    /// Bytes of the output activation tensor produced per inference.
    pub output_bytes: u64,
    /// Multiply-accumulate operations per inference.
    pub macs: u64,
}

impl OpNode {
    /// Creates an operator with the given name and kind and zeroed costs.
    pub fn new(name: impl Into<String>, kind: OpKind) -> Self {
        OpNode {
            name: name.into(),
            kind,
            param_bytes: 0,
            output_bytes: 0,
            macs: 0,
        }
    }

    /// Sets the parameter-memory footprint in bytes.
    pub fn with_params(mut self, bytes: u64) -> Self {
        self.param_bytes = bytes;
        self
    }

    /// Sets the output-tensor size in bytes.
    pub fn with_output(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Sets the MAC count.
    pub fn with_macs(mut self, macs: u64) -> Self {
        self.macs = macs;
        self
    }
}

/// Incrementally constructs a [`Dag`]; validation happens in [`build`].
///
/// [`build`]: DagBuilder::build
///
/// # Example
///
/// ```
/// use respect_graph::{DagBuilder, OpKind, OpNode};
///
/// # fn main() -> Result<(), respect_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let a = b.add_node(OpNode::new("input", OpKind::Input));
/// let c = b.add_node(OpNode::new("conv", OpKind::Conv2d).with_params(1024));
/// b.add_edge(a, c)?;
/// let dag = b.build()?;
/// assert_eq!(dag.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    nodes: Vec<OpNode>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `nodes` operators.
    pub fn with_capacity(nodes: usize) -> Self {
        DagBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(nodes * 2),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: OpNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a dataflow edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for `from == to` and
    /// [`GraphError::NodeOutOfRange`] when an endpoint was never added.
    /// Duplicate edges and cycles are detected later, by [`build`].
    ///
    /// [`build`]: DagBuilder::build
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        for &id in &[from, to] {
            if id.index() >= self.nodes.len() {
                return Err(GraphError::NodeOutOfRange(id));
            }
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if no node was added;
    /// * [`GraphError::DuplicateEdge`] if an edge appears twice;
    /// * [`GraphError::Cycle`] if the edges do not form a DAG.
    pub fn build(self) -> Result<Dag, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.nodes.len();
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            if !seen.insert((u, v)) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            succs[u.index()].push(v);
            preds[v.index()].push(u);
        }
        for list in succs.iter_mut().chain(preds.iter_mut()) {
            list.sort_unstable();
        }
        let dag = Dag {
            nodes: self.nodes,
            succs,
            preds,
            edge_count: self.edges.len(),
        };
        // Kahn's algorithm doubles as the cycle check.
        if dag.kahn_order().len() != n {
            return Err(GraphError::Cycle);
        }
        Ok(dag)
    }
}

/// A validated, immutable computational graph.
///
/// See the [crate-level docs](crate) for context and an example.
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    nodes: Vec<OpNode>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Dag {
    /// Number of nodes, the paper's `|V|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes. Always `false` for built graphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges, the paper's `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The operator stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &OpNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs.iter().enumerate().flat_map(|(u, vs)| {
            let u = NodeId(u as u32);
            vs.iter().map(move |&v| (u, v))
        })
    }

    /// Direct predecessors (parents) of `id`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// Direct successors (children) of `id`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Whether the edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succs[u.index()].binary_search(&v).is_ok()
    }

    /// In-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.preds[id.index()].len()
    }

    /// Out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succs[id.index()].len()
    }

    /// The paper's `deg(V)`: maximum in-degree over all nodes.
    pub fn max_in_degree(&self) -> usize {
        self.preds.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// Longest path length counted in **edges** (Table I's "Depth").
    ///
    /// A single node has depth 0; a chain of `k` nodes has depth `k - 1`.
    pub fn depth(&self) -> usize {
        let order = self.kahn_order();
        let mut dist = vec![0usize; self.len()];
        let mut best = 0;
        for &u in &order {
            for &v in self.succs(u) {
                let cand = dist[u.index()] + 1;
                if cand > dist[v.index()] {
                    dist[v.index()] = cand;
                    best = best.max(cand);
                }
            }
        }
        best
    }

    /// Sum of `param_bytes` over all nodes.
    pub fn total_param_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.param_bytes).sum()
    }

    /// Sum of `macs` over all nodes.
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(|n| n.macs).sum()
    }

    /// Disjoint union of several graphs — the multi-model deployment
    /// input of the paper's framework ("takes single or multiple DNN
    /// models ... as inputs", Sec. IV). Node ids of graph `i` are offset
    /// by the total size of graphs `0..i`; names are prefixed `m<i>/`.
    ///
    /// # Panics
    ///
    /// Panics if `dags` is empty.
    pub fn disjoint_union(dags: &[Dag]) -> Dag {
        assert!(!dags.is_empty(), "union of at least one graph");
        let total: usize = dags.iter().map(Dag::len).sum();
        let mut b = DagBuilder::with_capacity(total);
        let mut offset = 0u32;
        for (i, dag) in dags.iter().enumerate() {
            for (_, node) in dag.iter() {
                let mut n = node.clone();
                n.name = format!("m{i}/{}", n.name);
                b.add_node(n);
            }
            for (u, v) in dag.edges() {
                b.add_edge(NodeId(u.0 + offset), NodeId(v.0 + offset))
                    .expect("offsets keep edges in range");
            }
            offset += dag.len() as u32;
        }
        b.build().expect("union of DAGs is a DAG")
    }

    /// Deterministic Kahn topological order (smallest ready id first).
    ///
    /// Returns fewer than `len()` nodes only for cyclic edge sets, which
    /// cannot occur on a built [`Dag`]; [`DagBuilder::build`] relies on this
    /// to reject cycles.
    pub(crate) fn kahn_order(&self) -> Vec<NodeId> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        // BinaryHeap is a max-heap; use Reverse for smallest-first.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| std::cmp::Reverse(NodeId(i as u32)))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            order.push(u);
            for &v in &self.succs[u.index()] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(std::cmp::Reverse(v));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..4)
            .map(|i| b.add_node(OpNode::new(format!("n{i}"), OpKind::Conv2d)))
            .collect();
        b.add_edge(ids[0], ids[1]).unwrap();
        b.add_edge(ids[0], ids[2]).unwrap();
        b.add_edge(ids[1], ids[3]).unwrap();
        b.add_edge(ids[2], ids[3]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.sources(), vec![NodeId(0)]);
        assert_eq!(d.sinks(), vec![NodeId(3)]);
        assert_eq!(d.max_in_degree(), 2);
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn preds_succs_sorted() {
        let d = diamond();
        assert_eq!(d.preds(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.succs(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert!(d.has_edge(NodeId(0), NodeId(1)));
        assert!(!d.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let a = b.add_node(OpNode::new("a", OpKind::Other));
        assert_eq!(b.add_edge(a, a).unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = DagBuilder::new();
        let a = b.add_node(OpNode::new("a", OpKind::Other));
        let bogus = NodeId(7);
        assert_eq!(
            b.add_edge(a, bogus).unwrap_err(),
            GraphError::NodeOutOfRange(bogus)
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let a = b.add_node(OpNode::new("a", OpKind::Other));
        let c = b.add_node(OpNode::new("c", OpKind::Other));
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(a, c));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let a = b.add_node(OpNode::new("a", OpKind::Other));
        let c = b.add_node(OpNode::new("c", OpKind::Other));
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn single_node_depth_zero() {
        let mut b = DagBuilder::new();
        b.add_node(OpNode::new("only", OpKind::Input));
        let d = b.build().unwrap();
        assert_eq!(d.depth(), 0);
        assert_eq!(d.max_in_degree(), 0);
    }

    #[test]
    fn totals_accumulate() {
        let mut b = DagBuilder::new();
        b.add_node(
            OpNode::new("a", OpKind::Conv2d)
                .with_params(10)
                .with_macs(5),
        );
        b.add_node(
            OpNode::new("b", OpKind::Conv2d)
                .with_params(32)
                .with_macs(7),
        );
        let d = b.build().unwrap();
        assert_eq!(d.total_param_bytes(), 42);
        assert_eq!(d.total_macs(), 12);
    }

    #[test]
    fn opnode_builder_chain() {
        let n = OpNode::new("x", OpKind::Dense)
            .with_params(1)
            .with_output(2)
            .with_macs(3);
        assert_eq!((n.param_bytes, n.output_bytes, n.macs), (1, 2, 3));
    }

    #[test]
    fn disjoint_union_combines_models() {
        let a = diamond();
        let b = diamond();
        let u = Dag::disjoint_union(&[a.clone(), b]);
        assert_eq!(u.len(), 8);
        assert_eq!(u.edge_count(), 8);
        assert_eq!(u.sources().len(), 2, "one source per model");
        assert_eq!(u.sinks().len(), 2);
        // no cross edges
        assert!(!u.has_edge(NodeId(3), NodeId(4)));
        assert!(u.has_edge(NodeId(4), NodeId(5)));
        assert!(u.node(NodeId(0)).name.starts_with("m0/"));
        assert!(u.node(NodeId(4)).name.starts_with("m1/"));
        // union preserves per-model stats
        assert_eq!(u.depth(), a.depth());
        assert_eq!(u.total_param_bytes(), 2 * a.total_param_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn disjoint_union_of_nothing_panics() {
        let _ = Dag::disjoint_union(&[]);
    }

    #[test]
    fn display_impls_nonempty() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(OpKind::Conv2d.to_string(), "conv2d");
        assert!(!format!("{:?}", diamond()).is_empty());
    }
}
