//! DAG substrate for the RESPECT reproduction.
//!
//! Deep-learning frameworks represent models as directed acyclic
//! computational graphs: nodes are operators, edges are tensor dataflows
//! (paper, Sec. II). This crate provides:
//!
//! * [`Dag`] / [`DagBuilder`] — an immutable, validated DAG of [`OpNode`]s;
//! * [`topo`] — topological orders and ASAP/ALAP levels used by the paper's
//!   graph embedding;
//! * [`generate`] — the synthetic layered-DAG sampler RESPECT trains on
//!   (|V| = 30, max in-degree ∈ {2..6});
//! * [`models`] — structural generators for the ImageNet models of Table I
//!   (plus the two extra models of Fig. 5), matching the published node
//!   counts, maximum in-degree, and depth.
//!
//! # Example
//!
//! ```
//! use respect_graph::{models, topo};
//!
//! let dag = models::resnet50();
//! assert_eq!(dag.len(), 177);          // Table I: |V|
//! assert_eq!(dag.max_in_degree(), 2);  // Table I: deg(V)
//! assert_eq!(dag.depth(), 168);        // Table I: Depth
//! let order = topo::topo_order(&dag);
//! assert!(topo::is_topological_order(&dag, &order));
//! ```

pub mod dag;
pub mod error;
pub mod generate;
pub mod models;
pub mod topo;

pub use dag::{Dag, DagBuilder, NodeId, OpKind, OpNode};
pub use error::GraphError;
pub use generate::{SyntheticConfig, SyntheticSampler};
pub use models::ModelSpec;
