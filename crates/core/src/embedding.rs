//! DNN computational-graph embedding (paper, Sec. III-A).
//!
//! Each node is encoded as a feature column with four components:
//!
//! 1. **absolute coordinates** — the node's ASAP topological level
//!    ("each node is ordered as close to the source node as possible");
//! 2. **relative coordinates** — its parents' topological levels and
//!    parents' ids (sources get level 0 and id −1, as in the paper);
//! 3. **node id** — "unique integers generated by hashing all the
//!    operator names";
//! 4. **memory** — the operator's parameter memory consumption.
//!
//! Levels are normalized by the graph depth and memory by the graph
//! maximum so the network sees the same scale on 30-node synthetic
//! training graphs and 800-node real models — this is what lets the
//! policy generalize across sizes without retraining.

use respect_graph::{topo, Dag, NodeId};
use respect_nn::Matrix;

/// Configuration of the node embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbeddingConfig {
    /// Number of parent slots in the relative-coordinate block. Parents
    /// beyond this (sorted by descending level) are dropped; missing
    /// parents are padded with the source encoding (level 0, id −1).
    pub max_parents: usize,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        // Table I's real models have deg(V) <= 4; synthetic training
        // graphs go up to 6 — 4 slots cover the real inputs while keeping
        // the feature width small.
        EmbeddingConfig { max_parents: 4 }
    }
}

impl EmbeddingConfig {
    /// Feature-vector width: level + 2 per parent slot + id + memory.
    pub fn feature_dim(&self) -> usize {
        1 + 2 * self.max_parents + 2
    }
}

/// Stable FNV-1a hash of an operator name, folded into `[0, 1)`.
pub fn name_hash(name: &str) -> f32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Embeds every node of `dag` into a `(feature_dim, |V|)` matrix; column
/// `i` is node `i`'s feature vector.
pub fn embed(dag: &Dag, config: &EmbeddingConfig) -> Matrix {
    let n = dag.len();
    let levels = topo::asap_levels(dag);
    let depth = levels.iter().copied().max().unwrap_or(0).max(1) as f32;
    let max_mem = dag
        .iter()
        .map(|(_, nd)| nd.param_bytes)
        .max()
        .unwrap_or(0)
        .max(1) as f32;
    let dim = config.feature_dim();
    let mut out = Matrix::zeros(dim, n);
    for v in dag.node_ids() {
        let col = v.index();
        let mut row = 0;
        // (1) absolute coordinate
        out.set(row, col, levels[col] as f32 / depth);
        row += 1;
        // (2) relative coordinates: parents sorted by level descending
        let mut parents: Vec<NodeId> = dag.preds(v).to_vec();
        parents.sort_by_key(|p| std::cmp::Reverse(levels[p.index()]));
        for slot in 0..config.max_parents {
            match parents.get(slot) {
                Some(&p) => {
                    out.set(row, col, levels[p.index()] as f32 / depth);
                    out.set(row + 1, col, name_hash(&dag.node(p).name));
                }
                None => {
                    // source encoding: level 0, id -1
                    out.set(row, col, 0.0);
                    out.set(row + 1, col, -1.0);
                }
            }
            row += 2;
        }
        // (3) node id
        out.set(row, col, name_hash(&dag.node(v).name));
        row += 1;
        // (4) memory
        out.set(row, col, dag.node(v).param_bytes as f32 / max_mem);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{models, DagBuilder, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..4)
            .map(|i| {
                b.add_node(
                    OpNode::new(format!("op_{i}"), OpKind::Conv2d)
                        .with_params(100 * (i as u64 + 1))
                        .with_output(10),
                )
            })
            .collect();
        b.add_edge(ids[0], ids[1]).unwrap();
        b.add_edge(ids[0], ids[2]).unwrap();
        b.add_edge(ids[1], ids[3]).unwrap();
        b.add_edge(ids[2], ids[3]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shape_matches_config() {
        let cfg = EmbeddingConfig { max_parents: 2 };
        let m = embed(&diamond(), &cfg);
        assert_eq!(m.shape(), (cfg.feature_dim(), 4));
        assert_eq!(cfg.feature_dim(), 7);
    }

    #[test]
    fn absolute_coordinates_are_normalized_levels() {
        let m = embed(&diamond(), &EmbeddingConfig { max_parents: 2 });
        // levels: 0, 1, 1, 2; depth 2
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(0, 3), 1.0);
    }

    #[test]
    fn source_parent_slots_use_minus_one_id() {
        let m = embed(&diamond(), &EmbeddingConfig { max_parents: 2 });
        // node 0 has no parents: both slots padded
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(4, 0), -1.0);
        // node 1 has one parent: slot 0 real, slot 1 padded
        assert!(m.get(2, 1) >= 0.0);
        assert_eq!(m.get(4, 1), -1.0);
    }

    #[test]
    fn memory_column_is_normalized_to_max() {
        let m = embed(&diamond(), &EmbeddingConfig { max_parents: 2 });
        let mem_row = 6;
        assert!((m.get(mem_row, 3) - 1.0).abs() < 1e-6, "largest node");
        assert!((m.get(mem_row, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn name_hash_is_stable_and_bounded() {
        let a = name_hash("conv2_block1_1_conv");
        let b = name_hash("conv2_block1_1_conv");
        let c = name_hash("conv2_block1_2_conv");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn works_on_paper_scale_graphs() {
        let cfg = EmbeddingConfig::default();
        let dag = SyntheticSampler::new(SyntheticConfig::paper(6), 3).sample();
        let m = embed(&dag, &cfg);
        assert_eq!(m.shape(), (cfg.feature_dim(), 30));
        // all features bounded
        assert!(m.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn same_scale_on_small_and_large_graphs() {
        let cfg = EmbeddingConfig::default();
        let small = embed(
            &SyntheticSampler::new(SyntheticConfig::paper(2), 1).sample(),
            &cfg,
        );
        let large = embed(&models::densenet201(), &cfg);
        let max_small = small.max_abs();
        let max_large = large.max_abs();
        assert!(max_small <= 1.0 + 1e-6);
        assert!(max_large <= 1.0 + 1e-6, "generalization needs shared scale");
    }
}
