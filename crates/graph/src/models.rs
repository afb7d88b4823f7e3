//! ImageNet model zoo matching the paper's Table I.
//!
//! The paper evaluates on TFLite computational graphs of ten ImageNet
//! classifiers (Table I) plus two more in Fig. 5. Neither the TFLite
//! toolchain nor the model files are redistributable here, so this module
//! *generates* graphs with the published structure: the exact node count
//! `|V|`, maximum in-degree `deg(V)`, and longest-path depth of Table I,
//! together with realistic per-layer parameter/activation sizes calibrated
//! to the real models' int8 footprints (see `DESIGN.md`, substitution
//! table).
//!
//! Construction recipe: a backbone chain realizes the published depth;
//! residual models add single-node bypass branches that merge with
//! in-degree 2 (projection shortcuts); DenseNets add dense skip edges over
//! a pure chain; Inception-style models add blocks of three parallel
//! branches merging into in-degree-4 concat nodes.
//!
//! ```
//! use respect_graph::models;
//!
//! for (name, dag) in models::table1() {
//!     println!("{name}: |V|={} deg={} depth={}", dag.len(), dag.max_in_degree(), dag.depth());
//! }
//! ```

use crate::dag::{Dag, DagBuilder, NodeId, OpKind, OpNode};

/// Structural blueprint of one model family member.
///
/// [`ModelSpec::build`] turns a spec into a [`Dag`] whose statistics match
/// the spec exactly; the named constructors below carry the Table I values.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as printed in the paper's tables.
    pub name: &'static str,
    /// Total operator count, Table I's `|V|`.
    pub num_nodes: usize,
    /// Longest path in edges, Table I's "Depth".
    pub depth: usize,
    /// Maximum in-degree, Table I's `deg(V)`.
    pub max_in_degree: usize,
    /// Total int8 parameter bytes, calibrated to the real model.
    pub total_param_bytes: u64,
    /// Length of each parallel branch (1 for residual shortcuts).
    branch_len: usize,
    /// Parallel branches per merge point (1 for residual, 3 for inception).
    branches_per_block: usize,
}

impl ModelSpec {
    const fn residual(
        name: &'static str,
        num_nodes: usize,
        depth: usize,
        total_param_bytes: u64,
    ) -> Self {
        ModelSpec {
            name,
            num_nodes,
            depth,
            max_in_degree: 2,
            total_param_bytes,
            branch_len: 1,
            branches_per_block: 1,
        }
    }

    const fn dense(
        name: &'static str,
        num_nodes: usize,
        depth: usize,
        total_param_bytes: u64,
    ) -> Self {
        // DenseNets in Table I are chains (depth = |V| - 1) with dense
        // skip edges raising deg(V) to 2.
        ModelSpec {
            name,
            num_nodes,
            depth,
            max_in_degree: 2,
            total_param_bytes,
            branch_len: 0,
            branches_per_block: 0,
        }
    }

    const fn inception(
        name: &'static str,
        num_nodes: usize,
        depth: usize,
        branch_len: usize,
        total_param_bytes: u64,
    ) -> Self {
        ModelSpec {
            name,
            num_nodes,
            depth,
            max_in_degree: 4,
            total_param_bytes,
            branch_len,
            branches_per_block: 3,
        }
    }

    /// Materializes the spec into a computational graph.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (the named specs in
    /// this module are all validated by tests).
    pub fn build(&self) -> Dag {
        let chain_len = self.depth + 1;
        assert!(chain_len <= self.num_nodes, "depth exceeds node budget");
        let extra = self.num_nodes - chain_len;
        let mut b = DagBuilder::with_capacity(self.num_nodes);

        // --- backbone chain ------------------------------------------------
        let mut chain = Vec::with_capacity(chain_len);
        for i in 0..chain_len {
            let t = i as f64 / chain_len as f64;
            let kind = if i == 0 {
                OpKind::Input
            } else if i + 1 == chain_len {
                OpKind::Output
            } else if i % 13 == 0 {
                OpKind::Pool
            } else {
                OpKind::Conv2d
            };
            let node =
                OpNode::new(format!("{}_l{}", self.name, i), kind).with_output(activation_bytes(t));
            chain.push(b.add_node(node));
        }
        for w in chain.windows(2) {
            b.add_edge(w[0], w[1]).expect("chain edges are valid");
        }

        // --- branches -------------------------------------------------------
        // Each block consumes `branches_per_block * branch_len` extra nodes
        // and spans `branch_len + 1` chain edges; merge nodes get in-degree
        // `branches_per_block + 1`.
        let per_block = (self.branches_per_block * self.branch_len).max(1);
        let num_blocks = if self.branch_len == 0 {
            0
        } else {
            extra / per_block
        };
        assert_eq!(
            num_blocks * per_block,
            if self.branch_len == 0 { 0 } else { extra },
            "extra nodes must divide evenly into blocks for {}",
            self.name
        );
        let span = self.branch_len + 1;
        let mut branch_nodes = Vec::new();
        if let Some(blocks) = std::num::NonZeroUsize::new(num_blocks) {
            // keep input/output plain: only `chain_len - 2 - span` chain
            // slots can anchor blocks
            let usable = chain_len.checked_sub(2 + span).unwrap_or_else(|| {
                panic!(
                    "{}: chain (len {chain_len}) too short for branch blocks (span {span})",
                    self.name
                )
            });
            let stride = usable / blocks;
            assert!(
                stride > span,
                "blocks of {} would overlap (stride {stride} <= span {span})",
                self.name
            );
            for blk in 0..num_blocks {
                let p = 1 + blk * stride;
                let merge = chain[p + span];
                for br in 0..self.branches_per_block {
                    let mut prev = chain[p];
                    for step in 0..self.branch_len {
                        let t = (p + step) as f64 / chain_len as f64;
                        let node = OpNode::new(
                            format!("{}_b{}_{}_{}", self.name, blk, br, step),
                            OpKind::Conv2d,
                        )
                        .with_output(activation_bytes(t));
                        let id = b.add_node(node);
                        branch_nodes.push((id, p + step));
                        b.add_edge(prev, id).expect("branch edge");
                        prev = id;
                    }
                    b.add_edge(prev, merge).expect("merge edge");
                }
            }
        }

        // --- dense skip edges (DenseNet-style, no extra nodes) --------------
        if self.branch_len == 0 {
            // one skip edge every 4 nodes: chain[p] -> chain[p+2]
            let mut p = 1;
            while p + 2 < chain_len - 1 {
                b.add_edge(chain[p], chain[p + 2]).expect("skip edge");
                p += 4;
            }
        }

        // --- parameter / MAC assignment -------------------------------------
        let dag = b.build().expect("model construction is acyclic");
        finalize_costs(dag, self, &chain, &branch_nodes)
    }
}

/// Per-node activation size (bytes) as a function of normalized depth `t`:
/// large early feature maps, tapering by 2x per conceptual stage.
fn activation_bytes(t: f64) -> u64 {
    let stage = (t * 4.0).floor().min(3.0) as u32;
    (256_u64 << 10) >> stage
}

/// Distributes the spec's parameter budget over conv nodes with the
/// channel-doubling profile of real CNNs (later layers hold geometrically
/// more weights), and derives MACs with a decreasing spatial-reuse factor.
fn finalize_costs(
    dag: Dag,
    spec: &ModelSpec,
    chain: &[NodeId],
    branch_nodes: &[(NodeId, usize)],
) -> Dag {
    let chain_len = chain.len();
    let mut weight = vec![0f64; dag.len()];
    let profile = |pos: usize| -> f64 {
        let t = pos as f64 / chain_len as f64;
        // four stages, weights 1, 2, 4, 8: the last quarter holds ~53% of
        // all parameters, matching real ImageNet CNNs (ResNet50's final
        // stage holds ~58% of its conv weights).
        2f64.powi((t * 4.0).floor().min(3.0) as i32)
    };
    for (i, &id) in chain.iter().enumerate() {
        let kind = dag.node(id).kind;
        if matches!(kind, OpKind::Conv2d | OpKind::Output) {
            weight[id.index()] = profile(i);
        }
    }
    for &(id, pos) in branch_nodes {
        weight[id.index()] = profile(pos);
    }
    let total_w: f64 = weight.iter().sum();
    let mut b = DagBuilder::with_capacity(dag.len());
    for (id, node) in dag.iter() {
        let share = weight[id.index()] / total_w;
        let params = (share * spec.total_param_bytes as f64).round() as u64;
        // MACs: params * spatial reuse; early layers see bigger feature
        // maps, so reuse shrinks from ~196 (14x14) down to ~4 (2x2).
        let t = (id.index().min(chain_len - 1)) as f64 / chain_len as f64;
        let reuse = 196.0 / 2f64.powf((t * 4.0).floor().min(3.0));
        let macs = (params as f64 * reuse) as u64;
        let mut n = node.clone();
        n.param_bytes = params;
        n.macs = macs;
        b.add_node(n);
    }
    for (u, v) in dag.edges() {
        b.add_edge(u, v).expect("copying edges of a valid dag");
    }
    b.build().expect("copy of a valid dag")
}

/// Table I specs, in the paper's order.
pub fn table1_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::residual("Xception", 134, 125, 22_900_000),
        ModelSpec::residual("ResNet50", 177, 168, 25_600_000),
        ModelSpec::residual("ResNet101", 347, 338, 44_700_000),
        ModelSpec::residual("ResNet152", 517, 508, 60_400_000),
        ModelSpec::dense("DenseNet121", 429, 428, 8_100_000),
        ModelSpec::residual("ResNet101v2", 379, 371, 44_700_000),
        ModelSpec::residual("ResNet152v2", 566, 558, 60_400_000),
        ModelSpec::dense("DenseNet169", 597, 596, 14_300_000),
        ModelSpec::dense("DenseNet201", 709, 708, 20_200_000),
        // 210 extra nodes = 35 blocks x 3 branches x length 2.
        ModelSpec::inception("InceptionResNetv2", 782, 571, 2, 55_900_000),
    ]
}

/// The two additional models evaluated in Fig. 5 (no Table I statistics
/// are published; sizes follow the Keras reference implementations).
pub fn fig5_extra_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::residual("ResNet50v2", 192, 188, 25_600_000),
        // 153 extra nodes = 17 blocks x 3 branches x length 3.
        ModelSpec::inception("Inception_v3", 313, 159, 3, 23_900_000),
    ]
}

/// All 12 specs used by the Fig. 5 gap-to-optimal experiment.
pub fn fig5_specs() -> Vec<ModelSpec> {
    let mut v = table1_specs();
    v.extend(fig5_extra_specs());
    v
}

/// Builds all ten Table I models as `(name, dag)` pairs.
pub fn table1() -> Vec<(&'static str, Dag)> {
    table1_specs().iter().map(|s| (s.name, s.build())).collect()
}

/// Builds all twelve Fig. 5 models as `(name, dag)` pairs.
pub fn fig5() -> Vec<(&'static str, Dag)> {
    fig5_specs().iter().map(|s| (s.name, s.build())).collect()
}

macro_rules! named_model {
    ($(#[$doc:meta])* $fn_name:ident, $name:expr) => {
        $(#[$doc])*
        pub fn $fn_name() -> Dag {
            fig5_specs()
                .into_iter()
                .find(|s| s.name == $name)
                .expect("spec exists")
                .build()
        }
    };
}

named_model!(
    /// Xception: |V|=134, deg(V)=2, depth 125.
    xception, "Xception");
named_model!(
    /// ResNet-50: |V|=177, deg(V)=2, depth 168.
    resnet50, "ResNet50");
named_model!(
    /// ResNet-101: |V|=347, deg(V)=2, depth 338.
    resnet101, "ResNet101");
named_model!(
    /// ResNet-152: |V|=517, deg(V)=2, depth 508.
    resnet152, "ResNet152");
named_model!(
    /// DenseNet-121: |V|=429, deg(V)=2, depth 428.
    densenet121, "DenseNet121");
named_model!(
    /// ResNet-101v2: |V|=379, deg(V)=2, depth 371.
    resnet101v2, "ResNet101v2");
named_model!(
    /// ResNet-152v2: |V|=566, deg(V)=2, depth 558.
    resnet152v2, "ResNet152v2");
named_model!(
    /// DenseNet-169: |V|=597, deg(V)=2, depth 596.
    densenet169, "DenseNet169");
named_model!(
    /// DenseNet-201: |V|=709, deg(V)=2, depth 708.
    densenet201, "DenseNet201");
named_model!(
    /// Inception-ResNet-v2: |V|=782, deg(V)=4, depth 571.
    inception_resnet_v2, "InceptionResNetv2");
named_model!(
    /// ResNet-50v2 (Fig. 5 extra): |V|=192, deg(V)=2, depth 188.
    resnet50v2, "ResNet50v2");
named_model!(
    /// Inception-v3 (Fig. 5 extra): |V|=313, deg(V)=4, depth 159.
    inception_v3, "Inception_v3");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn table1_statistics_match_paper() {
        let expected: &[(&str, usize, usize, usize)] = &[
            ("Xception", 134, 2, 125),
            ("ResNet50", 177, 2, 168),
            ("ResNet101", 347, 2, 338),
            ("ResNet152", 517, 2, 508),
            ("DenseNet121", 429, 2, 428),
            ("ResNet101v2", 379, 2, 371),
            ("ResNet152v2", 566, 2, 558),
            ("DenseNet169", 597, 2, 596),
            ("DenseNet201", 709, 2, 708),
            ("InceptionResNetv2", 782, 4, 571),
        ];
        let built = table1();
        assert_eq!(built.len(), expected.len());
        for ((name, dag), &(en, ev, ed, edep)) in built.iter().zip(expected) {
            assert_eq!(*name, en);
            assert_eq!(dag.len(), ev, "{en}: |V|");
            assert_eq!(dag.max_in_degree(), ed, "{en}: deg(V)");
            assert_eq!(dag.depth(), edep, "{en}: depth");
        }
    }

    #[test]
    fn fig5_extras_match_spec() {
        let rn = resnet50v2();
        assert_eq!((rn.len(), rn.max_in_degree(), rn.depth()), (192, 2, 188));
        let iv3 = inception_v3();
        assert_eq!((iv3.len(), iv3.max_in_degree(), iv3.depth()), (313, 4, 159));
    }

    #[test]
    fn param_budgets_hit_calibration() {
        for spec in fig5_specs() {
            let dag = spec.build();
            let total = dag.total_param_bytes();
            let target = spec.total_param_bytes;
            let rel = (total as f64 - target as f64).abs() / target as f64;
            assert!(
                rel < 0.01,
                "{}: {total} vs {target} ({:.3}% off)",
                spec.name,
                rel * 100.0
            );
        }
    }

    #[test]
    fn models_have_single_source_and_sink() {
        for (name, dag) in table1() {
            assert_eq!(dag.sources().len(), 1, "{name}: sources");
            assert_eq!(dag.sinks().len(), 1, "{name}: sinks");
        }
    }

    #[test]
    fn models_are_valid_dags_with_real_costs() {
        for (name, dag) in fig5() {
            let order = topo::topo_order(&dag);
            assert!(topo::is_topological_order(&dag, &order), "{name}");
            assert!(dag.total_macs() > 0, "{name}: macs");
            // Every node must produce output bytes (tensors flow on edges).
            for (_, n) in dag.iter() {
                assert!(n.output_bytes > 0, "{name}: output bytes");
            }
        }
    }

    #[test]
    fn later_layers_hold_more_parameters() {
        let dag = resnet50();
        let n = dag.len();
        let early: u64 = dag.iter().take(n / 4).map(|(_, nd)| nd.param_bytes).sum();
        let late: u64 = dag
            .iter()
            .skip(3 * n / 4)
            .map(|(_, nd)| nd.param_bytes)
            .sum();
        assert!(
            late > early * 3,
            "channel-doubling profile: late {late} vs early {early}"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        assert_eq!(resnet50(), resnet50());
        assert_eq!(inception_resnet_v2(), inception_resnet_v2());
    }

    #[test]
    fn spec_lists_are_consistent() {
        assert_eq!(table1_specs().len(), 10);
        assert_eq!(fig5_specs().len(), 12);
        for spec in fig5_specs() {
            assert!(spec.num_nodes > spec.depth);
        }
    }
}
