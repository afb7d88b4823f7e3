//! Synthetic DAG sampler used to train RESPECT (paper, Sec. III,
//! "Synthetic training dataset").
//!
//! The paper trains exclusively on randomly generated graphs with
//! `|V| = 30` and maximum in-degree `deg(V) ∈ {2, 3, 4, 5, 6}` (200 000
//! graphs per degree, 1 M total), designed to mimic the structure and
//! memory attributes of DNN computational graphs. [`SyntheticSampler`]
//! reproduces that generator: layered DAGs with bounded in-degree,
//! locality-biased parent selection (DNN dataflow is mostly short-range),
//! guaranteed weak connectivity, and log-uniform memory attributes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dag::{Dag, DagBuilder, OpKind, OpNode};

/// Configuration of the synthetic DAG sampler.
///
/// The defaults reproduce the paper's training distribution for one degree
/// class; sweep [`max_in_degree`](SyntheticConfig::max_in_degree) over
/// `2..=6` to reproduce the full mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of operators per graph; the paper uses 30.
    pub num_nodes: usize,
    /// Maximum number of incoming edges per node, the paper's `deg(V)`.
    pub max_in_degree: usize,
    /// Parents are drawn from a recent window of this many nodes with high
    /// probability, mimicking the short-range dataflow of DNN graphs.
    pub locality_window: usize,
    /// Probability that a parent is drawn from the locality window rather
    /// than uniformly from all earlier nodes (skip connections).
    pub locality_bias: f64,
    /// Parameter-memory range in bytes (log-uniform per node).
    pub param_bytes_range: (u64, u64),
    /// Output-activation range in bytes (log-uniform per node).
    pub output_bytes_range: (u64, u64),
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_nodes: 30,
            max_in_degree: 2,
            locality_window: 5,
            locality_bias: 0.8,
            // A few KiB to a couple of MiB per operator: spans the regime
            // where stage caches (8 MiB) overflow for unbalanced schedules.
            param_bytes_range: (4 << 10, 2 << 20),
            output_bytes_range: (1 << 10, 512 << 10),
        }
    }
}

impl SyntheticConfig {
    /// Paper preset: `|V| = 30` and the given maximum in-degree.
    ///
    /// # Panics
    ///
    /// Panics if `deg` is outside the paper's `2..=6` range.
    pub fn paper(deg: usize) -> Self {
        assert!((2..=6).contains(&deg), "paper trains deg(V) in 2..=6");
        SyntheticConfig {
            max_in_degree: deg,
            ..Self::default()
        }
    }
}

/// Reproducible random DAG generator.
///
/// # Example
///
/// ```
/// use respect_graph::{SyntheticConfig, SyntheticSampler};
///
/// let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 42);
/// let dag = sampler.sample();
/// assert_eq!(dag.len(), 30);
/// assert!(dag.max_in_degree() <= 3);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticSampler {
    config: SyntheticConfig,
    rng: StdRng,
}

impl SyntheticSampler {
    /// Creates a sampler with the given config and RNG seed.
    pub fn new(config: SyntheticConfig, seed: u64) -> Self {
        SyntheticSampler {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Draws one random DAG.
    ///
    /// Guarantees: exactly `num_nodes.max(1)` nodes (a `num_nodes` of 0 is
    /// clamped to one node), acyclic, weakly connected,
    /// `max_in_degree(dag) <= config.max_in_degree`, node 0 is the unique
    /// source-side entry (every node is reachable from it).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_in_degree == 0` and `config.num_nodes > 1`:
    /// every node after the first needs a parent.
    pub fn sample(&mut self) -> Dag {
        let cfg = self.config.clone();
        let n = cfg.num_nodes.max(1);
        let mut builder = DagBuilder::with_capacity(n);
        for i in 0..n {
            let params = log_uniform(&mut self.rng, cfg.param_bytes_range);
            let output = log_uniform(&mut self.rng, cfg.output_bytes_range);
            let kind = match self.rng.gen_range(0..10) {
                0..=4 => OpKind::Conv2d,
                5 => OpKind::DepthwiseConv2d,
                6 => OpKind::Pool,
                7 => OpKind::Add,
                8 => OpKind::Concat,
                _ => OpKind::Activation,
            };
            let macs = params * self.rng.gen_range(8u64..64);
            builder.add_node(
                OpNode::new(format!("syn_{i}"), kind)
                    .with_params(params)
                    .with_output(output)
                    .with_macs(macs),
            );
        }
        let ids: Vec<_> = (0..n as u32).map(crate::dag::NodeId).collect();
        for i in 1..n {
            let max_par = cfg.max_in_degree.min(i);
            let want = self.rng.gen_range(1..=max_par);
            let mut parents = std::collections::BTreeSet::new();
            // Always attach to the previous node with locality bias, else
            // a uniformly random earlier node (skip connection).
            while parents.len() < want {
                let p = if self.rng.gen_bool(cfg.locality_bias) {
                    let lo = i.saturating_sub(cfg.locality_window.max(1));
                    self.rng.gen_range(lo..i)
                } else {
                    self.rng.gen_range(0..i)
                };
                parents.insert(p);
            }
            for p in parents {
                builder
                    .add_edge(ids[p], ids[i])
                    .expect("endpoints exist and differ");
            }
        }
        builder
            .build()
            .expect("edges only go forward, so the graph is acyclic")
    }
}

fn log_uniform(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    let lo = lo.max(1) as f64;
    let hi = hi.max(lo as u64 + 1) as f64;
    let x = rng.gen_range(lo.ln()..hi.ln());
    x.exp().round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_has_requested_shape() {
        for deg in 2..=6 {
            let mut s = SyntheticSampler::new(SyntheticConfig::paper(deg), 7);
            for _ in 0..20 {
                let d = s.sample();
                assert_eq!(d.len(), 30);
                assert!(d.max_in_degree() <= deg, "deg bound violated");
                assert!(d.max_in_degree() >= 1);
            }
        }
    }

    #[test]
    fn sample_is_connected_from_node_zero() {
        let mut s = SyntheticSampler::new(SyntheticConfig::default(), 11);
        let d = s.sample();
        // every non-zero node has at least one parent => single weakly
        // connected component rooted at 0 (parents always have smaller id).
        for v in d.node_ids().skip(1) {
            assert!(d.in_degree(v) >= 1);
        }
        assert_eq!(d.in_degree(crate::dag::NodeId(0)), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::paper(4);
        let a = SyntheticSampler::new(cfg.clone(), 5).sample();
        let b = SyntheticSampler::new(cfg, 5).sample();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SyntheticConfig::paper(4);
        let a = SyntheticSampler::new(cfg.clone(), 5).sample();
        let b = SyntheticSampler::new(cfg, 6).sample();
        assert_ne!(a, b);
    }

    #[test]
    fn memory_attributes_in_range() {
        let cfg = SyntheticConfig::default();
        let mut s = SyntheticSampler::new(cfg.clone(), 3);
        let d = s.sample();
        for (_, node) in d.iter() {
            assert!(node.param_bytes >= cfg.param_bytes_range.0 / 2);
            assert!(node.param_bytes <= cfg.param_bytes_range.1 * 2);
            assert!(node.output_bytes > 0);
            assert!(node.macs > 0);
        }
    }

    #[test]
    #[should_panic(expected = "2..=6")]
    fn paper_preset_rejects_degree_out_of_range() {
        let _ = SyntheticConfig::paper(1);
    }
}
