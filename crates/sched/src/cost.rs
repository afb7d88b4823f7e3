//! The memory- and communication-aware stage cost model.
//!
//! The paper (Sec. IV-A) states that "both the exact method and RESPECT
//! optimize the DNN model scheduling from the aspects of the memory
//! allocation and communication cost". Following its ref.&nbsp;21 (exact
//! memory- and communication-aware Edge TPU scheduling), a stage's cost is
//! the per-inference latency estimate
//!
//! ```text
//! cost(stage) = sec_per_mac * macs(stage)
//!             + sec_per_byte * off_cache_params(stage)   // streamed weights
//!             + sec_per_byte * cut_in_bytes(stage)       // tensors entering
//! ```
//!
//! and a schedule's **objective** is the bottleneck `max` over stages —
//! the steady-state reciprocal throughput of the pipeline. Off-cache
//! parameters are whatever exceeds the Edge TPU's 8 MiB on-chip cache and
//! must be re-streamed over USB for every inference (Coral architecture;
//! paper refs 3 and 20). Cut bytes are accounted once, at the consuming
//! stage.
//!
//! The model is intentionally simpler than the cycle-level simulator in
//! `respect-tpu`: the paper calls the resulting optimality gap
//! "performance modeling miscorrelation" (Sec. IV-A) and we reproduce it.

use respect_graph::{Dag, NodeId};

use crate::schedule::Schedule;

/// Cost-model constants. See the [module docs](self) for the formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per multiply-accumulate (Coral: 4 TOPS int8 peak).
    pub sec_per_mac: f64,
    /// Seconds per byte moved over the USB 3.0 interface.
    pub sec_per_byte: f64,
    /// On-chip parameter cache per Edge TPU, in bytes (8 MiB on Coral).
    pub cache_bytes: u64,
}

impl CostModel {
    /// Constants of the Coral USB Edge TPU: 4 TOPS int8 (2 ops per MAC),
    /// ~320 MB/s effective USB 3.0 throughput, 8 MiB parameter cache.
    pub fn coral() -> Self {
        CostModel {
            sec_per_mac: 1.0 / 2.0e12,
            sec_per_byte: 1.0 / 320.0e6,
            cache_bytes: 8 << 20,
        }
    }

    /// A cache-less variant (every parameter byte streams), useful for
    /// ablations.
    pub fn coral_uncached() -> Self {
        CostModel {
            cache_bytes: 0,
            ..Self::coral()
        }
    }

    /// Cost of one stage given its aggregate resources.
    #[inline]
    pub fn stage_cost(&self, param_bytes: u64, macs: u64, cut_in_bytes: u64) -> f64 {
        let spill = param_bytes.saturating_sub(self.cache_bytes);
        self.sec_per_mac * macs as f64 + self.sec_per_byte * (spill + cut_in_bytes) as f64
    }

    /// Aggregates `(param_bytes, macs, cut_in_bytes)` per stage.
    pub fn stage_resources(&self, dag: &Dag, schedule: &Schedule) -> Vec<StageResources> {
        let k = schedule.num_stages();
        let mut res = vec![StageResources::default(); k];
        for (id, node) in dag.iter() {
            let s = schedule.stage(id);
            res[s].param_bytes += node.param_bytes;
            res[s].macs += node.macs;
        }
        for (u, v) in dag.edges() {
            let (su, sv) = (schedule.stage(u), schedule.stage(v));
            if su != sv {
                res[sv].cut_in_bytes += dag.node(u).output_bytes;
            }
        }
        res
    }

    /// Per-stage costs under this model.
    pub fn stage_costs(&self, dag: &Dag, schedule: &Schedule) -> Vec<f64> {
        self.stage_resources(dag, schedule)
            .iter()
            .map(|r| self.stage_cost(r.param_bytes, r.macs, r.cut_in_bytes))
            .collect()
    }

    /// The bottleneck objective: `max` over per-stage costs.
    pub fn objective(&self, dag: &Dag, schedule: &Schedule) -> f64 {
        self.stage_costs(dag, schedule)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Peak per-stage parameter memory in bytes — the Fig. 5 metric
    /// ("parameter caching" / peak memory usage per stage).
    pub fn peak_stage_param_bytes(&self, dag: &Dag, schedule: &Schedule) -> u64 {
        self.stage_resources(dag, schedule)
            .iter()
            .map(|r| r.param_bytes)
            .max()
            .unwrap_or(0)
    }

    /// A lower bound on the objective for any `num_stages`-stage schedule:
    /// resources divided evenly with zero communication.
    pub fn lower_bound(&self, dag: &Dag, num_stages: usize) -> f64 {
        let k = num_stages.max(1) as u64;
        self.stage_cost(dag.total_param_bytes() / k, dag.total_macs() / k, 0)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::coral()
    }
}

/// Aggregate resources of one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageResources {
    /// Total parameter bytes resident on the stage.
    pub param_bytes: u64,
    /// Total MACs executed by the stage per inference.
    pub macs: u64,
    /// Bytes of activation tensors entering the stage per inference.
    pub cut_in_bytes: u64,
}

/// Incremental segment-cost accumulator shared by the packing DP, the
/// greedy scheduler, and the exact solver.
///
/// A segment is a set of nodes executed by one stage. Nodes are added one
/// at a time; `cut_in_bytes` grows by the output size of every predecessor
/// that is *outside* the segment (already scheduled on an earlier stage).
/// Under this accounting the cost is **monotone nondecreasing** in segment
/// growth, which the exact solver's pruning relies on.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentAccumulator {
    /// Parameter bytes accumulated so far.
    pub param_bytes: u64,
    /// MACs accumulated so far.
    pub macs: u64,
    /// Cut-in bytes accumulated so far.
    pub cut_in_bytes: u64,
}

impl SegmentAccumulator {
    /// Empty segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds node `v`; `in_segment_or_later(p)` must report `false` exactly
    /// for predecessors scheduled on earlier stages.
    pub fn push(&mut self, dag: &Dag, v: NodeId, mut earlier_stage: impl FnMut(NodeId) -> bool) {
        let node = dag.node(v);
        self.param_bytes += node.param_bytes;
        self.macs += node.macs;
        for &p in dag.preds(v) {
            if earlier_stage(p) {
                self.cut_in_bytes += dag.node(p).output_bytes;
            }
        }
    }

    /// Cost of the accumulated segment under `model`.
    #[inline]
    pub fn cost(&self, model: &CostModel) -> f64 {
        model.stage_cost(self.param_bytes, self.macs, self.cut_in_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, OpKind, OpNode};

    /// a(1MB,10macs) -> b(2MB,20) -> c(4MB,40), outputs 100B each.
    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let mut prev = None;
        for (i, (p, m)) in [(1u64 << 20, 10u64), (2 << 20, 20), (4 << 20, 40)]
            .iter()
            .enumerate()
        {
            let id = b.add_node(
                OpNode::new(format!("n{i}"), OpKind::Conv2d)
                    .with_params(*p)
                    .with_macs(*m)
                    .with_output(100),
            );
            if let Some(pv) = prev {
                b.add_edge(pv, id).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn stage_resources_aggregate_correctly() {
        let dag = chain3();
        let s = Schedule::new(vec![0, 0, 1], 2).unwrap();
        let m = CostModel::coral();
        let res = m.stage_resources(&dag, &s);
        assert_eq!(res[0].param_bytes, 3 << 20);
        assert_eq!(res[0].macs, 30);
        assert_eq!(res[0].cut_in_bytes, 0);
        assert_eq!(res[1].param_bytes, 4 << 20);
        assert_eq!(res[1].cut_in_bytes, 100, "edge b->c crosses the cut");
    }

    #[test]
    fn cache_absorbs_small_stages() {
        let m = CostModel::coral();
        // fits in 8 MiB: no spill term
        let fits = m.stage_cost(8 << 20, 0, 0);
        assert_eq!(fits, 0.0);
        let spills = m.stage_cost((8 << 20) + 1000, 0, 0);
        assert!(spills > 0.0);
    }

    #[test]
    fn objective_is_bottleneck() {
        let dag = chain3();
        let m = CostModel::coral();
        let s = Schedule::new(vec![0, 1, 2], 3).unwrap();
        let costs = m.stage_costs(&dag, &s);
        let obj = m.objective(&dag, &s);
        assert!((obj - costs.iter().cloned().fold(0.0, f64::max)).abs() < 1e-18);
    }

    #[test]
    fn peak_param_bytes_matches_max_stage() {
        let dag = chain3();
        let m = CostModel::coral();
        let s = Schedule::new(vec![0, 1, 1], 2).unwrap();
        assert_eq!(m.peak_stage_param_bytes(&dag, &s), 6 << 20);
    }

    #[test]
    fn lower_bound_never_exceeds_any_schedule() {
        let dag = chain3();
        let m = CostModel::coral();
        for stage_of in [vec![0, 0, 1], vec![0, 1, 1], vec![0, 0, 0]] {
            let k = stage_of.iter().max().unwrap() + 1;
            let s = Schedule::new(stage_of, k.max(2)).unwrap();
            assert!(m.lower_bound(&dag, 2) <= m.objective(&dag, &s) + 1e-12);
        }
    }

    #[test]
    fn segment_accumulator_matches_stage_resources() {
        let dag = chain3();
        let m = CostModel::coral();
        // segment = {b, c}, with a on an earlier stage
        let mut acc = SegmentAccumulator::new();
        acc.push(&dag, NodeId(1), |p| p == NodeId(0));
        acc.push(&dag, NodeId(2), |p| p == NodeId(0));
        let s = Schedule::new(vec![0, 1, 1], 2).unwrap();
        let res = m.stage_resources(&dag, &s)[1];
        assert_eq!(acc.param_bytes, res.param_bytes);
        assert_eq!(acc.macs, res.macs);
        assert_eq!(acc.cut_in_bytes, res.cut_in_bytes);
        assert!(
            (acc.cost(&m) - m.stage_cost(res.param_bytes, res.macs, res.cut_in_bytes)).abs()
                < 1e-18
        );
    }

    #[test]
    fn uncached_variant_streams_everything() {
        let m = CostModel::coral_uncached();
        assert!(m.stage_cost(1000, 0, 0) > 0.0);
    }
}
