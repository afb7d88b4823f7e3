//! On-/off-chip parameter placement per pipeline stage.
//!
//! Each Edge TPU caches as many parameters as fit in its SRAM; the rest
//! stream from the host on **every** inference (Coral's documented
//! behaviour, and the key nonlinearity the paper's schedulers exploit).
//! The compiler caches weights in execution order — early operators win
//! the cache — matching the real toolchain's greedy placement. Fig. 5's
//! metric ("parameter caching ... peak memory usage per stage") reads off
//! these allocations.

use respect_graph::{Dag, NodeId};
use respect_sched::Schedule;

use crate::device::DeviceSpec;

/// Parameter placement for one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCaching {
    /// Per-operator placement, in execution order: `(node, cached)`.
    pub placement: Vec<(NodeId, bool)>,
    /// Bytes resident in SRAM.
    pub cached_bytes: u64,
    /// Bytes streamed over USB per inference.
    pub streamed_bytes: u64,
}

impl StageCaching {
    /// Total parameter bytes of the stage.
    pub fn total_bytes(&self) -> u64 {
        self.cached_bytes + self.streamed_bytes
    }
}

/// Computes the greedy execution-order parameter placement for every
/// stage of `schedule`.
pub fn allocate(dag: &Dag, schedule: &Schedule, spec: &DeviceSpec) -> Vec<StageCaching> {
    let sequence = schedule.to_sequence(dag);
    let mut stages = vec![
        StageCaching {
            placement: Vec::new(),
            cached_bytes: 0,
            streamed_bytes: 0,
        };
        schedule.num_stages()
    ];
    for &v in &sequence {
        let s = schedule.stage(v);
        let bytes = dag.node(v).param_bytes;
        let stage = &mut stages[s];
        let cached = stage.cached_bytes + bytes <= spec.sram_bytes;
        if cached {
            stage.cached_bytes += bytes;
        } else {
            stage.streamed_bytes += bytes;
        }
        stage.placement.push((v, cached));
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{models, DagBuilder, OpKind, OpNode};
    use respect_sched::Scheduler;

    fn two_node_chain(p0: u64, p1: u64) -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(
            OpNode::new("a", OpKind::Conv2d)
                .with_params(p0)
                .with_output(1),
        );
        let c = b.add_node(
            OpNode::new("b", OpKind::Conv2d)
                .with_params(p1)
                .with_output(1),
        );
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn everything_cached_when_it_fits() {
        let dag = two_node_chain(1 << 20, 2 << 20);
        let s = Schedule::new(vec![0, 0], 1).unwrap();
        let alloc = allocate(&dag, &s, &DeviceSpec::coral());
        assert_eq!(alloc[0].cached_bytes, 3 << 20);
        assert_eq!(alloc[0].streamed_bytes, 0);
        assert!(alloc[0].placement.iter().all(|&(_, c)| c));
    }

    #[test]
    fn overflow_streams_later_operators() {
        let spec = DeviceSpec::coral();
        let dag = two_node_chain(spec.sram_bytes - 100, 4096);
        let s = Schedule::new(vec![0, 0], 1).unwrap();
        let alloc = allocate(&dag, &s, &spec);
        assert_eq!(alloc[0].cached_bytes, spec.sram_bytes - 100);
        assert_eq!(alloc[0].streamed_bytes, 4096);
        assert!(alloc[0].placement[0].1, "first op cached");
        assert!(!alloc[0].placement[1].1, "second op streamed");
    }

    #[test]
    fn stages_have_independent_caches() {
        let spec = DeviceSpec::coral();
        let dag = two_node_chain(spec.sram_bytes, spec.sram_bytes);
        let s = Schedule::new(vec![0, 1], 2).unwrap();
        let alloc = allocate(&dag, &s, &spec);
        assert_eq!(alloc[0].streamed_bytes, 0);
        assert_eq!(alloc[1].streamed_bytes, 0);
    }

    #[test]
    fn totals_conserve_model_parameters() {
        let dag = models::resnet50();
        let spec = DeviceSpec::coral();
        for k in [4, 5, 6] {
            let s = respect_sched::balanced::ParamBalanced::new()
                .schedule(&dag, k)
                .unwrap();
            let alloc = allocate(&dag, &s, &spec);
            let total: u64 = alloc.iter().map(StageCaching::total_bytes).sum();
            assert_eq!(total, dag.total_param_bytes(), "k={k}");
            assert!(alloc.iter().any(|a| a.total_bytes() >= total / k as u64));
        }
    }

    #[test]
    fn single_node_schedule_caches_or_streams_whole() {
        let spec = DeviceSpec::coral();
        // fits: fully cached
        let mut b = DagBuilder::new();
        b.add_node(
            OpNode::new("only", OpKind::Conv2d)
                .with_params(spec.sram_bytes)
                .with_output(1),
        );
        let dag = b.build().unwrap();
        let s = Schedule::new(vec![0], 1).unwrap();
        let alloc = allocate(&dag, &s, &spec);
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].placement.len(), 1);
        assert_eq!(alloc[0].cached_bytes, spec.sram_bytes);
        assert_eq!(alloc[0].streamed_bytes, 0);
        // one byte over: the single node streams in full
        let mut b = DagBuilder::new();
        b.add_node(
            OpNode::new("fat", OpKind::Conv2d)
                .with_params(spec.sram_bytes + 1)
                .with_output(1),
        );
        let dag = b.build().unwrap();
        let alloc = allocate(&dag, &s, &spec);
        assert_eq!(alloc[0].cached_bytes, 0);
        assert_eq!(alloc[0].streamed_bytes, spec.sram_bytes + 1);
        assert!(!alloc[0].placement[0].1);
    }

    #[test]
    fn empty_stages_get_empty_allocations() {
        // a 3-stage schedule that leaves stage 1 unpopulated
        let dag = two_node_chain(1 << 20, 1 << 20);
        let s = Schedule::new(vec![0, 2], 3).unwrap();
        let alloc = allocate(&dag, &s, &DeviceSpec::coral());
        assert_eq!(alloc.len(), 3);
        assert!(alloc[1].placement.is_empty());
        assert_eq!(alloc[1].total_bytes(), 0);
        assert_eq!(alloc[0].total_bytes(), 1 << 20);
        assert_eq!(alloc[2].total_bytes(), 1 << 20);
    }

    #[test]
    fn zero_param_nodes_cost_no_cache() {
        let dag = two_node_chain(0, 0);
        let s = Schedule::new(vec![0, 0], 1).unwrap();
        let alloc = allocate(&dag, &s, &DeviceSpec::coral());
        assert_eq!(alloc[0].cached_bytes, 0);
        assert_eq!(alloc[0].streamed_bytes, 0);
        assert!(alloc[0].placement.iter().all(|&(_, cached)| cached));
    }

    #[test]
    fn peak_matches_cost_model_accounting() {
        let dag = models::densenet121();
        let spec = DeviceSpec::coral();
        let s = respect_sched::balanced::ParamBalanced::new()
            .schedule(&dag, 4)
            .unwrap();
        let alloc = allocate(&dag, &s, &spec);
        let peak = alloc.iter().map(StageCaching::total_bytes).max();
        let via_cost_model = spec.cost_model().peak_stage_param_bytes(&dag, &s);
        assert_eq!(peak, Some(via_cost_model));
    }
}
