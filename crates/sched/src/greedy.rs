//! Cost-aware greedy list scheduling.
//!
//! The classic "list scheduling" family the paper cites (Sec. II) walks a
//! priority-ordered node list and greedily assigns resources. For pipeline
//! partitioning this becomes: walk the default topological order,
//! accumulate a segment until its [`CostModel`] cost exceeds an even-split
//! target, then cut. A bounded hill-climb over cut positions — costed by
//! the `O(deg + k)`-per-move [`IncrementalEvaluator`] rather than full
//! re-aggregation — then polishes the boundaries. Still faster but weaker
//! than the packing DP (which is optimal over cut placements on this
//! order), and a useful middle ground between the parameter-balancing
//! compiler and the exact solver.

use respect_graph::{Dag, NodeId};

use crate::cost::{CostModel, SegmentAccumulator};
use crate::incremental::IncrementalEvaluator;
use crate::order;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// Boundary-refinement sweeps over the cuts after the greedy pass.
const REFINE_PASSES: usize = 2;

/// Greedy cost-threshold list scheduler.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct GreedyCost {
    model: CostModel,
}

impl GreedyCost {
    /// Creates the scheduler: cut as soon as a segment reaches the
    /// even-split target, then two boundary-refinement sweeps.
    pub fn new(model: CostModel) -> Self {
        GreedyCost { model }
    }

    /// The pure one-pass list scheduler: the default topological order
    /// and the cut positions of its greedy pass, before refinement.
    fn one_pass(&self, dag: &Dag, num_stages: usize) -> (Vec<NodeId>, Vec<usize>) {
        let sequence = order::default_order(dag);
        let pos = order::positions(dag, &sequence);

        // Even-split target: total single-stage cost divided by stages.
        let total_cost = {
            let mut acc = SegmentAccumulator::new();
            for &v in &sequence {
                acc.push(dag, v, |_| false);
            }
            acc.cost(&self.model)
        };
        let target = total_cost / num_stages as f64;

        let mut cuts = Vec::with_capacity(num_stages - 1);
        let mut start = 0usize;
        let mut acc = SegmentAccumulator::new();
        for (i, &v) in sequence.iter().enumerate() {
            acc.push(dag, v, |p| pos[p.index()] < start);
            let remaining_stages = num_stages - cuts.len() - 1;
            let remaining_nodes = sequence.len() - i - 1;
            if remaining_stages > 0
                && acc.cost(&self.model) >= target
                && remaining_nodes >= remaining_stages.min(1)
            {
                cuts.push(i + 1);
                start = i + 1;
                acc = SegmentAccumulator::new();
            }
        }
        while cuts.len() + 1 < num_stages {
            cuts.push(sequence.len());
        }
        (sequence, cuts)
    }
}

impl Default for GreedyCost {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Scheduler for GreedyCost {
    fn name(&self) -> &str {
        "greedy list"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let (sequence, mut cuts) = self.one_pass(dag, num_stages);
        let schedule = Schedule::from_cuts(&sequence, &cuts, num_stages);
        if num_stages < 2 {
            return Ok(schedule);
        }

        // boundary refinement: hill-climb cut positions, costing each
        // one-node shift incrementally instead of re-aggregating stages
        let mut eval = IncrementalEvaluator::new(dag, self.model, &schedule);
        let mut obj = eval.bottleneck();
        for _ in 0..REFINE_PASSES {
            let mut improved = false;
            for idx in 0..cuts.len() {
                loop {
                    let lo = if idx == 0 { 0 } else { cuts[idx - 1] };
                    let hi = if idx + 1 == cuts.len() {
                        sequence.len()
                    } else {
                        cuts[idx + 1]
                    };
                    let mut moved = false;
                    for delta in [1isize, -1] {
                        let old = cuts[idx];
                        let to = old.saturating_add_signed(delta).clamp(lo, hi);
                        if to == old {
                            continue;
                        }
                        // one cut shift = one node crossing one boundary
                        let (p, shift): (usize, isize) = if to > old { (old, -1) } else { (to, 1) };
                        let node = sequence[p];
                        let stage = eval.stage(node).saturating_add_signed(shift);
                        let prev = eval.move_node(node, stage);
                        let cand = eval.bottleneck();
                        if cand < obj {
                            obj = cand;
                            cuts[idx] = to;
                            moved = true;
                            improved = true;
                            break;
                        }
                        eval.move_node(node, prev);
                    }
                    if !moved {
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Ok(eval.to_schedule())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack;
    use respect_graph::{models, SyntheticConfig, SyntheticSampler};

    #[test]
    fn valid_on_all_models_and_stage_counts() {
        let sched = GreedyCost::new(CostModel::coral());
        for (name, dag) in models::table1() {
            for k in [1, 4, 5, 6] {
                let s = sched.schedule(&dag, k).unwrap();
                assert!(s.is_valid(&dag), "{name} k={k}");
            }
        }
    }

    #[test]
    fn never_better_than_packing_dp_on_same_order() {
        let model = CostModel::coral();
        let sched = GreedyCost::new(model);
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 77);
        for _ in 0..10 {
            let dag = sampler.sample();
            for k in [2, 4] {
                let s = sched.schedule(&dag, k).unwrap();
                let greedy_obj = model.objective(&dag, &s);
                let (_, dp_obj) = pack::pack_default(&dag, k, &model);
                assert!(
                    dp_obj <= greedy_obj + 1e-12,
                    "dp {dp_obj} must be <= greedy {greedy_obj}"
                );
            }
        }
    }

    #[test]
    fn rejects_zero_stages() {
        let dag = models::xception();
        assert!(matches!(
            GreedyCost::new(CostModel::coral()).schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn refinement_never_worsens_and_stays_valid() {
        let model = CostModel::coral();
        let greedy = GreedyCost::new(model);
        for (name, dag) in models::table1() {
            for k in [2, 4, 6] {
                let (sequence, cuts) = greedy.one_pass(&dag, k);
                let plain = Schedule::from_cuts(&sequence, &cuts, k);
                let refined = greedy.schedule(&dag, k).unwrap();
                assert!(refined.is_valid(&dag), "{name} k={k}");
                assert!(
                    model.objective(&dag, &refined) <= model.objective(&dag, &plain) + 1e-18,
                    "{name} k={k}: refinement worsened the objective"
                );
            }
        }
    }
}
