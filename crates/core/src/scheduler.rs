//! The end-to-end RESPECT scheduler (paper, Fig. 1a, Step 1–4).
//!
//! `schedule()` runs the deployment pipeline: embed the graph, decode a
//! node sequence `π` with the trained pointer network (greedy), map it
//! onto stages with `ρ` (the packing DP), and legalize with the
//! post-inference processing. Timing this call is exactly what the
//! paper's Fig. 3 reports as RESPECT's schedule-solving time.

use respect_graph::{topo, Dag, NodeId};
use respect_sched::repair::{repair, RepairConfig};
use respect_sched::{pack, CostModel, Schedule, ScheduleError, Scheduler};

use crate::embedding::embed;
use crate::policy::{DecodeMode, PtrNetPolicy};

/// RESPECT: the RL-based pipeline scheduler.
#[derive(Debug, Clone)]
pub struct RespectScheduler {
    policy: PtrNetPolicy,
    cost_model: CostModel,
}

impl RespectScheduler {
    /// Wraps a trained policy with the Coral cost model and default
    /// post-inference processing.
    pub fn new(policy: PtrNetPolicy) -> Self {
        RespectScheduler {
            policy,
            cost_model: CostModel::coral(),
        }
    }

    /// Overrides the cost model used by `ρ`.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &PtrNetPolicy {
        &self.policy
    }

    /// The cost model used by `ρ`.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Decodes the raw sequence `π` for a graph (before `ρ`/repair) —
    /// exposed for analysis and ablations.
    pub fn predict_sequence(&self, dag: &Dag) -> Vec<NodeId> {
        let feats = embed(dag, &self.policy.config().embedding);
        let pi = self.policy.decode(dag, &feats, &mut DecodeMode::Greedy);
        legalize_sequence(dag, &pi)
    }
}

impl Scheduler for RespectScheduler {
    fn name(&self) -> &str {
        "RESPECT"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let pi = self.predict_sequence(dag);
        let (packed, _) = pack::pack(dag, &pi, num_stages, &self.cost_model);
        // post-inference processing (dependency push-forward is a no-op
        // when dependency masking was on; sibling co-location may adjust)
        repair(dag, packed.stage_of(), num_stages, RepairConfig::default())
    }
}

/// Minimally reorders `pi` into a topological order by pushing
/// dependency-violating nodes forward — the sequence-level analogue of
/// the paper's repair rule. A no-op for already-valid sequences.
///
/// # Panics
///
/// Panics if `pi` is not a permutation of the graph's nodes.
pub fn legalize_sequence(dag: &Dag, pi: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(pi.len(), dag.len(), "sequence must cover every node");
    if topo::is_topological_order(dag, pi) {
        return pi.to_vec();
    }
    let mut pending: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut emitted = vec![false; dag.len()];
    let mut deferred: Vec<NodeId> = Vec::new();
    let mut out = Vec::with_capacity(pi.len());
    let emit =
        |v: NodeId, out: &mut Vec<NodeId>, pending: &mut Vec<usize>, emitted: &mut Vec<bool>| {
            emitted[v.index()] = true;
            out.push(v);
            for &s in dag.succs(v) {
                pending[s.index()] -= 1;
            }
        };
    for &v in pi {
        if pending[v.index()] == 0 && !emitted[v.index()] {
            emit(v, &mut out, &mut pending, &mut emitted);
            // retry deferred nodes in their original order
            let mut progressed = true;
            while progressed {
                progressed = false;
                let mut i = 0;
                while i < deferred.len() {
                    let d = deferred[i];
                    if pending[d.index()] == 0 {
                        deferred.remove(i);
                        emit(d, &mut out, &mut pending, &mut emitted);
                        progressed = true;
                    } else {
                        i += 1;
                    }
                }
            }
        } else if !emitted[v.index()] {
            deferred.push(v);
        }
    }
    debug_assert!(deferred.is_empty(), "all nodes emitted");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyConfig, PtrNetPolicy};
    use respect_graph::{models, SyntheticConfig, SyntheticSampler};

    fn untrained_scheduler() -> RespectScheduler {
        RespectScheduler::new(PtrNetPolicy::new(PolicyConfig::small(12)))
    }

    #[test]
    fn schedules_synthetic_graphs_validly() {
        let sched = untrained_scheduler();
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 4);
        for _ in 0..3 {
            let dag = sampler.sample();
            for k in [1, 2, 4, 6] {
                let s = sched.schedule(&dag, k).unwrap();
                assert!(s.is_valid(&dag), "k={k}");
                assert_eq!(s.num_stages(), k);
            }
        }
    }

    #[test]
    fn schedules_real_models_validly() {
        let sched = untrained_scheduler();
        let dag = models::xception();
        let s = sched.schedule(&dag, 4).unwrap();
        assert!(s.is_valid(&dag));
    }

    #[test]
    fn rejects_zero_stages() {
        let sched = untrained_scheduler();
        let dag = models::xception();
        assert!(matches!(
            sched.schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn predicted_sequences_are_topological_even_without_masking() {
        let policy = PtrNetPolicy::new(PolicyConfig {
            dependency_masking: false,
            ..PolicyConfig::small(12)
        });
        let sched = RespectScheduler::new(policy);
        let dag = SyntheticSampler::new(SyntheticConfig::paper(4), 8).sample();
        let pi = sched.predict_sequence(&dag);
        assert!(topo::is_topological_order(&dag, &pi));
    }

    #[test]
    fn legalize_is_identity_on_valid_orders() {
        let dag = SyntheticSampler::new(SyntheticConfig::paper(2), 1).sample();
        let order = respect_graph::topo::topo_order(&dag);
        assert_eq!(legalize_sequence(&dag, &order), order);
    }

    #[test]
    fn legalize_fixes_reversed_order() {
        let dag = SyntheticSampler::new(SyntheticConfig::paper(3), 2).sample();
        let mut reversed = respect_graph::topo::topo_order(&dag);
        reversed.reverse();
        let fixed = legalize_sequence(&dag, &reversed);
        assert!(topo::is_topological_order(&dag, &fixed));
    }

    #[test]
    fn name_is_respect() {
        assert_eq!(untrained_scheduler().name(), "RESPECT");
    }
}
