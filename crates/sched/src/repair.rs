//! Post-inference processing (paper, Sec. III, last paragraph).
//!
//! The RL agent's raw output may violate domain constraints; before
//! deployment RESPECT "corrects the dependency violation by simply pushing
//! the involved node forward, which is a deterministic step with minimum
//! changes to the RL solution. Besides, Edge TPU hardware requires
//! children nodes of any node to be in the same pipeline, where the
//! post-inference procedure assigns these nodes to the earliest predicted
//! stage."
//!
//! [`repair`] implements both rules. The sibling rule used to be applied
//! as a hoist-then-fix alternation, but hoisting a child to an earlier
//! stage can undo the dependency validity established moments before, and
//! the bounded alternation could then stop at a state where re-running
//! `repair` produced a *different* schedule (non-idempotent legalization —
//! a real deployment hazard). The rule is therefore resolved structurally:
//! sibling groups are merged into co-location classes (a union-find over
//! "children of the same node"), each class starts at the earliest
//! predicted stage among its members, and class stages are pushed forward
//! monotonically until every cross-class edge flows forward. The
//! propagation only ever increases stages, so it converges in one round,
//! the result is dependency-valid by construction, and `repair` is
//! **idempotent** — `repair(repair(raw)) == repair(raw)` for every input
//! (property-tested in `crates/sched/tests`).

use respect_graph::{topo, Dag};

use crate::schedule::{Schedule, ScheduleError};

/// Options for [`repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Enforce the Edge TPU rule that all children of a node share a
    /// stage (hoisted to the earliest predicted stage among them).
    pub sibling_stages: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            sibling_stages: true,
        }
    }
}

/// Legalizes a raw per-node stage prediction into a valid [`Schedule`].
///
/// Stages are first clamped into `0..num_stages`; then, under
/// [`RepairConfig::sibling_stages`], sibling co-location classes are
/// pushed forward together, and dependency violations are fixed by
/// pushing nodes forward in topological order.
///
/// # Errors
///
/// Returns [`ScheduleError::NoStages`] when `num_stages == 0` and
/// [`ScheduleError::LengthMismatch`] when `raw` has the wrong length.
pub fn repair(
    dag: &Dag,
    raw: &[usize],
    num_stages: usize,
    config: RepairConfig,
) -> Result<Schedule, ScheduleError> {
    if num_stages == 0 {
        return Err(ScheduleError::NoStages);
    }
    if raw.len() != dag.len() {
        return Err(ScheduleError::LengthMismatch {
            got: raw.len(),
            expected: dag.len(),
        });
    }
    let mut stage: Vec<usize> = raw.iter().map(|&s| s.min(num_stages - 1)).collect();
    let order = topo::topo_order(dag);

    let dependency_pass = |stage: &mut [usize]| {
        for &v in &order {
            let min = dag
                .preds(v)
                .iter()
                .map(|&p| stage[p.index()])
                .max()
                .unwrap_or(0);
            if stage[v.index()] < min {
                stage[v.index()] = min;
            }
        }
    };

    if config.sibling_stages {
        // co-location classes: children of any node with several children
        // must share a stage, and overlapping sibling sets chain together
        let mut parent: Vec<usize> = (0..dag.len()).collect();
        for u in dag.node_ids() {
            let children = dag.succs(u);
            if children.len() > 1 {
                let root = find(&mut parent, children[0].index());
                for &c in &children[1..] {
                    let r = find(&mut parent, c.index());
                    parent[r] = root;
                }
            }
        }
        // each class starts at the earliest predicted stage of any member
        // (the paper's rule), then classes are pushed forward until every
        // cross-class edge flows forward — monotone, so it terminates, and
        // it never revisits a settled constraint (the old alternation
        // could hoist a child back below its parents)
        let mut class_stage = vec![usize::MAX; dag.len()];
        for (v, &s) in stage.iter().enumerate() {
            let r = find(&mut parent, v);
            class_stage[r] = class_stage[r].min(s);
        }
        loop {
            let mut changed = false;
            for &v in &order {
                let rv = find(&mut parent, v.index());
                for &p in dag.preds(v) {
                    let rp = find(&mut parent, p.index());
                    if class_stage[rp] > class_stage[rv] {
                        class_stage[rv] = class_stage[rp];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (v, s) in stage.iter_mut().enumerate() {
            *s = class_stage[find(&mut parent, v)];
        }
    }
    // final guarantee: dependency-valid (a no-op after class propagation)
    dependency_pass(&mut stage);
    let schedule = Schedule::new(stage, num_stages)?;
    debug_assert!(schedule.is_valid(dag));
    Ok(schedule)
}

/// Union-find root lookup with path compression.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, NodeId, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

    fn diamond() -> Dag {
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
    fn pushes_violating_nodes_forward() {
        let dag = diamond();
        // node 3 predicted before its parents
        let s = repair(&dag, &[1, 1, 1, 0], 3, RepairConfig::default()).unwrap();
        assert!(s.is_valid(&dag));
        assert!(s.stage(NodeId(3)) >= 1);
    }

    #[test]
    fn valid_input_with_siblings_colocated_is_untouched() {
        let dag = diamond();
        let raw = vec![0, 1, 1, 2];
        let s = repair(&dag, &raw, 3, RepairConfig::default()).unwrap();
        assert_eq!(s.stage_of(), raw.as_slice());
    }

    #[test]
    fn sibling_rule_hoists_children_to_earliest_stage() {
        let dag = diamond();
        // children of n0 predicted on stages 2 and 1 -> both to 1
        let s = repair(&dag, &[0, 2, 1, 2], 3, RepairConfig::default()).unwrap();
        assert_eq!(s.stage(NodeId(1)), s.stage(NodeId(2)));
        assert_eq!(s.stage(NodeId(1)), 1);
        assert!(s.is_valid(&dag));
    }

    #[test]
    fn sibling_rule_can_be_disabled() {
        let dag = diamond();
        let cfg = RepairConfig {
            sibling_stages: false,
        };
        let s = repair(&dag, &[0, 2, 1, 2], 3, cfg).unwrap();
        assert_eq!(s.stage(NodeId(1)), 2);
        assert_eq!(s.stage(NodeId(2)), 1);
    }

    #[test]
    fn clamps_out_of_range_stages() {
        let dag = diamond();
        let s = repair(&dag, &[9, 9, 9, 9], 3, RepairConfig::default()).unwrap();
        assert!(s.stage_of().iter().all(|&x| x == 2));
    }

    #[test]
    fn rejects_wrong_length_and_zero_stages() {
        let dag = diamond();
        assert!(matches!(
            repair(&dag, &[0, 0], 2, RepairConfig::default()),
            Err(ScheduleError::LengthMismatch { .. })
        ));
        assert!(matches!(
            repair(&dag, &[0; 4], 0, RepairConfig::default()),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn always_valid_on_random_predictions() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(4), 13);
        let dag = sampler.sample();
        // adversarial raw predictions: reversed stages
        for k in [2, 4, 6] {
            let raw: Vec<usize> = (0..dag.len()).map(|i| (dag.len() - i) % k).collect();
            let s = repair(&dag, &raw, k, RepairConfig::default()).unwrap();
            assert!(s.is_valid(&dag), "k={k}");
        }
    }
}
