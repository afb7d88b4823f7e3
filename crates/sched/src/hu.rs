//! Hu's algorithm — the classic level-based scheduler the paper cites as
//! representative of the heuristic RCS family (Sec. II).
//!
//! Solves a sibling problem to pipeline partitioning: unit-latency tasks
//! on `m` identical processors under precedence. Nodes are prioritized by
//! their *level* (longest path to a sink); each time step runs the `m`
//! highest-level ready nodes. Optimal for in-forests (Hu, 1961), a strong
//! heuristic otherwise. Included as a substrate so the repository covers
//! the full background the paper builds on.

use respect_graph::{topo, Dag, NodeId};

use crate::cost::CostModel;
use crate::pack;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// [`Scheduler`] adapter projecting Hu's algorithm onto pipeline
/// partitioning, for the registry and any other `dyn Scheduler` context.
///
/// Hu's algorithm solves a sibling problem (unit-time tasks on identical
/// processors), so the adapter is a list-scheduling projection: the
/// level-priority execution order of [`hu_schedule`] with
/// `machines = num_stages` — concatenating the time slots yields a
/// topological order — is cut into `num_stages` contiguous segments by
/// the optimal packing DP ([`pack::pack`]) under the cost model.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct HuList {
    model: CostModel,
}

impl HuList {
    /// Creates the adapter.
    pub fn new(model: CostModel) -> Self {
        HuList { model }
    }
}

impl Default for HuList {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Scheduler for HuList {
    fn name(&self) -> &str {
        "Hu list"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let order: Vec<NodeId> = hu_schedule(dag, num_stages).into_iter().flatten().collect();
        Ok(pack::pack(dag, &order, num_stages, &self.model).0)
    }
}

/// Schedules unit-time tasks on `machines` processors; returns the nodes
/// executed at each time step (each step runs at most `machines` nodes).
///
/// # Panics
///
/// Panics if `machines == 0`.
pub fn hu_schedule(dag: &Dag, machines: usize) -> Vec<Vec<NodeId>> {
    assert!(machines > 0, "at least one machine");
    let levels = topo::height_to_sink(dag);
    let n = dag.len();
    let mut indeg: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut ready: Vec<NodeId> = dag.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut slots = Vec::new();
    let mut done = 0usize;
    while done < n {
        // highest level first; id as deterministic tie-break
        ready.sort_by_key(|&v| (std::cmp::Reverse(levels[v.index()]), v));
        let take = machines.min(ready.len());
        let step: Vec<NodeId> = ready.drain(..take).collect();
        for &v in &step {
            for &s in dag.succs(v) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        done += step.len();
        slots.push(step);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, OpKind, OpNode};

    fn dag_from_edges(n: usize, edges: &[(u32, u32)]) -> Dag {
        let mut b = DagBuilder::new();
        for i in 0..n {
            b.add_node(OpNode::new(format!("n{i}"), OpKind::Other));
        }
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_takes_length_steps_regardless_of_machines() {
        let dag = dag_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(hu_schedule(&dag, 1).len(), 5);
        assert_eq!(hu_schedule(&dag, 4).len(), 5);
    }

    #[test]
    fn independent_tasks_pack_into_ceil_div() {
        let dag = dag_from_edges(7, &[]);
        assert_eq!(hu_schedule(&dag, 3).len(), 3); // ceil(7/3)
        assert_eq!(hu_schedule(&dag, 7).len(), 1);
    }

    #[test]
    fn intree_is_scheduled_optimally() {
        // Classic in-tree: 4 leaves -> 2 mids -> 1 root, 2 machines.
        // Optimal: t0 {l0,l1} t1 {l2,l3} t2 {m0,m1} t3 {root} = 4 steps.
        let dag = dag_from_edges(7, &[(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]);
        assert_eq!(hu_schedule(&dag, 2).len(), 4);
    }

    #[test]
    fn schedule_respects_precedence_and_capacity() {
        let dag = dag_from_edges(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]);
        let m = 2;
        let slots = hu_schedule(&dag, m);
        let mut time = [0usize; 6];
        for (t, slot) in slots.iter().enumerate() {
            assert!(slot.len() <= m, "capacity at step {t}");
            for &v in slot {
                time[v.index()] = t;
            }
        }
        for (u, v) in dag.edges() {
            assert!(time[u.index()] < time[v.index()], "{u} before {v}");
        }
        // every node scheduled exactly once
        let total: usize = slots.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn makespan_never_below_critical_path_or_work_bound() {
        let dag = dag_from_edges(8, &[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)]);
        for m in 1..=4 {
            let ms = hu_schedule(&dag, m).len();
            let cp = dag.depth() + 1;
            let work = dag.len().div_ceil(m);
            assert!(ms >= cp.max(work), "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_panics() {
        let dag = dag_from_edges(1, &[]);
        let _ = hu_schedule(&dag, 0);
    }

    #[test]
    fn adapter_produces_valid_schedules() {
        let dag = dag_from_edges(7, &[(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]);
        let sched = HuList::new(CostModel::coral());
        for k in [1, 2, 3] {
            let s = sched.schedule(&dag, k).unwrap();
            assert!(s.is_valid(&dag), "k={k}");
            assert_eq!(s.num_stages(), k);
        }
        assert_eq!(sched.name(), "Hu list");
    }

    #[test]
    fn adapter_rejects_zero_stages() {
        let dag = dag_from_edges(2, &[(0, 1)]);
        assert!(matches!(
            HuList::new(CostModel::coral()).schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn adapter_order_is_the_hu_execution_order() {
        let dag = dag_from_edges(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]);
        let order: Vec<NodeId> = hu_schedule(&dag, 3).into_iter().flatten().collect();
        assert!(topo::is_topological_order(&dag, &order));
        assert_eq!(order.len(), dag.len());
    }
}
