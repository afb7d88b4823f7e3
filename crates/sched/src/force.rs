//! Force-directed scheduling (Paulin & Knight, 1989) — the other classic
//! RCS heuristic the paper cites (Sec. II, ref 12).
//!
//! Given a latency bound of `L` control steps, FDS assigns each operation
//! to a step inside its `[ASAP, ALAP]` time frame so that the expected
//! resource usage ("distribution graph") stays flat: at every step the
//! candidate with the smallest *force* (increase in squared distribution)
//! is committed, and frames of its predecessors/successors shrink
//! accordingly. Included as a substrate; pipeline partitioning uses the
//! solvers in [`crate::pack`] / [`crate::exact`].

use respect_graph::{topo, Dag, NodeId};

use crate::cost::CostModel;
use crate::pack;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// [`Scheduler`] adapter projecting force-directed scheduling onto
/// pipeline partitioning, for the registry and any other `dyn Scheduler`
/// context.
///
/// FDS assigns control steps under a latency bound, not pipeline stages,
/// so the adapter is a list-scheduling projection: run
/// [`force_directed`] with latency `depth + 3` (the minimum feasible
/// bound plus two steps of slack), order nodes by `(step, node id)` — a
/// topological order, since edges strictly increase steps — and cut that
/// order into `num_stages` contiguous segments with the optimal packing
/// DP ([`pack::pack`]).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct ForceDirected {
    model: CostModel,
}

/// Latency slack of [`ForceDirected`] beyond the critical path. More
/// slack widens the `[ASAP, ALAP]` frames FDS balances over, at
/// quadratic cost in frame width.
const SLACK: usize = 2;

impl ForceDirected {
    /// Creates the adapter.
    pub fn new(model: CostModel) -> Self {
        ForceDirected { model }
    }
}

impl Default for ForceDirected {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Scheduler for ForceDirected {
    fn name(&self) -> &str {
        "force-directed"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let latency = dag.depth() + 1 + SLACK;
        let steps = force_directed(dag, latency);
        let mut order: Vec<NodeId> = dag.node_ids().collect();
        order.sort_by_key(|&v| (steps[v.index()], v));
        Ok(pack::pack(dag, &order, num_stages, &self.model).0)
    }
}

/// Assigns every node a control step in `0..latency`, minimizing the peak
/// expected concurrency. Returns the step per node (indexed by node id).
///
/// # Panics
///
/// Panics if `latency` is smaller than the graph's critical path
/// (`dag.depth() + 1` steps).
pub fn force_directed(dag: &Dag, latency: usize) -> Vec<usize> {
    let n = dag.len();
    let depth = dag.depth();
    assert!(
        latency > depth,
        "latency {latency} below critical path {}",
        depth + 1
    );
    let slack = latency - 1 - depth;
    let mut asap = topo::asap_levels(dag);
    let mut alap: Vec<usize> = topo::alap_levels(dag).iter().map(|&l| l + slack).collect();
    let order = topo::topo_order(dag);

    // distribution graph: sum over nodes of 1/frame_width per step
    let mut scheduled = vec![false; n];
    for _ in 0..n {
        // recompute distribution
        let mut dist = vec![0f64; latency];
        for v in dag.node_ids() {
            let (a, l) = (asap[v.index()], alap[v.index()]);
            let w = (l - a + 1) as f64;
            for d in &mut dist[a..=l] {
                *d += 1.0 / w;
            }
        }
        // pick the unscheduled (node, step) with minimal self force
        let mut best: Option<(f64, usize, usize)> = None;
        for &v in &order {
            if scheduled[v.index()] {
                continue;
            }
            let (a, l) = (asap[v.index()], alap[v.index()]);
            let w = (l - a + 1) as f64;
            for step in a..=l {
                // self force: dist(step)*(1 - 1/w) - sum_{other steps} dist/w
                let mut force = dist[step] * (1.0 - 1.0 / w);
                for (other, d) in dist.iter().enumerate().take(l + 1).skip(a) {
                    if other != step {
                        force -= d / w;
                    }
                }
                let better = match best {
                    None => true,
                    Some((bf, _, _)) => force < bf - 1e-12,
                };
                if better {
                    best = Some((force, v.index(), step));
                }
            }
        }
        let (_, vi, step) = best.expect("some node is unscheduled");
        scheduled[vi] = true;
        asap[vi] = step;
        alap[vi] = step;
        // propagate frame tightening
        for &u in &order {
            for &s in dag.succs(u) {
                let min_next = asap[u.index()] + 1;
                if asap[s.index()] < min_next {
                    asap[s.index()] = min_next;
                }
            }
        }
        for &u in order.iter().rev() {
            for &s in dag.succs(u) {
                let max_prev = alap[s.index()].saturating_sub(1);
                if alap[u.index()] > max_prev {
                    alap[u.index()] = max_prev;
                }
            }
        }
    }
    asap
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, NodeId, OpKind, OpNode};

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

    /// Peak concurrency (max nodes per step) of a step assignment.
    fn peak_concurrency(steps: &[usize]) -> usize {
        let mut counts = std::collections::HashMap::new();
        for &s in steps {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    #[test]
    fn respects_precedence() {
        let dag = dag_from_edges(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]);
        let steps = force_directed(&dag, 6);
        for (u, v) in dag.edges() {
            assert!(steps[u.index()] < steps[v.index()]);
        }
        assert!(steps.iter().all(|&s| s < 6));
    }

    #[test]
    fn chain_fills_exact_latency() {
        let dag = dag_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let steps = force_directed(&dag, 4);
        assert_eq!(steps, vec![0, 1, 2, 3]);
    }

    #[test]
    fn slack_flattens_concurrency() {
        // 6 independent nodes, latency 3: FDS should spread them 2/2/2
        let dag = dag_from_edges(6, &[]);
        let steps = force_directed(&dag, 3);
        assert_eq!(peak_concurrency(&steps), 2, "steps={steps:?}");
    }

    #[test]
    fn beats_asap_peak_when_slack_exists() {
        // two parallel chains of length 2 plus 2 free nodes, latency 4
        let dag = dag_from_edges(6, &[(0, 1), (2, 3)]);
        let steps = force_directed(&dag, 4);
        let asap_peak = peak_concurrency(&respect_graph::topo::asap_levels(&dag));
        assert!(peak_concurrency(&steps) <= asap_peak);
    }

    #[test]
    #[should_panic(expected = "below critical path")]
    fn rejects_infeasible_latency() {
        let dag = dag_from_edges(3, &[(0, 1), (1, 2)]);
        let _ = force_directed(&dag, 2);
    }

    #[test]
    fn adapter_produces_valid_schedules() {
        let dag = dag_from_edges(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]);
        let sched = ForceDirected::new(CostModel::coral());
        for k in [1, 2, 3] {
            let s = sched.schedule(&dag, k).unwrap();
            assert!(s.is_valid(&dag), "k={k}");
            assert_eq!(s.num_stages(), k);
        }
        assert_eq!(sched.name(), "force-directed");
    }

    #[test]
    fn adapter_rejects_zero_stages() {
        let dag = dag_from_edges(2, &[(0, 1)]);
        assert!(matches!(
            ForceDirected::new(CostModel::coral()).schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn adapter_projected_order_is_topological() {
        let dag = dag_from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let steps = force_directed(&dag, dag.depth() + 3);
        let mut order: Vec<NodeId> = dag.node_ids().collect();
        order.sort_by_key(|&v| (steps[v.index()], v));
        assert!(respect_graph::topo::is_topological_order(&dag, &order));
    }
}
