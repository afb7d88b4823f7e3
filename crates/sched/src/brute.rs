//! Exhaustive optimum for small graphs.
//!
//! Enumerates every dependency-feasible stage assignment by DFS in
//! topological order (each node's stage is at least the maximum of its
//! parents' stages). Exponential — use only for graphs of roughly a dozen
//! nodes. Exists to certify [`crate::exact`] in tests; also handy for
//! unit-testing cost models.

use respect_graph::{topo, Dag};

use crate::cost::CostModel;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// [`Scheduler`] adapter over [`optimal_schedule`], for the registry and
/// any other `dyn Scheduler` context.
///
/// Exhaustive search is exponential in the node count, so the adapter
/// refuses graphs of more than 12 nodes with a structured
/// [`ScheduleError::SolverFailed`] instead of hanging.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct BruteForce {
    model: CostModel,
}

/// Largest graph the [`BruteForce`] adapter will enumerate.
const MAX_NODES: usize = 12;

impl BruteForce {
    /// Creates the adapter.
    pub fn new(model: CostModel) -> Self {
        BruteForce { model }
    }
}

impl Default for BruteForce {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Scheduler for BruteForce {
    fn name(&self) -> &str {
        "brute force"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        if dag.len() > MAX_NODES {
            return Err(ScheduleError::SolverFailed(format!(
                "graph has {} nodes; exhaustive search is capped at {MAX_NODES} \
                 (use `exact` for large graphs)",
                dag.len(),
            )));
        }
        Ok(optimal_schedule(dag, num_stages, &self.model).0)
    }
}

/// The optimal bottleneck objective over **all** valid `num_stages`-stage
/// schedules, by exhaustive enumeration.
///
/// # Panics
///
/// Panics if `num_stages == 0`. Intended for `|V| <= ~12`; larger graphs
/// will simply take exponential time.
pub fn optimal_objective(dag: &Dag, num_stages: usize, model: &CostModel) -> f64 {
    optimal_schedule(dag, num_stages, model).1
}

/// As [`optimal_objective`], also returning a witness schedule.
///
/// # Panics
///
/// Panics if `num_stages == 0`.
pub fn optimal_schedule(dag: &Dag, num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    assert!(num_stages > 0, "at least one stage");
    let order = topo::topo_order(dag);
    let n = dag.len();
    let mut search = Search {
        dag,
        order: &order,
        num_stages,
        model,
        stage_of: vec![0usize; n],
        best: f64::INFINITY,
        best_assign: vec![0usize; n],
    };
    search.dfs(0);
    let schedule = Schedule::new(search.best_assign, num_stages).expect("stages in range");
    (schedule, search.best)
}

struct Search<'a> {
    dag: &'a Dag,
    order: &'a [respect_graph::NodeId],
    num_stages: usize,
    model: &'a CostModel,
    stage_of: Vec<usize>,
    best: f64,
    best_assign: Vec<usize>,
}

impl Search<'_> {
    fn dfs(&mut self, idx: usize) {
        if idx == self.order.len() {
            let s = Schedule::new(self.stage_of.clone(), self.num_stages).expect("stages in range");
            let obj = self.model.objective(self.dag, &s);
            if obj < self.best {
                self.best = obj;
                self.best_assign.copy_from_slice(&self.stage_of);
            }
            return;
        }
        let v = self.order[idx];
        let min_stage = self
            .dag
            .preds(v)
            .iter()
            .map(|&p| self.stage_of[p.index()])
            .max()
            .unwrap_or(0);
        for s in min_stage..self.num_stages {
            self.stage_of[v.index()] = s;
            self.dfs(idx + 1);
        }
        self.stage_of[v.index()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, OpKind, OpNode};

    fn chain(params: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = params
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                b.add_node(
                    OpNode::new(format!("n{i}"), OpKind::Conv2d)
                        .with_params(p)
                        .with_output(1),
                )
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn mem_model() -> CostModel {
        CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 1.0,
            cache_bytes: 0,
        }
    }

    #[test]
    fn brute_force_on_known_chain() {
        let dag = chain(&[3, 3, 3, 3]);
        // 2 stages: best split 2+2 -> max(6, 6+1 cut byte) = 7
        let (s, obj) = optimal_schedule(&dag, 2, &mem_model());
        assert!(s.is_valid(&dag));
        assert!((obj - 7.0).abs() < 1e-12, "obj={obj}");
    }

    #[test]
    fn one_stage_means_sum() {
        let dag = chain(&[2, 5]);
        assert!((optimal_objective(&dag, 1, &mem_model()) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn extra_stages_never_increase_cost() {
        let dag = chain(&[4, 1, 2, 8]);
        let m = mem_model();
        let o2 = optimal_objective(&dag, 2, &m);
        let o3 = optimal_objective(&dag, 3, &m);
        let o4 = optimal_objective(&dag, 4, &m);
        assert!(o3 <= o2 + 1e-12);
        assert!(o4 <= o3 + 1e-12);
    }

    #[test]
    fn respects_dependencies_on_diamond() {
        let mut b = DagBuilder::new();
        let a = b.add_node(
            OpNode::new("a", OpKind::Conv2d)
                .with_params(1)
                .with_output(1),
        );
        let x = b.add_node(
            OpNode::new("x", OpKind::Conv2d)
                .with_params(9)
                .with_output(1),
        );
        let y = b.add_node(
            OpNode::new("y", OpKind::Conv2d)
                .with_params(9)
                .with_output(1),
        );
        let z = b.add_node(
            OpNode::new("z", OpKind::Conv2d)
                .with_params(1)
                .with_output(1),
        );
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let dag = b.build().unwrap();
        let (s, _) = optimal_schedule(&dag, 2, &mem_model());
        assert!(s.is_valid(&dag));
    }

    #[test]
    fn adapter_matches_free_function() {
        let dag = chain(&[3, 1, 4, 1, 5]);
        let model = mem_model();
        let via_adapter = BruteForce::new(model).schedule(&dag, 3).unwrap();
        let (via_fn, obj) = optimal_schedule(&dag, 3, &model);
        assert_eq!(via_adapter, via_fn);
        assert!((model.objective(&dag, &via_adapter) - obj).abs() < 1e-18);
        assert_eq!(BruteForce::new(model).name(), "brute force");
    }

    #[test]
    fn adapter_rejects_oversized_graphs_without_panicking() {
        let params: Vec<u64> = (0..20).map(|i| i + 1).collect();
        let dag = chain(&params);
        let err = BruteForce::new(mem_model()).schedule(&dag, 2).unwrap_err();
        assert!(matches!(err, ScheduleError::SolverFailed(_)), "{err}");
        assert!(err.to_string().contains("20 nodes"), "{err}");
    }

    #[test]
    fn adapter_rejects_zero_stages() {
        let dag = chain(&[1, 2]);
        assert!(matches!(
            BruteForce::new(mem_model()).schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn adapter_cap_is_adjustable() {
        let params: Vec<u64> = (0..14).map(|i| i + 1).collect();
        let dag = chain(&params);
        assert!(BruteForce::new(mem_model()).schedule(&dag, 2).is_err());
    }
}
