//! Simulated annealing over (sequence, cuts) — the "iterative
//! metaheuristics" family the paper positions between heuristics and exact
//! solvers (Sec. II).
//!
//! The state is a topological order plus `num_stages - 1` cut positions.
//! Moves: shift one cut by one node, or swap two adjacent sequence nodes
//! when no edge forbids it. Acceptance follows the Metropolis rule with a
//! geometric temperature schedule. Also used to tighten the exact solver's
//! initial upper bound.
//!
//! Every proposal is costed through an [`IncrementalEvaluator`]: a cut
//! shift moves exactly one node across a stage boundary and an adjacent
//! swap moves at most two, so candidate objectives cost `O(deg + k)`
//! instead of the full `O(V + E)` recomputation — the evaluator is
//! bitwise-equivalent to [`CostModel::stage_costs`], so accept/reject
//! decisions (and thus results per seed) match a full-recompute loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use respect_graph::{Dag, NodeId};

use crate::cost::CostModel;
use crate::incremental::IncrementalEvaluator;
use crate::order;
use crate::pack;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// Simulated-annealing pipeline scheduler.
#[derive(Debug, Clone)]
#[must_use]
pub struct Annealing {
    model: CostModel,
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial objective.
    pub init_temp_frac: f64,
    /// Geometric cooling factor applied every iteration.
    pub cooling: f64,
    /// RNG seed (annealing is deterministic per seed).
    pub seed: u64,
}

impl Annealing {
    /// Creates an annealer with sensible defaults (5 000 moves).
    pub fn new(model: CostModel) -> Self {
        Annealing {
            model,
            iterations: 5_000,
            init_temp_frac: 0.2,
            cooling: 0.999,
            seed: 0x5eed,
        }
    }

    /// Overrides the move budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Annealing {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Scheduler for Annealing {
    fn name(&self) -> &str {
        "simulated annealing"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        // Start from the packing-DP solution on the default order.
        let (init, _) = pack::pack_default(dag, num_stages, &self.model);
        Ok(self.anneal_from(dag, num_stages, &init))
    }
}

impl Annealing {
    /// Anneals from `init`, which must be a packing of
    /// [`order::default_order`] into `num_stages > 0` stages.
    pub(crate) fn anneal_from(&self, dag: &Dag, num_stages: usize, init: &Schedule) -> Schedule {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sequence = order::default_order(dag);
        let mut cuts = vec![0usize; num_stages - 1];
        {
            // recover cut positions from the packed schedule
            let mut counts = vec![0usize; num_stages];
            for &s in init.stage_of() {
                counts[s] += 1;
            }
            let mut acc = 0;
            for k in 0..num_stages - 1 {
                acc += counts[k];
                cuts[k] = acc;
            }
        }
        let mut eval = IncrementalEvaluator::new(dag, self.model, init);

        let mut cur_obj = eval.bottleneck();
        let mut best = init.clone();
        let mut best_obj = cur_obj;
        let mut temp = (cur_obj * self.init_temp_frac).max(f64::MIN_POSITIVE);

        let n = dag.len();
        for _ in 0..self.iterations {
            // applied single-node moves, in order, for a possible undo
            enum Applied {
                Cut {
                    idx: usize,
                    old: usize,
                    node: NodeId,
                    prev: usize,
                },
                Swap {
                    i: usize,
                    moved: Option<(NodeId, usize, NodeId, usize)>,
                },
            }
            let applied = if num_stages > 1 && rng.gen_bool(0.5) {
                let idx = rng.gen_range(0..cuts.len());
                let lo = if idx == 0 { 0 } else { cuts[idx - 1] };
                let hi = if idx + 1 == cuts.len() {
                    n
                } else {
                    cuts[idx + 1]
                };
                let delta: isize = if rng.gen_bool(0.5) { 1 } else { -1 };
                let old = cuts[idx];
                let to = old.saturating_add_signed(delta).clamp(lo, hi);
                if to == old {
                    continue;
                }
                // shifting one cut by one position moves exactly one node
                // across one stage boundary: cut up (`old → old + 1`)
                // pulls the node at position `old` one stage earlier, cut
                // down pushes the node at position `to` one stage later
                let (pos, shift): (usize, isize) = if to > old { (old, -1) } else { (to, 1) };
                let node = sequence[pos];
                let stage = eval.stage(node).saturating_add_signed(shift);
                let prev = eval.move_node(node, stage);
                cuts[idx] = to;
                Applied::Cut {
                    idx,
                    old,
                    node,
                    prev,
                }
            } else {
                if n < 2 {
                    continue;
                }
                let i = rng.gen_range(0..n - 1);
                let (u, v) = (sequence[i], sequence[i + 1]);
                if dag.has_edge(u, v) {
                    continue; // swap would break the topological order
                }
                let (su, sv) = (eval.stage(u), eval.stage(v));
                sequence.swap(i, i + 1);
                // positions keep their stages, so the nodes trade stages
                // only when a cut separates them
                let moved = if su != sv {
                    eval.move_node(u, sv);
                    eval.move_node(v, su);
                    Some((u, su, v, sv))
                } else {
                    None
                };
                Applied::Swap { i, moved }
            };
            let cand_obj = eval.bottleneck();
            let accept = cand_obj <= cur_obj
                || rng.gen_bool(((cur_obj - cand_obj) / temp).exp().clamp(0.0, 1.0));
            if accept {
                cur_obj = cand_obj;
                if cand_obj < best_obj {
                    best_obj = cand_obj;
                    best = eval.to_schedule();
                }
            } else {
                match applied {
                    Applied::Cut {
                        idx,
                        old,
                        node,
                        prev,
                    } => {
                        eval.move_node(node, prev);
                        cuts[idx] = old;
                    }
                    Applied::Swap { i, moved } => {
                        if let Some((u, su, v, sv)) = moved {
                            eval.move_node(u, su);
                            eval.move_node(v, sv);
                        }
                        sequence.swap(i, i + 1);
                    }
                }
            }
            temp *= self.cooling;
        }
        debug_assert!(best.is_valid(dag));
        debug_assert_eq!(
            best_obj.to_bits(),
            self.model.objective(dag, &best).to_bits(),
            "incremental objective drifted from full recomputation"
        );
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{models, SyntheticConfig, SyntheticSampler};

    #[test]
    fn annealing_never_worse_than_its_init() {
        let model = CostModel::coral();
        let annealer = Annealing::new(model).with_iterations(500);
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 41);
        for _ in 0..5 {
            let dag = sampler.sample();
            let (_, init_obj) = pack::pack_default(&dag, 4, &model);
            let s = annealer.schedule(&dag, 4).unwrap();
            assert!(s.is_valid(&dag));
            assert!(model.objective(&dag, &s) <= init_obj + 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let model = CostModel::coral();
        let dag = models::xception();
        let a = Annealing::new(model)
            .with_iterations(300)
            .with_seed(1)
            .schedule(&dag, 4)
            .unwrap();
        let b = Annealing::new(model)
            .with_iterations(300)
            .with_seed(1)
            .schedule(&dag, 4)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_zero_stages() {
        let dag = models::xception();
        assert!(matches!(
            Annealing::new(CostModel::coral()).schedule(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn single_stage_is_trivial() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(2), 3);
        let dag = sampler.sample();
        let s = Annealing::new(CostModel::coral())
            .with_iterations(50)
            .schedule(&dag, 1)
            .unwrap();
        assert!(s.stage_of().iter().all(|&x| x == 0));
    }
}
