//! Online re-partitioning: deterministic local refinement of an
//! *existing* schedule.
//!
//! The offline schedulers ([`crate::exact`], [`crate::greedy`],
//! [`crate::anneal`]) answer "how should this model be partitioned?"
//! from scratch. A serving runtime asks a different question mid-flight:
//! "the deployed partition's bottleneck has drifted — what is the best
//! *nearby* partition I can hot-swap to?" [`refine_with`] answers it with a
//! deterministic best-improvement local search over single-node stage
//! moves, costed by the `O(deg(v) + k)`-per-move
//! [`IncrementalEvaluator`] — cheap enough to run between requests.
//!
//! Guarantees (property-tested in `crates/sched/tests`):
//!
//! * the result is **never worse** than the input under `model`;
//! * validity is preserved: every node stays inside its dependency
//!   window `[max stage(pred), min stage(succ)]`, so no edge ever flows
//!   backwards and the stage count is unchanged;
//! * fully deterministic (fixed node visit order, strict-improvement
//!   acceptance, no randomness);
//! * at convergence the result is a fixpoint: refining it again returns
//!   the identical schedule with `moves == 0`.

use respect_graph::{Dag, NodeId};

use crate::cost::CostModel;
use crate::incremental::IncrementalEvaluator;
use crate::schedule::Schedule;

/// Observer hook for [`refine_with`]: one callback per completed
/// refinement pass. Monomorphized, so a no-op observer compiles to
/// nothing. The serving runtime's probe layer
/// (`respect_tpu::probe`) adapts this into its structured event stream;
/// keeping the trait here — below the simulator in the crate graph —
/// lets the refiner stay dependency-free while still being observable.
pub trait RefineObserver {
    /// Called after pass `pass` (0-based) with the moves it accepted
    /// and the bottleneck objective it reached.
    fn on_pass(&mut self, pass: usize, moves_in_pass: usize, objective: f64);
}

impl<F: FnMut(usize, usize, f64)> RefineObserver for F {
    fn on_pass(&mut self, pass: usize, moves_in_pass: usize, objective: f64) {
        self(pass, moves_in_pass, objective);
    }
}

/// Result of one [`refine_with`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RepartitionOutcome {
    /// The refined schedule (same stage count as the input).
    pub schedule: Schedule,
    /// Bottleneck objective of the refined schedule under the model.
    pub objective: f64,
    /// Accepted single-node moves.
    pub moves: usize,
    /// Whether the search converged (a full pass found no improving
    /// move) within `max_passes`.
    pub converged: bool,
}

/// Refines `from` by deterministic best-improvement single-node moves.
///
/// Each pass visits every node in id order; for each node it evaluates
/// every stage in the node's dependency window and applies the move with
/// the lowest bottleneck objective if it strictly improves on the
/// current one. Passes repeat until a full pass makes no move or
/// `max_passes` is exhausted.
///
/// `from` must be valid for `dag` (stage count and dependency order);
/// this is the caller's contract, as with the evaluator itself.
/// `observer` hears of every pass (accepted moves and the objective
/// reached) and never changes the search.
pub fn refine_with<O: RefineObserver>(
    dag: &Dag,
    model: CostModel,
    from: &Schedule,
    max_passes: usize,
    observer: &mut O,
) -> RepartitionOutcome {
    let mut eval = IncrementalEvaluator::new(dag, model, from);
    let k = eval.num_stages();
    let mut score = profile(eval.stage_costs());
    let mut moves = 0usize;
    let mut converged = false;
    for pass in 0..max_passes {
        let mut improved = false;
        let moves_before = moves;
        for i in 0..dag.len() {
            let v = NodeId(i as u32);
            // dependency window: earliest and latest stage v may occupy
            let lo = dag
                .preds(v)
                .iter()
                .map(|&p| eval.stage(p))
                .max()
                .unwrap_or(0);
            let hi = dag
                .succs(v)
                .iter()
                .map(|&s| eval.stage(s))
                .min()
                .unwrap_or(k - 1);
            if lo >= hi {
                continue;
            }
            let cur = eval.stage(v);
            let mut best_stage = cur;
            let mut best_score = score.clone();
            for s in lo..=hi {
                if s == cur {
                    continue;
                }
                let prev = eval.move_node(v, s);
                let cand = profile(eval.stage_costs());
                if lex_less(&cand, &best_score) {
                    best_score = cand;
                    best_stage = s;
                }
                eval.move_node(v, prev);
            }
            if best_stage != cur {
                eval.move_node(v, best_stage);
                score = best_score;
                moves += 1;
                improved = true;
            }
        }
        observer.on_pass(pass, moves - moves_before, eval.bottleneck());
        if !improved {
            converged = true;
            break;
        }
    }
    RepartitionOutcome {
        schedule: eval.to_schedule(),
        objective: eval.bottleneck(),
        moves,
        converged,
    }
}

/// Stage costs sorted descending — the potential the search descends.
/// Comparing the whole sorted profile (not just its head) lets mass
/// drain out of *near*-bottleneck stages, escaping the plateaus a pure
/// `max` objective gets stuck on, while still strictly decreasing a
/// well-founded potential every accepted move (termination).
fn profile(costs: &[f64]) -> Vec<f64> {
    let mut p = costs.to_vec();
    p.sort_by(|a, b| b.total_cmp(a));
    p
}

/// Strict lexicographic `total_cmp` order on equal-length profiles.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::ParamBalanced;
    use crate::Scheduler;
    use respect_graph::models;

    #[test]
    fn never_worsens_and_stays_valid_on_the_model_zoo() {
        let model = CostModel::coral();
        for (name, dag) in models::table1() {
            for k in [2usize, 4, 6] {
                let from = ParamBalanced::new().schedule(&dag, k).unwrap();
                let before = model.objective(&dag, &from);
                let out = refine_with(&dag, model, &from, 16, &mut |_, _, _| {});
                assert!(out.schedule.is_valid(&dag), "{name}@{k}");
                assert_eq!(out.schedule.num_stages(), k, "{name}@{k}");
                assert!(
                    out.objective <= before,
                    "{name}@{k}: {} worse than {before}",
                    out.objective
                );
                assert_eq!(
                    out.objective.to_bits(),
                    model.objective(&dag, &out.schedule).to_bits(),
                    "{name}@{k}: reported objective drifted from the schedule"
                );
            }
        }
    }

    #[test]
    fn converged_refinement_is_a_fixpoint() {
        let model = CostModel::coral();
        let dag = models::resnet101();
        let from = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let once = refine_with(&dag, model, &from, 64, &mut |_, _, _| {});
        assert!(once.converged, "64 passes converge on resnet101@4");
        let twice = refine_with(&dag, model, &once.schedule, 64, &mut |_, _, _| {});
        assert_eq!(twice.schedule, once.schedule);
        assert_eq!(twice.moves, 0);
        assert!(twice.converged);
    }

    #[test]
    fn recovers_most_of_the_balanced_to_refined_gap() {
        // The parameter-balancing heuristic ignores MACs and
        // communication; local moves must close a real part of its gap.
        // Constants match `DeviceSpec::coral().cost_model()` (sustained
        // MAC rate), the model the serving runtime re-partitions under.
        let model = CostModel {
            sec_per_mac: 1.0 / 2.0e11,
            sec_per_byte: 1.0 / 320.0e6,
            cache_bytes: 8 << 20,
        };
        let dag = models::resnet101v2();
        let from = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let before = model.objective(&dag, &from);
        let out = refine_with(&dag, model, &from, 64, &mut |_, _, _| {});
        assert!(
            out.objective < 0.85 * before,
            "refine {before} -> {} gained under 15%",
            out.objective
        );
        assert!(out.moves > 0);
    }

    #[test]
    fn observer_sees_every_pass_and_changes_nothing() {
        let model = CostModel::coral();
        let dag = models::resnet101v2();
        let from = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let silent = refine_with(&dag, model, &from, 16, &mut |_, _, _| {});
        let mut passes: Vec<(usize, usize, f64)> = Vec::new();
        let mut log = |pass: usize, moves: usize, obj: f64| passes.push((pass, moves, obj));
        let observed = refine_with(&dag, model, &from, 16, &mut log);
        assert_eq!(observed, silent, "observation never changes the search");
        assert!(!passes.is_empty());
        assert_eq!(passes.iter().map(|p| p.1).sum::<usize>(), observed.moves);
        assert_eq!(
            passes.last().unwrap().2.to_bits(),
            observed.objective.to_bits()
        );
        for (i, p) in passes.iter().enumerate() {
            assert_eq!(p.0, i, "passes are reported in order");
        }
    }

    #[test]
    fn zero_passes_returns_the_input() {
        let model = CostModel::coral();
        let dag = models::xception();
        let from = ParamBalanced::new().schedule(&dag, 5).unwrap();
        let out = refine_with(&dag, model, &from, 0, &mut |_, _, _| {});
        assert_eq!(out.schedule, from);
        assert_eq!(out.moves, 0);
        assert!(!out.converged);
    }
}
