//! The paper's `ρ`: mapping a node sequence onto pipeline stages.
//!
//! Equation (2) of the paper writes `S' = ρ(π(i), s_k)`: a deterministic
//! procedure that turns the sequence emitted by the RL agent (or by the
//! exact method's `γ`) into a stage assignment for the specific Edge TPU
//! system. We realize `ρ` as the *optimal* contiguous packing of the
//! fixed sequence into `num_stages` segments under the
//! [`CostModel`] bottleneck objective, by dynamic programming over
//! `f[k][i]`, the least bottleneck of `order[..i]` on `k` stages. For a
//! fixed sequence this is exact; the hard combinatorial choice (which
//! sequence) is what the exact solver searches and the RL agent predicts.
//!
//! # Cost
//!
//! One [`SegmentAccumulator`] sweep per segment start `j` grows the
//! segment `order[j..i]` and updates `f[k][i]` for every stage count `k`
//! at once, so each segment is costed once rather than once per stage
//! count: `O(|V| · (|V| + |E|) + k · |V|²)` in the worst case. Sweeps are
//! cut by a bound `U` (Pınar & Aykanat's bounded chains-on-chains
//! partitioning, JPDC 2004):
//!
//! * `U` is the objective of a greedy fill of the same order: segments
//!   grow while they cost at most a threshold, and the threshold is
//!   bisected a fixed number of times. Any fill that fits in `num_stages`
//!   segments is a packing of this order, so `U ≥ f[K][n]`. Cut-in bytes
//!   depend on where a segment starts, so the fill is not monotone in the
//!   threshold and `U` need not be tight; only speed depends on it.
//! * With both coefficients finite and nonnegative, a segment's cost
//!   never falls as it grows. A sweep stops at the first cost above `U`,
//!   and a start is swept only for the stage counts whose `f[k − 1][j]`
//!   is at most `U`. A skipped candidate exceeds `U`, so it can set only
//!   entries above `U`; every entry on the backtracked path is at most
//!   `f[K][n] ≤ U`, so its value and its choice, the first start to reach
//!   the minimum, are those of the unpruned program. The cut is strict:
//!   a candidate equal to `U` may be the optimum.
//! * Starts still reach each `f[k][i]` in ascending `j`, and the empty
//!   segment `f[k][j] ← f[k − 1][j]` is applied at the top of start `j`,
//!   so ties resolve as in the unpruned program.
//!
//! A model with a NaN, infinite or negative coefficient breaks that
//! monotonicity, so it packs with `U = +∞`: no pruning, the unpruned
//! program's result. An infinite coefficient can leave every packing
//! with an infinite bottleneck; `pack` then returns every node on stage
//! 0 with objective `+∞`. `tests/pack_oracle.rs` keeps the unpruned
//! program as the bitwise reference.

use respect_graph::{Dag, NodeId};

use crate::cost::{CostModel, SegmentAccumulator};
use crate::order;
use crate::schedule::Schedule;

/// Threshold halvings behind the pruning bound. Each costs a greedy fill
/// of the order; more of them tighten the bound by less than they cost
/// on 30-node training graphs.
const HALVINGS: usize = 12;

/// Optimally packs `order` into `num_stages` contiguous segments,
/// minimizing the bottleneck stage cost. Returns the schedule and its
/// objective value.
///
/// When no packing has a finite bottleneck (possible only under a model
/// with an infinite coefficient), returns every node on stage 0 with
/// objective `+∞`.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the graph's nodes or
/// `num_stages == 0`.
pub fn pack(dag: &Dag, order: &[NodeId], num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    assert!(num_stages > 0, "at least one stage");
    let n = order.len();
    let pos = order::positions(dag, order);
    let k_max = num_stages;
    let bound = feasible_bound(dag, order, &pos, k_max, model);

    const INF: f64 = f64::INFINITY;
    // f[i * w + k]: min bottleneck scheduling order[0..i] into k stages;
    // choice[i * w + k]: where stage k's segment starts on that packing
    let w = k_max + 1;
    let mut f = vec![INF; (n + 1) * w];
    let mut choice = vec![usize::MAX; (n + 1) * w];
    f[0] = 0.0;
    for j in 0..=n {
        let (done, later) = f.split_at_mut((j + 1) * w);
        let here = &mut done[j * w..];
        // empty segment: stage k holds nothing
        for k in 1..=k_max {
            if here[k - 1] < here[k] {
                here[k] = here[k - 1];
                choice[j * w + k] = j;
            }
        }
        // `here` no longer rises with k, so the stage counts worth a
        // segment from j are a suffix `lo..=k_max`
        let Some(lo) = (1..=k_max).find(|&k| here[k - 1].is_finite() && here[k - 1] <= bound)
        else {
            continue;
        };
        let bases = &here[lo - 1..k_max];
        let mut acc = SegmentAccumulator::new();
        for (i, row) in (j + 1..=n).zip(later.chunks_exact_mut(w)) {
            acc.push(dag, order[i - 1], |p| pos[p.index()] < j);
            let cost = acc.cost(model);
            if cost > bound {
                break;
            }
            for (k, (entry, &base)) in (lo..).zip(row[lo..].iter_mut().zip(bases)) {
                let cand = base.max(cost);
                if cand < *entry {
                    *entry = cand;
                    choice[i * w + k] = j;
                }
            }
        }
    }

    let objective = f[n * w + k_max];
    if choice[n * w + k_max] == usize::MAX {
        // every cut at the end: all nodes on stage 0
        return (Schedule::from_cuts(order, &vec![n; k_max - 1], k_max), INF);
    }
    // Reconstruct cut positions.
    let mut cuts = vec![0usize; k_max - 1];
    let mut i = n;
    for k in (1..=k_max).rev() {
        let j = choice[i * w + k];
        if k >= 2 {
            cuts[k - 2] = j;
        }
        i = j;
    }
    let schedule = Schedule::from_cuts(order, &cuts, num_stages);
    (schedule, objective)
}

/// A bottleneck some packing of `order` into `num_stages` segments
/// reaches, or `+∞` when the model's segment costs may fall as segments
/// grow. See the [module docs](self).
fn feasible_bound(
    dag: &Dag,
    order: &[NodeId],
    pos: &[usize],
    num_stages: usize,
    model: &CostModel,
) -> f64 {
    let monotone = |c: f64| c.is_finite() && c >= 0.0;
    if !(monotone(model.sec_per_mac) && monotone(model.sec_per_byte)) {
        return f64::INFINITY;
    }
    // the whole order on one stage always fits
    let mut best = model.stage_cost(dag.total_param_bytes(), dag.total_macs(), 0);
    let (mut lo, mut hi) = (0.0, best);
    for _ in 0..HALVINGS {
        let mid = 0.5 * (lo + hi);
        match greedy_fill(dag, order, pos, num_stages, model, mid) {
            Some(objective) => {
                best = best.min(objective);
                hi = objective;
            }
            None => lo = mid,
        }
    }
    best
}

/// Fills segments of `order` front to back, each while its cost stays at
/// most `threshold`. Returns the fill's bottleneck, or `None` when a node
/// alone exceeds `threshold` or the fill needs more than `num_stages`
/// segments.
fn greedy_fill(
    dag: &Dag,
    order: &[NodeId],
    pos: &[usize],
    num_stages: usize,
    model: &CostModel,
    threshold: f64,
) -> Option<f64> {
    let mut bottleneck = 0.0f64;
    let mut segments = 1;
    let mut start = 0;
    let mut acc = SegmentAccumulator::new();
    for (i, &v) in order.iter().enumerate() {
        let mut grown = acc;
        grown.push(dag, v, |p| pos[p.index()] < start);
        if grown.cost(model) <= threshold {
            acc = grown;
            continue;
        }
        bottleneck = bottleneck.max(acc.cost(model));
        segments += 1;
        start = i;
        acc = SegmentAccumulator::new();
        acc.push(dag, v, |p| pos[p.index()] < start);
        if segments > num_stages || acc.cost(model) > threshold {
            return None;
        }
    }
    Some(bottleneck.max(acc.cost(model)))
}

/// Convenience: `pack` on the deterministic default order.
pub fn pack_default(dag: &Dag, num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    let order = order::default_order(dag);
    pack(dag, &order, num_stages, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use respect_graph::{models, DagBuilder, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

    fn chain_with_params(params: &[u64]) -> Dag {
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

    /// Cache 0 so every parameter byte costs; comm negligible.
    fn mem_only_model() -> CostModel {
        CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 1.0,
            cache_bytes: 0,
        }
    }

    #[test]
    fn packs_balanced_chain_optimally() {
        // 1,1,1,1 into 2 stages: bottleneck 2 (2+2 split)
        let dag = chain_with_params(&[1, 1, 1, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 2, &mem_only_model());
        assert!(s.is_valid(&dag));
        // +1 byte of cut traffic for the edge crossing the cut
        assert!((obj - 3.0).abs() < 1e-12, "obj={obj}");
        assert_eq!(s.stage_of(), &[0, 0, 1, 1]);
    }

    #[test]
    fn pack_beats_naive_split_on_skewed_chain() {
        // 10,1,1,1: naive halves give max(11, 2); optimal = 10 + cut
        let dag = chain_with_params(&[10, 1, 1, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 2, &mem_only_model());
        assert_eq!(s.stage_of(), &[0, 1, 1, 1]);
        assert!((obj - 10.0).abs() < 1e-12);
    }

    #[test]
    fn objective_matches_cost_model_recomputation() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 17);
        let model = CostModel::coral();
        for _ in 0..10 {
            let dag = sampler.sample();
            let order = order::default_order(&dag);
            for k in 1..=4 {
                let (s, obj) = pack(&dag, &order, k, &model);
                assert!(s.is_valid(&dag));
                let recomputed = model.objective(&dag, &s);
                assert!(
                    (obj - recomputed).abs() <= 1e-9 * obj.max(1e-30),
                    "k={k}: dp {obj} vs recompute {recomputed}"
                );
            }
        }
    }

    #[test]
    fn pack_is_optimal_for_fixed_order_by_enumeration() {
        // exhaustively check all cut placements on small chains
        let dag = chain_with_params(&[5, 3, 8, 2, 7, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let model = mem_only_model();
        let (_, obj) = pack(&dag, &order, 3, &model);
        let n = order.len();
        let mut best = f64::INFINITY;
        for c1 in 0..=n {
            for c2 in c1..=n {
                let s = Schedule::from_cuts(&order, &[c1, c2], 3);
                best = best.min(model.objective(&dag, &s));
            }
        }
        assert!((obj - best).abs() < 1e-12, "dp {obj} vs brute {best}");
    }

    #[test]
    fn more_stages_never_hurt() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(2), 23);
        let dag = sampler.sample();
        let model = CostModel::coral();
        let order = order::default_order(&dag);
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let (_, obj) = pack(&dag, &order, k, &model);
            assert!(obj <= prev + 1e-12, "k={k}: {obj} > {prev}");
            prev = obj;
        }
    }

    #[test]
    fn single_stage_cost_is_whole_graph() {
        let dag = chain_with_params(&[4, 4]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 1, &mem_only_model());
        assert_eq!(s.num_stages(), 1);
        assert!((obj - 8.0).abs() < 1e-12);
    }

    #[test]
    fn handles_more_stages_than_nodes() {
        let dag = chain_with_params(&[2, 2]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, _) = pack(&dag, &order, 5, &mem_only_model());
        assert!(s.is_valid(&dag));
        assert_eq!(s.num_stages(), 5);
    }

    #[test]
    fn pack_default_works_on_real_models() {
        let dag = models::xception();
        let model = CostModel::coral();
        let (s, obj) = pack_default(&dag, 4, &model);
        assert!(s.is_valid(&dag));
        assert!(obj > 0.0);
        assert!(obj >= model.lower_bound(&dag, 4) - 1e-15);
    }

    #[test]
    fn better_orders_can_beat_default() {
        // randomized orders should never beat pack on *their own* order's
        // optimum being worse than picking the best of many.
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(4), 31);
        let dag = sampler.sample();
        let model = CostModel::coral();
        let (_, base) = pack_default(&dag, 4, &model);
        let mut rng = StdRng::seed_from_u64(7);
        let best_random = (0..50)
            .map(|_| {
                let o = order::random_topo_order(&dag, &mut rng);
                pack(&dag, &o, 4, &model).1
            })
            .fold(f64::INFINITY, f64::min);
        // sanity: the search space matters — orders differ in quality
        assert!(best_random.is_finite() && base.is_finite());
    }
}
