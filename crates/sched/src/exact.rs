//! Exact pipeline scheduling — the stand-in for the paper's CPLEX ILP.
//!
//! Any valid pipeline schedule is a chain of order ideals (down-closed
//! node sets) `∅ = D_0 ⊆ D_1 ⊆ … ⊆ D_K = V`: stage `k` executes
//! `D_{k+1} \ D_k`, and `stage(u) ≤ stage(v)` holds for every edge exactly
//! when each `D` is down-closed. The solver runs a stage-by-stage dynamic
//! program over boundary ideals with branch-and-bound pruning:
//!
//! * segments are grown node-by-node in a canonical order (increasing
//!   position in a fixed topological order), so every ideal extension is
//!   enumerated exactly once;
//! * the [`CostModel`] segment cost is monotone
//!   nondecreasing under growth, so a segment whose cost reaches the
//!   incumbent bound is pruned with all its extensions;
//! * an even-split lower bound on the remaining nodes prunes boundaries
//!   that cannot beat the incumbent;
//! * the incumbent starts at the packing-DP solution (optionally tightened
//!   by simulated annealing), so the search only explores strictly
//!   improving regions.
//!
//! The result is provably optimal unless the optional time budget expires,
//! in which case the incumbent is returned with
//! [`ExactSolution::proven_optimal`] `= false` (mirroring an ILP solver's
//! time-limited anytime behaviour). Tests certify optimality against
//! exhaustive enumeration on small graphs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use respect_graph::{Dag, NodeId};

use crate::anneal::Annealing;
use crate::cost::{CostModel, SegmentAccumulator};
use crate::order;
use crate::pack;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// Dense bitset over node ids, ordered by its words (the exact search
/// breaks bottleneck ties in this order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeSet {
    words: Box<[u64]>,
}

impl NodeSet {
    /// Empty set sized for `n` nodes.
    pub fn empty(n: usize) -> Self {
        NodeSet {
            words: vec![0u64; n.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Full set over `n` nodes.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(NodeId(i as u32));
        }
        s
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    /// Inserts `v`.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.words[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Removes `v`.
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        self.words[v.index() / 64] &= !(1 << (v.index() % 64));
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Union with another set of the same universe.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        NodeSet {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(NodeId((wi * 64) as u32 + b))
                }
            })
        })
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its bottleneck objective under the solver's cost model.
    pub objective: f64,
    /// `true` when the search completed (the schedule is provably
    /// optimal); `false` when the time budget expired first.
    pub proven_optimal: bool,
    /// Segment states explored, a proxy for ILP branch count.
    pub states_explored: u64,
}

/// Exact branch-and-bound scheduler. See the [module docs](self).
#[derive(Debug, Clone)]
#[must_use]
pub struct ExactScheduler {
    model: CostModel,
    /// Optional wall-clock budget; on expiry the incumbent is returned.
    pub time_budget: Option<Duration>,
    /// Simulated-annealing move budget for tightening the initial upper
    /// bound (0 disables the warm start).
    pub warmstart_moves: usize,
    /// Cold start: begin with an infinite incumbent bound, so the search
    /// must discover its own incumbents — the behaviour of a generic
    /// exact solver (e.g. an ILP) without heuristic priming. Runtime
    /// grows sharply with graph size, which is what the paper's Fig. 3
    /// measures for the CPLEX baseline.
    pub cold_start: bool,
}

impl ExactScheduler {
    /// Creates an exact scheduler with no time budget and a small
    /// annealing warm start.
    pub fn new(model: CostModel) -> Self {
        ExactScheduler {
            model,
            time_budget: None,
            warmstart_moves: 1_000,
            cold_start: false,
        }
    }

    /// Disables all heuristic priming (see [`Self::cold_start`]).
    pub fn cold(model: CostModel) -> Self {
        ExactScheduler {
            model,
            time_budget: None,
            warmstart_moves: 0,
            cold_start: true,
        }
    }

    /// Sets a wall-clock budget (anytime behaviour).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Overrides the annealing warm-start move budget.
    pub fn with_warmstart_moves(mut self, moves: usize) -> Self {
        self.warmstart_moves = moves;
        self
    }

    /// The configured wall-clock budget, if any.
    #[must_use]
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }
}

impl Default for ExactScheduler {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl ExactScheduler {
    /// The cost model being optimized.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Runs the exact search.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoStages`] for `num_stages == 0`.
    pub fn solve(&self, dag: &Dag, num_stages: usize) -> Result<ExactSolution, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let n = dag.len();
        let topo = order::default_order(dag);
        let pos = order::positions(dag, &topo);
        let start_time = Instant::now();

        // ---- incumbent -----------------------------------------------------
        let (mut best, mut ub) = pack::pack_default(dag, num_stages, &self.model);
        if self.cold_start {
            // keep `best` only as a validity fallback for budget expiry;
            // the bound starts unprimed, as in a bare exact solver.
            ub = f64::INFINITY;
        } else if self.warmstart_moves > 0 && num_stages > 1 {
            let annealed = Annealing::new(self.model)
                .with_iterations(self.warmstart_moves)
                .schedule(dag, num_stages)?;
            let obj = self.model.objective(dag, &annealed);
            if obj < ub {
                ub = obj;
                best = annealed;
            }
        }

        let total_params = dag.total_param_bytes();
        let total_macs = dag.total_macs();
        let full = NodeSet::full(n);

        struct Entry {
            bottleneck: f64,
            covered_params: u64,
            covered_macs: u64,
        }

        let mut frontier: HashMap<NodeSet, Entry> = HashMap::new();
        frontier.insert(
            NodeSet::empty(n),
            Entry {
                bottleneck: 0.0,
                covered_params: 0,
                covered_macs: 0,
            },
        );
        // parent_of[k]: boundary after stage k -> boundary after stage k-1
        let mut parent_of: Vec<HashMap<NodeSet, NodeSet>> = vec![HashMap::new(); num_stages + 1];

        let mut states: u64 = 0;
        let mut timed_out = false;

        struct Dfs<'a> {
            dag: &'a Dag,
            model: &'a CostModel,
            pos: &'a [usize],
            ready: Vec<NodeId>,
            indeg_rem: Vec<u32>,
            seg: NodeSet,
        }

        'stages: for k in 1..=num_stages {
            let mut next: HashMap<NodeSet, Entry> = HashMap::new();
            let mut boundaries: Vec<(&NodeSet, &Entry)> = frontier.iter().collect();
            // expand promising boundaries first so ub tightens early; ties
            // go by set order, not by the map's per-process hash order
            boundaries.sort_by(|a, b| {
                a.1.bottleneck
                    .partial_cmp(&b.1.bottleneck)
                    .expect("finite")
                    .then_with(|| a.0.cmp(b.0))
            });
            for (boundary, entry) in boundaries {
                if entry.bottleneck >= ub {
                    continue;
                }
                if let Some(budget) = self.time_budget {
                    if start_time.elapsed() > budget {
                        timed_out = true;
                        break 'stages;
                    }
                }
                // ready set of the residual DAG beyond `boundary`
                let mut indeg_rem = vec![0u32; n];
                let mut ready = Vec::new();
                for v in dag.node_ids() {
                    if boundary.contains(v) {
                        continue;
                    }
                    let d = dag
                        .preds(v)
                        .iter()
                        .filter(|&&p| !boundary.contains(p))
                        .count() as u32;
                    indeg_rem[v.index()] = d;
                    if d == 0 {
                        ready.push(v);
                    }
                }
                let mut dfs = Dfs {
                    dag,
                    model: &self.model,
                    pos: &pos,
                    ready,
                    indeg_rem,
                    seg: NodeSet::empty(n),
                };

                // Recursive segment enumeration in canonical (topo-position)
                // order; implemented iteratively-recursively via a closure
                // stack to keep borrows simple.
                #[allow(clippy::too_many_arguments)]
                fn extend(
                    dfs: &mut Dfs<'_>,
                    boundary: &NodeSet,
                    base_bottleneck: f64,
                    covered_params: u64,
                    covered_macs: u64,
                    acc: SegmentAccumulator,
                    last_pos: usize,
                    k: usize,
                    num_stages: usize,
                    total_params: u64,
                    total_macs: u64,
                    full: &NodeSet,
                    ub: &mut f64,
                    best: &mut Schedule,
                    next: &mut HashMap<NodeSet, Entry>,
                    parent_of: &mut [HashMap<NodeSet, NodeSet>],
                    states: &mut u64,
                ) {
                    let candidates: Vec<NodeId> = dfs
                        .ready
                        .iter()
                        .copied()
                        .filter(|&v| last_pos == usize::MAX || dfs.pos[v.index()] > last_pos)
                        .collect();
                    for v in candidates {
                        let mut acc2 = acc;
                        acc2.push(dfs.dag, v, |p| boundary.contains(p));
                        let cost = acc2.cost(dfs.model);
                        *states += 1;
                        if cost >= *ub {
                            continue; // monotone: no extension can recover
                        }
                        let nb = base_bottleneck.max(cost);

                        // apply v
                        let slot = dfs.ready.iter().position(|&r| r == v).expect("ready");
                        dfs.ready.swap_remove(slot);
                        dfs.seg.insert(v);
                        let mut woken = Vec::new();
                        for &s in dfs.dag.succs(v) {
                            dfs.indeg_rem[s.index()] -= 1;
                            if dfs.indeg_rem[s.index()] == 0 {
                                dfs.ready.push(s);
                                woken.push(s);
                            }
                        }

                        let d2 = boundary.union(&dfs.seg);
                        if d2 == *full {
                            if nb < *ub {
                                *ub = nb;
                                // reconstruct: nodes beyond `boundary` are
                                // stage k-1; walk parents for the rest.
                                let mut stage_of = vec![0usize; dfs.dag.len()];
                                for u in dfs.seg.iter() {
                                    stage_of[u.index()] = k - 1;
                                }
                                let mut cur = boundary.clone();
                                for j in (1..k).rev() {
                                    let parent = parent_of[j].get(&cur).expect("chain").clone();
                                    for u in cur.iter() {
                                        if !parent.contains(u) {
                                            stage_of[u.index()] = j - 1;
                                        }
                                    }
                                    cur = parent;
                                }
                                *best =
                                    Schedule::new(stage_of, num_stages).expect("stages in range");
                            }
                        } else if k < num_stages {
                            // lower bound for the remainder
                            let rest_params = total_params - covered_params - acc2.param_bytes;
                            let rest_macs = total_macs - covered_macs - acc2.macs;
                            let m = (num_stages - k) as u64;
                            let spill = (rest_params / m).saturating_sub(dfs.model.cache_bytes);
                            let lb_rest = dfs.model.sec_per_mac * (rest_macs / m) as f64
                                + dfs.model.sec_per_byte * spill as f64;
                            if nb.max(lb_rest) < *ub {
                                let insert = match next.get(&d2) {
                                    Some(e) => nb < e.bottleneck,
                                    None => true,
                                };
                                if insert {
                                    next.insert(
                                        d2.clone(),
                                        Entry {
                                            bottleneck: nb,
                                            covered_params: covered_params + acc2.param_bytes,
                                            covered_macs: covered_macs + acc2.macs,
                                        },
                                    );
                                    parent_of[k].insert(d2, boundary.clone());
                                }
                            }
                        }

                        extend(
                            dfs,
                            boundary,
                            base_bottleneck,
                            covered_params,
                            covered_macs,
                            acc2,
                            dfs.pos[v.index()],
                            k,
                            num_stages,
                            total_params,
                            total_macs,
                            full,
                            ub,
                            best,
                            next,
                            parent_of,
                            states,
                        );

                        // undo v
                        for &s in woken.iter().rev() {
                            let wslot = dfs.ready.iter().position(|&r| r == s).expect("woken");
                            dfs.ready.swap_remove(wslot);
                        }
                        for &s in dfs.dag.succs(v) {
                            dfs.indeg_rem[s.index()] += 1;
                        }
                        dfs.seg.remove(v);
                        dfs.ready.push(v);
                    }
                }

                extend(
                    &mut dfs,
                    boundary,
                    entry.bottleneck,
                    entry.covered_params,
                    entry.covered_macs,
                    SegmentAccumulator::new(),
                    usize::MAX,
                    k,
                    num_stages,
                    total_params,
                    total_macs,
                    &full,
                    &mut ub,
                    &mut best,
                    &mut next,
                    &mut parent_of,
                    &mut states,
                );
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }

        debug_assert!(best.is_valid(dag));
        Ok(ExactSolution {
            objective: self.model.objective(dag, &best),
            schedule: best,
            proven_optimal: !timed_out,
            states_explored: states,
        })
    }
}

impl Scheduler for ExactScheduler {
    fn name(&self) -> &str {
        "exact (ILP)"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        Ok(self.solve(dag, num_stages)?.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use respect_graph::{DagBuilder, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

    fn tiny_model() -> CostModel {
        CostModel {
            sec_per_mac: 1e-3,
            sec_per_byte: 1.0,
            cache_bytes: 4,
        }
    }

    fn small_dag(seed: u64, nodes: usize) -> respect_graph::Dag {
        let cfg = SyntheticConfig {
            num_nodes: nodes,
            max_in_degree: 3,
            param_bytes_range: (1, 64),
            output_bytes_range: (1, 16),
            ..SyntheticConfig::default()
        };
        SyntheticSampler::new(cfg, seed).sample()
    }

    #[test]
    fn nodeset_basic_operations() {
        let mut s = NodeSet::empty(130);
        assert_eq!(s.count(), 0);
        s.insert(NodeId(0));
        s.insert(NodeId(64));
        s.insert(NodeId(129));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(63)));
        assert_eq!(s.count(), 3);
        let ids: Vec<_> = s.iter().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(64), NodeId(129)]);
        s.remove(NodeId(64));
        assert_eq!(s.count(), 2);
        assert_eq!(NodeSet::full(130).count(), 130);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let model = tiny_model();
        let solver = ExactScheduler::new(model).with_warmstart_moves(200);
        for seed in 0..6 {
            let dag = small_dag(seed, 8);
            for k in [2, 3] {
                let sol = solver.solve(&dag, k).unwrap();
                assert!(sol.proven_optimal);
                assert!(sol.schedule.is_valid(&dag));
                let brute_obj = brute::optimal_objective(&dag, k, &model);
                assert!(
                    (sol.objective - brute_obj).abs() <= 1e-9 * brute_obj.max(1e-12),
                    "seed {seed} k={k}: exact {} vs brute {brute_obj}",
                    sol.objective
                );
            }
        }
    }

    #[test]
    fn never_worse_than_packing_dp() {
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model).with_warmstart_moves(0);
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 99);
        for _ in 0..3 {
            let dag = sampler.sample();
            for k in [2, 4] {
                let sol = solver.solve(&dag, k).unwrap();
                let (_, dp) = pack::pack_default(&dag, k, &model);
                assert!(sol.objective <= dp + 1e-12);
            }
        }
    }

    #[test]
    fn single_stage_is_whole_graph() {
        let dag = small_dag(1, 6);
        let model = tiny_model();
        let sol = ExactScheduler::new(model).solve(&dag, 1).unwrap();
        assert!(sol.schedule.stage_of().iter().all(|&s| s == 0));
        assert!(sol.proven_optimal);
    }

    #[test]
    fn finds_obvious_chain_split() {
        // two heavy nodes separated by a light chain: optimal 2-way split
        // puts one heavy node per side.
        let mut b = DagBuilder::new();
        let weights = [100u64, 1, 1, 100];
        let ids: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                b.add_node(
                    OpNode::new(format!("n{i}"), OpKind::Conv2d)
                        .with_params(w)
                        .with_output(1),
                )
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let dag = b.build().unwrap();
        let model = CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 1.0,
            cache_bytes: 0,
        };
        let sol = ExactScheduler::new(model).solve(&dag, 2).unwrap();
        // best split: {n0,n1} | {n2,n3} or {n0,n1,n2} | {n3}: bottleneck 102
        assert!((sol.objective - 102.0).abs() < 1e-9, "{}", sol.objective);
        assert!(sol.proven_optimal);
    }

    #[test]
    fn cold_start_matches_warm_start_optimum() {
        let model = tiny_model();
        for seed in 0..3 {
            let dag = small_dag(seed, 8);
            let warm = ExactScheduler::new(model).solve(&dag, 3).unwrap();
            let cold = ExactScheduler::cold(model).solve(&dag, 3).unwrap();
            assert!(warm.proven_optimal && cold.proven_optimal);
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * warm.objective.max(1e-12),
                "seed {seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            // the cold search does strictly more work
            assert!(cold.states_explored >= warm.states_explored);
        }
    }

    #[test]
    fn time_budget_returns_incumbent() {
        let dag = small_dag(3, 30);
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model)
            .with_time_budget(Duration::from_nanos(1))
            .with_warmstart_moves(0);
        let sol = solver.solve(&dag, 4).unwrap();
        assert!(!sol.proven_optimal);
        assert!(sol.schedule.is_valid(&dag));
        // incumbent equals packing DP
        let (_, dp) = pack::pack_default(&dag, 4, &model);
        assert!(sol.objective <= dp + 1e-12);
    }

    #[test]
    fn zero_stages_is_an_error() {
        let dag = small_dag(4, 5);
        assert!(matches!(
            ExactScheduler::new(tiny_model()).solve(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn paper_scale_synthetic_graphs_solve_quickly() {
        // training teacher must handle 30-node graphs fast
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model).with_warmstart_moves(300);
        for deg in [2, 4, 6] {
            let dag = SyntheticSampler::new(SyntheticConfig::paper(deg), 7).sample();
            let sol = solver.solve(&dag, 4).unwrap();
            assert!(sol.proven_optimal, "deg {deg}");
            assert!(sol.schedule.is_valid(&dag));
        }
    }

    #[test]
    fn tied_optima_resolve_the_same_way_every_solve() {
        // this graph has several optimal schedules at k = 4; each solve
        // builds fresh hash maps with fresh hash keys, so only the set
        // order on ties makes the returned optimum repeat
        let dag = SyntheticSampler::new(SyntheticConfig::paper(2), 1002).sample();
        let solver = ExactScheduler::new(CostModel::coral()).with_warmstart_moves(200);
        let first = solver.solve(&dag, 4).unwrap();
        for _ in 0..8 {
            let again = solver.solve(&dag, 4).unwrap();
            assert_eq!(again.schedule.stage_of(), first.schedule.stage_of());
            assert_eq!(again.objective.to_bits(), first.objective.to_bits());
        }
    }
}
