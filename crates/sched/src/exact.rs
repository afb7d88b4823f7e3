//! Exact pipeline scheduling — the stand-in for the paper's CPLEX ILP.
//!
//! Any valid pipeline schedule is a chain of order ideals (down-closed
//! node sets) `∅ = D_0 ⊆ D_1 ⊆ … ⊆ D_K = V`: stage `k` executes
//! `D_{k+1} \ D_k`, and `stage(u) ≤ stage(v)` holds for every edge exactly
//! when each `D` is down-closed. The solver runs a stage-by-stage dynamic
//! program over boundary ideals with branch-and-bound pruning:
//!
//! * nodes are relabelled by position in a fixed topological order
//!   ([`order::default_order`]); a segment grows only by a ready node
//!   above the last position it took, so every ideal extension is
//!   enumerated exactly once. The ready set is a bitset over positions
//!   and the ideal is flipped in place, so growing a segment allocates
//!   nothing;
//! * the [`CostModel`] segment cost is monotone nondecreasing under
//!   growth, so a segment whose cost reaches the incumbent bound is pruned
//!   with all its extensions. Cut-in bytes depend only on the boundary, so
//!   costing an extension takes three additions;
//! * a lower bound on the rest prunes boundaries that cannot beat the
//!   incumbent: the dearest of the rest's `m` stages costs at least a
//!   stage holding a `1/m` share of the rest's MACs, its parameters and
//!   the bytes the boundary sends into it (a running sum of a per-node
//!   constant, counted only under a cost model whose coefficients are
//!   finite and `≥ 0`);
//! * a stage's frontier keeps each boundary's least bottleneck and the
//!   index of its parent in the previous frontier, which is sorted by
//!   bottleneck with ties in [`NodeSet`] order;
//! * on the last stage only the whole residual completes a schedule, so
//!   no frontier is built after the second-to-last stage: its sweep costs
//!   the residual of every boundary it offers on the spot (with the same
//!   running sum of the bytes entering it) and keeps the
//!   least completion by objective, bottleneck and [`NodeSet`] order, the
//!   first offer winning exact ties. After the sweep it adopts that
//!   completion if it beats the incumbent: the same completion a pass
//!   over a sorted last frontier would adopt;
//! * the incumbent starts at the packing-DP solution (optionally tightened
//!   by simulated annealing from that packing), so the search only
//!   explores strictly improving regions.
//!
//! The result is provably optimal unless the optional time budget expires,
//! in which case the incumbent is returned with
//! [`ExactSolution::proven_optimal`] `= false` (mirroring an ILP solver's
//! time-limited anytime behaviour). The prunes assume stage costs that
//! never fall as a segment grows, so a cost model with a negative or
//! non-finite coefficient is searched all the same but never reported
//! optimal. Tests certify optimality against
//! exhaustive enumeration on small graphs; `tests/exact_oracle.rs` pins
//! the search bitwise to a reference implementation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use respect_graph::{Dag, NodeId};

use crate::anneal::Annealing;
use crate::cost::{CostModel, SegmentAccumulator};
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;
use crate::{order, pack};

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

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let ids = (0..self.words.len() * 64).map(|i| NodeId(i as u32));
        ids.filter(|&v| self.contains(v))
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its bottleneck objective under the solver's cost model.
    pub objective: f64,
    /// `true` when the search completed under a cost model whose
    /// coefficients are both finite and `≥ 0` (the schedule is provably
    /// optimal); `false` when the time budget expired first, or when a
    /// negative, infinite or NaN coefficient voids the prunes, which
    /// assume that a stage's cost never falls as its segment grows.
    pub proven_optimal: bool,
    /// Search states explored, a proxy for ILP branch count: every
    /// segment costed on the stages before the last. The last stage is
    /// costed with the boundaries the second-to-last one offers and adds
    /// nothing, except in a one-stage solve, which counts its one stage
    /// as one state.
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
    /// exact solver without heuristic priming. The paper's Fig. 3 times
    /// [`crate::ilp::IlpScheduler`] as its CPLEX baseline, not this.
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
                .anneal_from(dag, num_stages, &best);
            let obj = self.model.objective(dag, &annealed);
            if obj < ub {
                ub = obj;
                best = annealed;
            }
        }

        let mut search = Search::new(dag, &self.model, num_stages, best, ub);
        let out_of_time = || {
            self.time_budget
                .is_some_and(|budget| start_time.elapsed() > budget)
        };
        let timed_out = if num_stages == 1 {
            // the one stage holds every node, as the packing placed them;
            // it costs one state unless the bound prunes it (a NaN bound
            // prunes nothing) or the budget has run out
            if 0.0 >= search.ub {
                false
            } else if out_of_time() {
                true
            } else {
                search.states = 1;
                false
            }
        } else {
            search.run(out_of_time)
        };

        debug_assert!(search.best.is_valid(dag));
        Ok(ExactSolution {
            objective: self.model.objective(dag, &search.best),
            proven_optimal: !timed_out && search.monotone,
            schedule: search.best,
            states_explored: search.states,
        })
    }
}

/// A boundary reached by the search.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Bottleneck of the cheapest stage chain found to the boundary.
    bottleneck: f64,
    covered_params: u64,
    covered_macs: u64,
    /// Index of the boundary it was reached from in the previous layer.
    parent: usize,
}

/// The boundary being expanded: entry `index` of `layers[k - 1]`, which
/// stage `k`'s segment grows from.
struct Frame<'f> {
    layers: &'f [Vec<(NodeSet, Entry)>],
    k: usize,
    index: usize,
}

/// The least completion the folded sweep has offered: its stage `K - 2`
/// grows from boundary `parent` of the last frontier to `ideal`, and
/// stage `K - 1` holds the rest.
struct Candidate {
    objective: f64,
    bottleneck: f64,
    parent: usize,
    ideal: NodeSet,
}

/// One solve's search state. Per-node tables are indexed by topological
/// position; `node` maps a position back to its id.
struct Search<'a> {
    model: &'a CostModel,
    num_stages: usize,
    total_params: u64,
    total_macs: u64,
    node: Vec<NodeId>,
    params: Vec<u64>,
    macs: Vec<u64>,
    output: Vec<u64>,
    /// `output · |succs| − Σ output(preds)`: how placing a node changes
    /// the bytes crossing into the residual, modulo 2^64.
    cut_out: Vec<u64>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Both cost coefficients are finite and `≥ 0`, so a stage's cost
    /// never falls as its segment grows: the prunes hold, and the bytes
    /// entering the rest may join its bound.
    monotone: bool,
    ub: f64,
    best: Schedule,
    states: u64,
    /// Boundaries reached on the current stage.
    next: HashMap<NodeSet, Entry, BuildHasherDefault<WordHasher>>,
    /// The folded sweep's least completion so far.
    last: Candidate,
    /// The boundary plus the segment grown so far, by node id.
    ideal: NodeSet,
    /// Bytes entering each node from the boundary.
    cut_in: Vec<u64>,
    /// Predecessors of each node outside `ideal`.
    unplaced: Vec<u32>,
    /// Positions outside `ideal` whose predecessors are all inside it.
    ready: Vec<u64>,
}

impl<'a> Search<'a> {
    fn new(dag: &Dag, model: &'a CostModel, num_stages: usize, best: Schedule, ub: f64) -> Self {
        let node = order::default_order(dag);
        let pos = order::positions(dag, &node);
        let positions = |ids: &[NodeId]| ids.iter().map(|v| pos[v.index()]).collect();
        let output = |v: &NodeId| dag.node(*v).output_bytes;
        let cut_out = node.iter().map(|&v| {
            let fan_out = output(&v).wrapping_mul(dag.succs(v).len() as u64);
            let fan_in = dag.preds(v).iter().map(output).fold(0, u64::wrapping_add);
            fan_out.wrapping_sub(fan_in)
        });
        Search {
            model,
            num_stages,
            total_params: dag.total_param_bytes(),
            total_macs: dag.total_macs(),
            params: node.iter().map(|&v| dag.node(v).param_bytes).collect(),
            macs: node.iter().map(|&v| dag.node(v).macs).collect(),
            output: node.iter().map(output).collect(),
            cut_out: cut_out.collect(),
            preds: node.iter().map(|&v| positions(dag.preds(v))).collect(),
            succs: node.iter().map(|&v| positions(dag.succs(v))).collect(),
            node,
            monotone: [model.sec_per_mac, model.sec_per_byte]
                .iter()
                .all(|c| c.is_finite() && *c >= 0.0),
            ub,
            best,
            states: 0,
            next: HashMap::default(),
            last: Candidate {
                objective: f64::INFINITY,
                bottleneck: f64::INFINITY,
                parent: 0,
                ideal: NodeSet::empty(dag.len()),
            },
            ideal: NodeSet::empty(dag.len()),
            cut_in: vec![0; dag.len()],
            unplaced: vec![0; dag.len()],
            ready: vec![0; dag.len().div_ceil(64)],
        }
    }

    /// Sweeps stages `1..K - 1`, the last of them folded with stage `K`,
    /// then adopts the least completion found. Returns `true`, adopting
    /// nothing, when `out_of_time` cuts a sweep short.
    fn run(&mut self, out_of_time: impl Fn() -> bool) -> bool {
        let folded = self.num_stages - 1;
        // layers[k]: the boundaries after stage k, in expansion order
        let mut layers = vec![vec![(NodeSet::empty(self.node.len()), Entry::default())]];
        for k in 1..=folded {
            for index in 0..layers[k - 1].len() {
                if layers[k - 1][index].1.bottleneck >= self.ub {
                    continue;
                }
                if out_of_time() {
                    return true;
                }
                self.expand(&Frame {
                    layers: &layers,
                    k,
                    index,
                });
            }
            if k == folded || self.next.is_empty() {
                break;
            }
            let mut frontier: Vec<(NodeSet, Entry)> = self.next.drain().collect();
            // expand promising boundaries first so ub tightens early; ties
            // go by set order, not by the map's per-process hash order
            frontier.sort_by(|a, b| {
                a.1.bottleneck
                    .partial_cmp(&b.1.bottleneck)
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            layers.push(frontier);
        }
        if self.last.objective < self.ub {
            let last = &self.last;
            self.best = self.schedule(&layers, folded, last.parent, &last.ideal);
        }
        false
    }

    /// Tabulates the boundary's residual, then grows stage `k`'s segment
    /// over it.
    fn expand(&mut self, at: &Frame<'_>) {
        let boundary = &at.layers[at.k - 1][at.index].0;
        self.ideal.words.copy_from_slice(&boundary.words);
        self.ready.fill(0);
        let (mut residual, mut residual_cut_in) = (0, 0);
        for p in 0..self.node.len() {
            if boundary.contains(self.node[p]) {
                continue;
            }
            let (mut cut_in, mut unplaced) = (0, 0);
            for &q in &self.preds[p] {
                if boundary.contains(self.node[q]) {
                    cut_in += self.output[q];
                } else {
                    unplaced += 1;
                }
            }
            self.cut_in[p] = cut_in;
            self.unplaced[p] = unplaced;
            if unplaced == 0 {
                flip(&mut self.ready, p);
            }
            residual += 1;
            residual_cut_in += cut_in;
        }
        let seg = SegmentAccumulator::new();
        if at.k + 1 == self.num_stages {
            self.extend::<true>(at, seg, residual_cut_in, 0, residual);
        } else {
            self.extend::<false>(at, seg, residual_cut_in, 0, residual);
        }
    }

    /// Grows `seg` by each ready position at or above `from`, then
    /// recursively beyond it; `left` counts the residual nodes outside
    /// the segment and `rest_cut_in` the bytes entering them.
    fn extend<const FOLD: bool>(
        &mut self,
        at: &Frame<'_>,
        seg: SegmentAccumulator,
        rest_cut_in: u64,
        mut from: usize,
        left: usize,
    ) {
        let base = at.layers[at.k - 1][at.index].1.bottleneck;
        while let Some(p) = next_bit(&self.ready, from) {
            from = p + 1;
            let grown = SegmentAccumulator {
                param_bytes: seg.param_bytes + self.params[p],
                macs: seg.macs + self.macs[p],
                cut_in_bytes: seg.cut_in_bytes + self.cut_in[p],
            };
            let cost = grown.cost(self.model);
            self.states += 1;
            if cost >= self.ub {
                continue; // monotone: no extension can recover
            }
            let bottleneck = base.max(cost);
            self.place(p);
            if left == 1 {
                if bottleneck < self.ub {
                    self.complete(at, bottleneck);
                }
            } else {
                let rest_cut_in = rest_cut_in.wrapping_add(self.cut_out[p]);
                self.offer::<FOLD>(at, grown, bottleneck, rest_cut_in);
                self.extend::<FOLD>(at, grown, rest_cut_in, p + 1, left - 1);
            }
            self.unplace(p);
        }
    }

    /// Records `ideal` as a boundary after stage `k`, unless the bound on
    /// the rest or a cheaper path to it rules it out. The rest fills `m`
    /// stages, the dearest of which costs at least their mean, and the
    /// mean costs at least a stage with a `1/m` share of the rest's MACs,
    /// parameters and, under a monotone model, the bytes `ideal` sends
    /// into it (the cost is linear but for the convex spill). On the
    /// folded stage the rest is the last stage: it is costed now, and the
    /// completion is kept if it is the least so far.
    fn offer<const FOLD: bool>(
        &mut self,
        at: &Frame<'_>,
        segment: SegmentAccumulator,
        bottleneck: f64,
        rest_cut_in: u64,
    ) {
        let entry = &at.layers[at.k - 1][at.index].1;
        let covered_params = entry.covered_params + segment.param_bytes;
        let covered_macs = entry.covered_macs + segment.macs;
        let rest_params = self.total_params - covered_params;
        let rest_macs = self.total_macs - covered_macs;
        let m = if FOLD {
            1
        } else {
            (self.num_stages - at.k) as u64
        };
        let cut = if FOLD || !self.monotone {
            0
        } else {
            rest_cut_in
        };
        let lb_rest = self
            .model
            .stage_cost(rest_params / m, rest_macs / m, cut / m);
        let promising = bottleneck.max(lb_rest) < self.ub;
        if !promising {
            return;
        }
        if FOLD {
            // test the cost itself: `max` would drop a NaN cost, and a
            // NaN cost must never complete
            let rest = self.model.stage_cost(rest_params, rest_macs, rest_cut_in);
            let objective = bottleneck.max(rest);
            let last = &mut self.last;
            if rest < self.ub
                && (objective, bottleneck, &self.ideal)
                    < (last.objective, last.bottleneck, &last.ideal)
            {
                last.objective = objective;
                last.bottleneck = bottleneck;
                last.parent = at.index;
                last.ideal.words.copy_from_slice(&self.ideal.words);
            }
            return;
        }
        let reached = Entry {
            bottleneck,
            covered_params,
            covered_macs,
            parent: at.index,
        };
        match self.next.get_mut(&self.ideal) {
            Some(e) if bottleneck < e.bottleneck => *e = reached,
            Some(_) => {}
            None => {
                self.next.insert(self.ideal.clone(), reached);
            }
        }
    }

    /// Adopts as incumbent the schedule whose stage `k - 1` is the
    /// boundary's whole residual.
    fn complete(&mut self, at: &Frame<'_>, objective: f64) {
        self.ub = objective;
        self.best = self.schedule(at.layers, at.k, at.index, &self.ideal);
    }

    /// The schedule whose stage `k - 1` grows from boundary `index` of
    /// `layers[k - 1]` to `ideal`, with earlier stages read along parents
    /// and every node outside `ideal` on stage `k`.
    fn schedule(
        &self,
        layers: &[Vec<(NodeSet, Entry)>],
        k: usize,
        index: usize,
        ideal: &NodeSet,
    ) -> Schedule {
        let ids = (0..self.node.len()).map(|i| NodeId(i as u32));
        let mut stage_of: Vec<usize> = ids
            .map(|v| if ideal.contains(v) { k - 1 } else { k })
            .collect();
        let mut index = index;
        for j in (1..k).rev() {
            let (boundary, entry) = &layers[j][index];
            for v in boundary.iter() {
                stage_of[v.index()] = j - 1;
            }
            index = entry.parent;
        }
        Schedule::new(stage_of, self.num_stages).expect("stages in range")
    }

    /// Adds ready position `p` to the segment.
    fn place(&mut self, p: usize) {
        flip(&mut self.ready, p);
        self.ideal.insert(self.node[p]);
        for &s in &self.succs[p] {
            self.unplaced[s] -= 1;
            if self.unplaced[s] == 0 {
                flip(&mut self.ready, s);
            }
        }
    }

    /// Undoes [`Self::place`].
    fn unplace(&mut self, p: usize) {
        for &s in &self.succs[p] {
            if self.unplaced[s] == 0 {
                flip(&mut self.ready, s);
            }
            self.unplaced[s] += 1;
        }
        self.ideal.remove(self.node[p]);
        flip(&mut self.ready, p);
    }
}

/// Multiply-rotate hash over whole words, far cheaper than the default
/// SipHash for a frontier key. The frontier is drained and sorted before
/// use, so the hasher cannot change a result. It gives up SipHash's
/// resistance to crafted collisions: a graph built to collide can turn a
/// lookup into a scan of its stage's frontier, which is already
/// exponential in the graph's width.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // the product's entropy sits in its high bits; the table indexes
        // by the low ones
        self.0.rotate_left(26)
    }
}

/// Toggles bit `i`.
#[inline]
fn flip(words: &mut [u64], i: usize) {
    words[i / 64] ^= 1 << (i % 64);
}

/// The lowest set bit at or above `from`.
#[inline]
fn next_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut i = from / 64;
    let mut w = *words.get(i)? & (!0 << (from % 64));
    while w == 0 {
        i += 1;
        w = *words.get(i)?;
    }
    Some(i * 64 + w.trailing_zeros() as usize)
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
        assert_eq!(s.iter().count(), 0);
        s.insert(NodeId(0));
        s.insert(NodeId(64));
        s.insert(NodeId(129));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(63)));
        assert_eq!(s.iter().count(), 3);
        let ids: Vec<_> = s.iter().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(64), NodeId(129)]);
        s.remove(NodeId(64));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn ready_bits_scan_across_words() {
        let mut ready = vec![0u64; 3];
        for i in [5, 64, 130] {
            flip(&mut ready, i);
        }
        assert_eq!(next_bit(&ready, 0), Some(5));
        assert_eq!(next_bit(&ready, 6), Some(64));
        assert_eq!(next_bit(&ready, 65), Some(130));
        assert_eq!(next_bit(&ready, 131), None);
        assert_eq!(next_bit(&ready, 192), None);
        flip(&mut ready, 64);
        assert_eq!(next_bit(&ready, 6), Some(130));
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
    fn negative_coefficients_are_never_reported_optimal() {
        // a negated byte cost makes a stage cheaper as its segment grows,
        // which voids the prunes: from a packing-only warm start the
        // search misses the optimum that exhaustive enumeration finds
        let coral = CostModel::coral();
        let model = CostModel {
            sec_per_byte: -coral.sec_per_byte,
            ..coral
        };
        let cfg = SyntheticConfig {
            num_nodes: 12,
            max_in_degree: 6,
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, 1004).sample();
        let sol = ExactScheduler::new(model)
            .with_warmstart_moves(0)
            .solve(&dag, 2)
            .unwrap();
        let brute_obj = brute::optimal_objective(&dag, 2, &model);
        assert!(
            sol.objective > brute_obj,
            "exact {} vs brute {brute_obj}",
            sol.objective
        );
        assert!(!sol.proven_optimal);
        // NaN and infinite coefficients void them too; Coral's own
        // coefficients do not
        for bad in [f64::NAN, f64::INFINITY] {
            let model = CostModel {
                sec_per_mac: bad,
                ..coral
            };
            assert!(
                !ExactScheduler::new(model)
                    .solve(&dag, 2)
                    .unwrap()
                    .proven_optimal
            );
        }
        assert!(
            ExactScheduler::new(coral)
                .solve(&dag, 2)
                .unwrap()
                .proven_optimal
        );
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
        assert_eq!(sol.states_explored, 1);
        // an expired budget stops the one stage before it is costed
        let out_of_time = ExactScheduler::new(model)
            .with_time_budget(Duration::from_nanos(1))
            .solve(&dag, 1)
            .unwrap();
        assert_eq!(out_of_time.schedule, sol.schedule);
        assert!(!out_of_time.proven_optimal);
        assert_eq!(out_of_time.states_explored, 0);
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
        // this graph has several optimal schedules at k = 4; the frontier
        // map's iteration order is no part of the result, so only the set
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
