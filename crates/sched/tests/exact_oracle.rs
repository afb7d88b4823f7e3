//! Bitwise oracle for the exact scheduler's search kernel.
//!
//! [`ExactScheduler::solve`] relabels nodes by topological position,
//! keeps the ready set as a bitset, records frontier parents as indices
//! and costs the last stage's whole residual in closed form. The reference
//! below is the search it replaced: node-id ready lists, `NodeSet` unions,
//! `parent_of` maps, and a last stage that enumerates every residual ideal.
//! Both enumerate each ideal extension once, adding its nodes in
//! increasing topological position, sort frontier ties by `NodeSet` order
//! and prune on the same bounds, so they must return the same schedule
//! and objective bits. Within one boundary they visit extensions in
//! different orders, which could only matter for a segment whose cost
//! exactly ties a bound that a stage before the last has just lowered.
//! The kernel counts one state per boundary it expands on the last stage,
//! the reference every segment it costs there, so the kernel's
//! `states_explored` must equal the reference's states on the other
//! stages plus its last-stage boundaries.
//!
//! Most inputs have node ids out of topological order (the synthetic
//! sampler's and seven of the ten Table I models'), which exercises the
//! relabel.

use std::collections::HashMap;
use std::time::Instant;

use respect_graph::{models, Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_sched::anneal::Annealing;
use respect_sched::cost::{CostModel, SegmentAccumulator};
use respect_sched::exact::{ExactScheduler, ExactSolution, NodeSet};
use respect_sched::{order, pack, Schedule, Scheduler};

/// What the reference search returns, with its state count split at the
/// last stage.
struct Reference {
    solution: ExactSolution,
    /// Segment states costed on stages `1..K`.
    states_before_last: u64,
    /// Boundaries expanded on stage `K`.
    last_boundaries: u64,
}

fn full(n: usize) -> NodeSet {
    let mut s = NodeSet::empty(n);
    for i in 0..n {
        s.insert(NodeId(i as u32));
    }
    s
}

fn union(a: &NodeSet, b: &NodeSet) -> NodeSet {
    let mut s = a.clone();
    for v in b.iter() {
        s.insert(v);
    }
    s
}

/// The reference exact search.
fn reference(solver: &ExactScheduler, dag: &Dag, num_stages: usize) -> Reference {
    assert!(num_stages > 0);
    let model = *solver.model();
    let n = dag.len();
    let topo = order::default_order(dag);
    let pos = order::positions(dag, &topo);
    let start_time = Instant::now();

    // ---- incumbent -----------------------------------------------------
    let (mut best, mut ub) = pack::pack_default(dag, num_stages, &model);
    if solver.cold_start {
        ub = f64::INFINITY;
    } else if solver.warmstart_moves > 0 && num_stages > 1 {
        let annealed = Annealing::new(model)
            .with_iterations(solver.warmstart_moves)
            .schedule(dag, num_stages)
            .unwrap();
        let obj = model.objective(dag, &annealed);
        if obj < ub {
            ub = obj;
            best = annealed;
        }
    }

    let total_params = dag.total_param_bytes();
    let total_macs = dag.total_macs();
    let full = full(n);

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
    let mut states_before_last = None;
    let mut last_boundaries = 0;
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
        if k == num_stages {
            states_before_last = Some(states);
        }
        let mut next: HashMap<NodeSet, Entry> = HashMap::new();
        let mut boundaries: Vec<(&NodeSet, &Entry)> = frontier.iter().collect();
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
            if let Some(budget) = solver.time_budget {
                if start_time.elapsed() > budget {
                    timed_out = true;
                    break 'stages;
                }
            }
            if k == num_stages {
                last_boundaries += 1;
            }
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
                model: &model,
                pos: &pos,
                ready,
                indeg_rem,
                seg: NodeSet::empty(n),
            };

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
                        continue;
                    }
                    let nb = base_bottleneck.max(cost);

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

                    let d2 = union(boundary, &dfs.seg);
                    if d2 == *full {
                        if nb < *ub {
                            *ub = nb;
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
                            *best = Schedule::new(stage_of, num_stages).expect("stages in range");
                        }
                    } else if k < num_stages {
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

    Reference {
        solution: ExactSolution {
            objective: model.objective(dag, &best),
            schedule: best,
            proven_optimal: !timed_out,
            states_explored: states,
        },
        states_before_last: states_before_last.unwrap_or(states),
        last_boundaries,
    }
}

/// Solves with both searches and asserts they agree bitwise.
fn assert_agree(solver: &ExactScheduler, dag: &Dag, num_stages: usize, label: &str) {
    let kernel = solver.solve(dag, num_stages).unwrap();
    let oracle = reference(solver, dag, num_stages);
    let want = &oracle.solution;
    assert_eq!(
        kernel.schedule.stage_of(),
        want.schedule.stage_of(),
        "{label}: schedules differ"
    );
    assert_eq!(
        kernel.objective.to_bits(),
        want.objective.to_bits(),
        "{label}: objective {} vs {}",
        kernel.objective,
        want.objective
    );
    assert_eq!(kernel.proven_optimal, want.proven_optimal, "{label}");
    assert_eq!(
        kernel.states_explored,
        oracle.states_before_last + oracle.last_boundaries,
        "{label}: states"
    );
}

fn out_of_topological_order(dag: &Dag) -> bool {
    order::default_order(dag)
        .iter()
        .enumerate()
        .any(|(p, v)| v.index() != p)
}

#[test]
fn teacher_distribution_graphs_match_the_reference() {
    let solver = ExactScheduler::new(CostModel::coral()).with_warmstart_moves(200);
    let mut relabelled = 0;
    for i in 0..40u64 {
        let cfg = SyntheticConfig {
            num_nodes: 30,
            max_in_degree: 2 + (i % 5) as usize,
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, 0x7eac + i).sample();
        relabelled += usize::from(out_of_topological_order(&dag));
        assert_agree(&solver, &dag, 4, &format!("teacher graph {i}"));
    }
    assert!(relabelled > 0, "no input exercised the relabel");
}

#[test]
fn tie_heavy_graphs_match_the_reference_at_every_stage_count() {
    // tiny bytes and a 4-byte cache make many segments cost the same
    let model = CostModel {
        sec_per_mac: 1e-3,
        sec_per_byte: 1.0,
        cache_bytes: 4,
    };
    for nodes in [8, 12, 17, 23, 30] {
        for seed in 0..2u64 {
            let cfg = SyntheticConfig {
                num_nodes: nodes,
                max_in_degree: 2 + (seed as usize + nodes) % 3,
                param_bytes_range: (1, 64),
                output_bytes_range: (1, 16),
                ..SyntheticConfig::default()
            };
            let dag = SyntheticSampler::new(cfg, 31 * nodes as u64 + seed).sample();
            for stages in 1..=6 {
                for moves in [0, 200] {
                    let solver = ExactScheduler::new(model).with_warmstart_moves(moves);
                    let label = format!("{nodes} nodes seed {seed} k={stages} moves={moves}");
                    assert_agree(&solver, &dag, stages, &label);
                }
            }
        }
    }
}

#[test]
fn cold_starts_match_the_reference() {
    for (nodes, model) in [(8, CostModel::coral()), (10, CostModel::coral_uncached())] {
        for seed in 0..4u64 {
            let cfg = SyntheticConfig {
                num_nodes: nodes,
                max_in_degree: 3,
                ..SyntheticConfig::default()
            };
            let dag = SyntheticSampler::new(cfg, 500 + seed).sample();
            for stages in 1..=4 {
                let solver = ExactScheduler::cold(model);
                assert_agree(
                    &solver,
                    &dag,
                    stages,
                    &format!("cold {nodes}/{seed} k={stages}"),
                );
            }
        }
    }
}

#[test]
fn table1_models_match_the_reference() {
    let solver = ExactScheduler::new(CostModel::coral());
    for (name, dag) in models::table1() {
        for stages in [4, 5, 6] {
            assert_agree(&solver, &dag, stages, &format!("{name}@{stages}"));
        }
    }
}
