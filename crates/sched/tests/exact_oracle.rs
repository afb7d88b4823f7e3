//! Bitwise oracle for the exact scheduler's search kernel.
//!
//! [`ExactScheduler::solve`] relabels nodes by topological position,
//! keeps the ready set as a bitset, records frontier parents as indices,
//! and builds no frontier after the second-to-last stage: that stage's
//! sweep costs the last stage of every boundary it offers and keeps the
//! least completion. The reference below is a plainer search: node-id
//! ready lists, `NodeSet` unions, `parent_of` maps, cut-in bytes summed
//! from the graph's edges where the kernel keeps a running sum, and a
//! last stage that passes over the sorted last frontier and costs each
//! boundary's whole residual. Both enumerate each ideal extension once,
//! adding its nodes in increasing topological position and visiting a
//! boundary's extensions in that order, sort frontier ties by `NodeSet`
//! order and prune on the same bounds, so they must return the same
//! schedule and objective bits. That holds under any cost model, also
//! where a NaN, negative or overflowing coefficient makes the bounds
//! non-monotone and the visit order decides which states a just-lowered
//! bound prunes. The kernel counts no state for the last stage, so its
//! `states_explored` must equal the segments the reference costs on the
//! stages before the last; a one-stage solve counts its one boundary.
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

/// What the reference search returns; `solution.states_explored` counts
/// the segments costed on the stages before the last.
struct Reference {
    solution: ExactSolution,
    /// Boundaries whose residual stage `K` costs.
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

/// Bytes that edges carry from inside `ideal` to outside it.
fn cut_in(dag: &Dag, ideal: &NodeSet) -> u64 {
    dag.edges()
        .filter(|&(u, v)| ideal.contains(u) && !ideal.contains(v))
        .map(|(u, _)| dag.node(u).output_bytes)
        .sum()
}

/// Both coefficients are finite and `≥ 0`: a stage's cost never falls as
/// its segment grows.
fn monotone(model: &CostModel) -> bool {
    [model.sec_per_mac, model.sec_per_byte]
        .iter()
        .all(|c| c.is_finite() && *c >= 0.0)
}

/// The schedule that puts every node outside `boundary`, the boundary
/// after stage `k - 1`, on stage `k - 1` and the rest along `parent_of`.
fn schedule_along(
    parent_of: &[HashMap<NodeSet, NodeSet>],
    boundary: &NodeSet,
    k: usize,
    n: usize,
    num_stages: usize,
) -> Schedule {
    let mut stage_of = vec![k - 1; n];
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
    Schedule::new(stage_of, num_stages).expect("stages in range")
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
                // only the whole residual completes a schedule
                last_boundaries += 1;
                let rest_params = total_params - entry.covered_params;
                let rest_macs = total_macs - entry.covered_macs;
                let cost = model.stage_cost(rest_params, rest_macs, cut_in(dag, boundary));
                if cost < ub {
                    ub = entry.bottleneck.max(cost);
                    best = schedule_along(&parent_of, boundary, k, n, num_stages);
                }
                continue;
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
                let mut candidates: Vec<NodeId> = dfs
                    .ready
                    .iter()
                    .copied()
                    .filter(|&v| last_pos == usize::MAX || dfs.pos[v.index()] > last_pos)
                    .collect();
                candidates.sort_by_key(|v| dfs.pos[v.index()]);
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
                            *best =
                                schedule_along(parent_of, boundary, k, dfs.dag.len(), num_stages);
                        }
                    } else {
                        let rest_params = total_params - covered_params - acc2.param_bytes;
                        let rest_macs = total_macs - covered_macs - acc2.macs;
                        // every byte `d2` sends into the rest enters one of
                        // its `m` stages; the share is a valid bound only
                        // where costs never fall as a segment grows. At
                        // m = 1 it is the last stage's own cost, which
                        // drops what the kernel's folded stage declines
                        // to complete
                        let rest_cut_in = if monotone(dfs.model) {
                            cut_in(dfs.dag, &d2)
                        } else {
                            0
                        };
                        let m = (num_stages - k) as u64;
                        let lb_rest =
                            dfs.model
                                .stage_cost(rest_params / m, rest_macs / m, rest_cut_in / m);
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
            // the prunes assume costs that never fall as a segment grows
            proven_optimal: !timed_out && monotone(&model),
            states_explored: states,
        },
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
    let states = if num_stages == 1 {
        oracle.last_boundaries
    } else {
        want.states_explored
    };
    assert_eq!(kernel.states_explored, states, "{label}: states");
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
fn degenerate_cost_models_match_the_reference() {
    // NaN costs are never pruned and never complete; negative ones break
    // the monotone bound; an infinite coefficient times zero MACs is NaN,
    // and so is a sum of overflowing terms of opposite sign
    let coral = CostModel::coral();
    let degenerate = [
        CostModel {
            sec_per_mac: f64::NAN,
            ..coral
        },
        CostModel {
            sec_per_byte: f64::NAN,
            ..coral
        },
        CostModel {
            sec_per_mac: -coral.sec_per_mac,
            ..coral
        },
        CostModel {
            sec_per_byte: -coral.sec_per_byte,
            ..coral
        },
        CostModel {
            sec_per_mac: -coral.sec_per_mac,
            sec_per_byte: -coral.sec_per_byte,
            ..coral
        },
        CostModel {
            sec_per_mac: f64::INFINITY,
            ..coral
        },
        CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 0.0,
            cache_bytes: 0,
        },
        CostModel {
            sec_per_mac: 1e306,
            sec_per_byte: -1e307,
            cache_bytes: 0,
        },
    ];
    // under the overflowing model this tiny graph's last stage costs NaN
    // where a bottleneck does not, which only the last stage's own
    // `cost < ub` test keeps from completing (k = 2, cold)
    let tiny = SyntheticConfig {
        num_nodes: 6,
        param_bytes_range: (1, 64),
        output_bytes_range: (1, 16),
        ..SyntheticConfig::default()
    };
    let tiny = (
        "6-node tiny-byte graph".to_string(),
        SyntheticSampler::new(tiny, 77).sample(),
    );
    // teacher-distribution graphs of 12, 20 and 30 nodes; under a negative
    // `sec_per_byte` the first two need the last stage's own tests, not
    // just `max(bottleneck, cost) < ub`, at k = 2 from a packing-only
    // warm start and at k = 3 cold
    let teacher = [(12, 6, 1004), (20, 3, 1006), (30, 2, 0xde6)].map(|(nodes, deg, seed)| {
        let cfg = SyntheticConfig {
            num_nodes: nodes,
            max_in_degree: deg,
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, seed).sample();
        (format!("{nodes}-node teacher graph"), dag)
    });
    let table1 = models::table1()
        .into_iter()
        .filter(|(name, _)| ["Xception", "ResNet50", "DenseNet121"].contains(name))
        .map(|(name, dag)| (name.to_string(), dag));
    let graphs: Vec<(String, Dag)> = teacher.into_iter().chain(table1).chain([tiny]).collect();
    assert_eq!(graphs.len(), 7);
    for model in degenerate {
        let solvers = [
            ExactScheduler::new(model).with_warmstart_moves(0),
            ExactScheduler::new(model).with_warmstart_moves(200),
            ExactScheduler::cold(model),
        ];
        for (name, dag) in &graphs {
            for solver in &solvers {
                for stages in 1..=6 {
                    let (moves, cold) = (solver.warmstart_moves, solver.cold_start);
                    let label = format!("{model:?} {name} k={stages} moves={moves} cold={cold}");
                    assert_agree(solver, dag, stages, &label);
                }
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
