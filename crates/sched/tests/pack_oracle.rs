//! Bitwise oracle for the packing DP `ρ`.
//!
//! [`pack::pack`] grows each segment once for all stage counts and cuts
//! its sweeps at a feasible bound taken from a greedy fill of the same
//! order. The reference below is the program it replaced: one sweep per
//! stage count and start, no bound. Both offer every `f[k][i]` its
//! candidates in ascending start order with the empty segment last, and
//! the bound drops only candidates above an objective some packing of the
//! order reaches, so both must return the same schedule and objective
//! bits: on Table I and generated graphs, on default and random orders,
//! under tie-heavy cost models, and under models with a NaN or negative
//! coefficient, which disable the bound. Under an infinite coefficient
//! the reference indexes out of bounds, so there the documented fallback
//! is checked instead.

use rand::rngs::StdRng;
use rand::SeedableRng;
use respect_graph::{models, Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_sched::anneal::Annealing;
use respect_sched::cost::{CostModel, SegmentAccumulator};
use respect_sched::exact::ExactScheduler;
use respect_sched::force::ForceDirected;
use respect_sched::hu::HuList;
use respect_sched::{order, pack, Schedule, Scheduler};

/// The reference packing DP.
fn reference(dag: &Dag, order: &[NodeId], num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    assert!(num_stages > 0, "at least one stage");
    let n = order.len();
    let pos = order::positions(dag, order);
    let k_max = num_stages;

    const INF: f64 = f64::INFINITY;
    // f[k][i]: min bottleneck scheduling order[0..i] into k stages.
    let mut f = vec![vec![INF; n + 1]; k_max + 1];
    let mut choice = vec![vec![usize::MAX; n + 1]; k_max + 1];
    f[0][0] = 0.0;
    for k in 1..=k_max {
        for j in 0..=n {
            let base = f[k - 1][j];
            if !base.is_finite() {
                continue;
            }
            // empty segment: stage k holds nothing
            if base < f[k][j] {
                f[k][j] = base;
                choice[k][j] = j;
            }
            let mut acc = SegmentAccumulator::new();
            for i in j + 1..=n {
                let v = order[i - 1];
                acc.push(dag, v, |p| pos[p.index()] < j);
                let cost = acc.cost(model);
                let cand = base.max(cost);
                if cand < f[k][i] {
                    f[k][i] = cand;
                    choice[k][i] = j;
                }
            }
        }
    }

    // Reconstruct cut positions.
    let mut cuts = vec![0usize; k_max - 1];
    let mut i = n;
    for k in (1..=k_max).rev() {
        let j = choice[k][i];
        debug_assert_ne!(j, usize::MAX, "DP must reach every suffix");
        if k >= 2 {
            cuts[k - 2] = j;
        }
        i = j;
    }
    let schedule = Schedule::from_cuts(order, &cuts, num_stages);
    (schedule, f[k_max][n])
}

fn assert_agree(dag: &Dag, sequence: &[NodeId], num_stages: usize, model: &CostModel, label: &str) {
    let (want, want_obj) = reference(dag, sequence, num_stages, model);
    let (got, got_obj) = pack::pack(dag, sequence, num_stages, model);
    assert_eq!(got, want, "{label} k={num_stages}: schedule");
    assert_eq!(
        got_obj.to_bits(),
        want_obj.to_bits(),
        "{label} k={num_stages}: objective {got_obj:e} vs {want_obj:e}"
    );
}

/// The default order and `random` seeded random topological orders.
fn orders(dag: &Dag, random: u64) -> Vec<Vec<NodeId>> {
    let mut rng = StdRng::seed_from_u64(dag.len() as u64);
    std::iter::once(order::default_order(dag))
        .chain((0..random).map(|_| order::random_topo_order(dag, &mut rng)))
        .collect()
}

/// Graphs of 5 to 120 nodes with maximum in-degree 2 to 6.
fn synthetic() -> Vec<Dag> {
    let mut graphs = Vec::new();
    for (seed, nodes) in [5, 8, 13, 21, 30, 55, 89, 120].into_iter().enumerate() {
        for deg in 2..=6 {
            let cfg = SyntheticConfig {
                num_nodes: nodes,
                max_in_degree: deg,
                ..SyntheticConfig::default()
            };
            graphs.push(SyntheticSampler::new(cfg, (seed * 10 + deg) as u64).sample());
        }
    }
    graphs
}

/// Compute is free: stages tie wherever their bytes do.
fn memory_only() -> CostModel {
    CostModel {
        sec_per_mac: 0.0,
        ..CostModel::coral()
    }
}

/// Every stage costs zero: every packing ties.
fn all_zero() -> CostModel {
    CostModel {
        sec_per_mac: 0.0,
        sec_per_byte: 0.0,
        cache_bytes: 0,
    }
}

#[test]
fn table1_matches_the_reference_on_default_and_random_orders() {
    let model = CostModel::coral();
    for (name, dag) in models::table1() {
        for (o, sequence) in orders(&dag, 3).iter().enumerate() {
            for k in 1..=8 {
                assert_agree(&dag, sequence, k, &model, &format!("{name} order {o}"));
            }
        }
    }
}

#[test]
fn generated_graphs_match_the_reference() {
    for model in [CostModel::coral(), CostModel::coral_uncached()] {
        for dag in synthetic() {
            for (o, sequence) in orders(&dag, 1).iter().enumerate() {
                for k in 1..=8 {
                    let label = format!("{} nodes order {o}", dag.len());
                    assert_agree(&dag, sequence, k, &model, &label);
                }
            }
        }
    }
}

#[test]
fn tie_heavy_models_match_the_reference() {
    for model in [memory_only(), all_zero()] {
        for dag in synthetic() {
            for (o, sequence) in orders(&dag, 1).iter().enumerate() {
                for k in 1..=8 {
                    let label = format!("{model:?} {} nodes order {o}", dag.len());
                    assert_agree(&dag, sequence, k, &model, &label);
                }
            }
        }
        for (name, dag) in models::table1() {
            for k in [1, 4, 8] {
                assert_agree(&dag, &order::default_order(&dag), k, &model, name);
            }
        }
    }
}

#[test]
fn nan_and_negative_coefficients_match_the_reference() {
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
            sec_per_byte: -coral.sec_per_byte,
            ..coral
        },
        CostModel {
            sec_per_mac: -coral.sec_per_mac,
            ..coral
        },
    ];
    let table1 = models::table1();
    for model in degenerate {
        for (name, dag) in table1.iter().step_by(3) {
            for (o, sequence) in orders(dag, 1).iter().enumerate() {
                for k in 1..=6 {
                    let label = format!("{model:?} {name} order {o}");
                    assert_agree(dag, sequence, k, &model, &label);
                }
            }
        }
    }
}

#[test]
fn more_stages_than_nodes_match_the_reference() {
    for nodes in 1..=6 {
        let cfg = SyntheticConfig {
            num_nodes: nodes,
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, nodes as u64).sample();
        for model in [CostModel::coral(), all_zero()] {
            for (o, sequence) in orders(&dag, 2).iter().enumerate() {
                for k in nodes..=nodes + 4 {
                    let label = format!("{nodes} nodes order {o}");
                    assert_agree(&dag, sequence, k, &model, &label);
                }
            }
        }
    }
}

#[test]
fn infinite_coefficients_pack_onto_stage_zero_and_schedule_at_infinity() {
    let dag = models::xception();
    let sequence = order::default_order(&dag);
    let coral = CostModel::coral();
    for model in [
        CostModel {
            sec_per_mac: f64::INFINITY,
            ..coral
        },
        CostModel {
            sec_per_byte: f64::INFINITY,
            ..coral
        },
    ] {
        let (packed, objective) = pack::pack(&dag, &sequence, 4, &model);
        assert_eq!(packed, Schedule::new(vec![0; dag.len()], 4).unwrap());
        assert_eq!(objective, f64::INFINITY);
        let schedulers: [Box<dyn Scheduler>; 4] = [
            Box::new(ExactScheduler::new(model)),
            Box::new(Annealing::new(model)),
            Box::new(HuList::new(model)),
            Box::new(ForceDirected::new(model)),
        ];
        for scheduler in schedulers {
            let schedule = scheduler
                .schedule(&dag, 4)
                .unwrap_or_else(|e| panic!("{} under {model:?}: {e}", scheduler.name()));
            assert!(schedule.is_valid(&dag), "{}", scheduler.name());
            assert_eq!(
                model.objective(&dag, &schedule),
                f64::INFINITY,
                "{} under {model:?}",
                scheduler.name()
            );
        }
    }
}
