//! Cross-crate solver agreement: brute force, the structured exact
//! solver, the generic ILP-style solver, and the packing DP must be
//! mutually consistent on graphs small enough to enumerate.

use respect::graph::{SyntheticConfig, SyntheticSampler};
use respect::sched::registry::{self, BuildOptions};
use respect::sched::{
    anneal, balanced, brute, exact, greedy, ilp, pack, repair, CostModel, Scheduler,
};

fn small_dag(seed: u64, nodes: usize) -> respect::graph::Dag {
    let cfg = SyntheticConfig {
        num_nodes: nodes,
        max_in_degree: 3,
        param_bytes_range: (1, 128),
        output_bytes_range: (1, 32),
        ..SyntheticConfig::default()
    };
    SyntheticSampler::new(cfg, seed).sample()
}

#[test]
fn all_exact_methods_agree_with_brute_force() {
    let model = CostModel {
        sec_per_mac: 1e-3,
        sec_per_byte: 1.0,
        cache_bytes: 16,
    };
    for seed in 0..4 {
        let dag = small_dag(seed, 9);
        for stages in [2usize, 3] {
            let want = brute::optimal_objective(&dag, stages, &model);
            let a = exact::ExactScheduler::new(model)
                .solve(&dag, stages)
                .unwrap();
            let b = ilp::IlpScheduler::new(model).solve(&dag, stages).unwrap();
            assert!(a.proven_optimal && b.proven_optimal);
            for (label, got) in [("exact", a.objective), ("ilp", b.objective)] {
                assert!(
                    (got - want).abs() <= 1e-9 * want.max(1e-12),
                    "seed {seed} k={stages} {label}: {got} vs brute {want}"
                );
            }
        }
    }
}

#[test]
fn heuristics_are_bounded_below_by_the_optimum() {
    let model = CostModel::coral();
    for seed in 10..13 {
        let dag = small_dag(seed, 10);
        let stages = 3;
        let optimum = exact::ExactScheduler::new(model)
            .solve(&dag, stages)
            .unwrap()
            .objective;
        let heuristics: Vec<Box<dyn Scheduler>> = vec![
            Box::new(balanced::OpBalanced::new()),
            Box::new(balanced::ParamBalanced::new()),
            Box::new(greedy::GreedyCost::new(model)),
            Box::new(anneal::Annealing::new(model).with_iterations(500)),
        ];
        for h in &heuristics {
            let s = h.schedule(&dag, stages).unwrap();
            assert!(s.is_valid(&dag));
            let obj = model.objective(&dag, &s);
            assert!(
                obj >= optimum - 1e-12,
                "{} beat the optimum: {obj} < {optimum}",
                h.name()
            );
        }
    }
}

#[test]
fn every_registry_scheduler_is_bounded_below_by_the_optimum() {
    // the registry's trait adapters (hu, force, brute, ...) must be
    // sound: never below the exhaustive optimum, and brute must hit it.
    let model = CostModel::coral();
    let opts = BuildOptions::default()
        .with_cost_model(model)
        .with_iterations(300);
    for seed in 30..32 {
        let dag = small_dag(seed, 9);
        let stages = 3;
        let optimum = brute::optimal_objective(&dag, stages, &model);
        for name in registry::NAMES {
            let s = registry::build(name, &opts)
                .unwrap_or_else(|e| panic!("{e}"))
                .schedule(&dag, stages)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.is_valid(&dag), "{name}");
            let obj = model.objective(&dag, &s);
            assert!(
                obj >= optimum - 1e-12,
                "{name} beat the optimum: {obj} < {optimum}"
            );
            if name == "brute" || name == "exact" || name == "ilp" {
                assert!(
                    (obj - optimum).abs() <= 1e-9 * optimum.max(1e-12),
                    "{name} must be optimal: {obj} vs {optimum}"
                );
            }
        }
    }
}

#[test]
fn packing_any_topological_order_is_feasible_and_repair_is_noop() {
    let model = CostModel::coral();
    let dag = small_dag(20, 12);
    let order = respect::graph::topo::topo_order(&dag);
    let (schedule, obj) = pack::pack(&dag, &order, 4, &model);
    assert!(schedule.is_valid(&dag));
    assert!(obj.is_finite());
    // post-inference processing on an already-valid schedule (without the
    // sibling rule) must change nothing
    let cfg = repair::RepairConfig {
        sibling_stages: false,
    };
    let repaired = repair::repair(&dag, schedule.stage_of(), 4, cfg).unwrap();
    assert_eq!(repaired.stage_of(), schedule.stage_of());
}
