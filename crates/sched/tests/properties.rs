//! Property-based tests of the scheduling substrate: validity, optimality
//! bounds, and repair guarantees over randomly sampled problem instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_graph::{NodeId, SyntheticConfig, SyntheticSampler};
use respect_sched::repair::{repair, RepairConfig};
use respect_sched::{brute, exact, order, pack, CostModel, IncrementalEvaluator, Schedule};

fn sample(nodes: usize, deg: usize, seed: u64) -> respect_graph::Dag {
    let cfg = SyntheticConfig {
        num_nodes: nodes,
        max_in_degree: deg,
        param_bytes_range: (1, 4096),
        output_bytes_range: (1, 1024),
        ..SyntheticConfig::default()
    };
    SyntheticSampler::new(cfg, seed).sample()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_produces_valid_schedules_on_random_orders(
        seed in 0u64..5_000,
        stages in 1usize..7,
        order_seed in 0u64..100,
    ) {
        let dag = sample(20, 3, seed);
        let model = CostModel::coral();
        let mut rng = StdRng::seed_from_u64(order_seed);
        let sequence = order::random_topo_order(&dag, &mut rng);
        let (schedule, obj) = pack::pack(&dag, &sequence, stages, &model);
        prop_assert!(schedule.is_valid(&dag));
        // DP value matches independent recomputation
        let recomputed = model.objective(&dag, &schedule);
        prop_assert!((obj - recomputed).abs() <= 1e-9 * obj.max(1e-30));
        // never below the information-theoretic lower bound
        prop_assert!(obj + 1e-15 >= model.lower_bound(&dag, stages));
    }

    #[test]
    fn repair_always_yields_valid_schedules(
        seed in 0u64..5_000,
        stages in 1usize..6,
        raw_seed in 0u64..1_000,
    ) {
        let dag = sample(15, 4, seed);
        // adversarial raw predictions from a hash
        let raw: Vec<usize> = (0..dag.len())
            .map(|i| ((raw_seed as usize).wrapping_mul(31).wrapping_add(i * 7)) % (stages + 2))
            .collect();
        let s = repair(&dag, &raw, stages, RepairConfig::default()).unwrap();
        prop_assert!(s.is_valid(&dag));
        let s2 = repair(
            &dag,
            &raw,
            stages,
            RepairConfig { sibling_stages: false },
        )
        .unwrap();
        prop_assert!(s2.is_valid(&dag));
    }

    #[test]
    fn repair_legalizes_fully_arbitrary_predictions(
        seed in 0u64..5_000,
        stages in 1usize..6,
        raw_seed in 0u64..1_000,
    ) {
        // raw stages drawn uniformly from the whole usize-ish range,
        // far outside 0..stages — the worst a broken policy could emit
        let dag = sample(12, 3, seed);
        let mut rng = StdRng::seed_from_u64(raw_seed);
        let raw: Vec<usize> = (0..dag.len())
            .map(|_| rng.gen_range(0usize..usize::MAX / 2))
            .collect();
        let s = repair(&dag, &raw, stages, RepairConfig::default()).unwrap();
        prop_assert!(s.is_valid(&dag));
        prop_assert!(s.stage_of().iter().all(|&st| st < stages));
    }

    #[test]
    fn repair_is_idempotent_and_valid_at_one_round(
        seed in 0u64..5_000,
        stages in 1usize..6,
        raw_seed in 0u64..1_000,
    ) {
        // regression for the sibling/dependency alternation: hoisting a
        // child could undo dependency validity within a round, making the
        // bounded fixpoint non-idempotent. Both guarantees must now hold:
        // the class propagation settles in a single round.
        let dag = sample(15, 4, seed);
        let cfg = RepairConfig::default();
        let mut rng = StdRng::seed_from_u64(raw_seed);
        let raw: Vec<usize> = (0..dag.len()).map(|_| rng.gen_range(0usize..stages + 3)).collect();
        let once = repair(&dag, &raw, stages, cfg).unwrap();
        prop_assert!(once.is_valid(&dag), "repair must be dependency-valid");
        let twice = repair(&dag, once.stage_of(), stages, cfg).unwrap();
        prop_assert_eq!(
            twice.stage_of(),
            once.stage_of(),
            "repair(repair(raw)) must equal repair(raw)"
        );
        // the structural sibling rule is no longer best-effort: children
        // of every node share a stage in the output
        for u in dag.node_ids() {
            let children = dag.succs(u);
            if children.len() > 1 {
                let s0 = once.stage(children[0]);
                prop_assert!(
                    children.iter().all(|&c| once.stage(c) == s0),
                    "siblings must be co-located"
                );
            }
        }
    }

    #[test]
    fn incremental_evaluator_matches_full_recompute_bitwise(
        seed in 0u64..5_000,
        stages in 1usize..6,
        move_seed in 0u64..1_000,
    ) {
        // arbitrary sequences of random single-node stage moves must keep
        // the evaluator bitwise-identical (f64) to a fresh full evaluation
        let dag = sample(16, 3, seed);
        let model = CostModel::coral();
        let mut rng = StdRng::seed_from_u64(move_seed);
        let init: Vec<usize> = (0..dag.len()).map(|_| rng.gen_range(0..stages)).collect();
        let schedule = Schedule::new(init, stages).unwrap();
        let mut eval = IncrementalEvaluator::new(&dag, model, &schedule);
        for _ in 0..40 {
            let v = NodeId(rng.gen_range(0..dag.len()) as u32);
            let to = rng.gen_range(0..stages);
            eval.move_node(v, to);
            let cur = eval.to_schedule();
            let full_costs = model.stage_costs(&dag, &cur);
            for (a, b) in eval.stage_costs().iter().zip(&full_costs) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "stage cost drifted: {} vs {}", a, b);
            }
            prop_assert_eq!(
                eval.bottleneck().to_bits(),
                model.objective(&dag, &cur).to_bits(),
                "bottleneck drifted"
            );
        }
    }

    #[test]
    fn repair_never_worsens_an_already_valid_schedule(
        seed in 0u64..5_000,
        stages in 1usize..7,
        order_seed in 0u64..100,
    ) {
        // dependency repair must be the identity on valid schedules —
        // which implies the objective cannot get worse
        let dag = sample(18, 3, seed);
        let model = CostModel::coral();
        let mut rng = StdRng::seed_from_u64(order_seed);
        let sequence = order::random_topo_order(&dag, &mut rng);
        let (valid, _) = pack::pack(&dag, &sequence, stages, &model);
        let repaired = repair(
            &dag,
            valid.stage_of(),
            stages,
            RepairConfig { sibling_stages: false },
        )
        .unwrap();
        prop_assert_eq!(repaired.stage_of(), valid.stage_of());
    }
}

proptest! {
    // exact-vs-brute is exponential in the graph size: fewer cases
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exact_matches_brute_force_on_random_small_instances(
        seed in 0u64..1_000,
        stages in 2usize..4,
    ) {
        let dag = sample(7, 3, seed);
        let model = CostModel {
            sec_per_mac: 1e-6,
            sec_per_byte: 1.0,
            cache_bytes: 512,
        };
        let sol = exact::ExactScheduler::new(model)
            .with_warmstart_moves(100)
            .solve(&dag, stages)
            .unwrap();
        prop_assert!(sol.proven_optimal);
        let want = brute::optimal_objective(&dag, stages, &model);
        prop_assert!(
            (sol.objective - want).abs() <= 1e-9 * want.max(1e-12),
            "exact {} vs brute {}", sol.objective, want
        );
    }

    #[test]
    fn exact_dominates_every_random_packing(
        seed in 0u64..1_000,
        order_seed in 0u64..50,
    ) {
        let dag = sample(14, 3, seed);
        let model = CostModel::coral();
        let sol = exact::ExactScheduler::new(model)
            .with_warmstart_moves(100)
            .solve(&dag, 3)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(order_seed);
        let sequence = order::random_topo_order(&dag, &mut rng);
        let (_, packed) = pack::pack(&dag, &sequence, 3, &model);
        prop_assert!(sol.objective <= packed + 1e-12);
    }
}

proptest! {
    // the residual bound relies on "the largest of the rest's stages costs
    // at least their mean", which holds in real numbers; were rounding to
    // lift the bound an ulp above a tied optimum, the search would prune
    // it and return a near-tie, which a relative tolerance would hide
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_objective_is_the_brute_force_optimum_bit_for_bit(
        seed in 0u64..1_000_000,
        nodes in 7usize..=11,
        deg in 1usize..=4,
        stages in 2usize..=4,
    ) {
        // few distinct byte counts make many schedules tie
        let cfg = SyntheticConfig {
            num_nodes: nodes,
            max_in_degree: deg,
            param_bytes_range: (1, 48),
            output_bytes_range: (1, 12),
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, seed).sample();
        let tiny_bytes = CostModel {
            sec_per_mac: 1e-3,
            sec_per_byte: 1.0,
            cache_bytes: 4,
        };
        for model in [CostModel::coral(), CostModel::coral_uncached(), tiny_bytes] {
            let want = brute::optimal_objective(&dag, stages, &model);
            for solver in [
                exact::ExactScheduler::new(model).with_warmstart_moves(0),
                exact::ExactScheduler::new(model).with_warmstart_moves(200),
                exact::ExactScheduler::cold(model),
            ] {
                let sol = solver.solve(&dag, stages).unwrap();
                prop_assert!(sol.proven_optimal);
                prop_assert_eq!(
                    sol.objective.to_bits(),
                    want.to_bits(),
                    "{:?} moves={} cold={}: exact {} vs brute {}",
                    model,
                    solver.warmstart_moves,
                    solver.cold_start,
                    sol.objective,
                    want
                );
            }
        }
    }
}
