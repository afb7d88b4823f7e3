//! The `Deployment` facade is sugar, not a new engine: building and
//! simulating must be **bitwise-identical** to the hand-wired calls they
//! replace. Every other engine takes the deployment's pipeline and
//! device directly, so it has nothing of its own to pin.

use proptest::prelude::*;
use respect::core::{PolicyConfig, PtrNetPolicy, RespectScheduler};
use respect::deploy::{self, Deployment};
use respect::graph::models;
use respect::sched::registry::BuildOptions;
use respect::sched::Scheduler;
use respect::tpu::{compile, device::DeviceSpec, exec};

/// Cheap deterministic partitioners safe to sweep over zoo models.
const PARTITIONERS: &[&str] = &["param-balanced", "op-balanced", "greedy", "hu", "force"];

fn model(i: usize) -> (&'static str, respect::graph::Dag) {
    match i % 3 {
        0 => ("Xception", models::xception()),
        1 => ("DenseNet121", models::densenet121()),
        _ => ("ResNet50", models::resnet50()),
    }
}

#[test]
fn build_matches_hand_wired_schedule_and_compile() {
    let spec = DeviceSpec::coral();
    let opts = BuildOptions::default().with_cost_model(spec.cost_model());
    for i in 0..3 {
        let (name, dag) = model(i);
        for stages in [4usize, 6] {
            for key in PARTITIONERS {
                let d = Deployment::of(&dag)
                    .stages(stages)
                    .device(spec)
                    .partitioner(*key)
                    .build()
                    .unwrap();
                let scheduler = deploy::scheduler(key, &spec, &opts).unwrap();
                let schedule = scheduler.schedule(&dag, stages).unwrap();
                let pipeline = compile::compile(&dag, &schedule, &spec).unwrap();
                assert_eq!(d.schedule(), &schedule, "{name}@{stages} {key}");
                assert_eq!(d.pipeline(), &pipeline, "{name}@{stages} {key}");
                assert_eq!(
                    d.objective().to_bits(),
                    spec.cost_model().objective(&dag, &schedule).to_bits(),
                    "{name}@{stages} {key}"
                );
            }
        }
    }
}

#[test]
fn injected_scheduler_matches_hand_wired_respect_path() {
    // an untrained policy is deterministic and trains nothing
    let policy = PtrNetPolicy::new(PolicyConfig::small(12));
    let spec = DeviceSpec::coral();
    let dag = models::xception();
    let d = Deployment::of(&dag)
        .stages(4)
        .device(spec)
        .scheduler(Box::new(
            RespectScheduler::new(policy.clone()).with_cost_model(spec.cost_model()),
        ))
        .build()
        .unwrap();
    let hand = RespectScheduler::new(policy)
        .with_cost_model(spec.cost_model())
        .schedule(&dag, 4)
        .unwrap();
    assert_eq!(d.schedule(), &hand);
    assert_eq!(d.scheduler_name(), "RESPECT");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulate_is_bitwise_exec_simulate(
        model_i in 0usize..3,
        stages in 1usize..=6,
        inferences in 1usize..400,
    ) {
        let (_, dag) = model(model_i);
        let spec = DeviceSpec::coral();
        let d = Deployment::of(&dag)
            .stages(stages)
            .device(spec)
            .partitioner("param-balanced")
            .build()
            .unwrap();
        let hand_pipeline = compile::compile(&dag, d.schedule(), &spec).unwrap();
        let facade = d.simulate(inferences).unwrap();
        let hand = exec::simulate(&hand_pipeline, &spec, inferences).unwrap();
        // PartialEq on the report compares every f64 field; identical
        // event streams make them bitwise-equal
        prop_assert_eq!(&facade, &hand);
        prop_assert_eq!(facade.total_s.to_bits(), hand.total_s.to_bits());
        prop_assert_eq!(
            facade.throughput_ips.to_bits(),
            hand.throughput_ips.to_bits()
        );
    }
}
