//! Scheduler-registry coverage: every name resolves, schedules validly,
//! reproduces per seed, and unknown names fail with a structured error.

use std::time::Duration;

use respect::deploy::{self, Deployment};
use respect::graph::{models, SyntheticConfig, SyntheticSampler};
use respect::sched::registry::{self, BuildOptions, RegistryError};
use respect::tpu::device::DeviceSpec;

fn options() -> BuildOptions {
    BuildOptions::default()
        .with_cost_model(DeviceSpec::coral().cost_model())
        .with_iterations(300)
        .with_time_budget(Duration::from_secs(5))
}

/// A graph small enough for the exhaustive `brute` entry.
fn tiny_dag() -> respect::graph::Dag {
    let cfg = SyntheticConfig {
        num_nodes: 9,
        ..SyntheticConfig::default()
    };
    SyntheticSampler::new(cfg, 0xcafe).sample()
}

#[test]
fn builtin_registry_lists_at_least_nine_names() {
    let names = registry::NAMES;
    assert!(names.len() >= 9, "{names:?}");
    for expected in [
        "param-balanced",
        "op-balanced",
        "greedy",
        "anneal",
        "ilp",
        "exact",
        "brute",
        "hu",
        "force",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}

#[test]
fn every_builtin_name_schedules_a_zoo_model_validly() {
    let dag = models::xception();
    let tiny = tiny_dag();
    let opts = options();
    for name in registry::NAMES {
        // exhaustive enumeration cannot cover a 134-node model; `brute`
        // is exercised on a graph inside its cap (and the zoo-model
        // refusal is its own test below)
        let target = if name == "brute" { &tiny } else { &dag };
        let scheduler = registry::build(name, &opts).unwrap_or_else(|e| panic!("{e}"));
        let schedule = scheduler
            .schedule(target, 4)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(schedule.is_valid(target), "{name}");
        assert_eq!(schedule.num_stages(), 4, "{name}");
        assert!(!scheduler.name().is_empty(), "{name}");
    }
}

#[test]
fn every_builtin_name_is_deterministic_per_seed() {
    let dag = models::xception();
    let tiny = tiny_dag();
    for name in registry::NAMES {
        let target = if name == "brute" { &tiny } else { &dag };
        let opts = options().with_seed(0xd1ce);
        let a = registry::build(name, &opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .schedule(target, 4)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = registry::build(name, &opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .schedule(target, 4)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a, b, "{name} must reproduce bitwise per seed");
    }
}

#[test]
fn brute_refuses_zoo_models_with_a_structured_error() {
    let dag = models::xception();
    let err = registry::build("brute", &options())
        .unwrap_or_else(|e| panic!("{e}"))
        .schedule(&dag, 4)
        .unwrap_err();
    assert!(
        matches!(err, respect::sched::ScheduleError::SolverFailed(_)),
        "{err}"
    );
}

#[test]
fn unknown_names_return_a_structured_error_not_a_panic() {
    let Err(err) = registry::build("cplex", &BuildOptions::default()) else {
        panic!("unknown name must not resolve");
    };
    match &err {
        RegistryError::UnknownScheduler { name, available } => {
            assert_eq!(name, "cplex");
            assert!(available.len() >= 9);
        }
        other => panic!("unexpected error shape: {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("cplex"), "{msg}");
    assert!(msg.contains("param-balanced"), "{msg}");

    // and through the facade, as the unified error type
    let dag = tiny_dag();
    let err = Deployment::of(&dag)
        .partitioner("cplex")
        .build()
        .unwrap_err();
    assert!(matches!(err, respect::Error::Registry(_)), "{err}");
    assert!(err.to_string().contains("cplex"), "{err}");
    // the facade's error lists every name it resolves
    let respect::Error::Registry(RegistryError::UnknownScheduler { available, .. }) = err else {
        panic!("unexpected error shape: {err}");
    };
    assert_eq!(available, deploy::registry_names());
}

#[test]
fn deploy_registry_adds_respect_and_profiling() {
    let spec = DeviceSpec::coral();
    let names = deploy::registry_names();
    assert!(names.len() >= 11, "{names:?}");
    assert!(names.contains(&"respect"), "{names:?}");
    assert!(names.contains(&"profiling"), "{names:?}");
    assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");

    let dag = models::xception();
    let s = deploy::scheduler("profiling", &spec, &options())
        .unwrap_or_else(|e| panic!("{e}"))
        .schedule(&dag, 4)
        .unwrap();
    assert!(s.is_valid(&dag));
}

#[test]
fn respect_entry_schedules_by_name_end_to_end() {
    // trains the process-cached smoke policy on first use (seconds)
    let dag = models::xception();
    let deployment = Deployment::of(&dag)
        .stages(4)
        .partitioner("respect")
        .build()
        .unwrap();
    assert!(deployment.schedule().is_valid(&dag));
    assert_eq!(deployment.scheduler_name(), "RESPECT");
    // the cached policy makes repeat deployments bitwise-identical
    let again = Deployment::of(&dag)
        .stages(4)
        .partitioner("respect")
        .build()
        .unwrap();
    assert_eq!(deployment.schedule(), again.schedule());
}
