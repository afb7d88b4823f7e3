//! The workspace-wide `respect::Error`: `From` conversions from every
//! subsystem error, `Display` prefixes, and `source()` chains.

use std::error::Error as StdError;

use respect::deploy::Deployment;
use respect::graph::{GraphError, NodeId};
use respect::nn::serialize::WeightIoError;
use respect::sched::registry::RegistryError;
use respect::sched::ScheduleError;
use respect::serve::{serve, serve_fleet, FleetConfig, ServeConfig, ServeError};
use respect::tpu::sim::{self, SimConfig, SimError};
use respect::tpu::DeviceSpec;
use respect::Error;

/// Display shows a subsystem prefix plus the inner message; source()
/// exposes the inner error itself.
fn assert_wraps(err: Error, prefix: &str, inner_display: &str) {
    let msg = err.to_string();
    assert!(msg.starts_with(prefix), "{msg:?} should start {prefix:?}");
    assert!(
        msg.contains(inner_display),
        "{msg:?} missing {inner_display:?}"
    );
    let source = err.source().expect("every variant has a source");
    assert_eq!(source.to_string(), inner_display);
}

#[test]
fn every_variant_displays_and_chains_its_source() {
    let graph = GraphError::SelfLoop(NodeId(3));
    assert_wraps(graph.clone().into(), "graph error: ", &graph.to_string());

    let schedule = ScheduleError::NoStages;
    assert_wraps(
        schedule.clone().into(),
        "schedule error: ",
        &schedule.to_string(),
    );

    let registry = RegistryError::UnknownScheduler {
        name: "cplex".into(),
        available: vec!["exact".into()],
    };
    assert_wraps(
        registry.clone().into(),
        "scheduler registry error: ",
        &registry.to_string(),
    );

    let weight_io = WeightIoError::Format("truncated header".into());
    let weight_io_display = weight_io.to_string();
    assert_wraps(weight_io.into(), "weight i/o error: ", &weight_io_display);

    let sim = SimError::NoRequests;
    assert_wraps(sim.clone().into(), "simulation error: ", &sim.to_string());

    let serve = ServeError::NoTenants;
    assert_wraps(serve.clone().into(), "serving error: ", &serve.to_string());
}

#[test]
fn train_errors_chain_through_to_their_schedule_cause() {
    // TrainError wraps the dataset's ScheduleError; through the unified
    // type the full chain stays walkable:
    // Error::Train -> TrainError::Dataset -> ScheduleError::NoStages
    let train: respect::core::train::TrainError = ScheduleError::NoStages.into();
    let unified: Error = train.into();
    assert!(unified.to_string().starts_with("training error: "));
    let level1 = unified.source().expect("train source");
    let level2 = level1.source().expect("schedule cause");
    assert_eq!(level2.to_string(), ScheduleError::NoStages.to_string());
}

#[test]
fn question_mark_unifies_the_whole_pipeline() {
    // One function, one error type, four subsystems.
    fn run() -> Result<f64, Error> {
        let dag = respect::graph::models::xception();
        let deployment = Deployment::of(&dag)
            .stages(4)
            .partitioner("greedy")
            .build()?;
        let report = deployment.simulate(50)?;
        let sweep = sim::run(
            &[deployment.workload(20)],
            deployment.device(),
            &SimConfig::uncontended(),
        )?;
        let served = serve(
            &[deployment.tenant(20)],
            deployment.device(),
            &ServeConfig::default(),
        )?;
        Ok(report.throughput_ips
            + sweep.tenants[0].throughput_ips
            + served.tenants[0].throughput_ips)
    }
    assert!(run().unwrap() > 0.0);
}

#[test]
fn failures_surface_as_the_matching_variant() {
    let dag = respect::graph::models::xception();
    let deployment = Deployment::of(&dag).build().unwrap();

    let err = Deployment::of(&dag).stages(0).build().unwrap_err();
    assert!(matches!(err, Error::Schedule(ScheduleError::NoStages)));

    let err = deployment.simulate(0).unwrap_err();
    assert!(matches!(err, Error::Sim(SimError::NoRequests)));

    let err: Error = sim::run(&[], deployment.device(), &SimConfig::uncontended())
        .unwrap_err()
        .into();
    assert!(matches!(err, Error::Sim(SimError::NoWorkloads)));

    let err: Error = serve(&[], deployment.device(), &ServeConfig::default())
        .unwrap_err()
        .into();
    assert!(matches!(err, Error::Serve(ServeError::NoTenants)));

    // a degenerate device is rejected before its cost model schedules
    let coral = DeviceSpec::coral();
    let degenerate = [
        DeviceSpec {
            macs_per_sec: 0.0,
            ..coral
        },
        DeviceSpec {
            usb_bytes_per_sec: 0.0,
            ..coral
        },
        DeviceSpec {
            macs_per_sec: f64::NAN,
            ..coral
        },
        DeviceSpec {
            usb_bytes_per_sec: -1.0,
            ..coral
        },
    ];
    for spec in degenerate {
        for partitioner in ["exact", "anneal", "hu", "param-balanced"] {
            let err = Deployment::of(&dag)
                .device(spec)
                .partitioner(partitioner)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, Error::Sim(SimError::InvalidSpec { .. })),
                "{partitioner} on {spec:?}: {err}"
            );
        }
        // a degenerate fleet chain is refused before anything runs
        let fleet = FleetConfig::default().with_chains(vec![coral, spec]);
        let err: Error = serve_fleet(&[deployment.tenant(20)], &fleet)
            .unwrap_err()
            .into();
        assert!(
            matches!(err, Error::Serve(ServeError::Spec(_))),
            "chain {spec:?}: {err}"
        );
    }
}
