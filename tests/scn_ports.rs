//! Five existing Rust scenario tests re-expressed in the `.scn` DSL,
//! with the original hand-wired Rust form kept as the oracle: each port
//! runs both, requires the engine reports to agree **bitwise**, and
//! re-checks the original test's qualitative claim through the DSL's
//! own assertions.
//!
//! Originals: `tests/sim_scenarios.rs` (open-loop sweep, batching,
//! co-residency) and `tests/fleet_slo.rs` (autoscaled diurnal fleet).
//! Multi-model co-residency is out of the DSL's vocabulary (a scenario
//! deploys one model), so the co-residency port pairs two tenants of
//! the same model.

use respect::deploy::Deployment;
use respect::graph::models;
use respect::sched::{balanced::ParamBalanced, Scheduler};
use respect::serve::{
    serve_fleet, AutoscalePolicy, BatchPolicy, FleetConfig, RouterPolicy, ServeTenant,
};
use respect::tpu::sim::{self, Arrivals, SimConfig, Workload};
use respect::tpu::{compile, device::DeviceSpec, CompiledPipeline};
use respect_scn::{run_source, RunOutput};

fn compiled(dag: &respect::graph::Dag, stages: usize, spec: &DeviceSpec) -> CompiledPipeline {
    let s = ParamBalanced::new().schedule(dag, stages).unwrap();
    compile::compile(dag, &s, spec).unwrap()
}

/// Runs a `.scn` source whose assertions must all hold, and returns its
/// sim report.
fn run_sim_scn(src: &str) -> respect::tpu::sim::SimReport {
    let run = run_source(src).expect("scenario must parse and execute");
    assert!(
        run.passed(),
        "scn assertions failed:\n{:#?}",
        run.failures().collect::<Vec<_>>()
    );
    match run.output {
        RunOutput::Sim(r) => r,
        other => panic!("expected a sim report, got {other:?}"),
    }
}

/// Port of `open_loop_rates_sweep_from_idle_to_saturation`, light half:
/// at 30% load the system is arrival-bound — achieved throughput tracks
/// the offered rate within 5%.
#[test]
fn port_open_loop_light_load_is_arrival_bound() {
    let spec = DeviceSpec::coral();
    let p = compiled(&models::resnet50(), 4, &spec);
    let cfg = SimConfig::contended();
    let n = 400;

    let capacity = sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg)
        .unwrap()
        .tenants[0]
        .throughput_ips;
    let light_rate = 0.3 * capacity;

    // Rust oracle — verbatim from the original test.
    let oracle = sim::run(
        &[Workload::new(p, n).with_arrivals(Arrivals::Periodic { rate: light_rate })],
        &spec,
        &cfg,
    )
    .unwrap();
    let t = &oracle.tenants[0];
    assert!((t.throughput_ips - light_rate).abs() / light_rate < 0.05);

    // The same scenario as data, asserting the same bound in-DSL.
    let scn = run_sim_scn(&format!(
        "scenario port-open-loop-light\n\
         model resnet50\n\
         stages 4\n\
         scheduler param-balanced\n\
         bus contended\n\
         tenant\n\
         requests {n}\n\
         arrivals periodic rate={light_rate}\n\
         run sim\n\
         assert tenant0.throughput > {}\n\
         assert tenant0.throughput < {}\n",
        0.95 * light_rate,
        1.05 * light_rate,
    ));
    assert_eq!(scn, oracle, "scn run must be bitwise the oracle run");
}

/// Port of `open_loop_rates_sweep_from_idle_to_saturation`, overload
/// half: at 3x capacity the system is service-bound — throughput pins
/// at the closed-loop capacity.
#[test]
fn port_open_loop_overload_is_service_bound() {
    let spec = DeviceSpec::coral();
    let p = compiled(&models::resnet50(), 4, &spec);
    let cfg = SimConfig::contended();
    let n = 400;

    let capacity = sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg)
        .unwrap()
        .tenants[0]
        .throughput_ips;

    let oracle = sim::run(
        &[Workload::new(p, n)
            .with_arrivals(Arrivals::Poisson {
                rate: 3.0 * capacity,
                seed: 11,
            })
            .with_warmup(n / 10)],
        &spec,
        &cfg,
    )
    .unwrap();
    let h = &oracle.tenants[0];
    assert!((h.throughput_ips - capacity).abs() / capacity < 0.05);

    let scn = run_sim_scn(&format!(
        "scenario port-open-loop-overload\n\
         model resnet50\n\
         stages 4\n\
         scheduler param-balanced\n\
         bus contended\n\
         tenant\n\
         requests {n}\n\
         warmup {}\n\
         arrivals poisson rate={} seed=11\n\
         run sim\n\
         assert tenant0.throughput > {}\n\
         assert tenant0.throughput < {}\n",
        n / 10,
        3.0 * capacity,
        0.95 * capacity,
        1.05 * capacity,
    ));
    assert_eq!(scn, oracle, "scn run must be bitwise the oracle run");
}

/// Port of `batching_monotonically_amortizes_overheads`: on a 6-stage
/// overhead-dominated pipeline, batch 16 beats batch 1 throughput.
#[test]
fn port_batching_amortizes_overheads() {
    let spec = DeviceSpec::coral();
    let p = compiled(&models::resnet50(), 6, &spec);
    let cfg = SimConfig::contended();
    let inferences = 960;

    let mut scn_ips = Vec::new();
    for batch in [1usize, 16] {
        let requests = inferences / batch;
        let oracle = sim::run(
            &[Workload::closed_loop(p.clone(), requests)
                .with_batch(batch)
                .with_warmup(requests / 8)],
            &spec,
            &cfg,
        )
        .unwrap();
        let scn = run_sim_scn(&format!(
            "scenario port-batching-{batch}\n\
             model resnet50\n\
             stages 6\n\
             scheduler param-balanced\n\
             bus contended\n\
             tenant\n\
             requests {requests}\n\
             batch {batch}\n\
             warmup {}\n\
             run sim\n\
             assert tenant0.inferences == {inferences}\n",
            requests / 8,
        ));
        assert_eq!(scn, oracle, "batch {batch}: scn must match the oracle");
        scn_ips.push(scn.tenants[0].throughput_ips);
    }
    assert!(
        scn_ips[1] > scn_ips[0],
        "batch 16 ({}) must beat batch 1 ({})",
        scn_ips[1],
        scn_ips[0]
    );
}

/// Port of `co_residency_degrades_per_tenant_throughput`, same-model
/// variant: two co-resident ResNet-152 tenants on one contended chain
/// each run measurably slower than one alone.
#[test]
fn port_co_residency_degrades_throughput() {
    let spec = DeviceSpec::coral();
    let p = compiled(&models::resnet152(), 4, &spec);
    let cfg = SimConfig::contended();
    let n = 200;

    let solo = sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg)
        .unwrap()
        .tenants[0]
        .throughput_ips;

    let oracle = sim::run(
        &[
            Workload::closed_loop(p.clone(), n),
            Workload::closed_loop(p, n),
        ],
        &spec,
        &cfg,
    )
    .unwrap();
    assert!(oracle.tenants[0].throughput_ips < 0.95 * solo);
    assert!(oracle.tenants[1].throughput_ips < 0.95 * solo);

    let scn = run_sim_scn(&format!(
        "scenario port-co-residency\n\
         model resnet152\n\
         stages 4\n\
         scheduler param-balanced\n\
         bus contended\n\
         tenant\n\
         requests {n}\n\
         tenant\n\
         requests {n}\n\
         run sim\n\
         assert tenant0.throughput < {solo_bound}\n\
         assert tenant1.throughput < {solo_bound}\n\
         assert bus_busy > 0\n",
        solo_bound = 0.95 * solo,
    ));
    assert_eq!(scn, oracle, "scn run must be bitwise the oracle run");
}

/// Port of `autoscaled_fleet_powers_chains_with_the_diurnal_wave`
/// (scaled down): the autoscaled fleet scales up through diurnal peaks
/// and leaves real unpowered capacity, and the `.scn` fleet report is
/// bitwise the hand-wired fleet call's.
#[test]
fn port_autoscaled_fleet_rides_the_diurnal_wave() {
    let chains = 6;
    let n = 1_500;
    let d = Deployment::of(&models::densenet121())
        .stages(6)
        .device(DeviceSpec::coral())
        .partitioner("op-balanced")
        .build()
        .unwrap();
    let cap = {
        let closed = ServeTenant::new(d.pipeline().clone(), 1_000)
            .with_warmup(100)
            .with_batcher(BatchPolicy::new(8, 5e-3));
        serve_fleet(&[closed], &FleetConfig::homogeneous(1, *d.device()))
            .unwrap()
            .tenants[0]
            .throughput_ips
    };
    let mean = 4.0 * cap;
    let tenant = ServeTenant::new(d.pipeline().clone(), n)
        .with_arrivals(Arrivals::Diurnal {
            mean_rate: mean,
            amplitude: 0.5,
            period_s: 4.0,
            seed: 1713,
        })
        .with_warmup(n / 20)
        .with_batcher(BatchPolicy::new(8, 5e-3));
    let autoscaled = FleetConfig::homogeneous(chains, *d.device())
        .with_router(RouterPolicy::JoinShortestBacklog)
        .with_autoscale(
            AutoscalePolicy::new()
                .with_min_chains(2)
                .with_scale_up_s(0.040)
                .with_scale_down_s(0.004)
                .with_check_jobs(16),
        );
    let oracle = serve_fleet(&[tenant], &autoscaled).unwrap();
    assert!(!oracle.scale_events.is_empty());
    let powered: f64 = oracle.chains.iter().map(|c| c.powered_s).sum();
    assert!(powered < 0.95 * chains as f64 * oracle.makespan_s);

    let run = run_source(&format!(
        "scenario port-autoscaled-fleet\n\
         model densenet121\n\
         stages 6\n\
         scheduler op-balanced\n\
         tenant\n\
         requests {n}\n\
         warmup {}\n\
         arrivals diurnal mean={mean} amplitude=0.5 period=4 seed=1713\n\
         batcher max_batch=8 max_delay=0.005\n\
         chains {chains}\n\
         router shortest\n\
         autoscale min=2 up=0.04 down=0.004 check=16\n\
         run fleet\n\
         assert scale_events > 0\n\
         assert chains_powered >= 2\n\
         assert chains_powered <= {chains}\n",
        n / 20,
    ))
    .expect("fleet scenario must execute");
    assert!(
        run.passed(),
        "scn assertions failed:\n{:#?}",
        run.failures().collect::<Vec<_>>()
    );
    match run.output {
        RunOutput::Fleet(r) => assert_eq!(r, oracle, "scn fleet run must be bitwise the oracle"),
        other => panic!("expected a fleet report, got {other:?}"),
    }
}
