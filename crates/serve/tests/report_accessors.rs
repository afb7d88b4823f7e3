//! Unit tests of the uniform report accessors: `ServeReport`'s
//! fleet-style aggregates (`offered`/`admitted`/`shed`, merged
//! histogram quantiles) and the fleet's per-chain shed attribution
//! (`ChainReport::shed` sums to `FleetReport::shed()`, and
//! `FleetReport::offered()` mirrors the tenant side).

use respect_graph::models;
use respect_sched::balanced::OpBalanced;
use respect_sched::Scheduler;
use respect_serve::{
    serve, serve_fleet, AdmissionPolicy, AutoscalePolicy, BatchPolicy, DriftPolicy, FleetConfig,
    Repartitioner, RouterPolicy, ServeConfig, ServeTenant,
};
use respect_tpu::sim::Arrivals;
use respect_tpu::{compile, CompiledPipeline, DeviceSpec};

fn pipeline() -> CompiledPipeline {
    let dag = models::resnet50();
    let schedule = OpBalanced::new().schedule(&dag, 4).unwrap();
    compile::compile(&dag, &schedule, &DeviceSpec::coral()).unwrap()
}

/// A two-tenant serving mix with one overloaded, queue-bounded tenant,
/// so both `admitted` and `shed` are nonzero.
fn mixed_tenants(p: &CompiledPipeline) -> Vec<ServeTenant> {
    vec![
        ServeTenant::new(p.clone(), 300)
            .with_arrivals(Arrivals::Poisson {
                rate: 2_000.0,
                seed: 5,
            })
            .with_admission(AdmissionPolicy::QueueBound { max_waiting: 4 }),
        ServeTenant::new(p.clone(), 200),
    ]
}

#[test]
fn serve_report_aggregates_sum_over_tenants() {
    let p = pipeline();
    let r = serve(
        &mixed_tenants(&p),
        &DeviceSpec::coral(),
        &ServeConfig::uncontended(),
    )
    .unwrap();
    assert_eq!(r.offered(), 500);
    assert_eq!(
        r.offered(),
        r.tenants.iter().map(|t| t.offered).sum::<usize>()
    );
    assert_eq!(
        r.admitted(),
        r.tenants.iter().map(|t| t.admitted).sum::<usize>()
    );
    assert_eq!(r.shed(), r.tenants.iter().map(|t| t.shed).sum::<usize>());
    assert!(r.shed() > 0, "the queue-bounded flood must shed");
    assert_eq!(r.admitted() + r.shed(), r.offered());
}

#[test]
fn serve_report_quantiles_come_from_the_merged_histogram() {
    let p = pipeline();
    let r = serve(
        &mixed_tenants(&p),
        &DeviceSpec::coral(),
        &ServeConfig::uncontended(),
    )
    .unwrap();
    let merged = r.histogram();
    assert_eq!(
        merged.count(),
        r.tenants.iter().map(|t| t.histogram.count()).sum::<u64>(),
        "merged histogram must hold every tenant's samples"
    );
    assert_eq!(r.p50_s().to_bits(), merged.quantile(0.50).to_bits());
    assert_eq!(r.p95_s().to_bits(), merged.quantile(0.95).to_bits());
    assert_eq!(r.p99_s().to_bits(), merged.quantile(0.99).to_bits());
    assert_eq!(r.p999_s().to_bits(), merged.quantile(0.999).to_bits());
    assert!(r.p50_s() <= r.p99_s());
}

#[test]
fn chain_shed_attribution_sums_to_the_fleet_total() {
    let p = pipeline();
    let cfg =
        FleetConfig::homogeneous(3, DeviceSpec::coral()).with_router(RouterPolicy::RoundRobin);
    let r = serve_fleet(&mixed_tenants(&p), &cfg).unwrap();
    assert!(r.shed() > 0, "the queue-bounded flood must shed");
    assert_eq!(
        r.chains.iter().map(|c| c.shed).sum::<usize>(),
        r.shed(),
        "admission is chain-local: per-chain sheds must sum to the fleet total"
    );
    // admitted + shed covers everything routed to each chain
    for (i, c) in r.chains.iter().enumerate() {
        assert!(
            c.admitted + c.shed > 0,
            "round-robin must route work to chain {i}"
        );
    }
    assert_eq!(r.offered(), 500);
    assert_eq!(
        r.offered(),
        r.tenants.iter().map(|t| t.offered).sum::<usize>()
    );
    assert_eq!(r.admitted() + r.shed(), r.offered());
}

#[test]
fn fleet_swap_log_accessors_mirror_the_per_chain_reports() {
    // A deliberately poor partition (op-count balancing on DenseNet)
    // with a per-chain repartitioner: swaps must fire, and the
    // accessor surface must agree with the underlying logs.
    let dag = models::densenet121();
    let spec = DeviceSpec::coral();
    let schedule = OpBalanced::new().schedule(&dag, 6).unwrap();
    let poor = compile::compile(&dag, &schedule, &spec).unwrap();
    let tenant = ServeTenant::new(poor, 1_200)
        .with_warmup(100)
        .with_batcher(BatchPolicy::new(8, 5e-3))
        .with_repartitioner(
            Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(
                DriftPolicy::new()
                    .with_window_jobs(24)
                    .with_threshold(0.08)
                    .with_max_swaps(3),
            ),
        );
    let cfg = FleetConfig::homogeneous(2, spec);
    let r = serve_fleet(&[tenant], &cfg).unwrap();
    assert_eq!(
        r.total_swaps(),
        r.chains.iter().map(|c| c.swaps).sum::<usize>()
    );
    assert_eq!(
        r.total_swaps(),
        r.tenants.iter().map(|t| t.swaps.len()).sum::<usize>(),
        "every accepted swap is charged to exactly one chain and one tenant"
    );
    assert!(
        r.total_swaps() > 0,
        "the poor deployment must trigger swaps"
    );
    assert!(
        r.scale_event_log().is_empty(),
        "no autoscaler means no scale events"
    );
}

#[test]
fn fleet_scale_log_accessors_mirror_the_event_log() {
    // Flood a 3-chain autoscaled fleet so the active prefix must grow.
    let p = pipeline();
    let flood = ServeTenant::new(p, 600)
        .with_arrivals(Arrivals::Poisson {
            rate: 2_000.0,
            seed: 11,
        })
        .with_batcher(BatchPolicy::new(8, 2e-3));
    let cfg = FleetConfig::homogeneous(3, DeviceSpec::coral()).with_autoscale(
        AutoscalePolicy::new()
            .with_check_jobs(2)
            .with_scale_up_s(0.005)
            .with_scale_down_s(0.001),
    );
    let r = serve_fleet(&[flood], &cfg).unwrap();
    assert_eq!(r.scale_event_log(), r.scale_events.as_slice());
    assert!(
        r.scale_events.iter().all(|e| e.to != e.from),
        "every scale event either grows or shrinks the prefix"
    );
    assert!(
        r.scale_events.iter().any(|e| e.to > e.from),
        "the flood must scale the fleet up"
    );
    // the log is a contiguous chain: each step starts where the last
    // ended, beginning at the min_chains floor
    let mut active = 1usize;
    for e in r.scale_event_log() {
        assert_eq!(e.from, active, "scale events must chain contiguously");
        active = e.to;
    }
}

#[test]
fn unshedding_fleet_reports_zero_chain_shed() {
    let p = pipeline();
    let tenants = [ServeTenant::new(p, 120)];
    let cfg = FleetConfig::homogeneous(2, DeviceSpec::coral());
    let r = serve_fleet(&tenants, &cfg).unwrap();
    assert_eq!(r.shed(), 0);
    for c in &r.chains {
        assert_eq!(c.shed, 0);
    }
    assert_eq!(r.offered(), 120);
    assert_eq!(r.admitted(), 120);
}
