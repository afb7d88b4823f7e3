//! Acceptance test of the fleet serving layer, end to end from one
//! `Deployment` served over fleets of several shapes:
//!
//! * under a **diurnal** open-loop load sized for the whole fleet, a
//!   single chain blows a 250 ms p99 SLO decisively while a 12-chain
//!   fleet behind join-shortest-backlog routing holds it;
//! * the fleet report is **bitwise-identical** across repeated runs
//!   with the same seed.

use respect::deploy::Deployment;
use respect::graph::models;
use respect::serve::{
    serve_fleet, AutoscalePolicy, BatchPolicy, FleetConfig, RouterPolicy, ServeTenant,
};
use respect::tpu::device::DeviceSpec;
use respect::tpu::sim::Arrivals;

const SLO_P99_S: f64 = 0.250;
const FLEET_CHAINS: usize = 12;

/// DenseNet-121 on 6-stage chains with the op-count-balancing partition
/// — the same deliberately mediocre deployment the single-chain serving
/// tests stress, replicated per chain.
fn deployment() -> Deployment {
    Deployment::of(&models::densenet121())
        .stages(6)
        .device(DeviceSpec::coral())
        .partitioner("op-balanced")
        .build()
        .unwrap()
}

/// `chains` chains of the deployment's device behind
/// join-shortest-backlog routing.
fn fleet(d: &Deployment, chains: usize) -> FleetConfig {
    FleetConfig::homogeneous(chains, *d.device()).with_router(RouterPolicy::JoinShortestBacklog)
}

/// A diurnal request stream sized against the measured closed-loop
/// capacity of one chain: the cycle mean is several chains' worth of
/// load and the peak approaches the whole fleet's capacity.
fn diurnal_tenant(d: &Deployment, chain_cap_ips: f64, n: usize) -> ServeTenant {
    ServeTenant::new(d.pipeline().clone(), n)
        .with_arrivals(Arrivals::Diurnal {
            mean_rate: 7.0 * chain_cap_ips,
            amplitude: 0.5,
            period_s: 4.0,
            seed: 1713,
        })
        .with_warmup(n / 20)
        .with_batcher(BatchPolicy::new(8, 5e-3))
}

fn chain_capacity_ips(d: &Deployment) -> f64 {
    let closed = ServeTenant::new(d.pipeline().clone(), 1_000)
        .with_warmup(100)
        .with_batcher(BatchPolicy::new(8, 5e-3));
    serve_fleet(&[closed], &fleet(d, 1)).unwrap().tenants[0].throughput_ips
}

#[test]
fn twelve_chain_fleet_holds_a_p99_slo_one_chain_cannot() {
    let d = deployment();
    let cap = chain_capacity_ips(&d);
    let n = 8_000;

    // 1. one chain drowns: the diurnal mean alone is 7x its capacity
    let alone = serve_fleet(&[diurnal_tenant(&d, cap, n)], &fleet(&d, 1)).unwrap();
    assert!(
        alone.p99_s() > 4.0 * SLO_P99_S,
        "single-chain p99 {:.3}s should blow the {SLO_P99_S}s SLO decisively",
        alone.p99_s()
    );

    // 2. the routed fleet holds the SLO on the same arrival stream
    let routed = fleet(&d, FLEET_CHAINS);
    let report = serve_fleet(&[diurnal_tenant(&d, cap, n)], &routed).unwrap();
    assert!(
        report.p99_s() <= SLO_P99_S,
        "fleet p99 {:.3}s must hold the {SLO_P99_S}s SLO",
        report.p99_s()
    );
    assert_eq!(report.shed(), 0, "open admission: nothing may be shed");
    assert_eq!(report.admitted(), n);
    assert_eq!(report.chains.len(), FLEET_CHAINS);
    // join-shortest-backlog actually spreads the load: every chain
    // served a meaningful share
    for (c, ch) in report.chains.iter().enumerate() {
        assert!(
            ch.admitted > n / (4 * FLEET_CHAINS),
            "chain {c} admitted only {} of {n}",
            ch.admitted
        );
    }
    // the merged fleet histogram is exactly the per-tenant evidence
    assert_eq!(
        report.histogram.count(),
        report.tenants[0].histogram.count()
    );
    // energy accounting covers the whole fleet for the whole makespan
    assert!(report.total_energy_j() > 0.0);
    for ch in &report.chains {
        assert_eq!(ch.powered_s.to_bits(), report.makespan_s.to_bits());
    }

    // 3. bitwise determinism of the full fleet configuration
    let again = serve_fleet(&[diurnal_tenant(&d, cap, n)], &routed).unwrap();
    assert_eq!(again, report, "same seed, same fleet report");
}

#[test]
fn autoscaled_fleet_powers_chains_with_the_diurnal_wave() {
    // With autoscaling the fleet starts at a 2-chain floor, grows
    // through the diurnal peaks, and the energy ledger reflects it:
    // total powered time stays strictly under chains x makespan.
    let d = deployment();
    let autoscaled = fleet(&d, FLEET_CHAINS).with_autoscale(
        AutoscalePolicy::new()
            .with_min_chains(2)
            .with_scale_up_s(0.040)
            .with_scale_down_s(0.004)
            .with_check_jobs(16),
    );
    let cap = chain_capacity_ips(&d);
    let report = serve_fleet(&[diurnal_tenant(&d, cap, 4_000)], &autoscaled).unwrap();
    assert!(
        !report.scale_events.is_empty(),
        "diurnal swings must move the autoscaler"
    );
    assert!(report.scale_events.iter().any(|e| e.to > e.from));
    let powered: f64 = report.chains.iter().map(|c| c.powered_s).sum();
    assert!(
        powered < 0.95 * FLEET_CHAINS as f64 * report.makespan_s,
        "autoscaling must leave real unpowered capacity: {powered:.3}s \
         of {:.3}s",
        FLEET_CHAINS as f64 * report.makespan_s
    );
    // the always-on prefix is powered for the exact makespan
    assert_eq!(
        report.chains[0].powered_s.to_bits(),
        report.makespan_s.to_bits()
    );
    assert_eq!(
        report.chains[1].powered_s.to_bits(),
        report.makespan_s.to_bits()
    );
}
