//! Fleet-scale serving quickstart: one `Deployment`, three fleet shapes.
//!
//! Deploys DenseNet-121 on 6-TPU chains once, offers a diurnal request
//! stream sized for a whole fleet, and shows the three regimes of
//! horizontal scaling:
//!
//! 1. **one chain** drowns — the cycle mean alone is several times its
//!    capacity and p99 blows the SLO;
//! 2. a **12-chain fleet** behind join-shortest-backlog routing holds
//!    the same SLO on the same arrival stream;
//! 3. **autoscaling** powers chains with the diurnal wave, trading a
//!    little tail latency for a much smaller energy bill.
//!
//! ```text
//! cargo run --release --example fleet_slo
//! ```

use respect::deploy::Deployment;
use respect::graph::models;
use respect::serve::{
    serve_fleet, AutoscalePolicy, BatchPolicy, FleetConfig, FleetReport, RouterPolicy, ServeTenant,
};
use respect::tpu::sim::Arrivals;

const CHAINS: usize = 12;

fn main() -> Result<(), respect::Error> {
    let dag = models::densenet121();
    let deployment = Deployment::of(&dag)
        .stages(6)
        .partitioner("op-balanced")
        .build()?;
    let fleet = |n: usize| {
        FleetConfig::homogeneous(n, *deployment.device())
            .with_router(RouterPolicy::JoinShortestBacklog)
    };
    let slo_p99_ms = 250.0;

    // batched closed-loop capacity of one chain
    let closed = deployment
        .tenant(1_000)
        .with_warmup(100)
        .with_batcher(BatchPolicy::new(8, 5e-3));
    let chain_cap = serve_fleet(&[closed], &fleet(1))?.tenants[0].throughput_ips;
    println!("one chain: op-balanced, 6 stages, capacity {chain_cap:.0} ips");
    println!("SLO: p99 <= {slo_p99_ms:.0} ms\n");

    // a diurnal day/night wave whose cycle mean is 7 chains' worth of
    // load (peak: 10.5) — hopeless for one chain, comfortable for 12
    let n = 8_000;
    let diurnal = Arrivals::Diurnal {
        mean_rate: 7.0 * chain_cap,
        amplitude: 0.5,
        period_s: 4.0,
        seed: 1713,
    };
    let tenant = || -> ServeTenant {
        deployment
            .tenant(n)
            .with_arrivals(diurnal)
            .with_warmup(n / 20)
            .with_batcher(BatchPolicy::new(8, 5e-3))
    };

    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>9} {:>10} {:>7}",
        "configuration", "chains", "p50 ms", "p99 ms", "thr ips", "energy J", "J/req"
    );
    let show = |name: &str, r: &FleetReport| {
        let slo = if r.p99_s() * 1e3 <= slo_p99_ms {
            "meets SLO"
        } else {
            "VIOLATES SLO"
        };
        let per_req = r.total_energy_j() / r.histogram.count().max(1) as f64;
        println!(
            "{:<22} {:>8} {:>9.1} {:>9.1} {:>9.0} {:>10.1} {:>7.4}   {slo}",
            name,
            r.chains.len(),
            r.p50_s() * 1e3,
            r.p99_s() * 1e3,
            r.tenants[0].throughput_ips,
            r.total_energy_j(),
            per_req,
        );
    };

    // 1. the same stream on one chain: decisively over the SLO
    show("one chain", &serve_fleet(&[tenant()], &fleet(1))?);

    // 2. the routed fleet holds it
    let report = serve_fleet(&[tenant()], &fleet(CHAINS))?;
    show("12-chain fleet", &report);

    // 3. autoscaled: chains power up through the day peak, down at night
    let autoscaled = fleet(CHAINS).with_autoscale(
        AutoscalePolicy::new()
            .with_min_chains(2)
            .with_scale_up_s(0.040)
            .with_scale_down_s(0.004)
            .with_check_jobs(16),
    );
    let auto_report = serve_fleet(&[tenant()], &autoscaled)?;
    show("12-chain, autoscaled", &auto_report);
    println!(
        "\nautoscaler: {} decisions; powered chain-seconds {:.1} of {:.1} always-on",
        auto_report.scale_events.len(),
        auto_report.chains.iter().map(|c| c.powered_s).sum::<f64>(),
        CHAINS as f64 * auto_report.makespan_s,
    );
    println!("every number above is bitwise-reproducible per seed");
    Ok(())
}
