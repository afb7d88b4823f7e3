//! SLO-aware online serving quickstart: a `Deployment` served by `serve`.
//!
//! Deploys DenseNet-121 on a 6-TPU chain with a deliberately weak
//! partition (op-count balancing), offers it a bursty MMPP request
//! stream, and shows the three regimes a production deployment moves
//! through:
//!
//! 1. the **static** compiled schedule drowns — queues grow through
//!    every burst and p99 blows the SLO;
//! 2. the **serving runtime** (dynamic batching + live re-partitioning)
//!    restores the SLO on the same arrival stream;
//! 3. under **2× overload**, SLO admission control sheds load
//!    deterministically and keeps the admitted tail bounded.
//!
//! ```text
//! cargo run --release --example serve_slo
//! ```

use respect::deploy::Deployment;
use respect::graph::models;
use respect::serve::{serve, AdmissionPolicy, BatchPolicy, DriftPolicy, ServeConfig, ServeTenant};
use respect::tpu::sim::Arrivals;

fn main() -> Result<(), respect::Error> {
    let dag = models::densenet121();
    let deployment = Deployment::of(&dag)
        .stages(6)
        .partitioner("op-balanced")
        .build()?;
    let cfg = ServeConfig::contended();
    let slo_p99_ms = 250.0;

    // static closed-loop capacity of the deployed partition
    let closed = deployment.tenant(600).with_warmup(60);
    let spec = deployment.device();
    let static_cap = serve(&[closed], spec, &cfg)?.tenants[0].throughput_ips;
    println!("deployed partition: op-balanced, 6 stages, capacity {static_cap:.0} ips");
    println!("SLO: p99 <= {slo_p99_ms:.0} ms\n");

    let n = 2_000;
    let bursty = Arrivals::Mmpp {
        low_rate: 0.8 * static_cap,
        high_rate: 1.8 * static_cap,
        mean_dwell_s: 0.5,
        seed: 1713,
    };
    let repartitioner = deployment.repartitioner().with_policy(
        DriftPolicy::new()
            .with_window_jobs(24)
            .with_threshold(0.08)
            .with_max_swaps(3),
    );

    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "configuration", "p50 ms", "p99 ms", "thr ips", "shed", "batch", "swaps"
    );
    let show = |name: &str, tenant: ServeTenant| -> Result<(), respect::Error> {
        let t = serve(&[tenant], spec, &cfg)?.tenants.remove(0);
        let slo = if t.p99_s() * 1e3 <= slo_p99_ms {
            "meets SLO"
        } else {
            "VIOLATES SLO"
        };
        println!(
            "{:<22} {:>9.1} {:>9.1} {:>9.0} {:>7} {:>6.2} {:>6}   {slo}",
            name,
            t.p50_s() * 1e3,
            t.p99_s() * 1e3,
            t.throughput_ips,
            t.shed,
            t.mean_job_requests,
            t.swaps.len(),
        );
        Ok(())
    };

    // 1. frozen compiled schedule
    show(
        "static schedule",
        deployment.tenant(n).with_arrivals(bursty).with_warmup(100),
    )?;

    // 2. the serving runtime on the same stream
    show(
        "serving runtime",
        deployment
            .tenant(n)
            .with_arrivals(bursty)
            .with_warmup(100)
            .with_batcher(BatchPolicy::new(8, 5e-3))
            .with_repartitioner(repartitioner.clone()),
    )?;

    // 3. 2x overload, with and without admission control
    let overload = Arrivals::Poisson {
        rate: 4.0 * static_cap,
        seed: 77,
    };
    show(
        "2x overload, open",
        deployment
            .tenant(n)
            .with_arrivals(overload)
            .with_warmup(100)
            .with_batcher(BatchPolicy::new(8, 5e-3))
            .with_repartitioner(repartitioner.clone()),
    )?;
    show(
        "2x overload, shedding",
        deployment
            .tenant(n)
            .with_arrivals(overload)
            .with_warmup(100)
            .with_batcher(BatchPolicy::new(8, 5e-3))
            .with_admission(AdmissionPolicy::SloDelay { target_s: 0.050 })
            .with_repartitioner(repartitioner),
    )?;

    println!("\nevery number above is bitwise-reproducible per seed");
    Ok(())
}
