//! Observability quickstart: run a fleet scenario with the probe layer
//! attached and export its artifacts.
//!
//! Attaches a `MetricsRecorder` and a `ChromeTraceRecorder` (fanned out
//! as a tuple probe) to an autoscaled 3-chain fleet serving a bursty
//! tenant, then writes:
//!
//! * a Chrome `trace_event` JSON — open it at <https://ui.perfetto.dev>
//!   (or `chrome://tracing`) to see per-chain, per-device busy spans
//!   and the control-plane markers (sheds, batches, autoscale steps);
//! * a Prometheus-style metrics exposition and its TSV twin.
//!
//! The probe never changes the run: the same scenario with the default
//! `NullProbe` produces a bitwise-identical report (asserted here).
//!
//! ```text
//! cargo run --release --example trace_export
//! ```

use std::fs;

use respect::deploy::Deployment;
use respect::graph::models;
use respect::obs::{ChromeTraceRecorder, MetricsRecorder};
use respect::serve::{
    serve_fleet, serve_fleet_probed, AutoscalePolicy, BatchPolicy, FleetConfig, RouterPolicy,
};
use respect::tpu::sim::Arrivals;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dag = models::resnet50();
    let deployment = Deployment::of(&dag)
        .stages(4)
        .partitioner("param-balanced")
        .build()?;
    let fleet = FleetConfig::homogeneous(3, *deployment.device())
        .with_router(RouterPolicy::JoinShortestBacklog)
        .with_autoscale(
            AutoscalePolicy::new()
                .with_check_jobs(8)
                .with_scale_up_s(0.010)
                .with_scale_down_s(0.002),
        );
    let tenant = || {
        deployment
            .tenant(800)
            .with_arrivals(Arrivals::Poisson {
                rate: 1_500.0,
                seed: 42,
            })
            .with_batcher(BatchPolicy::new(8, 2e-3))
    };

    // one run, two recorders: tuple probes fan the stream out
    let mut metrics = MetricsRecorder::new();
    let mut trace = ChromeTraceRecorder::new();
    let mut both = (&mut metrics, &mut trace);
    let report = serve_fleet_probed(&[tenant()], &fleet, &mut both)?;

    // the probe is an observer, never a participant
    let unprobed = serve_fleet(&[tenant()], &fleet)?;
    assert_eq!(report, unprobed, "probing must not change the run");

    let snap = metrics.snapshot();
    println!(
        "served {} requests over {} chains: p99 {:.2} ms, {} scale events, {} spans traced",
        report.offered(),
        report.chains.len(),
        report.p99_s() * 1e3,
        report.scale_event_log().len(),
        trace.len(),
    );

    let dir = std::env::temp_dir();
    let trace_path = dir.join("respect_trace.json");
    let prom_path = dir.join("respect_metrics.prom");
    let tsv_path = dir.join("respect_metrics.tsv");
    fs::write(&trace_path, trace.to_json())?;
    fs::write(&prom_path, snap.to_prometheus())?;
    fs::write(&tsv_path, snap.to_tsv())?;
    println!(
        "chrome trace:   {} (load in https://ui.perfetto.dev)",
        trace_path.display()
    );
    println!("metrics (prom): {}", prom_path.display());
    println!("metrics (tsv):  {}", tsv_path.display());

    for name in ["arrivals", "admitted", "shed", "completions", "scale_ups"] {
        println!("  {name} = {}", snap.counter(name).unwrap_or(0));
    }
    Ok(())
}
