//! Metrics-snapshot golden regression: the full Prometheus-style text
//! exposition of a [`respect::obs::MetricsRecorder`] attached to one
//! Table-I serving scenario is pinned byte-for-byte.
//!
//! Everything in the exposition is deterministic — counters are folds
//! over the (ordered) probe stream, gauges are IEEE-754 arithmetic
//! rendered with Rust's shortest-roundtrip `Display` — so any drift in
//! the engine's event sequence, the probe emission points, or the
//! exposition format fails loudly here.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RESPECT_REGEN_GOLDEN=1 cargo test --test metrics_golden
//! git diff tests/golden/metrics_snapshot.txt   # review the drift!
//! ```

use std::path::Path;

use respect::deploy::Deployment;
use respect::graph::models;
use respect::obs::MetricsRecorder;
use respect::serve::{serve_fleet_probed, AdmissionPolicy, BatchPolicy, FleetConfig, RouterPolicy};
use respect::tpu::sim::Arrivals;

const GOLDEN_PATH: &str = "tests/golden/metrics_snapshot.txt";

/// ResNet-50 (a Table-I model) on a 2-chain fleet: Poisson overload
/// against a queue bound, with dynamic batching — every admission,
/// batching, routing, and span counter is exercised.
fn run_exposition() -> String {
    let dag = models::resnet50();
    let deployment = Deployment::of(&dag)
        .stages(4)
        .partitioner("param-balanced")
        .build()
        .expect("deployment builds");
    let fleet = FleetConfig::homogeneous(2, *deployment.device())
        .with_router(RouterPolicy::JoinShortestBacklog);
    let tenant = deployment
        .tenant(400)
        .with_arrivals(Arrivals::Poisson {
            rate: 1_200.0,
            seed: 7,
        })
        .with_batcher(BatchPolicy::new(4, 2e-3))
        .with_admission(AdmissionPolicy::QueueBound { max_waiting: 16 });
    let mut metrics = MetricsRecorder::new();
    let report = serve_fleet_probed(&[tenant], &fleet, &mut metrics).expect("fleet run succeeds");
    let snap = metrics.snapshot();
    // the snapshot agrees with the report before we pin it
    assert_eq!(snap.counter("arrivals"), Some(report.offered() as u64));
    assert_eq!(snap.counter("admitted"), Some(report.admitted() as u64));
    assert_eq!(snap.counter("shed"), Some(report.shed() as u64));
    snap.to_prometheus()
}

#[test]
fn exposition_matches_golden_file() {
    let got = run_exposition();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("RESPECT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH} ({} lines)", got.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH} unreadable ({e}); regenerate it"));
    assert_eq!(
        got, golden,
        "metrics exposition drift against {GOLDEN_PATH} — review and \
         regenerate with RESPECT_REGEN_GOLDEN=1 if intentional"
    );
}

#[test]
fn exposition_is_deterministic_across_runs() {
    assert_eq!(run_exposition(), run_exposition());
}
