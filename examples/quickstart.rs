//! Quickstart: train a small RESPECT policy on synthetic graphs and
//! deploy ResNet-50 onto a 4-stage pipelined Edge TPU system: the
//! `Deployment` facade schedules and compiles, then streams inferences.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use respect::core::{train_policy, RespectScheduler, TrainConfig};
use respect::deploy::Deployment;
use respect::graph::models;
use respect::tpu::DeviceSpec;

fn main() -> Result<(), respect::Error> {
    // 1. Train on synthetic 30-node graphs only (the paper's
    //    data-independent setup). `laptop()` takes a couple of minutes;
    //    swap in `TrainConfig::smoke_test()` for a seconds-scale demo.
    let mut config = TrainConfig::smoke_test();
    config.dataset.graphs = 16;
    println!(
        "training policy on {} synthetic graphs...",
        config.dataset.graphs
    );
    let policy = train_policy(&config)?;

    // 2. Deploy a real ImageNet model the policy has never seen:
    //    schedule + compile in one chained expression.
    let dag = models::resnet50();
    let stages = 4;
    let deployment = Deployment::of(&dag)
        .stages(stages)
        .device(DeviceSpec::coral())
        .scheduler(Box::new(RespectScheduler::new(policy)))
        .build()?;
    assert!(deployment.schedule().is_valid(&dag));

    println!("\nResNet-50 on a {stages}-stage pipeline:");
    for seg in &deployment.pipeline().segments {
        println!(
            "  stage {}: {:>3} ops, {:>5.1} MB params ({:>4.1} MB streamed), {:>6.1} KB in",
            seg.stage,
            seg.nodes.len(),
            seg.param_bytes as f64 / 1e6,
            seg.streamed_bytes as f64 / 1e6,
            seg.input_bytes as f64 / 1e3,
        );
    }

    // 3. Simulate 1 000 pipelined inferences (the paper's Fig. 4 metric).
    let report = deployment.simulate(1_000)?;
    println!(
        "\n1000 inferences: {:.3} s total, {:.1} inf/s, bottleneck stage {}",
        report.total_s, report.throughput_ips, report.bottleneck_stage
    );
    Ok(())
}
