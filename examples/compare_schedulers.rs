//! Run every scheduler in the registry on one model and compare
//! abstract objective, simulated throughput, and solving time — a
//! one-screen tour of the paper's trade-off space (heuristics vs
//! metaheuristics vs exact vs RL), driven entirely by name.
//!
//! ```text
//! cargo run --release --example compare_schedulers -- [model] [stages]
//! ```

use std::time::{Duration, Instant};

use respect::deploy::{self, Deployment};
use respect::graph::models;
use respect::sched::registry::BuildOptions;
use respect::tpu::device::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "Xception".into());
    let stages: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let (name, dag) = models::fig5()
        .into_iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(&wanted))
        .ok_or_else(|| format!("unknown model {wanted:?}"))?;
    let spec = DeviceSpec::coral();
    let options = BuildOptions::default()
        .with_cost_model(spec.cost_model())
        .with_time_budget(Duration::from_secs(10));

    // Warm the process-wide RESPECT policy cache so the timed loop below
    // measures scheduling, not one-off smoke training.
    let _ = deploy::scheduler("respect", &spec, &options)?;

    println!("{name}, {stages}-stage pipeline\n");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "scheduler", "objective(s)", "inf/s (sim)", "solve (s)"
    );
    for key in deploy::registry_names() {
        let scheduler = deploy::scheduler(key, &spec, &options)?;
        // time the solver alone; compile/simulate happen on the facade
        let t0 = Instant::now();
        let solved = scheduler.schedule(&dag, stages);
        let dt = t0.elapsed().as_secs_f64();
        match solved {
            Ok(_) => {
                let d = Deployment::of(&dag)
                    .stages(stages)
                    .device(spec)
                    .scheduler(scheduler)
                    .build()?;
                let ips = d.simulate(1_000)?.throughput_ips;
                println!(
                    "{:<28} {:>12.6} {:>12.1} {:>12.4}",
                    format!("{key} ({})", d.scheduler_name()),
                    d.objective(),
                    ips,
                    dt
                );
            }
            // `brute` refuses graphs this large instead of hanging
            Err(e) => println!("{key:<28} {:>38}", format!("skipped: {e}")),
        }
    }
    println!("\nlower objective should mean higher simulated throughput, up to");
    println!("the paper's 'performance modeling miscorrelation' (Sec. IV-A)");
    Ok(())
}
