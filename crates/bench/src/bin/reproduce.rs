//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p respect_bench --bin reproduce -- all --quick
//! cargo run --release -p respect_bench --bin reproduce -- fig3
//! cargo run --release -p respect_bench --bin reproduce -- deploy --scheduler exact --quick
//! ```
//!
//! Experiments: `table1`, `fig3`, `fig4`, `fig5`, `ablation`, `sim`,
//! `serve`, `fleet`, `deploy`, `soak`, `all`. `--quick` restricts to
//! three models, two stage counts, and a seconds-scale policy; omit it
//! for the full 10/12-model sweep. `sim` sweeps the contended
//! discrete-event simulator over arrival rates and tenant counts;
//! `serve` sweeps the SLO-aware serving runtime over load × policy
//! bundle (beyond the paper: the online half of a production
//! deployment); `fleet` sweeps the multi-chain fleet layer over chain
//! count × router × diurnal load and writes `BENCH_fleet.json`
//! (`--out <path>` overrides); `deploy` runs the unified `Deployment`
//! facade end to end; `soak` runs the long-horizon event-engine
//! benchmark (serial vs scoped-thread sweep, bitwise cross-checked)
//! and writes `BENCH_soak.json` (`--out <path>` overrides,
//! `--threads <n>` pins the parallel sweep width). `soak` is not part
//! of `all`: it measures the engine, not the paper; `fleet` runs under
//! `all` but writes its JSON artifact only when invoked directly.
//!
//! `--scheduler <name>` picks the deployed partitioner by registry name
//! for the `sim`, `serve`, and `deploy` experiments (defaults:
//! `param-balanced`, `op-balanced`, `respect`). Pass a bogus name to
//! see the available ones.
//!
//! `serve`, `fleet`, and `soak` also accept `--metrics-out <path>` and
//! `--trace-out <path>`: after the sweep, a representative scenario of
//! that experiment family is re-run with the zero-cost probe layer
//! attached and the Prometheus-style metrics exposition / Chrome
//! `trace_event` JSON (Perfetto-loadable) are written to the given
//! paths. The probe never perturbs the run — the instrumented twin is
//! bitwise-identical to the unprobed scenario.

use std::time::Duration;

use respect_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scheduler = match args.iter().position(|a| a == "--scheduler") {
        Some(i) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(v) => Some(v.clone()),
            None => {
                eprintln!("--scheduler requires a registry name (e.g. --scheduler exact)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let scheduler = scheduler.as_deref();
    let which = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            let value_of_flag = *i > 0
                && [
                    "--scheduler",
                    "--out",
                    "--threads",
                    "--metrics-out",
                    "--trace-out",
                ]
                .contains(&args[i - 1].as_str());
            !(a.starts_with("--") || value_of_flag)
        })
        .map(|(_, a)| a.as_str())
        .unwrap_or("all");
    if let Some(name) = scheduler {
        let names = respect::deploy::registry_names();
        if !names.contains(&name) {
            eprintln!(
                "unknown scheduler {name:?}; available: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
    // per-instance exact-solver limit, like a practical ILP time limit
    let exact_budget = if quick {
        Duration::from_secs(5)
    } else {
        Duration::from_secs(15)
    };

    match which {
        "table1" => table1(),
        "fig3" => fig3(quick, exact_budget),
        "fig4" => fig4(quick, exact_budget),
        "fig5" => fig5(quick, exact_budget),
        "ablation" => ablation(quick),
        "sim" => sim_sweep(quick, scheduler),
        "serve" => {
            serve_sweep(quick, scheduler);
            export_observability(which, quick, &args);
        }
        "fleet" => {
            fleet_sweep(quick, scheduler, Some(&args));
            export_observability(which, quick, &args);
        }
        "deploy" => deploy(quick, scheduler),
        "soak" => {
            soak_bench(quick, &args);
            export_observability(which, quick, &args);
        }
        "all" => {
            table1();
            fig3(quick, exact_budget);
            fig4(quick, exact_budget);
            fig5(quick, exact_budget);
            ablation(quick);
            sim_sweep(quick, scheduler);
            serve_sweep(quick, scheduler);
            fleet_sweep(quick, scheduler, None);
            deploy(quick, scheduler);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use \
                 table1|fig3|fig4|fig5|ablation|sim|serve|fleet|deploy|soak|all"
            );
            std::process::exit(2);
        }
    }
}

/// The `--metrics-out` / `--trace-out` companion run: one
/// representative scenario of the experiment family (`serve` drives a
/// single chain, `fleet`/`soak` an autoscaled 3-chain fleet, `soak` at
/// a longer horizon), re-run with the zero-cost probe layer attached.
/// Writes the Prometheus-style metrics exposition and/or the Chrome
/// `trace_event` JSON to the requested paths. No-op without the flags.
fn export_observability(which: &str, quick: bool, args: &[String]) {
    use respect::deploy::Deployment;
    use respect::graph::models;
    use respect::obs::{ChromeTraceRecorder, MetricsRecorder};
    use respect::serve::{
        serve_fleet_probed, serve_probed, AdmissionPolicy, AutoscalePolicy, BatchPolicy,
        FleetConfig, RouterPolicy, ServeConfig,
    };
    use respect::tpu::sim::Arrivals;

    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
    };
    let metrics_out = flag_value("--metrics-out");
    let trace_out = flag_value("--trace-out");
    if metrics_out.is_none() && trace_out.is_none() {
        return;
    }
    let requests = match (which, quick) {
        ("soak", false) => 20_000,
        ("soak", true) => 2_000,
        (_, false) => 4_000,
        (_, true) => 400,
    };
    println!("\n== Observability export: instrumented {which} companion run ======");
    let dag = models::resnet50();
    let deployment = match Deployment::of(&dag)
        .stages(4)
        .partitioner("op-balanced")
        .build()
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("observability export: deployment failed: {e}");
            std::process::exit(1);
        }
    };
    let tenant = deployment
        .tenant(requests)
        .with_arrivals(Arrivals::Poisson {
            rate: 1_500.0,
            seed: 42,
        })
        .with_batcher(BatchPolicy::new(8, 2e-3))
        .with_admission(AdmissionPolicy::QueueBound { max_waiting: 64 });
    let mut metrics = MetricsRecorder::new();
    let mut trace = ChromeTraceRecorder::new();
    let mut both = (&mut metrics, &mut trace);
    let spec = *deployment.device();
    let run = if which == "serve" {
        serve_probed(&[tenant], &spec, &ServeConfig::contended(), &mut both)
            .map(|r| (r.offered(), r.admitted(), r.p99_s()))
    } else {
        let fleet = FleetConfig::homogeneous(3, spec)
            .with_router(RouterPolicy::JoinShortestBacklog)
            .with_autoscale(
                AutoscalePolicy::new()
                    .with_check_jobs(8)
                    .with_scale_up_s(0.010)
                    .with_scale_down_s(0.002),
            );
        serve_fleet_probed(&[tenant], &fleet, &mut both)
            .map(|r| (r.offered(), r.admitted(), r.p99_s()))
    };
    let (offered, admitted, p99_s) = match run {
        Ok(v) => v,
        Err(e) => {
            let e = respect::Error::from(e);
            eprintln!("observability export: {which} run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "instrumented run: {offered} offered, {admitted} admitted, p99 {:.2} ms, {} trace events",
        p99_s * 1e3,
        trace.len()
    );
    let write = |path: &str, contents: String, what: &str| match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = metrics_out {
        write(
            path,
            metrics.snapshot().to_prometheus(),
            "metrics exposition",
        );
    }
    if let Some(path) = trace_out {
        write(
            path,
            trace.to_json(),
            "chrome trace (load in https://ui.perfetto.dev)",
        );
    }
}

fn fleet_sweep(quick: bool, scheduler: Option<&str>, write_json: Option<&[String]>) {
    let scheduler = scheduler.unwrap_or("op-balanced");
    println!("\n== Fleet sweep: chains x router x diurnal load ====================");
    println!("partitioner: {scheduler}");
    println!(
        "{:<14} {:>3} {:>9} {:>5} {:>6} {:>5} {:>8} {:>8} {:>9} {:>8} {:>9} {:>6}",
        "model",
        "N",
        "router",
        "load",
        "admit",
        "shed",
        "thr ips",
        "p50 ms",
        "p99 ms",
        "J/req",
        "energy J",
        "scale"
    );
    let rows = experiments::fleet_sweep_with(quick, scheduler);
    for r in &rows {
        println!(
            "{:<14} {:>3} {:>9} {:>4.0}% {:>6} {:>5} {:>8.1} {:>8.2} {:>9.2} {:>8.4} {:>9.1} {:>6}",
            r.name,
            r.chains,
            r.router,
            r.load * 100.0,
            r.admitted,
            r.shed,
            r.throughput_ips,
            r.p50_ms,
            r.p99_ms,
            r.energy_per_request_j,
            r.energy_j,
            r.scale_events
        );
    }
    println!("reading: load is the diurnal cycle mean vs N x one batched chain's");
    println!("capacity (the wave swings ±50%); 'jsb+auto' powers chains on demand");
    if let Some(args) = write_json {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
            .map_or("BENCH_fleet.json", |v| v.as_str());
        let json = experiments::fleet_json(quick, scheduler, &rows);
        match std::fs::write(out, &json) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => {
                eprintln!("could not write {out}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn soak_bench(quick: bool, args: &[String]) {
    use respect_bench::soak;

    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
    };
    let threads = match flag_value("--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--threads requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
        None => 0,
    };
    let out = flag_value("--out").map_or("BENCH_soak.json", |v| v.as_str());

    println!("\n== Soak: long-horizon event engine =================================");
    let cfg = soak::SoakConfig { quick, threads };
    let r = soak::soak(&cfg);
    println!(
        "{:<42} {:>6} {:>10} {:>10} {:>8}",
        "point", "10^6ev", "sim (s)", "wall (s)", "Mev/s"
    );
    for p in &r.points {
        println!(
            "{:<42} {:>6.1} {:>10.1} {:>10.3} {:>8.2}",
            p.label,
            p.events as f64 / 1e6,
            p.simulated_s,
            p.wall_s,
            p.events_per_s() / 1e6
        );
    }
    println!(
        "total: {:.1}M events over {:.2} simulated hours; every point bitwise-identical serial vs parallel",
        r.total_events as f64 / 1e6,
        r.total_simulated_hours
    );
    println!(
        "serial {:.2}s ({:.2} Mev/s) -> {}-thread {:.2}s ({:.2}x sweep)",
        r.serial_s,
        r.events_per_s() / 1e6,
        r.threads,
        r.parallel_s,
        r.sweep_speedup()
    );
    let json = soak::to_json(&r);
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn deploy(quick: bool, scheduler: Option<&str>) {
    let scheduler = scheduler.unwrap_or("respect");
    println!("\n== Deploy: schedule -> compile -> simulate via Deployment ========");
    println!("partitioner: {scheduler}");
    println!(
        "{:<20} {:>3} {:>14} {:>10} {:>12} {:>10}",
        "model", "k", "objective (s)", "inf/s", "streamed MB", "build (s)"
    );
    for r in experiments::deploy_sweep(quick, scheduler) {
        println!(
            "{:<20} {:>3} {:>14.6} {:>10.1} {:>12.2} {:>10.4}",
            r.name, r.stages, r.objective_s, r.throughput_ips, r.streamed_mb, r.build_s
        );
    }
    println!("reading: one fluent chain per row; 'build' is schedule + compile");
}

fn table1() {
    println!("\n== Table I: DNN model statistics =================================");
    println!(
        "{:<20} {:>6} {:>7} {:>7} {:>10}",
        "model", "|V|", "deg(V)", "depth", "params MB"
    );
    for r in experiments::table1() {
        println!(
            "{:<20} {:>6} {:>7} {:>7} {:>10.1}",
            r.name, r.nodes, r.deg, r.depth, r.param_mb
        );
    }
}

fn fig3(quick: bool, budget: Duration) {
    println!("\n== Fig. 3: schedule solving time (speedups of RL) ================");
    println!(
        "{:<20} {:>5} {:>3} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "model", "|V|", "k", "RL (s)", "compiler(s)", "exact (s)", "xCompiler", "xExact"
    );
    let rows = experiments::fig3(quick, budget);
    for r in &rows {
        println!("{}", fig3_line(r));
    }
    let max_c = rows
        .iter()
        .map(|r| r.speedup_vs_compiler())
        .fold(0.0, f64::max);
    // the largest ×exact, and whether it divides by a budget
    let (max_e, max_e_bound) = rows
        .iter()
        .map(|r| (r.speedup_vs_exact(), !r.exact_proven))
        .fold((0.0, false), |m, e| if e.0 > m.0 { e } else { m });
    println!("paper: 24-683x over compiler, 100-930x over exact");
    println!(
        "ours:  up to {max_c:.0}x over compiler, up to {}{max_e:.0}x over exact",
        if max_e_bound { "≥" } else { "" }
    );
}

/// One Fig. 3 row; an unproven row's ×exact cell is a lower bound, `≥`.
fn fig3_line(r: &experiments::Fig3Row) -> String {
    let bound = if r.exact_proven { "" } else { "≥" };
    format!(
        "{:<20} {:>5} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>9.1} {:>9}",
        r.name,
        r.nodes,
        r.stages,
        r.t_respect_s,
        r.t_compiler_s,
        r.t_exact_s,
        r.speedup_vs_compiler(),
        format!("{bound}{:.1}", r.speedup_vs_exact())
    )
}

fn fig4(quick: bool, budget: Duration) {
    println!("\n== Fig. 4: pipelined inference runtime (normalized, compiler=1) ==");
    println!(
        "{:<20} {:>3} {:>14} {:>9} {:>9}",
        "model", "k", "compiler (s)", "exact", "RESPECT"
    );
    let rows = experiments::fig4(quick, budget);
    for r in &rows {
        println!(
            "{:<20} {:>3} {:>14.6} {:>9.3} {:>9.3}",
            r.name, r.stages, r.compiler_s, r.exact_rel, r.respect_rel
        );
    }
    for stages in [4, 5, 6] {
        let sel: Vec<&experiments::Fig4Row> = rows.iter().filter(|r| r.stages == stages).collect();
        if sel.is_empty() {
            continue;
        }
        let best = sel.iter().map(|r| 1.0 / r.respect_rel).fold(0.0, f64::max);
        let mean = sel.iter().map(|r| 1.0 / r.respect_rel).sum::<f64>() / sel.len() as f64;
        println!("{stages}-stage: RESPECT speedup over compiler mean {mean:.2}x, best {best:.2}x");
    }
    println!("paper: mean 1.06x/1.08x/1.65x for 4/5/6 stages, best 2.5x");
}

fn fig5(quick: bool, budget: Duration) {
    println!("\n== Fig. 5: parameter caching vs the exact schedule (peak MB/stage) =");
    println!("exact MB: peak of the latency-optimal schedule; gap < 0: RESPECT's is lower");
    println!(
        "{:<20} {:>3} {:>12} {:>12} {:>8}",
        "model", "k", "exact MB", "RESPECT MB", "gap %"
    );
    let rows = experiments::fig5(quick, budget);
    for r in &rows {
        println!(
            "{:<20} {:>3} {:>12.2} {:>12.2} {:>8.2}",
            r.name,
            r.stages,
            r.exact_mb,
            r.respect_mb,
            r.gap_pct()
        );
    }
    for (stages, gap) in experiments::fig5_mean_gaps(&rows) {
        println!("{stages}-stage mean gap: {gap:.2}%");
    }
    println!("paper: 2.26% / 2.74% / 6.31% mean gap for 4 / 5 / 6 stages");
}

fn sim_sweep(quick: bool, scheduler: Option<&str>) {
    let scheduler = scheduler.unwrap_or("param-balanced");
    println!("\n== Simulator sweep: contended bus, tenants x arrival rates =======");
    println!("partitioner: {scheduler}");
    println!(
        "{:<20} {:>3} {:>7} {:>6} {:>10} {:>10} {:>12} {:>10}",
        "model", "T", "load", "solo", "offered", "achieved", "latency ms", "degr %"
    );
    for r in experiments::sim_sweep_with(quick, scheduler) {
        let load = if r.load == 0.0 {
            "closed".to_string()
        } else {
            format!("{:.0}%", r.load * 100.0)
        };
        println!(
            "{:<20} {:>3} {:>7} {:>6.0} {:>10.1} {:>10.1} {:>12.3} {:>10.2}",
            r.name,
            r.tenants,
            load,
            r.solo_ips,
            r.offered_ips,
            r.achieved_ips,
            r.mean_latency_ms,
            r.degradation_pct
        );
    }
    println!("reading: 'degr %' is aggregate loss vs ideal scaling of the solo capacity");
    println!("(closed rows: Tx solo; open-loop rows: the offered rate)");
}

fn serve_sweep(quick: bool, scheduler: Option<&str>) {
    let scheduler = scheduler.unwrap_or("op-balanced");
    println!("\n== Serving sweep: load x policy on the SLO-aware runtime ==========");
    println!("partitioner: {scheduler}");
    println!(
        "{:<14} {:>5} {:>7} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10} {:>6}",
        "model",
        "load",
        "policy",
        "admit",
        "shed",
        "batch",
        "thr ips",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "swaps"
    );
    for r in experiments::serve_sweep_with(quick, scheduler) {
        println!(
            "{:<14} {:>4.0}% {:>7} {:>6} {:>6} {:>6.2} {:>8.1} {:>9.2} {:>9.2} {:>10.2} {:>6}",
            r.name,
            r.load * 100.0,
            r.policy,
            r.admitted,
            r.shed,
            r.mean_job_requests,
            r.throughput_ips,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.swaps
        );
    }
    println!("reading: 'static' is the frozen compiled deployment; 'batch' adds the");
    println!("dynamic batcher; 'serve' adds SLO admission + live re-partitioning");
}

fn ablation(quick: bool) {
    println!("\n== Ablation: learned order vs cost-aware packing (objective, s) ==");
    println!(
        "{:<20} {:>3} {:>12} {:>12} {:>12} {:>12}",
        "model", "k", "balanced", "pack(dflt)", "RL+eqcut", "RESPECT"
    );
    for r in experiments::ablation(quick) {
        println!(
            "{:<20} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            r.name,
            r.stages,
            r.balanced_default,
            r.pack_default,
            r.respect_equal_cut,
            r.respect_full
        );
    }
    println!("reading: pack(dflt) isolates rho; RL+eqcut isolates the learned order");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(exact_proven: bool) -> experiments::Fig3Row {
        experiments::Fig3Row {
            name: "ResNet50",
            nodes: 177,
            stages: 6,
            t_respect_s: 0.001,
            t_compiler_s: 2.0,
            t_exact_s: 5.0,
            exact_proven,
        }
    }

    #[test]
    fn fig3_marks_only_an_unproven_exact_ratio_as_a_lower_bound() {
        let unproven = fig3_line(&row(false));
        let proven = fig3_line(&row(true));
        assert!(unproven.ends_with("   ≥5000.0"), "{unproven:?}");
        assert!(proven.ends_with("    5000.0"), "{proven:?}");
        assert!(!proven.contains('≥'), "{proven:?}");
        assert_eq!(unproven.chars().count(), proven.chars().count());
    }
}
