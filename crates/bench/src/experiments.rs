//! The paper's experiments as reusable row generators. Each function
//! returns structured rows; the `reproduce` binary renders them.

use std::time::{Duration, Instant};

use respect::deploy::{self, Deployment};
use respect_graph::models;
use respect_sched::registry::BuildOptions;
use respect_sched::{order, pack, Scheduler};
use respect_serve::{
    serve, serve_fleet, AdmissionPolicy, AutoscalePolicy, BatchPolicy, DriftPolicy, FleetConfig,
    Repartitioner, RouterPolicy, ServeConfig, ServeTenant,
};
use respect_tpu::compile;
use respect_tpu::device::DeviceSpec;
use respect_tpu::sim::{self, Arrivals, SimConfig, Workload};

use crate::{
    fig5_suite, model_suite, peak_param_mb, simulated_inference_s, timed_schedule, Competitors,
    PolicyScale, STAGE_COUNTS,
};

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name.
    pub name: &'static str,
    /// Node count `|V|`.
    pub nodes: usize,
    /// Maximum in-degree `deg(V)`.
    pub deg: usize,
    /// Longest path (edges).
    pub depth: usize,
    /// Total int8 parameter megabytes (ours; not in the paper's table).
    pub param_mb: f64,
}

/// Regenerates Table I from the model zoo.
pub fn table1() -> Vec<Table1Row> {
    models::table1()
        .into_iter()
        .map(|(name, dag)| Table1Row {
            name,
            nodes: dag.len(),
            deg: dag.max_in_degree(),
            depth: dag.depth(),
            param_mb: dag.total_param_bytes() as f64 / 1.0e6,
        })
        .collect()
}

/// One point of Fig. 3 (solving-time comparison).
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Model name.
    pub name: &'static str,
    /// Graph size `|V|`.
    pub nodes: usize,
    /// Pipeline stages.
    pub stages: usize,
    /// RESPECT solving time, seconds.
    pub t_respect_s: f64,
    /// Commercial-compiler solving time, seconds.
    pub t_compiler_s: f64,
    /// Exact-method solving time, seconds.
    pub t_exact_s: f64,
}

impl Fig3Row {
    /// RL speedup over the compiler (the blue series of Fig. 3).
    pub fn speedup_vs_compiler(&self) -> f64 {
        self.t_compiler_s / self.t_respect_s
    }

    /// RL speedup over the exact method (the red series of Fig. 3).
    pub fn speedup_vs_exact(&self) -> f64 {
        self.t_exact_s / self.t_respect_s
    }
}

/// Regenerates Fig. 3: schedule-solving time of the three methods over
/// the model suite and stage counts.
pub fn fig3(quick: bool, exact_budget: Duration) -> Vec<Fig3Row> {
    let comp = Competitors::new(scale(quick), exact_budget);
    let mut rows = Vec::new();
    for (name, dag) in model_suite(quick) {
        for &stages in stage_counts(quick) {
            let (_, t_r) = timed_schedule(&comp.respect, &dag, stages);
            let (_, t_c) = timed_schedule(&comp.compiler, &dag, stages);
            let (_, t_e) = timed_schedule(&comp.ilp, &dag, stages);
            rows.push(Fig3Row {
                name,
                nodes: dag.len(),
                stages,
                t_respect_s: t_r.as_secs_f64(),
                t_compiler_s: t_c.as_secs_f64(),
                t_exact_s: t_e.as_secs_f64(),
            });
        }
    }
    rows
}

/// One point of Fig. 4 (simulated on-chip inference runtime, normalized
/// to the commercial compiler).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Model name.
    pub name: &'static str,
    /// Pipeline stages.
    pub stages: usize,
    /// Compiler average inference seconds (the normalization base).
    pub compiler_s: f64,
    /// Exact method, relative to the compiler (1.0 = parity).
    pub exact_rel: f64,
    /// RESPECT, relative to the compiler.
    pub respect_rel: f64,
}

/// Regenerates Fig. 4: 1 000-inference pipelined runtime per scheduler,
/// normalized to the Edge TPU compiler baseline.
pub fn fig4(quick: bool, exact_budget: Duration) -> Vec<Fig4Row> {
    let comp = Competitors::new(scale(quick), exact_budget);
    let spec = DeviceSpec::coral();
    let mut rows = Vec::new();
    for (name, dag) in model_suite(quick) {
        for &stages in stage_counts(quick) {
            let (s_c, _) = timed_schedule(&comp.compiler, &dag, stages);
            let (s_e, _) = timed_schedule(&comp.exact, &dag, stages);
            let (s_r, _) = timed_schedule(&comp.respect, &dag, stages);
            let base = simulated_inference_s(&dag, &s_c, &spec);
            rows.push(Fig4Row {
                name,
                stages,
                compiler_s: base,
                exact_rel: simulated_inference_s(&dag, &s_e, &spec) / base,
                respect_rel: simulated_inference_s(&dag, &s_r, &spec) / base,
            });
        }
    }
    rows
}

/// One point of Fig. 5 (parameter caching against the exact schedule).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Model name.
    pub name: &'static str,
    /// Pipeline stages.
    pub stages: usize,
    /// Peak per-stage parameter memory of [`ExactScheduler`]'s schedule,
    /// MB. That schedule minimizes the bottleneck latency, not this
    /// peak, so RESPECT can come in below it.
    ///
    /// [`ExactScheduler`]: respect_sched::exact::ExactScheduler
    pub exact_mb: f64,
    /// RESPECT peak per-stage parameter memory, MB.
    pub respect_mb: f64,
}

impl Fig5Row {
    /// Signed relative gap to the exact schedule's peak, in percent:
    /// negative when RESPECT's peak is the lower one.
    pub fn gap_pct(&self) -> f64 {
        (self.respect_mb - self.exact_mb) / self.exact_mb * 100.0
    }
}

/// Regenerates Fig. 5: peak per-stage parameter memory of RESPECT vs the
/// exact (latency-optimal) schedule over the 12-model suite.
pub fn fig5(quick: bool, exact_budget: Duration) -> Vec<Fig5Row> {
    let comp = Competitors::new(scale(quick), exact_budget);
    let model = DeviceSpec::coral().cost_model();
    let mut rows = Vec::new();
    for (name, dag) in fig5_suite(quick) {
        for &stages in stage_counts(quick) {
            let (s_e, _) = timed_schedule(&comp.exact, &dag, stages);
            let (s_r, _) = timed_schedule(&comp.respect, &dag, stages);
            rows.push(Fig5Row {
                name,
                stages,
                exact_mb: peak_param_mb(&dag, &s_e, &model),
                respect_mb: peak_param_mb(&dag, &s_r, &model),
            });
        }
    }
    rows
}

/// Mean signed Fig. 5 gap per stage count (the paper reports 2.26 /
/// 2.74 / 6.31 % for 4 / 5 / 6 stages).
pub fn fig5_mean_gaps(rows: &[Fig5Row]) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for &stages in STAGE_COUNTS.iter() {
        let gaps: Vec<f64> = rows
            .iter()
            .filter(|r| r.stages == stages)
            .map(Fig5Row::gap_pct)
            .collect();
        if !gaps.is_empty() {
            out.push((stages, gaps.iter().sum::<f64>() / gaps.len() as f64));
        }
    }
    out
}

/// One row of the ablation study: isolates the contribution of the
/// learned order vs the cost-aware packing `ρ`.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Model name.
    pub name: &'static str,
    /// Pipeline stages.
    pub stages: usize,
    /// Bottleneck objective: compiler heuristic (default order, balanced
    /// parameter cuts).
    pub balanced_default: f64,
    /// Default order packed by the `ρ` DP (packing only).
    pub pack_default: f64,
    /// RESPECT order with naive equal-node cuts (learned order only).
    pub respect_equal_cut: f64,
    /// Full RESPECT (learned order + `ρ` DP).
    pub respect_full: f64,
}

/// Regenerates the ablation: each scheduler component on/off.
pub fn ablation(quick: bool) -> Vec<AblationRow> {
    let spec = DeviceSpec::coral();
    let model = spec.cost_model();
    let comp = Competitors::new(scale(quick), Duration::from_secs(5));
    let mut rows = Vec::new();
    for (name, dag) in model_suite(quick) {
        for &stages in &[4usize, 6] {
            let balanced = respect_sched::balanced::ParamBalanced::new()
                .schedule(&dag, stages)
                .expect("valid");
            let (pack_default, _) = pack::pack_default(&dag, stages, &model);
            let pi = comp.respect.predict_sequence(&dag);
            let n = dag.len();
            let equal_cuts: Vec<usize> = (1..stages).map(|k| k * n / stages).collect();
            let equal = respect_sched::Schedule::from_cuts(&pi, &equal_cuts, stages);
            let (full, _) = pack::pack(&dag, &pi, stages, &model);
            let _ = order::positions(&dag, &pi);
            rows.push(AblationRow {
                name,
                stages,
                balanced_default: model.objective(&dag, &balanced),
                pack_default: model.objective(&dag, &pack_default),
                respect_equal_cut: model.objective(&dag, &equal),
                respect_full: model.objective(&dag, &full),
            });
        }
    }
    rows
}

/// One point of the simulator scenario sweep: a model under a tenant
/// count and an offered load, on the contended discrete-event simulator.
#[derive(Debug, Clone)]
pub struct SimSweepRow {
    /// Model name (all tenants run the same model).
    pub name: &'static str,
    /// Pipeline stages (devices in the chain).
    pub stages: usize,
    /// Co-resident tenants sharing the chain and bus.
    pub tenants: usize,
    /// Offered load as a fraction of solo closed-loop capacity
    /// (0 = closed loop).
    pub load: f64,
    /// Solo closed-loop capacity, inferences/s.
    pub solo_ips: f64,
    /// Aggregate offered rate, inferences/s (0 for closed loop).
    pub offered_ips: f64,
    /// Aggregate achieved throughput across tenants, inferences/s.
    pub achieved_ips: f64,
    /// Mean sojourn latency across tenants, milliseconds.
    pub mean_latency_ms: f64,
    /// Aggregate throughput loss vs `tenants x` ideal scaling, percent.
    pub degradation_pct: f64,
}

/// Resolves a partitioner name through the full deploy registry (the
/// `respect_sched` builtins plus `"respect"`/`"profiling"`).
///
/// # Panics
///
/// Panics on unknown names, listing the available ones.
fn registry_scheduler(name: &str, spec: &DeviceSpec) -> Box<dyn Scheduler> {
    deploy::registry(spec)
        .build(
            name,
            &BuildOptions::default()
                .with_cost_model(spec.cost_model())
                // anytime solvers (ilp/exact) get the practical per-model
                // cap the figure experiments use; other entries ignore it
                .with_time_budget(Duration::from_secs(10)),
        )
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Schedules `dag` with a sweep partitioner, or explains the skip
/// (e.g. `brute` refuses models beyond its exhaustive-search cap).
fn sweep_schedule(
    partitioner: &dyn Scheduler,
    name: &str,
    dag: &respect_graph::Dag,
    stages: usize,
) -> Option<respect_sched::Schedule> {
    match partitioner.schedule(dag, stages) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("skipping {name}: {} refused: {e}", partitioner.name());
            None
        }
    }
}

/// Sweeps the contended discrete-event simulator over tenant counts and
/// open-loop arrival rates for the Table I models (quick: three models).
///
/// Schedules come from the parameter-balancing heuristic so the sweep
/// needs no trained policy; the load axis is normalized per model to its
/// solo closed-loop capacity.
pub fn sim_sweep(quick: bool) -> Vec<SimSweepRow> {
    sim_sweep_with(quick, "param-balanced")
}

/// As [`sim_sweep`], deployed with any registry partitioner.
pub fn sim_sweep_with(quick: bool, scheduler: &str) -> Vec<SimSweepRow> {
    let spec = DeviceSpec::coral();
    let stages = 4;
    let requests = if quick { 200 } else { 600 };
    let tenant_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let loads: &[f64] = &[0.0, 0.5, 0.9]; // 0.0 = closed loop
    let cfg = SimConfig::contended();
    let partitioner = registry_scheduler(scheduler, &spec);
    let mut rows = Vec::new();
    for (name, dag) in model_suite(quick) {
        let Some(schedule) = sweep_schedule(partitioner.as_ref(), name, &dag, stages) else {
            continue;
        };
        let pipeline = compile::compile(&dag, &schedule, &spec).expect("compiles");
        // same warm-up window as the sweep rows, so the baseline and the
        // contended measurements are both steady state
        let solo = sim::run(
            &[Workload::closed_loop(pipeline.clone(), requests).with_warmup(requests / 10)],
            &spec,
            &cfg,
        )
        .expect("solo run")
        .tenants[0]
            .throughput_ips;
        for &tenants in tenant_counts {
            for &load in loads {
                let per_tenant_rate = load * solo / tenants as f64;
                let workloads: Vec<Workload> = (0..tenants)
                    .map(|i| {
                        let wl =
                            Workload::new(pipeline.clone(), requests).with_warmup(requests / 10);
                        if load == 0.0 {
                            wl
                        } else {
                            wl.with_arrivals(Arrivals::Poisson {
                                rate: per_tenant_rate,
                                seed: 0x51b_u64 + i as u64,
                            })
                        }
                    })
                    .collect();
                let report = sim::run(&workloads, &spec, &cfg).expect("sweep run");
                let achieved: f64 = report.tenants.iter().map(|t| t.throughput_ips).sum();
                let mean_latency_ms = report.tenants.iter().map(|t| t.mean_latency_s).sum::<f64>()
                    / tenants as f64
                    * 1e3;
                let ideal = if load == 0.0 {
                    solo * tenants as f64
                } else {
                    load * solo
                };
                rows.push(SimSweepRow {
                    name,
                    stages,
                    tenants,
                    load,
                    solo_ips: solo,
                    offered_ips: load * solo,
                    achieved_ips: achieved,
                    mean_latency_ms,
                    degradation_pct: (1.0 - achieved / ideal) * 100.0,
                });
            }
        }
    }
    rows
}

/// One point of the serving sweep: a deployed model under an offered
/// load and a serving-policy bundle, on the contended discrete-event
/// serving runtime.
#[derive(Debug, Clone)]
pub struct ServeSweepRow {
    /// Model name.
    pub name: &'static str,
    /// Pipeline stages (devices in the chain).
    pub stages: usize,
    /// Offered load as a fraction of the deployment's static
    /// closed-loop capacity.
    pub load: f64,
    /// Serving-policy bundle (`static`, `batch`, `serve`).
    pub policy: &'static str,
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Mean requests per dynamic batch.
    pub mean_job_requests: f64,
    /// Measured-window throughput, inferences per second.
    pub throughput_ips: f64,
    /// Median sojourn time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile sojourn time, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile sojourn time, milliseconds.
    pub p999_ms: f64,
    /// Pipeline hot-swaps the re-partitioner applied.
    pub swaps: usize,
}

/// Sweeps the serving runtime over offered load × policy bundle for a
/// model suite deployed with the op-balancing partition (the weakest
/// heuristic — the headroom the online re-partitioner recovers).
///
/// The three bundles isolate the serving mechanisms:
///
/// * `static` — no batching, open admission, no re-partitioning (the
///   raw simulator path);
/// * `batch` — dynamic batching only;
/// * `serve` — batching + SLO admission + live re-partitioning.
///
/// Arrivals are deterministic (`Periodic`), so every number derives
/// from pure IEEE-754 arithmetic and is pinned bitwise by the
/// `serve_golden` regression test.
pub fn serve_sweep(quick: bool) -> Vec<ServeSweepRow> {
    serve_sweep_with(quick, "op-balanced")
}

/// As [`serve_sweep`], deployed with any registry partitioner.
pub fn serve_sweep_with(quick: bool, scheduler: &str) -> Vec<ServeSweepRow> {
    let spec = DeviceSpec::coral();
    let stages = 6;
    let requests = if quick { 800 } else { 2_000 };
    let suite: Vec<(&'static str, respect_graph::Dag)> = if quick {
        vec![("DenseNet121", models::densenet121())]
    } else {
        vec![
            ("DenseNet121", models::densenet121()),
            ("Xception", models::xception()),
            ("ResNet50", models::resnet50()),
        ]
    };
    let cfg = ServeConfig::contended();
    let partitioner = registry_scheduler(scheduler, &spec);
    let mut rows = Vec::new();
    for (name, dag) in suite {
        let Some(schedule) = sweep_schedule(partitioner.as_ref(), name, &dag, stages) else {
            continue;
        };
        let pipeline = compile::compile(&dag, &schedule, &spec).expect("compiles");
        let closed = ServeTenant::new(pipeline.clone(), requests / 2).with_warmup(requests / 20);
        let static_cap =
            serve(&[closed], &spec, &cfg).expect("capacity run").tenants[0].throughput_ips;
        let drain_target_s = 0.050;
        for &load in &[0.7, 1.0, 2.0] {
            let arrivals = Arrivals::Periodic {
                rate: load * static_cap,
            };
            let bundles: [(&'static str, ServeTenant); 3] = [
                (
                    "static",
                    ServeTenant::new(pipeline.clone(), requests)
                        .with_arrivals(arrivals)
                        .with_warmup(requests / 10),
                ),
                (
                    "batch",
                    ServeTenant::new(pipeline.clone(), requests)
                        .with_arrivals(arrivals)
                        .with_warmup(requests / 10)
                        .with_batcher(BatchPolicy::new(8, 5e-3)),
                ),
                (
                    "serve",
                    ServeTenant::new(pipeline.clone(), requests)
                        .with_arrivals(arrivals)
                        .with_warmup(requests / 10)
                        .with_batcher(BatchPolicy::new(8, 5e-3))
                        .with_admission(AdmissionPolicy::SloDelay {
                            target_s: drain_target_s,
                        })
                        .with_repartitioner(
                            Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(
                                DriftPolicy::new()
                                    .with_window_jobs(24)
                                    .with_threshold(0.08)
                                    .with_max_swaps(3),
                            ),
                        ),
                ),
            ];
            for (policy, tenant) in bundles {
                let report = serve(&[tenant], &spec, &cfg).expect("sweep run");
                let t = &report.tenants[0];
                rows.push(ServeSweepRow {
                    name,
                    stages,
                    load,
                    policy,
                    offered: t.offered,
                    admitted: t.admitted,
                    shed: t.shed,
                    mean_job_requests: t.mean_job_requests,
                    throughput_ips: t.throughput_ips,
                    p50_ms: t.p50_s() * 1e3,
                    p99_ms: t.p99_s() * 1e3,
                    p999_ms: t.p999_s() * 1e3,
                    swaps: t.swaps.len(),
                });
            }
        }
    }
    rows
}

/// One point of the fleet sweep: a model served over a chain count and
/// a router under diurnal load sized for the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetSweepRow {
    /// Model name.
    pub name: &'static str,
    /// Chains in the fleet.
    pub chains: usize,
    /// Router variant (`rr`, `jsb`, `p2c`, `jsb+auto`).
    pub router: &'static str,
    /// Cycle-mean offered load as a fraction of `chains` x one chain's
    /// batched closed-loop capacity.
    pub load: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted (fleet-wide).
    pub admitted: usize,
    /// Requests shed by chain-local admission control.
    pub shed: usize,
    /// Measured-window throughput, inferences per second.
    pub throughput_ips: f64,
    /// Fleet-level median sojourn time, milliseconds.
    pub p50_ms: f64,
    /// Fleet-level 99th-percentile sojourn time, milliseconds.
    pub p99_ms: f64,
    /// Fleet-level 99.9th-percentile sojourn time, milliseconds.
    pub p999_ms: f64,
    /// Total fleet energy (busy + idle over powered spans), joules.
    pub energy_j: f64,
    /// Joules per measured request.
    pub energy_per_request_j: f64,
    /// Autoscaler decisions (0 without autoscaling).
    pub scale_events: usize,
}

/// The four router variants of the fleet sweep; `jsb+auto` adds
/// backlog-driven autoscaling on a 1-chain floor.
const FLEET_ROUTERS: [(&str, RouterPolicy, bool); 4] = [
    ("rr", RouterPolicy::RoundRobin, false),
    ("jsb", RouterPolicy::JoinShortestBacklog, false),
    (
        "p2c",
        RouterPolicy::PowerOfTwoChoices { seed: 0x2c2c },
        false,
    ),
    ("jsb+auto", RouterPolicy::JoinShortestBacklog, true),
];

/// Sweeps the fleet serving layer over chain count × router × diurnal
/// load for a model suite deployed with the op-balancing partition.
///
/// The load axis is the *cycle mean* of a diurnal (triangle-wave NHPP)
/// arrival stream, normalized per model to `chains` x the batched
/// closed-loop capacity of one chain; the wave swings ±50% around it.
/// Every arrival process and router is seeded, so all numbers are
/// deterministic and pinned bitwise by the `fleet_golden` regression
/// test.
pub fn fleet_sweep(quick: bool) -> Vec<FleetSweepRow> {
    fleet_sweep_with(quick, "op-balanced")
}

/// As [`fleet_sweep`], deployed with any registry partitioner.
pub fn fleet_sweep_with(quick: bool, scheduler: &str) -> Vec<FleetSweepRow> {
    let spec = DeviceSpec::coral();
    let stages = 6;
    let requests = if quick { 600 } else { 1_500 };
    let chain_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let suite: Vec<(&'static str, respect_graph::Dag)> = if quick {
        vec![("DenseNet121", models::densenet121())]
    } else {
        vec![
            ("DenseNet121", models::densenet121()),
            ("Xception", models::xception()),
            ("ResNet50", models::resnet50()),
        ]
    };
    let partitioner = registry_scheduler(scheduler, &spec);
    let mut rows = Vec::new();
    for (name, dag) in suite {
        let Some(schedule) = sweep_schedule(partitioner.as_ref(), name, &dag, stages) else {
            continue;
        };
        let pipeline = compile::compile(&dag, &schedule, &spec).expect("compiles");
        // batched closed-loop capacity of one chain: the per-chain
        // normalization base for the whole sweep
        let closed = ServeTenant::new(pipeline.clone(), requests / 2)
            .with_warmup(requests / 20)
            .with_batcher(BatchPolicy::new(8, 5e-3));
        let chain_cap = serve_fleet(
            &[closed],
            &FleetConfig::homogeneous(1, spec).with_contended_bus(),
        )
        .expect("capacity run")
        .tenants[0]
            .throughput_ips;
        for &chains in chain_counts {
            for &load in &[0.8, 1.5] {
                let tenant = ServeTenant::new(pipeline.clone(), requests)
                    .with_arrivals(Arrivals::Diurnal {
                        mean_rate: load * chains as f64 * chain_cap,
                        amplitude: 0.5,
                        period_s: 2.0,
                        seed: 1713,
                    })
                    .with_warmup(requests / 10)
                    .with_batcher(BatchPolicy::new(8, 5e-3))
                    .with_admission(AdmissionPolicy::SloDelay { target_s: 0.050 });
                for (router_name, router, autoscaled) in FLEET_ROUTERS {
                    let mut cfg = FleetConfig::homogeneous(chains, spec)
                        .with_router(router)
                        .with_contended_bus();
                    if autoscaled {
                        // scale up well before the 50 ms admission
                        // target starts shedding, or the autoscaler
                        // never sees the pressure it should absorb
                        cfg = cfg.with_autoscale(
                            AutoscalePolicy::new()
                                .with_scale_up_s(0.015)
                                .with_scale_down_s(0.002)
                                .with_check_jobs(8),
                        );
                    }
                    let report =
                        serve_fleet(std::slice::from_ref(&tenant), &cfg).expect("sweep run");
                    let t = &report.tenants[0];
                    let measured = report.histogram.count();
                    rows.push(FleetSweepRow {
                        name,
                        chains,
                        router: router_name,
                        load,
                        offered: t.offered,
                        admitted: t.admitted,
                        shed: t.shed,
                        throughput_ips: t.throughput_ips,
                        p50_ms: report.p50_s() * 1e3,
                        p99_ms: report.p99_s() * 1e3,
                        p999_ms: report.p999_s() * 1e3,
                        energy_j: report.total_energy_j(),
                        energy_per_request_j: if measured == 0 {
                            0.0
                        } else {
                            report.total_energy_j() / measured as f64
                        },
                        scale_events: report.scale_events.len(),
                    });
                }
            }
        }
    }
    rows
}

/// Serializes fleet-sweep rows as the `BENCH_fleet.json` artifact
/// (hand-rolled, dependency-free — the `BENCH_soak.json` discipline).
pub fn fleet_json(quick: bool, scheduler: &str, rows: &[FleetSweepRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"fleet\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"scheduler\": \"{scheduler}\",\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"model\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"chains\": {},\n", r.chains));
        out.push_str(&format!("      \"router\": \"{}\",\n", r.router));
        out.push_str(&format!("      \"load\": {:.2},\n", r.load));
        out.push_str(&format!("      \"offered\": {},\n", r.offered));
        out.push_str(&format!("      \"admitted\": {},\n", r.admitted));
        out.push_str(&format!("      \"shed\": {},\n", r.shed));
        out.push_str(&format!(
            "      \"throughput_ips\": {:.3},\n",
            r.throughput_ips
        ));
        out.push_str(&format!("      \"p50_ms\": {:.4},\n", r.p50_ms));
        out.push_str(&format!("      \"p99_ms\": {:.4},\n", r.p99_ms));
        out.push_str(&format!("      \"p999_ms\": {:.4},\n", r.p999_ms));
        out.push_str(&format!("      \"energy_j\": {:.3},\n", r.energy_j));
        out.push_str(&format!(
            "      \"energy_per_request_j\": {:.6},\n",
            r.energy_per_request_j
        ));
        out.push_str(&format!("      \"scale_events\": {}\n", r.scale_events));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One row of the `deploy` experiment: a model deployed end to end
/// through the `Deployment` facade with a named registry partitioner.
#[derive(Debug, Clone)]
pub struct DeployRow {
    /// Model name.
    pub name: &'static str,
    /// Pipeline stages.
    pub stages: usize,
    /// Abstract bottleneck objective, seconds.
    pub objective_s: f64,
    /// Simulated throughput over 1 000 inferences, inferences/s.
    pub throughput_ips: f64,
    /// Peak per-stage parameter bytes streamed per inference, MB.
    pub streamed_mb: f64,
    /// Wall-clock of schedule + compile, seconds.
    pub build_s: f64,
}

/// Deploys the model suite end to end (`schedule → compile → simulate`)
/// through the unified `Deployment` facade with the named registry
/// partitioner — the one-command tour the CLI exposes as
/// `reproduce -- deploy --scheduler <name>`.
///
/// Models a solver refuses (e.g. `brute` beyond its exhaustive-search
/// cap) are skipped with a note on stderr.
///
/// # Panics
///
/// Panics on unknown scheduler names (listing the available ones).
pub fn deploy_sweep(quick: bool, scheduler: &str) -> Vec<DeployRow> {
    let spec = DeviceSpec::coral();
    // warm the process-wide policy cache so `build_s` measures
    // scheduling, not one-off smoke training
    let _ = registry_scheduler(scheduler, &spec);
    let mut rows = Vec::new();
    for (name, dag) in model_suite(quick) {
        for &stages in stage_counts(quick) {
            let t0 = Instant::now();
            let deployment = match Deployment::of(&dag)
                .stages(stages)
                .device(spec)
                .partitioner(scheduler)
                .time_budget(Duration::from_secs(10))
                .build()
            {
                Ok(d) => d,
                Err(e @ respect::Error::Registry(_)) => panic!("{e}"),
                Err(e) => {
                    eprintln!("skipping {name}@{stages}: {e}");
                    continue;
                }
            };
            let build_s = t0.elapsed().as_secs_f64();
            let report = deployment.simulate(1_000).expect("nonzero inferences");
            let streamed_mb = deployment
                .pipeline()
                .segments
                .iter()
                .map(|s| s.streamed_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1e6;
            rows.push(DeployRow {
                name,
                stages,
                objective_s: deployment.objective(),
                throughput_ips: report.throughput_ips,
                streamed_mb,
                build_s,
            });
        }
    }
    rows
}

fn scale(quick: bool) -> PolicyScale {
    if quick {
        PolicyScale::Quick
    } else {
        PolicyScale::Bench
    }
}

fn stage_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[4, 6]
    } else {
        &STAGE_COUNTS
    }
}
