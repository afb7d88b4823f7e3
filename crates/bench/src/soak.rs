//! Long-horizon soak benchmark of the discrete-event engine.
//!
//! The regular benches (`benches/sim.rs`, `benches/serve.rs`) time
//! short runs where setup and cache warm-up dominate. The soak drives
//! the engine through **tens of millions of events over hours of
//! simulated time** — from one closed-loop tenant to thousands of
//! co-resident Poisson tenants on a contended USB bus, so the pending
//! set runs both in the event queue's sorted front run (a few events)
//! and in its calendar ring (one timer per tenant) — and answers two
//! questions:
//!
//! 1. **Is the engine deterministic across threads?** Every grid point
//!    runs serially and again on scoped worker threads, and the two
//!    reports must compare equal ([`SimReport`] equality is exact `f64`
//!    comparison, so this is a bitwise check of every latency,
//!    throughput, and makespan in the sweep).
//! 2. **How fast is it?** Per-point and aggregate events/second of the
//!    serial runs, plus the sweep-level win of running grid points on
//!    scoped threads (`sweep_speedup` = serial wall over parallel wall).
//!
//! Results are printed as a table and serialized by [`to_json`] into
//! `BENCH_soak.json`, one machine-readable trajectory point per commit.
//! The queue itself is pinned bitwise against a binary-heap reference
//! by the `respect_tpu` tests, not here.

use std::time::Instant;

use respect_graph::{models, Dag};
use respect_sched::{balanced::ParamBalanced, Scheduler};
use respect_tpu::sim::{self, Arrivals, SimConfig, SimReport, Workload};
use respect_tpu::{compile, exec, CompiledPipeline, DeviceSpec};

/// How hard to soak and how wide to fan out.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Shrinks every stream ~50x for a smoke pass (CI).
    pub quick: bool,
    /// Worker threads for the parallel sweep phase; `0` picks the
    /// machine's available parallelism (capped at the grid size).
    pub threads: usize,
}

impl SoakConfig {
    /// Full soak, auto thread count.
    #[must_use]
    pub fn full() -> Self {
        SoakConfig {
            quick: false,
            threads: 0,
        }
    }

    /// Smoke-scale soak, auto thread count.
    #[must_use]
    pub fn quick() -> Self {
        SoakConfig {
            quick: true,
            threads: 0,
        }
    }
}

/// One grid point: a deployed model under a fixed traffic shape.
struct PointSpec {
    label: &'static str,
    dag: fn() -> Dag,
    stages: usize,
    tenants: usize,
    requests: usize,
    contended: bool,
    /// Offered load as a fraction of the uncontended analytic capacity;
    /// `0.0` = closed loop.
    load: f64,
}

/// The soak grid. Spans the axes that stress the pending-event set
/// differently: single dense closed loop (monotone near-future pushes),
/// contended multi-tenant Poisson (interleaved bus/compute events and
/// time ties), and a wide 4-tenant fan-in (deep event backlog).
fn grid(quick: bool) -> Vec<PointSpec> {
    let scale = if quick { 50 } else { 1 };
    vec![
        PointSpec {
            label: "resnet50/closed/uncontended/1t",
            dag: models::resnet50,
            stages: 4,
            tenants: 1,
            requests: 1_000_000 / scale,
            contended: false,
            load: 0.0,
        },
        PointSpec {
            label: "resnet50/poisson80/contended/2t",
            dag: models::resnet50,
            stages: 4,
            tenants: 2,
            requests: 400_000 / scale,
            contended: true,
            load: 0.8,
        },
        PointSpec {
            label: "densenet121/poisson70/contended/4t",
            dag: models::densenet121,
            stages: 4,
            tenants: 4,
            requests: 150_000 / scale,
            contended: true,
            load: 0.7,
        },
        PointSpec {
            label: "xception/closed/contended/1t",
            dag: models::xception,
            stages: 4,
            tenants: 1,
            requests: 500_000 / scale,
            contended: true,
            load: 0.0,
        },
        // The fleet-scale points: with thousands of co-resident
        // tenants the pending-event set holds ~one timer per tenant,
        // which keeps the queue in its calendar ring (a binary heap
        // would pay 10-12 sift levels per operation). The small points
        // above keep it in its sorted front run.
        PointSpec {
            label: "resnet50/fleet-poisson70/contended/1024t",
            dag: models::resnet50,
            stages: 4,
            tenants: 1024,
            requests: 500usize.div_ceil(scale),
            contended: true,
            load: 0.7,
        },
        PointSpec {
            label: "resnet50/fleet-poisson70/contended/4096t",
            dag: models::resnet50,
            stages: 4,
            tenants: 4096,
            requests: 150usize.div_ceil(scale),
            contended: true,
            load: 0.7,
        },
    ]
}

/// A compiled grid point ready to run.
struct ReadyPoint {
    spec: PointSpec,
    workloads: Vec<Workload>,
}

fn prepare(spec: PointSpec, device: &DeviceSpec) -> ReadyPoint {
    let dag = (spec.dag)();
    let schedule = ParamBalanced::new()
        .schedule(&dag, spec.stages)
        .expect("soak models partition at the grid stage counts");
    let pipeline: CompiledPipeline =
        compile::compile(&dag, &schedule, device).expect("soak pipelines compile");
    // capacity estimate for the open-loop rates: the closed-form
    // analytic oracle, so no calibration simulation is needed
    let rate_base = {
        let probe = 1_000;
        let r = exec::analytic(&pipeline, device, probe).expect("analytic oracle");
        probe as f64 / r.total_s
    };
    let workloads = (0..spec.tenants)
        .map(|i| {
            let wl = Workload::new(pipeline.clone(), spec.requests).with_warmup(spec.requests / 10);
            if spec.load == 0.0 {
                wl
            } else {
                wl.with_arrivals(Arrivals::Poisson {
                    rate: spec.load * rate_base / spec.tenants as f64,
                    seed: 0x50a_c0de + i as u64,
                })
            }
        })
        .collect();
    ReadyPoint { spec, workloads }
}

fn run_point(point: &ReadyPoint, device: &DeviceSpec) -> (SimReport, f64) {
    let cfg = if point.spec.contended {
        SimConfig::contended()
    } else {
        SimConfig::uncontended()
    };
    let start = Instant::now();
    let report = sim::run(&point.workloads, device, &cfg).expect("soak run");
    (report, start.elapsed().as_secs_f64())
}

/// Per-point soak results.
#[derive(Debug, Clone)]
pub struct SoakPoint {
    /// Grid point label (`model/traffic/bus/tenants`).
    pub label: &'static str,
    /// Co-resident tenants.
    pub tenants: usize,
    /// Requests per tenant.
    pub requests_per_tenant: usize,
    /// Whether the tenants share one FIFO USB bus.
    pub contended: bool,
    /// Events the engine processed.
    pub events: u64,
    /// Simulated horizon, seconds.
    pub simulated_s: f64,
    /// Wall time of the serial run, seconds.
    pub wall_s: f64,
}

impl SoakPoint {
    /// Events per second of the serial run.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// Aggregate soak results.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Whether this was the smoke-scale grid.
    pub quick: bool,
    /// Worker threads used by the parallel sweep phase.
    pub threads: usize,
    /// Per-point results, in grid order.
    pub points: Vec<SoakPoint>,
    /// Events processed across the grid (one engine pass).
    pub total_events: u64,
    /// Simulated time across the grid, hours.
    pub total_simulated_hours: f64,
    /// Wall time of the serial pass, seconds.
    pub serial_s: f64,
    /// Wall time of the scoped-thread parallel pass, seconds.
    pub parallel_s: f64,
}

impl SoakReport {
    /// Events per second of the serial pass over the whole grid.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        self.total_events as f64 / self.serial_s
    }

    /// Sweep-level speedup of running grid points on scoped worker
    /// threads: serial wall over parallel wall.
    #[must_use]
    pub fn sweep_speedup(&self) -> f64 {
        self.serial_s / self.parallel_s
    }
}

/// Runs the soak: a serial pass over the grid, then a parallel pass
/// over scoped worker threads, asserted report-for-report identical to
/// the serial pass and collected in deterministic grid order.
///
/// # Panics
///
/// Panics if any grid point's parallel report diverges from its serial
/// one — the engine is deterministic per input, so that is a bug, and no
/// timing result is worth reporting past it.
#[must_use]
pub fn soak(cfg: &SoakConfig) -> SoakReport {
    let device = DeviceSpec::coral();
    let ready: Vec<ReadyPoint> = grid(cfg.quick)
        .into_iter()
        .map(|s| prepare(s, &device))
        .collect();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        cfg.threads
    }
    .clamp(1, ready.len());

    // phase 1: serially — the per-point events/s
    let serial_t0 = Instant::now();
    let serial_runs: Vec<(SimReport, f64)> = ready.iter().map(|p| run_point(p, &device)).collect();
    let serial_s = serial_t0.elapsed().as_secs_f64();

    // phase 2: across scoped worker threads — the sweep-level speedup.
    // Workers take grid indices round-robin and write into disjoint
    // slots, so collection order is deterministic.
    let par_t0 = Instant::now();
    let par_runs: Vec<Option<(SimReport, f64)>> = std::thread::scope(|scope| {
        let ready = &ready;
        let device = &device;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    (w..ready.len())
                        .step_by(threads)
                        .map(|i| (i, run_point(&ready[i], device)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut slots: Vec<Option<(SimReport, f64)>> = (0..ready.len()).map(|_| None).collect();
        for h in handles {
            for (i, run) in h.join().expect("soak worker") {
                slots[i] = Some(run);
            }
        }
        slots
    });
    let parallel_s = par_t0.elapsed().as_secs_f64();
    for (i, slot) in par_runs.iter().enumerate() {
        let (pr, _) = slot.as_ref().expect("every grid point ran");
        assert_eq!(
            pr, &serial_runs[i].0,
            "soak point {} ({}): parallel run diverged from the serial run",
            i, ready[i].spec.label
        );
    }

    let points: Vec<SoakPoint> = ready
        .iter()
        .zip(&serial_runs)
        .map(|(p, (r, wall_s))| SoakPoint {
            label: p.spec.label,
            tenants: p.spec.tenants,
            requests_per_tenant: p.spec.requests,
            contended: p.spec.contended,
            events: r.events,
            simulated_s: r.makespan_s,
            wall_s: *wall_s,
        })
        .collect();
    SoakReport {
        quick: cfg.quick,
        threads,
        total_events: points.iter().map(|p| p.events).sum(),
        total_simulated_hours: points.iter().map(|p| p.simulated_s).sum::<f64>() / 3600.0,
        serial_s,
        parallel_s,
        points,
    }
}

/// Serializes a [`SoakReport`] as pretty-printed JSON (hand-written:
/// the workspace serde shim provides derive markers, not serialization).
#[must_use]
pub fn to_json(r: &SoakReport) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"soak\",\n");
    out.push_str(&format!("  \"quick\": {},\n", r.quick));
    out.push_str(&format!("  \"threads\": {},\n", r.threads));
    out.push_str(&format!("  \"total_events\": {},\n", r.total_events));
    out.push_str(&format!(
        "  \"total_simulated_hours\": {:.4},\n",
        r.total_simulated_hours
    ));
    out.push_str(&format!("  \"serial_s\": {:.4},\n", r.serial_s));
    out.push_str(&format!("  \"parallel_s\": {:.4},\n", r.parallel_s));
    out.push_str(&format!("  \"events_per_s\": {:.0},\n", r.events_per_s()));
    out.push_str(&format!("  \"sweep_speedup\": {:.3},\n", r.sweep_speedup()));
    out.push_str("  \"bitwise_identical\": true,\n");
    out.push_str("  \"points\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", p.label));
        out.push_str(&format!("      \"tenants\": {},\n", p.tenants));
        out.push_str(&format!(
            "      \"requests_per_tenant\": {},\n",
            p.requests_per_tenant
        ));
        out.push_str(&format!("      \"contended\": {},\n", p.contended));
        out.push_str(&format!("      \"events\": {},\n", p.events));
        out.push_str(&format!("      \"simulated_s\": {:.3},\n", p.simulated_s));
        out.push_str(&format!("      \"wall_s\": {:.4},\n", p.wall_s));
        out.push_str(&format!(
            "      \"events_per_s\": {:.0}\n",
            p.events_per_s()
        ));
        out.push_str(if i + 1 == r.points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny soak exercises both phases, the bitwise asserts, and the
    /// JSON writer. (The full grid is the benchmark's job, not CI's.)
    #[test]
    fn quick_soak_is_bitwise_clean_and_serializes() {
        let mut cfg = SoakConfig::quick();
        cfg.threads = 2;
        let r = soak(&cfg);
        assert_eq!(r.points.len(), 6);
        assert!(r.total_events > 0);
        assert!(r.points.iter().all(|p| p.simulated_s > 0.0));
        assert!(r.points.iter().all(|p| p.events > 0 && p.wall_s > 0.0));
        let json = to_json(&r);
        assert!(json.contains("\"bitwise_identical\": true"));
        assert!(json.contains("resnet50/closed/uncontended/1t"));
        assert_eq!(json.matches("\"events_per_s\"").count(), r.points.len() + 1);
    }
}
