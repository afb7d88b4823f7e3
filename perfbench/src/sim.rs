//! `sim`: the raw discrete-event engine — two ResNet-50/4-stage tenants
//! with Poisson arrivals at 80% of the analytic capacity on one contended
//! USB bus. The pending-event set stays shallow and no serving control
//! plane runs.

use respect_graph::models;
use respect_obs::MetricsRecorder;
use respect_sched::{balanced::ParamBalanced, Scheduler};
use respect_tpu::sim::{self, Arrivals, SimConfig, SimReport, Workload as SimWorkload};
use respect_tpu::{compile, exec, DeviceSpec};

use crate::trace::Tracer;
use crate::util::{Checks, Fingerprint};
use crate::{Outcome, Workload};

const TENANTS: usize = 2;
const REQUESTS: usize = 150_000;
const LOAD: f64 = 0.8;

pub struct Sim {
    spec: DeviceSpec,
    workloads: Vec<SimWorkload>,
    /// The first pass's report; every later pass must equal it bitwise.
    first: Option<SimReport>,
}

impl Workload for Sim {
    fn setup(seed: u64) -> Self {
        let spec = DeviceSpec::coral();
        let dag = models::resnet50();
        let schedule = ParamBalanced::new()
            .schedule(&dag, 4)
            .expect("ResNet-50 partitions");
        let pipeline = compile::compile(&dag, &schedule, &spec).expect("pipeline compiles");
        let probe = 1_000;
        let capacity = probe as f64
            / exec::analytic(&pipeline, &spec, probe)
                .expect("analytic oracle")
                .total_s;
        let workloads = (0..TENANTS)
            .map(|i| {
                SimWorkload::new(pipeline.clone(), REQUESTS)
                    .with_warmup(REQUESTS / 10)
                    .with_arrivals(Arrivals::Poisson {
                        rate: LOAD * capacity / TENANTS as f64,
                        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x50a_c0de + i as u64),
                    })
            })
            .collect();
        Sim {
            spec,
            workloads,
            first: None,
        }
    }

    fn run(&mut self, checks: &mut Checks) -> Outcome {
        let t0 = std::time::Instant::now();
        let report =
            sim::run(&self.workloads, &self.spec, &SimConfig::contended()).expect("sim runs");
        let wall_s = t0.elapsed().as_secs_f64();
        for (i, (t, w)) in report.tenants.iter().zip(&self.workloads).enumerate() {
            checks.check(
                t.requests == w.requests
                    && t.measured_inferences == (w.requests - w.warmup) * w.batch,
                || {
                    format!(
                        "tenant {i}: {} of {} requests completed",
                        t.measured_inferences, w.requests
                    )
                },
            );
        }
        let first = self.first.get_or_insert_with(|| report.clone());
        checks.check(*first == report, || {
            "sim report differs between passes".into()
        });
        let mean_ms = report.tenants.iter().map(|t| t.mean_latency_s).sum::<f64>()
            / report.tenants.len() as f64
            * 1e3;
        Outcome {
            parts_s: vec![wall_s],
            metrics: vec![
                ("des_events_per_s", report.events as f64 / wall_s),
                ("sim_mean_latency_ms", mean_ms),
            ],
        }
    }

    fn run_traced(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Outcome {
        let mut metrics = MetricsRecorder::new();
        let report = tr
            .span("tpu.sim_run", |_| {
                sim::run_probed(
                    &self.workloads,
                    &self.spec,
                    &SimConfig::contended(),
                    &mut metrics,
                )
            })
            .expect("sim runs");
        let wall_s = tr.total_s("tpu.sim_run");
        checks.check(self.first.as_ref() == Some(&report), || {
            "probed sim report differs from unprobed".into()
        });
        let snap = metrics.snapshot();
        let counter = |n: &str| snap.counter(n).unwrap_or(0);
        let requests: usize = self.workloads.iter().map(|w| w.requests).sum();
        checks.check(
            counter("completions") == requests as u64 && counter("arrivals") == requests as u64,
            || {
                format!(
                    "probe saw {} arrivals, {} completions of {requests}",
                    counter("arrivals"),
                    counter("completions")
                )
            },
        );
        checks.check(
            counter("resource_acquires") == counter("resource_releases"),
            || "unbalanced resource acquire/release".into(),
        );
        Outcome {
            parts_s: vec![wall_s],
            metrics: vec![
                ("tpu.sim_run_s", wall_s),
                ("tpu.events", report.events as f64),
                (
                    "tpu.events_per_request",
                    report.events as f64 / requests as f64,
                ),
                ("tpu.resource_acquires", counter("resource_acquires") as f64),
                ("tpu.bus_busy_frac", report.bus_busy_s / report.makespan_s),
            ],
        }
    }

    fn fingerprints(&self) -> Vec<(&'static str, String)> {
        let mut fp = Fingerprint::new();
        fp.debug(&self.first);
        vec![("sim_report", fp.hex())]
    }
}
