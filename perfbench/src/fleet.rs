//! `fleet`: routed, autoscaled serving — hundreds of diurnal tenants over
//! twelve DenseNet-121/6-stage op-balanced chains behind
//! join-shortest-backlog routing, each tenant with a dynamic batcher,
//! `SloDelay` admission and a drift repartitioner. The pending-event set
//! is deep and the whole control plane runs.

use respect_graph::models;
use respect_obs::MetricsRecorder;
use respect_sched::{balanced::OpBalanced, Scheduler};
use respect_serve::{
    serve_fleet, serve_fleet_probed, AdmissionPolicy, AutoscalePolicy, BatchPolicy, DriftPolicy,
    FleetConfig, FleetReport, Repartitioner, RouterPolicy, ServeTenant,
};
use respect_tpu::sim::Arrivals;
use respect_tpu::DeviceSpec;

use crate::trace::Tracer;
use crate::util::{Checks, Fingerprint};
use crate::{Outcome, Workload};

const CHAINS: usize = 12;
const STAGES: usize = 6;
const TENANTS: usize = 256;
const REQUESTS: usize = 400;
/// Cycle-mean offered load as a share of the fleet's batched capacity;
/// the diurnal wave swings ±50% around it, so the peak (1.35×) exceeds
/// what the fleet can serve and the backlog builds.
const LOAD: f64 = 0.9;
const PERIOD_S: f64 = 2.0;
/// `SloDelay` judges each tenant's own backlog on a chain, about 1/21 of
/// the chain's, so a tenant's 10 ms target sheds once its chain holds
/// roughly 0.2 s of work: at the peak only, a share of about 1%. At
/// 50 ms no tenant's own backlog reaches the target before the chains
/// hold seconds of work, and nothing is shed.
const SLO_TARGET_S: f64 = 0.010;

pub struct Fleet {
    tenants: Vec<ServeTenant>,
    config: FleetConfig,
    /// The first pass's report; every later pass must equal it bitwise.
    first: Option<FleetReport>,
}

impl Workload for Fleet {
    fn setup(seed: u64) -> Self {
        let spec = DeviceSpec::coral();
        let dag = models::densenet121();
        let schedule = OpBalanced::new()
            .schedule(&dag, STAGES)
            .expect("DenseNet-121 partitions");
        let pipeline =
            respect_tpu::compile::compile(&dag, &schedule, &spec).expect("pipeline compiles");
        // batched closed-loop capacity of one chain: the load's unit
        let closed = ServeTenant::new(pipeline.clone(), 400)
            .with_warmup(40)
            .with_batcher(BatchPolicy::new(8, 5e-3));
        let chain_cap = serve_fleet(
            &[closed],
            &FleetConfig::homogeneous(1, spec).with_contended_bus(),
        )
        .expect("capacity run")
        .tenants[0]
            .throughput_ips;
        let drift = DriftPolicy::new()
            .with_window_jobs(24)
            .with_threshold(0.08)
            .with_max_swaps(3);
        let tenants = (0..TENANTS)
            .map(|i| {
                ServeTenant::new(pipeline.clone(), REQUESTS)
                    .with_arrivals(Arrivals::Diurnal {
                        mean_rate: LOAD * CHAINS as f64 * chain_cap / TENANTS as f64,
                        amplitude: 0.5,
                        period_s: PERIOD_S,
                        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1713 + i as u64),
                    })
                    .with_warmup(REQUESTS / 10)
                    .with_batcher(BatchPolicy::new(8, 5e-3))
                    .with_admission(AdmissionPolicy::SloDelay {
                        target_s: SLO_TARGET_S,
                    })
                    .with_repartitioner(
                        Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(drift),
                    )
            })
            .collect();
        // scale up at 15 ms of chain backlog, long before a tenant's own
        // backlog reaches the 10 ms admission target: once admission
        // sheds, the autoscaler no longer sees the pressure to absorb
        let config = FleetConfig::homogeneous(CHAINS, spec)
            .with_router(RouterPolicy::JoinShortestBacklog)
            .with_contended_bus()
            .with_autoscale(
                AutoscalePolicy::new()
                    .with_scale_up_s(0.015)
                    .with_scale_down_s(0.002)
                    .with_check_jobs(8),
            );
        Fleet {
            tenants,
            config,
            first: None,
        }
    }

    fn run(&mut self, checks: &mut Checks) -> Outcome {
        let t0 = std::time::Instant::now();
        let report = serve_fleet(&self.tenants, &self.config).expect("fleet serves");
        let wall_s = t0.elapsed().as_secs_f64();
        for (i, t) in report.tenants.iter().enumerate() {
            checks.check(
                t.offered == t.admitted + t.shed && t.offered == self.tenants[i].requests,
                || {
                    format!(
                        "tenant {i}: offered {} != admitted {} + shed {}",
                        t.offered, t.admitted, t.shed
                    )
                },
            );
        }
        checks.check(
            report.offered() == report.admitted() + report.shed(),
            || "fleet offered != admitted + shed".into(),
        );
        checks.check(report.shed() > 0, || {
            "fleet shed nothing: the admission reject path went unmeasured".into()
        });
        let first = self.first.get_or_insert_with(|| report.clone());
        checks.check(*first == report, || {
            "fleet report differs between passes".into()
        });
        Outcome {
            parts_s: vec![wall_s],
            metrics: vec![
                ("des_events_per_s", report.events as f64 / wall_s),
                ("fleet_p99_ms", report.p99_s() * 1e3),
                (
                    "fleet_shed_pct",
                    report.shed() as f64 / report.offered() as f64 * 100.0,
                ),
            ],
        }
    }

    fn run_traced(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Outcome {
        let mut metrics = MetricsRecorder::new();
        let report = tr
            .span("serve.fleet_run", |_| {
                serve_fleet_probed(&self.tenants, &self.config, &mut metrics)
            })
            .expect("fleet serves");
        let wall_s = tr.total_s("serve.fleet_run");
        checks.check(self.first.as_ref() == Some(&report), || {
            "probed fleet report differs from unprobed".into()
        });
        let snap = metrics.snapshot();
        let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
        let offered = report.offered() as f64;
        checks.check(
            counter("arrivals") == offered && counter("admitted") + counter("shed") == offered,
            || {
                format!(
                    "probe saw {} arrivals, {} admitted, {} shed of {offered}",
                    counter("arrivals"),
                    counter("admitted"),
                    counter("shed")
                )
            },
        );
        checks.check(counter("completions") == counter("admitted"), || {
            "admitted requests did not all complete".into()
        });
        let proposals = counter("repartition_proposals");
        let powered_device_s: f64 = report
            .chains
            .iter()
            .map(|c| c.powered_s * STAGES as f64)
            .sum();
        let busy_s = snap.gauge("device_busy_s").unwrap_or(0.0);
        Outcome {
            parts_s: vec![wall_s],
            metrics: vec![
                ("serve.fleet_run_s", wall_s),
                ("serve.events", report.events as f64),
                ("serve.events_per_request", report.events as f64 / offered),
                ("serve.router_decisions", counter("router_decisions")),
                (
                    "serve.mean_batch_requests",
                    counter("batched_requests") / counter("batches_closed"),
                ),
                ("serve.repartition_passes", counter("repartition_passes")),
                (
                    "serve.repartition_accept_ratio",
                    if proposals == 0.0 {
                        0.0
                    } else {
                        counter("repartition_accepts") / proposals
                    },
                ),
                ("serve.shed_slo_delay", counter("shed_slo_delay")),
                ("serve.scale_ups", counter("scale_ups")),
                ("serve.scale_downs", counter("scale_downs")),
                ("serve.device_busy_frac", busy_s / powered_device_s),
            ],
        }
    }

    fn fingerprints(&self) -> Vec<(&'static str, String)> {
        let mut fp = Fingerprint::new();
        fp.debug(&self.first);
        vec![("fleet_report", fp.hex())]
    }
}
