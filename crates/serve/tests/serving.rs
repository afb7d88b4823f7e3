//! End-to-end serving scenarios: exact percentile pinning, SLO
//! restoration under bursty load, admission under overload, validation,
//! and determinism.
//!
//! The headline test is the acceptance criterion of the serving
//! subsystem: under a bursty MMPP load that violates a p99 SLO with the
//! statically compiled schedule, the serving runtime (dynamic batching
//! plus live re-partitioning) restores the SLO, and admission control
//! bounds p99 under 2× overload — all bitwise-deterministic per seed.

use respect_graph::models;
use respect_sched::balanced::OpBalanced;
use respect_sched::Scheduler;
use respect_serve::{
    serve, serve_probed, AdmissionPolicy, BatchPolicy, DriftPolicy, LatencyHistogram,
    Repartitioner, ServeConfig, ServeError, ServeTenant,
};
use respect_tpu::sim::{self, Arrivals, SimConfig, Workload};
use respect_tpu::{compile, CompiledPipeline, DeviceSpec};

/// DenseNet-121 on a 6-stage chain, deliberately deployed with the
/// op-count-balancing partition (it ignores memory and communication):
/// the kind of schedule an operator inherits, with real headroom for
/// the online re-partitioner.
fn poor_deployment() -> (respect_graph::Dag, CompiledPipeline, DeviceSpec) {
    let dag = models::densenet121();
    let spec = DeviceSpec::coral();
    let schedule = OpBalanced::new().schedule(&dag, 6).unwrap();
    let pipeline = compile::compile(&dag, &schedule, &spec).unwrap();
    (dag, pipeline, spec)
}

/// A single-stage pipeline with one compute-only segment, so every
/// per-request latency is a plain accumulation of one known hold.
fn single_stage_pipeline() -> (CompiledPipeline, DeviceSpec, f64) {
    let spec = DeviceSpec::coral();
    let seg = respect_tpu::Segment {
        stage: 0,
        nodes: vec![],
        param_bytes: 0,
        cached_bytes: 0,
        streamed_bytes: 0,
        macs: 200_000_000,
        input_bytes: 0,
        output_bytes: 0,
    };
    let hold = sim::batch_service_time(&seg, &spec, 1);
    let pipeline = CompiledPipeline {
        segments: vec![seg],
        schedule: respect_sched::Schedule::new(vec![0], 1).unwrap(),
    };
    (pipeline, spec, hold)
}

#[test]
fn p50_and_p99_pinned_on_a_hand_computed_five_request_scenario() {
    // Five closed-loop requests through one stage of hold `h`: request
    // j completes at the (j+1)-fold accumulation of h, and arrives at
    // t = 0, so its latency IS its completion time. The histogram must
    // report p50 = bucket_floor(3rd latency), p99 = bucket_floor(5th).
    let (pipeline, spec, hold) = single_stage_pipeline();
    let mut expect = Vec::new();
    let mut t = 0.0f64;
    for _ in 0..5 {
        t += hold; // the engine's exact arithmetic: successive `t + hold`
        expect.push(t);
    }

    // exact per-request event times from the simulator...
    let wl = Workload::closed_loop(pipeline.clone(), 5);
    let r = sim::run(&[wl], &spec, &SimConfig::uncontended().with_completions()).unwrap();
    let recs = &r.tenants[0].completions;
    assert_eq!(recs.len(), 5);
    let mut hist = LatencyHistogram::new();
    for (rec, &want) in recs.iter().zip(&expect) {
        assert_eq!(rec.arrival_s.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            rec.completed_s.to_bits(),
            want.to_bits(),
            "event time drifted"
        );
        hist.record(rec.latency_s());
    }
    // ...pin the percentile selection bitwise
    assert_eq!(
        hist.p50().to_bits(),
        LatencyHistogram::bucket_floor(expect[2]).to_bits(),
        "p50 must select the 3rd of 5 latencies"
    );
    assert_eq!(
        hist.p99().to_bits(),
        LatencyHistogram::bucket_floor(expect[4]).to_bits(),
        "p99 must select the 5th of 5 latencies"
    );

    // and the serving runtime computes the identical histogram
    let tenant = ServeTenant::new(pipeline, 5);
    let sr = serve(&[tenant], &spec, &ServeConfig::uncontended()).unwrap();
    assert_eq!(sr.tenants[0].histogram, hist);
    assert_eq!(sr.tenants[0].p50_s().to_bits(), hist.p50().to_bits());
    assert_eq!(sr.tenants[0].p99_s().to_bits(), hist.p99().to_bits());
}

#[test]
fn serving_runtime_restores_a_p99_slo_that_the_static_schedule_violates() {
    let (dag, pipeline, spec) = poor_deployment();
    let cfg = ServeConfig::contended();
    let n = 4_000;
    let warmup = 200;
    let slo_p99_s = 0.250;

    // static closed-loop capacity of the deployed partition
    let closed = ServeTenant::new(pipeline.clone(), 1_000).with_warmup(100);
    let static_cap = serve(&[closed], &spec, &cfg).unwrap().tenants[0].throughput_ips;

    // bursty MMPP: calm at 80% of static capacity, bursts to 180%
    let mmpp = Arrivals::Mmpp {
        low_rate: 0.8 * static_cap,
        high_rate: 1.8 * static_cap,
        mean_dwell_s: 0.5,
        seed: 1713,
    };

    // 1. static deployment drowns: queues grow through every burst
    let static_tenant = ServeTenant::new(pipeline.clone(), n)
        .with_arrivals(mmpp)
        .with_warmup(warmup);
    let static_report = serve(&[static_tenant], &spec, &cfg).unwrap();
    let st = &static_report.tenants[0];
    assert!(
        st.p99_s() > 4.0 * slo_p99_s,
        "static p99 {:.3}s should blow the {slo_p99_s}s SLO decisively",
        st.p99_s()
    );

    // 2. the serving runtime — dynamic batching + live re-partitioning
    //    — restores the SLO on the same arrival stream
    let runtime_tenant = || {
        ServeTenant::new(pipeline.clone(), n)
            .with_arrivals(mmpp)
            .with_warmup(warmup)
            .with_batcher(BatchPolicy::new(8, 5e-3))
            .with_repartitioner(
                Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(
                    DriftPolicy::new()
                        .with_window_jobs(24)
                        .with_threshold(0.08)
                        .with_max_swaps(3),
                ),
            )
    };
    let dynamic_report = serve(&[runtime_tenant()], &spec, &cfg).unwrap();
    let dt = &dynamic_report.tenants[0];
    assert!(
        dt.p99_s() < slo_p99_s,
        "runtime p99 {:.3}s must meet the {slo_p99_s}s SLO",
        dt.p99_s()
    );
    assert!(!dt.swaps.is_empty(), "the re-partitioner must have fired");
    for swap in &dt.swaps {
        assert!(
            swap.to_objective < swap.from_objective,
            "every accepted swap improves the objective"
        );
    }
    assert!(
        dt.throughput_ips > st.throughput_ips,
        "runtime throughput {:.0} must beat static {:.0}",
        dt.throughput_ips,
        st.throughput_ips
    );
    assert!(dt.mean_job_requests > 1.5, "batches actually formed");

    // 3. bitwise determinism of the full dynamic configuration
    let again = serve(&[runtime_tenant()], &spec, &cfg).unwrap();
    assert_eq!(again, dynamic_report, "same seed, same serving report");
}

#[test]
fn admission_control_bounds_p99_under_two_times_overload() {
    let (dag, pipeline, spec) = poor_deployment();
    let cfg = ServeConfig::contended();
    let n = 4_000;
    let warmup = 200;
    let drain_target_s = 0.050;

    // runtime capacity (batched + re-partitioned) measured closed-loop
    let runtime = |admission: AdmissionPolicy, arrivals: Arrivals, requests: usize| {
        ServeTenant::new(pipeline.clone(), requests)
            .with_arrivals(arrivals)
            .with_warmup(warmup)
            .with_batcher(BatchPolicy::new(8, 5e-3))
            .with_admission(admission)
            .with_repartitioner(
                Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(
                    DriftPolicy::new()
                        .with_window_jobs(24)
                        .with_threshold(0.08)
                        .with_max_swaps(3),
                ),
            )
    };
    let cap = serve(
        &[runtime(AdmissionPolicy::Open, Arrivals::ClosedLoop, 1_500)],
        &spec,
        &cfg,
    )
    .unwrap()
    .tenants[0]
        .throughput_ips;

    // 2x overload
    let overload = Arrivals::Poisson {
        rate: 2.0 * cap,
        seed: 77,
    };

    let open = serve(&[runtime(AdmissionPolicy::Open, overload, n)], &spec, &cfg).unwrap();
    let shed = serve(
        &[runtime(
            AdmissionPolicy::SloDelay {
                target_s: drain_target_s,
            },
            overload,
            n,
        )],
        &spec,
        &cfg,
    )
    .unwrap();
    let (ot, at) = (&open.tenants[0], &shed.tenants[0]);
    assert_eq!(ot.shed, 0);
    assert!(at.shed > n / 10, "overload must shed a real fraction");
    assert!(
        at.p99_s() < 4.0 * drain_target_s,
        "admitted p99 {:.3}s must stay within a small multiple of the \
         {drain_target_s}s drain target",
        at.p99_s()
    );
    assert!(
        ot.p99_s() > 10.0 * at.p99_s(),
        "open admission p99 {:.3}s vs shed p99 {:.3}s: shedding must \
         bound the tail",
        ot.p99_s(),
        at.p99_s()
    );
    assert!(
        at.throughput_ips > 0.8 * cap,
        "shedding keeps goodput near capacity: {:.0} vs {cap:.0}",
        at.throughput_ips
    );
}

#[test]
fn repartitioner_leaves_a_well_partitioned_deployment_alone() {
    // Deploy the refined partition directly: the drift window may still
    // trigger on residual skew, but the min-gain gate must refuse to
    // swap (refinement is a fixpoint).
    let (dag, pipeline, spec) = poor_deployment();
    let refined = respect_sched::repartition::refine_with(
        &dag,
        spec.cost_model(),
        &pipeline.schedule,
        32,
        &mut |_, _, _| {},
    );
    assert!(refined.converged);
    let good = compile::compile(&dag, &refined.schedule, &spec).unwrap();
    let tenant = ServeTenant::new(good, 1_500)
        .with_warmup(100)
        .with_batcher(BatchPolicy::new(8, 5e-3))
        .with_repartitioner(
            Repartitioner::new(dag.clone(), spec.cost_model())
                .with_policy(DriftPolicy::new().with_window_jobs(24).with_threshold(0.08)),
        );
    let r = serve(&[tenant], &spec, &ServeConfig::contended()).unwrap();
    assert!(
        r.tenants[0].swaps.is_empty(),
        "no swap may fire on an already-refined deployment: {:?}",
        r.tenants[0].swaps
    );
}

#[test]
fn multi_tenant_serving_with_mixed_policies_is_deterministic() {
    let (_, pipeline, spec) = poor_deployment();
    let heavy = ServeTenant::new(pipeline.clone(), 600)
        .with_arrivals(Arrivals::Diurnal {
            mean_rate: 90.0,
            amplitude: 0.9,
            period_s: 2.0,
            seed: 5,
        })
        .with_batcher(BatchPolicy::new(4, 4e-3))
        .with_admission(AdmissionPolicy::SloDelay { target_s: 0.10 });
    let light = ServeTenant::new(pipeline, 300).with_arrivals(Arrivals::Poisson {
        rate: 30.0,
        seed: 6,
    });
    let cfg = ServeConfig::contended().with_completions();
    let a = serve(&[heavy.clone(), light.clone()], &spec, &cfg).unwrap();
    let b = serve(&[heavy, light], &spec, &cfg).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.tenants.len(), 2);
    for t in &a.tenants {
        assert_eq!(t.admitted + t.shed, t.offered);
        assert_eq!(t.completions.len(), t.admitted);
    }
}

#[test]
fn counts_beyond_the_packed_event_fields_are_rejected() {
    let (pipeline, spec, _) = single_stage_pipeline();
    let cfg = ServeConfig::uncontended();
    let requests = u32::MAX as usize + 1;
    let huge = [ServeTenant::new(pipeline, requests)];
    let too_many = Err(ServeError::TooLarge {
        what: "requests",
        count: requests,
        max: u32::MAX as usize,
    });
    assert_eq!(serve(&huge, &spec, &cfg), too_many);
    assert_eq!(
        serve_probed(&huge, &spec, &cfg, &mut respect_tpu::NullProbe),
        too_many
    );
    let stage = huge[0].pipeline.segments[0].clone();
    let deep = CompiledPipeline {
        segments: vec![stage; 1 << 16],
        schedule: huge[0].pipeline.schedule.clone(),
    };
    assert_eq!(
        serve(&[ServeTenant::new(deep, 5)], &spec, &cfg),
        Err(ServeError::TooLarge {
            what: "stages",
            count: 1 << 16,
            max: usize::from(u16::MAX),
        })
    );
}

#[test]
fn degenerate_device_specs_are_rejected() {
    let (_, pipeline, coral) = poor_deployment();
    let tenants = [ServeTenant::new(pipeline, 10)];
    for (name, spec) in [
        (
            "host_overhead_s",
            DeviceSpec {
                host_overhead_s: f64::NAN,
                ..coral
            },
        ),
        (
            "usb_overhead_s",
            DeviceSpec {
                usb_overhead_s: -1.0,
                ..coral
            },
        ),
        (
            "macs_per_sec",
            DeviceSpec {
                macs_per_sec: 0.0,
                ..coral
            },
        ),
    ] {
        for cfg in [ServeConfig::uncontended(), ServeConfig::contended()] {
            let plain = serve(&tenants, &spec, &cfg);
            let probed = serve_probed(&tenants, &spec, &cfg, &mut respect_tpu::NullProbe);
            for r in [plain, probed] {
                assert!(
                    matches!(
                        r,
                        Err(ServeError::Spec(sim::SimError::InvalidSpec { field, .. }))
                            if field == name
                    ),
                    "{name}: {r:?}"
                );
            }
        }
    }
}

#[test]
fn degenerate_configurations_are_rejected() {
    let (dag, pipeline, spec) = poor_deployment();
    let cfg = ServeConfig::uncontended();
    assert_eq!(serve(&[], &spec, &cfg), Err(ServeError::NoTenants));
    let base = || ServeTenant::new(pipeline.clone(), 10);
    assert_eq!(
        serve(&[ServeTenant::new(pipeline.clone(), 0)], &spec, &cfg),
        Err(ServeError::NoRequests)
    );
    assert_eq!(
        serve(&[base().with_batch(0)], &spec, &cfg),
        Err(ServeError::ZeroBatch)
    );
    assert_eq!(
        serve(&[base().with_warmup(10)], &spec, &cfg),
        Err(ServeError::WarmupTooLarge {
            warmup: 10,
            requests: 10
        })
    );
    assert_eq!(
        serve(
            &[base().with_arrivals(Arrivals::Periodic { rate: 0.0 })],
            &spec,
            &cfg
        ),
        Err(ServeError::Arrivals(sim::SimError::InvalidRate {
            rate: 0.0
        }))
    );
    assert!(matches!(
        serve(
            &[base().with_batcher(BatchPolicy::new(0, 0.0))],
            &spec,
            &cfg
        ),
        Err(ServeError::InvalidBatcher { .. })
    ));
    assert!(matches!(
        serve(
            &[base().with_batcher(BatchPolicy::new(4, f64::NAN))],
            &spec,
            &cfg
        ),
        Err(ServeError::InvalidBatcher { .. })
    ));
    assert!(matches!(
        serve(
            &[base().with_admission(AdmissionPolicy::SloDelay { target_s: -1.0 })],
            &spec,
            &cfg
        ),
        Err(ServeError::InvalidAdmission { .. })
    ));
    assert!(matches!(
        serve(
            &[base().with_admission(AdmissionPolicy::QueueBound { max_waiting: 0 })],
            &spec,
            &cfg
        ),
        Err(ServeError::InvalidAdmission { .. })
    ));
    // repartitioner whose dag does not match the deployed schedule
    let wrong_dag = models::xception();
    assert!(matches!(
        serve(
            &[base().with_repartitioner(Repartitioner::new(wrong_dag, spec.cost_model()))],
            &spec,
            &cfg
        ),
        Err(ServeError::InvalidRepartitioner { .. })
    ));
    // empty pipeline
    let empty = CompiledPipeline {
        segments: vec![],
        schedule: pipeline.schedule.clone(),
    };
    assert_eq!(
        serve(&[ServeTenant::new(empty, 5)], &spec, &cfg),
        Err(ServeError::EmptyPipeline)
    );
    drop(dag);
}
