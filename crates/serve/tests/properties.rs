//! Property tests of the serving runtime over random pipelines.
//!
//! Invariants checked:
//!
//! * **Differential**: the degenerate serving configuration
//!   (`max_batch = 1`, `max_delay = 0`, open admission, no
//!   repartitioner) reproduces the raw simulator **bitwise** — same
//!   per-request event times, same report arithmetic — on both bus
//!   models, single- and multi-tenant, across every arrival process;
//! * **Admission soundness**: shedding never fires below the analytic
//!   bottleneck throughput bound (a deterministic sub-capacity stream
//!   with a sane SLO is never shed);
//! * **Batching soundness**: closed-loop dynamic batching never loses
//!   steady-state throughput vs unbatched serving;
//! * **Determinism**: a fixed seed reproduces the full serving report
//!   (histograms included) bitwise;
//! * **Mutual exclusion and FIFO**: under batching and admission, in
//!   `serve` and in a routed fleet, no `(chain, resource)` is held by
//!   two jobs at once, and every device starts one tenant's jobs in
//!   increasing first-member order;
//! * **Histogram accuracy**: quantiles under-report the exact order
//!   statistic by at most one log-bucket width.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_sched::Schedule;
use respect_serve::{
    serve, serve_fleet_probed, serve_probed, AdmissionPolicy, BatchPolicy, FleetConfig,
    LatencyHistogram, RouterPolicy, ServeConfig, ServeTenant,
};
use respect_tpu::probe::{SpanProbe, TraceSpan};
use respect_tpu::sim::{self, Arrivals, ResourceId, SimConfig, Workload};
use respect_tpu::{CompiledPipeline, DeviceSpec, Segment};

/// A random pipeline with consistent inter-stage byte counts
/// (`output[k] == input[k+1]`), as in the simulator's own property
/// tests.
fn random_pipeline(stages: usize, seed: u64) -> CompiledPipeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = DeviceSpec::coral();
    let cuts: Vec<u64> = (0..stages.saturating_sub(1))
        .map(|_| rng.gen_range(0u64..4 << 20))
        .collect();
    let segments = (0..stages)
        .map(|k| {
            let param_bytes = rng.gen_range(0u64..16 << 20);
            let cached_bytes = param_bytes.min(spec.sram_bytes);
            Segment {
                stage: k,
                nodes: vec![],
                param_bytes,
                cached_bytes,
                streamed_bytes: param_bytes - cached_bytes,
                macs: rng.gen_range(0u64..2_000_000_000),
                input_bytes: if k == 0 { 0 } else { cuts[k - 1] },
                output_bytes: if k + 1 == stages { 0 } else { cuts[k] },
            }
        })
        .collect();
    CompiledPipeline {
        segments,
        schedule: Schedule::new((0..stages).collect(), stages).unwrap(),
    }
}

fn max_hold(p: &CompiledPipeline, spec: &DeviceSpec) -> f64 {
    p.segments
        .iter()
        .map(|s| sim::batch_service_time(s, spec, 1))
        .fold(0.0, f64::max)
}

/// Asserts the degenerate serving path reproduces `sim::run` bitwise.
fn assert_serve_matches_sim(workloads: &[Workload], contended: bool) {
    let spec = DeviceSpec::coral();
    let sim_cfg = if contended {
        SimConfig::contended().with_completions()
    } else {
        SimConfig::uncontended().with_completions()
    };
    let serve_cfg = if contended {
        ServeConfig::contended().with_completions()
    } else {
        ServeConfig::uncontended().with_completions()
    };
    let tenants: Vec<ServeTenant> = workloads
        .iter()
        .map(|wl| {
            ServeTenant::new(wl.pipeline.clone(), wl.requests)
                .with_arrivals(wl.arrivals)
                .with_batch(wl.batch)
                .with_warmup(wl.warmup)
        })
        .collect();
    let s = sim::run(workloads, &spec, &sim_cfg).unwrap();
    let v = serve(&tenants, &spec, &serve_cfg).unwrap();
    assert_eq!(v.makespan_s.to_bits(), s.makespan_s.to_bits());
    assert_eq!(v.bus_busy_s.to_bits(), s.bus_busy_s.to_bits());
    for (st, vt) in s.tenants.iter().zip(&v.tenants) {
        assert_eq!(vt.offered, st.requests);
        assert_eq!(vt.admitted, st.requests);
        assert_eq!(vt.shed, 0);
        assert_eq!(vt.jobs, st.requests, "one job per request");
        assert_eq!(vt.total_s.to_bits(), st.total_s.to_bits());
        assert_eq!(vt.mean_latency_s.to_bits(), st.mean_latency_s.to_bits());
        assert_eq!(vt.max_latency_s.to_bits(), st.max_latency_s.to_bits());
        assert_eq!(vt.throughput_ips.to_bits(), st.throughput_ips.to_bits());
        assert_eq!(vt.completions.len(), st.completions.len());
        for (sc, vc) in st.completions.iter().zip(&vt.completions) {
            assert_eq!(vc.request, sc.request);
            assert_eq!(vc.batch, sc.batch);
            assert_eq!(vc.arrival_s.to_bits(), sc.arrival_s.to_bits());
            assert_eq!(vc.completed_s.to_bits(), sc.completed_s.to_bits());
        }
    }
}

/// Asserts that no `(chain, resource)` is held twice at once and that
/// every device starts each tenant's jobs in increasing first-member
/// order.
fn assert_exclusive_and_fifo(spans: &[TraceSpan], tenants: u32) {
    assert!(!spans.is_empty(), "the run held no resource");
    let mut keys: Vec<(u16, ResourceId)> = Vec::new();
    for s in spans {
        if !keys.contains(&(s.chain, s.resource)) {
            keys.push((s.chain, s.resource));
        }
    }
    for (chain, resource) in keys {
        let mut held: Vec<&TraceSpan> = spans
            .iter()
            .filter(|s| (s.chain, s.resource) == (chain, resource))
            .collect();
        held.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for w in held.windows(2) {
            assert!(
                w[1].start_s >= w[0].end_s,
                "chain {chain} {resource:?} double-booked: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        if let ResourceId::Device(_) = resource {
            for tenant in 0..tenants {
                let firsts: Vec<u32> = held
                    .iter()
                    .filter(|s| s.tenant == tenant)
                    .map(|s| s.request)
                    .collect();
                assert!(
                    firsts.windows(2).all(|w| w[0] < w[1]),
                    "chain {chain} {resource:?} served tenant {tenant} out of order: {firsts:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serve_and_fleet_never_double_book_a_resource(
        stages in 1usize..=5,
        seed in 0u64..1 << 48,
    ) {
        let spec = DeviceSpec::coral();
        let p = random_pipeline(stages, seed);
        let q = random_pipeline(stages, seed ^ 0x7777);
        // two tenants offered well past one chain's capacity: batches,
        // queues and sheds all occur
        let rate = 1.5 / max_hold(&p, &spec).max(max_hold(&q, &spec));
        let tenants: Vec<ServeTenant> = [p, q]
            .into_iter()
            .enumerate()
            .map(|(i, pipeline)| {
                ServeTenant::new(pipeline, 80)
                    .with_arrivals(Arrivals::Poisson { rate, seed: seed ^ i as u64 })
                    .with_batcher(BatchPolicy::new(3, 1.0 / rate))
                    .with_admission(AdmissionPolicy::QueueBound { max_waiting: 6 })
            })
            .collect();
        for contended in [false, true] {
            let cfg = if contended { ServeConfig::contended() } else { ServeConfig::uncontended() };
            let mut probe = SpanProbe::new();
            serve_probed(&tenants, &spec, &cfg, &mut probe).unwrap();
            assert_exclusive_and_fifo(probe.spans(), 2);

            let mut fleet = FleetConfig::homogeneous(3, spec)
                .with_router(RouterPolicy::JoinShortestBacklog);
            fleet.contended_bus = contended;
            let mut probe = SpanProbe::new();
            serve_fleet_probed(&tenants, &fleet, &mut probe).unwrap();
            assert_exclusive_and_fifo(probe.spans(), 2);
            prop_assert!(probe.spans().iter().any(|s| s.chain == 2), "routing reached chain 2");
        }
    }

    #[test]
    fn degenerate_serving_is_bitwise_the_raw_simulator(
        stages in 1usize..=6,
        seed in 0u64..1 << 48,
        n in 1usize..150,
        contended_u in 0usize..2,
    ) {
        let contended = contended_u == 1;
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let rate = 0.8 / max_hold(&p, &spec);
        for arrivals in [
            Arrivals::ClosedLoop,
            Arrivals::Periodic { rate },
            Arrivals::Poisson { rate, seed: seed ^ 0xabc },
            Arrivals::Mmpp {
                low_rate: 0.5 * rate,
                high_rate: 2.0 * rate,
                mean_dwell_s: 10.0 / rate,
                seed: seed ^ 0xdef,
            },
        ] {
            let wl = Workload::new(p.clone(), n)
                .with_arrivals(arrivals)
                .with_warmup(n / 5);
            assert_serve_matches_sim(std::slice::from_ref(&wl), contended);
        }
    }

    #[test]
    fn degenerate_multi_tenant_serving_matches_the_simulator(
        seed in 0u64..1 << 48,
        n in 2usize..80,
        contended_u in 0usize..2,
    ) {
        let contended = contended_u == 1;
        let p4 = random_pipeline(4, seed);
        let p2 = random_pipeline(2, seed ^ 0x1111);
        let workloads = vec![
            Workload::new(p4, n),
            Workload::new(p2, n / 2 + 1).with_batch(2).with_arrivals(
                Arrivals::Poisson { rate: 200.0, seed: seed ^ 0x2222 },
            ),
        ];
        assert_serve_matches_sim(&workloads, contended);
    }

    #[test]
    fn shedding_never_fires_below_the_bottleneck_bound(
        stages in 1usize..=6,
        seed in 0u64..1 << 48,
        n in 10usize..200,
    ) {
        // A deterministic stream offered below the analytic bottleneck
        // capacity 1/max_hold never accumulates backlog, so neither
        // admission policy may shed — for any SLO at least the
        // pipeline's natural in-flight drain time.
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let bottleneck = max_hold(&p, &spec);
        let rate = 0.95 / bottleneck;
        for admission in [
            AdmissionPolicy::SloDelay { target_s: (stages as f64 + 1.0) * bottleneck },
            AdmissionPolicy::QueueBound { max_waiting: stages + 1 },
        ] {
            let tenant = ServeTenant::new(p.clone(), n)
                .with_arrivals(Arrivals::Periodic { rate })
                .with_admission(admission);
            let r = serve(&[tenant], &spec, &ServeConfig::uncontended()).unwrap();
            prop_assert_eq!(r.tenants[0].shed, 0, "sub-capacity stream was shed");
            prop_assert_eq!(r.tenants[0].admitted, n);
        }
    }

    #[test]
    fn closed_loop_batching_never_loses_throughput(
        stages in 1usize..=5,
        seed in 0u64..1 << 48,
        max_batch in 2usize..=16,
    ) {
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let n = 512;
        let plain = ServeTenant::new(p.clone(), n).with_warmup(n / 8);
        let batched = ServeTenant::new(p, n)
            .with_warmup(n / 8)
            .with_batcher(BatchPolicy::new(max_batch, 0.5));
        let cfg = ServeConfig::uncontended();
        let r1 = serve(&[plain], &spec, &cfg).unwrap();
        let rb = serve(&[batched], &spec, &cfg).unwrap();
        prop_assert!(
            rb.tenants[0].throughput_ips >= 0.999 * r1.tenants[0].throughput_ips,
            "batched {} < unbatched {}",
            rb.tenants[0].throughput_ips,
            r1.tenants[0].throughput_ips
        );
    }

    #[test]
    fn serving_reports_are_bitwise_deterministic(
        stages in 1usize..=5,
        seed in 0u64..1 << 48,
    ) {
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let rate = 1.1 / max_hold(&p, &spec);
        let tenant = || {
            ServeTenant::new(p.clone(), 150)
                .with_arrivals(Arrivals::Mmpp {
                    low_rate: 0.4 * rate,
                    high_rate: 1.6 * rate,
                    mean_dwell_s: 20.0 / rate,
                    seed: seed ^ 0x5151,
                })
                .with_batcher(BatchPolicy::new(4, 2.0 / rate))
                .with_admission(AdmissionPolicy::SloDelay {
                    target_s: 40.0 / rate,
                })
                .with_warmup(10)
        };
        let cfg = ServeConfig::contended().with_completions();
        let a = serve(&[tenant()], &spec, &cfg).unwrap();
        let b = serve(&[tenant()], &spec, &cfg).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn histogram_quantiles_sit_within_one_bucket_of_exact(
        seed in 0u64..1 << 48,
        n in 1usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(1e-6..10.0f64))
            .collect();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let got = h.quantile(q);
            prop_assert!(got <= exact, "q{q}: {got} above exact {exact}");
            prop_assert!(
                got > exact / 1.04,
                "q{q}: {got} more than one bucket below exact {exact}"
            );
        }
    }
}
