//! Property tests of the discrete-event engine over random pipelines.
//!
//! The pipelines are synthesized directly at the [`Segment`] level (the
//! only thing the executor reads) from a seeded RNG, spanning
//! overhead-dominated tiny stages to bandwidth-dominated spilling ones.
//!
//! Invariants checked:
//!
//! * **Differential**: closed-loop/uncontended DES reproduces the
//!   analytic tandem-queue recurrence within `1e-9`;
//! * **FIFO**: every device serves each tenant's requests in order;
//! * **Mutual exclusion**: no resource's busy intervals overlap;
//! * **Throughput bound**: closed-loop throughput never exceeds the
//!   bottleneck reciprocal `1 / max_k t_k`;
//! * **Latency bound**: first latency is at least the uncontended
//!   service sum (bus queueing only adds);
//! * **Determinism**: a fixed seed reproduces the full report bitwise;
//! * **Contention monotonicity**: sharing the bus never helps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_sched::Schedule;
use respect_tpu::probe::SpanProbe;
use respect_tpu::sim::{self, Arrivals, ResourceId, SimConfig, Workload};
use respect_tpu::{exec, CompiledPipeline, DeviceSpec, Segment};

/// A random pipeline with consistent inter-stage byte counts
/// (`output[k] == input[k+1]`).
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

fn service_sum(p: &CompiledPipeline, spec: &DeviceSpec) -> f64 {
    p.segments
        .iter()
        .map(|s| exec::stage_service_time(s, spec))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn des_matches_analytic_recurrence(stages in 1usize..=6, seed in 0u64..1 << 48, n in 1usize..200) {
        let spec = DeviceSpec::coral();
        let p = random_pipeline(stages, seed);
        let des = exec::simulate(&p, &spec, n).unwrap();
        let ana = exec::analytic(&p, &spec, n).unwrap();
        prop_assert!(
            (des.total_s - ana.total_s).abs() < 1e-9,
            "total: des {} vs analytic {}", des.total_s, ana.total_s
        );
        prop_assert!(
            (des.first_latency_s - ana.first_latency_s).abs() < 1e-9,
            "first latency: des {} vs analytic {}", des.first_latency_s, ana.first_latency_s
        );
        prop_assert!(
            (des.throughput_ips - ana.throughput_ips).abs() <= 1e-9 * ana.throughput_ips.max(1.0),
            "throughput: des {} vs analytic {}", des.throughput_ips, ana.throughput_ips
        );
    }

    #[test]
    fn resources_serve_fifo_without_overlap(stages in 1usize..=5, seed in 0u64..1 << 48) {
        let spec = DeviceSpec::coral();
        let a = Workload::closed_loop(random_pipeline(stages, seed), 40);
        let b = Workload::closed_loop(random_pipeline(stages, seed ^ 0xdead_beef), 40);
        let mut probe = SpanProbe::new();
        sim::run_probed(&[a, b], &spec, &SimConfig::contended(), &mut probe).unwrap();
        let trace = probe.spans();
        // group spans per resource, preserving engine emission order
        let resources: Vec<ResourceId> = {
            let mut seen = Vec::new();
            for s in trace {
                if !seen.contains(&s.resource) {
                    seen.push(s.resource);
                }
            }
            seen
        };
        for res in resources {
            let mut spans: Vec<_> = trace.iter().filter(|s| s.resource == res).collect();
            spans.sort_by(|x, y| x.start_s.total_cmp(&y.start_s));
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].start_s >= w[0].end_s - 1e-12,
                    "{res:?} double-booked: [{}, {}] then [{}, {}]",
                    w[0].start_s, w[0].end_s, w[1].start_s, w[1].end_s
                );
            }
            if let ResourceId::Device(_) = res {
                // per-tenant request order must be preserved (FIFO)
                for tenant in 0..2 {
                    let reqs: Vec<u32> = spans
                        .iter()
                        .filter(|s| s.tenant == tenant)
                        .map(|s| s.request)
                        .collect();
                    let mut sorted = reqs.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(&reqs, &sorted, "{:?} served tenant {} out of order", res, tenant);
                }
            }
        }
    }

    #[test]
    fn throughput_never_beats_the_bottleneck(stages in 1usize..=6, seed in 0u64..1 << 48, n in 1usize..120) {
        let spec = DeviceSpec::coral();
        let p = random_pipeline(stages, seed);
        let t_max = p
            .segments
            .iter()
            .map(|s| exec::stage_service_time(s, &spec))
            .fold(f64::MIN, f64::max);
        for cfg in [SimConfig::uncontended(), SimConfig::contended()] {
            let r = sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg).unwrap();
            prop_assert!(
                r.tenants[0].throughput_ips <= (1.0 + 1e-9) / t_max,
                "throughput {} beats bottleneck bound {}",
                r.tenants[0].throughput_ips,
                1.0 / t_max
            );
        }
    }

    #[test]
    fn first_latency_at_least_service_sum(stages in 1usize..=6, seed in 0u64..1 << 48) {
        let spec = DeviceSpec::coral();
        let p = random_pipeline(stages, seed);
        let floor = service_sum(&p, &spec);
        for cfg in [SimConfig::uncontended(), SimConfig::contended()] {
            let r = sim::run(&[Workload::closed_loop(p.clone(), 10)], &spec, &cfg).unwrap();
            prop_assert!(
                r.tenants[0].first_latency_s >= floor - 1e-9,
                "first latency {} below uncontended floor {}",
                r.tenants[0].first_latency_s,
                floor
            );
        }
    }

    #[test]
    fn fixed_seed_is_bitwise_deterministic(stages in 1usize..=5, seed in 0u64..1 << 48) {
        let spec = DeviceSpec::coral();
        let mk = || {
            vec![
                Workload::new(random_pipeline(stages, seed), 30)
                    .with_arrivals(Arrivals::Poisson { rate: 400.0, seed })
                    .with_batch(2),
                Workload::closed_loop(random_pipeline(stages, !seed), 20),
            ]
        };
        let run = || {
            let mut probe = SpanProbe::new();
            let report = sim::run_probed(&mk(), &spec, &SimConfig::contended(), &mut probe).unwrap();
            (report, probe.spans().to_vec())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn bus_contention_never_helps(stages in 1usize..=6, seed in 0u64..1 << 48) {
        let spec = DeviceSpec::coral();
        let wl = Workload::closed_loop(random_pipeline(stages, seed), 60);
        let un = sim::run(std::slice::from_ref(&wl), &spec, &SimConfig::uncontended()).unwrap();
        let co = sim::run(&[wl], &spec, &SimConfig::contended()).unwrap();
        prop_assert!(
            co.tenants[0].throughput_ips <= un.tenants[0].throughput_ips * (1.0 + 1e-9),
            "contended {} beat uncontended {}",
            co.tenants[0].throughput_ips,
            un.tenants[0].throughput_ips
        );
    }
}
