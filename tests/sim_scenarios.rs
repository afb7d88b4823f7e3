//! Scenario-level integration tests of the discrete-event simulator:
//! multi-tenant co-residency on a shared device chain and USB bus,
//! open-loop arrival sweeps, and batched streams — the workloads the
//! legacy closed-form recurrence could not express.

use respect::graph::models;
use respect::sched::{balanced::ParamBalanced, Scheduler};
use respect::tpu::probe::SpanProbe;
use respect::tpu::sim::{self, Arrivals, SimConfig, Workload};
use respect::tpu::{compile, device::DeviceSpec, CompiledPipeline};

fn compiled(dag: &respect::graph::Dag, stages: usize, spec: &DeviceSpec) -> CompiledPipeline {
    let s = ParamBalanced::new().schedule(dag, stages).unwrap();
    compile::compile(dag, &s, spec).unwrap()
}

/// Two models co-resident on one 4-TPU chain with a shared bus must each
/// run measurably slower than they do alone — the acceptance criterion
/// of the simulator issue.
#[test]
fn co_residency_degrades_per_tenant_throughput() {
    let spec = DeviceSpec::coral();
    // Heavy spillers: both stream parameters over the shared bus every
    // inference, so contention is structural, not incidental.
    let a = compiled(&models::resnet152(), 4, &spec);
    let b = compiled(&models::resnet101(), 4, &spec);
    let cfg = SimConfig::contended();
    let n = 300;

    let solo = |p: &CompiledPipeline| {
        sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg)
            .unwrap()
            .tenants[0]
            .throughput_ips
    };
    let solo_a = solo(&a);
    let solo_b = solo(&b);

    let shared = sim::run(
        &[Workload::closed_loop(a, n), Workload::closed_loop(b, n)],
        &spec,
        &cfg,
    )
    .unwrap();
    let shared_a = shared.tenants[0].throughput_ips;
    let shared_b = shared.tenants[1].throughput_ips;

    assert!(
        shared_a < 0.95 * solo_a,
        "tenant A: shared {shared_a} not measurably below solo {solo_a}"
    );
    assert!(
        shared_b < 0.95 * solo_b,
        "tenant B: shared {shared_b} not measurably below solo {solo_b}"
    );
    // Sharing is coupled by FIFO head-of-line blocking on the bus (the
    // heavy spiller's long transfers pace everyone), so the aggregate
    // does NOT exceed either solo rate here — but it must still beat
    // dedicating the whole system to the slower tenant.
    assert!(
        shared_a + shared_b > solo_a.min(solo_b),
        "aggregate {} fell below the slower solo {}",
        shared_a + shared_b,
        solo_a.min(solo_b)
    );
}

/// Under light open-loop load the system is arrival-bound: achieved
/// throughput tracks the offered rate and latency stays at the service
/// floor. Past saturation it is service-bound: throughput pins at the
/// closed-loop capacity and latency grows.
#[test]
fn open_loop_rates_sweep_from_idle_to_saturation() {
    let spec = DeviceSpec::coral();
    let p = compiled(&models::resnet50(), 4, &spec);
    let cfg = SimConfig::contended();
    let n = 400;

    let capacity = sim::run(&[Workload::closed_loop(p.clone(), n)], &spec, &cfg)
        .unwrap()
        .tenants[0]
        .throughput_ips;

    // 30% load: arrival-bound
    let light_rate = 0.3 * capacity;
    let light = sim::run(
        &[Workload::new(p.clone(), n).with_arrivals(Arrivals::Periodic { rate: light_rate })],
        &spec,
        &cfg,
    )
    .unwrap();
    let t = &light.tenants[0];
    assert!(
        (t.throughput_ips - light_rate).abs() / light_rate < 0.05,
        "light load: achieved {} vs offered {light_rate}",
        t.throughput_ips
    );

    // 3x overload: service-bound, throughput pinned at capacity
    let heavy = sim::run(
        &[Workload::new(p.clone(), n)
            .with_arrivals(Arrivals::Poisson {
                rate: 3.0 * capacity,
                seed: 11,
            })
            .with_warmup(n / 10)],
        &spec,
        &cfg,
    )
    .unwrap();
    let h = &heavy.tenants[0];
    assert!(
        (h.throughput_ips - capacity).abs() / capacity < 0.05,
        "overload: achieved {} vs capacity {capacity}",
        h.throughput_ips
    );
    assert!(
        h.mean_latency_s > 3.0 * t.mean_latency_s,
        "overload latency {} should dwarf light-load latency {}",
        h.mean_latency_s,
        t.mean_latency_s
    );
}

/// Batched streams amortize host dispatch and USB submission overheads:
/// steady-state throughput grows monotonically in batch size on an
/// overhead-sensitive pipeline.
#[test]
fn batching_monotonically_amortizes_overheads() {
    let spec = DeviceSpec::coral();
    // many stages -> short per-stage work -> fixed overheads dominate
    let p = compiled(&models::resnet50(), 6, &spec);
    let cfg = SimConfig::contended();
    let inferences = 960;
    let mut last = 0.0;
    for batch in [1usize, 4, 16] {
        let requests = inferences / batch;
        let r = sim::run(
            &[Workload::closed_loop(p.clone(), requests)
                .with_batch(batch)
                .with_warmup(requests / 8)],
            &spec,
            &cfg,
        )
        .unwrap();
        let ips = r.tenants[0].throughput_ips;
        assert!(ips > last, "batch {batch}: {ips} did not improve on {last}");
        last = ips;
    }
}

/// A lighter co-tenant steals less bus than a heavy one: degradation is
/// graded, not all-or-nothing.
#[test]
fn contention_scales_with_co_tenant_weight() {
    let spec = DeviceSpec::coral();
    let victim = compiled(&models::resnet152(), 4, &spec);
    let light = compiled(&models::xception(), 4, &spec); // fits cache: little streaming
    let heavy = compiled(&models::resnet152v2(), 4, &spec); // heavy spiller
    let cfg = SimConfig::contended();
    let n = 250;

    let victim_with = |other: &CompiledPipeline| {
        sim::run(
            &[
                Workload::closed_loop(victim.clone(), n),
                Workload::closed_loop(other.clone(), n),
            ],
            &spec,
            &cfg,
        )
        .unwrap()
        .tenants[0]
            .throughput_ips
    };
    let with_light = victim_with(&light);
    let with_heavy = victim_with(&heavy);
    assert!(
        with_heavy < with_light,
        "heavy co-tenant ({with_heavy}) should hurt more than light ({with_light})"
    );
}

/// The engine accepts tenants of different pipeline depths on one chain:
/// a 2-stage model shares devices 0-1 with a 4-stage model's front half.
#[test]
fn mixed_depth_tenants_share_the_chain_prefix() {
    let spec = DeviceSpec::coral();
    let deep = compiled(&models::resnet101(), 4, &spec);
    let shallow = compiled(&models::xception(), 2, &spec);
    let mut probe = SpanProbe::new();
    let r = sim::run_probed(
        &[
            Workload::closed_loop(deep, 120),
            Workload::closed_loop(shallow, 120),
        ],
        &spec,
        &SimConfig::contended(),
        &mut probe,
    )
    .unwrap();
    assert_eq!(r.tenants[0].inferences, 120);
    assert_eq!(r.tenants[1].inferences, 120);
    // the shallow tenant never touches devices 2..4
    use respect::tpu::sim::ResourceId;
    let spans = probe.spans();
    assert!(spans.iter().any(|s| s.tenant == 1));
    assert!(spans.iter().filter(|s| s.tenant == 1).all(|s| matches!(
        s.resource,
        ResourceId::Bus | ResourceId::Device(0) | ResourceId::Device(1)
    )));
}
