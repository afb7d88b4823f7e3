//! Probe-stream invariants over real sim, serve and fleet runs:
//!
//! * conservation — every offered request is admitted or shed, exactly
//!   once, and every admitted request completes;
//! * span discipline — per (chain, resource), acquires and releases
//!   strictly alternate and the resulting busy intervals never overlap
//!   (each resource is an exclusive FIFO server);
//! * the hold stamp — every `Release` carries, bit for bit, the time of
//!   the last `Acquire` of its (chain, resource), so the recorders'
//!   busy seconds and spans equal a replay that pairs the stream
//!   itself, over generated configurations;
//! * FIFO jobs — on serve and fleet streams, a tenant's jobs on one
//!   chain complete whole and in the order their batches closed, also
//!   across live re-partitioning;
//! * observation is free — a `NullProbe` run and a recorder-laden run
//!   produce bitwise-identical reports.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_graph::models;
use respect_obs::{ChromeTraceRecorder, FlightRecorder, MetricsRecorder, Probe, ProbeEvent};
use respect_sched::balanced::OpBalanced;
use respect_sched::{Schedule, Scheduler};
use respect_serve::{
    serve, serve_fleet, serve_fleet_probed, serve_probed, AdmissionPolicy, AutoscalePolicy,
    BatchPolicy, DriftPolicy, FleetConfig, Repartitioner, RouterPolicy, ServeConfig, ServeTenant,
};
use respect_tpu::probe::{EngineKind, NullProbe, SpanProbe, TraceSpan};
use respect_tpu::sim::{self, Arrivals, ResourceId, SimConfig, Workload};
use respect_tpu::{compile, CompiledPipeline, DeviceSpec, Segment};

/// Collects the raw stream for offline invariant checking.
#[derive(Default)]
struct Collect(Vec<(f64, ProbeEvent)>);

impl Probe for Collect {
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        self.0.push((t, *ev));
    }
}

fn pipeline() -> CompiledPipeline {
    let dag = models::resnet50();
    let schedule = OpBalanced::new().schedule(&dag, 4).unwrap();
    compile::compile(&dag, &schedule, &DeviceSpec::coral()).unwrap()
}

/// An overloaded queue-bounded tenant plus a calm one: sheds, batches,
/// and completions all occur.
fn tenants(p: &CompiledPipeline) -> Vec<ServeTenant> {
    vec![
        ServeTenant::new(p.clone(), 300)
            .with_arrivals(Arrivals::Poisson {
                rate: 2_000.0,
                seed: 5,
            })
            .with_batcher(BatchPolicy::new(4, 2e-3))
            .with_admission(AdmissionPolicy::QueueBound { max_waiting: 4 }),
        ServeTenant::new(p.clone(), 200),
    ]
}

/// What [`check_stream`] replayed: the shed count, and each hold as
/// its `Acquire` reported it, closed by its `Release`, in release order.
#[derive(Debug, Default)]
struct Replay {
    sheds: u64,
    /// Every hold, in release order.
    spans: Vec<TraceSpan>,
    device_busy_s: f64,
    bus_busy_s: f64,
    /// `RepartitionAccept`s that swapped a pipeline while a job closed
    /// under the old one was still in flight behind the job whose
    /// completion triggered the swap.
    swaps_with_jobs_in_flight: u64,
}

/// One (chain, tenant)'s admitted requests, replayed: those in the open
/// batch, and each closed batch's members still to complete, in close
/// order.
#[derive(Debug, Default)]
struct JobFifo {
    open: VecDeque<u32>,
    jobs: VecDeque<Vec<u32>>,
}

/// Asserts conservation, span discipline and the hold stamp on a
/// collected stream, and on serve and fleet streams that jobs complete
/// in FIFO order. `engine` says which events to expect: `sim` runs no
/// admission control, so it emits no `Admit` or `Shed`.
fn check_stream(events: &[(f64, ProbeEvent)], offered: u64, engine: EngineKind) -> Replay {
    let mut replay = Replay::default();
    let (mut arrivals, mut admits, mut completions) = (0u64, 0u64, 0u64);
    let mut fifos: BTreeMap<(u16, u32), JobFifo> = BTreeMap::new();
    let batched = engine != EngineKind::Sim;
    // (chain, device-or-bus key) → (open hold, as its Acquire reported
    // it; last release time)
    let mut holds: BTreeMap<(u16, u32), (Option<TraceSpan>, f64)> = BTreeMap::new();
    let key = |chain: u16, resource: ResourceId| match resource {
        ResourceId::Device(k) => (chain, k as u32),
        ResourceId::Bus => (chain, u32::MAX),
    };
    let mut last_t = 0.0f64;
    for &(t, ev) in events {
        assert!(
            t >= last_t,
            "probe stream must be time-ordered: {t} < {last_t}"
        );
        last_t = t;
        match ev {
            ProbeEvent::Arrival { .. } => arrivals += 1,
            ProbeEvent::Admit {
                chain,
                tenant,
                request,
            } => {
                admits += 1;
                let fifo = fifos.entry((chain, tenant)).or_default();
                fifo.open.push_back(request);
            }
            ProbeEvent::Shed { .. } => replay.sheds += 1,
            ProbeEvent::BatchClose {
                chain,
                tenant,
                size,
            } => {
                let fifo = fifos.entry((chain, tenant)).or_default();
                assert!(
                    size as usize <= fifo.open.len(),
                    "batch of {size} closes over {} open requests on chain {chain}",
                    fifo.open.len()
                );
                let job = fifo.open.drain(..size as usize).collect();
                fifo.jobs.push_back(job);
            }
            ProbeEvent::Completion {
                chain,
                tenant,
                request,
                latency_s,
            } => {
                completions += 1;
                assert!(latency_s > 0.0, "sojourn must be positive");
                if batched {
                    let fifo = fifos.entry((chain, tenant)).or_default();
                    let front = fifo.jobs.front_mut().unwrap_or_else(|| {
                        panic!(
                            "request {request} of tenant {tenant} completes with no job in flight"
                        )
                    });
                    let at = front.iter().position(|&r| r == request).unwrap_or_else(|| {
                        panic!(
                            "request {request} of tenant {tenant} on chain {chain} completes \
                             outside the oldest job in flight {front:?}"
                        )
                    });
                    front.swap_remove(at);
                    if front.is_empty() {
                        fifo.jobs.pop_front();
                    }
                }
            }
            ProbeEvent::RepartitionAccept { chain, tenant } => {
                // the job whose completion ran this evaluation emits its
                // `Completion`s after the accept, so it is still queued
                let in_flight = fifos.get(&(chain, tenant)).map_or(0, |f| f.jobs.len());
                if in_flight >= 2 {
                    replay.swaps_with_jobs_in_flight += 1;
                }
            }
            ProbeEvent::Acquire {
                chain,
                resource,
                tenant,
                request,
                stage,
            } => {
                let (open, released) = holds.entry(key(chain, resource)).or_insert((None, 0.0));
                assert!(
                    open.is_none(),
                    "double acquire on {resource:?} of chain {chain}"
                );
                assert!(
                    t >= *released,
                    "acquire at {t} before previous release {released} on {resource:?}"
                );
                *open = Some(TraceSpan {
                    chain,
                    resource,
                    tenant,
                    request,
                    stage,
                    start_s: t,
                    end_s: t,
                });
            }
            ProbeEvent::Release {
                chain,
                resource,
                since_s,
                ..
            } => {
                let (open, released) = holds
                    .get_mut(&key(chain, resource))
                    .unwrap_or_else(|| panic!("release without acquire on {resource:?}"));
                let hold = open
                    .take()
                    .unwrap_or_else(|| panic!("release without open hold on {resource:?}"));
                assert!(
                    t >= hold.start_s,
                    "release at {t} before acquire {}",
                    hold.start_s
                );
                assert_eq!(
                    since_s.to_bits(),
                    hold.start_s.to_bits(),
                    "release at {t} on {resource:?} of chain {chain} stamps {since_s}, \
                     but its hold began at {}",
                    hold.start_s
                );
                match resource {
                    ResourceId::Device(_) => replay.device_busy_s += t - hold.start_s,
                    ResourceId::Bus => replay.bus_busy_s += t - hold.start_s,
                }
                replay.spans.push(TraceSpan { end_s: t, ..hold });
                *released = t;
            }
            _ => {}
        }
    }
    assert_eq!(arrivals, offered, "one Arrival per offered request");
    let admitted = if engine == EngineKind::Sim {
        assert_eq!((admits, replay.sheds), (0, 0), "sim runs no admission");
        arrivals
    } else {
        admits
    };
    assert_eq!(
        admitted + replay.sheds,
        offered,
        "every request is admitted or shed, exactly once"
    );
    assert_eq!(completions, admitted, "every admitted request completes");
    for ((chain, res), (open, _)) in &holds {
        assert!(
            open.is_none(),
            "resource {res} of chain {chain} still held at end"
        );
    }
    for ((chain, tenant), fifo) in &fifos {
        assert!(
            fifo.open.is_empty() && fifo.jobs.is_empty(),
            "tenant {tenant} on chain {chain} ends with requests unbatched or in flight: {fifo:?}"
        );
    }
    replay
}

#[test]
fn serve_stream_conserves_requests_and_nests_spans() {
    let p = pipeline();
    let spec = DeviceSpec::coral();
    let cfg = ServeConfig::contended();
    let mut collect = Collect::default();
    let probed = serve_probed(&tenants(&p), &spec, &cfg, &mut collect).unwrap();
    let replay = check_stream(&collect.0, 500, EngineKind::Serve);
    assert!(replay.sheds > 0, "the overloaded tenant must shed");
    // observation is free: NullProbe ≡ unprobed ≡ collected run
    let plain = serve(&tenants(&p), &spec, &cfg).unwrap();
    let nulled = serve_probed(&tenants(&p), &spec, &cfg, &mut NullProbe).unwrap();
    assert_eq!(plain, probed);
    assert_eq!(plain, nulled);
}

#[test]
fn fleet_stream_conserves_requests_and_nests_spans_per_chain() {
    let p = pipeline();
    let cfg = FleetConfig::homogeneous(3, DeviceSpec::coral())
        .with_router(RouterPolicy::JoinShortestBacklog)
        .with_autoscale(
            AutoscalePolicy::new()
                .with_check_jobs(4)
                .with_scale_up_s(0.005)
                .with_scale_down_s(0.001),
        );
    let mut collect = Collect::default();
    let probed = serve_fleet_probed(&tenants(&p), &cfg, &mut collect).unwrap();
    let replay = check_stream(&collect.0, 500, EngineKind::Fleet);
    assert!(replay.sheds > 0, "the overloaded tenant must shed");
    // fleet-only invariants: one router decision per arrival, and the
    // scale events chain contiguously from the min_chains floor
    let routes = collect
        .0
        .iter()
        .filter(|(_, e)| matches!(e, ProbeEvent::RouterDecision { .. }))
        .count();
    assert_eq!(routes, 500);
    let mut active = 1u16;
    for (_, ev) in &collect.0 {
        match *ev {
            ProbeEvent::ScaleUp { from, to } => {
                assert_eq!(from, active);
                assert_eq!(to, from + 1);
                active = to;
            }
            ProbeEvent::ScaleDown { from, to } => {
                assert_eq!(from, active);
                assert_eq!(to, from - 1);
                active = to;
            }
            _ => {}
        }
    }
    assert!(active > 1, "the flood must have scaled the fleet up");
    let plain = serve_fleet(&tenants(&p), &cfg).unwrap();
    assert_eq!(plain, probed, "probing must not change the fleet run");
}

/// Batched, re-partitioning tenants on DenseNet-121's op-balanced
/// 6-stage pipeline, offered about twice what one chain serves: deep
/// backlogs, so jobs closed under one pipeline are still in flight
/// when a drift swap installs the next.
fn repartitioning_tenants(count: usize, requests: usize) -> Vec<ServeTenant> {
    let spec = DeviceSpec::coral();
    let dag = models::densenet121();
    let schedule = OpBalanced::new().schedule(&dag, 6).unwrap();
    let pipeline = compile::compile(&dag, &schedule, &spec).unwrap();
    let rate = 2.0
        / pipeline
            .segments
            .iter()
            .map(|s| sim::batch_service_time(s, &spec, 1))
            .fold(0.0, f64::max);
    (0..count)
        .map(|i| {
            ServeTenant::new(pipeline.clone(), requests)
                .with_arrivals(Arrivals::Poisson {
                    rate: rate / count as f64,
                    seed: 41 + i as u64,
                })
                .with_batcher(BatchPolicy::new(4, 1e-3))
                .with_repartitioner(
                    Repartitioner::new(dag.clone(), spec.cost_model()).with_policy(
                        DriftPolicy::new()
                            .with_window_jobs(8)
                            .with_threshold(0.08)
                            .with_max_swaps(3),
                    ),
                )
        })
        .collect()
}

#[test]
fn serve_jobs_complete_in_batch_close_order_across_swaps() {
    let tenants = repartitioning_tenants(2, 200);
    let mut collect = Collect::default();
    let report = serve_probed(
        &tenants,
        &DeviceSpec::coral(),
        &ServeConfig::contended(),
        &mut collect,
    )
    .unwrap();
    let replay = check_stream(&collect.0, 400, EngineKind::Serve);
    assert!(
        replay.swaps_with_jobs_in_flight > 0,
        "a swap must land while older jobs are in flight ({} swaps)",
        report.tenants.iter().map(|t| t.swaps.len()).sum::<usize>()
    );
}

#[test]
fn fleet_jobs_complete_in_batch_close_order_across_swaps() {
    let tenants = repartitioning_tenants(4, 150);
    let cfg = FleetConfig::homogeneous(2, DeviceSpec::coral())
        .with_contended_bus()
        .with_router(RouterPolicy::JoinShortestBacklog);
    let mut collect = Collect::default();
    serve_fleet_probed(&tenants, &cfg, &mut collect).unwrap();
    let replay = check_stream(&collect.0, 600, EngineKind::Fleet);
    assert!(
        replay.swaps_with_jobs_in_flight > 0,
        "a swap must land while older jobs are in flight"
    );
}

#[test]
fn recorders_observe_without_perturbing_and_agree_with_the_report() {
    let p = pipeline();
    let cfg = FleetConfig::homogeneous(2, DeviceSpec::coral());
    let mut metrics = MetricsRecorder::new();
    let mut trace = ChromeTraceRecorder::new();
    let mut flight = FlightRecorder::new(64);
    // three-way fan-out: nested tuple probes
    let mut all = (&mut metrics, (&mut trace, &mut flight));
    let probed = serve_fleet_probed(&tenants(&p), &cfg, &mut all).unwrap();
    let plain = serve_fleet(&tenants(&p), &cfg).unwrap();
    assert_eq!(plain, probed);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("arrivals"), Some(plain.offered() as u64));
    assert_eq!(snap.counter("admitted"), Some(plain.admitted() as u64));
    assert_eq!(snap.counter("shed"), Some(plain.shed() as u64));
    assert_eq!(
        snap.counter("completions"),
        Some(plain.admitted() as u64),
        "every admitted request completes"
    );
    assert_eq!(
        metrics.histogram().count(),
        plain.admitted() as u64,
        "one histogram sample per completion"
    );
    assert!(!trace.is_empty(), "spans were traced");
    assert_eq!(flight.len(), 64, "the flight ring filled");
    assert!(flight.dropped() > 0);
    assert!(flight.dump().contains("completion"));
}

/// A random pipeline with consistent inter-stage byte counts
/// (`output[k] == input[k+1]`); about a third of the cuts and streams
/// are zero-length, so their transfers skip the bus.
fn random_pipeline(stages: usize, rng: &mut StdRng) -> CompiledPipeline {
    let spec = DeviceSpec::coral();
    let mut bytes = |max: u64| {
        if rng.gen_range(0u32..3) == 0 {
            0
        } else {
            rng.gen_range(1..max)
        }
    };
    let cuts: Vec<u64> = (1..stages).map(|_| bytes(2 << 20)).collect();
    let segments = (0..stages)
        .map(|k| {
            let streamed_bytes = bytes(8 << 20);
            Segment {
                stage: k,
                nodes: vec![],
                param_bytes: spec.sram_bytes + streamed_bytes,
                cached_bytes: spec.sram_bytes,
                streamed_bytes,
                macs: bytes(1_000_000_000),
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

/// Runs one generated configuration under a stream collector, a metrics
/// recorder, a Chrome trace and a span probe at once, and checks each
/// recorder against the replay of the collected stream.
fn check_recorders(engine: EngineKind, contended: bool, chains: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = DeviceSpec::coral();
    let pipelines: Vec<CompiledPipeline> = (0..rng.gen_range(1..=2))
        .map(|_| {
            let stages = rng.gen_range(1..=4);
            random_pipeline(stages, &mut rng)
        })
        .collect();
    let max_hold = pipelines
        .iter()
        .flat_map(|p| &p.segments)
        .map(|s| sim::batch_service_time(s, &spec, 1))
        .fold(0.0, f64::max);
    let loads: Vec<(usize, Arrivals)> = pipelines
        .iter()
        .map(|_| {
            let rate = rng.gen_range(0.3..2.0) * chains as f64 / max_hold;
            let arrivals = match rng.gen_range(0u32..3) {
                0 => Arrivals::ClosedLoop,
                1 => Arrivals::Periodic { rate },
                _ => Arrivals::Poisson {
                    rate,
                    seed: rng.gen_range(0..u64::MAX),
                },
            };
            (rng.gen_range(1..120), arrivals)
        })
        .collect();
    let offered = loads.iter().map(|&(n, _)| n as u64).sum();
    let mut collect = Collect::default();
    let mut metrics = MetricsRecorder::new();
    let mut trace = ChromeTraceRecorder::new();
    let mut spans = SpanProbe::new();
    let mut all = (&mut collect, (&mut metrics, (&mut trace, &mut spans)));
    if engine == EngineKind::Sim {
        let workloads: Vec<Workload> = pipelines
            .iter()
            .zip(&loads)
            .map(|(p, &(n, arrivals))| {
                Workload::new(p.clone(), n)
                    .with_arrivals(arrivals)
                    .with_batch(rng.gen_range(1..=4))
            })
            .collect();
        let cfg = if contended {
            SimConfig::contended()
        } else {
            SimConfig::uncontended()
        };
        sim::run_probed(&workloads, &spec, &cfg, &mut all).unwrap();
    } else {
        let tenants: Vec<ServeTenant> = pipelines
            .iter()
            .zip(&loads)
            .map(|(p, &(n, arrivals))| {
                let tenant = ServeTenant::new(p.clone(), n).with_arrivals(arrivals);
                match rng.gen_range(0u32..3) {
                    0 => tenant,
                    1 => tenant.with_batcher(BatchPolicy::new(
                        rng.gen_range(2..=8),
                        rng.gen_range(0.1..4.0) * max_hold,
                    )),
                    _ => tenant
                        .with_batcher(BatchPolicy::new(4, max_hold))
                        .with_admission(AdmissionPolicy::QueueBound {
                            max_waiting: rng.gen_range(1..=6),
                        }),
                }
            })
            .collect();
        if engine == EngineKind::Serve {
            let cfg = if contended {
                ServeConfig::contended()
            } else {
                ServeConfig::uncontended()
            };
            serve_probed(&tenants, &spec, &cfg, &mut all).unwrap();
        } else {
            let mut cfg = FleetConfig::homogeneous(chains, spec)
                .with_router(RouterPolicy::JoinShortestBacklog);
            if contended {
                cfg = cfg.with_contended_bus();
            }
            serve_fleet_probed(&tenants, &cfg, &mut all).unwrap();
        }
    }
    let replay = check_stream(&collect.0, offered, engine);
    let releases = replay.spans.len();
    assert!(releases > 0, "every run holds a device");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("resource_releases"), Some(releases as u64));
    assert_eq!(
        snap.gauge("device_busy_s").map(f64::to_bits),
        Some(replay.device_busy_s.to_bits()),
        "device busy seconds are the replay's fold, bit for bit"
    );
    assert_eq!(
        snap.gauge("bus_busy_s").map(f64::to_bits),
        Some(replay.bus_busy_s.to_bits()),
        "bus busy seconds are the replay's fold, bit for bit"
    );
    if !contended {
        assert_eq!(
            replay.bus_busy_s, 0.0,
            "a dedicated link never holds the bus"
        );
    }
    assert_eq!(
        trace.to_json().matches("\"ph\":\"X\"").count(),
        releases,
        "the trace holds one span per release"
    );
    assert_eq!(spans.spans(), replay.spans, "one span per hold");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_release_stamps_its_hold_start_and_recorders_fold_it(
        engine_u in 0u32..3,
        contended_u in 0u32..2,
        chains in 1usize..=3,
        seed in 0u64..1 << 48,
    ) {
        let engine = [EngineKind::Sim, EngineKind::Serve, EngineKind::Fleet][engine_u as usize];
        // only the fleet runs more than one chain
        let chains = if engine == EngineKind::Fleet { chains } else { 1 };
        check_recorders(engine, contended_u == 1, chains, seed);
    }
}
