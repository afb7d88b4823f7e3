//! Property tests of the fleet serving layer over random pipelines.
//!
//! Invariants checked:
//!
//! * **Degenerate-fleet pin**: a 1-chain fleet with the round-robin
//!   (passthrough) router is **bitwise-identical** to the single-chain
//!   runtime [`serve`] — same tenant reports (histograms, energy and
//!   completion records included), same makespan, same event count —
//!   for *every* serving configuration, not just the degenerate one;
//! * **Goodput monotonicity**: adding chains to an overloaded fleet
//!   never reduces the number of admitted requests;
//! * **Tie-breaks by construction**: join-shortest-backlog resolves
//!   dense backlog ties toward the lower chain index, and
//!   power-of-two-choices keeps the lower-indexed sample on a tie —
//!   pinned against an exact replay of the router's RNG stream;
//! * **Determinism**: a fixed seed reproduces the full fleet report
//!   bitwise, heterogeneous chains and autoscaling included;
//! * **Autoscale accounting**: scale decisions move the active count by
//!   one, chain 0 stays powered for the whole makespan, and chains that
//!   were never activated consume zero energy.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_sched::Schedule;
use respect_serve::{
    serve, serve_fleet, serve_fleet_probed, AdmissionPolicy, AutoscalePolicy, BatchPolicy,
    FleetConfig, RouterPolicy, ServeConfig, ServeError, ServeTenant,
};
use respect_tpu::sim::{self, Arrivals};
use respect_tpu::{CompiledPipeline, DeviceSpec, Segment};

/// A random pipeline with consistent inter-stage byte counts
/// (`output[k] == input[k+1]`), as in the runtime's own property tests.
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

/// Asserts a 1-chain fleet reproduces the single-chain runtime bitwise.
///
/// The equivalence is by construction — with one chain every router is
/// the identity and the fleet driver replays the exact event stream of
/// the single-chain driver — so it must hold for arbitrary batching,
/// admission, and warm-up settings, on both bus models.
fn assert_one_chain_fleet_matches_serve(tenants: &[ServeTenant], contended: bool) {
    let spec = DeviceSpec::coral();
    let serve_cfg = if contended {
        ServeConfig::contended().with_completions()
    } else {
        ServeConfig::uncontended().with_completions()
    };
    let mut fleet_cfg = FleetConfig::homogeneous(1, spec).with_completions();
    if contended {
        fleet_cfg = fleet_cfg.with_contended_bus();
    }
    let s = serve(tenants, &spec, &serve_cfg).unwrap();
    let f = serve_fleet(tenants, &fleet_cfg).unwrap();
    // Tenant reports carry every per-request artifact (histogram, swap
    // log, energy, completion records); PartialEq on bitwise-identical
    // floats is exact equality.
    assert_eq!(f.tenants, s.tenants);
    assert_eq!(f.makespan_s.to_bits(), s.makespan_s.to_bits());
    assert_eq!(f.events, s.events);
    assert_eq!(f.chains.len(), 1);
    assert_eq!(f.chains[0].bus_busy_s.to_bits(), s.bus_busy_s.to_bits());
    let admitted: usize = s.tenants.iter().map(|t| t.admitted).sum();
    assert_eq!(f.chains[0].admitted, admitted);
    assert!(f.scale_events.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_chain_fleet_is_bitwise_the_single_chain_runtime(
        stages in 1usize..=6,
        seed in 0u64..1 << 48,
        n in 1usize..120,
        contended_u in 0usize..2,
    ) {
        let contended = contended_u == 1;
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let rate = 1.2 / max_hold(&p, &spec);
        // degenerate config and a fully dynamic one (batching +
        // admission) across every arrival process
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
            let degenerate = ServeTenant::new(p.clone(), n)
                .with_arrivals(arrivals)
                .with_warmup(n / 5);
            assert_one_chain_fleet_matches_serve(
                std::slice::from_ref(&degenerate),
                contended,
            );
            let dynamic = ServeTenant::new(p.clone(), n)
                .with_arrivals(arrivals)
                .with_warmup(n / 5)
                .with_batcher(BatchPolicy::new(4, 2.0 / rate))
                .with_admission(AdmissionPolicy::SloDelay {
                    target_s: 20.0 / rate,
                });
            assert_one_chain_fleet_matches_serve(
                std::slice::from_ref(&dynamic),
                contended,
            );
        }
    }

    #[test]
    fn one_chain_multi_tenant_fleet_matches_the_runtime(
        seed in 0u64..1 << 48,
        n in 2usize..80,
        contended_u in 0usize..2,
    ) {
        let contended = contended_u == 1;
        let p4 = random_pipeline(4, seed);
        let p2 = random_pipeline(2, seed ^ 0x1111);
        let tenants = vec![
            ServeTenant::new(p4, n),
            ServeTenant::new(p2, n / 2 + 1)
                .with_batch(2)
                .with_arrivals(Arrivals::Poisson {
                    rate: 200.0,
                    seed: seed ^ 0x2222,
                }),
        ];
        assert_one_chain_fleet_matches_serve(&tenants, contended);
    }

    #[test]
    fn adding_chains_never_reduces_fleet_goodput(
        stages in 1usize..=5,
        seed in 0u64..1 << 48,
        base in 1usize..=3,
        extra in 1usize..=4,
    ) {
        // A fleet at ~1.7x one chain's bottleneck capacity with
        // backlog-aware routing and chain-local shedding: growing the
        // fleet can only shorten the backlog every arrival sees, so the
        // admitted count must not drop.
        let p = random_pipeline(stages, seed);
        let spec = DeviceSpec::coral();
        let hold = max_hold(&p, &spec);
        let tenant = || {
            ServeTenant::new(p.clone(), 400)
                .with_arrivals(Arrivals::Periodic { rate: 1.7 / hold })
                .with_admission(AdmissionPolicy::SloDelay {
                    target_s: (stages as f64 + 1.0) * hold,
                })
        };
        let cfg = |n: usize| {
            FleetConfig::homogeneous(n, spec)
                .with_router(RouterPolicy::JoinShortestBacklog)
        };
        let small = serve_fleet(&[tenant()], &cfg(base)).unwrap();
        let large = serve_fleet(&[tenant()], &cfg(base + extra)).unwrap();
        prop_assert!(
            large.admitted() >= small.admitted(),
            "{} chains admitted {} < {} chains admitted {}",
            base + extra,
            large.admitted(),
            base,
            small.admitted()
        );
    }

    #[test]
    fn fleet_reports_are_bitwise_deterministic(
        stages in 1usize..=5,
        seed in 0u64..1 << 48,
        n_chains in 2usize..=6,
    ) {
        // Heterogeneous chains, two-choices routing, autoscaling, MMPP
        // arrivals: the full dynamic surface, replayed bitwise.
        let p = random_pipeline(stages, seed);
        let base = DeviceSpec::coral();
        let rate = (n_chains as f64) * 0.9 / max_hold(&p, &base);
        let chains: Vec<DeviceSpec> = (0..n_chains)
            .map(|c| {
                let mut s = base;
                s.macs_per_sec *= 1.0 + 0.25 * c as f64;
                s
            })
            .collect();
        let tenant = || {
            ServeTenant::new(p.clone(), 250)
                .with_arrivals(Arrivals::Mmpp {
                    low_rate: 0.4 * rate,
                    high_rate: 1.6 * rate,
                    mean_dwell_s: 20.0 / rate,
                    seed: seed ^ 0x5151,
                })
                .with_batcher(BatchPolicy::new(4, 2.0 / rate))
                .with_warmup(10)
        };
        let cfg = FleetConfig::homogeneous(0, base)
            .with_chains(chains)
            .with_router(RouterPolicy::PowerOfTwoChoices { seed: seed ^ 0x7777 })
            .with_autoscale(
                AutoscalePolicy::new()
                    .with_min_chains(1)
                    .with_scale_up_s(8.0 / rate)
                    .with_scale_down_s(1.0 / rate)
                    .with_check_jobs(8),
            )
            .with_completions();
        let a = serve_fleet(&[tenant()], &cfg).unwrap();
        let b = serve_fleet(&[tenant()], &cfg).unwrap();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn shortest_backlog_breaks_dense_ties_toward_the_lower_index() {
    // 41 closed-loop requests hit an idle 4-chain fleet: every arrival
    // is processed at t = 0 before any completion, so the backlogs walk
    // through maximally dense tie patterns (0,0,0,0), (1,0,0,0), ...
    // The ascending strict-< scan must fill chains in index order, so
    // after 10 full rounds the one leftover request lands on chain 0:
    // admitted counts [11, 10, 10, 10]. A tie-break toward *any* other
    // order (highest index, map order) would move the leftover.
    let p = random_pipeline(3, 0x60de);
    let spec = DeviceSpec::coral();
    let tenant = ServeTenant::new(p, 41);
    let cfg = FleetConfig::homogeneous(4, spec).with_router(RouterPolicy::JoinShortestBacklog);
    let r = serve_fleet(&[tenant], &cfg).unwrap();
    let admitted: Vec<usize> = r.chains.iter().map(|c| c.admitted).collect();
    assert_eq!(admitted, vec![11, 10, 10, 10]);
}

#[test]
fn two_choices_tie_break_replays_the_seeded_sample_stream() {
    // A deliberately sub-capacity periodic stream (one request per
    // 10 bottleneck holds, 2-stage pipeline) drains each request long
    // before the next arrives, so the router sees all-zero backlogs —
    // a dense tie on every single arrival. The chain each request lands
    // on is then exactly min(a, b) of the two RNG samples, which we
    // replay here sample-for-sample. Any other tie-break direction, or
    // any reordering of the RNG draws, shifts the per-chain counts.
    let p = random_pipeline(2, 0x2c01);
    let spec = DeviceSpec::coral();
    let n = 64;
    let router_seed = 0xf1ee7u64;
    let tenant = ServeTenant::new(p.clone(), n).with_arrivals(Arrivals::Periodic {
        rate: 0.1 / max_hold(&p, &spec),
    });
    let cfg = FleetConfig::homogeneous(4, spec)
        .with_router(RouterPolicy::PowerOfTwoChoices { seed: router_seed });
    let r = serve_fleet(&[tenant], &cfg).unwrap();

    let mut rng = StdRng::seed_from_u64(router_seed);
    let mut expect = [0usize; 4];
    for _ in 0..n {
        let a = rng.gen_range(0..4usize);
        let b = rng.gen_range(0..4usize);
        expect[a.min(b)] += 1;
    }
    let admitted: Vec<usize> = r.chains.iter().map(|c| c.admitted).collect();
    assert_eq!(admitted, expect.to_vec());
    assert_eq!(r.admitted(), n);
}

#[test]
fn affinity_router_pins_each_tenant_to_its_home_chain() {
    let spec = DeviceSpec::coral();
    let tenants: Vec<ServeTenant> = (0..3)
        .map(|w| ServeTenant::new(random_pipeline(2, 0xaff0 + w), 30))
        .collect();
    let cfg = FleetConfig::homogeneous(2, spec).with_router(RouterPolicy::Affinity);
    let r = serve_fleet(&tenants, &cfg).unwrap();
    // tenants 0 and 2 share chain 0; tenant 1 owns chain 1
    assert_eq!(r.chains[0].admitted, 60);
    assert_eq!(r.chains[1].admitted, 30);
}

#[test]
fn autoscaler_grows_under_overload_and_unpowered_chains_cost_nothing() {
    let p = random_pipeline(3, 0x5ca1e);
    let spec = DeviceSpec::coral();
    let hold = max_hold(&p, &spec);
    let n_chains = 4;
    let tenant = ServeTenant::new(p.clone(), 600).with_arrivals(Arrivals::Poisson {
        rate: 3.0 / hold,
        seed: 99,
    });
    let cfg = FleetConfig::homogeneous(n_chains, spec)
        .with_router(RouterPolicy::JoinShortestBacklog)
        .with_autoscale(
            AutoscalePolicy::new()
                .with_min_chains(1)
                .with_scale_up_s(4.0 * hold)
                .with_scale_down_s(0.5 * hold)
                .with_check_jobs(8),
        );
    let r = serve_fleet(&[tenant], &cfg).unwrap();

    // 3x overload against a 1-chain floor must force scale-ups
    assert!(
        r.scale_events.iter().any(|e| e.to > e.from),
        "overload never triggered a scale-up"
    );
    // every decision moves the active count by exactly one, in time
    // order, within bounds
    let mut active = 1usize;
    let mut last_t = 0.0f64;
    for e in &r.scale_events {
        assert_eq!(e.from, active);
        assert_eq!(e.to.abs_diff(e.from), 1);
        assert!((1..=n_chains).contains(&e.to));
        assert!(e.at_s >= last_t);
        active = e.to;
        last_t = e.at_s;
    }
    // chain 0 sits above the floor and is never deactivated: powered
    // for the exact makespan
    assert_eq!(r.chains[0].powered_s.to_bits(), r.makespan_s.to_bits());
    // a chain the autoscaler never reached is unpowered and free
    let peak = r.scale_events.iter().map(|e| e.to).max().unwrap();
    for c in peak..n_chains {
        assert_eq!(r.chains[c].powered_s, 0.0);
        assert_eq!(r.chains[c].energy.total_j(), 0.0);
        assert_eq!(r.chains[c].admitted, 0);
    }
    // powered spans never exceed the run
    for c in &r.chains {
        assert!(c.powered_s <= r.makespan_s);
    }
}

#[test]
fn fleet_validation_rejects_degenerate_configurations() {
    let spec = DeviceSpec::coral();
    let tenant = ServeTenant::new(random_pipeline(2, 1), 10);
    let no_chains = FleetConfig::homogeneous(0, spec);
    assert!(matches!(
        serve_fleet(std::slice::from_ref(&tenant), &no_chains),
        Err(ServeError::NoChains)
    ));
    // a chain index of u16::MAX would collide with the shed marker
    let wide = FleetConfig::homogeneous(1 << 16, spec);
    assert_eq!(
        serve_fleet(std::slice::from_ref(&tenant), &wide),
        Err(ServeError::TooLarge {
            what: "chains",
            count: 1 << 16,
            max: usize::from(u16::MAX),
        })
    );
    for bad in [
        AutoscalePolicy::new().with_min_chains(0),
        AutoscalePolicy::new().with_min_chains(5),
        AutoscalePolicy::new().with_check_jobs(0),
        AutoscalePolicy::new()
            .with_scale_up_s(0.01)
            .with_scale_down_s(0.02),
        AutoscalePolicy::new().with_scale_up_s(f64::NAN),
    ] {
        let cfg = FleetConfig::homogeneous(2, spec).with_autoscale(bad);
        assert!(matches!(
            serve_fleet(std::slice::from_ref(&tenant), &cfg),
            Err(ServeError::InvalidAutoscale { .. })
        ));
    }
}

#[test]
fn fleet_rejects_a_degenerate_spec_on_any_chain() {
    let coral = DeviceSpec::coral();
    let tenants = [ServeTenant::new(random_pipeline(4, 3), 10)];
    for (name, bad) in [
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
        let cfg = FleetConfig::homogeneous(2, coral)
            .with_chains(vec![coral, bad])
            .with_contended_bus();
        let plain = serve_fleet(&tenants, &cfg);
        let probed = serve_fleet_probed(&tenants, &cfg, &mut respect_tpu::NullProbe);
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

#[test]
fn fleet_rejects_request_counts_beyond_the_packed_event_fields() {
    let requests = u32::MAX as usize + 1;
    let huge = [ServeTenant::new(random_pipeline(2, 1), requests)];
    let cfg = FleetConfig::homogeneous(2, DeviceSpec::coral());
    let too_many = Err(ServeError::TooLarge {
        what: "requests",
        count: requests,
        max: u32::MAX as usize,
    });
    assert_eq!(serve_fleet(&huge, &cfg), too_many);
    assert_eq!(
        serve_fleet_probed(&huge, &cfg, &mut respect_tpu::NullProbe),
        too_many
    );
}
