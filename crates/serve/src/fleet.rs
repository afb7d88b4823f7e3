//! Fleet-scale serving: N device chains behind a deterministic router,
//! with optional backlog-driven autoscaling.
//!
//! The single-chain runtime ([`crate::runtime`]) drives one
//! `ChainEngine` (`crate::chain`); this module drives a
//! *fleet* of them — possibly
//! heterogeneous [`DeviceSpec`]s — under one clock and one pending-event
//! set, so the whole fleet remains bitwise-deterministic per seed.
//! Three online mechanisms are layered on top of the chains:
//!
//! 1. **Routing** ([`RouterPolicy`]) — every arrival is placed on one
//!    active chain. All policies are deterministic: the only randomness
//!    (power-of-two-choices) is drawn from a seeded RNG, and backlog
//!    ties *always* break toward the lower chain index by construction
//!    (an ascending scan with a strict `<`), never by map iteration
//!    order.
//! 2. **Admission stays chain-local** — the routed chain's admission
//!    policy sees only its own backlog, exactly as a share-nothing
//!    replica would.
//! 3. **Autoscaling** ([`AutoscalePolicy`]) — the active set is always
//!    a prefix `0..active` of the chain list. Every `check_jobs`
//!    completed jobs the fleet compares the mean per-chain Little's-law
//!    backlog drain estimate against the scale-up/-down thresholds and
//!    grows or shrinks the prefix at that job boundary. A deactivated
//!    chain drains its in-flight work but receives no new requests.
//!
//! A 1-chain fleet with the default router in degenerate configuration
//! is **bitwise-identical** to [`crate::runtime::serve`] — the same
//! differential-pin discipline the runtime holds against the raw
//! simulator (property-tested in `crates/serve/tests`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_tpu::device::DeviceSpec;
use respect_tpu::energy::{self, EnergyTotals};
use respect_tpu::event_queue::{CalendarQueue, EventQueue};
use respect_tpu::probe::{EngineInspect, EngineKind, EngineSnapshot, NullProbe, Probe, ProbeEvent};
use serde::{Deserialize, Serialize};

use crate::chain::{ChainEngine, ChainEvent, Event, TenantRecords};
use crate::hist::LatencyHistogram;
use crate::runtime::{
    limit, tenant_report, validate_tenants, ServeError, ServeTenant, SwapRecord, TenantServeReport,
};

/// How the fleet places each arriving request on an active chain. All
/// policies are deterministic per seed; backlog ties break toward the
/// lower chain index by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Per-tenant round-robin over the active chains (the passthrough
    /// policy: on a 1-chain fleet every request lands on chain 0).
    #[default]
    RoundRobin,
    /// Scan every active chain and pick the smallest backlog
    /// (admitted-minus-completed requests); ties go to the lowest
    /// index.
    JoinShortestBacklog,
    /// Sample two active chains from a seeded RNG and pick the one
    /// with the smaller backlog — the classic two-choices result:
    /// near-shortest-queue balance at O(1) inspection cost. Backlog
    /// ties go to the lower-indexed of the two samples.
    PowerOfTwoChoices {
        /// Seed of the router's RNG stream (independent of every
        /// arrival-process seed).
        seed: u64,
    },
    /// Pin tenant `w` to chain `w mod active` — share-nothing tenant
    /// isolation while the active set is stable.
    Affinity,
}

/// When the fleet grows or shrinks its active-chain prefix. The signal
/// is the mean per-chain backlog drain estimate (Σ in-system requests ×
/// bottleneck service time — the same Little's-law arithmetic the
/// `SloDelay` admission policy sheds on), evaluated every
/// [`AutoscalePolicy::check_jobs`] completed jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// The active prefix never shrinks below this many chains.
    pub min_chains: usize,
    /// Activate one more chain when the mean drain estimate exceeds
    /// this, seconds.
    pub scale_up_s: f64,
    /// Deactivate the highest active chain when the mean drain estimate
    /// falls below this, seconds. Keep well under `scale_up_s` for
    /// hysteresis.
    pub scale_down_s: f64,
    /// Completed jobs between evaluations (the "job boundary" grain).
    pub check_jobs: usize,
}

impl AutoscalePolicy {
    /// Defaults: floor of 1 chain, scale up past a 100 ms mean drain
    /// estimate, scale down under 10 ms, evaluate every 16 jobs.
    #[must_use]
    pub fn new() -> Self {
        AutoscalePolicy {
            min_chains: 1,
            scale_up_s: 0.100,
            scale_down_s: 0.010,
            check_jobs: 16,
        }
    }

    /// Replaces the active-chain floor.
    #[must_use]
    pub fn with_min_chains(mut self, min_chains: usize) -> Self {
        self.min_chains = min_chains;
        self
    }

    /// Replaces the scale-up threshold, seconds.
    #[must_use]
    pub fn with_scale_up_s(mut self, scale_up_s: f64) -> Self {
        self.scale_up_s = scale_up_s;
        self
    }

    /// Replaces the scale-down threshold, seconds.
    #[must_use]
    pub fn with_scale_down_s(mut self, scale_down_s: f64) -> Self {
        self.scale_down_s = scale_down_s;
        self
    }

    /// Replaces the evaluation grain, in completed jobs.
    #[must_use]
    pub fn with_check_jobs(mut self, check_jobs: usize) -> Self {
        self.check_jobs = check_jobs;
        self
    }
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// A fleet: the chain specs, the router, optional autoscaling, and the
/// engine switches shared with [`crate::runtime::ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// One [`DeviceSpec`] per chain (heterogeneous fleets are fine; a
    /// tenant's per-stage timings are recomputed against each chain's
    /// spec).
    pub chains: Vec<DeviceSpec>,
    /// Request placement policy.
    pub router: RouterPolicy,
    /// Backlog-driven activation of the chain prefix; `None` keeps
    /// every chain active for the whole run.
    pub autoscale: Option<AutoscalePolicy>,
    /// Per-chain shared-bus contention (as
    /// [`crate::runtime::ServeConfig::contended_bus`]; each chain has
    /// its own bus).
    pub contended_bus: bool,
    /// Record exact per-request completion records in
    /// [`TenantServeReport::completions`].
    pub record_completions: bool,
}

impl FleetConfig {
    /// A homogeneous fleet of `n` chains of `spec`, round-robin router,
    /// no autoscaling, dedicated per-device links.
    #[must_use]
    pub fn homogeneous(n: usize, spec: DeviceSpec) -> Self {
        FleetConfig {
            chains: vec![spec; n],
            router: RouterPolicy::default(),
            autoscale: None,
            contended_bus: false,
            record_completions: false,
        }
    }

    /// Replaces the chain specs (one entry per chain).
    #[must_use]
    pub fn with_chains(mut self, chains: Vec<DeviceSpec>) -> Self {
        self.chains = chains;
        self
    }

    /// Replaces the router policy.
    #[must_use]
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Enables autoscaling.
    #[must_use]
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Switches every chain to one shared FIFO host bus.
    #[must_use]
    pub fn with_contended_bus(mut self) -> Self {
        self.contended_bus = true;
        self
    }

    /// Enables per-request completion records.
    #[must_use]
    pub fn with_completions(mut self) -> Self {
        self.record_completions = true;
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::homogeneous(1, DeviceSpec::coral())
    }
}

/// One autoscaler decision: the active-chain count changed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulated time of the change, seconds.
    pub at_s: f64,
    /// Active chains before.
    pub from: usize,
    /// Active chains after.
    pub to: usize,
}

/// Per-chain results of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainReport {
    /// Requests admitted by this chain (across tenants).
    pub admitted: usize,
    /// Requests routed to this chain and shed by its admission policy
    /// (across tenants). Admission is chain-local, so per-chain sheds
    /// sum to the fleet total.
    pub shed: usize,
    /// Jobs (dynamic batches) this chain executed.
    pub jobs: usize,
    /// Pipeline hot-swaps this chain accepted (across tenants).
    pub swaps: usize,
    /// Total device-busy seconds on this chain.
    pub busy_s: f64,
    /// Time this chain's shared bus was busy, seconds (0 when
    /// uncontended).
    pub bus_busy_s: f64,
    /// Seconds this chain was powered (activation spans; the whole
    /// makespan without autoscaling).
    pub powered_s: f64,
    /// Busy/idle energy split over the powered span.
    pub energy: EnergyTotals,
    /// Measured sojourn times of requests routed to this chain.
    pub histogram: LatencyHistogram,
}

impl ChainReport {
    /// Joules per measured request served by this chain (`0.0` when no
    /// measured request was routed here).
    #[must_use]
    pub fn energy_per_request_j(&self) -> f64 {
        let n = self.histogram.count();
        if n == 0 {
            0.0
        } else {
            self.energy.total_j() / n as f64
        }
    }
}

/// Results of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// One report per tenant, in input order, merged across chains.
    pub tenants: Vec<TenantServeReport>,
    /// One report per chain, in [`FleetConfig::chains`] order.
    pub chains: Vec<ChainReport>,
    /// Fleet-level histogram: every tenant's measured sojourn times,
    /// merged (bucket-wise, losslessly).
    pub histogram: LatencyHistogram,
    /// Time the last event fired, seconds.
    pub makespan_s: f64,
    /// Events processed.
    pub events: u64,
    /// Autoscaler decisions, in time order (empty without autoscaling).
    pub scale_events: Vec<ScaleEvent>,
}

impl FleetReport {
    /// Fleet-level median sojourn time, seconds.
    #[must_use]
    pub fn p50_s(&self) -> f64 {
        self.histogram.p50()
    }

    /// Fleet-level 95th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p95_s(&self) -> f64 {
        self.histogram.p95()
    }

    /// Fleet-level 99th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p99_s(&self) -> f64 {
        self.histogram.p99()
    }

    /// Fleet-level 99.9th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p999_s(&self) -> f64 {
        self.histogram.p999()
    }

    /// Total fleet energy over the run (busy + idle, all chains),
    /// joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.chains.iter().map(|c| c.energy.total_j()).sum()
    }

    /// Requests admitted across all tenants.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    /// Requests shed across all tenants.
    #[must_use]
    pub fn shed(&self) -> usize {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Requests offered across all tenants (`admitted() + shed()`).
    #[must_use]
    pub fn offered(&self) -> usize {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Autoscaler decisions in time order — the accessor twin of the
    /// [`FleetReport::scale_events`] field, for parity with the derived
    /// metrics above.
    #[must_use]
    pub fn scale_event_log(&self) -> &[ScaleEvent] {
        &self.scale_events
    }

    /// Autoscaler decisions that grew the active prefix.
    #[must_use]
    pub fn scale_up_count(&self) -> usize {
        self.scale_events.iter().filter(|e| e.to > e.from).count()
    }

    /// Autoscaler decisions that shrank the active prefix.
    #[must_use]
    pub fn scale_down_count(&self) -> usize {
        self.scale_events.iter().filter(|e| e.to < e.from).count()
    }

    /// Pipeline hot-swaps accepted per chain, in
    /// [`FleetConfig::chains`] order.
    #[must_use]
    pub fn chain_swap_counts(&self) -> Vec<usize> {
        self.chains.iter().map(|c| c.swaps).collect()
    }

    /// Pipeline hot-swaps accepted across the whole fleet. Equals the
    /// per-tenant swap records summed, since every accepted swap is
    /// charged to exactly one (chain, tenant) pair.
    #[must_use]
    pub fn total_swaps(&self) -> usize {
        self.chains.iter().map(|c| c.swaps).sum()
    }
}

/// Marks a request that was shed (never routed to any chain).
const UNROUTED: u16 = u16::MAX;

/// The fleet driver: N [`ChainEngine`]s, one clock, one pending-event
/// set, a router, and the autoscaler.
struct FleetEngine<'a, P> {
    tenants: &'a [ServeTenant],
    cfg: &'a FleetConfig,
    queue: CalendarQueue<Event>,
    chains: Vec<ChainEngine<'a>>,
    recs: Vec<TenantRecords>,
    /// `routed[w][r]`: chain index request `r` of tenant `w` was
    /// admitted to ([`UNROUTED`] when shed).
    routed: Vec<Vec<u16>>,
    /// Per-tenant round-robin cursor.
    rr_next: Vec<usize>,
    /// Power-of-two-choices sample stream.
    rng: Option<StdRng>,
    /// Requests shed per chain (admission is chain-local).
    chain_shed: Vec<usize>,
    /// Active chains are exactly `0..active`.
    active: usize,
    /// Activation time of each currently-powered chain.
    powered_at: Vec<Option<f64>>,
    /// Accumulated powered seconds of each chain.
    powered_s: Vec<f64>,
    scale_events: Vec<ScaleEvent>,
    jobs_since_check: usize,
    events: u64,
    now: f64,
    probe: &'a mut P,
}

impl<'a, P: Probe> FleetEngine<'a, P> {
    fn new(tenants: &'a [ServeTenant], cfg: &'a FleetConfig, probe: &'a mut P) -> Self {
        let n = cfg.chains.len();
        let active = cfg.autoscale.map_or(n, |pol| pol.min_chains.min(n));
        let chains = cfg
            .chains
            .iter()
            .enumerate()
            .map(|(c, spec)| ChainEngine::new(tenants, *spec, cfg.contended_bus, c as u16))
            .collect();
        let rng = match cfg.router {
            RouterPolicy::PowerOfTwoChoices { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        FleetEngine {
            tenants,
            cfg,
            queue: CalendarQueue::default(),
            chains,
            recs: tenants.iter().map(TenantRecords::new).collect(),
            routed: tenants.iter().map(|t| vec![UNROUTED; t.requests]).collect(),
            rr_next: vec![0; tenants.len()],
            rng,
            chain_shed: vec![0; n],
            active,
            powered_at: (0..n).map(|c| (c < active).then_some(0.0)).collect(),
            powered_s: vec![0.0; n],
            scale_events: Vec::new(),
            jobs_since_check: 0,
            events: 0,
            now: 0.0,
            probe,
        }
    }

    fn run(mut self) -> FleetReport {
        for w in 0..self.tenants.len() {
            let t0 = self.recs[w].sampler.next_arrival_s();
            self.queue.push(t0, Event::Arrive { w: w as u32, r: 0 });
        }
        while let Some((t, ev)) = self.queue.pop() {
            // Stale flush timers are dropped before they advance the
            // clock (as the single-chain driver).
            if let Event::Chain {
                c,
                k: ChainEvent::FlushBatch { w, epoch },
            } = ev
            {
                if self.chains[c as usize].flush_stale(w as usize, epoch) {
                    continue;
                }
            }
            self.now = t;
            self.events += 1;
            match ev {
                Event::Arrive { w, r } => self.arrive(w as usize, r, t),
                Event::Chain { c, k } => {
                    let c = c as usize;
                    self.chains[c].handle(k, t, &mut self.queue, &mut *self.probe);
                    if !self.chains[c].completed.is_empty() {
                        while let Some((w, r)) = self.chains[c].completed.pop() {
                            let recs = &mut self.recs[w as usize];
                            recs.completed_at[r as usize] = t;
                            if P::ENABLED {
                                self.probe.record(
                                    t,
                                    &ProbeEvent::Completion {
                                        chain: c as u16,
                                        tenant: w,
                                        request: r,
                                        latency_s: t - recs.arrivals_at[r as usize],
                                    },
                                );
                            }
                        }
                        // a non-empty drain means exactly one job
                        // completed — the autoscaler's job boundary
                        self.autoscale_check(t);
                    }
                }
            }
            // Safe point: a debugger probe may suspend and snapshot
            // here; the poll compiles away for non-debugging probes.
            if P::INSPECT && self.probe.wants_inspect() {
                let snap = self.snapshot();
                self.probe.inspect(t, &snap);
            }
        }
        self.finalize()
    }

    fn arrive(&mut self, w: usize, r: u32, t: f64) {
        self.recs[w].arrivals_at[r as usize] = t;
        if (r as usize) + 1 < self.tenants[w].requests {
            let tn = self.recs[w].sampler.next_arrival_s();
            self.queue.push(
                tn,
                Event::Arrive {
                    w: w as u32,
                    r: r + 1,
                },
            );
        }
        let c = self.route(w);
        if P::ENABLED {
            self.probe.record(
                t,
                &ProbeEvent::Arrival {
                    chain: c as u16,
                    tenant: w as u32,
                    request: r,
                },
            );
            self.probe.record(
                t,
                &ProbeEvent::RouterDecision {
                    tenant: w as u32,
                    request: r,
                    chain: c as u16,
                },
            );
        }
        if self.chains[c].offer(w, r, t, &mut self.queue, &mut *self.probe) {
            self.recs[w].admitted.push(r);
            self.routed[w][r as usize] = c as u16;
        } else {
            self.recs[w].shed += 1;
            self.chain_shed[c] += 1;
        }
    }

    /// Places one arrival of tenant `w` on an active chain. Backlog
    /// ties break toward the lower chain index by construction: the
    /// shortest-backlog scan ascends with a strict `<`, and the
    /// two-choices comparison keeps the lower-indexed sample unless the
    /// higher one is strictly shorter.
    fn route(&mut self, w: usize) -> usize {
        let active = self.active;
        match self.cfg.router {
            RouterPolicy::RoundRobin => {
                let c = self.rr_next[w] % active;
                self.rr_next[w] += 1;
                c
            }
            RouterPolicy::JoinShortestBacklog => {
                let mut best = 0;
                let mut best_backlog = self.chains[0].backlog();
                for c in 1..active {
                    let backlog = self.chains[c].backlog();
                    if backlog < best_backlog {
                        best = c;
                        best_backlog = backlog;
                    }
                }
                best
            }
            RouterPolicy::PowerOfTwoChoices { .. } => {
                let rng = self.rng.as_mut().expect("two-choices router has an rng");
                let a = rng.gen_range(0..active);
                let b = rng.gen_range(0..active);
                let (lo, hi) = (a.min(b), a.max(b));
                if self.chains[hi].backlog() < self.chains[lo].backlog() {
                    hi
                } else {
                    lo
                }
            }
            RouterPolicy::Affinity => w % active,
        }
    }

    fn autoscale_check(&mut self, t: f64) {
        let Some(pol) = self.cfg.autoscale else {
            return;
        };
        self.jobs_since_check += 1;
        if self.jobs_since_check < pol.check_jobs {
            return;
        }
        self.jobs_since_check = 0;
        let total: f64 = self.chains[..self.active]
            .iter()
            .map(ChainEngine::drain_estimate_s)
            .sum();
        let mean = total / self.active as f64;
        if mean > pol.scale_up_s && self.active < self.chains.len() {
            self.powered_at[self.active] = Some(t);
            self.scale_events.push(ScaleEvent {
                at_s: t,
                from: self.active,
                to: self.active + 1,
            });
            if P::ENABLED {
                self.probe.record(
                    t,
                    &ProbeEvent::ScaleUp {
                        from: self.active as u16,
                        to: (self.active + 1) as u16,
                    },
                );
            }
            self.active += 1;
        } else if mean < pol.scale_down_s && self.active > pol.min_chains {
            self.active -= 1;
            if let Some(on) = self.powered_at[self.active].take() {
                self.powered_s[self.active] += t - on;
            }
            self.scale_events.push(ScaleEvent {
                at_s: t,
                from: self.active + 1,
                to: self.active,
            });
            if P::ENABLED {
                self.probe.record(
                    t,
                    &ProbeEvent::ScaleDown {
                        from: (self.active + 1) as u16,
                        to: self.active as u16,
                    },
                );
            }
        }
    }

    fn finalize(mut self) -> FleetReport {
        let makespan_s = self.now;
        for c in 0..self.chains.len() {
            if let Some(on) = self.powered_at[c].take() {
                self.powered_s[c] += makespan_s - on;
            }
        }
        let mut chain_hists: Vec<LatencyHistogram> =
            vec![LatencyHistogram::new(); self.chains.len()];
        let mut fleet_hist = LatencyHistogram::new();
        let mut tenants_out = Vec::with_capacity(self.tenants.len());
        for (w, (tcfg, recs)) in self.tenants.iter().zip(&self.recs).enumerate() {
            let jobs: usize = self.chains.iter().map(|ch| ch.jobs_executed(w)).sum();
            let mut swaps: Vec<SwapRecord> = self
                .chains
                .iter()
                .flat_map(|ch| ch.swaps(w).iter().copied())
                .collect();
            swaps.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
            let energy_j: f64 = self
                .chains
                .iter()
                .map(|ch| ch.tenant_busy_s(w) * ch.spec().active_power_w)
                .sum();
            let report = tenant_report(
                tcfg,
                recs,
                jobs,
                swaps,
                energy_j,
                self.cfg.record_completions,
            );
            fleet_hist.merge(&report.histogram);
            // second pass: attribute each measured sojourn to the chain
            // that served it (same warm-up window as the tenant report)
            let n_adm = recs.admitted.len();
            if n_adm > 0 {
                let warm = tcfg.warmup.min(n_adm - 1);
                for &r in &recs.admitted[warm..] {
                    let r = r as usize;
                    let lat = recs.completed_at[r] - recs.arrivals_at[r];
                    chain_hists[self.routed[w][r] as usize].record(lat);
                }
            }
            tenants_out.push(report);
        }
        let chains_out = self
            .chains
            .iter()
            .zip(chain_hists)
            .enumerate()
            .map(|(c, (ch, histogram))| {
                let admitted = (0..self.tenants.len()).map(|w| ch.admitted(w)).sum();
                let jobs = (0..self.tenants.len()).map(|w| ch.jobs_executed(w)).sum();
                let swaps = (0..self.tenants.len()).map(|w| ch.swaps(w).len()).sum();
                ChainReport {
                    admitted,
                    shed: self.chain_shed[c],
                    jobs,
                    swaps,
                    busy_s: ch.busy_s(),
                    bus_busy_s: ch.bus_busy_s(),
                    powered_s: self.powered_s[c],
                    energy: energy::serving_energy(
                        ch.spec(),
                        ch.device_count(),
                        ch.busy_s(),
                        self.powered_s[c],
                    ),
                    histogram,
                }
            })
            .collect();
        FleetReport {
            tenants: tenants_out,
            chains: chains_out,
            histogram: fleet_hist,
            makespan_s,
            events: self.events,
            scale_events: self.scale_events,
        }
    }
}

impl<P> EngineInspect for FleetEngine<'_, P> {
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            kind: EngineKind::Fleet,
            now_s: self.now,
            events: self.events,
            active_chains: self.active,
            chains: self
                .chains
                .iter()
                .enumerate()
                .map(|(c, ch)| ch.chain_snapshot(c < self.active))
                .collect(),
        }
    }
}

fn validate_fleet(cfg: &FleetConfig) -> Result<(), ServeError> {
    if cfg.chains.is_empty() {
        return Err(ServeError::NoChains);
    }
    // chain indices are `u16` and must stay below the shed sentinel
    limit("chains", cfg.chains.len(), usize::from(UNROUTED))?;
    for spec in &cfg.chains {
        spec.validate().map_err(ServeError::Spec)?;
    }
    if let Some(pol) = &cfg.autoscale {
        if pol.min_chains == 0 {
            return Err(ServeError::InvalidAutoscale {
                detail: "min_chains must be at least 1",
            });
        }
        if pol.min_chains > cfg.chains.len() {
            return Err(ServeError::InvalidAutoscale {
                detail: "min_chains exceeds the chain count",
            });
        }
        if pol.check_jobs == 0 {
            return Err(ServeError::InvalidAutoscale {
                detail: "check_jobs must be at least 1",
            });
        }
        let up_ok = pol.scale_up_s >= 0.0 && pol.scale_up_s.is_finite();
        let down_ok = pol.scale_down_s >= 0.0 && pol.scale_down_s.is_finite();
        if !up_ok || !down_ok {
            return Err(ServeError::InvalidAutoscale {
                detail: "thresholds must be finite and nonnegative",
            });
        }
        if pol.scale_down_s > pol.scale_up_s {
            return Err(ServeError::InvalidAutoscale {
                detail: "scale_down_s must not exceed scale_up_s (hysteresis)",
            });
        }
    }
    Ok(())
}

/// Runs the serving runtime for `tenants` over a fleet of device
/// chains.
///
/// # Errors
///
/// Returns a [`ServeError`] if any tenant is degenerate (the same
/// checks as [`crate::runtime::serve`]), the fleet has no chains or
/// more than `u16::MAX`, a chain's spec is degenerate (see
/// [`DeviceSpec::validate`]), or the autoscale policy is degenerate.
/// Nothing is simulated on error.
///
/// # Example
///
/// ```
/// use respect_graph::models;
/// use respect_sched::{balanced::ParamBalanced, Scheduler};
/// use respect_serve::fleet::{serve_fleet, FleetConfig, RouterPolicy};
/// use respect_serve::ServeTenant;
/// use respect_tpu::{compile, device::DeviceSpec, sim::Arrivals};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dag = models::resnet50();
/// let spec = DeviceSpec::coral();
/// let schedule = ParamBalanced::new().schedule(&dag, 4)?;
/// let pipeline = compile::compile(&dag, &schedule, &spec)?;
///
/// let tenant = ServeTenant::new(pipeline, 200)
///     .with_arrivals(Arrivals::Poisson { rate: 500.0, seed: 7 });
/// let cfg = FleetConfig::homogeneous(4, spec)
///     .with_router(RouterPolicy::JoinShortestBacklog);
/// let report = serve_fleet(&[tenant], &cfg)?;
/// println!(
///     "fleet p99 {:.2} ms over {} chains, {:.1} J",
///     report.p99_s() * 1e3,
///     report.chains.len(),
///     report.total_energy_j(),
/// );
/// # Ok(())
/// # }
/// ```
pub fn serve_fleet(tenants: &[ServeTenant], cfg: &FleetConfig) -> Result<FleetReport, ServeError> {
    serve_fleet_probed(tenants, cfg, &mut NullProbe)
}

/// [`serve_fleet`] with a [`Probe`] observing every router decision,
/// autoscale step, arrival, admission decision, batch, resource span,
/// completion, and repartition event across the whole fleet.
/// `serve_fleet_probed(.., &mut NullProbe)` is exactly [`serve_fleet`] —
/// the instrumentation compiles away and the run is bitwise identical.
///
/// # Errors
///
/// As [`serve_fleet`].
pub fn serve_fleet_probed<P: Probe>(
    tenants: &[ServeTenant],
    cfg: &FleetConfig,
    probe: &mut P,
) -> Result<FleetReport, ServeError> {
    validate_tenants(tenants)?;
    validate_fleet(cfg)?;
    Ok(FleetEngine::new(tenants, cfg, probe).run())
}
