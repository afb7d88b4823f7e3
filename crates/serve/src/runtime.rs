//! The SLO-aware serving runtime: per-tenant queues, a dynamic batcher,
//! admission control, and live re-partitioning, executed as one
//! deterministic discrete-event loop over the same resource semantics
//! as [`respect_tpu::sim`].
//!
//! The raw simulator answers "what happens if this exact request stream
//! runs through this frozen pipeline?". A serving runtime interposes
//! *online decisions* between arrival and execution:
//!
//! 1. **Admission** ([`AdmissionPolicy`]) — a request may be shed at
//!    arrival when the backlog already implies a blown SLO, so
//!    saturation degrades into bounded-latency service at lower
//!    goodput instead of unbounded sojourn growth.
//! 2. **Dynamic batching** ([`BatchPolicy`]) — admitted requests
//!    accumulate into a batch that closes when it reaches `max_batch`
//!    requests or its oldest member has waited `max_delay_s`. A closed
//!    batch becomes one *job*: payload bytes and MACs scale with the
//!    carried inferences while the fixed host dispatch and USB
//!    submission overheads are paid once ([`respect_tpu::sim::batch_service_time`]),
//!    exactly the amortization batching buys on real hardware.
//! 3. **Live re-partitioning** ([`Repartitioner`]) — measured stage
//!    utilization is accumulated per window; when it diverges from the
//!    deployed partition's prediction, the incremental scheduler
//!    refines the schedule and the runtime hot-swaps the recompiled
//!    pipeline at a job boundary (in-flight jobs finish on the old
//!    partition).
//!
//! Degenerate configuration (`max_batch = 1`, `max_delay_s = 0`, open
//! admission, no repartitioner) reproduces [`respect_tpu::sim::run`] **bitwise** —
//! same event times, same report arithmetic — property-tested in
//! `crates/serve/tests`. Everything is deterministic per seed: events
//! are ordered by `(time, insertion sequence)` and all queues are FIFO.
//!
//! Devices, the bus and the stage walk are the [`respect_tpu::chain`]
//! core, shared with the raw simulator. The per-chain batcher,
//! admission and drift state wrap it in `crate::chain`'s engine, which
//! this module *drives* for the single-chain case; [`crate::fleet`]
//! drives N of them behind a router. Both differential properties —
//! degenerate `serve` ≡ `sim::run`, and a 1-chain fleet ≡ `serve` —
//! stay pinned bitwise.

use std::error::Error;
use std::fmt;

use respect_tpu::compile::CompiledPipeline;
use respect_tpu::device::DeviceSpec;
use respect_tpu::event_queue::{CalendarQueue, EventQueue};
use respect_tpu::probe::{EngineInspect, EngineSnapshot, NullProbe, Probe, ProbeEvent};
use respect_tpu::sim::{Arrivals, CompletionRecord, SimError};
use serde::{Deserialize, Serialize};

use crate::chain::{ChainEngine, ChainEvent, Event, TenantRecords};
use crate::drift::Repartitioner;
use crate::hist::LatencyHistogram;

/// Errors rejected by [`serve`] (and `fleet::serve_fleet`) before any
/// event is simulated.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// No tenants were supplied.
    NoTenants,
    /// A tenant requested zero requests.
    NoRequests,
    /// A tenant's pipeline has no stages.
    EmptyPipeline,
    /// A tenant's per-request batch size is zero.
    ZeroBatch,
    /// The warm-up window would swallow every request.
    WarmupTooLarge {
        /// Requests excluded from measurement.
        warmup: usize,
        /// Requests in the tenant's stream.
        requests: usize,
    },
    /// The arrival process is degenerate (see [`Arrivals::validate`]).
    Arrivals(SimError),
    /// A chain's device spec is degenerate (see [`DeviceSpec::validate`]).
    Spec(SimError),
    /// The batch policy is degenerate.
    InvalidBatcher {
        /// Requests per batch requested.
        max_batch: usize,
        /// Batch linger requested, seconds.
        max_delay_s: f64,
    },
    /// The admission policy is degenerate.
    InvalidAdmission {
        /// What was wrong.
        detail: &'static str,
    },
    /// The repartitioner cannot govern this tenant.
    InvalidRepartitioner {
        /// What was wrong.
        detail: &'static str,
    },
    /// A fleet was configured with no chains.
    NoChains,
    /// The fleet autoscaling policy is degenerate.
    InvalidAutoscale {
        /// What was wrong.
        detail: &'static str,
    },
    /// A count exceeds what the engine's packed event fields can index.
    TooLarge {
        /// What was counted: `"tenants"`, `"requests"`, `"stages"` or
        /// `"chains"`.
        what: &'static str,
        /// The offending count.
        count: usize,
        /// The largest count the engine accepts.
        max: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoTenants => write!(f, "serving needs at least one tenant"),
            ServeError::NoRequests => write!(f, "serve at least one request"),
            ServeError::EmptyPipeline => write!(f, "pipeline has no stages"),
            ServeError::ZeroBatch => write!(f, "per-request batch size must be at least 1"),
            ServeError::WarmupTooLarge { warmup, requests } => write!(
                f,
                "warm-up of {warmup} requests leaves nothing to measure out of {requests}"
            ),
            ServeError::Arrivals(e) => write!(f, "arrival process: {e}"),
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::InvalidBatcher {
                max_batch,
                max_delay_s,
            } => write!(
                f,
                "batch policy needs max_batch >= 1 and finite nonnegative \
                 max_delay_s, got ({max_batch}, {max_delay_s})"
            ),
            ServeError::InvalidAdmission { detail } => write!(f, "admission policy: {detail}"),
            ServeError::InvalidRepartitioner { detail } => write!(f, "repartitioner: {detail}"),
            ServeError::NoChains => write!(f, "a fleet needs at least one chain"),
            ServeError::InvalidAutoscale { detail } => write!(f, "autoscale policy: {detail}"),
            ServeError::TooLarge { what, count, max } => {
                write!(f, "{count} {what} exceed the engine's limit of {max}")
            }
        }
    }
}

impl Error for ServeError {}

/// Dynamic batching policy of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Requests per batch at which the batch closes immediately.
    pub max_batch: usize,
    /// Longest a batch may linger open waiting for more requests,
    /// seconds. `0.0` closes every batch at the arrival that opened it.
    pub max_delay_s: f64,
}

impl BatchPolicy {
    /// No batching: every request is its own job, dispatched at
    /// arrival. This is the raw-simulator-equivalent policy.
    #[must_use]
    pub fn immediate() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_delay_s: 0.0,
        }
    }

    /// Close at `max_batch` requests or after `max_delay_s` seconds,
    /// whichever comes first.
    #[must_use]
    pub fn new(max_batch: usize, max_delay_s: f64) -> Self {
        BatchPolicy {
            max_batch,
            max_delay_s,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::immediate()
    }
}

/// Admission (load-shedding) policy of one tenant. All policies are
/// deterministic functions of the backlog visible at arrival time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit everything (the raw-simulator-equivalent policy).
    #[default]
    Open,
    /// Shed when the requests waiting ahead (open batch + jobs queued
    /// before stage 0) have reached `max_waiting`.
    QueueBound {
        /// Waiting-request bound.
        max_waiting: usize,
    },
    /// Shed when the estimated backlog drain time — admitted-but-
    /// uncompleted requests times the deployed partition's bottleneck
    /// service time (Little's law at the bottleneck) — exceeds the
    /// latency target. Saturation then degrades into bounded-backlog
    /// service instead of unbounded sojourn growth.
    SloDelay {
        /// Backlog drain-time target, seconds. A sane target is at
        /// least the pipeline's no-load latency (`stages` requests are
        /// in flight even unloaded).
        target_s: f64,
    },
}

/// One tenant of the serving runtime: a deployed pipeline, its traffic,
/// and its serving policies.
#[derive(Debug, Clone)]
pub struct ServeTenant {
    /// The deployed model (stage `k` runs on device `k`).
    pub pipeline: CompiledPipeline,
    /// Arrival process of the request stream.
    pub arrivals: Arrivals,
    /// Number of requests offered.
    pub requests: usize,
    /// Inferences carried per request (before dynamic batching).
    pub batch: usize,
    /// Admitted requests excluded from the front of the measurement
    /// window.
    pub warmup: usize,
    /// Dynamic batching policy.
    pub batcher: BatchPolicy,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Live re-partitioning, if enabled.
    pub repartitioner: Option<Repartitioner>,
}

impl ServeTenant {
    /// A tenant with raw-simulator-equivalent defaults: closed-loop
    /// arrivals, batch 1, no warm-up, immediate batcher, open
    /// admission, no repartitioning.
    #[must_use]
    pub fn new(pipeline: CompiledPipeline, requests: usize) -> Self {
        ServeTenant {
            pipeline,
            arrivals: Arrivals::ClosedLoop,
            requests,
            batch: 1,
            warmup: 0,
            batcher: BatchPolicy::immediate(),
            admission: AdmissionPolicy::Open,
            repartitioner: None,
        }
    }

    /// Replaces the arrival process.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: Arrivals) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Replaces the per-request batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Excludes the first `warmup` admitted requests from measurement.
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Replaces the dynamic batching policy.
    #[must_use]
    pub fn with_batcher(mut self, batcher: BatchPolicy) -> Self {
        self.batcher = batcher;
        self
    }

    /// Replaces the admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Enables live re-partitioning.
    #[must_use]
    pub fn with_repartitioner(mut self, repartitioner: Repartitioner) -> Self {
        self.repartitioner = Some(repartitioner);
        self
    }
}

/// Engine-level switches, orthogonal to the tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// `false`: every device has a dedicated host link. `true`: all
    /// transfers share one USB bus in FIFO order (as
    /// [`respect_tpu::sim::SimConfig::contended_bus`]).
    pub contended_bus: bool,
    /// Record exact per-request completion records in
    /// [`TenantServeReport::completions`].
    pub record_completions: bool,
}

impl ServeConfig {
    /// Dedicated per-device links.
    #[must_use]
    pub fn uncontended() -> Self {
        ServeConfig {
            contended_bus: false,
            record_completions: false,
        }
    }

    /// One shared host USB bus with FIFO contention.
    #[must_use]
    pub fn contended() -> Self {
        ServeConfig {
            contended_bus: true,
            record_completions: false,
        }
    }

    /// Enables per-request completion records.
    #[must_use]
    pub fn with_completions(mut self) -> Self {
        self.record_completions = true;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::uncontended()
    }
}

/// One accepted pipeline hot-swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapRecord {
    /// Simulated time of the swap, seconds.
    pub at_s: f64,
    /// Abstract objective of the partition swapped out.
    pub from_objective: f64,
    /// Abstract objective of the partition swapped in.
    pub to_objective: f64,
    /// Single-node moves the refinement applied.
    pub moves: usize,
}

/// Per-tenant results of a serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantServeReport {
    /// Requests offered by the arrival process.
    pub offered: usize,
    /// Requests admitted (offered − shed).
    pub admitted: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Jobs (dynamic batches) executed.
    pub jobs: usize,
    /// Mean requests per job.
    pub mean_job_requests: f64,
    /// Admitted requests inside the measured window.
    pub measured_requests: usize,
    /// Completion time of the last admitted request, seconds.
    pub total_s: f64,
    /// Mean sojourn time over the measured window, seconds (includes
    /// batching delay).
    pub mean_latency_s: f64,
    /// Worst sojourn time over the measured window, seconds.
    pub max_latency_s: f64,
    /// Measured-window throughput, inferences per second.
    pub throughput_ips: f64,
    /// Active-power energy drawn by devices while busy on this tenant's
    /// jobs, joules (measured busy time × `active_power_w`, summed over
    /// the chains that served it).
    pub active_energy_j: f64,
    /// Log-bucket histogram of measured sojourn times.
    pub histogram: LatencyHistogram,
    /// Accepted pipeline hot-swaps, in time order.
    pub swaps: Vec<SwapRecord>,
    /// Exact per-request completion records of admitted requests, in
    /// arrival order (empty unless [`ServeConfig::record_completions`]).
    pub completions: Vec<CompletionRecord>,
}

impl TenantServeReport {
    /// Median sojourn time over the measured window, seconds.
    #[must_use]
    pub fn p50_s(&self) -> f64 {
        self.histogram.p50()
    }

    /// 95th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p95_s(&self) -> f64 {
        self.histogram.p95()
    }

    /// 99th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p99_s(&self) -> f64 {
        self.histogram.p99()
    }

    /// 99.9th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p999_s(&self) -> f64 {
        self.histogram.p999()
    }

    /// Fraction of offered requests shed.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Results of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// One report per tenant, in input order.
    pub tenants: Vec<TenantServeReport>,
    /// Time the last event fired, seconds.
    pub makespan_s: f64,
    /// Total time the shared bus was busy, seconds (0 when
    /// uncontended).
    pub bus_busy_s: f64,
    /// Events processed.
    pub events: u64,
}

impl ServeReport {
    /// Requests offered across all tenants.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.tenants.iter().map(|t| t.offered).sum()
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

    /// Every tenant's measured sojourn histogram, merged (bucket-wise,
    /// losslessly) — the run-level evidence behind
    /// [`ServeReport::p50_s`] and friends.
    #[must_use]
    pub fn histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.histogram);
        }
        h
    }

    /// Run-level median sojourn time across tenants, seconds.
    #[must_use]
    pub fn p50_s(&self) -> f64 {
        self.histogram().p50()
    }

    /// Run-level 95th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p95_s(&self) -> f64 {
        self.histogram().p95()
    }

    /// Run-level 99th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p99_s(&self) -> f64 {
        self.histogram().p99()
    }

    /// Run-level 99.9th-percentile sojourn time, seconds.
    #[must_use]
    pub fn p999_s(&self) -> f64 {
        self.histogram().p999()
    }
}

/// Assembles one tenant's report from the driver's request records and
/// the chain-side counters. Shared by the single-chain and fleet
/// drivers so the two produce bit-identical per-tenant arithmetic.
pub(crate) fn tenant_report(
    tcfg: &ServeTenant,
    recs: &TenantRecords,
    jobs_executed: usize,
    swaps: Vec<SwapRecord>,
    active_energy_j: f64,
    record_completions: bool,
) -> TenantServeReport {
    let n_adm = recs.admitted.len();
    debug_assert_eq!(n_adm + recs.shed, tcfg.requests, "every request disposed");
    if n_adm == 0 {
        return TenantServeReport {
            offered: tcfg.requests,
            admitted: 0,
            shed: recs.shed,
            jobs: 0,
            mean_job_requests: 0.0,
            measured_requests: 0,
            total_s: 0.0,
            mean_latency_s: 0.0,
            max_latency_s: 0.0,
            throughput_ips: 0.0,
            active_energy_j,
            histogram: LatencyHistogram::new(),
            swaps,
            completions: Vec::new(),
        };
    }
    let warm = tcfg.warmup.min(n_adm - 1);
    // per tenant, completions are in arrival order on one chain (FIFO
    // devices forbid overtaking), so this fold returns the last
    // admitted request's completion time there, bitwise; on a fleet it
    // is the honest maximum across chains
    let total_s = recs
        .admitted
        .iter()
        .map(|&r| recs.completed_at[r as usize])
        .fold(0.0, f64::max);
    let window_start = if warm == 0 {
        0.0
    } else {
        recs.completed_at[recs.admitted[warm - 1] as usize]
    };
    let measured = n_adm - warm;
    let measured_inferences = measured * tcfg.batch;
    let window_s = total_s - window_start;
    let throughput_ips = if window_s > 0.0 {
        measured_inferences as f64 / window_s
    } else {
        f64::INFINITY
    };
    let mut lat_sum = 0.0;
    let mut lat_max = 0.0f64;
    let mut histogram = LatencyHistogram::new();
    for &r in &recs.admitted[warm..] {
        let lat = recs.completed_at[r as usize] - recs.arrivals_at[r as usize];
        lat_sum += lat;
        lat_max = lat_max.max(lat);
        histogram.record(lat);
    }
    let completions = if record_completions {
        recs.admitted
            .iter()
            .map(|&r| CompletionRecord {
                request: r as usize,
                batch: tcfg.batch,
                arrival_s: recs.arrivals_at[r as usize],
                completed_s: recs.completed_at[r as usize],
            })
            .collect()
    } else {
        Vec::new()
    };
    TenantServeReport {
        offered: tcfg.requests,
        admitted: n_adm,
        shed: recs.shed,
        jobs: jobs_executed,
        mean_job_requests: n_adm as f64 / jobs_executed as f64,
        measured_requests: measured,
        total_s,
        mean_latency_s: lat_sum / measured as f64,
        max_latency_s: lat_max,
        throughput_ips,
        active_energy_j,
        histogram,
        swaps,
        completions,
    }
}

/// The single-chain driver: one [`ChainEngine`] (index 0), one clock,
/// one pending-event set.
struct Driver<'a, P> {
    tenants: &'a [ServeTenant],
    cfg: ServeConfig,
    queue: CalendarQueue<Event>,
    chain: ChainEngine<'a>,
    recs: Vec<TenantRecords>,
    events: u64,
    now: f64,
    probe: &'a mut P,
}

impl<'a, P: Probe> Driver<'a, P> {
    fn new(
        tenants: &'a [ServeTenant],
        spec: &DeviceSpec,
        cfg: ServeConfig,
        probe: &'a mut P,
    ) -> Self {
        Driver {
            tenants,
            cfg,
            queue: CalendarQueue::default(),
            chain: ChainEngine::new(tenants, *spec, cfg.contended_bus, 0),
            recs: tenants.iter().map(TenantRecords::new).collect(),
            events: 0,
            now: 0.0,
            probe,
        }
    }

    fn run(mut self) -> ServeReport {
        for w in 0..self.tenants.len() {
            let t0 = self.recs[w].sampler.next_arrival_s();
            self.queue.push(t0, Event::Arrive { w: w as u32, r: 0 });
        }
        while let Some((t, ev)) = self.queue.pop() {
            // Flush timers whose batch already closed by size are stale:
            // drop them before they advance the clock, so makespan and
            // the event count reflect only work the system performed.
            if let Event::Chain {
                k: ChainEvent::FlushBatch { w, epoch },
                ..
            } = ev
            {
                if self.chain.flush_stale(w as usize, epoch) {
                    continue;
                }
            }
            self.now = t;
            self.events += 1;
            match ev {
                Event::Arrive { w, r } => self.arrive(w as usize, r, t),
                Event::Chain { k, .. } => {
                    self.chain.handle(k, t, &mut self.queue, &mut *self.probe);
                    for (w, r) in self.chain.completed.drain(..) {
                        let recs = &mut self.recs[w as usize];
                        recs.completed_at[r as usize] = t;
                        if P::ENABLED {
                            self.probe.record(
                                t,
                                &ProbeEvent::Completion {
                                    chain: 0,
                                    tenant: w,
                                    request: r,
                                    latency_s: t - recs.arrivals_at[r as usize],
                                },
                            );
                        }
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
        if P::ENABLED {
            self.probe.record(
                t,
                &ProbeEvent::Arrival {
                    chain: 0,
                    tenant: w as u32,
                    request: r,
                },
            );
        }
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
        if self.chain.offer(w, r, t, &mut self.queue, &mut *self.probe) {
            self.recs[w].admitted.push(r);
        } else {
            self.recs[w].shed += 1;
        }
    }

    fn finalize(self) -> ServeReport {
        let active_power_w = self.chain.spec().active_power_w;
        let tenants = self
            .tenants
            .iter()
            .zip(&self.recs)
            .enumerate()
            .map(|(w, (tcfg, recs))| {
                tenant_report(
                    tcfg,
                    recs,
                    self.chain.jobs_executed(w),
                    self.chain.swaps(w).to_vec(),
                    self.chain.tenant_busy_s(w) * active_power_w,
                    self.cfg.record_completions,
                )
            })
            .collect();
        ServeReport {
            tenants,
            makespan_s: self.now,
            bus_busy_s: self.chain.bus_busy_s(),
            events: self.events,
        }
    }
}

impl<P> EngineInspect for Driver<'_, P> {
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            now_s: self.now,
            events: self.events,
            ..self.chain.snapshot()
        }
    }
}

/// Rejects degenerate tenants — the shared front door of [`serve`] and
/// `fleet::serve_fleet`.
pub(crate) fn validate_tenants(tenants: &[ServeTenant]) -> Result<(), ServeError> {
    if tenants.is_empty() {
        return Err(ServeError::NoTenants);
    }
    limit("tenants", tenants.len(), u32::MAX as usize)?;
    for t in tenants {
        if t.requests == 0 {
            return Err(ServeError::NoRequests);
        }
        if t.batch == 0 {
            return Err(ServeError::ZeroBatch);
        }
        if t.pipeline.segments.is_empty() {
            return Err(ServeError::EmptyPipeline);
        }
        if t.warmup >= t.requests {
            return Err(ServeError::WarmupTooLarge {
                warmup: t.warmup,
                requests: t.requests,
            });
        }
        t.arrivals.validate().map_err(ServeError::Arrivals)?;
        limit("requests", t.requests, u32::MAX as usize)?;
        limit("stages", t.pipeline.segments.len(), usize::from(u16::MAX))?;
        let b = t.batcher;
        if b.max_batch == 0 || !(b.max_delay_s >= 0.0 && b.max_delay_s.is_finite()) {
            return Err(ServeError::InvalidBatcher {
                max_batch: b.max_batch,
                max_delay_s: b.max_delay_s,
            });
        }
        match t.admission {
            AdmissionPolicy::Open => {}
            AdmissionPolicy::QueueBound { max_waiting } => {
                if max_waiting == 0 {
                    return Err(ServeError::InvalidAdmission {
                        detail: "QueueBound max_waiting must be at least 1",
                    });
                }
            }
            AdmissionPolicy::SloDelay { target_s } => {
                if !(target_s >= 0.0 && target_s.is_finite()) {
                    return Err(ServeError::InvalidAdmission {
                        detail: "SloDelay target must be finite and nonnegative",
                    });
                }
            }
        }
        if let Some(rep) = &t.repartitioner {
            if t.pipeline.schedule.validate(&rep.dag).is_err() {
                return Err(ServeError::InvalidRepartitioner {
                    detail: "deployed schedule is not valid for the repartitioner's dag",
                });
            }
            let p = &rep.policy;
            if p.window_jobs == 0 {
                return Err(ServeError::InvalidRepartitioner {
                    detail: "window_jobs must be at least 1",
                });
            }
            let threshold_ok = p.threshold >= 0.0 && p.threshold.is_finite();
            let gain_ok = p.min_gain >= 0.0 && p.min_gain < 1.0;
            if !threshold_ok || !gain_ok {
                return Err(ServeError::InvalidRepartitioner {
                    detail: "threshold must be finite nonnegative and min_gain in [0, 1)",
                });
            }
        }
    }
    Ok(())
}

/// [`ServeError::TooLarge`] when `count` exceeds `max`.
pub(crate) fn limit(what: &'static str, count: usize, max: usize) -> Result<(), ServeError> {
    if count > max {
        return Err(ServeError::TooLarge { what, count, max });
    }
    Ok(())
}

/// Runs the serving runtime for `tenants` co-resident on one device
/// chain under `cfg`.
///
/// # Errors
///
/// Returns a [`ServeError`] if any tenant is degenerate (zero requests,
/// zero batch, empty pipeline, bad arrival/batch/admission parameters,
/// a repartitioner whose dag does not match the deployed schedule), if
/// no tenants are supplied, if `spec` is degenerate (see
/// [`DeviceSpec::validate`]), or if the tenant, per-tenant request or
/// stage count exceeds the packed event fields (`u32`, `u32`, `u16`).
/// Nothing is simulated on error.
pub fn serve(
    tenants: &[ServeTenant],
    spec: &DeviceSpec,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    serve_probed(tenants, spec, cfg, &mut NullProbe)
}

/// [`serve`] with a [`Probe`] observing every arrival, admission
/// decision, batch, resource span, completion, and repartition event.
/// `serve_probed(.., &mut NullProbe)` is exactly [`serve`] — the
/// instrumentation compiles away and the run is bitwise identical.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_probed<P: Probe>(
    tenants: &[ServeTenant],
    spec: &DeviceSpec,
    cfg: &ServeConfig,
    probe: &mut P,
) -> Result<ServeReport, ServeError> {
    validate_tenants(tenants)?;
    spec.validate().map_err(ServeError::Spec)?;
    Ok(Driver::new(tenants, spec, *cfg, probe).run())
}
