//! Deterministic discrete-event simulation of pipelined Edge TPU systems.
//!
//! The closed-form tandem-queue recurrence in [`crate::exec`] assumes one
//! atomic deterministic service per stage and an infinitely wide host
//! interface. This module replaces that idealization with an event-driven
//! engine over *explicit resources*, which opens the scenario axes the
//! paper's testbed actually has:
//!
//! * **Devices** — each pipeline position is a single-server FIFO (an
//!   Edge TPU can run one request at a time);
//! * **The host USB bus** — optionally shared: input/output activations
//!   and streamed off-cache parameters of *every* device compete for one
//!   bulk link in FIFO order ([`SimConfig::contended_bus`]);
//! * **Host dispatch** — the per-request submission overhead.
//!
//! On top of the engine, [`Workload`] models the scenario axes:
//!
//! * **Arrivals** — the legacy closed-loop stream (infinite backlog at
//!   `t = 0`), deterministic open-loop rates, or seeded-Poisson arrivals
//!   ([`Arrivals`]);
//! * **Batching** — a request carries `batch` inferences: compute and
//!   payload bytes scale with the batch while the fixed host and USB
//!   submission overheads are paid once per request;
//! * **Warm-up windows** — the first `warmup` requests are excluded from
//!   the measured throughput/latency window;
//! * **Multi-tenancy** — several [`Workload`]s (distinct
//!   [`CompiledPipeline`]s) co-resident on one device chain and bus.
//!
//! The devices, the bus and the stage walk over them are the shared
//! [`crate::chain`] core, which the serving runtime in `respect_serve`
//! drives too; this module is its raw driver, with one request per job.
//!
//! The engine is bitwise deterministic: events are ordered by
//! `(time, insertion sequence)` in a [`CalendarQueue`] (a sorted front
//! run while few events are pending, a calendar ring past that; tests
//! run the engine on a binary-heap reference too),
//! all queues are FIFO, and the only randomness is the seeded Poisson
//! sampler from the `rand` shim. With an uncontended bus, a single
//! closed-loop unbatched tenant reproduces the analytic recurrence
//! *exactly* (same additions in the same order) — property-tested in
//! `tests/sim_properties.rs`. Attach a [`crate::probe::SpanProbe`] to
//! [`run_probed`] to collect per-resource busy intervals, one per
//! `Release`, which carries the time its hold began.
//!
//! The hot path is allocation-free in steady state: the core's FIFOs
//! are inline rings, the pending-event set reuses its buckets, and
//! per-tenant statistics stream into scalar accumulators (in the exact
//! floating-point order of the seed implementation) instead of
//! per-request arrays, so multi-hour soak horizons run in constant
//! memory unless completion records are requested.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain::{Chain, JobId, JobTable, StageEvent, StageTiming};
use crate::compile::{CompiledPipeline, Segment};
use crate::device::DeviceSpec;
use crate::event_queue::{CalendarQueue, EventQueue};
use crate::probe::{
    ChainSnapshot, EngineInspect, EngineKind, EngineSnapshot, NullProbe, Probe, ProbeEvent,
    TenantSnapshot,
};

/// Errors rejected by [`run`] before any event is simulated.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// No workloads were supplied.
    NoWorkloads,
    /// A workload requested zero inferences/requests.
    NoRequests,
    /// A workload's pipeline has no stages.
    EmptyPipeline,
    /// A workload's batch size is zero.
    ZeroBatch,
    /// An open-loop arrival rate is zero, negative, or non-finite.
    InvalidRate {
        /// The offending requests-per-second rate.
        rate: f64,
    },
    /// An MMPP mean state dwell is zero, negative, or non-finite.
    InvalidDwell {
        /// The offending mean dwell, seconds.
        dwell_s: f64,
    },
    /// A diurnal amplitude is outside `[0, 1]`.
    InvalidAmplitude {
        /// The offending relative amplitude.
        amplitude: f64,
    },
    /// A diurnal period is zero, negative, or non-finite.
    InvalidPeriod {
        /// The offending period, seconds.
        period_s: f64,
    },
    /// The warm-up window would swallow every request.
    WarmupTooLarge {
        /// Requests excluded from measurement.
        warmup: usize,
        /// Requests in the workload.
        requests: usize,
    },
    /// A count exceeds what the engine's packed event fields can index.
    TooLarge {
        /// What was counted: `"tenants"`, `"requests"` or `"stages"`.
        what: &'static str,
        /// The offending count.
        count: usize,
        /// The largest count the engine accepts.
        max: usize,
    },
    /// A [`DeviceSpec`] rate is not positive and finite, or an overhead
    /// is negative or non-finite (see [`DeviceSpec::validate`]).
    InvalidSpec {
        /// The offending field, e.g. `"host_overhead_s"`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoWorkloads => write!(f, "simulation needs at least one workload"),
            SimError::NoRequests => write!(f, "simulate at least one inference"),
            SimError::EmptyPipeline => write!(f, "pipeline has no stages"),
            SimError::ZeroBatch => write!(f, "batch size must be at least 1"),
            SimError::InvalidRate { rate } => {
                write!(
                    f,
                    "open-loop arrival rate must be positive and finite, got {rate}"
                )
            }
            SimError::InvalidDwell { dwell_s } => {
                write!(
                    f,
                    "MMPP mean dwell must be positive and finite, got {dwell_s}"
                )
            }
            SimError::InvalidAmplitude { amplitude } => {
                write!(f, "diurnal amplitude must be in [0, 1], got {amplitude}")
            }
            SimError::InvalidPeriod { period_s } => {
                write!(
                    f,
                    "diurnal period must be positive and finite, got {period_s}"
                )
            }
            SimError::WarmupTooLarge { warmup, requests } => write!(
                f,
                "warm-up of {warmup} requests leaves nothing to measure out of {requests}"
            ),
            SimError::TooLarge { what, count, max } => {
                write!(f, "{count} {what} exceed the engine's limit of {max}")
            }
            SimError::InvalidSpec { field, value } => write!(
                f,
                "device spec {field} = {value} is out of range (rates must be positive \
                 and finite, overheads finite and nonnegative)"
            ),
        }
    }
}

impl Error for SimError {}

/// How requests enter the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Infinite backlog: every request is queued at `t = 0` (the legacy
    /// closed-loop stream of [`crate::exec`]).
    ClosedLoop,
    /// Deterministic open loop: request `j` arrives at `j / rate`.
    Periodic {
        /// Requests per second.
        rate: f64,
    },
    /// Open loop with exponential inter-arrival times of mean `1 / rate`,
    /// drawn from the seeded `rand` shim (deterministic per seed).
    Poisson {
        /// Mean requests per second.
        rate: f64,
        /// RNG seed for the inter-arrival stream.
        seed: u64,
    },
    /// Bursty open loop: a two-state Markov-modulated Poisson process.
    /// The stream alternates between a calm state emitting at `low_rate`
    /// and a burst state emitting at `high_rate`; state dwell times are
    /// exponential with mean `mean_dwell_s`. Starts in the calm state.
    /// Deterministic per seed.
    Mmpp {
        /// Requests per second in the calm state.
        low_rate: f64,
        /// Requests per second in the burst state.
        high_rate: f64,
        /// Mean seconds spent in each state before switching.
        mean_dwell_s: f64,
        /// RNG seed for the dwell and inter-arrival streams.
        seed: u64,
    },
    /// Diurnally modulated open loop: a non-homogeneous Poisson process
    /// whose instantaneous rate follows a triangle wave (pure arithmetic,
    /// bitwise-reproducible — no libm trig) between
    /// `mean_rate * (1 - amplitude)` and `mean_rate * (1 + amplitude)`
    /// with period `period_s`, sampled by Lewis–Shedler thinning. The
    /// wave starts at its trough. Deterministic per seed.
    Diurnal {
        /// Cycle-average requests per second.
        mean_rate: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Seconds per day/night cycle.
        period_s: f64,
        /// RNG seed for the thinned candidate stream.
        seed: u64,
    },
}

impl Arrivals {
    /// Validates the process parameters (rates positive and finite,
    /// amplitude in `[0, 1]`, periods/dwells positive and finite).
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that [`run`] would reject the workload
    /// with.
    pub fn validate(&self) -> Result<(), SimError> {
        let rate_ok = |rate: f64| {
            if rate > 0.0 && rate.is_finite() {
                Ok(())
            } else {
                Err(SimError::InvalidRate { rate })
            }
        };
        match *self {
            Arrivals::ClosedLoop => Ok(()),
            Arrivals::Periodic { rate } | Arrivals::Poisson { rate, .. } => rate_ok(rate),
            Arrivals::Mmpp {
                low_rate,
                high_rate,
                mean_dwell_s,
                ..
            } => {
                rate_ok(low_rate)?;
                rate_ok(high_rate)?;
                if mean_dwell_s > 0.0 && mean_dwell_s.is_finite() {
                    Ok(())
                } else {
                    Err(SimError::InvalidDwell {
                        dwell_s: mean_dwell_s,
                    })
                }
            }
            Arrivals::Diurnal {
                mean_rate,
                amplitude,
                period_s,
                ..
            } => {
                rate_ok(mean_rate)?;
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err(SimError::InvalidAmplitude { amplitude });
                }
                if period_s > 0.0 && period_s.is_finite() {
                    Ok(())
                } else {
                    Err(SimError::InvalidPeriod { period_s })
                }
            }
        }
    }
}

/// Draws one exponential inter-event gap of rate `rate` (mean `1/rate`),
/// bitwise-matching the engine's historical Poisson sampling.
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Instantaneous diurnal rate at time `t`: a triangle wave with troughs
/// at whole periods and a crest at the half period.
fn diurnal_rate(t: f64, mean_rate: f64, amplitude: f64, period_s: f64) -> f64 {
    let phase = t / period_s - (t / period_s).floor();
    let tri = 1.0 - 4.0 * (phase - 0.5).abs();
    mean_rate * (1.0 + amplitude * tri)
}

/// Stateful generator of one tenant's arrival instants — the single
/// source of truth for every [`Arrivals`] process, shared by this engine
/// and the serving runtime (`respect_serve`) so both layers see
/// bitwise-identical streams.
///
/// Each call to [`next_arrival_s`](ArrivalSampler::next_arrival_s)
/// returns the absolute arrival time of the next request; times are
/// nondecreasing. The sampler is deterministic per seed.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    arrivals: Arrivals,
    rng: Option<StdRng>,
    /// Requests emitted so far (drives [`Arrivals::Periodic`]).
    index: usize,
    /// Absolute time of the last emitted arrival (open-loop modes).
    clock_s: f64,
    /// MMPP: currently in the burst state?
    high: bool,
    /// MMPP: absolute time the current state ends.
    state_until_s: f64,
}

impl ArrivalSampler {
    /// Builds a sampler for one request stream, validating the process
    /// parameters first (see [`Arrivals::validate`]).
    ///
    /// Validation here is load-bearing, not ceremony: e.g.
    /// `Periodic { rate: 0.0 }` would make the first arrival `0.0 / 0.0
    /// = NaN`, silently breaking the nondecreasing-times invariant of
    /// every consumer downstream.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that [`run`] would reject a workload
    /// carrying these arrivals with.
    pub fn new(arrivals: Arrivals) -> Result<Self, SimError> {
        arrivals.validate()?;
        let mut rng = match arrivals {
            Arrivals::Poisson { seed, .. }
            | Arrivals::Mmpp { seed, .. }
            | Arrivals::Diurnal { seed, .. } => Some(StdRng::seed_from_u64(seed)),
            Arrivals::ClosedLoop | Arrivals::Periodic { .. } => None,
        };
        let mut state_until_s = 0.0;
        if let Arrivals::Mmpp { mean_dwell_s, .. } = arrivals {
            let u: f64 = rng.as_mut().expect("seeded mmpp rng").gen_range(0.0..1.0);
            state_until_s = -(1.0 - u).ln() * mean_dwell_s;
        }
        Ok(ArrivalSampler {
            arrivals,
            rng,
            index: 0,
            clock_s: 0.0,
            high: false,
            state_until_s,
        })
    }

    /// Absolute arrival time of the next request, seconds.
    pub fn next_arrival_s(&mut self) -> f64 {
        match self.arrivals {
            Arrivals::ClosedLoop => 0.0,
            Arrivals::Periodic { rate } => {
                let t = self.index as f64 / rate;
                self.index += 1;
                t
            }
            Arrivals::Poisson { rate, .. } => {
                // every request, including the first, samples its gap:
                // the realized stream is a genuine Poisson process
                let rng = self.rng.as_mut().expect("poisson rng");
                self.clock_s += exp_gap(rng, rate);
                self.clock_s
            }
            Arrivals::Mmpp {
                low_rate,
                high_rate,
                mean_dwell_s,
                ..
            } => {
                let rng = self.rng.as_mut().expect("mmpp rng");
                loop {
                    let rate = if self.high { high_rate } else { low_rate };
                    let gap = exp_gap(rng, rate);
                    if self.clock_s + gap <= self.state_until_s {
                        self.clock_s += gap;
                        return self.clock_s;
                    }
                    // the candidate lands past the state boundary: jump
                    // to the switch (memorylessness permits a resample)
                    self.clock_s = self.state_until_s;
                    self.high = !self.high;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    self.state_until_s = self.clock_s - (1.0 - u).ln() * mean_dwell_s;
                }
            }
            Arrivals::Diurnal {
                mean_rate,
                amplitude,
                period_s,
                ..
            } => {
                let rng = self.rng.as_mut().expect("diurnal rng");
                let peak = mean_rate * (1.0 + amplitude);
                loop {
                    self.clock_s += exp_gap(rng, peak);
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if u * peak <= diurnal_rate(self.clock_s, mean_rate, amplitude, period_s) {
                        return self.clock_s;
                    }
                }
            }
        }
    }
}

/// One tenant: a compiled pipeline plus its traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The model, compiled onto the device chain (stage `k` of the
    /// pipeline runs on device `k`).
    pub pipeline: CompiledPipeline,
    /// Arrival process of the request stream.
    pub arrivals: Arrivals,
    /// Number of requests to simulate.
    pub requests: usize,
    /// Inferences carried per request. Compute and payload bytes scale
    /// with the batch; fixed host/USB submission overheads are paid once
    /// per request — the amortization batching buys on real hardware.
    pub batch: usize,
    /// Requests excluded from the front of the measurement window.
    pub warmup: usize,
}

impl Workload {
    /// A workload with the default traffic shape — closed-loop arrivals,
    /// batch 1, no warm-up. Compose with the `with_*` builders to pick a
    /// scenario.
    #[must_use]
    pub fn new(pipeline: CompiledPipeline, requests: usize) -> Self {
        Workload {
            pipeline,
            arrivals: Arrivals::ClosedLoop,
            requests,
            batch: 1,
            warmup: 0,
        }
    }

    /// A closed-loop unbatched stream — the legacy `exec::simulate`
    /// scenario, spelled out (alias of [`Workload::new`]).
    #[must_use]
    pub fn closed_loop(pipeline: CompiledPipeline, requests: usize) -> Self {
        Self::new(pipeline, requests)
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

    /// Excludes the first `warmup` requests from the measured window.
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Total inferences carried by the workload.
    pub fn inferences(&self) -> usize {
        self.requests * self.batch
    }

    /// Pipeline depth (devices used).
    pub fn stages(&self) -> usize {
        self.pipeline.segments.len()
    }
}

/// Engine-level switches, orthogonal to the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// `false`: every device has a dedicated host link (the analytic
    /// idealization of the legacy recurrence). `true`: all activation and
    /// parameter transfers of all devices and tenants share one USB bus,
    /// served in FIFO order.
    pub contended_bus: bool,
    /// Record exact per-request `(arrival, completion)` event times in
    /// [`TenantReport::completions`] (costs memory proportional to
    /// request count). The percentile layer of `respect_serve` is
    /// computed from these records.
    pub record_completions: bool,
}

impl SimConfig {
    /// Dedicated per-device links — the legacy degenerate case.
    #[must_use]
    pub fn uncontended() -> Self {
        SimConfig {
            contended_bus: false,
            record_completions: false,
        }
    }

    /// One shared host USB bus with FIFO contention.
    #[must_use]
    pub fn contended() -> Self {
        SimConfig {
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

impl Default for SimConfig {
    fn default() -> Self {
        Self::uncontended()
    }
}

/// A simulated resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceId {
    /// Edge TPU at chain position `k`.
    Device(usize),
    /// The shared host USB bus.
    Bus,
}

/// Exact event times of one request (recorded when
/// [`SimConfig::record_completions`] is set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// Request index within the tenant.
    pub request: usize,
    /// Inferences the request carried.
    pub batch: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Completion time (last stage done), seconds.
    pub completed_s: f64,
}

impl CompletionRecord {
    /// Sojourn time (completion − arrival), seconds.
    #[inline]
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }
}

/// Per-tenant results of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Requests simulated.
    pub requests: usize,
    /// Inferences simulated (`requests × batch`).
    pub inferences: usize,
    /// Inferences inside the measured window.
    pub measured_inferences: usize,
    /// Completion time of the last request, seconds.
    pub total_s: f64,
    /// Sojourn time of the first request (completion − arrival), seconds.
    pub first_latency_s: f64,
    /// Mean sojourn time over the measured window, seconds.
    pub mean_latency_s: f64,
    /// Worst sojourn time over the measured window, seconds.
    pub max_latency_s: f64,
    /// Measured-window throughput, inferences per second.
    pub throughput_ips: f64,
    /// Exact per-request event times, in request order (empty unless
    /// [`SimConfig::record_completions`]).
    pub completions: Vec<CompletionRecord>,
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// One report per workload, in input order.
    pub tenants: Vec<TenantReport>,
    /// Time the last event fired, seconds.
    pub makespan_s: f64,
    /// Total time the shared bus was busy, seconds (0 when uncontended).
    pub bus_busy_s: f64,
    /// Events processed.
    pub events: u64,
}

/// Deterministic service time of one stage for a `batch`-inference
/// request: fixed overheads once, payloads scaled by the batch.
pub fn batch_service_time(seg: &Segment, spec: &DeviceSpec, batch: usize) -> f64 {
    StageTiming::new(seg, spec, batch).hold_s
}

/// Borrowed form of [`Workload`]: what the engine actually reads. Lets
/// hot callers ([`crate::exec::simulate`]) run without cloning the
/// pipeline.
#[derive(Debug, Clone, Copy)]
struct WorkloadView<'a> {
    pipeline: &'a CompiledPipeline,
    arrivals: Arrivals,
    requests: usize,
    batch: usize,
    warmup: usize,
}

impl<'a> WorkloadView<'a> {
    fn of(wl: &'a Workload) -> Self {
        WorkloadView {
            pipeline: &wl.pipeline,
            arrivals: wl.arrivals,
            requests: wl.requests,
            batch: wl.batch,
            warmup: wl.warmup,
        }
    }

    fn stages(&self) -> usize {
        self.pipeline.segments.len()
    }

    fn inferences(&self) -> usize {
        self.requests * self.batch
    }
}

/// Pending-event payload. Indices are packed narrow (`u32` tenant and
/// request, `u16` stage inside [`StageEvent`]) so a queue entry stays
/// small — at fleet scale the pending set holds ~one event per tenant
/// and popping is memory-bound, so entry bytes are events per second.
/// [`Engine::new`] asserts the bounds, so the casts never truncate.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Request `r` of tenant `w` enters the system.
    Arrive { w: u32, r: u32 },
    /// A stage event of the device/bus core.
    Stage(StageEvent),
}

// with its `f64` time, this payload fills a 24-byte calendar entry
const _: () = assert!(std::mem::size_of::<EventKind>() == 12);

impl From<(u16, StageEvent)> for EventKind {
    #[inline]
    fn from((_, ev): (u16, StageEvent)) -> Self {
        EventKind::Stage(ev)
    }
}

/// All tenants' stage timings, flat at `w * stride + k`: service events
/// read timings without touching the (large, per-tenant) [`Tenant`]
/// records — one predictable indexed load instead of two dependent
/// pointer chases per event at fleet scale. A job is one request, so
/// its slot is the request index.
struct Timings {
    flat: Vec<StageTiming>,
    /// Device-chain length.
    stride: usize,
}

impl JobTable for Timings {
    #[inline]
    fn timing(&self, job: JobId, k: usize) -> &StageTiming {
        &self.flat[job.tenant as usize * self.stride + k]
    }

    #[inline]
    fn request(&self, job: JobId) -> u32 {
        job.slot
    }
}

/// Per-tenant mutable simulation state.
///
/// Statistics stream into scalar accumulators as requests complete —
/// in the exact floating-point order the seed implementation used in
/// its finalize loop (per-tenant completions happen in request order:
/// FIFO servers can't reorder one tenant's stream) — so memory stays
/// constant in the request count unless completion records are on.
struct Tenant {
    /// Arrival instants of admitted-but-uncompleted requests, FIFO.
    inflight_arrivals: VecDeque<f64>,
    /// Requests completed (the next completion is request `done`).
    done: usize,
    first_arrival_s: f64,
    first_completion_s: f64,
    /// Completion instant of request `warmup - 1` (0 when `warmup == 0`).
    window_start_s: f64,
    last_completion_s: f64,
    lat_sum: f64,
    lat_max: f64,
    completions: Vec<CompletionRecord>,
    sampler: ArrivalSampler,
}

/// The event loop, generic over its pending-event set so tests can run
/// it on the binary-heap reference; [`run`] runs it on a
/// [`CalendarQueue`].
struct Engine<'a, Q, P> {
    workloads: &'a [WorkloadView<'a>],
    cfg: SimConfig,
    queue: Q,
    chain: Chain,
    tenants: Vec<Tenant>,
    timings: Timings,
    events: u64,
    now: f64,
    /// Monomorphized observer; every call site is guarded by
    /// `P::ENABLED`, so [`NullProbe`] leaves the hot path untouched.
    probe: &'a mut P,
}

impl<'a, Q: EventQueue<EventKind>, P: Probe> Engine<'a, Q, P> {
    fn new(
        workloads: &'a [WorkloadView<'a>],
        spec: &DeviceSpec,
        cfg: SimConfig,
        probe: &'a mut P,
    ) -> Self {
        let chain = workloads
            .iter()
            .map(WorkloadView::stages)
            .max()
            .unwrap_or(0);
        let mut flat = vec![StageTiming::default(); workloads.len() * chain];
        for (w, wl) in workloads.iter().enumerate() {
            for (k, seg) in wl.pipeline.segments.iter().enumerate() {
                flat[w * chain + k] = StageTiming::new(seg, spec, wl.batch);
            }
        }
        let tenants = workloads
            .iter()
            .map(|wl| Tenant {
                inflight_arrivals: VecDeque::new(),
                done: 0,
                first_arrival_s: 0.0,
                first_completion_s: 0.0,
                window_start_s: 0.0,
                last_completion_s: 0.0,
                lat_sum: 0.0,
                lat_max: 0.0,
                completions: Vec::new(),
                sampler: ArrivalSampler::new(wl.arrivals)
                    .expect("workload arrivals validated before the engine starts"),
            })
            .collect();
        Engine {
            workloads,
            cfg,
            queue: Q::default(),
            chain: Chain::new(0, chain, cfg.contended_bus),
            tenants,
            timings: Timings {
                flat,
                stride: chain,
            },
            events: 0,
            now: 0.0,
            probe,
        }
    }

    fn run(mut self) -> SimReport {
        // Seed one pending arrival per tenant; each Arrive schedules the
        // next, so the queue never holds more than one future arrival
        // per tenant.
        for w in 0..self.workloads.len() {
            let t0 = self.tenants[w].sampler.next_arrival_s();
            self.queue.push(t0, EventKind::Arrive { w: w as u32, r: 0 });
        }
        while let Some((t, kind)) = self.queue.pop() {
            self.now = t;
            self.events += 1;
            match kind {
                EventKind::Arrive { w, r } => {
                    if P::ENABLED {
                        self.probe.record(
                            t,
                            &ProbeEvent::Arrival {
                                chain: 0,
                                tenant: w,
                                request: r,
                            },
                        );
                    }
                    let tenant = &mut self.tenants[w as usize];
                    if r == 0 {
                        tenant.first_arrival_s = t;
                    }
                    tenant.inflight_arrivals.push_back(t);
                    if (r as usize) + 1 < self.workloads[w as usize].requests {
                        let tn = tenant.sampler.next_arrival_s();
                        self.queue.push(tn, EventKind::Arrive { w, r: r + 1 });
                    }
                    self.join(JobId { tenant: w, slot: r }, 0, t);
                }
                EventKind::Stage(ev) => {
                    let done =
                        self.chain
                            .handle(ev, t, &self.timings, &mut self.queue, &mut *self.probe);
                    if let Some(done) = done {
                        let w = done.job.tenant as usize;
                        if done.k + 1 < self.workloads[w].stages() {
                            self.join(done.job, done.k + 1, t);
                        } else {
                            self.complete_request(w, done.job.slot as usize, t);
                        }
                    }
                }
            }
            // Safe point: the event is fully dispatched, so a debugger
            // probe may suspend here and take a consistent snapshot.
            // `P::INSPECT` is false for every non-debugging probe, so
            // the poll compiles away like the emission guards do.
            if P::INSPECT && self.probe.wants_inspect() {
                let snap = self.snapshot();
                self.probe.inspect(t, &snap);
            }
        }
        self.finalize()
    }

    fn join(&mut self, job: JobId, k: usize, t: f64) {
        self.chain
            .join(job, k, t, &self.timings, &mut self.queue, &mut *self.probe);
    }

    /// Streams one completion into the tenant's scalar accumulators —
    /// the same values, in the same floating-point order, as the seed
    /// implementation's post-run loop over per-request arrays. FIFO
    /// servers preserve each tenant's request order, so completion
    /// `done` is always request `done`.
    fn complete_request(&mut self, w: usize, r: usize, t: f64) {
        let warmup = self.workloads[w].warmup;
        let batch = self.workloads[w].batch;
        let tenant = &mut self.tenants[w];
        let arrival = tenant
            .inflight_arrivals
            .pop_front()
            .expect("every completion matches an arrival");
        debug_assert_eq!(r, tenant.done, "FIFO preserves per-tenant request order");
        if r == 0 {
            tenant.first_completion_s = t;
        }
        if r + 1 == warmup {
            tenant.window_start_s = t;
        }
        if r >= warmup {
            let lat = t - arrival;
            tenant.lat_sum += lat;
            tenant.lat_max = tenant.lat_max.max(lat);
        }
        if P::ENABLED {
            self.probe.record(
                t,
                &ProbeEvent::Completion {
                    chain: 0,
                    tenant: w as u32,
                    request: r as u32,
                    latency_s: t - arrival,
                },
            );
        }
        tenant.last_completion_s = t;
        tenant.done += 1;
        if self.cfg.record_completions {
            tenant.completions.push(CompletionRecord {
                request: r,
                batch,
                arrival_s: arrival,
                completed_s: t,
            });
        }
    }

    fn finalize(self) -> SimReport {
        let mut reports = Vec::with_capacity(self.workloads.len());
        for (wl, tenant) in self.workloads.iter().zip(self.tenants) {
            debug_assert_eq!(tenant.done, wl.requests, "every request completes");
            let n = wl.requests;
            let total_s = tenant.last_completion_s;
            let first_latency_s = tenant.first_completion_s - tenant.first_arrival_s;
            let window_start = tenant.window_start_s;
            let measured = n - wl.warmup;
            let measured_inferences = measured * wl.batch;
            let window_s = total_s - window_start;
            let throughput_ips = if window_s > 0.0 {
                measured_inferences as f64 / window_s
            } else {
                f64::INFINITY
            };
            reports.push(TenantReport {
                requests: n,
                inferences: wl.inferences(),
                measured_inferences,
                total_s,
                first_latency_s,
                mean_latency_s: tenant.lat_sum / measured as f64,
                max_latency_s: tenant.lat_max,
                throughput_ips,
                completions: tenant.completions,
            });
        }
        SimReport {
            tenants: reports,
            makespan_s: self.now,
            bus_busy_s: self.chain.bus_busy_s(),
            events: self.events,
        }
    }
}

impl<Q, P> EngineInspect for Engine<'_, Q, P> {
    /// The raw simulator as one always-powered chain: no batcher (open
    /// batches are empty), no drift windows, `waiting` is the
    /// admitted-but-uncompleted request count.
    fn snapshot(&self) -> EngineSnapshot {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(w, t)| TenantSnapshot {
                tenant: w as u32,
                admitted: t.done + t.inflight_arrivals.len(),
                completed: t.done,
                open_batch: Vec::new(),
                waiting: t.inflight_arrivals.len(),
                in_flight_jobs: t.inflight_arrivals.len(),
                swaps: 0,
                drift_window_jobs: 0,
                drift_busy_s: Vec::new(),
            })
            .collect();
        let backlog = self.tenants.iter().map(|t| t.inflight_arrivals.len()).sum();
        EngineSnapshot {
            kind: EngineKind::Sim,
            now_s: self.now,
            events: self.events,
            active_chains: 1,
            chains: vec![ChainSnapshot {
                chain: 0,
                powered: true,
                backlog,
                drain_estimate_s: 0.0,
                busy_s: 0.0,
                bus: self.chain.bus_snapshot(),
                devices: self.chain.device_snapshots(),
                tenants,
            }],
        }
    }
}

/// Runs the discrete-event simulation of `workloads` co-resident on one
/// device chain (stage `k` of every pipeline runs on device `k`) under
/// `cfg`.
///
/// # Errors
///
/// Returns a [`SimError`] if any workload is degenerate (zero requests,
/// zero batch, empty pipeline, bad rate, warm-up swallowing the whole
/// stream), if no workloads are supplied, if `spec` is degenerate (see
/// [`DeviceSpec::validate`]), or if the tenant, per-tenant
/// request or stage count exceeds the packed event fields (`u32`, `u32`,
/// `u16`). Nothing is simulated on error.
pub fn run(
    workloads: &[Workload],
    spec: &DeviceSpec,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    run_probed(workloads, spec, cfg, &mut NullProbe)
}

/// [`run`] with an attached [`Probe`] observing arrivals, device/bus
/// acquires and releases, and completions (see [`crate::probe`]).
///
/// `run_probed(.., &mut NullProbe)` is [`run`] — the instrumentation
/// compiles away and the report is bitwise-identical.
///
/// # Errors
///
/// Exactly the [`SimError`] conditions of [`run`].
pub fn run_probed<P: Probe>(
    workloads: &[Workload],
    spec: &DeviceSpec,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    let views: Vec<WorkloadView<'_>> = workloads.iter().map(WorkloadView::of).collect();
    run_views(&views, spec, cfg, probe)
}

/// Clone-free entry point for single-tenant closed-loop streams (the
/// `exec::simulate` hot path).
pub(crate) fn run_closed_loop(
    pipeline: &CompiledPipeline,
    spec: &DeviceSpec,
    requests: usize,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    run_views(
        &[WorkloadView {
            pipeline,
            arrivals: Arrivals::ClosedLoop,
            requests,
            batch: 1,
            warmup: 0,
        }],
        spec,
        cfg,
        &mut NullProbe,
    )
}

fn run_views<P: Probe>(
    workloads: &[WorkloadView<'_>],
    spec: &DeviceSpec,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    if workloads.is_empty() {
        return Err(SimError::NoWorkloads);
    }
    spec.validate()?;
    limit("tenants", workloads.len(), u32::MAX as usize)?;
    for wl in workloads {
        if wl.requests == 0 {
            return Err(SimError::NoRequests);
        }
        if wl.batch == 0 {
            return Err(SimError::ZeroBatch);
        }
        if wl.pipeline.segments.is_empty() {
            return Err(SimError::EmptyPipeline);
        }
        if wl.warmup >= wl.requests {
            return Err(SimError::WarmupTooLarge {
                warmup: wl.warmup,
                requests: wl.requests,
            });
        }
        wl.arrivals.validate()?;
        limit("requests", wl.requests, u32::MAX as usize)?;
        limit("stages", wl.stages(), usize::from(u16::MAX))?;
    }
    Ok(Engine::<CalendarQueue<EventKind>, P>::new(workloads, spec, *cfg, probe).run())
}

/// [`SimError::TooLarge`] when `count` exceeds `max`.
fn limit(what: &'static str, count: usize, max: usize) -> Result<(), SimError> {
    if count > max {
        return Err(SimError::TooLarge { what, count, max });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::event_queue::heap_queue::BinaryHeapQueue;
    use crate::probe::SpanProbe;
    use respect_graph::models;
    use respect_sched::{balanced::ParamBalanced, Scheduler};

    fn pipeline(stages: usize) -> (CompiledPipeline, DeviceSpec) {
        let dag = models::resnet50();
        let spec = DeviceSpec::coral();
        let s = ParamBalanced::new().schedule(&dag, stages).unwrap();
        (compile::compile(&dag, &s, &spec).unwrap(), spec)
    }

    #[test]
    fn rejects_degenerate_workloads() {
        let (p, spec) = pipeline(2);
        let cfg = SimConfig::uncontended();
        assert_eq!(run(&[], &spec, &cfg), Err(SimError::NoWorkloads));
        let zero = Workload::closed_loop(p.clone(), 0);
        assert_eq!(run(&[zero], &spec, &cfg), Err(SimError::NoRequests));
        let empty = Workload::closed_loop(
            CompiledPipeline {
                segments: vec![],
                schedule: p.schedule.clone(),
            },
            5,
        );
        assert_eq!(run(&[empty], &spec, &cfg), Err(SimError::EmptyPipeline));
        let batchless = Workload::closed_loop(p.clone(), 5).with_batch(0);
        assert_eq!(run(&[batchless], &spec, &cfg), Err(SimError::ZeroBatch));
        let warm = Workload::closed_loop(p.clone(), 5).with_warmup(5);
        assert_eq!(
            run(&[warm], &spec, &cfg),
            Err(SimError::WarmupTooLarge {
                warmup: 5,
                requests: 5
            })
        );
        let bad_rate = Workload::new(p, 5).with_arrivals(Arrivals::Periodic { rate: 0.0 });
        assert_eq!(
            run(&[bad_rate], &spec, &cfg),
            Err(SimError::InvalidRate { rate: 0.0 })
        );
    }

    #[test]
    fn rejects_counts_beyond_the_packed_event_fields() {
        let (p, spec) = pipeline(2);
        let cfg = SimConfig::uncontended();
        let requests = u32::MAX as usize + 1;
        let too_many = Err(SimError::TooLarge {
            what: "requests",
            count: requests,
            max: u32::MAX as usize,
        });
        let huge = Workload::closed_loop(p.clone(), requests);
        assert_eq!(run(std::slice::from_ref(&huge), &spec, &cfg), too_many);
        assert_eq!(run_probed(&[huge], &spec, &cfg, &mut NullProbe), too_many);
        let stage = Segment {
            nodes: Vec::new(),
            ..p.segments[0].clone()
        };
        let deep = CompiledPipeline {
            segments: vec![stage; 1 << 16],
            schedule: p.schedule,
        };
        assert_eq!(
            run(&[Workload::closed_loop(deep, 5)], &spec, &cfg),
            Err(SimError::TooLarge {
                what: "stages",
                count: 1 << 16,
                max: usize::from(u16::MAX),
            })
        );
    }

    #[test]
    fn contended_solo_is_no_faster_than_uncontended() {
        let (p, spec) = pipeline(4);
        let wl = Workload::closed_loop(p, 300);
        let un = run(std::slice::from_ref(&wl), &spec, &SimConfig::uncontended()).unwrap();
        let co = run(&[wl], &spec, &SimConfig::contended()).unwrap();
        assert!(co.tenants[0].throughput_ips <= un.tenants[0].throughput_ips + 1e-9);
        assert!(co.bus_busy_s > 0.0, "contended run uses the bus");
        assert_eq!(un.bus_busy_s, 0.0, "uncontended run never touches it");
    }

    #[test]
    fn batching_amortizes_fixed_overheads() {
        // warm-up windows exclude the pipeline-fill transient (which is
        // batch-size-proportional) so the comparison is steady state vs
        // steady state
        let (p, spec) = pipeline(4);
        let n = 1024;
        let plain = Workload::closed_loop(p.clone(), n).with_warmup(n / 8);
        let batched = Workload::closed_loop(p, n / 8)
            .with_batch(8)
            .with_warmup(n / 64);
        let cfg = SimConfig::uncontended();
        let r1 = run(&[plain], &spec, &cfg).unwrap();
        let r8 = run(&[batched], &spec, &cfg).unwrap();
        assert_eq!(r8.tenants[0].inferences, r1.tenants[0].inferences);
        assert!(
            r8.tenants[0].throughput_ips > r1.tenants[0].throughput_ips,
            "batch 8 {} <= batch 1 {}",
            r8.tenants[0].throughput_ips,
            r1.tenants[0].throughput_ips
        );
    }

    #[test]
    fn slow_open_loop_arrivals_leave_the_pipeline_idle() {
        let (p, spec) = pipeline(4);
        // closed-loop capacity first
        let closed = run(
            &[Workload::closed_loop(p.clone(), 200)],
            &spec,
            &SimConfig::uncontended(),
        )
        .unwrap();
        let capacity = closed.tenants[0].throughput_ips;
        // feed at a tenth of capacity: throughput tracks the offered rate
        // and latency collapses to the uncontended service sum
        let rate = capacity / 10.0;
        let open = Workload::new(p, 200).with_arrivals(Arrivals::Periodic { rate });
        let r = run(&[open], &spec, &SimConfig::uncontended()).unwrap();
        let t = &r.tenants[0];
        assert!(
            (t.throughput_ips - rate).abs() / rate < 0.02,
            "{} vs {rate}",
            t.throughput_ips
        );
        assert!(
            (t.mean_latency_s - t.first_latency_s).abs() / t.first_latency_s < 1e-6,
            "no queueing at 10% load"
        );
    }

    #[test]
    fn poisson_arrivals_are_deterministic_per_seed() {
        let (p, spec) = pipeline(4);
        // feed below capacity so arrival jitter shows through (a
        // saturated system's completions depend only on service times)
        let wl = |seed| {
            Workload::new(p.clone(), 100).with_arrivals(Arrivals::Poisson { rate: 150.0, seed })
        };
        let cfg = SimConfig::contended();
        let a = run(&[wl(7)], &spec, &cfg).unwrap();
        let b = run(&[wl(7)], &spec, &cfg).unwrap();
        let c = run(&[wl(8)], &spec, &cfg).unwrap();
        assert_eq!(a, b, "same seed, same report");
        assert_ne!(
            a.tenants[0].total_s, c.tenants[0].total_s,
            "different seed, different stream"
        );
    }

    #[test]
    fn warmup_window_excludes_cold_start() {
        let (p, spec) = pipeline(6);
        let cold = run(
            &[Workload::closed_loop(p.clone(), 400)],
            &spec,
            &SimConfig::uncontended(),
        )
        .unwrap();
        let warm = run(
            &[Workload::closed_loop(p, 400).with_warmup(50)],
            &spec,
            &SimConfig::uncontended(),
        )
        .unwrap();
        // excluding the pipeline-fill transient can only raise measured
        // throughput
        assert!(warm.tenants[0].throughput_ips >= cold.tenants[0].throughput_ips);
        assert_eq!(warm.tenants[0].measured_inferences, 350);
    }

    #[test]
    fn trace_spans_cover_devices_and_bus() {
        let (p, spec) = pipeline(3);
        let wl = Workload::closed_loop(p, 20);
        let mut probe = SpanProbe::new();
        run_probed(&[wl], &spec, &SimConfig::contended(), &mut probe).unwrap();
        let spans = probe.spans();
        let device_spans = spans
            .iter()
            .filter(|s| matches!(s.resource, ResourceId::Device(_)))
            .count();
        assert_eq!(device_spans, 20 * 3, "one device hold per request-stage");
        assert!(spans.iter().any(|s| s.resource == ResourceId::Bus));
        for s in spans {
            assert!(s.end_s >= s.start_s);
            assert_eq!(s.chain, 0);
        }
    }

    #[test]
    fn probed_run_matches_unprobed_and_balances_holds() {
        #[derive(Default)]
        struct Counts {
            arrivals: u64,
            acquires: u64,
            releases: u64,
            completions: u64,
        }
        impl Probe for Counts {
            fn record(&mut self, _t: f64, ev: &ProbeEvent) {
                match ev {
                    ProbeEvent::Arrival { .. } => self.arrivals += 1,
                    ProbeEvent::Acquire { .. } => self.acquires += 1,
                    ProbeEvent::Release { .. } => self.releases += 1,
                    ProbeEvent::Completion { .. } => self.completions += 1,
                    _ => {}
                }
            }
        }
        let (p, spec) = pipeline(3);
        let wl = Workload::new(p, 40).with_arrivals(Arrivals::Poisson {
            rate: 500.0,
            seed: 2,
        });
        let cfg = SimConfig::contended();
        let plain = run(std::slice::from_ref(&wl), &spec, &cfg).unwrap();
        let mut probe = Counts::default();
        let probed = run_probed(&[wl], &spec, &cfg, &mut probe).unwrap();
        assert_eq!(plain, probed, "an attached probe never changes the run");
        assert_eq!(probe.arrivals, 40);
        assert_eq!(probe.completions, 40);
        assert_eq!(probe.acquires, probe.releases, "every hold is released");
        assert!(probe.acquires >= 40 * 3, "a device hold per request-stage");
    }

    #[test]
    fn rejects_degenerate_arrival_parameters() {
        let (p, spec) = pipeline(2);
        let cfg = SimConfig::uncontended();
        let with = |a| vec![Workload::new(p.clone(), 5).with_arrivals(a)];
        assert_eq!(
            run(
                &with(Arrivals::Mmpp {
                    low_rate: 10.0,
                    high_rate: 100.0,
                    mean_dwell_s: 0.0,
                    seed: 1
                }),
                &spec,
                &cfg
            ),
            Err(SimError::InvalidDwell { dwell_s: 0.0 })
        );
        assert_eq!(
            run(
                &with(Arrivals::Mmpp {
                    low_rate: -1.0,
                    high_rate: 100.0,
                    mean_dwell_s: 1.0,
                    seed: 1
                }),
                &spec,
                &cfg
            ),
            Err(SimError::InvalidRate { rate: -1.0 })
        );
        assert_eq!(
            run(
                &with(Arrivals::Diurnal {
                    mean_rate: 10.0,
                    amplitude: 1.5,
                    period_s: 1.0,
                    seed: 1
                }),
                &spec,
                &cfg
            ),
            Err(SimError::InvalidAmplitude { amplitude: 1.5 })
        );
        assert_eq!(
            run(
                &with(Arrivals::Diurnal {
                    mean_rate: 10.0,
                    amplitude: 0.5,
                    period_s: f64::INFINITY,
                    seed: 1
                }),
                &spec,
                &cfg
            ),
            Err(SimError::InvalidPeriod {
                period_s: f64::INFINITY
            })
        );
    }

    /// Draws `n` arrivals from a fresh sampler.
    fn stream(a: Arrivals, n: usize) -> Vec<f64> {
        let mut s = ArrivalSampler::new(a).expect("valid arrivals");
        (0..n).map(|_| s.next_arrival_s()).collect()
    }

    #[test]
    fn arrival_sampler_rejects_invalid_parameters() {
        // regression: a zero periodic rate used to be accepted and made
        // the first arrival 0.0 / 0.0 = NaN
        assert_eq!(
            ArrivalSampler::new(Arrivals::Periodic { rate: 0.0 }).err(),
            Some(SimError::InvalidRate { rate: 0.0 })
        );
        assert_eq!(
            ArrivalSampler::new(Arrivals::Poisson {
                rate: f64::NAN,
                seed: 1
            })
            .err()
            .map(|e| matches!(e, SimError::InvalidRate { .. })),
            Some(true)
        );
        assert_eq!(
            ArrivalSampler::new(Arrivals::Mmpp {
                low_rate: 10.0,
                high_rate: 20.0,
                mean_dwell_s: f64::INFINITY,
                seed: 1
            })
            .err(),
            Some(SimError::InvalidDwell {
                dwell_s: f64::INFINITY
            })
        );
        // and a valid sampler still starts at a finite, nondecreasing
        // stream
        let mut ok = ArrivalSampler::new(Arrivals::Periodic { rate: 100.0 }).unwrap();
        let first = ok.next_arrival_s();
        assert_eq!(first, 0.0);
        assert!(ok.next_arrival_s() > first);
    }

    #[test]
    fn calendar_queue_matches_the_heap_reference_across_spills() {
        let (p, spec) = pipeline(4);
        let cfg = SimConfig::contended().with_completions();
        // two tenants keep the pending set in the queue's front run; 64
        // Poisson tenants hold one arrival timer each, which spills it
        // into the ring, and finishing at staggered times they drain it
        // back below the collapse threshold while events still flow
        let two = vec![
            Workload::new(p.clone(), 200)
                .with_arrivals(Arrivals::Poisson {
                    rate: 300.0,
                    seed: 11,
                })
                .with_batch(2)
                .with_warmup(10),
            Workload::closed_loop(p.clone(), 150),
        ];
        let many: Vec<Workload> = (0..64)
            .map(|i| {
                Workload::new(p.clone(), 10 + 3 * i).with_arrivals(Arrivals::Poisson {
                    rate: 20.0,
                    seed: 100 + i as u64,
                })
            })
            .collect();
        for wls in [two, many] {
            let mut probe = SpanProbe::new();
            let report = run_probed(&wls, &spec, &cfg, &mut probe).unwrap();
            let views: Vec<WorkloadView<'_>> = wls.iter().map(WorkloadView::of).collect();
            let mut heap_probe = SpanProbe::new();
            let heap =
                Engine::<BinaryHeapQueue<EventKind>, _>::new(&views, &spec, cfg, &mut heap_probe)
                    .run();
            assert!(!probe.spans().is_empty());
            assert_eq!(
                report,
                heap,
                "{} tenants: engine results are queue-independent",
                wls.len()
            );
            assert_eq!(probe.spans(), heap_probe.spans(), "{} tenants", wls.len());
        }
    }

    #[test]
    fn rejects_degenerate_device_specs() {
        let (p, coral) = pipeline(4);
        let wl = [Workload::closed_loop(p, 10)];
        let cases = [
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
        ];
        for (name, spec) in cases {
            for cfg in [SimConfig::uncontended(), SimConfig::contended()] {
                let plain = run(&wl, &spec, &cfg);
                let probed = run_probed(&wl, &spec, &cfg, &mut SpanProbe::new());
                for r in [plain, probed] {
                    assert!(
                        matches!(r, Err(SimError::InvalidSpec { field, .. }) if field == name),
                        "{name}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mmpp_and_diurnal_streams_are_seeded_deterministic() {
        let mmpp = |seed| Arrivals::Mmpp {
            low_rate: 50.0,
            high_rate: 2_000.0,
            mean_dwell_s: 0.05,
            seed,
        };
        let diurnal = |seed| Arrivals::Diurnal {
            mean_rate: 500.0,
            amplitude: 0.8,
            period_s: 0.25,
            seed,
        };
        for (a, b, c) in [
            (mmpp(9), mmpp(9), mmpp(10)),
            (diurnal(9), diurnal(9), diurnal(10)),
        ] {
            let (sa, sb, sc) = (stream(a, 400), stream(b, 400), stream(c, 400));
            let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sa), bits(&sb), "same seed, bitwise-equal stream");
            assert_ne!(bits(&sa), bits(&sc), "different seed, different stream");
            for w in sa.windows(2) {
                assert!(w[1] >= w[0], "arrival times are nondecreasing");
            }
        }
    }

    #[test]
    fn mmpp_rate_scaling_tracks_its_states() {
        // With both states at the same rate the MMPP collapses to a
        // Poisson process of that rate: the empirical rate must track it
        // and double when the rate doubles.
        let n = 4_000;
        let flat = |rate| Arrivals::Mmpp {
            low_rate: rate,
            high_rate: rate,
            mean_dwell_s: 0.01,
            seed: 1234,
        };
        let r1 = n as f64 / stream(flat(1_000.0), n)[n - 1];
        let r2 = n as f64 / stream(flat(2_000.0), n)[n - 1];
        assert!((r1 - 1_000.0).abs() / 1_000.0 < 0.1, "empirical rate {r1}");
        assert!(
            (r2 / r1 - 2.0).abs() < 0.2,
            "doubling the rate: {}",
            r2 / r1
        );
        // A genuinely bursty stream's mean rate sits between its states.
        let bursty = stream(
            Arrivals::Mmpp {
                low_rate: 100.0,
                high_rate: 4_000.0,
                mean_dwell_s: 0.02,
                seed: 7,
            },
            n,
        );
        let rb = n as f64 / bursty[n - 1];
        assert!(rb > 150.0 && rb < 3_500.0, "bursty empirical rate {rb}");
    }

    #[test]
    fn diurnal_mean_rate_is_preserved_over_whole_cycles() {
        // Thinning modulates the instantaneous rate but the cycle average
        // must stay at mean_rate (triangle wave is symmetric).
        let n = 20_000;
        let s = stream(
            Arrivals::Diurnal {
                mean_rate: 1_000.0,
                amplitude: 1.0,
                period_s: 0.5,
                seed: 99,
            },
            n,
        );
        let horizon = s[n - 1];
        let whole = (horizon / 0.5).floor() * 0.5;
        let count = s.iter().filter(|&&t| t < whole).count();
        let empirical = count as f64 / whole;
        assert!(
            (empirical - 1_000.0).abs() / 1_000.0 < 0.05,
            "cycle-average rate {empirical}"
        );
        // and the wave actually modulates: crest-half arrivals outnumber
        // trough-half arrivals decisively at amplitude 1
        let in_crest = s
            .iter()
            .filter(|&&t| {
                let phase = t / 0.5 - (t / 0.5).floor();
                (0.25..0.75).contains(&phase)
            })
            .count();
        assert!(
            in_crest as f64 > 0.7 * n as f64,
            "crest half holds {in_crest} of {n}"
        );
    }

    #[test]
    fn completion_records_match_report_aggregates() {
        let (p, spec) = pipeline(3);
        let wl = Workload::new(p, 50)
            .with_arrivals(Arrivals::Poisson {
                rate: 200.0,
                seed: 3,
            })
            .with_warmup(5);
        let bare = run(std::slice::from_ref(&wl), &spec, &SimConfig::contended()).unwrap();
        assert!(bare.tenants[0].completions.is_empty(), "off by default");
        let r = run(&[wl], &spec, &SimConfig::contended().with_completions()).unwrap();
        let t = &r.tenants[0];
        assert_eq!(t.completions.len(), 50);
        let mut lat_sum = 0.0;
        let mut lat_max = 0.0f64;
        for c in &t.completions[5..] {
            lat_sum += c.latency_s();
            lat_max = lat_max.max(c.latency_s());
        }
        assert_eq!((lat_sum / 45.0).to_bits(), t.mean_latency_s.to_bits());
        assert_eq!(lat_max.to_bits(), t.max_latency_s.to_bits());
        assert_eq!(t.completions[49].completed_s.to_bits(), t.total_s.to_bits());
        for c in &t.completions {
            assert!(c.completed_s >= c.arrival_s);
            assert_eq!(c.batch, 1);
        }
    }

    #[test]
    fn bursty_and_diurnal_arrivals_drive_the_engine_deterministically() {
        let (p, spec) = pipeline(4);
        let wl = |a| Workload::new(p.clone(), 300).with_arrivals(a);
        for arrivals in [
            Arrivals::Mmpp {
                low_rate: 100.0,
                high_rate: 3_000.0,
                mean_dwell_s: 0.02,
                seed: 21,
            },
            Arrivals::Diurnal {
                mean_rate: 400.0,
                amplitude: 0.9,
                period_s: 0.2,
                seed: 21,
            },
        ] {
            let a = run(&[wl(arrivals)], &spec, &SimConfig::contended()).unwrap();
            let b = run(&[wl(arrivals)], &spec, &SimConfig::contended()).unwrap();
            assert_eq!(a, b, "bitwise-deterministic per seed");
            assert!(a.tenants[0].max_latency_s >= a.tenants[0].mean_latency_s);
        }
    }

    #[test]
    fn two_tenants_complete_all_requests() {
        let (p4, spec) = pipeline(4);
        let (p2, _) = pipeline(2);
        let r = run(
            &[
                Workload::closed_loop(p4, 50),
                Workload::closed_loop(p2, 30).with_batch(2),
            ],
            &spec,
            &SimConfig::contended(),
        )
        .unwrap();
        assert_eq!(r.tenants[0].inferences, 50);
        assert_eq!(r.tenants[1].inferences, 60);
        assert!(r.makespan_s >= r.tenants[0].total_s.max(r.tenants[1].total_s));
    }
}
