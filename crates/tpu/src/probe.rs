//! Zero-cost observability hooks for the sim → serve → fleet stack.
//!
//! Every runtime layer in this workspace (the raw discrete-event engine
//! in [`crate::sim`], the chain/serving runtime and the fleet layer in
//! `respect_serve`, and the online re-partitioner in
//! `respect_sched::repartition`) takes a [`Probe`] — a monomorphized
//! observer that receives typed, structured [`ProbeEvent`]s carrying
//! sim-time, tenant, chain, and request identities. The default
//! [`NullProbe`] sets [`Probe::ENABLED`] to `false`; every emission
//! site is guarded by `if P::ENABLED`, so with the default probe the
//! compiler deletes the instrumentation entirely and the hot path is
//! bit-for-bit and cycle-for-cycle the uninstrumented engine.
//!
//! Recorders that do something useful with the stream (metrics
//! counters, Chrome `trace_event` JSON, a bounded flight-recorder ring)
//! live in the `respect_obs` crate; this module defines the contract,
//! low enough in the crate graph that every layer can emit into it, and
//! the [`SpanProbe`] that collects resource holds as [`TraceSpan`]s.
//! A hold is reported once and whole, at its end: every
//! [`ProbeEvent::Release`] carries the time its hold began, so no
//! observer pairs it with its [`ProbeEvent::Acquire`].
//!
//! # Example
//!
//! A probe is just a mutable visitor; collecting events into a `Vec` is
//! a one-liner:
//!
//! ```
//! use respect_tpu::probe::{Probe, ProbeEvent};
//!
//! #[derive(Default)]
//! struct Collect(Vec<(f64, ProbeEvent)>);
//!
//! impl Probe for Collect {
//!     fn record(&mut self, t: f64, ev: &ProbeEvent) {
//!         self.0.push((t, *ev));
//!     }
//! }
//!
//! let mut p = Collect::default();
//! p.record(0.5, &ProbeEvent::Arrival { chain: 0, tenant: 0, request: 7 });
//! assert_eq!(p.0.len(), 1);
//! ```

use crate::sim::ResourceId;

/// Why an admission controller refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The tenant's waiting queue was at its bound.
    QueueBound,
    /// The estimated queueing delay exceeded the SLO target.
    SloDelay,
}

/// One structured observation from a runtime layer.
///
/// Identity conventions: `chain` is the fleet chain index (always `0`
/// in the raw simulator and the single-chain serving runtime), `tenant`
/// is the workload index in input order, and `request` is the tenant's
/// request index. Sim-time is *not* carried here — it is the first
/// argument of [`Probe::record`], so the payload stays `Copy`-small.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ProbeEvent {
    /// A request entered the system.
    Arrival {
        chain: u16,
        tenant: u32,
        request: u32,
    },
    /// Admission control accepted the request.
    Admit {
        chain: u16,
        tenant: u32,
        request: u32,
    },
    /// Admission control shed the request.
    Shed {
        chain: u16,
        tenant: u32,
        request: u32,
        reason: ShedReason,
    },
    /// A dynamic batch opened (first request began waiting).
    BatchOpen { chain: u16, tenant: u32 },
    /// A dynamic batch closed and was dispatched with `size` requests.
    BatchClose { chain: u16, tenant: u32, size: u32 },
    /// A resource (device or bus) was seized.
    Acquire {
        chain: u16,
        resource: ResourceId,
        tenant: u32,
        request: u32,
        stage: u16,
    },
    /// A resource (device or bus) was released.
    Release {
        chain: u16,
        resource: ResourceId,
        tenant: u32,
        request: u32,
        stage: u16,
        /// When the hold began: the time of its [`ProbeEvent::Acquire`],
        /// seconds.
        since_s: f64,
    },
    /// A request finished its last stage.
    Completion {
        chain: u16,
        tenant: u32,
        request: u32,
        /// Sojourn time (completion − arrival), seconds.
        latency_s: f64,
    },
    /// A drift window tripped its divergence threshold.
    DriftTrigger {
        chain: u16,
        tenant: u32,
        divergence: f64,
    },
    /// One refinement pass of the online re-partitioner finished.
    RepartitionPass {
        chain: u16,
        tenant: u32,
        pass: u32,
        /// Single-node moves applied in this pass.
        moves: u32,
        /// Bottleneck objective after the pass, seconds.
        objective_s: f64,
    },
    /// The re-partitioner proposed a refined schedule.
    RepartitionProposal {
        chain: u16,
        tenant: u32,
        from_objective_s: f64,
        to_objective_s: f64,
        moves: u32,
    },
    /// The proposal cleared the min-gain gate and was hot-swapped in.
    RepartitionAccept { chain: u16, tenant: u32 },
    /// The proposal's gain was below the gate; nothing was swapped.
    RepartitionReject { chain: u16, tenant: u32 },
    /// The autoscaler powered chains up (`from < to` active chains).
    ScaleUp { from: u16, to: u16 },
    /// The autoscaler powered chains down (`from > to` active chains).
    ScaleDown { from: u16, to: u16 },
    /// The fleet router assigned a request to a chain.
    RouterDecision {
        tenant: u32,
        request: u32,
        chain: u16,
    },
}

/// A monomorphized event observer threaded through every engine.
///
/// Implementations must be deterministic if the surrounding run is to
/// stay deterministic: `record` is called at every instrumented point
/// in exact event order, with the simulated time of the event.
///
/// The associated [`ENABLED`](Probe::ENABLED) constant is the zero-cost
/// switch: emission sites compile to `if P::ENABLED { probe.record(..) }`,
/// so a probe that sets it to `false` ([`NullProbe`]) costs nothing —
/// the branch and the event construction are both deleted by
/// monomorphization.
///
/// A custom probe is one method; [`crate::sim::run_probed`] (and the
/// `serve`/`fleet` twins in `respect_serve`) thread it through a run:
///
/// ```
/// use respect_tpu::probe::{Probe, ProbeEvent};
///
/// /// Counts completions and remembers the worst sojourn.
/// #[derive(Default)]
/// struct WorstCase {
///     completions: u64,
///     worst_s: f64,
/// }
///
/// impl Probe for WorstCase {
///     fn record(&mut self, _t: f64, ev: &ProbeEvent) {
///         if let ProbeEvent::Completion { latency_s, .. } = *ev {
///             self.completions += 1;
///             self.worst_s = self.worst_s.max(latency_s);
///         }
///     }
/// }
///
/// let mut p = WorstCase::default();
/// p.record(0.2, &ProbeEvent::Completion {
///     chain: 0, tenant: 0, request: 0, latency_s: 0.2,
/// });
/// assert_eq!((p.completions, p.worst_s), (1, 0.2));
/// ```
pub trait Probe {
    /// `false` compiles every emission site away (see [`NullProbe`]).
    const ENABLED: bool = true;

    /// `true` makes the engines poll [`Probe::wants_inspect`] at every
    /// safe point (between two DES event dispatches) and, when the
    /// probe asks, hand it a read-only [`EngineSnapshot`] via
    /// [`Probe::inspect`]. The default `false` compiles the poll away
    /// exactly like [`Probe::ENABLED`] does for emission sites, so
    /// non-debugging probes pay nothing for the hook's existence.
    ///
    /// This is the suspension mechanism behind the `respect_dbg`
    /// stepping debugger: its probe matches breakpoint predicates in
    /// [`Probe::record`], reports a pending stop through
    /// `wants_inspect`, and runs its command loop inside `inspect` —
    /// the engine is suspended for exactly as long as that call takes
    /// and resumes bitwise-identically afterwards.
    const INSPECT: bool = false;

    /// Observes one event at simulated time `t` (seconds).
    fn record(&mut self, t: f64, ev: &ProbeEvent);

    /// Polled at engine safe points when [`Probe::INSPECT`] is `true`:
    /// return `true` to receive an [`EngineSnapshot`] (and suspend the
    /// engine for the duration of the [`Probe::inspect`] call).
    fn wants_inspect(&self) -> bool {
        false
    }

    /// Safe-point callback with a read-only snapshot of the engine
    /// state at simulated time `t`. Only called when
    /// [`Probe::INSPECT`] is `true` and [`Probe::wants_inspect`]
    /// returned `true` at this safe point.
    fn inspect(&mut self, t: f64, snapshot: &EngineSnapshot) {
        let _ = (t, snapshot);
    }
}

/// Read-only state inspection, implemented by every engine that
/// supports safe-point suspension (the raw sim engine, the single-chain
/// serving driver, `ChainEngine`, and `FleetEngine` in `respect_serve`).
///
/// The snapshot is an owned, plain-data copy: building it borrows the
/// engine shared, handing it to the probe borrows nothing, so a
/// suspended probe can hold it for as long as its command loop runs.
pub trait EngineInspect {
    /// A plain-data copy of the engine's inspectable state, as of the
    /// most recently dispatched event.
    fn snapshot(&self) -> EngineSnapshot;
}

/// Which engine produced an [`EngineSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The raw discrete-event simulator ([`crate::sim`]).
    Sim,
    /// The single-chain serving runtime (`respect_serve::serve`).
    Serve,
    /// The fleet runtime (`respect_serve::fleet`).
    Fleet,
}

impl EngineKind {
    /// Lower-case name (`sim` / `serve` / `fleet`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Serve => "serve",
            EngineKind::Fleet => "fleet",
        }
    }
}

/// A read-only, plain-data copy of a running engine's state at a safe
/// point — what the `respect_dbg` `inspect` command renders.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Which engine this is.
    pub kind: EngineKind,
    /// Simulated time of the most recently dispatched event, seconds.
    pub now_s: f64,
    /// Events dispatched so far.
    pub events: u64,
    /// Active-chain prefix (fleet autoscaling); equals `chains.len()`
    /// for sim/serve.
    pub active_chains: usize,
    /// One snapshot per chain, in chain-index order.
    pub chains: Vec<ChainSnapshot>,
}

/// One chain's state within an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSnapshot {
    /// Fleet chain index (0 for sim/serve).
    pub chain: u16,
    /// Whether the chain is in the fleet's powered prefix (always
    /// `true` for sim/serve).
    pub powered: bool,
    /// Admitted-minus-completed requests on this chain.
    pub backlog: usize,
    /// Little's-law backlog drain estimate, seconds (0 for sim).
    pub drain_estimate_s: f64,
    /// Device-busy seconds integrated so far (0 for sim).
    pub busy_s: f64,
    /// Shared-bus state, when the run contends a bus.
    pub bus: Option<BusSnapshot>,
    /// Per-device occupancy, in chain position order.
    pub devices: Vec<DeviceSnapshot>,
    /// Per-tenant state, in input order.
    pub tenants: Vec<TenantSnapshot>,
}

/// One device's occupancy within a [`ChainSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// Whether a job currently holds the device.
    pub busy: bool,
    /// Jobs queued behind the current hold.
    pub queued: usize,
}

/// Shared-bus occupancy within a [`ChainSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusSnapshot {
    /// Whether a transfer currently holds the bus.
    pub busy: bool,
    /// Transfers queued behind the current hold.
    pub queued: usize,
    /// Bus-busy seconds integrated so far.
    pub busy_s: f64,
}

/// One tenant's state on one chain within a [`ChainSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant (workload) index.
    pub tenant: u32,
    /// Requests admitted to this chain so far.
    pub admitted: usize,
    /// Admitted requests whose job has completed.
    pub completed: usize,
    /// Request ids waiting in the open (unclosed) dynamic batch, in
    /// admission order. Always empty for sim, which has no batcher.
    pub open_batch: Vec<u32>,
    /// Requests not yet in service: open batch plus jobs queued before
    /// stage 0 (for sim: admitted-but-uncompleted requests).
    pub waiting: usize,
    /// Jobs currently in flight through the device chain.
    pub in_flight_jobs: usize,
    /// Pipeline hot-swaps applied so far.
    pub swaps: usize,
    /// Jobs observed by the current drift window (0 when the tenant
    /// has no repartitioner).
    pub drift_window_jobs: usize,
    /// Per-stage busy seconds accumulated by the current drift window.
    pub drift_busy_s: Vec<f64>,
}

/// The default probe: observes nothing, costs nothing.
///
/// `ENABLED = false` turns every guarded emission site into dead code,
/// so engines instantiated with `NullProbe` are the uninstrumented
/// engines — asserted bitwise by the equivalence tests and by the
/// `obs` throughput bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _t: f64, _ev: &ProbeEvent) {}
}

impl<P: Probe> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;
    const INSPECT: bool = P::INSPECT;

    #[inline]
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        (**self).record(t, ev);
    }

    #[inline]
    fn wants_inspect(&self) -> bool {
        (**self).wants_inspect()
    }

    #[inline]
    fn inspect(&mut self, t: f64, snapshot: &EngineSnapshot) {
        (**self).inspect(t, snapshot);
    }
}

/// Fan-out: both probes observe every event, in tuple order.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const INSPECT: bool = A::INSPECT || B::INSPECT;

    #[inline]
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        if A::ENABLED {
            self.0.record(t, ev);
        }
        if B::ENABLED {
            self.1.record(t, ev);
        }
    }

    #[inline]
    fn wants_inspect(&self) -> bool {
        (A::INSPECT && self.0.wants_inspect()) || (B::INSPECT && self.1.wants_inspect())
    }

    #[inline]
    fn inspect(&mut self, t: f64, snapshot: &EngineSnapshot) {
        if A::INSPECT {
            self.0.inspect(t, snapshot);
        }
        if B::INSPECT {
            self.1.inspect(t, snapshot);
        }
    }
}

/// One busy interval of one resource: a [`ProbeEvent::Release`] and
/// the hold start it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpan {
    /// Fleet chain index (0 for sim/serve).
    pub chain: u16,
    /// The resource that was held.
    pub resource: ResourceId,
    /// Tenant holding it.
    pub tenant: u32,
    /// Request the hold carries (a batch's first member).
    pub request: u32,
    /// Pipeline stage the hold belongs to.
    pub stage: u16,
    /// Hold start, seconds.
    pub start_s: f64,
    /// Hold end, seconds.
    pub end_s: f64,
}

impl TraceSpan {
    /// The hold that a [`ProbeEvent::Release`] at `t` ends; `None` for
    /// every other event.
    #[must_use]
    pub fn of_release(t: f64, ev: &ProbeEvent) -> Option<TraceSpan> {
        match *ev {
            ProbeEvent::Release {
                chain,
                resource,
                tenant,
                request,
                stage,
                since_s,
            } => Some(TraceSpan {
                chain,
                resource,
                tenant,
                request,
                stage,
                start_s: since_s,
                end_s: t,
            }),
            _ => None,
        }
    }
}

/// A probe that collects every resource hold as a [`TraceSpan`], in
/// release order, for `sim`, `serve` and `serve_fleet` runs alike.
#[derive(Debug, Clone, Default)]
pub struct SpanProbe {
    spans: Vec<TraceSpan>,
}

impl SpanProbe {
    /// A probe with no spans.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans closed so far, in release order.
    #[must_use]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }
}

impl Probe for SpanProbe {
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        self.spans.extend(TraceSpan::of_release(t, ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_fanout_composes() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(!<(NullProbe, NullProbe)>::ENABLED) };
        #[derive(Default)]
        struct Count(u64);
        impl Probe for Count {
            fn record(&mut self, _t: f64, _ev: &ProbeEvent) {
                self.0 += 1;
            }
        }
        const { assert!(<(NullProbe, Count)>::ENABLED) };
        let mut pair = (Count::default(), NullProbe);
        let ev = ProbeEvent::Arrival {
            chain: 0,
            tenant: 1,
            request: 2,
        };
        pair.record(0.0, &ev);
        pair.record(1.0, &ev);
        assert_eq!(pair.0 .0, 2);
        // through the &mut combinator explicitly
        let mut by_ref = &mut pair;
        Probe::record(&mut by_ref, 2.0, &ev);
        assert_eq!(pair.0 .0, 3);
    }
}
