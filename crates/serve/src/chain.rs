//! The per-chain serving engine: one device chain's queues, batcher,
//! admission, drift/repartition bookkeeping, and resource semantics,
//! extracted from the single-chain runtime so a *fleet* of chains can
//! share one deterministic event loop.
//!
//! A [`ChainEngine`] owns everything that used to assume "the chain is
//! the world": the devices and the (optional) shared USB bus — the
//! [`respect_tpu::chain`] core that `respect_tpu::sim` drives too —
//! plus per-tenant open batches, in-flight job slabs, timing caches,
//! and drift windows. A job on the core is one closed batch: its slot
//! is the job-slab key. What the engine does *not* own is the clock,
//! the pending-event set, or per-request bookkeeping (arrival/completion
//! times, admitted order) — those belong to a **driver**: the
//! single-chain driver in [`crate::runtime`] and the fleet driver in
//! [`crate::fleet`] both run the same engine, which is what makes the
//! "1-chain fleet ≡ `serve`" differential pin meaningful.
//!
//! Events are packed (`u32`/`u16` payloads) and tagged with the chain
//! index, so fleet event dispatch stays allocation-free: the driver pops
//! `Event::Chain { c, k }` and hands `k` to engine `c`.

use std::rc::Rc;

use respect_sched::repartition;
use respect_tpu::chain::{Chain, Finished, JobId, JobTable, StageEvent, StageTiming};
use respect_tpu::compile::{self, CompiledPipeline};
use respect_tpu::device::DeviceSpec;
use respect_tpu::event_queue::EventQueue;
use respect_tpu::mem::{InlineVec, Slab};
use respect_tpu::probe::{
    ChainSnapshot, EngineInspect, EngineKind, EngineSnapshot, Probe, ProbeEvent, ShedReason,
    TenantSnapshot,
};
use respect_tpu::sim::{self, ArrivalSampler};

use crate::drift::{DriftWindow, Repartitioner};
use crate::runtime::{AdmissionPolicy, ServeTenant, SwapRecord};

/// One pending event of a serving run (single-chain or fleet). Ordered
/// by `(time, insertion sequence)` in the driver's [`EventQueue`]; the
/// payload layout never affects pop order, so the packed form here is
/// free to differ from the raw engine's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Request `r` of tenant `w` arrives (driver-level: routing and
    /// per-request bookkeeping happen before any chain is involved).
    Arrive { w: u32, r: u32 },
    /// Chain `c` must handle `k`.
    Chain { c: u16, k: ChainEvent },
}

// with its `f64` time, this payload fills a 24-byte calendar entry
const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl From<(u16, StageEvent)> for Event {
    #[inline]
    fn from((c, ev): (u16, StageEvent)) -> Self {
        Event::Chain {
            c,
            k: ChainEvent::Stage(ev),
        }
    }
}

/// A chain-local event, without the chain tag.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainEvent {
    /// The open batch of tenant `w` hit its linger deadline.
    FlushBatch { w: u32, epoch: u32 },
    /// A stage event of the device/bus core.
    Stage(StageEvent),
}

pub(crate) fn base_holds(pipeline: &CompiledPipeline, spec: &DeviceSpec, batch: usize) -> Vec<f64> {
    pipeline
        .segments
        .iter()
        .map(|seg| sim::batch_service_time(seg, spec, batch))
        .collect()
}

/// One dynamic batch in flight. Lives in the tenant's job [`Slab`]
/// from batch close to last-stage completion; its slot (and the member
/// list's inline storage) is then recycled, so in-flight state costs
/// no steady-state allocation.
#[derive(Debug)]
struct Job {
    members: InlineVec<u32, 8>,
    /// Per-stage timings, shared with the tenant's cache: jobs carrying
    /// the same member count under the same pipeline reuse one
    /// computation (invalidated on hot-swap; in-flight jobs keep the
    /// snapshot they were formed under).
    timing: Rc<[StageTiming]>,
}

/// Per-tenant mutable state *on one chain*. Request-level bookkeeping
/// (arrival/completion times, admitted order) lives in the driver's
/// [`TenantRecords`]; the chain keeps the integer counters the
/// admission arithmetic needs so the math is bit-identical to the
/// pre-refactor single-chain engine.
struct ChainTenant {
    pipeline: CompiledPipeline,
    /// Single-request per-stage holds of the *current* pipeline — the
    /// admission controller's service-time estimator.
    base_hold_s: Vec<f64>,
    bottleneck_hold_s: f64,
    /// Requests admitted to this chain.
    admitted: usize,
    /// Admitted requests whose job has completed.
    done_requests: usize,
    /// Requests accumulated in the open batch.
    open: Vec<u32>,
    /// Increments when a batch closes; stale flush timers compare
    /// epochs and expire silently.
    open_epoch: u32,
    /// Requests inside jobs queued before stage 0 (not yet in
    /// service).
    waiting_stage0: usize,
    /// In-flight jobs; slots recycle after the last stage completes.
    jobs: Slab<Job>,
    /// Jobs closed over the whole run (the slab only holds live ones).
    jobs_executed: usize,
    /// Memoized per-stage job timings keyed by job member count, for
    /// the current pipeline. Invalidated on hot-swap.
    timing_cache: Vec<Option<Rc<[StageTiming]>>>,
    /// Reusable buffer for per-stage holds handed to the drift window.
    scratch_holds: Vec<f64>,
    window: DriftWindow,
    /// Re-partition evaluations that ran the refiner (bounded by
    /// `DriftPolicy::max_swaps` whether or not they swapped).
    repartition_attempts: usize,
    swaps: Vec<SwapRecord>,
    /// Device-busy seconds attributed to this tenant (energy).
    busy_s: f64,
}

impl ChainTenant {
    fn waiting(&self) -> usize {
        self.open.len() + self.waiting_stage0
    }
}

/// The chain's job store, as the resource core reads it.
struct Jobs<'s>(&'s [ChainTenant]);

impl JobTable for Jobs<'_> {
    #[inline]
    fn timing(&self, job: JobId, k: usize) -> &StageTiming {
        &self.0[job.tenant as usize].jobs[job.slot as usize].timing[k]
    }

    /// A job's representative request (its first member).
    #[inline]
    fn request(&self, job: JobId) -> u32 {
        let members = &self.0[job.tenant as usize].jobs[job.slot as usize].members;
        members.as_slice().first().copied().unwrap_or(0)
    }
}

/// Driver-level per-tenant request bookkeeping, shared by the
/// single-chain and fleet drivers.
pub(crate) struct TenantRecords {
    pub(crate) sampler: ArrivalSampler,
    pub(crate) arrivals_at: Vec<f64>,
    pub(crate) completed_at: Vec<f64>,
    /// Admitted request indices, in arrival order.
    pub(crate) admitted: Vec<u32>,
    pub(crate) shed: usize,
}

impl TenantRecords {
    pub(crate) fn new(t: &ServeTenant) -> Self {
        TenantRecords {
            sampler: ArrivalSampler::new(t.arrivals)
                .expect("tenant arrivals validated before the engine starts"),
            arrivals_at: vec![0.0; t.requests],
            completed_at: vec![0.0; t.requests],
            admitted: Vec::with_capacity(t.requests),
            shed: 0,
        }
    }
}

/// One device chain's serving engine. See the module docs for the
/// engine/driver split.
pub(crate) struct ChainEngine<'a> {
    /// This chain's index in the fleet (tag on every pushed event).
    c: u16,
    tenants: &'a [ServeTenant],
    spec: DeviceSpec,
    core: Chain,
    states: Vec<ChainTenant>,
    /// `(w, r)` pairs completed by the most recent events; the driver
    /// drains this after every handled event (reused, never grows
    /// beyond the largest single-event completion burst).
    pub(crate) completed: Vec<(u32, u32)>,
    /// Admitted-minus-completed requests across all tenants — the
    /// backlog a fleet router load-balances on.
    in_system: usize,
    /// Total device-busy seconds on this chain (energy integrator).
    busy_s: f64,
}

impl<'a> ChainEngine<'a> {
    pub(crate) fn new(
        tenants: &'a [ServeTenant],
        spec: DeviceSpec,
        contended_bus: bool,
        c: u16,
    ) -> Self {
        let chain = tenants
            .iter()
            .map(|t| t.pipeline.segments.len())
            .max()
            .unwrap_or(0);
        let states = tenants
            .iter()
            .map(|t| {
                let base = base_holds(&t.pipeline, &spec, t.batch);
                let bottleneck = base.iter().copied().fold(0.0, f64::max);
                ChainTenant {
                    pipeline: t.pipeline.clone(),
                    bottleneck_hold_s: bottleneck,
                    admitted: 0,
                    done_requests: 0,
                    open: Vec::new(),
                    open_epoch: 0,
                    waiting_stage0: 0,
                    jobs: Slab::new(),
                    jobs_executed: 0,
                    timing_cache: Vec::new(),
                    scratch_holds: Vec::new(),
                    window: DriftWindow::new(base.len()),
                    repartition_attempts: 0,
                    swaps: Vec::new(),
                    busy_s: 0.0,
                    base_hold_s: base,
                }
            })
            .collect();
        ChainEngine {
            c,
            tenants,
            spec,
            core: Chain::new(c, chain, contended_bus),
            states,
            completed: Vec::new(),
            in_system: 0,
            busy_s: 0.0,
        }
    }

    fn chain_event(&self, k: ChainEvent) -> Event {
        Event::Chain { c: self.c, k }
    }

    /// Offers request `r` of tenant `w` to this chain: the chain's
    /// admission policy decides, an admitted request joins the open
    /// batch (possibly closing it into a job). Returns whether the
    /// request was admitted — the driver records shed/admitted order.
    pub(crate) fn offer<P: Probe>(
        &mut self,
        w: usize,
        r: u32,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) -> bool {
        let st = &mut self.states[w];
        let admit = match self.tenants[w].admission {
            AdmissionPolicy::Open => true,
            AdmissionPolicy::QueueBound { max_waiting } => st.waiting() < max_waiting,
            AdmissionPolicy::SloDelay { target_s } => {
                let in_system = st.admitted - st.done_requests;
                in_system as f64 * st.bottleneck_hold_s <= target_s
            }
        };
        if !admit {
            if P::ENABLED {
                let reason = match self.tenants[w].admission {
                    AdmissionPolicy::QueueBound { .. } => ShedReason::QueueBound,
                    _ => ShedReason::SloDelay,
                };
                p.record(
                    t,
                    &ProbeEvent::Shed {
                        chain: self.c,
                        tenant: w as u32,
                        request: r,
                        reason,
                    },
                );
            }
            return false;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Admit {
                    chain: self.c,
                    tenant: w as u32,
                    request: r,
                },
            );
        }
        st.admitted += 1;
        self.in_system += 1;
        st.open.push(r);
        if P::ENABLED && st.open.len() == 1 {
            p.record(
                t,
                &ProbeEvent::BatchOpen {
                    chain: self.c,
                    tenant: w as u32,
                },
            );
        }
        let policy = self.tenants[w].batcher;
        if st.open.len() >= policy.max_batch || policy.max_delay_s == 0.0 {
            self.close_batch(w, t, q, p);
        } else if st.open.len() == 1 {
            let epoch = st.open_epoch;
            let ev = self.chain_event(ChainEvent::FlushBatch { w: w as u32, epoch });
            q.push(t + policy.max_delay_s, ev);
        }
        true
    }

    /// Whether a flush timer is stale (its batch already closed by
    /// size, or nothing is open). The driver checks this *before*
    /// advancing the clock, so makespan and the event count reflect
    /// only work the system performed.
    pub(crate) fn flush_stale(&self, w: usize, epoch: u32) -> bool {
        self.states[w].open_epoch != epoch || self.states[w].open.is_empty()
    }

    pub(crate) fn handle<P: Probe>(
        &mut self,
        kind: ChainEvent,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        match kind {
            ChainEvent::FlushBatch { w, .. } => self.close_batch(w as usize, t, q, p),
            ChainEvent::Stage(ev) => {
                if let Some(done) = self.core.handle(ev, t, &Jobs(&self.states), q, p) {
                    self.finish_stage(done, t, q, p);
                }
            }
        }
    }

    fn close_batch<P: Probe>(
        &mut self,
        w: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        let spec = &self.spec;
        let batch = self.tenants[w].batch;
        let st = &mut self.states[w];
        let count = st.open.len();
        let mut members: InlineVec<u32, 8> = InlineVec::new();
        members.extend(st.open.drain(..));
        st.open_epoch += 1;
        if st.timing_cache.len() <= count {
            st.timing_cache.resize(count + 1, None);
        }
        let timing = match &st.timing_cache[count] {
            Some(cached) => Rc::clone(cached),
            None => {
                let fresh: Rc<[StageTiming]> = st
                    .pipeline
                    .segments
                    .iter()
                    .map(|seg| StageTiming::new(seg, spec, count * batch))
                    .collect();
                st.timing_cache[count] = Some(Rc::clone(&fresh));
                fresh
            }
        };
        st.jobs_executed += 1;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::BatchClose {
                    chain: self.c,
                    tenant: w as u32,
                    size: count as u32,
                },
            );
        }
        let slot = st.jobs.insert(Job { members, timing }) as u32;
        let job = JobId {
            tenant: w as u32,
            slot,
        };
        self.join(job, 0, t, q, p);
    }

    fn join<P: Probe>(
        &mut self,
        job: JobId,
        k: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        if self.core.join(job, k, t, &Jobs(&self.states), q, p) && k == 0 {
            let st = &mut self.states[job.tenant as usize];
            st.waiting_stage0 += st.jobs[job.slot as usize].members.len();
        }
    }

    fn finish_stage<P: Probe>(
        &mut self,
        done: Finished,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        let (w, j) = (done.job.tenant as usize, done.job.slot as usize);
        // busy-time integration for energy: spans never feed back into
        // event times, so the accounting is observation-only
        self.busy_s += done.held_s;
        self.states[w].busy_s += done.held_s;
        if let (0, Some(next)) = (done.k, done.next) {
            let st = &mut self.states[next.tenant as usize];
            st.waiting_stage0 -= st.jobs[next.slot as usize].members.len();
        }
        // in-flight jobs finish on the partition they were formed under
        if done.k + 1 < self.states[w].jobs[j].timing.len() {
            self.join(done.job, done.k + 1, t, q, p);
        } else {
            self.complete_job(w, j, t, p);
        }
    }

    fn complete_job<P: Probe>(&mut self, w: usize, j: usize, t: f64, p: &mut P) {
        let tenants = self.tenants;
        let st = &mut self.states[w];
        let job = st.jobs.remove(j).expect("completing job is live");
        for &r in job.members.as_slice() {
            self.completed.push((w as u32, r));
        }
        let members = job.members.len();
        st.done_requests += members;
        self.in_system -= members;
        // the drift window tracks the current partition's stage count;
        // jobs formed before a swap may be shorter or longer — compare
        // only shape-matching observations
        if job.timing.len() == st.window.busy_s.len() {
            st.scratch_holds.clear();
            st.scratch_holds.extend(job.timing.iter().map(|s| s.hold_s));
            st.window.observe(&st.scratch_holds, members);
        }
        if let Some(rep) = tenants[w].repartitioner.as_ref() {
            if st.window.jobs >= rep.policy.window_jobs {
                self.evaluate_drift(w, t, rep, p);
            }
        }
    }

    fn evaluate_drift<P: Probe>(&mut self, w: usize, t: f64, rep: &Repartitioner, p: &mut P) {
        let spec = &self.spec;
        let batch = self.tenants[w].batch;
        let c = self.c;
        let st = &mut self.states[w];
        // A well-partitioned pipeline spends equal busy time per stage
        // (the objective is the bottleneck); measured skew against that
        // balanced ideal is capacity left on the table. The compiled
        // schedule's own belief is enforced downstream: if no better
        // partition exists the refiner returns no gain and no swap
        // happens (min_gain gate).
        let uniform = vec![1.0; st.window.busy_s.len()];
        let divergence = st.window.divergence(&uniform);
        st.window.reset();
        if divergence <= rep.policy.threshold {
            return;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::DriftTrigger {
                    chain: c,
                    tenant: w as u32,
                    divergence,
                },
            );
        }
        if st.repartition_attempts >= rep.policy.max_swaps {
            return;
        }
        st.repartition_attempts += 1;
        let from_obj = rep.model.objective(&rep.dag, &st.pipeline.schedule);
        let out = repartition::refine_with(
            &rep.dag,
            rep.model,
            &st.pipeline.schedule,
            rep.policy.passes,
            &mut |pass: usize, moves_in_pass: usize, objective: f64| {
                if P::ENABLED {
                    p.record(
                        t,
                        &ProbeEvent::RepartitionPass {
                            chain: c,
                            tenant: w as u32,
                            pass: pass as u32,
                            moves: moves_in_pass as u32,
                            objective_s: objective,
                        },
                    );
                }
            },
        );
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::RepartitionProposal {
                    chain: c,
                    tenant: w as u32,
                    from_objective_s: from_obj,
                    to_objective_s: out.objective,
                    moves: out.moves as u32,
                },
            );
        }
        if out.objective >= from_obj * (1.0 - rep.policy.min_gain) {
            if P::ENABLED {
                p.record(
                    t,
                    &ProbeEvent::RepartitionReject {
                        chain: c,
                        tenant: w as u32,
                    },
                );
            }
            return;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::RepartitionAccept {
                    chain: c,
                    tenant: w as u32,
                },
            );
        }
        let new_pipeline = compile::compile(&rep.dag, &out.schedule, spec)
            .expect("refined schedule stays valid for the tenant's dag");
        debug_assert_eq!(
            new_pipeline.segments.len(),
            st.pipeline.segments.len(),
            "refinement preserves the stage count"
        );
        st.pipeline = new_pipeline;
        st.base_hold_s = base_holds(&st.pipeline, spec, batch);
        st.bottleneck_hold_s = st.base_hold_s.iter().copied().fold(0.0, f64::max);
        st.window = DriftWindow::new(st.base_hold_s.len());
        // memoized timings describe the swapped-out pipeline; in-flight
        // jobs keep their own Rc snapshot, new jobs must recompute
        st.timing_cache.clear();
        st.swaps.push(SwapRecord {
            at_s: t,
            from_objective: from_obj,
            to_objective: out.objective,
            moves: out.moves,
        });
    }

    // ---- driver-facing accessors -------------------------------------

    /// Admitted-minus-completed requests across all tenants: what a
    /// backlog-sensitive router compares between chains.
    pub(crate) fn backlog(&self) -> usize {
        self.in_system
    }

    /// Little's-law estimate of the time this chain needs to drain its
    /// current backlog: Σ over tenants of in-system requests × that
    /// tenant's bottleneck service time. The fleet autoscaler compares
    /// this against its scale-up/-down thresholds.
    pub(crate) fn drain_estimate_s(&self) -> f64 {
        self.states
            .iter()
            .map(|st| (st.admitted - st.done_requests) as f64 * st.bottleneck_hold_s)
            .sum()
    }

    pub(crate) fn jobs_executed(&self, w: usize) -> usize {
        self.states[w].jobs_executed
    }

    pub(crate) fn admitted(&self, w: usize) -> usize {
        self.states[w].admitted
    }

    pub(crate) fn swaps(&self, w: usize) -> &[SwapRecord] {
        &self.states[w].swaps
    }

    pub(crate) fn tenant_busy_s(&self, w: usize) -> f64 {
        self.states[w].busy_s
    }

    pub(crate) fn busy_s(&self) -> f64 {
        self.busy_s
    }

    pub(crate) fn bus_busy_s(&self) -> f64 {
        self.core.bus_busy_s()
    }

    pub(crate) fn device_count(&self) -> usize {
        self.core.device_count()
    }

    pub(crate) fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Read-only copy of this chain's occupancy and per-tenant state,
    /// for debugger safe-point inspection. `powered` is the fleet's
    /// active-prefix membership (always `true` single-chain).
    pub(crate) fn chain_snapshot(&self, powered: bool) -> ChainSnapshot {
        ChainSnapshot {
            chain: self.c,
            powered,
            backlog: self.in_system,
            drain_estimate_s: self.drain_estimate_s(),
            busy_s: self.busy_s,
            bus: self.core.bus_snapshot(),
            devices: self.core.device_snapshots(),
            tenants: self
                .states
                .iter()
                .enumerate()
                .map(|(w, st)| TenantSnapshot {
                    tenant: w as u32,
                    admitted: st.admitted,
                    completed: st.done_requests,
                    open_batch: st.open.clone(),
                    waiting: st.waiting(),
                    in_flight_jobs: st.jobs.len(),
                    swaps: st.swaps.len(),
                    drift_window_jobs: st.window.jobs,
                    drift_busy_s: st.window.busy_s.clone(),
                })
                .collect(),
        }
    }
}

impl EngineInspect for ChainEngine<'_> {
    /// One chain viewed as a whole engine (the single-chain runtime's
    /// snapshot delegates here). The driver owns the clock and event
    /// count, so they read 0 from a bare chain.
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            kind: EngineKind::Serve,
            now_s: 0.0,
            events: 0,
            active_chains: 1,
            chains: vec![self.chain_snapshot(true)],
        }
    }
}
