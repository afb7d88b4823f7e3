//! The device/bus core of every discrete-event engine in the workspace.
//!
//! One [`Chain`] is one device chain: a single-server FIFO per pipeline
//! position and, when the bus is contended, one host USB bus served in
//! FIFO order. A stage hold on the uncontended path is one atomic event
//! ([`StageTiming::hold_s`]). On the contended path it walks host
//! dispatch, then the input transfer, compute, the parameter stream and
//! the output transfer; each transfer queues for the bus, and a
//! zero-length transfer skips the bus (`usb::transfer_time(_, 0) == 0`).
//!
//! The core owns the devices, the bus and that walk. What a *job* is
//! belongs to the driver: [`crate::sim`] runs one request per job, and
//! the serving runtime in `respect_serve` runs one dynamic batch per
//! job. A driver keeps its clock, its pending-event set and its job
//! store. It answers the core's [`JobTable`] lookups, carries the
//! [`StageEvent`]s the core schedules inside its own event type (via
//! `From<(u16, StageEvent)>`), and decides what each [`Finished`] stage
//! does next: join the next device, or complete. Because both engines
//! run this one walk, "degenerate serve ≡ `sim::run`" holds by
//! construction.

use crate::compile::Segment;
use crate::device::DeviceSpec;
use crate::event_queue::EventQueue;
use crate::mem::SmallQueue;
use crate::probe::{BusSnapshot, DeviceSnapshot, Probe, ProbeEvent};
use crate::sim::ResourceId;
use crate::usb;

/// Per-stage timings of one job, batch-scaled once up front.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTiming {
    /// Atomic hold for the uncontended path: exactly
    /// `host + usb(in) + compute + usb(stream) + usb(out)`, added in that
    /// order (bitwise-identical to the analytic recurrence for one
    /// inference).
    pub hold_s: f64,
    host_s: f64,
    input_s: f64,
    compute_s: f64,
    stream_s: f64,
    output_s: f64,
}

impl StageTiming {
    /// Timings of `seg` carrying `inferences` inferences on `spec`: the
    /// fixed host and USB overheads once, compute and payloads scaled.
    #[must_use]
    pub fn new(seg: &Segment, spec: &DeviceSpec, inferences: usize) -> Self {
        let b = inferences as u64;
        let host_s = spec.host_overhead_s;
        let input_s = usb::transfer_time(spec, seg.input_bytes * b);
        let compute_s = spec.compute_time(seg.macs * b);
        let stream_s = usb::transfer_time(spec, seg.streamed_bytes * b);
        let output_s = usb::transfer_time(spec, seg.output_bytes * b);
        StageTiming {
            hold_s: host_s + input_s + compute_s + stream_s + output_s,
            host_s,
            input_s,
            compute_s,
            stream_s,
            output_s,
        }
    }

    #[inline]
    fn transfer_s(&self, phase: BusPhase) -> f64 {
        match phase {
            BusPhase::Input => self.input_s,
            BusPhase::Stream => self.stream_s,
            BusPhase::Output => self.output_s,
        }
    }
}

/// A job on the chain: its tenant and a slot the driver assigns (the
/// request index in `sim`, the job-slab key in `respect_serve`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobId {
    /// Tenant (workload) index.
    pub tenant: u32,
    /// The driver's name for the job within its tenant.
    pub slot: u32,
}

/// The driver's job store, as the core reads it.
pub trait JobTable {
    /// Timings of `job`'s stage `k`.
    fn timing(&self, job: JobId, k: usize) -> &StageTiming;

    /// The request id that `job`'s acquire/release probe events carry.
    fn request(&self, job: JobId) -> u32;
}

/// Which transfer of a stage a bus hold carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BusPhase {
    #[default]
    Input,
    Stream,
    Output,
}

/// What elapsed when a [`StageEvent`] fires.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The whole uncontended stage hold.
    Hold,
    /// Host dispatch (contended path).
    Host,
    /// Compute (contended path).
    Compute,
    /// A bus hold (contended path).
    Bus(BusPhase),
}

/// A pending event of one job's stage, packed narrow (`u16` stage) so
/// the drivers' event enums stay small. Drivers carry it opaquely and
/// hand it back to [`Chain::handle`] when it fires.
#[derive(Debug, Clone, Copy)]
pub struct StageEvent {
    job: JobId,
    k: u16,
    step: Step,
}

/// A stage whose device hold just ended, handed back to the driver.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// The job that released the device.
    pub job: JobId,
    /// The stage (device position) it finished.
    pub k: usize,
    /// Seconds the job held the device.
    pub held_s: f64,
    /// The queued job that seized the freed device, if any.
    pub next: Option<JobId>,
}

#[derive(Debug, Default)]
struct Device {
    busy: bool,
    seized_at: f64,
    queue: SmallQueue<JobId, 4>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BusRequest {
    job: JobId,
    k: u16,
    phase: BusPhase,
    duration: f64,
}

#[derive(Debug, Default)]
struct Bus {
    busy: bool,
    queue: SmallQueue<BusRequest, 4>,
    busy_s: f64,
}

/// One device chain's resources and the stage walk over them.
#[derive(Debug)]
pub struct Chain {
    /// Chain index: the tag on every event and probe observation.
    c: u16,
    contended_bus: bool,
    devices: Vec<Device>,
    bus: Bus,
}

impl Chain {
    /// Chain `c` of `devices` idle devices. `contended_bus`: all
    /// transfers share one FIFO bus; otherwise every device has a
    /// dedicated link and a stage is one atomic hold.
    #[must_use]
    pub fn new(c: u16, devices: usize, contended_bus: bool) -> Self {
        Chain {
            c,
            contended_bus,
            devices: (0..devices).map(|_| Device::default()).collect(),
            bus: Bus::default(),
        }
    }

    #[inline]
    fn event<E: From<(u16, StageEvent)>>(&self, job: JobId, k: usize, step: Step) -> E {
        E::from((
            self.c,
            StageEvent {
                job,
                k: k as u16,
                step,
            },
        ))
    }

    /// `job` joins device `k`'s FIFO and seizes the device if it is
    /// idle. Returns `true` when the job queued behind a busy device.
    #[inline]
    pub fn join<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        job: JobId,
        k: usize,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) -> bool {
        if self.devices[k].busy {
            self.devices[k].queue.push_back(job);
            true
        } else {
            self.seize(job, k, t, jobs, q, p);
            false
        }
    }

    /// Dispatches one fired stage event at time `t`. Returns the stage
    /// whose device hold ended, if this event ended one.
    #[inline]
    pub fn handle<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        ev: StageEvent,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) -> Option<Finished> {
        let StageEvent { job, k, step } = ev;
        let k = usize::from(k);
        // `phase` is the transfer about to be issued, or the one that
        // just ended when `ended`
        let (mut phase, mut ended) = match step {
            Step::Hold => return Some(self.finish(job, k, t, jobs, q, p)),
            Step::Host => (BusPhase::Input, false),
            Step::Compute => (BusPhase::Stream, false),
            Step::Bus(phase) => {
                self.release_bus(job, k, t, jobs, q, p);
                (phase, true)
            }
        };
        let timing = jobs.timing(job, k);
        loop {
            let duration = timing.transfer_s(phase);
            // a zero-length transfer ends as soon as it is issued
            if !ended && duration != 0.0 {
                let req = BusRequest {
                    job,
                    k: k as u16,
                    phase,
                    duration,
                };
                if self.bus.busy {
                    self.bus.queue.push_back(req);
                } else {
                    self.grant_bus(req, t, jobs, q, p);
                }
                return None;
            }
            phase = match phase {
                BusPhase::Input => {
                    q.push(t + timing.compute_s, self.event(job, k, Step::Compute));
                    return None;
                }
                BusPhase::Stream => BusPhase::Output,
                BusPhase::Output => return Some(self.finish(job, k, t, jobs, q, p)),
            };
            ended = false;
        }
    }

    #[inline]
    fn seize<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        job: JobId,
        k: usize,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) {
        let device = &mut self.devices[k];
        device.busy = true;
        device.seized_at = t;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Acquire {
                    chain: self.c,
                    resource: ResourceId::Device(k),
                    tenant: job.tenant,
                    request: jobs.request(job),
                    stage: k as u16,
                },
            );
        }
        let timing = jobs.timing(job, k);
        if self.contended_bus {
            q.push(t + timing.host_s, self.event(job, k, Step::Host));
        } else {
            q.push(t + timing.hold_s, self.event(job, k, Step::Hold));
        }
    }

    /// Releases device `k` from `job` and hands it to the next queued
    /// job.
    #[inline]
    fn finish<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        job: JobId,
        k: usize,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) -> Finished {
        let device = &mut self.devices[k];
        device.busy = false;
        let held_s = t - device.seized_at;
        let next = device.queue.pop_front();
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Release {
                    chain: self.c,
                    resource: ResourceId::Device(k),
                    tenant: job.tenant,
                    request: jobs.request(job),
                    stage: k as u16,
                },
            );
        }
        if let Some(next) = next {
            self.seize(next, k, t, jobs, q, p);
        }
        Finished {
            job,
            k,
            held_s,
            next,
        }
    }

    #[inline]
    fn grant_bus<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        req: BusRequest,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) {
        self.bus.busy = true;
        self.bus.busy_s += req.duration;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Acquire {
                    chain: self.c,
                    resource: ResourceId::Bus,
                    tenant: req.job.tenant,
                    request: jobs.request(req.job),
                    stage: req.k,
                },
            );
        }
        let k = usize::from(req.k);
        q.push(
            t + req.duration,
            self.event(req.job, k, Step::Bus(req.phase)),
        );
    }

    #[inline]
    fn release_bus<E: From<(u16, StageEvent)>, P: Probe>(
        &mut self,
        job: JobId,
        k: usize,
        t: f64,
        jobs: &impl JobTable,
        q: &mut impl EventQueue<E>,
        p: &mut P,
    ) {
        self.bus.busy = false;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Release {
                    chain: self.c,
                    resource: ResourceId::Bus,
                    tenant: job.tenant,
                    request: jobs.request(job),
                    stage: k as u16,
                },
            );
        }
        if let Some(next) = self.bus.queue.pop_front() {
            self.grant_bus(next, t, jobs, q, p);
        }
    }

    /// Devices on the chain.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Seconds the shared bus has been granted so far (0 when
    /// uncontended).
    #[must_use]
    pub fn bus_busy_s(&self) -> f64 {
        self.bus.busy_s
    }

    /// The bus's occupancy for a debugger snapshot (`None` when
    /// uncontended).
    #[must_use]
    pub fn bus_snapshot(&self) -> Option<BusSnapshot> {
        self.contended_bus.then(|| BusSnapshot {
            busy: self.bus.busy,
            queued: self.bus.queue.len(),
            busy_s: self.bus.busy_s,
        })
    }

    /// Every device's occupancy for a debugger snapshot, in chain order.
    #[must_use]
    pub fn device_snapshots(&self) -> Vec<DeviceSnapshot> {
        self.devices
            .iter()
            .map(|d| DeviceSnapshot {
                busy: d.busy,
                queued: d.queue.len(),
            })
            .collect()
    }
}
