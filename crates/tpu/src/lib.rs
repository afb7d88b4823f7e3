//! Pipelined Coral Edge TPU system simulator.
//!
//! The paper evaluates on a physical host driving 4–6 Coral USB Edge TPUs
//! over USB 3.0 (its Fig. 2). That hardware and Google's closed-source
//! compiler are replaced here by a simulator that models exactly the
//! effects the paper's schedulers optimize:
//!
//! * [`device`] — the Coral device: 8 MiB on-chip parameter cache,
//!   4 TOPS int8 compute, USB 3.0 link characteristics;
//! * [`usb`] — bulk-transfer timing over the host/daisy-chain links;
//! * [`caching`] — on-/off-chip parameter placement per pipeline stage
//!   (the Fig. 5 "parameter caching" metric);
//! * [`compile`] — the Edge TPU compiler emulation: weight
//!   materialization, a real int8 quantization pass, binary layout, and
//!   the operator-count-balancing partitioner (its wall-clock stands in
//!   for the commercial compiler's solving time in Fig. 3);
//! * [`chain`] — the device/bus core every engine drives: per-device
//!   FIFO servers, an optionally shared host USB bus with FIFO
//!   contention, and the stage walk over them;
//! * [`sim`] — the deterministic discrete-event engine over that core:
//!   open/closed-loop arrivals, batching, and multi-tenant co-residency;
//! * [`event_queue`] — the pending-event set behind the engine:
//!   [`CalendarQueue`], a sorted front run ahead of a calendar ring,
//!   behind the [`EventQueue`] trait, differential-tested against a
//!   binary-heap reference to pop identical `(time, seq)` sequences;
//! * [`probe`] — zero-cost observability hooks: the [`Probe`] trait and
//!   typed [`ProbeEvent`]s emitted by this engine and every serving
//!   layer above it, compiled away under the default [`NullProbe`], and
//!   the [`probe::SpanProbe`] that collects resource holds as spans
//!   (each `Release` carries its hold's start);
//! * [`exec`] — pipelined inference streams on top of [`sim`] (the
//!   Fig. 4 on-chip runtime metric), plus the closed-form analytic
//!   oracle the engine is differentially tested against;
//! * [`energy`] — per-inference energy of the multi-TPU system.
//!
//! # Example
//!
//! ```
//! use respect_graph::models;
//! use respect_sched::{balanced::ParamBalanced, Scheduler};
//! use respect_tpu::{compile, device::DeviceSpec, exec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dag = models::resnet50();
//! let schedule = ParamBalanced::new().schedule(&dag, 4)?;
//! let spec = DeviceSpec::coral();
//! let pipeline = compile::compile(&dag, &schedule, &spec)?;
//! let report = exec::simulate(&pipeline, &spec, 1000)?;
//! assert!(report.throughput_ips > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod caching;
pub mod chain;
pub mod compile;
pub mod device;
pub mod energy;
pub mod event_queue;
pub mod exec;
pub mod probe;
pub mod profiling;
pub mod sim;
pub mod usb;

pub use compile::{CompiledPipeline, EdgeTpuCompiler, Segment};
pub use device::DeviceSpec;
pub use event_queue::{CalendarQueue, EventQueue};
pub use exec::InferenceReport;
pub use probe::{NullProbe, Probe, ProbeEvent, ShedReason};
pub use sim::{
    ArrivalSampler, Arrivals, CompletionRecord, SimConfig, SimError, SimReport, TenantReport,
    Workload,
};
