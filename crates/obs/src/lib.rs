//! Recorders for the zero-cost probe layer.
//!
//! [`respect_tpu::probe`] defines the contract: every engine in the
//! stack (the raw simulator, the single-chain serving runtime, the
//! fleet) takes a [`Probe`] and emits typed [`ProbeEvent`]s at each
//! decision point. This crate supplies the probes that do something
//! useful with the stream:
//!
//! * [`MetricsRecorder`] — deterministic counters, busy-time gauges,
//!   and a mergeable latency histogram, snapshotted into a
//!   stable-ordered [`MetricsSnapshot`] with Prometheus-style text and
//!   TSV expositions;
//! * [`ChromeTraceRecorder`] — Chrome `trace_event` JSON (one process
//!   per chain, one thread per resource, one complete-event span per
//!   release, which carries its hold's start), loadable in Perfetto or
//!   `chrome://tracing`;
//! * [`FlightRecorder`] — a bounded ring of the last N events, for
//!   post-mortem dumps when an assertion or scenario fails.
//!
//! Probes compose by tuple: `(&mut metrics, &mut trace)` observes with
//! both. Every recorder is deterministic — identical runs produce
//! byte-identical expositions — so snapshots can be golden-pinned.
//!
//! # Example
//!
//! ```
//! use respect_graph::models;
//! use respect_obs::MetricsRecorder;
//! use respect_sched::{balanced::ParamBalanced, Scheduler};
//! use respect_serve::{serve_probed, ServeConfig, ServeTenant};
//! use respect_tpu::{compile, DeviceSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dag = models::resnet50();
//! let spec = DeviceSpec::coral();
//! let schedule = ParamBalanced::new().schedule(&dag, 4)?;
//! let pipeline = compile::compile(&dag, &schedule, &spec)?;
//!
//! let mut metrics = MetricsRecorder::new();
//! let tenant = ServeTenant::new(pipeline, 50);
//! serve_probed(&[tenant], &spec, &ServeConfig::uncontended(), &mut metrics)?;
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("arrivals"), Some(50));
//! assert_eq!(snap.counter("completions"), Some(50));
//! # Ok(())
//! # }
//! ```

pub mod flight;
pub mod metrics;
pub mod render;
pub mod trace;

pub use flight::FlightRecorder;
pub use metrics::{MetricsRecorder, MetricsSnapshot};
pub use respect_tpu::probe::{NullProbe, Probe, ProbeEvent, ShedReason};
pub use trace::ChromeTraceRecorder;
