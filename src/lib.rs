//! # respect
//!
//! Facade crate for the RESPECT reproduction workspace. Provides the
//! unified deployment API and re-exports the six member crates so
//! downstream users (and the `examples/` and `tests/` directories of
//! this repository) can depend on a single crate.
//!
//! * [`deploy`] — the fluent [`deploy::Deployment`] API: resolve a
//!   partitioner by name, schedule and compile as one chained
//!   expression, then hand the pipeline to any engine.
//! * [`Error`] — the workspace-wide error type every subsystem error
//!   converts into.
//! * [`graph`] — DAG substrate, synthetic sampler, ImageNet model zoo.
//! * [`nn`] — tape-based autodiff, LSTM, pointer attention, Adam.
//! * [`sched`] — schedules, packing DP, heuristic and exact schedulers,
//!   and the [`sched::registry`] resolving each by stable name.
//! * [`tpu`] — pipelined Coral Edge TPU system simulator and compiler.
//! * [`serve`] — SLO-aware online serving runtime (dynamic batching,
//!   admission control, live re-partitioning) over the simulator.
//! * [`obs`] — recorders for the zero-cost probe layer: deterministic
//!   metrics, Chrome-trace export, bounded flight recorder.
//! * [`core`] — the paper's contribution: the RL scheduling framework.
//!
//! ## Quickstart
//!
//! The whole paper pipeline — partition a DNN DAG onto an `n`-stage
//! Edge TPU chain, compile, simulate — is one chained expression:
//!
//! ```
//! use respect::deploy::Deployment;
//! use respect::graph::models;
//! use respect::tpu::DeviceSpec;
//!
//! # fn main() -> Result<(), respect::Error> {
//! let dag = models::resnet50();
//! let deployment = Deployment::of(&dag)
//!     .stages(4)
//!     .device(DeviceSpec::coral())
//!     .partitioner("exact")
//!     .build()?;
//! let report = deployment.simulate(1_000)?;
//! assert!(report.throughput_ips > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Swap `.partitioner("exact")` for any [`deploy::registry_names`]
//! entry — `"param-balanced"`, `"op-balanced"`, `"greedy"`, `"anneal"`,
//! `"ilp"`, `"brute"`, `"hu"`, `"force"`, `"profiling"`, or
//! `"respect"`, the paper's RL scheduler. To deploy with your own
//! trained policy, inject it:
//!
//! ```
//! use respect::core::{RespectScheduler, TrainConfig};
//! use respect::deploy::Deployment;
//! use respect::graph::models;
//!
//! # fn main() -> Result<(), respect::Error> {
//! let policy = respect::core::train_policy(&TrainConfig::smoke_test())?;
//! let deployment = Deployment::of(&models::resnet50())
//!     .stages(4)
//!     .scheduler(Box::new(RespectScheduler::new(policy)))
//!     .build()?;
//! assert!(deployment.schedule().is_valid(&models::resnet50()));
//! # Ok(())
//! # }
//! ```
//!
//! The member-crate APIs remain public and unchanged; the facade is
//! additive and bitwise-equivalent to hand-wiring them (see [`deploy`]).
//! The engines (`tpu::sim::run`, `serve::serve`, `serve::serve_fleet`)
//! take a deployment's tenants and device directly.

pub mod deploy;
mod error;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use deploy::Deployment;
pub use error::Error;

pub use respect_core as core;
pub use respect_graph as graph;
pub use respect_nn as nn;
pub use respect_obs as obs;
pub use respect_sched as sched;
pub use respect_serve as serve;
pub use respect_tpu as tpu;
