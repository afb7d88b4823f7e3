//! One fluent entry point for the paper's partition → compile flow.
//!
//! The paper's flow — profile a DNN DAG, partition it onto an `n`-stage
//! Edge TPU chain, compile, then execute or serve — used to require
//! hand-wiring four crates. [`Deployment`] chains the first steps:
//!
//! ```
//! use respect::deploy::Deployment;
//! use respect::graph::models;
//! use respect::tpu::DeviceSpec;
//!
//! # fn main() -> Result<(), respect::Error> {
//! let dag = models::xception();
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
//! Partitioners are resolved by name through [`scheduler`] — the
//! `respect_sched` [`registry`] plus `"respect"` (the RL scheduler) and
//! `"profiling"` (the device-aware partitioner). [`registry_names`]
//! enumerates them. A pre-built scheduler can be injected with
//! [`DeploymentBuilder::scheduler`] instead.
//!
//! The facade is additive sugar, not a new engine: it owns what reads
//! the deployment alone, and each piece is **bitwise-identical** to the
//! hand-wired call it replaces (property-tested in
//! `tests/deployment_equivalence.rs`):
//!
//! | facade call | hand-wired equivalent |
//! |---|---|
//! | [`DeploymentBuilder::build`] | `scheduler.schedule(..)` + `compile::compile(..)` |
//! | [`Deployment::simulate`] | `exec::simulate(..)` |
//!
//! The engines take the deployment's pieces directly: a
//! [`Deployment::workload`] goes to `sim::run` with
//! [`Deployment::device`], a [`Deployment::tenant`] to `serve` with the
//! device or to `serve_fleet` with a `FleetConfig` of the caller's own
//! shape, and every engine error converts into [`Error`] with `?`.

use std::sync::OnceLock;
use std::time::Duration;

use respect_core::{train_policy, PtrNetPolicy, RespectScheduler, TrainConfig};
use respect_graph::Dag;
use respect_sched::registry::{self, BuildOptions, RegistryError};
use respect_sched::{CostModel, Schedule, Scheduler};
use respect_serve::{Repartitioner, ServeTenant};
use respect_tpu::device::DeviceSpec;
use respect_tpu::exec::InferenceReport;
use respect_tpu::profiling::ProfilingPartitioner;
use respect_tpu::sim::Workload;
use respect_tpu::{compile, exec, CompiledPipeline};

use crate::Error;

/// Constructs the partitioner named `name` for `spec`: the nine
/// [`registry::NAMES`] builtins plus the two schedulers that live above
/// that crate:
///
/// * `"respect"` — [`RespectScheduler`]: weights from the
///   `RESPECT_POLICY` env var (a `.rspp` path) when set and readable,
///   otherwise a smoke-scale policy trained once per process (seconds,
///   deterministic);
/// * `"profiling"` — [`ProfilingPartitioner`] for `spec`.
///
/// # Errors
///
/// [`RegistryError::UnknownScheduler`], listing [`registry_names`], for
/// any other name.
pub fn scheduler(
    name: &str,
    spec: &DeviceSpec,
    options: &BuildOptions,
) -> Result<Box<dyn Scheduler>, RegistryError> {
    match name {
        "profiling" => Ok(Box::new(ProfilingPartitioner::new(*spec))),
        "respect" => Ok(Box::new(
            RespectScheduler::new(default_policy()).with_cost_model(options.cost_model),
        )),
        _ => registry::build(name, options).map_err(|_| RegistryError::UnknownScheduler {
            name: name.to_string(),
            available: registry_names().into_iter().map(String::from).collect(),
        }),
    }
}

/// Every name [`scheduler`] resolves, sorted: [`registry::NAMES`] plus
/// `"profiling"` and `"respect"`.
pub fn registry_names() -> Vec<&'static str> {
    let mut names = [&registry::NAMES[..], &["profiling", "respect"]].concat();
    names.sort_unstable();
    names
}

/// The `"respect"` entry's policy: `RESPECT_POLICY` weights when
/// available, else a process-cached smoke-trained policy.
fn default_policy() -> PtrNetPolicy {
    static POLICY: OnceLock<PtrNetPolicy> = OnceLock::new();
    POLICY
        .get_or_init(|| {
            if let Ok(path) = std::env::var("RESPECT_POLICY") {
                match respect_core::model_io::load_policy(&path) {
                    Ok(p) => return p,
                    Err(e) => eprintln!("warning: RESPECT_POLICY at {path}: {e}; retraining"),
                }
            }
            train_policy(&TrainConfig::smoke_test()).expect("smoke-scale training is infallible")
        })
        .clone()
}

/// Fluent configuration of a [`Deployment`]. Created by
/// [`Deployment::of`]; consumed by [`DeploymentBuilder::build`].
#[must_use = "call .build() to schedule and compile the deployment"]
pub struct DeploymentBuilder<'a> {
    dag: &'a Dag,
    stages: usize,
    spec: DeviceSpec,
    partitioner: String,
    seed: Option<u64>,
    iterations: Option<usize>,
    time_budget: Option<Duration>,
    scheduler: Option<Box<dyn Scheduler>>,
}

impl<'a> DeploymentBuilder<'a> {
    fn new(dag: &'a Dag) -> Self {
        DeploymentBuilder {
            dag,
            stages: 4,
            spec: DeviceSpec::coral(),
            partitioner: "param-balanced".to_string(),
            seed: None,
            iterations: None,
            time_budget: None,
            scheduler: None,
        }
    }

    /// Sets the pipeline stage count (devices in the chain). Default 4.
    pub fn stages(mut self, stages: usize) -> Self {
        self.stages = stages;
        self
    }

    /// Sets the target device. Default [`DeviceSpec::coral`]. The
    /// device's cost model drives every cost-aware partitioner.
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Selects the partitioner by [`scheduler`] name. Default
    /// `"param-balanced"` (the commercial-compiler heuristic).
    pub fn partitioner(mut self, name: impl Into<String>) -> Self {
        self.partitioner = name.into();
        self
    }

    /// Seeds stochastic partitioners (`"anneal"`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Bounds iterative partitioners (`"anneal"`) to a move budget.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Bounds anytime solvers (`"exact"`, `"ilp"`) to a wall-clock
    /// budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Injects a pre-built scheduler, bypassing name resolution (e.g. a
    /// [`RespectScheduler`] around your own trained policy). Overrides
    /// [`DeploymentBuilder::partitioner`].
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Schedules and compiles: resolve the partitioner, compute the
    /// stage assignment, and compile it for the device chain.
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] ([`respect_tpu::sim::SimError::InvalidSpec`]) when
    /// the device fails [`DeviceSpec::validate`];
    /// [`Error::Registry`] when the partitioner name does not resolve;
    /// [`Error::Schedule`] when scheduling fails (zero stages, solver
    /// budget exhausted) or the schedule does not validate.
    pub fn build(self) -> Result<Deployment, Error> {
        // the cost model every partitioner reads is derived from the spec
        self.spec.validate()?;
        let mut options = BuildOptions::default().with_cost_model(self.spec.cost_model());
        if let Some(seed) = self.seed {
            options = options.with_seed(seed);
        }
        if let Some(iters) = self.iterations {
            options = options.with_iterations(iters);
        }
        if let Some(budget) = self.time_budget {
            options = options.with_time_budget(budget);
        }
        let scheduler = match self.scheduler {
            Some(s) => s,
            None => scheduler(&self.partitioner, &self.spec, &options)?,
        };
        let schedule = scheduler.schedule(self.dag, self.stages)?;
        let pipeline = compile::compile(self.dag, &schedule, &self.spec)?;
        Ok(Deployment {
            dag: self.dag.clone(),
            spec: self.spec,
            pipeline,
            scheduler_name: scheduler.name().to_string(),
        })
    }
}

/// A model scheduled and compiled onto an `n`-stage Edge TPU chain,
/// ready to simulate or serve. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Deployment {
    dag: Dag,
    spec: DeviceSpec,
    pipeline: CompiledPipeline,
    scheduler_name: String,
}

impl Deployment {
    /// Starts configuring a deployment of `dag`.
    pub fn of(dag: &Dag) -> DeploymentBuilder<'_> {
        DeploymentBuilder::new(dag)
    }

    /// The deployed computational graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> CostModel {
        self.spec.cost_model()
    }

    /// The computed stage assignment.
    pub fn schedule(&self) -> &Schedule {
        &self.pipeline.schedule
    }

    /// The compiled per-stage pipeline.
    pub fn pipeline(&self) -> &CompiledPipeline {
        &self.pipeline
    }

    /// Pipeline stage count.
    pub fn num_stages(&self) -> usize {
        self.pipeline.num_stages()
    }

    /// Display name of the scheduler that produced the deployment (the
    /// [`Scheduler::name`], e.g. `"RESPECT"` — not the registry key).
    pub fn scheduler_name(&self) -> &str {
        &self.scheduler_name
    }

    /// The abstract bottleneck objective of the deployed schedule under
    /// the device's cost model (seconds per inference, lower is better).
    pub fn objective(&self) -> f64 {
        self.cost_model().objective(&self.dag, self.schedule())
    }

    /// Streams `inferences` back-to-back inferences through the pipeline
    /// — the paper's Fig. 4 scenario. Identical to
    /// [`exec::simulate`] on [`Deployment::pipeline`].
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] for a degenerate request (zero inferences).
    pub fn simulate(&self, inferences: usize) -> Result<InferenceReport, Error> {
        Ok(exec::simulate(&self.pipeline, &self.spec, inferences)?)
    }

    /// A [`Workload`] of `requests` requests over this deployment's
    /// pipeline, for scenario composition (`with_arrivals`,
    /// `with_batch`, ...) before `sim::run` on [`Deployment::device`].
    pub fn workload(&self, requests: usize) -> Workload {
        Workload::new(self.pipeline.clone(), requests)
    }

    /// A [`ServeTenant`] of `requests` requests over this deployment's
    /// pipeline, for policy composition (`with_batcher`,
    /// `with_admission`, ...) before `serve` or `serve_fleet`.
    pub fn tenant(&self, requests: usize) -> ServeTenant {
        ServeTenant::new(self.pipeline.clone(), requests)
    }

    /// A [`Repartitioner`] over this deployment's graph and cost model,
    /// for live re-partitioning via `ServeTenant::with_repartitioner`.
    pub fn repartitioner(&self) -> Repartitioner {
        Repartitioner::new(self.dag.clone(), self.cost_model())
    }
}
