//! One fluent entry point for the whole paper pipeline.
//!
//! The paper's flow — profile a DNN DAG, partition it onto an `n`-stage
//! Edge TPU chain, compile, then execute or serve — used to require
//! hand-wiring four crates. [`Deployment`] chains it:
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
//! Partitioners are resolved by name through [`registry`] — the
//! `respect_sched` builtin table plus `"respect"` (the RL scheduler) and
//! `"profiling"` (the device-aware partitioner). [`registry_names`]
//! enumerates them. A pre-built scheduler can be injected with
//! [`DeploymentBuilder::scheduler`] instead.
//!
//! The facade is additive sugar, not a new engine: every method is
//! **bitwise-identical** to the hand-wired call it replaces
//! (property-tested in `tests/deployment_equivalence.rs`):
//!
//! | facade call | hand-wired equivalent |
//! |---|---|
//! | [`DeploymentBuilder::build`] | `scheduler.schedule(..)` + `compile::compile(..)` |
//! | [`Deployment::simulate`] | `exec::simulate(..)` |
//! | [`Deployment::simulate_workloads`] | `sim::run(..)` |
//! | [`Deployment::serve`] | `serve::serve(..)` |
//! | [`Deployment::serve_fleet`] | `serve::fleet::serve_fleet(..)` |
//!
//! Every runtime entry point also has a `_probed` twin
//! ([`Deployment::simulate_workloads_probed`], [`Deployment::serve_probed`],
//! [`Deployment::serve_fleet_probed`]) threading a
//! [`respect_tpu::probe::Probe`] through the engine, and
//! [`Deployment::serve_fleet_with_metrics`] bundles a
//! [`respect_obs::MetricsRecorder`] for the common "run it and give me
//! the numbers" case.

use std::sync::OnceLock;
use std::time::Duration;

use respect_core::{train_policy, PtrNetPolicy, RespectScheduler, TrainConfig};
use respect_graph::Dag;
use respect_obs::{MetricsRecorder, MetricsSnapshot};
use respect_sched::registry::{BuildOptions, Registry};
use respect_sched::{CostModel, Schedule, Scheduler};
use respect_serve::{
    self as serve_rt, AutoscalePolicy, FleetConfig, FleetReport, Repartitioner, RouterPolicy,
    ServeConfig, ServeReport, ServeTenant,
};
use respect_tpu::device::DeviceSpec;
use respect_tpu::exec::InferenceReport;
use respect_tpu::probe::Probe;
use respect_tpu::profiling::ProfilingPartitioner;
use respect_tpu::sim::{self, SimConfig, SimReport, Workload};
use respect_tpu::{compile, exec, CompiledPipeline};

use crate::Error;

/// The full scheduler registry of the workspace: the nine
/// `respect_sched` builtins plus the two schedulers that live above that
/// crate:
///
/// * `"respect"` — [`RespectScheduler`]: weights from the
///   `RESPECT_POLICY` env var (a `.rspp` path) when set and readable,
///   otherwise a smoke-scale policy trained once per process (seconds,
///   deterministic);
/// * `"profiling"` — [`ProfilingPartitioner`] for `spec`.
pub fn registry(spec: &DeviceSpec) -> Registry {
    let mut r = Registry::builtin();
    let spec = *spec;
    r.register("respect", move |o| {
        Box::new(RespectScheduler::new(default_policy()).with_cost_model(o.cost_model))
    });
    r.register("profiling", move |_| {
        Box::new(ProfilingPartitioner::new(spec))
    });
    r
}

/// Sorted names of [`registry`] for the Coral device (the builtin nine
/// plus `"profiling"` and `"respect"`).
pub fn registry_names() -> Vec<String> {
    registry(&DeviceSpec::coral()).names()
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
    fleet_n: usize,
    fleet_chains: Option<Vec<DeviceSpec>>,
    router: RouterPolicy,
    autoscale: Option<AutoscalePolicy>,
    fleet_contended: bool,
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
            fleet_n: 1,
            fleet_chains: None,
            router: RouterPolicy::default(),
            autoscale: None,
            fleet_contended: false,
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

    /// Selects the partitioner by [`registry`] name. Default
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

    /// Serves over a homogeneous fleet of `n` chains of the deployment's
    /// device (see [`Deployment::serve_fleet`]). Default 1.
    pub fn fleet(mut self, n: usize) -> Self {
        self.fleet_n = n;
        self
    }

    /// Serves over a heterogeneous fleet with one [`DeviceSpec`] per
    /// chain. Overrides [`DeploymentBuilder::fleet`].
    pub fn chains(mut self, chains: &[DeviceSpec]) -> Self {
        self.fleet_chains = Some(chains.to_vec());
        self
    }

    /// Sets the fleet's request router. Default
    /// [`RouterPolicy::RoundRobin`].
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Enables backlog-driven fleet autoscaling.
    pub fn autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Switches every fleet chain to one shared FIFO host bus (as
    /// [`FleetConfig::with_contended_bus`]). Affects
    /// [`Deployment::serve_fleet`] only; `simulate_workloads` and
    /// `serve` take their bus switch from their own config argument.
    pub fn contended_bus(mut self) -> Self {
        self.fleet_contended = true;
        self
    }

    /// Schedules and compiles: resolve the partitioner, compute the
    /// stage assignment, and compile it for the device chain.
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] ([`sim::SimError::InvalidSpec`]) when the device or a
    /// [`DeploymentBuilder::chains`] spec fails [`DeviceSpec::validate`];
    /// [`Error::Registry`] when the partitioner name does not resolve;
    /// [`Error::Schedule`] when scheduling fails (zero stages, solver
    /// budget exhausted) or the schedule does not validate.
    pub fn build(self) -> Result<Deployment, Error> {
        // the cost model every partitioner reads is derived from the spec
        self.spec.validate()?;
        for spec in self.fleet_chains.iter().flatten() {
            spec.validate()?;
        }
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
            None => registry(&self.spec).build(&self.partitioner, &options)?,
        };
        let schedule = scheduler.schedule(self.dag, self.stages)?;
        let pipeline = compile::compile(self.dag, &schedule, &self.spec)?;
        let chains = self
            .fleet_chains
            .unwrap_or_else(|| vec![self.spec; self.fleet_n]);
        let mut fleet = FleetConfig::homogeneous(0, self.spec)
            .with_chains(chains)
            .with_router(self.router);
        if let Some(autoscale) = self.autoscale {
            fleet = fleet.with_autoscale(autoscale);
        }
        if self.fleet_contended {
            fleet = fleet.with_contended_bus();
        }
        Ok(Deployment {
            dag: self.dag.clone(),
            spec: self.spec,
            pipeline,
            scheduler_name: scheduler.name().to_string(),
            fleet,
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
    fleet: FleetConfig,
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
    /// `with_batch`, ...) before [`Deployment::simulate_workloads`].
    pub fn workload(&self, requests: usize) -> Workload {
        Workload::new(self.pipeline.clone(), requests)
    }

    /// Runs the discrete-event simulator over `workloads` (co-resident
    /// on this deployment's device chain) under `cfg`. Identical to
    /// [`sim::run`].
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] for degenerate workloads; see [`sim::run`].
    pub fn simulate_workloads(
        &self,
        workloads: &[Workload],
        cfg: &SimConfig,
    ) -> Result<SimReport, Error> {
        Ok(sim::run(workloads, &self.spec, cfg)?)
    }

    /// [`Deployment::simulate_workloads`] with a [`Probe`] observing
    /// the event stream. With `NullProbe` this is bitwise
    /// [`Deployment::simulate_workloads`].
    ///
    /// # Errors
    ///
    /// As [`Deployment::simulate_workloads`].
    pub fn simulate_workloads_probed<P: Probe>(
        &self,
        workloads: &[Workload],
        cfg: &SimConfig,
        probe: &mut P,
    ) -> Result<SimReport, Error> {
        Ok(sim::run_probed(workloads, &self.spec, cfg, probe)?)
    }

    /// A [`ServeTenant`] of `requests` requests over this deployment's
    /// pipeline, for policy composition (`with_batcher`,
    /// `with_admission`, ...) before [`Deployment::serve`].
    pub fn tenant(&self, requests: usize) -> ServeTenant {
        ServeTenant::new(self.pipeline.clone(), requests)
    }

    /// A [`Repartitioner`] over this deployment's graph and cost model,
    /// for live re-partitioning via `ServeTenant::with_repartitioner`.
    pub fn repartitioner(&self) -> Repartitioner {
        Repartitioner::new(self.dag.clone(), self.cost_model())
    }

    /// Runs the SLO-aware serving runtime for `tenants` under `cfg`.
    /// Identical to [`serve_rt::serve`].
    ///
    /// # Errors
    ///
    /// [`Error::Serve`] for degenerate tenants; see [`serve_rt::serve`].
    pub fn serve(&self, tenants: &[ServeTenant], cfg: &ServeConfig) -> Result<ServeReport, Error> {
        Ok(serve_rt::serve(tenants, &self.spec, cfg)?)
    }

    /// [`Deployment::serve`] with a [`Probe`] observing the event
    /// stream. With `NullProbe` this is bitwise [`Deployment::serve`].
    ///
    /// # Errors
    ///
    /// As [`Deployment::serve`].
    pub fn serve_probed<P: Probe>(
        &self,
        tenants: &[ServeTenant],
        cfg: &ServeConfig,
        probe: &mut P,
    ) -> Result<ServeReport, Error> {
        Ok(serve_rt::serve_probed(tenants, &self.spec, cfg, probe)?)
    }

    /// The fleet configuration assembled from the builder's
    /// [`DeploymentBuilder::fleet`] / [`DeploymentBuilder::chains`] /
    /// [`DeploymentBuilder::router`] / [`DeploymentBuilder::autoscale`]
    /// hooks. Clone and extend it (e.g.
    /// `FleetConfig::with_contended_bus`) for switches the builder does
    /// not expose, then call [`serve_rt::serve_fleet`].
    pub fn fleet_config(&self) -> &FleetConfig {
        &self.fleet
    }

    /// Runs the fleet serving runtime for `tenants` over the configured
    /// fleet. Identical to [`serve_rt::serve_fleet`] on
    /// [`Deployment::fleet_config`].
    ///
    /// # Errors
    ///
    /// [`Error::Serve`] for degenerate tenants or fleet configs; see
    /// [`serve_rt::serve_fleet`].
    pub fn serve_fleet(&self, tenants: &[ServeTenant]) -> Result<FleetReport, Error> {
        Ok(serve_rt::serve_fleet(tenants, &self.fleet)?)
    }

    /// [`Deployment::serve_fleet`] with a [`Probe`] observing the event
    /// stream (router decisions and autoscale steps included). With
    /// `NullProbe` this is bitwise [`Deployment::serve_fleet`].
    ///
    /// # Errors
    ///
    /// As [`Deployment::serve_fleet`].
    pub fn serve_fleet_probed<P: Probe>(
        &self,
        tenants: &[ServeTenant],
        probe: &mut P,
    ) -> Result<FleetReport, Error> {
        Ok(serve_rt::serve_fleet_probed(tenants, &self.fleet, probe)?)
    }

    /// [`Deployment::serve_fleet`] with a [`MetricsRecorder`] attached,
    /// returning the report together with the frozen metrics snapshot.
    ///
    /// # Errors
    ///
    /// As [`Deployment::serve_fleet`].
    pub fn serve_fleet_with_metrics(
        &self,
        tenants: &[ServeTenant],
    ) -> Result<(FleetReport, MetricsSnapshot), Error> {
        let mut metrics = MetricsRecorder::new();
        let report = serve_rt::serve_fleet_probed(tenants, &self.fleet, &mut metrics)?;
        Ok((report, metrics.snapshot()))
    }
}
