//! Scenario execution: compile the [`Scenario`] into the *same*
//! [`Deployment`] the fluent facade builds, drive the declared engine,
//! and evaluate the assertions against the report.
//!
//! The interpreter adds no engine of its own — `run sim` literally
//! calls [`sim::run_probed`], `run serve` calls [`serve_probed`], and
//! `run fleet` calls [`serve_fleet_probed`] on a [`FleetConfig`]
//! assembled from the `chains`, `router`, `autoscale` and `bus`
//! directives — so a `.scn` file is **bitwise-identical** to its
//! hand-wired Rust twin by construction (property-pinned in
//! `tests/scn_equivalence.rs`).

use std::time::Duration;

use respect::deploy::Deployment;
use respect::serve::{
    serve_fleet_probed, serve_probed, ChainReport, FleetConfig, FleetReport, ServeConfig,
    ServeReport, ServeTenant, TenantServeReport,
};
use respect::tpu::probe::{NullProbe, Probe};
use respect::tpu::sim::{self, Arrivals, SimConfig, SimReport, TenantReport, Workload};
use respect_graph::generate::{SyntheticConfig, SyntheticSampler};
use respect_graph::Dag;

use crate::ast::{
    random_shape_error, Assertion, AssertionKind, Engine, Expr, MetricRef, ModelSpec, Scenario,
    Scope, TenantSpec, MODELS,
};
use crate::ScnError;

/// The engine report a scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutput {
    /// `run sim` → [`SimReport`].
    Sim(SimReport),
    /// `run serve` → [`ServeReport`].
    Serve(ServeReport),
    /// `run fleet` → [`FleetReport`].
    Fleet(FleetReport),
}

/// The outcome of one assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionOutcome {
    /// Source line of the assertion.
    pub line: usize,
    /// The assertion, rendered canonically.
    pub text: String,
    /// Did it hold?
    pub passed: bool,
    /// Actual-vs-expected evidence (`lhs = 0.184, rhs = 0.12`).
    pub detail: String,
}

/// A fully-executed scenario: the report plus per-assertion outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Abstract bottleneck objective of the deployed schedule.
    pub objective: f64,
    /// Pipeline stage count of the deployment.
    pub stages: usize,
    /// The engine report.
    pub output: RunOutput,
    /// One outcome per assertion, in source order.
    pub assertions: Vec<AssertionOutcome>,
}

impl ScenarioRun {
    /// `true` when every assertion held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.assertions.iter().all(|a| a.passed)
    }

    /// The assertions that failed, in source order.
    pub fn failures(&self) -> impl Iterator<Item = &AssertionOutcome> {
        self.assertions.iter().filter(|a| !a.passed)
    }
}

/// Mean offered rate of an open-loop arrival process (requests per
/// second), used to size `run until t=` request counts.
fn mean_rate(arrivals: &Arrivals) -> Option<f64> {
    match *arrivals {
        Arrivals::ClosedLoop => None,
        Arrivals::Periodic { rate } | Arrivals::Poisson { rate, .. } => Some(rate),
        Arrivals::Mmpp {
            low_rate,
            high_rate,
            ..
        } => Some(0.5 * (low_rate + high_rate)),
        Arrivals::Diurnal { mean_rate, .. } => Some(mean_rate),
    }
}

/// Resolves one tenant's request count: explicit `requests`, else the
/// run-level `requests=` default, else `ceil(mean_rate × until)` for an
/// open-loop process.
pub(crate) fn effective_requests(s: &Scenario, t: &TenantSpec) -> Result<usize, ScnError> {
    if let Some(n) = t.requests {
        return Ok(n);
    }
    if let Some(n) = s.run.requests {
        return Ok(n);
    }
    if let Some(horizon) = s.run.until_s {
        let Some(rate) = mean_rate(&t.arrivals) else {
            return Err(ScnError::at(
                t.pos.line,
                t.pos.col,
                "closed-loop tenant has no request count (give `requests` or `run requests=`)",
            ));
        };
        return Ok(((rate * horizon).ceil() as usize).max(1));
    }
    Err(ScnError::at(
        t.pos.line,
        t.pos.col,
        "tenant has no request count (give `requests`, `run requests=`, or `run until t=`)",
    ))
}

impl Scenario {
    /// Builds the scenario's model graph.
    ///
    /// # Errors
    ///
    /// [`ScnError`] at the `run` directive when a hand-built
    /// [`ModelSpec`] is one the parser would not admit: an unknown name,
    /// or a random shape with no nodes or a `deg` outside `2..=6`.
    pub fn dag(&self) -> Result<Dag, ScnError> {
        let run = self.run.pos;
        match &self.model {
            ModelSpec::Named(name) => {
                let Some((_, build)) = MODELS.iter().find(|(known, _)| known == name) else {
                    return Err(ScnError::at(
                        run.line,
                        run.col,
                        format!("unknown model `{name}`"),
                    ));
                };
                Ok(build())
            }
            ModelSpec::Random { seed, nodes, deg } => {
                if let Some(msg) = random_shape_error(*nodes, *deg) {
                    return Err(ScnError::at(run.line, run.col, msg));
                }
                let cfg = SyntheticConfig {
                    num_nodes: *nodes,
                    ..SyntheticConfig::paper(*deg)
                };
                Ok(SyntheticSampler::new(cfg, *seed).sample())
            }
        }
    }

    /// Builds the [`Deployment`] exactly as the fluent facade would:
    /// same builder, same defaults, same scheduler resolution.
    ///
    /// # Errors
    ///
    /// [`ScnError`] at the `scheduler` directive when scheduling fails
    /// (e.g. an exhausted solver budget).
    pub fn deployment(&self, dag: &Dag) -> Result<Deployment, ScnError> {
        let mut b = Deployment::of(dag)
            .stages(self.stages)
            .partitioner(&self.scheduler.name);
        if let Some(seed) = self.scheduler.seed {
            b = b.seed(seed);
        }
        if let Some(iters) = self.scheduler.iterations {
            b = b.iterations(iters);
        }
        if let Some(budget) = self.scheduler.budget_s {
            b = b.time_budget(Duration::from_secs_f64(budget));
        }
        b.build().map_err(|e| {
            ScnError::at(
                self.scheduler.pos.line,
                self.scheduler.pos.col,
                format!("{e}"),
            )
        })
    }

    /// One tenant as a raw-simulator [`Workload`].
    fn workload(&self, d: &Deployment, t: &TenantSpec) -> Result<Workload, ScnError> {
        Ok(
            Workload::new(d.pipeline().clone(), effective_requests(self, t)?)
                .with_arrivals(t.arrivals)
                .with_batch(t.batch)
                .with_warmup(t.warmup),
        )
    }

    /// One tenant as a serving [`ServeTenant`].
    fn serve_tenant(&self, d: &Deployment, t: &TenantSpec) -> Result<ServeTenant, ScnError> {
        let mut st = ServeTenant::new(d.pipeline().clone(), effective_requests(self, t)?)
            .with_arrivals(t.arrivals)
            .with_batch(t.batch)
            .with_warmup(t.warmup);
        if let Some(batcher) = t.batcher {
            st = st.with_batcher(batcher);
        }
        if let Some(admission) = t.admission {
            st = st.with_admission(admission);
        }
        if let Some(rep) = t.repartition {
            let mut r = d.repartitioner();
            if let Some(w) = rep.window {
                r.policy = r.policy.with_window_jobs(w);
            }
            if let Some(th) = rep.threshold {
                r.policy = r.policy.with_threshold(th);
            }
            if let Some(m) = rep.max_swaps {
                r.policy = r.policy.with_max_swaps(m);
            }
            if let Some(g) = rep.min_gain {
                r.policy = r.policy.with_min_gain(g);
            }
            st = st.with_repartitioner(r);
        }
        Ok(st)
    }

    /// Executes the scenario: build, run the engine, evaluate every
    /// assertion. Deterministic — same text, same [`ScenarioRun`],
    /// bitwise. Equivalent to [`Scenario::execute_probed`] with a
    /// `NullProbe`.
    ///
    /// # Errors
    ///
    /// [`ScnError`] when the deployment cannot be built or the engine
    /// rejects the configuration (positions point at the responsible
    /// directive).
    pub fn execute(&self) -> Result<ScenarioRun, ScnError> {
        self.execute_probed(&mut NullProbe)
    }

    /// [`Scenario::execute`] with a [`Probe`] attached to whichever
    /// engine the scenario drives. The probe is an observer only: the
    /// returned [`ScenarioRun`] is bitwise-identical to an unprobed
    /// `execute()`. This is how `respect-test` collects flight-recorder
    /// and metrics diagnostics when re-running a failing scenario.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::execute`].
    pub fn execute_probed<P: Probe>(&self, probe: &mut P) -> Result<ScenarioRun, ScnError> {
        let dag = self.dag()?;
        let d = self.deployment(&dag)?;
        let rpos = self.run.pos;
        let engine_err = |e: respect::Error| ScnError::at(rpos.line, rpos.col, format!("{e}"));
        let output = match self.run.engine {
            Engine::Sim => {
                let workloads: Vec<Workload> = self
                    .tenants
                    .iter()
                    .map(|t| self.workload(&d, t))
                    .collect::<Result<_, _>>()?;
                let cfg = if self.contended_bus {
                    SimConfig::contended()
                } else {
                    SimConfig::uncontended()
                };
                RunOutput::Sim(
                    sim::run_probed(&workloads, d.device(), &cfg, probe)
                        .map_err(|e| engine_err(e.into()))?,
                )
            }
            Engine::Serve => {
                let tenants: Vec<ServeTenant> = self
                    .tenants
                    .iter()
                    .map(|t| self.serve_tenant(&d, t))
                    .collect::<Result<_, _>>()?;
                let cfg = if self.contended_bus {
                    ServeConfig::contended()
                } else {
                    ServeConfig::uncontended()
                };
                RunOutput::Serve(
                    serve_probed(&tenants, d.device(), &cfg, probe)
                        .map_err(|e| engine_err(e.into()))?,
                )
            }
            Engine::Fleet => {
                let tenants: Vec<ServeTenant> = self
                    .tenants
                    .iter()
                    .map(|t| self.serve_tenant(&d, t))
                    .collect::<Result<_, _>>()?;
                let mut cfg = FleetConfig::homogeneous(self.chains, *d.device())
                    .with_router(self.router.unwrap_or_default());
                if let Some(autoscale) = self.autoscale {
                    cfg = cfg.with_autoscale(autoscale);
                }
                if self.contended_bus {
                    cfg = cfg.with_contended_bus();
                }
                RunOutput::Fleet(
                    serve_fleet_probed(&tenants, &cfg, probe).map_err(|e| engine_err(e.into()))?,
                )
            }
        };
        let run = ScenarioRun {
            objective: d.objective(),
            stages: d.num_stages(),
            output,
            assertions: Vec::new(),
        };
        let assertions = self.assertions.iter().map(|a| evaluate(a, &run)).collect();
        Ok(ScenarioRun { assertions, ..run })
    }
}

/// Evaluates one assertion against a completed run.
fn evaluate(a: &Assertion, run: &ScenarioRun) -> AssertionOutcome {
    match &a.kind {
        AssertionKind::Compare { lhs, cmp, rhs } => {
            let l = eval_expr(lhs, run);
            let r = eval_expr(rhs, run);
            AssertionOutcome {
                line: a.pos.line,
                text: Scenario::assertion_text(a),
                passed: cmp.eval(l, r),
                detail: format!("lhs = {l}, rhs = {r}"),
            }
        }
        AssertionKind::Close {
            value,
            expected,
            rtol,
            atol,
        } => {
            let v = eval_expr(value, run);
            let e = eval_expr(expected, run);
            let tol = atol + rtol * e.abs();
            let diff = (v - e).abs();
            AssertionOutcome {
                line: a.pos.line,
                text: Scenario::assertion_text(a),
                passed: diff <= tol,
                detail: format!("actual = {v}, expected = {e}, |diff| = {diff}, tol = {tol}"),
            }
        }
    }
}

fn eval_expr(e: &Expr, run: &ScenarioRun) -> f64 {
    match e {
        Expr::Num(v) => *v,
        Expr::Metric(m) => metric(m, run),
        Expr::Binary(l, op, r) => {
            let (l, r) = (eval_expr(l, run), eval_expr(r, run));
            match op {
                crate::ast::Op::Add => l + r,
                crate::ast::Op::Sub => l - r,
                crate::ast::Op::Mul => l * r,
                crate::ast::Op::Div => l / r,
            }
        }
        Expr::Neg(inner) => -eval_expr(inner, run),
    }
}

/// One metric set, for one engine and scope: each name and how to
/// read it off that scope's report.
type Metrics<R> = &'static [(&'static str, fn(&R) -> f64)];

/// Run-scope metrics of every engine: the deployment's own values.
const DEPLOYMENT: Metrics<ScenarioRun> = &[
    ("obj", |r| r.objective),
    ("objective", |r| r.objective),
    ("stages", |r| r.stages as f64),
];

const SIM_RUN: Metrics<SimReport> = &[
    ("makespan", |r| r.makespan_s),
    ("events", |r| r.events as f64),
    ("bus_busy", |r| r.bus_busy_s),
];

const SIM_TENANT: Metrics<TenantReport> = &[
    ("requests", |t| t.requests as f64),
    ("offered", |t| t.requests as f64),
    ("inferences", |t| t.inferences as f64),
    ("measured", |t| t.measured_inferences as f64),
    ("total", |t| t.total_s),
    ("first_latency", |t| t.first_latency_s),
    ("mean_latency", |t| t.mean_latency_s),
    ("max_latency", |t| t.max_latency_s),
    ("throughput", |t| t.throughput_ips),
];

const SERVE_RUN: Metrics<ServeReport> = &[
    ("makespan", |r| r.makespan_s),
    ("events", |r| r.events as f64),
    ("bus_busy", |r| r.bus_busy_s),
    ("offered", |r| r.offered() as f64),
    ("admitted", |r| r.admitted() as f64),
    ("goodput", |r| r.admitted() as f64),
    ("shed", |r| r.shed() as f64),
    ("jobs", |r| {
        r.tenants.iter().map(|t| t.jobs).sum::<usize>() as f64
    }),
    ("swaps", |r| {
        r.tenants.iter().map(|t| t.swaps.len()).sum::<usize>() as f64
    }),
    ("energy", |r| {
        r.tenants.iter().map(|t| t.active_energy_j).sum()
    }),
    ("p50", ServeReport::p50_s),
    ("p95", ServeReport::p95_s),
    ("p99", ServeReport::p99_s),
    ("p999", ServeReport::p999_s),
    ("mean_latency", |r| mean_latency(&r.tenants)),
];

const FLEET_RUN: Metrics<FleetReport> = &[
    ("makespan", |r| r.makespan_s),
    ("events", |r| r.events as f64),
    ("bus_busy", |r| r.chains.iter().map(|c| c.bus_busy_s).sum()),
    ("offered", |r| r.offered() as f64),
    ("admitted", |r| r.admitted() as f64),
    ("goodput", |r| r.admitted() as f64),
    ("shed", |r| r.shed() as f64),
    ("jobs", |r| {
        r.chains.iter().map(|c| c.jobs).sum::<usize>() as f64
    }),
    ("swaps", |r| r.total_swaps() as f64),
    ("energy", FleetReport::total_energy_j),
    ("p50", FleetReport::p50_s),
    ("p95", FleetReport::p95_s),
    ("p99", FleetReport::p99_s),
    ("p999", FleetReport::p999_s),
    ("mean_latency", |r| mean_latency(&r.tenants)),
    ("chains", |r| r.chains.len() as f64),
    ("chains_powered", |r| {
        r.chains.iter().filter(|c| c.powered_s > 0.0).count() as f64
    }),
    ("scale_events", |r| r.scale_events.len() as f64),
];

/// Tenant-scope metrics of the serve and fleet engines (`requests`
/// aliases `offered`, mirroring the sim scope).
const SERVING_TENANT: Metrics<TenantServeReport> = &[
    ("requests", |t| t.offered as f64),
    ("offered", |t| t.offered as f64),
    ("admitted", |t| t.admitted as f64),
    ("goodput", |t| t.admitted as f64),
    ("shed", |t| t.shed as f64),
    ("shed_fraction", TenantServeReport::shed_fraction),
    ("jobs", |t| t.jobs as f64),
    ("mean_job_requests", |t| t.mean_job_requests),
    ("measured", |t| t.measured_requests as f64),
    ("total", |t| t.total_s),
    ("mean_latency", |t| t.mean_latency_s),
    ("max_latency", |t| t.max_latency_s),
    ("throughput", |t| t.throughput_ips),
    ("energy", |t| t.active_energy_j),
    ("swaps", |t| t.swaps.len() as f64),
    ("p50", TenantServeReport::p50_s),
    ("p95", TenantServeReport::p95_s),
    ("p99", TenantServeReport::p99_s),
    ("p999", TenantServeReport::p999_s),
];

/// Chain-scope metrics (fleet engine only).
const CHAIN: Metrics<ChainReport> = &[
    ("admitted", |c| c.admitted as f64),
    ("shed", |c| c.shed as f64),
    ("jobs", |c| c.jobs as f64),
    ("swaps", |c| c.swaps as f64),
    ("busy", |c| c.busy_s),
    ("bus_busy", |c| c.bus_busy_s),
    ("powered", |c| c.powered_s),
    ("energy", |c| c.energy.total_j()),
];

/// The reader of `field` in `table`, if it has one.
fn find<R>(table: Metrics<R>, field: &str) -> Option<fn(&R) -> f64> {
    table
        .iter()
        .find(|(name, _)| *name == field)
        .map(|&(_, read)| read)
}

/// Whether an `engine` run has the metric `field` at `scope`: the
/// parser's check, over the tables [`metric`] reads.
pub(crate) fn is_metric(engine: Engine, scope: Scope, field: &str) -> bool {
    match (scope, engine) {
        (Scope::Run, _) if find(DEPLOYMENT, field).is_some() => true,
        (Scope::Run, Engine::Sim) => find(SIM_RUN, field).is_some(),
        (Scope::Run, Engine::Serve) => find(SERVE_RUN, field).is_some(),
        (Scope::Run, Engine::Fleet) => find(FLEET_RUN, field).is_some(),
        (Scope::Tenant(_), Engine::Sim) => find(SIM_TENANT, field).is_some(),
        (Scope::Tenant(_), _) => find(SERVING_TENANT, field).is_some(),
        (Scope::Chain(_), _) => find(CHAIN, field).is_some(),
    }
}

/// Reads one report field. The parser admits only what [`is_metric`]
/// finds for the engine that ran; anything else (a hand-built
/// [`MetricRef`]) reads NaN.
fn metric(m: &MetricRef, run: &ScenarioRun) -> f64 {
    fn read<R>(table: Metrics<R>, field: &str, report: Option<&R>) -> Option<f64> {
        Some(find(table, field)?(report?))
    }
    let f = m.field.as_str();
    let value = match (m.scope, &run.output) {
        (Scope::Run, _) if find(DEPLOYMENT, f).is_some() => read(DEPLOYMENT, f, Some(run)),
        (Scope::Run, RunOutput::Sim(r)) => read(SIM_RUN, f, Some(r)),
        (Scope::Run, RunOutput::Serve(r)) => read(SERVE_RUN, f, Some(r)),
        (Scope::Run, RunOutput::Fleet(r)) => read(FLEET_RUN, f, Some(r)),
        (Scope::Tenant(i), RunOutput::Sim(r)) => read(SIM_TENANT, f, r.tenants.get(i)),
        (Scope::Tenant(i), RunOutput::Serve(r)) => read(SERVING_TENANT, f, r.tenants.get(i)),
        (Scope::Tenant(i), RunOutput::Fleet(r)) => read(SERVING_TENANT, f, r.tenants.get(i)),
        (Scope::Chain(i), RunOutput::Fleet(r)) => read(CHAIN, f, r.chains.get(i)),
        (Scope::Chain(_), _) => None,
    };
    value.unwrap_or(f64::NAN)
}

/// Measured-request-weighted mean latency across tenants.
fn mean_latency(tenants: &[TenantServeReport]) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0;
    for t in tenants {
        n += t.measured_requests;
        sum += t.measured_requests as f64 * t.mean_latency_s;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
