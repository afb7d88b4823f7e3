//! The parsed scenario model and its canonical text form.
//!
//! A [`Scenario`] is a complete declarative description of one
//! sim/serve/fleet run plus the assertions to check against its report.
//! [`Scenario::canonical`] renders it back to `.scn` text in a fixed
//! order with fixed spellings; `parse(canonical(s))` reproduces the
//! scenario and `canonical` is a fixed point of `parse ∘ canonical`
//! (property-tested in `tests/parse_errors.rs`).
//!
//! Source positions (`line`, `col`) ride along for diagnostics but are
//! excluded from equality, so a reparsed canonical scenario compares
//! equal to the original.

use std::fmt::Write as _;

use respect_graph::{models, Dag};
use respect_serve::{AdmissionPolicy, AutoscalePolicy, BatchPolicy, RouterPolicy};
use respect_tpu::sim::Arrivals;

/// A 1-based source position. Compares equal to every other position so
/// AST equality is position-independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pos {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl PartialEq for Pos {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A model-zoo constructor of `respect_graph::models`.
type Build = fn() -> Dag;

/// The model-zoo graphs `model <name>` accepts (the twelve Fig. 5
/// graphs of `respect_graph::models`) with their constructors, in the
/// order diagnostics list them.
pub(crate) const MODELS: [(&str, Build); 12] = [
    ("xception", models::xception),
    ("resnet50", models::resnet50),
    ("resnet101", models::resnet101),
    ("resnet152", models::resnet152),
    ("densenet121", models::densenet121),
    ("resnet101v2", models::resnet101v2),
    ("resnet152v2", models::resnet152v2),
    ("densenet169", models::densenet169),
    ("densenet201", models::densenet201),
    ("inception_resnet_v2", models::inception_resnet_v2),
    ("resnet50v2", models::resnet50v2),
    ("inception_v3", models::inception_v3),
];

/// Which model graph the scenario deploys.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A model-zoo graph by its snake-case name (`densenet121`): one of
    /// the twelve Fig. 5 graphs of `respect_graph::models`.
    Named(String),
    /// A synthetic DAG from the paper's generator class.
    Random {
        /// Sampler seed.
        seed: u64,
        /// Operators in the graph.
        nodes: usize,
        /// `deg(V)` bound, in `2..=6`.
        deg: usize,
    },
}

/// Why the sampler cannot draw a `model random` graph of this shape, if
/// it cannot: it needs at least one node and a `deg` in `2..=6`.
pub(crate) fn random_shape_error(nodes: usize, deg: usize) -> Option<&'static str> {
    if nodes == 0 {
        Some("model random needs at least 1 node")
    } else if !(2..=6).contains(&deg) {
        Some("model random deg must be in 2..=6")
    } else {
        None
    }
}

/// Scheduler selection: a registry name plus optional build options.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSpec {
    /// Registry key (`"exact"`, `"anneal"`, ...).
    pub name: String,
    /// Seed for stochastic partitioners.
    pub seed: Option<u64>,
    /// Move budget for iterative partitioners.
    pub iterations: Option<usize>,
    /// Wall-clock budget for anytime solvers, seconds.
    pub budget_s: Option<f64>,
    /// Position of the scheduler name, for build-time errors.
    pub pos: Pos,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec {
            name: "param-balanced".to_string(),
            seed: None,
            iterations: None,
            budget_s: None,
            pos: Pos::default(),
        }
    }
}

/// Live re-partitioning policy of one tenant (serve/fleet engines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepartitionSpec {
    /// Completed jobs per drift window (`None`: runtime default).
    pub window: Option<usize>,
    /// Divergence trigger threshold.
    pub threshold: Option<f64>,
    /// Swap cap.
    pub max_swaps: Option<usize>,
    /// Minimum relative objective gain.
    pub min_gain: Option<f64>,
}

/// One tenant: its traffic shape and serving policies.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Optional tenant name, usable as an assertion scope.
    pub name: Option<String>,
    /// Explicit request count (else `run requests=` or `run until`).
    pub requests: Option<usize>,
    /// Inferences per request.
    pub batch: usize,
    /// Requests excluded from the front of the measured window.
    pub warmup: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Dynamic batcher (serve/fleet only).
    pub batcher: Option<BatchPolicy>,
    /// Admission policy (serve/fleet only).
    pub admission: Option<AdmissionPolicy>,
    /// Live re-partitioning (serve/fleet only).
    pub repartition: Option<RepartitionSpec>,
    /// Position of the `tenant` keyword.
    pub pos: Pos,
}

impl TenantSpec {
    /// A tenant with raw-simulator-equivalent defaults.
    #[must_use]
    pub fn new() -> Self {
        TenantSpec {
            name: None,
            requests: None,
            batch: 1,
            warmup: 0,
            arrivals: Arrivals::ClosedLoop,
            batcher: None,
            admission: None,
            repartition: None,
            pos: Pos::default(),
        }
    }
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Which engine the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The raw discrete-event simulator (`sim::run`).
    Sim,
    /// The single-chain serving runtime (`serve`).
    Serve,
    /// The fleet runtime (`serve_fleet`).
    Fleet,
}

impl Engine {
    /// The engine's spelling in `.scn` text.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Engine::Sim => "sim",
            Engine::Serve => "serve",
            Engine::Fleet => "fleet",
        }
    }
}

/// The `run` directive: engine plus default execution extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Engine to drive.
    pub engine: Engine,
    /// Default request count for tenants without an explicit one.
    pub requests: Option<usize>,
    /// Open-loop horizon: tenants without an explicit count get
    /// `ceil(mean_rate × until_s)` requests.
    pub until_s: Option<f64>,
    /// Position of the `run` keyword.
    pub pos: Pos,
}

/// Comparison operator of an assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (exact f64 equality)
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    /// The operator's spelling.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }

    /// Applies the comparison.
    #[must_use]
    pub fn eval(self, l: f64, r: f64) -> bool {
        match self {
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Gt => l > r,
            Cmp::Ge => l >= r,
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
        }
    }
}

/// What a metric reference is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The run-level report (and deployment-level values).
    Run,
    /// Tenant `i`, in declaration order.
    Tenant(usize),
    /// Chain `i` of a fleet run.
    Chain(usize),
}

/// A named report field, e.g. `tenant0.p99`, `chains_powered`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRef {
    /// The scope the field is read from.
    pub scope: Scope,
    /// Field name within the scope.
    pub field: String,
    /// Source position of the reference.
    pub pos: Pos,
}

/// Arithmetic operator inside an assertion expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl Op {
    /// The operator's spelling.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
        }
    }
}

/// An assertion-side expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal (durations already scaled to seconds).
    Num(f64),
    /// A report-field reference.
    Metric(MetricRef),
    /// `lhs op rhs`.
    Binary(Box<Expr>, Op, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
}

/// The check an assertion performs.
#[derive(Debug, Clone, PartialEq)]
pub enum AssertionKind {
    /// `assert lhs cmp rhs` / `expect lhs cmp rhs`.
    Compare {
        /// Left-hand expression.
        lhs: Expr,
        /// Comparison operator.
        cmp: Cmp,
        /// Right-hand expression.
        rhs: Expr,
    },
    /// `assert_close value expected [rtol=..] [atol=..]`:
    /// `|value − expected| <= atol + rtol·|expected|`.
    Close {
        /// Measured expression.
        value: Expr,
        /// Expected value.
        expected: Expr,
        /// Relative tolerance (default `1e-9`).
        rtol: f64,
        /// Absolute tolerance (default `0`).
        atol: f64,
    },
}

/// One assertion statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// The check.
    pub kind: AssertionKind,
    /// Position of the assertion keyword.
    pub pos: Pos,
}

/// One parsed scenario: deployment, traffic, engine, assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`scenario <ident>`), if declared.
    pub name: Option<String>,
    /// Free-form tags; `tag slow` is skipped by `respect-test --quick`.
    pub tags: Vec<String>,
    /// The deployed model.
    pub model: ModelSpec,
    /// Pipeline stage count.
    pub stages: usize,
    /// Scheduler selection.
    pub scheduler: SchedulerSpec,
    /// Tenants, in declaration order.
    pub tenants: Vec<TenantSpec>,
    /// Fleet chain count (fleet engine; default 1).
    pub chains: usize,
    /// Fleet router (fleet engine).
    pub router: Option<RouterPolicy>,
    /// Fleet autoscaling (fleet engine).
    pub autoscale: Option<AutoscalePolicy>,
    /// Shared-bus contention (`bus contended`).
    pub contended_bus: bool,
    /// The run directive.
    pub run: RunSpec,
    /// Assertions, in source order.
    pub assertions: Vec<Assertion>,
}

/// Formats an `f64` so that reparsing reproduces it bitwise: Rust's
/// `{}` emits the shortest decimal that round-trips, and negative or
/// exponent forms are parenthesized/rewritten by the caller as needed.
fn num(v: f64) -> String {
    format!("{v}")
}

impl Scenario {
    /// Renders the scenario in canonical form: fixed directive order,
    /// canonical spellings, all durations in raw seconds, no comments.
    /// `parse(canonical()) == self` and the text is a fixed point of
    /// format → parse → format.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        if let Some(name) = &self.name {
            let _ = writeln!(s, "scenario {name}");
        }
        for tag in &self.tags {
            let _ = writeln!(s, "tag {tag}");
        }
        match &self.model {
            ModelSpec::Named(name) => {
                let _ = writeln!(s, "model {name}");
            }
            ModelSpec::Random { seed, nodes, deg } => {
                let _ = writeln!(s, "model random seed={seed} nodes={nodes} deg={deg}");
            }
        }
        let _ = writeln!(s, "stages {}", self.stages);
        let sch = &self.scheduler;
        let _ = write!(s, "scheduler {}", sch.name);
        if let Some(seed) = sch.seed {
            let _ = write!(s, " seed={seed}");
        }
        if let Some(iters) = sch.iterations {
            let _ = write!(s, " iterations={iters}");
        }
        if let Some(b) = sch.budget_s {
            let _ = write!(s, " budget={}", num(b));
        }
        s.push('\n');
        if self.contended_bus {
            let _ = writeln!(s, "bus contended");
        }
        for t in &self.tenants {
            match &t.name {
                Some(name) => {
                    let _ = writeln!(s, "tenant {name}");
                }
                None => {
                    let _ = writeln!(s, "tenant");
                }
            }
            if let Some(r) = t.requests {
                let _ = writeln!(s, "requests {r}");
            }
            if t.batch != 1 {
                let _ = writeln!(s, "batch {}", t.batch);
            }
            if t.warmup != 0 {
                let _ = writeln!(s, "warmup {}", t.warmup);
            }
            match t.arrivals {
                Arrivals::ClosedLoop => {}
                Arrivals::Periodic { rate } => {
                    let _ = writeln!(s, "arrivals periodic rate={}", num(rate));
                }
                Arrivals::Poisson { rate, seed } => {
                    let _ = writeln!(s, "arrivals poisson rate={} seed={seed}", num(rate));
                }
                Arrivals::Mmpp {
                    low_rate,
                    high_rate,
                    mean_dwell_s,
                    seed,
                } => {
                    let _ = writeln!(
                        s,
                        "arrivals mmpp low={} high={} dwell={} seed={seed}",
                        num(low_rate),
                        num(high_rate),
                        num(mean_dwell_s)
                    );
                }
                Arrivals::Diurnal {
                    mean_rate,
                    amplitude,
                    period_s,
                    seed,
                } => {
                    let _ = writeln!(
                        s,
                        "arrivals diurnal mean={} amplitude={} period={} seed={seed}",
                        num(mean_rate),
                        num(amplitude),
                        num(period_s)
                    );
                }
            }
            if let Some(b) = t.batcher {
                let _ = writeln!(
                    s,
                    "batcher max_batch={} max_delay={}",
                    b.max_batch,
                    num(b.max_delay_s)
                );
            }
            match t.admission {
                None => {}
                Some(AdmissionPolicy::Open) => {
                    let _ = writeln!(s, "admission open");
                }
                Some(AdmissionPolicy::QueueBound { max_waiting }) => {
                    let _ = writeln!(s, "admission queue max_waiting={max_waiting}");
                }
                Some(AdmissionPolicy::SloDelay { target_s }) => {
                    let _ = writeln!(s, "admission slo target={}", num(target_s));
                }
            }
            if let Some(rep) = t.repartition {
                let _ = write!(s, "repartition");
                if let Some(w) = rep.window {
                    let _ = write!(s, " window={w}");
                }
                if let Some(th) = rep.threshold {
                    let _ = write!(s, " threshold={}", num(th));
                }
                if let Some(m) = rep.max_swaps {
                    let _ = write!(s, " max_swaps={m}");
                }
                if let Some(g) = rep.min_gain {
                    let _ = write!(s, " min_gain={}", num(g));
                }
                s.push('\n');
            }
        }
        if self.run.engine == Engine::Fleet {
            let _ = writeln!(s, "chains {}", self.chains);
            match self.router {
                None => {}
                Some(RouterPolicy::RoundRobin) => {
                    let _ = writeln!(s, "router round-robin");
                }
                Some(RouterPolicy::JoinShortestBacklog) => {
                    let _ = writeln!(s, "router shortest");
                }
                Some(RouterPolicy::PowerOfTwoChoices { seed }) => {
                    let _ = writeln!(s, "router p2c seed={seed}");
                }
                Some(RouterPolicy::Affinity) => {
                    let _ = writeln!(s, "router affinity");
                }
            }
            if let Some(a) = self.autoscale {
                let _ = writeln!(
                    s,
                    "autoscale min={} up={} down={} check={}",
                    a.min_chains,
                    num(a.scale_up_s),
                    num(a.scale_down_s),
                    a.check_jobs
                );
            }
        }
        let _ = write!(s, "run {}", self.run.engine.keyword());
        if let Some(r) = self.run.requests {
            let _ = write!(s, " requests={r}");
        }
        if let Some(t) = self.run.until_s {
            let _ = write!(s, " until t={}", num(t));
        }
        s.push('\n');
        for a in &self.assertions {
            match &a.kind {
                AssertionKind::Compare { lhs, cmp, rhs } => {
                    let _ = writeln!(
                        s,
                        "assert {} {} {}",
                        format_expr(lhs),
                        cmp.symbol(),
                        format_expr(rhs)
                    );
                }
                AssertionKind::Close {
                    value,
                    expected,
                    rtol,
                    atol,
                } => {
                    let _ = write!(
                        s,
                        "assert_close {} {}",
                        format_expr(value),
                        format_expr(expected)
                    );
                    if *rtol != 1e-9 {
                        let _ = write!(s, " rtol={}", num(*rtol));
                    }
                    if *atol != 0.0 {
                        let _ = write!(s, " atol={}", num(*atol));
                    }
                    s.push('\n');
                }
            }
        }
        s
    }

    /// Renders one assertion in canonical form (used in runner output).
    #[must_use]
    pub fn assertion_text(a: &Assertion) -> String {
        match &a.kind {
            AssertionKind::Compare { lhs, cmp, rhs } => format!(
                "assert {} {} {}",
                format_expr(lhs),
                cmp.symbol(),
                format_expr(rhs)
            ),
            AssertionKind::Close {
                value,
                expected,
                rtol,
                atol,
            } => format!(
                "assert_close {} {} rtol={} atol={}",
                format_expr(value),
                format_expr(expected),
                num(*rtol),
                num(*atol)
            ),
        }
    }
}

/// Renders a metric reference (`p99`, `tenant2.shed`, `chain0.busy`).
#[must_use]
pub fn format_metric(m: &MetricRef) -> String {
    match m.scope {
        Scope::Run => m.field.clone(),
        Scope::Tenant(i) => format!("tenant{i}.{}", m.field),
        Scope::Chain(i) => format!("chain{i}.{}", m.field),
    }
}

/// Renders an expression with explicit parentheses around every binary
/// node, so precedence never depends on the reader (or the reparser).
#[must_use]
pub fn format_expr(e: &Expr) -> String {
    match e {
        Expr::Num(v) => {
            if *v < 0.0 {
                format!("(0 - {})", num(-*v))
            } else {
                num(*v)
            }
        }
        Expr::Metric(m) => format_metric(m),
        Expr::Binary(l, op, r) => {
            format!("({} {} {})", format_expr(l), op.symbol(), format_expr(r))
        }
        Expr::Neg(inner) => format!("(0 - {})", format_expr(inner)),
    }
}
