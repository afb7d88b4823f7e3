//! Recursive-descent parser and static validator for `.scn` text.
//!
//! One pass builds the [`Scenario`] AST from the token stream; a static
//! validation pass (partly inline, partly at end-of-file) rejects
//! scenarios the engines would reject at run time — unknown models and
//! schedulers, engine-mismatched directives (`batcher` under `run sim`,
//! `chains` under `run serve`), out-of-range tenant/chain scopes,
//! unresolvable request counts — each with the exact line/column of the
//! offending directive, so a `.scn` author never sees a runtime panic
//! for a spelling mistake.

use respect_serve::{AdmissionPolicy, AutoscalePolicy, BatchPolicy, RouterPolicy};
use respect_tpu::sim::Arrivals;

use crate::ast::{
    random_shape_error, Assertion, AssertionKind, Cmp, Engine, Expr, MetricRef, ModelSpec, Op, Pos,
    RepartitionSpec, RunSpec, Scenario, SchedulerSpec, Scope, TenantSpec, MODELS,
};
use crate::exec::is_metric;
use crate::lex::{lex, Tok, Token, Unit};
use crate::ScnError;

/// Parses one `.scn` source into a validated [`Scenario`].
///
/// # Errors
///
/// [`ScnError`] with the 1-based line and column of the first lexical,
/// syntactic, or semantic offense.
pub fn parse(src: &str) -> Result<Scenario, ScnError> {
    let toks = lex(src)?;
    let last_line = toks.last().map_or(1, |t| t.line);
    Parser {
        toks,
        i: 0,
        last_line,
    }
    .scenario()
}

/// One `key=value` argument with the value's source position.
struct NumVal {
    value: f64,
    unit: Option<Unit>,
    pos: Pos,
}

impl NumVal {
    /// The value as a nonnegative integer; units and fractions rejected.
    fn int(&self, key: &str) -> Result<usize, ScnError> {
        if self.unit.is_some() || self.value.fract() != 0.0 || self.value < 0.0 {
            return Err(err(
                self.pos,
                format!("`{key}` must be a nonnegative integer"),
            ));
        }
        Ok(self.value as usize)
    }

    /// The value as a seed; same domain as [`NumVal::int`].
    fn seed(&self, key: &str) -> Result<u64, ScnError> {
        Ok(self.int(key)? as u64)
    }

    /// The value in seconds: a bare number is seconds, a unit scales.
    fn duration(&self) -> f64 {
        self.value * self.unit.map_or(1.0, Unit::seconds)
    }

    /// The value as a plain (unit-less) number.
    fn float(&self, key: &str) -> Result<f64, ScnError> {
        if self.unit.is_some() {
            return Err(err(
                self.pos,
                format!("`{key}` takes a plain number, not a duration"),
            ));
        }
        Ok(self.value)
    }
}

fn err(pos: Pos, msg: impl Into<String>) -> ScnError {
    ScnError::at(pos.line, pos.col, msg)
}

/// Engine-dependent directives recorded during the first pass and
/// checked once `run` names the engine.
enum Gate {
    /// Directive legal only under `run fleet`.
    FleetOnly(&'static str),
    /// Directive legal only under `run serve` / `run fleet`.
    ServingOnly(&'static str),
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
    last_line: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn pos_here(&self) -> Pos {
        self.peek().map_or(
            Pos {
                line: self.last_line,
                col: 1,
            },
            |t| Pos {
                line: t.line,
                col: t.col,
            },
        )
    }

    fn expect_newline(&mut self) -> Result<(), ScnError> {
        match self.bump() {
            Some(Token {
                tok: Tok::Newline, ..
            })
            | None => Ok(()),
            Some(t) => Err(ScnError::at(
                t.line,
                t.col,
                format!("expected end of line, found {}", t.tok.describe()),
            )),
        }
    }

    fn take_ident(&mut self, what: &str) -> Result<(String, Pos), ScnError> {
        let pos = self.pos_here();
        match self.bump() {
            Some(Token {
                tok: Tok::Ident(s),
                line,
                col,
            }) => Ok((s, Pos { line, col })),
            Some(t) => Err(ScnError::at(
                t.line,
                t.col,
                format!("expected {what}, found {}", t.tok.describe()),
            )),
            None => Err(err(pos, format!("expected {what}, found end of file"))),
        }
    }

    /// Reads `key=value` pairs up to end of line. Every key must be in
    /// `allowed` and appear at most once.
    fn kv_list(
        &mut self,
        directive: &str,
        allowed: &[&str],
    ) -> Result<Vec<(String, NumVal)>, ScnError> {
        let mut out: Vec<(String, NumVal)> = Vec::new();
        while let Some(t) = self.peek() {
            if t.tok == Tok::Newline {
                break;
            }
            let (key, kpos) =
                self.take_ident(&format!("a `key=value` argument of `{directive}`"))?;
            if !allowed.contains(&key.as_str()) {
                return Err(err(
                    kpos,
                    format!(
                        "unknown parameter `{key}` of `{directive}` (expected {})",
                        allowed.join(", ")
                    ),
                ));
            }
            if out.iter().any(|(k, _)| *k == key) {
                return Err(err(kpos, format!("duplicate parameter `{key}`")));
            }
            match self.bump() {
                Some(Token {
                    tok: Tok::Assign, ..
                }) => {}
                other => {
                    let (l, c, d) = describe_at(other.as_ref(), kpos);
                    return Err(ScnError::at(
                        l,
                        c,
                        format!("expected `=` after `{key}`, found {d}"),
                    ));
                }
            }
            match self.bump() {
                Some(Token {
                    tok: Tok::Number { value, unit },
                    line,
                    col,
                }) => out.push((
                    key,
                    NumVal {
                        value,
                        unit,
                        pos: Pos { line, col },
                    },
                )),
                other => {
                    let (l, c, d) = describe_at(other.as_ref(), kpos);
                    return Err(ScnError::at(
                        l,
                        c,
                        format!("expected a number for `{key}`, found {d}"),
                    ));
                }
            }
        }
        Ok(out)
    }

    fn scenario(mut self) -> Result<Scenario, ScnError> {
        let mut name: Option<String> = None;
        let mut tags: Vec<String> = Vec::new();
        let mut model: Option<(ModelSpec, Pos)> = None;
        let mut stages: Option<usize> = None;
        let mut device_seen = false;
        let mut scheduler: Option<SchedulerSpec> = None;
        let mut tenants: Vec<TenantSpec> = Vec::new();
        let mut chains: Option<(usize, Pos)> = None;
        let mut router: Option<(RouterPolicy, Pos)> = None;
        let mut autoscale: Option<(AutoscalePolicy, Pos)> = None;
        let mut bus: Option<bool> = None;
        let mut run: Option<RunSpec> = None;
        let mut assertions: Vec<Assertion> = Vec::new();
        let mut gates: Vec<(Gate, Pos)> = Vec::new();

        while let Some(tok) = self.peek().cloned() {
            let pos = Pos {
                line: tok.line,
                col: tok.col,
            };
            let Tok::Ident(kw) = &tok.tok else {
                return Err(err(
                    pos,
                    format!("expected a directive keyword, found {}", tok.tok.describe()),
                ));
            };
            let kw = kw.clone();
            if run.is_some() && !matches!(kw.as_str(), "assert" | "expect" | "assert_close") {
                return Err(err(
                    pos,
                    format!("only assertions may follow `run`, found `{kw}`"),
                ));
            }
            self.bump();
            match kw.as_str() {
                "scenario" => {
                    dup(name.is_some(), "scenario", pos)?;
                    name = Some(self.take_ident("a scenario name")?.0);
                    self.expect_newline()?;
                }
                "tag" => {
                    tags.push(self.take_ident("a tag name")?.0);
                    self.expect_newline()?;
                }
                "model" => {
                    dup(model.is_some(), "model", pos)?;
                    let (which, wpos) = self.take_ident("a model name")?;
                    let spec = if which == "random" {
                        let kv = self.kv_list("model random", &["seed", "nodes", "deg"])?;
                        let seed = req(&kv, "seed", "model random", pos)?.seed("seed")?;
                        let nodes = opt(&kv, "nodes").map_or(Ok(30), |v| v.int("nodes"))?;
                        let deg = opt(&kv, "deg").map_or(Ok(2), |v| v.int("deg"))?;
                        if let Some(msg) = random_shape_error(nodes, deg) {
                            return Err(err(pos, msg));
                        }
                        ModelSpec::Random { seed, nodes, deg }
                    } else {
                        if !MODELS.iter().any(|(name, _)| *name == which) {
                            return Err(err(
                                wpos,
                                format!(
                                    "unknown model `{which}` (known: random, {})",
                                    MODELS.map(|(name, _)| name).join(", ")
                                ),
                            ));
                        }
                        ModelSpec::Named(which)
                    };
                    model = Some((spec, pos));
                    self.expect_newline()?;
                }
                "stages" => {
                    dup(stages.is_some(), "stages", pos)?;
                    let n = self.take_number("a stage count")?.int("stages")?;
                    if n == 0 {
                        return Err(err(pos, "stages must be at least 1"));
                    }
                    stages = Some(n);
                    self.expect_newline()?;
                }
                "device" => {
                    dup(device_seen, "device", pos)?;
                    device_seen = true;
                    let (which, wpos) = self.take_ident("a device name")?;
                    if which != "coral" {
                        return Err(err(
                            wpos,
                            format!("unknown device `{which}` (only `coral` is built in)"),
                        ));
                    }
                    self.expect_newline()?;
                }
                "scheduler" => {
                    dup(scheduler.is_some(), "scheduler", pos)?;
                    let (sname, spos) = self.take_ident("a scheduler name")?;
                    let kv = self.kv_list("scheduler", &["seed", "iterations", "budget"])?;
                    scheduler = Some(SchedulerSpec {
                        name: sname,
                        seed: opt(&kv, "seed").map(|v| v.seed("seed")).transpose()?,
                        iterations: opt(&kv, "iterations")
                            .map(|v| v.int("iterations"))
                            .transpose()?,
                        budget_s: opt(&kv, "budget").map(NumVal::duration),
                        pos: spos,
                    });
                    self.expect_newline()?;
                }
                "bus" => {
                    dup(bus.is_some(), "bus", pos)?;
                    let (which, wpos) = self.take_ident("`contended` or `dedicated`")?;
                    bus = Some(match which.as_str() {
                        "contended" => true,
                        "dedicated" => false,
                        _ => {
                            return Err(err(
                                wpos,
                                format!(
                                    "unknown bus mode `{which}` (expected contended or dedicated)"
                                ),
                            ))
                        }
                    });
                    self.expect_newline()?;
                }
                "tenant" => {
                    let mut t = TenantSpec::new();
                    t.pos = pos;
                    if let Some(Token {
                        tok: Tok::Ident(_), ..
                    }) = self.peek()
                    {
                        let (tname, npos) = self.take_ident("a tenant name")?;
                        if reserved_tenant_name(&tname) {
                            return Err(err(npos, format!("tenant name `{tname}` is reserved")));
                        }
                        if tenants.iter().any(|u| u.name.as_deref() == Some(&tname)) {
                            return Err(err(npos, format!("duplicate tenant name `{tname}`")));
                        }
                        t.name = Some(tname);
                    }
                    tenants.push(t);
                    self.expect_newline()?;
                }
                "requests" | "batch" | "warmup" | "arrivals" | "batcher" | "admission"
                | "repartition" => {
                    let Some(t) = tenants.last_mut() else {
                        return Err(err(
                            pos,
                            format!("`{kw}` outside a tenant block: declare `tenant` first"),
                        ));
                    };
                    match kw.as_str() {
                        "requests" => {
                            dup(t.requests.is_some(), "requests", pos)?;
                            let n = self.take_number("a request count")?.int("requests")?;
                            if n == 0 {
                                return Err(err(pos, "serve at least one request"));
                            }
                            t.requests = Some(n);
                        }
                        "batch" => {
                            let n = self.take_number("a batch size")?.int("batch")?;
                            if n == 0 {
                                return Err(err(pos, "per-request batch size must be at least 1"));
                            }
                            t.batch = n;
                        }
                        "warmup" => {
                            t.warmup = self.take_number("a warm-up count")?.int("warmup")?;
                        }
                        "arrivals" => {
                            t.arrivals = self.parse_arrivals(pos)?;
                        }
                        "batcher" => {
                            gates.push((Gate::ServingOnly("batcher"), pos));
                            let kv = self.kv_list("batcher", &["max_batch", "max_delay"])?;
                            let max_batch =
                                req(&kv, "max_batch", "batcher", pos)?.int("max_batch")?;
                            if max_batch == 0 {
                                return Err(err(pos, "batcher max_batch must be at least 1"));
                            }
                            let max_delay = opt(&kv, "max_delay").map_or(0.0, NumVal::duration);
                            if !(max_delay >= 0.0 && max_delay.is_finite()) {
                                return Err(err(
                                    pos,
                                    "batcher max_delay must be finite and nonnegative",
                                ));
                            }
                            t.batcher = Some(BatchPolicy::new(max_batch, max_delay));
                        }
                        "admission" => {
                            gates.push((Gate::ServingOnly("admission"), pos));
                            t.admission = Some(self.parse_admission(pos)?);
                        }
                        _ => {
                            gates.push((Gate::ServingOnly("repartition"), pos));
                            let kv = self.kv_list(
                                "repartition",
                                &["window", "threshold", "max_swaps", "min_gain"],
                            )?;
                            t.repartition = Some(RepartitionSpec {
                                window: opt(&kv, "window").map(|v| v.int("window")).transpose()?,
                                threshold: opt(&kv, "threshold")
                                    .map(|v| v.float("threshold"))
                                    .transpose()?,
                                max_swaps: opt(&kv, "max_swaps")
                                    .map(|v| v.int("max_swaps"))
                                    .transpose()?,
                                min_gain: opt(&kv, "min_gain")
                                    .map(|v| v.float("min_gain"))
                                    .transpose()?,
                            });
                        }
                    }
                    self.expect_newline()?;
                }
                "chains" => {
                    dup(chains.is_some(), "chains", pos)?;
                    gates.push((Gate::FleetOnly("chains"), pos));
                    let n = self.take_number("a chain count")?.int("chains")?;
                    if n == 0 {
                        return Err(err(pos, "a fleet needs at least one chain"));
                    }
                    chains = Some((n, pos));
                    self.expect_newline()?;
                }
                "router" => {
                    dup(router.is_some(), "router", pos)?;
                    gates.push((Gate::FleetOnly("router"), pos));
                    let (which, wpos) = self.take_ident("a router policy")?;
                    let r = match which.as_str() {
                        "round-robin" => RouterPolicy::RoundRobin,
                        "shortest" => RouterPolicy::JoinShortestBacklog,
                        "affinity" => RouterPolicy::Affinity,
                        "p2c" => {
                            let kv = self.kv_list("router p2c", &["seed"])?;
                            RouterPolicy::PowerOfTwoChoices {
                                seed: req(&kv, "seed", "router p2c", pos)?.seed("seed")?,
                            }
                        }
                        _ => {
                            return Err(err(
                                wpos,
                                format!(
                                    "unknown router `{which}` (expected round-robin, shortest, p2c, or affinity)"
                                ),
                            ))
                        }
                    };
                    router = Some((r, pos));
                    self.expect_newline()?;
                }
                "autoscale" => {
                    dup(autoscale.is_some(), "autoscale", pos)?;
                    gates.push((Gate::FleetOnly("autoscale"), pos));
                    let kv = self.kv_list("autoscale", &["min", "up", "down", "check"])?;
                    let d = AutoscalePolicy::new();
                    let a = AutoscalePolicy {
                        min_chains: opt(&kv, "min").map_or(Ok(d.min_chains), |v| v.int("min"))?,
                        scale_up_s: opt(&kv, "up").map_or(d.scale_up_s, NumVal::duration),
                        scale_down_s: opt(&kv, "down").map_or(d.scale_down_s, NumVal::duration),
                        check_jobs: opt(&kv, "check")
                            .map_or(Ok(d.check_jobs), |v| v.int("check"))?,
                    };
                    if a.min_chains == 0 {
                        return Err(err(pos, "autoscale min must be at least 1"));
                    }
                    if a.check_jobs == 0 {
                        return Err(err(pos, "autoscale check must be at least 1"));
                    }
                    if a.scale_down_s > a.scale_up_s {
                        return Err(err(pos, "autoscale down must not exceed up (hysteresis)"));
                    }
                    autoscale = Some((a, pos));
                    self.expect_newline()?;
                }
                "run" => {
                    let (ename, epos) = self.take_ident("an engine (sim, serve, or fleet)")?;
                    let engine = match ename.as_str() {
                        "sim" => Engine::Sim,
                        "serve" => Engine::Serve,
                        "fleet" => Engine::Fleet,
                        _ => {
                            return Err(err(
                                epos,
                                format!("unknown engine `{ename}` (expected sim, serve, or fleet)"),
                            ))
                        }
                    };
                    let mut requests: Option<usize> = None;
                    let mut until_s: Option<f64> = None;
                    while let Some(t) = self.peek() {
                        if t.tok == Tok::Newline {
                            break;
                        }
                        let (key, kpos) = self.take_ident("`requests=` or `until t=`")?;
                        match key.as_str() {
                            "requests" => {
                                dup(requests.is_some(), "requests", kpos)?;
                                self.expect_assign("requests")?;
                                let v = self.take_number("a request count")?;
                                let n = v.int("requests")?;
                                if n == 0 {
                                    return Err(err(kpos, "serve at least one request"));
                                }
                                requests = Some(n);
                            }
                            "until" => {
                                dup(until_s.is_some(), "until", kpos)?;
                                let (tkey, tpos) = self.take_ident("`t`")?;
                                if tkey != "t" {
                                    return Err(err(
                                        tpos,
                                        format!("expected `t=` after `until`, found `{tkey}`"),
                                    ));
                                }
                                self.expect_assign("t")?;
                                let v = self.take_number("a horizon")?;
                                let horizon = v.duration();
                                if !(horizon > 0.0 && horizon.is_finite()) {
                                    return Err(err(
                                        v.pos,
                                        "until horizon must be positive and finite",
                                    ));
                                }
                                until_s = Some(horizon);
                            }
                            _ => {
                                return Err(err(
                                    kpos,
                                    format!(
                                        "unknown run argument `{key}` (expected requests or until)"
                                    ),
                                ))
                            }
                        }
                    }
                    run = Some(RunSpec {
                        engine,
                        requests,
                        until_s,
                        pos,
                    });
                    self.expect_newline()?;
                }
                "assert" | "expect" => {
                    let Some(run_ref) = run.as_ref() else {
                        return Err(err(
                            pos,
                            format!("`{kw}` before `run`: declare the run first"),
                        ));
                    };
                    let ctx = Ctx {
                        engine: run_ref.engine,
                        tenants: &tenants,
                        chains: chains.map_or(1, |(n, _)| n),
                    };
                    let lhs = self.expr(&ctx)?;
                    let cmp = self.take_cmp()?;
                    let rhs = self.expr(&ctx)?;
                    self.expect_newline()?;
                    assertions.push(Assertion {
                        kind: AssertionKind::Compare { lhs, cmp, rhs },
                        pos,
                    });
                }
                "assert_close" => {
                    let Some(run_ref) = run.as_ref() else {
                        return Err(err(
                            pos,
                            "`assert_close` before `run`: declare the run first",
                        ));
                    };
                    let ctx = Ctx {
                        engine: run_ref.engine,
                        tenants: &tenants,
                        chains: chains.map_or(1, |(n, _)| n),
                    };
                    let value = self.expr(&ctx)?;
                    let expected = self.expr(&ctx)?;
                    let kv = self.kv_list("assert_close", &["rtol", "atol"])?;
                    let rtol = opt(&kv, "rtol").map_or(Ok(1e-9), |v| v.float("rtol"))?;
                    let atol = opt(&kv, "atol").map_or(Ok(0.0), |v| v.float("atol"))?;
                    if !(rtol >= 0.0 && atol >= 0.0) {
                        return Err(err(pos, "assert_close tolerances must be nonnegative"));
                    }
                    self.expect_newline()?;
                    assertions.push(Assertion {
                        kind: AssertionKind::Close {
                            value,
                            expected,
                            rtol,
                            atol,
                        },
                        pos,
                    });
                }
                other => {
                    return Err(err(pos, format!("unknown directive `{other}`")));
                }
            }
        }

        // ---- end-of-file semantic validation ----
        let eof = Pos {
            line: self.last_line,
            col: 1,
        };
        let Some(run) = run else {
            return Err(err(eof, "scenario is missing a `run` directive"));
        };
        let Some((model, _)) = model else {
            return Err(err(run.pos, "scenario is missing a `model` directive"));
        };
        if tenants.is_empty() {
            return Err(err(run.pos, "scenario declares no tenants"));
        }
        for (gate, gpos) in &gates {
            match gate {
                Gate::FleetOnly(what) if run.engine != Engine::Fleet => {
                    return Err(err(*gpos, format!("`{what}` requires `run fleet`")));
                }
                Gate::ServingOnly(what) if run.engine == Engine::Sim => {
                    return Err(err(
                        *gpos,
                        format!("`{what}` requires `run serve` or `run fleet`"),
                    ));
                }
                _ => {}
            }
        }
        let scheduler = scheduler.unwrap_or_default();
        {
            let names = respect::deploy::registry_names();
            if !names.iter().any(|n| n == &scheduler.name) {
                return Err(err(
                    scheduler.pos,
                    format!(
                        "unknown scheduler `{}` (known: {})",
                        scheduler.name,
                        names.join(", ")
                    ),
                ));
            }
        }
        if let Some((a, apos)) = autoscale {
            if a.min_chains > chains.map_or(1, |(n, _)| n) {
                return Err(err(apos, "autoscale min exceeds the chain count"));
            }
        }
        let scenario = Scenario {
            name,
            tags,
            model,
            stages: stages.unwrap_or(4),
            scheduler,
            tenants,
            chains: chains.map_or(1, |(n, _)| n),
            router: router.map(|(r, _)| r),
            autoscale: autoscale.map(|(a, _)| a),
            contended_bus: bus.unwrap_or(false),
            run,
            assertions,
        };
        for (w, t) in scenario.tenants.iter().enumerate() {
            let n = crate::exec::effective_requests(&scenario, t).map_err(|mut e| {
                e.msg = format!("tenant {w}: {}", e.msg);
                e
            })?;
            if t.warmup >= n {
                return Err(err(
                    t.pos,
                    format!(
                        "warm-up of {} requests leaves nothing to measure out of {n}",
                        t.warmup
                    ),
                ));
            }
        }
        Ok(scenario)
    }

    fn parse_arrivals(&mut self, pos: Pos) -> Result<Arrivals, ScnError> {
        let (which, wpos) = self.take_ident("an arrival process")?;
        let arrivals = match which.as_str() {
            "closed" => Arrivals::ClosedLoop,
            "periodic" => {
                let kv = self.kv_list("arrivals periodic", &["rate"])?;
                Arrivals::Periodic {
                    rate: req(&kv, "rate", "arrivals periodic", pos)?.float("rate")?,
                }
            }
            "poisson" => {
                let kv = self.kv_list("arrivals poisson", &["rate", "seed"])?;
                Arrivals::Poisson {
                    rate: req(&kv, "rate", "arrivals poisson", pos)?.float("rate")?,
                    seed: req(&kv, "seed", "arrivals poisson", pos)?.seed("seed")?,
                }
            }
            "mmpp" => {
                let kv = self.kv_list("arrivals mmpp", &["low", "high", "dwell", "seed"])?;
                Arrivals::Mmpp {
                    low_rate: req(&kv, "low", "arrivals mmpp", pos)?.float("low")?,
                    high_rate: req(&kv, "high", "arrivals mmpp", pos)?.float("high")?,
                    mean_dwell_s: req(&kv, "dwell", "arrivals mmpp", pos)?.duration(),
                    seed: req(&kv, "seed", "arrivals mmpp", pos)?.seed("seed")?,
                }
            }
            "diurnal" => {
                let kv = self.kv_list(
                    "arrivals diurnal",
                    &["mean", "amplitude", "period", "seed"],
                )?;
                Arrivals::Diurnal {
                    mean_rate: req(&kv, "mean", "arrivals diurnal", pos)?.float("mean")?,
                    amplitude: req(&kv, "amplitude", "arrivals diurnal", pos)?
                        .float("amplitude")?,
                    period_s: req(&kv, "period", "arrivals diurnal", pos)?.duration(),
                    seed: req(&kv, "seed", "arrivals diurnal", pos)?.seed("seed")?,
                }
            }
            _ => {
                return Err(err(
                    wpos,
                    format!(
                        "unknown arrival process `{which}` (expected closed, periodic, poisson, mmpp, or diurnal)"
                    ),
                ))
            }
        };
        arrivals
            .validate()
            .map_err(|e| err(pos, format!("arrival process: {e}")))?;
        Ok(arrivals)
    }

    fn parse_admission(&mut self, pos: Pos) -> Result<AdmissionPolicy, ScnError> {
        let (which, wpos) = self.take_ident("an admission policy")?;
        match which.as_str() {
            "open" => Ok(AdmissionPolicy::Open),
            "queue" => {
                let kv = self.kv_list("admission queue", &["max_waiting"])?;
                let max_waiting =
                    req(&kv, "max_waiting", "admission queue", pos)?.int("max_waiting")?;
                if max_waiting == 0 {
                    return Err(err(pos, "admission queue max_waiting must be at least 1"));
                }
                Ok(AdmissionPolicy::QueueBound { max_waiting })
            }
            "slo" => {
                let kv = self.kv_list("admission slo", &["target"])?;
                let target_s = req(&kv, "target", "admission slo", pos)?.duration();
                if !(target_s >= 0.0 && target_s.is_finite()) {
                    return Err(err(
                        pos,
                        "admission slo target must be finite and nonnegative",
                    ));
                }
                Ok(AdmissionPolicy::SloDelay { target_s })
            }
            _ => Err(err(
                wpos,
                format!("unknown admission policy `{which}` (expected open, queue, or slo)"),
            )),
        }
    }

    fn take_number(&mut self, what: &str) -> Result<NumVal, ScnError> {
        let pos = self.pos_here();
        match self.bump() {
            Some(Token {
                tok: Tok::Number { value, unit },
                line,
                col,
            }) => Ok(NumVal {
                value,
                unit,
                pos: Pos { line, col },
            }),
            Some(t) => Err(ScnError::at(
                t.line,
                t.col,
                format!("expected {what}, found {}", t.tok.describe()),
            )),
            None => Err(err(pos, format!("expected {what}, found end of file"))),
        }
    }

    fn expect_assign(&mut self, key: &str) -> Result<(), ScnError> {
        match self.bump() {
            Some(Token {
                tok: Tok::Assign, ..
            }) => Ok(()),
            other => {
                let (l, c, d) = describe_at(other.as_ref(), self.pos_here());
                Err(ScnError::at(
                    l,
                    c,
                    format!("expected `=` after `{key}`, found {d}"),
                ))
            }
        }
    }

    fn take_cmp(&mut self) -> Result<Cmp, ScnError> {
        match self.bump() {
            Some(Token { tok, line, col }) => tok.comparison().ok_or_else(|| {
                ScnError::at(
                    line,
                    col,
                    format!("expected a comparison operator, found {}", tok.describe()),
                )
            }),
            None => Err(err(
                self.pos_here(),
                "expected a comparison operator, found end of file",
            )),
        }
    }

    // ---- assertion expressions ----

    fn expr(&mut self, ctx: &Ctx<'_>) -> Result<Expr, ScnError> {
        let mut lhs = self.term(ctx)?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Plus) => Op::Add,
                Some(Tok::Minus) => Op::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.term(ctx)?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
    }

    fn term(&mut self, ctx: &Ctx<'_>) -> Result<Expr, ScnError> {
        let mut lhs = self.factor(ctx)?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Star) => Op::Mul,
                Some(Tok::Slash) => Op::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.factor(ctx)?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
    }

    fn factor(&mut self, ctx: &Ctx<'_>) -> Result<Expr, ScnError> {
        let pos = self.pos_here();
        match self.bump() {
            Some(Token {
                tok: Tok::Minus, ..
            }) => Ok(Expr::Neg(Box::new(self.factor(ctx)?))),
            Some(Token {
                tok: Tok::LParen, ..
            }) => {
                let inner = self.expr(ctx)?;
                match self.bump() {
                    Some(Token {
                        tok: Tok::RParen, ..
                    }) => Ok(inner),
                    other => {
                        let (l, c, d) = describe_at(other.as_ref(), pos);
                        Err(ScnError::at(l, c, format!("expected `)`, found {d}")))
                    }
                }
            }
            Some(Token {
                tok: Tok::Number { value, unit },
                ..
            }) => Ok(Expr::Num(value * unit.map_or(1.0, Unit::seconds))),
            Some(Token {
                tok: Tok::Ident(first),
                line,
                col,
            }) => {
                let mpos = Pos { line, col };
                if self.peek().map(|t| &t.tok) == Some(&Tok::Dot) {
                    self.bump();
                    let (field, _) = self.take_ident("a metric name")?;
                    let scope = resolve_scope(&first, ctx, mpos)?;
                    validate_field(scope, &field, ctx, mpos)?;
                    Ok(Expr::Metric(MetricRef {
                        scope,
                        field,
                        pos: mpos,
                    }))
                } else {
                    validate_field(Scope::Run, &first, ctx, mpos)?;
                    Ok(Expr::Metric(MetricRef {
                        scope: Scope::Run,
                        field: first,
                        pos: mpos,
                    }))
                }
            }
            Some(t) => Err(ScnError::at(
                t.line,
                t.col,
                format!("expected an expression, found {}", t.tok.describe()),
            )),
            None => Err(err(pos, "expected an expression, found end of file")),
        }
    }
}

/// Assertion-resolution context: what scopes and fields exist.
struct Ctx<'a> {
    engine: Engine,
    tenants: &'a [TenantSpec],
    chains: usize,
}

fn resolve_scope(name: &str, ctx: &Ctx<'_>, pos: Pos) -> Result<Scope, ScnError> {
    if name == "run" || name == ctx.engine.keyword() {
        return Ok(Scope::Run);
    }
    if matches!(name, "sim" | "serve" | "fleet") {
        return Err(err(
            pos,
            format!(
                "scope `{name}` does not match `run {}`",
                ctx.engine.keyword()
            ),
        ));
    }
    if let Some(rest) = name.strip_prefix("tenant") {
        if let Ok(i) = rest.parse::<usize>() {
            if i >= ctx.tenants.len() {
                return Err(err(
                    pos,
                    format!(
                        "tenant index {i} out of range ({} tenants)",
                        ctx.tenants.len()
                    ),
                ));
            }
            return Ok(Scope::Tenant(i));
        }
    }
    if let Some(rest) = name.strip_prefix("chain") {
        if let Ok(i) = rest.parse::<usize>() {
            if ctx.engine != Engine::Fleet {
                return Err(err(pos, "chain metrics need `run fleet`"));
            }
            if i >= ctx.chains {
                return Err(err(
                    pos,
                    format!("chain index {i} out of range ({} chains)", ctx.chains),
                ));
            }
            return Ok(Scope::Chain(i));
        }
    }
    if let Some(i) = ctx
        .tenants
        .iter()
        .position(|t| t.name.as_deref() == Some(name))
    {
        return Ok(Scope::Tenant(i));
    }
    Err(err(pos, format!("unknown scope `{name}`")))
}

fn validate_field(scope: Scope, field: &str, ctx: &Ctx<'_>, pos: Pos) -> Result<(), ScnError> {
    if is_metric(ctx.engine, scope, field) {
        return Ok(());
    }
    let what = match scope {
        Scope::Run => "run",
        Scope::Tenant(_) => "tenant",
        Scope::Chain(_) => "chain",
    };
    Err(err(
        pos,
        format!(
            "unknown metric `{field}` ({what} scope, {} engine)",
            ctx.engine.keyword()
        ),
    ))
}

fn reserved_tenant_name(name: &str) -> bool {
    if matches!(name, "run" | "sim" | "serve" | "fleet") {
        return true;
    }
    for prefix in ["tenant", "chain"] {
        if let Some(rest) = name.strip_prefix(prefix) {
            if rest.parse::<usize>().is_ok() {
                return true;
            }
        }
    }
    false
}

fn dup(seen: bool, what: &str, pos: Pos) -> Result<(), ScnError> {
    if seen {
        Err(err(pos, format!("duplicate `{what}` directive")))
    } else {
        Ok(())
    }
}

fn opt<'a>(kv: &'a [(String, NumVal)], key: &str) -> Option<&'a NumVal> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'a>(
    kv: &'a [(String, NumVal)],
    key: &str,
    directive: &str,
    pos: Pos,
) -> Result<&'a NumVal, ScnError> {
    opt(kv, key).ok_or_else(|| err(pos, format!("`{directive}` needs `{key}=`")))
}

fn describe_at(t: Option<&Token>, fallback: Pos) -> (usize, usize, String) {
    match t {
        Some(t) => (t.line, t.col, t.tok.describe()),
        None => (fallback.line, fallback.col, "end of file".to_string()),
    }
}
