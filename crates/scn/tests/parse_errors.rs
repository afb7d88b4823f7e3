//! Every diagnostic the scenario parser can raise, pinned with its
//! exact 1-based line and column — the DSL's error surface is part of
//! its contract — plus the canonical-form property: `canonical()` is a
//! fixed point of format → parse → format, and reparsing a canonical
//! rendering reproduces the scenario (position-independent equality).

use proptest::prelude::*;
use respect_scn::ast::ModelSpec;
use respect_scn::parse;

/// Parses `src`, which must fail, and returns `(line, col, msg)`.
fn diag(src: &str) -> (usize, usize, String) {
    match parse(src) {
        Err(e) => (e.line, e.col, e.msg),
        Ok(_) => panic!("expected a parse error for:\n{src}"),
    }
}

macro_rules! pin {
    ($name:ident, $src:expr, $line:expr, $col:expr, $msg:expr) => {
        #[test]
        fn $name() {
            assert_eq!(
                diag($src),
                ($line, $col, $msg.to_string()),
                "source:\n{}",
                $src
            );
        }
    };
}

// ---- lexer diagnostics ----

pin!(
    unknown_time_unit,
    "model resnet50\ntenant\nrequests 5\nrun sim until t=3q\n",
    4,
    18,
    "unknown time unit `q` (expected s, ms, us, or ns)"
);

pin!(
    overflowing_number_in_an_assertion,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert makespan < 1e400\n",
    5,
    19,
    "number `1e400` is out of range"
);

pin!(
    overflowing_number_in_a_policy,
    "model resnet50\ntenant\nrequests 5\nchains 2\nautoscale up=1e400\nrun fleet\n",
    5,
    14,
    "number `1e400` is out of range"
);

pin!(
    unexpected_character,
    "model resnet50\ntenant @\n",
    2,
    8,
    "unexpected character `@`"
);

// ---- directive-level diagnostics ----

pin!(
    unknown_directive,
    "model resnet50\nfrobnicate 3\n",
    2,
    1,
    "unknown directive `frobnicate`"
);

pin!(
    duplicate_model,
    "model resnet50\nmodel xception\n",
    2,
    1,
    "duplicate `model` directive"
);

pin!(
    unknown_model,
    "model resnet999\n",
    1,
    7,
    "unknown model `resnet999` (known: random, xception, resnet50, resnet101, resnet152, densenet121, resnet101v2, resnet152v2, densenet169, densenet201, inception_resnet_v2, resnet50v2, inception_v3)"
);

pin!(
    random_model_needs_seed,
    "model random nodes=10\n",
    1,
    1,
    "`model random` needs `seed=`"
);

pin!(
    random_deg_out_of_range,
    "model random seed=1 deg=9\n",
    1,
    1,
    "model random deg must be in 2..=6"
);

pin!(
    tenant_directive_outside_tenant,
    "model resnet50\nrequests 10\n",
    2,
    1,
    "`requests` outside a tenant block: declare `tenant` first"
);

pin!(
    duplicate_tenant_name,
    "model resnet50\ntenant a\nrequests 1\ntenant a\n",
    4,
    8,
    "duplicate tenant name `a`"
);

pin!(
    reserved_tenant_name,
    "model resnet50\ntenant tenant0\n",
    2,
    8,
    "tenant name `tenant0` is reserved"
);

pin!(
    zero_batch,
    "model resnet50\ntenant\nbatch 0\n",
    3,
    1,
    "per-request batch size must be at least 1"
);

pin!(
    negative_requests,
    "model resnet50\ntenant\nrequests 1.5\n",
    3,
    10,
    "`requests` must be a nonnegative integer"
);

pin!(
    bad_arrival_process,
    "model resnet50\ntenant\narrivals bursty rate=3\n",
    3,
    10,
    "unknown arrival process `bursty` (expected closed, periodic, poisson, mmpp, or diurnal)"
);

pin!(
    invalid_arrival_rate,
    "model resnet50\ntenant\narrivals periodic rate=0\n",
    3,
    1,
    "arrival process: open-loop arrival rate must be positive and finite, got 0"
);

pin!(
    poisson_needs_seed,
    "model resnet50\ntenant\narrivals poisson rate=10\n",
    3,
    1,
    "`arrivals poisson` needs `seed=`"
);

pin!(
    duplicate_kv_key,
    "model resnet50\ntenant\nbatcher max_batch=4 max_batch=8\n",
    3,
    21,
    "duplicate parameter `max_batch`"
);

pin!(
    unknown_kv_key,
    "model resnet50\ntenant\nbatcher max_batch=4 delay=8\n",
    3,
    21,
    "unknown parameter `delay` of `batcher` (expected max_batch, max_delay)"
);

pin!(
    unknown_admission,
    "model resnet50\ntenant\nadmission lottery\n",
    3,
    11,
    "unknown admission policy `lottery` (expected open, queue, or slo)"
);

pin!(
    unknown_router,
    "model resnet50\ntenant\nrequests 5\nchains 2\nrouter fastest\n",
    5,
    8,
    "unknown router `fastest` (expected round-robin, shortest, p2c, or affinity)"
);

pin!(
    autoscale_hysteresis,
    "model resnet50\ntenant\nrequests 5\nchains 2\nautoscale up=1ms down=2ms\n",
    5,
    1,
    "autoscale down must not exceed up (hysteresis)"
);

pin!(
    unknown_engine,
    "model resnet50\ntenant\nrequests 5\nrun turbo\n",
    4,
    5,
    "unknown engine `turbo` (expected sim, serve, or fleet)"
);

pin!(
    directive_after_run,
    "model resnet50\ntenant\nrequests 5\nrun sim\nstages 4\n",
    5,
    1,
    "only assertions may follow `run`, found `stages`"
);

pin!(
    assert_before_run,
    "model resnet50\ntenant\nrequests 5\nassert makespan > 0\nrun sim\n",
    4,
    1,
    "`assert` before `run`: declare the run first"
);

// ---- assertion scope and metric diagnostics ----

pin!(
    metric_missing_in_engine,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert p99 > 0\n",
    5,
    8,
    "unknown metric `p99` (run scope, sim engine)"
);

pin!(
    assertion_on_missing_tenant_metric,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert tenant0.goodput > 0\n",
    5,
    8,
    "unknown metric `goodput` (tenant scope, sim engine)"
);

pin!(
    tenant_index_out_of_range,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert tenant3.requests > 0\n",
    5,
    8,
    "tenant index 3 out of range (1 tenants)"
);

pin!(
    chain_metrics_need_fleet,
    "model resnet50\ntenant\nrequests 5\nrun serve\nassert chain0.jobs > 0\n",
    5,
    8,
    "chain metrics need `run fleet`"
);

pin!(
    unknown_scope,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert nobody.requests > 0\n",
    5,
    8,
    "unknown scope `nobody`"
);

pin!(
    wrong_engine_scope,
    "model resnet50\ntenant\nrequests 5\nrun sim\nassert fleet.makespan > 0\n",
    5,
    8,
    "scope `fleet` does not match `run sim`"
);

// ---- end-of-file semantic diagnostics ----

pin!(
    missing_run,
    "model resnet50\ntenant\nrequests 5\n",
    3,
    1,
    "scenario is missing a `run` directive"
);

pin!(
    missing_model,
    "tenant\nrequests 5\nrun sim\n",
    3,
    1,
    "scenario is missing a `model` directive"
);

pin!(
    no_tenants,
    "model resnet50\nrun sim\n",
    2,
    1,
    "scenario declares no tenants"
);

pin!(
    fleet_directive_in_sim_run,
    "model resnet50\ntenant\nrequests 5\nchains 3\nrun sim\n",
    4,
    1,
    "`chains` requires `run fleet`"
);

pin!(
    serving_directive_in_sim_run,
    "model resnet50\ntenant\nrequests 5\nbatcher max_batch=4\nrun sim\n",
    4,
    1,
    "`batcher` requires `run serve` or `run fleet`"
);

pin!(
    unknown_scheduler,
    "model resnet50\nscheduler simplex\ntenant\nrequests 5\nrun sim\n",
    2,
    11,
    "unknown scheduler `simplex` (known: anneal, brute, exact, force, greedy, hu, ilp, op-balanced, param-balanced, profiling, respect)"
);

pin!(
    autoscale_min_exceeds_chains,
    "model resnet50\ntenant\nrequests 5\nchains 2\nautoscale min=3\nrun fleet\n",
    5,
    1,
    "autoscale min exceeds the chain count"
);

pin!(
    closed_loop_without_count,
    "model resnet50\ntenant\nrun sim until t=1s\n",
    2,
    1,
    "tenant 0: closed-loop tenant has no request count (give `requests` or `run requests=`)"
);

pin!(
    no_request_count_at_all,
    "model resnet50\ntenant\narrivals periodic rate=10\nrun sim\n",
    2,
    1,
    "tenant 0: tenant has no request count (give `requests`, `run requests=`, or `run until t=`)"
);

pin!(
    warmup_eats_everything,
    "model resnet50\ntenant\nrequests 5\nwarmup 5\nrun sim\n",
    2,
    1,
    "warm-up of 5 requests leaves nothing to measure out of 5"
);

// ---- interpreter diagnostics on hand-built scenarios ----

#[test]
fn hand_built_models_the_parser_refuses_are_errors_at_the_run_directive() {
    let mut s = parse("model resnet50\ntenant\nrequests 5\nrun sim\n").unwrap();
    let random = |nodes, deg| ModelSpec::Random {
        seed: 1,
        nodes,
        deg,
    };
    for (model, msg) in [
        (
            ModelSpec::Named("resnet999".into()),
            "unknown model `resnet999`",
        ),
        (random(12, 9), "model random deg must be in 2..=6"),
        (random(0, 3), "model random needs at least 1 node"),
    ] {
        s.model = model;
        let expected = (4, 1, msg.to_string());
        let e = s.dag().expect_err("the parser would not admit this model");
        assert_eq!((e.line, e.col, e.msg), expected);
        let e = s.execute().expect_err("execution builds the same graph");
        assert_eq!((e.line, e.col, e.msg), expected);
    }
}

// ---- canonical form: format → parse → format is a fixed point ----

const MODELS: [&str; 4] = ["resnet50", "xception", "densenet121", "inception_v3"];
const SCHEDULERS: [&str; 4] = ["param-balanced", "op-balanced", "greedy", "exact"];

/// Serving-policy draws of one generated scenario: the batcher,
/// admission, router and autoscale values the canonical form prints
/// from the engines' own policy types.
struct Policies {
    max_batch: usize,
    max_delay: f64,
    /// 0 open, 1 queue, 2 slo (admission is present when `extras & 32`).
    admission_i: usize,
    max_waiting: usize,
    slo_target: f64,
    /// 0 round-robin, 1 shortest, 2 p2c, 3 affinity.
    router_i: usize,
    p2c_seed: u64,
    /// Clamped to the chain count.
    autoscale_min: usize,
    up: f64,
    /// `down = up × down_frac`, so the hysteresis check holds.
    down_frac: f64,
    check: usize,
}

/// Builds a syntactically valid scenario source from draw parameters.
#[allow(clippy::too_many_arguments)]
fn build_source(
    model_i: usize,
    sched_i: usize,
    stages: usize,
    tenants: usize,
    engine_i: usize,
    arr_i: usize,
    rate: f64,
    chains: usize,
    extras: u64,
    p: &Policies,
) -> String {
    let mut s = String::new();
    s.push_str("scenario generated\n");
    if extras & 1 != 0 {
        s.push_str("tag slow\n");
    }
    if extras & 2 != 0 {
        s.push_str(&format!(
            "model random seed={} nodes=12 deg=3\n",
            extras % 97
        ));
    } else {
        s.push_str(&format!("model {}\n", MODELS[model_i]));
    }
    s.push_str(&format!("stages {stages}\n"));
    s.push_str(&format!("scheduler {}", SCHEDULERS[sched_i]));
    if extras & 4 != 0 {
        s.push_str(" seed=9 iterations=50");
    }
    s.push('\n');
    if extras & 8 != 0 {
        s.push_str("bus contended\n");
    }
    let engine = ["sim", "serve", "fleet"][engine_i];
    for t in 0..tenants {
        s.push_str(&format!("tenant t{t}\n"));
        s.push_str(&format!("requests {}\n", 40 + 10 * t));
        if t % 2 == 1 {
            s.push_str("batch 2\nwarmup 3\n");
        }
        match arr_i {
            0 => {}
            1 => s.push_str(&format!("arrivals periodic rate={rate}\n")),
            2 => s.push_str(&format!("arrivals poisson rate={rate} seed={t}\n")),
            3 => s.push_str(&format!(
                "arrivals mmpp low={rate} high={} dwell=0.25 seed=4\n",
                rate * 3.0
            )),
            _ => s.push_str(&format!(
                "arrivals diurnal mean={rate} amplitude=0.5 period=2 seed=5\n"
            )),
        }
        if engine_i > 0 {
            if extras & 16 != 0 {
                s.push_str(&format!(
                    "batcher max_batch={} max_delay={}\n",
                    p.max_batch, p.max_delay
                ));
            }
            if extras & 32 != 0 {
                s.push_str(&match p.admission_i {
                    0 => "admission open\n".to_string(),
                    1 => format!("admission queue max_waiting={}\n", p.max_waiting),
                    _ => format!("admission slo target={}\n", p.slo_target),
                });
            }
            if extras & 64 != 0 {
                s.push_str("repartition window=32 threshold=0.07\n");
            }
        }
    }
    if engine_i == 2 {
        s.push_str(&format!("chains {chains}\n"));
        s.push_str(&match p.router_i {
            0 => "router round-robin\n".to_string(),
            1 => "router shortest\n".to_string(),
            2 => format!("router p2c seed={}\n", p.p2c_seed),
            _ => "router affinity\n".to_string(),
        });
        if extras & 128 != 0 {
            s.push_str(&format!(
                "autoscale min={} up={} down={} check={}\n",
                p.autoscale_min.min(chains),
                p.up,
                p.up * p.down_frac,
                p.check
            ));
        }
    }
    s.push_str(&format!("run {engine}\n"));
    s.push_str("assert stages >= 1\n");
    s.push_str("assert tenant0.requests + 1 > 0\n");
    s.push_str("assert_close obj obj rtol=0.001\n");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_is_a_fixed_point_of_format_parse_format(
        model_i in 0usize..4,
        sched_i in 0usize..4,
        stages in 2usize..6,
        tenants in 1usize..4,
        engine_i in 0usize..3,
        arr_i in 0usize..5,
        rate in 5.0f64..400.0,
        chains in 1usize..5,
        extras in 0u64..256,
        max_batch in 1usize..33,
        max_delay in 0.0f64..0.01,
        admission_i in 0usize..3,
        max_waiting in 1usize..10_000,
        slo_target in 0.0f64..0.5,
        router_i in 0usize..4,
        p2c_seed in 0u64..1 << 53,
        autoscale_min in 1usize..5,
        up in 1e-4f64..1.0,
        down_frac in 0.0f64..=1.0,
        check in 1usize..64,
    ) {
        let policies = Policies {
            max_batch,
            max_delay,
            admission_i,
            max_waiting,
            slo_target,
            router_i,
            p2c_seed,
            autoscale_min,
            up,
            down_frac,
            check,
        };
        let src = build_source(
            model_i, sched_i, stages, tenants, engine_i, arr_i, rate, chains, extras, &policies,
        );
        let s1 = parse(&src).expect("generated source must parse");
        let c1 = s1.canonical();
        let s2 = parse(&c1).expect("canonical form must reparse");
        prop_assert_eq!(&s1, &s2, "reparsed canonical differs from original AST");
        let c2 = s2.canonical();
        prop_assert_eq!(&c1, &c2, "canonical is not a fixed point");
    }
}
