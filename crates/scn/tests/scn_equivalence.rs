//! The DSL's load-bearing guarantee: a `.scn`-driven run is **bitwise
//! identical** to its hand-wired twin (a `Deployment` plus a direct
//! engine call), across a property grid of sim, serve, and fleet
//! configurations; fleet runs draw every router and an optional
//! autoscaler. `PartialEq` on the engine reports compares every `f64`
//! field, so any divergence in how the interpreter assembles workloads,
//! policies, or configs fails loudly here.

use proptest::prelude::*;
use respect::deploy::Deployment;
use respect::serve::{
    serve, serve_fleet, AdmissionPolicy, AutoscalePolicy, BatchPolicy, FleetConfig, RouterPolicy,
    ServeConfig, ServeTenant,
};
use respect::tpu::sim::{self, Arrivals, SimConfig, Workload};
use respect_scn::{parse, RunOutput};

const MODELS: [&str; 2] = ["resnet50", "xception"];
const SCHEDULERS: [&str; 3] = ["param-balanced", "op-balanced", "greedy"];

struct Params {
    model_i: usize,
    sched_i: usize,
    stages: usize,
    tenants: usize,
    requests: usize,
    arr_i: usize,
    rate: f64,
    engine_i: usize,
    chains: usize,
    router: Option<RouterPolicy>,
    autoscale: Option<AutoscalePolicy>,
    contended: bool,
    batcher: bool,
    admission: bool,
}

impl Params {
    fn arrivals(&self, t: usize) -> Arrivals {
        match self.arr_i {
            0 => Arrivals::ClosedLoop,
            1 => Arrivals::Periodic { rate: self.rate },
            2 => Arrivals::Poisson {
                rate: self.rate,
                seed: 40 + t as u64,
            },
            _ => Arrivals::Mmpp {
                low_rate: self.rate,
                high_rate: self.rate * 4.0,
                mean_dwell_s: 0.2,
                seed: 9,
            },
        }
    }

    /// The scenario as `.scn` text.
    fn source(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("model {}\n", MODELS[self.model_i]));
        s.push_str(&format!("stages {}\n", self.stages));
        s.push_str(&format!("scheduler {}\n", SCHEDULERS[self.sched_i]));
        if self.contended {
            s.push_str("bus contended\n");
        }
        for t in 0..self.tenants {
            s.push_str("tenant\n");
            s.push_str(&format!("requests {}\n", self.requests + 7 * t));
            if t % 2 == 1 {
                s.push_str("batch 2\n");
            }
            match self.arrivals(t) {
                Arrivals::ClosedLoop => {}
                Arrivals::Periodic { rate } => {
                    s.push_str(&format!("arrivals periodic rate={rate}\n"));
                }
                Arrivals::Poisson { rate, seed } => {
                    s.push_str(&format!("arrivals poisson rate={rate} seed={seed}\n"));
                }
                Arrivals::Mmpp {
                    low_rate,
                    high_rate,
                    mean_dwell_s,
                    seed,
                } => {
                    s.push_str(&format!(
                        "arrivals mmpp low={low_rate} high={high_rate} dwell={mean_dwell_s} seed={seed}\n"
                    ));
                }
                Arrivals::Diurnal { .. } => unreachable!("not generated"),
            }
            if self.engine_i > 0 {
                if self.batcher {
                    s.push_str("batcher max_batch=4 max_delay=0.002\n");
                }
                if self.admission {
                    s.push_str("admission queue max_waiting=12\n");
                }
            }
        }
        if self.engine_i == 2 {
            s.push_str(&format!("chains {}\n", self.chains));
            match self.router {
                None => {}
                Some(RouterPolicy::RoundRobin) => s.push_str("router round-robin\n"),
                Some(RouterPolicy::JoinShortestBacklog) => s.push_str("router shortest\n"),
                Some(RouterPolicy::PowerOfTwoChoices { seed }) => {
                    s.push_str(&format!("router p2c seed={seed}\n"));
                }
                Some(RouterPolicy::Affinity) => s.push_str("router affinity\n"),
            }
            if let Some(a) = self.autoscale {
                s.push_str(&format!(
                    "autoscale min={} up={} down={} check={}\n",
                    a.min_chains, a.scale_up_s, a.scale_down_s, a.check_jobs
                ));
            }
        }
        s.push_str(&format!(
            "run {}\n",
            ["sim", "serve", "fleet"][self.engine_i]
        ));
        s
    }

    /// The same configuration, hand-wired: the fluent facade schedules
    /// and compiles, the engine is called directly.
    fn hand_wired(&self) -> RunOutput {
        let dag = match MODELS[self.model_i] {
            "resnet50" => respect::graph::models::resnet50(),
            _ => respect::graph::models::xception(),
        };
        let d = Deployment::of(&dag)
            .stages(self.stages)
            .partitioner(SCHEDULERS[self.sched_i])
            .build()
            .expect("hand-wired deployment must build");
        match self.engine_i {
            0 => {
                let workloads: Vec<Workload> = (0..self.tenants)
                    .map(|t| {
                        let mut w = Workload::new(d.pipeline().clone(), self.requests + 7 * t)
                            .with_arrivals(self.arrivals(t));
                        if t % 2 == 1 {
                            w = w.with_batch(2);
                        }
                        w
                    })
                    .collect();
                let cfg = if self.contended {
                    SimConfig::contended()
                } else {
                    SimConfig::uncontended()
                };
                RunOutput::Sim(sim::run(&workloads, d.device(), &cfg).unwrap())
            }
            engine => {
                let tenants: Vec<ServeTenant> = (0..self.tenants)
                    .map(|t| {
                        let mut st = ServeTenant::new(d.pipeline().clone(), self.requests + 7 * t)
                            .with_arrivals(self.arrivals(t));
                        if t % 2 == 1 {
                            st = st.with_batch(2);
                        }
                        if self.batcher {
                            st = st.with_batcher(BatchPolicy::new(4, 0.002));
                        }
                        if self.admission {
                            st = st.with_admission(AdmissionPolicy::QueueBound { max_waiting: 12 });
                        }
                        st
                    })
                    .collect();
                if engine == 1 {
                    let cfg = if self.contended {
                        ServeConfig::contended()
                    } else {
                        ServeConfig::uncontended()
                    };
                    RunOutput::Serve(serve(&tenants, d.device(), &cfg).unwrap())
                } else {
                    // no `router` line routes round-robin
                    let mut cfg = FleetConfig::homogeneous(self.chains, *d.device())
                        .with_router(self.router.unwrap_or(RouterPolicy::RoundRobin));
                    if let Some(a) = self.autoscale {
                        cfg = cfg.with_autoscale(a);
                    }
                    if self.contended {
                        cfg = cfg.with_contended_bus();
                    }
                    RunOutput::Fleet(serve_fleet(&tenants, &cfg).unwrap())
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scn_runs_are_bitwise_the_hand_wired_twin(
        model_i in 0usize..2,
        sched_i in 0usize..3,
        stages in 2usize..5,
        tenants in 1usize..3,
        requests in 20usize..120,
        arr_i in 0usize..4,
        rate in 20.0f64..300.0,
        engine_i in 0usize..3,
        chains in 1usize..4,
        router_i in 0usize..5,
        router_seed in 0u64..1 << 20,
        autoscale_u in 0usize..2,
        min_chains in 1usize..4,
        scale_up_s in 0.001f64..0.2,
        down_frac in 0.0f64..1.0,
        check_jobs in 1usize..32,
        flags in 0u64..8,
    ) {
        let router = match router_i {
            0 => Some(RouterPolicy::RoundRobin),
            1 => Some(RouterPolicy::JoinShortestBacklog),
            2 => Some(RouterPolicy::PowerOfTwoChoices { seed: router_seed }),
            3 => Some(RouterPolicy::Affinity),
            _ => None,
        };
        // the parser admits min <= chains and down <= up
        let autoscale = (autoscale_u == 1).then(|| AutoscalePolicy {
            min_chains: min_chains.min(chains),
            scale_up_s,
            scale_down_s: scale_up_s * down_frac,
            check_jobs,
        });
        let p = Params {
            model_i,
            sched_i,
            stages,
            tenants,
            requests,
            arr_i,
            rate,
            engine_i,
            chains,
            router,
            autoscale,
            contended: flags & 1 != 0,
            batcher: flags & 2 != 0,
            admission: flags & 4 != 0,
        };
        let src = p.source();
        let scn = parse(&src).expect("generated scenario must parse");
        let run = scn.execute().expect("scenario must execute");
        let hand = p.hand_wired();
        match (&run.output, &hand) {
            (RunOutput::Sim(a), RunOutput::Sim(b)) => prop_assert_eq!(a, b),
            (RunOutput::Serve(a), RunOutput::Serve(b)) => prop_assert_eq!(a, b),
            (RunOutput::Fleet(a), RunOutput::Fleet(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "engine mismatch"),
        }
    }
}
