//! Shared experiment harness regenerating every table and figure of the
//! paper's evaluation (Sec. IV), as the `reproduce` binary prints them.
//!
//! The three competitors are constructed exactly as the paper frames
//! them:
//!
//! * **RESPECT** — trained policy + `ρ` packing + repair
//!   ([`respect_core::RespectScheduler`]);
//! * **EdgeTPU compiler** — the full toolchain emulation
//!   ([`respect_tpu::EdgeTpuCompiler`]), whose `schedule()` includes the
//!   weight-processing passes the real compiler runs;
//! * **exact (ILP)** — the branch-and-bound solver
//!   ([`respect_sched::exact::ExactScheduler`]) with an optional time
//!   budget mirroring a practical ILP limit.

use std::time::{Duration, Instant};

use respect_core::model_io;
use respect_core::{train_policy, PtrNetPolicy, RespectScheduler, TrainConfig};
use respect_graph::{models, Dag};
use respect_sched::exact::ExactScheduler;
use respect_sched::ilp::IlpScheduler;
use respect_sched::{CostModel, Schedule, Scheduler};
use respect_tpu::device::DeviceSpec;
use respect_tpu::{compile, exec, EdgeTpuCompiler};

pub mod experiments;
pub mod soak;

/// Pipeline stage counts evaluated by the paper.
pub const STAGE_COUNTS: [usize; 3] = [4, 5, 6];

/// Training scale for the benchmark policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyScale {
    /// 8 graphs over 2 epochs (about 12 ms of training on a 2-vCPU
    /// Xeon VM) — enough to exercise the full pipeline.
    Quick,
    /// 160 graphs over 3 epochs (about 1 s there) — the default for
    /// reported numbers.
    Bench,
}

/// Trains the benchmark policy from its fixed seed, so every call
/// (and every commit's figures) uses the policy of the code it runs.
/// Set `RESPECT_POLICY` to a `.rspp` path to use your own.
pub fn bench_policy(scale: PolicyScale) -> PtrNetPolicy {
    if let Ok(path) = std::env::var("RESPECT_POLICY") {
        if let Ok(p) = model_io::load_policy(&path) {
            return p;
        }
        eprintln!("warning: RESPECT_POLICY at {path} unreadable; retraining");
    }
    let mut cfg = match scale {
        PolicyScale::Quick => {
            let mut c = TrainConfig::smoke_test();
            c.policy = respect_core::PolicyConfig::small(16);
            c.dataset.graphs = 8;
            c.dataset.num_nodes = 20;
            c.dataset.num_stages = 4;
            c.epochs = 2;
            c
        }
        PolicyScale::Bench => {
            let mut c = TrainConfig::laptop();
            c.policy = respect_core::PolicyConfig::small(32);
            c.dataset.graphs = 160;
            c.epochs = 3;
            c.batch_size = 16;
            c
        }
    };
    cfg.seed = 0xbe9c;
    train_policy(&cfg).expect("benchmark training")
}

/// The three schedulers of the paper's comparison, plus the ILP-style
/// solver whose solving time stands in for CPLEX in Fig. 3
/// ([`experiments::fig3`] times `ilp`).
pub struct Competitors {
    /// RESPECT (RL).
    pub respect: RespectScheduler,
    /// Commercial compiler emulation (heuristic baseline).
    pub compiler: EdgeTpuCompiler,
    /// Exact solver with heuristic warm start — fast and provably
    /// optimal in bottleneck latency; its schedule is the reference of
    /// Figs. 4 and 5.
    pub exact: ExactScheduler,
    /// Generic ILP-style branch-and-bound — the solving-time behaviour
    /// of the paper's CPLEX baseline (Fig. 3).
    pub ilp: IlpScheduler,
}

impl Competitors {
    /// Builds all competitors around the Coral device model.
    pub fn new(scale: PolicyScale, exact_budget: Duration) -> Self {
        let spec = DeviceSpec::coral();
        let model = spec.cost_model();
        Competitors {
            respect: RespectScheduler::new(bench_policy(scale)).with_cost_model(model),
            compiler: EdgeTpuCompiler::new(spec),
            exact: ExactScheduler::new(model).with_time_budget(exact_budget),
            ilp: IlpScheduler::new(model).with_time_budget(exact_budget),
        }
    }
}

/// Wall-clock of one `schedule()` call plus its result.
pub fn timed_schedule(scheduler: &dyn Scheduler, dag: &Dag, stages: usize) -> (Schedule, Duration) {
    let t0 = Instant::now();
    let schedule = scheduler
        .schedule(dag, stages)
        .expect("benchmark schedules are feasible");
    (schedule, t0.elapsed())
}

/// Simulated average per-inference runtime of a schedule (Fig. 4 metric:
/// 1 000 pipelined inferences).
pub fn simulated_inference_s(dag: &Dag, schedule: &Schedule, spec: &DeviceSpec) -> f64 {
    let pipeline = compile::compile(dag, schedule, spec).expect("valid schedule");
    exec::simulate(&pipeline, spec, 1_000)
        .expect("nonempty pipeline, nonzero inferences")
        .avg_inference_s()
}

/// Peak per-stage parameter memory in MB (Fig. 5 metric).
pub fn peak_param_mb(dag: &Dag, schedule: &Schedule, model: &CostModel) -> f64 {
    model.peak_stage_param_bytes(dag, schedule) as f64 / 1.0e6
}

/// The model suite for a run: Table I's ten models, or the quick subset.
pub fn model_suite(quick: bool) -> Vec<(&'static str, Dag)> {
    if quick {
        vec![
            ("Xception", models::xception()),
            ("ResNet50", models::resnet50()),
            ("DenseNet121", models::densenet121()),
        ]
    } else {
        models::table1()
    }
}

/// The Fig. 5 suite (12 models), or the quick subset.
pub fn fig5_suite(quick: bool) -> Vec<(&'static str, Dag)> {
    if quick {
        model_suite(true)
    } else {
        models::fig5()
    }
}
