//! `schedule`: every Table I model at 4, 5 and 6 stages, scheduled by
//! RESPECT (a policy trained in set-up), the exact solver and the
//! op-balancing compiler partitioner; every schedule compiled and run
//! through `exec::simulate` for 1 000 inferences.

use respect_core::embedding::embed;
use respect_core::scheduler::legalize_sequence;
use respect_core::{train_policy, DecodeMode, RespectScheduler};
use respect_graph::{models, Dag};
use respect_sched::balanced::OpBalanced;
use respect_sched::exact::{ExactScheduler, ExactSolution};
use respect_sched::repair::{repair, RepairConfig};
use respect_sched::{pack, CostModel, Schedule, Scheduler};
use respect_tpu::{compile, exec, DeviceSpec, InferenceReport};

use crate::trace::Tracer;
use crate::util::{close, geomean, Checks, Fingerprint};
use crate::{train, Outcome, Workload};

/// Pipelined inferences simulated per schedule (the Fig. 4 stream).
const INFERENCES: usize = 1_000;

struct Instance {
    name: &'static str,
    dag: Dag,
    stages: usize,
}

/// One instance's three schedules and their simulated runs.
struct Solved {
    respect: Schedule,
    exact: ExactSolution,
    op_balanced: Schedule,
    /// `exec::simulate` of RESPECT, exact, op-balanced, in that order.
    runs: [InferenceReport; 3],
    pipelines: [respect_tpu::CompiledPipeline; 3],
}

pub struct ScheduleWorkload {
    spec: DeviceSpec,
    model: CostModel,
    respect: RespectScheduler,
    exact: ExactScheduler,
    /// Table I × {4, 5, 6} stages, in an order drawn from the seed.
    instances: Vec<Instance>,
    /// RESPECT schedules of the last untraced pass, in instance order.
    last_respect: Vec<Schedule>,
}

/// Splitmix64 step: a tiny deterministic generator for the instance order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload for ScheduleWorkload {
    fn setup(seed: u64) -> Self {
        // The policy is trained here, from the fixed benchmark seed, and
        // never loaded from a cache or the environment: each commit
        // measures its own training code.
        let policy = train_policy(&train::config(train::POLICY_SEED)).expect("benchmark training");
        let spec = DeviceSpec::coral();
        let model = spec.cost_model();
        let mut instances: Vec<Instance> = models::table1()
            .into_iter()
            .flat_map(|(name, dag)| {
                [4, 5, 6].map(|stages| Instance {
                    name,
                    dag: dag.clone(),
                    stages,
                })
            })
            .collect();
        let mut state = seed;
        for i in (1..instances.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            instances.swap(i, j);
        }
        ScheduleWorkload {
            spec,
            model,
            respect: RespectScheduler::new(policy).with_cost_model(model),
            exact: ExactScheduler::new(model),
            instances,
            last_respect: Vec::new(),
        }
    }

    fn run(&mut self, checks: &mut Checks) -> Outcome {
        let mut respect_s = 0.0;
        let mut exact_s = 0.0;
        let mut parts_s = Vec::with_capacity(self.instances.len());
        let mut solved = Vec::with_capacity(self.instances.len());
        for inst in &self.instances {
            let t0 = std::time::Instant::now();
            let t = std::time::Instant::now();
            let respect = self
                .respect
                .schedule(&inst.dag, inst.stages)
                .expect("RESPECT schedules");
            respect_s += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let exact = self
                .exact
                .solve(&inst.dag, inst.stages)
                .expect("exact solves");
            exact_s += t.elapsed().as_secs_f64();
            let op_balanced = OpBalanced::new()
                .schedule(&inst.dag, inst.stages)
                .expect("op-balanced schedules");
            let pipelines = [&respect, &exact.schedule, &op_balanced].map(|s| {
                compile::compile(&inst.dag, s, &self.spec).expect("valid schedules compile")
            });
            let runs = pipelines
                .each_ref()
                .map(|p| exec::simulate(p, &self.spec, INFERENCES).expect("nonempty pipeline"));
            parts_s.push(t0.elapsed().as_secs_f64());
            solved.push(Solved {
                respect,
                exact,
                op_balanced,
                runs,
                pipelines,
            });
        }

        let mut gaps = Vec::new();
        let mut speedups = Vec::new();
        for (inst, s) in self.instances.iter().zip(&solved) {
            self.check(inst, s, checks);
            let opt = s.exact.objective;
            gaps.push((self.model.objective(&inst.dag, &s.respect) - opt) / opt * 100.0);
            speedups.push(s.runs[2].avg_inference_s() / s.runs[0].avg_inference_s());
        }
        self.last_respect = solved.into_iter().map(|s| s.respect).collect();
        Outcome {
            parts_s,
            metrics: vec![
                ("respect_solve_s", respect_s),
                ("exact_solve_s", exact_s),
                (
                    "respect_gap_pct",
                    gaps.iter().sum::<f64>() / gaps.len() as f64,
                ),
                ("respect_speedup_vs_compiler", geomean(&speedups)),
            ],
        }
    }

    fn run_traced(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Outcome {
        let policy = self.respect.policy();
        let model = *self.respect.cost_model();
        let mut nodes = 0usize;
        let mut states = 0u64;
        let mut parts_s = Vec::with_capacity(self.instances.len());
        for (i, inst) in self.instances.iter().enumerate() {
            let t0 = std::time::Instant::now();
            let (dag, k) = (&inst.dag, inst.stages);
            // RESPECT's `schedule`, call by call: embed, greedy decode,
            // legalize (together `predict_sequence`), ρ packing, repair.
            let respect = tr.span("respect.schedule", |tr| {
                let feats = tr.span("core.embed", |_| embed(dag, &policy.config().embedding));
                let pi = tr.span("core.decode", |_| {
                    policy.decode(dag, &feats, &mut DecodeMode::Greedy)
                });
                let pi = tr.span("core.legalize", |_| legalize_sequence(dag, &pi));
                let (packed, _) = tr.span("sched.pack", |_| pack::pack(dag, &pi, k, &model));
                tr.span("sched.repair", |_| {
                    repair(dag, packed.stage_of(), k, RepairConfig::default())
                })
            });
            let respect = respect.expect("RESPECT schedules");
            nodes += dag.len();
            let exact = tr
                .span("sched.exact", |_| self.exact.solve(dag, k))
                .expect("exact solves");
            states += exact.states_explored;
            let op_balanced = tr
                .span("sched.op_balanced", |_| OpBalanced::new().schedule(dag, k))
                .expect("op-balanced schedules");
            for s in [&respect, &exact.schedule, &op_balanced] {
                let p = tr
                    .span("tpu.compile", |_| compile::compile(dag, s, &self.spec))
                    .expect("valid schedules compile");
                tr.span("tpu.simulate", |_| {
                    exec::simulate(&p, &self.spec, INFERENCES)
                })
                .expect("nonempty pipeline");
            }
            parts_s.push(t0.elapsed().as_secs_f64());
            checks.check(self.last_respect.get(i) == Some(&respect), || {
                format!(
                    "{} @{k}: repair(pack(predict_sequence)) differs from schedule()",
                    inst.name
                )
            });
        }
        let decode_s = tr.self_s("core.decode");
        let exact_s = tr.self_s("sched.exact");
        Outcome {
            parts_s,
            metrics: vec![
                ("core.embed_s", tr.self_s("core.embed")),
                ("core.decode_s", decode_s),
                ("core.decode_nodes_per_s", nodes as f64 / decode_s),
                ("sched.pack_s", tr.self_s("sched.pack")),
                ("sched.repair_s", tr.self_s("sched.repair")),
                ("sched.exact_s", exact_s),
                ("sched.exact_states", states as f64),
                ("sched.exact_states_per_s", states as f64 / exact_s),
            ],
        }
    }

    fn fingerprints(&self) -> Vec<(&'static str, String)> {
        // canonical (model, stages) order, whatever order the seed drew
        let mut order: Vec<usize> = (0..self.instances.len()).collect();
        order.sort_by_key(|&i| (self.instances[i].name, self.instances[i].stages));
        let mut fp = Fingerprint::new();
        for i in order {
            if let Some(s) = self.last_respect.get(i) {
                fp.usizes(s.stage_of());
            }
        }
        vec![("respect_schedules", fp.hex())]
    }
}

impl ScheduleWorkload {
    fn check(&self, inst: &Instance, s: &Solved, checks: &mut Checks) {
        let (dag, k, name) = (&inst.dag, inst.stages, inst.name);
        for (who, sched) in [
            ("RESPECT", &s.respect),
            ("exact", &s.exact.schedule),
            ("op-balanced", &s.op_balanced),
        ] {
            checks.check(sched.is_valid(dag) && sched.num_stages() == k, || {
                format!("{name} @{k}: {who} schedule is invalid")
            });
        }
        let opt = s.exact.objective;
        checks.check(s.exact.proven_optimal, || {
            format!("{name} @{k}: exact result not proven optimal")
        });
        let slack = 1e-12 * opt.abs();
        for (who, sched) in [("RESPECT", &s.respect), ("op-balanced", &s.op_balanced)] {
            let obj = self.model.objective(dag, sched);
            checks.check(opt <= obj + slack, || {
                format!("{name} @{k}: exact {opt} > {who} {obj}")
            });
        }
        let lb = self.model.lower_bound(dag, k);
        checks.check(opt + slack >= lb, || {
            format!("{name} @{k}: exact {opt} below lower bound {lb}")
        });
        for (p, run) in s.pipelines.iter().zip(&s.runs) {
            let oracle = exec::analytic(p, &self.spec, INFERENCES).expect("analytic oracle");
            let ok = close(run.total_s, oracle.total_s, 1e-9)
                && close(run.first_latency_s, oracle.first_latency_s, 1e-9)
                && close(run.throughput_ips, oracle.throughput_ips, 1e-9);
            checks.check(ok, || {
                format!(
                    "{name} @{k}: simulate {} s vs analytic {} s",
                    run.total_s, oracle.total_s
                )
            });
        }
    }
}
