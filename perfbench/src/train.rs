//! `train`: REINFORCE training of the pointer-network policy at the
//! benchmark scale. Set-up is `Trainer::new`: the exact solver labels the
//! teacher set (about three quarters of training time). Each pass is one
//! `Trainer::run` (batched rollouts, backward, Adam) on that trainer. No
//! discrete-event simulation runs.

use respect_core::dataset::TeacherDataset;
use respect_core::embedding::embed;
use respect_core::reward::sequence_reward;
use respect_core::{DecodeMode, PolicyConfig, PtrNetPolicy, TrainConfig, Trainer};
use respect_graph::{topo, Dag, SyntheticConfig, SyntheticSampler};
use respect_nn::optim::{Adam, Optimizer};
use respect_nn::tape::Tape;
use respect_nn::Matrix;

use crate::trace::Tracer;
use crate::util::{timed, Checks, Fingerprint};
use crate::{Outcome, Workload};

/// Sampling seed of the benchmark training config (`--seed 0`).
pub const POLICY_SEED: u64 = 0xbe9c;

/// The benchmark training config: 160 synthetic 30-node graphs of
/// in-degree 2–6 labelled by the exact solver, hidden size 32, 3 epochs
/// of batch 16, greedy-rollout baseline, one worker thread.
pub fn config(seed: u64) -> TrainConfig {
    let mut c = TrainConfig::laptop();
    c.policy = PolicyConfig::small(32);
    c.dataset.graphs = 160;
    c.epochs = 3;
    c.batch_size = 16;
    c.seed = seed;
    c.num_threads = 1;
    c
}

/// Gradient steps per epoch.
fn steps_per_epoch(c: &TrainConfig) -> usize {
    c.dataset.graphs.div_ceil(c.batch_size)
}

pub struct Train {
    config: TrainConfig,
    /// The graphs the teacher set is drawn from, sampled as the dataset
    /// config prescribes (one sampler per degree class, round robin).
    graphs: Vec<Dag>,
    /// Built by set-up; every pass trains it for `config.epochs` more.
    trainer: Trainer,
    /// Wall time of the `Trainer::new` that built `trainer`.
    new_s: f64,
    /// Reward and policy after the first pass: 3 epochs from the
    /// initial weights, the policy `train_policy` would return.
    first: Option<(f64, Fingerprint)>,
    inputs_fp: Fingerprint,
    teacher_fp: Option<Fingerprint>,
}

fn sample_graphs(c: &TrainConfig) -> Vec<Dag> {
    let d = &c.dataset;
    let mut samplers: Vec<SyntheticSampler> = d
        .degrees
        .iter()
        .enumerate()
        .map(|(i, &deg)| {
            let cfg = SyntheticConfig {
                num_nodes: d.num_nodes,
                max_in_degree: deg,
                ..SyntheticConfig::default()
            };
            SyntheticSampler::new(cfg, d.seed.wrapping_add(i as u64))
        })
        .collect();
    let classes = samplers.len();
    (0..d.graphs)
        .map(|i| samplers[i % classes].sample())
        .collect()
}

impl Workload for Train {
    fn setup(seed: u64) -> Self {
        let config = config(POLICY_SEED.wrapping_add(seed));
        let graphs = sample_graphs(&config);
        let mut inputs_fp = Fingerprint::new();
        inputs_fp.u64(config.seed);
        for g in &graphs {
            inputs_fp.debug(g);
        }
        let (trainer, new_s) = timed(|| Trainer::new(config.clone()));
        Train {
            trainer: trainer.expect("benchmark teacher set generates"),
            new_s,
            config,
            graphs,
            first: None,
            inputs_fp,
            teacher_fp: None,
        }
    }

    fn run(&mut self, checks: &mut Checks) -> Outcome {
        let before = self.trainer.report().batch_rewards.len();
        let (trained, run_s) = timed(|| self.trainer.run());
        trained.expect("training runs");
        let report = self.trainer.report();
        let steps = report.batch_rewards.len() - before;
        let expected = self.config.epochs * steps_per_epoch(&self.config);
        checks.check(steps == expected, || {
            format!("{steps} train steps, expected {expected}")
        });
        for (i, r) in report.batch_rewards[before..].iter().enumerate() {
            checks.check(r.is_finite() && (0.0..=1.0 + 1e-9).contains(r), || {
                format!("batch {i} mean reward {r} outside [0, 1]")
            });
        }
        let params = self.trainer.policy().params();
        checks.check(
            params
                .iter()
                .all(|(_, m)| m.as_slice().iter().all(|x| x.is_finite())),
            || "trained parameters are not finite".into(),
        );
        let (reward, _) = *self.first.get_or_insert_with(|| {
            let mut fp = Fingerprint::new();
            for (name, m) in params.iter() {
                fp.bytes(name.as_bytes());
                for x in m.as_slice() {
                    fp.bytes(&x.to_bits().to_le_bytes());
                }
            }
            (report.late_mean(steps_per_epoch(&self.config)), fp)
        });
        Outcome {
            parts_s: vec![run_s],
            metrics: vec![("train_s", self.new_s + run_s), ("train_reward", reward)],
        }
    }

    fn run_traced(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Outcome {
        let cfg = self.config.clone();
        let before = self.trainer.report().batch_rewards.len();
        tr.span("core.sgd", |_| self.trainer.run())
            .expect("training runs");
        let wall_s = tr.total_s("core.sgd");
        let steps = self.trainer.report().batch_rewards.len() - before;

        // Outside the compared window: the teacher labelling that set-up's
        // `Trainer::new` performs, called on its own, and one epoch of the
        // training step replayed call by call.
        let teacher = tr
            .span("core.teacher", |_| {
                TeacherDataset::generate(&cfg.dataset, &cfg.cost_model)
            })
            .expect("benchmark teacher set generates");
        let mut fp = Fingerprint::new();
        for (i, ex) in teacher.examples.iter().enumerate() {
            checks.check(ex.dag == self.graphs[i], || {
                format!("teacher graph {i} differs from the set-up input")
            });
            checks.check(ex.teacher.is_valid(&ex.dag), || {
                format!("teacher label {i} is invalid")
            });
            checks.check(topo::is_topological_order(&ex.dag, &ex.gamma), || {
                format!("teacher sequence {i} is not topological")
            });
            fp.usizes(ex.teacher.stage_of());
        }
        self.teacher_fp = Some(fp);
        tr.span("core.epoch_replay", |tr| {
            replay_epoch(tr, &cfg, &teacher, checks)
        });

        let teacher_s = tr.self_s("core.teacher");
        Outcome {
            parts_s: vec![wall_s],
            metrics: vec![
                ("core.teacher_s", teacher_s),
                (
                    "core.teacher_graphs_per_s",
                    teacher.len() as f64 / teacher_s,
                ),
                ("core.sgd_s", tr.total_s("core.sgd")),
                ("core.train_steps", steps as f64),
                ("core.rollout_s", tr.self_s("core.rollout")),
                ("nn.backward_s", tr.self_s("nn.backward")),
                ("core.decode_batch_s", tr.self_s("core.decode_batch")),
            ],
        }
    }

    fn fingerprints(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![("train_inputs", self.inputs_fp.hex())];
        if let Some((_, fp)) = &self.first {
            out.push(("trained_policy", fp.hex()));
        }
        if let Some(fp) = &self.teacher_fp {
            out.push(("teacher_labels", fp.hex()));
        }
        out
    }
}

/// One epoch of REINFORCE from a fresh policy, through the public layer
/// calls a training step makes: embed, batched sampled rollout on a tape,
/// rewards, greedy batched decode (the baseline), backward, Adam.
fn replay_epoch(tr: &mut Tracer, cfg: &TrainConfig, teacher: &TeacherDataset, checks: &mut Checks) {
    let mut policy = PtrNetPolicy::new(cfg.policy);
    let mut adam = Adam::new(cfg.learning_rate);
    for (step, batch) in teacher.examples.chunks(cfg.batch_size).enumerate() {
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let feats: Vec<Matrix> = tr.span("core.embed", |_| {
            batch
                .iter()
                .map(|ex| embed(&ex.dag, &cfg.policy.embedding))
                .collect()
        });
        let items: Vec<(&Dag, &Matrix)> = batch.iter().map(|ex| &ex.dag).zip(&feats).collect();
        let mut modes: Vec<DecodeMode> = (0..batch.len())
            .map(|j| {
                DecodeMode::sample_seeded(cfg.seed.wrapping_add((step * cfg.batch_size + j) as u64))
            })
            .collect();
        let rollout = tr.span("core.rollout", |_| {
            policy.rollout_batch(&mut tape, &bindings, &items, &mut modes)
        });
        let mut greedy: Vec<DecodeMode> = (0..batch.len()).map(|_| DecodeMode::Greedy).collect();
        let baseline = tr.span("core.decode_batch", |_| {
            policy.decode_batch(&items, &mut greedy)
        });
        let (rewards, baselines): (Vec<f64>, Vec<f64>) = tr.span("core.reward", |_| {
            batch
                .iter()
                .zip(rollout.sequences.iter().zip(&baseline))
                .map(|(ex, (s, g))| {
                    (
                        sequence_reward(&ex.dag, s, &ex.teacher, &cfg.cost_model),
                        sequence_reward(&ex.dag, g, &ex.teacher, &cfg.cost_model),
                    )
                })
                .unzip()
        });
        for (j, seq) in rollout.sequences.iter().enumerate() {
            checks.check(topo::is_topological_order(&batch[j].dag, seq), || {
                format!("replayed rollout {step}/{j} is not topological")
            });
        }
        let weights: Vec<f32> = rewards
            .iter()
            .zip(&baselines)
            .map(|(r, b)| -((r - b) as f32) / batch.len() as f32)
            .collect();
        let grads = tr.span("nn.backward", |_| {
            let w = tape.leaf(Matrix::from_vec(1, weights.len(), weights));
            let weighted = tape.mul_elem(rollout.log_probs, w);
            let loss = tape.sum(weighted);
            tape.backward(loss);
            bindings.grads(&tape)
        });
        tr.span("nn.adam", |_| adam.step(policy.params_mut(), &grads));
    }
}
