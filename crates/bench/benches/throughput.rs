//! Throughput benchmarks of the two hottest loops in the codebase:
//!
//! * **training rollouts** — serial per-graph decoding (32 one-graph
//!   `rollout_batch` / `decode_batch` calls, one tape op per LSTM/attention
//!   step per graph) vs. one batched call (one op per step for the whole
//!   minibatch), forward only at h = 64. Reported per full batch; divide
//!   the batch size by the time per iteration for graphs/sec. One more row
//!   times a whole training step's tape work, `rollout_batch` plus
//!   `backward`, on 16 graphs at h = 32 (the `perfbench` `train` shape).
//! * **local-search cost evaluation** — full `stage_costs` re-aggregation
//!   per proposed move vs. the `IncrementalEvaluator`'s
//!   `O(deg(v) + k)` update, over an identical scripted move sequence.
//!   Divide the move count by the time per iteration for moves/sec.
//!
//! Run with `RESPECT_BENCH_BUDGET_MS=20` for a CI smoke pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use respect_core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_graph::{models, Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_nn::{Matrix, Tape};
use respect_sched::anneal::Annealing;
use respect_sched::{CostModel, IncrementalEvaluator, Schedule, Scheduler};

const BATCH: usize = 32;
const TRAIN_BATCH: usize = 16;
const MOVES: usize = 512;

fn training_batch(policy: &PtrNetPolicy, count: usize) -> Vec<(Dag, Matrix)> {
    (0..count)
        .map(|i| {
            let dag = SyntheticSampler::new(SyntheticConfig::paper(2 + i % 5), i as u64).sample();
            let feats = embed(&dag, &policy.config().embedding);
            (dag, feats)
        })
        .collect()
}

fn bench_rollout(c: &mut Criterion) {
    let policy = PtrNetPolicy::new(PolicyConfig::small(64));
    let batch = training_batch(&policy, BATCH);
    let refs: Vec<(&Dag, &Matrix)> = batch.iter().map(|(d, f)| (d, f)).collect();

    let mut group = c.benchmark_group("rollout");
    group.sample_size(20);
    group.bench_function(format!("serial/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = policy.bind(&mut tape);
            for (g, (dag, feats)) in refs.iter().enumerate() {
                let mut mode = DecodeMode::sample_seeded(g as u64);
                black_box(policy.rollout(&mut tape, &bindings, dag, feats, &mut mode));
            }
        })
    });
    group.bench_function(format!("batched/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = policy.bind(&mut tape);
            let mut modes: Vec<DecodeMode> = (0..BATCH)
                .map(|g| DecodeMode::sample_seeded(g as u64))
                .collect();
            black_box(policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes));
        })
    });
    let train_policy = PtrNetPolicy::new(PolicyConfig::small(32));
    let train_batch = training_batch(&train_policy, TRAIN_BATCH);
    let train_refs: Vec<(&Dag, &Matrix)> = train_batch.iter().map(|(d, f)| (d, f)).collect();
    group.bench_function(format!("batched+backward/{TRAIN_BATCH}x30/h32"), |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = train_policy.bind(&mut tape);
            let mut modes: Vec<DecodeMode> = (0..TRAIN_BATCH)
                .map(|g| DecodeMode::sample_seeded(g as u64))
                .collect();
            let rollout = train_policy.rollout_batch(&mut tape, &bindings, &train_refs, &mut modes);
            // the trainer's loss shape: advantage-weighted log-probabilities
            let weights = (0..TRAIN_BATCH)
                .map(|g| (-1.0f32).powi(g as i32) / TRAIN_BATCH as f32)
                .collect();
            let w = tape.leaf(Matrix::from_vec(1, TRAIN_BATCH, weights));
            let weighted = tape.mul_elem(rollout.log_probs, w);
            let loss = tape.sum(weighted);
            tape.backward(loss);
            black_box(bindings.grads(&tape))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("decode");
    group.sample_size(20);
    group.bench_function(format!("serial/{BATCH}x30"), |b| {
        b.iter(|| {
            for (dag, feats) in &refs {
                black_box(policy.decode(dag, feats, &mut DecodeMode::Greedy));
            }
        })
    });
    group.bench_function(format!("batched/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut modes: Vec<DecodeMode> = (0..BATCH).map(|_| DecodeMode::Greedy).collect();
            black_box(policy.decode_batch(&refs, &mut modes));
        })
    });
    group.finish();
}

/// Deterministic xorshift so the scripted move sequence is stable without
/// pulling an RNG into the bench.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_cost_eval(c: &mut Criterion) {
    let dag = models::resnet50();
    let model = CostModel::coral();
    let stages = 4usize;
    let mut seed = 0x5eed_f00du64;
    let init: Vec<usize> = (0..dag.len())
        .map(|_| (xorshift(&mut seed) % stages as u64) as usize)
        .collect();
    let schedule = Schedule::new(init, stages).unwrap();
    let moves: Vec<(NodeId, usize)> = (0..MOVES)
        .map(|_| {
            let v = NodeId((xorshift(&mut seed) % dag.len() as u64) as u32);
            let to = (xorshift(&mut seed) % stages as u64) as usize;
            (v, to)
        })
        .collect();

    let mut group = c.benchmark_group("cost_eval");
    group.sample_size(20);
    group.bench_function(format!("full_recompute/resnet50/{MOVES}mv"), |b| {
        b.iter(|| {
            // the pre-incremental local-search loop: every proposal
            // materializes a schedule and re-aggregates all stages
            let mut stage_of = schedule.stage_of().to_vec();
            let mut acc = 0.0f64;
            for &(v, to) in &moves {
                stage_of[v.index()] = to;
                let s = Schedule::new(stage_of.clone(), stages).unwrap();
                acc += model.objective(&dag, &s);
            }
            acc
        })
    });
    group.bench_function(format!("incremental/resnet50/{MOVES}mv"), |b| {
        b.iter(|| {
            let mut eval = IncrementalEvaluator::new(&dag, model, &schedule);
            let mut acc = 0.0f64;
            for &(v, to) in &moves {
                eval.move_node(v, to);
                acc += eval.bottleneck();
            }
            acc
        })
    });
    group.finish();

    // end-to-end: the annealer itself (cuts + swaps on the incremental
    // evaluator)
    let mut group = c.benchmark_group("anneal");
    group.sample_size(10);
    group.bench_function("resnet50/4/2000mv", |b| {
        let annealer = Annealing::new(model).with_iterations(2_000);
        b.iter(|| annealer.schedule(&dag, 4).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_rollout, bench_cost_eval);
criterion_main!(benches);
