//! Microbenchmarks of the building blocks: embedding, policy decode,
//! packing DP, exact solve on training-scale graphs, and the pipelined
//! executor.

use criterion::{criterion_group, criterion_main, Criterion};
use respect_bench::{bench_policy, PolicyScale};
use respect_core::embedding::{embed, EmbeddingConfig};
use respect_core::{DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_graph::{models, SyntheticConfig, SyntheticSampler};
use respect_sched::exact::ExactScheduler;
use respect_sched::Scheduler;
use respect_sched::{pack, CostModel};
use respect_tpu::device::DeviceSpec;
use respect_tpu::{compile, exec};

fn bench_micro(c: &mut Criterion) {
    let dag = models::resnet50();
    let cfg = EmbeddingConfig::default();
    let model = CostModel::coral();

    c.bench_function("embed/resnet50", |b| b.iter(|| embed(&dag, &cfg)));

    let policy = bench_policy(PolicyScale::Quick);
    let feats = embed(&dag, &policy.config().embedding);
    c.bench_function("decode/resnet50", |b| {
        b.iter(|| policy.decode(&dag, &feats, &mut DecodeMode::Greedy))
    });
    // DenseNet-201 at the benchmark's h = 32: its depth is |V| - 1, so
    // every step has one candidate and the row times the LSTM alone;
    // untrained weights run the same kernel, so nothing is trained
    let untrained = PtrNetPolicy::new(PolicyConfig::small(32));
    let densenet = models::densenet201();
    let dense_feats = embed(&densenet, &untrained.config().embedding);
    c.bench_function("decode/densenet201/h32", |b| {
        b.iter(|| untrained.decode(&densenet, &dense_feats, &mut DecodeMode::Greedy))
    });

    c.bench_function("pack_default/resnet50/4", |b| {
        b.iter(|| pack::pack_default(&dag, 4, &model))
    });
    // the Table I packs where the pruning bound gains most and least
    for (name, big) in [
        ("densenet201", models::densenet201()),
        ("inceptionresnetv2", models::inception_resnet_v2()),
    ] {
        c.bench_function(format!("pack_default/{name}/6"), |b| {
            b.iter(|| pack::pack_default(&big, 6, &model))
        });
    }

    let synth = SyntheticSampler::new(SyntheticConfig::paper(3), 9).sample();
    let solver = ExactScheduler::new(model).with_warmstart_moves(200);
    c.bench_function("exact/synthetic30/4", |b| {
        b.iter(|| solver.schedule(&synth, 4).unwrap())
    });
    // teacher labelling time sits in the in-degree-2 tail: at k = 4 this
    // graph from it explores about 7 times the states of the one above
    // (46,122 against 6,460)
    let deg2 = SyntheticSampler::new(SyntheticConfig::paper(2), 4).sample();
    c.bench_function("exact/teacher-deg2/4", |b| {
        b.iter(|| solver.schedule(&deg2, 4).unwrap())
    });

    let spec = DeviceSpec::coral();
    let schedule = respect_sched::balanced::ParamBalanced::new()
        .schedule(&dag, 4)
        .unwrap();
    let pipeline = compile::compile(&dag, &schedule, &spec).unwrap();
    c.bench_function("simulate/resnet50/4/1000", |b| {
        b.iter(|| exec::simulate(&pipeline, &spec, 1_000).unwrap().total_s)
    });
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
