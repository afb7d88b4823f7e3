//! Determinism guard for the batched decode paths: batching is a pure
//! performance optimization, so [`PtrNetPolicy::rollout_batch`] and
//! [`PtrNetPolicy::decode_batch`] must emit exactly the sequences and
//! log-probabilities that one-graph calls emit for the same seeds — on
//! training-scale teacher graphs, across batch sizes whose lanes differ in
//! candidate count, and run-to-run. The one-graph calls run the same
//! kernels, so this pins lane independence; the dense references live in
//! `rollout_oracle.rs` and `decode_oracle.rs`.

use respect_core::dataset::{DatasetConfig, TeacherDataset};
use respect_core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_nn::{Matrix, Tape};
use respect_sched::CostModel;

fn fixture() -> (PtrNetPolicy, Vec<(respect_graph::Dag, Matrix)>) {
    let policy = PtrNetPolicy::new(PolicyConfig::small(24));
    let cfg = DatasetConfig {
        graphs: 8,
        num_nodes: 14,
        degrees: vec![2, 3, 4],
        num_stages: 3,
        seed: 0xbeef,
    };
    let ds = TeacherDataset::generate(&cfg, &CostModel::coral()).unwrap();
    let items = ds
        .examples
        .into_iter()
        .map(|ex| {
            let feats = embed(&ex.dag, &policy.config().embedding);
            (ex.dag, feats)
        })
        .collect();
    (policy, items)
}

#[test]
fn batched_rollout_reproduces_serial_rollout_on_teacher_graphs() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    for batch_size in [1, 3, 8] {
        let batch_refs = &refs[..batch_size];
        let mut modes: Vec<DecodeMode> = (0..batch_size)
            .map(|g| DecodeMode::sample_seeded(0x5eed + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, batch_refs, &mut modes);
        for (g, (dag, feats)) in items[..batch_size].iter().enumerate() {
            let mut t = Tape::new();
            let b = policy.bind(&mut t);
            let serial = policy.rollout(
                &mut t,
                &b,
                dag,
                feats,
                &mut DecodeMode::sample_seeded(0x5eed + g as u64),
            );
            assert_eq!(
                batch.sequences[g], serial.sequence,
                "batch={batch_size} lane={g}: sampled sequences diverged"
            );
            assert_eq!(
                tape.value(batch.log_probs).get(0, g).to_bits(),
                t.value(serial.log_prob).get(0, 0).to_bits(),
                "batch={batch_size} lane={g}: log-probs diverged"
            );
        }
    }
}

#[test]
fn batched_decode_reproduces_serial_decode_on_teacher_graphs() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    let mut greedy: Vec<DecodeMode> = (0..refs.len()).map(|_| DecodeMode::Greedy).collect();
    let batched = policy.decode_batch(&refs, &mut greedy);
    for (g, (dag, feats)) in items.iter().enumerate() {
        let serial = policy.decode(dag, feats, &mut DecodeMode::Greedy);
        assert_eq!(batched[g], serial, "greedy lane {g}");
    }
}

#[test]
fn batched_rollout_is_reproducible_run_to_run() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    let run = || {
        let mut modes: Vec<DecodeMode> = (0..refs.len())
            .map(|g| DecodeMode::sample_seeded(42 + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        let lps: Vec<u32> = (0..refs.len())
            .map(|g| tape.value(batch.log_probs).get(0, g).to_bits())
            .collect();
        (batch.sequences, lps)
    };
    assert_eq!(run(), run(), "same seeds must reproduce bitwise");
}
