//! Bitwise oracle for the training rollout.
//!
//! [`PtrNetPolicy::rollout_batch`] gathers each lane's unmasked candidates
//! into a `[h, B·w]` block and runs glimpse, pointer, log-softmax and pick
//! over those `w` columns only. The reference below is the dense kernel it
//! replaced, built from the same public tape ops: every step scores all `n`
//! nodes of every graph and masks afterwards. A masked node has exactly
//! zero probability and zero gradient, candidates keep ascending id order,
//! and every sum starts at `0.0`, so each term the dense kernel adds for a
//! masked node is an exact `±0`. Both must therefore agree in sequences,
//! log-probabilities and every parameter gradient, bit for bit — with and
//! without dependency masking, on batches whose lanes differ in candidate
//! count (so short lanes are padded), greedy and sampled.

use rand::rngs::StdRng;
use rand::Rng;
use respect_core::{embed, DecodeMode, EmbeddingConfig, PolicyConfig, PtrNetPolicy};
use respect_graph::{Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_nn::attention::AttentionSpec;
use respect_nn::lstm::LstmSpec;
use respect_nn::{Bindings, Matrix, Tape, Var};

/// The dense reference rollout: `B` equal-sized graphs in lock step,
/// attention over every node of every graph. Returns the sequences and
/// the `[1, B]` log-probability row.
fn dense_rollout_batch(
    policy: &PtrNetPolicy,
    tape: &mut Tape,
    bindings: &Bindings,
    items: &[(&Dag, &Matrix)],
    modes: &mut [DecodeMode],
) -> (Vec<Vec<NodeId>>, Var) {
    let b = items.len();
    let n = items[0].0.len();
    let h = policy.config().hidden;
    let feat = policy.config().embedding.feature_dim();
    let enc = LstmSpec::new("enc", h, h).bind(bindings);
    let dec = LstmSpec::new("dec", h, h).bind(bindings);
    let glimpse = AttentionSpec::new("glimpse", h).bind(bindings);
    let pointer = AttentionSpec::new("pointer", h).bind(bindings);

    // features stacked graph-major ([feat, B*n]), projected in one matmul
    let mut stacked = Matrix::zeros(feat, b * n);
    for (g, (_, features)) in items.iter().enumerate() {
        for r in 0..feat {
            for i in 0..n {
                stacked.set(r, g * n + i, features.get(r, i));
            }
        }
    }
    let feats = tape.leaf(stacked);
    let projected = tape.matmul(bindings.var("proj.w"), feats); // [h, B*n]

    // encoder in lock step, then the time-major states regrouped
    // graph-major
    let mut state = enc.zero_state_batch(tape, b);
    let mut hs = Vec::with_capacity(n);
    for t in 0..n {
        let cols: Vec<usize> = (0..b).map(|g| g * n + t).collect();
        let x = tape.gather_cols(projected, &cols);
        state = enc.step_batch(tape, x, state);
        hs.push(state.h);
    }
    let time_major = tape.concat_cols(&hs);
    let perm: Vec<usize> = (0..b * n).map(|c| (c % n) * b + c / n).collect();
    let context = tape.gather_cols(time_major, &perm); // [h, B*n]
    let proj_g = glimpse.project_context(tape, context);
    let proj_p = pointer.project_context(tape, context);

    // decoder: score all n nodes of every graph, mask afterwards
    let mut masks: Vec<DenseMask> = items
        .iter()
        .map(|(dag, _)| DenseMask::new(dag, policy.config().dependency_masking))
        .collect();
    let mut d = tape.concat_cols(&vec![bindings.var("dec0"); b]);
    let mut sequences = vec![Vec::with_capacity(n); b];
    let mut log_prob_total: Option<Var> = None;
    for _ in 0..n {
        state = dec.step_batch(tape, d, state);
        let flat_masks: Vec<bool> = masks.iter().flat_map(|m| m.masked.clone()).collect();
        let gl = glimpse.glimpse_batch(tape, context, proj_g, state.h, n, &flat_masks);
        let scores = pointer.scores_batch(tape, proj_p, gl, n);
        let logp = tape.log_softmax_masked_cols(scores, &flat_masks);
        let lv = tape.value(logp);
        let choices: Vec<usize> = modes
            .iter_mut()
            .zip(&masks)
            .enumerate()
            .map(|(g, (mode, mask))| pick_unmasked(lv, g, &mask.masked, mode))
            .collect();
        let lp = tape.pick_cols(logp, &choices);
        log_prob_total = Some(match log_prob_total {
            None => lp,
            Some(acc) => tape.add(acc, lp),
        });
        let mut next_cols = Vec::with_capacity(b);
        for (g, &idx) in choices.iter().enumerate() {
            let v = NodeId(idx as u32);
            sequences[g].push(v);
            masks[g].emit(items[g].0, v);
            next_cols.push(g * n + idx);
        }
        d = tape.gather_cols(projected, &next_cols);
    }
    (sequences, log_prob_total.expect("graphs are nonempty"))
}

/// `masked[i] = visited[i] || (dependency && pending_parents[i] > 0)`.
struct DenseMask {
    visited: Vec<bool>,
    pending_parents: Vec<usize>,
    dependency: bool,
    masked: Vec<bool>,
}

impl DenseMask {
    fn new(dag: &Dag, dependency: bool) -> Self {
        let pending: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let masked = pending.iter().map(|&d| dependency && d > 0).collect();
        DenseMask {
            visited: vec![false; dag.len()],
            pending_parents: pending,
            dependency,
            masked,
        }
    }

    fn emit(&mut self, dag: &Dag, v: NodeId) {
        self.visited[v.index()] = true;
        self.masked[v.index()] = true;
        if self.dependency {
            for &s in dag.succs(v) {
                self.pending_parents[s.index()] -= 1;
                if self.pending_parents[s.index()] == 0 && !self.visited[s.index()] {
                    self.masked[s.index()] = false;
                }
            }
        }
    }
}

/// Scans column `g` of the log-probabilities in id order, skipping masked
/// rows: the first maximum when greedy, else a draw in proportion to
/// `exp(log p)`.
fn pick_unmasked(logp: &Matrix, g: usize, mask: &[bool], mode: &mut DecodeMode) -> usize {
    let unmasked: Vec<usize> = (0..mask.len()).filter(|&i| !mask[i]).collect();
    match mode {
        DecodeMode::Greedy => {
            let mut best = unmasked[0];
            for &i in &unmasked[1..] {
                if logp.get(i, g) > logp.get(best, g) {
                    best = i;
                }
            }
            best
        }
        DecodeMode::Sample(rng) => sample(logp, g, &unmasked, rng),
    }
}

fn sample(logp: &Matrix, g: usize, unmasked: &[usize], rng: &mut StdRng) -> usize {
    let probs: Vec<f32> = unmasked.iter().map(|&i| logp.get(i, g).exp()).collect();
    let total: f32 = probs.iter().sum();
    let mut r = rng.gen_range(0.0..1.0f32) * total;
    for (&i, &p) in unmasked.iter().zip(&probs) {
        r -= p;
        if r <= 0.0 {
            return i;
        }
    }
    *unmasked.last().expect("at least one unmasked candidate")
}

/// Everything a training step reads from a rollout: the sequences, the
/// log-probability bits, and the bits of every parameter gradient of the
/// trainer-shaped loss `Σ_g w_g·log p_g` with distinct non-zero `w_g`.
type Outcome = (Vec<Vec<NodeId>>, Vec<u32>, Vec<Vec<u32>>);

fn differentiate(
    policy: &PtrNetPolicy,
    rollout: impl FnOnce(&mut Tape, &Bindings) -> (Vec<Vec<NodeId>>, Var),
) -> Outcome {
    let mut tape = Tape::new();
    let bindings = policy.bind(&mut tape);
    let (sequences, log_probs) = rollout(&mut tape, &bindings);
    let b = sequences.len();
    let lps = tape
        .value(log_probs)
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    // alternating signs, like advantages around a baseline
    let weights = (0..b)
        .map(|g| (-1.0f32).powi(g as i32) * (g + 1) as f32 / 16.0)
        .collect();
    let w = tape.leaf(Matrix::from_vec(1, b, weights));
    let weighted = tape.mul_elem(log_probs, w);
    let loss = tape.sum(weighted);
    tape.backward(loss);
    let grads = bindings
        .grads(&tape)
        .iter()
        .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (sequences, lps, grads)
}

const SAMPLE_SEEDS: [u64; 3] = [3, 0x5eed, 0xdec0de];

/// Greedy (`m = 0`), else a draw from sample seed `m - 1`, offset by `lane`
/// so lanes of one batch draw from different streams.
fn mode(m: usize, lane: usize) -> DecodeMode {
    match m {
        0 => DecodeMode::Greedy,
        _ => DecodeMode::sample_seeded(SAMPLE_SEEDS[m - 1] + lane as u64),
    }
}

/// Sixteen graphs of `num_nodes` nodes with in-degree 2..=6 in rotation:
/// the lanes of a batch differ in how many candidates they have.
fn graphs(num_nodes: usize) -> Vec<Dag> {
    (0..16)
        .map(|i| {
            let cfg = SyntheticConfig {
                num_nodes,
                ..SyntheticConfig::paper(2 + i % 5)
            };
            SyntheticSampler::new(cfg, 900 + i as u64).sample()
        })
        .collect()
}

#[test]
fn candidate_sparse_rollout_matches_the_dense_kernel_bit_for_bit() {
    let mut padded = 0;
    for num_nodes in [10, 30] {
        let dags = graphs(num_nodes);
        for dependency_masking in [true, false] {
            for hidden in [8, 32] {
                let policy = PtrNetPolicy::new(PolicyConfig {
                    hidden,
                    embedding: EmbeddingConfig::default(),
                    dependency_masking,
                    seed: 0x7011,
                });
                let feats: Vec<Matrix> = dags
                    .iter()
                    .map(|d| embed(d, &policy.config().embedding))
                    .collect();
                let all: Vec<(&Dag, &Matrix)> = dags.iter().zip(&feats).collect();
                for b in [1, 3, 16] {
                    let items = &all[..b];
                    for m in 0..=SAMPLE_SEEDS.len() {
                        let case = format!(
                            "n={num_nodes} dependency_masking={dependency_masking} \
                             h={hidden} B={b} mode {m}"
                        );
                        let mut sparse_modes: Vec<DecodeMode> =
                            (0..b).map(|g| mode(m, g)).collect();
                        let sparse = differentiate(&policy, |tape, bindings| {
                            let r = policy.rollout_batch(tape, bindings, items, &mut sparse_modes);
                            (r.sequences, r.log_probs)
                        });
                        let mut dense_modes: Vec<DecodeMode> = (0..b).map(|g| mode(m, g)).collect();
                        let dense = differentiate(&policy, |tape, bindings| {
                            dense_rollout_batch(&policy, tape, bindings, items, &mut dense_modes)
                        });
                        assert_eq!(sparse.0, dense.0, "{case}: sequences");
                        assert_eq!(sparse.1, dense.1, "{case}: log-prob bits");
                        for (k, (s, d)) in sparse.2.iter().zip(&dense.2).enumerate() {
                            assert_eq!(s, d, "{case}: gradient bits of parameter {k}");
                        }
                        if dependency_masking && b > 1 {
                            padded += usize::from(lanes_differ(items, &sparse.0));
                        }
                    }
                }
            }
        }
    }
    // the mixed batches must really pad short lanes, or the layout's
    // padding would go unchecked
    assert!(padded > 0, "no batch mixed candidate counts");
}

/// Whether some step of these sequences has lanes with different numbers
/// of candidates under dependency masking.
fn lanes_differ(items: &[(&Dag, &Matrix)], sequences: &[Vec<NodeId>]) -> bool {
    let profiles: Vec<Vec<usize>> = items
        .iter()
        .zip(sequences)
        .map(|((dag, _), seq)| {
            let mut mask = DenseMask::new(dag, true);
            seq.iter()
                .map(|&v| {
                    let count = mask.masked.iter().filter(|&&m| !m).count();
                    mask.emit(dag, v);
                    count
                })
                .collect()
        })
        .collect();
    profiles.iter().any(|p| p != &profiles[0])
}
