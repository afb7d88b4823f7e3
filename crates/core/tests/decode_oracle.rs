//! Bitwise oracle for the gradient-free decode.
//!
//! [`PtrNetPolicy::decode_batch`] scores only the unmasked candidates of
//! each step. The reference below is the dense kernel it replaced: every
//! step scores all `n` nodes with glimpse and pointer attention and masks
//! afterwards. Skipping a masked node drops only exact `±0` terms (a
//! `+0.0` glimpse probability times a finite context value), and the
//! sparse kernel visits candidates in ascending id order, so both must emit
//! the same sequences, bit for bit — on the Fig. 5 models, on batches that
//! mix graphs with different candidate counts, with and without
//! dependency masking, greedy and sampled.
//!
//! The kernel also skips both heads on a step with a single candidate.
//! Greedy choice takes that candidate whatever its logit; sampled choice
//! draws exactly one number and takes it too, even when the logits are
//! NaN. The reference runs both heads at every step and chooses from
//! their output, so it pins that rule: a forced step that drew no number
//! would shift every later draw of the stream.
//!
//! The reference shares no arithmetic with the code under test: every
//! product here is its own serial row-dot ([`product`]), not
//! `Matrix::matmul` and not the kernel's input-major layout.

use rand::rngs::StdRng;
use rand::Rng;
use respect_core::{embed, DecodeMode, EmbeddingConfig, PolicyConfig, PtrNetPolicy};
use respect_graph::{models, Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_nn::tape::masked_softmax;
use respect_nn::Matrix;

/// The dense reference decode (one graph).
fn dense_decode(
    policy: &PtrNetPolicy,
    dag: &Dag,
    features: &Matrix,
    mode: &mut DecodeMode,
) -> Vec<NodeId> {
    let n = dag.len();
    let h = policy.config().hidden;
    let p = |name: &str| policy.params().get(name).expect("registered weight");
    let proj = product(p("proj.w"), features); // [h, n]

    // encoder
    let w_enc = p("enc.w");
    let b_enc = p("enc.b");
    let mut hx = Matrix::zeros(h, 1);
    let mut cx = Matrix::zeros(h, 1);
    let mut context = Matrix::zeros(h, n);
    for i in 0..n {
        let x = column(&proj, i);
        let (nh, nc) = lstm_step(w_enc, b_enc, &x, &hx, &cx, h);
        for r in 0..h {
            context.set(r, i, nh.get(r, 0));
        }
        hx = nh;
        cx = nc;
    }
    let g_ref = product(p("glimpse.w_ref"), &context);
    let p_ref = product(p("pointer.w_ref"), &context);

    // decoder
    let w_dec = p("dec.w");
    let b_dec = p("dec.b");
    let mut mask = DenseMask::new(dag, policy.config().dependency_masking);
    let mut d = p("dec0").clone();
    let mut sequence = Vec::with_capacity(n);
    for _ in 0..n {
        let (nh, nc) = lstm_step(w_dec, b_dec, &d, &hx, &cx, h);
        hx = nh;
        cx = nc;
        // glimpse
        let gu = attention_scores(
            &g_ref,
            p("glimpse.w_q"),
            p("glimpse.v"),
            p("glimpse.b"),
            &hx,
        );
        let gprobs = masked_softmax(&gu, &mask.masked);
        let g = product(&context, &gprobs);
        // pointer
        let u = attention_scores(&p_ref, p("pointer.w_q"), p("pointer.v"), p("pointer.b"), &g);
        let idx = match mode {
            DecodeMode::Greedy => argmax_unmasked(&u, &mask.masked),
            DecodeMode::Sample(rng) => {
                let probs = masked_softmax(&u, &mask.masked);
                sample_unmasked(&probs, &mask.masked, rng)
            }
        };
        let v = NodeId(idx as u32);
        sequence.push(v);
        mask.emit(dag, v);
        d = column(&proj, idx);
    }
    sequence
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
        let masked = if dependency {
            pending.iter().map(|&d| d > 0).collect()
        } else {
            vec![false; dag.len()]
        };
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

/// `W X`, each output `(r, j)` one serial chain that starts at `0.0` and
/// adds `W[r][p] · X[p][j]` in ascending `p`.
fn product(w: &Matrix, x: &Matrix) -> Matrix {
    assert_eq!(w.cols(), x.rows(), "product inner dimension");
    let mut out = Matrix::zeros(w.rows(), x.cols());
    for r in 0..w.rows() {
        for j in 0..x.cols() {
            let mut acc = 0.0f32;
            for p in 0..w.cols() {
                acc += w.get(r, p) * x.get(p, j);
            }
            out.set(r, j, acc);
        }
    }
    out
}

fn column(m: &Matrix, i: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), 1);
    for r in 0..m.rows() {
        out.set(r, 0, m.get(r, i));
    }
    out
}

/// One LSTM step on a single column (fused gates `[i, f, g, o]`).
fn lstm_step(
    w: &Matrix,
    b: &Matrix,
    x: &Matrix,
    h: &Matrix,
    c: &Matrix,
    hidden: usize,
) -> (Matrix, Matrix) {
    let mut xin = Matrix::zeros(x.rows() + h.rows(), 1);
    for r in 0..x.rows() {
        xin.set(r, 0, x.get(r, 0));
    }
    for r in 0..h.rows() {
        xin.set(x.rows() + r, 0, h.get(r, 0));
    }
    let mut z = product(w, &xin);
    for r in 0..z.rows() {
        z.set(r, 0, z.get(r, 0) + b.get(r, 0));
    }
    let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
    let mut nh = Matrix::zeros(hidden, 1);
    let mut nc = Matrix::zeros(hidden, 1);
    for r in 0..hidden {
        let i = sig(z.get(r, 0));
        let f = sig(z.get(hidden + r, 0));
        let g = z.get(2 * hidden + r, 0).tanh();
        let o = sig(z.get(3 * hidden + r, 0));
        let cv = f * c.get(r, 0) + i * g;
        nc.set(r, 0, cv);
        nh.set(r, 0, o * cv.tanh());
    }
    (nh, nc)
}

/// Additive-attention scores `u_i = Σ_r v_r tanh(P[r, i] + (W_q q + b)_r)`
/// for every column `i` of the projected context `P`.
fn attention_scores(
    projected: &Matrix,
    w_q: &Matrix,
    v: &Matrix,
    b: &Matrix,
    q: &Matrix,
) -> Matrix {
    let n = projected.cols();
    let mut qp = product(w_q, q);
    for r in 0..qp.rows() {
        qp.set(r, 0, qp.get(r, 0) + b.get(r, 0));
    }
    let mut scores = Matrix::zeros(n, 1);
    for r in 0..projected.rows() {
        let (vr, qpr) = (v.get(r, 0), qp.get(r, 0));
        for i in 0..n {
            let cur = scores.get(i, 0);
            scores.set(i, 0, cur + vr * (projected.get(r, i) + qpr).tanh());
        }
    }
    scores
}

fn argmax_unmasked(logits: &Matrix, mask: &[bool]) -> usize {
    let mut best = None;
    for (i, &masked) in mask.iter().enumerate() {
        if masked {
            continue;
        }
        let v = logits.get(i, 0);
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) if v > bv => best = Some((i, v)),
            _ => {}
        }
    }
    best.expect("at least one unmasked candidate").0
}

fn sample_unmasked(probs: &Matrix, mask: &[bool], rng: &mut StdRng) -> usize {
    let total: f32 = mask
        .iter()
        .enumerate()
        .filter(|&(_, &m)| !m)
        .map(|(i, _)| probs.get(i, 0))
        .sum();
    let mut r = rng.gen_range(0.0..1.0f32) * total;
    let mut last = None;
    for (i, &masked) in mask.iter().enumerate() {
        if masked {
            continue;
        }
        last = Some(i);
        r -= probs.get(i, 0);
        if r <= 0.0 {
            return i;
        }
    }
    last.expect("at least one unmasked candidate")
}

/// Unmasked candidates at each step of `seq` under dependency masking.
fn candidate_counts(dag: &Dag, seq: &[NodeId]) -> Vec<usize> {
    let mut mask = DenseMask::new(dag, true);
    seq.iter()
        .map(|&v| {
            let count = mask.masked.iter().filter(|&&m| !m).count();
            mask.emit(dag, v);
            count
        })
        .collect()
}

const SAMPLE_SEEDS: [u64; 3] = [3, 0x5eed, 0xdec0de];

/// Greedy, then one sampled mode per seed in [`SAMPLE_SEEDS`], offset by
/// `lane` so lanes of one batch draw from different streams.
fn modes(lane: u64) -> Vec<DecodeMode> {
    std::iter::once(DecodeMode::Greedy)
        .chain(
            SAMPLE_SEEDS
                .iter()
                .map(|&s| DecodeMode::sample_seeded(s + lane)),
        )
        .collect()
}

fn policy(hidden: usize, dependency_masking: bool) -> PtrNetPolicy {
    PtrNetPolicy::new(PolicyConfig {
        hidden,
        embedding: EmbeddingConfig::default(),
        dependency_masking,
        seed: 0x0dec,
    })
}

#[test]
fn fig5_models_decode_like_the_dense_kernel() {
    for dependency_masking in [true, false] {
        let policy = policy(8, dependency_masking);
        for (name, dag) in models::fig5() {
            let feats = embed(&dag, &policy.config().embedding);
            for (m, (mut sparse, mut dense)) in modes(0).into_iter().zip(modes(0)).enumerate() {
                assert_eq!(
                    policy.decode(&dag, &feats, &mut sparse),
                    dense_decode(&policy, &dag, &feats, &mut dense),
                    "{name}, dependency_masking={dependency_masking}, mode {m}"
                );
            }
        }
    }
}

/// Eight 30-node graphs of in-degree 2..=6: their ready sets differ in
/// size from graph to graph and from step to step.
fn synthetic_graphs() -> Vec<Dag> {
    (0..8)
        .map(|i| SyntheticSampler::new(SyntheticConfig::paper(2 + i % 5), 700 + i as u64).sample())
        .collect()
}

#[test]
fn mixed_candidate_batches_decode_like_the_dense_kernel() {
    let graphs = synthetic_graphs();
    for dependency_masking in [true, false] {
        let policy = policy(16, dependency_masking);
        let feats: Vec<Matrix> = graphs
            .iter()
            .map(|g| embed(g, &policy.config().embedding))
            .collect();
        let items: Vec<(&Dag, &Matrix)> = graphs.iter().zip(&feats).collect();
        for b in [1, 3, 8] {
            for m in 0..=SAMPLE_SEEDS.len() {
                let mut lanes: Vec<DecodeMode> =
                    (0..b).map(|g| modes(g as u64).swap_remove(m)).collect();
                let sparse = policy.decode_batch(&items[..b], &mut lanes);
                for (g, (dag, f)) in items[..b].iter().enumerate() {
                    let dense = dense_decode(&policy, dag, f, &mut modes(g as u64)[m]);
                    assert_eq!(
                        sparse[g], dense,
                        "B={b}, lane {g}, dependency_masking={dependency_masking}, mode {m}"
                    );
                }
                if b == 8 && dependency_masking {
                    // the lanes must really differ in how many candidates
                    // they score, or the batch would not mix them
                    let profiles: Vec<Vec<usize>> = items
                        .iter()
                        .zip(&sparse)
                        .map(|((dag, _), seq)| candidate_counts(dag, seq))
                        .collect();
                    assert!(profiles.iter().any(|p| p != &profiles[0]), "{profiles:?}");
                }
            }
        }
    }
}

#[test]
fn tied_scores_resolve_like_the_dense_kernel() {
    // with `pointer.v = 0` every pointer logit is exactly 0.0: greedy
    // takes the lowest candidate id and sampling draws uniformly in id
    // order, as the dense scan does
    for dependency_masking in [true, false] {
        let mut policy = policy(8, dependency_masking);
        let v = policy
            .params_mut()
            .get_mut("pointer.v")
            .expect("registered");
        v.as_mut_slice().fill(0.0);
        for dag in synthetic_graphs() {
            let feats = embed(&dag, &policy.config().embedding);
            for (mut sparse, mut dense) in modes(0).into_iter().zip(modes(0)) {
                assert_eq!(
                    policy.decode(&dag, &feats, &mut sparse),
                    dense_decode(&policy, &dag, &feats, &mut dense),
                    "dependency_masking={dependency_masking}"
                );
            }
        }
    }
}
