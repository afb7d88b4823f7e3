//! The LSTM-PtrNet RL agent (paper, Sec. III-B, Fig. 1b, Algorithm 1).
//!
//! Architecture:
//!
//! * a linear projection lifts each node's embedding column to the hidden
//!   dimension;
//! * an **encoder LSTM** digests the projected queue `q` into contexts
//!   `{Ctext_i}` (its final state seeds the decoder);
//! * a **decoder LSTM** runs one step per output position: its hidden
//!   state is refined by a **glimpse** attention over the context matrix,
//!   then a **pointer** head produces logits over candidate nodes;
//! * logits of nodes already emitted are masked to −∞ (Algorithm 1); with
//!   [`PolicyConfig::dependency_masking`] (default), nodes whose parents
//!   have not been emitted are masked too, so `π` is always a valid
//!   topological order and post-inference dependency repair becomes a
//!   safeguard rather than a necessity;
//! * the first decoder input `dec0` is a trainable parameter, exactly as
//!   in the paper.
//!
//! Two execution paths share the same weights: a tape-based
//! [`PtrNetPolicy::rollout_batch`] for REINFORCE training and a
//! gradient-free [`PtrNetPolicy::decode_batch`] used at deployment (this is
//! what Fig. 3 times as RESPECT's solving time). Both score glimpse and
//! pointer attention only over the unmasked candidates of each step, in
//! ascending id order: a masked node has exactly zero probability and zero
//! gradient, so results equal those of a dense kernel that scores every
//! node and masks afterwards, bit for bit.
//!
//! The tape path runs a batch in lock step, one op per step for all
//! graphs. The gradient-free path is one per-graph kernel for every batch
//! size: the LSTM gate weights and both heads' query weights are laid out
//! input-major once per call ([`LstmKernel`], [`Affine`]), each step
//! reuses its lane's buffers instead of allocating, and a step with a
//! single candidate skips both heads. Every sum keeps its order, so the
//! sequences are those of the tape's forward values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use respect_graph::{Dag, NodeId};
use respect_nn::attention::AttentionSpec;
use respect_nn::lstm::{LstmKernel, LstmSpec};
use respect_nn::tape::{Tape, Var};
use respect_nn::tensor::Affine;
use respect_nn::{init, Bindings, Matrix, Params};

use crate::embedding::EmbeddingConfig;

/// Hyperparameters of the pointer-network policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// LSTM hidden size (the paper uses 256 cells).
    pub hidden: usize,
    /// Node-embedding layout.
    pub embedding: EmbeddingConfig,
    /// Mask nodes whose parents were not emitted yet (guarantees `π` is a
    /// topological order). The paper instead relies on post-inference
    /// repair; disable to reproduce that behaviour.
    pub dependency_masking: bool,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl PolicyConfig {
    /// The paper's configuration: 256 LSTM cells.
    pub fn paper() -> Self {
        PolicyConfig {
            hidden: 256,
            embedding: EmbeddingConfig::default(),
            dependency_masking: true,
            seed: 0x7e5c,
        }
    }

    /// A small configuration for tests and laptop-scale training.
    pub fn small(hidden: usize) -> Self {
        PolicyConfig {
            hidden,
            ..Self::paper()
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// How the decoder picks the next node.
#[derive(Debug)]
pub enum DecodeMode {
    /// Highest-probability node (deterministic).
    Greedy,
    /// Sample from the pointer distribution (training exploration).
    Sample(StdRng),
}

impl DecodeMode {
    /// A sampling mode seeded for reproducibility.
    pub fn sample_seeded(seed: u64) -> Self {
        DecodeMode::Sample(StdRng::seed_from_u64(seed))
    }
}

/// A differentiable decode: the emitted sequence plus the summed
/// log-probability of its choices on the tape.
#[derive(Debug)]
pub struct Rollout {
    /// Emitted node sequence `π`.
    pub sequence: Vec<NodeId>,
    /// `Σ_t log p(π(t) | π(<t), G)` as a tape scalar.
    pub log_prob: Var,
}

/// A differentiable batched decode over `B` equal-sized graphs.
#[derive(Debug)]
pub struct BatchRollout {
    /// Emitted node sequence `π` per graph, in input order.
    pub sequences: Vec<Vec<NodeId>>,
    /// Per-graph summed log-probabilities as a `[1, B]` tape row; column
    /// `g` is `Σ_t log p(π_g(t) | π_g(<t), G_g)`.
    pub log_probs: Var,
}

/// The LSTM pointer network with its trainable parameters.
#[derive(Debug, Clone)]
pub struct PtrNetPolicy {
    config: PolicyConfig,
    params: Params,
}

impl PtrNetPolicy {
    /// Creates a policy with freshly initialized weights.
    pub fn new(config: PolicyConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden;
        let feat = config.embedding.feature_dim();
        let mut params = Params::new();
        params.insert("proj.w", init::xavier_uniform(h, feat, &mut rng));
        LstmSpec::new("enc", h, h).register(&mut params, &mut rng);
        LstmSpec::new("dec", h, h).register(&mut params, &mut rng);
        AttentionSpec::new("glimpse", h).register(&mut params, &mut rng);
        AttentionSpec::new("pointer", h).register(&mut params, &mut rng);
        params.insert("dec0", init::uniform(h, 1, 0.05, &mut rng));
        PtrNetPolicy { config, params }
    }

    /// Restores a policy from its configuration and saved weights.
    ///
    /// # Panics
    ///
    /// Panics if `params` is missing any registered weight or holds one
    /// of another shape (checked on first use).
    pub fn from_parts(config: PolicyConfig, params: Params) -> Self {
        PtrNetPolicy { config, params }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The trainable parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable access for optimizers.
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Binds the policy's parameters onto a tape. Bind **once** per tape
    /// and share the bindings across a batch of rollouts so gradients
    /// accumulate into the same leaves.
    pub fn bind(&self, tape: &mut Tape) -> Bindings {
        self.params.bind(tape)
    }

    /// Differentiable rollout on `tape` using parameters bound by
    /// [`bind`](PtrNetPolicy::bind):
    /// [`rollout_batch`](PtrNetPolicy::rollout_batch) over one graph.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match `dag` and the embedding config.
    pub fn rollout(
        &self,
        tape: &mut Tape,
        bindings: &Bindings,
        dag: &Dag,
        features: &Matrix,
        mode: &mut DecodeMode,
    ) -> Rollout {
        let mut batch = self.rollout_batch(
            tape,
            bindings,
            &[(dag, features)],
            std::slice::from_mut(mode),
        );
        Rollout {
            sequence: batch.sequences.pop().expect("one sequence per graph"),
            log_prob: batch.log_probs,
        }
    }

    /// Differentiable **batched** rollout: decodes `B` equal-sized graphs
    /// in lock step, one tape op per decoding step for the whole batch
    /// instead of one per graph. At each step, lane `g` owns columns
    /// `g*w..(g+1)*w` of one gathered block: its unmasked candidates in
    /// ascending id order, padded with masked copies of its first one up
    /// to the largest candidate count `w` of the step. Glimpse, pointer,
    /// log-softmax and pick run over those `w` columns instead of all `n`
    /// nodes. Masked and padded columns get exactly zero probability and
    /// zero gradient and every sum starts at `0.0`, so sequences,
    /// log-probabilities and gradients equal those of a dense kernel that
    /// scores every node and masks afterwards, bit for bit. Each graph
    /// consumes its own [`DecodeMode`] (`modes[g]`), and per-graph results
    /// equal `B` one-graph [`rollout`](PtrNetPolicy::rollout) calls with
    /// the same modes.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, graphs differ in node count, feature
    /// matrices do not match the embedding config, or
    /// `modes.len() != items.len()`.
    pub fn rollout_batch(
        &self,
        tape: &mut Tape,
        bindings: &Bindings,
        items: &[(&Dag, &Matrix)],
        modes: &mut [DecodeMode],
    ) -> BatchRollout {
        let b = items.len();
        assert!(b > 0, "batch must be nonempty");
        assert_eq!(modes.len(), b, "one decode mode per graph");
        let n = items[0].0.len();
        let feat = self.config.embedding.feature_dim();
        for (dag, features) in items {
            assert_eq!(dag.len(), n, "batched graphs must be equal-sized");
            assert_eq!(features.shape(), (feat, n), "feature matrix shape");
        }
        let enc = LstmSpec::new("enc", self.config.hidden, self.config.hidden).bind(bindings);
        let dec = LstmSpec::new("dec", self.config.hidden, self.config.hidden).bind(bindings);
        let glimpse = AttentionSpec::new("glimpse", self.config.hidden).bind(bindings);
        let pointer = AttentionSpec::new("pointer", self.config.hidden).bind(bindings);
        let proj_w = bindings.var("proj.w");

        // stack features graph-major ([feat, B*n]; graph g owns columns
        // g*n..(g+1)*n) and project the whole batch in one matmul
        let mut stacked = Matrix::zeros(feat, b * n);
        for (g, (_, features)) in items.iter().enumerate() {
            for r in 0..feat {
                for i in 0..n {
                    stacked.set(r, g * n + i, features.get(r, i));
                }
            }
        }
        let feats = tape.leaf(stacked);
        let projected = tape.matmul(proj_w, feats); // [h, B*n]

        // encode all graphs in lock step: step t consumes node t of every
        // graph as one [h, B] input column block
        let s0 = enc.zero_state_batch(tape, b);
        let mut state = s0;
        let mut hs = Vec::with_capacity(n);
        for t in 0..n {
            let cols: Vec<usize> = (0..b).map(|g| g * n + t).collect();
            let x = tape.gather_cols(projected, &cols);
            state = enc.step_batch(tape, x, state);
            hs.push(state.h);
        }
        let enc_last = state;
        // hs concatenated is time-major ([h, n*B], column t*B + g); regroup
        // graph-major so each node's columns can be gathered per step
        let time_major = tape.concat_cols(&hs);
        let perm: Vec<usize> = (0..b * n).map(|c| (c % n) * b + c / n).collect();
        let context = tape.gather_cols(time_major, &perm); // [h, B*n]
        let proj_g = glimpse.project_context(tape, context);
        let proj_p = pointer.project_context(tape, context);

        // decode with pointing, one batched step per output position;
        // attention runs over the gathered candidate block only
        let mut masks: Vec<MaskState> = items
            .iter()
            .map(|(dag, _)| MaskState::new(dag, self.config.dependency_masking))
            .collect();
        let dec0 = bindings.var("dec0");
        let mut d = tape.concat_cols(&vec![dec0; b]); // [h, B]
        let mut state = enc_last;
        let mut sequences = vec![Vec::with_capacity(n); b];
        let mut log_prob_total: Option<Var> = None;
        for _ in 0..n {
            state = dec.step_batch(tape, d, state);
            let w = masks
                .iter()
                .map(|m| m.candidates().len())
                .max()
                .expect("nonempty batch");
            let mut cols = Vec::with_capacity(b * w);
            let mut padding = Vec::with_capacity(b * w);
            for (g, mask) in masks.iter().enumerate() {
                let cands = mask.candidates();
                cols.extend(cands.iter().map(|&i| g * n + i));
                cols.resize((g + 1) * w, g * n + cands[0]);
                padding.extend((0..w).map(|j| j >= cands.len()));
            }
            let block = tape.gather_cols(context, &cols); // [h, B*w]
            let block_g = tape.gather_cols(proj_g, &cols);
            let block_p = tape.gather_cols(proj_p, &cols);
            let g = glimpse.glimpse_batch(tape, block, block_g, state.h, w, &padding);
            let scores = pointer.scores_batch(tape, block_p, g, w);
            let logp = tape.log_softmax_masked_cols(scores, &padding); // [w, B]
            let lv = tape.value(logp);
            let mut picks = Vec::with_capacity(b);
            let mut next_cols = Vec::with_capacity(b);
            for (g, (mode, mask)) in modes.iter_mut().zip(&mut masks).enumerate() {
                let cands = mask.candidates();
                let mut logits: Vec<f32> = (0..cands.len()).map(|j| lv.get(j, g)).collect();
                let j = choose(mode, &mut logits, exp_in_place);
                let v = NodeId(cands[j] as u32);
                picks.push(j);
                next_cols.push(g * n + v.index());
                sequences[g].push(v);
                mask.emit(items[g].0, v);
            }
            let lp = tape.pick_cols(logp, &picks); // [1, B]
            log_prob_total = Some(match log_prob_total {
                None => lp,
                Some(acc) => tape.add(acc, lp),
            });
            d = tape.gather_cols(projected, &next_cols);
        }
        BatchRollout {
            sequences,
            log_probs: log_prob_total.expect("graphs are nonempty"),
        }
    }

    /// Gradient-free greedy/sampled decode for deployment (this is what
    /// Fig. 3 times): [`decode_batch`](PtrNetPolicy::decode_batch) over one
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match `dag` and the embedding config,
    /// or a weight is missing or mis-shaped.
    pub fn decode(&self, dag: &Dag, features: &Matrix, mode: &mut DecodeMode) -> Vec<NodeId> {
        self.decode_batch(&[(dag, features)], std::slice::from_mut(mode))
            .pop()
            .expect("one sequence per graph")
    }

    /// Gradient-free **batched** decode: one per-graph kernel, with the
    /// policy's weights checked and laid out input-major once per call,
    /// decodes each graph in turn with its own mode, so per-graph results
    /// equal `B` one-graph calls with the same modes. Glimpse and pointer
    /// attention score only each graph's unmasked candidates (on average
    /// about one node per step of a Table I graph under dependency
    /// masking), in ascending id order from `0.0`, so the sequences equal
    /// those of a dense kernel that scores every node and masks
    /// afterwards, bit for bit: every term it adds for a masked node is an
    /// exact `±0`. A step with a single candidate skips both heads, since
    /// greedy and sampled choice alike must take it; sampling still draws
    /// its one number, so the stream stays in step. Use this for
    /// deployment and for the greedy-rollout baseline during training.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, feature matrices do not match their
    /// graph and the embedding config, `modes.len() != items.len()`, or a
    /// weight is missing or mis-shaped.
    pub fn decode_batch(
        &self,
        items: &[(&Dag, &Matrix)],
        modes: &mut [DecodeMode],
    ) -> Vec<Vec<NodeId>> {
        assert!(!items.is_empty(), "batch must be nonempty");
        assert_eq!(modes.len(), items.len(), "one decode mode per graph");
        let feat = self.config.embedding.feature_dim();
        for (dag, features) in items {
            assert_eq!(features.shape(), (feat, dag.len()), "feature matrix shape");
        }
        let kernel = DecodeKernel::new(self);
        items
            .iter()
            .zip(modes)
            .map(|(&(dag, features), mode)| kernel.decode(dag, features, mode))
            .collect()
    }
}

/// The gradient-free decode of one graph, with the policy's weights
/// checked against its configuration and laid out once: the LSTM gate
/// weights and both heads' query weights input-major (see
/// [`Affine`]), so each step's products vectorise over independent
/// outputs without changing a sum's order.
struct DecodeKernel<'a> {
    hidden: usize,
    dependency_masking: bool,
    proj_w: &'a Matrix,
    enc: LstmKernel,
    dec: LstmKernel,
    glimpse: RawHead<'a>,
    pointer: RawHead<'a>,
    dec0: &'a [f32],
}

impl<'a> DecodeKernel<'a> {
    fn new(policy: &'a PtrNetPolicy) -> Self {
        let params = &policy.params;
        let h = policy.config.hidden;
        let feat = policy.config.embedding.feature_dim();
        DecodeKernel {
            hidden: h,
            dependency_masking: policy.config.dependency_masking,
            proj_w: params.shaped("proj.w", (h, feat)),
            enc: LstmSpec::new("enc", h, h).kernel(params),
            dec: LstmSpec::new("dec", h, h).kernel(params),
            glimpse: RawHead::new(params, "glimpse", h),
            pointer: RawHead::new(params, "pointer", h),
            dec0: params.shaped("dec0", (h, 1)).as_slice(),
        }
    }

    fn decode(&self, dag: &Dag, features: &Matrix, mode: &mut DecodeMode) -> Vec<NodeId> {
        let (n, h) = (dag.len(), self.hidden);
        // node-major: row i is node i's projected embedding
        let proj = self.proj_w.matmul(features).transpose();

        // encoder; context row i is the hidden state after node i
        let mut lane = self.enc.lane();
        let mut context = Matrix::zeros(n, h);
        for i in 0..n {
            self.enc.step(&mut lane, proj.row(i));
            context.as_mut_slice()[i * h..(i + 1) * h].copy_from_slice(lane.h());
        }
        let context_t = context.transpose();
        let glimpse_refs = self.glimpse.project(&context_t);
        let pointer_refs = self.pointer.project(&context_t);

        // decoder, continuing from the encoder's final state
        let mut mask = MaskState::new(dag, self.dependency_masking);
        let mut query = vec![0.0f32; h];
        let mut readout = vec![0.0f32; h];
        let mut logits = Vec::with_capacity(n);
        let mut sequence = Vec::with_capacity(n);
        let mut d = self.dec0;
        for _ in 0..n {
            self.dec.step(&mut lane, d);
            let cands = mask.candidates();
            let j = if cands.len() == 1 {
                // forced: greedy takes the only candidate whatever its
                // logit, and a draw lands on it whatever it is, even under
                // NaN logits; the draw is still made, as `choose` would,
                // so every later draw reads the same stream
                if let DecodeMode::Sample(rng) = mode {
                    let _ = rng.gen_range(0.0..1.0f32);
                }
                0
            } else {
                // glimpse: the softmax-weighted sum of the candidates' contexts
                self.glimpse.query.apply(lane.h(), &mut query);
                self.glimpse
                    .scores(&glimpse_refs, cands, &query, &mut logits);
                softmax(&mut logits);
                readout.fill(0.0);
                for (&i, &pr) in cands.iter().zip(&logits) {
                    for (a, &c) in readout.iter_mut().zip(context.row(i)) {
                        *a += c * pr;
                    }
                }
                // pointer
                self.pointer.query.apply(&readout, &mut query);
                self.pointer
                    .scores(&pointer_refs, cands, &query, &mut logits);
                choose(mode, &mut logits, softmax)
            };
            let v = NodeId(cands[j] as u32);
            sequence.push(v);
            mask.emit(dag, v);
            d = proj.row(v.index());
        }
        sequence
    }
}

/// Visited/ready bookkeeping shared by every decode path: `candidates`
/// lists the selectable ids in ascending order, the ready set under
/// dependency masking (unvisited nodes whose parents were all emitted) and
/// the unvisited set without it. Every other node is masked.
#[derive(Debug)]
struct MaskState {
    pending_parents: Vec<usize>,
    dependency: bool,
    candidates: Vec<usize>,
}

impl MaskState {
    fn new(dag: &Dag, dependency: bool) -> Self {
        let pending: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let candidates = (0..dag.len())
            .filter(|&i| !dependency || pending[i] == 0)
            .collect();
        MaskState {
            pending_parents: pending,
            dependency,
            candidates,
        }
    }

    fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Emits candidate `v`; under dependency masking a child whose last
    /// parent this was becomes a candidate (it cannot have been emitted).
    fn emit(&mut self, dag: &Dag, v: NodeId) {
        let i = v.index();
        let slot = self.candidates.binary_search(&i).expect("a candidate");
        self.candidates.remove(slot);
        if self.dependency {
            for &s in dag.succs(v) {
                self.pending_parents[s.index()] -= 1;
                if self.pending_parents[s.index()] == 0 {
                    let slot = self.candidates.binary_search(&s.index()).expect_err("new");
                    self.candidates.insert(slot, s.index());
                }
            }
        }
    }
}

/// One additive-attention head for the gradient-free decode: its query
/// map `W_q q + b` laid out input-major, and the weights that score
/// candidates against a graph's projected context.
struct RawHead<'a> {
    w_ref: &'a Matrix,
    query: Affine,
    v: &'a [f32],
}

impl<'a> RawHead<'a> {
    fn new(params: &'a Params, name: &str, h: usize) -> Self {
        let p = |w: &str, shape| params.shaped(&format!("{name}.{w}"), shape);
        RawHead {
            w_ref: p("w_ref", (h, h)),
            query: Affine::new(p("w_q", (h, h)), p("b", (h, 1))),
            v: p("v", (h, 1)).as_slice(),
        }
    }

    /// The projected context `W_ref C` of one graph (`context_t` is
    /// `[h, n]`), node-major so a candidate's `h` values are contiguous.
    fn project(&self, context_t: &Matrix) -> Matrix {
        self.w_ref.matmul(context_t).transpose()
    }

    /// Scores `vᵀ tanh(W_ref C_i + q)` of the candidates `cands` into
    /// `out`, each summed over `r` from `0.0`.
    fn scores(&self, refs: &Matrix, cands: &[usize], q: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(cands.iter().map(|&i| {
            let mut acc = 0.0f32;
            for ((&p, &qr), &vr) in refs.row(i).iter().zip(q).zip(self.v) {
                acc += vr * (p + qr).tanh();
            }
            acc
        }));
    }
}

/// Softmax in place; equals the unmasked entries of
/// [`masked_softmax`](respect_nn::tape::masked_softmax) bit for bit.
fn softmax(xs: &mut [f32]) {
    let mx = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - mx).exp();
        z += *x;
    }
    for x in xs.iter_mut() {
        *x /= z;
    }
}

/// Exponentiates log-probabilities in place.
fn exp_in_place(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = x.exp());
}

/// Picks a position `j` of `logits`, which score candidates in ascending
/// id order: the first highest logit when greedy, else a draw in
/// proportion to `to_probs(logits)`. In id order this is a dense masked
/// scan's choice.
fn choose(mode: &mut DecodeMode, logits: &mut [f32], to_probs: fn(&mut [f32])) -> usize {
    match mode {
        DecodeMode::Greedy => {
            (1..logits.len()).fold(0, |best, j| if logits[j] > logits[best] { j } else { best })
        }
        DecodeMode::Sample(rng) => {
            to_probs(logits);
            let total: f32 = logits.iter().sum();
            let mut r = rng.gen_range(0.0..1.0f32) * total;
            logits
                .iter()
                .position(|&p| {
                    r -= p;
                    r <= 0.0
                })
                .unwrap_or(logits.len() - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{embed, EmbeddingConfig};
    use respect_graph::{topo, SyntheticConfig, SyntheticSampler};

    fn fixture() -> (PtrNetPolicy, respect_graph::Dag, Matrix) {
        let config = PolicyConfig {
            hidden: 16,
            embedding: EmbeddingConfig { max_parents: 2 },
            dependency_masking: true,
            seed: 11,
        };
        let policy = PtrNetPolicy::new(config);
        let dag = SyntheticSampler::new(
            SyntheticConfig {
                num_nodes: 10,
                ..SyntheticConfig::paper(2)
            },
            5,
        )
        .sample();
        let feats = embed(&dag, &config.embedding);
        (policy, dag, feats)
    }

    #[test]
    fn greedy_decode_is_a_topological_permutation() {
        let (policy, dag, feats) = fixture();
        let seq = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        assert!(topo::is_topological_order(&dag, &seq));
    }

    #[test]
    fn sampled_decode_is_valid_and_varies() {
        let (policy, dag, feats) = fixture();
        let a = policy.decode(&dag, &feats, &mut DecodeMode::sample_seeded(1));
        let b = policy.decode(&dag, &feats, &mut DecodeMode::sample_seeded(2));
        assert!(topo::is_topological_order(&dag, &a));
        assert!(topo::is_topological_order(&dag, &b));
        // with 10 nodes two seeds almost surely differ
        assert_ne!(a, b);
    }

    #[test]
    fn rollout_matches_decode_in_greedy_mode() {
        let (policy, dag, feats) = fixture();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let rollout = policy.rollout(&mut tape, &bindings, &dag, &feats, &mut DecodeMode::Greedy);
        let raw = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        assert_eq!(rollout.sequence, raw, "tape and raw paths must agree");
    }

    #[test]
    fn rollout_log_prob_is_negative_and_differentiable() {
        let (policy, dag, feats) = fixture();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let rollout = policy.rollout(&mut tape, &bindings, &dag, &feats, &mut DecodeMode::Greedy);
        let lp = tape.value(rollout.log_prob).get(0, 0);
        assert!(lp < 0.0, "log prob of a 10-step decode must be < 0");
        let loss = tape.scale(rollout.log_prob, -1.0);
        tape.backward(loss);
        let g = bindings.grads(&tape);
        let total: f32 = g.iter().map(|m| m.max_abs()).sum();
        assert!(total > 0.0, "gradients must reach the parameters");
    }

    #[test]
    fn without_dependency_masking_sequence_is_a_permutation() {
        let (policy, dag, feats) = fixture();
        let config = PolicyConfig {
            dependency_masking: false,
            ..*policy.config()
        };
        let policy = PtrNetPolicy::new(config);
        let seq = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        let mut sorted: Vec<_> = seq.iter().map(|v| v.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..dag.len()).collect::<Vec<_>>());
    }

    #[test]
    fn generalizes_to_larger_graphs_than_trained_shape() {
        let (policy, _, _) = fixture();
        let big = SyntheticSampler::new(
            SyntheticConfig {
                num_nodes: 60,
                ..SyntheticConfig::paper(3)
            },
            9,
        )
        .sample();
        let feats = embed(&big, &policy.config().embedding);
        let seq = policy.decode(&big, &feats, &mut DecodeMode::Greedy);
        assert!(topo::is_topological_order(&big, &seq));
    }

    fn batch_fixture(count: usize) -> (PtrNetPolicy, Vec<(respect_graph::Dag, Matrix)>) {
        let config = PolicyConfig {
            hidden: 16,
            embedding: EmbeddingConfig { max_parents: 2 },
            dependency_masking: true,
            seed: 11,
        };
        let policy = PtrNetPolicy::new(config);
        let items: Vec<_> = (0..count)
            .map(|i| {
                let dag = SyntheticSampler::new(
                    SyntheticConfig {
                        num_nodes: 10,
                        ..SyntheticConfig::paper(2 + i % 3)
                    },
                    40 + i as u64,
                )
                .sample();
                let feats = embed(&dag, &config.embedding);
                (dag, feats)
            })
            .collect();
        (policy, items)
    }

    #[test]
    fn decode_batch_matches_serial_decode() {
        let (policy, items) = batch_fixture(4);
        let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
        // greedy
        let mut modes: Vec<DecodeMode> = (0..4).map(|_| DecodeMode::Greedy).collect();
        let batched = policy.decode_batch(&refs, &mut modes);
        for (g, (dag, feats)) in items.iter().enumerate() {
            let serial = policy.decode(dag, feats, &mut DecodeMode::Greedy);
            assert_eq!(batched[g], serial, "greedy lane {g}");
        }
        // sampled, per-graph seeds
        let mut modes: Vec<DecodeMode> = (0..4)
            .map(|g| DecodeMode::sample_seeded(100 + g as u64))
            .collect();
        let batched = policy.decode_batch(&refs, &mut modes);
        for (g, (dag, feats)) in items.iter().enumerate() {
            let serial = policy.decode(dag, feats, &mut DecodeMode::sample_seeded(100 + g as u64));
            assert_eq!(batched[g], serial, "sampled lane {g}");
        }
    }

    #[test]
    fn rollout_batch_matches_serial_rollout() {
        let (policy, items) = batch_fixture(3);
        let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
        let mut modes: Vec<DecodeMode> = (0..3)
            .map(|g| DecodeMode::sample_seeded(7 + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        assert_eq!(tape.value(batch.log_probs).shape(), (1, 3));
        for (g, (dag, feats)) in items.iter().enumerate() {
            let mut t = Tape::new();
            let b = policy.bind(&mut t);
            let serial = policy.rollout(
                &mut t,
                &b,
                dag,
                feats,
                &mut DecodeMode::sample_seeded(7 + g as u64),
            );
            assert_eq!(batch.sequences[g], serial.sequence, "lane {g} sequence");
            let lp_batch = tape.value(batch.log_probs).get(0, g);
            let lp_serial = t.value(serial.log_prob).get(0, 0);
            assert_eq!(
                lp_batch.to_bits(),
                lp_serial.to_bits(),
                "lane {g} log-prob: batched {lp_batch} vs serial {lp_serial}"
            );
        }
    }

    #[test]
    fn rollout_batch_gradients_flow() {
        let (policy, items) = batch_fixture(2);
        let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
        let mut modes: Vec<DecodeMode> = (0..2).map(|_| DecodeMode::Greedy).collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        let loss0 = tape.sum(batch.log_probs);
        let loss = tape.scale(loss0, -1.0);
        tape.backward(loss);
        let g = bindings.grads(&tape);
        let total: f32 = g.iter().map(|m| m.max_abs()).sum();
        assert!(total > 0.0, "gradients must reach the parameters");
    }

    /// The fixture policy restored with its `name` weight swapped for a
    /// zero matrix of `shape`.
    fn misshaped(name: &str, shape: (usize, usize)) -> PtrNetPolicy {
        let (policy, _, _) = fixture();
        let mut params = Params::new();
        for (n, m) in policy.params().iter() {
            let m = if n == name {
                Matrix::zeros(shape.0, shape.1)
            } else {
                m.clone()
            };
            params.insert(n, m);
        }
        PtrNetPolicy::from_parts(*policy.config(), params)
    }

    #[test]
    #[should_panic(expected = "\"enc.w\" has shape")]
    fn misshaped_encoder_weights_panic_instead_of_decoding() {
        let (_, dag, feats) = fixture();
        // four gate rows too many: the product still runs, but gates
        // sliced by `hidden` would be read misaligned
        misshaped("enc.w", (4 * 16 + 4, 2 * 16)).decode(&dag, &feats, &mut DecodeMode::Greedy);
    }

    #[test]
    #[should_panic(expected = "\"pointer.w_q\" has shape")]
    fn misshaped_pointer_query_panics_instead_of_decoding() {
        let (_, dag, feats) = fixture();
        misshaped("pointer.w_q", (16, 17)).decode(&dag, &feats, &mut DecodeMode::Greedy);
    }

    #[test]
    fn deterministic_weights_per_seed() {
        let a = PtrNetPolicy::new(PolicyConfig::small(8));
        let b = PtrNetPolicy::new(PolicyConfig::small(8));
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn paper_config_uses_256_cells() {
        let c = PolicyConfig::paper();
        assert_eq!(c.hidden, 256);
        assert!(c.dependency_masking);
    }
}
