//! Additive attention primitives for the glimpse and pointer heads.
//!
//! The paper's Algorithm 1 runs, per decoding step,
//!
//! ```text
//! h  <- glimpse(C * θg, ωg · h + βg)
//! Pi <- pointer(tanh(C * θp, ωp · h + βp))
//! ```
//!
//! Both are additive (Bahdanau) attentions over the encoder context matrix
//! `C ∈ R^{d x n}`: scores `u_i = vᵀ tanh(W_ref C_i + W_q q)`; the glimpse
//! additionally contracts `C` with the score softmax to refine the query.

use rand::Rng;

use crate::init;
use crate::params::{Bindings, Params};
use crate::tape::{Tape, Var};
use crate::tensor::Matrix;

/// Static description of one additive-attention head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttentionSpec {
    /// Hidden dimension `d` of context columns and query.
    pub dim: usize,
    /// Parameter-name prefix, e.g. `"glimpse"` or `"pointer"`.
    pub name: String,
}

impl AttentionSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        AttentionSpec {
            dim,
            name: name.into(),
        }
    }

    fn names(&self) -> (String, String, String, String) {
        (
            format!("{}.w_ref", self.name),
            format!("{}.w_q", self.name),
            format!("{}.v", self.name),
            format!("{}.b", self.name),
        )
    }

    /// Registers `w_ref`, `w_q`, `v`, and `b` in `params`.
    pub fn register(&self, params: &mut Params, rng: &mut impl Rng) {
        let (wr, wq, v, b) = self.names();
        params.insert(wr, init::xavier_uniform(self.dim, self.dim, rng));
        params.insert(wq, init::xavier_uniform(self.dim, self.dim, rng));
        params.insert(v, init::xavier_uniform(self.dim, 1, rng));
        params.insert(b, Matrix::zeros(self.dim, 1));
    }

    /// Binds the registered weights on a tape.
    ///
    /// # Panics
    ///
    /// Panics if the head was not registered in the bound `Params`.
    pub fn bind(&self, bindings: &Bindings) -> AttentionHead {
        let (wr, wq, v, b) = self.names();
        AttentionHead {
            w_ref: bindings.var(&wr),
            w_q: bindings.var(&wq),
            v: bindings.var(&v),
            b: bindings.var(&b),
        }
    }
}

/// An attention head bound to one tape.
#[derive(Debug, Clone, Copy)]
pub struct AttentionHead {
    w_ref: Var,
    w_q: Var,
    v: Var,
    b: Var,
}

impl AttentionHead {
    /// Precomputes `W_ref @ C` once per graph; reused by every decode step.
    pub fn project_context(&self, tape: &mut Tape, context: Var) -> Var {
        tape.matmul(self.w_ref, context)
    }

    /// Batched scores: `projected` stacks `B` projected contexts
    /// graph-major (`[d, B*n]`), `q` holds one query column per graph
    /// (`[d, B]`); returns `[n, B]` whose column `g` holds the raw scores
    /// `u_i = vᵀ tanh(W_ref C_i + W_q q_g + b)` of graph `g` alone.
    pub fn scores_batch(&self, tape: &mut Tape, projected: Var, q: Var, n: usize) -> Var {
        let qp = tape.matmul(self.w_q, q);
        let qb = tape.add_col_broadcast(qp, self.b);
        let s = tape.add_block_broadcast(projected, qb, n);
        let u = tape.tanh(s);
        let row = tape.matmul_ta(self.v, u); // [1, B*n]
        tape.unflatten_row(row, n)
    }

    /// Batched glimpse over stacked contexts (`context`, `projected` are
    /// `[d, B*n]`; `masks[g*n + i]` masks node `i` of graph `g`): softmax
    /// each graph's unmasked scores and return `[d, B]` with one
    /// attention-weighted context column `C_g softmax(u_g)` per graph.
    pub fn glimpse_batch(
        &self,
        tape: &mut Tape,
        context: Var,
        projected: Var,
        q: Var,
        n: usize,
        masks: &[bool],
    ) -> Var {
        let u = self.scores_batch(tape, projected, q, n);
        let p = tape.softmax_masked_cols(u, masks);
        tape.block_matvec(context, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::masked_softmax;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn head_fixture(d: usize) -> (Params, AttentionSpec) {
        let spec = AttentionSpec::new("att", d);
        let mut params = Params::new();
        spec.register(&mut params, &mut StdRng::seed_from_u64(5));
        (params, spec)
    }

    fn context(d: usize, n: usize) -> Matrix {
        Matrix::from_vec(d, n, (0..d * n).map(|i| 0.1 * i as f32 - 0.4).collect())
    }

    /// Scores (`[n, 1]`) and glimpse (`[d, 1]`) of one graph, composed
    /// from unbatched ops: the reference each batch lane must reproduce.
    fn serial_scores_and_glimpse(
        head: &AttentionHead,
        tape: &mut Tape,
        context: Var,
        projected: Var,
        q: Var,
        mask: &[bool],
    ) -> (Matrix, Matrix) {
        let qp = tape.matmul(head.w_q, q);
        let qb = tape.add(qp, head.b);
        let s = tape.add_col_broadcast(projected, qb);
        let u = tape.tanh(s);
        let row = tape.matmul_ta(head.v, u);
        let scores = tape.value(row).transpose();
        let glimpse = tape.value(context).matmul(&masked_softmax(&scores, mask));
        (scores, glimpse)
    }

    #[test]
    fn scores_shape_is_n_by_one() {
        let (params, spec) = head_fixture(4);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let head = spec.bind(&binds);
        let c = tape.leaf(context(4, 6));
        let q = tape.leaf(Matrix::col_from_slice(&[0.1, 0.2, 0.3, 0.4]));
        let proj = head.project_context(&mut tape, c);
        let u = head.scores_batch(&mut tape, proj, q, 6);
        assert_eq!(tape.value(u).shape(), (6, 1));
    }

    #[test]
    fn glimpse_is_convex_combination_of_context() {
        let (params, spec) = head_fixture(3);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let head = spec.bind(&binds);
        let cm = context(3, 5);
        let c = tape.leaf(cm.clone());
        let q = tape.leaf(Matrix::col_from_slice(&[1.0, -1.0, 0.5]));
        let proj = head.project_context(&mut tape, c);
        let g = head.glimpse_batch(&mut tape, c, proj, q, 5, &[false; 5]);
        let gv = tape.value(g);
        assert_eq!(gv.shape(), (3, 1));
        // each coordinate must lie within the min/max of context row
        for r in 0..3 {
            let row: Vec<f32> = (0..5).map(|cidx| cm.get(r, cidx)).collect();
            let (lo, hi) = row
                .iter()
                .fold((f32::MAX, f32::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let v = gv.get(r, 0);
            assert!(
                v >= lo - 1e-5 && v <= hi + 1e-5,
                "row {r}: {v} not in [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn masking_excludes_columns_from_glimpse() {
        let (params, spec) = head_fixture(2);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let head = spec.bind(&binds);
        // context where column 0 is huge; masking it must change output
        let mut cm = context(2, 3);
        cm.set(0, 0, 100.0);
        let c = tape.leaf(cm);
        let q = tape.leaf(Matrix::col_from_slice(&[0.3, -0.3]));
        let proj = head.project_context(&mut tape, c);
        let g_all = head.glimpse_batch(&mut tape, c, proj, q, 3, &[false, false, false]);
        let g_mask = head.glimpse_batch(&mut tape, c, proj, q, 3, &[true, false, false]);
        assert_ne!(tape.value(g_all), tape.value(g_mask));
        // masked glimpse cannot see the huge value
        assert!(tape.value(g_mask).get(0, 0) < 10.0);
    }

    #[test]
    fn batched_scores_and_glimpse_match_serial_per_graph() {
        let (params, spec) = head_fixture(3);
        let n = 4;
        let ctx_a = context(3, n);
        let ctx_b = {
            let mut m = context(3, n);
            for i in 0..m.rows() * m.cols() {
                m.as_mut_slice()[i] *= -0.5;
            }
            m
        };
        let queries = [[0.2f32, -0.4, 0.8], [-0.1, 0.6, 0.0]];
        let masks = [vec![false, true, false, false], vec![false; 4]];

        // batched pass: contexts stacked graph-major, queries as columns
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let head = spec.bind(&binds);
        let mut stacked = Matrix::zeros(3, 2 * n);
        for (g, ctx) in [&ctx_a, &ctx_b].iter().enumerate() {
            for r in 0..3 {
                for i in 0..n {
                    stacked.set(r, g * n + i, ctx.get(r, i));
                }
            }
        }
        let c = tape.leaf(stacked);
        let mut q = Matrix::zeros(3, 2);
        for (g, col) in queries.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                q.set(r, g, v);
            }
        }
        let qv = tape.leaf(q);
        let proj = head.project_context(&mut tape, c);
        let scores = head.scores_batch(&mut tape, proj, qv, n);
        let flat_masks: Vec<bool> = masks.iter().flatten().copied().collect();
        let glimpse = head.glimpse_batch(&mut tape, c, proj, qv, n, &flat_masks);

        for (g, ctx) in [&ctx_a, &ctx_b].iter().enumerate() {
            let mut t = Tape::new();
            let b = params.bind(&mut t);
            let h = spec.bind(&b);
            let cv = t.leaf((*ctx).clone());
            let qv1 = t.leaf(Matrix::col_from_slice(&queries[g]));
            let p1 = h.project_context(&mut t, cv);
            let (u1, g1) = serial_scores_and_glimpse(&h, &mut t, cv, p1, qv1, &masks[g]);
            for i in 0..n {
                assert_eq!(
                    tape.value(scores).get(i, g).to_bits(),
                    u1.get(i, 0).to_bits(),
                    "score {i} of graph {g}"
                );
            }
            for r in 0..3 {
                assert_eq!(
                    tape.value(glimpse).get(r, g).to_bits(),
                    g1.get(r, 0).to_bits(),
                    "glimpse row {r} of graph {g}"
                );
            }
        }
    }

    #[test]
    fn gradients_reach_all_attention_weights() {
        let (params, spec) = head_fixture(3);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let head = spec.bind(&binds);
        let c = tape.leaf(context(3, 4));
        let q = tape.leaf(Matrix::col_from_slice(&[0.2, 0.1, -0.1]));
        let proj = head.project_context(&mut tape, c);
        let g = head.glimpse_batch(&mut tape, c, proj, q, 4, &[false; 4]);
        let loss = tape.sum(g);
        tape.backward(loss);
        for name in ["att.w_ref", "att.w_q", "att.v"] {
            assert!(
                tape.grad(binds.var(name)).max_abs() > 0.0,
                "{name} gradient must be nonzero"
            );
        }
    }
}
