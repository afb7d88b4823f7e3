//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records every operation of a forward pass; [`Tape::backward`]
//! walks the tape in reverse, accumulating gradients. The op set is exactly
//! what an LSTM pointer network needs: affine maps, gate nonlinearities,
//! row slicing/concatenation for fused LSTM gates, masked (log-)softmax for
//! pointer decoding with visited-node masking (paper, Algorithm 1: "logits
//! of the nodes that appeared in the solution are set to −∞"), and scalar
//! reductions for the REINFORCE loss.
//!
//! Gradients are checked against central finite differences in this
//! module's tests, op by op and through a full LSTM + attention chain.

use crate::tensor::Matrix;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Large negative logit standing in for −∞; keeps softmax NaN-free.
pub const NEG_INF_LOGIT: f32 = -1.0e9;

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    MatMulTA(Var, Var),
    Add(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    AddColBroadcast(Var, Var),
    Sigmoid(Var),
    Tanh(Var),
    ConcatRows(Var, Var),
    ConcatCols(Vec<Var>),
    SliceRows(Var, usize, usize),
    Transpose(Var),
    Sum(Var),
    // batched primitives (one column per batch lane)
    GatherCols(Var, Vec<usize>),
    AddBlockBroadcast(Var, Var, usize),
    UnflattenRow(Var, usize),
    SoftmaxMaskedCols(Var, Vec<bool>),
    LogSoftmaxMaskedCols(Var, Vec<bool>),
    PickCols(Var, Vec<usize>),
    BlockMatVec(Var, Var),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    op: Op,
}

/// Autodiff tape. See the [module docs](self) and the crate-level example.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Matrix>,
    grads_valid: bool,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.grads_valid = false;
        let id = Var(self.nodes.len());
        self.nodes.push(Node { value, op });
        id
    }

    /// Records an input value (parameter or constant). Gradients are
    /// accumulated for every leaf; the caller decides which ones to use.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`backward`](Tape::backward) target w.r.t.
    /// `v`.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been called since the last recorded op.
    pub fn grad(&self, v: Var) -> &Matrix {
        assert!(self.grads_valid, "call backward() before grad()");
        &self.grads[v.0]
    }

    // --- differentiable ops ------------------------------------------------

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b))
    }

    /// `aᵀ @ b` (used for pointer scores `vᵀ tanh(...)`).
    pub fn matmul_ta(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul_ta(&self.nodes[b.0].value);
        self.push(v, Op::MatMulTA(a, b))
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `a * b` (Hadamard).
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(v, Op::MulElem(a, b))
    }

    /// `a * k` for a constant scalar `k` (no gradient flows into `k`).
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * k);
        self.push(v, Op::Scale(a, k))
    }

    /// Adds column vector `v` to every column of `m` (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless `v` is `(m.rows, 1)`.
    pub fn add_col_broadcast(&mut self, m: Var, v: Var) -> Var {
        let (mm, vv) = (&self.nodes[m.0].value, &self.nodes[v.0].value);
        assert_eq!(vv.shape(), (mm.rows(), 1), "broadcast vector shape");
        let mut out = mm.clone();
        for r in 0..out.rows() {
            let b = vv.get(r, 0);
            for c in 0..out.cols() {
                out.set(r, c, out.get(r, c) + b);
            }
        }
        self.push(out, Op::AddColBroadcast(m, v))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Stacks `a` on top of `b` (same column count).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.cols(), bv.cols(), "concat column mismatch");
        let mut data = Vec::with_capacity(av.len() + bv.len());
        data.extend_from_slice(av.as_slice());
        data.extend_from_slice(bv.as_slice());
        let v = Matrix::from_vec(av.rows() + bv.rows(), av.cols(), data);
        self.push(v, Op::ConcatRows(a, b))
    }

    /// Concatenates column vectors (or equal-height matrices) side by
    /// side — e.g. assembling the encoder context matrix `C` from
    /// per-step hidden states.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty or heights differ.
    pub fn concat_cols(&mut self, cols: &[Var]) -> Var {
        assert!(!cols.is_empty(), "concat_cols needs at least one column");
        let rows = self.nodes[cols[0].0].value.rows();
        let total_cols: usize = cols
            .iter()
            .map(|&c| {
                let m = &self.nodes[c.0].value;
                assert_eq!(m.rows(), rows, "column height mismatch");
                m.cols()
            })
            .sum();
        let mut out = Matrix::zeros(rows, total_cols);
        let mut at = 0;
        for &c in cols {
            let m = &self.nodes[c.0].value;
            for r in 0..rows {
                for cc in 0..m.cols() {
                    out.set(r, at + cc, m.get(r, cc));
                }
            }
            at += m.cols();
        }
        self.push(out, Op::ConcatCols(cols.to_vec()))
    }

    /// Rows `start..start + len` of `a` (LSTM gate splitting).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `a`'s rows.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert!(start + len <= av.rows(), "row slice out of range");
        let cols = av.cols();
        let data = av.as_slice()[start * cols..(start + len) * cols].to_vec();
        let v = Matrix::from_vec(len, cols, data);
        self.push(v, Op::SliceRows(a, start, len))
    }

    /// Transposed copy of `a`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Sum of all elements, as a `(1, 1)` scalar.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.sum()]);
        self.push(v, Op::Sum(a))
    }

    // --- batched primitives ------------------------------------------------
    //
    // These operate on matrices whose columns are batch lanes: a batch of
    // `B` graphs with `n` nodes each is laid out either as `[h, B]` (one
    // state column per graph) or as a graph-major block matrix `[h, B*n]`
    // (columns `g*n..(g+1)*n` belong to graph `g`). Every column keeps one
    // graph's accumulation order, so each lane of a batched rollout is bit
    // for bit a one-graph rollout.

    /// Gathers columns `cols[j]` of `a` into a new `[rows, cols.len()]`
    /// matrix (e.g. one node embedding per batch lane); the forward
    /// kernel is [`Matrix::gather_cols`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_cols(&mut self, a: Var, cols: &[usize]) -> Var {
        let out = self.nodes[a.0].value.gather_cols(cols);
        self.push(out, Op::GatherCols(a, cols.to_vec()))
    }

    /// Adds column `g` of `q` (`[h, B]`) to every column of block `g` of
    /// `m` (`[h, B*block]`) — the batched form of
    /// [`add_col_broadcast`](Tape::add_col_broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless `m.cols() == q.cols() * block` and heights match.
    pub fn add_block_broadcast(&mut self, m: Var, q: Var, block: usize) -> Var {
        let (mm, qq) = (&self.nodes[m.0].value, &self.nodes[q.0].value);
        assert_eq!(mm.rows(), qq.rows(), "broadcast height mismatch");
        assert_eq!(mm.cols(), qq.cols() * block, "block count mismatch");
        let mut out = mm.clone();
        for r in 0..out.rows() {
            for g in 0..qq.cols() {
                let b = qq.get(r, g);
                for i in 0..block {
                    let c = g * block + i;
                    out.set(r, c, out.get(r, c) + b);
                }
            }
        }
        self.push(out, Op::AddBlockBroadcast(m, q, block))
    }

    /// Reinterprets a `[1, B*rows]` row as a `[rows, B]` matrix with
    /// `out[i, g] = a[0, g*rows + i]` (per-graph score columns from a
    /// blocked `vᵀ tanh(..)` contraction).
    ///
    /// # Panics
    ///
    /// Panics unless `a` is a single row whose length divides by `rows`.
    pub fn unflatten_row(&mut self, a: Var, rows: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rows(), 1, "unflatten_row takes a row vector");
        assert_eq!(av.cols() % rows, 0, "row length must divide by rows");
        let b = av.cols() / rows;
        let mut out = Matrix::zeros(rows, b);
        for g in 0..b {
            for i in 0..rows {
                out.set(i, g, av.get(0, g * rows + i));
            }
        }
        self.push(out, Op::UnflattenRow(a, rows))
    }

    /// Per-column masked softmax over `[n, B]`; `masks[g*n + i]` masks row
    /// `i` of column `g`, whose probability is then exactly 0. The forward
    /// kernel is [`masked_softmax_cols`].
    ///
    /// # Panics
    ///
    /// Panics on mask-length mismatch or a fully masked column.
    pub fn softmax_masked_cols(&mut self, a: Var, masks: &[bool]) -> Var {
        let v = masked_softmax_cols(&self.nodes[a.0].value, masks);
        self.push(v, Op::SoftmaxMaskedCols(a, masks.to_vec()))
    }

    /// Per-column masked log-softmax over `[n, B]`; `masks[g*n + i]` masks
    /// row `i` of column `g`, which then gets [`NEG_INF_LOGIT`].
    ///
    /// # Panics
    ///
    /// Panics on mask-length mismatch or a fully masked column.
    pub fn log_softmax_masked_cols(&mut self, a: Var, masks: &[bool]) -> Var {
        let av = &self.nodes[a.0].value;
        let (n, b) = av.shape();
        assert_eq!(masks.len(), n * b, "mask length");
        let mut out = Matrix::zeros(n, b);
        for g in 0..b {
            let mask = &masks[g * n..(g + 1) * n];
            let lse = col_masked_log_sum_exp(av, g, mask);
            for (i, &masked) in mask.iter().enumerate() {
                let y = if masked {
                    NEG_INF_LOGIT
                } else {
                    av.get(i, g) - lse
                };
                out.set(i, g, y);
            }
        }
        self.push(out, Op::LogSoftmaxMaskedCols(a, masks.to_vec()))
    }

    /// Picks entry `indices[g]` of every column `g`, producing a `[1, B]`
    /// row (the chosen log-probability per batch lane).
    ///
    /// # Panics
    ///
    /// Panics unless `indices.len() == a.cols()` and indices are in range.
    pub fn pick_cols(&mut self, a: Var, indices: &[usize]) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(indices.len(), av.cols(), "one index per column");
        let mut out = Matrix::zeros(1, av.cols());
        for (g, &i) in indices.iter().enumerate() {
            assert!(i < av.rows(), "pick index out of range");
            out.set(0, g, av.get(i, g));
        }
        self.push(out, Op::PickCols(a, indices.to_vec()))
    }

    /// Block-diagonal matrix-vector product (the batched glimpse
    /// contraction); the forward kernel is [`Matrix::block_matvec`].
    ///
    /// # Panics
    ///
    /// Panics unless `c.cols() == p.rows() * p.cols()`.
    pub fn block_matvec(&mut self, c: Var, p: Var) -> Var {
        let out = self.nodes[c.0].value.block_matvec(&self.nodes[p.0].value);
        self.push(out, Op::BlockMatVec(c, p))
    }

    // --- backward ----------------------------------------------------------

    /// Runs reverse-mode accumulation from scalar `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `(1, 1)`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "scalar loss");
        self.grads = self
            .nodes
            .iter()
            .map(|n| Matrix::zeros(n.value.rows(), n.value.cols()))
            .collect();
        self.grads[loss.0].set(0, 0, 1.0);
        for idx in (0..self.nodes.len()).rev() {
            let g = std::mem::replace(&mut self.grads[idx], Matrix::zeros(0, 0));
            if g.max_abs() == 0.0 {
                self.grads[idx] = g;
                continue;
            }
            let op = self.nodes[idx].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = g.matmul_tb(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.matmul_ta(&g);
                    self.grads[a.0].add_assign(&da);
                    self.grads[b.0].add_assign(&db);
                }
                Op::MatMulTA(a, b) => {
                    // C = Aᵀ B: dA = B gᵀ, dB = A g.
                    let da = self.nodes[b.0].value.matmul_tb(&g);
                    let db = self.nodes[a.0].value.matmul(&g);
                    self.grads[a.0].add_assign(&da);
                    self.grads[b.0].add_assign(&db);
                }
                Op::Add(a, b) => {
                    self.grads[a.0].add_assign(&g);
                    self.grads[b.0].add_assign(&g);
                }
                Op::MulElem(a, b) => {
                    let da = g.zip(&self.nodes[b.0].value, |x, y| x * y);
                    let db = g.zip(&self.nodes[a.0].value, |x, y| x * y);
                    self.grads[a.0].add_assign(&da);
                    self.grads[b.0].add_assign(&db);
                }
                Op::Scale(a, k) => {
                    let da = g.map(|x| x * k);
                    self.grads[a.0].add_assign(&da);
                }
                Op::AddColBroadcast(m, v) => {
                    self.grads[m.0].add_assign(&g);
                    let mut dv = Matrix::zeros(g.rows(), 1);
                    for r in 0..g.rows() {
                        let mut s = 0.0;
                        for c in 0..g.cols() {
                            s += g.get(r, c);
                        }
                        dv.set(r, 0, s);
                    }
                    self.grads[v.0].add_assign(&dv);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[idx].value;
                    let da = g.zip(y, |gi, yi| gi * yi * (1.0 - yi));
                    self.grads[a.0].add_assign(&da);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[idx].value;
                    let da = g.zip(y, |gi, yi| gi * (1.0 - yi * yi));
                    self.grads[a.0].add_assign(&da);
                }
                Op::ConcatRows(a, b) => {
                    let ra = self.nodes[a.0].value.rows();
                    let cols = g.cols();
                    let (top, bot) = g.as_slice().split_at(ra * cols);
                    let da = Matrix::from_vec(ra, cols, top.to_vec());
                    let db = Matrix::from_vec(g.rows() - ra, cols, bot.to_vec());
                    self.grads[a.0].add_assign(&da);
                    self.grads[b.0].add_assign(&db);
                }
                Op::ConcatCols(cols) => {
                    let mut at = 0;
                    for &c in &cols {
                        let m_cols = self.nodes[c.0].value.cols();
                        let rows = g.rows();
                        let mut dc = Matrix::zeros(rows, m_cols);
                        for r in 0..rows {
                            for cc in 0..m_cols {
                                dc.set(r, cc, g.get(r, at + cc));
                            }
                        }
                        self.grads[c.0].add_assign(&dc);
                        at += m_cols;
                    }
                }
                Op::SliceRows(a, start, len) => {
                    let cols = g.cols();
                    let ga = &mut self.grads[a.0];
                    for r in 0..len {
                        for c in 0..cols {
                            let cur = ga.get(start + r, c);
                            ga.set(start + r, c, cur + g.get(r, c));
                        }
                    }
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    self.grads[a.0].add_assign(&da);
                }
                Op::Sum(a) => {
                    let s = g.get(0, 0);
                    let shape = self.nodes[a.0].value.shape();
                    let da = Matrix::full(shape.0, shape.1, s);
                    self.grads[a.0].add_assign(&da);
                }
                Op::GatherCols(a, cols) => {
                    let ga = &mut self.grads[a.0];
                    for (j, &c) in cols.iter().enumerate() {
                        for r in 0..g.rows() {
                            let cur = ga.get(r, c);
                            ga.set(r, c, cur + g.get(r, j));
                        }
                    }
                }
                Op::AddBlockBroadcast(m, q, block) => {
                    self.grads[m.0].add_assign(&g);
                    let b = g.cols() / block;
                    let mut dq = Matrix::zeros(g.rows(), b);
                    for r in 0..g.rows() {
                        for gg in 0..b {
                            let mut s = 0.0;
                            for i in 0..block {
                                s += g.get(r, gg * block + i);
                            }
                            dq.set(r, gg, s);
                        }
                    }
                    self.grads[q.0].add_assign(&dq);
                }
                Op::UnflattenRow(a, rows) => {
                    let ga = &mut self.grads[a.0];
                    for gg in 0..g.cols() {
                        for i in 0..rows {
                            let c = gg * rows + i;
                            let cur = ga.get(0, c);
                            ga.set(0, c, cur + g.get(i, gg));
                        }
                    }
                }
                Op::SoftmaxMaskedCols(a, masks) => {
                    let y = &self.nodes[idx].value;
                    let n = y.rows();
                    let mut da = Matrix::zeros(n, y.cols());
                    for gg in 0..y.cols() {
                        let mask = &masks[gg * n..(gg + 1) * n];
                        let dot: f32 = (0..n)
                            .filter(|&i| !mask[i])
                            .map(|i| g.get(i, gg) * y.get(i, gg))
                            .sum();
                        for (i, &masked) in mask.iter().enumerate() {
                            if !masked {
                                da.set(i, gg, y.get(i, gg) * (g.get(i, gg) - dot));
                            }
                        }
                    }
                    self.grads[a.0].add_assign(&da);
                }
                Op::LogSoftmaxMaskedCols(a, masks) => {
                    let y = &self.nodes[idx].value;
                    let n = y.rows();
                    let mut da = Matrix::zeros(n, y.cols());
                    for gg in 0..y.cols() {
                        let mask = &masks[gg * n..(gg + 1) * n];
                        let gsum: f32 = (0..n).filter(|&i| !mask[i]).map(|i| g.get(i, gg)).sum();
                        for (i, &masked) in mask.iter().enumerate() {
                            if !masked {
                                da.set(i, gg, g.get(i, gg) - y.get(i, gg).exp() * gsum);
                            }
                        }
                    }
                    self.grads[a.0].add_assign(&da);
                }
                Op::PickCols(a, indices) => {
                    let ga = &mut self.grads[a.0];
                    for (gg, &i) in indices.iter().enumerate() {
                        let cur = ga.get(i, gg);
                        ga.set(i, gg, cur + g.get(0, gg));
                    }
                }
                Op::BlockMatVec(c, p) => {
                    let (n, b) = self.nodes[p.0].value.shape();
                    let h = g.rows();
                    {
                        let pv = &self.nodes[p.0].value;
                        let mut dc = Matrix::zeros(h, n * b);
                        for gg in 0..b {
                            for r in 0..h {
                                let gr = g.get(r, gg);
                                for i in 0..n {
                                    dc.set(r, gg * n + i, gr * pv.get(i, gg));
                                }
                            }
                        }
                        self.grads[c.0].add_assign(&dc);
                    }
                    {
                        let cv = &self.nodes[c.0].value;
                        let mut dp = Matrix::zeros(n, b);
                        for gg in 0..b {
                            for i in 0..n {
                                let mut s = 0.0;
                                for r in 0..h {
                                    s += cv.get(r, gg * n + i) * g.get(r, gg);
                                }
                                dp.set(i, gg, s);
                            }
                        }
                        self.grads[p.0].add_assign(&dp);
                    }
                }
            }
            self.grads[idx] = g;
        }
        self.grads_valid = true;
    }
}

/// Masked softmax over a column vector: [`masked_softmax_cols`] of one
/// column, and the reference the gradient-free decode's candidate-only
/// softmax matches bit for bit.
///
/// # Panics
///
/// Panics if `x` is not a column vector matching `mask`, or if every entry
/// is masked.
pub fn masked_softmax(x: &Matrix, mask: &[bool]) -> Matrix {
    assert_eq!(x.cols(), 1, "softmax on column vectors");
    masked_softmax_cols(x, mask)
}

/// Per-column masked softmax over `[n, B]` (`masks[g*n + i]` masks row `i`
/// of column `g`); each column matches [`masked_softmax`] bit for bit.
/// The forward kernel of [`Tape::softmax_masked_cols`].
///
/// # Panics
///
/// Panics on mask-length mismatch or a fully masked column.
pub fn masked_softmax_cols(x: &Matrix, masks: &[bool]) -> Matrix {
    let (n, b) = x.shape();
    assert_eq!(masks.len(), n * b, "mask length");
    let mut out = Matrix::zeros(n, b);
    for g in 0..b {
        let mask = &masks[g * n..(g + 1) * n];
        assert!(mask.iter().any(|&m| !m), "all entries masked");
        let mx = (0..n)
            .filter(|&i| !mask[i])
            .map(|i| x.get(i, g))
            .fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for (i, &masked) in mask.iter().enumerate() {
            if !masked {
                let e = (x.get(i, g) - mx).exp();
                out.set(i, g, e);
                z += e;
            }
        }
        for i in 0..n {
            out.set(i, g, out.get(i, g) / z);
        }
    }
    out
}

fn col_masked_log_sum_exp(x: &Matrix, col: usize, mask: &[bool]) -> f32 {
    assert!(mask.iter().any(|&m| !m), "all entries masked");
    let mx = (0..x.rows())
        .filter(|&i| !mask[i])
        .map(|i| x.get(i, col))
        .fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = (0..x.rows())
        .filter(|&i| !mask[i])
        .map(|i| (x.get(i, col) - mx).exp())
        .sum();
    mx + z.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks d loss / d leaf against central finite differences.
    fn finite_diff_check(build: impl Fn(&mut Tape, Var) -> Var, input: Matrix, tol: f32) {
        let eps = 1e-3f32;
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).clone();

        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let v = t.leaf(m);
                let l = build(&mut t, v);
                t.value(l).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "element {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Masked log-softmax of a column vector, one entry per row: the
    /// reference each column of the batched op must reproduce.
    fn log_softmax_ref(x: &Matrix, mask: &[bool]) -> Vec<f32> {
        let unmasked = || (0..x.rows()).filter(|&i| !mask[i]).map(|i| x.get(i, 0));
        let mx = unmasked().fold(f32::NEG_INFINITY, f32::max);
        let z: f32 = unmasked().map(|v| (v - mx).exp()).sum();
        let lse = mx + z.ln();
        (0..x.rows())
            .map(|i| {
                if mask[i] {
                    NEG_INF_LOGIT
                } else {
                    x.get(i, 0) - lse
                }
            })
            .collect()
    }

    fn test_input(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|i| 0.3 * i as f32 - 0.7).collect())
    }

    #[test]
    fn grad_tanh() {
        finite_diff_check(
            |t, x| {
                let y = t.tanh(x);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid() {
        finite_diff_check(
            |t, x| {
                let y = t.sigmoid(x);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        let w = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect());
        finite_diff_check(
            move |t, x| {
                let wv = t.leaf(w.clone());
                let y = t.matmul(wv, x);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            test_input(4),
            1e-2,
        );
        // and gradient w.r.t. the matrix side
        let xfix = test_input(4);
        finite_diff_check(
            move |t, w| {
                let xv = t.leaf(xfix.clone());
                let y = t.matmul(w, xv);
                t.sum(y)
            },
            Matrix::from_vec(2, 4, (0..8).map(|i| 0.2 * i as f32 - 0.6).collect()),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_ta() {
        let b = Matrix::from_vec(4, 2, (0..8).map(|i| 0.15 * i as f32 - 0.4).collect());
        finite_diff_check(
            move |t, a| {
                let bv = t.leaf(b.clone());
                let c = t.matmul_ta(a, bv);
                let c2 = t.tanh(c);
                t.sum(c2)
            },
            Matrix::from_vec(4, 3, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            1e-2,
        );
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        finite_diff_check(
            |t, x| {
                let a = t.scale(x, 1.7);
                let b = t.mul_elem(a, x);
                // subtraction: an add of a −1 scale
                let neg = t.scale(x, -1.0);
                let c = t.add(b, neg);
                let d = t.add(c, x);
                t.sum(d)
            },
            test_input(5),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice_transpose() {
        finite_diff_check(
            |t, x| {
                let c = t.concat_rows(x, x);
                let s = t.slice_rows(c, 2, 4);
                let tr = t.transpose(s);
                let tr2 = t.transpose(tr);
                let y = t.tanh(tr2);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_cols() {
        finite_diff_check(
            |t, x| {
                let y = t.scale(x, 2.0);
                let m = t.concat_cols(&[x, y, x]);
                let m2 = t.tanh(m);
                t.sum(m2)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn concat_cols_layout() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::col_from_slice(&[1.0, 2.0]));
        let b = t.leaf(Matrix::col_from_slice(&[3.0, 4.0]));
        let c = t.concat_cols(&[a, b]);
        let v = t.value(c);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(0, 1), 3.0);
        assert_eq!(v.get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn concat_cols_empty_panics() {
        let mut t = Tape::new();
        let _ = t.concat_cols(&[]);
    }

    #[test]
    fn grad_add_col_broadcast() {
        let m = Matrix::from_vec(3, 2, (0..6).map(|i| 0.1 * i as f32).collect());
        finite_diff_check(
            move |t, v| {
                let mv = t.leaf(m.clone());
                let y = t.add_col_broadcast(mv, v);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_masked() {
        // one column: the single-lane case of the batched op
        let mask = vec![false, true, false, false];
        finite_diff_check(
            move |t, x| {
                let y = t.softmax_masked_cols(x, &mask);
                let w = t.leaf(Matrix::col_from_slice(&[0.3, 0.0, -0.8, 1.2]));
                let p = t.mul_elem(y, w);
                t.sum(p)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_masked_via_pick() {
        let mask = vec![false, false, true, false];
        finite_diff_check(
            move |t, x| {
                let y = t.log_softmax_masked_cols(x, &mask);
                t.pick_cols(y, &[3])
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn softmax_masked_sums_to_one_and_zeroes_masked() {
        let x = Matrix::col_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let y = masked_softmax(&x, &[false, true, false, true]);
        assert_eq!(y.get(1, 0), 0.0);
        assert_eq!(y.get(3, 0), 0.0);
        assert!((y.sum() - 1.0).abs() < 1e-6);
        assert!(y.get(2, 0) > y.get(0, 0));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = Matrix::col_from_slice(&[0.5, -1.0, 2.0]);
        let mask = [false, false, false];
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let ls = t.log_softmax_masked_cols(xv, &mask);
        let sm = masked_softmax(&x, &mask);
        for i in 0..3 {
            assert!((t.value(ls).get(i, 0).exp() - sm.get(i, 0)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "all entries masked")]
    fn softmax_all_masked_panics() {
        let x = Matrix::col_from_slice(&[1.0, 2.0]);
        let _ = masked_softmax(&x, &[true, true]);
    }

    #[test]
    #[should_panic(expected = "call backward")]
    fn grad_before_backward_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 1));
        let _ = t.grad(x);
    }

    #[test]
    fn gradient_accumulates_across_reuse() {
        // loss = sum(x + x) => dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_from_slice(&[1.0, 2.0]));
        let y = t.add(x, x);
        let l = t.sum(y);
        t.backward(l);
        assert_eq!(t.grad(x).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn grad_gather_cols() {
        finite_diff_check(
            |t, x| {
                let m = t.concat_cols(&[x, x, x]);
                let gathered = t.gather_cols(m, &[2, 0]);
                let y = t.tanh(gathered);
                t.sum(y)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_add_block_broadcast() {
        let m = Matrix::from_vec(2, 6, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect());
        finite_diff_check(
            move |t, q| {
                let mv = t.leaf(m.clone());
                let qm = t.concat_cols(&[q, q]); // [2, 2] query block
                let y = t.add_block_broadcast(mv, qm, 3);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            Matrix::col_from_slice(&[0.4, -0.2]),
            1e-2,
        );
    }

    #[test]
    fn grad_unflatten_and_pick_cols() {
        finite_diff_check(
            |t, x| {
                let r = t.transpose(x); // [1, 6]
                let m = t.unflatten_row(r, 3); // [3, 2]
                let picked = t.pick_cols(m, &[1, 2]); // [1, 2]
                let y = t.tanh(picked);
                t.sum(y)
            },
            test_input(6),
            1e-2,
        );
    }

    #[test]
    fn grad_block_matvec_both_sides() {
        let p = Matrix::from_vec(3, 2, vec![0.2, 0.5, 0.3, 0.1, 0.5, 0.4]);
        finite_diff_check(
            move |t, c| {
                let pv = t.leaf(p.clone());
                let g = t.block_matvec(c, pv);
                let y = t.tanh(g);
                t.sum(y)
            },
            Matrix::from_vec(2, 6, (0..12).map(|i| 0.07 * i as f32 - 0.3).collect()),
            1e-2,
        );
        let c = Matrix::from_vec(2, 6, (0..12).map(|i| 0.07 * i as f32 - 0.3).collect());
        finite_diff_check(
            move |t, p| {
                let cv = t.leaf(c.clone());
                let m = t.concat_cols(&[p, p]); // [3, 2]
                let g = t.block_matvec(cv, m);
                let y = t.tanh(g);
                t.sum(y)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_masked_cols() {
        let masks = vec![false, true, false, false, false, true];
        finite_diff_check(
            move |t, x| {
                let m = t.concat_cols(&[x, x]); // [3, 2]
                let y = t.softmax_masked_cols(m, &masks);
                let w = t.leaf(Matrix::from_vec(3, 2, vec![0.3, -0.1, 0.0, 0.7, -0.8, 1.2]));
                let p = t.mul_elem(y, w);
                t.sum(p)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_masked_cols() {
        let masks = vec![false, false, true, true, false, false];
        finite_diff_check(
            move |t, x| {
                let m = t.concat_cols(&[x, x]); // [3, 2]
                let y = t.log_softmax_masked_cols(m, &masks);
                let picked = t.pick_cols(y, &[1, 2]);
                t.sum(picked)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn batched_softmax_columns_match_unbatched() {
        let a = Matrix::col_from_slice(&[0.4, -1.2, 2.0, 0.1]);
        let b = Matrix::col_from_slice(&[1.5, 0.0, -0.7, 0.9]);
        let mask_a = vec![false, true, false, false];
        let mask_b = vec![false, false, false, true];
        let mut stacked = Matrix::zeros(4, 2);
        for i in 0..4 {
            stacked.set(i, 0, a.get(i, 0));
            stacked.set(i, 1, b.get(i, 0));
        }
        let masks: Vec<bool> = mask_a.iter().chain(&mask_b).copied().collect();
        let batched = masked_softmax_cols(&stacked, &masks);
        let sa = masked_softmax(&a, &mask_a);
        let sb = masked_softmax(&b, &mask_b);
        for i in 0..4 {
            assert_eq!(batched.get(i, 0).to_bits(), sa.get(i, 0).to_bits());
            assert_eq!(batched.get(i, 1).to_bits(), sb.get(i, 0).to_bits());
        }
        // log-softmax path too
        let mut t = Tape::new();
        let sv = t.leaf(stacked);
        let ls_cols = t.log_softmax_masked_cols(sv, &masks);
        for (i, want) in log_softmax_ref(&a, &mask_a).iter().enumerate() {
            assert_eq!(t.value(ls_cols).get(i, 0).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn block_matvec_matches_per_block_matmul() {
        let c = Matrix::from_vec(2, 6, (0..12).map(|i| 0.3 * i as f32 - 1.0).collect());
        let p = Matrix::from_vec(3, 2, vec![0.2, 0.5, 0.3, 0.1, 0.5, 0.4]);
        let mut t = Tape::new();
        let cv = t.leaf(c.clone());
        let pv = t.leaf(p.clone());
        let out = t.block_matvec(cv, pv);
        for g in 0..2 {
            let mut block = Matrix::zeros(2, 3);
            for r in 0..2 {
                for i in 0..3 {
                    block.set(r, i, c.get(r, g * 3 + i));
                }
            }
            let mut col = Matrix::zeros(3, 1);
            for i in 0..3 {
                col.set(i, 0, p.get(i, g));
            }
            let expect = block.matmul(&col);
            for r in 0..2 {
                assert_eq!(t.value(out).get(r, g).to_bits(), expect.get(r, 0).to_bits());
            }
        }
    }

    #[test]
    fn full_lstm_attention_chain_gradcheck() {
        // One LSTM-like gate computation + additive attention scores,
        // differentiated w.r.t. the input vector.
        let hidden = 3;
        let wmat = Matrix::from_vec(
            4 * hidden,
            2 * hidden,
            (0..4 * hidden * 2 * hidden)
                .map(|i| ((i * 37) % 19) as f32 * 0.02 - 0.2)
                .collect(),
        );
        let ctx = Matrix::from_vec(
            hidden,
            4,
            (0..hidden * 4).map(|i| 0.1 * i as f32 - 0.5).collect(),
        );
        finite_diff_check(
            move |t, x| {
                let w = t.leaf(wmat.clone());
                let h0 = t.leaf(Matrix::zeros(hidden, 1));
                let xin = t.concat_rows(x, h0);
                let z = t.matmul(w, xin);
                let i = t.slice_rows(z, 0, hidden);
                let f = t.slice_rows(z, hidden, hidden);
                let g = t.slice_rows(z, 2 * hidden, hidden);
                let o = t.slice_rows(z, 3 * hidden, hidden);
                let ig = t.sigmoid(i);
                let fg = t.sigmoid(f);
                let gg = t.tanh(g);
                let og = t.sigmoid(o);
                let c = t.mul_elem(ig, gg);
                let _ = fg;
                let ct = t.tanh(c);
                let h = t.mul_elem(og, ct);
                // attention scores over 4 context columns
                let cmat = t.leaf(ctx.clone());
                let scores_row = t.matmul_ta(h, cmat);
                let scores = t.transpose(scores_row);
                let probs = t.softmax_masked_cols(scores, &[false; 4]);
                let glimpse = t.matmul(cmat, probs);
                let y = t.tanh(glimpse);
                t.sum(y)
            },
            test_input(3),
            2e-2,
        );
    }
}
