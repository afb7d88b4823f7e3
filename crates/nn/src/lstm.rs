//! LSTM cells, the building block of the paper's encoder and decoder
//! networks (Fig. 1b: both are "LSTMs with 256 cells").
//!
//! Weights use the fused-gate layout `W ∈ R^{4h x (in + h)}`, gate order
//! `[input, forget, cell, output]`, with the forget-gate bias initialized
//! to 1 (standard practice for stable early training).

use rand::Rng;

use crate::init;
use crate::params::{Bindings, Params};
use crate::tape::{Tape, Var};
use crate::tensor::{Affine, Matrix};

/// Static description of an LSTM cell: sizes plus a parameter-name prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LstmSpec {
    /// Input vector size.
    pub input: usize,
    /// Hidden/cell state size (the paper uses 256).
    pub hidden: usize,
    /// Parameter-name prefix, e.g. `"encoder"`.
    pub name: String,
}

impl LstmSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, input: usize, hidden: usize) -> Self {
        LstmSpec {
            input,
            hidden,
            name: name.into(),
        }
    }

    fn w_name(&self) -> String {
        format!("{}.w", self.name)
    }

    fn b_name(&self) -> String {
        format!("{}.b", self.name)
    }

    /// Registers this cell's weights (`<name>.w`, `<name>.b`) in `params`.
    pub fn register(&self, params: &mut Params, rng: &mut impl Rng) {
        let w = init::xavier_uniform(4 * self.hidden, self.input + self.hidden, rng);
        let mut b = Matrix::zeros(4 * self.hidden, 1);
        for i in self.hidden..2 * self.hidden {
            b.set(i, 0, 1.0); // forget-gate bias
        }
        params.insert(self.w_name(), w);
        params.insert(self.b_name(), b);
    }

    /// Binds the registered weights on a tape.
    ///
    /// # Panics
    ///
    /// Panics if [`register`](LstmSpec::register) was not called on the
    /// `Params` these bindings came from.
    pub fn bind(&self, bindings: &Bindings) -> LstmCell {
        LstmCell {
            w: bindings.var(&self.w_name()),
            b: bindings.var(&self.b_name()),
            hidden: self.hidden,
        }
    }
}

/// An LSTM cell bound to one tape (weights as tape variables).
#[derive(Debug, Clone, Copy)]
pub struct LstmCell {
    w: Var,
    b: Var,
    hidden: usize,
}

/// Hidden and cell state of an LSTM.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Var,
    /// Cell state `c`.
    pub c: Var,
}

impl LstmCell {
    /// Hidden size of the cell.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// All-zero initial state for a batch of `batch` lanes (`[h, batch]`
    /// state matrices; lane `g` is column `g`).
    pub fn zero_state_batch(&self, tape: &mut Tape, batch: usize) -> LstmState {
        LstmState {
            h: tape.leaf(Matrix::zeros(self.hidden, batch)),
            c: tape.leaf(Matrix::zeros(self.hidden, batch)),
        }
    }

    /// One step over a whole batch: `x` and the state are `[·, B]`
    /// matrices with one batch lane per column. Column `g` of the result
    /// equals a step on column `g` alone (the bias is broadcast per
    /// column; all other ops are already column-local).
    ///
    /// # Panics
    ///
    /// Panics (inside tape ops) on shape mismatches.
    pub fn step_batch(&self, tape: &mut Tape, x: Var, state: LstmState) -> LstmState {
        let h = self.hidden;
        let xin = tape.concat_rows(x, state.h);
        let z0 = tape.matmul(self.w, xin);
        let z = tape.add_col_broadcast(z0, self.b);
        let i = tape.slice_rows(z, 0, h);
        let f = tape.slice_rows(z, h, h);
        let g = tape.slice_rows(z, 2 * h, h);
        let o = tape.slice_rows(z, 3 * h, h);
        let ig = tape.sigmoid(i);
        let fg = tape.sigmoid(f);
        let gg = tape.tanh(g);
        let og = tape.sigmoid(o);
        let fc = tape.mul_elem(fg, state.c);
        let igg = tape.mul_elem(ig, gg);
        let c = tape.add(fc, igg);
        let ct = tape.tanh(c);
        let hn = tape.mul_elem(og, ct);
        LstmState { h: hn, c }
    }
}

/// The gradient-free form of an LSTM cell, for decode: the fused gate
/// weights laid out input-major once (see [`Affine`]), then one
/// allocation-free step per call into an [`LstmLane`]'s buffers. The
/// gate math is the tape's: `σ(v) = 1/(1 + e^{-v})`, `c' = f·c + i·g`
/// and `h' = o·tanh(c')`, so a step reproduces
/// [`LstmCell::step_batch`]'s forward values bit for bit whenever the
/// inputs are finite.
#[derive(Debug, Clone)]
pub struct LstmKernel {
    input: usize,
    hidden: usize,
    gates: Affine,
}

/// One lane of an [`LstmKernel`]: its hidden and cell state plus the
/// step's `[x; h]` and gate buffers, reused by every step.
#[derive(Debug, Clone)]
pub struct LstmLane {
    h: Vec<f32>,
    c: Vec<f32>,
    xin: Vec<f32>,
    z: Vec<f32>,
}

impl LstmLane {
    /// Hidden state `h`.
    pub fn h(&self) -> &[f32] {
        &self.h
    }
}

impl LstmSpec {
    /// The gradient-free kernel over this cell's registered weights,
    /// whose shapes are checked here, once, rather than at every step.
    ///
    /// # Panics
    ///
    /// Panics if `<name>.w` is not registered as `(4h, in + h)` or
    /// `<name>.b` as `(4h, 1)`.
    pub fn kernel(&self, params: &Params) -> LstmKernel {
        let rows = 4 * self.hidden;
        let w = params.shaped(&self.w_name(), (rows, self.input + self.hidden));
        let b = params.shaped(&self.b_name(), (rows, 1));
        LstmKernel {
            input: self.input,
            hidden: self.hidden,
            gates: Affine::new(w, b),
        }
    }
}

impl LstmKernel {
    /// A lane in the all-zero state.
    pub fn lane(&self) -> LstmLane {
        let h = self.hidden;
        LstmLane {
            h: vec![0.0; h],
            c: vec![0.0; h],
            xin: vec![0.0; self.input + h],
            z: vec![0.0; 4 * h],
        }
    }

    /// One step: consumes input `x` and advances `lane`'s state.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not the spec's input size or `lane` came from a
    /// kernel of another size.
    pub fn step(&self, lane: &mut LstmLane, x: &[f32]) {
        let h = self.hidden;
        assert_eq!(x.len(), self.input, "LSTM input size");
        lane.xin[..self.input].copy_from_slice(x);
        lane.xin[self.input..].copy_from_slice(&lane.h);
        self.gates.apply(&lane.xin, &mut lane.z);
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let z = &lane.z;
        for r in 0..h {
            let i = sig(z[r]);
            let f = sig(z[h + r]);
            let g = z[2 * h + r].tanh();
            let o = sig(z[3 * h + r]);
            let c = f * lane.c[r] + i * g;
            lane.c[r] = c;
            lane.h[r] = o * c.tanh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(input: usize, hidden: usize) -> (Params, LstmSpec) {
        let spec = LstmSpec::new("test", input, hidden);
        let mut params = Params::new();
        spec.register(&mut params, &mut StdRng::seed_from_u64(3));
        (params, spec)
    }

    /// One step on a single column, composed from unbatched tape ops:
    /// the reference each batch lane must reproduce.
    fn serial_step(cell: &LstmCell, tape: &mut Tape, x: Var, state: LstmState) -> LstmState {
        let h = cell.hidden;
        let xin = tape.concat_rows(x, state.h);
        let z0 = tape.matmul(cell.w, xin);
        let z = tape.add(z0, cell.b);
        let i = tape.slice_rows(z, 0, h);
        let f = tape.slice_rows(z, h, h);
        let g = tape.slice_rows(z, 2 * h, h);
        let o = tape.slice_rows(z, 3 * h, h);
        let ig = tape.sigmoid(i);
        let fg = tape.sigmoid(f);
        let gg = tape.tanh(g);
        let og = tape.sigmoid(o);
        let fc = tape.mul_elem(fg, state.c);
        let igg = tape.mul_elem(ig, gg);
        let c = tape.add(fc, igg);
        let ct = tape.tanh(c);
        let hn = tape.mul_elem(og, ct);
        LstmState { h: hn, c }
    }

    #[test]
    fn register_creates_expected_shapes() {
        let (params, _) = setup(5, 8);
        assert_eq!(params.get("test.w").unwrap().shape(), (32, 13));
        assert_eq!(params.get("test.b").unwrap().shape(), (32, 1));
        // forget-gate bias block is ones
        let b = params.get("test.b").unwrap();
        assert_eq!(b.get(8, 0), 1.0);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(16, 0), 0.0);
    }

    #[test]
    fn step_produces_bounded_outputs() {
        let (params, spec) = setup(4, 6);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let cell = spec.bind(&binds);
        let x = tape.leaf(Matrix::col_from_slice(&[1.0, -2.0, 0.5, 3.0]));
        let s0 = cell.zero_state_batch(&mut tape, 1);
        let s1 = cell.step_batch(&mut tape, x, s0);
        let h = tape.value(s1.h);
        assert_eq!(h.shape(), (6, 1));
        // h = o * tanh(c) is in (-1, 1)
        assert!(h.as_slice().iter().all(|&v| v.abs() < 1.0));
        // state actually moved
        assert!(h.max_abs() > 0.0);
    }

    #[test]
    fn run_threads_state_through_sequence() {
        let (params, spec) = setup(2, 4);
        let kernel = spec.kernel(&params);
        let mut lane = kernel.lane();
        let mut hs = Vec::new();
        for i in 0..3 {
            kernel.step(&mut lane, &[i as f32, 1.0]);
            hs.push(lane.h().to_vec());
        }
        // successive hidden states differ (the cell is not a no-op)
        assert_ne!(hs[0], hs[1]);
        assert_ne!(hs[1], hs[2]);
    }

    #[test]
    fn gradients_flow_to_lstm_weights() {
        let (params, spec) = setup(3, 5);
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let cell = spec.bind(&binds);
        let x = tape.leaf(Matrix::col_from_slice(&[0.3, -0.2, 0.9]));
        let s0 = cell.zero_state_batch(&mut tape, 1);
        let s1 = cell.step_batch(&mut tape, x, s0);
        let s2 = cell.step_batch(&mut tape, x, s1);
        let loss = tape.sum(s2.h);
        tape.backward(loss);
        let gw = tape.grad(binds.var("test.w"));
        assert!(gw.max_abs() > 0.0, "weight gradient must be nonzero");
        let gb = tape.grad(binds.var("test.b"));
        assert!(gb.max_abs() > 0.0, "bias gradient must be nonzero");
    }

    #[test]
    fn deterministic_given_seed() {
        let (p1, _) = setup(3, 5);
        let (p2, _) = setup(3, 5);
        assert_eq!(p1, p2);
    }

    #[test]
    fn step_batch_columns_match_serial_steps() {
        let (params, spec) = setup(3, 4);
        let cols = [[0.3f32, -0.2, 0.9], [1.1, 0.0, -0.5]];
        // batched: both inputs as one [3, 2] matrix
        let mut tape = Tape::new();
        let binds = params.bind(&mut tape);
        let cell = spec.bind(&binds);
        let mut x = Matrix::zeros(3, 2);
        for (g, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                x.set(r, g, v);
            }
        }
        let xv = tape.leaf(x);
        let s0 = cell.zero_state_batch(&mut tape, 2);
        let s1 = cell.step_batch(&mut tape, xv, s0);
        let s2 = cell.step_batch(&mut tape, xv, s1);
        let batched = tape.value(s2.h).clone();
        // serial: one lane at a time
        for (g, col) in cols.iter().enumerate() {
            let mut t = Tape::new();
            let b = params.bind(&mut t);
            let c = spec.bind(&b);
            let x1 = t.leaf(Matrix::col_from_slice(col));
            let z0 = c.zero_state_batch(&mut t, 1);
            let z1 = serial_step(&c, &mut t, x1, z0);
            let z2 = serial_step(&c, &mut t, x1, z1);
            let serial = t.value(z2.h);
            for r in 0..4 {
                assert_eq!(
                    batched.get(r, g).to_bits(),
                    serial.get(r, 0).to_bits(),
                    "lane {g} row {r}"
                );
            }
        }
    }

    /// Deterministic values in [-2, 2) from a 64-bit LCG.
    fn values(count: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..count)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn kernel_steps_match_step_batch_bitwise() {
        const STEPS: usize = 3;
        for hidden in [1, 8, 32] {
            let input = hidden + 2;
            let (mut params, spec) = setup(input, hidden);
            // exact-zero weights: the batched tape product (B > 1) skips
            // every `w == 0.0` term, the kernel adds `0.0 · x`. That is an
            // exact `±0` and leaves the sum's bits alone only because every
            // input here is finite; `0.0 · ∞` or `0.0 · NaN` would differ.
            let w = params.get_mut("test.w").unwrap();
            for (k, v) in w.as_mut_slice().iter_mut().enumerate() {
                if k % 7 == 3 {
                    *v = 0.0;
                }
            }
            for lanes in [1, 3, 16] {
                // per step, a `[input, lanes]` input block; lane 0 sees an
                // all-zero input first, and every fifth entry is zero
                let xs: Vec<Matrix> = (0..STEPS)
                    .map(|t| {
                        let mut v = values(input * lanes, (hidden * 100 + lanes * 10 + t) as u64);
                        for (k, x) in v.iter_mut().enumerate() {
                            if k % 5 == 1 || (t == 0 && k % lanes == 0) {
                                *x = 0.0;
                            }
                        }
                        Matrix::from_vec(input, lanes, v)
                    })
                    .collect();
                let mut tape = Tape::new();
                let binds = params.bind(&mut tape);
                let cell = spec.bind(&binds);
                let mut state = cell.zero_state_batch(&mut tape, lanes);
                let mut tape_states = Vec::new();
                for x in &xs {
                    let xv = tape.leaf(x.clone());
                    state = cell.step_batch(&mut tape, xv, state);
                    tape_states.push((tape.value(state.h).clone(), tape.value(state.c).clone()));
                }
                let kernel = spec.kernel(&params);
                for g in 0..lanes {
                    let mut lane = kernel.lane();
                    for (t, (x, (th, tc))) in xs.iter().zip(&tape_states).enumerate() {
                        let col: Vec<f32> = (0..input).map(|r| x.get(r, g)).collect();
                        kernel.step(&mut lane, &col);
                        for r in 0..hidden {
                            let at = format!("h={hidden} B={lanes} lane {g} step {t} row {r}");
                            assert_eq!(lane.h()[r].to_bits(), th.get(r, g).to_bits(), "h, {at}");
                            assert_eq!(lane.c[r].to_bits(), tc.get(r, g).to_bits(), "c, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "has shape")]
    fn kernel_rejects_misshaped_weights() {
        let (params, _) = setup(4, 6);
        // a cell registered for input 4 read as one for input 3: slicing
        // its weights by the wrong row length would misalign every gate
        LstmSpec::new("test", 3, 6).kernel(&params);
    }
}
