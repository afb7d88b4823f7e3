//! Neural-network substrate for the RESPECT reproduction, built from
//! scratch in place of the PyTorch the paper uses.
//!
//! The pieces are exactly what the LSTM-PtrNet of the paper's Fig. 1b /
//! Algorithm 1 needs:
//!
//! * [`tensor::Matrix`] — a dense row-major `f32` matrix;
//! * [`tape`] — reverse-mode automatic differentiation on a tape of ops
//!   (matmul, elementwise nonlinearities, masked softmax/log-softmax,
//!   slicing/concat for LSTM gates, ...);
//! * [`lstm`] — LSTM cells with forget-gate bias initialization, on the
//!   tape and as a gradient-free step kernel for decode;
//! * [`attention`] — additive (Bahdanau-style) attention primitives used
//!   for the glimpse and the pointer head;
//! * [`params`] — named parameter collections;
//! * [`optim`] — Adam;
//! * [`serialize`] — a small self-describing binary weight format.
//!
//! # Example: differentiate a tiny expression
//!
//! ```
//! use respect_nn::tape::Tape;
//! use respect_nn::tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(2, 1, vec![3.0, -1.0]));
//! let y = tape.tanh(x);
//! let loss = tape.sum(y);
//! tape.backward(loss);
//! let g = tape.grad(x);
//! // d tanh(x)/dx = 1 - tanh(x)^2
//! assert!((g.get(0, 0) - (1.0 - 3.0f32.tanh().powi(2))).abs() < 1e-6);
//! ```

pub mod attention;
pub mod init;
pub mod lstm;
pub mod optim;
pub mod params;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use params::{Bindings, Params};
pub use tape::{Tape, Var};
pub use tensor::Matrix;
