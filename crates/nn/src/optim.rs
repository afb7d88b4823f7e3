//! First-order optimizers.
//!
//! The paper trains with Adam at learning rate `1e-4` (Sec. IV, setup);
//! [`Adam::paper`] reproduces that configuration.

use crate::params::Params;
use crate::tensor::Matrix;

/// Optimizer over a [`Params`] collection.
///
/// `grads` must be aligned with the parameter registration order, as
/// produced by [`crate::params::Bindings::grads`].
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, params: &mut Params, grads: &[Matrix]);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The paper's configuration: Adam, learning rate `1e-4`.
    pub fn paper() -> Self {
        Adam::new(1e-4)
    }

    /// Update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params, grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "grad count");
        if self.m.is_empty() {
            self.m = grads
                .iter()
                .map(|g| Matrix::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (i, g) in grads.iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let p = params.value_at_mut(i);
            for ((w, &gi), (mi, vi)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_params(x0: f32) -> Params {
        let mut p = Params::new();
        p.insert("x", Matrix::col_from_slice(&[x0]));
        p
    }

    /// d/dx (x - 3)^2 = 2(x - 3)
    fn quad_grad(p: &Params) -> Vec<Matrix> {
        let x = p.get("x").unwrap().get(0, 0);
        vec![Matrix::col_from_slice(&[2.0 * (x - 3.0)])]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = quadratic_params(-5.0);
        let mut opt = Adam::new(0.3);
        for _ in 0..500 {
            let g = quad_grad(&p);
            opt.step(&mut p, &g);
        }
        assert!((p.get("x").unwrap().get(0, 0) - 3.0).abs() < 1e-2);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, |Δw| of the first step ≈ lr.
        let mut p = quadratic_params(0.0);
        let mut opt = Adam::new(0.01);
        let g = quad_grad(&p);
        opt.step(&mut p, &g);
        let moved = (p.get("x").unwrap().get(0, 0)).abs();
        assert!((moved - 0.01).abs() < 1e-4, "moved {moved}");
    }

    #[test]
    #[should_panic(expected = "grad count")]
    fn mismatched_grads_panic() {
        let mut p = quadratic_params(0.0);
        Adam::new(0.1).step(&mut p, &[]);
    }

    #[test]
    fn paper_preset_matches_setup() {
        let a = Adam::paper();
        assert_eq!(a.lr, 1e-4);
    }
}
