//! Named parameter collections and their per-tape bindings.
//!
//! [`Params`] owns the trainable weights of a model between steps; each
//! training step injects them onto a fresh [`Tape`] via
//! [`Params::bind`], producing [`Bindings`] that map names to tape
//! variables and, after `backward`, yield gradients aligned with the
//! parameter order for the optimizer.

use std::collections::HashMap;

use crate::tape::{Tape, Var};
use crate::tensor::Matrix;

/// Ordered, named collection of trainable matrices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Matrix>,
    index: HashMap<String, usize>,
}

impl Params {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — parameter names identify
    /// weights across save/load and optimizer state.
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        self.index.insert(name.clone(), self.values.len());
        self.names.push(name);
        self.values.push(value);
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.index.get(name).map(|&i| &self.values[i])
    }

    /// Looks up a parameter that must exist with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not registered or has another shape.
    pub fn shaped(&self, name: &str, shape: (usize, usize)) -> &Matrix {
        let m = self
            .get(name)
            .unwrap_or_else(|| panic!("parameter {name:?} is not registered"));
        assert_eq!(
            m.shape(),
            shape,
            "parameter {name:?} has shape {:?}, expected {shape:?}",
            m.shape()
        );
        m
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Matrix> {
        let i = *self.index.get(name)?;
        Some(&mut self.values[i])
    }

    /// Iterates over `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.names.iter().map(String::as_str).zip(&self.values)
    }

    /// Parameter value by dense index (registration order).
    pub fn value_at(&self, i: usize) -> &Matrix {
        &self.values[i]
    }

    /// Mutable parameter value by dense index.
    pub fn value_at_mut(&mut self, i: usize) -> &mut Matrix {
        &mut self.values[i]
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Injects every parameter as a leaf on `tape`.
    pub fn bind(&self, tape: &mut Tape) -> Bindings {
        let vars = self.values.iter().map(|m| tape.leaf(m.clone())).collect();
        Bindings {
            vars,
            index: self.index.clone(),
        }
    }
}

/// Tape variables for one [`Params::bind`] call.
#[derive(Debug, Clone)]
pub struct Bindings {
    vars: Vec<Var>,
    index: HashMap<String, usize>,
}

impl Bindings {
    /// The tape variable bound to parameter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered — a binding for an unknown
    /// parameter is a programming error, not a runtime condition.
    pub fn var(&self, name: &str) -> Var {
        self.vars[*self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))]
    }

    /// All bound variables in registration order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Collects gradients for every parameter, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `tape.backward` has not run.
    pub fn grads(&self, tape: &Tape) -> Vec<Matrix> {
        self.vars.iter().map(|&v| tape.grad(v).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Params::new();
        p.insert("w", Matrix::zeros(2, 3));
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("w").unwrap().shape(), (2, 3));
        assert!(p.get("nope").is_none());
        assert_eq!(p.num_scalars(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.insert("w", Matrix::zeros(1, 1));
        p.insert("w", Matrix::zeros(1, 1));
    }

    #[test]
    fn bind_and_grads_align_with_order() {
        let mut p = Params::new();
        p.insert("a", Matrix::col_from_slice(&[1.0]));
        p.insert("b", Matrix::col_from_slice(&[2.0]));
        let mut tape = Tape::new();
        let binds = p.bind(&mut tape);
        // loss = 3*a + b  => da = 3, db = 1
        let a3 = tape.scale(binds.var("a"), 3.0);
        let s = tape.add(a3, binds.var("b"));
        let loss = tape.sum(s);
        tape.backward(loss);
        let grads = binds.grads(&tape);
        assert_eq!(grads[0].get(0, 0), 3.0);
        assert_eq!(grads[1].get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_binding_panics() {
        let p = Params::new();
        let mut tape = Tape::new();
        let binds = p.bind(&mut tape);
        let _ = binds.var("missing");
    }

    #[test]
    fn iter_preserves_registration_order() {
        let mut p = Params::new();
        p.insert("z", Matrix::zeros(1, 1));
        p.insert("a", Matrix::zeros(1, 1));
        let names: Vec<_> = p.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["z", "a"]);
    }
}
