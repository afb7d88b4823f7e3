//! Scheduler registry: every partitioner in this crate behind a stable
//! string name.
//!
//! The paper compares many schedulers; downstream layers (the
//! `respect::deploy` facade, the `reproduce` CLI, benches) want to pick
//! one by name instead of hand-wiring each concrete type. The registry
//! maps stable names to constructors parameterized by [`BuildOptions`]
//! (cost model, seed, iteration/time budgets):
//!
//! | name             | scheduler                                  |
//! |------------------|--------------------------------------------|
//! | `"param-balanced"` | [`balanced::ParamBalanced`]              |
//! | `"op-balanced"`  | [`balanced::OpBalanced`]                   |
//! | `"greedy"`       | [`greedy::GreedyCost`]                     |
//! | `"anneal"`       | [`anneal::Annealing`]                      |
//! | `"ilp"`          | [`ilp::IlpScheduler`]                      |
//! | `"exact"`        | [`exact::ExactScheduler`]                  |
//! | `"brute"`        | [`brute::BruteForce`]                      |
//! | `"hu"`           | [`hu::HuList`]                             |
//! | `"force"`        | [`force::ForceDirected`]                   |
//!
//! Layers above this crate extend a [`Registry`] with their own entries
//! via [`Registry::register`] (the facade adds `"respect"`, the RL
//! scheduler, and `"profiling"`, the device-aware partitioner — neither
//! can live here without inverting the crate graph).
//!
//! # Example
//!
//! ```
//! use respect_graph::models;
//! use respect_sched::registry::{self, BuildOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scheduler = registry::build("greedy", &BuildOptions::default())?;
//! let schedule = scheduler.schedule(&models::xception(), 4)?;
//! assert!(schedule.is_valid(&models::xception()));
//! # Ok(())
//! # }
//! ```
//!
//! [`balanced::ParamBalanced`]: crate::balanced::ParamBalanced
//! [`balanced::OpBalanced`]: crate::balanced::OpBalanced
//! [`greedy::GreedyCost`]: crate::greedy::GreedyCost
//! [`anneal::Annealing`]: crate::anneal::Annealing
//! [`ilp::IlpScheduler`]: crate::ilp::IlpScheduler
//! [`exact::ExactScheduler`]: crate::exact::ExactScheduler
//! [`brute::BruteForce`]: crate::brute::BruteForce
//! [`hu::HuList`]: crate::hu::HuList
//! [`force::ForceDirected`]: crate::force::ForceDirected

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::anneal::Annealing;
use crate::balanced::{OpBalanced, ParamBalanced};
use crate::brute::BruteForce;
use crate::cost::CostModel;
use crate::exact::ExactScheduler;
use crate::force::ForceDirected;
use crate::greedy::GreedyCost;
use crate::hu::HuList;
use crate::ilp::IlpScheduler;
use crate::Scheduler;

/// Constructor hooks shared by every registry entry.
///
/// Entries read only the knobs that apply to them: `"anneal"` reads the
/// seed and iteration budget, `"exact"`/`"ilp"` read the time budget,
/// and the cost-blind balancers read nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct BuildOptions {
    /// Cost model for every cost-aware scheduler.
    pub cost_model: CostModel,
    /// RNG seed for stochastic schedulers (`"anneal"`).
    pub seed: u64,
    /// Move/iteration budget for iterative schedulers (`"anneal"`).
    pub iterations: Option<usize>,
    /// Wall-clock budget for anytime solvers (`"exact"`, `"ilp"`).
    pub time_budget: Option<Duration>,
}

impl BuildOptions {
    /// Defaults: Coral cost model, the schedulers' own seeds/budgets.
    pub fn new() -> Self {
        BuildOptions {
            cost_model: CostModel::default(),
            seed: 0x5eed,
            iterations: None,
            time_budget: None,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration budget for iterative schedulers.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Sets the wall-clock budget for anytime solvers.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Errors produced while resolving a registry name.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// The requested name is not registered.
    UnknownScheduler {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, sorted.
        available: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownScheduler { name, available } => write!(
                f,
                "unknown scheduler {name:?}; available: {}",
                available.join(", ")
            ),
        }
    }
}

impl Error for RegistryError {}

type BuilderFn = Box<dyn Fn(&BuildOptions) -> Box<dyn Scheduler> + Send + Sync>;

/// A name → scheduler-constructor table.
///
/// [`Registry::builtin`] covers every algorithm in this crate; layers
/// above extend it with [`Registry::register`]. Names enumerate in
/// sorted order and resolution is exact (case-sensitive).
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, BuilderFn>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        Registry::default()
    }

    /// The registry of every scheduler in this crate (9 entries; see the
    /// [module docs](self) for the name table).
    #[must_use]
    pub fn builtin() -> Self {
        let mut r = Registry::empty();
        r.register("param-balanced", |_| Box::new(ParamBalanced::new()));
        r.register("op-balanced", |_| Box::new(OpBalanced::new()));
        r.register("greedy", |o| Box::new(GreedyCost::new(o.cost_model)));
        r.register("anneal", |o| {
            let mut a = Annealing::new(o.cost_model).with_seed(o.seed);
            if let Some(iters) = o.iterations {
                a = a.with_iterations(iters);
            }
            Box::new(a)
        });
        r.register("ilp", |o| {
            let mut s = IlpScheduler::new(o.cost_model);
            if let Some(b) = o.time_budget {
                s = s.with_time_budget(b);
            }
            Box::new(s)
        });
        r.register("exact", |o| {
            let mut s = ExactScheduler::new(o.cost_model);
            if let Some(b) = o.time_budget {
                s = s.with_time_budget(b);
            }
            Box::new(s)
        });
        r.register("brute", |o| Box::new(BruteForce::new(o.cost_model)));
        r.register("hu", |o| Box::new(HuList::new(o.cost_model)));
        r.register("force", |o| Box::new(ForceDirected::new(o.cost_model)));
        r
    }

    /// Registers (or replaces) an entry.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&BuildOptions) -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(f));
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Constructs the scheduler registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownScheduler`] (listing every
    /// available name) when `name` is not registered.
    pub fn build(
        &self,
        name: &str,
        options: &BuildOptions,
    ) -> Result<Box<dyn Scheduler>, RegistryError> {
        match self.entries.get(name) {
            Some(f) => Ok(f(options)),
            None => Err(RegistryError::UnknownScheduler {
                name: name.to_string(),
                available: self.names(),
            }),
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

/// Every name in the builtin registry, sorted (convenience over
/// [`Registry::builtin`]).
pub fn names() -> Vec<String> {
    Registry::builtin().names()
}

/// Constructs a builtin scheduler by name (convenience over
/// [`Registry::builtin`]).
///
/// # Errors
///
/// Returns [`RegistryError::UnknownScheduler`] for unregistered names.
pub fn build(name: &str, options: &BuildOptions) -> Result<Box<dyn Scheduler>, RegistryError> {
    Registry::builtin().build(name, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, OpKind, OpNode};

    fn small_dag() -> respect_graph::Dag {
        let mut b = DagBuilder::new();
        let mut prev = None;
        for i in 0..8u64 {
            let id = b.add_node(
                OpNode::new(format!("n{i}"), OpKind::Conv2d)
                    .with_params(1000 + i * 100)
                    .with_macs(500)
                    .with_output(32),
            );
            if let Some(p) = prev {
                b.add_edge(p, id).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn builtin_lists_all_nine_names_sorted() {
        let names = names();
        assert_eq!(
            names,
            vec![
                "anneal",
                "brute",
                "exact",
                "force",
                "greedy",
                "hu",
                "ilp",
                "op-balanced",
                "param-balanced",
            ]
        );
    }

    #[test]
    fn every_builtin_schedules_the_small_dag() {
        let dag = small_dag();
        let opts = BuildOptions::default();
        for name in names() {
            let s = build(&name, &opts).unwrap().schedule(&dag, 3).unwrap();
            assert!(s.is_valid(&dag), "{name}");
            assert_eq!(s.num_stages(), 3, "{name}");
        }
    }

    #[test]
    fn unknown_name_is_a_structured_error() {
        let Err(err) = build("cplex", &BuildOptions::default()) else {
            panic!("unknown name must not resolve");
        };
        match &err {
            RegistryError::UnknownScheduler { name, available } => {
                assert_eq!(name, "cplex");
                assert_eq!(available.len(), 9);
            }
        }
        let msg = err.to_string();
        assert!(
            msg.contains("cplex") && msg.contains("param-balanced"),
            "{msg}"
        );
    }

    #[test]
    fn options_thread_through_to_the_schedulers() {
        let dag = small_dag();
        let a = build(
            "anneal",
            &BuildOptions::default().with_seed(7).with_iterations(200),
        )
        .unwrap()
        .schedule(&dag, 3)
        .unwrap();
        let b = build(
            "anneal",
            &BuildOptions::default().with_seed(7).with_iterations(200),
        )
        .unwrap()
        .schedule(&dag, 3)
        .unwrap();
        assert_eq!(a, b, "same seed and budget must reproduce bitwise");
    }

    #[test]
    fn custom_registration_and_replacement() {
        let mut r = Registry::builtin();
        r.register("mine", |_| Box::new(OpBalanced::new()));
        assert!(r.contains("mine"));
        assert_eq!(r.names().len(), 10);
        let s = r.build("mine", &BuildOptions::default()).unwrap();
        assert_eq!(s.name(), "EdgeTPU compiler (op count)");
    }
}
