//! Scheduler registry: every partitioner in this crate behind a stable
//! string name.
//!
//! The paper compares many schedulers; downstream layers (the
//! `respect::deploy` facade, the `reproduce` CLI, benches) want to pick
//! one by name instead of hand-wiring each concrete type. [`build`]
//! maps each of the stable [`NAMES`] to a scheduler parameterized by
//! [`BuildOptions`] (cost model, seed, iteration/time budgets):
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
//! Layers above this crate resolve their own names first and hand every
//! other name to [`build`] (the facade adds `"respect"`, the RL
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

/// Every scheduler name [`build`] resolves, sorted.
pub const NAMES: [&str; 9] = [
    "anneal",
    "brute",
    "exact",
    "force",
    "greedy",
    "hu",
    "ilp",
    "op-balanced",
    "param-balanced",
];

/// Constructs the scheduler named `name` (one of [`NAMES`]; resolution
/// is exact and case-sensitive).
///
/// # Errors
///
/// Returns [`RegistryError::UnknownScheduler`] (listing [`NAMES`]) for
/// any other name.
pub fn build(name: &str, options: &BuildOptions) -> Result<Box<dyn Scheduler>, RegistryError> {
    Ok(match name {
        "anneal" => {
            let mut a = Annealing::new(options.cost_model).with_seed(options.seed);
            if let Some(iters) = options.iterations {
                a = a.with_iterations(iters);
            }
            Box::new(a)
        }
        "brute" => Box::new(BruteForce::new(options.cost_model)),
        "exact" => {
            let mut s = ExactScheduler::new(options.cost_model);
            if let Some(b) = options.time_budget {
                s = s.with_time_budget(b);
            }
            Box::new(s)
        }
        "force" => Box::new(ForceDirected::new(options.cost_model)),
        "greedy" => Box::new(GreedyCost::new(options.cost_model)),
        "hu" => Box::new(HuList::new(options.cost_model)),
        "ilp" => {
            let mut s = IlpScheduler::new(options.cost_model);
            if let Some(b) = options.time_budget {
                s = s.with_time_budget(b);
            }
            Box::new(s)
        }
        "op-balanced" => Box::new(OpBalanced::new()),
        "param-balanced" => Box::new(ParamBalanced::new()),
        _ => {
            return Err(RegistryError::UnknownScheduler {
                name: name.to_string(),
                available: NAMES.map(String::from).to_vec(),
            })
        }
    })
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
        assert_eq!(
            NAMES,
            [
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
        for name in NAMES {
            let s = build(name, &opts).unwrap().schedule(&dag, 3).unwrap();
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
}
