//! Pipeline schedules and their validity rules.

use std::error::Error;
use std::fmt;

use respect_graph::{Dag, NodeId};

/// Errors produced while constructing or validating a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// `stage_of` does not have one entry per node.
    LengthMismatch {
        /// Entries provided.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// A node was assigned to a stage `>= num_stages`.
    StageOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Assigned stage.
        stage: usize,
        /// Stage count.
        num_stages: usize,
    },
    /// An edge flows backwards across the pipeline.
    DependencyViolation {
        /// Producer node.
        from: NodeId,
        /// Consumer node scheduled on an earlier stage.
        to: NodeId,
    },
    /// A schedule with zero stages was requested.
    NoStages,
    /// The solver could not produce a schedule (e.g. budget exhausted).
    SolverFailed(String),
    /// A configuration cannot produce the graphs to schedule (e.g. a
    /// training dataset without degree classes).
    InvalidConfig(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::LengthMismatch { got, expected } => {
                write!(f, "schedule has {got} entries for {expected} nodes")
            }
            ScheduleError::StageOutOfRange {
                node,
                stage,
                num_stages,
            } => write!(f, "node {node} assigned to stage {stage} of {num_stages}"),
            ScheduleError::DependencyViolation { from, to } => {
                write!(f, "edge {from} -> {to} flows backwards across stages")
            }
            ScheduleError::NoStages => write!(f, "pipeline must have at least one stage"),
            ScheduleError::SolverFailed(msg) => write!(f, "solver failed: {msg}"),
            ScheduleError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for ScheduleError {}

/// An assignment of every graph node to one pipeline stage.
///
/// Invariant (checked by [`Schedule::new`]): every stage index is in
/// `0..num_stages`. Dependency feasibility is graph-relative and checked
/// by [`Schedule::validate`] / [`Schedule::is_valid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    stage_of: Vec<usize>,
    num_stages: usize,
}

impl Schedule {
    /// Creates a schedule from raw stage indices.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoStages`] or
    /// [`ScheduleError::StageOutOfRange`].
    pub fn new(stage_of: Vec<usize>, num_stages: usize) -> Result<Self, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        for (i, &s) in stage_of.iter().enumerate() {
            if s >= num_stages {
                return Err(ScheduleError::StageOutOfRange {
                    node: NodeId(i as u32),
                    stage: s,
                    num_stages,
                });
            }
        }
        Ok(Schedule {
            stage_of,
            num_stages,
        })
    }

    /// Builds the schedule induced by a node sequence and cut positions:
    /// stage `k` executes `order[cuts[k-1]..cuts[k]]` (with implicit first
    /// cut 0 and last cut `order.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not nondecreasing or exceeds `order.len()`.
    pub fn from_cuts(order: &[NodeId], cuts: &[usize], num_stages: usize) -> Self {
        assert_eq!(cuts.len() + 1, num_stages, "cuts vs stage count");
        let mut stage_of = vec![0usize; order.len()];
        let mut prev = 0usize;
        for (k, &c) in cuts.iter().chain(std::iter::once(&order.len())).enumerate() {
            assert!(c >= prev && c <= order.len(), "cuts must be nondecreasing");
            for &v in &order[prev..c] {
                stage_of[v.index()] = k;
            }
            prev = c;
        }
        Schedule {
            stage_of,
            num_stages,
        }
    }

    /// Stage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range for this schedule.
    #[inline]
    pub fn stage(&self, node: NodeId) -> usize {
        self.stage_of[node.index()]
    }

    /// The raw stage-per-node vector, indexed by node id.
    #[inline]
    pub fn stage_of(&self) -> &[usize] {
        &self.stage_of
    }

    /// Number of pipeline stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Checks the schedule against `dag`: one entry per node and no edge
    /// flowing backwards (`stage(u) <= stage(v)` for every edge).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, dag: &Dag) -> Result<(), ScheduleError> {
        if self.stage_of.len() != dag.len() {
            return Err(ScheduleError::LengthMismatch {
                got: self.stage_of.len(),
                expected: dag.len(),
            });
        }
        for (u, v) in dag.edges() {
            if self.stage_of[u.index()] > self.stage_of[v.index()] {
                return Err(ScheduleError::DependencyViolation { from: u, to: v });
            }
        }
        Ok(())
    }

    /// Whether [`validate`](Schedule::validate) passes.
    pub fn is_valid(&self, dag: &Dag) -> bool {
        self.validate(dag).is_ok()
    }

    /// A dependency-respecting execution sequence consistent with this
    /// schedule: nodes ordered by (stage, topological position).
    pub fn to_sequence(&self, dag: &Dag) -> Vec<NodeId> {
        let mut order = respect_graph::topo::topo_order(dag);
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.len()];
            for (i, &v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        order.sort_by_key(|&v| (self.stage_of[v.index()], pos[v.index()]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::{DagBuilder, OpKind, OpNode};

    fn chain(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(OpNode::new(format!("c{i}"), OpKind::Conv2d)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn new_validates_ranges() {
        assert!(Schedule::new(vec![0, 1], 2).is_ok());
        assert_eq!(
            Schedule::new(vec![0, 2], 2).unwrap_err(),
            ScheduleError::StageOutOfRange {
                node: NodeId(1),
                stage: 2,
                num_stages: 2
            }
        );
        assert_eq!(
            Schedule::new(vec![], 0).unwrap_err(),
            ScheduleError::NoStages
        );
    }

    #[test]
    fn validate_catches_backward_edges() {
        let dag = chain(3);
        let bad = Schedule::new(vec![1, 0, 1], 2).unwrap();
        assert_eq!(
            bad.validate(&dag).unwrap_err(),
            ScheduleError::DependencyViolation {
                from: NodeId(0),
                to: NodeId(1)
            }
        );
        let good = Schedule::new(vec![0, 0, 1], 2).unwrap();
        assert!(good.is_valid(&dag));
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let dag = chain(3);
        let s = Schedule::new(vec![0, 0], 1).unwrap();
        assert!(matches!(
            s.validate(&dag).unwrap_err(),
            ScheduleError::LengthMismatch {
                got: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn from_cuts_assigns_segments() {
        let dag = chain(5);
        let order: Vec<_> = dag.node_ids().collect();
        let s = Schedule::from_cuts(&order, &[2, 3], 3);
        assert_eq!(s.stage_of(), &[0, 0, 1, 2, 2]);
        assert!(s.is_valid(&dag));
        // empty middle stage is allowed
        let s2 = Schedule::from_cuts(&order, &[2, 2], 3);
        assert_eq!(s2.stage_of(), &[0, 0, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn from_cuts_rejects_decreasing() {
        let order: Vec<_> = (0..4u32).map(NodeId).collect();
        let _ = Schedule::from_cuts(&order, &[3, 1], 3);
    }

    #[test]
    fn to_sequence_is_topological_and_stage_sorted() {
        let dag = chain(4);
        let s = Schedule::new(vec![0, 0, 1, 1], 2).unwrap();
        let seq = s.to_sequence(&dag);
        assert!(respect_graph::topo::is_topological_order(&dag, &seq));
        let stages: Vec<_> = seq.iter().map(|&v| s.stage(v)).collect();
        let mut sorted = stages.clone();
        sorted.sort_unstable();
        assert_eq!(stages, sorted);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScheduleError::DependencyViolation {
            from: NodeId(1),
            to: NodeId(0),
        };
        assert!(e.to_string().contains("backwards"));
    }
}
