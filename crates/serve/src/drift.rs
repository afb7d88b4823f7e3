//! Bottleneck-drift detection and live re-partitioning policy.
//!
//! A well-chosen partition *promises* balance: the objective every
//! scheduler in this workspace minimizes is the bottleneck stage, so
//! the compiled schedule's implicit prediction is that no stage
//! dominates the others. Online reality drifts away from that promise —
//! dynamic batching amortizes fixed host/USB overheads and shifts the
//! relative stage weights, and the deployed partition may simply have
//! been compiled by a weaker heuristic. A [`DriftWindow`] accumulates
//! the *measured* per-stage busy time over a window of completed jobs;
//! when the measured utilization shares skew away from the balanced
//! ideal (`1/stages` each) beyond [`DriftPolicy::threshold`], the
//! serving runtime re-runs the incremental scheduler
//! ([`respect_sched::repartition::refine_with`]) and hot-swaps the pipeline
//! at a job boundary. A pipeline that is persistently but *correctly*
//! unbalanced (no better partition exists) keeps triggering until its
//! attempt budget is spent, but never swaps: the refiner finds no gain
//! and the [`DriftPolicy::min_gain`] gate refuses the swap.

use respect_graph::Dag;
use respect_sched::CostModel;

/// When and how aggressively the runtime re-partitions. All fields have
/// deterministic semantics: given the same event stream, the same swaps
/// happen at the same simulated times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Completed jobs per drift evaluation window.
    pub window_jobs: usize,
    /// Trigger when the measured per-stage busy-time *shares* diverge
    /// from the balanced ideal (`1/stages` each — what a well-chosen
    /// partition delivers) by more than this (max over stages of the
    /// absolute share difference, in `[0, 1]`).
    pub threshold: f64,
    /// Hard cap on re-partition attempts over the run (each attempt
    /// runs the refiner; an attempt without sufficient gain swaps
    /// nothing but still consumes budget).
    pub max_swaps: usize,
    /// Minimum relative objective gain a refined schedule must offer
    /// before it is swapped in (e.g. `0.02` = 2%).
    pub min_gain: f64,
}

/// Refinement passes handed to
/// [`respect_sched::repartition::refine_with`] per attempt.
pub(crate) const REFINE_PASSES: usize = 16;

impl DriftPolicy {
    /// Defaults: 64-job windows, 10% share divergence, at most 4 swaps,
    /// 2% minimum gain.
    #[must_use]
    pub fn new() -> Self {
        DriftPolicy {
            window_jobs: 64,
            threshold: 0.10,
            max_swaps: 4,
            min_gain: 0.02,
        }
    }

    /// Replaces the evaluation window length.
    #[must_use]
    pub fn with_window_jobs(mut self, window_jobs: usize) -> Self {
        self.window_jobs = window_jobs;
        self
    }

    /// Replaces the divergence trigger threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Replaces the swap cap.
    #[must_use]
    pub fn with_max_swaps(mut self, max_swaps: usize) -> Self {
        self.max_swaps = max_swaps;
        self
    }

    /// Replaces the minimum relative gain.
    #[must_use]
    pub fn with_min_gain(mut self, min_gain: f64) -> Self {
        self.min_gain = min_gain;
        self
    }
}

impl Default for DriftPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the runtime needs to re-partition one tenant online: the
/// tenant's computational graph, the abstract cost model to refine
/// under, and the trigger policy.
#[derive(Debug, Clone)]
pub struct Repartitioner {
    /// The tenant's model graph (the deployed pipeline's schedule must
    /// be valid for it).
    pub dag: Dag,
    /// Cost model the refinement optimizes (typically
    /// `DeviceSpec::cost_model()`).
    pub model: CostModel,
    /// Trigger and budget policy.
    pub policy: DriftPolicy,
}

impl Repartitioner {
    /// A repartitioner with the default [`DriftPolicy`].
    #[must_use]
    pub fn new(dag: Dag, model: CostModel) -> Self {
        Repartitioner {
            dag,
            model,
            policy: DriftPolicy::new(),
        }
    }

    /// Replaces the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DriftPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Measured per-stage busy time over a rolling window of completed
/// jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftWindow {
    /// Busy seconds per stage accumulated this window.
    pub busy_s: Vec<f64>,
    /// Jobs completed this window.
    pub jobs: usize,
}

impl DriftWindow {
    /// An empty window over `stages` stages.
    #[must_use]
    pub fn new(stages: usize) -> Self {
        DriftWindow {
            busy_s: vec![0.0; stages],
            jobs: 0,
        }
    }

    /// Folds one completed job's per-stage busy seconds into the window.
    ///
    /// Busy-time contributions must be finite and nonnegative; a NaN,
    /// infinite, or negative entry would poison the accumulated shares
    /// and could make [`DriftWindow::imbalance`] report garbage for
    /// the rest of the run (one NaN makes every later imbalance NaN,
    /// which compares false against any threshold and silently disables
    /// — or with an inverted comparison, permanently triggers —
    /// re-partitioning). Such entries are counted as zero busy time,
    /// and debug builds assert so the upstream bug is caught in tests.
    pub fn observe(
        &mut self,
        stage_busy_s: impl IntoIterator<Item = f64, IntoIter: ExactSizeIterator>,
    ) {
        let stage_busy_s = stage_busy_s.into_iter();
        debug_assert_eq!(stage_busy_s.len(), self.busy_s.len());
        for (acc, b) in self.busy_s.iter_mut().zip(stage_busy_s) {
            debug_assert!(
                b.is_finite() && b >= 0.0,
                "stage busy time must be finite and nonnegative, got {b}"
            );
            if b.is_finite() && b > 0.0 {
                *acc += b;
            }
        }
        self.jobs += 1;
    }

    /// Clears the window (keeps the stage count).
    pub fn reset(&mut self) {
        self.busy_s.iter_mut().for_each(|b| *b = 0.0);
        self.jobs = 0;
    }

    /// Imbalance of the measured busy-time shares against the balanced
    /// ideal (`1/stages` each): `max_k |share_k − 1/stages|`, in
    /// `[0, 1]`. Returns `0.0` while nothing has been measured.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.busy_s.iter().sum();
        // finiteness guard: a NaN or infinite total (a poisoned
        // accumulator) must yield "no drift", never a NaN that disables
        // the threshold comparison downstream
        if !(total > 0.0 && total.is_finite()) {
            return 0.0;
        }
        let ideal = 1.0 / self.busy_s.len() as f64;
        self.busy_s
            .iter()
            .map(|&o| (o / total - ideal).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_profiles_have_zero_divergence() {
        let mut w = DriftWindow::new(3);
        w.observe([2.0, 2.0, 2.0]);
        w.observe([1.0, 1.0, 1.0]);
        // measured 3:3:3 is proportional to the balanced ideal
        assert_eq!(w.imbalance(), 0.0);
        assert_eq!(w.jobs, 2);
    }

    #[test]
    fn shifted_bottleneck_is_detected() {
        let mut w = DriftWindow::new(2);
        // the ideal is an even split; measured 80/20
        w.observe([8.0, 2.0]);
        let d = w.imbalance();
        assert!(
            (d - 0.3).abs() < 1e-12,
            "share shift 0.8-0.5 = 0.3, got {d}"
        );
        // three stages measured 6:3:1 against thirds: 0.6 - 1/3
        let mut v = DriftWindow::new(3);
        v.observe([6.0, 3.0, 1.0]);
        assert_eq!(v.imbalance(), 6.0 / 10.0 - 1.0 / 3.0);
    }

    #[test]
    fn empty_window_never_triggers() {
        assert_eq!(DriftWindow::new(4).imbalance(), 0.0);
        assert_eq!(DriftWindow::new(0).imbalance(), 0.0, "no stages");
        let mut w = DriftWindow::new(2);
        w.observe([0.0, 0.0]);
        assert_eq!(w.imbalance(), 0.0, "jobs with no busy time");
    }

    #[test]
    fn poisoned_window_never_spuriously_triggers() {
        // direct accumulator corruption (the failure observe guards
        // against in release builds) yields "no drift", not NaN
        let mut w = DriftWindow::new(2);
        w.observe([1.0, 3.0]);
        w.busy_s[0] = f64::NAN;
        assert_eq!(w.imbalance(), 0.0);
        w.busy_s[0] = f64::INFINITY;
        assert_eq!(w.imbalance(), 0.0);
        // a healthy window still measures drift after the checks
        w.busy_s[0] = 1.0;
        assert!(w.imbalance() > 0.0);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "observe only asserts in debug builds")]
    #[should_panic(expected = "finite and nonnegative")]
    fn observe_rejects_poisoned_busy_time_in_debug() {
        let mut w = DriftWindow::new(1);
        w.observe([f64::NAN]);
    }

    #[test]
    fn reset_clears_but_keeps_shape() {
        let mut w = DriftWindow::new(2);
        w.observe([1.0, 2.0]);
        w.reset();
        assert_eq!(w, DriftWindow::new(2));
    }
}
