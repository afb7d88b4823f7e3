//! Energy model of the multi-TPU system.
//!
//! The paper's testbed (Fig. 2) is explicitly an "energy efficiency
//! evaluation system"; this module closes that loop: each device draws
//! `active_power_w` while serving (compute + transfers) and `idle_power_w`
//! while waiting for the pipeline, so unbalanced schedules waste energy
//! twice — once through the slower bottleneck and once through idle
//! stages.

use crate::compile::CompiledPipeline;
use crate::device::DeviceSpec;
use crate::exec::InferenceReport;

/// Busy/idle energy split of one device chain over a serving span.
///
/// Produced by [`serving_energy`] from measured device busy time; the
/// serving runtime (`respect_serve`) attaches one per chain so fleet
/// sweeps over heterogeneous [`DeviceSpec`]s can compare joules per
/// request chain by chain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyTotals {
    /// Energy drawn while computing or transferring, joules.
    pub busy_j: f64,
    /// Energy drawn while powered but waiting, joules.
    pub idle_j: f64,
}

impl EnergyTotals {
    /// Total energy over the span, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.busy_j + self.idle_j
    }
}

/// Energy of `devices` devices of one chain that were powered for
/// `span_s` seconds and measured `busy_s` total device-busy seconds
/// (summed across the chain's devices).
///
/// Busy seconds draw [`DeviceSpec::active_power_w`]; the remaining
/// powered-but-waiting seconds (`devices × span_s − busy_s`, clamped at
/// zero) draw [`DeviceSpec::idle_power_w`]. A chain that was never
/// powered (`span_s = 0`) costs nothing — the accounting a fleet
/// autoscaler needs for spun-down replicas.
#[must_use]
pub fn serving_energy(spec: &DeviceSpec, devices: usize, busy_s: f64, span_s: f64) -> EnergyTotals {
    let idle_s = (devices as f64 * span_s - busy_s).max(0.0);
    EnergyTotals {
        busy_j: spec.active_power_w * busy_s,
        idle_j: spec.idle_power_w * idle_s,
    }
}

/// Energy accounting for one simulated inference stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Total energy over the stream, joules.
    pub total_j: f64,
    /// Energy per inference, joules.
    pub per_inference_j: f64,
    /// Mean system power, watts.
    pub avg_power_w: f64,
    /// Per-stage busy time, seconds.
    pub busy_s: Vec<f64>,
}

/// Estimates energy for a simulated run.
///
/// # Panics
///
/// Panics if `report` does not match the pipeline's stage count.
pub fn estimate(
    pipeline: &CompiledPipeline,
    spec: &DeviceSpec,
    report: &InferenceReport,
) -> EnergyReport {
    assert_eq!(
        pipeline.segments.len(),
        report.stage_service_s.len(),
        "report does not match pipeline"
    );
    let mut total = 0.0;
    let mut busy_s = Vec::with_capacity(pipeline.segments.len());
    for &service in &report.stage_service_s {
        let busy = (service * report.inferences as f64).min(report.total_s);
        let idle = report.total_s - busy;
        total += spec.active_power_w * busy + spec.idle_power_w * idle;
        busy_s.push(busy);
    }
    EnergyReport {
        total_j: total,
        per_inference_j: total / report.inferences as f64,
        avg_power_w: total / report.total_s,
        busy_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, exec};
    use respect_graph::models;
    use respect_sched::{balanced::ParamBalanced, Scheduler};

    fn run(stages: usize, inferences: usize) -> (EnergyReport, InferenceReport) {
        let dag = models::resnet50();
        let spec = DeviceSpec::coral();
        let s = ParamBalanced::new().schedule(&dag, stages).unwrap();
        let p = compile::compile(&dag, &s, &spec).unwrap();
        let r = exec::simulate(&p, &spec, inferences).unwrap();
        (estimate(&p, &spec, &r), r)
    }

    #[test]
    fn energy_is_positive_and_bounded_by_power_envelope() {
        let (e, r) = run(4, 1000);
        assert!(e.total_j > 0.0);
        let spec = DeviceSpec::coral();
        let max_power = 4.0 * spec.active_power_w;
        let min_power = 4.0 * spec.idle_power_w;
        assert!(e.avg_power_w <= max_power + 1e-9);
        assert!(e.avg_power_w >= min_power - 1e-9);
        assert!((e.per_inference_j - e.total_j / r.inferences as f64).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_inference_count() {
        let (e1, _) = run(4, 100);
        let (e2, _) = run(4, 1000);
        assert!(e2.total_j > 5.0 * e1.total_j);
    }

    #[test]
    fn serving_energy_splits_busy_and_idle() {
        let spec = DeviceSpec::coral();
        let e = serving_energy(&spec, 4, 3.0, 10.0);
        assert!((e.busy_j - spec.active_power_w * 3.0).abs() < 1e-12);
        assert!((e.idle_j - spec.idle_power_w * 37.0).abs() < 1e-12);
        assert!((e.total_j() - (e.busy_j + e.idle_j)).abs() < 1e-12);
    }

    #[test]
    fn serving_energy_of_unpowered_chain_is_zero() {
        let spec = DeviceSpec::coral();
        let e = serving_energy(&spec, 8, 0.0, 0.0);
        assert_eq!(e.busy_j, 0.0);
        assert_eq!(e.idle_j, 0.0);
    }

    #[test]
    fn serving_energy_clamps_idle_at_zero() {
        // busy_s can exceed devices × span_s only through rounding; the
        // clamp keeps idle energy non-negative regardless.
        let spec = DeviceSpec::coral();
        let e = serving_energy(&spec, 1, 2.0, 1.0);
        assert_eq!(e.idle_j, 0.0);
        assert!(e.busy_j > 0.0);
    }

    #[test]
    fn busy_time_never_exceeds_wall_clock() {
        let (e, r) = run(6, 500);
        for &b in &e.busy_s {
            assert!(b <= r.total_s + 1e-12);
        }
    }
}
