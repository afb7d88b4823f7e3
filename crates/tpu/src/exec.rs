//! Pipelined inference streams: the event-driven executor and its
//! analytic oracle.
//!
//! The paper's Fig. 4 metric is the average runtime of 10 rounds of 1 000
//! ImageNet inferences streamed through the pipeline. In steady state each
//! stage `k` is a server with deterministic service time
//!
//! ```text
//! t_k = host_overhead
//!     + usb(input_bytes)        // tensors arriving from stage k-1
//!     + compute(macs)
//!     + usb(streamed_params)    // off-cache weights, every inference
//!     + usb(output_bytes)       // tensors leaving to stage k+1
//! ```
//!
//! and inference `j` leaves stage `k` at
//! `finish[k][j] = max(finish[k-1][j], finish[k][j-1]) + t_k` — the
//! classic tandem-queue recurrence, with throughput converging to
//! `1 / max_k t_k`.
//!
//! [`simulate`] runs this scenario through the discrete-event engine of
//! [`crate::sim`] as its degenerate case: one tenant, closed-loop
//! arrivals, batch 1, uncontended bus. [`analytic`] keeps the closed-form
//! recurrence as the differential-test oracle — the two must agree within
//! `1e-9` on every pipeline (property-tested in
//! `tests/sim_properties.rs`). Scenarios the recurrence cannot express
//! (bus contention, open-loop arrivals, batching, multi-tenancy) are
//! reached through [`crate::sim`] directly.

use crate::compile::{CompiledPipeline, Segment};
use crate::device::DeviceSpec;
use crate::sim::{self, SimConfig};

pub use crate::sim::SimError;

/// Result of simulating an inference stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Wall-clock to finish all inferences, seconds.
    pub total_s: f64,
    /// Latency of the first inference through every stage, seconds.
    pub first_latency_s: f64,
    /// Achieved throughput, inferences per second.
    pub throughput_ips: f64,
    /// Deterministic service time per stage, seconds.
    pub stage_service_s: Vec<f64>,
    /// Index of the bottleneck stage.
    pub bottleneck_stage: usize,
    /// Number of inferences simulated.
    pub inferences: usize,
}

impl InferenceReport {
    /// Average per-inference runtime (the Fig. 4 quantity).
    pub fn avg_inference_s(&self) -> f64 {
        self.total_s / self.inferences as f64
    }
}

/// Deterministic service time of one stage (the unbatched case of
/// [`sim::batch_service_time`]).
pub fn stage_service_time(seg: &Segment, spec: &DeviceSpec) -> f64 {
    sim::batch_service_time(seg, spec, 1)
}

fn service_times(pipeline: &CompiledPipeline, spec: &DeviceSpec) -> Vec<f64> {
    pipeline
        .segments
        .iter()
        .map(|s| stage_service_time(s, spec))
        .collect()
}

fn bottleneck(service: &[f64]) -> usize {
    service
        .iter()
        .enumerate()
        .fold(
            (0, f64::MIN),
            |acc, (i, &t)| if t > acc.1 { (i, t) } else { acc },
        )
        .0
}

/// Simulates `inferences` back-to-back inferences through the pipeline
/// with the discrete-event engine (closed loop, uncontended bus — the
/// legacy scenario).
///
/// # Errors
///
/// Returns [`SimError::NoRequests`] if `inferences == 0` and
/// [`SimError::EmptyPipeline`] if the pipeline has no stages.
pub fn simulate(
    pipeline: &CompiledPipeline,
    spec: &DeviceSpec,
    inferences: usize,
) -> Result<InferenceReport, SimError> {
    let report = sim::run_closed_loop(pipeline, spec, inferences, &SimConfig::uncontended())?;
    let tenant = &report.tenants[0];
    let service = service_times(pipeline, spec);
    let bottleneck_stage = bottleneck(&service);
    Ok(InferenceReport {
        total_s: tenant.total_s,
        first_latency_s: tenant.first_latency_s,
        throughput_ips: tenant.throughput_ips,
        stage_service_s: service,
        bottleneck_stage,
        inferences,
    })
}

/// The closed-form tandem-queue recurrence — the legacy implementation
/// of [`simulate`], kept as the analytic oracle the discrete-event
/// engine is differentially tested against.
///
/// # Errors
///
/// Same contract as [`simulate`].
pub fn analytic(
    pipeline: &CompiledPipeline,
    spec: &DeviceSpec,
    inferences: usize,
) -> Result<InferenceReport, SimError> {
    if inferences == 0 {
        return Err(SimError::NoRequests);
    }
    if pipeline.segments.is_empty() {
        return Err(SimError::EmptyPipeline);
    }
    let service = service_times(pipeline, spec);
    let k = service.len();
    let mut finish = vec![0.0f64; k];
    let mut first_latency = 0.0;
    for j in 0..inferences {
        let mut arrival = 0.0f64; // host dispatches immediately
        for (s, &t) in service.iter().enumerate() {
            let start = arrival.max(finish[s]);
            finish[s] = start + t;
            arrival = finish[s];
        }
        if j == 0 {
            first_latency = finish[k - 1];
        }
    }
    let total = finish[k - 1];
    let bottleneck_stage = bottleneck(&service);
    Ok(InferenceReport {
        total_s: total,
        first_latency_s: first_latency,
        throughput_ips: inferences as f64 / total,
        stage_service_s: service,
        bottleneck_stage,
        inferences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use respect_graph::models;
    use respect_sched::{balanced::ParamBalanced, Scheduler};

    fn pipeline(stages: usize) -> (CompiledPipeline, DeviceSpec) {
        let dag = models::resnet50();
        let spec = DeviceSpec::coral();
        let s = ParamBalanced::new().schedule(&dag, stages).unwrap();
        (compile::compile(&dag, &s, &spec).unwrap(), spec)
    }

    #[test]
    fn single_stage_total_is_linear_in_inferences() {
        let (p, spec) = pipeline(1);
        let r1 = simulate(&p, &spec, 1).unwrap();
        let r10 = simulate(&p, &spec, 10).unwrap();
        assert!((r10.total_s - 10.0 * r1.total_s).abs() < 1e-9);
        assert_eq!(r1.bottleneck_stage, 0);
    }

    #[test]
    fn steady_state_throughput_is_bottleneck_reciprocal() {
        let (p, spec) = pipeline(4);
        let r = simulate(&p, &spec, 5000).unwrap();
        let bottleneck = r.stage_service_s.iter().cloned().fold(f64::MIN, f64::max);
        let ideal = 1.0 / bottleneck;
        let rel = (r.throughput_ips - ideal).abs() / ideal;
        assert!(
            rel < 0.01,
            "throughput {} vs ideal {ideal}",
            r.throughput_ips
        );
    }

    #[test]
    fn pipelining_beats_single_device_on_throughput() {
        let (p1, spec) = pipeline(1);
        let (p4, _) = pipeline(4);
        let r1 = simulate(&p1, &spec, 1000).unwrap();
        let r4 = simulate(&p4, &spec, 1000).unwrap();
        assert!(
            r4.throughput_ips > 1.5 * r1.throughput_ips,
            "4-stage {} vs 1-stage {}",
            r4.throughput_ips,
            r1.throughput_ips
        );
    }

    #[test]
    fn first_latency_is_sum_of_services() {
        let (p, spec) = pipeline(4);
        let r = simulate(&p, &spec, 3).unwrap();
        let sum: f64 = r.stage_service_s.iter().sum();
        assert!((r.first_latency_s - sum).abs() < 1e-12);
        assert!(r.total_s >= r.first_latency_s);
    }

    #[test]
    fn avg_inference_matches_total_over_count() {
        let (p, spec) = pipeline(5);
        let r = simulate(&p, &spec, 100).unwrap();
        assert!((r.avg_inference_s() - r.total_s / 100.0).abs() < 1e-18);
    }

    #[test]
    fn cache_spill_slows_a_stage_down() {
        // ResNet152 at 60 MB over 4 stages must spill (15 MB > 8 MiB SRAM);
        // the same model over 8 stages fits much better.
        let dag = models::resnet152();
        let spec = DeviceSpec::coral();
        let s4 = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let s8 = ParamBalanced::new().schedule(&dag, 8).unwrap();
        let p4 = compile::compile(&dag, &s4, &spec).unwrap();
        let p8 = compile::compile(&dag, &s8, &spec).unwrap();
        let spill4: u64 = p4.segments.iter().map(|s| s.streamed_bytes).sum();
        let spill8: u64 = p8.segments.iter().map(|s| s.streamed_bytes).sum();
        assert!(spill4 > spill8, "more stages relieve the cache");
        let r4 = simulate(&p4, &spec, 1000).unwrap();
        let r8 = simulate(&p8, &spec, 1000).unwrap();
        assert!(r8.throughput_ips > r4.throughput_ips);
    }

    #[test]
    fn zero_inferences_is_an_error_not_a_panic() {
        let (p, spec) = pipeline(2);
        assert_eq!(simulate(&p, &spec, 0), Err(SimError::NoRequests));
        assert_eq!(analytic(&p, &spec, 0), Err(SimError::NoRequests));
    }

    #[test]
    fn empty_pipeline_is_an_error_not_a_panic() {
        let (p, spec) = pipeline(2);
        let empty = CompiledPipeline {
            segments: vec![],
            schedule: p.schedule,
        };
        assert_eq!(simulate(&empty, &spec, 10), Err(SimError::EmptyPipeline));
        assert_eq!(analytic(&empty, &spec, 10), Err(SimError::EmptyPipeline));
    }

    #[test]
    fn des_reproduces_the_analytic_recurrence() {
        for stages in [1usize, 3, 5] {
            let (p, spec) = pipeline(stages);
            for inferences in [1usize, 2, 17, 400] {
                let des = simulate(&p, &spec, inferences).unwrap();
                let ana = analytic(&p, &spec, inferences).unwrap();
                assert!(
                    (des.total_s - ana.total_s).abs() < 1e-9,
                    "total: {} vs {}",
                    des.total_s,
                    ana.total_s
                );
                assert!((des.first_latency_s - ana.first_latency_s).abs() < 1e-9);
                assert!(
                    (des.throughput_ips - ana.throughput_ips).abs() < 1e-9 * ana.throughput_ips
                );
                assert_eq!(des.bottleneck_stage, ana.bottleneck_stage);
                assert_eq!(des.stage_service_s, ana.stage_service_s);
            }
        }
    }
}
