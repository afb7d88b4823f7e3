//! Deterministic metrics aggregation over the probe stream.
//!
//! [`MetricsRecorder`] is a [`Probe`] that folds every event into plain
//! counters, busy-time accumulators (each `Release` adds the hold it
//! ends), and a mergeable
//! [`LatencyHistogram`] of completion sojourns. [`MetricsRecorder::snapshot`]
//! freezes the state into a [`MetricsSnapshot`] whose entries are in a
//! fixed, documented order, so two identical runs produce byte-identical
//! [`MetricsSnapshot::to_prometheus`] / [`MetricsSnapshot::to_tsv`]
//! expositions — stable enough to golden-pin (see `tests/metrics_golden.rs`
//! at the workspace root).

use respect_serve::LatencyHistogram;
use respect_tpu::probe::{Probe, ProbeEvent, ShedReason};
use respect_tpu::sim::ResourceId;

/// A [`Probe`] that aggregates the event stream into counters and
/// gauges. Purely deterministic: state is a fold over the (ordered)
/// stream, and snapshots expose it in fixed order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    arrivals: u64,
    admitted: u64,
    shed_queue_bound: u64,
    shed_slo_delay: u64,
    batches_opened: u64,
    batches_closed: u64,
    batched_requests: u64,
    max_batch_requests: u64,
    completions: u64,
    acquires: u64,
    releases: u64,
    drift_triggers: u64,
    repartition_passes: u64,
    repartition_moves: u64,
    repartition_proposals: u64,
    repartition_accepts: u64,
    repartition_rejects: u64,
    scale_ups: u64,
    scale_downs: u64,
    router_decisions: u64,
    device_busy_s: f64,
    bus_busy_s: f64,
    latency_sum_s: f64,
    latency_max_s: f64,
    latency: LatencyHistogram,
}

impl MetricsRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The completion-sojourn histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Freezes the current state into a stable-ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shed = self.shed_queue_bound + self.shed_slo_delay;
        let counters = vec![
            ("arrivals", self.arrivals),
            ("admitted", self.admitted),
            ("shed", shed),
            ("shed_queue_bound", self.shed_queue_bound),
            ("shed_slo_delay", self.shed_slo_delay),
            ("batches_opened", self.batches_opened),
            ("batches_closed", self.batches_closed),
            ("batched_requests", self.batched_requests),
            ("max_batch_requests", self.max_batch_requests),
            ("completions", self.completions),
            ("resource_acquires", self.acquires),
            ("resource_releases", self.releases),
            ("drift_triggers", self.drift_triggers),
            ("repartition_passes", self.repartition_passes),
            ("repartition_moves", self.repartition_moves),
            ("repartition_proposals", self.repartition_proposals),
            ("repartition_accepts", self.repartition_accepts),
            ("repartition_rejects", self.repartition_rejects),
            ("scale_ups", self.scale_ups),
            ("scale_downs", self.scale_downs),
            ("router_decisions", self.router_decisions),
        ];
        let mean = if self.completions == 0 {
            0.0
        } else {
            self.latency_sum_s / self.completions as f64
        };
        let gauges = vec![
            ("device_busy_s", self.device_busy_s),
            ("bus_busy_s", self.bus_busy_s),
            ("latency_mean_s", mean),
            ("latency_max_s", self.latency_max_s),
            ("latency_p50_s", self.latency.p50()),
            ("latency_p95_s", self.latency.p95()),
            ("latency_p99_s", self.latency.p99()),
            ("latency_p999_s", self.latency.p999()),
        ];
        MetricsSnapshot { counters, gauges }
    }
}

impl Probe for MetricsRecorder {
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Arrival { .. } => self.arrivals += 1,
            ProbeEvent::Admit { .. } => self.admitted += 1,
            ProbeEvent::Shed { reason, .. } => match reason {
                ShedReason::QueueBound => self.shed_queue_bound += 1,
                ShedReason::SloDelay => self.shed_slo_delay += 1,
            },
            ProbeEvent::BatchOpen { .. } => self.batches_opened += 1,
            ProbeEvent::BatchClose { size, .. } => {
                self.batches_closed += 1;
                self.batched_requests += u64::from(size);
                self.max_batch_requests = self.max_batch_requests.max(u64::from(size));
            }
            ProbeEvent::Acquire { .. } => self.acquires += 1,
            ProbeEvent::Release {
                resource, since_s, ..
            } => {
                self.releases += 1;
                match resource {
                    ResourceId::Device(_) => self.device_busy_s += t - since_s,
                    ResourceId::Bus => self.bus_busy_s += t - since_s,
                }
            }
            ProbeEvent::Completion { latency_s, .. } => {
                self.completions += 1;
                self.latency_sum_s += latency_s;
                self.latency_max_s = self.latency_max_s.max(latency_s);
                self.latency.record(latency_s);
            }
            ProbeEvent::DriftTrigger { .. } => self.drift_triggers += 1,
            ProbeEvent::RepartitionPass { moves, .. } => {
                self.repartition_passes += 1;
                self.repartition_moves += u64::from(moves);
            }
            ProbeEvent::RepartitionProposal { .. } => self.repartition_proposals += 1,
            ProbeEvent::RepartitionAccept { .. } => self.repartition_accepts += 1,
            ProbeEvent::RepartitionReject { .. } => self.repartition_rejects += 1,
            ProbeEvent::ScaleUp { .. } => self.scale_ups += 1,
            ProbeEvent::ScaleDown { .. } => self.scale_downs += 1,
            ProbeEvent::RouterDecision { .. } => self.router_decisions += 1,
            _ => {}
        }
    }
}

/// A frozen, stable-ordered view of a [`MetricsRecorder`].
///
/// Entry order is fixed at snapshot time (the documented counter order,
/// then the gauge order), so the text expositions are byte-stable across
/// identical runs and can be golden-pinned.
///
/// ```
/// use respect_obs::{MetricsRecorder, Probe, ProbeEvent};
///
/// let mut m = MetricsRecorder::new();
/// m.record(0.0, &ProbeEvent::Arrival { chain: 0, tenant: 0, request: 0 });
/// m.record(0.1, &ProbeEvent::Completion {
///     chain: 0, tenant: 0, request: 0, latency_s: 0.1,
/// });
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("arrivals"), Some(1));
/// assert!(snap.to_prometheus().contains("respect_completions_total 1"));
/// assert!(snap.to_tsv().starts_with("arrivals\t1"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone event counts, in documented order.
    pub counters: Vec<(&'static str, u64)>,
    /// Derived point-in-time values (busy seconds, latency quantiles),
    /// in documented order.
    pub gauges: Vec<(&'static str, f64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Prometheus-style text exposition: `respect_<name>_total` for
    /// counters, `respect_<name>` for gauges, each preceded by a
    /// `# TYPE` line. Float formatting uses Rust's shortest-roundtrip
    /// `Display`, so the output is byte-deterministic.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            out.push_str(&format!(
                "# TYPE respect_{name}_total counter\nrespect_{name}_total {v}\n"
            ));
        }
        for &(name, v) in &self.gauges {
            out.push_str(&format!(
                "# TYPE respect_{name} gauge\nrespect_{name} {v}\n"
            ));
        }
        out
    }

    /// Tab-separated `name\tvalue` lines, counters then gauges, in
    /// snapshot order.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            out.push_str(&format!("{name}\t{v}\n"));
        }
        for &(name, v) in &self.gauges {
            out.push_str(&format!("{name}\t{v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_the_stream() {
        let mut m = MetricsRecorder::new();
        m.record(
            0.0,
            &ProbeEvent::Arrival {
                chain: 0,
                tenant: 0,
                request: 0,
            },
        );
        m.record(
            0.0,
            &ProbeEvent::Admit {
                chain: 0,
                tenant: 0,
                request: 0,
            },
        );
        m.record(
            0.1,
            &ProbeEvent::Shed {
                chain: 0,
                tenant: 0,
                request: 1,
                reason: ShedReason::QueueBound,
            },
        );
        m.record(
            0.2,
            &ProbeEvent::Shed {
                chain: 0,
                tenant: 0,
                request: 2,
                reason: ShedReason::SloDelay,
            },
        );
        m.record(
            0.3,
            &ProbeEvent::BatchClose {
                chain: 0,
                tenant: 0,
                size: 5,
            },
        );
        let s = m.snapshot();
        assert_eq!(s.counter("arrivals"), Some(1));
        assert_eq!(s.counter("admitted"), Some(1));
        assert_eq!(s.counter("shed"), Some(2));
        assert_eq!(s.counter("shed_queue_bound"), Some(1));
        assert_eq!(s.counter("shed_slo_delay"), Some(1));
        assert_eq!(s.counter("batched_requests"), Some(5));
        assert_eq!(s.counter("max_batch_requests"), Some(5));
        assert_eq!(s.counter("nonexistent"), None);
    }

    #[test]
    fn busy_time_pairs_acquire_with_release() {
        let mut m = MetricsRecorder::new();
        let acq = ProbeEvent::Acquire {
            chain: 0,
            resource: ResourceId::Device(1),
            tenant: 0,
            request: 0,
            stage: 1,
        };
        let rel = ProbeEvent::Release {
            chain: 0,
            resource: ResourceId::Device(1),
            tenant: 0,
            request: 0,
            stage: 1,
            since_s: 1.0,
        };
        m.record(1.0, &acq);
        m.record(1.5, &rel);
        m.record(
            2.0,
            &ProbeEvent::Acquire {
                chain: 0,
                resource: ResourceId::Bus,
                tenant: 0,
                request: 0,
                stage: 0,
            },
        );
        m.record(
            2.25,
            &ProbeEvent::Release {
                chain: 0,
                resource: ResourceId::Bus,
                tenant: 0,
                request: 0,
                stage: 0,
                since_s: 2.0,
            },
        );
        let s = m.snapshot();
        assert_eq!(s.gauge("device_busy_s"), Some(0.5));
        assert_eq!(s.gauge("bus_busy_s"), Some(0.25));
        assert_eq!(s.counter("resource_acquires"), Some(2));
        assert_eq!(s.counter("resource_releases"), Some(2));
    }

    #[test]
    fn expositions_are_deterministic_and_ordered() {
        let mut m = MetricsRecorder::new();
        m.record(
            0.0,
            &ProbeEvent::Completion {
                chain: 0,
                tenant: 0,
                request: 0,
                latency_s: 3.5e-3,
            },
        );
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.to_tsv(), b.to_tsv());
        let prom = a.to_prometheus();
        assert!(prom.contains("# TYPE respect_completions_total counter"));
        assert!(prom.contains("respect_completions_total 1"));
        assert!(prom.contains("# TYPE respect_latency_p50_s gauge"));
        let tsv = a.to_tsv();
        let first = tsv.lines().next().unwrap();
        assert_eq!(first, "arrivals\t0");
        assert_eq!(tsv.lines().count(), a.counters.len() + a.gauges.len());
    }
}
