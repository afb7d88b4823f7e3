//! Chrome `trace_event` JSON export of the probe stream.
//!
//! [`ChromeTraceRecorder`] is a [`Probe`] that turns each resource
//! `Release`, which carries the start of the hold it ends, into one
//! complete (`"ph":"X"`) span event, and the control-plane events
//! (sheds, drift triggers, repartition decisions, autoscale steps) into
//! instant (`"ph":"i"`) markers. The JSON is the [Trace Event Format]
//! consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! * **process** (`pid`) = fleet chain index, named `chain<c>` via
//!   metadata events;
//! * **thread** (`tid`) = resource within the chain — `tid k` is device
//!   `k`, [`BUS_TID`] is the shared bus, [`CTRL_TID`] carries the
//!   instant markers;
//! * **ts/dur** are microseconds of simulated time.
//!
//! Output is byte-deterministic: events are emitted in simulation
//! order, floats use Rust's shortest-roundtrip `Display`, and the JSON
//! is assembled with no map iteration. Per-`tid` timestamps are
//! monotone by construction (each resource is an exclusive FIFO
//! server), asserted in `tests/chrome_trace.rs`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use respect_obs::{ChromeTraceRecorder, Probe, ProbeEvent};
//! use respect_tpu::sim::ResourceId;
//!
//! let mut tr = ChromeTraceRecorder::new();
//! tr.record(0.004, &ProbeEvent::Release {
//!     chain: 0, resource: ResourceId::Device(1), tenant: 0, request: 3, stage: 1,
//!     since_s: 0.001,
//! });
//! let json = tr.to_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

use respect_tpu::probe::{Probe, ProbeEvent, TraceSpan};
use respect_tpu::sim::ResourceId;

/// `tid` of the shared host bus within each chain-process.
pub const BUS_TID: u32 = 1_000;

/// `tid` of the control-plane instant markers within each
/// chain-process (and of the fleet-level router/autoscale markers,
/// which carry `pid` [`FLEET_PID`]).
pub const CTRL_TID: u32 = 1_001;

/// `pid` of fleet-level events that belong to no single chain
/// (autoscale steps).
pub const FLEET_PID: u32 = 9_999;

/// One emitted trace event, pre-serialization.
#[derive(Debug, Clone)]
enum TraceEvent {
    /// `"ph":"X"` — a complete span.
    Span(TraceSpan),
    /// `"ph":"i"` — an instant marker.
    Instant {
        pid: u32,
        tid: u32,
        ts_us: f64,
        name: String,
    },
}

/// A [`Probe`] that records the run as Chrome `trace_event` JSON.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceRecorder {
    events: Vec<TraceEvent>,
    /// Highest chain index seen, for process-name metadata.
    max_chain: u16,
    saw_fleet_event: bool,
}

/// `tid` a resource maps to within its chain-process.
fn resource_tid(resource: ResourceId) -> u32 {
    match resource {
        ResourceId::Device(k) => k as u32,
        ResourceId::Bus => BUS_TID,
    }
}

impl ChromeTraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans and instants recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn instant(&mut self, t: f64, pid: u32, name: String) {
        self.events.push(TraceEvent::Instant {
            pid,
            tid: CTRL_TID,
            ts_us: t * 1e6,
            name,
        });
    }

    /// Serializes the recorded run as a Chrome `trace_event` JSON
    /// document (`{"traceEvents":[...]}`), including process/thread
    /// metadata naming each chain and resource. Byte-deterministic for
    /// identical runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.events.len() + 8);
        for c in 0..=u32::from(self.max_chain) {
            parts.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{c},\"tid\":0,\
                 \"args\":{{\"name\":\"chain{c}\"}}}}"
            ));
        }
        if self.saw_fleet_event {
            parts.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{FLEET_PID},\"tid\":0,\
                 \"args\":{{\"name\":\"fleet\"}}}}"
            ));
        }
        for ev in &self.events {
            parts.push(match ev {
                TraceEvent::Span(span) => {
                    let name = match span.resource {
                        ResourceId::Device(_) => format!("stage{}", span.stage),
                        ResourceId::Bus => format!("xfer s{}", span.stage),
                    };
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"resource\",\"ph\":\"X\",\
                         \"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"tenant\":{},\"request\":{}}}}}",
                        span.chain,
                        resource_tid(span.resource),
                        span.start_s * 1e6,
                        (span.end_s - span.start_s) * 1e6,
                        span.tenant,
                        span.request
                    )
                }
                TraceEvent::Instant {
                    pid,
                    tid,
                    ts_us,
                    name,
                } => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"control\",\"ph\":\"i\",\"s\":\"p\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us}}}"
                ),
            });
        }
        format!("{{\"traceEvents\":[{}]}}", parts.join(","))
    }
}

impl Probe for ChromeTraceRecorder {
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Acquire { chain, .. } => self.max_chain = self.max_chain.max(chain),
            ProbeEvent::Release { .. } => {
                self.events
                    .extend(TraceSpan::of_release(t, ev).map(TraceEvent::Span));
            }
            ProbeEvent::Shed {
                chain,
                tenant,
                request,
                reason,
            } => {
                self.max_chain = self.max_chain.max(chain);
                self.instant(
                    t,
                    u32::from(chain),
                    format!("shed {reason:?} t{tenant} r{request}"),
                );
            }
            ProbeEvent::BatchClose {
                chain,
                tenant,
                size,
            } => {
                self.max_chain = self.max_chain.max(chain);
                self.instant(t, u32::from(chain), format!("batch t{tenant} n{size}"));
            }
            ProbeEvent::DriftTrigger {
                chain,
                tenant,
                divergence,
            } => {
                self.max_chain = self.max_chain.max(chain);
                self.instant(
                    t,
                    u32::from(chain),
                    format!("drift t{tenant} d{divergence:.3}"),
                );
            }
            ProbeEvent::RepartitionAccept { chain, tenant } => {
                self.instant(t, u32::from(chain), format!("swap t{tenant}"));
            }
            ProbeEvent::RepartitionReject { chain, tenant } => {
                self.instant(t, u32::from(chain), format!("swap rejected t{tenant}"));
            }
            ProbeEvent::ScaleUp { from, to } => {
                self.saw_fleet_event = true;
                self.instant(t, FLEET_PID, format!("scale up {from}->{to}"));
            }
            ProbeEvent::ScaleDown { from, to } => {
                self.saw_fleet_event = true;
                self.instant(t, FLEET_PID, format!("scale down {from}->{to}"));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_pair_acquire_with_release_per_chain_resource() {
        let mut tr = ChromeTraceRecorder::new();
        let acq = |chain, resource| ProbeEvent::Acquire {
            chain,
            resource,
            tenant: 1,
            request: 9,
            stage: 2,
        };
        let rel = |chain, resource, since_s| ProbeEvent::Release {
            chain,
            resource,
            tenant: 1,
            request: 9,
            stage: 2,
            since_s,
        };
        // interleaved holds on two chains' device 0 must not collide
        tr.record(1.0, &acq(0, ResourceId::Device(0)));
        tr.record(1.1, &acq(1, ResourceId::Device(0)));
        tr.record(1.2, &rel(0, ResourceId::Device(0), 1.0));
        tr.record(1.4, &rel(1, ResourceId::Device(0), 1.1));
        assert_eq!(tr.len(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"name\":\"stage2\""));
        // chain 0's span: ts 1.0s = 1e6 us, dur 0.2s
        assert!(json.contains("\"ts\":1000000"));
    }

    #[test]
    fn control_events_become_instants_and_fleet_gets_its_process() {
        let mut tr = ChromeTraceRecorder::new();
        tr.record(0.5, &ProbeEvent::ScaleUp { from: 1, to: 2 });
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("scale up 1->2"));
        assert!(json.contains("\"name\":\"fleet\""));
    }

    #[test]
    fn json_is_deterministic() {
        let run = || {
            let mut tr = ChromeTraceRecorder::new();
            tr.record(
                0.1,
                &ProbeEvent::Acquire {
                    chain: 0,
                    resource: ResourceId::Bus,
                    tenant: 0,
                    request: 0,
                    stage: 0,
                },
            );
            tr.record(
                0.2,
                &ProbeEvent::Release {
                    chain: 0,
                    resource: ResourceId::Bus,
                    tenant: 0,
                    request: 0,
                    stage: 0,
                    since_s: 0.1,
                },
            );
            tr.to_json()
        };
        assert_eq!(run(), run());
    }
}
