//! The canonical, human-readable rendering of [`ProbeEvent`]s.
//!
//! One event, one line, one format — shared by every consumer that
//! shows the probe stream to a person: [`crate::FlightRecorder::dump`],
//! the `respect-test` failure tail, and the `respect_dbg` debugger's
//! `trace`/stop/watch output. Keeping a single renderer means a user
//! stepping through a debugger session sees exactly the lines a CI
//! failure printed, and golden transcripts pin one format, not three.
//!
//! The format is deterministic: identical events render to identical
//! bytes (floats use fixed 9-decimal precision), so rendered streams
//! can be golden-pinned.
//!
//! ```
//! use respect_obs::render::{kind_name, render_event, render_line};
//! use respect_obs::ProbeEvent;
//!
//! let ev = ProbeEvent::BatchClose { chain: 0, tenant: 1, size: 4 };
//! assert_eq!(kind_name(&ev), "batch_close");
//! assert_eq!(render_event(&ev), "batch_close chain=0 tenant=1 size=4");
//! assert_eq!(render_line(2.5, &ev), "[2.500000000] batch_close chain=0 tenant=1 size=4");
//! ```

use respect_tpu::probe::{ProbeEvent, ShedReason};
use respect_tpu::sim::ResourceId;

/// Every event kind's stable snake_case name, indexed by
/// [`kind_index`]: the vocabulary of [`kind_name`] and of the
/// `respect_dbg` breakpoint predicates.
pub const KINDS: [&str; 16] = [
    "arrival",
    "admit",
    "shed",
    "batch_open",
    "batch_close",
    "acquire",
    "release",
    "completion",
    "drift",
    "repartition_pass",
    "repartition_proposal",
    "repartition_accept",
    "repartition_reject",
    "scale_up",
    "scale_down",
    "route",
];

/// The event's position in [`KINDS`]; `None` for a kind that has no
/// name there yet ([`ProbeEvent`] is `#[non_exhaustive]`).
#[must_use]
pub fn kind_index(ev: &ProbeEvent) -> Option<usize> {
    Some(match ev {
        ProbeEvent::Arrival { .. } => 0,
        ProbeEvent::Admit { .. } => 1,
        ProbeEvent::Shed { .. } => 2,
        ProbeEvent::BatchOpen { .. } => 3,
        ProbeEvent::BatchClose { .. } => 4,
        ProbeEvent::Acquire { .. } => 5,
        ProbeEvent::Release { .. } => 6,
        ProbeEvent::Completion { .. } => 7,
        ProbeEvent::DriftTrigger { .. } => 8,
        ProbeEvent::RepartitionPass { .. } => 9,
        ProbeEvent::RepartitionProposal { .. } => 10,
        ProbeEvent::RepartitionAccept { .. } => 11,
        ProbeEvent::RepartitionReject { .. } => 12,
        ProbeEvent::ScaleUp { .. } => 13,
        ProbeEvent::ScaleDown { .. } => 14,
        ProbeEvent::RouterDecision { .. } => 15,
        _ => return None,
    })
}

/// The event's kind as its [`KINDS`] name; kinds without one render
/// recognizably as `unknown`.
#[must_use]
pub fn kind_name(ev: &ProbeEvent) -> &'static str {
    kind_index(ev).map_or("unknown", |i| KINDS[i])
}

fn resource_name(r: ResourceId) -> String {
    match r {
        ResourceId::Device(k) => format!("dev{k}"),
        ResourceId::Bus => "bus".to_string(),
    }
}

fn shed_reason_name(r: ShedReason) -> &'static str {
    match r {
        ShedReason::QueueBound => "queue_bound",
        ShedReason::SloDelay => "slo_delay",
    }
}

/// Renders one event as `kind key=value ...` (no time prefix).
#[must_use]
pub fn render_event(ev: &ProbeEvent) -> String {
    let kind = kind_name(ev);
    match *ev {
        ProbeEvent::Arrival {
            chain,
            tenant,
            request,
        }
        | ProbeEvent::Admit {
            chain,
            tenant,
            request,
        } => format!("{kind} chain={chain} tenant={tenant} request={request}"),
        ProbeEvent::Shed {
            chain,
            tenant,
            request,
            reason,
        } => format!(
            "{kind} chain={chain} tenant={tenant} request={request} reason={}",
            shed_reason_name(reason)
        ),
        ProbeEvent::BatchOpen { chain, tenant } => format!("{kind} chain={chain} tenant={tenant}"),
        ProbeEvent::BatchClose {
            chain,
            tenant,
            size,
        } => format!("{kind} chain={chain} tenant={tenant} size={size}"),
        ProbeEvent::Acquire {
            chain,
            resource,
            tenant,
            request,
            stage,
        }
        | ProbeEvent::Release {
            chain,
            resource,
            tenant,
            request,
            stage,
            ..
        } => format!(
            "{kind} chain={chain} {} tenant={tenant} request={request} stage={stage}",
            resource_name(resource)
        ),
        ProbeEvent::Completion {
            chain,
            tenant,
            request,
            latency_s,
        } => format!(
            "{kind} chain={chain} tenant={tenant} request={request} latency={latency_s:.9}"
        ),
        ProbeEvent::DriftTrigger {
            chain,
            tenant,
            divergence,
        } => format!("{kind} chain={chain} tenant={tenant} divergence={divergence:.9}"),
        ProbeEvent::RepartitionPass {
            chain,
            tenant,
            pass,
            moves,
            objective_s,
        } => format!(
            "{kind} chain={chain} tenant={tenant} pass={pass} moves={moves} objective={objective_s:.9}"
        ),
        ProbeEvent::RepartitionProposal {
            chain,
            tenant,
            from_objective_s,
            to_objective_s,
            moves,
        } => format!(
            "{kind} chain={chain} tenant={tenant} from={from_objective_s:.9} to={to_objective_s:.9} moves={moves}"
        ),
        ProbeEvent::RepartitionAccept { chain, tenant }
        | ProbeEvent::RepartitionReject { chain, tenant } => {
            format!("{kind} chain={chain} tenant={tenant}")
        }
        ProbeEvent::ScaleUp { from, to } | ProbeEvent::ScaleDown { from, to } => {
            format!("{kind} from={from} to={to}")
        }
        ProbeEvent::RouterDecision {
            tenant,
            request,
            chain,
        } => format!("{kind} tenant={tenant} request={request} chain={chain}"),
        // future kinds (ProbeEvent is #[non_exhaustive]) fall back to
        // the Debug form until a canonical rendering is added here
        ref other => format!("{other:?}"),
    }
}

/// Renders one timestamped event as `[t] kind key=value ...` — the
/// line format of flight-recorder dumps and debugger traces.
#[must_use]
pub fn render_line(t: f64, ev: &ProbeEvent) -> String {
    format!("[{t:.9}] {}", render_event(ev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_renders_with_its_name_first() {
        let events = [
            ProbeEvent::Arrival {
                chain: 1,
                tenant: 2,
                request: 3,
            },
            ProbeEvent::Admit {
                chain: 0,
                tenant: 0,
                request: 0,
            },
            ProbeEvent::Shed {
                chain: 0,
                tenant: 1,
                request: 9,
                reason: ShedReason::QueueBound,
            },
            ProbeEvent::BatchOpen {
                chain: 0,
                tenant: 4,
            },
            ProbeEvent::BatchClose {
                chain: 0,
                tenant: 4,
                size: 8,
            },
            ProbeEvent::Acquire {
                chain: 0,
                resource: ResourceId::Device(2),
                tenant: 0,
                request: 1,
                stage: 2,
            },
            ProbeEvent::Release {
                chain: 0,
                resource: ResourceId::Bus,
                tenant: 0,
                request: 1,
                stage: 0,
                since_s: 0.125,
            },
            ProbeEvent::Completion {
                chain: 0,
                tenant: 0,
                request: 1,
                latency_s: 0.25,
            },
            ProbeEvent::DriftTrigger {
                chain: 0,
                tenant: 0,
                divergence: 0.5,
            },
            ProbeEvent::RepartitionPass {
                chain: 0,
                tenant: 0,
                pass: 1,
                moves: 2,
                objective_s: 0.001,
            },
            ProbeEvent::RepartitionProposal {
                chain: 0,
                tenant: 0,
                from_objective_s: 0.002,
                to_objective_s: 0.001,
                moves: 2,
            },
            ProbeEvent::RepartitionAccept {
                chain: 0,
                tenant: 0,
            },
            ProbeEvent::RepartitionReject {
                chain: 0,
                tenant: 0,
            },
            ProbeEvent::ScaleUp { from: 1, to: 2 },
            ProbeEvent::ScaleDown { from: 2, to: 1 },
            ProbeEvent::RouterDecision {
                tenant: 0,
                request: 5,
                chain: 3,
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(kind_index(ev), Some(i), "{ev:?} sits at its KINDS index");
            let line = render_event(ev);
            assert!(
                line.starts_with(kind_name(ev)),
                "rendering starts with the kind name: {line}"
            );
        }
    }

    #[test]
    fn exact_lines_are_pinned() {
        assert_eq!(
            render_line(
                1.5,
                &ProbeEvent::Shed {
                    chain: 2,
                    tenant: 1,
                    request: 7,
                    reason: ShedReason::SloDelay,
                }
            ),
            "[1.500000000] shed chain=2 tenant=1 request=7 reason=slo_delay"
        );
        assert_eq!(
            render_event(&ProbeEvent::Acquire {
                chain: 0,
                resource: ResourceId::Device(3),
                tenant: 2,
                request: 11,
                stage: 3,
            }),
            "acquire chain=0 dev3 tenant=2 request=11 stage=3"
        );
        assert_eq!(
            render_event(&ProbeEvent::Completion {
                chain: 0,
                tenant: 0,
                request: 4,
                latency_s: 0.123456789123,
            }),
            "completion chain=0 tenant=0 request=4 latency=0.123456789"
        );
    }
}
