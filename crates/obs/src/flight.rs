//! Bounded flight recorder: the last N probe events, for post-mortem
//! dumps.
//!
//! When a scenario assertion fails, the most useful artifact is usually
//! "what were the last few hundred things the system did" — not a full
//! trace. [`FlightRecorder`] is a [`Probe`] that keeps a fixed-size
//! ring of `(time, event)` pairs in constant memory; `respect-test`
//! attaches one when it re-runs a failing `.scn` file and prints the
//! [`FlightRecorder::dump`].
//!
//! ```
//! use respect_obs::{FlightRecorder, Probe, ProbeEvent};
//!
//! let mut fr = FlightRecorder::new(2);
//! for r in 0..5 {
//!     fr.record(r as f64, &ProbeEvent::Arrival { chain: 0, tenant: 0, request: r });
//! }
//! assert_eq!(fr.len(), 2);
//! assert_eq!(fr.dropped(), 3);
//! let dump = fr.dump();
//! assert!(dump.contains("request=4"));
//! assert!(!dump.contains("request=1"));
//! ```

use crate::render::render_line;
use respect_tpu::probe::{Probe, ProbeEvent};

/// A [`Probe`] keeping the most recent `cap` events in a ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<(f64, ProbeEvent)>,
    cap: usize,
    /// Write cursor, meaningful once the ring is full.
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap == 0` retains
    /// nothing and counts everything as dropped).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: Vec::with_capacity(cap.min(4096)),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted (or refused, at cap 0).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events in chronological order.
    #[must_use]
    pub fn events(&self) -> Vec<(f64, ProbeEvent)> {
        self.events_since(self.first_index()).1
    }

    /// Absolute index of the oldest retained event: every recorded
    /// event gets a stable 0-based index in record order, and the ring
    /// currently retains `[first_index, next_index)`.
    #[must_use]
    pub fn first_index(&self) -> u64 {
        self.dropped
    }

    /// Absolute index the *next* recorded event will get (= total
    /// events recorded so far).
    #[must_use]
    pub fn next_index(&self) -> u64 {
        self.dropped + self.ring.len() as u64
    }

    /// Cursor-style paging: the retained events with absolute index
    /// `>= idx`, in chronological order, without cloning the whole
    /// ring. Returns `(first, events)` where `first` is the absolute
    /// index of the first returned event — greater than `idx` exactly
    /// when the ring has already evicted part of the requested range
    /// (compare against [`FlightRecorder::first_index`] to detect the
    /// gap). An `idx` at or past [`FlightRecorder::next_index`] returns
    /// `(next_index, [])`; poll again later from there.
    #[must_use]
    pub fn events_since(&self, idx: u64) -> (u64, Vec<(f64, ProbeEvent)>) {
        let first = idx.max(self.first_index());
        if first >= self.next_index() {
            return (self.next_index(), Vec::new());
        }
        let skip = (first - self.first_index()) as usize;
        let n = self.ring.len() - skip;
        let mut out = Vec::with_capacity(n);
        for i in skip..self.ring.len() {
            // head is the oldest slot once the ring is full; before
            // that the ring is in record order from slot 0
            let pos = if self.ring.len() == self.cap {
                (self.head + i) % self.cap
            } else {
                i
            };
            out.push(self.ring[pos]);
        }
        (first, out)
    }

    /// A human-readable dump: one [`render_line`] per retained event,
    /// chronological, preceded by a header noting how many were
    /// dropped.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = format!(
            "flight recorder: last {} of {} events\n",
            self.ring.len(),
            self.next_index()
        );
        for (t, ev) in self.events() {
            out.push_str("  ");
            out.push_str(&render_line(t, &ev));
            out.push('\n');
        }
        out
    }
}

impl Probe for FlightRecorder {
    fn record(&mut self, t: f64, ev: &ProbeEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() < self.cap {
            self.ring.push((t, *ev));
        } else {
            self.ring[self.head] = (t, *ev);
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(r: u32) -> ProbeEvent {
        ProbeEvent::Arrival {
            chain: 0,
            tenant: 0,
            request: r,
        }
    }

    #[test]
    fn ring_keeps_the_chronological_tail() {
        let mut fr = FlightRecorder::new(3);
        for r in 0..8 {
            fr.record(f64::from(r), &arrival(r));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 5);
        let times: Vec<f64> = fr.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn below_cap_keeps_everything() {
        let mut fr = FlightRecorder::new(10);
        for r in 0..4 {
            fr.record(f64::from(r), &arrival(r));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 0);
        assert_eq!(fr.events().first().map(|&(t, _)| t), Some(0.0));
    }

    #[test]
    fn zero_cap_refuses_everything() {
        let mut fr = FlightRecorder::new(0);
        fr.record(1.0, &arrival(0));
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 1);
        assert!(fr.dump().starts_with("flight recorder: last 0 of 1"));
        assert_eq!(fr.events_since(0), (1, vec![]));
    }

    #[test]
    fn events_since_pages_incrementally_below_cap() {
        let mut fr = FlightRecorder::new(10);
        for r in 0..4 {
            fr.record(f64::from(r), &arrival(r));
        }
        assert_eq!((fr.first_index(), fr.next_index()), (0, 4));
        let (first, evs) = fr.events_since(0);
        assert_eq!((first, evs.len()), (0, 4));
        // resume from a cursor: only the new tail comes back
        let (first, evs) = fr.events_since(2);
        assert_eq!(first, 2);
        assert_eq!(
            evs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![2.0, 3.0]
        );
        // cursor at the end: empty page, poll again from next_index
        assert_eq!(fr.events_since(4), (4, vec![]));
        assert_eq!(fr.events_since(99), (4, vec![]));
    }

    #[test]
    fn events_since_is_dropped_aware_after_wrap() {
        let mut fr = FlightRecorder::new(3);
        for r in 0..8 {
            fr.record(f64::from(r), &arrival(r));
        }
        // retained absolute range is [5, 8)
        assert_eq!((fr.first_index(), fr.next_index()), (5, 8));
        // a stale cursor is clamped forward; `first` exposes the gap
        let (first, evs) = fr.events_since(1);
        assert_eq!(first, 5);
        assert_eq!(
            evs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![5.0, 6.0, 7.0]
        );
        // a cursor inside the retained window starts exactly there
        let (first, evs) = fr.events_since(6);
        assert_eq!(first, 6);
        assert_eq!(
            evs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![6.0, 7.0]
        );
    }

    #[test]
    fn events_since_full_page_matches_events() {
        let mut fr = FlightRecorder::new(4);
        for r in 0..11 {
            fr.record(f64::from(r), &arrival(r));
        }
        let (_, paged) = fr.events_since(fr.first_index());
        assert_eq!(paged, fr.events());
    }
}
