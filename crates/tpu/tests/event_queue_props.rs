//! Property tests of the engines' event queue against the binary heap.
//!
//! The calendar queue is only admissible as the pending-event set if
//! it is *indistinguishable* from a binary heap ordered by
//! `(time, insertion sequence)`: every pop must return bitwise the same
//! `(time, payload)` pair, in the same order, under any interleaving of
//! pushes and pops the engines can produce. These properties drive both
//! with one operation stream and compare pop-for-pop, covering the
//! regimes that break naive bucket queues:
//!
//! * exact time ties (resolved by insertion sequence),
//! * dense same-time bursts (thousands of entries in one bucket),
//! * `+∞` deadlines and huge-magnitude times (epoch saturation),
//! * pushes behind the current cursor (cursor reset),
//! * sparse horizons with long empty gaps (lap detection),
//! * monotone near-future pushes (the DES steady state that the
//!   width calibration is tuned for), and
//! * occupancy that crosses the front run's spill and collapse
//!   thresholds again and again, with ties, `-0.0`, `+∞` and pushes
//!   ahead of the head live across each migration.
//!
//! The heap is the reference in `support/heap_queue.rs`, shared with
//! the library's unit tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_tpu::event_queue::{CalendarQueue, EventQueue};

#[path = "support/heap_queue.rs"]
mod heap_queue;

use heap_queue::BinaryHeapQueue;

/// Both queues driven in lock step; every pop must agree bitwise.
#[derive(Default)]
struct Lockstep {
    heap: BinaryHeapQueue<u64>,
    cal: CalendarQueue<u64>,
    pushed: u64,
    popped: u64,
}

impl Lockstep {
    fn push(&mut self, t: f64) {
        self.heap.push(t, self.pushed);
        self.cal.push(t, self.pushed);
        self.pushed += 1;
        prop_assert_eq!(self.heap.len(), self.cal.len());
    }

    /// Pops both and returns the popped time.
    fn pop(&mut self) -> Option<f64> {
        let (h, c) = (self.heap.pop(), self.cal.pop());
        let nth = self.popped;
        match (h, c) {
            (None, None) => {}
            (Some((ht, hk)), Some((ct, ck))) => {
                prop_assert_eq!(
                    ht.to_bits(),
                    ct.to_bits(),
                    "pop {nth}: heap t={ht} calendar t={ct}"
                );
                prop_assert_eq!(hk, ck, "pop {nth}: payloads diverge");
            }
            (h, c) => {
                prop_assert!(false, "pop {nth}: heap {h:?} vs calendar {c:?}");
            }
        }
        self.popped += 1;
        prop_assert_eq!(self.heap.len(), self.cal.len());
        h.map(|(t, _)| t)
    }

    /// Pops until both are empty.
    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Drives both queues with the same op stream; pops must agree bitwise.
///
/// `ops` yields `Some(t)` to push at time `t` and `None` to pop; a
/// trailing drain compares whatever is left.
fn differential(ops: impl IntoIterator<Item = Option<f64>>) {
    let mut q = Lockstep::default();
    for op in ops {
        match op {
            Some(t) => q.push(t),
            None => {
                q.pop();
            }
        }
    }
    q.drain();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings over a wide dynamic range of times,
    /// including ties, `+∞`, and pushes far behind the cursor.
    #[test]
    fn random_interleavings_pop_identically(seed in 0u64..1 << 48, len in 1usize..4000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<Option<f64>> = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0..=5 => Some(match rng.gen_range(0u32..20) {
                    0 => f64::INFINITY,
                    1 => 0.0,
                    2 => 1e300,
                    3 => 1e-300,
                    _ => rng.gen_range(0.0f64..2.0) * 10f64.powi(rng.gen_range(-6i32..4)),
                }),
                _ => None,
            })
            .collect();
        differential(ops);
    }

    /// Exact-tie storms: many entries at few distinct times must pop in
    /// insertion order within each time.
    #[test]
    fn dense_ties_pop_in_insertion_order(seed in 0u64..1 << 48, times in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let distinct: Vec<f64> = (0..times).map(|_| rng.gen_range(0.0f64..1.0)).collect();
        let ops: Vec<Option<f64>> = (0..3000)
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    None
                } else {
                    Some(distinct[rng.gen_range(0usize..times)])
                }
            })
            .collect();
        differential(ops);
    }

    /// The DES steady state: pops interleaved with near-future monotone
    /// pushes, plus occasional long empty gaps (idle horizons) that
    /// force the calendar to jump rather than step bucket by bucket.
    #[test]
    fn monotone_streams_with_sparse_gaps(seed in 0u64..1 << 48, gap_exp in 0i32..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let mut ops = Vec::with_capacity(6000);
        for _ in 0..2000 {
            let burst = rng.gen_range(1usize..4);
            for _ in 0..burst {
                let dt = if rng.gen_range(0u32..50) == 0 {
                    rng.gen_range(1.0f64..10.0) * 10f64.powi(gap_exp)
                } else {
                    rng.gen_range(0.0f64..1e-3)
                };
                ops.push(Some(now + dt));
            }
            ops.push(None);
            // advance "now" like an event loop would: roughly follow
            // the minimum of what was pushed
            now += rng.gen_range(0.0f64..1e-3);
        }
        differential(ops);
    }

    /// Occupancy random-walks between empty and `peak` (up to about
    /// four times the 48-entry spill threshold), so one stream spills
    /// the front run into the ring and collapses it back (below 12)
    /// many times. Pushes mix near-future times, a few tie times each
    /// reused over hundreds of operations (so equal times are pushed on
    /// both sides of a migration and are live across it), `-0.0`,
    /// `0.0`, `+∞`, and times before the last pop (ahead of the head).
    #[test]
    fn occupancy_walks_across_spill_and_collapse(seed in 0u64..1 << 48, peak in 60usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Lockstep::default();
        let mut now = 0.0f64;
        let mut ties = [0.0f64; 3];
        let mut filling = true;
        for step in 0..8000 {
            if step % 300 == 0 {
                let slot = rng.gen_range(0usize..ties.len());
                ties[slot] = now + rng.gen_range(0.0f64..1e-3);
            }
            let live = q.cal.len();
            if live == 0 {
                filling = true;
            } else if live >= peak {
                filling = false;
            }
            let push_odds = if filling { 7 } else { 3 };
            if rng.gen_range(0u32..10) < push_odds {
                let t = match rng.gen_range(0u32..20) {
                    0 => f64::INFINITY,
                    1 => -0.0,
                    2 => 0.0,
                    3 | 4 => now - rng.gen_range(0.0f64..1e-3),
                    5..=9 => ties[rng.gen_range(0usize..ties.len())],
                    _ => now + rng.gen_range(0.0f64..2e-3),
                };
                q.push(t);
            } else if let Some(t) = q.pop() {
                if t.is_finite() {
                    now = now.max(t);
                }
            }
        }
        q.drain();
    }
}
