//! The pending-event set of the discrete-event engines.
//!
//! Both engines in this workspace ([`crate::sim`] and the serving
//! runtime in `respect_serve`) drain a priority queue of timestamped
//! events, totally ordered by `(time, insertion sequence)` with
//! [`f64::total_cmp`] on the time — the ordering that makes every run
//! bitwise deterministic. [`CalendarQueue`] is that queue at every
//! depth, in two tiers (the shape of the ladder queue, Tang, Goh & Thng
//! 2005):
//!
//! * **a sorted front run** holds every entry while at most `SPILL`
//!   (48) are pending — a few tenants on one chain, the `sim` and
//!   single-chain serving regime. It is kept in reverse pop order, so
//!   a pop takes the last element and a push moves up only the entries
//!   that pop before it (on the `sim` benchmark, 0.5 per push with 3
//!   pending). No bucket walk and no width estimate.
//! * **a calendar ring** (Brown 1988) takes over past that: time is
//!   divided into fixed-width *years* mapped onto a power-of-two ring
//!   of buckets, and a cursor walks the ring popping the current
//!   year's events — amortized `O(1)` per operation however deep the
//!   set grows (a fleet's thousands of tenant timers).
//!
//! The run spills into the ring through the ring's rebuild, which then
//! estimates the year width from enough entries, and a ring that drains
//! below `COLLAPSE` (12) entries collapses back into the run. The two
//! thresholds apart keep a set that hovers near one of them from
//! migrating on every operation. Both moves migrate entries in pop
//! order, so time ties stay in push order (FIFO).
//!
//! The engines are generic over the [`EventQueue`] trait so tests can
//! run them on the binary-heap reference in
//! `crates/tpu/tests/support/heap_queue.rs`; the queue must produce the
//! reference's pop sequence bitwise on any stream (differential-tested
//! in `crates/tpu/tests/event_queue_props.rs`, also across spills and
//! collapses).
//!
//! Timestamps must not be `NaN` (debug-asserted): a `NaN` deadline is
//! always an upstream bug, and the engines validate their inputs before
//! any event is scheduled.

use std::cmp::Ordering;

/// A priority queue of `(time, payload)` events, popped in
/// `(time, insertion sequence)` order with [`f64::total_cmp`] on the
/// time.
///
/// The insertion sequence is implicit: the `i`-th push ever made has
/// sequence `i`, so ties in time pop in push order (FIFO). Every
/// implementation must produce the exact same pop sequence for the same
/// push/pop interleaving — the engines' bitwise-determinism guarantee
/// rests on it.
pub trait EventQueue<K>: Default {
    /// Schedules `kind` at time `t`. `t` must not be `NaN`.
    fn push(&mut self, t: f64, kind: K);

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(f64, K)>;

    /// Pending events.
    fn len(&self) -> usize;

    /// Whether no event is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Live entries the front run holds at most; one more spills it into
/// the ring. Deep enough that a handful of tenants on one chain (about
/// 4–10 pending events) never reach the ring, and enough entries for
/// the ring's width estimate.
const SPILL: usize = 48;
/// Ring occupancy below which the ring collapses back into the run.
const COLLAPSE: usize = 12;
/// Ring size the calendar starts with and never shrinks below.
const MIN_BUCKETS: usize = 16;
/// Ring size cap: beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 16;
/// Entries per bucket (on average) that trigger a ring growth: two, as
/// in Brown's sizing rule (four ran the 1 024- and 4 096-tenant soak
/// points slower).
const GROW_PER_BUCKET: usize = 2;
/// Year width the ring starts with, seconds, until a rebuild estimates
/// one from the live entry distribution.
const INITIAL_WIDTH_S: f64 = 1e-4;
/// Pops between cursor-efficiency checks.
const CALIBRATE_POPS: u32 = 1024;

/// One scheduled event. No sequence number: FIFO tie order falls out
/// structurally. The run and every bucket place a new entry behind
/// the entries of equal time in pop order, equal times map to the same
/// epoch and therefore the same bucket, and migrations between run and
/// ring keep pop order — so ties always sit in push order. Keeping the
/// entry at `8 + size_of::<K>()` bytes (24 with the engines' 12- and
/// 16-byte payloads) matters: at fleet scale the pending set outgrows
/// L1 and queue throughput is memory-bound.
#[derive(Debug, Clone, Copy)]
struct CalEntry<K> {
    t: f64,
    kind: K,
}

/// One bucket of the calendar ring: entries ascending by time
/// (insertion-stable on ties), with the first `head` slots already
/// popped.
///
/// The front entry's time is mirrored into the header (`front_t`) so
/// cursor walks over not-yet-due buckets and [`CalendarQueue`]'s
/// earliest-entry scans read only the header cache line, never the
/// heap-allocated entry storage.
#[derive(Debug, Clone)]
struct Bucket<K> {
    head: usize,
    /// `items[head].t`; meaningless while the bucket is empty.
    front_t: f64,
    items: Vec<CalEntry<K>>,
}

impl<K> Default for Bucket<K> {
    fn default() -> Self {
        Bucket {
            head: 0,
            front_t: 0.0,
            items: Vec::new(),
        }
    }
}

impl<K> Bucket<K> {
    #[inline]
    fn is_empty(&self) -> bool {
        // `head == len` only happens at `0 == 0`: draining pops reset
        // the bucket as soon as the last entry leaves
        self.head == self.items.len()
    }
}

/// The engines' [`EventQueue`]: a sorted front run while few events
/// are pending, a calendar ring past that (see the [module
/// docs](self)).
///
/// In the ring, an entry at time `t` lives in bucket `epoch(t) & mask`
/// where `epoch(t) = t / width` truncated, kept sorted ascending by
/// time — in the DES workload pushes are near-monotone in time, so
/// insertion is almost always an append. The cursor `cur_epoch`
/// maintains the invariant that no live entry has an earlier year; the
/// head of the cursor's bucket is therefore the global minimum
/// whenever its year matches, making pops `O(1)`. When the current
/// year is exhausted the cursor steps forward bucket-by-bucket; after a
/// full fruitless lap (a long empty gap in simulated time) it jumps
/// straight to the earliest bucket head. Non-finite and far-future
/// times saturate into the last year and are found by the same jump,
/// so `+inf` deadlines are legal.
///
/// Epochs are recomputed from `t` wherever needed rather than stored:
/// the width only changes inside the internal rebuild, which
/// re-buckets every live entry under the new width, so the mapping is
/// consistent across an entry's whole lifetime.
///
/// The ring grows when occupancy passes a per-bucket threshold, and the
/// year width is re-estimated from the live entry spacing at every
/// rebuild (the spill included), as well as whenever the cursor spends
/// most of its time stepping over empty buckets. All adaptation
/// depends only on the operation sequence, preserving bitwise
/// determinism.
///
/// ```
/// use respect_tpu::event_queue::{CalendarQueue, EventQueue};
/// let mut q = CalendarQueue::default();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-tie");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-tie")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<K> {
    /// Every live entry while the ring is empty, in reverse pop order
    /// (descending by time, the latest push first among ties), so the
    /// head pops off the end; empty while the ring holds entries.
    run: Vec<CalEntry<K>>,
    /// The ring: a power-of-two number of buckets.
    buckets: Vec<Bucket<K>>,
    /// `buckets.len() - 1` (power-of-two ring).
    mask: u64,
    /// Year width, seconds.
    width: f64,
    /// `1.0 / width`, cached so the per-push year computation is a
    /// multiply instead of a divide.
    inv_width: f64,
    /// The cursor: no ring entry has `epoch < cur_epoch`.
    cur_epoch: u64,
    /// Entries in the ring: `0` while the run holds every entry, at
    /// least `COLLAPSE` otherwise.
    ring_len: usize,
    /// Ring entries at which the next push triggers a ring growth.
    grow_at: usize,
    /// Pops since the last cursor-efficiency check.
    pops_tick: u32,
    /// Cursor steps over empty/future buckets since the last check.
    steps_tick: u32,
}

impl<K> Default for CalendarQueue<K> {
    fn default() -> Self {
        CalendarQueue {
            run: Vec::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: INITIAL_WIDTH_S,
            inv_width: 1.0 / INITIAL_WIDTH_S,
            cur_epoch: 0,
            ring_len: 0,
            grow_at: MIN_BUCKETS * GROW_PER_BUCKET,
            pops_tick: 0,
            steps_tick: 0,
        }
    }
}

impl<K: Copy> CalendarQueue<K> {
    /// Year index of time `t`: `t / width` truncated (computed as a
    /// multiply by the cached reciprocal), clamping negative times to
    /// year 0 and saturating non-finite/far-future times into the last
    /// year. Multiplication by a positive constant is monotone
    /// non-decreasing under rounding, so a bucket sorted by time is
    /// also sorted by epoch — the only property pops rely on.
    #[inline]
    fn epoch_of(&self, t: f64) -> u64 {
        epoch_for(self.inv_width, t)
    }

    /// Inserts `e` into the run: the entries that pop before it (not
    /// later than it — on a time tie the older entry pops first, keeping
    /// FIFO order) each shift one slot toward the end.
    #[inline]
    fn push_run(&mut self, e: CalEntry<K>) {
        self.run.push(e);
        let run = self.run.as_mut_slice();
        let mut i = run.len() - 1;
        while i > 0 && run[i - 1].t.total_cmp(&e.t) != Ordering::Greater {
            run[i] = run[i - 1];
            i -= 1;
        }
        run[i] = e;
    }

    #[inline]
    fn push_entry(&mut self, e: CalEntry<K>) {
        let epoch = self.epoch_of(e.t);
        if epoch < self.cur_epoch {
            // a push behind the cursor (legal for arbitrary streams):
            // move the cursor back so the entry is not popped a lap late
            self.cur_epoch = epoch;
        }
        let b = &mut self.buckets[(epoch & self.mask) as usize];
        match b.items.last() {
            // strictly-later tail: sort the entry in; on a time tie the
            // new entry appends AFTER the tail, keeping FIFO order
            Some(last) if last.t.total_cmp(&e.t) == Ordering::Greater => {
                let pos =
                    b.items[b.head..].partition_point(|x| x.t.total_cmp(&e.t) != Ordering::Greater);
                if pos == 0 {
                    b.front_t = e.t;
                }
                b.items.insert(b.head + pos, e);
            }
            _ => {
                if b.is_empty() {
                    b.front_t = e.t;
                }
                b.items.push(e);
            }
        }
        self.ring_len += 1;
    }

    /// Moves every ring entry into the (empty) run, in reverse pop
    /// order: equal times share a bucket, where they sit in push order,
    /// so a stable sort by time puts them in pop order, and reversing it
    /// gives the run's order.
    fn collapse(&mut self) {
        for b in &mut self.buckets {
            self.run.extend(b.items.drain(b.head..));
            b.head = 0;
            b.items.clear();
        }
        self.run.sort_by(|a, b| a.t.total_cmp(&b.t));
        self.run.reverse();
        self.ring_len = 0;
    }

    /// Rebuilds the ring with `target_buckets` buckets (clamped and
    /// rounded to a power of two) from every live entry, re-estimating
    /// the year width from the live entry spacing.
    fn rebuild(&mut self, target_buckets: usize) {
        let n = target_buckets
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        // every live entry in pop order: the run reversed, then the
        // ring's buckets (at most one of the two holds entries), merged
        // by a stable sort — ties share a bucket in push order
        let mut live: Vec<CalEntry<K>> = Vec::with_capacity(self.len());
        live.extend(self.run.drain(..).rev());
        for b in &mut self.buckets {
            live.extend(b.items.drain(b.head..));
            b.head = 0;
            b.items.clear();
        }
        live.sort_by(|a, b| a.t.total_cmp(&b.t));
        if let Some(w) = estimate_width(&live) {
            self.width = w;
            self.inv_width = 1.0 / w;
        }
        if self.buckets.len() != n {
            self.buckets.resize_with(n, Bucket::default);
            self.mask = (n - 1) as u64;
        }
        self.grow_at = n * GROW_PER_BUCKET;
        self.ring_len = 0;
        self.cur_epoch = live.first().map_or(0, |e| self.epoch_of(e.t));
        for e in live {
            // ascending time order makes every re-insert an append
            self.push_entry(e);
        }
    }

    /// Pops the head of the bucket holding the ring's earliest entry
    /// and jumps the cursor to its year. `O(buckets)`; the escape hatch
    /// for long empty stretches of simulated time. No cross-bucket time
    /// tie exists (equal times share a bucket), so comparing bucket
    /// heads by time alone finds a unique minimum.
    fn pop_earliest(&mut self) -> (f64, K) {
        let idx = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .min_by(|(_, a), (_, b)| a.front_t.total_cmp(&b.front_t))
            .map(|(i, _)| i)
            .expect("pop_earliest on a non-empty ring");
        let b = &mut self.buckets[idx];
        let e = b.items[b.head];
        b.head += 1;
        if b.head == b.items.len() {
            b.head = 0;
            b.items.clear();
        } else {
            b.front_t = b.items[b.head].t;
        }
        self.cur_epoch = self.epoch_of(e.t);
        self.ring_len -= 1;
        (e.t, e.kind)
    }
}

/// Year index of time `t` under reciprocal width `inv_width`:
/// `t / width` truncated, clamping negative times to year 0 and
/// saturating non-finite/far-future times into the last year (`as`
/// saturates, so huge and `+inf` times land in `u64::MAX`).
/// Multiplication by a positive constant is monotone non-decreasing
/// under rounding, so a bucket sorted by time is also sorted by epoch
/// — the only property pops rely on.
#[inline]
fn epoch_for(inv_width: f64, t: f64) -> u64 {
    if t <= 0.0 {
        0
    } else {
        (t * inv_width) as u64
    }
}

/// Year width from the spacing of (up to 64 of) the earliest live
/// entries: twice their mean gap, so a year holds a couple of events.
/// `None` when the sample is too small or degenerate (all ties,
/// non-finite span) — the caller keeps its current width.
fn estimate_width<K>(sorted_live: &[CalEntry<K>]) -> Option<f64> {
    let mut first = f64::NAN;
    let mut last = f64::NAN;
    let mut n = 0usize;
    for e in sorted_live {
        if e.t.is_finite() {
            if n == 0 {
                first = e.t;
            }
            last = e.t;
            n += 1;
            if n == 64 {
                break;
            }
        }
    }
    if n < 2 {
        return None;
    }
    let span = last - first;
    if span > 0.0 && span.is_finite() {
        Some((2.0 * span / (n - 1) as f64).max(1e-12))
    } else {
        None
    }
}

impl<K: Copy> EventQueue<K> for CalendarQueue<K> {
    #[inline]
    fn push(&mut self, t: f64, kind: K) {
        debug_assert!(!t.is_nan(), "event time must not be NaN");
        let e = CalEntry { t, kind };
        if self.ring_len != 0 {
            if self.ring_len >= self.grow_at && self.buckets.len() < MAX_BUCKETS {
                self.rebuild(self.buckets.len() * 2);
            }
            self.push_entry(e);
            return;
        }
        self.push_run(e);
        if self.run.len() > SPILL {
            // spill into a ring sized as a growth would size it; it
            // estimates its year width from the run
            self.rebuild(SPILL / GROW_PER_BUCKET);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, K)> {
        if self.ring_len == 0 {
            return self.run.pop().map(|e| (e.t, e.kind));
        }
        let mut steps = 0u32;
        let inv_width = self.inv_width;
        let out = loop {
            if steps as usize > self.buckets.len() {
                // a full fruitless lap: jump straight to the earliest
                break self.pop_earliest();
            }
            let idx = (self.cur_epoch & self.mask) as usize;
            let b = &mut self.buckets[idx];
            if !b.is_empty() && epoch_for(inv_width, b.front_t) <= self.cur_epoch {
                let e = b.items[b.head];
                b.head += 1;
                if b.head == b.items.len() {
                    b.head = 0;
                    b.items.clear();
                } else {
                    b.front_t = b.items[b.head].t;
                }
                self.ring_len -= 1;
                break (e.t, e.kind);
            }
            self.cur_epoch = self.cur_epoch.saturating_add(1);
            steps += 1;
        };
        self.pops_tick += 1;
        self.steps_tick = self.steps_tick.saturating_add(steps);
        if self.ring_len < COLLAPSE {
            // few enough entries for the run again
            self.collapse();
        } else if self.pops_tick >= CALIBRATE_POPS {
            // cursor mostly stepping over empty buckets: years are too
            // narrow for the live event density — re-estimate the width
            if self.steps_tick > 4 * CALIBRATE_POPS {
                self.rebuild(self.buckets.len());
            }
            self.pops_tick = 0;
            self.steps_tick = 0;
        }
        Some(out)
    }

    fn len(&self) -> usize {
        self.run.len() + self.ring_len
    }
}

#[cfg(test)]
#[path = "../tests/support/heap_queue.rs"]
pub(crate) mod heap_queue;

#[cfg(test)]
mod tests {
    use super::heap_queue::BinaryHeapQueue;
    use super::*;

    /// Drives both implementations through the same operation sequence
    /// and asserts identical pop streams (bitwise on times).
    fn differential(ops: impl Iterator<Item = Option<f64>> + Clone) {
        let mut heap = BinaryHeapQueue::default();
        let mut cal = CalendarQueue::default();
        let mut tag = 0u32;
        for op in ops {
            match op {
                Some(t) => {
                    heap.push(t, tag);
                    cal.push(t, tag);
                    tag += 1;
                }
                None => {
                    let (a, b) = (heap.pop(), cal.pop());
                    match (a, b) {
                        (Some((ta, ka)), Some((tb, kb))) => {
                            assert_eq!(ta.to_bits(), tb.to_bits());
                            assert_eq!(ka, kb);
                        }
                        (None, None) => {}
                        _ => panic!("pop mismatch: heap {a:?} vs calendar {b:?}"),
                    }
                }
            }
            assert_eq!(heap.len(), cal.len());
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(
                a.map(|(t, k)| (t.to_bits(), k)),
                b.map(|(t, k)| (t.to_bits(), k))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q: CalendarQueue<&str> = CalendarQueue::default();
        q.push(5.0e-3, "c");
        q.push(1.0e-3, "a");
        q.push(1.0e-3, "b");
        q.push(0.0, "zero");
        assert_eq!(q.pop(), Some((0.0, "zero")));
        assert_eq!(q.pop(), Some((1.0e-3, "a")));
        assert_eq!(q.pop(), Some((1.0e-3, "b")));
        assert_eq!(q.pop(), Some((5.0e-3, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// Pushes `times` in order, drains the queue, and checks the pops
    /// against a stable sort by time (ties in push order).
    fn drains_sorted(times: &[f64]) {
        let mut q = CalendarQueue::default();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut want: Vec<(f64, usize)> = times.iter().copied().zip(0..).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<(u64, usize)> = want.iter().map(|&(t, i)| (t.to_bits(), i)).collect();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, i)| (t.to_bits(), i))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn infinity_sorts_last_and_negative_zero_first() {
        // total_cmp: -0.0 < 0.0 < 3.0 < +inf; in the run, and in a ring
        // that 64 more entries spill it into
        let edge = [f64::INFINITY, 0.0, -0.0, 3.0];
        drains_sorted(&edge);
        let spilled: Vec<f64> = edge.into_iter().chain((0..64).map(f64::from)).collect();
        drains_sorted(&spilled);
    }

    #[test]
    fn long_empty_gaps_jump_instead_of_stepping_forever() {
        // gap of ~10^9 years at the initial width, in the run, and in a
        // ring that still holds 32 entries on the far side of the gap
        drains_sorted(&[0.0, 1.0e5]);
        let spilled: Vec<f64> = (0..64)
            .map(|i| f64::from(i) * 1e-6 + if i % 2 == 0 { 0.0 } else { 1.0e5 })
            .collect();
        drains_sorted(&spilled);
    }

    #[test]
    fn dense_same_time_burst_pops_in_push_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        for i in 0..10_000 {
            q.push(1.0, i);
        }
        for i in 0..10_000 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn differential_on_mixed_streams() {
        // deterministic pseudo-random push/pop interleavings with ties,
        // bursts, +inf, and pushes behind the already-advanced cursor
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let ops: Vec<Option<f64>> = (0..20_000)
            .map(|_| {
                let r = step();
                if r % 3 == 0 {
                    None
                } else {
                    Some(match r % 11 {
                        0 => f64::INFINITY,
                        1 => 0.0,
                        2 => 1.0e-3,                  // a recurring tie
                        3 => (r >> 8) as f64 * 1e300, // far future
                        _ => ((r >> 8) % 100_000) as f64 * 1e-6,
                    })
                }
            })
            .collect();
        differential(ops.iter().copied());
    }

    #[test]
    fn differential_on_monotone_des_like_stream() {
        // emulate engine behavior: time ratchets forward from the last
        // pop, several near-future pushes per pop
        let mut heap = BinaryHeapQueue::default();
        let mut cal = CalendarQueue::default();
        let mut x = 42u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tag = 0u64;
        heap.push(0.0, tag);
        cal.push(0.0, tag);
        tag += 1;
        for _ in 0..50_000 {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(
                a.map(|(t, k)| (t.to_bits(), k)),
                b.map(|(t, k)| (t.to_bits(), k))
            );
            let Some((now, _)) = a else { break };
            for _ in 0..(step() % 3) {
                let dt = (step() % 1_000) as f64 * 1e-6;
                heap.push(now + dt, tag);
                cal.push(now + dt, tag);
                tag += 1;
            }
        }
    }
}
