//! The binary-heap pending-event set: the bitwise reference that the
//! engines' `CalendarQueue` is tested against.
//!
//! A `BinaryHeap<Reverse<_>>` with an explicit insertion sequence, the
//! pending-event set the engines started from. It is test code only:
//! the library's unit tests include this file as
//! `respect_tpu::event_queue::heap_queue` (`#[cfg(test)]`), and
//! `tests/event_queue_props.rs` includes it as a module of its own. The
//! including module must have `EventQueue` in scope.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use super::EventQueue;

/// One scheduled event: the explicit insertion sequence breaks time
/// ties, because a binary heap is not insertion-stable.
#[derive(Debug, Clone, Copy)]
struct HeapEntry<K> {
    t: f64,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for HeapEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for HeapEntry<K> {}

impl<K> PartialOrd for HeapEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for HeapEntry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// `EventQueue` over `std::collections::BinaryHeap`: `(time, sequence)`
/// order with `f64::total_cmp` on the time, by construction.
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<K> {
    heap: BinaryHeap<Reverse<HeapEntry<K>>>,
    seq: u64,
}

impl<K> Default for BinaryHeapQueue<K> {
    fn default() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> for BinaryHeapQueue<K> {
    fn push(&mut self, t: f64, kind: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { t, seq, kind }));
    }

    fn pop(&mut self) -> Option<(f64, K)> {
        self.heap.pop().map(|Reverse(e)| (e.t, e.kind))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}
