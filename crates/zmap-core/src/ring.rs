//! A bounded single-producer/single-consumer ring, the engine-side
//! analogue of a netmap TX ring. The engine no longer uses it: the
//! threaded driver's lanes are one thread each and hand nothing between
//! threads. It stays, with its tests and its model check, only because
//! the benchmark's `core.ring_handoff_ns` still measures it; it goes
//! with that metric.
//!
//! Shape: monotonically increasing head/tail sequence counters over a
//! fixed slot array. The producer owns `tail`, the consumer owns `head`;
//! each side reads the other's counter with `Acquire` and publishes its
//! own with `Release`, so a popped value always sees the fully written
//! slot. The crate forbids `unsafe`, so slot transfer goes through a
//! per-slot `Mutex<Option<T>>` — never contended in correct SPSC use
//! (the sequence counters keep both sides off the same slot), it costs
//! one uncontended lock per transfer and keeps every interleaving
//! memory-safe by construction.
//!
//! Close semantics: either side may [`close`](SpscRing::close) the ring.
//! A closed ring refuses new pushes immediately (the producer learns the
//! consumer is gone) but still drains queued values (the consumer never
//! loses frames that were already rendered). Closing from whichever side
//! exits first means a blocked peer always unblocks promptly — no value
//! is silently dropped, and no thread can deadlock on a dead partner.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

// Test builds swap the sequence counters for zmap-sched shims so the
// model checker (src/model_check.rs) can explore every interleaving of
// the real ring code; release builds use the std atomics unchanged.
#[cfg(not(test))]
use std::sync::atomic::{AtomicBool, AtomicU64};
#[cfg(test)]
use zmap_sched::{ShimAtomicBool as AtomicBool, ShimAtomicU64 as AtomicU64};

/// Bounded SPSC queue. See the module docs for the concurrency contract:
/// one pushing thread, one popping thread, either may close.
pub struct SpscRing<T> {
    slots: Vec<Mutex<Option<T>>>,
    /// Sequence number of the next value to pop (consumer-owned).
    // [atomics] head: Relaxed load by its owner (the consumer — nobody
    // else writes it), Acquire load by the producer so a freed slot is
    // seen empty, Release store to publish the take.
    head: AtomicU64,
    /// Sequence number of the next value to push (producer-owned).
    // [atomics] tail: Relaxed load by its owner (the producer), Acquire
    // load by the consumer so the slot's contents are visible before the
    // counter that announces them, Release store to publish the write.
    tail: AtomicU64,
    // [atomics] closed: Release store (either side), Acquire load — the
    // closer's final pushes must be visible to a consumer that observes
    // the flag and drains.
    closed: AtomicBool,
}

/// Error returned by a push the ring cannot accept, carrying the value
/// back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// Every slot is occupied; retry after the consumer drains.
    Full(T),
    /// The ring was closed; the consumer will never drain it.
    Closed(T),
}

impl<T> SpscRing<T> {
    /// A ring with `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        SpscRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Values currently queued (racy snapshot, exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// True when nothing is queued (racy snapshot, exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the ring closed: pushes fail from now on, pops drain what
    /// remains and then return `None`. Idempotent, callable by either
    /// side.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Attempts to enqueue without blocking. Fails with the value when
    /// the ring is full or closed.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(value));
        }
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail - head >= self.slots.len() as u64 {
            return Err(PushError::Full(value));
        }
        let idx = (tail % self.slots.len() as u64) as usize;
        let prev = self.slots[idx]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .replace(value);
        debug_assert!(prev.is_none(), "producer overwrote an undrained slot");
        self.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Enqueues, spinning (with yields) while the ring is full. Fails
    /// with the value only when the ring closes while waiting.
    pub fn push(&self, mut value: T) -> Result<(), T> {
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(v)) => return Err(v),
                Err(PushError::Full(v)) => {
                    value = v;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Attempts to dequeue without blocking. `None` means currently
    /// empty — check [`is_closed`](Self::is_closed) to distinguish
    /// "drained forever" from "try again".
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let idx = (head % self.slots.len() as u64) as usize;
        let value = self.slots[idx]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        debug_assert!(value.is_some(), "consumer drained an unpublished slot");
        self.head.store(head + 1, Ordering::Release);
        value
    }

    /// Dequeues, spinning (with yields) while the ring is empty. Returns
    /// `None` only when the ring is closed *and* fully drained — queued
    /// values survive a close.
    pub fn pop(&self) -> Option<T> {
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            // Order matters: observe the close flag *before* the final
            // emptiness re-check, else a push-then-close racing this poll
            // could slip a value in after we looked and before we gave up.
            if self.is_closed() {
                return self.try_pop();
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fills_drains_and_reports_boundaries() {
        let ring = SpscRing::with_capacity(2);
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 2);
        ring.try_push(1u32).unwrap();
        ring.try_push(2).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.try_push(3), Err(PushError::Full(3)));
        assert_eq!(ring.try_pop(), Some(1));
        ring.try_push(3).unwrap();
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn wraparound_preserves_fifo_order_across_many_laps() {
        // Capacity 3 over 1000 values: every slot index is reused
        // hundreds of times and the head/tail sequences lap the slot
        // array; order and content must still be exact.
        let ring = SpscRing::with_capacity(3);
        let mut next_out = 0u32;
        for v in 0..1000u32 {
            ring.try_push(v).unwrap();
            if v % 3 == 2 {
                while let Some(got) = ring.try_pop() {
                    assert_eq!(got, next_out);
                    next_out += 1;
                }
            }
        }
        while let Some(got) = ring.try_pop() {
            assert_eq!(got, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 1000, "no loss, no duplication");
    }

    #[test]
    fn close_refuses_pushes_but_drains_queued_values() {
        let ring = SpscRing::with_capacity(4);
        ring.try_push(10u8).unwrap();
        ring.try_push(11).unwrap();
        ring.close();
        assert_eq!(ring.try_push(12), Err(PushError::Closed(12)));
        assert_eq!(ring.push(13), Err(13));
        // Queued frames were already rendered; a close must not lose them.
        assert_eq!(ring.pop(), Some(10));
        assert_eq!(ring.pop(), Some(11));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn blocking_pop_unblocks_on_close() {
        let ring = SpscRing::<u8>::with_capacity(1);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| ring.pop());
            ring.close();
            assert_eq!(consumer.join().unwrap(), None);
        });
    }

    #[test]
    fn blocking_push_unblocks_on_close() {
        let ring = SpscRing::with_capacity(1);
        ring.try_push(1u8).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| ring.push(2u8));
            ring.close();
            assert_eq!(producer.join().unwrap(), Err(2));
        });
        assert_eq!(ring.pop(), Some(1), "the queued value still drains");
    }

    #[test]
    fn two_thread_stress_no_loss_duplication_or_reordering() {
        // A full producer/consumer pair across a deliberately tiny ring:
        // heavy wraparound and constant full/empty boundary hits. The
        // consumer must see exactly 0..N in order — any lost, duplicated,
        // or reordered transfer breaks the sequence check.
        const N: u64 = 200_000;
        let ring = SpscRing::with_capacity(4);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..N {
                    ring.push(v).expect("consumer lives until drained");
                }
                ring.close();
            });
            let mut expected = 0u64;
            while let Some(v) = ring.pop() {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            }
            assert_eq!(expected, N, "every pushed value must arrive once");
        });
    }

    #[test]
    fn stress_with_consumer_side_backpressure() {
        // The consumer stalls periodically (simulating a slow NIC), so
        // the producer keeps slamming into the full boundary; the
        // recycle-direction pattern used by the TX pipeline.
        const N: u64 = 50_000;
        let ring = SpscRing::with_capacity(2);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..N {
                    ring.push(v).unwrap();
                }
                ring.close();
            });
            let mut expected = 0u64;
            while let Some(v) = ring.pop() {
                assert_eq!(v, expected);
                expected += 1;
                if expected.is_multiple_of(1024) {
                    std::thread::yield_now();
                }
                popped.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(expected, N);
        });
        assert_eq!(popped.load(Ordering::Relaxed) as u64, N);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_ring_panics() {
        SpscRing::<u8>::with_capacity(0);
    }
}
