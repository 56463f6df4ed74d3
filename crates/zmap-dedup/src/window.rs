//! The sliding-window deduplicator (ZMap's multiport-era design).
//!
//! Keeps the last `capacity` *distinct* response keys in a FIFO ring with
//! an open-addressed table (`table.rs`) for membership. A repeat inside
//! the window is suppressed; a repeat that arrives after the key has been
//! evicted passes through — that controlled imprecision is the
//! memory/accuracy trade-off Figure 5 sweeps. ZMap's default window is
//! 10^6 entries, which empirically removes nearly all duplicates at
//! 1 Gbps scan rates.
//!
//! Ring and table both start small and grow with the keys held, so an
//! idle window costs under a kilobyte whatever its capacity; full, the
//! default window is 8 MB of ring and 16 MB of table.
//!
//! [`FifoMap`] is the same ring-plus-table shape with a value per key:
//! the engine's RTT stamps live in one.

use crate::table::KeyTable;
use crate::Deduplicator;
use std::collections::VecDeque;

/// FIFO sliding-window deduplicator.
pub struct SlidingWindow {
    set: KeyTable<()>,
    ring: VecDeque<u64>,
    capacity: usize,
    suppressed: u64,
    observed: u64,
}

impl SlidingWindow {
    /// A window remembering the last `capacity` distinct keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero window would suppress nothing
    /// and the ring logic assumes at least one slot).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            set: KeyTable::new(),
            ring: VecDeque::new(),
            capacity,
            suppressed: 0,
            observed: 0,
        }
    }

    /// ZMap's default window of 10^6 entries.
    pub fn with_default_capacity() -> Self {
        Self::new(1_000_000)
    }

    /// Records `key`; returns `true` if fresh (not currently in the
    /// window), `false` if suppressed as a duplicate.
    pub fn check_and_insert(&mut self, key: u64) -> bool {
        self.observed += 1;
        if self.set.contains(key) {
            self.suppressed += 1;
            return false;
        }
        if self.ring.len() == self.capacity {
            // At capacity the ring is non-empty, so this always evicts;
            // written as an if-let so a live scan can never panic here.
            if let Some(oldest) = self.ring.pop_front() {
                self.set.remove(oldest);
            }
        }
        self.set.try_insert(key, ());
        self.ring.push_back(key);
        true
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total keys observed (fresh + suppressed).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Duplicates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

impl Deduplicator for SlidingWindow {
    fn observe(&mut self, key: u64) -> bool {
        self.check_and_insert(key)
    }

    /// Bytes in use: one `u64` per remembered key in the ring plus one
    /// per table slot.
    fn memory_bytes(&self) -> u64 {
        (self.ring.len() * 8 + self.set.memory_bytes()) as u64
    }
}

/// A `key → u64` map that remembers its last `capacity` insertions and
/// forgets the oldest first, so entries nobody takes age out instead of
/// accumulating. Grows from a new table's 64 slots with the entries held.
pub struct FifoMap {
    map: KeyTable<u64>,
    /// Inserted keys, oldest first. A taken key keeps its place until it
    /// ages out, so the ring counts insertions, not entries held.
    ring: VecDeque<u64>,
    capacity: usize,
}

impl FifoMap {
    /// A map remembering the last `capacity` insertions.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "map capacity must be positive");
        FifoMap {
            map: KeyTable::new(),
            ring: VecDeque::new(),
            capacity,
        }
    }

    /// Inserts `key → val` unless `key` is held (the first value wins);
    /// returns `true` if it was inserted. The insertion `capacity` back
    /// is forgotten.
    pub fn try_insert(&mut self, key: u64, val: u64) -> bool {
        if self.map.contains(key) {
            return false;
        }
        if self.ring.len() == self.capacity {
            if let Some(oldest) = self.ring.pop_front() {
                self.map.remove(oldest);
            }
        }
        self.map.try_insert(key, val);
        self.ring.push_back(key);
        true
    }

    /// Removes `key` and returns its value; `None` if it was never
    /// inserted, was already taken, or has aged out.
    pub fn take(&mut self, key: u64) -> Option<u64> {
        self.map.remove(key)
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Bytes in use: one `u64` per remembered insertion plus a key and a
    /// value per table slot. Bounded by the capacity: a table just past
    /// a doubling is 3/8 full, so under 51 bytes per insertion (8 of
    /// ring, 2⅔ slots of 16) on top of an empty table's kilobyte.
    pub fn memory_bytes(&self) -> u64 {
        (self.ring.len() * 8 + self.map.memory_bytes()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppresses_duplicates_within_window() {
        let mut w = SlidingWindow::new(100);
        assert!(w.check_and_insert(1));
        assert!(!w.check_and_insert(1));
        assert!(!w.check_and_insert(1));
        assert_eq!(w.suppressed(), 2);
        assert_eq!(w.observed(), 3);
    }

    #[test]
    fn passes_duplicates_after_eviction() {
        let mut w = SlidingWindow::new(3);
        assert!(w.check_and_insert(1));
        assert!(w.check_and_insert(2));
        assert!(w.check_and_insert(3));
        assert!(w.check_and_insert(4)); // evicts 1
        assert!(w.check_and_insert(1), "1 must pass after eviction");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn duplicate_does_not_refresh_position() {
        // FIFO, not LRU: re-seeing key 1 must not move it to the back
        // (matches ZMap's ring implementation).
        let mut w = SlidingWindow::new(3);
        w.check_and_insert(1);
        w.check_and_insert(2);
        w.check_and_insert(3);
        assert!(!w.check_and_insert(1)); // suppressed, not refreshed
        w.check_and_insert(4); // evicts 1 (still oldest)
        assert!(w.check_and_insert(1), "1 was evicted despite recent duplicate");
    }

    #[test]
    fn capacity_one() {
        let mut w = SlidingWindow::new(1);
        assert!(w.check_and_insert(7));
        assert!(!w.check_and_insert(7));
        assert!(w.check_and_insert(8));
        assert!(w.check_and_insert(7));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn set_and_ring_stay_consistent() {
        let mut w = SlidingWindow::new(500);
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            w.check_and_insert(state >> 40); // small key space → duplicates
            assert_eq!(w.set.len(), w.ring.len());
            assert!(w.ring.len() <= 500);
        }
        assert!(w.suppressed() > 0, "small key space must produce duplicates");
    }

    #[test]
    fn exactness_within_window_distance() {
        // Property from the paper: a duplicate arriving within
        // window-size distinct responses of the original is ALWAYS caught.
        let mut w = SlidingWindow::new(1000);
        w.check_and_insert(42);
        for i in 0..999u64 {
            w.check_and_insert(1_000_000 + i);
        }
        assert!(!w.check_and_insert(42), "within window distance — must suppress");
        // One more distinct key evicts 42.
        w.check_and_insert(2_000_000);
        assert!(w.check_and_insert(42), "beyond window distance — passes");
    }

    #[test]
    fn memory_scales_with_occupancy_not_keyspace() {
        let idle = SlidingWindow::with_default_capacity().memory_bytes();
        assert!(idle < 4096, "an empty window holds {idle} bytes");
        let mut w = SlidingWindow::new(10_000);
        for i in 0..10_000u64 {
            // 48-bit-spread keys: the case no bitmap can hold.
            w.check_and_insert(i.wrapping_mul(0x9E3779B97F4A7C15) >> 16);
        }
        let bytes = w.memory_bytes();
        // A flat 48-bit bitmap would be 35 TB; we must be under ~10 MB.
        assert!(bytes < 10 << 20, "memory {bytes} bytes");
    }

    #[test]
    fn fifo_map_first_value_wins_and_takes_once() {
        let mut m = FifoMap::new(8);
        assert!(m.is_empty());
        assert!(m.try_insert(42, 1_000));
        assert!(!m.try_insert(42, 2_000));
        assert_eq!(m.take(42), Some(1_000));
        assert_eq!(m.take(42), None);
        assert_eq!(m.take(7), None);
        // Taken, then inserted again: a new entry with the new value.
        assert!(m.try_insert(42, 3_000));
        assert_eq!(m.take(42), Some(3_000));
        assert_eq!(m.ring.len(), 2, "both insertions are remembered until they age out");
    }

    #[test]
    fn fifo_map_forgets_oldest_first_and_stays_bounded() {
        let cap = 1000;
        let mut m = FifoMap::new(cap);
        for k in 0..10 * cap as u64 {
            assert!(m.try_insert(k.wrapping_mul(0x2545_F491_4F6C_DD1D), k));
            assert!(m.ring.len() <= cap);
            assert!(m.memory_bytes() <= 51 * cap as u64 + 1024, "{} bytes at {k}", m.memory_bytes());
        }
        let key = |k: u64| k.wrapping_mul(0x2545_F491_4F6C_DD1D);
        assert_eq!(m.take(key(8_999)), None, "one past the horizon");
        assert_eq!(m.take(key(9_000)), Some(9_000), "the oldest remembered");
        assert_eq!(m.take(key(9_999)), Some(9_999));
    }

    #[test]
    fn fifo_map_stale_ring_entry_does_not_evict_a_reinserted_key_early() {
        // 1 is inserted, taken, and inserted again just as its first
        // (stale) ring entry reaches the front: evicting that entry must
        // not take the new value with it.
        let mut m = FifoMap::new(3);
        m.try_insert(1, 10);
        m.try_insert(2, 20);
        m.try_insert(3, 30);
        assert_eq!(m.take(1), Some(10));
        assert!(m.try_insert(1, 40)); // evicts the stale entry for 1
        assert_eq!(m.take(1), Some(40));
        assert_eq!(m.take(2), Some(20));
    }

    /// The FIFO rule written out: what every verdict is checked against.
    struct Model {
        ring: VecDeque<u64>,
        held: std::collections::BTreeSet<u64>,
        capacity: usize,
        observed: u64,
        suppressed: u64,
    }

    impl Model {
        fn check_and_insert(&mut self, key: u64) -> bool {
            self.observed += 1;
            if self.held.contains(&key) {
                self.suppressed += 1;
                return false;
            }
            if self.ring.len() == self.capacity {
                let oldest = self.ring.pop_front().unwrap();
                self.held.remove(&oldest);
            }
            self.ring.push_back(key);
            self.held.insert(key);
            true
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Four key families sized against the capacity — small integers
        /// from 0 and a run below `u64::MAX` (both consecutive, as v6's
        /// compact indices are), a run inside the 48-bit v4 space, and a
        /// scattered set — so a stream holds hits, evictions, re-entries
        /// and, at capacities that fill the table to 3/4, long runs.
        #[test]
        fn agrees_with_the_reference_model(
            capacity in (0usize..=64).prop_map(|c| if c == 0 { 1000 } else { c }),
            percent in 1u64..=100,
            draws in prop::collection::vec((0u8..4, any::<u64>()), 1..3000),
        ) {
            let per_family = (capacity as u64 * percent / 100).max(1);
            let mut w = SlidingWindow::new(capacity);
            let mut m = Model {
                ring: VecDeque::new(),
                held: Default::default(),
                capacity,
                observed: 0,
                suppressed: 0,
            };
            for (family, r) in draws {
                let i = r % per_family;
                let key = match family {
                    0 => i,
                    1 => u64::MAX - i,
                    2 => (0x0B16_0000u64 << 16) + i,
                    _ => i.wrapping_mul(0x2545_F491_4F6C_DD1D),
                };
                prop_assert_eq!(w.check_and_insert(key), m.check_and_insert(key), "key {}", key);
                prop_assert_eq!(w.len(), m.ring.len());
                prop_assert_eq!(w.observed(), m.observed);
                prop_assert_eq!(w.suppressed(), m.suppressed);
            }
        }
    }
}
