//! The sliding-window deduplicator (ZMap's multiport-era design).
//!
//! Keeps the last `capacity` *distinct* response keys in a FIFO ring. A
//! repeat inside the window is suppressed; a repeat that arrives after
//! the key has been evicted passes through — that controlled imprecision
//! is the memory/accuracy trade-off Figure 5 sweeps. ZMap's default
//! window is 10^6 entries, which empirically removes nearly all
//! duplicates at 1 Gbps scan rates.
//!
//! The ring is the only store of the keys; membership is an index of
//! 4-byte ring positions (`table.rs`), 1⅓–2⅔ slots a key. Both grow with
//! the keys held, so an idle window costs under a kilobyte whatever its
//! capacity; full, the default window is 8 MB of ring and 8 MB of index.
//! [`FifoMap`] is the same shape with a value beside each key: the
//! engine's RTT stamps live in one, at 16 B of ring and ≤ 8 of index each.

use crate::table::{KeyTable, Keyed};
use crate::Deduplicator;

/// The largest capacity: a ring position is a `u32`, and `u32::MAX`
/// marks a free index slot.
pub const MAX_CAPACITY: usize = u32::MAX as usize - 1;

/// The last `capacity` entries pushed, in a ring, and an index of the
/// keys held: what [`SlidingWindow`] and [`FifoMap`] share.
struct Fifo<E> {
    index: KeyTable,
    /// Grows by `push` to `capacity`, then overwrites the oldest entry,
    /// at `head`. A removed key's entry stays until overwritten.
    ring: Vec<E>,
    head: usize,
    capacity: usize,
}

impl<E: Keyed> Fifo<E> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity <= MAX_CAPACITY,
            "capacity must be at most {MAX_CAPACITY}"
        );
        Fifo {
            index: KeyTable::new(),
            ring: Vec::new(),
            head: 0,
            capacity,
        }
    }

    /// Appends `entry` unless its key is held; `true` if appended. Once
    /// the ring is full this overwrites the oldest entry and removes that
    /// entry's key from the index, wherever the index holds it.
    fn try_push(&mut self, entry: E) -> bool {
        if self.index.get(entry.key(), &self.ring).is_some() {
            return false;
        }
        let pos = if self.ring.len() < self.capacity {
            self.ring.push(entry);
            self.ring.len() - 1
        } else {
            let pos = self.head;
            self.index.remove(self.ring[pos].key(), &self.ring);
            self.ring[pos] = entry;
            self.head = if pos + 1 < self.capacity { pos + 1 } else { 0 };
            pos
        };
        self.index.insert(entry.key(), pos, &self.ring);
        true
    }

    /// Bytes allocated: the ring's capacity in entries plus the index.
    fn memory_bytes(&self) -> u64 {
        (self.ring.capacity() * std::mem::size_of::<E>() + self.index.memory_bytes()) as u64
    }
}

/// FIFO sliding-window deduplicator.
pub struct SlidingWindow {
    fifo: Fifo<u64>,
    suppressed: u64,
    observed: u64,
}

impl SlidingWindow {
    /// A window remembering the last `capacity` distinct keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero window would suppress nothing
    /// and the ring logic assumes at least one slot), or if it exceeds
    /// [`MAX_CAPACITY`] (4 294 967 294): positions are 4-byte slots.
    pub fn new(capacity: usize) -> Self {
        SlidingWindow {
            fifo: Fifo::new(capacity),
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
        let fresh = self.fifo.try_push(key);
        self.suppressed += u64::from(!fresh);
        fresh
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.fifo.ring.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.fifo.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.fifo.capacity
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

    /// Bytes allocated: 8 per ring entry of capacity, 4 per index slot.
    fn memory_bytes(&self) -> u64 {
        self.fifo.memory_bytes()
    }
}

/// A `key → u64` map that remembers its last `capacity` insertions and
/// forgets the oldest first, so entries nobody takes age out instead of
/// accumulating. The ring holds `(key, value)` per insertion: a taken key
/// keeps its place until it ages out, so it counts insertions, not
/// entries held.
pub struct FifoMap(Fifo<(u64, u64)>);

impl FifoMap {
    /// A map remembering the last `capacity` insertions.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `capacity` exceeds [`MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        FifoMap(Fifo::new(capacity))
    }

    /// Inserts `key → val` unless `key` is held (the first value wins);
    /// returns `true` if it was inserted. The insertion `capacity` back
    /// is forgotten, and with it its key's value, even one inserted
    /// again after a `take`.
    pub fn try_insert(&mut self, key: u64, val: u64) -> bool {
        self.0.try_push((key, val))
    }

    /// Removes `key` and returns its value; `None` if it was never
    /// inserted, was already taken, or has aged out.
    pub fn take(&mut self, key: u64) -> Option<u64> {
        let fifo = &mut self.0;
        fifo.index
            .remove(key, &fifo.ring)
            .map(|pos| fifo.ring[pos].1)
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.0.ring.is_empty()
    }

    /// Bytes allocated: 16 per ring entry of capacity, 4 per index slot
    /// (at most 2⅔ slots per entry held, just past a doubling).
    pub fn memory_bytes(&self) -> u64 {
        self.0.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

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
        assert!(
            w.check_and_insert(1),
            "1 was evicted despite recent duplicate"
        );
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
    #[should_panic(expected = "capacity must be at most 4294967294")]
    fn a_capacity_positions_cannot_index_panics() {
        FifoMap::new(MAX_CAPACITY + 1);
    }

    #[test]
    fn set_and_ring_stay_consistent() {
        let mut w = SlidingWindow::new(500);
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            w.check_and_insert(state >> 40); // small key space → duplicates
            assert_eq!(w.fifo.index.len(), w.len());
            assert!(w.len() <= 500);
        }
        assert!(
            w.suppressed() > 0,
            "small key space must produce duplicates"
        );
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
        assert!(
            !w.check_and_insert(42),
            "within window distance — must suppress"
        );
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
        assert_eq!(
            m.0.ring.len(),
            2,
            "both insertions are remembered until they age out"
        );
    }

    #[test]
    fn fifo_map_forgets_oldest_first_and_stays_bounded() {
        let cap = 1000;
        let mut m = FifoMap::new(cap);
        for k in 0..10 * cap as u64 {
            assert!(m.try_insert(k.wrapping_mul(0x2545_F491_4F6C_DD1D), k));
            assert!(m.0.ring.len() <= cap);
            assert!(
                m.memory_bytes() <= 51 * cap as u64 + 1024,
                "{} bytes at {k}",
                m.memory_bytes()
            );
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

    #[test]
    fn fifo_map_evicting_a_stale_copy_takes_the_reinserted_value() {
        // 1 is inserted, taken and inserted again, so the ring holds two
        // copies of it. When the older copy ages out, the index drops 1,
        // and the newer value goes with it.
        let mut m = FifoMap::new(3);
        m.try_insert(1, 10);
        assert_eq!(m.take(1), Some(10));
        m.try_insert(1, 40);
        m.try_insert(2, 20);
        m.try_insert(3, 30); // evicts the older copy of 1
        assert_eq!(m.take(1), None);
        assert_eq!((m.take(2), m.take(3)), (Some(20), Some(30)));
    }

    #[test]
    fn fifo_map_holds_a_full_rtt_horizon_in_24_bytes_per_insertion() {
        // The engine's RTT tracker: 2^16 stamps, none of them answered.
        let horizon = 1usize << 16;
        let mut m = FifoMap::new(horizon);
        for k in 0..2 * horizon as u64 {
            m.try_insert(k.wrapping_mul(0x2545_F491_4F6C_DD1D), k);
        }
        let per = m.memory_bytes() as f64 / horizon as f64;
        assert!(per <= 26.0, "{per} bytes per insertion");
    }

    #[test]
    fn a_window_holds_a_key_in_under_24_bytes() {
        let mut w = SlidingWindow::with_default_capacity();
        for i in 0..100_000u64 {
            w.check_and_insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16);
        }
        assert_eq!(w.len(), 100_000);
        let per = w.memory_bytes() as f64 / 100_000.0;
        assert!(per <= 24.0, "{per} bytes per key");
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

    /// [`FifoMap`]'s rule written out: the newest `capacity` insertions
    /// in a ring, and an entry's eviction forgets its key, whether that
    /// key's value came from this insertion or a later one.
    struct MapModel {
        ring: VecDeque<u64>,
        held: std::collections::HashMap<u64, u64>,
        capacity: usize,
    }

    impl MapModel {
        fn try_insert(&mut self, key: u64, val: u64) -> bool {
            if self.held.contains_key(&key) {
                return false;
            }
            if self.ring.len() == self.capacity {
                let oldest = self.ring.pop_front().unwrap();
                self.held.remove(&oldest);
            }
            self.ring.push_back(key);
            self.held.insert(key, val);
            true
        }
    }

    proptest! {
        /// Inserts and takes over the window's key families, with few
        /// enough keys per family that a stream takes keys, inserts them
        /// again while an older copy is still in the ring, and evicts
        /// both live and stale copies.
        #[test]
        fn fifo_map_agrees_with_the_reference_model(
            capacity in 1usize..=64,
            percent in 1u64..=200,
            draws in prop::collection::vec((0u8..4, any::<bool>(), any::<u64>()), 1..3000),
        ) {
            let per_family = (capacity as u64 * percent / 100).max(1);
            let mut map = FifoMap::new(capacity);
            let mut m = MapModel { ring: VecDeque::new(), held: Default::default(), capacity };
            for (step, (family, take, r)) in draws.into_iter().enumerate() {
                let i = r % per_family;
                let key = match family {
                    0 => i,
                    1 => u64::MAX - i,
                    2 => (0x0B16_0000u64 << 16) + i,
                    _ => i.wrapping_mul(0x2545_F491_4F6C_DD1D),
                };
                if take {
                    prop_assert_eq!(map.take(key), m.held.remove(&key), "take {}", key);
                } else {
                    let val = step as u64;
                    prop_assert_eq!(map.try_insert(key, val), m.try_insert(key, val), "insert {}", key);
                }
                prop_assert_eq!(map.is_empty(), m.ring.is_empty());
            }
            for (&k, &v) in &m.held {
                prop_assert_eq!(map.take(k), Some(v), "final {}", k);
            }
        }
    }
}
