//! The crate's one hash table: an open-addressed index of ring positions.
//!
//! A FIFO structure (`window.rs`) keeps its entries in one ring; a slot
//! here is a `u32` position into that ring, or [`FREE`], and a probe
//! compares the key of the ring entry the slot points at. So each key is
//! held once, a slot is 4 bytes, and every `u64` is a legal key.
//!
//! A multiplicative (Fibonacci) hash, linear probing, and backward-shift
//! deletion — a removal closes its own hole, so there are no tombstones
//! and a window that inserts and evicts forever never degrades. A lookup
//! reads a slot plus a ring entry per occupied slot probed; nothing is
//! allocated per key. The table starts at [`MIN_SLOTS`] and doubles past
//! three quarters full, so its size follows the keys held, never the
//! configured window.
//!
//! The hash is not keyed: the keys are plan indices of targets this scan
//! probed (and, for the window, whose answers carried a valid cookie), so
//! a remote party cannot choose them.

/// Free-slot marker: no ring holds this many entries.
const FREE: u32 = u32::MAX;
/// Slots of a new table (256 bytes).
const MIN_SLOTS: usize = 64;
/// 2^64 / φ: consecutive integers (v6's compact indices) land far apart.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A ring entry; the index hashes and compares its key.
pub(crate) trait Keyed: Copy {
    fn key(self) -> u64;
}

impl Keyed for u64 {
    fn key(self) -> u64 {
        self
    }
}

impl Keyed for (u64, u64) {
    fn key(self) -> u64 {
        self.0
    }
}

pub(crate) struct KeyTable {
    /// Power-of-two many slots, each a ring position or [`FREE`]. The
    /// ring entry at an occupied slot's position holds the slot's key.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl KeyTable {
    pub(crate) fn new() -> Self {
        KeyTable {
            slots: vec![FREE; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes allocated: a position per slot.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.slots.len() * 4
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot pointing at `key`'s entry in `ring`, or the free slot its
    /// probe ends on.
    #[inline]
    fn probe<E: Keyed>(&self, key: u64, ring: &[E]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != FREE && ring[self.slots[i] as usize].key() != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// The ring position of `key`, if held.
    #[inline]
    pub(crate) fn get<E: Keyed>(&self, key: u64, ring: &[E]) -> Option<usize> {
        let pos = self.slots[self.probe(key, ring)];
        (pos != FREE).then_some(pos as usize)
    }

    /// Indexes the entry at `ring[pos]` under `key`, which must not be
    /// held (callers [`get`](Self::get) first).
    pub(crate) fn insert<E: Keyed>(&mut self, key: u64, pos: usize, ring: &[E]) {
        // Load stays at or under 3/4, so a probe always meets a free slot.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(ring);
        }
        let i = self.probe(key, ring);
        self.slots[i] = pos as u32;
        self.len += 1;
    }

    /// Removes `key`; returns the ring position it was held at.
    pub(crate) fn remove<E: Keyed>(&mut self, key: u64, ring: &[E]) -> Option<usize> {
        let mut hole = self.probe(key, ring);
        let pos = self.slots[hole];
        if pos == FREE {
            return None;
        }
        // Backward shift: walk the rest of the run and pull back every
        // entry whose home is at or before the hole, so no probe that
        // used to pass through this slot now stops short at it.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let p = self.slots[j];
            if p == FREE {
                break;
            }
            let from_home = j.wrapping_sub(self.home(ring[p as usize].key())) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots[hole] = p;
                hole = j;
            }
        }
        self.slots[hole] = FREE;
        self.len -= 1;
        Some(pos as usize)
    }

    /// Doubles the table: once per doubling of the keys held, so the
    /// cost is amortised over the inserts that filled it.
    #[cold]
    fn grow<E: Keyed>(&mut self, ring: &[E]) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![FREE; doubled]);
        self.shift -= 1;
        for pos in old.into_iter().filter(|&p| p != FREE) {
            let i = self.probe(ring[pos as usize].key(), ring);
            self.slots[i] = pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An append-only ring of `(key, value)` entries and its index: a
    /// position is never reused, so a value that strays from its key
    /// shows.
    struct Indexed {
        ring: Vec<(u64, u64)>,
        table: KeyTable,
    }

    impl Indexed {
        fn new() -> Self {
            Indexed {
                ring: Vec::new(),
                table: KeyTable::new(),
            }
        }

        fn get(&self, key: u64) -> Option<u64> {
            self.table.get(key, &self.ring).map(|p| self.ring[p].1)
        }

        fn contains(&self, key: u64) -> bool {
            self.get(key).is_some()
        }

        /// Inserts `key → val` unless `key` is held; `true` if it was not.
        fn try_insert(&mut self, key: u64, val: u64) -> bool {
            if self.contains(key) {
                return false;
            }
            self.ring.push((key, val));
            self.table.insert(key, self.ring.len() - 1, &self.ring);
            true
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            self.table.remove(key, &self.ring).map(|p| self.ring[p].1)
        }

        fn len(&self) -> usize {
            self.table.len()
        }

        /// The key slot `i` points at, or `None` for a free slot.
        fn slot(&self, i: usize) -> Option<u64> {
            let p = self.table.slots[i];
            (p != FREE).then(|| self.ring[p as usize].0)
        }
    }

    /// The value every test stores under `key`.
    fn val_of(key: u64) -> u64 {
        !key.rotate_left(17)
    }

    #[test]
    fn try_insert_get_remove() {
        let mut t = Indexed::new();
        assert_eq!(t.get(42), None);
        assert!(t.try_insert(42, 7));
        assert_eq!(t.get(42), Some(7));
        assert!(!t.try_insert(42, 8), "a held key keeps its value");
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(42), Some(7));
        assert!(!t.contains(42));
        assert_eq!(t.remove(42), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn extreme_keys() {
        let mut t = Indexed::new();
        let keys = [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 48) - 1];
        for k in keys {
            assert!(t.try_insert(k, val_of(k)), "{k}");
            assert_eq!(t.get(k), Some(val_of(k)), "{k}");
            assert!(!t.try_insert(k, 0), "{k}");
        }
        assert_eq!(t.len(), 6);
        assert!(!t.contains(2));
        for k in keys {
            assert_eq!(t.remove(k), Some(val_of(k)), "{k}");
            assert!(!t.contains(k), "{k}");
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn a_slot_is_four_bytes() {
        let mut t = Indexed::new();
        assert_eq!(t.table.memory_bytes(), MIN_SLOTS * 4);
        for k in 0..1000 {
            t.try_insert(k, k);
        }
        assert_eq!(t.table.memory_bytes(), 2048 * 4);
    }

    #[test]
    fn grows_across_several_doublings_and_keeps_every_key() {
        let mut t = Indexed::new();
        for i in 0..10_000u64 {
            assert!(t.try_insert(i * 7919, val_of(i)));
            let slots = t.table.slots.len();
            assert!(t.len() * 4 <= slots * 3, "load over 3/4 at {i}");
        }
        let slots = t.table.slots.len();
        assert!(slots >= MIN_SLOTS << 5, "slots {slots}");
        assert!(slots <= 32_768, "doubling overshot: {slots}");
        for i in 0..10_000u64 {
            assert_eq!(t.get(i * 7919), Some(val_of(i)), "{i}");
            assert!(!t.contains(i * 7919 + 1), "{i}");
        }
    }

    /// The `i`-th key (from 0) whose home slot is `home` in a new table.
    fn key_homed_at(home: usize, i: usize) -> u64 {
        let t = KeyTable::new();
        (0..u64::MAX)
            .filter(|&k| t.home(k) == home)
            .nth(i)
            .expect("every slot is some key's home")
    }

    #[test]
    fn delete_then_probe_past_the_hole() {
        // Three keys sharing one home slot sit in a run; removing the
        // first or the middle one must leave the others reachable, each
        // with its own value.
        for victim in 0..3 {
            let mut t = Indexed::new();
            let keys: Vec<u64> = (0..3).map(|i| key_homed_at(5, i)).collect();
            for &k in &keys {
                t.try_insert(k, val_of(k));
            }
            assert_eq!(t.remove(keys[victim]), Some(val_of(keys[victim])));
            for (i, &k) in keys.iter().enumerate() {
                let want = (i != victim).then(|| val_of(k));
                assert_eq!(t.get(k), want, "victim {victim}, key {i}");
            }
            // The run closed up: the survivors sit in slots 5 and 6.
            assert_eq!(t.slot(7), None);
        }
    }

    #[test]
    fn backward_shift_leaves_keys_already_at_home() {
        // Run: a (home 5) at 5, b (home 5) at 6, c (home 7) at 7.
        // Removing a pulls b back to 5 but must not drag c before its
        // home, where no probe would find it.
        let mut t = Indexed::new();
        let (a, b) = (key_homed_at(5, 0), key_homed_at(5, 1));
        let c = key_homed_at(7, 0);
        for k in [a, b, c] {
            t.try_insert(k, val_of(k));
        }
        assert!(t.remove(a).is_some());
        assert_eq!((t.get(b), t.get(c)), (Some(val_of(b)), Some(val_of(c))));
        assert_eq!((t.slot(5), t.slot(6), t.slot(7)), (Some(b), None, Some(c)));
    }

    #[test]
    fn runs_wrap_around_the_end_of_the_table() {
        let mut t = Indexed::new();
        let last = MIN_SLOTS - 1;
        let keys: Vec<u64> = (0..3).map(|i| key_homed_at(last, i)).collect();
        for &k in &keys {
            t.try_insert(k, val_of(k));
        }
        assert_eq!(
            (t.slot(last), t.slot(0), t.slot(1)),
            (Some(keys[0]), Some(keys[1]), Some(keys[2]))
        );
        assert!(t.remove(keys[0]).is_some());
        assert_eq!(t.get(keys[1]), Some(val_of(keys[1])));
        assert_eq!(t.get(keys[2]), Some(val_of(keys[2])));
        assert_eq!(
            (t.slot(last), t.slot(0), t.slot(1)),
            (Some(keys[1]), Some(keys[2]), None)
        );
    }

    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Insert / get / remove against `std::collections::HashMap`.
        /// Three key families: up to 40 keys homed at slots 62, 63 and 0
        /// of every table size (`key × FIB` is chosen, so the runs
        /// collide, wrap around the end, and a removal must shift
        /// positions back with their keys); a run ending at `u64::MAX`
        /// (the largest keys and their neighbours); and scattered keys,
        /// whose `spread` of up to 2048 takes the table through six
        /// doublings (small spreads keep hits and removals frequent).
        #[test]
        fn agrees_with_std_hashmap(
            spread in (0u32..=11).prop_map(|bits| 1u64 << bits),
            ops in prop::collection::vec((0u8..3, 0u8..4, any::<u64>(), any::<u64>()), 1..4000),
        ) {
            /// `FIB`'s inverse mod 2^64: `(p × FIB_INV) × FIB == p`.
            const FIB_INV: u64 = 0xF1DE_83E1_9937_733D;
            let mut table = Indexed::new();
            let mut model = HashMap::<u64, u64>::new();
            for (family, op, r, val) in ops {
                let i = r % spread;
                let key = match family {
                    0 => {
                        let (home, nth) = ((62 + i % 3) % 64, i % 40 / 3);
                        ((home << 58) | nth).wrapping_mul(FIB_INV)
                    }
                    1 => u64::MAX - i,
                    _ => i.wrapping_mul(0x2545_F491_4F6C_DD1D),
                };
                match op {
                    0 | 1 => {
                        let fresh = !model.contains_key(&key);
                        model.entry(key).or_insert(val);
                        prop_assert_eq!(table.try_insert(key, val), fresh, "insert {}", key);
                    }
                    2 => prop_assert_eq!(table.remove(key), model.remove(&key), "remove {}", key),
                    _ => {}
                }
                prop_assert_eq!(table.get(key), model.get(&key).copied(), "get {}", key);
                prop_assert_eq!(table.len(), model.len());
            }
            for (&k, &v) in &model {
                prop_assert_eq!(table.get(k), Some(v), "final {}", k);
            }
        }
    }
}
