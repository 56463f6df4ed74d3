//! The crate's one hash table: open-addressed, `u64` keys, an optional
//! value column.
//!
//! One flat `Vec<u64>` of power-of-two length, a multiplicative
//! (Fibonacci) hash, linear probing, and backward-shift deletion — a
//! removal closes its own hole, so there are no tombstones and a window
//! that inserts and evicts forever never degrades. A lookup is one hash
//! and, nearly always, one cache line; nothing is allocated per key. The
//! table starts at [`MIN_SLOTS`] and doubles when it passes three
//! quarters full, so its size follows the keys actually held, never the
//! configured window.
//!
//! Values sit in a second `Vec<V>` indexed like the slots, so a probe
//! reads keys only and a value moves with its key. The sliding window's
//! membership set is `KeyTable<()>` — a zero-sized column that allocates
//! nothing; [`FifoMap`](crate::FifoMap) is `KeyTable<u64>`.
//!
//! Every `u64` is a legal key. [`EMPTY`] marks a free slot, so that one
//! key is held in a field beside the slots instead of in them.
//!
//! The hash is not keyed: the keys are plan indices of targets this scan
//! probed (and, for the window, whose answers carried a valid cookie), so
//! a remote party cannot choose them.

/// Free-slot marker; the key with this value lives in `holds_empty_key`.
const EMPTY: u64 = u64::MAX;
/// Slots of a new table (512 bytes).
const MIN_SLOTS: usize = 64;
/// 2^64 / φ: consecutive integers (v6's compact indices) land far apart.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

pub(crate) struct KeyTable<V> {
    /// Power-of-two many slots, each a key or [`EMPTY`].
    slots: Vec<u64>,
    /// `vals[i]` belongs to the key in `slots[i]`.
    vals: Vec<V>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Keys held, the [`EMPTY`]-valued one included.
    len: usize,
    /// The [`EMPTY`]-valued key's value, when that key is held.
    empty_key: Option<V>,
}

impl<V: Copy + Default> KeyTable<V> {
    pub(crate) fn new() -> Self {
        KeyTable {
            slots: vec![EMPTY; MIN_SLOTS],
            vals: vec![V::default(); MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            len: 0,
            empty_key: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes allocated: a key and a value per slot.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.slots.len() * (8 + std::mem::size_of::<V>())
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `key`, or the free slot its probe ends on.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != key && self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// `key`'s value, if held.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.empty_key;
        }
        let i = self.probe(key);
        (self.slots[i] == key).then(|| self.vals[i])
    }

    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → val` unless `key` is held (the held value stays);
    /// returns `true` if it was not held.
    pub(crate) fn try_insert(&mut self, key: u64, val: V) -> bool {
        if key == EMPTY {
            let fresh = self.empty_key.is_none();
            self.empty_key.get_or_insert(val);
            self.len += usize::from(fresh);
            return fresh;
        }
        let mut i = self.probe(key);
        if self.slots[i] == key {
            return false;
        }
        // Load stays at or under 3/4, so a probe always meets a free slot.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            i = self.probe(key);
        }
        self.slots[i] = key;
        self.vals[i] = val;
        self.len += 1;
        true
    }

    /// Removes `key`; returns its value if it was held.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        if key == EMPTY {
            let held = self.empty_key.take();
            self.len -= usize::from(held.is_some());
            return held;
        }
        let mut hole = self.probe(key);
        if self.slots[hole] != key {
            return None;
        }
        let val = self.vals[hole];
        // Backward shift: walk the rest of the run and pull back every
        // key whose home is at or before the hole, so no probe that used
        // to pass through this slot now stops short at it.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j];
            if k == EMPTY {
                break;
            }
            let from_home = j.wrapping_sub(self.home(k)) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        Some(val)
    }

    /// Doubles the table: once per doubling of the keys held, so the
    /// cost is amortised over the inserts that filled it.
    #[cold]
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old_slots = std::mem::replace(&mut self.slots, vec![EMPTY; doubled]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); doubled]);
        self.shift -= 1;
        for (key, val) in old_slots.into_iter().zip(old_vals) {
            if key != EMPTY {
                let i = self.probe(key);
                self.slots[i] = key;
                self.vals[i] = val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value every test stores under `key`, so a value that strays
    /// from its key shows.
    fn val_of(key: u64) -> u64 {
        !key.rotate_left(17)
    }

    #[test]
    fn try_insert_get_remove() {
        let mut t = KeyTable::new();
        assert_eq!(t.get(42), None);
        assert!(t.try_insert(42, 7u64));
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
        let mut t = KeyTable::new();
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
    fn the_value_column_of_a_set_is_free() {
        let mut set = KeyTable::<()>::new();
        let mut map = KeyTable::<u64>::new();
        for k in 0..1000 {
            set.try_insert(k, ());
            map.try_insert(k, k);
        }
        assert_eq!(set.memory_bytes(), set.slots.len() * 8);
        assert_eq!(set.vals.capacity(), usize::MAX, "a zero-sized column never allocates");
        assert_eq!(map.memory_bytes(), 2 * set.memory_bytes());
    }

    #[test]
    fn grows_across_several_doublings_and_keeps_every_key() {
        let mut t = KeyTable::new();
        for i in 0..10_000u64 {
            assert!(t.try_insert(i * 7919, val_of(i)));
            assert!(t.len() * 4 <= t.slots.len() * 3, "load over 3/4 at {i}");
        }
        assert!(t.slots.len() >= MIN_SLOTS << 5, "slots {}", t.slots.len());
        assert!(t.slots.len() <= 32_768, "doubling overshot: {}", t.slots.len());
        for i in 0..10_000u64 {
            assert_eq!(t.get(i * 7919), Some(val_of(i)), "{i}");
            assert!(!t.contains(i * 7919 + 1), "{i}");
        }
    }

    /// The `i`-th key (from 0) whose home slot is `home` in a new table.
    fn key_homed_at(t: &KeyTable<u64>, home: usize, i: usize) -> u64 {
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
            let mut t = KeyTable::new();
            let keys: Vec<u64> = (0..3).map(|i| key_homed_at(&t, 5, i)).collect();
            for &k in &keys {
                t.try_insert(k, val_of(k));
            }
            assert_eq!(t.remove(keys[victim]), Some(val_of(keys[victim])));
            for (i, &k) in keys.iter().enumerate() {
                let want = (i != victim).then(|| val_of(k));
                assert_eq!(t.get(k), want, "victim {victim}, key {i}");
            }
            // The run closed up: the survivors sit in slots 5 and 6.
            assert_eq!(t.slots[7], EMPTY);
        }
    }

    #[test]
    fn backward_shift_leaves_keys_already_at_home() {
        // Run: a (home 5) at 5, b (home 5) at 6, c (home 7) at 7.
        // Removing a pulls b back to 5 but must not drag c before its
        // home, where no probe would find it.
        let mut t = KeyTable::new();
        let (a, b) = (key_homed_at(&t, 5, 0), key_homed_at(&t, 5, 1));
        let c = key_homed_at(&t, 7, 0);
        for k in [a, b, c] {
            t.try_insert(k, val_of(k));
        }
        assert!(t.remove(a).is_some());
        assert_eq!((t.get(b), t.get(c)), (Some(val_of(b)), Some(val_of(c))));
        assert_eq!((t.slots[5], t.slots[6], t.slots[7]), (b, EMPTY, c));
        assert_eq!((t.vals[5], t.vals[7]), (val_of(b), val_of(c)));
    }

    #[test]
    fn runs_wrap_around_the_end_of_the_table() {
        let mut t = KeyTable::new();
        let last = MIN_SLOTS - 1;
        let keys: Vec<u64> = (0..3).map(|i| key_homed_at(&t, last, i)).collect();
        for &k in &keys {
            t.try_insert(k, val_of(k));
        }
        assert_eq!((t.slots[last], t.slots[0], t.slots[1]), (keys[0], keys[1], keys[2]));
        assert!(t.remove(keys[0]).is_some());
        assert_eq!(t.get(keys[1]), Some(val_of(keys[1])));
        assert_eq!(t.get(keys[2]), Some(val_of(keys[2])));
        assert_eq!((t.slots[last], t.slots[0], t.slots[1]), (keys[1], keys[2], EMPTY));
    }

    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Insert / get / remove against `std::collections::HashMap`.
        /// Three key families: up to 40 keys homed at slots 62, 63 and 0
        /// of every table size (`key × FIB` is chosen, so the runs
        /// collide, wrap around the end, and a removal must shift values
        /// back with their keys); a run ending at `u64::MAX` (the
        /// `EMPTY`-valued key and its neighbours); and scattered keys,
        /// whose `spread` of up to 2048 takes the table through six
        /// doublings (small spreads keep hits and removals frequent).
        #[test]
        fn agrees_with_std_hashmap(
            spread in (0u32..=11).prop_map(|bits| 1u64 << bits),
            ops in prop::collection::vec((0u8..3, 0u8..4, any::<u64>(), any::<u64>()), 1..4000),
        ) {
            /// `FIB`'s inverse mod 2^64: `(p × FIB_INV) × FIB == p`.
            const FIB_INV: u64 = 0xF1DE_83E1_9937_733D;
            let mut table = KeyTable::<u64>::new();
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
