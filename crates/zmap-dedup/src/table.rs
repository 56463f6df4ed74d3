//! The sliding window's membership set: an open-addressed `u64` table.
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
//! Every `u64` is a legal key. [`EMPTY`] marks a free slot, so that one
//! key is held in a flag beside the slots instead of in them.
//!
//! The hash is not keyed: the window's keys are plan indices of targets
//! this scan probed and whose answers carried a valid cookie, so a
//! remote party cannot choose them.

/// Free-slot marker; the key with this value lives in `holds_empty_key`.
const EMPTY: u64 = u64::MAX;
/// Slots of a new table (512 bytes).
const MIN_SLOTS: usize = 64;
/// 2^64 / φ: consecutive integers (v6's compact indices) land far apart.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

pub(crate) struct KeyTable {
    /// Power-of-two many slots, each a key or [`EMPTY`].
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Keys held, the [`EMPTY`]-valued one included.
    len: usize,
    holds_empty_key: bool,
}

impl KeyTable {
    pub(crate) fn new() -> Self {
        KeyTable {
            slots: vec![EMPTY; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            len: 0,
            holds_empty_key: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots allocated (8 bytes each).
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
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

    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        if key == EMPTY {
            return self.holds_empty_key;
        }
        self.slots[self.probe(key)] == key
    }

    /// Inserts `key`; returns `true` if it was not held.
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        if key == EMPTY {
            let fresh = !self.holds_empty_key;
            self.holds_empty_key = true;
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
        self.len += 1;
        true
    }

    /// Removes `key`; returns `true` if it was held.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        if key == EMPTY {
            let held = self.holds_empty_key;
            self.holds_empty_key = false;
            self.len -= usize::from(held);
            return held;
        }
        let mut hole = self.probe(key);
        if self.slots[hole] != key {
            return false;
        }
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
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        true
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for key in old {
            if key != EMPTY {
                let i = self.probe(key);
                self.slots[i] = key;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut t = KeyTable::new();
        assert!(!t.contains(42));
        assert!(t.insert(42));
        assert!(t.contains(42));
        assert!(!t.insert(42));
        assert_eq!(t.len(), 1);
        assert!(t.remove(42));
        assert!(!t.contains(42));
        assert!(!t.remove(42));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn extreme_keys() {
        let mut t = KeyTable::new();
        let keys = [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 48) - 1];
        for k in keys {
            assert!(t.insert(k), "{k}");
            assert!(t.contains(k), "{k}");
            assert!(!t.insert(k), "{k}");
        }
        assert_eq!(t.len(), 6);
        assert!(!t.contains(2));
        for k in keys {
            assert!(t.remove(k), "{k}");
            assert!(!t.contains(k), "{k}");
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn grows_across_several_doublings_and_keeps_every_key() {
        let mut t = KeyTable::new();
        for i in 0..10_000u64 {
            assert!(t.insert(i * 7919));
            assert!(t.len() * 4 <= t.slots() * 3, "load over 3/4 at {i}");
        }
        assert!(t.slots() >= MIN_SLOTS << 5, "slots {}", t.slots());
        assert!(t.slots() <= 32_768, "doubling overshot: {}", t.slots());
        for i in 0..10_000u64 {
            assert!(t.contains(i * 7919), "{i}");
            assert!(!t.contains(i * 7919 + 1), "{i}");
        }
    }

    /// The `i`-th key (from 0) whose home slot is `home` in a new table.
    fn key_homed_at(t: &KeyTable, home: usize, i: usize) -> u64 {
        (0..u64::MAX)
            .filter(|&k| t.home(k) == home)
            .nth(i)
            .expect("every slot is some key's home")
    }

    #[test]
    fn delete_then_probe_past_the_hole() {
        // Three keys sharing one home slot sit in a run; removing the
        // first or the middle one must leave the others reachable.
        for victim in 0..3 {
            let mut t = KeyTable::new();
            let keys: Vec<u64> = (0..3).map(|i| key_homed_at(&t, 5, i)).collect();
            for &k in &keys {
                t.insert(k);
            }
            assert!(t.remove(keys[victim]));
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(t.contains(k), i != victim, "victim {victim}, key {i}");
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
            t.insert(k);
        }
        assert!(t.remove(a));
        assert!(t.contains(b) && t.contains(c));
        assert_eq!((t.slots[5], t.slots[6], t.slots[7]), (b, EMPTY, c));
    }

    #[test]
    fn runs_wrap_around_the_end_of_the_table() {
        let mut t = KeyTable::new();
        let last = MIN_SLOTS - 1;
        let keys: Vec<u64> = (0..3).map(|i| key_homed_at(&t, last, i)).collect();
        for &k in &keys {
            t.insert(k);
        }
        assert_eq!((t.slots[last], t.slots[0], t.slots[1]), (keys[0], keys[1], keys[2]));
        assert!(t.remove(keys[0]));
        assert!(t.contains(keys[1]) && t.contains(keys[2]));
        assert_eq!((t.slots[last], t.slots[0], t.slots[1]), (keys[1], keys[2], EMPTY));
    }

    #[test]
    fn matches_std_hashset_randomized() {
        use std::collections::HashSet;
        let mut table = KeyTable::new();
        let mut std_set = HashSet::new();
        let mut state = 0x12345678u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = state >> 52; // 12-bit keys: hits, removals and long runs
            if state & 3 == 0 {
                assert_eq!(table.remove(key), std_set.remove(&key));
            } else {
                assert_eq!(table.insert(key), std_set.insert(key));
            }
            assert_eq!(table.len(), std_set.len());
        }
        for k in 0..4096 {
            assert_eq!(table.contains(k), std_set.contains(&k), "{k}");
        }
    }
}
