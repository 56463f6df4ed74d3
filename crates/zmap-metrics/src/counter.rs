//! Lock-free sharded counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `shards × width` array of `AtomicU64` counters.
///
/// Each writer (a send thread, the receive loop) owns one shard index
/// and increments its own lane without contention; totals are summed
/// across shards at snapshot time. Because addition commutes, totals
/// are independent of thread interleaving — the property the engines
/// rely on for deterministic metrics.
///
/// `store` overwrites a slot in one shard; it is only meaningful for
/// counters with exactly one writer (the single-threaded engine's
/// rollback of `targets_total` after a mid-batch kill, the receive
/// loop's mirror of the transport's poison-recovery count).
pub struct CounterBank {
    width: usize,
    // [atomics] shards: all ops Relaxed — each lane has one writer, sums
    // commute, and snapshots happen after the writers quiesce (join),
    // which supplies the ordering.
    shards: Vec<Vec<AtomicU64>>,
}

impl CounterBank {
    /// A bank of `shards × width` zeroed counters (both clamped to ≥ 1).
    pub fn new(shards: usize, width: usize) -> Self {
        let width = width.max(1);
        CounterBank {
            width,
            shards: (0..shards.max(1))
                .map(|_| (0..width).map(|_| AtomicU64::new(0)).collect())
                .collect(),
        }
    }

    /// Number of write lanes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Counters per shard.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Adds `n` to counter `idx` in `shard` (both clamped into range).
    #[inline]
    pub fn add(&self, shard: usize, idx: usize, n: u64) {
        self.shards[shard.min(self.shards.len() - 1)][idx.min(self.width - 1)]
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of counter `idx` across all shards.
    pub fn sum(&self, idx: usize) -> u64 {
        let idx = idx.min(self.width - 1);
        self.shards.iter().map(|s| s[idx].load(Ordering::Relaxed)).sum()
    }

    /// All totals, by counter index.
    pub fn totals(&self) -> Vec<u64> {
        (0..self.width).map(|i| self.sum(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_sum_across_shards() {
        let b = CounterBank::new(3, 2);
        b.add(0, 0, 5);
        b.add(1, 0, 7);
        b.add(2, 1, 1);
        assert_eq!(b.sum(0), 12);
        assert_eq!(b.sum(1), 1);
        assert_eq!(b.totals(), vec![12, 1]);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let b = CounterBank::new(4, 1);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        b.add(t, 0, 1);
                    }
                });
            }
        });
        assert_eq!(b.sum(0), 40_000);
    }
}
