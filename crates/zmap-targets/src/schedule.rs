//! One walk scheduler for every multi-walk target stream.
//!
//! The v6 prefix walk and the stealth re-keyed walk both merge *k*
//! independent cyclic walks (one [`ShardIter`] per prefix slice or block)
//! by stride scheduling: lane `i` draws at passes `pass0_i + j·stride_i`,
//! with `stride_i = 2^64 / weight_i` for a lane of `weight_i` draws, and
//! the next draw comes from the smallest `(pass, lane)`. The v6 walk
//! seeds `pass0` below the stride, so prefixes interleave in proportion
//! to their size; the stealth walk sets it to `visit position × 2^64`,
//! which walks the blocks one after another.
//!
//! The merged order is the sorted order of all `(pass0_i + j·stride_i, i)`,
//! so the state after `k` draws has a closed form
//! ([`Schedule::fast_forward`]).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::shard::ShardIter;

/// SplitMix64 finalizer: the seed-derivation mixer for per-walk seeds,
/// interleave offsets and walk fingerprints.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives stream `ordinal` of `seed`.
pub(crate) fn derive_seed(seed: u64, ordinal: u64) -> u64 {
    splitmix64(seed ^ splitmix64(ordinal))
}

/// One unit of the pass clock: every lane's walk spans less than one.
pub(crate) const PASS_UNIT: u128 = 1 << 64;

#[derive(Debug, Clone)]
struct Lane<'a> {
    iter: ShardIter<'a>,
    pass0: u128,
    stride: u128,
}

impl Lane<'_> {
    /// Pass of the lane's next draw.
    fn pass(&self) -> u128 {
        self.pass0 + u128::from(self.iter.consumed()) * self.stride
    }

    /// How many of the lane's remaining draws come before pass `t`.
    fn draws_before(&self, t: u128) -> u64 {
        let n = t.saturating_sub(self.pass()).div_ceil(self.stride);
        u64::try_from(n).map_or(self.iter.remaining(), |n| n.min(self.iter.remaining()))
    }
}

/// The merged draw stream of *k* walks: yields `(lane, element)`.
///
/// The lane with the smallest `(pass, lane)` draws a *run*: every draw it
/// makes before the runner-up's pass. Within a run no lane is compared,
/// so the stealth walk, whose runs are whole blocks, pays nothing per
/// draw for the merge.
#[derive(Debug, Clone)]
pub(crate) struct Schedule<'a> {
    lanes: Vec<Lane<'a>>,
    /// `(pass, lane)` of every lane with draws left after the current run.
    heap: BinaryHeap<Reverse<(u128, usize)>>,
    /// The lane drawing now and its draws left in the run: the one
    /// counter a draw moves.
    cur: usize,
    run: u64,
    /// Draws up to the end of the current run, and in all.
    done: u64,
    total: u64,
}

impl<'a> Schedule<'a> {
    /// Schedules `walks` as lanes `0..k`; `pass0(lane, stride)` places
    /// each lane's first draw.
    pub(crate) fn new(walks: Vec<ShardIter<'a>>, pass0: impl Fn(usize, u128) -> u128) -> Self {
        let lane = |(i, iter): (usize, ShardIter<'a>)| {
            let stride = PASS_UNIT / u128::from(iter.remaining().max(1));
            Lane {
                pass0: pass0(i, stride),
                stride,
                iter,
            }
        };
        let lanes: Vec<Lane<'a>> = walks.into_iter().enumerate().map(lane).collect();
        let total = lanes.iter().map(|l| l.iter.remaining()).sum();
        let heap = BinaryHeap::with_capacity(lanes.len());
        let mut schedule = Schedule {
            lanes,
            heap,
            cur: 0,
            run: 0,
            done: 0,
            total,
        };
        schedule.queue_lanes();
        schedule
    }

    fn queue_lanes(&mut self) {
        self.heap.clear();
        let live = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.iter.remaining() > 0);
        self.heap.extend(live.map(|(i, l)| Reverse((l.pass(), i))));
    }

    /// Gives the next run to the lane with the smallest `(pass, lane)`:
    /// draw `j` of the run is at `pass + j·stride` and must come before
    /// the runner-up, a child of the heap's root. The lane's entry moves
    /// to its pass after the run, or leaves the heap with its last draw.
    fn start_run(&mut self) -> Option<()> {
        let Reverse((pass, i)) = *self.heap.peek()?;
        let (stride, left) = (self.lanes[i].stride, self.lanes[i].iter.remaining());
        let run = match self.heap.as_slice().iter().skip(1).take(2).max() {
            None => left,
            Some(&Reverse((q, _))) if pass + stride > q => 1,
            Some(&Reverse((q, l))) if i < l => ((q - pass) / stride + 1).min(left.into()) as u64,
            Some(&Reverse((q, _))) => (q - pass).div_ceil(stride).min(left.into()) as u64,
        };
        let mut top = self.heap.peek_mut()?;
        if run == left {
            PeekMut::pop(top);
        } else {
            top.0 .0 = pass + u128::from(run) * stride;
        }
        (self.cur, self.run, self.done) = (i, run, self.done + run);
        Some(())
    }

    /// Draws so far, fast-forwarded ones included.
    pub(crate) fn consumed(&self) -> u64 {
        self.done - self.run
    }

    /// Draws left across all lanes.
    pub(crate) fn remaining(&self) -> u64 {
        self.total - self.consumed()
    }

    /// Skips the next `min(k, remaining)` draws and returns how many were
    /// skipped. A binary search finds the pass `t` of the last skipped
    /// draw; every draw before `t` is skipped, then the draws at exactly
    /// `t` in lane order until `k` is met, and each lane jumps once.
    pub(crate) fn fast_forward(&mut self, k: u64) -> u64 {
        let k = k.min(self.remaining());
        let before = |t: u128| -> u64 { self.lanes.iter().map(|l| l.draws_before(t)).sum() };
        let end = |l: &Lane| l.pass() + u128::from(l.iter.remaining()) * l.stride;
        // The largest `t` with `before(t) ≤ k`; `before(end) = remaining`.
        let (mut t, mut hi) = (0, self.lanes.iter().map(end).max().unwrap_or(0));
        while t < hi {
            let mid = t + (hi - t).div_ceil(2);
            if before(mid) <= k {
                t = mid;
            } else {
                hi = mid - 1;
            }
        }
        let mut ties = k - before(t);
        for lane in &mut self.lanes {
            let mut n = lane.draws_before(t);
            if ties > 0 && lane.draws_before(t + 1) > n {
                n += 1;
                ties -= 1;
            }
            lane.iter.fast_forward(n);
        }
        self.queue_lanes();
        (self.done, self.run) = (self.consumed() + k, 0);
        k
    }
}

impl Iterator for Schedule<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        if self.run == 0 {
            self.start_run()?;
        }
        self.run -= 1;
        let element = self.lanes[self.cur].iter.next()?;
        Some((self.cur, element))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Cycle;
    use crate::group::CyclicGroup;
    use crate::shard::{ShardAlgorithm, ShardSpec};

    fn lanes(cycles: &[Cycle], spec: ShardSpec) -> Vec<ShardIter<'_>> {
        let iter = |c| ShardIter::new(c, spec, ShardAlgorithm::Pizza).unwrap();
        cycles.iter().map(iter).collect()
    }

    fn per_lane(s: &Schedule<'_>) -> Vec<u64> {
        s.lanes.iter().map(|l| l.iter.consumed()).collect()
    }

    /// `(pass, lane)` of lane `i`'s draw `j`.
    fn key(s: &Schedule<'_>, i: usize, j: u64) -> (u128, usize) {
        (s.lanes[i].pass0 + u128::from(j) * s.lanes[i].stride, i)
    }

    #[test]
    fn fast_forward_takes_what_stepping_takes_lane_by_lane() {
        // Uneven weights (three groups, two shards) and v6-style phases.
        let cycles: Vec<Cycle> = [257u64, 65_537, 257, 257]
            .iter()
            .enumerate()
            .map(|(i, &p)| Cycle::new(CyclicGroup::new(p).unwrap(), i as u64))
            .collect();
        let spec = ShardSpec {
            shard: 1,
            num_shards: 2,
            subshard: 0,
            num_subshards: 1,
        };
        let fresh = || {
            Schedule::new(lanes(&cycles, spec), |i, s| {
                u128::from(derive_seed(3, i as u64)) % s
            })
        };
        let mut stepped = fresh();
        let total = stepped.remaining();
        for k in 0..=total {
            let mut jumped = fresh();
            assert_eq!(jumped.fast_forward(k), k);
            assert_eq!(per_lane(&jumped), per_lane(&stepped), "k = {k}");
            assert_eq!(jumped.next(), stepped.next(), "k = {k}");
        }
    }

    #[test]
    fn fast_forward_splits_a_large_schedule_in_merge_order() {
        // Sixteen lanes of 2^32 + 14 draws: every skipped draw must
        // precede every kept one in `(pass, lane)` order, which checks each
        // lane's count against its own arithmetic.
        let group = CyclicGroup::for_target_count(1 << 32).unwrap();
        let cycles: Vec<Cycle> = (0..16).map(|i| Cycle::new(group.clone(), i)).collect();
        let fresh = || {
            Schedule::new(lanes(&cycles, ShardSpec::whole()), |i, s| {
                u128::from(derive_seed(9, i as u64)) % s
            })
        };
        let total = fresh().remaining();
        assert_eq!(total, 16 * ((1 << 32) + 14));
        assert_eq!(fresh().fast_forward(1 << 40), total);
        for k in [1, total / 3, total / 2 + 12_345, total - 1] {
            let mut s = fresh();
            s.fast_forward(k);
            let taken = per_lane(&s);
            assert_eq!(taken.iter().sum::<u64>(), k);
            let last_skipped = (0..16)
                .filter(|&i| taken[i] > 0)
                .map(|i| key(&s, i, taken[i] - 1));
            let first_kept = (0..16)
                .filter(|&i| s.lanes[i].iter.remaining() > 0)
                .map(|i| key(&s, i, taken[i]));
            let first_kept = first_kept.min().unwrap();
            assert!(last_skipped.max().unwrap() < first_kept, "k = {k}");
            assert_eq!(s.next().map(|d| d.0), Some(first_kept.1), "k = {k}");
        }
    }
}
