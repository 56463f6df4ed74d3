//! Per-block permutation re-keying: the stealth countermeasure against
//! cryptanalytic scan attribution.
//!
//! Mazel & Strullu (PAPERS.md) show a darknet can attribute a ZMap scan
//! *without* the IP-ID fingerprint by recovering the cyclic-group walk
//! from the observed probe order alone: adjacent darknet hits are related
//! by `x_{i+1} = x_i · g^k mod p` for small gap `k`, so the generator
//! falls out of the ratios of consecutive observations. The defense cuts
//! the packed (IP, port) candidate space `[0, pool)` into `K` contiguous
//! blocks, each walked by its *own* independently seeded smallest-fitting
//! group, and visits the blocks in a seeded pseudorandom order. Any one
//! generator explains at most ~1/K of the transitions, and because block
//! candidates are offset by the block base, not even the per-block ratios
//! are powers of that block's generator. The walk stays a pure function
//! of `(constraint, ports, seed, K)` with element-count positions, and
//! [`RekeyedWalk::fingerprint`] identifies it to the journal.

use crate::cycle::Cycle;
use crate::group::{CyclicGroup, GroupError};
use crate::schedule::{derive_seed, splitmix64, Schedule, PASS_UNIT};
use crate::shard::{ShardAlgorithm, ShardError, ShardIter, ShardSpec};

/// One re-keyed block: a contiguous candidate range `[base, base+len)`
/// walked by its own cyclic group.
#[derive(Debug)]
struct Block {
    /// First packed candidate covered by this block.
    base: u64,
    /// Number of candidates in this block.
    len: u64,
    /// This block's private permutation (smallest fitting ladder prime).
    cycle: Cycle,
}

/// Ground-truth parameters of one block, in walk (visit) order — the
/// introspection oracle the adversarial attribution tests compare the
/// telescope's recovered parameters against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    /// First packed candidate covered by the block.
    pub base: u64,
    /// Candidates in the block.
    pub len: u64,
    /// The block's private group modulus.
    pub prime: u64,
    /// The block's primitive root.
    pub generator: u64,
    /// The block's starting exponent.
    pub offset: u64,
}

/// Errors building a [`RekeyedWalk`].
#[derive(Debug)]
pub enum RekeyError {
    /// Fewer than 2 blocks requested — one block is just a plain walk and
    /// provides no stealth, so it is rejected rather than silently allowed.
    TooFewBlocks(u32),
    /// A per-block group could not be selected.
    Group(GroupError),
}

impl std::fmt::Display for RekeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RekeyError::TooFewBlocks(k) => {
                write!(f, "stealth re-keying needs at least 2 blocks, got {k}")
            }
            RekeyError::Group(e) => write!(f, "block group selection failed: {e}"),
        }
    }
}

impl std::error::Error for RekeyError {}

/// A re-keyed walk plan over the packed candidate space `[0, pool)`.
///
/// Blocks are stored in visit order; iteration for a (sub)shard walks the
/// shard's slice of every block, block by block.
#[derive(Debug)]
pub struct RekeyedWalk {
    pool: u64,
    blocks: Vec<Block>,
    fingerprint: u64,
}

impl RekeyedWalk {
    /// Partitions `[0, pool)` into `num_blocks` near-equal contiguous
    /// blocks, derives an independent cycle per block from `seed`, and
    /// shuffles the visit order. Blocks that would be empty (more blocks
    /// than candidates) are dropped.
    pub fn new(pool: u64, num_blocks: u32, seed: u64) -> Result<Self, RekeyError> {
        if num_blocks < 2 {
            return Err(RekeyError::TooFewBlocks(num_blocks));
        }
        let k = num_blocks as u128;
        let mut blocks = Vec::new();
        for i in 0..num_blocks as u128 {
            let base = (pool as u128 * i / k) as u64;
            let end = (pool as u128 * (i + 1) / k) as u64;
            let len = end - base;
            if len == 0 {
                continue;
            }
            let group = CyclicGroup::for_target_count(len).map_err(RekeyError::Group)?;
            let cycle = Cycle::new(group, derive_seed(seed, i as u64));
            blocks.push(Block { base, len, cycle });
        }
        // Seeded Fisher–Yates over the visit order: the scan does not
        // sweep the address space block 0 → block K−1, which would leak
        // coarse scan progress to the observer.
        let mut order_rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(derive_seed(seed, u64::MAX));
        for i in (1..blocks.len()).rev() {
            let j = rand::Rng::gen_range(&mut order_rng, 0..=i);
            blocks.swap(i, j);
        }
        let mut h = splitmix64(seed ^ 0x7265_6B65_795F_7631); // "rekey_v1"
        h = splitmix64(h ^ pool);
        h = splitmix64(h ^ u64::from(num_blocks));
        for b in &blocks {
            for part in [b.base, b.len, b.cycle.group().prime(), b.cycle.generator(), b.cycle.offset()] {
                h = splitmix64(h ^ part);
            }
        }
        Ok(RekeyedWalk {
            pool,
            blocks,
            fingerprint: h,
        })
    }

    /// The packed candidate space this walk covers.
    pub fn pool(&self) -> u64 {
        self.pool
    }

    /// Number of non-empty blocks.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// A stable digest of (pool, block count, every block's range and
    /// walk parameters). The scan journal stores this where the
    /// single-walk path stores the group prime, so `--resume` detects a
    /// changed target space / seed / block count the same way.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Ground-truth block parameters in visit order — the oracle for
    /// attribution tests and the `exp_attribution` bench.
    pub fn blocks(&self) -> impl Iterator<Item = BlockParams> + '_ {
        self.blocks.iter().map(|b| BlockParams {
            base: b.base,
            len: b.len,
            prime: b.cycle.group().prime(),
            generator: b.cycle.generator(),
            offset: b.cycle.offset(),
        })
    }

    /// Iterator over the synthetic global elements assigned to `spec`.
    pub fn iter_spec(
        &self,
        spec: ShardSpec,
        algorithm: ShardAlgorithm,
    ) -> Result<RekeyIter<'_>, ShardError> {
        let walks = self
            .blocks
            .iter()
            .map(|b| ShardIter::new(&b.cycle, spec, algorithm));
        // Block `i` in visit order owns pass unit `i`: the blocks are
        // walked one after another.
        let schedule = Schedule::new(walks.collect::<Result<_, _>>()?, |i, _| {
            i as u128 * PASS_UNIT
        });
        Ok(RekeyIter {
            blocks: &self.blocks,
            schedule,
        })
    }
}

/// Iterator over one (sub)shard's slice of a [`RekeyedWalk`].
///
/// Yields *synthetic global elements* `base + e` where `e` is a raw
/// element of the block's private group: subtracting 1 recovers the
/// packed global candidate, so
/// [`TargetGenerator::decode`](crate::generator::TargetGenerator::decode)
/// applies unchanged.
/// Block-private rejection (elements beyond the block length) happens
/// here; `consumed` counts raw elements including those rejections, so
/// checkpoint positions stay element-exact.
#[derive(Debug)]
pub struct RekeyIter<'a> {
    blocks: &'a [Block],
    schedule: Schedule<'a>,
}

impl RekeyIter<'_> {
    /// Raw block elements consumed (yields, in-block rejections, and
    /// fast-forwarded jumps) across all blocks so far.
    pub fn consumed(&self) -> u64 {
        self.schedule.consumed()
    }

    /// Raw block elements left across all blocks.
    pub fn remaining(&self) -> u64 {
        self.schedule.remaining()
    }

    /// Skips the next `min(k, remaining)` raw elements, crossing block
    /// boundaries as needed, and returns how many were skipped.
    pub fn fast_forward(&mut self, k: u64) -> u64 {
        self.schedule.fast_forward(k)
    }
}

impl Iterator for RekeyIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        loop {
            let (i, e) = self.schedule.next()?;
            let b = &self.blocks[i];
            if e - 1 < b.len {
                return Some(b.base + e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn whole(walk: &RekeyedWalk) -> RekeyIter<'_> {
        walk.iter_spec(ShardSpec::whole(), ShardAlgorithm::Pizza).unwrap()
    }

    #[test]
    fn covers_every_candidate_exactly_once() {
        let walk = RekeyedWalk::new(1000, 7, 42).unwrap();
        let got: Vec<u64> = whole(&walk).collect();
        assert_eq!(got.len(), 1000);
        let set: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), 1000);
        assert!(set.iter().all(|&e| (1..=1000).contains(&e)));
    }

    #[test]
    fn sharded_union_equals_whole_walk() {
        for alg in [ShardAlgorithm::Pizza, ShardAlgorithm::Interleaved] {
            let walk = RekeyedWalk::new(513, 4, 9).unwrap();
            let mut union = HashSet::new();
            let mut total = 0u64;
            for shard in 0..3u32 {
                for sub in 0..2u32 {
                    let spec = ShardSpec {
                        shard,
                        num_shards: 3,
                        subshard: sub,
                        num_subshards: 2,
                    };
                    for e in walk.iter_spec(spec, alg).unwrap() {
                        assert!(union.insert(e), "element {e} in two shards ({alg:?})");
                        total += 1;
                    }
                }
            }
            assert_eq!(total, 513, "{alg:?}");
        }
    }

    #[test]
    fn blocks_partition_the_pool() {
        let walk = RekeyedWalk::new(100, 16, 3).unwrap();
        let mut ranges: Vec<(u64, u64)> = walk.blocks().map(|b| (b.base, b.len)).collect();
        ranges.sort_unstable();
        let mut next = 0u64;
        for (base, len) in ranges {
            assert_eq!(base, next);
            assert!(len > 0);
            next = base + len;
        }
        assert_eq!(next, 100);
    }

    #[test]
    fn visit_order_is_shuffled_and_seed_dependent() {
        let a: Vec<u64> = RekeyedWalk::new(4096, 16, 1).unwrap().blocks().map(|b| b.base).collect();
        let b: Vec<u64> = RekeyedWalk::new(4096, 16, 2).unwrap().blocks().map(|b| b.base).collect();
        assert_ne!(a, b, "different seeds must shuffle blocks differently");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(a, sorted, "visit order should not be base order");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<u64> = whole(&RekeyedWalk::new(777, 5, 11).unwrap()).collect();
        let b: Vec<u64> = whole(&RekeyedWalk::new(777, 5, 11).unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let base = RekeyedWalk::new(1000, 8, 5).unwrap().fingerprint();
        assert_eq!(base, RekeyedWalk::new(1000, 8, 5).unwrap().fingerprint());
        assert_ne!(base, RekeyedWalk::new(1000, 8, 6).unwrap().fingerprint());
        assert_ne!(base, RekeyedWalk::new(1000, 9, 5).unwrap().fingerprint());
        assert_ne!(base, RekeyedWalk::new(1001, 8, 5).unwrap().fingerprint());
    }

    #[test]
    fn fast_forward_matches_stepping() {
        let walk = RekeyedWalk::new(600, 4, 21).unwrap();
        for skip in [0u64, 1, 50, 170, 300, 512, 10_000] {
            let mut stepped = whole(&walk);
            while stepped.consumed() < skip && stepped.next().is_some() {}
            let consumed = stepped.consumed();
            let mut jumped = whole(&walk);
            jumped.fast_forward(consumed);
            assert_eq!(jumped.consumed(), consumed);
            assert_eq!(jumped.remaining(), stepped.remaining());
            let a: Vec<u64> = stepped.collect();
            let b: Vec<u64> = jumped.collect();
            assert_eq!(a, b, "skip {skip}");
        }
    }

    #[test]
    fn more_blocks_than_candidates_drops_empties() {
        let walk = RekeyedWalk::new(3, 8, 1).unwrap();
        assert_eq!(walk.num_blocks(), 3);
        let got: HashSet<u64> = whole(&walk).collect();
        assert_eq!(got, HashSet::from([1, 2, 3]));
    }

    #[test]
    fn too_few_blocks_rejected() {
        assert!(matches!(
            RekeyedWalk::new(100, 1, 0),
            Err(RekeyError::TooFewBlocks(1))
        ));
        assert!(matches!(
            RekeyedWalk::new(100, 0, 0),
            Err(RekeyError::TooFewBlocks(0))
        ));
    }

    #[test]
    fn block_groups_are_smallest_fitting_and_independent() {
        // 65536-candidate pool in 16 blocks: each block has 4096
        // candidates and its own 65537 group (the 2^12 block still needs
        // the 2^16+1 ladder prime because 257's order is only 256).
        let walk = RekeyedWalk::new(65_536, 16, 7).unwrap();
        let params: Vec<BlockParams> = walk.blocks().collect();
        assert_eq!(params.len(), 16);
        assert!(params.iter().all(|b| b.len == 4096 && b.prime == 65_537));
        let gens: HashSet<u64> = params.iter().map(|b| b.generator).collect();
        assert!(gens.len() > 1, "blocks must not share a generator");
    }
}
