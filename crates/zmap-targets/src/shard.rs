//! Scan sharding: splitting one cyclic-group walk across machines and
//! threads (paper §4.2).
//!
//! Two algorithms, both preserving the "every target exactly once, across
//! all shards" guarantee:
//!
//! * **Interleaved** (2014, Adrian et al.): shard `n` of `N` visits
//!   exponents `n, n+N, n+2N, …` by repeatedly multiplying by `g^N`.
//!   Conceptually simple, but the number of elements per shard
//!   (`⌈(order − n) / N⌉`) is easy to get wrong — the paper reports
//!   repeated off-by-one bugs because `N·T` need not divide `p − 1` and a
//!   shard may never revisit its first element.
//! * **Pizza** (2017): the exponent space `[0, order)` is cut into `N`
//!   contiguous ranges ("slices"), each further cut into `T` sub-ranges
//!   for threads. Because exponents map to pseudorandom group elements,
//!   slicing contiguous exponent ranges loses no randomness, and start/end
//!   arithmetic is plain integer division.
//!
//! Both iterators yield raw group elements in `[1, p)`; the
//! [`generator`](crate::generator) layer maps elements to (IP, port)
//! targets.

use crate::cycle::Cycle;

/// Which sharding algorithm to use. `Pizza` is the ZMap default since 2017.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardAlgorithm {
    /// 2014 interleaved sharding (stride `N·T` through the exponents).
    Interleaved,
    /// 2017 pizza sharding (contiguous exponent ranges).
    #[default]
    Pizza,
}

/// Identifies one unit of work: shard `shard` of `num_shards` (machines),
/// subshard `subshard` of `num_subshards` (send threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Machine-level shard index, `0 ≤ shard < num_shards`.
    pub shard: u32,
    /// Total machine-level shards.
    pub num_shards: u32,
    /// Thread-level subshard index, `0 ≤ subshard < num_subshards`.
    pub subshard: u32,
    /// Send threads per machine.
    pub num_subshards: u32,
}

impl ShardSpec {
    /// A single-shard, single-thread spec (whole scan in one walk).
    pub fn whole() -> Self {
        ShardSpec {
            shard: 0,
            num_shards: 1,
            subshard: 0,
            num_subshards: 1,
        }
    }

    /// Validates index < count and nonzero counts.
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.num_shards == 0 || self.num_subshards == 0 {
            return Err(ShardError::ZeroShards);
        }
        if self.shard >= self.num_shards || self.subshard >= self.num_subshards {
            return Err(ShardError::IndexOutOfRange {
                shard: self.shard,
                num_shards: self.num_shards,
                subshard: self.subshard,
                num_subshards: self.num_subshards,
            });
        }
        Ok(())
    }

    /// The number of lanes, `num_shards · num_subshards`.
    ///
    /// Interleaved sharding subdivides shard `n` into subshards offset by
    /// `n + t·N` (paper §4.2), i.e. lane = subshard-major; pizza sharding
    /// slices shard `n`'s range into `T` consecutive sub-ranges, i.e.
    /// lane = shard-major. Each algorithm uses its own flattening.
    pub(crate) fn lanes(&self) -> u64 {
        self.num_shards as u64 * self.num_subshards as u64
    }

    /// The subshard-major lane index `shard + subshard · num_shards`.
    pub(crate) fn lane(&self) -> u64 {
        self.shard as u64 + self.subshard as u64 * self.num_shards as u64
    }
}

/// Errors validating a [`ShardSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `num_shards` or `num_subshards` was zero.
    ZeroShards,
    /// An index was not below its count.
    IndexOutOfRange {
        shard: u32,
        num_shards: u32,
        subshard: u32,
        num_subshards: u32,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "shard/subshard counts must be nonzero"),
            ShardError::IndexOutOfRange {
                shard,
                num_shards,
                subshard,
                num_subshards,
            } => write!(
                f,
                "shard {shard}/{num_shards} subshard {subshard}/{num_subshards} out of range"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Iterator over the group elements assigned to one (sub)shard.
///
/// Yields elements of `[1, p)` in walk order; the exact subset and order
/// depend on the algorithm. The iterator is exact-size.
#[derive(Debug, Clone)]
pub struct ShardIter<'a> {
    cycle: &'a Cycle,
    /// Current element (next to yield), already offset by the cycle start.
    current: u64,
    /// Multiplier applied between yields (g for pizza, g^(N·T) interleaved).
    step: u64,
    /// `step`'s Shoup quotient, so a walk step multiplies without dividing.
    step_w: u64,
    /// Elements remaining.
    remaining: u64,
    /// Elements yielded (or skipped via [`ShardIter::fast_forward`]) so
    /// far — the checkpointable walk position within this (sub)shard.
    consumed: u64,
}

impl<'a> ShardIter<'a> {
    /// Creates the iterator for `spec` under `algorithm`.
    ///
    /// # Errors
    /// Returns `Err` if the spec is invalid.
    pub fn new(
        cycle: &'a Cycle,
        spec: ShardSpec,
        algorithm: ShardAlgorithm,
    ) -> Result<Self, ShardError> {
        spec.validate()?;
        let order = cycle.group().order();
        Ok(match algorithm {
            ShardAlgorithm::Interleaved => {
                // Lane l = shard + subshard·N starts at exponent l and
                // strides by N·T. Elements assigned: exponents ≡ l (mod
                // N·T) within [0, order). Count = ⌈(order − l) / (N·T)⌉
                // when l < order, else 0 — the closed form the paper calls
                // "prone to off-by-one errors"; property tests pin it.
                let lanes = spec.lanes();
                let lane = spec.lane();
                let remaining = if lane < order {
                    (order - lane).div_ceil(lanes)
                } else {
                    0
                };
                ShardIter::at(cycle, cycle.element_at_position(lane), cycle.stride(lanes), remaining)
            }
            ShardAlgorithm::Pizza => {
                // Shard n covers exponents [n·order/N, (n+1)·order/N);
                // subshard t covers the t-th slice of that range. Plain
                // integer division; remainders fall into later slices'
                // boundaries naturally.
                let n = spec.shard as u64;
                let nn = spec.num_shards as u64;
                let t = spec.subshard as u64;
                let tt = spec.num_subshards as u64;
                // 128-bit intermediates: order can be 2^48 and n up to 2^32.
                let shard_lo = (order as u128 * n as u128 / nn as u128) as u64;
                let shard_hi = (order as u128 * (n as u128 + 1) / nn as u128) as u64;
                let span = shard_hi - shard_lo;
                let lo = shard_lo + (span as u128 * t as u128 / tt as u128) as u64;
                let hi = shard_lo + (span as u128 * (t as u128 + 1) / tt as u128) as u64;
                ShardIter::at(cycle, cycle.element_at_position(lo), cycle.generator(), hi - lo)
            }
        })
    }

    /// A walk from `current` by `step`, with `remaining` elements to go.
    fn at(cycle: &'a Cycle, current: u64, step: u64, remaining: u64) -> Self {
        ShardIter {
            cycle,
            current,
            step,
            step_w: zmap_math::shoup_quotient(step, cycle.group().prime()),
            remaining,
            consumed: 0,
        }
    }

    /// Elements left to yield.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Elements consumed so far: yields plus fast-forwarded skips. This
    /// is the position a checkpoint journal records for this (sub)shard.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Skips the next `min(k, remaining)` elements in O(log k) — one
    /// modular exponentiation instead of k walk steps — and returns how
    /// many were skipped. Scan resumption re-enters a recorded walk
    /// position with this.
    pub fn fast_forward(&mut self, k: u64) -> u64 {
        let k = k.min(self.remaining);
        if k > 0 {
            let p = self.cycle.group().prime();
            self.current = zmap_math::modmul(self.current, zmap_math::modpow(self.step, k, p), p);
            self.remaining -= k;
            self.consumed += k;
        }
        k
    }
}

impl Iterator for ShardIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.consumed += 1;
        let out = self.current;
        let p = self.cycle.group().prime();
        self.current = zmap_math::modmul_shoup(self.current, self.step, self.step_w, p);
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::CyclicGroup;
    use std::collections::HashSet;

    fn cycle(seed: u64) -> Cycle {
        Cycle::new(CyclicGroup::new(257).unwrap(), seed)
    }

    fn collect_all(c: &Cycle, n: u32, t: u32, alg: ShardAlgorithm) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for shard in 0..n {
            for sub in 0..t {
                let spec = ShardSpec {
                    shard,
                    num_shards: n,
                    subshard: sub,
                    num_subshards: t,
                };
                out.push(ShardIter::new(c, spec, alg).unwrap().collect());
            }
        }
        out
    }

    fn assert_partition(c: &Cycle, parts: &[Vec<u64>]) {
        let order = c.group().order();
        let mut union = HashSet::new();
        let mut total = 0u64;
        for p in parts {
            for &x in p {
                assert!(x >= 1 && x < c.group().prime(), "{x} outside group");
                assert!(union.insert(x), "element {x} in two shards");
                total += 1;
            }
        }
        assert_eq!(total, order, "shards must cover the whole group");
    }

    #[test]
    fn pizza_partitions_exactly() {
        let c = cycle(11);
        for (n, t) in [(1, 1), (2, 1), (3, 2), (5, 3), (7, 4), (256, 1), (1, 256)] {
            let parts = collect_all(&c, n, t, ShardAlgorithm::Pizza);
            assert_partition(&c, &parts);
        }
    }

    #[test]
    fn interleaved_partitions_exactly() {
        let c = cycle(12);
        for (n, t) in [(1, 1), (2, 1), (3, 2), (5, 3), (7, 4), (16, 16), (255, 1)] {
            let parts = collect_all(&c, n, t, ShardAlgorithm::Interleaved);
            assert_partition(&c, &parts);
        }
    }

    #[test]
    fn non_dividing_shard_counts() {
        // order = 256; 3, 5, 7 do not divide it — the historical bug zone.
        let c = cycle(13);
        for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
            for n in [3u32, 5, 7, 11, 100, 200, 300] {
                let parts = collect_all(&c, n, 1, alg);
                assert_partition(&c, &parts);
            }
        }
    }

    #[test]
    fn more_shards_than_elements() {
        // 300 shards over a 256-element group: some shards must be empty,
        // union must still be exact.
        let c = cycle(14);
        let parts = collect_all(&c, 300, 1, ShardAlgorithm::Pizza);
        assert_partition(&c, &parts);
        assert!(parts.iter().any(|p| p.is_empty()));
        let parts = collect_all(&c, 300, 1, ShardAlgorithm::Interleaved);
        assert_partition(&c, &parts);
    }

    #[test]
    fn interleaved_exponent_structure() {
        // Shard n of N (single thread) must visit exponents n, n+N, …
        let c = cycle(15);
        let spec = ShardSpec {
            shard: 2,
            num_shards: 5,
            subshard: 0,
            num_subshards: 1,
        };
        let got: Vec<u64> = ShardIter::new(&c, spec, ShardAlgorithm::Interleaved)
            .unwrap()
            .collect();
        let want: Vec<u64> = (0..)
            .map(|k| 2 + 5 * k)
            .take_while(|&e| e < c.group().order())
            .map(|e| c.element_at_position(e))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pizza_exponent_structure() {
        // Shard ranges must be contiguous in exponent space.
        let c = cycle(16);
        let spec = ShardSpec {
            shard: 1,
            num_shards: 4,
            subshard: 0,
            num_subshards: 1,
        };
        let got: Vec<u64> = ShardIter::new(&c, spec, ShardAlgorithm::Pizza)
            .unwrap()
            .collect();
        let want: Vec<u64> = (64..128).map(|e| c.element_at_position(e)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn size_hint_is_exact() {
        let c = cycle(17);
        let spec = ShardSpec {
            shard: 0,
            num_shards: 3,
            subshard: 1,
            num_subshards: 2,
        };
        for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
            let it = ShardIter::new(&c, spec, alg).unwrap();
            let (lo, hi) = it.size_hint();
            let n = it.count();
            assert_eq!(lo, n);
            assert_eq!(hi, Some(n));
        }
    }

    #[test]
    fn fast_forward_matches_stepping() {
        let c = cycle(19);
        for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
            for skip in [0u64, 1, 7, 40, 85, 86, 1000] {
                let spec = ShardSpec {
                    shard: 1,
                    num_shards: 3,
                    subshard: 0,
                    num_subshards: 1,
                };
                let mut stepped = ShardIter::new(&c, spec, alg).unwrap();
                let total = stepped.remaining();
                for _ in 0..skip.min(total) {
                    stepped.next();
                }
                let mut jumped = ShardIter::new(&c, spec, alg).unwrap();
                let skipped = jumped.fast_forward(skip);
                assert_eq!(skipped, skip.min(total));
                assert_eq!(jumped.consumed(), stepped.consumed());
                assert_eq!(jumped.remaining(), stepped.remaining());
                let a: Vec<u64> = stepped.collect();
                let b: Vec<u64> = jumped.collect();
                assert_eq!(a, b, "alg {alg:?} skip {skip}");
            }
        }
    }

    #[test]
    fn consumed_tracks_yields() {
        let c = cycle(20);
        let mut it = ShardIter::new(&c, ShardSpec::whole(), ShardAlgorithm::Pizza).unwrap();
        assert_eq!(it.consumed(), 0);
        it.next();
        it.next();
        assert_eq!(it.consumed(), 2);
        it.fast_forward(3);
        assert_eq!(it.consumed(), 5);
        assert_eq!(it.remaining(), 256 - 5);
    }

    #[test]
    fn invalid_specs_rejected() {
        let c = cycle(18);
        let bad = ShardSpec {
            shard: 3,
            num_shards: 3,
            subshard: 0,
            num_subshards: 1,
        };
        assert!(ShardIter::new(&c, bad, ShardAlgorithm::Pizza).is_err());
        let zero = ShardSpec {
            shard: 0,
            num_shards: 0,
            subshard: 0,
            num_subshards: 1,
        };
        assert_eq!(
            ShardIter::new(&c, zero, ShardAlgorithm::Pizza).unwrap_err(),
            ShardError::ZeroShards
        );
    }

    #[test]
    fn every_ladder_walk_steps_as_modmul_does() {
        // Each lane from its first element, stepped by `modmul` (the
        // division-based product): the whole walk up to 2^17 steps, so
        // the two smallest groups are walked to the end.
        for p in crate::group::GROUP_MODULI {
            let c = Cycle::new(CyclicGroup::new(p).unwrap(), p ^ 0x5EED);
            for (n, t) in [(1u32, 1u32), (3, 2)] {
                for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
                    let step = match alg {
                        ShardAlgorithm::Interleaved => c.stride(u64::from(n * t)),
                        ShardAlgorithm::Pizza => c.generator(),
                    };
                    for shard in 0..n {
                        for subshard in 0..t {
                            let spec = ShardSpec {
                                shard,
                                num_shards: n,
                                subshard,
                                num_subshards: t,
                            };
                            let mut it = ShardIter::new(&c, spec, alg).unwrap();
                            let mut want = it.current;
                            for k in 0..it.remaining().min(1 << 17) {
                                assert_eq!(it.next(), Some(want), "p {p} {alg:?} {spec:?} step {k}");
                                want = zmap_math::modmul(want, step, p);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_group_pizza_boundaries_do_not_overflow() {
        // 2^48 group with u32::MAX shards exercises the 128-bit boundary
        // arithmetic.
        let g = CyclicGroup::new((1u64 << 48) + 21).unwrap();
        let c = Cycle::new(g, 1);
        let spec = ShardSpec {
            shard: u32::MAX - 1,
            num_shards: u32::MAX,
            subshard: 0,
            num_subshards: 1,
        };
        let mut it = ShardIter::new(&c, spec, ShardAlgorithm::Pizza).unwrap();
        assert!(it.remaining() >= 65_535); // ~order/2^32
        let first = it.next().unwrap();
        assert!(first >= 1 && first < c.group().prime());
    }
}
