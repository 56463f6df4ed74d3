//! A per-scan pseudorandom permutation of a cyclic group.
//!
//! Each scan draws a fresh random primitive root `g` (and a random starting
//! exponent), so two scans of the same space probe targets in different
//! orders. Iteration is a single modular multiplication per target:
//! `x ← x · g mod p`.

use crate::group::CyclicGroup;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zmap_math::{find_generator_2024, modmul, modpow};

/// A concrete walk order over a [`CyclicGroup`]: generator + start offset.
#[derive(Debug, Clone)]
pub struct Cycle {
    group: CyclicGroup,
    generator: u64,
    offset: u64,
    attempts: u32,
}

impl Cycle {
    /// Derives a cycle deterministically from `seed` using the 2024
    /// generator-search algorithm (paper §4.1).
    ///
    /// The candidate bound is chosen so that `g · x` stays within `u64`
    /// for every group element `x < p` — mirroring ZMap's constraint even
    /// though our arithmetic routes through `u128` and would be safe
    /// regardless. For the 2^48 group this bound is 2^16.
    ///
    /// # Panics
    /// Panics if the generator search exhausts `u32::MAX` attempts —
    /// mathematically unreachable (φ(p−1)/(p−1) of residues generate the
    /// group, so the expected attempt count is single-digit).
    #[expect(clippy::expect_used)]
    pub fn new(group: CyclicGroup, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = group.prime();
        // Largest safe multiplier: g * (p-1) must not overflow u64.
        let bound = (u64::MAX / (p - 1)).min(p).max(3);
        let search = find_generator_2024(p, group.order_factorization(), bound, u32::MAX, &mut rng)
            .expect("generator search cannot exhaust u32::MAX attempts");
        let offset = rand::Rng::gen_range(&mut rng, 0..group.order());
        Cycle {
            group,
            generator: search.generator,
            offset,
            attempts: search.attempts,
        }
    }

    /// Builds a cycle from explicit parts (used by tests and by scan
    /// resumption, where generator/offset are recorded in scan metadata).
    ///
    /// `generator` must be a primitive root of the group's modulus;
    /// otherwise iteration would visit a strict subgroup and *silently
    /// skip targets*, so this is checked.
    pub fn from_parts(group: CyclicGroup, generator: u64, offset: u64) -> Result<Self, CycleError> {
        if !zmap_math::is_primitive_root(generator, group.prime(), group.order_factorization()) {
            return Err(CycleError::NotAGenerator(generator));
        }
        if offset >= group.order() {
            return Err(CycleError::OffsetOutOfRange(offset));
        }
        Ok(Cycle {
            group,
            generator,
            offset,
            attempts: 0,
        })
    }

    /// The underlying group.
    pub fn group(&self) -> &CyclicGroup {
        &self.group
    }

    /// The primitive root this cycle multiplies by.
    pub fn generator(&self) -> u64 {
        self.generator
    }

    /// The random starting exponent.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// How many candidates the generator search examined (≈4 on average).
    pub fn search_attempts(&self) -> u32 {
        self.attempts
    }

    /// The group element at *absolute* exponent `e`: `g^e mod p`.
    pub fn element_at(&self, e: u64) -> u64 {
        modpow(self.generator, e % self.group.order(), self.group.prime())
    }

    /// The group element at scan position `i`, i.e. exponent `offset + i`.
    pub fn element_at_position(&self, i: u64) -> u64 {
        self.element_at(self.offset.wrapping_add(i) % self.group.order())
    }

    /// One iteration step: `x · g mod p`.
    #[inline]
    pub fn step(&self, x: u64) -> u64 {
        modmul(x, self.generator, self.group.prime())
    }

    /// A stride-`k` step multiplier `g^k mod p` (used by interleaved
    /// sharding, which advances `N·T` exponents at a time).
    pub fn stride(&self, k: u64) -> u64 {
        modpow(self.generator, k % self.group.order(), self.group.prime())
    }
}

/// Errors constructing a [`Cycle`] from explicit parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleError {
    /// The provided value is not a primitive root of the group modulus.
    NotAGenerator(u64),
    /// The starting exponent is not within `[0, p-1)`.
    OffsetOutOfRange(u64),
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleError::NotAGenerator(g) => write!(f, "{g} is not a primitive root"),
            CycleError::OffsetOutOfRange(o) => write!(f, "offset {o} out of range"),
        }
    }
}

impl std::error::Error for CycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cycle(seed: u64) -> Cycle {
        Cycle::new(CyclicGroup::new(257).unwrap(), seed)
    }

    #[test]
    fn walk_visits_every_element_exactly_once() {
        let c = small_cycle(1);
        let mut seen = vec![false; 258];
        let mut x = c.element_at_position(0);
        for _ in 0..c.group().order() {
            assert!(!seen[x as usize], "element {x} repeated");
            assert!((1..257).contains(&x), "element {x} out of group");
            seen[x as usize] = true;
            x = c.step(x);
        }
        // Full cycle: back at the start.
        assert_eq!(x, c.element_at_position(0));
        assert_eq!(seen[1..257].iter().filter(|&&b| b).count(), 256);
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a = small_cycle(1);
        let b = small_cycle(2);
        let wa: Vec<u64> = (0..20).map(|i| a.element_at_position(i)).collect();
        let wb: Vec<u64> = (0..20).map(|i| b.element_at_position(i)).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = small_cycle(7);
        let b = small_cycle(7);
        assert_eq!(a.generator(), b.generator());
        assert_eq!(a.offset(), b.offset());
    }

    #[test]
    fn element_at_matches_step() {
        let c = small_cycle(3);
        let mut x = c.element_at(0);
        assert_eq!(x, 1); // g^0
        for e in 1..50u64 {
            x = c.step(x);
            assert_eq!(x, c.element_at(e), "e={e}");
        }
    }

    #[test]
    fn stride_matches_repeated_step() {
        let c = small_cycle(9);
        let s5 = c.stride(5);
        let mut x = c.element_at(0);
        for _ in 0..5 {
            x = c.step(x);
        }
        assert_eq!(x, s5);
    }

    #[test]
    fn from_parts_rejects_non_generator() {
        let g = CyclicGroup::new(257).unwrap();
        // 4 = 2^2 has order 128 < 256 in (ℤ/257ℤ)^×.
        assert_eq!(
            Cycle::from_parts(g.clone(), 4, 0).unwrap_err(),
            CycleError::NotAGenerator(4)
        );
        assert_eq!(
            Cycle::from_parts(g, 3, 256).unwrap_err(),
            CycleError::OffsetOutOfRange(256)
        );
    }

    #[test]
    fn generator_bound_respected_for_48bit_group() {
        let g = CyclicGroup::new((1u64 << 48) + 21).unwrap();
        let c = Cycle::new(g, 99);
        assert!(
            c.generator() < (1 << 17),
            "generator {} exceeds 64-bit-safe bound",
            c.generator()
        );
        // The walk must stay a valid group walk even near the modulus.
        let x = c.element_at_position(12345);
        assert!((1..(1u64 << 48) + 21).contains(&x));
    }
}
