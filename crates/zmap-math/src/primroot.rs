//! Primitive-root search: both algorithms ZMap has shipped (paper §4.1).
//!
//! A fresh scan permutation needs a *random* generator (primitive root) of
//! (ℤ/pℤ)^×.
//!
//! **2013 algorithm** ([`find_generator_2013`]): draw random integers
//! `e ∈ [1, p−1)` until `gcd(e, p−1) = 1` — such an `e` generates the
//! *additive* group (ℤ_{p−1}, +) — then map it through the isomorphism
//! `e ↦ γ^e mod p` (for a fixed known primitive root γ) into a random
//! generator of the multiplicative group. Since φ(p−1)/(p−1) ≈ 1/4 for
//! ZMap's moduli, this takes ~4 draws on average. The catch: the resulting
//! generator lands *anywhere* in `[1, p)`, which is fine when `p ≈ 2^32`
//! (any element is safe to multiply in 64-bit arithmetic) but useless for
//! the 2^48 multiport group, where the generator must be `< 2^16` to keep
//! `g · x` inside a `u64` — only a 1/2^32 fraction of candidates qualify.
//!
//! **2024 algorithm** ([`find_generator_2024`]): draw random candidates
//! `g ∈ [2, bound)` directly and accept `g` iff
//! `g^((p−1)/kᵢ) mod p ≠ 1` for every distinct prime `kᵢ | p−1`. This is
//! the classical primitive-root test and also averages ~4 attempts, but the
//! candidate *starts* inside the safe range, so it works for every group.

use crate::factorize::Factorization;
use crate::modular::{gcd, modpow};
use rand::Rng;

/// Result of a generator search: the generator plus how many candidate
/// draws were needed (the paper reports ~4 on average for both algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorSearch {
    /// A primitive root of (ℤ/pℤ)^×.
    pub generator: u64,
    /// Number of random candidates examined, including the accepted one.
    pub attempts: u32,
}

/// Tests whether `g` is a primitive root of (ℤ/pℤ)^× given the
/// factorization of the group order `p − 1`.
///
/// `g` generates the full group iff its order is exactly `p − 1`, which
/// holds iff `g^((p−1)/k) ≠ 1 (mod p)` for every distinct prime `k | p−1`.
pub fn is_primitive_root(g: u64, p: u64, order_fact: &Factorization) -> bool {
    debug_assert_eq!(order_fact.n(), p - 1, "factorization must be of p-1");
    if g % p <= 1 {
        // 0 and 1 never generate; g ≡ 0 is not even a group element.
        return false;
    }
    order_fact
        .factors()
        .iter()
        .all(|&(k, _)| modpow(g, (p - 1) / k, p) != 1)
}

/// The smallest primitive root of (ℤ/pℤ)^× — the fixed "known generator" γ
/// that the 2013 algorithm maps exponents through.
///
/// # Panics
/// Panics if `p` is not prime, or `order_fact` is not the factorization
/// of `p − 1`: every prime has a primitive root below it.
#[expect(clippy::expect_used)]
pub fn smallest_primitive_root(p: u64, order_fact: &Factorization) -> u64 {
    (2..p)
        .find(|&g| is_primitive_root(g, p, order_fact))
        .expect("every prime has a primitive root")
}

/// 2013 algorithm: random additive generator mapped into the
/// multiplicative group (see module docs).
///
/// `known_root` must be a primitive root of p (e.g. from
/// [`smallest_primitive_root`]). If `bound` is `Some(b)`, candidates whose
/// image is ≥ `b` are rejected and redrawn — this models the constraint
/// that doomed the algorithm for the 2^48 group. Returns `None` if no
/// acceptable generator is found within `max_attempts`.
pub fn find_generator_2013<R: Rng + ?Sized>(
    p: u64,
    order_fact: &Factorization,
    known_root: u64,
    bound: Option<u64>,
    max_attempts: u32,
    rng: &mut R,
) -> Option<GeneratorSearch> {
    debug_assert!(is_primitive_root(known_root, p, order_fact));
    let order = p - 1;
    let mut attempts = 0;
    while attempts < max_attempts {
        attempts += 1;
        let e = rng.gen_range(1..order);
        if gcd(e, order) != 1 {
            continue; // not an additive generator
        }
        let g = modpow(known_root, e, p);
        if let Some(b) = bound {
            if g >= b {
                continue; // image outside the arithmetic-safe range
            }
        }
        return Some(GeneratorSearch {
            generator: g,
            attempts,
        });
    }
    None
}

/// 2024 algorithm: draw candidates inside the safe range and test with the
/// factorization of p − 1 (see module docs).
///
/// `bound` is exclusive; ZMap uses `2^16` so that `g · x` for any group
/// element `x < 2^48` stays within 64 bits. Returns `None` only if
/// `max_attempts` is exhausted (vanishingly unlikely for real groups, where
/// roughly a quarter of candidates are primitive roots).
pub fn find_generator_2024<R: Rng + ?Sized>(
    p: u64,
    order_fact: &Factorization,
    bound: u64,
    max_attempts: u32,
    rng: &mut R,
) -> Option<GeneratorSearch> {
    assert!(bound > 2, "candidate range [2, bound) must be nonempty");
    let hi = bound.min(p);
    let mut attempts = 0;
    while attempts < max_attempts {
        attempts += 1;
        let g = rng.gen_range(2..hi);
        if is_primitive_root(g, p, order_fact) {
            return Some(GeneratorSearch {
                generator: g,
                attempts,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::factorization;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x5A4D4150) // "ZMAP"
    }

    #[test]
    fn known_roots_of_small_primes() {
        // Classical table values: smallest primitive roots.
        for (p, root) in [(3u64, 2u64), (5, 2), (7, 3), (11, 2), (13, 2), (23, 5), (41, 6)] {
            let f = factorization(p - 1);
            assert_eq!(smallest_primitive_root(p, &f), root, "p={p}");
        }
    }

    #[test]
    fn primitive_root_test_is_exact_for_p_257() {
        // Brute force: g is a generator iff its powers hit all 256 elements.
        let p = 257u64;
        let f = factorization(p - 1);
        for g in 2..p {
            let mut seen = [false; 257];
            let mut x = 1u64;
            let mut count = 0;
            loop {
                x = (x * g) % p;
                if seen[x as usize] {
                    break;
                }
                seen[x as usize] = true;
                count += 1;
            }
            let brute = count == p - 1;
            assert_eq!(is_primitive_root(g, p, &f), brute, "g={g}");
        }
    }

    #[test]
    fn zero_and_one_are_never_roots() {
        let f = factorization(65536);
        assert!(!is_primitive_root(0, 65537, &f));
        assert!(!is_primitive_root(1, 65537, &f));
        assert!(!is_primitive_root(65537, 65537, &f)); // ≡ 0
    }

    #[test]
    fn alg_2024_finds_small_generator_of_48bit_group() {
        let p = (1u64 << 48) + 21;
        let f = factorization(p - 1);
        let mut r = rng();
        let got = find_generator_2024(p, &f, 1 << 16, 1000, &mut r).unwrap();
        assert!(got.generator >= 2 && got.generator < (1 << 16));
        assert!(is_primitive_root(got.generator, p, &f));
    }

    #[test]
    fn alg_2024_attempt_count_is_near_four() {
        let p = (1u64 << 32) + 15;
        let f = factorization(p - 1);
        let mut r = rng();
        let trials = 400;
        let total: u64 = (0..trials)
            .map(|_| {
                find_generator_2024(p, &f, 1 << 16, 10_000, &mut r)
                    .unwrap()
                    .attempts as u64
            })
            .sum();
        let mean = total as f64 / trials as f64;
        // φ(p−1)/(p−1) ≈ 0.242 for this p ⇒ geometric mean ≈ 4.1.
        assert!(mean > 2.5 && mean < 6.5, "mean attempts {mean}");
    }

    #[test]
    fn alg_2013_unbounded_succeeds_on_32bit_group() {
        let p = (1u64 << 32) + 15;
        let f = factorization(p - 1);
        let gamma = smallest_primitive_root(p, &f);
        let mut r = rng();
        let got = find_generator_2013(p, &f, gamma, None, 10_000, &mut r).unwrap();
        assert!(is_primitive_root(got.generator, p, &f));
    }

    #[test]
    fn alg_2013_bounded_fails_on_48bit_group() {
        // The paper's point: only ~1/2^32 of images land below 2^16, so a
        // bounded search with any reasonable attempt budget fails.
        let p = (1u64 << 48) + 21;
        let f = factorization(p - 1);
        let gamma = smallest_primitive_root(p, &f);
        let mut r = rng();
        let got = find_generator_2013(p, &f, gamma, Some(1 << 16), 5_000, &mut r);
        assert!(got.is_none(), "bounded 2013 search should exhaust attempts");
    }

    #[test]
    fn both_algorithms_agree_on_validity() {
        let p = (1 << 24) + 43;
        let f = factorization(p - 1);
        let gamma = smallest_primitive_root(p, &f);
        let mut r = rng();
        for _ in 0..50 {
            let a = find_generator_2013(p, &f, gamma, None, 1000, &mut r).unwrap();
            let b = find_generator_2024(p, &f, p, 1000, &mut r).unwrap();
            assert!(is_primitive_root(a.generator, p, &f));
            assert!(is_primitive_root(b.generator, p, &f));
        }
    }
}
