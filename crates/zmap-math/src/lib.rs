#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Number-theoretic primitives backing ZMap's pseudorandom address generation.
//!
//! ZMap iterates over the multiplicative group (ℤ/pℤ)^× of a prime p slightly
//! larger than the number of scan targets. Walking the group from a random
//! primitive root visits every element exactly once in a pseudorandom order,
//! with O(1) state per sending thread. This crate provides the arithmetic
//! that makes that possible:
//!
//! * [`modmul`] / [`modpow`] — overflow-safe modular arithmetic on `u64`
//!   via `u128` intermediates,
//! * [`is_prime`] — deterministic Miller–Rabin for all 64-bit integers,
//! * [`factor`] / [`factorization`] — Pollard's rho factorization,
//! * [`primroot`] — both primitive-root-search algorithms ZMap has used:
//!   the 2013 additive-group mapping and the 2024 factor-(p−1) check
//!   (paper §4.1, "Identifying Generators").

pub mod factorize;
pub mod modular;
pub mod prime;
pub mod primroot;

pub use factorize::{factor, factorization, Factorization};
pub use modular::{gcd, modinv, modmul, modpow};
pub use prime::{is_prime, next_prime};
pub use primroot::{
    find_generator_2013, find_generator_2024, is_primitive_root, GeneratorSearch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        assert!(is_prime(65537));
        assert_eq!(modpow(3, 65536, 65537), 1);
        let f = factorization(65536);
        assert_eq!(f.distinct_primes(), vec![2]);
    }
}
