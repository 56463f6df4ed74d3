//! Overflow-safe modular arithmetic on `u64`.
//!
//! ZMap's largest group modulus is 2^48 + 21, so products of two group
//! elements can exceed 2^64. All multiplication routes through `u128`,
//! which compiles to a single widening multiply on 64-bit targets; the
//! reduction in [`modmul`] is a 128-bit division, so a walk, which
//! multiplies by one fixed step millions of times, uses
//! [`modmul_shoup`] instead.

/// Modular multiplication: `(a * b) mod m` without overflow.
///
/// # Panics
/// Panics if `m == 0`.
#[inline]
pub fn modmul(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Shoup's precomputed quotient for multiplying by the fixed `b` modulo
/// `p`: `⌊b · 2^64 / p⌋`, the one division [`modmul_shoup`] needs.
/// Requires `b < p`.
#[inline]
pub fn shoup_quotient(b: u64, p: u64) -> u64 {
    (((b as u128) << 64) / p as u128) as u64
}

/// `(a * b) mod p` by Shoup's fixed-multiplier product, with no division:
/// `w = shoup_quotient(b, p)` estimates the quotient `q = ⌊a · w / 2^64⌋`,
/// which is at most one short, so `a·b − q·p` lies in `[0, 2p)` and one
/// conditional subtract finishes it. Exact for any `a`, `b < p` and
/// `p < 2^63` (so that `2p` fits the wrapping arithmetic).
#[inline]
pub fn modmul_shoup(a: u64, b: u64, w: u64, p: u64) -> u64 {
    let q = ((a as u128 * w as u128) >> 64) as u64;
    let r = a.wrapping_mul(b).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        r - p
    } else {
        r
    }
}

/// Modular addition: `(a + b) mod m` without overflow.
#[inline]
pub fn modadd(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 + b as u128) % m as u128) as u64
}

/// Modular exponentiation by square-and-multiply: `base^exp mod m`.
///
/// Runs in O(log exp) multiplications. `modpow(x, 0, m) == 1 % m` by
/// convention (including `0^0`).
///
/// # Panics
/// Panics if `m == 0`.
pub fn modpow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = modmul(acc, base, m);
        }
        exp >>= 1;
        base = modmul(base, base, m);
    }
    acc
}

/// Greatest common divisor (binary-free Euclid; the compiler emits fast
/// division on modern targets and inputs here are at most 49 bits).
pub const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Modular inverse of `a` modulo `m` via the extended Euclidean algorithm.
///
/// Returns `None` when `gcd(a, m) != 1` (no inverse exists).
pub fn modinv(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        let tr = old_r - q * r;
        old_r = r;
        r = tr;
        let ts = old_s - q * s;
        old_s = s;
        s = ts;
    }
    if old_r != 1 {
        return None; // not coprime
    }
    let mut inv = old_s % m as i128;
    if inv < 0 {
        inv += m as i128;
    }
    Some(inv as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P48: u64 = 281_474_976_710_677; // 2^48 + 21

    #[test]
    fn modmul_matches_small_cases() {
        assert_eq!(modmul(7, 8, 5), 1);
        assert_eq!(modmul(0, 123, 7), 0);
        assert_eq!(modmul(u64::MAX, u64::MAX, u64::MAX), 0);
    }

    #[test]
    fn modmul_no_overflow_on_large_operands() {
        // (p-1)^2 mod p == 1 for any modulus p > 1.
        assert_eq!(modmul(P48 - 1, P48 - 1, P48), 1);
        assert_eq!(modmul(u64::MAX - 1, u64::MAX - 1, u64::MAX), 1);
    }

    /// The ladder of group moduli (`zmap-targets`' `GROUP_MODULI`).
    const LADDER: [u64; 6] = [
        (1 << 8) + 1,
        (1 << 16) + 1,
        (1 << 24) + 43,
        (1 << 32) + 15,
        (1 << 40) + 15,
        (1 << 48) + 21,
    ];

    #[test]
    fn modmul_shoup_matches_modmul_at_each_ladder_prime() {
        for p in LADDER {
            for b in [1, 2, p - 1] {
                let w = shoup_quotient(b, p);
                for a in [1, 2, p - 1] {
                    assert_eq!(modmul_shoup(a, b, w, p), modmul(a, b, p), "{a}·{b} mod {p}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn modmul_shoup_matches_modmul(p in 2u64..1 << 49, a in 0u64..1 << 49, b in 0u64..1 << 49) {
            let (a, b) = (a % p, b % p);
            proptest::prop_assert_eq!(modmul_shoup(a, b, shoup_quotient(b, p), p), modmul(a, b, p));
        }
    }

    #[test]
    fn modadd_wraps() {
        assert_eq!(modadd(u64::MAX, u64::MAX, u64::MAX), 0);
        assert_eq!(modadd(3, 4, 5), 2);
    }

    #[test]
    fn modpow_basics() {
        assert_eq!(modpow(2, 10, 1_000_000), 1024);
        assert_eq!(modpow(5, 0, 13), 1);
        assert_eq!(modpow(0, 0, 13), 1);
        assert_eq!(modpow(0, 5, 13), 0);
        assert_eq!(modpow(10, 10, 1), 0);
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // a^(p-1) = 1 mod p for prime p and a not divisible by p.
        for a in [2u64, 3, 5, 1_234_567] {
            assert_eq!(modpow(a, P48 - 1, P48), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be nonzero")]
    fn modpow_zero_modulus_panics() {
        modpow(2, 2, 0);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn modinv_roundtrip() {
        for a in [2u64, 3, 65_536, 123_456_789] {
            let inv = modinv(a, P48).expect("coprime");
            assert_eq!(modmul(a, inv, P48), 1);
        }
    }

    #[test]
    fn modinv_not_coprime_is_none() {
        assert_eq!(modinv(6, 9), None);
        assert_eq!(modinv(0, 9), None);
        assert_eq!(modinv(5, 0), None);
    }
}
