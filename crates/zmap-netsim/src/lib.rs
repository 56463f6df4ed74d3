#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! A deterministic, procedurally generated model of the IPv4 Internet for
//! evaluating Internet-wide scanners.
//!
//! The paper's experiments ran against the real Internet; this crate is
//! the substitution (see DESIGN.md): a ground-truth host population whose
//! behavior reproduces the phenomena the paper measures —
//!
//! * hosts whose SYN filters drop optionless probes (Figure 7's 1.5–2.0%
//!   hit-rate gap), including a tiny picky tail that wants exact OS
//!   option orderings,
//! * "blowback" hosts that repeat responses tens to thousands of times
//!   (the Figure 5 dedup driver),
//! * transient per-path loss such that a single-probe scan misses ≈2.7%
//!   of responsive hosts (§3, Wan et al.), partially *correlated* per
//!   (vantage, prefix) so retries from one vantage recover less than
//!   scanning from a second vantage,
//! * per-prefix SYN rate limiting that penalizes bursty probe orders
//!   (the Masscan-vs-ZMap §3 comparison),
//! * port/service structure and geographic structure for the telescope
//!   figures.
//!
//! Determinism: every behavior is a pure function of `(world seed, ip)` —
//! a 2^32 population costs no memory — plus explicit event-queue state
//! for scheduled responses.

pub mod banner;
pub mod blowback;
pub mod faults;
pub mod geo;
pub mod loss;
pub mod population;
pub mod profile;
mod queue;
pub mod ratelimit;
pub mod responder;
mod rx;
pub mod services;
pub mod v6;
pub mod world;

pub use faults::{FaultPlan, SendError, WorkerFault, WorkerFaultKind, WorkerFaultPlan};
pub use geo::Country;
pub use profile::{HostProfile, OptionSensitivity, StackOs};
pub use rx::RxBatch;
pub use services::ServiceModel;
pub use v6::V6Population;
pub use world::{Admitted, EndpointId, Nic, World, WorldConfig};

/// Nanoseconds per second, the simulator's clock unit.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// A deterministic hash of (seed, ip, salt) → u64, the root of all
/// procedural generation. Thin wrapper over the wire crate's SipHash.
#[inline]
pub fn hash3(seed: u64, ip: u32, salt: u64) -> u64 {
    // The 12-byte message `ip_be ‖ salt_le` packs into exactly two
    // SipHash blocks: bytes 0..8 are `ip_be ‖ salt_le[0..4]`, and the
    // padded final block carries `salt_le[4..8]` plus the length byte
    // (12) on top. Same output as hashing the byte slice, without the
    // slice loop — this runs several times per simulated frame.
    let m0 = u64::from(ip.swap_bytes()) | ((salt & 0xFFFF_FFFF) << 32);
    let m1 = (salt >> 32) | (12u64 << 56);
    zmap_wire::cookie::siphash24_2w(seed, 0x7A6D_6170_6E65_7473, m0, m1)
}

/// Uniform f64 in [0, 1) from a hash value.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// `unit(hash3(seed, ip, salt)) < p`, the shape of every coin the world
/// flips. `unit` is in [0, 1), so `p <= 0` never holds and `p >= 1`
/// always does: either way the hash is skipped.
#[inline]
pub fn below(seed: u64, ip: u32, salt: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    p >= 1.0 || unit(hash3(seed, ip, salt)) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash3_is_deterministic_and_sensitive() {
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(1, 2, 4));
        assert_ne!(hash3(1, 2, 3), hash3(1, 3, 3));
        assert_ne!(hash3(1, 2, 3), hash3(2, 2, 3));
    }

    #[test]
    fn hash3_packed_blocks_match_slice_siphash() {
        // The two-block fast path must agree with a plain SipHash over
        // the documented 12-byte message for arbitrary (seed, ip, salt),
        // including salts using all 64 bits (the jitter salt XORs in a
        // full timestamp).
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let seed = next();
            let ip = next() as u32;
            let salt = next();
            let mut data = [0u8; 12];
            data[0..4].copy_from_slice(&ip.to_be_bytes());
            data[4..12].copy_from_slice(&salt.to_le_bytes());
            assert_eq!(
                hash3(seed, ip, salt),
                zmap_wire::cookie::siphash24(seed, 0x7A6D_6170_6E65_7473, &data),
                "seed={seed:#x} ip={ip:#x} salt={salt:#x}"
            );
        }
    }

    #[test]
    fn unit_is_in_range_and_spread() {
        let mut lo = false;
        let mut hi = false;
        for i in 0..1000u32 {
            let u = unit(hash3(7, i, 0));
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi, "values must spread across [0,1)");
    }
}
