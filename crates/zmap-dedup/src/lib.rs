#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Response deduplication (paper §4.1, "Response Deduplication").
//!
//! Hosts frequently send repeated responses — some aggressively re-answer
//! tens of thousands of times ("blowback", Goldblatt et al.). ZMap
//! originally filtered duplicates with a paged 2^32-bit bitmap (512 MB,
//! exact), but the multiport (IP, port) space is 48 bits — a full bitmap
//! would take 35 TB. ZMap therefore switched to a *sliding window* of the
//! last n responses (upstream backs it with a Judy array); a window of
//! 10^6 entries (the ZMap default) empirically removes nearly all
//! duplicates (Figure 5).
//!
//! This crate provides both structures:
//!
//! * [`PagedBitmap`] — the exact, single-port-era structure,
//! * [`SlidingWindow`] — the modern FIFO window deduplicator. The window
//!   semantics are the reproduction; its ring is found through a private
//!   open-addressed index of ring positions (`table.rs`) where upstream
//!   uses a Judy array (DESIGN.md §1 says why).
//!
//! Both implement [`Deduplicator`]. [`FifoMap`] is the window's shape
//! with a value beside each key in the ring, and holds the engine's
//! sampled RTT stamps (DESIGN.md §5).

pub mod bitmap;
mod table;
pub mod window;

pub use bitmap::PagedBitmap;
pub use window::{FifoMap, SlidingWindow};

/// Packs an (IPv4, port) target into the 48-bit dedup key space.
#[inline]
pub fn target_key(ip: u32, port: u16) -> u64 {
    (u64::from(ip) << 16) | u64::from(port)
}

/// Unpacks a dedup key back into (IPv4, port).
#[inline]
pub fn key_target(key: u64) -> (u32, u16) {
    ((key >> 16) as u32, key as u16)
}

/// Common interface: `observe` returns `true` when the key is *fresh*
/// (first sighting within the structure's memory) and `false` when it is
/// a duplicate that should be suppressed.
pub trait Deduplicator {
    /// Records a response key; returns whether it should be kept.
    fn observe(&mut self, key: u64) -> bool;

    /// Bytes of memory the structure currently occupies (approximate,
    /// for the paper's 512 MB / 35 TB accounting).
    fn memory_bytes(&self) -> u64;
}

/// Bytes an exact bitmap over `bits` positions would need — the paper's
/// "extending to 48 bits would require 35 TB" arithmetic.
pub fn exact_bitmap_bytes(bits: u64) -> u64 {
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for (ip, port) in [(0u32, 0u16), (u32::MAX, u16::MAX), (0x08080808, 443)] {
            assert_eq!(key_target(target_key(ip, port)), (ip, port));
        }
    }

    #[test]
    fn key_is_injective_across_port_boundary() {
        // (ip=1, port=0) must differ from (ip=0, port high bit tricks).
        assert_ne!(target_key(1, 0), target_key(0, u16::MAX));
        assert_eq!(target_key(1, 0), 1 << 16);
    }

    #[test]
    fn paper_memory_arithmetic() {
        // 2^32 bits = 512 MB.
        assert_eq!(exact_bitmap_bytes(1 << 32), 512 * 1024 * 1024);
        // 2^48 bits = 32 TiB ≈ "35 TB" in SI units (3.5e13 bytes).
        let bytes48 = exact_bitmap_bytes(1 << 48);
        assert_eq!(bytes48, 1u64 << 45);
        let tb = bytes48 as f64 / 1e12;
        assert!((tb - 35.18).abs() < 0.1, "{tb} TB");
    }
}
