//! Blowback scheduling: when a host repeats its responses.
//!
//! Goldblatt et al. observed hosts that aggressively re-send response
//! packets — some indefinitely. For deduplication experiments the
//! *timing* matters: duplicates that arrive within the sliding window's
//! span are suppressed, stragglers are not. We spread a host's duplicates
//! over an exponentially widening schedule (retransmit-timer-like:
//! roughly doubling gaps starting at ~1 s, capped), which is both
//! realistic and exercises the window-size/scan-rate interaction that
//! Figure 5 sweeps.

use crate::{hash3, unit};

/// Initial gap between the original response and its first duplicate.
const BASE_GAP_NS: u64 = 1_000_000_000; // 1 s
/// Cap on inter-duplicate gaps (broken stacks re-fire on a timer).
const MAX_GAP_NS: u64 = 64_000_000_000; // 64 s

/// Appends to `out` the delays (relative to the original response) at
/// which a blowback host re-sends, for `extra` duplicates. Deterministic
/// per (seed, ip).
pub fn duplicate_delays(seed: u64, ip: u32, extra: u32, out: &mut Vec<u64>) {
    let mut gap = BASE_GAP_NS;
    let mut t = 0u64;
    for i in 0..extra {
        // Jitter ±25% so duplicates from different hosts interleave.
        let j = unit(hash3(seed, ip, 0xB10B + u64::from(i)));
        let jittered = (gap as f64 * (0.75 + 0.5 * j)) as u64;
        t += jittered;
        out.push(t);
        if gap < MAX_GAP_NS {
            // Doubling backoff for the first few, then steady cadence —
            // matches the "tens of thousands over hours" tail without
            // making simulations run for simulated days.
            gap = (gap * 2).min(MAX_GAP_NS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duplicate_delays(seed: u64, ip: u32, extra: u32) -> Vec<u64> {
        let mut out = Vec::new();
        super::duplicate_delays(seed, ip, extra, &mut out);
        out
    }

    #[test]
    fn deterministic() {
        assert_eq!(duplicate_delays(1, 2, 10), duplicate_delays(1, 2, 10));
        assert_ne!(duplicate_delays(1, 2, 10), duplicate_delays(1, 3, 10));
    }

    #[test]
    fn monotone_increasing() {
        let d = duplicate_delays(5, 77, 50);
        assert_eq!(d.len(), 50);
        for w in d.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn first_duplicate_near_one_second() {
        let d = duplicate_delays(9, 1234, 1);
        assert!(d[0] >= 750_000_000 && d[0] <= 1_250_000_000, "{}", d[0]);
    }

    #[test]
    fn gaps_saturate_at_cap() {
        let d = duplicate_delays(9, 42, 30);
        let last_gap = d[29] - d[28];
        assert!(last_gap <= (MAX_GAP_NS as f64 * 1.25) as u64);
        assert!(last_gap >= (MAX_GAP_NS as f64 * 0.75) as u64);
    }

    #[test]
    fn zero_extra_is_empty() {
        assert!(duplicate_delays(1, 1, 0).is_empty());
    }
}
