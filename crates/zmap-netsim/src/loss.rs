//! Transient and correlated packet loss (§3, "Visibility and Consistency").
//!
//! Wan et al. showed a single-probe IPv4 scan misses ≈2.7% of responsive
//! HTTP(S) hosts, that a *second probe from the same vantage* recovers
//! little (losses are correlated on the path), and that 2–3 topologically
//! diverse vantages are the effective mitigation. We model per-probe loss
//! as three layers:
//!
//! 1. **vantage-path loss** — a per-(vantage, /24) coin with small
//!    probability of being a lossy path; while lossy, *all* probes on the
//!    path drop (this is what multiple probes from one vantage cannot
//!    beat, but a different vantage usually can),
//! 2. **transient loss** — independent per-packet drops,
//! 3. directional symmetry: response packets face the same transient rate.

use crate::below;

/// Loss model parameters.
#[derive(Debug, Clone, Copy)]
pub struct LossModel {
    /// Probability that a given (vantage, /24) path persistently drops
    /// during the scan (correlated component).
    pub path_loss_fraction: f64,
    /// Independent per-packet drop probability (transient component).
    pub transient: f64,
}

impl Default for LossModel {
    fn default() -> Self {
        // Calibration: single-probe miss ≈ path (2.2%) + transient (0.5%)
        // ≈ 2.7%, matching Wan et al.; a same-vantage retry only removes
        // the transient component.
        LossModel {
            path_loss_fraction: 0.022,
            transient: 0.005,
        }
    }
}

/// Lossless model for dense functional tests.
impl LossModel {
    pub const NONE: LossModel = LossModel {
        path_loss_fraction: 0.0,
        transient: 0.0,
    };

    /// Whether the (vantage, destination) path is persistently lossy.
    pub fn path_lossy(&self, seed: u64, vantage: u32, dst: u32) -> bool {
        let prefix = dst >> 8; // correlate at /24 granularity
        let salt = u64::from(vantage) | (1 << 40);
        below(seed ^ 0xD00D_F00D, prefix, salt, self.path_loss_fraction)
    }

    /// Whether the packet for `dst` stamped `at_ns` transiently drops.
    /// `dir` disambiguates the probe (0) from each response it triggers
    /// (1, 2, …). Keyed on the frame itself rather than a global send
    /// ordinal so that multi-threaded senders — whose interleave through
    /// the world is nondeterministic — draw identical loss for identical
    /// probe schedules (same invariance the response-jitter draw keeps).
    pub fn transient_drop(&self, seed: u64, dst: u32, at_ns: u64, dir: u64) -> bool {
        below(seed ^ 0x7415_0CA7, dst, at_ns ^ (dir << 41), self.transient)
    }

    /// Overall per-probe delivery probability from `vantage` to `dst`
    /// (analytic, for calibration assertions).
    pub fn delivery_prob(&self) -> f64 {
        (1.0 - self.path_loss_fraction) * (1.0 - self.transient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_is_2_7_percent() {
        let m = LossModel::default();
        let miss = 1.0 - m.delivery_prob();
        assert!((miss - 0.027).abs() < 0.002, "single-probe miss {miss}");
    }

    #[test]
    fn path_loss_is_sticky_per_vantage_prefix() {
        let m = LossModel::default();
        // Same vantage, same /24 ⇒ same verdict for all hosts in it.
        let v = 0x0A000001u32;
        for base in (0..100_000u32).step_by(256) {
            let verdict = m.path_lossy(1, v, base);
            for off in 0..8 {
                assert_eq!(m.path_lossy(1, v, base + off), verdict);
            }
        }
    }

    #[test]
    fn different_vantages_decorrelate() {
        let m = LossModel {
            path_loss_fraction: 0.05,
            transient: 0.0,
        };
        let v1 = 1u32;
        let v2 = 2u32;
        let n = 100_000u32;
        let mut lossy_v1 = 0u32;
        let mut lossy_both = 0u32;
        for p in 0..n {
            let dst = p << 8;
            let a = m.path_lossy(3, v1, dst);
            let b = m.path_lossy(3, v2, dst);
            lossy_v1 += u32::from(a);
            lossy_both += u32::from(a && b);
        }
        // P(both lossy) ≈ P(lossy)^2 if independent.
        let p1 = f64::from(lossy_v1) / f64::from(n);
        let pb = f64::from(lossy_both) / f64::from(n);
        assert!((p1 - 0.05).abs() < 0.01, "{p1}");
        assert!(pb < 0.01, "joint loss should be near 0.25%: {pb}");
    }

    #[test]
    fn transient_rate_is_calibrated() {
        let m = LossModel::default();
        let n = 400_000u64;
        let drops = (0..n)
            .filter(|&i| m.transient_drop(7, i as u32, i.wrapping_mul(10_000), 0))
            .count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.005).abs() < 0.001, "{rate}");
    }

    #[test]
    fn transient_draw_ignores_send_order() {
        // The draw is a pure function of (seed, dst, stamp, dir): no
        // hidden ordinal, so any interleave of the same probes drops the
        // same subset.
        let m = LossModel::default();
        let probes: Vec<(u32, u64)> = (0..1_000u32).map(|i| (i, u64::from(i) * 7)).collect();
        let forward: Vec<bool> = probes
            .iter()
            .map(|&(dst, at)| m.transient_drop(9, dst, at, 0))
            .collect();
        let backward: Vec<bool> = probes
            .iter()
            .rev()
            .map(|&(dst, at)| m.transient_drop(9, dst, at, 0))
            .collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert!(forward.iter().any(|&d| d), "calibrated rate finds some drop");
    }

    #[test]
    fn none_model_never_drops() {
        let m = LossModel::NONE;
        assert!(!m.path_lossy(1, 1, 1));
        assert!(!m.transient_drop(1, 1, 1, 0));
        assert_eq!(m.delivery_prob(), 1.0);
    }
}
