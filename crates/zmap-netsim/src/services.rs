//! The service/behavior mix of the simulated Internet.
//!
//! Default parameters are calibrated so scanner-side measurements land in
//! the ranges the paper reports; every knob is public so experiments can
//! sweep them. All probabilities are *conditional on the host being live*
//! unless noted.

use std::collections::BTreeMap;

/// Tunable population parameters.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Fraction of the address space that is a live, responding host.
    /// (Roughly matches the ~5% of IPv4 that answers probes at all.)
    pub live_fraction: f64,
    /// Per-port probability that a live host has the port open. Ordered,
    /// not hashed: every SYN looks its port up here.
    pub port_open: BTreeMap<u16, f64>,
    /// Open probability for ports not in the table (port diffusion: the
    /// long tail of services on unassigned ports, Izhikevich et al.).
    pub default_port_open: f64,
    /// Probability a live host answers ICMP echo.
    pub echo_reply: f64,
    /// Closed-port behavior: probability of RST (vs. silence/ICMP).
    pub rst_on_closed: f64,
    /// Closed-port probability of ICMP admin-prohibited (firewall reject).
    pub icmp_on_closed: f64,
    /// Fraction of live hosts whose SYN path drops optionless probes —
    /// the Figure 7 "no options" deficit (paper: 1.5–2.0%).
    pub requires_any_option: f64,
    /// Fraction requiring two or more TCP options (MSS alone finds
    /// >99.99% of services ⇒ this tail is ~1e-4).
    pub requires_multi_option: f64,
    /// Fraction responding only to exact OS option orderings (paper:
    /// optimal-packed finds 0.0023% fewer than OS layouts).
    pub requires_os_ordering: f64,
    /// Fraction of *responding* hosts that blow back duplicate responses
    /// (Goldblatt et al.).
    pub blowback_fraction: f64,
    /// Maximum duplicates a blowback host sends (heavy-tailed up to this).
    pub blowback_max: u32,
    /// Probability an unrouted/dead address yields an ICMP host-unreach
    /// from an upstream router.
    pub unreach_for_dead: f64,
    /// Fraction of /24 prefixes fronted by a middlebox that SYN-ACKs
    /// *every* port but carries no service — the "packed prefixes" of
    /// Sattler et al. and the reason §3 says TCP liveness does not
    /// reliably indicate service presence.
    pub middlebox_fraction: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        let mut port_open = BTreeMap::new();
        // Conditional-on-live open rates; absolute rate = live_fraction ×
        // this. Port 80 ⇒ 0.05 × 0.25 ≈ 1.2% of all IPv4, matching the
        // ~50-60M HTTP hosts ZMap-era scans report.
        for (port, p) in [
            (80u16, 0.25),
            (443, 0.28),
            (22, 0.12),
            (21, 0.035),
            (23, 0.030),
            (25, 0.030),
            (53, 0.025),
            (110, 0.015),
            (143, 0.015),
            (445, 0.030),
            (3389, 0.030),
            (5060, 0.010),
            (7547, 0.050),
            (8080, 0.080),
            (8443, 0.030),
            (8728, 0.008),
        ] {
            port_open.insert(port, p);
        }
        ServiceModel {
            live_fraction: 0.05,
            port_open,
            default_port_open: 0.002,
            echo_reply: 0.85,
            rst_on_closed: 0.70,
            icmp_on_closed: 0.05,
            requires_any_option: 0.018,
            requires_multi_option: 1.0e-4,
            requires_os_ordering: 2.3e-5,
            blowback_fraction: 1.0e-3,
            blowback_max: 8192,
            unreach_for_dead: 0.02,
            middlebox_fraction: 2.0e-3,
        }
    }
}

impl ServiceModel {
    /// A dense model for small-prefix tests: every address live, the
    /// given ports open with probability 1.
    pub fn dense(ports: &[u16]) -> Self {
        let mut m = ServiceModel {
            live_fraction: 1.0,
            default_port_open: 0.0,
            echo_reply: 1.0,
            rst_on_closed: 1.0,
            icmp_on_closed: 0.0,
            requires_any_option: 0.0,
            requires_multi_option: 0.0,
            requires_os_ordering: 0.0,
            blowback_fraction: 0.0,
            blowback_max: 0,
            unreach_for_dead: 0.0,
            middlebox_fraction: 0.0,
            port_open: BTreeMap::new(),
        };
        for &p in ports {
            m.port_open.insert(p, 1.0);
        }
        m
    }

    /// The open probability for `port` on a live host.
    pub fn port_open_prob(&self, port: u16) -> f64 {
        self.port_open
            .get(&port)
            .copied()
            .unwrap_or(self.default_port_open)
    }

    /// Expected fraction of *all* addresses with `port` open.
    pub fn absolute_open_rate(&self, port: u16) -> f64 {
        self.live_fraction * self.port_open_prob(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_calibrated() {
        let m = ServiceModel::default();
        // Port 80 absolute rate near the real-world ~1.2-1.5%.
        let p80 = m.absolute_open_rate(80);
        assert!(p80 > 0.008 && p80 < 0.02, "{p80}");
        // Option-requirement tail matches Figure 7's 1.5-2.0% band.
        assert!(m.requires_any_option >= 0.015 && m.requires_any_option <= 0.020);
        // Picky-ordering tail matches the 0.0023% figure.
        assert!((m.requires_os_ordering - 2.3e-5).abs() < 1e-9);
    }

    #[test]
    fn unlisted_ports_use_default() {
        let m = ServiceModel::default();
        assert_eq!(m.port_open_prob(31337), m.default_port_open);
        assert!(m.port_open_prob(80) > m.port_open_prob(31337));
    }

    #[test]
    fn dense_model_is_total() {
        let m = ServiceModel::dense(&[80, 443]);
        assert_eq!(m.live_fraction, 1.0);
        assert_eq!(m.port_open_prob(80), 1.0);
        assert_eq!(m.port_open_prob(81), 0.0);
    }
}
