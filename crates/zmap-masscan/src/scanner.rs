#![deny(clippy::unwrap_used, clippy::expect_used)]
//! The Masscan-style scan engine.
//!
//! Mirrors `zmap_core::Scanner` closely enough for a fair comparison
//! (same transport abstraction, same rate pacing, same dedup window) but
//! reproduces Masscan's distinguishing behavior:
//!
//! * target order from [`Blackrock`]/[`LegacyBlackrock`] instead of the
//!   cyclic group (indices map ip-major: `ip = v % #ips`),
//! * SYN probes with **no TCP options** (costs the option-sensitive
//!   hosts, Figure 7),
//! * destination-derived IP ID (the Masscan fingerprint),
//! * no retransmission.

use crate::blackrock::{Blackrock, LegacyBlackrock};
use std::net::Ipv4Addr;
use zmap_core::ratecontrol::RateController;
use zmap_core::transport::{FrameBatch, Transport};
use zmap_dedup::{target_key, SlidingWindow};
use zmap_targets::generator::BuildError;
use zmap_targets::Constraint;
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;
use zmap_wire::{ProbeBuilder, ResponseKind};

/// Masscan-equivalent scan configuration.
#[derive(Debug, Clone)]
pub struct MasscanConfig {
    /// Scanner source address.
    pub source_ip: Ipv4Addr,
    /// Permutation/validation seed.
    pub seed: u64,
    /// Ports to sweep.
    pub ports: Vec<u16>,
    /// Address set.
    pub constraint: Constraint,
    /// Probes per second.
    pub rate_pps: u64,
    /// Post-send listening time.
    pub cooldown_secs: u64,
    /// Use the early biased randomizer (the §3 comparison's subject).
    pub legacy_randomizer: bool,
}

impl MasscanConfig {
    /// Defaults mirroring `masscan -p80 --rate 10000`.
    pub fn new(source_ip: Ipv4Addr) -> Self {
        MasscanConfig {
            source_ip,
            seed: 0,
            ports: vec![80],
            constraint: Constraint::new(true),
            rate_pps: 10_000,
            cooldown_secs: 8,
            legacy_randomizer: true,
        }
    }
}

/// Outcome of a Masscan-style scan.
#[derive(Debug, Clone)]
pub struct MasscanSummary {
    pub sent: u64,
    pub targets_total: u64,
    pub responses_validated: u64,
    pub duplicates_suppressed: u64,
    /// Unique open ports found (SYN-ACKs).
    pub unique_open: u64,
    /// Distinct (ip, port) targets actually probed — with the legacy
    /// randomizer this is *less* than `targets_total` (the bias).
    pub distinct_probed: u64,
    pub duration_ns: u64,
    /// Open (ip, port) pairs.
    pub open: Vec<(Ipv4Addr, u16)>,
}

enum Shuffler {
    Fixed(Blackrock),
    Legacy(LegacyBlackrock),
}

impl Shuffler {
    fn shuffle(&self, i: u64) -> u64 {
        match self {
            Shuffler::Fixed(b) => b.shuffle(i),
            Shuffler::Legacy(b) => b.shuffle(i),
        }
    }
}

/// The baseline scanner.
pub struct MasscanScanner<T: Transport> {
    cfg: MasscanConfig,
    transport: T,
    builder: ProbeBuilder,
    constraint: Constraint,
    num_ips: u64,
    shuffler: Shuffler,
}

impl<T: Transport> MasscanScanner<T> {
    /// Validates configuration and prepares the shuffler.
    pub fn new(cfg: MasscanConfig, transport: T) -> Result<Self, BuildError> {
        if cfg.ports.is_empty() {
            return Err(BuildError::NoPorts);
        }
        let mut constraint = cfg.constraint.clone();
        constraint.finalize();
        let num_ips = constraint.allowed_count();
        if num_ips == 0 {
            return Err(BuildError::EmptyAddressSet);
        }
        let range = num_ips * cfg.ports.len() as u64;
        let shuffler = if cfg.legacy_randomizer {
            Shuffler::Legacy(LegacyBlackrock::new(range, cfg.seed))
        } else {
            Shuffler::Fixed(Blackrock::new(range, cfg.seed))
        };
        let mut builder = ProbeBuilder::new(cfg.source_ip, cfg.seed);
        builder.layout = OptionLayout::NoOptions;
        // Per-packet IP IDs are injected via the entropy argument below.
        builder.ip_id = IpIdMode::Random;
        Ok(MasscanScanner {
            cfg,
            transport,
            builder,
            constraint,
            num_ips,
            shuffler,
        })
    }

    /// Runs the sweep and returns the summary.
    pub fn run(mut self) -> MasscanSummary {
        let start = self.transport.now();
        let mut rc = RateController::new(start, self.cfg.rate_pps);
        let range = self.num_ips * self.cfg.ports.len() as u64;
        let mut dedup = SlidingWindow::new(1_000_000);
        let mut probed = SlidingWindow::new(usize::try_from(range.min(1 << 24)).unwrap_or(1 << 24));
        let mut one = FrameBatch::new(1);
        let mut sum = MasscanSummary {
            sent: 0,
            targets_total: range,
            responses_validated: 0,
            duplicates_suppressed: 0,
            unique_open: 0,
            distinct_probed: 0,
            duration_ns: 0,
            open: Vec::new(),
        };
        for i in 0..range {
            let v = self.shuffler.shuffle(i);
            let ip_idx = v % self.num_ips;
            let port_idx = (v / self.num_ips) as usize;
            // `ip_idx < num_ips = allowed_count`, so the lookup cannot
            // miss; skipping (rather than panicking) on any future drift
            // keeps a live sweep alive.
            let Some(addr) = self.constraint.lookup(ip_idx) else {
                continue;
            };
            let ip = Ipv4Addr::from(addr);
            let port = self.cfg.ports[port_idx.min(self.cfg.ports.len() - 1)];
            if probed.check_and_insert(target_key(u32::from(ip), port)) {
                sum.distinct_probed += 1;
            }
            let at = rc.mark_sent();
            self.transport.advance_to(at);
            // Masscan fingerprint: IP ID derived from the destination.
            let seq = self.builder.probe_values(ip, port).tcp_seq();
            let ip_id = crate_masscan_ip_id(u32::from(ip), port, seq);
            let frame = self.builder.tcp_syn(ip, port, ip_id);
            // No retry logic: Masscan shrugs off transient send failures
            // (part of the §3 robustness contrast with ZMap's engine).
            if self.transport.send_batch(one.refill(at, &frame), 0).1.is_none() {
                sum.sent += 1;
            }
            self.drain(&mut dedup, &mut sum);
        }
        let cooldown_end = self.transport.now() + self.cfg.cooldown_secs * 1_000_000_000;
        loop {
            match self.transport.next_rx_at() {
                Some(t) if t <= cooldown_end => {
                    self.transport.advance_to(t);
                    self.drain(&mut dedup, &mut sum);
                }
                _ => break,
            }
        }
        self.transport.advance_to(cooldown_end);
        self.drain(&mut dedup, &mut sum);
        sum.duration_ns = self.transport.now() - start;
        sum
    }

    fn drain(&mut self, dedup: &mut SlidingWindow, sum: &mut MasscanSummary) {
        for (_ts, frame) in self.transport.recv_frames() {
            if let Ok(Some(resp)) = self.builder.parse_response(&frame) {
                sum.responses_validated += 1;
                if !dedup.check_and_insert(target_key(u32::from(resp.ip), resp.port)) {
                    sum.duplicates_suppressed += 1;
                    continue;
                }
                if resp.kind == ResponseKind::SynAck {
                    sum.unique_open += 1;
                    sum.open.push((resp.ip, resp.port));
                }
            }
        }
    }
}

/// Masscan's destination-derived IP ID (same formula the telescope
/// fingerprints on).
fn crate_masscan_ip_id(dst_ip: u32, dst_port: u16, seq: u32) -> u16 {
    let x = dst_ip ^ u32::from(dst_port) ^ seq;
    (x ^ (x >> 16)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmap_core::transport::SimNet;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{ServiceModel, WorldConfig};

    fn dense_net() -> SimNet {
        SimNet::new(WorldConfig {
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        })
    }

    fn cfg(legacy: bool) -> MasscanConfig {
        let mut c = MasscanConfig::new(Ipv4Addr::new(192, 0, 2, 77));
        let mut allow = Constraint::new(false);
        allow.set_prefix(0x0B0B0000, 20, true); // 11.11.0.0/20: 4096 IPs
        c.constraint = allow;
        c.rate_pps = 1_000_000;
        c.cooldown_secs = 2;
        c.legacy_randomizer = legacy;
        c
    }

    #[test]
    fn fixed_randomizer_covers_everything() {
        let net = dense_net();
        let s = MasscanScanner::new(cfg(false), net.transport(Ipv4Addr::new(192, 0, 2, 77)))
            .unwrap()
            .run();
        assert_eq!(s.sent, 4096);
        assert_eq!(s.distinct_probed, 4096);
        assert_eq!(s.unique_open, 4096, "dense lossless world: all found");
    }

    #[test]
    fn legacy_randomizer_misses_targets() {
        let net = dense_net();
        let s = MasscanScanner::new(cfg(true), net.transport(Ipv4Addr::new(192, 0, 2, 77)))
            .unwrap()
            .run();
        assert_eq!(s.sent, 4096, "same probe budget");
        assert!(
            s.distinct_probed < 4096,
            "legacy bias must skip targets: {}",
            s.distinct_probed
        );
        assert_eq!(
            s.unique_open, s.distinct_probed,
            "every probed host answers in the dense world"
        );
    }

    #[test]
    fn probes_are_optionless_with_masscan_ip_id() {
        use zmap_wire::ethernet::EthernetView;
        use zmap_wire::ipv4::Ipv4View;
        use zmap_wire::tcp::TcpView;
        let c = cfg(false);
        let builder = {
            let mut b = ProbeBuilder::new(c.source_ip, c.seed);
            b.layout = OptionLayout::NoOptions;
            b
        };
        let ip = Ipv4Addr::new(11, 11, 0, 5);
        let seq = builder.probe_values(ip, 80).tcp_seq();
        let frame = builder.tcp_syn(ip, 80, crate_masscan_ip_id(u32::from(ip), 80, seq));
        let eth = EthernetView::parse(&frame).unwrap();
        let ipv = Ipv4View::parse(eth.payload()).unwrap();
        let tcp = TcpView::parse(ipv.payload()).unwrap();
        assert!(tcp.option_bytes().is_empty(), "masscan sends bare SYNs");
        assert_eq!(
            ipv.id(),
            crate_masscan_ip_id(u32::from(ipv.dst()), tcp.dst_port(), tcp.seq()),
            "fingerprint must verify from the packet alone"
        );
    }

    #[test]
    fn multiport_sweep() {
        let net = SimNet::new(WorldConfig {
            model: ServiceModel::dense(&[80, 443]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        });
        let mut c = cfg(false);
        c.ports = vec![80, 443];
        let mut allow = Constraint::new(false);
        allow.set_prefix(0x0B0B0000, 24, true);
        c.constraint = allow;
        let s = MasscanScanner::new(c, net.transport(Ipv4Addr::new(192, 0, 2, 77)))
            .unwrap()
            .run();
        assert_eq!(s.sent, 512);
        assert_eq!(s.unique_open, 512);
        assert!(s.open.iter().any(|&(_, p)| p == 80));
        assert!(s.open.iter().any(|&(_, p)| p == 443));
    }

    #[test]
    fn empty_config_rejected() {
        let net = dense_net();
        let mut c = cfg(false);
        c.ports.clear();
        assert!(matches!(
            MasscanScanner::new(c, net.transport(Ipv4Addr::new(192, 0, 2, 77))),
            Err(BuildError::NoPorts)
        ));
    }
}
