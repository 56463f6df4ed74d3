//! Masscan as a configuration of the one engine: a Blackrock walk,
//! optionless SYNs, Masscan's destination-derived IP ID and no retries.
//!
//! The digests pin what the engine sends on the §3 experiment's two
//! Masscan scans (`exp_masscan_vs_zmap`: 51.64.0.0/14 on TCP/80 at
//! 2 Mpps, scan seed 5, world seed 47) to what the separate Masscan
//! engine loop this configuration replaced sent for the same scans:
//! every frame's world send time and bytes, in order, folded into one
//! FNV-1a digest. The same traffic at the same virtual times is what
//! makes the Masscan rows "a configuration of the one engine".

use std::cell::RefCell;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::rc::Rc;
use zmap_core::transport::{FrameBatch, RxBatch, SimNet, SimTransport, Transport};
use zmap_core::{ScanConfig, ScanSummary, Scanner};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{SendError, ServiceModel, WorldConfig};
use zmap_targets::Walk;
use zmap_wire::ethernet::EthernetView;
use zmap_wire::ipv4::{masscan_ip_id, IpIdMode, Ipv4View};
use zmap_wire::options::OptionLayout;
use zmap_wire::tcp::TcpView;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

/// Every frame sent: `(world send time, bytes)`, in order.
type Sent = Vec<(u64, Vec<u8>)>;

/// A [`SimTransport`] that logs every frame the world accepted, stamped
/// with the time the world saw it: its slot.
struct Recorder {
    inner: SimTransport,
    sent: Rc<RefCell<Sent>>,
}

impl Transport for Recorder {
    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn advance_to(&mut self, t: u64) {
        self.inner.advance_to(t);
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let (accepted, err) = self.inner.send_batch(batch, from_idx);
        let mut sent = self.sent.borrow_mut();
        for i in from_idx..from_idx + accepted {
            let (at, frame) = batch.frame(i);
            sent.push((at, frame.to_vec()));
        }
        (accepted, err)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        self.inner.recv_into(rx);
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.inner.next_rx_at()
    }

    fn killed(&self) -> bool {
        self.inner.killed()
    }
}

/// Masscan's configuration of `cfg`.
fn masscan(mut cfg: ScanConfig, walk: Walk) -> ScanConfig {
    cfg.walk = walk;
    cfg.option_layout = OptionLayout::NoOptions;
    cfg.ip_id = IpIdMode::DestinationDerived;
    cfg.max_retries = 0;
    cfg
}

/// Runs `cfg` on `world` and returns the summary, the distinct targets
/// its walk holds, and every frame sent.
fn run(world: WorldConfig, cfg: ScanConfig) -> (ScanSummary, u64, Sent) {
    let net = SimNet::new(world);
    let sent = Rc::new(RefCell::new(Vec::new()));
    let transport = Recorder {
        inner: net.transport(SRC),
        sent: sent.clone(),
    };
    let scanner = Scanner::new(cfg, transport).unwrap();
    let gen = scanner.generator().unwrap();
    let distinct = gen.iter_shard(0, 0).collect::<HashSet<_>>().len() as u64;
    let summary = scanner.run();
    let frames = sent.take();
    (summary, distinct, frames)
}

fn fnv1a(frames: &Sent) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for (at, frame) in frames {
        for &b in at.to_le_bytes().iter().chain(frame) {
            d = (d ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    d
}

#[test]
fn masscan_config_sends_the_pinned_frames() {
    let world = || WorldConfig {
        seed: 47,
        model: ServiceModel {
            live_fraction: 0.10,
            ..ServiceModel::default()
        },
        ..WorldConfig::default()
    };
    let mut cfg = ScanConfig::new(SRC);
    cfg.allowlist_prefix(Ipv4Addr::new(51, 64, 0, 0), 14);
    cfg.apply_default_blocklist = false;
    cfg.rate_pps = 2_000_000;
    cfg.seed = 5;
    cfg.cooldown_secs = 3;
    // (walk, digest, distinct targets, hosts found) — the digests and
    // host counts are the replaced engine's.
    for (walk, digest, distinct, found) in [
        (Walk::LegacyBlackrock, 0x2b34_7a93_5152_37ff, 261_634, 6_414),
        (Walk::Blackrock, 0xe770_bd33_50a5_12bf, 262_144, 6_425),
    ] {
        let (s, walked, frames) = run(world(), masscan(cfg.clone(), walk));
        let c = &s.metadata.counters;
        assert_eq!((frames.len(), c.sent), (262_144, 262_144), "{walk:?}");
        assert_eq!(frames.last().map(|f| f.0), Some(131_071_500), "{walk:?}");
        assert_eq!(fnv1a(&frames), digest, "{walk:?}");
        assert_eq!((walked, c.unique_successes), (distinct, found), "{walk:?}");
    }
}

fn dense(ports: &[u16], prefix_len: u8, walk: Walk) -> (ScanSummary, u64, Sent) {
    let world = WorldConfig {
        model: ServiceModel::dense(ports),
        loss: LossModel::NONE,
        ..WorldConfig::default()
    };
    let mut cfg = ScanConfig::new(SRC);
    cfg.allowlist_prefix(Ipv4Addr::new(11, 11, 0, 0), prefix_len);
    cfg.apply_default_blocklist = false;
    cfg.ports = ports.to_vec();
    cfg.rate_pps = 1_000_000;
    cfg.cooldown_secs = 2;
    run(world, masscan(cfg, walk))
}

#[test]
fn fixed_blackrock_finds_every_dense_host() {
    let (s, walked, _) = dense(&[80], 20, Walk::Blackrock);
    let c = &s.metadata.counters;
    assert_eq!((c.sent, walked, c.unique_successes), (4096, 4096, 4096));
}

#[test]
fn legacy_blackrock_misses_targets_at_the_same_budget() {
    let (s, walked, _) = dense(&[80], 20, Walk::LegacyBlackrock);
    let c = &s.metadata.counters;
    assert_eq!(c.sent, 4096, "same probe budget");
    assert!(
        walked < 4096,
        "the legacy shuffle must skip targets: {walked}"
    );
    assert_eq!(
        c.unique_successes, walked,
        "every probed host answers in the dense world"
    );
}

#[test]
fn probes_are_optionless_with_masscan_ip_id() {
    let (_, _, frames) = dense(&[80], 24, Walk::Blackrock);
    assert_eq!(frames.len(), 256);
    for (_, frame) in &frames {
        let ip = Ipv4View::parse(EthernetView::parse(frame).unwrap().payload()).unwrap();
        let tcp = TcpView::parse(ip.payload()).unwrap();
        assert!(tcp.option_bytes().is_empty(), "Masscan sends bare SYNs");
        assert_eq!(
            ip.id(),
            masscan_ip_id(u32::from(ip.dst()), tcp.dst_port(), tcp.seq()),
            "the fingerprint verifies from the packet alone"
        );
    }
}

#[test]
fn multiport_blackrock_sweep_finds_both_ports() {
    let (s, walked, _) = dense(&[80, 443], 24, Walk::Blackrock);
    let c = &s.metadata.counters;
    assert_eq!((c.sent, walked, c.unique_successes), (512, 512, 512));
    for port in [80, 443] {
        assert_eq!(
            s.results.iter().filter(|r| r.sport == port).count(),
            256,
            "port {port}"
        );
    }
}
