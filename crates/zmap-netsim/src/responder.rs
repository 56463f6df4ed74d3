//! Host behavior: turning an arriving probe into (delayed) response frames.
//!
//! This is the "other half" of every scan — the simulated host stacks.
//! Behavior is derived from the procedural [`HostProfile`] and mirrors
//! real stacks: SYN→SYN-ACK/RST/silence/ICMP, echo→reply, UDP→echo or
//! port-unreachable, plus the option-sensitivity filtering and blowback
//! duplication the paper's experiments measure.

use crate::banner::banner_for_port;
use crate::blowback::duplicate_delays;
use crate::profile::{dead_unreach, host_profile, middlebox, port_open, HostProfile};
use crate::services::ServiceModel;
use crate::{hash3, NS_PER_SEC};
use std::net::Ipv4Addr;
use zmap_wire::checksum;
use zmap_wire::ethernet::{EtherType, EthernetRepr, EthernetView, MacAddr};
use zmap_wire::icmp::{IcmpRepr, IcmpType, IcmpView, UnreachCode};
use zmap_wire::ipv4::{IpProtocol, Ipv4Repr, Ipv4View};
use zmap_wire::options::{decode, OptionLayout, OptionSet, TcpOption};
use zmap_wire::tcp::{TcpFlags, TcpRepr, TcpView};
use zmap_wire::udp::{UdpRepr, UdpView};

/// One response the host (or a router on its path) will emit.
#[derive(Debug, Clone)]
pub struct ResponseAction {
    /// Delay after the probe *arrives at the host* (one-way delay is
    /// added separately by the world).
    pub delay_ns: u64,
    /// Complete Ethernet frame.
    pub frame: Vec<u8>,
}

/// Identifies the option layout of a probe by exact byte comparison —
/// how a picky middlebox "recognizes" OS-genuine SYNs.
pub fn detect_layout(option_bytes: &[u8]) -> Option<OptionLayout> {
    OptionLayout::ALL
        .iter()
        .find(|l| l.bytes() == option_bytes)
        .copied()
}

/// Summarizes the substantive options present in raw option bytes.
pub fn option_set_of(option_bytes: &[u8]) -> OptionSet {
    let mut set = OptionSet::default();
    if let Ok(opts) = decode(option_bytes) {
        for o in opts {
            match o {
                TcpOption::Mss(_) => set.mss = true,
                TcpOption::SackPermitted => set.sack = true,
                TcpOption::Timestamp(..) => set.timestamp = true,
                TcpOption::WindowScale(_) => set.wscale = true,
                _ => {}
            }
        }
    }
    set
}

/// Hop count between the core and this host (shapes observed TTL).
fn hops(seed: u64, ip: u32) -> u8 {
    5 + (hash3(seed, ip, 0x4085) % 18) as u8
}

/// Produces the responses (if any) a probe frame elicits.
///
/// Returns an empty vector for dropped/ignored probes. The caller (the
/// world) applies one-way delays, loss, and routing.
pub fn respond(seed: u64, model: &ServiceModel, frame: &[u8]) -> Vec<ResponseAction> {
    let Ok(eth) = EthernetView::parse(frame) else {
        return vec![];
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return vec![];
    }
    let Ok(ip) = Ipv4View::parse(eth.payload()) else {
        return vec![];
    };
    let dst = u32::from(ip.dst());
    let profile = host_profile(seed, dst, model);
    respond_routed(seed, model, &eth, &ip, profile)
}

/// [`respond`] for a caller that already parsed the frame and derived
/// the destination's profile. The world's delivery path computes the
/// profile once per probe (it also needs the one-way delay from it);
/// re-deriving it here would roughly double the per-frame hashing for
/// live destinations.
pub fn respond_routed(
    seed: u64,
    model: &ServiceModel,
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    profile: Option<HostProfile>,
) -> Vec<ResponseAction> {
    match ip.protocol() {
        IpProtocol::Tcp => respond_tcp(seed, model, eth, ip, profile),
        IpProtocol::Icmp => respond_icmp(seed, eth, ip, profile),
        IpProtocol::Udp => respond_udp(seed, model, eth, ip, profile),
        IpProtocol::Other(_) => vec![],
    }
}

fn respond_tcp(
    seed: u64,
    model: &ServiceModel,
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    profile: Option<HostProfile>,
) -> Vec<ResponseAction> {
    let Ok(tcp) = TcpView::parse(ip.payload()) else {
        return vec![];
    };
    let dst = u32::from(ip.dst());
    // Packed-prefix middleboxes (Sattler et al.) answer SYNs for their
    // whole /24 — live host behind them or not — but never complete the
    // application layer: data segments vanish.
    if middlebox(seed, dst, model) {
        if tcp.flags().syn() && !tcp.flags().ack() {
            return vec![ResponseAction {
                delay_ns: 0,
                frame: build_middlebox_synack(eth, ip, &tcp, seed),
            }];
        }
        return vec![];
    }
    let Some(profile) = profile else {
        // Dead address: sometimes a router reports host-unreachable.
        if dead_unreach(seed, dst, model) {
            let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
            return vec![ResponseAction {
                delay_ns: 30_000_000,
                frame: build_unreach(eth, ip, router, UnreachCode::Host, seed),
            }];
        }
        return vec![];
    };
    if !tcp.flags().syn() || tcp.flags().ack() {
        // A data-bearing ACK aimed at an open port: the service answers
        // with its banner (the L7 phase of two-phase scanning). Anything
        // else stray draws an RST.
        if tcp.flags().ack() && !tcp.payload().is_empty() && port_open(seed, dst, tcp.dst_port(), model)
        {
            return vec![ResponseAction {
                delay_ns: 0,
                frame: build_banner(eth, ip, &tcp, &profile, seed),
            }];
        }
        return vec![ResponseAction {
            delay_ns: 0,
            frame: build_rst(eth, ip, &tcp, &profile, seed),
        }];
    }
    // Option-sensitivity filter (Figure 7 mechanism).
    let layout = detect_layout(tcp.option_bytes());
    let opts = option_set_of(tcp.option_bytes());
    if !profile
        .sensitivity
        .accepts(layout.unwrap_or(OptionLayout::NoOptions), &opts)
    {
        return vec![]; // silently dropped by filter
    }
    if port_open(seed, dst, tcp.dst_port(), model) {
        let first = build_synack(eth, ip, &tcp, &profile, seed);
        let mut out = vec![ResponseAction {
            delay_ns: 0,
            frame: first.clone(),
        }];
        for d in duplicate_delays(seed, dst, profile.blowback_extra) {
            out.push(ResponseAction {
                delay_ns: d,
                frame: first.clone(),
            });
        }
        out
    } else if profile.rst_on_closed {
        vec![ResponseAction {
            delay_ns: 0,
            frame: build_rst(eth, ip, &tcp, &profile, seed),
        }]
    } else if profile.icmp_on_closed {
        let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
        vec![ResponseAction {
            delay_ns: 10_000_000,
            frame: build_unreach(eth, ip, router, UnreachCode::AdminProhibited, seed),
        }]
    } else {
        vec![]
    }
}

/// Echo reply (plus duplicate blowback) for an ICMP echo request.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the bounded echo replies built here; `emit` checks it.
fn respond_icmp(
    seed: u64,
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    profile: Option<HostProfile>,
) -> Vec<ResponseAction> {
    let Ok(icmp) = IcmpView::parse(ip.payload()) else {
        return vec![];
    };
    let Some(profile) = profile else {
        return vec![];
    };
    if icmp.icmp_type() != IcmpType::EchoRequest || !profile.echoes {
        return vec![];
    }
    let mut frame = Vec::with_capacity(64);
    reply_eth(eth, ip, &mut frame);
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Icmp,
        id: reply_ip_id(seed, &profile),
        ttl: observed_ttl(seed, &profile),
        payload_len: (8 + icmp.payload().len()) as u16,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    IcmpRepr {
        icmp_type: IcmpType::EchoReply,
        id: icmp.id(),
        seq: icmp.seq(),
    }
    .emit(icmp.payload(), &mut frame);
    let mut out = vec![ResponseAction { delay_ns: 0, frame: frame.clone() }];
    for d in duplicate_delays(seed, profile.ip, profile.blowback_extra) {
        out.push(ResponseAction { delay_ns: d, frame: frame.clone() });
    }
    out
}

/// UDP service reply (or ICMP port-unreachable) for a UDP probe.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the bounded datagrams built here; `emit` checks it.
fn respond_udp(
    seed: u64,
    model: &ServiceModel,
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    profile: Option<HostProfile>,
) -> Vec<ResponseAction> {
    let Ok(udp) = UdpView::parse(ip.payload()) else {
        return vec![];
    };
    let dst = u32::from(ip.dst());
    let Some(profile) = profile else {
        return vec![];
    };
    if port_open(seed, dst, udp.dst_port(), model) {
        // Service echoes the payload (DNS/NTP-style "answers" are beyond
        // the L4 scope of this scanner substrate).
        let mut frame = Vec::with_capacity(64);
        reply_eth(eth, ip, &mut frame);
        let udp_len = (8 + udp.payload().len()) as u16;
        Ipv4Repr {
            src: ip.dst(),
            dst: ip.src(),
            protocol: IpProtocol::Udp,
            id: reply_ip_id(seed, &profile),
            ttl: observed_ttl(seed, &profile),
            payload_len: udp_len,
        }
        .emit(&mut frame).expect("reply fits IPv4 length");
        let pseudo = checksum::pseudo_header(dst, u32::from(ip.src()), 17, udp_len);
        UdpRepr {
            src_port: udp.dst_port(),
            dst_port: udp.src_port(),
        }
        .emit(pseudo, udp.payload(), &mut frame);
        let mut out = vec![ResponseAction { delay_ns: 0, frame: frame.clone() }];
        for d in duplicate_delays(seed, dst, profile.blowback_extra) {
            out.push(ResponseAction { delay_ns: d, frame: frame.clone() });
        }
        out
    } else {
        // Closed UDP port: ICMP port unreachable (RFC 1122).
        let router = ip.dst();
        vec![ResponseAction {
            delay_ns: 0,
            frame: build_unreach(eth, ip, router, UnreachCode::Port, seed),
        }]
    }
}

/// Observed TTL at the scanner: initial TTL minus path hops.
fn observed_ttl(seed: u64, profile: &HostProfile) -> u8 {
    profile.os.initial_ttl().saturating_sub(hops(seed, profile.ip))
}

/// Responders use incrementing-ish IP IDs; derive one procedurally.
fn reply_ip_id(seed: u64, profile: &HostProfile) -> u16 {
    hash3(seed, profile.ip, 0x1D) as u16
}

fn reply_eth(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, frame: &mut Vec<u8>) {
    EthernetRepr {
        dst: eth.src(),
        src: MacAddr::local(u32::from(ip.dst())),
        ethertype: EtherType::Ipv4,
    }
    .emit(frame);
}

/// SYN-ACK frame for a live host's open port, with OS-specific options.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the header-only segments built here; `emit` checks it.
fn build_synack(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    profile: &HostProfile,
    seed: u64,
) -> Vec<u8> {
    let mut frame = Vec::with_capacity(80);
    reply_eth(eth, ip, &mut frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: hash3(seed, profile.ip, 0x5EB) as u32,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::SYN_ACK,
        window: profile.os.window(),
        options: profile.os.reply_layout().bytes(),
    };
    let tcp_len = reply.header_len() as u16;
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(seed, profile),
        ttl: observed_ttl(seed, profile),
        payload_len: tcp_len,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    let pseudo = checksum::pseudo_header(
        u32::from(ip.dst()),
        u32::from(ip.src()),
        6,
        tcp_len,
    );
    reply.emit(pseudo, &[], &mut frame);
    frame
}

/// Middlebox SYN-ACK: a bland, embedded-looking stack that answers any
/// port (no blowback, no options beyond MSS).
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the header-only segments built here; `emit` checks it.
fn build_middlebox_synack(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    seed: u64,
) -> Vec<u8> {
    let dst = u32::from(ip.dst());
    let mut frame = Vec::with_capacity(64);
    reply_eth(eth, ip, &mut frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: hash3(seed, dst, 0x3B0) as u32,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::SYN_ACK,
        window: 16384,
        options: OptionLayout::MssOnly.bytes(),
    };
    let tcp_len = reply.header_len() as u16;
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: hash3(seed, dst, 0x3B1) as u16,
        ttl: 64u8.saturating_sub(hops(seed, dst) / 2),
        payload_len: tcp_len,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    let pseudo =
        checksum::pseudo_header(dst, u32::from(ip.src()), 6, tcp_len);
    reply.emit(pseudo, &[], &mut frame);
    frame
}

/// L7 banner reply: PSH|ACK carrying the service banner, acknowledging
/// the client's data.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the short banners served here; `emit` checks it.
fn build_banner(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    profile: &HostProfile,
    seed: u64,
) -> Vec<u8> {
    let body = banner_for_port(tcp.dst_port());
    let mut frame = Vec::with_capacity(64 + body.len());
    reply_eth(eth, ip, &mut frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: hash3(seed, profile.ip, 0x5EC) as u32,
        ack: tcp.seq().wrapping_add(tcp.payload().len() as u32),
        flags: TcpFlags::PSH.union(TcpFlags::ACK),
        window: profile.os.window(),
        options: vec![],
    };
    let tcp_len = (reply.header_len() + body.len()) as u16;
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(seed, profile),
        ttl: observed_ttl(seed, profile),
        payload_len: tcp_len,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    let pseudo = checksum::pseudo_header(
        u32::from(ip.dst()),
        u32::from(ip.src()),
        6,
        tcp_len,
    );
    reply.emit(pseudo, body, &mut frame);
    frame
}

/// RST-ACK for a closed port.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the header-only segments built here; `emit` checks it.
fn build_rst(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    profile: &HostProfile,
    seed: u64,
) -> Vec<u8> {
    let mut frame = Vec::with_capacity(60);
    reply_eth(eth, ip, &mut frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: 0,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::RST_ACK,
        window: 0,
        options: vec![],
    };
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(seed, profile),
        ttl: observed_ttl(seed, profile),
        payload_len: 20,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    let pseudo =
        checksum::pseudo_header(u32::from(ip.dst()), u32::from(ip.src()), 6, 20);
    reply.emit(pseudo, &[], &mut frame);
    frame
}

/// An ICMP destination-unreachable from `router`, quoting the probe's IP
/// header + 8 bytes (RFC 792). Also used by the fault layer's ICMP
/// rate-limit storms.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the 28-byte quote bound here; `emit` checks it.
pub(crate) fn build_unreach(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    router: Ipv4Addr,
    code: UnreachCode,
    seed: u64,
) -> Vec<u8> {
    // Quote: the probe's IP header (20 bytes) + first 8 payload bytes.
    let probe_packet = {
        let hdr_and_more = eth.payload();
        let quote_len = (20 + 8).min(hdr_and_more.len());
        &hdr_and_more[..quote_len]
    };
    let mut frame = Vec::with_capacity(80);
    EthernetRepr {
        dst: eth.src(),
        src: MacAddr::local(u32::from(router)),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut frame);
    Ipv4Repr {
        src: router,
        dst: ip.src(),
        protocol: IpProtocol::Icmp,
        id: hash3(seed, u32::from(router), 0x1D) as u16,
        ttl: 64u8.saturating_sub(hops(seed, u32::from(router)) / 2),
        payload_len: (8 + probe_packet.len()) as u16,
    }
    .emit(&mut frame).expect("reply fits IPv4 length");
    IcmpRepr {
        icmp_type: IcmpType::DestUnreachable(code),
        id: 0,
        seq: 0,
    }
    .emit(probe_packet, &mut frame);
    frame
}

/// Re-exported constant: simulations often reason in seconds.
pub const SECOND: u64 = NS_PER_SEC;

#[cfg(test)]
mod tests {
    use super::*;
    use zmap_wire::{ProbeBuilder, ResponseKind};

    fn dense_world() -> (u64, ServiceModel) {
        (42, ServiceModel::dense(&[80]))
    }

    fn scanner() -> ProbeBuilder {
        ProbeBuilder::new(Ipv4Addr::new(1, 2, 3, 4), 99)
    }

    #[test]
    fn open_port_yields_valid_synack() {
        let (seed, model) = dense_world();
        let b = scanner();
        let dst = Ipv4Addr::new(9, 9, 9, 9);
        let probe = b.tcp_syn(dst, 80, 0);
        let actions = respond(seed, &model, &probe);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::SynAck);
        assert_eq!(resp.ip, dst);
        assert_eq!(resp.port, 80);
    }

    #[test]
    fn closed_port_yields_rst() {
        let (seed, model) = dense_world();
        let b = scanner();
        let probe = b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 81, 0);
        let actions = respond(seed, &model, &probe);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::Rst);
    }

    #[test]
    fn dead_host_mostly_silent() {
        let seed = 7;
        let model = ServiceModel {
            live_fraction: 0.0,
            unreach_for_dead: 0.0,
            ..ServiceModel::default()
        };
        let b = scanner();
        let probe = b.tcp_syn(Ipv4Addr::new(88, 77, 66, 55), 80, 0);
        assert!(respond(seed, &model, &probe).is_empty());
    }

    #[test]
    fn dead_host_sometimes_unreachable() {
        let seed = 7;
        let model = ServiceModel {
            live_fraction: 0.0,
            unreach_for_dead: 1.0,
            ..ServiceModel::default()
        };
        let b = scanner();
        let dst = Ipv4Addr::new(88, 77, 66, 55);
        let probe = b.tcp_syn(dst, 80, 0);
        let actions = respond(seed, &model, &probe);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        match resp.kind {
            ResponseKind::Unreachable { code, via } => {
                assert_eq!(code, UnreachCode::Host);
                assert_eq!(via, Ipv4Addr::new(88, 77, 66, 1));
                assert_eq!(resp.ip, dst, "attributed to the probed address");
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    fn option_filter_drops_bare_syn() {
        let seed = 11;
        let mut model = ServiceModel::dense(&[80]);
        model.requires_any_option = 1.0; // every host requires options
        let mut b = scanner();
        b.layout = OptionLayout::NoOptions;
        let probe = b.tcp_syn(Ipv4Addr::new(5, 5, 5, 5), 80, 0);
        assert!(respond(seed, &model, &probe).is_empty(), "bare SYN filtered");
        b.layout = OptionLayout::MssOnly;
        let probe = b.tcp_syn(Ipv4Addr::new(5, 5, 5, 5), 80, 0);
        assert_eq!(respond(seed, &model, &probe).len(), 1, "MSS probe passes");
    }

    #[test]
    fn picky_hosts_want_os_orderings() {
        let seed = 11;
        let mut model = ServiceModel::dense(&[80]);
        model.requires_os_ordering = 1.0;
        let mut b = scanner();
        for (layout, expect) in [
            (OptionLayout::OptimalPacked, 0usize),
            (OptionLayout::MssOnly, 0),
            (OptionLayout::Linux, 1),
            (OptionLayout::Windows, 1),
            (OptionLayout::Bsd, 1),
        ] {
            b.layout = layout;
            let probe = b.tcp_syn(Ipv4Addr::new(6, 6, 6, 6), 80, 0);
            assert_eq!(respond(seed, &model, &probe).len(), expect, "{layout:?}");
        }
    }

    #[test]
    fn blowback_host_duplicates_synack() {
        let seed = 3;
        let mut model = ServiceModel::dense(&[80]);
        model.blowback_fraction = 1.0;
        model.blowback_max = 100;
        let b = scanner();
        let probe = b.tcp_syn(Ipv4Addr::new(7, 7, 7, 7), 80, 0);
        let actions = respond(seed, &model, &probe);
        assert!(actions.len() >= 11, "10+ duplicates expected, got {}", actions.len());
        // All frames identical; delays strictly increasing after the first.
        for w in actions.windows(2) {
            assert!(w[0].delay_ns <= w[1].delay_ns);
            assert_eq!(w[0].frame, w[1].frame);
        }
    }

    #[test]
    fn echo_request_gets_reply() {
        let (seed, model) = dense_world();
        let b = scanner();
        let dst = Ipv4Addr::new(4, 4, 4, 4);
        let probe = b.icmp_echo(dst, 0);
        let actions = respond(seed, &model, &probe);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::EchoReply);
        assert_eq!(resp.ip, dst);
    }

    #[test]
    fn udp_open_echoes_closed_unreaches() {
        let (seed, model) = dense_world(); // port 80 open (as UDP too)
        let b = scanner();
        let dst = Ipv4Addr::new(3, 3, 3, 3);
        let open = b.udp(dst, 80, b"ping", 0).unwrap();
        let actions = respond(seed, &model, &open);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        assert!(matches!(resp.kind, ResponseKind::UdpData(_)));

        let closed = b.udp(dst, 9999, b"ping", 0).unwrap();
        let actions = respond(seed, &model, &closed);
        assert_eq!(actions.len(), 1);
        let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
        assert!(matches!(
            resp.kind,
            ResponseKind::Unreachable { code: UnreachCode::Port, .. }
        ));
    }

    #[test]
    fn ttl_reflects_os_and_distance() {
        let (seed, model) = dense_world();
        let b = scanner();
        let mut ttls = std::collections::HashSet::new();
        for i in 0..50u32 {
            let dst = Ipv4Addr::from(0x0B000000 + i);
            let probe = b.tcp_syn(dst, 80, 0);
            let actions = respond(seed, &model, &probe);
            let resp = b.parse_response(&actions[0].frame).unwrap().unwrap();
            assert!(resp.ttl >= 40, "ttl {}", resp.ttl);
            ttls.insert(resp.ttl);
        }
        assert!(ttls.len() > 5, "TTLs should vary with OS and hops");
    }

    #[test]
    fn layout_detection() {
        for l in OptionLayout::ALL {
            assert_eq!(detect_layout(&l.bytes()), Some(l));
        }
        assert_eq!(detect_layout(&[1, 1, 1, 1]), None);
    }
}
