//! Host behavior: turning an arriving probe into (delayed) response frames.
//!
//! This is the "other half" of every scan — the simulated host stacks.
//! Behavior is derived from the procedural [`HostDraws`] and mirrors
//! real stacks: SYN→SYN-ACK/RST/silence/ICMP, echo→reply, UDP→echo or
//! port-unreachable, plus the option-sensitivity filtering and blowback
//! duplication the paper's experiments measure.

use crate::banner::banner_for_port;
use crate::blowback::duplicate_delays;
use crate::profile::{
    dead_unreach, middlebox, port_open, ClosedPort, HostDraws, OptionSensitivity,
};
use crate::{hash3, NS_PER_SEC};
use std::net::Ipv4Addr;
use zmap_wire::checksum;
use zmap_wire::ethernet::{EtherType, EthernetRepr, EthernetView, MacAddr};
use zmap_wire::icmp::{IcmpRepr, IcmpType, IcmpView, UnreachCode};
use zmap_wire::ipv4::{IpProtocol, Ipv4Repr, Ipv4View};
use zmap_wire::options::{OptionLayout, OptionSet};
use zmap_wire::tcp::{TcpFlags, TcpRepr, TcpView};
use zmap_wire::udp::{UdpRepr, UdpView};

/// A host's answer to one probe, rendered once: the frame, and the
/// delays after the probe *arrives at the host* at which copies of it
/// leave (one-way delay is added separately by the world). No delays is
/// silence, one is an ordinary reply, more are blowback duplicates.
///
/// The world keeps one and renders every probe's answer into it, so a
/// warm responder allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Complete Ethernet frame (meaningless when `delays` is empty).
    pub frame: Vec<u8>,
    /// When each copy leaves the host, in ns after the probe arrives.
    pub delays: Vec<u64>,
}

impl Reply {
    /// True when the probe drew no answer.
    pub fn is_silent(&self) -> bool {
        self.delays.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.frame.clear();
        self.delays.clear();
    }
}

/// Identifies the option layout of a probe by exact byte comparison —
/// how a picky middlebox "recognizes" OS-genuine SYNs.
pub fn detect_layout(option_bytes: &[u8]) -> Option<OptionLayout> {
    OptionLayout::ALL
        .iter()
        .find(|l| l.bytes() == option_bytes)
        .copied()
}

/// Summarizes the substantive options present in raw option bytes: MSS,
/// SACK-permitted, timestamp and window scale, each counted only at its
/// canonical length. A malformed block (a length byte under 2, past the
/// end, or missing) carries none; End-of-List ends the walk.
pub fn option_set_of(mut option_bytes: &[u8]) -> OptionSet {
    let mut set = OptionSet::default();
    while let Some(&kind) = option_bytes.first() {
        match kind {
            0 => break,
            1 => option_bytes = &option_bytes[1..],
            _ => {
                let len = match option_bytes.get(1) {
                    Some(&len) if len >= 2 && usize::from(len) <= option_bytes.len() => len,
                    _ => return OptionSet::default(),
                };
                match (kind, len) {
                    (2, 4) => set.mss = true,
                    (3, 3) => set.wscale = true,
                    (4, 2) => set.sack = true,
                    (8, 10) => set.timestamp = true,
                    _ => {}
                }
                option_bytes = &option_bytes[usize::from(len)..];
            }
        }
    }
    set
}

/// Hop count between the core and this host (shapes observed TTL).
fn hops(seed: u64, ip: u32) -> u8 {
    5 + (hash3(seed, ip, 0x4085) % 18) as u8
}

/// The reply (if any) a probe frame elicits: a test's way into
/// [`respond_routed`], which the world calls with its own parse.
#[cfg(test)]
pub fn respond(seed: u64, model: &crate::services::ServiceModel, frame: &[u8]) -> Reply {
    let mut out = Reply::default();
    let Ok(eth) = EthernetView::parse(frame) else {
        return out;
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return out;
    }
    let Ok(ip) = Ipv4View::parse(eth.payload()) else {
        return out;
    };
    respond_routed(&HostDraws::new(seed, u32::from(ip.dst()), model), &eth, &ip, &mut out);
    out
}

/// Renders into the reused `out` the reply a parsed v4 probe elicits from
/// its destination, whose draws `h` holds: silent for dropped or ignored
/// probes. Each draw is made when the reply first reads it, so a reply
/// pays only for what it looks at; the caller (the world) reads the
/// one-way delay from the same `h` and applies loss and routing. Every
/// reply is addressed to the probe's source.
pub fn respond_routed(
    h: &HostDraws<'_>,
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    out: &mut Reply,
) {
    out.clear();
    match ip.protocol() {
        IpProtocol::Tcp => respond_tcp(h, eth, ip, out),
        IpProtocol::Icmp => respond_icmp(h, eth, ip, out),
        IpProtocol::Udp => respond_udp(h, eth, ip, out),
        IpProtocol::Other(_) => {}
    }
}

/// A TCP segment's answer. The questions come in reply order — middlebox,
/// liveness, option filter, port — so the common silent and RST answers
/// stop after the fewest draws.
fn respond_tcp(h: &HostDraws<'_>, eth: &EthernetView<'_>, ip: &Ipv4View<'_>, out: &mut Reply) {
    let Ok(tcp) = TcpView::parse(ip.payload()) else {
        return;
    };
    let (seed, dst) = (h.seed, h.ip);
    // Packed-prefix middleboxes (Sattler et al.) answer SYNs for their
    // whole /24 — live host behind them or not — but never complete the
    // application layer: data segments vanish.
    if middlebox(seed, dst, h.model) {
        if tcp.flags().syn() && !tcp.flags().ack() {
            build_middlebox_synack(eth, ip, &tcp, seed, &mut out.frame);
            out.delays.push(0);
        }
        return;
    }
    if !h.live() {
        // Dead address: sometimes a router reports host-unreachable.
        if dead_unreach(seed, dst, h.model) {
            let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
            build_unreach(eth, ip, router, UnreachCode::Host, seed, &mut out.frame);
            out.delays.push(30_000_000);
        }
        return;
    }
    if !tcp.flags().syn() || tcp.flags().ack() {
        // A data-bearing ACK aimed at an open port: the service answers
        // with its banner (the L7 phase of two-phase scanning). Anything
        // else stray draws an RST.
        if tcp.flags().ack() && !tcp.payload().is_empty() && port_open(seed, dst, tcp.dst_port(), h.model)
        {
            build_banner(eth, ip, &tcp, h, &mut out.frame);
        } else {
            build_rst(eth, ip, &tcp, h, &mut out.frame);
        }
        out.delays.push(0);
        return;
    }
    // Option-sensitivity filter (Figure 7 mechanism). Most hosts accept
    // any SYN; only a picky one looks at the options.
    let sensitivity = h.sensitivity();
    if sensitivity != OptionSensitivity::AcceptsAny {
        let layout = detect_layout(tcp.option_bytes()).unwrap_or(OptionLayout::NoOptions);
        if !sensitivity.accepts(layout, &option_set_of(tcp.option_bytes())) {
            return; // silently dropped by filter
        }
    }
    if port_open(seed, dst, tcp.dst_port(), h.model) {
        build_synack(eth, ip, &tcp, h, &mut out.frame);
        out.delays.push(0);
        duplicate_delays(seed, dst, h.blowback_extra(), &mut out.delays);
        return;
    }
    match h.closed_port() {
        ClosedPort::Rst => {
            build_rst(eth, ip, &tcp, h, &mut out.frame);
            out.delays.push(0);
        }
        ClosedPort::AdminProhibited => {
            let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
            build_unreach(eth, ip, router, UnreachCode::AdminProhibited, seed, &mut out.frame);
            out.delays.push(10_000_000);
        }
        ClosedPort::Silent => {}
    }
}

/// Echo reply (plus duplicate blowback) for an ICMP echo request.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the bounded echo replies built here; `emit` checks it.
#[expect(clippy::expect_used)]
fn respond_icmp(h: &HostDraws<'_>, eth: &EthernetView<'_>, ip: &Ipv4View<'_>, out: &mut Reply) {
    let Ok(icmp) = IcmpView::parse(ip.payload()) else {
        return;
    };
    if icmp.icmp_type() != IcmpType::EchoRequest || !h.live() || !h.echoes() {
        return;
    }
    let frame = &mut out.frame;
    reply_eth(eth, ip, frame);
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Icmp,
        id: reply_ip_id(h),
        ttl: observed_ttl(h),
        payload_len: (8 + icmp.payload().len()) as u16,
    }
    .emit(frame).expect("reply fits IPv4 length");
    IcmpRepr {
        icmp_type: IcmpType::EchoReply,
        id: icmp.id(),
        seq: icmp.seq(),
    }
    .emit(icmp.payload(), frame);
    out.delays.push(0);
    duplicate_delays(h.seed, h.ip, h.blowback_extra(), &mut out.delays);
}

/// UDP service reply (or ICMP port-unreachable) for a UDP probe.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the bounded datagrams built here; `emit` checks it.
#[expect(clippy::expect_used)]
fn respond_udp(h: &HostDraws<'_>, eth: &EthernetView<'_>, ip: &Ipv4View<'_>, out: &mut Reply) {
    let Ok(udp) = UdpView::parse(ip.payload()) else {
        return;
    };
    let (seed, dst) = (h.seed, h.ip);
    if !h.live() {
        return;
    }
    if port_open(seed, dst, udp.dst_port(), h.model) {
        // Service echoes the payload (DNS/NTP-style "answers" are beyond
        // the L4 scope of this scanner substrate).
        let frame = &mut out.frame;
        reply_eth(eth, ip, frame);
        let udp_len = (8 + udp.payload().len()) as u16;
        Ipv4Repr {
            src: ip.dst(),
            dst: ip.src(),
            protocol: IpProtocol::Udp,
            id: reply_ip_id(h),
            ttl: observed_ttl(h),
            payload_len: udp_len,
        }
        .emit(frame).expect("reply fits IPv4 length");
        let pseudo = checksum::pseudo_header(dst, u32::from(ip.src()), 17, udp_len);
        UdpRepr {
            src_port: udp.dst_port(),
            dst_port: udp.src_port(),
        }
        .emit(pseudo, udp.payload(), frame);
        out.delays.push(0);
        duplicate_delays(seed, dst, h.blowback_extra(), &mut out.delays);
    } else {
        // Closed UDP port: ICMP port unreachable (RFC 1122).
        let router = ip.dst();
        build_unreach(eth, ip, router, UnreachCode::Port, seed, &mut out.frame);
        out.delays.push(0);
    }
}

/// Observed TTL at the scanner: initial TTL minus path hops.
fn observed_ttl(h: &HostDraws<'_>) -> u8 {
    h.os().initial_ttl().saturating_sub(hops(h.seed, h.ip))
}

/// Responders use incrementing-ish IP IDs; derive one procedurally.
fn reply_ip_id(h: &HostDraws<'_>) -> u16 {
    hash3(h.seed, h.ip, 0x1D) as u16
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
#[expect(clippy::expect_used)]
fn build_synack(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    h: &HostDraws<'_>,
    frame: &mut Vec<u8>,
) {
    reply_eth(eth, ip, frame);
    let os = h.os();
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: hash3(h.seed, h.ip, 0x5EB) as u32,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::SYN_ACK,
        window: os.window(),
        options: os.reply_layout().bytes(),
    };
    let tcp_len = reply.header_len() as u16;
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(h),
        ttl: observed_ttl(h),
        payload_len: tcp_len,
    }
    .emit(frame).expect("reply fits IPv4 length");
    let pseudo = checksum::pseudo_header(
        u32::from(ip.dst()),
        u32::from(ip.src()),
        6,
        tcp_len,
    );
    reply.emit(pseudo, &[], frame);
}

/// Middlebox SYN-ACK: a bland, embedded-looking stack that answers any
/// port (no blowback, no options beyond MSS).
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the header-only segments built here; `emit` checks it.
#[expect(clippy::expect_used)]
fn build_middlebox_synack(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    seed: u64,
    frame: &mut Vec<u8>,
) {
    let dst = u32::from(ip.dst());
    reply_eth(eth, ip, frame);
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
    .emit(frame).expect("reply fits IPv4 length");
    let pseudo =
        checksum::pseudo_header(dst, u32::from(ip.src()), 6, tcp_len);
    reply.emit(pseudo, &[], frame);
}

/// L7 banner reply: PSH|ACK carrying the service banner, acknowledging
/// the client's data.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the short banners served here; `emit` checks it.
#[expect(clippy::expect_used)]
fn build_banner(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    h: &HostDraws<'_>,
    frame: &mut Vec<u8>,
) {
    let body = banner_for_port(tcp.dst_port());
    reply_eth(eth, ip, frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: hash3(h.seed, h.ip, 0x5EC) as u32,
        ack: tcp.seq().wrapping_add(tcp.payload().len() as u32),
        flags: TcpFlags::PSH.union(TcpFlags::ACK),
        window: h.os().window(),
        options: &[],
    };
    let tcp_len = (reply.header_len() + body.len()) as u16;
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(h),
        ttl: observed_ttl(h),
        payload_len: tcp_len,
    }
    .emit(frame).expect("reply fits IPv4 length");
    let pseudo = checksum::pseudo_header(
        u32::from(ip.dst()),
        u32::from(ip.src()),
        6,
        tcp_len,
    );
    reply.emit(pseudo, body, frame);
}

/// RST-ACK for a closed port.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the header-only segments built here; `emit` checks it.
#[expect(clippy::expect_used)]
fn build_rst(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    tcp: &TcpView<'_>,
    h: &HostDraws<'_>,
    frame: &mut Vec<u8>,
) {
    reply_eth(eth, ip, frame);
    let reply = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: 0,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::RST_ACK,
        window: 0,
        options: &[],
    };
    Ipv4Repr {
        src: ip.dst(),
        dst: ip.src(),
        protocol: IpProtocol::Tcp,
        id: reply_ip_id(h),
        ttl: observed_ttl(h),
        payload_len: 20,
    }
    .emit(frame).expect("reply fits IPv4 length");
    let pseudo =
        checksum::pseudo_header(u32::from(ip.dst()), u32::from(ip.src()), 6, 20);
    reply.emit(pseudo, &[], frame);
}

/// An ICMP destination-unreachable from `router`, quoting the probe's IP
/// header + 8 bytes (RFC 792). Also used by the fault layer's ICMP
/// rate-limit storms.
///
/// # Panics
/// Panics if the reply overflows the IPv4 length field — unreachable
/// for the 28-byte quote bound here; `emit` checks it.
#[expect(clippy::expect_used)]
pub(crate) fn build_unreach(
    eth: &EthernetView<'_>,
    ip: &Ipv4View<'_>,
    router: Ipv4Addr,
    code: UnreachCode,
    seed: u64,
    frame: &mut Vec<u8>,
) {
    // Quote: the probe's IP header (20 bytes) + first 8 payload bytes.
    let probe_packet = {
        let hdr_and_more = eth.payload();
        let quote_len = (20 + 8).min(hdr_and_more.len());
        &hdr_and_more[..quote_len]
    };
    EthernetRepr {
        dst: eth.src(),
        src: MacAddr::local(u32::from(router)),
        ethertype: EtherType::Ipv4,
    }
    .emit(frame);
    Ipv4Repr {
        src: router,
        dst: ip.src(),
        protocol: IpProtocol::Icmp,
        id: hash3(seed, u32::from(router), 0x1D) as u16,
        ttl: 64u8.saturating_sub(hops(seed, u32::from(router)) / 2),
        payload_len: (8 + probe_packet.len()) as u16,
    }
    .emit(frame).expect("reply fits IPv4 length");
    IcmpRepr {
        icmp_type: IcmpType::DestUnreachable(code),
        id: 0,
        seq: 0,
    }
    .emit(probe_packet, frame);
}

/// Re-exported constant: simulations often reason in seconds.
pub const SECOND: u64 = NS_PER_SEC;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::ServiceModel;
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
        let reply = respond(seed, &model, &probe);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::SynAck);
        assert_eq!(resp.ip, dst);
        assert_eq!(resp.port, 80);
    }

    #[test]
    fn closed_port_yields_rst() {
        let (seed, model) = dense_world();
        let b = scanner();
        let probe = b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 81, 0);
        let reply = respond(seed, &model, &probe);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
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
        assert!(respond(seed, &model, &probe).is_silent());
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
        let reply = respond(seed, &model, &probe);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
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
        assert!(respond(seed, &model, &probe).is_silent(), "bare SYN filtered");
        b.layout = OptionLayout::MssOnly;
        let probe = b.tcp_syn(Ipv4Addr::new(5, 5, 5, 5), 80, 0);
        assert_eq!(respond(seed, &model, &probe).delays.len(), 1, "MSS probe passes");
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
            assert_eq!(respond(seed, &model, &probe).delays.len(), expect, "{layout:?}");
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
        let reply = respond(seed, &model, &probe);
        let n = reply.delays.len();
        assert!(n >= 11, "10+ duplicates expected, got {n}");
        // One frame, sent at non-decreasing delays.
        assert!(b.parse_response(&reply.frame).unwrap().is_some());
        for w in reply.delays.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn echo_request_gets_reply() {
        let (seed, model) = dense_world();
        let b = scanner();
        let dst = Ipv4Addr::new(4, 4, 4, 4);
        let probe = b.icmp_echo(dst, 0);
        let reply = respond(seed, &model, &probe);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::EchoReply);
        assert_eq!(resp.ip, dst);
    }

    #[test]
    fn udp_open_echoes_closed_unreaches() {
        let (seed, model) = dense_world(); // port 80 open (as UDP too)
        let b = scanner();
        let dst = Ipv4Addr::new(3, 3, 3, 3);
        let open = b.udp(dst, 80, b"ping", 0).unwrap();
        let reply = respond(seed, &model, &open);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
        assert!(matches!(resp.kind, ResponseKind::UdpData(_)));

        let closed = b.udp(dst, 9999, b"ping", 0).unwrap();
        let reply = respond(seed, &model, &closed);
        assert_eq!(reply.delays.len(), 1);
        let resp = b.parse_response(&reply.frame).unwrap().unwrap();
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
            let reply = respond(seed, &model, &probe);
            let resp = b.parse_response(&reply.frame).unwrap().unwrap();
            assert!(resp.ttl >= 40, "ttl {}", resp.ttl);
            ttls.insert(resp.ttl);
        }
        assert!(ttls.len() > 5, "TTLs should vary with OS and hops");
    }

    #[test]
    fn layout_detection() {
        for l in OptionLayout::ALL {
            assert_eq!(detect_layout(l.bytes()), Some(l));
        }
        assert_eq!(detect_layout(&[1, 1, 1, 1]), None);
    }

    /// The definition `option_set_of` replaced: decode, then look.
    fn option_set_by_decode(bytes: &[u8]) -> OptionSet {
        use zmap_wire::options::{decode, TcpOption};
        let mut set = OptionSet::default();
        for o in decode(bytes).unwrap_or_default() {
            match o {
                TcpOption::Mss(_) => set.mss = true,
                TcpOption::SackPermitted => set.sack = true,
                TcpOption::Timestamp(..) => set.timestamp = true,
                TcpOption::WindowScale(_) => set.wscale = true,
                _ => {}
            }
        }
        set
    }

    #[test]
    fn option_set_of_matches_decode_on_every_layout() {
        for l in OptionLayout::ALL {
            assert_eq!(option_set_of(l.bytes()), option_set_by_decode(l.bytes()), "{l:?}");
            assert_eq!(option_set_of(l.bytes()), l.carries(), "{l:?}");
        }
        // Malformed: a length under 2, past the end, missing; options
        // before the fault do not count.
        for bad in [&[2u8, 1, 0, 0][..], &[2, 10, 0, 0], &[2], &[2, 4, 5, 0xB4, 4], &[1, 8]] {
            assert_eq!(option_set_of(bad), option_set_by_decode(bad), "{bad:?}");
            assert_eq!(option_set_of(bad), OptionSet::default(), "{bad:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn option_set_of_matches_decode_on_any_block(
            bytes in proptest::collection::vec(0u8..12, 0..40),
        ) {
            proptest::prop_assert_eq!(option_set_of(&bytes), option_set_by_decode(&bytes));
        }
    }
}
