//! Host behavior: turning an arriving probe into (delayed) response frames.
//!
//! This is the "other half" of every scan — the simulated host stacks.
//! Behavior is derived from the procedural [`HostDraws`] and mirrors
//! real stacks: SYN→SYN-ACK/RST/silence/ICMP, echo→reply, UDP→echo or
//! port-unreachable, plus the option-sensitivity filtering and blowback
//! duplication the paper's experiments measure.
//!
//! A reply is decided at send and rendered at delivery. The responder
//! writes what the host decided into a [`Reply`]'s record: for TCP
//! answers and ICMP unreachables a short descriptor (the values the host
//! drew and the probe fields the reply echoes), for every other answer
//! the raw frame. The world queues that record for each copy and renders
//! it once, at delivery, straight into the receiver's batch, so an
//! in-flight reply costs about half its frame.

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

/// The kind byte that starts every record.
pub(crate) mod kind {
    /// The rendered frame follows: echo and UDP replies, and frames
    /// between endpoints.
    pub(crate) const RAW: u8 = 0;
    /// A v4 SYN-ACK, middlebox SYN-ACK or banner (`TcpAnswer`).
    pub(crate) const TCP: u8 = 1;
    /// A v4 RST-ACK: a `TcpAnswer` without its seq, window, flags and
    /// options, which an RST-ACK holds at zero, zero, RST|ACK and none.
    pub(crate) const RST: u8 = 2;
    /// A v4 ICMP destination-unreachable (`Unreach`).
    pub(crate) const UNREACH: u8 = 3;
    /// A v6 SYN-ACK or RST-ACK (`v6::Tcp6Answer`).
    pub(crate) const TCP6: u8 = 4;
}

/// Set in a corrupted copy's kind byte: its record then ends in the index
/// (`u32`, little-endian) of the bit to flip past the Ethernet header.
const CORRUPT: u8 = 0x80;

/// A host's answer to one probe, decided once: the record the delivery
/// queue holds for each copy, and the delays after the probe *arrives at
/// the host* at which the copies leave (one-way delay is added separately
/// by the world). No delays is silence, one is an ordinary reply, more are
/// blowback duplicates.
///
/// The world keeps one and writes every probe's answer into it, so a warm
/// responder allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// A kind byte, then that kind's fields (meaningless when `delays` is
    /// empty).
    pub(crate) record: Vec<u8>,
    /// The length of the frame the record renders to.
    frame_len: usize,
    /// When each copy leaves the host, in ns after the probe arrives.
    pub(crate) delays: Vec<u64>,
}

impl Reply {
    /// True when the probe drew no answer.
    pub fn is_silent(&self) -> bool {
        self.delays.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.record.clear();
        self.delays.clear();
    }

    /// The length of the frame the record renders to, known without
    /// rendering it.
    pub(crate) fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Starts a record of `kind` whose frame is `frame_len` bytes long;
    /// the caller appends the kind's fields.
    pub(crate) fn start(&mut self, kind: u8, frame_len: usize) -> &mut Vec<u8> {
        self.frame_len = frame_len;
        self.record.push(kind);
        &mut self.record
    }

    /// Makes the record the raw frame `write` emits.
    pub(crate) fn raw(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        self.record.push(kind::RAW);
        write(&mut self.record);
        self.frame_len = self.record.len() - 1;
    }

    /// Marks the record as a corrupted copy: it renders with bit `bit`
    /// past the Ethernet header flipped (`bit < 8 × (frame_len − 14)`).
    /// [`restore`](Self::restore) takes the mark off again.
    ///
    /// # Panics
    /// Panics on a bit index past 32 bits, which only a frame of 512 MiB
    /// or more has.
    #[expect(clippy::expect_used)]
    pub(crate) fn corrupt(&mut self, bit: u64) {
        let bit = u32::try_from(bit).expect("frames are under 512 MiB");
        self.record[0] |= CORRUPT;
        self.record.extend_from_slice(&bit.to_le_bytes());
    }

    /// Takes [`corrupt`](Self::corrupt)'s mark off the record.
    pub(crate) fn restore(&mut self) {
        self.record.truncate(self.record.len() - 4);
        self.record[0] &= !CORRUPT;
    }
}

/// Renders a queued record onto the end of `frame`: the frame the host
/// decided at send, once per delivered copy, with a corrupted copy's bit
/// flipped. Each kind's render reserves its whole frame first: its
/// headers' small appends would otherwise grow a fresh receive arena a
/// few bytes at a time (receiving into a new batch per drain, without
/// LTO on a 2-core x86-64 host, 236–298 ns a frame against 180–197).
pub(crate) fn render(record: &[u8], frame: &mut Vec<u8>) {
    let (kind, mut fields) = (record[0], &record[1..]);
    let mut flip = None;
    if kind & CORRUPT != 0 {
        let mut f = Fields(&fields[fields.len() - 4..]);
        flip = Some(f.u32() as usize);
        fields = &fields[..fields.len() - 4];
    }
    let start = frame.len();
    match kind & !CORRUPT {
        kind::TCP | kind::RST => TcpAnswer::decode(kind & !CORRUPT, fields).render(frame),
        kind::UNREACH => Unreach::decode(fields).render(frame),
        kind::TCP6 => crate::v6::Tcp6Answer::decode(fields).render(frame),
        _ => frame.extend_from_slice(fields),
    }
    if let Some(bit) = flip {
        frame[start + 14 + bit / 8] ^= 1 << (bit % 8);
    }
}

/// Reads a record's fields back in the order they were written.
pub(crate) struct Fields<'a>(pub(crate) &'a [u8]);

impl<'a> Fields<'a> {
    /// The next `N` bytes.
    pub(crate) fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        std::array::from_fn(|i| head[i])
    }

    pub(crate) fn u8(&mut self) -> u8 {
        let [b] = self.take();
        b
    }

    pub(crate) fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    pub(crate) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Every byte not yet read.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.0
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

/// A test's view of a reply: its frame, rendered, and its copies' delays.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct Rendered {
    pub(crate) frame: Vec<u8>,
    pub(crate) delays: Vec<u64>,
}

#[cfg(test)]
impl Rendered {
    pub(crate) fn is_silent(&self) -> bool {
        self.delays.is_empty()
    }
}

#[cfg(test)]
impl Reply {
    /// The reply as a receiver sees it: the record rendered, as at
    /// delivery.
    pub(crate) fn rendered(&self) -> Rendered {
        let mut frame = Vec::new();
        if !self.is_silent() {
            render(&self.record, &mut frame);
        }
        Rendered {
            frame,
            delays: self.delays.clone(),
        }
    }
}

/// The reply (if any) a probe frame elicits, rendered: a test's way into
/// [`respond_routed`], which the world calls with its own parse.
#[cfg(test)]
pub(crate) fn respond(seed: u64, model: &crate::services::ServiceModel, frame: &[u8]) -> Rendered {
    let mut out = Reply::default();
    let Ok(eth) = EthernetView::parse(frame) else {
        return out.rendered();
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return out.rendered();
    }
    let Ok(ip) = Ipv4View::parse(eth.payload()) else {
        return out.rendered();
    };
    respond_routed(&HostDraws::new(seed, u32::from(ip.dst()), model), &eth, &ip, &mut out);
    out.rendered()
}

/// Writes into the reused `out` the reply a parsed v4 probe elicits from
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
            TcpAnswer::middlebox_synack(eth, ip, &tcp, seed).encode(out);
            out.delays.push(0);
        }
        return;
    }
    if !h.live() {
        // Dead address: sometimes a router reports host-unreachable.
        if dead_unreach(seed, dst, h.model) {
            let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
            Unreach::new(eth, ip, router, UnreachCode::Host, seed).encode(out);
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
            TcpAnswer::banner(eth, ip, &tcp, h).encode(out);
        } else {
            TcpAnswer::rst(eth, ip, &tcp, h).encode(out);
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
        TcpAnswer::synack(eth, ip, &tcp, h).encode(out);
        out.delays.push(0);
        duplicate_delays(seed, dst, h.blowback_extra(), &mut out.delays);
        return;
    }
    match h.closed_port() {
        ClosedPort::Rst => {
            TcpAnswer::rst(eth, ip, &tcp, h).encode(out);
            out.delays.push(0);
        }
        ClosedPort::AdminProhibited => {
            let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
            Unreach::new(eth, ip, router, UnreachCode::AdminProhibited, seed).encode(out);
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
    out.raw(|frame| {
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
    });
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
        out.raw(|frame| {
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
        });
        out.delays.push(0);
        duplicate_delays(seed, dst, h.blowback_extra(), &mut out.delays);
    } else {
        // Closed UDP port: ICMP port unreachable (RFC 1122).
        let router = ip.dst();
        Unreach::new(eth, ip, router, UnreachCode::Port, seed).encode(out);
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

/// A v4 TCP answer — SYN-ACK, middlebox SYN-ACK, banner or RST-ACK — as
/// the host decided it at send: the probe fields the reply echoes and the
/// values the host drew. A banner's body follows from the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TcpAnswer {
    /// The probe's Ethernet source.
    to: MacAddr,
    /// The probed address: the reply's source.
    host: Ipv4Addr,
    /// The probe's source: the reply's destination.
    scanner: Ipv4Addr,
    host_port: u16,
    scanner_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    options: OptionLayout,
    ip_id: u16,
    ttl: u8,
}

/// A banner reply's flags.
const BANNER: TcpFlags = TcpFlags(TcpFlags::PSH.0 | TcpFlags::ACK.0);

impl TcpAnswer {
    /// The probe fields every answer echoes, with the rest of an RST-ACK's
    /// zeros.
    fn echoing(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, tcp: &TcpView<'_>) -> Self {
        TcpAnswer {
            to: eth.src(),
            host: ip.dst(),
            scanner: ip.src(),
            host_port: tcp.dst_port(),
            scanner_port: tcp.src_port(),
            seq: 0,
            ack: tcp.seq().wrapping_add(1),
            flags: TcpFlags::RST_ACK,
            window: 0,
            options: OptionLayout::NoOptions,
            ip_id: 0,
            ttl: 0,
        }
    }

    /// An RST-ACK for a closed port (or a stray segment).
    fn rst(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, tcp: &TcpView<'_>, h: &HostDraws<'_>) -> Self {
        TcpAnswer {
            ip_id: reply_ip_id(h),
            ttl: observed_ttl(h),
            ..Self::echoing(eth, ip, tcp)
        }
    }

    /// A live host's SYN-ACK for an open port, with OS-specific options.
    fn synack(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, tcp: &TcpView<'_>, h: &HostDraws<'_>) -> Self {
        let os = h.os();
        TcpAnswer {
            seq: hash3(h.seed, h.ip, 0x5EB) as u32,
            flags: TcpFlags::SYN_ACK,
            window: os.window(),
            options: os.reply_layout(),
            ..Self::rst(eth, ip, tcp, h)
        }
    }

    /// A middlebox's SYN-ACK: a bland, embedded-looking stack that answers
    /// any port (no blowback, no options beyond MSS).
    fn middlebox_synack(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, tcp: &TcpView<'_>, seed: u64) -> Self {
        let dst = u32::from(ip.dst());
        TcpAnswer {
            seq: hash3(seed, dst, 0x3B0) as u32,
            flags: TcpFlags::SYN_ACK,
            window: 16384,
            options: OptionLayout::MssOnly,
            ip_id: hash3(seed, dst, 0x3B1) as u16,
            ttl: 64u8.saturating_sub(hops(seed, dst) / 2),
            ..Self::echoing(eth, ip, tcp)
        }
    }

    /// An L7 banner reply: PSH|ACK carrying the service banner,
    /// acknowledging the client's data.
    fn banner(eth: &EthernetView<'_>, ip: &Ipv4View<'_>, tcp: &TcpView<'_>, h: &HostDraws<'_>) -> Self {
        TcpAnswer {
            seq: hash3(h.seed, h.ip, 0x5EC) as u32,
            ack: tcp.seq().wrapping_add(tcp.payload().len() as u32),
            flags: BANNER,
            window: h.os().window(),
            ..Self::rst(eth, ip, tcp, h)
        }
    }

    fn body(&self) -> &'static [u8] {
        if self.flags == BANNER {
            banner_for_port(self.host_port)
        } else {
            &[]
        }
    }

    fn frame_len(&self) -> usize {
        14 + 20 + 20 + self.options.bytes().len() + self.body().len()
    }

    /// Writes the answer into `out`: 25 bytes after the kind for an
    /// RST-ACK, 33 for the others.
    fn encode(&self, out: &mut Reply) {
        let rst = self.flags == TcpFlags::RST_ACK;
        let r = out.start(if rst { kind::RST } else { kind::TCP }, self.frame_len());
        r.extend_from_slice(&self.to.0);
        r.extend_from_slice(&self.host.octets());
        r.extend_from_slice(&self.scanner.octets());
        r.extend_from_slice(&self.host_port.to_le_bytes());
        r.extend_from_slice(&self.scanner_port.to_le_bytes());
        r.extend_from_slice(&self.ack.to_le_bytes());
        r.extend_from_slice(&self.ip_id.to_le_bytes());
        r.push(self.ttl);
        if !rst {
            let layout = OptionLayout::ALL.iter().position(|&l| l == self.options);
            r.extend_from_slice(&self.seq.to_le_bytes());
            r.extend_from_slice(&self.window.to_le_bytes());
            r.push(self.flags.0);
            r.push(layout.unwrap_or(0) as u8);
        }
    }

    /// The answer `encode` wrote as a `kind` record.
    fn decode(kind: u8, fields: &[u8]) -> Self {
        let mut f = Fields(fields);
        let mut a = TcpAnswer {
            to: MacAddr(f.take()),
            host: Ipv4Addr::from(f.take::<4>()),
            scanner: Ipv4Addr::from(f.take::<4>()),
            host_port: f.u16(),
            scanner_port: f.u16(),
            ack: f.u32(),
            ip_id: f.u16(),
            ttl: f.u8(),
            seq: 0,
            window: 0,
            flags: TcpFlags::RST_ACK,
            options: OptionLayout::NoOptions,
        };
        if kind == kind::TCP {
            a.seq = f.u32();
            a.window = f.u16();
            a.flags = TcpFlags(f.u8());
            a.options = OptionLayout::ALL[usize::from(f.u8())];
        }
        a
    }

    /// Renders the frame.
    ///
    /// # Panics
    /// Panics if the reply overflows the IPv4 length field — unreachable
    /// for the header-only segments and short banners built here; `emit`
    /// checks it.
    #[expect(clippy::expect_used)]
    fn render(&self, frame: &mut Vec<u8>) {
        frame.reserve(self.frame_len());
        EthernetRepr {
            dst: self.to,
            src: MacAddr::local(u32::from(self.host)),
            ethertype: EtherType::Ipv4,
        }
        .emit(frame);
        let body = self.body();
        let reply = TcpRepr {
            src_port: self.host_port,
            dst_port: self.scanner_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            options: self.options.bytes(),
        };
        let tcp_len = (reply.header_len() + body.len()) as u16;
        Ipv4Repr {
            src: self.host,
            dst: self.scanner,
            protocol: IpProtocol::Tcp,
            id: self.ip_id,
            ttl: self.ttl,
            payload_len: tcp_len,
        }
        .emit(frame).expect("reply fits IPv4 length");
        let pseudo = checksum::pseudo_header(u32::from(self.host), u32::from(self.scanner), 6, tcp_len);
        reply.emit(pseudo, body, frame);
    }
}

/// An ICMP destination-unreachable from `router`, quoting the probe's IP
/// header + 8 bytes (RFC 792), as decided at send. Also used by the fault
/// layer's ICMP rate-limit storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unreach<'a> {
    /// The probe's Ethernet source.
    to: MacAddr,
    router: Ipv4Addr,
    /// The probe's source: the reply's destination.
    scanner: Ipv4Addr,
    code: UnreachCode,
    ip_id: u16,
    ttl: u8,
    /// The probe's first ≤ 28 bytes past Ethernet.
    quote: &'a [u8],
}

impl<'a> Unreach<'a> {
    pub(crate) fn new(
        eth: &EthernetView<'a>,
        ip: &Ipv4View<'_>,
        router: Ipv4Addr,
        code: UnreachCode,
        seed: u64,
    ) -> Self {
        let probe = eth.payload();
        Unreach {
            to: eth.src(),
            router,
            scanner: ip.src(),
            code,
            ip_id: hash3(seed, u32::from(router), 0x1D) as u16,
            ttl: 64u8.saturating_sub(hops(seed, u32::from(router)) / 2),
            quote: &probe[..(20 + 8).min(probe.len())],
        }
    }

    /// Writes the answer into `out`: 18 bytes after the kind, then the
    /// quote.
    fn frame_len(&self) -> usize {
        14 + 20 + 8 + self.quote.len()
    }

    pub(crate) fn encode(&self, out: &mut Reply) {
        let r = out.start(kind::UNREACH, self.frame_len());
        r.extend_from_slice(&self.to.0);
        r.extend_from_slice(&self.router.octets());
        r.extend_from_slice(&self.scanner.octets());
        r.push(u8::from(self.code));
        r.extend_from_slice(&self.ip_id.to_le_bytes());
        r.push(self.ttl);
        r.extend_from_slice(self.quote);
    }

    /// The answer `encode` wrote.
    fn decode(fields: &'a [u8]) -> Self {
        let mut f = Fields(fields);
        Unreach {
            to: MacAddr(f.take()),
            router: Ipv4Addr::from(f.take::<4>()),
            scanner: Ipv4Addr::from(f.take::<4>()),
            code: UnreachCode::from(f.u8()),
            ip_id: f.u16(),
            ttl: f.u8(),
            quote: f.rest(),
        }
    }

    /// Renders the frame.
    ///
    /// # Panics
    /// Panics if the reply overflows the IPv4 length field — unreachable
    /// for the 28-byte quote bound here; `emit` checks it.
    #[expect(clippy::expect_used)]
    fn render(&self, frame: &mut Vec<u8>) {
        frame.reserve(self.frame_len());
        EthernetRepr {
            dst: self.to,
            src: MacAddr::local(u32::from(self.router)),
            ethertype: EtherType::Ipv4,
        }
        .emit(frame);
        Ipv4Repr {
            src: self.router,
            dst: self.scanner,
            protocol: IpProtocol::Icmp,
            id: self.ip_id,
            ttl: self.ttl,
            payload_len: (8 + self.quote.len()) as u16,
        }
        .emit(frame).expect("reply fits IPv4 length");
        IcmpRepr {
            icmp_type: IcmpType::DestUnreachable(self.code),
            id: 0,
            seq: 0,
        }
        .emit(self.quote, frame);
    }
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
