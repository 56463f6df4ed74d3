//! A procedurally generated IPv6 population.
//!
//! IPv6's host space is sparse: only announced prefixes contain anything,
//! and within a prefix the responsive hosts follow addressing patterns
//! (low-byte statics, SLAAC EUI-64, embedded IPv4). The population reuses
//! the scanner's own [`PrefixSpec`] line format —
//!
//! ```text
//! 2001:db8:a::/48 pattern=eui64 bits=10 density=0.6
//! ```
//!
//! — so one committed file drives both the walk and the ground truth, and
//! a scan's hit-rate-vs-probes-sent curve is a pure function of
//! (prefix list, seed). A host exists iff some line enumerates its
//! address — the scanner's own [`PrefixTable`] lookup; it answers iff a
//! per-host hash draw lands under that line's `density`. Everything else
//! in the v6 space — including on-pattern addresses of dead hosts — is
//! silent, exactly the behavior XMap-style target generation exploits.

use crate::responder::{kind, Fields, Reply};
use crate::{unit, NS_PER_SEC};
use std::net::Ipv6Addr;
use zmap_targets::v6::{parse_prefix_list, PrefixSpec, PrefixTable, V6ParseError};
use zmap_wire::checksum;
use zmap_wire::ethernet::{EtherType, EthernetRepr, EthernetView, MacAddr};
use zmap_wire::icmpv6::{Icmpv6Repr, Icmpv6Type, Icmpv6View};
use zmap_wire::ipv4::IpProtocol;
use zmap_wire::ipv6::{Ipv6Repr, Ipv6View, NEXT_HEADER_ICMPV6};
use zmap_wire::options::OptionLayout;
use zmap_wire::tcp::{TcpFlags, TcpRepr, TcpView};
use zmap_wire::udp::{UdpRepr, UdpView};

/// Deterministic hash of (seed, v6 address, salt) — the v6 counterpart of
/// [`crate::hash3`]. The 24-byte message `addr ‖ salt_le` packs into three
/// whole SipHash blocks plus a final block holding only the length byte.
#[inline]
pub fn hash6(seed: u64, addr: Ipv6Addr, salt: u64) -> u64 {
    let a = u128::from_le_bytes(addr.octets());
    let m = [a as u64, (a >> 64) as u64, salt, 24 << 56];
    zmap_wire::cookie::siphash24_words(seed, 0x7A6D_6170_6E65_7473, m)
}

/// The simulated IPv6 population: announced prefixes with procedural
/// host patterns and per-prefix response densities.
#[derive(Debug, Clone)]
pub struct V6Population {
    specs: Vec<PrefixSpec>,
    table: PrefixTable,
    open_ports: Vec<u16>,
}

impl V6Population {
    /// Builds a population over already-parsed specs. `open_ports` is the
    /// set every live host listens on (TCP SYN-ACK / UDP echo); other
    /// ports RST (TCP) or stay silent (UDP).
    pub fn new(specs: Vec<PrefixSpec>, open_ports: Vec<u16>) -> Self {
        V6Population {
            table: PrefixTable::new(&specs),
            specs,
            open_ports,
        }
    }

    /// Builds a population from prefix-list file contents — the same
    /// format [`parse_prefix_list`] accepts on the scanner side.
    pub fn from_prefix_list(contents: &str, open_ports: Vec<u16>) -> Result<Self, V6ParseError> {
        Ok(Self::new(parse_prefix_list(contents)?, open_ports))
    }

    /// The configured prefixes.
    pub fn specs(&self) -> &[PrefixSpec] {
        &self.specs
    }

    /// Ground truth: does a responsive host live at `addr`? True iff a
    /// line enumerates the address (one [`PrefixTable`] lookup, the one
    /// the scanner keys responses with) AND the per-host draw lands under
    /// that line's density. Pure in (seed, addr), so scans and oracle
    /// counts agree without shared state.
    pub fn responsive(&self, seed: u64, addr: Ipv6Addr) -> bool {
        self.table.find(addr).is_some_and(|(line, _)| {
            unit(hash6(seed, addr, 0x76_616C)) < self.specs[line].density()
        })
    }

    /// Total responsive hosts under `seed` — the oracle denominator for
    /// hit-rate/coverage curves. Walks every on-pattern address, so only
    /// sensible for scenario-sized populations.
    pub fn responsive_count(&self, seed: u64) -> u64 {
        let mut n = 0;
        for spec in &self.specs {
            for i in 0..spec.host_count() {
                if self.responsive(seed, spec.addr_at(i)) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Whether live hosts listen on `port`.
    pub fn port_open(&self, port: u16) -> bool {
        self.open_ports.contains(&port)
    }

    /// Writes the reply a v6 probe frame elicits into `out` (silent for
    /// dead space; v6 hosts never blow back). The caller applies delays
    /// and routing, as with the v4 responder.
    pub fn respond(&self, seed: u64, eth: &EthernetView<'_>, ip: &Ipv6View<'_>, out: &mut Reply) {
        out.clear();
        if !self.responsive(seed, ip.dst()) {
            return;
        }
        let answered = match ip.next_header() {
            IpProtocol::Tcp => self.respond_tcp(seed, eth, ip, out),
            IpProtocol::Udp => self.respond_udp(seed, eth, ip, out),
            IpProtocol::Other(NEXT_HEADER_ICMPV6) => respond_icmpv6(seed, eth, ip, out),
            _ => false,
        };
        if answered {
            out.delays.push(0);
        }
    }

    /// Writes a SYN's SYN-ACK or RST into `out`; false for any other
    /// segment.
    fn respond_tcp(&self, seed: u64, eth: &EthernetView<'_>, ip: &Ipv6View<'_>, out: &mut Reply) -> bool {
        let Ok(tcp) = TcpView::parse(ip.payload()) else {
            return false;
        };
        if !tcp.flags().syn() || tcp.flags().ack() {
            return false;
        }
        let open = self.port_open(tcp.dst_port());
        Tcp6Answer {
            head: V6Header::new(seed, eth, ip),
            host_port: tcp.dst_port(),
            scanner_port: tcp.src_port(),
            seq: if open { hash6(seed, ip.dst(), 0x5EB) as u32 } else { 0 },
            ack: tcp.seq().wrapping_add(1),
            open,
        }
        .encode(out);
        true
    }

    /// Writes an open port's echo of the datagram into `out`; false for a
    /// closed port.
    fn respond_udp(&self, seed: u64, eth: &EthernetView<'_>, ip: &Ipv6View<'_>, out: &mut Reply) -> bool {
        let Ok(udp) = UdpView::parse(ip.payload()) else {
            return false;
        };
        if !self.port_open(udp.dst_port()) {
            // Closed v6 UDP stays silent here: synthesizing the ICMPv6
            // unreachable quote chain is beyond what the hit-rate
            // experiments need.
            return false;
        }
        let payload = udp.payload();
        let len = (8 + payload.len()) as u16;
        out.raw(|frame| {
            let pseudo = V6Header::new(seed, eth, ip).emit(IpProtocol::Udp, len, frame);
            UdpRepr {
                src_port: udp.dst_port(),
                dst_port: udp.src_port(),
            }
            .emit(pseudo, payload, frame);
        });
        true
    }
}

/// Writes an echo request's reply into `out`; false for any other ICMPv6
/// message.
fn respond_icmpv6(seed: u64, eth: &EthernetView<'_>, ip: &Ipv6View<'_>, out: &mut Reply) -> bool {
    let Ok(icmp) = Icmpv6View::parse(ip.payload()) else {
        return false;
    };
    if icmp.icmp_type() != Icmpv6Type::EchoRequest {
        return false;
    }
    let payload = icmp.payload();
    let len = (8 + payload.len()) as u16;
    out.raw(|frame| {
        let next = IpProtocol::Other(NEXT_HEADER_ICMPV6);
        let pseudo = V6Header::new(seed, eth, ip).emit(next, len, frame);
        Icmpv6Repr {
            icmp_type: Icmpv6Type::EchoReply,
            id: icmp.id(),
            seq: icmp.seq(),
        }
        .emit(pseudo, payload, frame);
    });
    true
}

/// Hop count between the core and a v6 host (shapes the hop limit the
/// scanner observes).
fn hops6(seed: u64, addr: Ipv6Addr) -> u8 {
    5 + (hash6(seed, addr, 0x4085) % 18) as u8
}

/// One-way delay to a v6 host: 5–50 ms, procedural per host.
pub(crate) fn owd6(seed: u64, addr: Ipv6Addr) -> u64 {
    5_000_000 + hash6(seed, addr, 0xDE1A) % (NS_PER_SEC / 22)
}

/// What a v6 reply's Ethernet and IPv6 headers hold: the probe's
/// addresses swapped, and the host's MAC word and hop limit, drawn at
/// send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct V6Header {
    /// The probe's Ethernet source.
    to: MacAddr,
    /// The word the host's MAC derives from.
    mac_word: u32,
    /// The probed address: the reply's source.
    host: Ipv6Addr,
    /// The probe's source: the reply's destination.
    scanner: Ipv6Addr,
    hop_limit: u8,
}

impl V6Header {
    fn new(seed: u64, eth: &EthernetView<'_>, ip: &Ipv6View<'_>) -> Self {
        V6Header {
            to: eth.src(),
            mac_word: hash6(seed, ip.dst(), 0x6D_61_63) as u32,
            host: ip.dst(),
            scanner: ip.src(),
            hop_limit: 64u8.saturating_sub(hops6(seed, ip.dst())),
        }
    }

    /// Emits the Ethernet + IPv6 reply headers for a `payload_len`-byte
    /// `next_header` payload, and returns that payload's pseudo-header
    /// sum.
    fn emit(&self, next_header: IpProtocol, payload_len: u16, frame: &mut Vec<u8>) -> u32 {
        EthernetRepr {
            dst: self.to,
            src: MacAddr::local(self.mac_word),
            ethertype: EtherType::Ipv6,
        }
        .emit(frame);
        Ipv6Repr {
            src: self.host,
            dst: self.scanner,
            next_header,
            hop_limit: self.hop_limit,
            payload_len,
        }
        .emit(frame);
        checksum::pseudo_header_v6(
            &self.host.octets(),
            &self.scanner.octets(),
            next_header.into(),
            u32::from(payload_len),
        )
    }
}

/// A v6 SYN's answer as the host decided it at send: a SYN-ACK from an
/// open port, else an RST-ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tcp6Answer {
    head: V6Header,
    host_port: u16,
    scanner_port: u16,
    seq: u32,
    ack: u32,
    open: bool,
}

impl Tcp6Answer {
    fn repr(&self) -> TcpRepr<'static> {
        let open = self.open;
        TcpRepr {
            src_port: self.host_port,
            dst_port: self.scanner_port,
            seq: self.seq,
            ack: self.ack,
            flags: if open { TcpFlags::SYN_ACK } else { TcpFlags::RST_ACK },
            window: if open { 65535 } else { 0 },
            options: if open { OptionLayout::MssOnly.bytes() } else { &[] },
        }
    }

    fn frame_len(&self) -> usize {
        14 + 40 + self.repr().header_len()
    }

    /// Writes the answer into `out`: 56 bytes after the kind.
    fn encode(&self, out: &mut Reply) {
        let h = &self.head;
        let r = out.start(kind::TCP6, self.frame_len());
        r.push(u8::from(self.open));
        r.extend_from_slice(&h.to.0);
        r.extend_from_slice(&h.mac_word.to_le_bytes());
        r.extend_from_slice(&h.host.octets());
        r.extend_from_slice(&h.scanner.octets());
        r.push(h.hop_limit);
        r.extend_from_slice(&self.host_port.to_le_bytes());
        r.extend_from_slice(&self.scanner_port.to_le_bytes());
        r.extend_from_slice(&self.seq.to_le_bytes());
        r.extend_from_slice(&self.ack.to_le_bytes());
    }

    /// The answer `encode` wrote.
    pub(crate) fn decode(fields: &[u8]) -> Self {
        let mut f = Fields(fields);
        Tcp6Answer {
            open: f.u8() != 0,
            head: V6Header {
                to: MacAddr(f.take()),
                mac_word: f.u32(),
                host: Ipv6Addr::from(f.take::<16>()),
                scanner: Ipv6Addr::from(f.take::<16>()),
                hop_limit: f.u8(),
            },
            host_port: f.u16(),
            scanner_port: f.u16(),
            seq: f.u32(),
            ack: f.u32(),
        }
    }

    /// Renders the frame.
    pub(crate) fn render(&self, frame: &mut Vec<u8>) {
        frame.reserve(self.frame_len());
        let reply = self.repr();
        let pseudo = self.head.emit(IpProtocol::Tcp, reply.header_len() as u16, frame);
        reply.emit(pseudo, &[], frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::Rendered;
    use zmap_wire::{ProbeBuilderV6, ResponseKind};

    fn src_ip() -> Ipv6Addr {
        "2001:db8:ffff::1".parse().unwrap()
    }

    #[test]
    fn hash6_packed_blocks_match_slice_siphash() {
        // The four-block form must agree with a plain SipHash over the
        // documented 24-byte message for arbitrary (seed, addr, salt),
        // including salts using all 64 bits (the jitter salt XORs in a
        // full timestamp).
        let mut x = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let (seed, salt) = (next(), next());
            let addr = Ipv6Addr::from(u128::from(next()) << 64 | u128::from(next()));
            let mut msg = [0u8; 24];
            msg[0..16].copy_from_slice(&addr.octets());
            msg[16..24].copy_from_slice(&salt.to_le_bytes());
            assert_eq!(
                hash6(seed, addr, salt),
                zmap_wire::cookie::siphash24(seed, 0x7A6D_6170_6E65_7473, &msg),
                "seed={seed:#x} addr={addr} salt={salt:#x}"
            );
        }
    }

    fn population() -> V6Population {
        V6Population::from_prefix_list(
            "2001:db8:a::/48 pattern=low bits=8 density=0.5\n\
             2001:db8:b::/48 pattern=eui64 bits=6 density=1.0\n",
            vec![80, 443],
        )
        .unwrap()
    }

    fn respond_to(pop: &V6Population, seed: u64, frame: &[u8]) -> Rendered {
        let eth = EthernetView::parse(frame).unwrap();
        let ip = Ipv6View::parse(eth.payload()).unwrap();
        let mut out = Reply::default();
        pop.respond(seed, &eth, &ip, &mut out);
        out.rendered()
    }

    /// First responsive host of spec 0 under `seed`.
    fn live_host(pop: &V6Population, seed: u64, spec: usize) -> Ipv6Addr {
        let s = &pop.specs()[spec];
        (0..s.host_count())
            .map(|i| s.addr_at(i))
            .find(|a| pop.responsive(seed, *a))
            .expect("some host draws under density")
    }

    #[test]
    fn density_thins_the_population() {
        let pop = population();
        let half: u64 = (0..256u128)
            .filter(|&i| pop.responsive(7, pop.specs()[0].addr_at(i)))
            .count() as u64;
        assert!((90..=166).contains(&half), "density 0.5 of 256: {half}");
        let full: u64 = (0..64u128)
            .filter(|&i| pop.responsive(7, pop.specs()[1].addr_at(i)))
            .count() as u64;
        assert_eq!(full, 64, "density 1.0 answers everywhere");
        assert_eq!(pop.responsive_count(7), half + full);
    }

    #[test]
    fn off_pattern_and_off_prefix_addresses_are_dead() {
        let pop = population();
        // Inside the EUI-64 prefix but not EUI-64-shaped.
        assert!(!pop.responsive(7, "2001:db8:b::1".parse().unwrap()));
        // Outside every prefix.
        assert!(!pop.responsive(7, "2001:db8:c::1".parse().unwrap()));
        // Beyond the indexed host range.
        assert!(!pop.responsive(7, "2001:db8:a::1:0".parse().unwrap()));
    }

    #[test]
    fn nested_lines_answer_by_the_line_that_walks_them() {
        // The /64 nests inside the /32, and the /32's hosts 2001:db8::0–ff
        // are off the /64's EUI-64 pattern: every one of the 256 + 16
        // walked hosts must answer by the line that enumerates it, not
        // by its longest matching prefix.
        let pop = V6Population::from_prefix_list(
            "2001:db8::/32 bits=8 density=0.5\n2001:db8::/64 pattern=eui64 bits=4 density=0.75\n",
            vec![443],
        )
        .unwrap();
        let mut live = 0;
        for spec in pop.specs() {
            for i in 0..spec.host_count() {
                let addr = spec.addr_at(i);
                let drawn = unit(hash6(7, addr, 0x76_616C)) < spec.density();
                assert_eq!(pop.responsive(7, addr), drawn, "{addr}");
                live += u64::from(drawn);
            }
        }
        assert!(live > 0);
        assert_eq!(pop.responsive_count(7), live);
    }

    #[test]
    fn syn_gets_synack_on_open_and_rst_on_closed() {
        let pop = population();
        let b = ProbeBuilderV6::new(src_ip(), 1);
        let dst = live_host(&pop, 7, 0);
        let open = respond_to(&pop, 7, &b.tcp_syn(dst, 80, 0));
        assert_eq!(open.delays, [0]);
        let resp = b.parse_response(&open.frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::SynAck);
        assert_eq!(resp.ip, dst);
        let closed = respond_to(&pop, 7, &b.tcp_syn(dst, 8080, 0));
        let resp = b.parse_response(&closed.frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::Rst);
    }

    #[test]
    fn echo_request_gets_validated_reply() {
        let pop = population();
        let b = ProbeBuilderV6::new(src_ip(), 2);
        let dst = live_host(&pop, 9, 1);
        let replies = respond_to(&pop, 9, &b.icmp_echo(dst, 0));
        assert_eq!(replies.delays, [0]);
        let resp = b.parse_response(&replies.frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::EchoReply);
        assert_eq!(resp.ip, dst);
    }

    #[test]
    fn udp_echoes_payload_only_on_open_ports() {
        let pop = population();
        let b = ProbeBuilderV6::new(src_ip(), 3);
        let dst = live_host(&pop, 11, 0);
        let replies = respond_to(&pop, 11, &b.udp(dst, 443, b"ping", 0).unwrap());
        assert_eq!(replies.delays, [0]);
        let resp = b.parse_response(&replies.frame).unwrap().unwrap();
        // The probe payload carries the 8-byte validation tag plus the
        // caller's 4 bytes; the service echoes all of it.
        assert!(matches!(resp.kind, ResponseKind::UdpData(12)), "{:?}", resp.kind);
        assert!(respond_to(&pop, 11, &b.udp(dst, 9999, b"ping", 0).unwrap()).is_silent());
    }

    #[test]
    fn dead_hosts_are_silent() {
        let pop = population();
        let b = ProbeBuilderV6::new(src_ip(), 4);
        let s = &pop.specs()[0];
        let dead = (0..s.host_count())
            .map(|i| s.addr_at(i))
            .find(|a| !pop.responsive(7, *a))
            .expect("density 0.5 leaves dead hosts");
        assert!(respond_to(&pop, 7, &b.tcp_syn(dead, 80, 0)).is_silent());
        assert!(respond_to(&pop, 7, &b.icmp_echo(dead, 0)).is_silent());
    }

    #[test]
    fn responses_are_deterministic_in_seed() {
        let pop = population();
        let b = ProbeBuilderV6::new(src_ip(), 5);
        let dst = live_host(&pop, 7, 1);
        let a = respond_to(&pop, 7, &b.tcp_syn(dst, 80, 0));
        let c = respond_to(&pop, 7, &b.tcp_syn(dst, 80, 0));
        assert_eq!(a.delays, c.delays);
        assert_eq!(a.frame, c.frame);
    }
}
