//! Probe frame assembly and response classification — the glue between
//! raw wire formats and the scanner engine, written once over the
//! [`L3`] family seam.
//!
//! [`ProbeBuilder`] stamps out complete Ethernet frames for TCP SYN, ICMP
//! echo, and UDP probes, embedding the validation cookie;
//! [`ProbeBuilder::classify`] takes a received frame and classifies
//! it, checking the cookie so the engine sees only validated, typed
//! responses. Following XMap, the IPv6 scanner is the same stateless
//! cookie modules over a different network header: `ProbeBuilder<V4>` and
//! `ProbeBuilder<V6>` are two monomorphisations of the code below (the
//! crate root aliases them as `ProbeBuilder` and `ProbeBuilderV6`).

use crate::cookie::{ProbeValues, ValidationKey};
use crate::ethernet::{EthernetRepr, EthernetView, MacAddr};
use crate::icmp::UnreachCode;
use crate::ipv4::{IpIdMode, IpProtocol, Ipv4View};
use crate::l3::{Packet, L3, V4, V6};
use crate::options::OptionLayout;
use crate::tcp::{TcpFlags, TcpRepr, TcpView};
use crate::udp::{UdpRepr, UdpView};
use crate::{ethernet, WireError};
use std::net::Ipv4Addr;

/// ZMap's default source-port range base.
pub const DEFAULT_SPORT_BASE: u16 = 32768;
/// ZMap's default source-port range size (32768–61000).
pub const DEFAULT_SPORT_COUNT: u16 = 28233;

/// Echo probes carry eight zero bytes of data.
const ECHO_PAYLOAD: [u8; 8] = [0; 8];

/// Builds probe frames for one scan (fixed L2 addressing, key, layout).
/// The seed-derived MACs and validation key do not depend on the family,
/// so a dual-stack scan shares one identity.
#[derive(Debug, Clone)]
pub struct ProbeBuilder<L: L3> {
    /// Scanner MAC.
    pub src_mac: MacAddr,
    /// Gateway MAC.
    pub gw_mac: MacAddr,
    /// Scanner source address.
    pub src_ip: L::Addr,
    /// TCP option layout for SYN probes.
    pub layout: OptionLayout,
    /// IP identification policy (IPv6 has no such field and ignores it).
    pub ip_id: IpIdMode,
    /// IP TTL / IPv6 hop limit (ZMap sends 255).
    pub ttl: u8,
    /// Source-port range base.
    pub sport_base: u16,
    /// Source-port range size.
    pub sport_count: u16,
    /// Validation key (per scan).
    pub key: ValidationKey,
}

impl<L: L3> ProbeBuilder<L> {
    /// A builder with ZMap defaults, deriving MACs/key from `seed`.
    ///
    /// The validation key is a function of the seed *only* — never of
    /// the target walk. Validation is therefore decoupled from probe
    /// order: a stealth scan that re-keys its permutation per block
    /// (`rekey_blocks`) changes *when* each probe is sent but not what
    /// it contains, so responses validate identically and the RX path
    /// needs no awareness of the walk shape.
    pub fn new(src_ip: L::Addr, seed: u64) -> Self {
        ProbeBuilder {
            src_mac: MacAddr::local(seed as u32),
            gw_mac: MacAddr::local((seed >> 32) as u32 ^ 0xFFFF),
            src_ip,
            layout: OptionLayout::default(),
            ip_id: IpIdMode::default(),
            ttl: 255,
            sport_base: DEFAULT_SPORT_BASE,
            sport_count: DEFAULT_SPORT_COUNT,
            key: ValidationKey::from_seed(seed),
        }
    }

    /// The source port this scan uses for `(dst_ip, dst_port)`.
    pub fn source_port(&self, dst_ip: L::Addr, dst_port: u16) -> u16 {
        self.sport(self.probe_values(dst_ip, dst_port))
    }

    pub(crate) fn sport(&self, v: ProbeValues) -> u16 {
        v.source_port(self.sport_base, self.sport_count)
    }

    /// The MAC-derived per-probe material for `(dst_ip, dst_port)` —
    /// one hash invocation yielding every varying field.
    pub fn probe_values(&self, dst_ip: L::Addr, dst_port: u16) -> ProbeValues {
        L::probe_values(&self.key, self.src_ip, dst_ip, dst_port)
    }

    /// Whether `port` falls in this scan's source-port range.
    pub fn owns_source_port(&self, port: u16) -> bool {
        let off = port.wrapping_sub(self.sport_base);
        off < self.sport_count
    }

    /// Starts a frame: Ethernet and IP headers (IP ID `ip_id`, resolved)
    /// announcing `l4_len` bytes of `protocol`, plus the pseudo-header
    /// seed for that L4 checksum. Fails only where the family's length
    /// field cannot hold `l4_len`.
    fn start_frame(
        &self,
        dst_ip: L::Addr,
        protocol: IpProtocol,
        l4_len: usize,
        ip_id: u16,
    ) -> Result<(Vec<u8>, u32), WireError> {
        let l4_len = u16::try_from(l4_len).map_err(|_| WireError::BadLength)?;
        let mut buf =
            Vec::with_capacity(ethernet::HEADER_LEN + L::HEADER_LEN + usize::from(l4_len));
        EthernetRepr {
            dst: self.gw_mac,
            src: self.src_mac,
            ethertype: L::ETHERTYPE,
        }
        .emit(&mut buf);
        L::emit_header(self, dst_ip, protocol, l4_len, ip_id, &mut buf)?;
        Ok((buf, L::pseudo_header(self.src_ip, dst_ip, protocol, l4_len)))
    }

    /// A complete Ethernet frame carrying a TCP SYN probe.
    ///
    /// `ip_id_entropy` supplies the per-packet randomness for
    /// [`IpIdMode::Random`] (the engine passes RNG output; tests pass
    /// constants); the other modes ignore it.
    pub fn tcp_syn(&self, dst_ip: L::Addr, dst_port: u16, ip_id_entropy: u16) -> Vec<u8> {
        let v = self.probe_values(dst_ip, dst_port);
        let tcp = TcpRepr {
            src_port: self.sport(v),
            dst_port,
            seq: v.tcp_seq(),
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: self.layout.bytes(),
        };
        let ip_id = self.ip_id.resolve(ip_id_entropy, dst_ip, dst_port, tcp.seq);
        let (mut buf, pseudo) = self
            .start_frame(dst_ip, IpProtocol::Tcp, tcp.header_len(), ip_id)
            .unwrap_or_else(|_| unreachable!("a TCP header (≤ 60 bytes) fits any IP length"));
        tcp.emit(pseudo, &[], &mut buf);
        buf
    }

    /// A complete Ethernet frame carrying an ICMP / ICMPv6 echo request
    /// probe.
    pub fn icmp_echo(&self, dst_ip: L::Addr, ip_id_entropy: u16) -> Vec<u8> {
        let v = self.probe_values(dst_ip, 0);
        let (id, seq) = v.icmp_id_seq();
        let msg_len = crate::icmp::HEADER_LEN + ECHO_PAYLOAD.len();
        let ip_id = self.ip_id.resolve(ip_id_entropy, dst_ip, 0, v.tcp_seq());
        let (mut buf, pseudo) = self
            .start_frame(dst_ip, L::ICMP, msg_len, ip_id)
            .unwrap_or_else(|_| unreachable!("a 16-byte echo fits any IP length field"));
        L::emit_echo_request(pseudo, id, seq, &ECHO_PAYLOAD, &mut buf);
        buf
    }

    /// A complete Ethernet frame carrying a UDP probe with `payload`
    /// prefixed by the 8-byte validation tag.
    ///
    /// Fails with [`WireError::BadLength`] if the datagram would overflow
    /// the IP length field: 65507 payload bytes fit IPv4's total length
    /// (which counts the 20-byte header), 65519 fit IPv6's payload length.
    pub fn udp(
        &self,
        dst_ip: L::Addr,
        dst_port: u16,
        payload: &[u8],
        ip_id_entropy: u16,
    ) -> Result<Vec<u8>, WireError> {
        let udp_len = crate::udp::HEADER_LEN + 8 + payload.len();
        let v = self.probe_values(dst_ip, dst_port);
        let ip_id = self.ip_id.resolve(ip_id_entropy, dst_ip, dst_port, v.tcp_seq());
        let (mut buf, pseudo) = self.start_frame(dst_ip, IpProtocol::Udp, udp_len, ip_id)?;
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&v.udp_tag());
        body.extend_from_slice(payload);
        UdpRepr {
            src_port: self.sport(v),
            dst_port,
        }
        .emit(pseudo, &body, &mut buf);
        Ok(buf)
    }

    /// The IP packet inside `frame`, if it is this family's and addressed
    /// to the scanner.
    fn packet<'a>(&self, frame: &'a [u8]) -> Result<Option<Packet<'a, L>>, WireError> {
        let eth = EthernetView::parse(frame)?;
        if eth.ethertype() != L::ETHERTYPE {
            return Ok(None);
        }
        L::parse_packet(eth.payload(), self.src_ip)
    }

    /// Parses and validates a received frame against this scan.
    ///
    /// Returns `Ok(None)` for frames that are well-formed but not for us
    /// (wrong destination IP, source port outside our range, cookie
    /// mismatch) — the common case on a busy interface — and `Err` for
    /// malformed packets, including [`WireError::BadChecksum`] for frames
    /// addressed to us whose IP or transport checksum does not verify
    /// (bit errors in flight must never become scan results). A zero UDP
    /// checksum is one of those failures over IPv6 (RFC 8200 §8.1) and
    /// passes over IPv4 (RFC 768).
    ///
    /// Engines call this through the family-named `parse_response`
    /// wrappers below: a generic fn is instantiated in the crate that
    /// calls it, where — without LTO — none of this crate's parsers and
    /// checksums inline into it (59 vs 38 ns per IPv4 SYN-ACK, 64 vs 48
    /// per IPv6 one); the wrappers pin the instantiation here.
    pub fn classify(&self, frame: &[u8]) -> Verdict<L> {
        let Some(ip) = self.packet(frame)? else {
            return Ok(None);
        };
        match ip.protocol {
            IpProtocol::Tcp => {
                let tcp = TcpView::parse(ip.payload)?;
                if !tcp.verify_checksum(ip.pseudo_sum(self.src_ip)) {
                    return Err(WireError::BadChecksum);
                }
                if !self.owns_source_port(tcp.dst_port()) {
                    return Ok(None);
                }
                // Recompute the probe MAC for this addressing (probe went
                // scanner:dport_of_response → responder:sport_of_response):
                // both the echoed cookie and the source port must match.
                let v = self.probe_values(ip.src, tcp.src_port());
                let valid =
                    tcp.ack() == v.tcp_seq().wrapping_add(1) && tcp.dst_port() == self.sport(v);
                if !valid {
                    return Ok(None);
                }
                let kind = if tcp.flags().syn() && tcp.flags().ack() {
                    ResponseKind::SynAck
                } else if tcp.flags().rst() {
                    ResponseKind::Rst
                } else {
                    ResponseKind::OtherTcp(tcp.flags())
                };
                Ok(Some(ip.response(tcp.src_port(), kind, tcp.seq())))
            }
            IpProtocol::Udp => {
                let udp = UdpView::parse(ip.payload)?;
                if !udp.verify_checksum(ip.pseudo_sum(self.src_ip), L::UDP_ZERO_CHECKSUM_OK) {
                    return Err(WireError::BadChecksum);
                }
                if !self.owns_source_port(udp.dst_port()) {
                    return Ok(None);
                }
                let v = self.probe_values(ip.src, udp.src_port());
                // Services echo our payload (or at least respond from the
                // probed port); accept either an echoed tag or a matching
                // stateless source-port recomputation.
                let tag_ok = udp.payload().len() >= 8 && udp.payload()[..8] == v.udp_tag();
                if !(tag_ok || udp.dst_port() == self.sport(v)) {
                    return Ok(None);
                }
                let kind = ResponseKind::UdpData(udp.payload().len());
                Ok(Some(ip.response(udp.src_port(), kind, 0)))
            }
            p if p == L::ICMP => L::icmp_response(self, &ip),
            _ => Ok(None),
        }
    }

    /// An echo reply's verdict: its id/seq must be the cookie of a probe
    /// to its sender. Shared by the two families' ICMP arms.
    pub(crate) fn echo_reply(&self, ip: &Packet<'_, L>, id: u16, seq: u16) -> Option<Response<L>> {
        ((id, seq) == self.probe_values(ip.src, 0).icmp_id_seq())
            .then(|| ip.response(0, ResponseKind::EchoReply, 0))
    }
}

impl ProbeBuilder<V4> {
    /// [`classify`](Self::classify), compiled in this crate.
    pub fn parse_response(&self, frame: &[u8]) -> Verdict<V4> {
        self.classify(frame)
    }

    /// A data-bearing ACK completing a handshake and delivering an L7
    /// request (the second phase of two-phase scanning): seq continues
    /// our SYN cookie (+1), ack acknowledges the server's SYN-ACK
    /// (`server_seq + 1`).
    ///
    /// Fails with [`WireError::BadLength`] if `payload` would overflow the
    /// IP length field.
    pub fn tcp_ack_data(
        &self,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        server_seq: u32,
        payload: &[u8],
        ip_id_entropy: u16,
    ) -> Result<Vec<u8>, WireError> {
        let v = self.probe_values(dst_ip, dst_port);
        let tcp = TcpRepr {
            src_port: self.sport(v),
            dst_port,
            seq: v.tcp_seq().wrapping_add(1),
            ack: server_seq.wrapping_add(1),
            flags: TcpFlags::PSH.union(TcpFlags::ACK),
            window: 65535,
            options: &[],
        };
        let tcp_len = tcp.header_len() + payload.len();
        let ip_id = self.ip_id.resolve(ip_id_entropy, dst_ip, dst_port, tcp.seq);
        let (mut buf, pseudo) = self.start_frame(dst_ip, IpProtocol::Tcp, tcp_len, ip_id)?;
        tcp.emit(pseudo, payload, &mut buf);
        Ok(buf)
    }

    /// Parses a frame as an L7 banner reply to a
    /// [`tcp_ack_data`](Self::tcp_ack_data) probe of `payload_len` bytes: validates
    /// addressing, our recomputed source port, and the acknowledgment of
    /// our data. Returns the banner bytes.
    pub fn parse_banner(
        &self,
        frame: &[u8],
        payload_len: usize,
    ) -> Result<Option<(Ipv4Addr, u16, Vec<u8>)>, WireError> {
        let Some(ip) = self.packet(frame)? else {
            return Ok(None);
        };
        if ip.protocol != IpProtocol::Tcp {
            return Ok(None);
        }
        let tcp = TcpView::parse(ip.payload)?;
        if !self.owns_source_port(tcp.dst_port()) || tcp.payload().is_empty() {
            return Ok(None);
        }
        // Our data seq was cookie+1; the server's ack must be
        // cookie + 1 + payload_len.
        let v = self.probe_values(ip.src, tcp.src_port());
        let expected_ack = v.tcp_seq().wrapping_add(1).wrapping_add(payload_len as u32);
        if tcp.ack() != expected_ack || tcp.dst_port() != self.sport(v) {
            return Ok(None);
        }
        Ok(Some((ip.src, tcp.src_port(), tcp.payload().to_vec())))
    }

    /// A destination-unreachable's verdict. Its payload quotes our probe's
    /// IPv4 header + ≥8 L4 bytes (RFC 792), and those bytes must be a
    /// probe this scan sent: the cookie fields are recomputed from the
    /// quoted addressing exactly as for a direct response, keyed on the
    /// quoted protocol. Without this, anyone who knows the scanner's
    /// address could mark any `(ip, port)` failed — and, by entering the
    /// dedup window first, hide that host's genuine answer.
    pub(crate) fn unreachable(
        &self,
        ip: &Packet<'_, V4>,
        code: UnreachCode,
        quote: &[u8],
    ) -> Verdict<V4> {
        let quoted = Ipv4View::parse_quoted(quote)?;
        if quoted.src() != self.src_ip {
            return Ok(None);
        }
        let l4 = quoted.payload();
        if l4.len() < 8 {
            return Err(WireError::Truncated);
        }
        let word = |off: usize| u16::from_be_bytes([l4[off], l4[off + 1]]);
        let dst = quoted.dst();
        let (port, valid) = match quoted.protocol() {
            // Quoted sport, dport and — for TCP — the sequence number.
            p @ (IpProtocol::Tcp | IpProtocol::Udp) => {
                let v = self.probe_values(dst, word(2));
                let seq = (u32::from(word(4)) << 16) | u32::from(word(6));
                let cookie_ok = p == IpProtocol::Udp || seq == v.tcp_seq();
                (word(2), word(0) == self.sport(v) && cookie_ok)
            }
            // Quoted type, code, checksum, id, seq: an echo has no port,
            // and its MAC is keyed on port 0.
            IpProtocol::Icmp => {
                let cookie = self.probe_values(dst, 0).icmp_id_seq();
                (0, (word(4), word(6)) == cookie)
            }
            IpProtocol::Other(_) => return Ok(None),
        };
        let kind = ResponseKind::Unreachable { code, via: ip.src };
        // Attributed to the *probed* host, not the router reporting it.
        Ok(valid.then(|| Response {
            ip: dst,
            ..ip.response(port, kind, 0)
        }))
    }
}

impl ProbeBuilder<V6> {
    /// [`classify`](Self::classify), compiled in this crate.
    pub fn parse_response(&self, frame: &[u8]) -> Verdict<V6> {
        self.classify(frame)
    }
}

/// What parsing one frame yields: a validated response, `None` for a
/// well-formed frame that is not an answer to this scan, or the reason
/// the frame is malformed.
pub type Verdict<L> = Result<Option<Response<L>>, WireError>;

/// A validated response attributed to a probed target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response<L: L3> {
    /// The probed host (for ICMP errors, the original destination).
    pub ip: L::Addr,
    /// The probed port (0 for ICMP echo).
    pub port: u16,
    /// What came back.
    pub kind: ResponseKind,
    /// TTL / hop limit observed on the response (distance
    /// fingerprinting).
    pub ttl: u8,
    /// The responder's TCP sequence number (0 for non-TCP) — needed to
    /// acknowledge a SYN-ACK in two-phase scanning.
    pub seq: u32,
}

/// Classification of a validated response, shared by both families (only
/// the IPv4 parser produces `Unreachable` — the netsim v6 population
/// answers or stays silent, as XMap assumes of hitlist targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// TCP SYN-ACK: port open.
    SynAck,
    /// TCP RST: port closed (host alive).
    Rst,
    /// Unexpected TCP flags (middlebox oddities).
    OtherTcp(TcpFlags),
    /// ICMP echo reply: host alive.
    EchoReply,
    /// ICMP destination unreachable, from `via` (possibly a router).
    Unreachable { code: UnreachCode, via: Ipv4Addr },
    /// UDP data of the given length: service answered.
    UdpData(usize),
}

impl ResponseKind {
    /// Whether this response indicates an open/answering service
    /// (ZMap's "success" classification for hit-rate purposes).
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            ResponseKind::SynAck | ResponseKind::EchoReply | ResponseKind::UdpData(_)
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::icmp::{IcmpRepr, IcmpType};
    use crate::l3::V6;
    use std::net::Ipv6Addr;

    /// Sample addresses for the family-generic tests here and in
    /// `template.rs`.
    pub(crate) trait Sample: L3 {
        const ALL_ONES: Self::Addr;
        fn addr(n: u8) -> Self::Addr;
    }
    impl Sample for V4 {
        const ALL_ONES: Ipv4Addr = Ipv4Addr::BROADCAST;
        fn addr(n: u8) -> Ipv4Addr {
            Ipv4Addr::new(203, 0, 113, n)
        }
    }
    impl Sample for V6 {
        const ALL_ONES: Ipv6Addr = Ipv6Addr::new(!0, !0, !0, !0, !0, !0, !0, !0);
        fn addr(n: u8) -> Ipv6Addr {
            Ipv6Addr::new(0x2001, 0xdb8, 0xa, 0, 0, 0, 0, n.into())
        }
    }

    /// Instantiates each generic test for both families.
    macro_rules! for_both_families {
        ($($test:ident),* $(,)?) => {
            mod v4 { $(#[test] fn $test() { super::$test::<crate::V4>() })* }
            mod v6 { $(#[test] fn $test() { super::$test::<crate::V6>() })* }
        };
    }
    pub(crate) use for_both_families;

    pub(crate) fn builder<L: Sample>() -> ProbeBuilder<L> {
        ProbeBuilder::new(L::addr(9), 0xABCD)
    }

    /// The host at `ip` as a frame source: same L2, its own address and a
    /// TTL a real host would send.
    fn host<L: L3>(b: &ProbeBuilder<L>, ip: L::Addr) -> ProbeBuilder<L> {
        ProbeBuilder {
            src_ip: ip,
            ttl: 55,
            ..b.clone()
        }
    }

    /// The probe as the host at `dst` receives it.
    fn received<'a, L: L3>(b: &ProbeBuilder<L>, dst: L::Addr, probe: &'a [u8]) -> Packet<'a, L> {
        host(b, dst).packet(probe).unwrap().unwrap()
    }

    /// The SYN-ACK a live host would send for `probe`, with valid
    /// checksums, acknowledging `seq + delta` — a delta other than 1
    /// makes the cookie validation fail.
    fn synthesize_synack<L: L3>(
        b: &ProbeBuilder<L>,
        dst: L::Addr,
        probe: &[u8],
        delta: u32,
    ) -> Vec<u8> {
        let tcp = TcpView::parse(received(b, dst, probe).payload).unwrap();
        let reply = TcpRepr {
            src_port: tcp.dst_port(),
            dst_port: tcp.src_port(),
            seq: 0x11223344,
            ack: tcp.seq().wrapping_add(delta),
            flags: TcpFlags::SYN_ACK,
            window: 14600,
            options: OptionLayout::Linux.bytes(),
        };
        let (mut buf, pseudo) = host(b, dst)
            .start_frame(b.src_ip, IpProtocol::Tcp, reply.header_len(), 0x1111)
            .unwrap();
        reply.emit(pseudo, &[], &mut buf);
        buf
    }

    fn syn_probe_has_expected_shape<L: Sample>() {
        let b = builder::<L>();
        let frame = b.tcp_syn(L::addr(5), 80, 7);
        assert_eq!(frame.len(), 14 + L::HEADER_LEN + 20 + 4); // MSS-only default
        assert_eq!(
            EthernetView::parse(&frame).unwrap().ethertype(),
            L::ETHERTYPE
        );
        // `packet` verifies the IPv4 header checksum on the way.
        let ip = received(&b, L::addr(5), &frame);
        assert_eq!((ip.src, ip.ttl), (b.src_ip, 255));
        let tcp = TcpView::parse(ip.payload).unwrap();
        assert!(tcp.verify_checksum(ip.pseudo_sum(L::addr(5))));
        assert!(tcp.flags().syn() && !tcp.flags().ack());
        assert!(b.owns_source_port(tcp.src_port()));
    }

    fn valid_synack_is_accepted_and_wrong_ack_rejected<L: Sample>() {
        let b = builder::<L>();
        let probe = b.tcp_syn(L::addr(5), 443, 7);
        let reply = synthesize_synack(&b, L::addr(5), &probe, 1);
        let resp = b.classify(&reply).unwrap().unwrap();
        assert_eq!((resp.ip, resp.port, resp.ttl), (L::addr(5), 443, 55));
        assert_eq!(resp.kind, ResponseKind::SynAck);
        assert!(resp.kind.is_success());
        // Well-formed reply (checksums valid) acknowledging the wrong
        // sequence number: the cookie must not validate.
        let reply = synthesize_synack(&b, L::addr(5), &probe, 0x5501);
        assert_eq!(b.classify(&reply).unwrap(), None);
    }

    fn validation_is_independent_of_probe_order_and_walk_state<L: Sample>() {
        // Stealth re-keying reorders probe emission; validation must not
        // care. Probes are a pure function of (dst, port, entropy) — the
        // same frame regardless of emission order — and a response
        // validates against a *fresh* same-seed builder that never sent
        // the probe, proving the key holds no walk state.
        let b = builder::<L>();
        let targets = [(L::addr(5), 443u16), (L::addr(80), 80), (L::addr(7), 22)];
        let forward: Vec<_> = targets.iter().map(|&(ip, p)| b.tcp_syn(ip, p, 7)).collect();
        let reversed: Vec<_> = targets
            .iter()
            .rev()
            .map(|&(ip, p)| b.tcp_syn(ip, p, 7))
            .collect();
        for (f, r) in forward.iter().zip(reversed.iter().rev()) {
            assert_eq!(f, r, "probe frames must not depend on emission order");
        }
        let fresh = builder::<L>(); // same seed, no probes ever sent
        for (probe, &(ip, port)) in forward.iter().zip(&targets) {
            let reply = synthesize_synack(&b, ip, probe, 1);
            let resp = fresh.classify(&reply).unwrap().unwrap();
            assert_eq!((resp.ip, resp.port), (ip, port));
        }
    }

    fn foreign_key_foreign_host_and_non_ip_frames_are_ignored<L: Sample>() {
        let b = builder::<L>();
        let other_key = ProbeBuilder::<L>::new(b.src_ip, 0x9999);
        let probe = b.tcp_syn(L::addr(5), 80, 7);
        let reply = synthesize_synack(&b, L::addr(5), &probe, 1);
        assert_eq!(
            other_key.classify(&reply).unwrap(),
            None,
            "cookie must not validate"
        );

        let other_host = ProbeBuilder::<L>::new(L::addr(10), 0xABCD);
        let probe = other_host.tcp_syn(L::addr(5), 80, 7);
        let reply = synthesize_synack(&other_host, L::addr(5), &probe, 1);
        assert_eq!(b.classify(&reply).unwrap(), None, "wrong destination");

        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert_eq!(b.classify(&arp).unwrap(), None, "neither IPv4 nor IPv6");
    }

    /// The echo reply `from` would send for `probe`: type 0 / 129, same
    /// id, seq and data.
    fn synthesize_echo_reply<L: L3>(
        b: &ProbeBuilder<L>,
        dst: L::Addr,
        from: L::Addr,
        probe: &[u8],
    ) -> Vec<u8> {
        let request = received(b, dst, probe).payload;
        let (mut buf, pseudo) = host(b, from)
            .start_frame(b.src_ip, L::ICMP, request.len(), 9)
            .unwrap();
        let at = buf.len();
        buf.extend_from_slice(request);
        buf[at] = if L::ICMP_PSEUDO { 129 } else { 0 };
        buf[at + 2..at + 4].fill(0);
        let seed = if L::ICMP_PSEUDO { pseudo } else { 0 };
        let csum = crate::checksum::finish(crate::checksum::sum(seed, &buf[at..]));
        buf[at + 2..at + 4].copy_from_slice(&csum.to_be_bytes());
        buf
    }

    fn icmp_echo_roundtrip<L: Sample>() {
        let b = builder::<L>();
        let probe = b.icmp_echo(L::addr(77), 3);
        assert_eq!(probe.len(), 14 + L::HEADER_LEN + 8 + 8);
        let reply = synthesize_echo_reply(&b, L::addr(77), L::addr(77), &probe);
        let resp = b.classify(&reply).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::EchoReply);
        assert_eq!((resp.ip, resp.port, resp.ttl), (L::addr(77), 0, 55));
        // The same id/seq from a different address is well-formed but
        // must not validate: the cookie binds the address pair.
        let wrong = synthesize_echo_reply(&b, L::addr(77), L::addr(78), &probe);
        assert_eq!(b.classify(&wrong).unwrap(), None);
        // A flipped data bit fails the ICMP checksum.
        let mut bad = reply.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(b.classify(&bad), Err(WireError::BadChecksum));
    }

    fn udp_probe_and_echoed_response<L: Sample>() {
        let b = builder::<L>();
        let dst = L::addr(3);
        let probe = b.udp(dst, 53, b"hello", 1).unwrap();
        let ip = received(&b, dst, &probe);
        let udp = UdpView::parse(ip.payload).unwrap();
        assert!(
            udp.verify_checksum(ip.pseudo_sum(dst), false),
            "probes always carry a checksum"
        );
        assert_eq!(&udp.payload()[8..], b"hello");

        // Service echoes the payload back.
        let (mut buf, pseudo) = host(&b, dst)
            .start_frame(b.src_ip, IpProtocol::Udp, ip.payload.len(), 2)
            .unwrap();
        UdpRepr {
            src_port: 53,
            dst_port: udp.src_port(),
        }
        .emit(pseudo, udp.payload(), &mut buf);
        let resp = b.classify(&buf).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::UdpData(13));
        assert_eq!((resp.ip, resp.port), (dst, 53));

        // Zeroing the checksum: "not computed" over IPv4 (RFC 768), a
        // malformed datagram over IPv6 (RFC 8200 §8.1) — the
        // version-aware rule end to end.
        let at = 14 + L::HEADER_LEN + 6;
        buf[at..at + 2].fill(0);
        match L::ID_AND_CHECKSUM {
            Some(_) => assert_eq!(b.classify(&buf), Ok(Some(resp))),
            None => assert_eq!(b.classify(&buf), Err(WireError::BadChecksum)),
        }
    }

    fn oversized_payloads_are_rejected_at_the_family_length_limit<L: Sample>() {
        // IPv4's total length counts its own 20-byte header; IPv6's
        // payload length does not.
        let b = builder::<L>();
        let max_l4 = 65535 - L::ID_AND_CHECKSUM.map_or(0, |_| L::HEADER_LEN);
        let frame = b
            .udp(L::addr(1), 53, &vec![0u8; max_l4 - 8 - 8], 0)
            .unwrap();
        assert_eq!(frame.len(), 14 + L::HEADER_LEN + max_l4);
        assert_eq!(
            b.udp(L::addr(1), 53, &vec![0u8; max_l4 - 8 - 8 + 1], 0),
            Err(WireError::BadLength)
        );
    }

    fn source_port_stability_for_validation<L: Sample>() {
        // The receive path recomputes the expected source port — these
        // must agree between TX and RX for every target.
        let b = builder::<L>();
        for i in 0..200u16 {
            let dst = L::addr((i % 250) as u8);
            let port = 1 + (i * 7) % 1000;
            let frame = b.tcp_syn(dst, port, 0);
            let tcp = TcpView::parse(received(&b, dst, &frame).payload).unwrap();
            assert_eq!(tcp.src_port(), b.source_port(dst, port));
        }
    }

    for_both_families!(
        syn_probe_has_expected_shape,
        valid_synack_is_accepted_and_wrong_ack_rejected,
        validation_is_independent_of_probe_order_and_walk_state,
        foreign_key_foreign_host_and_non_ip_frames_are_ignored,
        icmp_echo_roundtrip,
        udp_probe_and_echoed_response,
        oversized_payloads_are_rejected_at_the_family_length_limit,
        source_port_stability_for_validation,
    );

    #[test]
    fn dual_stack_identity_shares_key_and_macs() {
        // The same seed must give the v4 and v6 builders one L2/cookie
        // identity, so a dual-stack scan validates either family.
        let (v4, v6) = (builder::<V4>(), builder::<V6>());
        assert_eq!(v4.src_mac, v6.src_mac);
        assert_eq!(v4.gw_mac, v6.gw_mac);
        assert_eq!(v4.key, v6.key);
    }

    #[test]
    fn data_ack_is_bounded_by_the_ipv4_total_length() {
        let b = builder::<V4>();
        let fits = vec![0u8; 65535 - 20 - 20];
        assert!(b.tcp_ack_data(V4::addr(1), 80, 1, &fits, 0).is_ok());
        let over = vec![0u8; fits.len() + 1];
        assert_eq!(
            b.tcp_ack_data(V4::addr(1), 80, 1, &over, 0),
            Err(WireError::BadLength)
        );
    }

    #[test]
    fn static_ip_id_default_is_random() {
        let id = |b: &ProbeBuilder<V4>, entropy| {
            let f = b.tcp_syn(V4::addr(5), 80, entropy);
            Ipv4View::parse(EthernetView::parse(&f).unwrap().payload())
                .unwrap()
                .id()
        };
        let mut b = builder::<V4>();
        assert_eq!((id(&b, 1000), id(&b, 2000)), (1000, 2000));
        b.ip_id = IpIdMode::Static;
        assert_eq!(id(&b, 1000), 54321);
    }

    #[test]
    fn bit_error_is_rejected_by_checksum() {
        let b = builder::<V4>();
        let probe = b.tcp_syn(V4::addr(5), 443, 7);
        let good = synthesize_synack(&b, V4::addr(5), &probe, 1);
        // Flip the low bit of the TCP ack field: the cookie still
        // validates numerically only with astronomically small odds, but
        // more importantly the checksum no longer matches, which is what
        // must stop the frame first.
        let mut reply = good.clone();
        reply[14 + 20 + 8] ^= 0x01;
        assert_eq!(b.parse_response(&reply), Err(WireError::BadChecksum));
        // Any single-bit flip past the Ethernet header is caught.
        for byte in [14, 14 + 10, 14 + 20 + 13, good.len() - 1] {
            let mut r = good.clone();
            r[byte] ^= 0x80;
            let verdict = b.parse_response(&r);
            assert!(
                !matches!(verdict, Ok(Some(_))),
                "flip at byte {byte} must not validate: {verdict:?}"
            );
        }
    }

    /// The unreachable a router at 10.0.0.1 sends quoting `quote` (an
    /// IPv4 packet, or as much of one as the router kept).
    fn unreachable_quoting(b: &ProbeBuilder<V4>, quote: &[u8]) -> Vec<u8> {
        let router = host(b, Ipv4Addr::new(10, 0, 0, 1));
        let (mut buf, _) = router
            .start_frame(b.src_ip, IpProtocol::Icmp, 8 + quote.len(), 5)
            .unwrap();
        IcmpRepr {
            icmp_type: IcmpType::DestUnreachable(UnreachCode::Host),
            id: 0,
            seq: 0,
        }
        .emit(quote, &mut buf);
        buf
    }

    #[test]
    fn icmp_unreachable_attributes_to_probed_target() {
        let b = builder::<V4>();
        let dst = Ipv4Addr::new(198, 51, 100, 99);
        let probe = b.tcp_syn(dst, 8080, 7);
        // RFC 792 routers quote the IP header + 8 bytes; RFC 1812 ones
        // quote as much as fits. Both validate.
        for quote in [&probe[14..14 + 28], &probe[14..]] {
            let resp = b
                .parse_response(&unreachable_quoting(&b, quote))
                .unwrap()
                .unwrap();
            assert_eq!(resp.ip, dst, "attributed to probed host, not router");
            assert_eq!(resp.port, 8080);
            assert!(matches!(
                resp.kind,
                ResponseKind::Unreachable { code: UnreachCode::Host, via }
                    if via == Ipv4Addr::new(10, 0, 0, 1)
            ));
            assert!(!resp.kind.is_success());
        }
        let short = unreachable_quoting(&b, &probe[14..14 + 24]);
        assert_eq!(b.parse_response(&short), Err(WireError::Truncated));
    }

    #[test]
    fn forged_unreachable_must_quote_a_probe_this_scan_sent() {
        // An off-path sender knows the scanner's address and can guess a
        // target, but not the keyed cookie fields of the probe to it.
        let b = builder::<V4>();
        let dst = Ipv4Addr::new(198, 51, 100, 99);
        let probe = b.tcp_syn(dst, 8080, 7);
        let forge = |edit: &dyn Fn(&mut [u8])| {
            let mut quote = probe[14..14 + 28].to_vec();
            edit(&mut quote);
            b.parse_response(&unreachable_quoting(&b, &quote))
        };
        assert!(
            forge(&|_| {}).unwrap().is_some(),
            "the verbatim quote validates"
        );
        assert_eq!(forge(&|q| q[20 + 7] ^= 1), Ok(None), "wrong quoted seq");
        assert_eq!(forge(&|q| q[20 + 1] ^= 1), Ok(None), "wrong quoted sport");
        assert_eq!(
            forge(&|q| q[19] ^= 1),
            Ok(None),
            "a target this probe never went to"
        );
        assert_eq!(
            forge(&|q| q[20 + 3] ^= 1),
            Ok(None),
            "a port this probe never went to"
        );
        assert_eq!(
            forge(&|q| q[9] = 47),
            Ok(None),
            "a protocol the scanner never sends"
        );
        // A UDP probe's quote carries only the keyed source port.
        let udp = b.udp(dst, 53, b"", 7).unwrap();
        let resp = b
            .parse_response(&unreachable_quoting(&b, &udp[14..14 + 28]))
            .unwrap()
            .unwrap();
        assert_eq!((resp.ip, resp.port), (dst, 53));
        let mut quote = udp[14..14 + 28].to_vec();
        quote[20] ^= 0x40;
        assert_eq!(b.parse_response(&unreachable_quoting(&b, &quote)), Ok(None));
    }

    #[test]
    fn unreachable_quoting_an_echo_probe_is_attributed_to_port_zero() {
        // An ICMP-storm reply to an echo scan: the quoted L4 bytes are
        // type/code/checksum/id/seq, so there is no port to read — bytes
        // 2–3 are the ICMP checksum.
        let b = builder::<V4>();
        let dst = Ipv4Addr::new(198, 51, 100, 77);
        let probe = b.icmp_echo(dst, 3);
        let resp = b
            .parse_response(&unreachable_quoting(&b, &probe[14..14 + 28]))
            .unwrap()
            .unwrap();
        assert_eq!((resp.ip, resp.port), (dst, 0));
        let mut quote = probe[14..14 + 28].to_vec();
        quote[20 + 5] ^= 1; // the echoed id
        assert_eq!(b.parse_response(&unreachable_quoting(&b, &quote)), Ok(None));
    }
}
