//! The L3 family seam: everything that differs between an IPv4 and an
//! IPv6 probe, and nothing else.
//!
//! XMap showed that ZMap's stateless-cookie modules carry over to IPv6
//! unchanged once the network header and the address width are swapped.
//! [`L3`] is that swap: two zero-sized implementors, [`V4`] and [`V6`],
//! name the address type, the header geometry, the header emitter, the
//! pseudo-header seed, the cookie input, the parsed-packet view, the UDP
//! zero-checksum rule and the ICMP arm. [`ProbeBuilder`],
//! [`ProbeTemplate`](crate::template::ProbeTemplate) and the response
//! parser are written once above it and monomorphised per family, so the
//! family is never a per-probe branch.

use crate::cookie::{ProbeValues, ValidationKey};
use crate::ethernet::EtherType;
use crate::icmp::{IcmpRepr, IcmpType, IcmpView};
use crate::icmpv6::{Icmpv6Repr, Icmpv6Type, Icmpv6View};
use crate::ipv4::{IpProtocol, Ipv4Repr, Ipv4View};
use crate::ipv6::{Ipv6Repr, Ipv6View, NEXT_HEADER_ICMPV6};
use crate::probe::{ProbeBuilder, Response, ResponseKind, Verdict};
use crate::{checksum, ipv4, ipv6, WireError};
use std::fmt::Debug;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::Range;

/// A received IP packet addressed to the scanner, reduced to what the
/// family-generic response parser reads.
#[derive(Debug, Clone, Copy)]
pub struct Packet<'a, L: L3> {
    /// Who sent it.
    pub src: L::Addr,
    /// Payload protocol (v4) or next header (v6).
    pub protocol: IpProtocol,
    /// TTL (v4) or hop limit (v6).
    pub ttl: u8,
    /// The L4 bytes, trimmed to the header's length field.
    pub payload: &'a [u8],
}

impl<L: L3> Packet<'_, L> {
    /// Pseudo-header seed for the L4 checksum over `payload`; `local` is
    /// the destination [`L3::parse_packet`] matched. Computed by the arm
    /// that needs it: done eagerly in `parse_packet` it cost 17 ns per
    /// cache-cold frame.
    pub fn pseudo_sum(&self, local: L::Addr) -> u32 {
        L::pseudo_header(self.src, local, self.protocol, self.payload.len() as u16)
    }

    /// A validated response from this packet's sender.
    pub(crate) fn response(&self, port: u16, kind: ResponseKind, seq: u32) -> Response<L> {
        Response {
            ip: self.src,
            port,
            kind,
            ttl: self.ttl,
            seq,
        }
    }
}

/// One network-layer family. Offsets are relative to the IP header.
pub trait L3: Copy + Debug + Eq + 'static {
    /// The family's address.
    type Addr: Copy + Eq + Debug + Into<IpAddr>;
    /// What the Ethernet header announces.
    const ETHERTYPE: EtherType;
    /// Header length of a probe (no IPv4 options, no extension headers).
    const HEADER_LEN: usize;
    /// Where the destination address sits.
    const DST: Range<usize>;
    /// Where the identification and header-checksum fields sit, for the
    /// family that has them: the template patches both per probe.
    const ID_AND_CHECKSUM: Option<(usize, usize)>;
    /// The family's ICMP as an IP protocol / next-header number.
    const ICMP: IpProtocol;
    /// Whether the ICMP checksum covers the pseudo-header (and with it
    /// the destination a template patches): ICMPv6 yes, ICMPv4 no.
    const ICMP_PSEUDO: bool;
    /// Whether a received UDP checksum of zero means "not computed" and
    /// passes (IPv4, RFC 768) or is malformed (IPv6, RFC 8200 §8.1).
    const UDP_ZERO_CHECKSUM_OK: bool;

    /// Writes `addr` in network byte order — `out` is [`DST`](Self::DST)
    /// long — and returns the sum of its 16-bit words, which is what it
    /// contributes to a checksum.
    fn write_addr(addr: Self::Addr, out: &mut [u8]) -> u32;

    /// The one MAC per probe, over this family's addressing message.
    fn probe_values(
        key: &ValidationKey,
        src: Self::Addr,
        dst: Self::Addr,
        port: u16,
    ) -> ProbeValues;

    /// Appends `b`'s IP header for `payload_len` L4 bytes to `dst`.
    /// IPv4's total length includes the header, so it fails with
    /// [`WireError::BadLength`] past 65515 payload bytes, and it alone has
    /// an ID field for `ip_id`; IPv6 cannot fail.
    fn emit_header(
        b: &ProbeBuilder<Self>,
        dst: Self::Addr,
        protocol: IpProtocol,
        payload_len: u16,
        ip_id: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), WireError>;

    /// The pseudo-header seed of an L4 checksum.
    fn pseudo_header(src: Self::Addr, dst: Self::Addr, protocol: IpProtocol, l4_len: u16) -> u32;

    /// Appends an echo request (ICMPv4 leaves `pseudo` out of its sum).
    fn emit_echo_request(pseudo: u32, id: u16, seq: u16, payload: &[u8], buf: &mut Vec<u8>);

    /// Parses an IP packet: `Ok(None)` when it is well-formed but not
    /// addressed to `local`, `Err` when it is malformed — for IPv4 that
    /// includes a header checksum that does not verify.
    fn parse_packet(buf: &[u8], local: Self::Addr) -> Result<Option<Packet<'_, Self>>, WireError>;

    /// The ICMP arm of [`ProbeBuilder::classify`]: ICMPv4 echo
    /// replies and destination-unreachable errors, ICMPv6 echo replies.
    fn icmp_response(b: &ProbeBuilder<Self>, ip: &Packet<'_, Self>) -> Verdict<Self>;
}

/// IPv4: 20-byte header with an identification field and its own
/// checksum; ICMP sums the message alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V4;

/// IPv6 (RFC 8200): 40-byte header, no checksum, no identification; the
/// pseudo-header feeds every upper-layer checksum, ICMPv6's included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V6;

impl L3 for V4 {
    type Addr = Ipv4Addr;
    const ETHERTYPE: EtherType = EtherType::Ipv4;
    const HEADER_LEN: usize = ipv4::HEADER_LEN;
    const DST: Range<usize> = 16..20;
    const ID_AND_CHECKSUM: Option<(usize, usize)> = Some((4, 10));
    const ICMP: IpProtocol = IpProtocol::Icmp;
    const ICMP_PSEUDO: bool = false;
    const UDP_ZERO_CHECKSUM_OK: bool = true;

    fn write_addr(addr: Ipv4Addr, out: &mut [u8]) -> u32 {
        out.copy_from_slice(&addr.octets());
        checksum::sum(0, &addr.octets())
    }

    #[inline]
    fn probe_values(key: &ValidationKey, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> ProbeValues {
        key.probe(src.into(), dst.into(), port)
    }

    fn emit_header(
        b: &ProbeBuilder<V4>,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload_len: u16,
        ip_id: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        Ipv4Repr {
            src: b.src_ip,
            dst,
            protocol,
            id: ip_id,
            ttl: b.ttl,
            payload_len,
        }
        .emit(buf)
    }

    fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, l4_len: u16) -> u32 {
        checksum::pseudo_header(src.into(), dst.into(), protocol.into(), l4_len)
    }

    fn emit_echo_request(_pseudo: u32, id: u16, seq: u16, payload: &[u8], buf: &mut Vec<u8>) {
        IcmpRepr {
            icmp_type: IcmpType::EchoRequest,
            id,
            seq,
        }
        .emit(payload, buf);
    }

    fn parse_packet(buf: &[u8], local: Ipv4Addr) -> Result<Option<Packet<'_, V4>>, WireError> {
        let ip = Ipv4View::parse(buf)?;
        if ip.dst() != local {
            return Ok(None);
        }
        if !ip.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        Ok(Some(Packet {
            src: ip.src(),
            protocol: ip.protocol(),
            ttl: ip.ttl(),
            payload: ip.payload(),
        }))
    }

    fn icmp_response(b: &ProbeBuilder<V4>, ip: &Packet<'_, V4>) -> Verdict<V4> {
        let icmp = IcmpView::parse(ip.payload)?;
        if !icmp.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        match icmp.icmp_type() {
            IcmpType::EchoReply => Ok(b.echo_reply(ip, icmp.id(), icmp.seq())),
            IcmpType::DestUnreachable(code) => b.unreachable(ip, code, icmp.payload()),
            _ => Ok(None),
        }
    }
}

impl L3 for V6 {
    type Addr = Ipv6Addr;
    const ETHERTYPE: EtherType = EtherType::Ipv6;
    const HEADER_LEN: usize = ipv6::HEADER_LEN;
    const DST: Range<usize> = 24..40;
    const ID_AND_CHECKSUM: Option<(usize, usize)> = None;
    const ICMP: IpProtocol = IpProtocol::Other(NEXT_HEADER_ICMPV6);
    const ICMP_PSEUDO: bool = true;
    const UDP_ZERO_CHECKSUM_OK: bool = false;

    fn write_addr(addr: Ipv6Addr, out: &mut [u8]) -> u32 {
        out.copy_from_slice(&addr.octets());
        checksum::sum(0, &addr.octets())
    }

    #[inline]
    fn probe_values(key: &ValidationKey, src: Ipv6Addr, dst: Ipv6Addr, port: u16) -> ProbeValues {
        key.probe_v6(&src.octets(), &dst.octets(), port)
    }

    fn emit_header(
        b: &ProbeBuilder<V6>,
        dst: Ipv6Addr,
        next_header: IpProtocol,
        payload_len: u16,
        _ip_id: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        Ipv6Repr {
            src: b.src_ip,
            dst,
            next_header,
            hop_limit: b.ttl,
            payload_len,
        }
        .emit(buf);
        Ok(())
    }

    fn pseudo_header(src: Ipv6Addr, dst: Ipv6Addr, protocol: IpProtocol, l4_len: u16) -> u32 {
        let (src, dst) = (src.octets(), dst.octets());
        checksum::pseudo_header_v6(&src, &dst, protocol.into(), l4_len.into())
    }

    fn emit_echo_request(pseudo: u32, id: u16, seq: u16, payload: &[u8], buf: &mut Vec<u8>) {
        Icmpv6Repr {
            icmp_type: Icmpv6Type::EchoRequest,
            id,
            seq,
        }
        .emit(pseudo, payload, buf);
    }

    fn parse_packet(buf: &[u8], local: Ipv6Addr) -> Result<Option<Packet<'_, V6>>, WireError> {
        let ip = Ipv6View::parse(buf)?;
        if ip.dst() != local {
            return Ok(None);
        }
        Ok(Some(Packet {
            src: ip.src(),
            protocol: ip.next_header(),
            ttl: ip.hop_limit(),
            payload: ip.payload(),
        }))
    }

    fn icmp_response(b: &ProbeBuilder<V6>, ip: &Packet<'_, V6>) -> Verdict<V6> {
        let icmp = Icmpv6View::parse(ip.payload)?;
        if !icmp.verify_checksum(ip.pseudo_sum(b.src_ip)) {
            return Err(WireError::BadChecksum);
        }
        match icmp.icmp_type() {
            Icmpv6Type::EchoReply => Ok(b.echo_reply(ip, icmp.id(), icmp.seq())),
            _ => Ok(None),
        }
    }
}
