//! IPv4 header construction and parsing.
//!
//! Includes ZMap's IP-ID policy (paper §4.3): the classic static ID of
//! 54321 — long used to fingerprint ZMap traffic — and the 2024 default of
//! a random per-probe ID (measured to make no significant hit-rate
//! difference, but removing a gratuitous fingerprint).

use crate::checksum;
use crate::WireError;
use std::net::{IpAddr, Ipv4Addr};

/// Minimum (and, for our probes, only) IPv4 header length: no options.
pub const HEADER_LEN: usize = 20;

/// ZMap's historical static IP ID (1998-style "54321" marker).
pub const ZMAP_STATIC_IP_ID: u16 = 54321;

/// IP protocol numbers this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// 1
    Icmp,
    /// 6
    Tcp,
    /// 17
    Udp,
    /// Anything else.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// How probe packets choose their IP identification field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IpIdMode {
    /// The classic ZMap marker, 54321 — trivially fingerprintable and
    /// what telescope attribution pipelines key on.
    Static,
    /// An arbitrary fixed value (forks of ZMap often pick their own).
    Fixed(u16),
    /// Random per probe (ZMap default since early 2024).
    #[default]
    Random,
    /// Masscan's rule, [`masscan_ip_id`]: the fingerprint telescopes
    /// attribute Masscan by.
    DestinationDerived,
}

impl IpIdMode {
    /// Resolves the mode to a concrete ID for the packet to `dst:dst_port`
    /// with TCP sequence number `seq`, consuming `entropy` for
    /// [`IpIdMode::Random`] (callers supply per-packet randomness;
    /// keeping RNG out of the wire layer keeps packet building
    /// deterministic and testable). IPv6 has no ID field to resolve: 0.
    #[inline]
    pub fn resolve(&self, entropy: u16, dst: impl Into<IpAddr>, dst_port: u16, seq: u32) -> u16 {
        use IpIdMode::*;
        match (self, dst.into()) {
            (Static, _) => ZMAP_STATIC_IP_ID,
            (Fixed(v), _) => *v,
            (Random, _) => entropy,
            (DestinationDerived, IpAddr::V4(v4)) => masscan_ip_id(v4.into(), dst_port, seq),
            (DestinationDerived, IpAddr::V6(_)) => 0,
        }
    }
}

/// Masscan's destination-derived IP ID: `dst_ip ⊕ dst_port ⊕ tcp_seq`
/// folded to 16 bits (netsim's Masscans stamp it, the telescope reads it).
pub fn masscan_ip_id(dst_ip: u32, dst_port: u16, seq: u32) -> u16 {
    let x = dst_ip ^ u32::from(dst_port) ^ seq;
    (x ^ (x >> 16)) as u16
}

/// High-level description of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Identification field value (already resolved).
    pub id: u16,
    /// Time to live (ZMap sends 255 ("maximum", per the original paper)).
    pub ttl: u8,
    /// L4 payload length in bytes (header length is added automatically).
    pub payload_len: u16,
}

impl Ipv4Repr {
    /// Appends a 20-byte header (checksum filled in) to `buf`.
    ///
    /// Fails with [`WireError::BadLength`] if the payload does not fit
    /// the 16-bit total-length field (payloads over 65515 bytes used to
    /// wrap silently and emit a corrupt header). Nothing is written to
    /// `buf` on error.
    pub fn emit(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        let total_len = (HEADER_LEN as u16)
            .checked_add(self.payload_len)
            .ok_or(WireError::BadLength)?;
        let ([l0, l1], [i0, i1]) = (total_len.to_be_bytes(), self.id.to_be_bytes());
        let ([s0, s1, s2, s3], [d0, d1, d2, d3]) = (self.src.octets(), self.dst.octets());
        // Version 4 + IHL 5, DSCP/ECN, total length, ID, DF + fragment
        // offset 0, TTL, protocol, checksum (filled below), addresses.
        let (ttl, proto) = (self.ttl, self.protocol.into());
        let mut h = [0x45, 0, l0, l1, i0, i1, 0x40, 0, ttl, proto, 0, 0, s0, s1, s2, s3, d0, d1, d2, d3];
        let csum = checksum::checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        buf.extend_from_slice(&h);
        Ok(())
    }
}

/// Zero-copy view over a received IPv4 packet.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parses and validates structure (version, IHL, lengths). Checksum
    /// verification is separate ([`verify_checksum`](Self::verify_checksum))
    /// because telescope-style consumers often want to count malformed
    /// packets rather than drop them.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(WireError::BadField);
        }
        let ihl = usize::from(buf[0] & 0x0F) * 4;
        if ihl < HEADER_LEN || buf.len() < ihl {
            return Err(WireError::BadLength);
        }
        let total = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total < ihl || total > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(Ipv4View { buf })
    }

    /// Lenient parse for *quoted* packets inside ICMP errors: RFC 792
    /// quotes carry only the IP header plus 8 payload bytes, so the
    /// total-length field legitimately exceeds the buffer. Structure
    /// (version, IHL) is still validated; [`payload`](Self::payload)
    /// clamps to the available bytes.
    pub fn parse_quoted(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(WireError::BadField);
        }
        let ihl = usize::from(buf[0] & 0x0F) * 4;
        if ihl < HEADER_LEN || buf.len() < ihl {
            return Err(WireError::BadLength);
        }
        Ok(Ipv4View { buf })
    }

    fn ihl(&self) -> usize {
        usize::from(self.buf[0] & 0x0F) * 4
    }

    /// Total length field.
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Identification field.
    pub fn id(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> IpProtocol {
        self.buf[9].into()
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// The L4 payload (respects total length, trimming Ethernet padding;
    /// clamps to the buffer for lenient/quoted parses).
    pub fn payload(&self) -> &'a [u8] {
        let end = usize::from(self.total_len()).min(self.buf.len());
        &self.buf[self.ihl()..end.max(self.ihl())]
    }

    /// True if the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        checksum::checksum(&self.buf[..self.ihl()]) == 0
    }

    /// Pseudo-header partial sum for this packet's L4 checksum.
    pub fn pseudo_sum(&self) -> u32 {
        checksum::pseudo_header(
            u32::from(self.src()),
            u32::from(self.dst()),
            self.protocol().into(),
            self.total_len() - self.ihl() as u16,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(198, 51, 100, 7),
            protocol: IpProtocol::Tcp,
            id: ZMAP_STATIC_IP_ID,
            ttl: 255,
            payload_len: 20,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 20]); // fake TCP payload
        let v = Ipv4View::parse(&buf).unwrap();
        assert_eq!(v.src(), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(v.dst(), Ipv4Addr::new(198, 51, 100, 7));
        assert_eq!(v.id(), 54321);
        assert_eq!(v.ttl(), 255);
        assert_eq!(v.protocol(), IpProtocol::Tcp);
        assert_eq!(v.total_len(), 40);
        assert_eq!(v.payload().len(), 20);
        assert!(v.verify_checksum());
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 20]);
        buf[8] = 1; // mangle TTL
        let v = Ipv4View::parse(&buf).unwrap();
        assert!(!v.verify_checksum());
    }

    #[test]
    fn parse_rejects_bad_structure() {
        assert_eq!(Ipv4View::parse(&[0u8; 10]).unwrap_err(), WireError::Truncated);
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 20]);
        // Wrong version.
        let mut b = buf.clone();
        b[0] = 0x65;
        assert_eq!(Ipv4View::parse(&b).unwrap_err(), WireError::BadField);
        // IHL below 5.
        let mut b = buf.clone();
        b[0] = 0x44;
        assert_eq!(Ipv4View::parse(&b).unwrap_err(), WireError::BadLength);
        // Total length beyond buffer.
        let mut b = buf.clone();
        b[2] = 0xFF;
        b[3] = 0xFF;
        assert_eq!(Ipv4View::parse(&b).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn ethernet_padding_is_trimmed() {
        let mut buf = Vec::new();
        let mut r = sample_repr();
        r.payload_len = 4;
        r.emit(&mut buf).unwrap();
        buf.extend_from_slice(&[1, 2, 3, 4]);
        buf.extend_from_slice(&[0u8; 30]); // pad bytes past total_len
        let v = Ipv4View::parse(&buf).unwrap();
        assert_eq!(v.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn emit_rejects_oversized_payload() {
        // 65515 bytes is the largest L4 payload an IPv4 packet can carry
        // (total length 65535); one more must fail, not wrap to a tiny
        // total-length field.
        let mut r = sample_repr();
        let mut buf = Vec::new();
        r.payload_len = 65515;
        r.emit(&mut buf).unwrap();
        assert_eq!(u16::from_be_bytes([buf[2], buf[3]]), 65535);

        let mut buf = Vec::new();
        r.payload_len = 65516;
        assert_eq!(r.emit(&mut buf).unwrap_err(), WireError::BadLength);
        assert!(buf.is_empty(), "failed emit must not leave partial bytes");
    }

    #[test]
    fn ip_id_modes() {
        let dst = Ipv4Addr::new(1, 2, 3, 4);
        assert_eq!(IpIdMode::Static.resolve(7, dst, 80, 9), 54321);
        assert_eq!(IpIdMode::Fixed(42).resolve(7, dst, 80, 9), 42);
        assert_eq!(IpIdMode::Random.resolve(7, dst, 80, 9), 7);
        assert_eq!(
            IpIdMode::DestinationDerived.resolve(7, dst, 80, 9),
            masscan_ip_id(0x0102_0304, 80, 9)
        );
        assert_ne!(masscan_ip_id(1, 80, 3), masscan_ip_id(2, 80, 3));
        assert_ne!(masscan_ip_id(1, 80, 3), masscan_ip_id(1, 81, 3));
        assert_ne!(masscan_ip_id(1, 80, 3), masscan_ip_id(1, 80, 4));
        assert_eq!(IpIdMode::default(), IpIdMode::Random, "2024 default");
    }

    #[test]
    fn quoted_parse_tolerates_truncation() {
        // Build a 40-byte packet, keep only header + 8 bytes (RFC 792).
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf).unwrap();
        buf.extend_from_slice(&[9u8; 20]);
        let quote = &buf[..28];
        assert_eq!(Ipv4View::parse(quote).unwrap_err(), WireError::BadLength);
        let v = Ipv4View::parse_quoted(quote).unwrap();
        assert_eq!(v.dst(), Ipv4Addr::new(198, 51, 100, 7));
        assert_eq!(v.payload(), &[9u8; 8], "payload clamps to buffer");
        // Still rejects structural garbage.
        assert!(Ipv4View::parse_quoted(&quote[..10]).is_err());
        let mut bad = quote.to_vec();
        bad[0] = 0x65;
        assert_eq!(Ipv4View::parse_quoted(&bad).unwrap_err(), WireError::BadField);
    }

    #[test]
    fn protocol_mapping_roundtrip() {
        for p in [IpProtocol::Icmp, IpProtocol::Tcp, IpProtocol::Udp, IpProtocol::Other(89)] {
            assert_eq!(IpProtocol::from(u8::from(p)), p);
        }
    }
}
