//! IPv6 header construction and parsing (RFC 8200).
//!
//! The v6 probe path mirrors the v4 one with two structural differences
//! that ripple through the template machinery: there is no header
//! checksum (only the upper-layer pseudo-header sum), and there is no
//! identification field (the 20-bit flow label exists but probes leave it
//! zero, matching XMap). Probes never emit extension headers, and the
//! parser only follows packets whose next header is a transport protocol
//! we scan with — extension chains are "not for us" rather than errors.

use crate::checksum;
use crate::ipv4::IpProtocol;
use crate::WireError;
use std::net::Ipv6Addr;

/// Fixed IPv6 header length (no extension headers).
pub const HEADER_LEN: usize = 40;

/// IANA next-header number for ICMPv6.
pub const NEXT_HEADER_ICMPV6: u8 = 58;

/// High-level description of an IPv6 header (no extension headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Repr {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Upper-layer protocol (the next-header field).
    pub next_header: IpProtocol,
    /// Hop limit (the scanner sends 255, like the v4 TTL).
    pub hop_limit: u8,
    /// Upper-layer payload length in bytes.
    pub payload_len: u16,
}

impl Ipv6Repr {
    /// Appends the 40-byte header to `buf`. Version 6, traffic class and
    /// flow label zero. Infallible: `payload_len` is the field itself.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        let mut h = [0u8; HEADER_LEN];
        h[0] = 0x60; // version 6; traffic class and flow label zero
        h[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        h[6] = self.next_header.into();
        h[7] = self.hop_limit;
        h[8..24].copy_from_slice(&self.src.octets());
        h[24..40].copy_from_slice(&self.dst.octets());
        buf.extend_from_slice(&h);
    }
}

/// Zero-copy view over a received IPv6 packet.
#[derive(Debug, Clone, Copy)]
pub struct Ipv6View<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv6View<'a> {
    /// Parses and validates structure (version, payload length vs.
    /// buffer). Ethernet padding past the payload length is tolerated and
    /// trimmed by [`payload`](Self::payload), as in the v4 parser.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] >> 4 != 6 {
            return Err(WireError::BadField);
        }
        let payload_len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if HEADER_LEN + payload_len > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(Ipv6View { buf })
    }

    /// Payload length field.
    pub fn payload_len(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Upper-layer protocol (next header).
    pub fn next_header(&self) -> IpProtocol {
        self.buf[6].into()
    }

    /// Hop limit (the v6 TTL; reported as response distance like v4 TTL).
    pub fn hop_limit(&self) -> u8 {
        self.buf[7]
    }

    /// Source address.
    pub fn src(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buf[8..24]);
        Ipv6Addr::from(o)
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buf[24..40]);
        Ipv6Addr::from(o)
    }

    /// The upper-layer payload, trimmed to the payload-length field.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..HEADER_LEN + usize::from(self.payload_len())]
    }

    /// Pseudo-header partial sum for this packet's upper-layer checksum
    /// (RFC 8200 §8.1 — ICMPv6 includes it too, unlike ICMPv4).
    pub fn pseudo_sum(&self) -> u32 {
        checksum::pseudo_header_v6(
            &self.src().octets(),
            &self.dst().octets(),
            self.next_header().into(),
            u32::from(self.payload_len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv6Repr {
        Ipv6Repr {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8:a:b::77".parse().unwrap(),
            next_header: IpProtocol::Tcp,
            hop_limit: 255,
            payload_len: 20,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        buf.extend_from_slice(&[7u8; 20]);
        let v = Ipv6View::parse(&buf).unwrap();
        assert_eq!(v.src(), sample_repr().src);
        assert_eq!(v.dst(), sample_repr().dst);
        assert_eq!(v.next_header(), IpProtocol::Tcp);
        assert_eq!(v.hop_limit(), 255);
        assert_eq!(v.payload_len(), 20);
        assert_eq!(v.payload(), &[7u8; 20]);
    }

    #[test]
    fn parse_rejects_bad_structure() {
        assert_eq!(Ipv6View::parse(&[0u8; 39]).unwrap_err(), WireError::Truncated);
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf);
        buf.extend_from_slice(&[0u8; 20]);
        // Wrong version nibble.
        let mut b = buf.clone();
        b[0] = 0x45;
        assert_eq!(Ipv6View::parse(&b).unwrap_err(), WireError::BadField);
        // Payload length beyond the buffer.
        let mut b = buf.clone();
        b[4] = 0xFF;
        b[5] = 0xFF;
        assert_eq!(Ipv6View::parse(&b).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn ethernet_padding_is_trimmed() {
        let mut buf = Vec::new();
        let mut r = sample_repr();
        r.payload_len = 4;
        r.emit(&mut buf);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        buf.extend_from_slice(&[0u8; 30]);
        let v = Ipv6View::parse(&buf).unwrap();
        assert_eq!(v.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn pseudo_sum_uses_v6_layout() {
        let mut buf = Vec::new();
        sample_repr().emit(&mut buf);
        buf.extend_from_slice(&[0u8; 20]);
        let v = Ipv6View::parse(&buf).unwrap();
        let want = checksum::pseudo_header_v6(
            &sample_repr().src.octets(),
            &sample_repr().dst.octets(),
            6,
            20,
        );
        assert_eq!(v.pseudo_sum(), want);
    }
}
