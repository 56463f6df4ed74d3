//! UDP datagram construction and parsing (for UDP probe modules).

use crate::checksum;
use crate::WireError;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// High-level description of a UDP datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpRepr {
    /// Appends header + payload (checksum filled in) to `buf`.
    /// `pseudo` must cover protocol 17 and length `8 + payload.len()`.
    pub fn emit(&self, pseudo: u32, payload: &[u8], buf: &mut Vec<u8>) {
        let len = (HEADER_LEN + payload.len()) as u16;
        let ([s0, s1], [d0, d1], [l0, l1]) =
            (self.src_port.to_be_bytes(), self.dst_port.to_be_bytes(), len.to_be_bytes());
        let mut h = [s0, s1, d0, d1, l0, l1, 0, 0]; // checksum filled below
        let mut csum = checksum::finish(checksum::sum(checksum::sum(pseudo, &h), payload));
        // RFC 768: transmitted checksum 0 means "no checksum"; a computed
        // zero is sent as 0xFFFF.
        if csum == 0 {
            csum = 0xFFFF;
        }
        h[6..8].copy_from_slice(&csum.to_be_bytes());
        buf.extend_from_slice(&h);
        buf.extend_from_slice(payload);
    }
}

/// Zero-copy view over a received UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpView<'a> {
    buf: &'a [u8],
}

impl<'a> UdpView<'a> {
    /// Parses structure; the length field must cover the header and fit
    /// the buffer. This is the check whose absence caused ZMap's historic
    /// `uh_ulen < 8` segfault (GitHub PR #155, cited in §5).
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(UdpView { buf })
    }

    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// The UDP length field (header + payload).
    pub fn len_field(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Datagram payload, trimmed to the length field.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..usize::from(self.len_field())]
    }

    /// Verifies the checksum. What a transmitted zero means depends on
    /// the family underneath: over IPv4 (RFC 768) the checksum is
    /// optional and zero says the sender skipped it, so `zero_ok`
    /// receivers accept; RFC 8200 §8.1 makes it mandatory over IPv6, so a
    /// literal 0x0000 there is a malformed datagram and is **rejected**.
    /// (A computed zero is transmitted as 0xFFFF under both families, so
    /// no valid sender ever emits 0x0000 over v6.)
    pub fn verify_checksum(&self, pseudo: u32, zero_ok: bool) -> bool {
        let stored = u16::from_be_bytes([self.buf[6], self.buf[7]]);
        if stored == 0 {
            return zero_ok;
        }
        checksum::verify(&self.buf[..usize::from(self.len_field())], pseudo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let repr = UdpRepr { src_port: 53000, dst_port: 53 };
        let payload = b"\x12\x34\x01\x00"; // DNS-ish bytes
        let pseudo = checksum::pseudo_header(0x0A000001, 0x08080808, 17, 12);
        let mut buf = Vec::new();
        repr.emit(pseudo, payload, &mut buf);
        let v = UdpView::parse(&buf).unwrap();
        assert_eq!(v.src_port(), 53000);
        assert_eq!(v.dst_port(), 53);
        assert_eq!(v.len_field(), 12);
        assert_eq!(v.payload(), payload);
        assert!(v.verify_checksum(pseudo, true));
    }

    #[test]
    fn the_uh_ulen_bug_is_rejected() {
        // A datagram whose length field claims less than 8 bytes used to
        // crash ZMap's C parser; we must return BadLength instead.
        let mut buf = vec![0u8; 8];
        buf[5] = 7; // uh_ulen = 7
        assert_eq!(UdpView::parse(&buf).unwrap_err(), WireError::BadLength);
        buf[5] = 0;
        assert_eq!(UdpView::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn length_beyond_buffer_rejected() {
        let mut buf = vec![0u8; 10];
        buf[5] = 11;
        assert_eq!(UdpView::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn zero_checksum_passes() {
        let mut buf = vec![0u8; 8];
        buf[5] = 8;
        let v = UdpView::parse(&buf).unwrap();
        assert!(v.verify_checksum(12345, true));
    }

    #[test]
    fn zero_checksum_rejected_on_v6_path() {
        // Regression: the zero-checksum fold must be version-aware. The
        // same unchecksummed datagram that IPv4 accepts (RFC 768) is
        // forbidden over IPv6 (RFC 8200 §8.1) and must be rejected.
        let mut buf = vec![0u8; 8];
        buf[5] = 8;
        let v = UdpView::parse(&buf).unwrap();
        assert!(v.verify_checksum(12345, true), "v4 rule: zero means unchecksummed");
        assert!(!v.verify_checksum(12345, false), "v6 rule: zero is malformed");
    }

    #[test]
    fn valid_checksum_passes_on_v6_path() {
        let repr = UdpRepr { src_port: 53000, dst_port: 53 };
        let src = [0x20u8, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let dst = [0x20u8, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        let pseudo = checksum::pseudo_header_v6(&src, &dst, 17, 12);
        let mut buf = Vec::new();
        repr.emit(pseudo, b"abcd", &mut buf);
        let v = UdpView::parse(&buf).unwrap();
        assert!(v.verify_checksum(pseudo, false));
        buf[8] ^= 0xFF;
        assert!(!UdpView::parse(&buf).unwrap().verify_checksum(pseudo, false));
    }

    #[test]
    fn corruption_detected() {
        let repr = UdpRepr { src_port: 1, dst_port: 2 };
        let pseudo = checksum::pseudo_header(1, 2, 17, 9);
        let mut buf = Vec::new();
        repr.emit(pseudo, b"x", &mut buf);
        buf[8] ^= 0xFF;
        let v = UdpView::parse(&buf).unwrap();
        assert!(!v.verify_checksum(pseudo, true));
    }

    #[test]
    fn padding_after_length_is_ignored() {
        let repr = UdpRepr { src_port: 1, dst_port: 2 };
        let pseudo = checksum::pseudo_header(1, 2, 17, 10);
        let mut buf = Vec::new();
        repr.emit(pseudo, b"ab", &mut buf);
        buf.extend_from_slice(&[0u8; 20]); // Ethernet pad
        let v = UdpView::parse(&buf).unwrap();
        assert_eq!(v.payload(), b"ab");
        assert!(v.verify_checksum(pseudo, true));
    }
}
