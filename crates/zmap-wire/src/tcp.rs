//! TCP segment construction and parsing (SYN probes and their replies).

use crate::checksum;
use crate::options;
use crate::WireError;

/// Fixed TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);

    /// True if every bit of `other` is set in `self`.
    pub fn contains(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Bitwise union.
    pub fn union(&self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    pub fn syn(&self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    pub fn ack(&self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    pub fn rst(&self) -> bool {
        self.contains(TcpFlags::RST)
    }
    pub fn fin(&self) -> bool {
        self.contains(TcpFlags::FIN)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = [(0x02u8, 'S'), (0x10, 'A'), (0x04, 'R'), (0x01, 'F'), (0x08, 'P')];
        for (bit, c) in names {
            if self.0 & bit != 0 {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// High-level description of a TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr<'a> {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    /// Encoded, already-padded option bytes (see [`crate::options`]):
    /// usually an [`OptionLayout`](crate::options::OptionLayout)'s static
    /// table, or the received segment's own bytes.
    pub options: &'a [u8],
}

impl TcpRepr<'_> {
    /// Header length including options.
    pub fn header_len(&self) -> usize {
        HEADER_LEN + self.options.len()
    }

    /// Appends the segment (checksum filled in) to `buf`.
    ///
    /// `pseudo` is the IPv4 pseudo-header partial sum
    /// ([`checksum::pseudo_header`]); `payload` is appended after the
    /// header and covered by the checksum.
    ///
    /// # Panics
    /// Panics if the options are not 4-byte aligned or exceed 40 bytes
    /// (both unrepresentable in the data-offset field).
    pub fn emit(&self, pseudo: u32, payload: &[u8], buf: &mut Vec<u8>) {
        assert!(
            self.options.len().is_multiple_of(4),
            "options must be word-aligned"
        );
        assert!(self.options.len() <= 40, "options exceed 40 bytes");
        let mut h = [0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..8].copy_from_slice(&self.seq.to_be_bytes());
        h[8..12].copy_from_slice(&self.ack.to_be_bytes());
        h[12] = ((self.header_len() / 4) as u8) << 4; // data offset, in words
        h[13] = self.flags.0;
        h[14..16].copy_from_slice(&self.window.to_be_bytes());
        // Checksum (filled here) and urgent pointer stay zero. Every part
        // before the payload has even length, so summing the parts one by
        // one is the sum over the whole segment.
        let sum = checksum::sum(checksum::sum(pseudo, &h), self.options);
        h[16..18].copy_from_slice(&checksum::finish(checksum::sum(sum, payload)).to_be_bytes());
        buf.extend_from_slice(&h);
        buf.extend_from_slice(self.options);
        buf.extend_from_slice(payload);
    }
}

/// Zero-copy view over a received TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    buf: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Parses structure (length, data offset).
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let off = usize::from(buf[12] >> 4) * 4;
        if off < HEADER_LEN || off > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(TcpView { buf })
    }

    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    pub fn seq(&self) -> u32 {
        u32::from_be_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]])
    }

    pub fn ack(&self) -> u32 {
        u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]])
    }

    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buf[13] & 0x3F)
    }

    pub fn window(&self) -> u16 {
        u16::from_be_bytes([self.buf[14], self.buf[15]])
    }

    fn data_offset(&self) -> usize {
        usize::from(self.buf[12] >> 4) * 4
    }

    /// Raw option bytes.
    pub fn option_bytes(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..self.data_offset()]
    }

    /// Decoded options.
    pub fn options(&self) -> Result<Vec<options::TcpOption>, WireError> {
        options::decode(self.option_bytes())
    }

    /// Segment payload after options.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.data_offset()..]
    }

    /// Verifies the checksum given the pseudo-header partial sum.
    pub fn verify_checksum(&self, pseudo: u32) -> bool {
        checksum::verify(self.buf, pseudo)
    }

    /// The parsed repr (options borrowed from the segment).
    pub fn repr(&self) -> TcpRepr<'a> {
        TcpRepr {
            src_port: self.src_port(),
            dst_port: self.dst_port(),
            seq: self.seq(),
            ack: self.ack(),
            flags: self.flags(),
            window: self.window(),
            options: self.option_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::OptionLayout;

    fn pseudo() -> u32 {
        checksum::pseudo_header(0xC0000201, 0xC6336407, 6, 20)
    }

    fn sample(flags: TcpFlags, opts: &[u8]) -> TcpRepr<'_> {
        TcpRepr {
            src_port: 45000,
            dst_port: 80,
            seq: 0xDEADBEEF,
            ack: 0,
            flags,
            window: 65535,
            options: opts,
        }
    }

    #[test]
    fn emit_parse_roundtrip_no_options() {
        let repr = sample(TcpFlags::SYN, &[]);
        let mut buf = Vec::new();
        repr.emit(pseudo(), &[], &mut buf);
        assert_eq!(buf.len(), 20);
        let v = TcpView::parse(&buf).unwrap();
        assert_eq!(v.repr(), repr);
        assert!(v.verify_checksum(pseudo()));
        assert!(v.flags().syn());
        assert!(!v.flags().ack());
    }

    #[test]
    fn emit_parse_roundtrip_with_options() {
        for layout in OptionLayout::ALL {
            let repr = sample(TcpFlags::SYN, layout.bytes());
            let pseudo = checksum::pseudo_header(1, 2, 6, repr.header_len() as u16);
            let mut buf = Vec::new();
            repr.emit(pseudo, &[], &mut buf);
            let v = TcpView::parse(&buf).unwrap();
            assert_eq!(v.repr(), repr, "{layout:?}");
            assert!(v.verify_checksum(pseudo), "{layout:?}");
            assert_eq!(v.payload(), &[] as &[u8]);
        }
    }

    #[test]
    fn payload_is_carried_and_checksummed() {
        let repr = sample(TcpFlags::PSH.union(TcpFlags::ACK), &[]);
        let body = b"GET / HTTP/1.0\r\n\r\n";
        let pseudo = checksum::pseudo_header(1, 2, 6, (20 + body.len()) as u16);
        let mut buf = Vec::new();
        repr.emit(pseudo, body, &mut buf);
        let v = TcpView::parse(&buf).unwrap();
        assert_eq!(v.payload(), body);
        assert!(v.verify_checksum(pseudo));
    }

    #[test]
    fn corruption_fails_checksum() {
        let repr = sample(TcpFlags::SYN_ACK, &[]);
        let mut buf = Vec::new();
        repr.emit(pseudo(), &[], &mut buf);
        buf[4] ^= 0xFF; // mangle seq
        let v = TcpView::parse(&buf).unwrap();
        assert!(!v.verify_checksum(pseudo()));
    }

    #[test]
    fn parse_rejects_bad_offsets() {
        assert_eq!(TcpView::parse(&[0u8; 19]).unwrap_err(), WireError::Truncated);
        let mut buf = vec![0u8; 20];
        buf[12] = 0x40; // offset 4 words = 16 bytes < 20
        assert_eq!(TcpView::parse(&buf).unwrap_err(), WireError::BadLength);
        buf[12] = 0xF0; // offset 60 > buffer
        assert_eq!(TcpView::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn flags_display_and_predicates() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SA");
        assert_eq!(TcpFlags::RST.to_string(), "R");
        assert!(TcpFlags::SYN_ACK.syn());
        assert!(TcpFlags::SYN_ACK.ack());
        assert!(!TcpFlags::SYN_ACK.rst());
        assert!(TcpFlags::RST_ACK.rst());
        assert!(TcpFlags(0x01).fin());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_options_panic() {
        let repr = sample(TcpFlags::SYN, &[1, 1, 1]);
        repr.emit(0, &[], &mut Vec::new());
    }
}
