//! ICMPv4: echo probes and the error messages scanners must classify
//! (destination unreachable, in particular, distinguishes "closed/filtered"
//! from "dead").

use crate::checksum;
use crate::WireError;

/// ICMP header length (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// ICMP message types relevant to scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Type 0: echo reply.
    EchoReply,
    /// Type 3: destination unreachable; carries a code.
    DestUnreachable(UnreachCode),
    /// Type 8: echo request.
    EchoRequest,
    /// Type 11: time exceeded.
    TimeExceeded,
    /// Anything else.
    Other(u8, u8),
}

/// Destination-unreachable codes scanners care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnreachCode {
    Net,           // 0
    Host,          // 1
    Protocol,      // 2
    Port,          // 3
    FragNeeded,    // 4
    AdminProhibited, // 13 (the common firewall reject)
    Other(u8),
}

impl From<u8> for UnreachCode {
    fn from(c: u8) -> Self {
        match c {
            0 => UnreachCode::Net,
            1 => UnreachCode::Host,
            2 => UnreachCode::Protocol,
            3 => UnreachCode::Port,
            4 => UnreachCode::FragNeeded,
            13 => UnreachCode::AdminProhibited,
            other => UnreachCode::Other(other),
        }
    }
}

impl From<UnreachCode> for u8 {
    fn from(c: UnreachCode) -> u8 {
        match c {
            UnreachCode::Net => 0,
            UnreachCode::Host => 1,
            UnreachCode::Protocol => 2,
            UnreachCode::Port => 3,
            UnreachCode::FragNeeded => 4,
            UnreachCode::AdminProhibited => 13,
            UnreachCode::Other(v) => v,
        }
    }
}

impl IcmpType {
    fn type_code(&self) -> (u8, u8) {
        match *self {
            IcmpType::EchoReply => (0, 0),
            IcmpType::DestUnreachable(c) => (3, c.into()),
            IcmpType::EchoRequest => (8, 0),
            IcmpType::TimeExceeded => (11, 0),
            IcmpType::Other(t, c) => (t, c),
        }
    }

    fn from_type_code(t: u8, c: u8) -> IcmpType {
        match t {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestUnreachable(c.into()),
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            _ => IcmpType::Other(t, c),
        }
    }
}

/// High-level description of an ICMP message.
///
/// For echo request/reply, `id`/`seq` fill the rest-of-header; for error
/// messages they are zero and the payload carries the offending header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpRepr {
    pub icmp_type: IcmpType,
    pub id: u16,
    pub seq: u16,
}

impl IcmpRepr {
    /// Appends header + payload (checksum filled in) to `buf`.
    pub fn emit(&self, payload: &[u8], buf: &mut Vec<u8>) {
        let (t, c) = self.icmp_type.type_code();
        let ([i0, i1], [s0, s1]) = (self.id.to_be_bytes(), self.seq.to_be_bytes());
        let mut h = [t, c, 0, 0, i0, i1, s0, s1]; // checksum filled below
        let csum = checksum::finish(checksum::sum(checksum::sum(0, &h), payload));
        h[2..4].copy_from_slice(&csum.to_be_bytes());
        buf.extend_from_slice(&h);
        buf.extend_from_slice(payload);
    }
}

/// Zero-copy view over a received ICMP message.
#[derive(Debug, Clone, Copy)]
pub struct IcmpView<'a> {
    buf: &'a [u8],
}

impl<'a> IcmpView<'a> {
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(IcmpView { buf })
    }

    pub fn icmp_type(&self) -> IcmpType {
        IcmpType::from_type_code(self.buf[0], self.buf[1])
    }

    /// Echo identifier (meaningful for echo request/reply).
    pub fn id(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Echo sequence number.
    pub fn seq(&self) -> u16 {
        u16::from_be_bytes([self.buf[6], self.buf[7]])
    }

    /// Message payload. For destination-unreachable this is the original
    /// IP header + first 8 L4 bytes — enough to recover the probe's
    /// addresses and validation cookie.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..]
    }

    pub fn verify_checksum(&self) -> bool {
        checksum::checksum(self.buf) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let repr = IcmpRepr {
            icmp_type: IcmpType::EchoRequest,
            id: 0xBEEF,
            seq: 7,
        };
        let mut buf = Vec::new();
        repr.emit(b"zmap-echo-data", &mut buf);
        let v = IcmpView::parse(&buf).unwrap();
        assert_eq!(v.icmp_type(), IcmpType::EchoRequest);
        assert_eq!(v.id(), 0xBEEF);
        assert_eq!(v.seq(), 7);
        assert_eq!(v.payload(), b"zmap-echo-data");
        assert!(v.verify_checksum());
    }

    #[test]
    fn unreachable_codes_roundtrip() {
        for code in [
            UnreachCode::Net,
            UnreachCode::Host,
            UnreachCode::Port,
            UnreachCode::AdminProhibited,
            UnreachCode::Other(9),
        ] {
            let repr = IcmpRepr {
                icmp_type: IcmpType::DestUnreachable(code),
                id: 0,
                seq: 0,
            };
            let mut buf = Vec::new();
            repr.emit(&[0u8; 28], &mut buf);
            let v = IcmpView::parse(&buf).unwrap();
            assert_eq!(v.icmp_type(), IcmpType::DestUnreachable(code));
            assert!(v.verify_checksum());
        }
    }

    #[test]
    fn corruption_detected() {
        let repr = IcmpRepr { icmp_type: IcmpType::EchoReply, id: 1, seq: 2 };
        let mut buf = Vec::new();
        repr.emit(&[], &mut buf);
        buf[4] ^= 1;
        assert!(!IcmpView::parse(&buf).unwrap().verify_checksum());
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(IcmpView::parse(&[0u8; 7]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn unknown_types_preserved() {
        let t = IcmpType::from_type_code(42, 9);
        assert_eq!(t, IcmpType::Other(42, 9));
    }
}
