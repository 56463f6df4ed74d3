//! Ethernet II framing.

use crate::WireError;

/// Length of an Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;

/// Minimum Ethernet payload (frames are padded to 60 bytes pre-FCS).
pub const MIN_FRAME_NO_FCS: usize = 60;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally administered unicast address derived from a seed — handy
    /// for simulations (bit 1 of the first octet set, bit 0 clear).
    pub fn local(seed: u32) -> MacAddr {
        let b = seed.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800
    Ipv4,
    /// 0x0806
    Arp,
    /// 0x86DD
    Ipv6,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86DD => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Other(v) => v,
        }
    }
}

/// High-level description of an Ethernet header (smoltcp-style "repr").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Destination MAC (the gateway, for a scanner).
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Appends the 14-byte header to `buf`.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        let mut h = [0u8; HEADER_LEN];
        h[0..6].copy_from_slice(&self.dst.0);
        h[6..12].copy_from_slice(&self.src.0);
        h[12..14].copy_from_slice(&u16::from(self.ethertype).to_be_bytes());
        buf.extend_from_slice(&h);
    }
}

/// Zero-copy view over a received Ethernet frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetView<'a> {
    buf: &'a [u8],
}

impl<'a> EthernetView<'a> {
    /// Wraps `buf`, checking the fixed header is present.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EthernetView { buf })
    }

    /// Destination MAC.
    pub fn dst(&self) -> MacAddr {
        MacAddr([
            self.buf[0],
            self.buf[1],
            self.buf[2],
            self.buf[3],
            self.buf[4],
            self.buf[5],
        ])
    }

    /// Source MAC.
    pub fn src(&self) -> MacAddr {
        MacAddr([
            self.buf[6],
            self.buf[7],
            self.buf[8],
            self.buf[9],
            self.buf[10],
            self.buf[11],
        ])
    }

    /// Payload protocol.
    pub fn ethertype(&self) -> EtherType {
        u16::from_be_bytes([self.buf[12], self.buf[13]]).into()
    }

    /// Everything after the header (may include trailing pad bytes).
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..]
    }

    /// The parsed repr.
    pub fn repr(&self) -> EthernetRepr {
        EthernetRepr {
            dst: self.dst(),
            src: self.src(),
            ethertype: self.ethertype(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let repr = EthernetRepr {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr::local(0xDEADBEEF),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(b"payload");
        let v = EthernetView::parse(&buf).unwrap();
        assert_eq!(v.repr(), repr);
        assert_eq!(v.payload(), b"payload");
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(EthernetView::parse(&[0u8; 13]).unwrap_err(), WireError::Truncated);
        assert!(EthernetView::parse(&[0u8; 14]).is_ok());
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800u16), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806u16), EtherType::Arp);
        assert_eq!(EtherType::from(0x86DDu16), EtherType::Ipv6);
        assert_eq!(u16::from(EtherType::Ipv6), 0x86DD);
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn local_mac_is_unicast_and_local() {
        let m = MacAddr::local(42);
        assert_eq!(m.0[0] & 0x01, 0, "must be unicast");
        assert_eq!(m.0[0] & 0x02, 0x02, "must be locally administered");
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
    }

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }
}
