//! TCP options and the probe option-layout templates from paper §4.3.
//!
//! ZMap originally sent the smallest possible SYN — no options at all —
//! and consistently missed 1.5–2.0% of hosts reachable by real OS stacks
//! (Figure 7). Including *any* of MSS, SACK-permitted, Timestamp, or
//! Window Scale recovers most of that; mimicking an exact OS ordering
//! finds slightly more than an "optimal" byte-packed layout (+0.0023%,
//! ≈1.5K hosts Internet-wide); and MSS alone keeps the probe under the
//! 64-byte minimum Ethernet frame, preserving the full 1.488 Mpps 1 GbE
//! line rate.

use crate::WireError;

/// A single TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// Kind 0: end of option list.
    EndOfList,
    /// Kind 1: no-operation (padding / alignment).
    Nop,
    /// Kind 2: maximum segment size.
    Mss(u16),
    /// Kind 3: window scale shift.
    WindowScale(u8),
    /// Kind 4: SACK permitted.
    SackPermitted,
    /// Kind 8: timestamp (TSval, TSecr).
    Timestamp(u32, u32),
    /// Any other option, type byte only (payload ignored on emit).
    Unknown(u8),
}

impl TcpOption {
    /// Encoded length in bytes.
    // Every option occupies at least one byte, so `is_empty` is moot.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            TcpOption::EndOfList | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamp(..) => 10,
            TcpOption::Unknown(_) => 2,
        }
    }

    /// Appends the encoded option to `buf`.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        match *self {
            TcpOption::EndOfList => buf.push(0),
            TcpOption::Nop => buf.push(1),
            TcpOption::Mss(v) => {
                buf.extend_from_slice(&[2, 4]);
                buf.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(s) => buf.extend_from_slice(&[3, 3, s]),
            TcpOption::SackPermitted => buf.extend_from_slice(&[4, 2]),
            TcpOption::Timestamp(val, ecr) => {
                buf.extend_from_slice(&[8, 10]);
                buf.extend_from_slice(&val.to_be_bytes());
                buf.extend_from_slice(&ecr.to_be_bytes());
            }
            TcpOption::Unknown(kind) => buf.extend_from_slice(&[kind, 2]),
        }
    }
}

/// Encodes `options` and pads with trailing NOPs to a 4-byte boundary
/// (the TCP data-offset granularity).
pub fn encode(options: &[TcpOption]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40);
    for o in options {
        o.emit(&mut buf);
    }
    while buf.len() % 4 != 0 {
        buf.push(1); // NOP
    }
    buf
}

/// Decodes a TCP option block. Stops at End-of-List; tolerates unknown
/// kinds with valid lengths; rejects malformed lengths.
pub fn decode(mut buf: &[u8]) -> Result<Vec<TcpOption>, WireError> {
    let mut out = Vec::new();
    while let Some(&kind) = buf.first() {
        match kind {
            0 => {
                out.push(TcpOption::EndOfList);
                break;
            }
            1 => {
                out.push(TcpOption::Nop);
                buf = &buf[1..];
            }
            _ => {
                if buf.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let len = usize::from(buf[1]);
                if len < 2 || len > buf.len() {
                    return Err(WireError::BadLength);
                }
                let body = &buf[2..len];
                out.push(match (kind, len) {
                    (2, 4) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
                    (3, 3) => TcpOption::WindowScale(body[0]),
                    (4, 2) => TcpOption::SackPermitted,
                    (8, 10) => TcpOption::Timestamp(
                        u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                        u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                    ),
                    _ => TcpOption::Unknown(kind),
                });
                buf = &buf[len..];
            }
        }
    }
    Ok(out)
}

/// The probe option layouts evaluated in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptionLayout {
    /// No options at all — ZMap's original minimal probe.
    NoOptions,
    /// MSS alone: recovers >99.99% of services found with full options
    /// while staying under the minimum Ethernet frame. ZMap's default.
    #[default]
    MssOnly,
    /// SACK-permitted alone (padded).
    SackPermittedOnly,
    /// Timestamp alone (padded).
    TimestampOnly,
    /// Window-scale alone (padded).
    WindowScaleOnly,
    /// All four options packed for minimum length (one NOP of padding),
    /// ignoring OS conventions.
    OptimalPacked,
    /// Exact Linux SYN layout: MSS, SACKperm, TS, NOP, WS (20 bytes).
    Linux,
    /// Exact BSD/macOS SYN layout: MSS, NOP, WS, NOP, NOP, TS,
    /// SACKperm, EOL (24 bytes).
    Bsd,
    /// Exact Windows SYN layout: MSS, NOP, WS, NOP, NOP, SACKperm
    /// (12 bytes).
    Windows,
}

/// Default MSS advertised in probes (Ethernet-sized, like ZMap).
pub const DEFAULT_MSS: u16 = 1460;
/// Default window-scale shift.
pub const DEFAULT_WSCALE: u8 = 7;
/// Default TSval for probes (a fixed value keeps probes deterministic;
/// hosts echo it in TSecr).
pub const DEFAULT_TSVAL: u32 = 0x5A4D_4150; // "ZMAP"

impl OptionLayout {
    /// All layouts, in Figure 7's presentation order.
    pub const ALL: [OptionLayout; 9] = [
        OptionLayout::NoOptions,
        OptionLayout::SackPermittedOnly,
        OptionLayout::TimestampOnly,
        OptionLayout::WindowScaleOnly,
        OptionLayout::MssOnly,
        OptionLayout::OptimalPacked,
        OptionLayout::Linux,
        OptionLayout::Bsd,
        OptionLayout::Windows,
    ];

    /// The option list for this layout (before padding).
    pub fn options(&self) -> Vec<TcpOption> {
        use TcpOption::*;
        match self {
            OptionLayout::NoOptions => vec![],
            OptionLayout::MssOnly => vec![Mss(DEFAULT_MSS)],
            OptionLayout::SackPermittedOnly => vec![SackPermitted],
            OptionLayout::TimestampOnly => vec![Nop, Nop, Timestamp(DEFAULT_TSVAL, 0)],
            OptionLayout::WindowScaleOnly => vec![Nop, WindowScale(DEFAULT_WSCALE)],
            OptionLayout::OptimalPacked => vec![
                Mss(DEFAULT_MSS),
                Timestamp(DEFAULT_TSVAL, 0),
                SackPermitted,
                WindowScale(DEFAULT_WSCALE),
            ],
            OptionLayout::Linux => vec![
                Mss(DEFAULT_MSS),
                SackPermitted,
                Timestamp(DEFAULT_TSVAL, 0),
                Nop,
                WindowScale(DEFAULT_WSCALE),
            ],
            OptionLayout::Bsd => vec![
                Mss(DEFAULT_MSS),
                Nop,
                WindowScale(DEFAULT_WSCALE),
                Nop,
                Nop,
                Timestamp(DEFAULT_TSVAL, 0),
                SackPermitted,
                EndOfList,
            ],
            OptionLayout::Windows => vec![
                Mss(DEFAULT_MSS),
                Nop,
                WindowScale(DEFAULT_WSCALE),
                Nop,
                Nop,
                SackPermitted,
            ],
        }
    }

    /// Encoded, padded option bytes: [`encode`] of [`options`](Self::options),
    /// written out as a static table so a probe renderer or a simulated
    /// host comparing layouts per SYN never allocates.
    pub const fn bytes(&self) -> &'static [u8] {
        // MSS 1460 = 0x05B4, TSval "ZMAP" = 5A 4D 41 50, TSecr 0, WS 7.
        match self {
            OptionLayout::NoOptions => &[],
            OptionLayout::MssOnly => &[2, 4, 0x05, 0xB4],
            OptionLayout::SackPermittedOnly => &[4, 2, 1, 1],
            OptionLayout::TimestampOnly => &[1, 1, 8, 10, 0x5A, 0x4D, 0x41, 0x50, 0, 0, 0, 0],
            OptionLayout::WindowScaleOnly => &[1, 3, 3, 7],
            OptionLayout::OptimalPacked => &[
                2, 4, 0x05, 0xB4, 8, 10, 0x5A, 0x4D, 0x41, 0x50, 0, 0, 0, 0, 4, 2, 3, 3, 7, 1,
            ],
            OptionLayout::Linux => &[
                2, 4, 0x05, 0xB4, 4, 2, 8, 10, 0x5A, 0x4D, 0x41, 0x50, 0, 0, 0, 0, 1, 3, 3, 7,
            ],
            OptionLayout::Bsd => &[
                2, 4, 0x05, 0xB4, 1, 3, 3, 7, 1, 1, 8, 10, 0x5A, 0x4D, 0x41, 0x50, 0, 0, 0, 0, 4,
                2, 0, 1,
            ],
            OptionLayout::Windows => &[2, 4, 0x05, 0xB4, 1, 3, 3, 7, 1, 1, 4, 2],
        }
    }

    /// Short name used in experiment output (matches Figure 7 labels).
    pub fn label(&self) -> &'static str {
        match self {
            OptionLayout::NoOptions => "none",
            OptionLayout::MssOnly => "mss",
            OptionLayout::SackPermittedOnly => "sack",
            OptionLayout::TimestampOnly => "ts",
            OptionLayout::WindowScaleOnly => "wscale",
            OptionLayout::OptimalPacked => "packed",
            OptionLayout::Linux => "linux",
            OptionLayout::Bsd => "bsd",
            OptionLayout::Windows => "windows",
        }
    }

    /// Which of the four substantive options this layout carries.
    pub fn carries(&self) -> OptionSet {
        let mut set = OptionSet::default();
        for o in self.options() {
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
}

/// Which substantive TCP options a probe carries (for host stack models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptionSet {
    pub mss: bool,
    pub sack: bool,
    pub timestamp: bool,
    pub wscale: bool,
}

impl OptionSet {
    /// True if at least one substantive option is present.
    pub fn any(&self) -> bool {
        self.mss || self.sack || self.timestamp || self.wscale
    }

    /// Number of substantive options present.
    pub fn count(&self) -> u32 {
        u32::from(self.mss) + u32::from(self.sack) + u32::from(self.timestamp) + u32::from(self.wscale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_byte_lengths_match_paper() {
        // Lengths drive the Mpps numbers in §4.3.
        assert_eq!(OptionLayout::NoOptions.bytes().len(), 0);
        assert_eq!(OptionLayout::MssOnly.bytes().len(), 4);
        assert_eq!(OptionLayout::SackPermittedOnly.bytes().len(), 4);
        assert_eq!(OptionLayout::TimestampOnly.bytes().len(), 12);
        assert_eq!(OptionLayout::WindowScaleOnly.bytes().len(), 4);
        assert_eq!(OptionLayout::OptimalPacked.bytes().len(), 20);
        assert_eq!(OptionLayout::Linux.bytes().len(), 20);
        assert_eq!(OptionLayout::Windows.bytes().len(), 12);
        assert_eq!(OptionLayout::Bsd.bytes().len(), 24);
    }

    #[test]
    fn static_tables_are_the_encoded_option_lists() {
        for l in OptionLayout::ALL {
            assert_eq!(l.bytes(), encode(&l.options()).as_slice(), "{l:?}");
        }
    }

    #[test]
    fn all_layouts_word_aligned() {
        for l in OptionLayout::ALL {
            assert_eq!(l.bytes().len() % 4, 0, "{l:?}");
            assert!(l.bytes().len() <= 40, "{l:?} exceeds max TCP options");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for l in OptionLayout::ALL {
            let bytes = l.bytes();
            let decoded = decode(bytes).unwrap();
            // Every substantive option must survive the roundtrip.
            let set_in = l.carries();
            let mut set_out = OptionSet::default();
            for o in &decoded {
                match o {
                    TcpOption::Mss(v) => {
                        assert_eq!(*v, DEFAULT_MSS);
                        set_out.mss = true;
                    }
                    TcpOption::SackPermitted => set_out.sack = true,
                    TcpOption::Timestamp(v, _) => {
                        assert_eq!(*v, DEFAULT_TSVAL);
                        set_out.timestamp = true;
                    }
                    TcpOption::WindowScale(s) => {
                        assert_eq!(*s, DEFAULT_WSCALE);
                        set_out.wscale = true;
                    }
                    _ => {}
                }
            }
            assert_eq!(set_in, set_out, "{l:?}");
        }
    }

    #[test]
    fn decode_stops_at_eol() {
        let buf = [0u8, 2, 4, 5, 0xB4]; // EOL then garbage-looking MSS
        let opts = decode(&buf).unwrap();
        assert_eq!(opts, vec![TcpOption::EndOfList]);
    }

    #[test]
    fn decode_rejects_malformed_lengths() {
        assert_eq!(decode(&[2, 1, 0, 0]).unwrap_err(), WireError::BadLength); // len < 2
        assert_eq!(decode(&[2, 10, 0, 0]).unwrap_err(), WireError::BadLength); // len > buf
        assert_eq!(decode(&[2]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn decode_tolerates_unknown_kinds() {
        // Kind 30 (MPTCP) length 4.
        let buf = [30u8, 4, 0, 0, 1, 1, 1, 1];
        let opts = decode(&buf).unwrap();
        assert_eq!(opts[0], TcpOption::Unknown(30));
        assert_eq!(opts.len(), 5);
    }

    #[test]
    fn option_set_counting() {
        assert_eq!(OptionLayout::NoOptions.carries().count(), 0);
        assert!(!OptionLayout::NoOptions.carries().any());
        assert_eq!(OptionLayout::MssOnly.carries().count(), 1);
        assert_eq!(OptionLayout::Linux.carries().count(), 4);
        assert_eq!(OptionLayout::Windows.carries().count(), 3);
    }

    #[test]
    fn emitted_length_matches_len_method() {
        use TcpOption::*;
        for o in [
            EndOfList,
            Nop,
            Mss(1460),
            WindowScale(7),
            SackPermitted,
            Timestamp(1, 2),
            Unknown(99),
        ] {
            let mut buf = Vec::new();
            o.emit(&mut buf);
            assert_eq!(buf.len(), o.len(), "{o:?}");
        }
    }
}
