//! Parsing of CIDR prefixes and ZMap-style allowlist/blocklist files.
//!
//! File format (one rule per line): `a.b.c.d/len` or a bare address
//! (treated as /32). `#` starts a comment; blank lines are ignored. This
//! matches the files ZMap ships (e.g. `blocklist.conf` of reserved and
//! opt-out space).

use std::net::Ipv4Addr;

/// A parsed CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Network address with host bits zeroed.
    pub addr: u32,
    /// Prefix length, `0..=32`.
    pub len: u8,
}

impl Cidr {
    /// First address in the prefix.
    pub fn first(&self) -> u32 {
        self.addr
    }

    /// Last address in the prefix.
    pub fn last(&self) -> u32 {
        self.addr | host_mask(self.len)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }
}

impl std::fmt::Display for Cidr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.addr), self.len)
    }
}

fn host_mask(len: u8) -> u32 {
    match len {
        0 => u32::MAX,
        32 => 0,
        l => (1u32 << (32 - l)) - 1, // low (32-len) bits set
    }
}

/// Errors from [`parse_cidr`] / [`parse_target_file_contents`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The address part was not a dotted quad.
    BadAddress(String),
    /// The prefix length was not an integer in `0..=32`.
    BadPrefixLength(String),
    /// A line failed to parse; carries the 1-based line number and cause.
    Line(usize, Box<ParseError>),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadAddress(s) => write!(f, "invalid IPv4 address: {s:?}"),
            ParseError::BadPrefixLength(s) => write!(f, "invalid prefix length: {s:?}"),
            ParseError::Line(n, e) => write!(f, "line {n}: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses `"a.b.c.d/len"` or a bare `"a.b.c.d"` (as /32). Host bits below
/// the prefix are zeroed (`"10.0.0.7/8"` → `10.0.0.0/8`), matching ZMap's
/// permissive handling of operator-supplied lists.
pub fn parse_cidr(s: &str) -> Result<Cidr, ParseError> {
    let s = s.trim();
    let (addr_s, len_s) = match s.split_once('/') {
        Some((a, l)) => (a, Some(l)),
        None => (s, None),
    };
    let addr: Ipv4Addr = addr_s
        .parse()
        .map_err(|_| ParseError::BadAddress(addr_s.to_string()))?;
    let len: u8 = match len_s {
        None => 32,
        Some(l) => {
            let v: u8 = l
                .trim()
                .parse()
                .map_err(|_| ParseError::BadPrefixLength(l.to_string()))?;
            if v > 32 {
                return Err(ParseError::BadPrefixLength(l.to_string()));
            }
            v
        }
    };
    let raw = u32::from(addr);
    let net = if len == 0 { 0 } else { raw & !host_mask(len) };
    Ok(Cidr { addr: net, len })
}

/// Parses a whole allowlist/blocklist file: one CIDR per line, `#`
/// comments, blank lines skipped. Errors carry the offending line number.
pub fn parse_target_file_contents(contents: &str) -> Result<Vec<Cidr>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in contents.lines().enumerate() {
        let line = match raw.split_once('#') {
            Some((before, _)) => before,
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let cidr = parse_cidr(line).map_err(|e| ParseError::Line(i + 1, Box::new(e)))?;
        out.push(cidr);
    }
    Ok(out)
}

/// The IANA reserved/special-purpose prefixes ZMap blocks by default
/// (RFC 6890 and friends): never probed even with a `0.0.0.0/0` allowlist.
///
/// # Panics
/// Panics if the static prefix table fails to parse — a compile-time
/// constant, so only a broken edit can trip it. Silently skipping a
/// malformed entry would weaken the blocklist, which is safety-relevant;
/// failing loudly at startup is the correct trade.
#[expect(clippy::expect_used)]
pub fn default_blocklist() -> Vec<Cidr> {
    const PREFIXES: [&str; 15] = [
        "0.0.0.0/8",          // "this" network
        "10.0.0.0/8",         // RFC 1918
        "100.64.0.0/10",      // CGN shared space
        "127.0.0.0/8",        // loopback
        "169.254.0.0/16",     // link local
        "172.16.0.0/12",      // RFC 1918
        "192.0.0.0/24",       // IETF protocol assignments
        "192.0.2.0/24",       // TEST-NET-1
        "192.88.99.0/24",     // 6to4 relay anycast
        "192.168.0.0/16",     // RFC 1918
        "198.18.0.0/15",      // benchmarking
        "198.51.100.0/24",    // TEST-NET-2
        "203.0.113.0/24",     // TEST-NET-3
        "224.0.0.0/4",        // multicast
        "240.0.0.0/4",        // reserved (incl. broadcast)
    ];
    PREFIXES
        .iter()
        .map(|p| parse_cidr(p).expect("static table parses"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_forms() {
        assert_eq!(
            parse_cidr("192.168.1.0/24").unwrap(),
            Cidr { addr: 0xC0A80100, len: 24 }
        );
        assert_eq!(parse_cidr("8.8.8.8").unwrap(), Cidr { addr: 0x08080808, len: 32 });
        assert_eq!(parse_cidr("0.0.0.0/0").unwrap(), Cidr { addr: 0, len: 0 });
        assert_eq!(parse_cidr("  10.0.0.0/8  ").unwrap().len, 8);
    }

    #[test]
    fn host_bits_are_zeroed() {
        assert_eq!(parse_cidr("10.1.2.3/8").unwrap().addr, 0x0A000000);
        assert_eq!(parse_cidr("255.255.255.255/0").unwrap().addr, 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(parse_cidr("not-an-ip"), Err(ParseError::BadAddress(_))));
        assert!(matches!(parse_cidr("1.2.3.4/33"), Err(ParseError::BadPrefixLength(_))));
        assert!(matches!(parse_cidr("1.2.3.4/x"), Err(ParseError::BadPrefixLength(_))));
        assert!(matches!(parse_cidr("1.2.3/8"), Err(ParseError::BadAddress(_))));
        assert!(matches!(parse_cidr(""), Err(ParseError::BadAddress(_))));
    }

    #[test]
    fn cidr_bounds() {
        let c = parse_cidr("192.0.2.0/24").unwrap();
        assert_eq!(c.first(), 0xC0000200);
        assert_eq!(c.last(), 0xC00002FF);
        assert_eq!(c.size(), 256);
        let all = parse_cidr("0.0.0.0/0").unwrap();
        assert_eq!(all.size(), 1u64 << 32);
        assert_eq!(all.last(), u32::MAX);
    }

    #[test]
    fn file_parsing_with_comments() {
        let contents = "\
# ZMap blocklist excerpt
10.0.0.0/8      # RFC1918

192.168.0.0/16
8.8.8.8         # single host
";
        let rules = parse_target_file_contents(contents).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[2].len, 32);
    }

    #[test]
    fn file_error_carries_line_number() {
        let err = parse_target_file_contents("10.0.0.0/8\nbogus\n").unwrap_err();
        match err {
            ParseError::Line(2, inner) => {
                assert!(matches!(*inner, ParseError::BadAddress(_)))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn default_blocklist_is_sane() {
        let bl = default_blocklist();
        assert_eq!(bl.len(), 15);
        // Spot-check: loopback and multicast are present.
        assert!(bl.iter().any(|c| c.addr == 0x7F000000 && c.len == 8));
        assert!(bl.iter().any(|c| c.addr == 0xE0000000 && c.len == 4));
        // Total blocked space is about 600M addresses.
        let total: u64 = bl.iter().map(|c| c.size()).sum();
        assert!(total > 500_000_000 && total < 800_000_000, "{total}");
    }

    #[test]
    fn display_roundtrip() {
        for s in ["10.0.0.0/8", "8.8.8.8/32", "0.0.0.0/0"] {
            let c = parse_cidr(s).unwrap();
            assert_eq!(parse_cidr(&c.to_string()).unwrap(), c);
        }
    }
}
