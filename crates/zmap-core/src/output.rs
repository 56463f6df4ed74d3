//! Data output — stream #1: one record per validated response.
//!
//! Per §5's lessons: text-stream formats only (Text, CSV, JSON Lines; the
//! database output modules were removed from ZMap as liabilities), a
//! static schema with fixed field types, and per-record streaming output.
//!
//! The receive path hands each accepted record to a [`RowSink`]. An
//! [`OutputModule`] is one — it encodes the row into a reused buffer with
//! no heap allocation and passes the buffer to its writer every 64 KiB,
//! so rows reach the file while the scan runs and none are held — and so
//! is a plain `Vec<ScanResult>`, for callers that want the records
//! themselves.

use serde::Serialize;
use std::io::{self, Write};
use std::net::IpAddr;

/// Classification of a validated response (ZMap's `classification` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// TCP SYN-ACK (port open).
    SynAck,
    /// TCP RST (port closed, host alive).
    Rst,
    /// ICMP echo reply.
    EchoReply,
    /// ICMP destination unreachable.
    Unreach,
    /// UDP payload response.
    UdpData,
    /// Anything else that validated.
    Other,
}

impl Serialize for Classification {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.label())
    }
}

impl Classification {
    /// Label matching ZMap's output vocabulary.
    pub fn label(&self) -> &'static str {
        match self {
            Classification::SynAck => "synack",
            Classification::Rst => "rst",
            Classification::EchoReply => "echoreply",
            Classification::Unreach => "unreach",
            Classification::UdpData => "udp",
            Classification::Other => "other",
        }
    }
}

/// One output record. Field names and types are the stable public schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScanResult {
    /// Receive timestamp, nanoseconds since scan start.
    pub ts_ns: u64,
    /// Responding (probed) address, either family.
    pub saddr: IpAddr,
    /// Probed port (0 for ICMP echo).
    pub sport: u16,
    /// Response classification.
    pub classification: Classification,
    /// Observed TTL.
    pub ttl: u8,
    /// True if this response indicates an open/answering service.
    pub success: bool,
}

/// The static output schema (§5 "Static Types and Output Schema"):
/// `(name, type)` pairs, in column order.
pub const SCHEMA: [(&str, &str); 6] = [
    ("ts_ns", "u64"),
    ("saddr", "ip"),
    ("sport", "u16"),
    ("classification", "string"),
    ("ttl", "u8"),
    ("success", "bool"),
];

/// Supported output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Bare `ip` or `ip:port` lines (ZMap's default "text" module).
    Text,
    /// CSV with a header row.
    Csv,
    /// JSON Lines, one object per record.
    JsonLines,
}

/// Bytes of encoded rows the module holds before handing them to its
/// writer: about 1 500 CSV rows per `write(2)` on a plain `File`.
const FLUSH_AT: usize = 64 * 1024;
/// Room kept past [`FLUSH_AT`] so the row that crosses it (a v6 JSON
/// line is under 200 bytes; the CSV header adds 45) never regrows the
/// buffer.
const ROW_MAX: usize = 512;

/// Where the receive path puts each record the moment it is accepted:
/// the one row exit of the engine.
pub trait RowSink {
    /// Takes one record, in arrival order.
    fn row(&mut self, r: &ScanResult);
}

/// Collects the records — what [`ScanSummary::results`] holds.
///
/// [`ScanSummary::results`]: crate::ScanSummary::results
impl RowSink for Vec<ScanResult> {
    fn row(&mut self, r: &ScanResult) {
        self.push(*r);
    }
}

/// A streaming output module writing records to `W`.
///
/// Rows are encoded into one reused buffer and reach the writer in
/// [`FLUSH_AT`]-sized pieces, so `W` needs no `BufWriter` of its own.
/// [`finish`](Self::finish) must be called: dropping the module discards
/// the rows still buffered.
pub struct OutputModule<W: Write> {
    format: OutputFormat,
    out: W,
    buf: Vec<u8>,
    records: u64,
    wrote_header: bool,
    /// First write error met on the [`RowSink`] path, kept for `finish`.
    failed: Option<io::Error>,
}

impl<W: Write> OutputModule<W> {
    /// Creates a module; CSV writes its header lazily on first record.
    pub fn new(format: OutputFormat, out: W) -> Self {
        OutputModule {
            format,
            out,
            buf: Vec::with_capacity(FLUSH_AT + ROW_MAX),
            records: 0,
            wrote_header: false,
            failed: None,
        }
    }

    /// Writes one record. The record path must not allocate: every
    /// field is encoded straight into the reused buffer.
    pub fn record(&mut self, r: &ScanResult) -> io::Result<()> {
        let buf = &mut self.buf;
        match self.format {
            OutputFormat::Text => {
                push_ip(buf, r.saddr)?;
                if r.sport != 0 {
                    buf.push(b':');
                    push_u64(buf, u64::from(r.sport));
                }
            }
            OutputFormat::Csv => {
                if !self.wrote_header {
                    for (i, &(name, _)) in SCHEMA.iter().enumerate() {
                        if i > 0 {
                            buf.push(b',');
                        }
                        buf.extend_from_slice(name.as_bytes());
                    }
                    buf.push(b'\n');
                    self.wrote_header = true;
                }
                push_u64(buf, r.ts_ns);
                buf.push(b',');
                push_ip(buf, r.saddr)?;
                buf.push(b',');
                push_u64(buf, u64::from(r.sport));
                buf.push(b',');
                buf.extend_from_slice(r.classification.label().as_bytes());
                buf.push(b',');
                push_u64(buf, u64::from(r.ttl));
                buf.push(b',');
                push_bool(buf, r.success);
            }
            OutputFormat::JsonLines => {
                // Field order is SCHEMA's; no value needs escaping
                // (digits, address text, a fixed label, a bool).
                buf.extend_from_slice(b"{\"ts_ns\":");
                push_u64(buf, r.ts_ns);
                buf.extend_from_slice(b",\"saddr\":\"");
                push_ip(buf, r.saddr)?;
                buf.extend_from_slice(b"\",\"sport\":");
                push_u64(buf, u64::from(r.sport));
                buf.extend_from_slice(b",\"classification\":\"");
                buf.extend_from_slice(r.classification.label().as_bytes());
                buf.extend_from_slice(b"\",\"ttl\":");
                push_u64(buf, u64::from(r.ttl));
                buf.extend_from_slice(b",\"success\":");
                push_bool(buf, r.success);
                buf.push(b'}');
            }
        }
        buf.push(b'\n');
        self.records += 1;
        if self.buf.len() >= FLUSH_AT {
            self.write_out()?;
        }
        Ok(())
    }

    /// Hands the buffered rows to the writer. The buffer is emptied even
    /// when the write fails, so a failed piece is never written twice.
    fn write_out(&mut self) -> io::Result<()> {
        let written = self.out.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Records written.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes out what is still buffered, flushes and returns the
    /// writer — or the first error a [`RowSink::row`] call met.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.write_out()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streams the records out as they arrive. `row` cannot return an error,
/// so the first one is remembered — nothing more is written after it —
/// and [`OutputModule::finish`] returns it.
impl<W: Write> RowSink for OutputModule<W> {
    fn row(&mut self, r: &ScanResult) {
        if self.failed.is_none() {
            self.failed = self.record(r).err();
        }
    }
}

/// Appends `n` in decimal.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

fn push_bool(buf: &mut Vec<u8>, b: bool) {
    buf.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends the address as `Display` prints it. The v6 text form
/// (longest zero run compressed, embedded-v4 tails) stays std's.
fn push_ip(buf: &mut Vec<u8>, ip: IpAddr) -> io::Result<()> {
    match ip {
        IpAddr::V4(v4) => {
            for (i, octet) in v4.octets().into_iter().enumerate() {
                if i > 0 {
                    buf.push(b'.');
                }
                push_u64(buf, u64::from(octet));
            }
            Ok(())
        }
        IpAddr::V6(v6) => write!(buf, "{v6}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScanResult {
        ScanResult {
            ts_ns: 123_456_789,
            saddr: std::net::Ipv4Addr::new(203, 0, 113, 9).into(),
            sport: 443,
            classification: Classification::SynAck,
            ttl: 57,
            success: true,
        }
    }

    #[test]
    fn v6_records_render_in_every_format() {
        let mut r = sample();
        r.saddr = "2001:db8:a::51".parse::<std::net::Ipv6Addr>().unwrap().into();
        let mut m = OutputModule::new(OutputFormat::Text, Vec::new());
        m.record(&r).unwrap();
        let out = String::from_utf8(m.finish().unwrap()).unwrap();
        assert_eq!(out, "2001:db8:a::51:443\n");
        let mut m = OutputModule::new(OutputFormat::JsonLines, Vec::new());
        m.record(&r).unwrap();
        let out = String::from_utf8(m.finish().unwrap()).unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["saddr"], "2001:db8:a::51");
    }

    #[test]
    fn text_format() {
        let mut m = OutputModule::new(OutputFormat::Text, Vec::new());
        m.record(&sample()).unwrap();
        let mut icmp = sample();
        icmp.sport = 0;
        icmp.classification = Classification::EchoReply;
        m.record(&icmp).unwrap();
        let out = String::from_utf8(m.finish().unwrap()).unwrap();
        assert_eq!(out, "203.0.113.9:443\n203.0.113.9\n");
    }

    #[test]
    fn csv_format_with_header() {
        let mut m = OutputModule::new(OutputFormat::Csv, Vec::new());
        m.record(&sample()).unwrap();
        m.record(&sample()).unwrap();
        let out = String::from_utf8(m.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 records");
        assert_eq!(lines[0], "ts_ns,saddr,sport,classification,ttl,success");
        assert_eq!(lines[1], "123456789,203.0.113.9,443,synack,57,true");
    }

    #[test]
    fn jsonl_format_is_parseable_with_stable_fields() {
        let mut m = OutputModule::new(OutputFormat::JsonLines, Vec::new());
        m.record(&sample()).unwrap();
        let out = String::from_utf8(m.finish().unwrap()).unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["saddr"], "203.0.113.9");
        assert_eq!(v["sport"], 443);
        assert_eq!(v["classification"], "synack");
        assert_eq!(v["success"], true);
        // Every schema field is present.
        for (name, _) in SCHEMA {
            assert!(v.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn record_count() {
        let mut m = OutputModule::new(OutputFormat::Text, Vec::new());
        for _ in 0..5 {
            m.record(&sample()).unwrap();
        }
        assert_eq!(m.records(), 5);
    }

    #[test]
    fn classification_labels() {
        assert_eq!(Classification::SynAck.label(), "synack");
        assert_eq!(Classification::Rst.label(), "rst");
        assert_eq!(Classification::EchoReply.label(), "echoreply");
    }

    const FORMATS: [OutputFormat; 3] =
        [OutputFormat::Text, OutputFormat::Csv, OutputFormat::JsonLines];

    /// One row as this module rendered it before the hand-rolled encoder
    /// (`writeln!` per format, `serde_json` for JSON Lines): the bytes the
    /// encoder must reproduce. The CSV header is not part of a row.
    fn reference_render(format: OutputFormat, r: &ScanResult) -> Vec<u8> {
        let mut out = Vec::new();
        match format {
            OutputFormat::Text if r.sport == 0 => writeln!(out, "{}", r.saddr),
            OutputFormat::Text => writeln!(out, "{}:{}", r.saddr, r.sport),
            OutputFormat::Csv => writeln!(
                out,
                "{},{},{},{},{},{}",
                r.ts_ns,
                r.saddr,
                r.sport,
                r.classification.label(),
                r.ttl,
                r.success
            ),
            OutputFormat::JsonLines => writeln!(out, "{}", serde_json::to_string(r).unwrap()),
        }
        .unwrap();
        out
    }

    const CSV_HEADER: &[u8] = b"ts_ns,saddr,sport,classification,ttl,success\n";

    #[test]
    fn a_scan_without_rows_writes_an_empty_file() {
        for format in FORMATS {
            let out = OutputModule::new(format, Vec::new()).finish().unwrap();
            assert!(out.is_empty(), "{format:?}: {out:?}");
        }
    }

    use proptest::prelude::*;

    /// Rows over the schema's edges: both families with every shape of
    /// v6 text (`::`, `::1`, embedded v4, no zero group to compress,
    /// arbitrary zero runs), the ends of each integer field, every
    /// classification.
    fn arb_row() -> impl Strategy<Value = ScanResult> {
        (
            (0u8..4, any::<u64>()),
            (0u8..7, any::<u64>(), any::<u64>(), any::<u8>()),
            (0u8..4, any::<u16>()),
            0usize..6,
            any::<u8>(),
            any::<bool>(),
        )
            .prop_map(|(ts, addr, port, class, ttl, success)| {
                let ((ts_edge, ts), (port_edge, port)) = (ts, port);
                let (shape, hi, lo, zeroed) = addr;
                let bits = (u128::from(hi) << 64) | u128::from(lo);
                let saddr: IpAddr = match shape {
                    0 => std::net::Ipv4Addr::from(lo as u32).into(),
                    1 => std::net::Ipv6Addr::UNSPECIFIED.into(),
                    2 => std::net::Ipv6Addr::LOCALHOST.into(),
                    3 => std::net::Ipv6Addr::from(0xffff_0000_0000 | u128::from(lo as u32)).into(),
                    4 => std::net::Ipv6Addr::from(u128::from(lo as u32)).into(),
                    // Every group nonzero and four hex digits wide.
                    5 => std::net::Ipv6Addr::from(bits | 0x1000_1000_1000_1000_1000_1000_1000_1000)
                        .into(),
                    // Groups knocked out by the mask: zero runs anywhere.
                    _ => {
                        let mut groups = std::net::Ipv6Addr::from(bits).segments();
                        for (i, g) in groups.iter_mut().enumerate() {
                            if zeroed & (1 << i) != 0 {
                                *g = 0;
                            }
                        }
                        std::net::Ipv6Addr::from(groups).into()
                    }
                };
                ScanResult {
                    ts_ns: [0, u64::MAX, ts, ts >> 40][usize::from(ts_edge)],
                    saddr,
                    sport: [0, u16::MAX, port, port >> 8][usize::from(port_edge)],
                    classification: [
                        Classification::SynAck,
                        Classification::Rst,
                        Classification::EchoReply,
                        Classification::Unreach,
                        Classification::UdpData,
                        Classification::Other,
                    ][class],
                    ttl,
                    success,
                }
            })
    }

    proptest! {
        #[test]
        fn encoder_is_byte_equal_to_the_reference(
            rows in prop::collection::vec(arb_row(), 1..40),
        ) {
            for format in FORMATS {
                let mut m = OutputModule::new(format, Vec::new());
                let mut expected = Vec::new();
                if format == OutputFormat::Csv {
                    expected.extend_from_slice(CSV_HEADER);
                }
                for r in &rows {
                    m.record(r).unwrap();
                    expected.extend(reference_render(format, r));
                }
                prop_assert_eq!(m.records(), rows.len() as u64);
                let out = m.finish().unwrap();
                prop_assert_eq!(
                    String::from_utf8_lossy(&out),
                    String::from_utf8_lossy(&expected),
                    "{:?}", format
                );
            }
        }
    }

    /// A writer that keeps what it is handed, counts the hand-offs and
    /// refuses the `fail_on`-th (0: none).
    #[derive(Default)]
    struct Tap {
        bytes: Vec<u8>,
        calls: usize,
        fail_on: usize,
    }

    impl Write for Tap {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn rows_cross_the_buffer_boundary_intact() {
        // Enough rows for several hand-offs to the writer: the pieces
        // concatenate to exactly the reference bytes.
        let mut m = OutputModule::new(OutputFormat::Csv, Tap::default());
        let mut expected = CSV_HEADER.to_vec();
        let mut r = sample();
        for i in 0..5_000u64 {
            r.ts_ns = i * 1_000_003;
            m.record(&r).unwrap();
            expected.extend(reference_render(OutputFormat::Csv, &r));
        }
        let tap = m.finish().unwrap();
        assert_eq!(tap.bytes, expected);
        assert_eq!(tap.calls, expected.len().div_ceil(FLUSH_AT), "one write per 64 KiB");
    }

    #[test]
    fn sink_remembers_the_first_write_error_and_stops_writing() {
        let mut tap = Tap { fail_on: 2, ..Tap::default() };
        let mut m = OutputModule::new(OutputFormat::JsonLines, &mut tap);
        // ~95 bytes a row: 5 000 rows is seven buffers' worth.
        for _ in 0..5_000 {
            RowSink::row(&mut m, &sample());
        }
        let err = m.finish().err().expect("the second hand-off failed");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(tap.calls, 2, "nothing is written after the failure");
        assert!(tap.bytes.len() >= FLUSH_AT, "the first hand-off landed");
    }
}
