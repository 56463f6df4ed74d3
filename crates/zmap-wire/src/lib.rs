#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Wire-format packet construction and parsing for Internet-wide scanning.
//!
//! This crate is the packet layer of the ZMap reproduction: everything
//! needed to build minimal, protocol-compliant probe frames at line rate
//! and to parse the responses, including the modern behaviors from §4.3 of
//! *Ten Years of ZMap*:
//!
//! * [`options`] — TCP option layout templates (no options, MSS-only,
//!   single options, optimal byte-packed, and exact Linux/BSD/Windows
//!   orderings) whose hit-rate effects Figure 7 measures,
//! * [`ipv4::IpIdMode`] — ZMap's classic static IP ID of 54321 vs. the
//!   2024 default of random per-probe IDs,
//! * [`cookie`] — stateless response validation (SipHash-2-4 cookies in
//!   the TCP sequence number / ICMP id / UDP payload), one MAC per probe,
//! * [`probe`] — frame assembly and response classification, and
//!   [`template`] — packet-template construction (§4.4): one immutable
//!   frame per scan, per-probe fields patched with RFC 1624 incremental
//!   checksum updates ([`checksum::incr_update`]). Both are written once
//!   over the [`l3`] seam — the [`L3`] trait's [`V4`] and [`V6`] hold what
//!   differs between the families — and monomorphised; the header
//!   modules ([`ipv4`] / [`ipv6`], [`icmp`] / [`icmpv6`]) encode different
//!   wire formats and stay separate,
//! * [`timing`] — Ethernet line-rate math (the 1.488/1.389/1.276 Mpps
//!   figures are pure functions of frame size).
//!
//! Layering follows the smoltcp convention: zero-copy *view* types
//! (`TcpView<'a>`) wrap received bytes for parsing, and *repr* structs
//! (`TcpRepr`) describe packets to be emitted.

pub mod checksum;
pub mod cookie;
pub mod ethernet;
pub mod icmp;
pub mod icmpv6;
pub mod ipv4;
pub mod ipv6;
pub mod l3;
pub mod options;
pub mod probe;
pub mod tcp;
pub mod template;
pub mod timing;
pub mod udp;

pub use cookie::{ProbeValues, ValidationKey};
pub use ethernet::{EtherType, EthernetRepr, EthernetView, MacAddr};
pub use icmp::{IcmpRepr, IcmpType, IcmpView};
pub use icmpv6::{Icmpv6Repr, Icmpv6Type, Icmpv6View};
pub use ipv4::{IpIdMode, IpProtocol, Ipv4Repr, Ipv4View};
pub use ipv6::{Ipv6Repr, Ipv6View};
pub use l3::{L3, V4, V6};
pub use options::{OptionLayout, TcpOption};
pub use probe::ResponseKind;
pub use tcp::{TcpFlags, TcpRepr, TcpView};
pub use udp::{UdpRepr, UdpView};

// The two monomorphisations under the names callers use. Aliases, not a
// defaulted type parameter, so `ProbeBuilder::new(..)` needs no inference;
// family-generic code names `probe::ProbeBuilder<L>` and friends.
pub type ProbeBuilder = probe::ProbeBuilder<V4>;
pub type ProbeBuilderV6 = probe::ProbeBuilder<V6>;
pub type ProbeTemplate = template::ProbeTemplate<V4>;
pub type ProbeTemplateV6 = template::ProbeTemplate<V6>;
pub type Response = probe::Response<V4>;
pub type Response6 = probe::Response<V6>;

/// Error type for all packet parsing in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A length/offset field points outside the buffer.
    BadLength,
    /// A version or type field has an unsupported value.
    BadField,
    /// The checksum does not verify.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadLength => write!(f, "length field inconsistent with buffer"),
            WireError::BadField => write!(f, "unsupported field value"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}
