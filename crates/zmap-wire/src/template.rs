//! Packet-template probe construction (paper §4.4).
//!
//! ZMap's line-rate packet path builds one immutable frame per scan and,
//! for each probe, copies it and patches only the fields that vary: the
//! destination address, destination port, validation cookie (TCP sequence
//! number / ICMP id+seq / UDP payload tag), source port, and IP ID. The
//! IP and transport checksums are not re-summed; they are updated
//! incrementally per RFC 1624 equation 3 from the patched words alone.
//!
//! A [`ProbeTemplate`] is constructed once from a [`ProbeBuilder`] (the
//! canonical frame is built by the ordinary from-scratch path, so the two
//! paths cannot disagree structurally) and then rendered into a reusable
//! buffer with [`ProbeTemplate::render_into`] — zero allocation per probe
//! once the buffer has warmed up. Rendering is byte-identical to calling
//! the builder directly; `tests/template_equivalence.rs` proves it by
//! property testing.

use crate::checksum;
use crate::cookie::ValidationKey;
use crate::ipv4::IpIdMode;
use crate::probe::ProbeBuilder;
use crate::WireError;
use std::net::Ipv4Addr;

// Fixed offsets within a probe frame: Ethernet (14) + IPv4 without
// options (20) + L4. Templates only ever carry option-free IPv4 headers.
const ETH_LEN: usize = 14;
const IP_ID: usize = 14 + 4;
const IP_CSUM: usize = 14 + 10;
const IP_DST: usize = 14 + 16;
const L4: usize = 14 + 20;

/// Which probe shape the template renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// TCP SYN: patch sport/dport/seq, checksum at L4+16.
    TcpSyn,
    /// ICMP echo: patch id/seq, checksum at L4+2 (no pseudo-header).
    IcmpEcho,
    /// UDP: patch sport/dport and the 8-byte tag, checksum at L4+6.
    Udp,
}

/// A precomputed probe frame plus the per-scan material needed to patch
/// the per-probe fields. Immutable once built; rendering borrows it
/// shared, so one template serves any number of sender threads.
///
/// The RFC 1624 accumulators are pre-folded at construction: every
/// `~old` term of the fields a render patches is summed into
/// `ip_csum_base`/`l4_csum_base` once, so the per-probe work is only
/// adding the new field values and folding carries.
#[derive(Debug, Clone)]
pub struct ProbeTemplate {
    frame: Vec<u8>,
    kind: Kind,
    src_ip: u32,
    key: ValidationKey,
    ip_id: IpIdMode,
    sport_base: u16,
    sport_count: u16,
    ip_csum_base: u32,
    l4_csum_base: u32,
}

/// The canonical destination the template frame is rendered against;
/// every real destination is patched in relative to this.
const CANON_DST: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

fn rd(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

fn wr(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

impl ProbeTemplate {
    fn from_frame(b: &ProbeBuilder, frame: Vec<u8>, kind: Kind) -> Self {
        // Pre-fold the `~old` halves of RFC 1624 equation 3 for every
        // field a render patches; rendering then only adds new values.
        let t = &frame[..];
        let mut ip_csum_base = checksum::incr_begin(rd(t, IP_CSUM));
        for off in [IP_ID, IP_DST, IP_DST + 2] {
            ip_csum_base += u32::from(!rd(t, off));
        }
        let (l4_csum_off, l4_fields): (usize, &[usize]) = match kind {
            Kind::TcpSyn => (L4 + 16, &[IP_DST, IP_DST + 2, L4, L4 + 2, L4 + 4, L4 + 6]),
            Kind::IcmpEcho => (L4 + 2, &[L4 + 4, L4 + 6]),
            Kind::Udp => (
                L4 + 6,
                &[IP_DST, IP_DST + 2, L4, L4 + 2, L4 + 8, L4 + 10, L4 + 12, L4 + 14],
            ),
        };
        let mut l4_csum_base = checksum::incr_begin(rd(t, l4_csum_off));
        for &off in l4_fields {
            l4_csum_base += u32::from(!rd(t, off));
        }
        ProbeTemplate {
            frame,
            kind,
            src_ip: u32::from(b.src_ip),
            key: b.key,
            ip_id: b.ip_id,
            sport_base: b.sport_base,
            sport_count: b.sport_count,
            ip_csum_base,
            l4_csum_base,
        }
    }

    /// A template for TCP SYN probes with `b`'s option layout.
    pub fn tcp_syn(b: &ProbeBuilder) -> Self {
        Self::from_frame(b, b.tcp_syn(CANON_DST, 0, 0), Kind::TcpSyn)
    }

    /// A template for ICMP echo probes.
    pub fn icmp_echo(b: &ProbeBuilder) -> Self {
        Self::from_frame(b, b.icmp_echo(CANON_DST, 0), Kind::IcmpEcho)
    }

    /// A template for UDP probes carrying `payload` after the validation
    /// tag. Fails like [`ProbeBuilder::udp`] for oversized payloads.
    pub fn udp(b: &ProbeBuilder, payload: &[u8]) -> Result<Self, WireError> {
        Ok(Self::from_frame(b, b.udp(CANON_DST, 0, payload, 0)?, Kind::Udp))
    }

    /// Rendered frame size in bytes (constant per template).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// The MAC input port for this template's probe shape: ICMP has no
    /// ports, so its MAC is keyed on the address pair alone.
    fn mac_port(&self, dst_port: u16) -> u16 {
        match self.kind {
            Kind::IcmpEcho => 0,
            Kind::TcpSyn | Kind::Udp => dst_port,
        }
    }

    /// Renders the probe for one target into `out`. After the first call
    /// on a given buffer this allocates nothing.
    pub fn render_into(
        &self,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        ip_id_entropy: u16,
        out: &mut Vec<u8>,
    ) {
        // The one MAC per probe: every echoed field below derives from it.
        let v = self.key.probe(self.src_ip, u32::from(dst_ip), self.mac_port(dst_port));
        // A buffer of exactly this frame's length is a previous render of
        // this template (the batch TX pool recycles them): every byte that
        // varies per target is overwritten below with absolute values, so
        // the copy is skipped entirely — ZMap's patch-in-place fast path.
        // Buffers of any other length (including empty) get the full frame
        // first. Callers mixing templates of equal frame length into one
        // buffer must clear it between templates.
        if out.len() != self.frame.len() {
            out.clear();
            out.extend_from_slice(&self.frame);
        }
        debug_assert_eq!(
            &out[..ETH_LEN],
            &self.frame[..ETH_LEN],
            "reused render buffer holds a different template's frame"
        );
        let out = &mut out[..];
        let dst = u32::from(dst_ip);
        let (dst_hi, dst_lo) = ((dst >> 16) as u16, dst as u16);

        // IPv4 header: ID and destination change; the `~old` terms are
        // already folded into `ip_csum_base`, so only the new values add.
        let new_id = self.ip_id.resolve(ip_id_entropy);
        let ip_acc =
            self.ip_csum_base + u32::from(new_id) + u32::from(dst_hi) + u32::from(dst_lo);
        wr(out, IP_ID, new_id);
        wr(out, IP_DST, dst_hi);
        wr(out, IP_DST + 2, dst_lo);
        wr(out, IP_CSUM, checksum::incr_finish(ip_acc));

        match self.kind {
            Kind::TcpSyn => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let seq = v.tcp_seq();
                // The pseudo-header covers the destination address too.
                let acc = self.l4_csum_base
                    + u32::from(dst_hi)
                    + u32::from(dst_lo)
                    + u32::from(sport)
                    + u32::from(dst_port)
                    + (seq >> 16)
                    + (seq & 0xFFFF);
                wr(out, L4, sport);
                wr(out, L4 + 2, dst_port);
                wr(out, L4 + 4, (seq >> 16) as u16);
                wr(out, L4 + 6, seq as u16);
                wr(out, L4 + 16, checksum::incr_finish(acc));
            }
            Kind::IcmpEcho => {
                // No pseudo-header: only the echoed id/seq cookie moves.
                let (id, seq) = v.icmp_id_seq();
                let acc = self.l4_csum_base + u32::from(id) + u32::from(seq);
                wr(out, L4 + 4, id);
                wr(out, L4 + 6, seq);
                wr(out, L4 + 2, checksum::incr_finish(acc));
            }
            Kind::Udp => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let tag = v.udp_tag();
                let mut acc = self.l4_csum_base
                    + u32::from(dst_hi)
                    + u32::from(dst_lo)
                    + u32::from(sport)
                    + u32::from(dst_port);
                wr(out, L4, sport);
                wr(out, L4 + 2, dst_port);
                for i in 0..4 {
                    let word = u16::from_be_bytes([tag[2 * i], tag[2 * i + 1]]);
                    acc += u32::from(word);
                    wr(out, L4 + 8 + 2 * i, word);
                }
                let mut csum = checksum::incr_finish(acc);
                // RFC 768: a computed zero is transmitted as 0xFFFF
                // (matching `UdpRepr::emit`).
                if csum == 0 {
                    csum = 0xFFFF;
                }
                wr(out, L4 + 6, csum);
            }
        }
    }

    /// Convenience wrapper allocating a fresh frame (tests, cold paths).
    pub fn render(&self, dst_ip: Ipv4Addr, dst_port: u16, ip_id_entropy: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame.len());
        self.render_into(dst_ip, dst_port, ip_id_entropy, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4View;
    use crate::options::OptionLayout;
    use crate::EthernetView;

    fn builder() -> ProbeBuilder {
        ProbeBuilder::new(Ipv4Addr::new(192, 0, 2, 9), 0xABCD)
    }

    fn cases() -> Vec<(Ipv4Addr, u16, u16)> {
        vec![
            (Ipv4Addr::new(203, 0, 113, 5), 443, 7),
            (Ipv4Addr::new(0, 0, 0, 0), 0, 0), // the canonical target itself
            (Ipv4Addr::new(255, 255, 255, 255), 65535, 65535),
            (Ipv4Addr::new(1, 2, 3, 4), 80, 54321),
            (Ipv4Addr::new(10, 0, 0, 1), 1, 1),
        ]
    }

    #[test]
    fn tcp_template_matches_builder_for_all_layouts() {
        for layout in OptionLayout::ALL {
            let mut b = builder();
            b.layout = layout;
            let tpl = ProbeTemplate::tcp_syn(&b);
            for (ip, port, entropy) in cases() {
                assert_eq!(
                    tpl.render(ip, port, entropy),
                    b.tcp_syn(ip, port, entropy),
                    "{layout:?} {ip} {port} {entropy}"
                );
            }
        }
    }

    #[test]
    fn icmp_template_matches_builder() {
        let b = builder();
        let tpl = ProbeTemplate::icmp_echo(&b);
        for (ip, _, entropy) in cases() {
            assert_eq!(tpl.render(ip, 0, entropy), b.icmp_echo(ip, entropy));
        }
    }

    #[test]
    fn udp_template_matches_builder() {
        let b = builder();
        for payload in [&b""[..], b"x", b"version-probe\x00"] {
            let tpl = ProbeTemplate::udp(&b, payload).unwrap();
            for (ip, port, entropy) in cases() {
                assert_eq!(
                    tpl.render(ip, port, entropy),
                    b.udp(ip, port, payload, entropy).unwrap()
                );
            }
        }
    }

    #[test]
    fn udp_template_rejects_oversized_payload() {
        let b = builder();
        let big = vec![0u8; crate::probe::MAX_UDP_PAYLOAD + 1];
        assert_eq!(ProbeTemplate::udp(&b, &big).unwrap_err(), WireError::BadLength);
        assert!(ProbeTemplate::udp(&b, &vec![0u8; 1000]).is_ok());
    }

    #[test]
    fn render_into_reuses_buffer_without_stale_bytes() {
        let b = builder();
        let tpl = ProbeTemplate::tcp_syn(&b);
        let mut buf = Vec::new();
        tpl.render_into(Ipv4Addr::new(9, 9, 9, 9), 443, 3, &mut buf);
        let first = buf.clone();
        // Render a different target, then the first again: identical.
        tpl.render_into(Ipv4Addr::new(10, 10, 10, 10), 80, 9, &mut buf);
        tpl.render_into(Ipv4Addr::new(9, 9, 9, 9), 443, 3, &mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.len(), tpl.frame_len());
    }

    #[test]
    fn rendered_checksums_verify_from_scratch() {
        // Belt and braces: the patched frame must satisfy a full
        // independent checksum verification, not just match the builder.
        let b = builder();
        let tpl = ProbeTemplate::tcp_syn(&b);
        for (ip, port, entropy) in cases() {
            let frame = tpl.render(ip, port, entropy);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv4View::parse(eth.payload()).unwrap();
            assert!(ipv.verify_checksum(), "{ip}");
            let tcp = crate::TcpView::parse(ipv.payload()).unwrap();
            assert!(tcp.verify_checksum(ipv.pseudo_sum()), "{ip}");
            assert_eq!(ipv.dst(), ip);
            assert_eq!(tcp.dst_port(), port);
        }
    }

    #[test]
    fn static_and_fixed_ip_id_modes_render_correctly() {
        for mode in [IpIdMode::Static, IpIdMode::Fixed(77), IpIdMode::Random] {
            let mut b = builder();
            b.ip_id = mode;
            let tpl = ProbeTemplate::tcp_syn(&b);
            let frame = tpl.render(Ipv4Addr::new(8, 8, 8, 8), 53, 1234);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv4View::parse(eth.payload()).unwrap();
            assert_eq!(ipv.id(), mode.resolve(1234), "{mode:?}");
            assert!(ipv.verify_checksum(), "{mode:?}");
        }
    }
}
