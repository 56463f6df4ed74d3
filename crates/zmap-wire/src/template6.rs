//! Packet-template probe construction for IPv6 — the same RFC 1624
//! incremental-patch design as [`crate::template`], adapted to the v6
//! header layout: there is no IP checksum and no ID field to patch, but
//! the RFC 8200 pseudo-header puts all eight 16-bit words of the
//! destination address into **every** upper-layer checksum — including
//! ICMPv6's, which its v4 counterpart leaves address-free. The canonical
//! frame is built by the from-scratch [`crate::probe6::ProbeBuilderV6`]
//! path, so the two paths cannot disagree structurally.

use crate::checksum;
use crate::probe6::ProbeBuilderV6;
use crate::{ValidationKey, WireError};
use std::net::Ipv6Addr;

// Fixed offsets within a v6 probe frame: Ethernet (14) + IPv6 (40) + L4.
const ETH_LEN: usize = 14;
const IP_DST: usize = 14 + 24;
const L4: usize = 14 + 40;

/// Which probe shape the template renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// TCP SYN: patch sport/dport/seq, checksum at L4+16.
    TcpSyn,
    /// ICMPv6 echo: patch id/seq, checksum at L4+2 (pseudo-header
    /// included, so the destination words count here too).
    IcmpEcho,
    /// UDP: patch sport/dport and the 8-byte tag, checksum at L4+6.
    Udp,
}

/// A precomputed IPv6 probe frame plus the per-scan material needed to
/// patch the per-probe fields. As in the v4 template, the `~old` halves
/// of RFC 1624 equation 3 are pre-folded at construction, so rendering
/// only adds the new field values and folds carries.
#[derive(Debug, Clone)]
pub struct ProbeTemplateV6 {
    frame: Vec<u8>,
    kind: Kind,
    src_ip: [u8; 16],
    key: ValidationKey,
    sport_base: u16,
    sport_count: u16,
    l4_csum_base: u32,
}

/// The canonical destination the template frame is rendered against.
const CANON_DST: Ipv6Addr = Ipv6Addr::UNSPECIFIED;

fn rd(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

fn wr(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

impl ProbeTemplateV6 {
    fn from_frame(b: &ProbeBuilderV6, frame: Vec<u8>, kind: Kind) -> Self {
        let t = &frame[..];
        let (l4_csum_off, l4_fields): (usize, &[usize]) = match kind {
            Kind::TcpSyn => (L4 + 16, &[L4, L4 + 2, L4 + 4, L4 + 6]),
            Kind::IcmpEcho => (L4 + 2, &[L4 + 4, L4 + 6]),
            Kind::Udp => (L4 + 6, &[L4, L4 + 2, L4 + 8, L4 + 10, L4 + 12, L4 + 14]),
        };
        let mut l4_csum_base = checksum::incr_begin(rd(t, l4_csum_off));
        for &off in l4_fields {
            l4_csum_base += u32::from(!rd(t, off));
        }
        // All three kinds carry the destination in their pseudo-header.
        for i in 0..8 {
            l4_csum_base += u32::from(!rd(t, IP_DST + 2 * i));
        }
        ProbeTemplateV6 {
            frame,
            kind,
            src_ip: b.src_ip.octets(),
            key: b.key,
            sport_base: b.sport_base,
            sport_count: b.sport_count,
            l4_csum_base,
        }
    }

    /// A template for TCP SYN probes with `b`'s option layout.
    pub fn tcp_syn(b: &ProbeBuilderV6) -> Self {
        Self::from_frame(b, b.tcp_syn(CANON_DST, 0), Kind::TcpSyn)
    }

    /// A template for ICMPv6 echo probes.
    pub fn icmp_echo(b: &ProbeBuilderV6) -> Self {
        Self::from_frame(b, b.icmp_echo(CANON_DST), Kind::IcmpEcho)
    }

    /// A template for UDP probes carrying `payload` after the validation
    /// tag. Fails like [`ProbeBuilderV6::udp`] for oversized payloads.
    pub fn udp(b: &ProbeBuilderV6, payload: &[u8]) -> Result<Self, WireError> {
        Ok(Self::from_frame(b, b.udp(CANON_DST, 0, payload)?, Kind::Udp))
    }

    /// Rendered frame size in bytes (constant per template).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// The MAC input port for this template's probe shape: ICMPv6 has no
    /// ports, so its MAC is keyed on the address pair alone.
    fn mac_port(&self, dst_port: u16) -> u16 {
        match self.kind {
            Kind::IcmpEcho => 0,
            Kind::TcpSyn | Kind::Udp => dst_port,
        }
    }

    /// Renders the probe for one target into `out`. After the first call
    /// on a given buffer this allocates nothing.
    pub fn render_into(&self, dst_ip: Ipv6Addr, dst_port: u16, out: &mut Vec<u8>) {
        // The one MAC per probe: every echoed field below derives from it.
        let v = self
            .key
            .probe_v6(&self.src_ip, &dst_ip.octets(), self.mac_port(dst_port));
        // Same buffer-recycling contract as the v4 template: a buffer of
        // exactly this frame's length is a previous render of this
        // template, and every per-target byte is overwritten below.
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
        let dst = dst_ip.octets();
        // The destination feeds the frame bytes and, via the RFC 8200
        // pseudo-header, every upper-layer checksum.
        let mut acc = self.l4_csum_base;
        for i in 0..8 {
            let w = u16::from_be_bytes([dst[2 * i], dst[2 * i + 1]]);
            acc += u32::from(w);
            wr(out, IP_DST + 2 * i, w);
        }

        match self.kind {
            Kind::TcpSyn => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let seq = v.tcp_seq();
                acc += u32::from(sport)
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
                let (id, seq) = v.icmp_id_seq();
                acc += u32::from(id) + u32::from(seq);
                wr(out, L4 + 4, id);
                wr(out, L4 + 6, seq);
                wr(out, L4 + 2, checksum::incr_finish(acc));
            }
            Kind::Udp => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let tag = v.udp_tag();
                acc += u32::from(sport) + u32::from(dst_port);
                wr(out, L4, sport);
                wr(out, L4 + 2, dst_port);
                for i in 0..4 {
                    let word = u16::from_be_bytes([tag[2 * i], tag[2 * i + 1]]);
                    acc += u32::from(word);
                    wr(out, L4 + 8 + 2 * i, word);
                }
                let mut csum = checksum::incr_finish(acc);
                // A computed zero is transmitted as 0xFFFF — over v6 a
                // literal zero would mark the datagram malformed
                // (RFC 8200 §8.1), so this fold is load-bearing here.
                if csum == 0 {
                    csum = 0xFFFF;
                }
                wr(out, L4 + 6, csum);
            }
        }
    }

    /// Convenience wrapper allocating a fresh frame (tests, cold paths).
    pub fn render(&self, dst_ip: Ipv6Addr, dst_port: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame.len());
        self.render_into(dst_ip, dst_port, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv6::Ipv6View;
    use crate::options::OptionLayout;
    use crate::EthernetView;

    fn builder() -> ProbeBuilderV6 {
        ProbeBuilderV6::new("2001:db8::9".parse().unwrap(), 0xABCD)
    }

    fn cases() -> Vec<(Ipv6Addr, u16)> {
        vec![
            ("2001:db8:a::77".parse().unwrap(), 443),
            (Ipv6Addr::UNSPECIFIED, 0), // the canonical target itself
            ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(), 65535),
            ("2001:db8::0202:b3ff:fe1e:8329".parse().unwrap(), 80),
            ("64:ff9b::c000:221".parse().unwrap(), 1),
        ]
    }

    #[test]
    fn tcp_template_matches_builder_for_all_layouts() {
        for layout in OptionLayout::ALL {
            let mut b = builder();
            b.layout = layout;
            let tpl = ProbeTemplateV6::tcp_syn(&b);
            for (ip, port) in cases() {
                assert_eq!(tpl.render(ip, port), b.tcp_syn(ip, port), "{layout:?} {ip} {port}");
            }
        }
    }

    #[test]
    fn icmp_template_matches_builder() {
        let b = builder();
        let tpl = ProbeTemplateV6::icmp_echo(&b);
        for (ip, _) in cases() {
            assert_eq!(tpl.render(ip, 0), b.icmp_echo(ip), "{ip}");
        }
    }

    #[test]
    fn udp_template_matches_builder() {
        let b = builder();
        for payload in [&b""[..], b"x", b"version-probe\x00"] {
            let tpl = ProbeTemplateV6::udp(&b, payload).unwrap();
            for (ip, port) in cases() {
                assert_eq!(tpl.render(ip, port), b.udp(ip, port, payload).unwrap(), "{ip}");
            }
        }
    }

    #[test]
    fn render_into_reuses_buffer_without_stale_bytes() {
        let b = builder();
        let tpl = ProbeTemplateV6::tcp_syn(&b);
        let a: Ipv6Addr = "2001:db8::1111".parse().unwrap();
        let c: Ipv6Addr = "2001:db8::2222".parse().unwrap();
        let mut buf = Vec::new();
        tpl.render_into(a, 443, &mut buf);
        let first = buf.clone();
        tpl.render_into(c, 80, &mut buf);
        tpl.render_into(a, 443, &mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.len(), tpl.frame_len());
    }

    #[test]
    fn rendered_checksums_verify_from_scratch() {
        // The incremental patch must equal a from-scratch checksum over
        // the patched frame — the v6 pseudo-header equivalence pin.
        let b = builder();
        for (ip, port) in cases() {
            let frame = ProbeTemplateV6::tcp_syn(&b).render(ip, port);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv6View::parse(eth.payload()).unwrap();
            let tcp = crate::TcpView::parse(ipv.payload()).unwrap();
            assert!(tcp.verify_checksum(ipv.pseudo_sum()), "{ip}");
            assert_eq!(ipv.dst(), ip);
            assert_eq!(tcp.dst_port(), port);

            let frame = ProbeTemplateV6::icmp_echo(&b).render(ip, 0);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv6View::parse(eth.payload()).unwrap();
            let icmp = crate::icmpv6::Icmpv6View::parse(ipv.payload()).unwrap();
            assert!(icmp.verify_checksum(ipv.pseudo_sum()), "{ip}");

            let frame = ProbeTemplateV6::udp(&b, b"pp").unwrap().render(ip, port);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv6View::parse(eth.payload()).unwrap();
            let udp = crate::UdpView::parse(ipv.payload()).unwrap();
            assert!(udp.verify_checksum_v6(ipv.pseudo_sum()), "{ip}");
        }
    }
}
