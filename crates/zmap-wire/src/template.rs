//! Packet-template probe construction (paper §4.4).
//!
//! ZMap's line-rate packet path builds one immutable frame per scan and,
//! for each probe, copies it and patches only the fields that vary: the
//! destination address, destination port, validation cookie (TCP sequence
//! number / ICMP id+seq / UDP payload tag), source port, and — over IPv4 —
//! the IP ID. The IP and transport checksums are not re-summed; they are
//! updated incrementally per RFC 1624 equation 3 from the patched words
//! alone.
//!
//! A [`ProbeTemplate`] is constructed once from a [`ProbeBuilder`] (the
//! canonical frame is built by the ordinary from-scratch path, so the two
//! paths cannot disagree structurally) and then rendered into a reusable
//! buffer with [`ProbeTemplate::patch`] — zero allocation per probe once
//! the buffer has warmed up. Rendering is byte-identical to calling the
//! builder directly; `tests/template_equivalence.rs` proves it by
//! property testing, for both families.
//!
//! Written once over the [`L3`] seam: the family says where the
//! destination sits, whether there is an IP ID and header checksum to
//! patch (IPv4 only), and whether the ICMP checksum covers the
//! destination (ICMPv6 only — RFC 8200's pseudo-header is in **every**
//! upper-layer checksum).

use crate::cookie::ValidationKey;
use crate::ethernet::HEADER_LEN as ETH_LEN;
use crate::ipv4::IpIdMode;
use crate::l3::{L3, V4, V6};
use crate::probe::ProbeBuilder;
use crate::{checksum, WireError};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Range;

/// Which probe shape the template renders. Offsets are relative to L4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// TCP SYN: patch sport/dport/seq, checksum at +16.
    TcpSyn,
    /// ICMP echo: patch id/seq, checksum at +2.
    IcmpEcho,
    /// UDP: patch sport/dport and the 8-byte tag, checksum at +6.
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
pub struct ProbeTemplate<L: L3> {
    frame: Vec<u8>,
    kind: Kind,
    src_ip: L::Addr,
    key: ValidationKey,
    ip_id: IpIdMode,
    sport_base: u16,
    sport_count: u16,
    ip_csum_base: u32,
    l4_csum_base: u32,
}

fn rd(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

fn wr(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

impl<L: L3> ProbeTemplate<L> {
    /// Frame offsets of the destination address and of L4.
    const DST: Range<usize> = ETH_LEN + L::DST.start..ETH_LEN + L::DST.end;
    const L4: usize = ETH_LEN + L::HEADER_LEN;

    /// `frame` is `b`'s probe to its own address, port 0, entropy 0 — any
    /// destination does: every real one is patched in relative to it.
    fn from_frame(b: &ProbeBuilder<L>, frame: Vec<u8>, kind: Kind) -> Self {
        // Pre-fold the `~old` halves of RFC 1624 equation 3 for every
        // field a render patches; rendering then only adds new values.
        let t = &frame[..];
        let old_dst: u32 = Self::DST.step_by(2).map(|off| u32::from(!rd(t, off))).sum();
        let ip_csum_base = L::ID_AND_CHECKSUM.map_or(0, |(id, csum)| {
            checksum::incr_begin(rd(t, ETH_LEN + csum)) + u32::from(!rd(t, ETH_LEN + id)) + old_dst
        });
        // The pseudo-header covers the destination address too.
        let (csum, fields, pseudo): (usize, &[usize], bool) = match kind {
            Kind::TcpSyn => (16, &[0, 2, 4, 6], true),
            Kind::IcmpEcho => (2, &[4, 6], L::ICMP_PSEUDO),
            Kind::Udp => (6, &[0, 2, 8, 10, 12, 14], true),
        };
        let mut l4_csum_base = checksum::incr_begin(rd(t, Self::L4 + csum));
        for &off in fields {
            l4_csum_base += u32::from(!rd(t, Self::L4 + off));
        }
        if pseudo {
            l4_csum_base += old_dst;
        }
        ProbeTemplate {
            frame,
            kind,
            src_ip: b.src_ip,
            key: b.key,
            ip_id: b.ip_id,
            sport_base: b.sport_base,
            sport_count: b.sport_count,
            ip_csum_base,
            l4_csum_base,
        }
    }

    /// A template for TCP SYN probes with `b`'s option layout.
    pub fn tcp_syn(b: &ProbeBuilder<L>) -> Self {
        Self::from_frame(b, b.tcp_syn(b.src_ip, 0, 0), Kind::TcpSyn)
    }

    /// A template for ICMP / ICMPv6 echo probes.
    pub fn icmp_echo(b: &ProbeBuilder<L>) -> Self {
        Self::from_frame(b, b.icmp_echo(b.src_ip, 0), Kind::IcmpEcho)
    }

    /// A template for UDP probes carrying `payload` after the validation
    /// tag. Fails like [`ProbeBuilder::udp`] for oversized payloads.
    pub fn udp(b: &ProbeBuilder<L>, payload: &[u8]) -> Result<Self, WireError> {
        Ok(Self::from_frame(
            b,
            b.udp(b.src_ip, 0, payload, 0)?,
            Kind::Udp,
        ))
    }

    /// Rendered frame size in bytes (constant per template).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Renders the probe for one target into `out`. After the first call
    /// on a given buffer this allocates nothing. `ip_id_entropy` feeds
    /// the IPv4 ID and is ignored over IPv6 (probes carry no fragment
    /// header). The family-named `render_into` wrappers below are the
    /// entry points with each family's own arity.
    pub fn patch(&self, dst_ip: L::Addr, dst_port: u16, ip_id_entropy: u16, out: &mut Vec<u8>) {
        // The one MAC per probe: every echoed field below derives from it.
        // ICMP has no ports, so its MAC is keyed on the address pair alone.
        let mac_port = if self.kind == Kind::IcmpEcho {
            0
        } else {
            dst_port
        };
        let v = L::probe_values(&self.key, self.src_ip, dst_ip, mac_port);
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
        // The destination feeds the frame bytes and — through the IPv4
        // header checksum and every pseudo-header — the checksums; the
        // `~old` terms are already folded into the bases, so only the
        // new words add.
        let dst_sum = L::write_addr(dst_ip, &mut out[Self::DST]);
        if let Some((id_off, csum_off)) = L::ID_AND_CHECKSUM {
            let id = self.ip_id.resolve(ip_id_entropy, dst_ip, mac_port, v.tcp_seq());
            wr(out, ETH_LEN + id_off, id);
            let acc = self.ip_csum_base + u32::from(id) + dst_sum;
            wr(out, ETH_LEN + csum_off, checksum::incr_finish(acc));
        }

        let l4 = Self::L4;
        match self.kind {
            Kind::TcpSyn => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let seq = v.tcp_seq();
                let acc = self.l4_csum_base
                    + dst_sum
                    + u32::from(sport)
                    + u32::from(dst_port)
                    + (seq >> 16)
                    + (seq & 0xFFFF);
                wr(out, l4, sport);
                wr(out, l4 + 2, dst_port);
                wr(out, l4 + 4, (seq >> 16) as u16);
                wr(out, l4 + 6, seq as u16);
                wr(out, l4 + 16, checksum::incr_finish(acc));
            }
            Kind::IcmpEcho => {
                // Only the echoed id/seq cookie moves — plus, where the
                // checksum covers a pseudo-header, the destination.
                let (id, seq) = v.icmp_id_seq();
                let pseudo = if L::ICMP_PSEUDO { dst_sum } else { 0 };
                let acc = self.l4_csum_base + pseudo + u32::from(id) + u32::from(seq);
                wr(out, l4 + 4, id);
                wr(out, l4 + 6, seq);
                wr(out, l4 + 2, checksum::incr_finish(acc));
            }
            Kind::Udp => {
                let sport = v.source_port(self.sport_base, self.sport_count);
                let tag = v.udp_tag();
                let acc = self.l4_csum_base
                    + dst_sum
                    + u32::from(sport)
                    + u32::from(dst_port)
                    + checksum::sum(0, &tag);
                wr(out, l4, sport);
                wr(out, l4 + 2, dst_port);
                out[l4 + 8..l4 + 16].copy_from_slice(&tag);
                let mut csum = checksum::incr_finish(acc);
                // RFC 768: a computed zero is transmitted as 0xFFFF
                // (matching `UdpRepr::emit`). Over v6 a literal zero
                // would mark the datagram malformed (RFC 8200 §8.1), so
                // this fold is load-bearing there.
                if csum == 0 {
                    csum = 0xFFFF;
                }
                wr(out, l4 + 6, csum);
            }
        }
    }

    /// Convenience wrapper allocating a fresh frame (tests, cold paths).
    pub fn render(&self, dst_ip: L::Addr, dst_port: u16, ip_id_entropy: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame.len());
        self.patch(dst_ip, dst_port, ip_id_entropy, &mut out);
        out
    }
}

impl ProbeTemplate<V4> {
    /// [`patch`](Self::patch) under the IPv4 engine-facing name.
    pub fn render_into(
        &self,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        ip_id_entropy: u16,
        out: &mut Vec<u8>,
    ) {
        self.patch(dst_ip, dst_port, ip_id_entropy, out);
    }
}

impl ProbeTemplate<V6> {
    /// [`patch`](Self::patch) without the IP-ID entropy IPv6 has no use
    /// for.
    pub fn render_into(&self, dst_ip: Ipv6Addr, dst_port: u16, out: &mut Vec<u8>) {
        self.patch(dst_ip, dst_port, 0, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4View;
    use crate::options::OptionLayout;
    use crate::probe::tests::{builder, for_both_families, Sample};
    use crate::{EthernetView, TcpView, UdpView};

    /// (destination, port, entropy): an ordinary target, the canonical
    /// target itself (the scanner), all-ones everywhere, and two more.
    fn cases<L: Sample>() -> [(L::Addr, u16, u16); 5] {
        [
            (L::addr(5), 443, 7),
            (builder::<L>().src_ip, 0, 0),
            (L::ALL_ONES, 65535, 65535),
            (L::addr(4), 80, 54321),
            (L::addr(1), 1, 1),
        ]
    }

    fn tcp_template_matches_builder_for_all_layouts<L: Sample>() {
        for layout in OptionLayout::ALL {
            let mut b = builder::<L>();
            b.layout = layout;
            let tpl = ProbeTemplate::tcp_syn(&b);
            for (ip, port, entropy) in cases::<L>() {
                assert_eq!(
                    tpl.render(ip, port, entropy),
                    b.tcp_syn(ip, port, entropy),
                    "{layout:?} {ip:?} {port} {entropy}"
                );
            }
        }
    }

    fn icmp_template_matches_builder<L: Sample>() {
        let b = builder::<L>();
        let tpl = ProbeTemplate::icmp_echo(&b);
        for (ip, _, entropy) in cases::<L>() {
            assert_eq!(
                tpl.render(ip, 0, entropy),
                b.icmp_echo(ip, entropy),
                "{ip:?}"
            );
        }
    }

    fn udp_template_matches_builder<L: Sample>() {
        let b = builder::<L>();
        for payload in [&b""[..], b"x", b"version-probe\x00"] {
            let tpl = ProbeTemplate::udp(&b, payload).unwrap();
            for (ip, port, entropy) in cases::<L>() {
                assert_eq!(
                    tpl.render(ip, port, entropy),
                    b.udp(ip, port, payload, entropy).unwrap(),
                    "{ip:?}"
                );
            }
        }
        // Oversized payloads fail at layout time, like the builder.
        let big = vec![0u8; 65535 - 8 - 8 + 1];
        assert_eq!(
            ProbeTemplate::udp(&b, &big).unwrap_err(),
            WireError::BadLength
        );
        assert!(ProbeTemplate::udp(&b, &vec![0u8; 1000]).is_ok());
    }

    fn render_into_reuses_buffer_without_stale_bytes<L: Sample>() {
        let b = builder::<L>();
        let tpl = ProbeTemplate::tcp_syn(&b);
        let mut buf = Vec::new();
        tpl.patch(L::addr(9), 443, 3, &mut buf);
        let first = buf.clone();
        // Render a different target, then the first again: identical.
        tpl.patch(L::addr(10), 80, 9, &mut buf);
        tpl.patch(L::addr(9), 443, 3, &mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.len(), tpl.frame_len());
    }

    /// The L4 bytes of a rendered probe to `dst` and their pseudo-header
    /// seed (parsing checks the IPv4 header checksum on the way).
    fn l4_of<L: L3>(frame: &[u8], dst: L::Addr) -> (&[u8], u32) {
        let ip = L::parse_packet(&frame[ETH_LEN..], dst).unwrap().unwrap();
        (ip.payload, ip.pseudo_sum(dst))
    }

    fn rendered_checksums_verify_from_scratch<L: Sample>() {
        // Belt and braces: the patched frame must satisfy a full
        // independent checksum verification, not just match the builder.
        let b = builder::<L>();
        for (ip, port, entropy) in cases::<L>() {
            let frame = ProbeTemplate::tcp_syn(&b).render(ip, port, entropy);
            let (l4, pseudo) = l4_of::<L>(&frame, ip);
            let tcp = TcpView::parse(l4).unwrap();
            assert!(tcp.verify_checksum(pseudo), "{ip:?}");
            assert_eq!(tcp.dst_port(), port);

            let frame = ProbeTemplate::icmp_echo(&b).render(ip, 0, entropy);
            let (l4, pseudo) = l4_of::<L>(&frame, ip);
            let seed = if L::ICMP_PSEUDO { pseudo } else { 0 };
            assert!(checksum::verify(l4, seed), "{ip:?}");

            let frame = ProbeTemplate::udp(&b, b"pp")
                .unwrap()
                .render(ip, port, entropy);
            let (l4, pseudo) = l4_of::<L>(&frame, ip);
            assert!(
                UdpView::parse(l4).unwrap().verify_checksum(pseudo, false),
                "{ip:?}"
            );
        }
    }

    for_both_families!(
        tcp_template_matches_builder_for_all_layouts,
        icmp_template_matches_builder,
        udp_template_matches_builder,
        render_into_reuses_buffer_without_stale_bytes,
        rendered_checksums_verify_from_scratch,
    );

    #[test]
    fn every_ip_id_mode_renders_correctly() {
        let modes = [
            IpIdMode::Static,
            IpIdMode::Fixed(77),
            IpIdMode::Random,
            IpIdMode::DestinationDerived,
        ];
        for mode in modes {
            let mut b = builder::<V4>();
            b.ip_id = mode;
            let tpl = ProbeTemplate::tcp_syn(&b);
            let frame = tpl.render(Ipv4Addr::new(8, 8, 8, 8), 53, 1234);
            let eth = EthernetView::parse(&frame).unwrap();
            let ipv = Ipv4View::parse(eth.payload()).unwrap();
            let seq = crate::tcp::TcpView::parse(ipv.payload()).unwrap().seq();
            assert_eq!(ipv.id(), mode.resolve(1234, ipv.dst(), 53, seq), "{mode:?}");
            assert!(ipv.verify_checksum(), "{mode:?}");
        }
    }
}
