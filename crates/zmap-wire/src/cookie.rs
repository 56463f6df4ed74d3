//! Stateless response validation.
//!
//! ZMap keeps no per-probe state: instead it encodes a keyed MAC of the
//! probe's addressing into fields the target must echo back (the TCP
//! sequence number, the ICMP echo id/seq, a UDP payload tag). A response
//! is accepted only if the echoed value matches a recomputation — so
//! spoofed or stray packets can't pollute results. The MAC here is our
//! own SipHash-2-4 (validated against the reference vectors), keyed with
//! fresh per-scan material.
//!
//! The TX hot path invokes the MAC **once** per probe: a single SipHash
//! over `(src_ip, dst_ip, dst_port)` yields a [`ProbeValues`] from which
//! every varying field derives (source port from the high half, sequence
//! cookie from the low half). The receive path recomputes the same MAC
//! and checks both derived fields, so validation strength is unchanged
//! while per-probe hashing cost is halved versus independent MACs.

/// SipHash-2-4 over `data` with a 128-bit key `(k0, k1)`.
///
/// Implemented from the Aumasson–Bernstein specification; see the test
/// module for reference-vector checks.
pub fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v = init(k0, k1);

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]);
        block(&mut v, m);
    }

    // Final block: remaining bytes + length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    block(&mut v, u64::from_le_bytes(last));

    finalize(v)
}

/// SipHash-2-4 of a message that packs into exactly two blocks (8–15
/// bytes): `m0` is the first 8 message bytes little-endian, `m1` the
/// padded final block including the length byte on top. Produces the
/// same output as [`siphash24`] over the equivalent byte string, without
/// the slice traffic — this is the per-probe hot path.
#[inline]
pub fn siphash24_2w(k0: u64, k1: u64, m0: u64, m1: u64) -> u64 {
    let mut v = init(k0, k1);
    block(&mut v, m0);
    block(&mut v, m1);
    finalize(v)
}

/// SipHash-2-4 of a message already packed into `N` blocks: the whole
/// 8-byte words little-endian, then the padded final block with the
/// length byte on top. Produces the same output as [`siphash24`] over the
/// equivalent byte string, without the slice loop. IPv6's 34-byte probe
/// message (`src ‖ dst ‖ dst_port`) is five blocks — the per-probe hot
/// path for v6 — and netsim's 24-byte v6 host draws are four.
#[inline]
pub fn siphash24_words<const N: usize>(k0: u64, k1: u64, m: [u64; N]) -> u64 {
    let mut v = init(k0, k1);
    for w in m {
        block(&mut v, w);
    }
    finalize(v)
}

#[inline(always)]
fn init(k0: u64, k1: u64) -> [u64; 4] {
    [
        0x736f6d6570736575u64 ^ k0,
        0x646f72616e646f6du64 ^ k1,
        0x6c7967656e657261u64 ^ k0,
        0x7465646279746573u64 ^ k1,
    ]
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

#[inline(always)]
fn block(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

#[inline(always)]
fn finalize(mut v: [u64; 4]) -> u64 {
    v[2] ^= 0xFF;
    sipround(&mut v);
    sipround(&mut v);
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Packs one probe's addressing into the two SipHash message blocks:
/// the 10-byte message `src_ip ‖ dst_ip ‖ dst_port` in network order.
#[inline(always)]
fn probe_msg(src_ip: u32, dst_ip: u32, dst_port: u16) -> (u64, u64) {
    (
        u64::from(src_ip.swap_bytes()) | (u64::from(dst_ip.swap_bytes()) << 32),
        u64::from(dst_port.swap_bytes()) | (10u64 << 56),
    )
}

/// Packs one IPv6 probe's addressing into the five SipHash message
/// blocks: the 34-byte message `src ‖ dst ‖ dst_port` in network order,
/// little-endian-read into blocks with the length byte (34) padded on top
/// of the final block — exactly what [`siphash24`] would compute over the
/// equivalent byte string.
#[inline(always)]
fn probe_msg_v6(src: &[u8; 16], dst: &[u8; 16], dst_port: u16) -> [u64; 5] {
    let le = |b: &[u8]| {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    };
    [
        le(&src[0..8]),
        le(&src[8..16]),
        le(&dst[0..8]),
        le(&dst[8..16]),
        u64::from(dst_port.swap_bytes()) | (34u64 << 56),
    ]
}

/// Per-scan validation key material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationKey {
    k0: u64,
    k1: u64,
}

/// The MAC-derived material for one probe: every per-probe field the
/// target must echo comes out of this single 64-bit value, so TX renders
/// and RX validates with one hash invocation each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeValues {
    mac: u64,
}

impl ProbeValues {
    /// The 32-bit cookie placed in a TCP SYN's sequence number.
    #[inline]
    pub fn tcp_seq(self) -> u32 {
        self.mac as u32
    }

    /// The scanner source port, drawn from `[base, base+count)` by the
    /// MAC's high half. A widening multiply maps onto the range without
    /// a 64-bit division (the hot path runs this per probe).
    #[inline]
    pub fn source_port(self, base: u16, count: u16) -> u16 {
        debug_assert!(count > 0);
        base.wrapping_add((((self.mac >> 32) * u64::from(count)) >> 32) as u16)
    }

    /// An 8-byte payload tag for UDP probes.
    #[inline]
    pub fn udp_tag(self) -> [u8; 8] {
        self.mac.to_be_bytes()
    }

    /// The (id, seq) pair for an ICMP echo probe.
    #[inline]
    pub fn icmp_id_seq(self) -> (u16, u16) {
        (self.mac as u16, (self.mac >> 16) as u16)
    }
}

impl ValidationKey {
    /// Derives key material from a scan seed. (Real deployments should use
    /// OS entropy; experiments want determinism, so the caller chooses.)
    pub fn from_seed(seed: u64) -> Self {
        // Two rounds of SplitMix64 to decorrelate the halves.
        fn splitmix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
            x ^ (x >> 31)
        }
        let k0 = splitmix(seed);
        let k1 = splitmix(k0);
        ValidationKey { k0, k1 }
    }

    /// The single per-probe MAC: SipHash-2-4 over the 10-byte message
    /// `src_ip ‖ dst_ip ‖ dst_port` (network order), packed directly into
    /// the two SipHash blocks. ICMP probes pass `dst_port == 0`.
    #[inline]
    pub fn probe(&self, src_ip: u32, dst_ip: u32, dst_port: u16) -> ProbeValues {
        let (m0, m1) = probe_msg(src_ip, dst_ip, dst_port);
        ProbeValues {
            mac: siphash24_2w(self.k0, self.k1, m0, m1),
        }
    }

    /// The single per-probe MAC for an IPv6 target: SipHash-2-4 over the
    /// 34-byte message `src ‖ dst ‖ dst_port` (network order), packed
    /// directly into five SipHash blocks. The derived [`ProbeValues`]
    /// fields are family-agnostic, so TCP/ICMPv6/UDP cookies come out of
    /// the same methods as the v4 path. ICMPv6 probes pass `dst_port == 0`.
    #[inline]
    pub fn probe_v6(&self, src: &[u8; 16], dst: &[u8; 16], dst_port: u16) -> ProbeValues {
        ProbeValues {
            mac: siphash24_words(self.k0, self.k1, probe_msg_v6(src, dst, dst_port)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First reference outputs from the SipHash-2-4 specification
    /// (key 00 01 02 … 0f, message 00 01 02 … of increasing length).
    const VECTORS: [u64; 8] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
    ];

    #[test]
    fn siphash_reference_vectors() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0..8u8).collect();
        for (len, want) in VECTORS.iter().enumerate() {
            assert_eq!(
                siphash24(k0, k1, &msg[..len]),
                *want,
                "vector length {len}"
            );
        }
    }

    #[test]
    fn siphash_longer_inputs_cross_block_boundary() {
        let msg: Vec<u8> = (0..=63u8).collect();
        // Distinct prefixes must hash distinctly (sanity, not a vector).
        let a = siphash24(1, 2, &msg[..15]);
        let b = siphash24(1, 2, &msg[..16]);
        let c = siphash24(1, 2, &msg[..17]);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn two_word_fast_path_matches_generic() {
        // The specialized two-block form must agree with the byte-slice
        // implementation for every message length it claims to cover.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 8..=15usize {
            for _ in 0..50 {
                let mut msg = [0u8; 15];
                for b in msg.iter_mut() {
                    *b = next() as u8;
                }
                let msg = &msg[..len];
                let m0 = u64::from_le_bytes(msg[..8].try_into().unwrap());
                let mut last = [0u8; 8];
                last[..len - 8].copy_from_slice(&msg[8..]);
                last[7] = len as u8;
                let m1 = u64::from_le_bytes(last);
                assert_eq!(
                    siphash24_2w(1, 2, m0, m1),
                    siphash24(1, 2, msg),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn probe_mac_matches_generic_siphash_over_packed_message() {
        // `probe` must be a plain SipHash of the documented 10-byte
        // message — the packing shortcuts cannot change the MAC.
        let key = ValidationKey::from_seed(42);
        for (src, dst, port) in [
            (0u32, 0u32, 0u16),
            (0xC0000209, 0x0A000001, 80),
            (u32::MAX, u32::MAX, u16::MAX),
            (1, 2, 3),
        ] {
            let mut msg = [0u8; 10];
            msg[0..4].copy_from_slice(&src.to_be_bytes());
            msg[4..8].copy_from_slice(&dst.to_be_bytes());
            msg[8..10].copy_from_slice(&port.to_be_bytes());
            assert_eq!(
                key.probe(src, dst, port).mac,
                siphash24(key.k0, key.k1, &msg),
                "{src:#x} {dst:#x} {port}"
            );
        }
    }

    #[test]
    fn key_changes_everything() {
        assert_ne!(siphash24(0, 0, b"zmap"), siphash24(0, 1, b"zmap"));
        assert_ne!(siphash24(0, 0, b"zmap"), siphash24(1, 0, b"zmap"));
    }

    #[test]
    fn cookies_are_exact_to_tuple_and_key() {
        let key = ValidationKey::from_seed(7);
        let v = key.probe(1, 2, 80);
        assert_eq!(key.probe(1, 2, 80), v);
        for other in [
            key.probe(1, 3, 80),                        // wrong ip
            key.probe(1, 2, 81),                        // wrong port
            key.probe(1, 2, 0),                         // the echo probe's keying
            ValidationKey::from_seed(8).probe(1, 2, 80), // wrong key
        ] {
            assert_ne!(other.tcp_seq(), v.tcp_seq());
            assert_ne!(other.icmp_id_seq(), v.icmp_id_seq());
            assert_ne!(other.udp_tag(), v.udp_tag());
        }
    }

    #[test]
    fn source_port_is_deterministic_and_in_range() {
        let key = ValidationKey::from_seed(3);
        for dst in [0u32, 1, 0xFFFF_FFFF, 0x08080808] {
            let p = key.probe(9, dst, 443).source_port(32768, 28233);
            assert!(p >= 32768, "{p}");
            assert!(u32::from(p) < 32768 + 28233, "{p}");
            assert_eq!(p, key.probe(9, dst, 443).source_port(32768, 28233));
        }
    }

    #[test]
    fn source_ports_spread_across_range() {
        let key = ValidationKey::from_seed(3);
        let distinct: std::collections::HashSet<u16> = (0..1000u32)
            .map(|i| key.probe(9, i, 80).source_port(40000, 1000))
            .collect();
        assert!(distinct.len() > 500, "only {} distinct ports", distinct.len());
    }

    #[test]
    fn five_word_fast_path_matches_generic() {
        // The five-block form must agree with the byte-slice SipHash for
        // the message lengths it claims to cover (32–39 bytes).
        let mut x = 0x5151_5151_DEAD_BEEFu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 32..=39usize {
            for _ in 0..20 {
                let mut msg = [0u8; 39];
                for b in msg.iter_mut() {
                    *b = next() as u8;
                }
                let msg = &msg[..len];
                let mut m = [0u64; 5];
                for (i, w) in m.iter_mut().enumerate().take(4) {
                    *w = u64::from_le_bytes(msg[8 * i..8 * i + 8].try_into().unwrap());
                }
                let mut last = [0u8; 8];
                last[..len - 32].copy_from_slice(&msg[32..]);
                last[7] = len as u8;
                m[4] = u64::from_le_bytes(last);
                assert_eq!(siphash24_words(1, 2, m), siphash24(1, 2, msg), "len {len}");
            }
        }
    }

    #[test]
    fn v6_probe_mac_matches_generic_siphash_over_packed_message() {
        // `probe_v6` must be a plain SipHash of the documented 34-byte
        // message — the five-block packing cannot change the MAC.
        let key = ValidationKey::from_seed(42);
        let src: [u8; 16] = [0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        for (dst, port) in [
            ([0u8; 16], 0u16),
            ([0xFF; 16], u16::MAX),
            ([0x20, 1, 0xd, 0xb8, 0, 0xA, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9], 443),
        ] {
            let mut msg = [0u8; 34];
            msg[0..16].copy_from_slice(&src);
            msg[16..32].copy_from_slice(&dst);
            msg[32..34].copy_from_slice(&port.to_be_bytes());
            assert_eq!(
                key.probe_v6(&src, &dst, port).mac,
                siphash24(key.k0, key.k1, &msg),
                "port {port}"
            );
        }
    }

    #[test]
    fn v6_icmp_cookie_roundtrip() {
        // The ICMPv6 echo id/seq derive from the v6 MAC exactly like the
        // v4 ones do from the v4 MAC, and bind the full address pair.
        let key = ValidationKey::from_seed(9);
        let src: [u8; 16] = [0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let mut dst = src;
        dst[15] = 9;
        let (id, seq) = key.probe_v6(&src, &dst, 0).icmp_id_seq();
        assert_eq!(key.probe_v6(&src, &dst, 0).icmp_id_seq(), (id, seq));
        let mut other = dst;
        other[7] ^= 1;
        assert_ne!(key.probe_v6(&src, &other, 0).icmp_id_seq(), (id, seq));
        assert_ne!(
            ValidationKey::from_seed(10).probe_v6(&src, &dst, 0).icmp_id_seq(),
            (id, seq)
        );
    }

    #[test]
    fn seed_derivation_is_stable_and_distinct() {
        assert_eq!(ValidationKey::from_seed(1), ValidationKey::from_seed(1));
        assert_ne!(ValidationKey::from_seed(1), ValidationKey::from_seed(2));
    }
}
