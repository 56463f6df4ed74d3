//! Property tests: template rendering with RFC 1624 incremental checksum
//! patching must be byte-identical to from-scratch frame construction for
//! arbitrary (destination, destination port, IP-ID entropy) mutations,
//! across probe kinds, option layouts, IP-ID modes — and both families:
//! one generic body, 512 cases for `V4` and 512 for `V6`.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;
use zmap_wire::probe::ProbeBuilder;
use zmap_wire::template::ProbeTemplate;
use zmap_wire::{L3, V4, V6};

/// A family whose scanner and destination addresses the test can draw
/// from 128 random bits (IPv4 keeps the low 32).
trait Family: L3 {
    const SCANNER: Self::Addr;
    fn dst(bits: u128) -> Self::Addr;
}

impl Family for V4 {
    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);
    fn dst(bits: u128) -> Ipv4Addr {
        Ipv4Addr::from(bits as u32)
    }
}

impl Family for V6 {
    const SCANNER: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 9);
    fn dst(bits: u128) -> Ipv6Addr {
        Ipv6Addr::from(bits)
    }
}

/// One scan's configuration and one target, family-neutral.
#[derive(Debug)]
struct Case {
    seed: u64,
    layout: OptionLayout,
    ip_id: IpIdMode,
    dst: u128,
    port: u16,
    entropy: u16,
    payload: Vec<u8>,
}

/// All three probe kinds of `c`, template against builder.
fn assert_template_equals_builder<L: Family>(c: &Case) {
    let mut b = ProbeBuilder::<L>::new(L::SCANNER, c.seed);
    b.layout = c.layout;
    b.ip_id = c.ip_id;
    let (ip, port, entropy) = (L::dst(c.dst), c.port, c.entropy);
    let tcp = ProbeTemplate::tcp_syn(&b).render(ip, port, entropy);
    assert_eq!(tcp, b.tcp_syn(ip, port, entropy), "{c:?}");
    let echo = ProbeTemplate::icmp_echo(&b).render(ip, 0, entropy);
    assert_eq!(echo, b.icmp_echo(ip, entropy), "{c:?}");
    let udp = ProbeTemplate::udp(&b, &c.payload)
        .unwrap()
        .render(ip, port, entropy);
    assert_eq!(udp, b.udp(ip, port, &c.payload, entropy).unwrap(), "{c:?}");
}

/// The 512-case property for one family.
macro_rules! template_equals_build_probe {
    ($name:ident, $family:ty) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn $name(
                seed in 0u64..1_000_000,
                // 128 destination bits from two draws (the vendored
                // proptest has no `any::<u128>()`).
                hi in any::<u64>(),
                lo in any::<u64>(),
                port in any::<u16>(),
                entropy in any::<u16>(),
                layout_idx in 0usize..OptionLayout::ALL.len(),
                ip_id_idx in 0usize..4,
                fixed in any::<u16>(),
                payload in prop::collection::vec(any::<u8>(), 0..64),
            ) {
                assert_template_equals_builder::<$family>(&Case {
                    seed,
                    layout: OptionLayout::ALL[layout_idx],
                    ip_id: [
                        IpIdMode::Static,
                        IpIdMode::Fixed(fixed),
                        IpIdMode::Random,
                        IpIdMode::DestinationDerived,
                    ][ip_id_idx],
                    dst: u128::from(hi) << 64 | u128::from(lo),
                    port,
                    entropy,
                    payload,
                });
            }
        }
    };
}

template_equals_build_probe!(v4_template_equals_build_probe, V4);
template_equals_build_probe!(v6_template_equals_build_probe, V6);
