//! Property tests: template rendering with RFC 1624 incremental checksum
//! patching must be byte-identical to from-scratch frame construction for
//! arbitrary (destination IP, destination port, IP-ID entropy) mutations,
//! across probe kinds, option layouts, and IP-ID modes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;
use zmap_wire::probe::ProbeBuilder;
use zmap_wire::template::ProbeTemplate;

fn builder(seed: u64) -> ProbeBuilder {
    ProbeBuilder::new(Ipv4Addr::new(192, 0, 2, 9), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tcp_template_equals_build_probe(
        seed in 0u64..1_000_000,
        dst in any::<u32>(),
        port in any::<u16>(),
        entropy in any::<u16>(),
        layout_idx in 0usize..OptionLayout::ALL.len(),
    ) {
        let mut b = builder(seed);
        b.layout = OptionLayout::ALL[layout_idx];
        let tpl = ProbeTemplate::tcp_syn(&b);
        let ip = Ipv4Addr::from(dst);
        prop_assert_eq!(tpl.render(ip, port, entropy), b.tcp_syn(ip, port, entropy));
    }

    #[test]
    fn icmp_template_equals_build_probe(
        seed in 0u64..1_000_000,
        dst in any::<u32>(),
        entropy in any::<u16>(),
    ) {
        let b = builder(seed);
        let tpl = ProbeTemplate::icmp_echo(&b);
        let ip = Ipv4Addr::from(dst);
        prop_assert_eq!(tpl.render(ip, 0, entropy), b.icmp_echo(ip, entropy));
    }

    #[test]
    fn udp_template_equals_build_probe(
        seed in 0u64..1_000_000,
        dst in any::<u32>(),
        port in any::<u16>(),
        entropy in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let b = builder(seed);
        let tpl = ProbeTemplate::udp(&b, &payload).unwrap();
        let ip = Ipv4Addr::from(dst);
        prop_assert_eq!(
            tpl.render(ip, port, entropy),
            b.udp(ip, port, &payload, entropy).unwrap()
        );
    }

    #[test]
    fn ip_id_modes_stay_equivalent(
        dst in any::<u32>(),
        entropy in any::<u16>(),
        fixed in any::<u16>(),
    ) {
        for mode in [IpIdMode::Static, IpIdMode::Fixed(fixed), IpIdMode::Random] {
            let mut b = builder(1);
            b.ip_id = mode;
            let tpl = ProbeTemplate::tcp_syn(&b);
            let ip = Ipv4Addr::from(dst);
            prop_assert_eq!(tpl.render(ip, 443, entropy), b.tcp_syn(ip, 443, entropy));
        }
    }
}
