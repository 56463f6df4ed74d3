//! Property test: every header `emit` writes the bytes the push-by-push
//! version it replaced wrote, appended after arbitrary earlier bytes.
//! Both sides of `template_equivalence.rs` call `emit`, so a bug in it
//! would pass there; here the other side is a copy of the earlier code.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use zmap_wire::checksum;
use zmap_wire::ethernet::{EtherType, EthernetRepr, MacAddr};
use zmap_wire::icmp::{IcmpRepr, IcmpType, UnreachCode};
use zmap_wire::ipv4::{IpProtocol, Ipv4Repr};
use zmap_wire::ipv6::Ipv6Repr;
use zmap_wire::options::OptionLayout;
use zmap_wire::tcp::{TcpFlags, TcpRepr};
use zmap_wire::udp::UdpRepr;
use zmap_wire::WireError;

fn ethernet_by_push(r: &EthernetRepr, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&r.dst.0);
    buf.extend_from_slice(&r.src.0);
    buf.extend_from_slice(&u16::from(r.ethertype).to_be_bytes());
}

fn ipv4_by_push(r: &Ipv4Repr, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let total_len = 20u16.checked_add(r.payload_len).ok_or(WireError::BadLength)?;
    let start = buf.len();
    buf.push(0x45);
    buf.push(0);
    buf.extend_from_slice(&total_len.to_be_bytes());
    buf.extend_from_slice(&r.id.to_be_bytes());
    buf.extend_from_slice(&[0x40, 0x00]);
    buf.push(r.ttl);
    buf.push(r.protocol.into());
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&r.src.octets());
    buf.extend_from_slice(&r.dst.octets());
    let csum = checksum::checksum(&buf[start..start + 20]);
    buf[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
    Ok(())
}

fn ipv6_by_push(r: &Ipv6Repr, buf: &mut Vec<u8>) {
    buf.push(0x60);
    buf.extend_from_slice(&[0, 0, 0]);
    buf.extend_from_slice(&r.payload_len.to_be_bytes());
    buf.push(r.next_header.into());
    buf.push(r.hop_limit);
    buf.extend_from_slice(&r.src.octets());
    buf.extend_from_slice(&r.dst.octets());
}

fn tcp_by_push(r: &TcpRepr<'_>, pseudo: u32, payload: &[u8], buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&r.src_port.to_be_bytes());
    buf.extend_from_slice(&r.dst_port.to_be_bytes());
    buf.extend_from_slice(&r.seq.to_be_bytes());
    buf.extend_from_slice(&r.ack.to_be_bytes());
    buf.push(((r.header_len() / 4) as u8) << 4);
    buf.push(r.flags.0);
    buf.extend_from_slice(&r.window.to_be_bytes());
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(r.options);
    buf.extend_from_slice(payload);
    let csum = checksum::finish(checksum::sum(pseudo, &buf[start..]));
    buf[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
}

fn udp_by_push(r: &UdpRepr, pseudo: u32, payload: &[u8], buf: &mut Vec<u8>) {
    let start = buf.len();
    let len = (8 + payload.len()) as u16;
    buf.extend_from_slice(&r.src_port.to_be_bytes());
    buf.extend_from_slice(&r.dst_port.to_be_bytes());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(payload);
    let mut csum = checksum::finish(checksum::sum(pseudo, &buf[start..]));
    if csum == 0 {
        csum = 0xFFFF;
    }
    buf[start + 6..start + 8].copy_from_slice(&csum.to_be_bytes());
}

fn icmp_by_push(r: &IcmpRepr, payload: &[u8], buf: &mut Vec<u8>) {
    let start = buf.len();
    let (t, c) = match r.icmp_type {
        IcmpType::EchoReply => (0, 0),
        IcmpType::DestUnreachable(c) => (3, c.into()),
        IcmpType::EchoRequest => (8, 0),
        IcmpType::TimeExceeded => (11, 0),
        IcmpType::Other(t, c) => (t, c),
    };
    buf.push(t);
    buf.push(c);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&r.id.to_be_bytes());
    buf.extend_from_slice(&r.seq.to_be_bytes());
    buf.extend_from_slice(payload);
    let csum = checksum::checksum(&buf[start..]);
    buf[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_emit_writes_what_push_by_push_wrote(
        prefix in prop::collection::vec(any::<u8>(), 0..24),
        addrs in (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        words in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        bytes in (any::<u8>(), any::<u8>(), any::<u8>(), 0usize..OptionLayout::ALL.len()),
        // A real pseudo-header sum is at most six 16-bit words.
        pseudo in 0u32..0x0006_0000,
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (src, dst, hi, lo) = addrs;
        let (id, len, seq, ack, sport, dport) = words;
        let (ttl, proto, flags, layout) = bytes;
        let fresh = || (prefix.clone(), prefix.clone());

        let (mut a, mut b) = fresh();
        let eth = EthernetRepr {
            dst: MacAddr::local(hi as u32),
            src: MacAddr(lo.to_be_bytes()[..6].try_into().unwrap()),
            ethertype: EtherType::from(id),
        };
        eth.emit(&mut a);
        ethernet_by_push(&eth, &mut b);
        prop_assert_eq!(&a, &b, "{:?}", eth);

        // Every payload length, the ones that overflow the total length
        // (and so write nothing) included.
        let (mut a, mut b) = fresh();
        let v4 = Ipv4Repr {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            protocol: IpProtocol::from(proto),
            id,
            ttl,
            payload_len: len,
        };
        prop_assert_eq!(v4.emit(&mut a), ipv4_by_push(&v4, &mut b));
        prop_assert_eq!(&a, &b, "{:?}", v4);

        let (mut a, mut b) = fresh();
        let v6 = Ipv6Repr {
            src: Ipv6Addr::from(u128::from(hi) << 64 | u128::from(lo)),
            dst: Ipv6Addr::from(u128::from(lo) << 64 | u128::from(src)),
            next_header: IpProtocol::from(proto),
            hop_limit: ttl,
            payload_len: len,
        };
        v6.emit(&mut a);
        ipv6_by_push(&v6, &mut b);
        prop_assert_eq!(&a, &b, "{:?}", v6);

        let (mut a, mut b) = fresh();
        let tcp = TcpRepr {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags(flags),
            window: id,
            options: OptionLayout::ALL[layout].bytes(),
        };
        tcp.emit(pseudo, &payload, &mut a);
        tcp_by_push(&tcp, pseudo, &payload, &mut b);
        prop_assert_eq!(&a, &b, "{:?}", tcp);

        let (mut a, mut b) = fresh();
        let udp = UdpRepr { src_port: sport, dst_port: dport };
        udp.emit(pseudo, &payload, &mut a);
        udp_by_push(&udp, pseudo, &payload, &mut b);
        prop_assert_eq!(&a, &b, "{:?}", udp);

        let (mut a, mut b) = fresh();
        let icmp_type = [
            IcmpType::EchoReply,
            IcmpType::EchoRequest,
            IcmpType::DestUnreachable(UnreachCode::from(proto)),
            IcmpType::TimeExceeded,
            IcmpType::Other(ttl, proto),
        ][layout % 5];
        let icmp = IcmpRepr { icmp_type, id: sport, seq: dport };
        icmp.emit(&payload, &mut a);
        icmp_by_push(&icmp, &payload, &mut b);
        prop_assert_eq!(&a, &b, "{:?}", icmp);
    }
}
