//! Per-packet scanner-tool fingerprinting.
//!
//! The attribution rules real pipelines (ORION, GreyNoise) use:
//!
//! * **ZMap** sets the IPv4 identification field to the constant 54321
//!   (§2.1 notes forks that strip it evade attribution);
//! * **Masscan** derives the IP ID from the destination:
//!   `(dst_ip ⊕ dst_port ⊕ tcp_seq)` folded to 16 bits;
//! * anything else is **Unknown**.
//!
//! The ZMap rule has a 1/65536 false-positive rate per packet against
//! random IP IDs; classification is therefore done per *scan* by majority
//! over many packets (see [`crate::detector`]).

use zmap_wire::ethernet::{EtherType, EthernetView};
use zmap_wire::ipv4::{masscan_ip_id, IpProtocol, Ipv4View, ZMAP_STATIC_IP_ID};
use zmap_wire::tcp::TcpView;

/// Tool classification of one probe packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fingerprint {
    /// IP ID = 54321.
    ZMap,
    /// IP ID matches Masscan's destination-derived formula.
    Masscan,
    /// No known tool signature.
    Unknown,
}

/// Fields a telescope extracts from one captured probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInfo {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub dst_port: u16,
    pub fingerprint: Fingerprint,
    /// True for TCP SYN probes (the only flows ORION tags tools on).
    pub is_tcp_syn: bool,
}

/// Parses and classifies a captured Ethernet frame. Returns `None` for
/// non-IPv4/non-TCP traffic (the analysis in §2.1 is TCP-only).
pub fn classify_frame(frame: &[u8]) -> Option<ProbeInfo> {
    let eth = EthernetView::parse(frame).ok()?;
    if eth.ethertype() != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4View::parse(eth.payload()).ok()?;
    if ip.protocol() != IpProtocol::Tcp {
        return None;
    }
    let tcp = TcpView::parse(ip.payload()).ok()?;
    let dst_ip = u32::from(ip.dst());
    let fingerprint = if ip.id() == ZMAP_STATIC_IP_ID {
        Fingerprint::ZMap
    } else if ip.id() == masscan_ip_id(dst_ip, tcp.dst_port(), tcp.seq()) {
        Fingerprint::Masscan
    } else {
        Fingerprint::Unknown
    };
    Some(ProbeInfo {
        src_ip: u32::from(ip.src()),
        dst_ip,
        dst_port: tcp.dst_port(),
        fingerprint,
        is_tcp_syn: tcp.flags().syn() && !tcp.flags().ack(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zmap_netsim::population::{PopulationModel, Quarter, ScannerTool};

    #[test]
    fn classifies_simulated_tools_correctly() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2024, q: 1 };
        let mut checked = 0;
        for inst in m.instances(q).iter().take(1000) {
            let frame = inst.probe_frame(Ipv4Addr::new(198, 18, 7, 7), 3);
            let info = classify_frame(&frame).expect("TCP SYN probe parses");
            assert!(info.is_tcp_syn);
            assert_eq!(info.src_ip, inst.src_ip);
            assert_eq!(info.dst_port, inst.port);
            match inst.tool {
                ScannerTool::ZMap => assert_eq!(info.fingerprint, Fingerprint::ZMap),
                ScannerTool::Masscan => {
                    assert_eq!(info.fingerprint, Fingerprint::Masscan)
                }
                // Forks and others must NOT be attributed to ZMap
                // (random-ID collisions aside, which are 1/65536).
                ScannerTool::ZMapFork | ScannerTool::Other => {
                    assert_ne!(info.fingerprint, Fingerprint::ZMap);
                }
            }
            checked += 1;
        }
        assert_eq!(checked, 1000);
    }

    #[test]
    fn non_tcp_frames_are_skipped() {
        assert_eq!(classify_frame(&[0u8; 10]), None);
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert_eq!(classify_frame(&arp), None);
    }
}
