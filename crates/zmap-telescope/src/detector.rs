//! Scan detection: grouping darknet packets into scans and attributing a
//! tool per scan.
//!
//! Following the ORION methodology used in §2.1, a *scan* is a flow —
//! grouped by (source address, destination port) — that targets at least
//! ten distinct telescope addresses. Tool attribution is per scan, by
//! majority over its packets' fingerprints, which suppresses the
//! 1/65536-per-packet false positives of the static-IP-ID rule.

use crate::cryptanalysis::{
    recover_walk, Attribution, AttributionMethod, SpaceHypothesis, CONFIDENCE_THRESHOLD,
    MAX_CANDIDATES, MIN_OBSERVATIONS,
};
use crate::fingerprint::{classify_frame, Fingerprint, ProbeInfo};
use std::collections::{HashMap, HashSet};

/// Threshold of distinct darknet IPs for a flow to count as a scan.
pub const SCAN_IP_THRESHOLD: usize = 10;

/// A detected scan (one source sweeping one port).
#[derive(Debug, Clone)]
pub struct ScanRecord {
    pub src_ip: u32,
    pub dst_port: u16,
    /// Packets observed in this flow.
    pub packets: u64,
    /// Distinct telescope addresses hit.
    pub distinct_ips: usize,
    /// Majority-attributed tool.
    pub tool: Fingerprint,
}

#[derive(Default)]
struct FlowState {
    packets: u64,
    distinct: HashSet<u32>,
    votes_zmap: u64,
    votes_masscan: u64,
    votes_unknown: u64,
    /// Destination addresses in arrival order (bounded by the detector's
    /// capture limit) — the observation sequence the cryptanalytic stage
    /// recovers the walk from.
    sequence: Vec<u32>,
}

/// Streaming scan detector over captured frames.
#[derive(Default)]
pub struct ScanDetector {
    flows: HashMap<(u32, u16), FlowState>,
    non_tcp: u64,
    /// Per-flow hit-sequence capture bound; 0 disables capture (and so
    /// the cryptanalytic stage).
    capture_limit: usize,
}

impl ScanDetector {
    /// An empty detector (fingerprint attribution only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A detector that also records up to `limit` in-order destination
    /// addresses per flow, enabling [`Self::attributions`]' second-stage
    /// cryptanalysis.
    pub fn with_sequence_capture(limit: usize) -> Self {
        ScanDetector {
            capture_limit: limit,
            ..Self::default()
        }
    }

    /// Ingests one captured frame.
    pub fn ingest_frame(&mut self, frame: &[u8]) {
        match classify_frame(frame) {
            Some(info) if info.is_tcp_syn => self.ingest_info(&info),
            Some(_) => {} // non-SYN TCP: ignore for scan tagging
            None => self.non_tcp += 1,
        }
    }

    /// Ingests pre-parsed probe info (for high-volume simulations that
    /// skip frame materialization).
    pub fn ingest_info(&mut self, info: &ProbeInfo) {
        self.ingest_info_weighted(info, 1);
    }

    /// Ingests pre-parsed info standing for `weight` identical packets.
    /// High-volume simulations fingerprint a *sample* of each flow's
    /// packets and scale by the flow's true volume; because a tool's
    /// fingerprint is constant within a flow, weighted samples preserve
    /// packet-share statistics exactly.
    pub fn ingest_info_weighted(&mut self, info: &ProbeInfo, weight: u64) {
        let flow = self.flows.entry((info.src_ip, info.dst_port)).or_default();
        flow.packets += weight;
        flow.distinct.insert(info.dst_ip);
        if flow.sequence.len() < self.capture_limit {
            flow.sequence.push(info.dst_ip);
        }
        match info.fingerprint {
            Fingerprint::ZMap => flow.votes_zmap += weight,
            Fingerprint::Masscan => flow.votes_masscan += weight,
            Fingerprint::Unknown => flow.votes_unknown += weight,
        }
    }

    /// Frames that were not TCP (counted, not tagged — mirrors ORION's
    /// TCP-only tool tagging).
    pub fn non_tcp_frames(&self) -> u64 {
        self.non_tcp
    }

    /// Finalizes: flows over the threshold become [`ScanRecord`]s.
    pub fn scans(&self) -> Vec<ScanRecord> {
        let mut out: Vec<ScanRecord> = self
            .flows
            .iter()
            .filter(|(_, f)| f.distinct.len() >= SCAN_IP_THRESHOLD)
            .map(|(&(src_ip, dst_port), f)| {
                let tool = if f.votes_zmap >= f.votes_masscan && f.votes_zmap >= f.votes_unknown
                {
                    Fingerprint::ZMap
                } else if f.votes_masscan >= f.votes_unknown {
                    Fingerprint::Masscan
                } else {
                    Fingerprint::Unknown
                };
                ScanRecord {
                    src_ip,
                    dst_port,
                    packets: f.packets,
                    distinct_ips: f.distinct.len(),
                    tool,
                }
            })
            .collect();
        // (src_ip, dst_port) is the flow key, so this order is total and
        // deterministic regardless of hasher state — reports double-run
        // byte-identically.
        out.sort_by_key(|s| (s.src_ip, s.dst_port));
        out
    }

    /// Two-stage attribution of every detected scan, in the same
    /// deterministic (src_ip, dst_port) order as [`Self::scans`].
    ///
    /// Stage 1 is the majority fingerprint vote: a flow the vote settles
    /// as ZMap (static IP-ID 54321) or Masscan (destination-derived
    /// IP-ID) is attributed immediately with the winning vote share as
    /// confidence. Everything else — notably ZMap forks running with
    /// randomized IP-ID — goes to stage 2: the captured hit sequence is
    /// mapped to candidate group elements under `hyp` and
    /// [`recover_walk`] searches for a cyclic-walk (prime, generator)
    /// explaining the observed order. A recovery at or above
    /// [`CONFIDENCE_THRESHOLD`] attributes the scan to ZMap
    /// cryptanalytically; anything weaker stays unattributed, with the
    /// best recovered parameters kept as evidence.
    pub fn attributions(&self, hyp: &SpaceHypothesis) -> Vec<Attribution> {
        self.scans()
            .into_iter()
            .map(|scan| {
                let flow = &self.flows[&(scan.src_ip, scan.dst_port)];
                let share = |votes: u64| votes as f64 / flow.packets.max(1) as f64;
                match scan.tool {
                    Fingerprint::ZMap => Attribution {
                        src_ip: scan.src_ip,
                        dst_port: scan.dst_port,
                        tool: Fingerprint::ZMap,
                        method: AttributionMethod::Fingerprint,
                        confidence: share(flow.votes_zmap),
                        recovered: None,
                    },
                    Fingerprint::Masscan => Attribution {
                        src_ip: scan.src_ip,
                        dst_port: scan.dst_port,
                        tool: Fingerprint::Masscan,
                        method: AttributionMethod::Fingerprint,
                        confidence: share(flow.votes_masscan),
                        recovered: None,
                    },
                    Fingerprint::Unknown => {
                        let elements: Vec<u64> = flow
                            .sequence
                            .iter()
                            .filter_map(|&dst| hyp.element(dst, scan.dst_port))
                            .collect();
                        let recovered = (elements.len() >= MIN_OBSERVATIONS)
                            .then(|| {
                                recover_walk(
                                    &elements,
                                    hyp.gap_bound(elements.len()),
                                    MAX_CANDIDATES,
                                )
                            })
                            .flatten();
                        let confidence =
                            recovered.as_ref().map_or(0.0, |r| r.confidence());
                        let (tool, method) = if confidence >= CONFIDENCE_THRESHOLD {
                            (Fingerprint::ZMap, AttributionMethod::Cryptanalytic)
                        } else {
                            (Fingerprint::Unknown, AttributionMethod::Unattributed)
                        };
                        Attribution {
                            src_ip: scan.src_ip,
                            dst_port: scan.dst_port,
                            tool,
                            method,
                            confidence,
                            recovered,
                        }
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(src: u32, dst: u32, port: u16, fp: Fingerprint) -> ProbeInfo {
        ProbeInfo {
            src_ip: src,
            dst_ip: dst,
            dst_port: port,
            fingerprint: fp,
            is_tcp_syn: true,
        }
    }

    #[test]
    fn below_threshold_is_not_a_scan() {
        let mut d = ScanDetector::new();
        for i in 0..9u32 {
            d.ingest_info(&info(1, 100 + i, 80, Fingerprint::ZMap));
        }
        assert!(d.scans().is_empty(), "9 IPs is below the 10-IP threshold");
        d.ingest_info(&info(1, 200, 80, Fingerprint::ZMap));
        assert_eq!(d.scans().len(), 1);
    }

    #[test]
    fn repeated_ips_do_not_inflate_distinct_count() {
        let mut d = ScanDetector::new();
        for _ in 0..100 {
            d.ingest_info(&info(1, 42, 80, Fingerprint::ZMap));
        }
        assert!(d.scans().is_empty(), "one IP hit 100 times is not a scan");
    }

    #[test]
    fn flows_are_keyed_by_source_and_port() {
        let mut d = ScanDetector::new();
        for i in 0..10u32 {
            d.ingest_info(&info(1, 100 + i, 80, Fingerprint::ZMap));
            d.ingest_info(&info(1, 100 + i, 443, Fingerprint::Unknown));
            d.ingest_info(&info(2, 100 + i, 80, Fingerprint::Masscan));
        }
        let scans = d.scans();
        assert_eq!(scans.len(), 3);
        let find = |src, port| {
            scans
                .iter()
                .find(|s| s.src_ip == src && s.dst_port == port)
                .unwrap()
        };
        assert_eq!(find(1, 80).tool, Fingerprint::ZMap);
        assert_eq!(find(1, 443).tool, Fingerprint::Unknown);
        assert_eq!(find(2, 80).tool, Fingerprint::Masscan);
    }

    #[test]
    fn majority_vote_suppresses_stray_collisions() {
        let mut d = ScanDetector::new();
        // 1 packet randomly collides with the ZMap ID, 99 do not.
        d.ingest_info(&info(7, 1, 22, Fingerprint::ZMap));
        for i in 0..99u32 {
            d.ingest_info(&info(7, 2 + i, 22, Fingerprint::Unknown));
        }
        let scans = d.scans();
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].tool, Fingerprint::Unknown);
        assert_eq!(scans[0].packets, 100);
    }

    #[test]
    fn report_order_is_deterministic_and_keyed() {
        // Identical streams ingested into fresh detectors (fresh HashMap
        // hasher state) must emit byte-identical record sequences, in
        // (src_ip, dst_port) order.
        let stream: Vec<ProbeInfo> = (0..40u32)
            .flat_map(|i| {
                [
                    info(9, 100 + i, 443, Fingerprint::Unknown),
                    info(3, 100 + i, 80, Fingerprint::ZMap),
                    info(3, 100 + i, 22, Fingerprint::Masscan),
                    info(7, 100 + i, 80, Fingerprint::ZMap),
                ]
            })
            .collect();
        let run = || {
            let mut d = ScanDetector::new();
            for p in &stream {
                d.ingest_info(p);
            }
            d.scans()
                .iter()
                .map(|s| (s.src_ip, s.dst_port, s.packets, s.distinct_ips, s.tool))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "double-run identity");
        let keys: Vec<(u32, u16)> = a.iter().map(|&(s, p, ..)| (s, p)).collect();
        assert_eq!(keys, vec![(3, 22), (3, 80), (7, 80), (9, 443)]);
    }

    #[test]
    fn sequence_capture_is_bounded_and_ordered() {
        let mut d = ScanDetector::with_sequence_capture(5);
        for i in 0..20u32 {
            d.ingest_info(&info(1, 100 + i, 80, Fingerprint::Unknown));
        }
        let flow = &d.flows[&(1, 80)];
        assert_eq!(flow.sequence, vec![100, 101, 102, 103, 104]);
        // Default detector captures nothing.
        let mut d = ScanDetector::new();
        d.ingest_info(&info(1, 100, 80, Fingerprint::Unknown));
        assert!(d.flows[&(1, 80)].sequence.is_empty());
    }

    #[test]
    fn fingerprinted_scans_skip_cryptanalysis() {
        use crate::cryptanalysis::{AttributionMethod, SpaceHypothesis};
        let mut d = ScanDetector::with_sequence_capture(1024);
        for i in 0..50u32 {
            d.ingest_info(&info(1, i, 80, Fingerprint::ZMap));
            d.ingest_info(&info(2, i, 80, Fingerprint::Masscan));
        }
        let hyp = SpaceHypothesis::new(std::net::Ipv4Addr::new(0, 0, 0, 0), 4096, &[80]);
        let attrs = d.attributions(&hyp);
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].tool, Fingerprint::ZMap);
        assert_eq!(attrs[0].method, AttributionMethod::Fingerprint);
        assert_eq!(attrs[0].confidence, 1.0);
        assert!(attrs[0].recovered.is_none());
        assert_eq!(attrs[1].tool, Fingerprint::Masscan);
        assert_eq!(attrs[1].method, AttributionMethod::Fingerprint);
    }

    #[test]
    fn unknown_scan_with_walk_order_is_attributed_cryptanalytically() {
        use crate::cryptanalysis::{AttributionMethod, SpaceHypothesis};
        use zmap_targets::{Cycle, CyclicGroup};
        // Simulate a randomized-IP-ID ZMap scan of a /16 whose top /20
        // (4096 addresses, 1/16 density) is a darknet: the telescope
        // observes exactly the walk elements that land in its range.
        let cycle = Cycle::new(CyclicGroup::new(65_537).unwrap(), 77);
        let base = u32::from(std::net::Ipv4Addr::new(10, 20, 0, 0));
        let mut d = ScanDetector::with_sequence_capture(8192);
        for i in 0..65_536u64 {
            let candidate = cycle.element_at_position(i) - 1;
            if !(61_440..65_536).contains(&candidate) {
                continue; // not in the darknet (or a rejection-sampled slot)
            }
            d.ingest_info(&info(1, base + candidate as u32, 80, Fingerprint::Unknown));
        }
        let hyp = SpaceHypothesis::new(std::net::Ipv4Addr::new(10, 20, 0, 0), 65_536, &[80]);
        let attrs = d.attributions(&hyp);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.tool, Fingerprint::ZMap, "{a:?}");
        assert_eq!(a.method, AttributionMethod::Cryptanalytic);
        assert!(a.confidence >= 0.95, "confidence {}", a.confidence);
        let r = a.recovered.unwrap();
        assert_eq!(r.prime, 65_537);
        assert_eq!(r.generator, cycle.generator(), "exact generator recovery");
    }

    #[test]
    fn unknown_scan_without_walk_order_stays_unattributed() {
        use crate::cryptanalysis::{AttributionMethod, SpaceHypothesis};
        let mut d = ScanDetector::with_sequence_capture(8192);
        // Sequentially swept addresses: ratios cluster on (x+1)/x values,
        // none of which is a primitive-root power chain explaining the
        // order as a cyclic walk of the hypothesized space.
        for i in 0..4096u32 {
            d.ingest_info(&info(5, i, 23, Fingerprint::Unknown));
        }
        let hyp = SpaceHypothesis::new(std::net::Ipv4Addr::new(0, 0, 0, 0), 4096, &[23]);
        let attrs = d.attributions(&hyp);
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].tool, Fingerprint::Unknown);
        assert_eq!(attrs[0].method, AttributionMethod::Unattributed);
    }

    #[test]
    fn non_tcp_frames_are_counted_and_never_tagged() {
        use crate::cryptanalysis::SpaceHypothesis;
        use std::net::Ipv4Addr;
        use zmap_wire::ProbeBuilder;
        let dark = |i: u32| Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 0)) + i);
        // One source sweeps 20 dark addresses with ICMP echo and UDP —
        // twice the scan threshold — and another with TCP SYNs.
        let icmp_udp = ProbeBuilder::new(Ipv4Addr::new(203, 0, 113, 1), 5);
        let syn = ProbeBuilder::new(Ipv4Addr::new(203, 0, 113, 2), 5);
        let mut d = ScanDetector::with_sequence_capture(64);
        for i in 0..20u32 {
            d.ingest_frame(&icmp_udp.icmp_echo(dark(i), 0));
            d.ingest_frame(&icmp_udp.udp(dark(i), 53, b"q", 0).unwrap());
            d.ingest_frame(&syn.tcp_syn(dark(i), 80, 0));
        }
        assert_eq!(d.non_tcp_frames(), 40, "every ICMP and UDP frame is counted");
        let scans = d.scans();
        assert_eq!(scans.len(), 1, "only the TCP sweep is a scan: {scans:?}");
        assert_eq!(scans[0].src_ip, u32::from(Ipv4Addr::new(203, 0, 113, 2)));
        assert_eq!(scans[0].packets, 20);
        assert!(
            !d.flows.keys().any(|&(src, _)| src == u32::from(Ipv4Addr::new(203, 0, 113, 1))),
            "a non-TCP frame opens no flow"
        );
        let hyp = SpaceHypothesis::new(Ipv4Addr::new(198, 18, 0, 0), 4096, &[80]);
        let attrs = d.attributions(&hyp);
        assert_eq!(attrs.len(), 1, "and is attributed to no tool: {attrs:?}");
        assert_eq!(attrs[0].src_ip, scans[0].src_ip);
    }

    #[test]
    fn records_carry_volume() {
        let mut d = ScanDetector::new();
        for i in 0..50u32 {
            d.ingest_info(&info(9, i, 8080, Fingerprint::ZMap));
        }
        let s = &d.scans()[0];
        assert_eq!(s.packets, 50);
        assert_eq!(s.distinct_ips, 50);
    }
}
