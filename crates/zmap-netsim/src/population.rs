//! The longitudinal scanner population (2013Q3–2024Q1) behind Figures 1–4.
//!
//! Figures 1–4 are *telescope-side* measurements of who scans the
//! Internet, with what tool, from where, and at which ports. We model the
//! scanner population generatively — per-quarter tool adoption, country
//! mix, port preferences, traffic volumes — and emit actual probe frames
//! with each tool's on-the-wire fingerprint. The telescope pipeline
//! (zmap-telescope) then *re-derives* the paper's statistics from the
//! packets alone, so attribution is measured, not echoed.
//!
//! Tool fingerprints (as used by real attribution pipelines):
//! * ZMap: static IP ID 54321 (§2.1; forks that remove it become
//!   unattributable, which we model as `ZMapFork`),
//! * Masscan: IP ID = (dst_ip ⊕ dst_port ⊕ tcp_seq) folded to 16 bits,
//! * everything else: OS-default randomized IP IDs.

use crate::geo::{country_of, Country};
use crate::{hash3, unit};
use std::net::Ipv4Addr;
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;
use zmap_wire::ProbeBuilder;

/// A calendar quarter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Quarter {
    pub year: u16,
    /// 1–4.
    pub q: u8,
}

impl Quarter {
    /// Quarters since 2013Q3 (ZMap's release).
    pub fn index(&self) -> i32 {
        (i32::from(self.year) - 2013) * 4 + i32::from(self.q) - 3
    }

    /// Inclusive range of quarters.
    pub fn range(start: Quarter, end: Quarter) -> Vec<Quarter> {
        let mut out = Vec::new();
        let mut cur = start;
        while cur <= end {
            out.push(cur);
            cur = if cur.q == 4 {
                Quarter { year: cur.year + 1, q: 1 }
            } else {
                Quarter { year: cur.year, q: cur.q + 1 }
            };
        }
        out
    }
}

impl std::fmt::Display for Quarter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}Q{}", self.year, self.q)
    }
}

/// The scanning tool a population member runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScannerTool {
    /// Stock ZMap (static IP ID fingerprint).
    ZMap,
    /// A ZMap fork with the IP ID marker removed — real ZMap lineage but
    /// unattributable (the paper notes these are undercounted).
    ZMapFork,
    /// Masscan (IP ID derived from destination).
    Masscan,
    /// Anything else (nmap -sS, unicornscan, custom botnet code, …).
    Other,
}

/// One scanning host active in a quarter.
#[derive(Debug, Clone, Copy)]
pub struct ScannerInstance {
    pub tool: ScannerTool,
    pub country: Country,
    /// Source address the scans come from.
    pub src_ip: u32,
    /// The (single) TCP port this instance sweeps.
    pub port: u16,
    /// Probe packets this instance lands on the telescope this quarter.
    pub packets: u64,
    /// Per-instance seed for packet-field derivation.
    pub seed: u64,
}

/// Generative model of the scanner population.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    /// Master seed.
    pub seed: u64,
    /// Scanner instances active per quarter at 2024 scale (earlier
    /// quarters have proportionally fewer).
    pub instances_at_peak: usize,
}

impl Default for PopulationModel {
    fn default() -> Self {
        PopulationModel {
            seed: 0x2013_0816, // ZMap release date-ish
            instances_at_peak: 3000,
        }
    }
}

/// ZMap's adoption multiplier over time: ~flat research-era usage, then
/// the post-2020 industry acceleration the paper's Figure 1 shows.
/// Returns a factor in [0, 1] scaling each country's 2024 ZMap share.
pub fn zmap_adoption(q: Quarter) -> f64 {
    let t = q.index() as f64; // 0 at 2013Q3, 42 at 2024Q1
    if t < 0.0 {
        return 0.0;
    }
    // Research era: quick ramp to ~0.2, slow drift to ~0.28 by 2019.
    let research = 0.20 * (1.0 - (-t / 3.0).exp()) + 0.08 * (t / 26.0).min(1.0);
    // Industry era: logistic centered 2021Q3 (t=32), scale 0.72.
    let industry = 0.72 / (1.0 + (-(t - 32.0) / 4.5).exp());
    (research + industry).min(1.0)
}

/// Masscan's (constant-ish) adoption multiplier.
fn masscan_adoption(q: Quarter) -> f64 {
    let t = q.index() as f64;
    // Released late 2013; ramps over ~2 years, then steady.
    0.95 * (1.0 - (-(t - 1.0).max(0.0) / 6.0).exp())
}

/// Scan-traffic volume growth over time (total scanning grew ~10× over
/// the decade; normalized to 1.0 at 2024Q1).
pub fn traffic_scale(q: Quarter) -> f64 {
    let t = q.index() as f64;
    (0.1 + 0.9 * (t / 42.0)).clamp(0.0, 1.0)
}

/// Per-tool port preference tables. Weights are relative; ports beyond
/// the table form a long tail. Calibrated jointly with the 2024 tool mix
/// so telescope-side per-port ZMap shares land near Figure 2/3
/// (80→69%, 8080→73%, 23→12%, 8728→99.5%).
fn zmap_port_weights() -> &'static [(u16, f64)] {
    &[
        (80, 0.25),
        (8080, 0.18),
        (443, 0.12),
        (22, 0.08),
        (8728, 0.05),
        (7547, 0.05),
        (3389, 0.04),
        (23, 0.02),
        (445, 0.01),
        (8443, 0.01),
        (21, 0.02),
        (25, 0.02),
    ]
}

fn other_port_weights() -> &'static [(u16, f64)] {
    &[
        (23, 0.0803),
        (80, 0.0650),
        (445, 0.0728),
        (22, 0.0658),
        (3389, 0.0511),
        (443, 0.0438),
        (8080, 0.0365),
        (7547, 0.0274),
        (5060, 0.0300),
        (25, 0.0250),
        (21, 0.0200),
        (110, 0.0150),
        (8443, 0.0150),
        (8728, 0.00005),
    ]
}

fn draw_port(h: u64, table: &[(u16, f64)]) -> u16 {
    // Table weights are absolute; the remaining mass falls to a uniform
    // long tail of high ports.
    let u = unit(h);
    let mut acc = 0.0;
    for &(p, w) in table {
        acc += w;
        if u < acc {
            return p;
        }
    }
    // Long tail: arbitrary high ports.
    1024 + (h % 50_000) as u16
}

impl PopulationModel {
    /// The scanner instances active in quarter `q`.
    pub fn instances(&self, q: Quarter) -> Vec<ScannerInstance> {
        let scale = traffic_scale(q);
        let count = ((self.instances_at_peak as f64) * scale).round() as usize;
        let zmap_f = zmap_adoption(q);
        let masscan_f = masscan_adoption(q);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let id = hash3(self.seed, q.index() as u32, 0x9090 + i as u64);
            let src_ip = (id >> 16) as u32;
            let country = country_of(self.seed, src_ip);
            // Tool assignment: ZMap probability is the country's 2024
            // share scaled by the adoption curve; Masscan gets a share of
            // the remainder; the rest is Other.
            // p_zmap is the *attributable* (stock) ZMap share — the
            // quantity the paper's Figure 1/4 measure. Fingerprint-
            // stripped forks (XMap, botnet variants) are real ZMap
            // lineage the IP-ID attribution undercounts; they ride on
            // top of the attributable share.
            let p_zmap = country.zmap_share_2024() * zmap_f;
            let p_fork = p_zmap * 0.12;
            let p_masscan = (1.0 - p_zmap - p_fork).max(0.0) * 0.22 * masscan_f;
            let u = unit(hash3(self.seed, src_ip, 0x7001 + q.index() as u64));
            let tool = if u < p_zmap {
                ScannerTool::ZMap
            } else if u < p_zmap + p_fork {
                ScannerTool::ZMapFork
            } else if u < p_zmap + p_fork + p_masscan {
                ScannerTool::Masscan
            } else {
                ScannerTool::Other
            };
            // Stock ZMap follows the security-industry port mix; the
            // fingerprint-stripped forks in the wild are mostly botnet
            // variants (Mirai/Medusa, §2.4) whose port preferences look
            // like the scanning background, not like Censys.
            let port_table = match tool {
                ScannerTool::ZMap => zmap_port_weights(),
                _ => other_port_weights(),
            };
            let port = draw_port(hash3(self.seed, src_ip, 0x0607 + q.index() as u64), port_table);
            // Heavy-tailed per-instance volume (packets on the telescope):
            // Pareto-ish 100 … 100k, compressed so totals are manageable.
            let uv = unit(hash3(self.seed, src_ip, 0xF01)).max(1e-4);
            let packets = (100.0 / uv.powf(0.6)).min(30_000.0) as u64;
            out.push(ScannerInstance {
                tool,
                country,
                src_ip,
                port,
                packets,
                seed: id,
            });
        }
        out
    }
}

impl ScannerInstance {
    /// Synthesizes the `i`-th probe frame this instance lands on a
    /// telescope address, with the tool's on-the-wire fingerprint (its
    /// option layout and IP-ID rule), rendered by zmap-wire's probe
    /// builder.
    pub fn probe_frame(&self, dark_dst: Ipv4Addr, i: u64) -> Vec<u8> {
        let (layout, ip_id) = match self.tool {
            ScannerTool::ZMap => (OptionLayout::MssOnly, IpIdMode::Static),
            // The fork strips the static marker.
            ScannerTool::ZMapFork => (OptionLayout::MssOnly, IpIdMode::Random),
            ScannerTool::Masscan => (OptionLayout::NoOptions, IpIdMode::DestinationDerived),
            ScannerTool::Other => (OptionLayout::Linux, IpIdMode::Random),
        };
        let builder = ProbeBuilder {
            layout,
            ip_id,
            ..ProbeBuilder::new(Ipv4Addr::from(self.src_ip), self.seed)
        };
        let entropy = (hash3(self.seed, u32::from(dark_dst), i) >> 32) as u16;
        builder.tcp_syn(dark_dst, self.port, entropy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_arithmetic() {
        let q = Quarter { year: 2013, q: 3 };
        assert_eq!(q.index(), 0);
        assert_eq!(Quarter { year: 2024, q: 1 }.index(), 42);
        let range = Quarter::range(q, Quarter { year: 2014, q: 2 });
        assert_eq!(range.len(), 4);
        assert_eq!(range[3], Quarter { year: 2014, q: 2 });
        assert_eq!(format!("{}", range[3]), "2014Q2");
    }

    #[test]
    fn adoption_curve_shape() {
        let q = |y, qq| Quarter { year: y, q: qq };
        let a2014 = zmap_adoption(q(2014, 1));
        let a2019 = zmap_adoption(q(2019, 1));
        let a2021 = zmap_adoption(q(2021, 1));
        let a2024 = zmap_adoption(q(2024, 1));
        assert!(a2014 < 0.35, "{a2014}");
        assert!(a2019 < 0.45, "{a2019}");
        assert!(a2021 > a2019, "growth accelerates after 2020");
        assert!(a2024 > 0.9, "{a2024}");
        assert!(a2024 <= 1.0);
        // Monotone non-decreasing overall.
        let mut prev = 0.0;
        for t in Quarter::range(q(2013, 3), q(2024, 1)) {
            let a = zmap_adoption(t);
            assert!(a >= prev - 1e-6, "{t}: {a} < {prev}");
            prev = a;
        }
    }

    #[test]
    fn population_is_deterministic() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2024, q: 1 };
        let a = m.instances(q);
        let b = m.instances(q);
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 2000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src_ip, y.src_ip);
            assert_eq!(x.tool, y.tool);
            assert_eq!(x.port, y.port);
        }
    }

    #[test]
    fn tool_mix_2024_near_paper() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2024, q: 1 };
        let inst = m.instances(q);
        let total: u64 = inst.iter().map(|i| i.packets).sum();
        let zmap: u64 = inst
            .iter()
            .filter(|i| i.tool == ScannerTool::ZMap)
            .map(|i| i.packets)
            .sum();
        let share = zmap as f64 / total as f64;
        // Paper: 35.4% of packets. Generator prior lands in the band
        // (exact value is re-measured telescope-side in Figure 1).
        assert!(share > 0.25 && share < 0.45, "zmap packet share {share}");
    }

    #[test]
    fn early_years_have_little_zmap() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2014, q: 1 };
        let inst = m.instances(q);
        let total: u64 = inst.iter().map(|i| i.packets).sum();
        let zmap: u64 = inst
            .iter()
            .filter(|i| i.tool == ScannerTool::ZMap)
            .map(|i| i.packets)
            .sum();
        let share = zmap as f64 / total as f64;
        assert!(share < 0.15, "2014 share {share}");
    }

    #[test]
    fn zmap_frames_carry_the_marker() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2024, q: 1 };
        for inst in m.instances(q).iter().take(500) {
            let frame = inst.probe_frame(Ipv4Addr::new(198, 18, 0, 1), 0);
            let eth = zmap_wire::ethernet::EthernetView::parse(&frame).unwrap();
            let ip = zmap_wire::ipv4::Ipv4View::parse(eth.payload()).unwrap();
            assert!(ip.verify_checksum());
            let tcp = zmap_wire::tcp::TcpView::parse(ip.payload()).unwrap();
            assert!(tcp.flags().syn());
            match inst.tool {
                ScannerTool::ZMap => assert_eq!(ip.id(), 54321),
                ScannerTool::Masscan => {
                    let (dst, seq) = (ip.dst().into(), tcp.seq());
                    let want = zmap_wire::ipv4::masscan_ip_id(dst, tcp.dst_port(), seq);
                    assert_eq!(ip.id(), want);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn port_preferences_differ_by_tool() {
        let m = PopulationModel::default();
        let q = Quarter { year: 2024, q: 1 };
        let inst = m.instances(q);
        let frac_port = |tool: ScannerTool, port: u16| {
            let (num, den) = inst.iter().filter(|i| i.tool == tool).fold(
                (0u64, 0u64),
                |(n, d), i| (n + u64::from(i.port == port) * i.packets, d + i.packets),
            );
            n_over_d(num, den)
        };
        assert!(frac_port(ScannerTool::ZMap, 80) > 0.15);
        assert!(frac_port(ScannerTool::Other, 23) > frac_port(ScannerTool::ZMap, 23));
        fn n_over_d(n: u64, d: u64) -> f64 {
            if d == 0 {
                0.0
            } else {
                n as f64 / d as f64
            }
        }
    }
}
