#![forbid(unsafe_code)]
//! The experiments that regenerate every figure and in-text number of
//! *Ten Years of ZMap*: one module per `results/` file, each with a
//! `run` that returns that file's bytes, and [`EXPERIMENTS`], the
//! registry the `experiments` binary prints from and the results test
//! (`tests/results.rs`) compares with `results/`. EXPERIMENTS.md records
//! paper-vs-measured for each.
//!
//! The helpers below keep the modules small: telescope pipelines over
//! the population model, scan drivers over the simulated Internet, and
//! fixed-width tables.

use std::net::Ipv4Addr;
use zmap_core::transport::SimNet;
use zmap_core::{ScanConfig, ScanSummary, Scanner};
use zmap_netsim::population::{PopulationModel, Quarter};
use zmap_netsim::{hash3, WorldConfig};
use zmap_telescope::aggregate::PortReport;
use zmap_telescope::detector::{ScanDetector, ScanRecord};
use zmap_telescope::fingerprint::classify_frame;

pub mod exp_attribution;
pub mod exp_generator_attempts;
pub mod exp_ipid;
pub mod exp_l4_l7;
pub mod exp_masscan_vs_zmap;
pub mod exp_v6_hitrate;
pub mod exp_vantage;
pub mod fig1_adoption;
pub mod fig2_all_ports;
pub mod fig3_zmap_ports;
pub mod fig4_countries;
pub mod fig5_dedup_window;
pub mod fig6_sharding;
pub mod fig7_tcp_options;
pub mod fig8_bibliography;

/// What an experiment's `run` returns: the bytes of its `results/` file.
pub type Output = Result<String, Box<dyn std::error::Error>>;

/// One registry row.
pub struct Experiment {
    /// The name `experiments NAME` takes.
    pub name: &'static str,
    /// The file under `results/` that holds its output.
    pub file: &'static str,
    /// The flags it takes, each with its value's name; the binary refuses
    /// any other word after the name.
    pub flags: &'static [(&'static str, &'static str)],
    /// Runs it; the arguments are the command line after the name.
    pub run: fn(&[String]) -> Output,
}

/// Every experiment, in `results/`' file order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "exp_attribution", file: "exp_attribution.json", flags: &[("--scenario", "FILE"), ("--report", "OUT")], run: exp_attribution::run },
    Experiment { name: "exp_generator_attempts", file: "exp_generator_attempts.txt", flags: &[], run: exp_generator_attempts::run },
    Experiment { name: "exp_ipid", file: "exp_ipid.txt", flags: &[], run: exp_ipid::run },
    Experiment { name: "exp_l4_l7", file: "exp_l4_l7.txt", flags: &[], run: exp_l4_l7::run },
    Experiment { name: "exp_masscan_vs_zmap", file: "exp_masscan_vs_zmap.txt", flags: &[], run: exp_masscan_vs_zmap::run },
    Experiment { name: "exp_v6_hitrate", file: "exp_v6_hitrate.txt", flags: &[], run: exp_v6_hitrate::run },
    Experiment { name: "exp_vantage", file: "exp_vantage.txt", flags: &[], run: exp_vantage::run },
    Experiment { name: "fig1_adoption", file: "fig1_adoption.txt", flags: &[], run: fig1_adoption::run },
    Experiment { name: "fig2_all_ports", file: "fig2_all_ports.txt", flags: &[], run: fig2_all_ports::run },
    Experiment { name: "fig3_zmap_ports", file: "fig3_zmap_ports.txt", flags: &[], run: fig3_zmap_ports::run },
    Experiment { name: "fig4_countries", file: "fig4_countries.txt", flags: &[], run: fig4_countries::run },
    Experiment { name: "fig5_dedup_window", file: "fig5_dedup_window.txt", flags: &[], run: fig5_dedup_window::run },
    Experiment { name: "fig6_sharding", file: "fig6_sharding.txt", flags: &[], run: fig6_sharding::run },
    Experiment { name: "fig7_tcp_options", file: "fig7_tcp_options.txt", flags: &[], run: fig7_tcp_options::run },
    Experiment { name: "fig8_bibliography", file: "fig8_bibliography.txt", flags: &[], run: fig8_bibliography::run },
];

/// The registry row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Default scanner vantage used by scan experiments.
pub fn vantage() -> Ipv4Addr {
    Ipv4Addr::new(192, 0, 2, 9)
}

/// Runs one quarter of the population through a simulated telescope and
/// returns the detected scans.
///
/// Each instance's flow is fingerprinted from `sample` synthesized
/// packets and weighted to its true packet volume (fingerprints are
/// constant within a flow, so the sample preserves packet shares), while
/// distinct-IP counting uses the real sampled destinations.
pub fn telescope_quarter(model: &PopulationModel, q: Quarter, sample: u64) -> Vec<ScanRecord> {
    let mut det = ScanDetector::new();
    for inst in model.instances(q) {
        let n = inst.packets.min(sample).max(1);
        let per = inst.packets / n;
        let mut rem = inst.packets % n;
        for i in 0..n {
            // Deterministic darknet destination within a /16 telescope.
            let dark = Ipv4Addr::from(0xC612_0000u32 | (hash3(inst.seed, i as u32, 0xD42C) as u32 & 0xFFFF));
            let frame = inst.probe_frame(dark, i);
            if let Some(info) = classify_frame(&frame) {
                let w = per + u64::from(rem > 0);
                rem = rem.saturating_sub(1);
                det.ingest_info_weighted(&info, w);
            }
        }
    }
    det.scans()
}

/// Figures 2 and 3's telescope: the default population's 2024Q1 scans,
/// by port.
pub fn port_report_2024q1() -> (Quarter, PortReport) {
    let q = Quarter { year: 2024, q: 1 };
    let mut report = PortReport::default();
    report.add_scans(&telescope_quarter(&PopulationModel::default(), q, 60));
    (q, report)
}

/// A scan of `prefix/len` from `src` on `ports` at `rate_pps`, with the
/// default blocklist off.
pub fn prefix_config(src: Ipv4Addr, prefix: Ipv4Addr, len: u8, ports: &[u16], rate_pps: u64, seed: u64) -> ScanConfig {
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(prefix, len);
    cfg.apply_default_blocklist = false;
    cfg.ports = ports.to_vec();
    cfg.rate_pps = rate_pps;
    cfg.seed = seed;
    cfg
}

/// Runs `cfg` against `world` and returns the summary plus everything
/// the world's darknet captured (arrival order, virtual-ns timestamps).
/// Unlike [`run_prefix_scan`], the `SimNet` outlives the scan so the
/// capture buffer can be harvested — the attribution experiments replay
/// it through the telescope.
pub fn run_darknet_scan(world: WorldConfig, cfg: ScanConfig) -> (ScanSummary, Vec<(u64, Vec<u8>)>) {
    let net = SimNet::new(world);
    let src = cfg.source_ip;
    let summary = Scanner::new(cfg, net.transport(src))
        .expect("experiment config is valid")
        .run();
    let capture = net.with_world(|w| w.take_darknet_capture());
    (summary, capture)
}

/// Builds a `/len` scan config over the given world prefix from
/// [`vantage`] and runs it.
pub fn run_prefix_scan(
    world: WorldConfig,
    prefix: Ipv4Addr,
    len: u8,
    ports: &[u16],
    rate_pps: u64,
    seed: u64,
    mutate: impl FnOnce(&mut ScanConfig),
) -> ScanSummary {
    let net = SimNet::new(world);
    let mut cfg = prefix_config(vantage(), prefix, len, ports, rate_pps, seed);
    mutate(&mut cfg);
    Scanner::new(cfg, net.transport(vantage()))
        .expect("experiment config is valid")
        .run()
}

/// An aligned table: `headers`, a rule, then rows of equal arity, each
/// line ending in a newline.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        padded.join("  ") + "\n"
    };
    let mut out = line(headers.to_vec());
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1));
    out.push('\n');
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Percentage formatting used across figure output.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Two-proportion z-test statistic for (hits1/n1) vs (hits2/n2) — used by
/// the IP-ID experiment ("difference is not statistically significant").
pub fn two_proportion_z(hits1: u64, n1: u64, hits2: u64, n2: u64) -> f64 {
    let p1 = hits1 as f64 / n1 as f64;
    let p2 = hits2 as f64 / n2 as f64;
    let p = (hits1 + hits2) as f64 / (n1 + n2) as f64;
    let se = (p * (1.0 - p) * (1.0 / n1 as f64 + 1.0 / n2 as f64)).sqrt();
    if se == 0.0 {
        0.0
    } else {
        (p1 - p2) / se
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_test_on_equal_proportions_is_small() {
        let z = two_proportion_z(100, 10_000, 101, 10_000);
        assert!(z.abs() < 0.5, "{z}");
    }

    #[test]
    fn z_test_detects_real_difference() {
        let z = two_proportion_z(300, 10_000, 100, 10_000);
        assert!(z.abs() > 5.0, "{z}");
    }

    #[test]
    fn telescope_quarter_smoke() {
        let model = PopulationModel {
            instances_at_peak: 200,
            ..PopulationModel::default()
        };
        let scans = telescope_quarter(&model, Quarter { year: 2024, q: 1 }, 20);
        assert!(!scans.is_empty());
        // Weighted packets should roughly reconstruct total volume.
        let total: u64 = scans.iter().map(|s| s.packets).sum();
        assert!(total > 10_000, "{total}");
    }

    #[test]
    fn run_prefix_scan_smoke() {
        let s = run_prefix_scan(
            WorldConfig {
                seed: 3,
                model: zmap_netsim::ServiceModel::dense(&[80]),
                loss: zmap_netsim::loss::LossModel::NONE,
                ..WorldConfig::default()
            },
            Ipv4Addr::new(77, 1, 0, 0),
            24,
            &[80],
            1_000_000,
            1,
            |cfg| cfg.cooldown_secs = 1,
        );
        assert_eq!(s.metadata.counters.unique_successes, 256);
    }

    #[test]
    fn table_pads_each_column_to_its_widest_cell() {
        let t = table(&["a", "bb"], &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]]);
        assert_eq!(t, "  a  bb\n-------\n  1   2\n333   4\n");
    }

    #[test]
    fn every_registry_row_is_found_by_its_name() {
        assert_eq!(EXPERIMENTS.len(), 15);
        for e in EXPERIMENTS {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
            assert!(e.file.starts_with(e.name));
        }
        assert!(find("fig9").is_none());
    }
}
