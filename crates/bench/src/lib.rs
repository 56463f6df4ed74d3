#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)]
//! Shared infrastructure for the experiment binaries (`src/bin/fig*.rs`,
//! `src/bin/exp_*.rs`).
//!
//! Every binary regenerates one figure/table from *Ten Years of ZMap*;
//! EXPERIMENTS.md records paper-vs-measured for each. The helpers here
//! keep the binaries small: telescope pipelines over the population
//! model, scan drivers over the simulated Internet, and fixed-width
//! table printing.

use std::net::Ipv4Addr;
use zmap_core::transport::SimNet;
use zmap_core::{ScanConfig, ScanSummary, Scanner};
use zmap_netsim::population::{PopulationModel, Quarter, ScannerInstance};
use zmap_netsim::{hash3, WorldConfig};
use zmap_telescope::detector::{ScanDetector, ScanRecord};
use zmap_telescope::fingerprint::classify_frame;

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
        ingest_instance(&mut det, &inst, sample);
    }
    det.scans()
}

/// Ingests one scanner instance into a detector (see [`telescope_quarter`]).
pub fn ingest_instance(det: &mut ScanDetector, inst: &ScannerInstance, sample: u64) {
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

/// Builds a `/len` scan config over the given world prefix and runs it.
#[allow(clippy::too_many_arguments)]
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
    let src = vantage();
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(prefix, len);
    cfg.apply_default_blocklist = false;
    cfg.ports = ports.to_vec();
    cfg.rate_pps = rate_pps;
    cfg.seed = seed;
    mutate(&mut cfg);
    Scanner::new(cfg, net.transport(src))
        .expect("experiment config is valid")
        .run()
}

/// Prints an aligned table: `headers` then rows of equal arity.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        s
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    for row in rows {
        println!("{}", line(row.clone()));
    }
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
        assert_eq!(s.unique_successes, 256);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
