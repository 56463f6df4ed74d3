#![allow(clippy::print_stdout)]
//! Attribution/stealth trade-off experiment: detection rate vs. scan
//! speed vs. stealth level, scanner and telescope closing the loop over
//! the simulated Internet.
//!
//! Default (matrix) mode scans a /16 whose top /20 is a darknet, under
//! every combination of stealth level (static IP-ID, random IP-ID,
//! `--rekey-blocks 4`, `--rekey-blocks 16`), scan rate, and a few scan
//! seeds. The telescope watches a fixed virtual-time window — a slower
//! scan leaves fewer observations in the window — and attributes each
//! captured scan with the two-stage pipeline (fingerprint vote, then
//! cyclic-walk recovery). Results go to `results/exp_attribution.json`:
//!
//! * the fingerprint stage attributes ~0% of random-IP-ID scans,
//! * cyclic-walk recovery attributes >=95% of non-stealth scans, but
//! * per-block re-keying drives recovery confidence below the 0.5
//!   attribution threshold.
//!
//! `--scenario FILE [--report OUT]` instead runs the arms described in a
//! scenario JSON (see `scenarios/attribution.json`) once each and writes
//! the deterministic attribution report; CI runs this twice and diffs
//! the two reports byte-for-byte.

use bench::{print_table, run_darknet_scan, vantage};
use std::net::Ipv4Addr;
use zmap_core::ScanConfig;
use zmap_netsim::loss::LossModel;
use zmap_netsim::{FaultPlan, ServiceModel, WorldConfig};
use zmap_targets::Walk;
use zmap_telescope::{report_json, Attribution, AttributionMethod, ScanDetector, SpaceHypothesis};
use zmap_wire::ipv4::IpIdMode;

/// One stealth level of the matrix.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    ip_id: IpIdMode,
    rekey_blocks: u32,
}

const MODES: [Mode; 4] = [
    Mode { name: "static-ip-id", ip_id: IpIdMode::Static, rekey_blocks: 0 },
    Mode { name: "random-ip-id", ip_id: IpIdMode::Random, rekey_blocks: 0 },
    Mode { name: "stealth-4", ip_id: IpIdMode::Random, rekey_blocks: 4 },
    Mode { name: "stealth-16", ip_id: IpIdMode::Random, rekey_blocks: 16 },
];

/// Matrix-mode scan rates (pps). At 1/16 darknet density the telescope's
/// 250 ms window holds ~rate/64 observations, so the slow arm tests
/// recovery from a truncated sample.
const RATES: [u64; 2] = [100_000, 1_000_000];
const SEEDS: [u64; 3] = [7, 21, 63];
/// Matrix-mode telescope observation window (virtual ns).
const WINDOW_NS: u64 = 250_000_000;

fn world(seed: u64, space: Ipv4Addr, space_len: u8, darknet: Ipv4Addr, darknet_len: u8) -> WorldConfig {
    let _ = (space, space_len); // the darknet defines the capture; the scan config defines the space
    WorldConfig {
        seed,
        model: ServiceModel::default(),
        loss: LossModel::NONE,
        faults: FaultPlan::none(),
        darknet: Some((u32::from(darknet), darknet_len)),
        ..WorldConfig::default()
    }
}

fn scan_config(
    space: Ipv4Addr,
    space_len: u8,
    port: u16,
    rate_pps: u64,
    seed: u64,
    mode: Mode,
) -> ScanConfig {
    let mut cfg = ScanConfig::new(vantage());
    cfg.allowlist_prefix(space, space_len);
    cfg.apply_default_blocklist = false;
    cfg.ports = vec![port];
    cfg.rate_pps = rate_pps;
    cfg.cooldown_secs = 2;
    cfg.seed = seed;
    cfg.ip_id = mode.ip_id;
    cfg.walk = Walk::rekeyed(mode.rekey_blocks);
    cfg
}

/// Replays captured frames (optionally only those inside the telescope's
/// observation window) through the detector and attributes the scan.
fn attribute(capture: &[(u64, Vec<u8>)], window_ns: Option<u64>, hyp: &SpaceHypothesis) -> Vec<Attribution> {
    let mut det = ScanDetector::with_sequence_capture(8192);
    for (ts, frame) in capture {
        if window_ns.is_none_or(|w| *ts <= w) {
            det.ingest_frame(frame);
        }
    }
    det.attributions(hyp)
}

/// Per-cell tallies across the seed replicates.
#[derive(Default)]
struct Cell {
    scans: u32,
    fingerprint_zmap: u32,
    cryptanalytic_zmap: u32,
    confidence_sum: f64,
    observations: usize,
}

fn matrix_mode(out_path: &str) {
    let space = Ipv4Addr::new(10, 20, 0, 0);
    let darknet = Ipv4Addr::new(10, 20, 240, 0);
    let hyp = SpaceHypothesis::new(space, 65_536, &[80]);

    println!("attribution matrix: /16 scan, /20 darknet, {} ms window\n", WINDOW_NS / 1_000_000);
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    for mode in MODES {
        for rate in RATES {
            let mut cell = Cell::default();
            for seed in SEEDS {
                let cfg = scan_config(space, 16, 80, rate, seed, mode);
                let (_, capture) = run_darknet_scan(world(5, space, 16, darknet, 20), cfg);
                cell.observations += capture.iter().filter(|(ts, _)| *ts <= WINDOW_NS).count();
                for a in attribute(&capture, Some(WINDOW_NS), &hyp) {
                    cell.scans += 1;
                    cell.confidence_sum += a.confidence;
                    match a.method {
                        AttributionMethod::Fingerprint
                            if a.tool == zmap_telescope::Fingerprint::ZMap =>
                        {
                            cell.fingerprint_zmap += 1
                        }
                        AttributionMethod::Cryptanalytic => cell.cryptanalytic_zmap += 1,
                        _ => {}
                    }
                }
            }
            let n = cell.scans.max(1) as f64;
            let fp_rate = f64::from(cell.fingerprint_zmap) / n;
            let crypt_rate = f64::from(cell.cryptanalytic_zmap) / n;
            let mean_conf = cell.confidence_sum / n;
            rows.push(vec![
                mode.name.to_string(),
                format!("{rate}"),
                format!("{}", cell.observations / SEEDS.len()),
                format!("{:.0}%", 100.0 * fp_rate),
                format!("{:.0}%", 100.0 * crypt_rate),
                format!("{mean_conf:.4}"),
            ]);
            json_cells.push(format!(
                "    {{\"mode\": \"{}\", \"rate_pps\": {rate}, \"scans\": {}, \
                 \"mean_window_observations\": {}, \"fingerprint_rate\": {fp_rate:.4}, \
                 \"cryptanalytic_rate\": {crypt_rate:.4}, \"mean_confidence\": {mean_conf:.4}}}",
                mode.name,
                cell.scans,
                cell.observations / SEEDS.len(),
            ));
        }
    }
    print_table(
        &["mode", "rate pps", "obs/scan", "fingerprint", "cryptanalytic", "mean conf"],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"attribution_stealth_tradeoff\",\n  \"darknet_density\": 0.0625,\n  \
         \"window_ms\": {},\n  \"seeds_per_cell\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        WINDOW_NS / 1_000_000,
        SEEDS.len(),
        json_cells.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");
}

/// `--scenario` mode: run the arms a scenario file describes, once each,
/// and emit the deterministic attribution report.
fn scenario_mode(scenario_path: &str, report_path: Option<&str>) {
    let text = std::fs::read_to_string(scenario_path)
        .unwrap_or_else(|e| panic!("read scenario {scenario_path}: {e}"));
    let spec: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse scenario {scenario_path}: {e}"));
    let ip = |key: &str| -> Ipv4Addr {
        spec[key]
            .as_str()
            .unwrap_or_else(|| panic!("scenario field {key} must be an IPv4 string"))
            .parse()
            .unwrap_or_else(|e| panic!("scenario field {key}: {e}"))
    };
    let num = |key: &str| -> u64 {
        spec[key]
            .as_u64()
            .unwrap_or_else(|| panic!("scenario field {key} must be a number"))
    };
    let space = ip("space");
    let space_len = num("space_len") as u8;
    let darknet = ip("darknet");
    let darknet_len = num("darknet_len") as u8;
    let port = num("port") as u16;
    let world_seed = num("world_seed");
    let rate = num("rate_pps");
    let ip_count = 1u64 << (32 - space_len);
    let hyp = SpaceHypothesis::new(space, ip_count, &[port]);

    let mut arms: Vec<(String, Vec<Attribution>)> = Vec::new();
    for arm in spec["arms"].as_array().expect("scenario arms must be an array") {
        let name = arm["name"].as_str().expect("arm name").to_string();
        let mode = Mode {
            name: "scenario",
            ip_id: match arm["ip_id"].as_str().expect("arm ip_id") {
                "static" => IpIdMode::Static,
                "random" => IpIdMode::Random,
                other => panic!("arm ip_id {other:?}: expected static|random"),
            },
            rekey_blocks: arm["rekey_blocks"].as_u64().expect("arm rekey_blocks") as u32,
        };
        let seed = arm["seed"].as_u64().expect("arm seed");
        let cfg = scan_config(space, space_len, port, rate, seed, mode);
        let (_, capture) =
            run_darknet_scan(world(world_seed, space, space_len, darknet, darknet_len), cfg);
        arms.push((name, attribute(&capture, None, &hyp)));
    }
    let borrowed: Vec<(&str, &[Attribution])> =
        arms.iter().map(|(n, a)| (n.as_str(), a.as_slice())).collect();
    let report = report_json(&borrowed);
    match report_path {
        Some(path) => {
            std::fs::write(path, &report).expect("write report");
            println!("wrote {path}");
        }
        None => print!("{report}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    match flag_value("--scenario") {
        Some(path) => scenario_mode(path, flag_value("--report")),
        None => matrix_mode(args.first().map(String::as_str).unwrap_or("results/exp_attribution.json")),
    }
}
