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
//! cyclic-walk recovery). `run` returns the matrix as the JSON of
//! `results/exp_attribution.json`:
//!
//! * the fingerprint stage attributes ~0% of random-IP-ID scans,
//! * cyclic-walk recovery attributes >=95% of non-stealth scans, but
//! * per-block re-keying drives recovery confidence below the 0.5
//!   attribution threshold.
//!
//! `--scenario FILE [--report OUT]` instead runs the arms described in a
//! scenario JSON (see `scenarios/attribution.json`) once each and returns
//! (or writes) the deterministic attribution report; `tests/results.rs`
//! runs the committed scenario twice and compares the two reports.

use crate::{prefix_config, run_darknet_scan, vantage, Output};
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

/// The default world with `darknet/darknet_len` captured.
fn world(seed: u64, darknet: Ipv4Addr, darknet_len: u8) -> WorldConfig {
    WorldConfig {
        seed,
        model: ServiceModel::default(),
        loss: LossModel::NONE,
        faults: FaultPlan::none(),
        darknet: Some((u32::from(darknet), darknet_len)),
        ..WorldConfig::default()
    }
}

/// A scan of `space/space_len` on `port` at stealth level `mode`.
fn scan_config(space: Ipv4Addr, space_len: u8, port: u16, rate_pps: u64, seed: u64, mode: Mode) -> ScanConfig {
    let mut cfg = prefix_config(vantage(), space, space_len, &[port], rate_pps, seed);
    cfg.cooldown_secs = 2;
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

/// The stealth × rate × seed matrix, as `results/exp_attribution.json`.
fn matrix() -> String {
    let space = Ipv4Addr::new(10, 20, 0, 0);
    let darknet = Ipv4Addr::new(10, 20, 240, 0);
    let hyp = SpaceHypothesis::new(space, 65_536, &[80]);

    let mut cells = Vec::new();
    for mode in MODES {
        for rate in RATES {
            let mut cell = Cell::default();
            for seed in SEEDS {
                let cfg = scan_config(space, 16, 80, rate, seed, mode);
                let (_, capture) = run_darknet_scan(world(5, darknet, 20), cfg);
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
            cells.push(format!(
                "    {{\"mode\": \"{}\", \"rate_pps\": {rate}, \"scans\": {}, \
                 \"mean_window_observations\": {}, \"fingerprint_rate\": {:.4}, \
                 \"cryptanalytic_rate\": {:.4}, \"mean_confidence\": {:.4}}}",
                mode.name,
                cell.scans,
                cell.observations / SEEDS.len(),
                f64::from(cell.fingerprint_zmap) / n,
                f64::from(cell.cryptanalytic_zmap) / n,
                cell.confidence_sum / n,
            ));
        }
    }
    format!(
        "{{\n  \"bench\": \"attribution_stealth_tradeoff\",\n  \"darknet_density\": 0.0625,\n  \
         \"window_ms\": {},\n  \"seeds_per_cell\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        WINDOW_NS / 1_000_000,
        SEEDS.len(),
        cells.join(",\n")
    )
}

/// `--scenario` mode: run the arms a scenario file describes, once each,
/// and return the deterministic attribution report.
fn scenario(path: &str) -> Output {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |v: &serde_json::Value, key: &str| -> Result<u64, String> {
        v[key].as_u64().ok_or_else(|| format!("{path}: field {key} must be a number"))
    };
    let ip = |key: &str| -> Result<Ipv4Addr, String> {
        let text = spec[key].as_str().ok_or_else(|| format!("{path}: field {key} must be an IPv4 string"))?;
        text.parse().map_err(|e| format!("{path}: field {key}: {e}"))
    };
    let (space, darknet) = (ip("space")?, ip("darknet")?);
    let space_len = field(&spec, "space_len")? as u8;
    let port = field(&spec, "port")? as u16;
    let hyp = SpaceHypothesis::new(space, 1u64 << (32 - space_len), &[port]);

    let mut arms: Vec<(String, Vec<Attribution>)> = Vec::new();
    for arm in spec["arms"].as_array().ok_or_else(|| format!("{path}: arms must be an array"))? {
        let mode = Mode {
            name: "scenario",
            ip_id: match arm["ip_id"].as_str() {
                Some("static") => IpIdMode::Static,
                Some("random") => IpIdMode::Random,
                other => return Err(format!("{path}: arm ip_id {other:?}: expected static|random").into()),
            },
            rekey_blocks: field(arm, "rekey_blocks")? as u32,
        };
        let cfg = scan_config(space, space_len, port, field(&spec, "rate_pps")?, field(arm, "seed")?, mode);
        let world = world(field(&spec, "world_seed")?, darknet, field(&spec, "darknet_len")? as u8);
        let (_, capture) = run_darknet_scan(world, cfg);
        let name = arm["name"].as_str().ok_or_else(|| format!("{path}: arm name must be a string"))?;
        arms.push((name.to_string(), attribute(&capture, None, &hyp)));
    }
    let borrowed: Vec<(&str, &[Attribution])> =
        arms.iter().map(|(n, a)| (n.as_str(), a.as_slice())).collect();
    Ok(report_json(&borrowed))
}

/// The matrix with no arguments; with `--scenario FILE`, that scenario's
/// report, written to `--report OUT` if given.
pub fn run(args: &[String]) -> Output {
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(path) = flag_value("--scenario") else {
        return Ok(matrix());
    };
    let report = scenario(path)?;
    match flag_value("--report") {
        Some(out) => {
            std::fs::write(out, &report)?;
            Ok(format!("wrote {out}\n"))
        }
        None => Ok(report),
    }
}
