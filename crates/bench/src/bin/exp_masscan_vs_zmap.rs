#![allow(clippy::print_stdout)]
//! §3 experiment — Masscan finds notably fewer hosts than ZMap.
//!
//! Paper (citing Adrian et al.): "despite following a similar high-level
//! approach, Masscan finds notably fewer hosts than ZMap, likely due to
//! biases in its randomization algorithm."
//!
//! Reproduction: scan the same /14 on TCP/80 with the same probe budget.
//! The Masscan baseline combines the two modeled deficits: the early
//! Blackrock's non-bijective shuffle (some targets probed twice, others
//! never) and optionless SYN probes (dropped by option-requiring hosts).
//! A "fixed randomizer" row isolates the randomization component.

use bench::{pct, print_table, vantage};
use std::net::Ipv4Addr;
use zmap_core::transport::SimNet;
use zmap_core::{ScanConfig, Scanner};
use zmap_masscan::{MasscanConfig, MasscanScanner};
use zmap_netsim::{ServiceModel, WorldConfig};
use zmap_targets::Constraint;

const PREFIX: u32 = 0x33400000; // 51.64.0.0
const LEN: u8 = 14;

fn world() -> WorldConfig {
    let model = ServiceModel {
        live_fraction: 0.10,
        ..ServiceModel::default()
    };
    WorldConfig {
        seed: 47,
        model,
        ..WorldConfig::default()
    }
}

fn zmap_run() -> (u64, u64) {
    let net = SimNet::new(world());
    let src = vantage();
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::from(PREFIX), LEN);
    cfg.apply_default_blocklist = false;
    cfg.ports = vec![80];
    cfg.rate_pps = 2_000_000;
    cfg.seed = 5;
    cfg.cooldown_secs = 3;
    let s = Scanner::new(cfg, net.transport(src)).expect("valid config").run();
    (s.sent, s.unique_successes)
}

fn masscan_run(legacy: bool) -> (u64, u64, u64) {
    let net = SimNet::new(world());
    let src = vantage();
    let mut cfg = MasscanConfig::new(src);
    let mut allow = Constraint::new(false);
    allow.set_prefix(PREFIX, LEN, true);
    cfg.constraint = allow;
    cfg.rate_pps = 2_000_000;
    cfg.seed = 5;
    cfg.cooldown_secs = 3;
    cfg.legacy_randomizer = legacy;
    let s = MasscanScanner::new(cfg, net.transport(src))
        .expect("valid config")
        .run();
    (s.sent, s.unique_open, s.distinct_probed)
}

fn main() {
    println!("§3: ZMap vs Masscan on the same /14, TCP/80, equal budget\n");
    let (z_sent, z_found) = zmap_run();
    let (m_sent, m_found, m_distinct) = masscan_run(true);
    let (f_sent, f_found, f_distinct) = masscan_run(false);

    let rows = vec![
        vec![
            "zmap (cyclic group, MSS)".into(),
            z_sent.to_string(),
            z_sent.to_string(),
            z_found.to_string(),
            "baseline".into(),
        ],
        vec![
            "masscan (legacy blackrock, no opts)".into(),
            m_sent.to_string(),
            m_distinct.to_string(),
            m_found.to_string(),
            pct((z_found as f64 - m_found as f64) / z_found as f64),
        ],
        vec![
            "masscan (fixed blackrock, no opts)".into(),
            f_sent.to_string(),
            f_distinct.to_string(),
            f_found.to_string(),
            pct((z_found as f64 - f_found as f64) / z_found as f64),
        ],
    ];
    print_table(
        &["scanner", "probes", "distinct targets", "hosts found", "deficit"],
        &rows,
    );
    println!("\nexpected shape: masscan finds notably fewer (a few percent);");
    println!("the fixed-randomizer row shows the residual deficit from");
    println!("optionless probes alone, the legacy row adds skipped targets.");
}
