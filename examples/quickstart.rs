#![allow(clippy::print_stdout)]
//! Quickstart: scan a /16 of the simulated Internet on TCP/80.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the core loop: configure → scan → stream results, plus
//! the completion metadata (stream #4) every scan produces.

use zmap::prelude::*;

fn main() {
    // The world: a procedurally generated Internet. Seed fixes everything.
    let net = SimNet::new(WorldConfig {
        seed: 2024,
        ..WorldConfig::default()
    });

    // The scan: 23.128.0.0/16 on TCP/80 at 100 kpps.
    let source = "192.0.2.9".parse().unwrap();
    let mut cfg = ScanConfig::new(source);
    cfg.allowlist_prefix("23.128.0.0".parse().unwrap(), 16);
    cfg.ports = vec![80];
    cfg.rate_pps = 100_000;
    cfg.seed = 7;

    let scanner = Scanner::new(cfg, net.transport(source)).expect("valid config");
    println!(
        "scanning {} targets (group modulus {})...",
        scanner.generator().expect("v4 scan").target_count(),
        scanner.generator().expect("v4 scan").cycle().group().prime()
    );
    let summary = scanner.run();
    let c = &summary.metadata.counters;

    println!("\nfirst 10 open hosts:");
    for r in summary.results.iter().take(10) {
        println!("  {}:{}  ttl={}", r.saddr, r.sport, r.ttl);
    }
    println!(
        "\nsent {} probes in {:.1}s (virtual), {} hosts with port 80 open ({:.2}% hitrate)",
        c.sent,
        summary.metadata.duration_ns as f64 / 1e9,
        c.unique_successes,
        100.0 * summary.hitrate()
    );
    println!(
        "duplicates suppressed: {}, stray/invalid frames ignored: {}",
        c.duplicates_suppressed, c.responses_discarded
    );
    println!("\nmetadata: {}", summary.metadata.to_json());
}
