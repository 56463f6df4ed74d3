#![allow(clippy::print_stdout)]
//! Multiport scanning (the §4.1 redesign).
//!
//! ```text
//! cargo run --release --example multiport
//! ```
//!
//! Port diffusion (Izhikevich et al.) showed services live on a long
//! tail of ports — only 3% of HTTP is on port 80 — so ZMap's generator
//! now permutes (IP, port) *targets*: the top bits of each cyclic-group
//! element select the address, the bottom bits the port. This example
//! sweeps a /18 across eight ports in a single randomized pass and
//! breaks the results down per port.

use std::collections::BTreeMap;
use zmap::prelude::*;

fn main() {
    let net = SimNet::new(WorldConfig {
        seed: 77,
        ..WorldConfig::default()
    });
    let source = "192.0.2.44".parse().unwrap();
    let ports = vec![21, 22, 23, 80, 443, 7547, 8080, 8728];

    let mut cfg = ScanConfig::new(source);
    cfg.allowlist_prefix("100.128.0.0".parse().unwrap(), 18);
    cfg.ports = ports.clone();
    cfg.rate_pps = 500_000;
    cfg.seed = 99;
    // The multiport dedup structure: a 10^6-entry sliding window (the
    // full-bitmap alternative would need 35 TB for the 48-bit space).
    cfg.dedup = DedupMethod::Window(1_000_000);

    let scanner = Scanner::new(cfg, net.transport(source)).expect("valid config");
    let (ip_count, target_count) = {
        let gen = scanner.generator().expect("v4 scan");
        println!(
            "{} IPs x {} ports = {} targets, permuted in one group of order {}",
            gen.ip_count(),
            ports.len(),
            gen.target_count(),
            gen.cycle().group().order()
        );
        (gen.ip_count(), gen.target_count())
    };

    let summary = scanner.run();
    let c = &summary.metadata.counters;

    let mut per_port: BTreeMap<u16, u64> = BTreeMap::new();
    for r in &summary.results {
        *per_port.entry(r.sport).or_default() += 1;
    }
    println!("\nopen services per port:");
    for (port, count) in &per_port {
        let rate = *count as f64 / ip_count as f64 * 100.0;
        println!("  tcp/{port:<5} {count:>6} hosts ({rate:.2}% of scanned IPs)");
    }
    println!(
        "\ntotal: {} open (ip, port) targets out of {} probed",
        c.unique_successes, c.sent
    );
    assert_eq!(c.sent, target_count, "every target exactly once");
}
