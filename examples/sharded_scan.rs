#![allow(clippy::print_stdout)]
//! Sharded scanning across "machines" and "threads" (§4.2).
//!
//! ```text
//! cargo run --release --example sharded_scan
//! ```
//!
//! Three simulated machines, two send threads each, split one /16 scan
//! with pizza sharding. Every machine walks the same cyclic group with
//! the same seed but probes only its slice; the union covers every
//! target exactly once with no coordination.

use std::collections::HashSet;
use zmap::prelude::*;

fn main() {
    let shards = 3u32;
    let mut union: HashSet<(std::net::IpAddr, u16)> = HashSet::new();
    let mut total_sent = 0u64;
    let mut total_found = 0u64;

    for shard in 0..shards {
        // Each machine gets its own vantage on a fresh-but-identical
        // world (same world seed ⇒ same host population).
        let net = SimNet::new(WorldConfig {
            seed: 1234,
            ..WorldConfig::default()
        });
        let source = std::net::Ipv4Addr::new(192, 0, 2, 10 + shard as u8);
        let mut cfg = ScanConfig::new(source);
        cfg.allowlist_prefix("45.80.0.0".parse().unwrap(), 16);
        cfg.ports = vec![443];
        cfg.rate_pps = 200_000;
        cfg.seed = 42; // same seed on every machine: that IS the protocol
        cfg.shard = shard;
        cfg.num_shards = shards;
        cfg.subshards = 2;
        cfg.shard_algorithm = ShardAlgorithm::Pizza;

        let summary = Scanner::new(cfg, net.transport(source))
            .expect("valid config")
            .run();
        let c = &summary.metadata.counters;
        println!(
            "machine {shard}: sent {:>6} probes, found {:>5} open",
            c.sent, c.unique_successes
        );
        total_sent += c.sent;
        total_found += c.unique_successes;
        for r in &summary.results {
            assert!(
                union.insert((r.saddr, r.sport)),
                "shard overlap at {}:{}",
                r.saddr,
                r.sport
            );
        }
    }

    println!("\nunion: {total_sent} probes covered the full /16 exactly once");
    println!("total open hosts across shards: {total_found}");
    assert_eq!(total_sent, 65536, "3 shards x 2 threads = whole space");
    assert_eq!(union.len() as u64, total_found);
}
