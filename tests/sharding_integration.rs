//! Integration: multi-machine sharded scans partition the target space
//! exactly — for both sharding algorithms, with threads, and multiport.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use zmap::prelude::*;
use zmap_netsim::loss::LossModel;

fn run_shard(
    alg: ShardAlgorithm,
    shard: u32,
    num_shards: u32,
    subshards: u32,
    ports: &[u16],
) -> ScanSummary {
    let net = SimNet::new(WorldConfig {
        seed: 21,
        model: ServiceModel::dense(ports),
        loss: LossModel::NONE,
        ..WorldConfig::default()
    });
    let src = Ipv4Addr::new(192, 0, 2, 50 + shard as u8);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(77, 30, 0, 0), 20); // 4096 IPs
    cfg.apply_default_blocklist = false;
    cfg.ports = ports.to_vec();
    cfg.rate_pps = 1_000_000;
    cfg.seed = 777; // same permutation on every machine
    cfg.shard = shard;
    cfg.num_shards = num_shards;
    cfg.subshards = subshards;
    cfg.shard_algorithm = alg;
    cfg.cooldown_secs = 2;
    Scanner::new(cfg, net.transport(src)).unwrap().run()
}

fn assert_exact_partition(alg: ShardAlgorithm, num_shards: u32, subshards: u32, ports: &[u16]) {
    let expected = 4096 * ports.len() as u64;
    let mut union = HashSet::new();
    let mut sent = 0u64;
    for shard in 0..num_shards {
        let s = run_shard(alg, shard, num_shards, subshards, ports);
        sent += s.metadata.counters.sent;
        for r in &s.results {
            assert!(
                union.insert((r.saddr, r.sport)),
                "{alg:?}: {}:{} found by two shards",
                r.saddr,
                r.sport
            );
        }
    }
    assert_eq!(sent, expected, "{alg:?}: probes must cover space exactly");
    assert_eq!(union.len() as u64, expected, "{alg:?}: dense world finds all");
}

#[test]
fn pizza_three_machines_two_threads() {
    assert_exact_partition(ShardAlgorithm::Pizza, 3, 2, &[80]);
}

#[test]
fn interleaved_three_machines_two_threads() {
    assert_exact_partition(ShardAlgorithm::Interleaved, 3, 2, &[80]);
}

#[test]
fn pizza_multiport_five_machines() {
    assert_exact_partition(ShardAlgorithm::Pizza, 5, 1, &[80, 443]);
}

#[test]
fn interleaved_multiport_awkward_counts() {
    // 7 machines × 3 threads over a non-dividing space: the historical
    // off-by-one territory.
    assert_exact_partition(ShardAlgorithm::Interleaved, 7, 3, &[80, 443, 8080]);
}

#[test]
fn algorithms_cover_identical_sets_in_different_orders() {
    let a = run_shard(ShardAlgorithm::Pizza, 0, 1, 1, &[80]);
    let b = run_shard(ShardAlgorithm::Interleaved, 0, 1, 1, &[80]);
    let sa: HashSet<_> = a.results.iter().map(|r| r.saddr).collect();
    let sb: HashSet<_> = b.results.iter().map(|r| r.saddr).collect();
    assert_eq!(sa, sb, "same space, same coverage");
}
