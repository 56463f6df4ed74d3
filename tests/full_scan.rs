//! Integration: complete scans over the simulated Internet, checking the
//! engine-level invariants the paper's methodology depends on.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use zmap::prelude::*;
use zmap_netsim::loss::LossModel;
use zmap_netsim::profile::{host_profile, port_open};

fn sparse_world(seed: u64) -> WorldConfig {
    // Ground-truth accounting below enumerates hosts only; keep packed
    // middlebox prefixes out of this world (they are exercised by the
    // L7 tests and exp_l4_l7).
    let model = ServiceModel {
        live_fraction: 0.2,
        middlebox_fraction: 0.0,
        ..ServiceModel::default()
    };
    WorldConfig {
        seed,
        model,
        loss: LossModel::NONE,
        ..WorldConfig::default()
    }
}

fn scan(world: WorldConfig, seed: u64, ports: &[u16]) -> ScanSummary {
    let net = SimNet::new(world);
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(55, 44, 0, 0), 17);
    cfg.apply_default_blocklist = false;
    cfg.ports = ports.to_vec();
    cfg.rate_pps = 1_000_000;
    cfg.seed = seed;
    cfg.cooldown_secs = 2;
    Scanner::new(cfg, net.transport(src)).unwrap().run()
}

#[test]
fn scan_results_match_ground_truth_exactly() {
    // With no loss, the scanner must find exactly the hosts the
    // procedural population says are live with the port open and
    // reachable by an MSS-bearing SYN.
    let world = sparse_world(9);
    let summary = scan(world.clone(), 3, &[80]);

    let mut expected = HashSet::new();
    for i in 0..(1u32 << 15) {
        let ip = 0x372C0000u32 + i; // 55.44.0.0/17
        if let Some(p) = host_profile(world.seed, ip, &world.model) {
            if port_open(world.seed, ip, 80, &world.model) {
                // MSS-only probes carry one option: only the multi-option
                // and OS-ordering tails won't answer.
                use zmap_netsim::profile::OptionSensitivity::*;
                match p.sensitivity {
                    AcceptsAny | RequiresAnyOption => {
                        expected.insert(Ipv4Addr::from(ip));
                    }
                    RequiresMultiOption | RequiresOsOrdering => {}
                }
            }
        }
    }
    let found: HashSet<Ipv4Addr> = summary
        .results
        .iter()
        .filter_map(|r| match r.saddr {
            std::net::IpAddr::V4(v4) => Some(v4),
            std::net::IpAddr::V6(_) => None,
        })
        .collect();
    assert_eq!(found, expected, "scanner output must equal ground truth");
    assert_eq!(summary.metadata.counters.sent, 1 << 15);
}

#[test]
fn hitrates_are_internet_plausible() {
    // Default model, default ports: hitrate should be ~1% (port 80 on
    // the real Internet is ~1.2-1.5% of all IPv4).
    let summary = scan(
        WorldConfig {
            seed: 4,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        },
        1,
        &[80],
    );
    let hit = summary.hitrate();
    assert!(hit > 0.005 && hit < 0.03, "hitrate {hit}");
}

#[test]
fn deterministic_across_runs() {
    let a = scan(sparse_world(5), 2, &[80, 443]);
    let b = scan(sparse_world(5), 2, &[80, 443]);
    let (ca, cb) = (&a.metadata.counters, &b.metadata.counters);
    assert_eq!((ca.sent, ca.unique_successes), (cb.sent, cb.unique_successes));
    let ra: Vec<_> = a.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
    let rb: Vec<_> = b.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
    assert_eq!(ra, rb, "identical seeds must replay identically");
}

#[test]
fn no_duplicate_targets_in_output() {
    let summary = scan(sparse_world(6), 7, &[80, 443, 8080]);
    let mut seen = HashSet::new();
    for r in &summary.results {
        assert!(seen.insert((r.saddr, r.sport)), "{}:{} twice", r.saddr, r.sport);
    }
}

#[test]
fn icmp_and_tcp_find_consistent_populations() {
    // Echo scan finds live hosts; SYN scan finds live hosts with the
    // port open — a strict subset (all respond in a lossless world).
    let world = sparse_world(8);
    let tcp = scan(world.clone(), 1, &[80]);
    let net = SimNet::new(world);
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(55, 44, 0, 0), 17);
    cfg.apply_default_blocklist = false;
    cfg.probe = ProbeKind::IcmpEcho;
    cfg.rate_pps = 1_000_000;
    cfg.cooldown_secs = 2;
    let icmp = Scanner::new(cfg, net.transport(src)).unwrap().run();
    let (icmp, tcp) = (
        icmp.metadata.counters.unique_successes,
        tcp.metadata.counters.unique_successes,
    );
    assert!(icmp > tcp, "more hosts answer ping ({icmp}) than have port 80 open ({tcp})");
}

#[test]
fn loss_shapes_match_wan_et_al() {
    // Single-probe scan under the default loss model misses ~2.7%.
    let world_lossless = sparse_world(12);
    let truth = scan(world_lossless, 3, &[80]).metadata.counters.unique_successes as f64;
    let mut lossy_world = sparse_world(12);
    lossy_world.loss = LossModel::default();
    let found = scan(lossy_world, 3, &[80]).metadata.counters.unique_successes as f64;
    let miss = 1.0 - found / truth;
    // Bounds are loose: the exact value depends on where transient-loss
    // draws land in the (seed-derived) probe order.
    assert!(miss > 0.010 && miss < 0.045, "miss rate {miss}");
}

#[test]
fn sampled_rtt_equals_the_simulators_ground_truth() {
    // Every address live, nothing lost, failures reported: each probe
    // draws one first response and one row. The engine measures the
    // targets `rtt_sampled` picks; the world records every delivery.
    use zmap::core::metrics::{rtt_sampled, RTT_SAMPLE_ONE_IN};
    use zmap::core::parallel::run_parallel;
    use zmap::metrics::bucket_index;

    let world = WorldConfig {
        seed: 12,
        model: ServiceModel {
            live_fraction: 1.0,
            middlebox_fraction: 0.0,
            blowback_fraction: 0.0,
            ..ServiceModel::default()
        },
        loss: LossModel::NONE,
        ..WorldConfig::default()
    };
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(55, 44, 0, 0), 16);
    cfg.apply_default_blocklist = false;
    cfg.ports = vec![80];
    cfg.rate_pps = 1_000_000;
    cfg.seed = 5;
    cfg.cooldown_secs = 2;
    cfg.report_failures = true;

    let inline = || {
        let net = SimNet::new(world.clone());
        let summary = Scanner::new(cfg.clone(), net.transport(src)).unwrap().run();
        (summary, net.with_world(|w| w.delivery_latency().snapshot()))
    };
    let (summary, truth) = inline();
    let rtt = &summary.metadata.histograms["probe_rtt_ns"];

    let c = &summary.metadata.counters;
    let validated = c.unique_successes + c.unique_failures;
    assert_eq!(summary.results.len() as u64, validated);
    assert!(validated > 40_000, "a dense world answers most probes: {validated}");
    let sampled = summary
        .results
        .iter()
        .filter(|r| match r.saddr {
            std::net::IpAddr::V4(ip) => rtt_sampled(zmap::dedup::target_key(ip.into(), r.sport)),
            std::net::IpAddr::V6(_) => false,
        })
        .count() as u64;
    assert_eq!(rtt.count, sampled, "one sample per sampled target that answered");
    assert_eq!(summary.metadata.rtt_sample_one_in, 64);
    let (n, p) = (validated as f64, 1.0 / RTT_SAMPLE_ONE_IN as f64);
    let sigma = (n * p * (1.0 - p)).sqrt();
    assert!(
        (sampled as f64 - n * p).abs() < 5.0 * sigma,
        "{sampled} sampled of {validated}: expected {:.0} ± {sigma:.1}",
        n * p
    );
    assert!(truth.min <= rtt.min && rtt.max <= truth.max, "{rtt:?} outside {truth:?}");
    assert_eq!(bucket_index(rtt.p50), bucket_index(truth.p50));

    // The sample is a function of the targets, not of the run or the driver.
    let registry = |s: &ScanSummary| {
        let md = &s.metadata;
        (md.histograms.clone(), md.trace.clone(), md.rtt_sample_one_in)
    };
    assert_eq!(registry(&inline().0), registry(&summary));
    let threaded = run_parallel(&cfg, &SimNet::new(world.clone()).transport(src)).unwrap();
    assert_eq!(registry(&threaded), registry(&summary));
}
