//! Integration: scans against faulted worlds. Exercises the full loop —
//! FaultPlan schedules impairments inside the simulated Internet, the
//! scanner's retry/dedup/checksum machinery absorbs them, and the
//! counters in the summary/metadata account for every perturbation.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use zmap::prelude::*;
use zmap_netsim::loss::LossModel;

/// Extracts the v4 address from a record; these scans are v4-only.
fn v4(ip: std::net::IpAddr) -> u32 {
    match ip {
        std::net::IpAddr::V4(v4) => u32::from(v4),
        std::net::IpAddr::V6(v6) => panic!("unexpected v6 record {v6}"),
    }
}

/// A lossless dense world (every host live, port 80 open, option-
/// insensitive) so fault effects can be counted exactly.
fn dense_world(seed: u64, faults: FaultPlan) -> WorldConfig {
    WorldConfig {
        seed,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        faults,
        ..WorldConfig::default()
    }
}

fn cfg_for(prefix: Ipv4Addr, len: u8) -> ScanConfig {
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(prefix, len);
    cfg.apply_default_blocklist = false;
    cfg.rate_pps = 1_000_000;
    cfg.seed = 11;
    cfg.cooldown_secs = 2;
    cfg
}

fn scan(world: WorldConfig, cfg: ScanConfig) -> ScanSummary {
    let net = SimNet::new(world);
    let src = cfg.source_ip;
    Scanner::new(cfg, net.transport(src)).unwrap().run()
}

#[test]
fn duplicated_responses_are_suppressed_by_the_window() {
    let plan = FaultPlan::builder().duplicate(0.25).build();
    let summary = scan(
        dense_world(5, plan),
        cfg_for(Ipv4Addr::new(55, 44, 0, 0), 24),
    );
    let c = &summary.metadata.counters;
    assert_eq!(c.sent, 256);
    assert_eq!(c.unique_successes, 256, "dups must not cost coverage");
    assert!(
        c.duplicates_suppressed > 20,
        "fraction 0.25 of 256 responses must duplicate: {}",
        c.duplicates_suppressed
    );
    // Every validated response is either the first sighting or a dup.
    assert_eq!(
        c.responses_validated,
        256 + c.duplicates_suppressed
    );
    // The output stream itself carries no duplicates.
    let mut seen = HashSet::new();
    for r in &summary.results {
        assert!(seen.insert((r.saddr, r.sport)), "{} twice", r.saddr);
    }
}

#[test]
fn corrupted_responses_never_reach_the_output() {
    // Half of all responses take a bit flip; checksum validation must
    // reject every one, so the flipped targets read as misses and the
    // output contains only genuine records.
    let plan = FaultPlan::builder().corrupt(0.5).build();
    let summary = scan(
        dense_world(6, plan),
        cfg_for(Ipv4Addr::new(55, 44, 0, 0), 24),
    );
    let c = &summary.metadata.counters;
    assert!(
        c.responses_corrupted > 60,
        "corruption must be observed: {}",
        c.responses_corrupted
    );
    // Exactly one response per target in this world: flips caught by a
    // checksum are counted, flips that mangle the IP header itself (dst
    // address, IHL…) fail to parse and are silently discarded — either
    // way the target reads as a miss, never as a bogus record.
    assert!(c.unique_successes < 256, "flipped targets must be missed");
    assert!(
        c.unique_successes + c.responses_corrupted <= 256,
        "corrupted frames must never also validate"
    );
    // Nothing corrupt leaked: all records are real dense-world hosts.
    for r in &summary.results {
        let ip = v4(r.saddr);
        assert_eq!(ip >> 8, 0x372C00, "{} outside the scanned /24", r.saddr);
        assert_eq!(r.sport, 80);
        assert!(r.success);
    }
}

#[test]
fn blackout_ranges_show_as_misses() {
    // 55.44.1.0/24 goes dark for the whole scan; its /23 sibling stays up.
    let plan = FaultPlan::builder()
        .blackout(Ipv4Addr::new(55, 44, 1, 0), 24, 0, u64::MAX)
        .build();
    let summary = scan(
        dense_world(7, plan),
        cfg_for(Ipv4Addr::new(55, 44, 0, 0), 23),
    );
    let c = &summary.metadata.counters;
    assert_eq!(c.sent, 512, "probes into the blackout still count as sent");
    assert_eq!(c.unique_successes, 256, "only the lit /24 answers");
    for r in &summary.results {
        assert_eq!(
            v4(r.saddr) >> 8,
            0x372C00,
            "{} is inside the blacked-out range",
            r.saddr
        );
    }
}

#[test]
fn retries_recover_transient_send_failures() {
    // 30% of send attempts fail with EAGAIN. A retry budget of 8 makes
    // the chance of losing any probe negligible (0.3^9 per target).
    let plan = FaultPlan::builder().send_failures(0.3).build();
    let mut cfg = cfg_for(Ipv4Addr::new(55, 44, 0, 0), 24);
    cfg.max_retries = 8;
    let summary = scan(dense_world(8, plan.clone()), cfg);
    let c = &summary.metadata.counters;
    assert_eq!(c.sent, 256, "every probe eventually leaves the NIC");
    assert_eq!(c.sent, c.targets_total);
    assert!(c.send_retries > 40, "retries: {}", c.send_retries);
    assert_eq!(c.sendto_failures, 0);
    assert_eq!(c.unique_successes, 256);

    // With no retry budget the same plan visibly drops probes.
    let mut cfg = cfg_for(Ipv4Addr::new(55, 44, 0, 0), 24);
    cfg.max_retries = 0;
    let summary = scan(dense_world(8, plan), cfg);
    let c = &summary.metadata.counters;
    assert!(c.sendto_failures > 40, "{}", c.sendto_failures);
    assert_eq!(c.sent + c.sendto_failures, 256);
    assert_eq!(c.unique_successes, c.sent);
}

#[test]
fn icmp_storm_converts_successes_into_failures() {
    // A storm window covering the whole scan: consumed probes come back
    // as host-unreachables instead of SYN-ACKs.
    let plan = FaultPlan::builder().icmp_storm(0, u64::MAX, 0.4).build();
    let mut cfg = cfg_for(Ipv4Addr::new(55, 44, 0, 0), 24);
    cfg.report_failures = true;
    let summary = scan(dense_world(9, plan), cfg);
    let c = &summary.metadata.counters;
    assert!(c.unique_failures > 50, "{}", c.unique_failures);
    assert_eq!(
        c.unique_successes + c.unique_failures,
        256,
        "every probe is answered: SYN-ACK or storm ICMP"
    );
}

#[test]
fn acceptance_lossy_network_scenario() {
    // The issue's acceptance bar: 5% burst loss + 2% duplication +
    // 1-in-10^4 corruption. The scan completes, the output carries zero
    // corrupted records, dedup visibly works, the fault counters surface
    // in both the status stream and the metadata, and the whole thing
    // replays byte-identically under the same seed.
    let plan = FaultPlan::builder()
        .salt(17)
        .burst_loss(0, u64::MAX, 0.05)
        .duplicate(0.02)
        .corrupt(0.0001)
        .send_failures(0.05)
        .build();
    let run = || {
        let mut cfg = cfg_for(Ipv4Addr::new(55, 44, 0, 0), 20);
        cfg.max_retries = 6;
        scan(dense_world(10, plan.clone()), cfg)
    };
    let a = run();
    let ca = &a.metadata.counters;

    assert_eq!(ca.sent, 4096, "retries absorb every transient send failure");
    assert!(ca.send_retries > 0);
    assert_eq!(ca.sendto_failures, 0);
    assert!(ca.duplicates_suppressed > 0, "2% duplication must show up");
    // Burst loss hits the probe and the response independently, so the
    // effective miss rate is ~1 - 0.95^2 ≈ 9.75%.
    assert!(
        ca.unique_successes > 3400 && ca.unique_successes < 3950,
        "burst loss leaves misses: {}",
        ca.unique_successes
    );
    // Zero corrupted records: every output row is a unique genuine host.
    let mut seen = HashSet::new();
    for r in &a.results {
        assert!(r.success);
        assert!(seen.insert((r.saddr, r.sport)));
        assert_eq!(v4(r.saddr) >> 12, 0x372C0, "{}", r.saddr);
    }

    // Counters surface in the status stream…
    let last = a.status.last().expect("scan spans whole seconds");
    assert_eq!(last.counters.send_retries, ca.send_retries);
    assert_eq!(last.counters.duplicates_suppressed, ca.duplicates_suppressed);
    // …and in the metadata document.
    let meta = a.metadata.to_json();
    assert!(meta.contains("\"send_retries\""), "{meta}");
    assert!(meta.contains("\"sendto_failures\""), "{meta}");
    assert!(meta.contains("\"responses_corrupted\""), "{meta}");

    // Same seed, same plan: byte-identical replay.
    let b = run();
    let cb = &b.metadata.counters;
    assert_eq!(ca.sent, cb.sent);
    assert_eq!(ca.send_retries, cb.send_retries);
    assert_eq!(ca.duplicates_suppressed, cb.duplicates_suppressed);
    assert_eq!(ca.responses_corrupted, cb.responses_corrupted);
    let ra: Vec<_> = a.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
    let rb: Vec<_> = b.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
    assert_eq!(ra, rb);
}
