//! Batched TX must be invisible in every observable output.
//!
//! The batch size collapses per-probe transport calls into per-batch
//! ones, but each frame keeps its own scheduled virtual send time, so
//! the delivered world — and therefore the results stream, the
//! counters, and the world's own statistics — must be byte-identical
//! for any batch size. These tests pin that equivalence for both
//! engines, including a scheduled kill landing inside a batch.

use std::net::Ipv4Addr;
use zmap_core::parallel::run_parallel;
use zmap_core::transport::SimNet;
use zmap_core::{ScanConfig, Scanner};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{FaultPlan, ServiceModel, WorldConfig};

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

fn world_cfg(faults: FaultPlan) -> WorldConfig {
    WorldConfig {
        seed: 11,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        faults,
        ..WorldConfig::default()
    }
}

fn scan_cfg(batch: usize) -> ScanConfig {
    let mut cfg = ScanConfig::new(SRC);
    cfg.allowlist_prefix(Ipv4Addr::new(10, 10, 10, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;
    cfg.batch = batch;
    cfg
}

fn run_scanner(
    batch: usize,
    faults: FaultPlan,
) -> (zmap_core::ScanSummary, zmap_netsim::world::WorldStats) {
    let net = SimNet::new(world_cfg(faults));
    let s = Scanner::new(scan_cfg(batch), net.transport(SRC)).unwrap().run();
    let stats = net.with_world(|w| w.stats());
    (s, stats)
}

#[test]
fn scanner_results_identical_across_batch_sizes() {
    let (one, stats_one) = run_scanner(1, FaultPlan::default());
    for batch in [2, 7, 64, 1024] {
        let (b, stats_b) = run_scanner(batch, FaultPlan::default());
        assert_eq!(one.results, b.results, "results differ at batch={batch}");
        let (c1, cb) = (&one.metadata.counters, &b.metadata.counters);
        assert_eq!(c1.sent, cb.sent);
        assert_eq!(c1.targets_total, cb.targets_total);
        assert_eq!(c1.responses_validated, cb.responses_validated);
        assert_eq!(c1.unique_successes, cb.unique_successes);
        assert_eq!(c1.duplicates_suppressed, cb.duplicates_suppressed);
        assert_eq!(
            stats_one.frames_sent, stats_b.frames_sent,
            "world saw different traffic at batch={batch}"
        );
        assert_eq!(stats_one.frames_delivered, stats_b.frames_delivered);
    }
}

#[test]
fn scanner_double_runs_are_deterministic_on_both_paths() {
    for batch in [1, 64] {
        let (a, _) = run_scanner(batch, FaultPlan::default());
        let (b, _) = run_scanner(batch, FaultPlan::default());
        assert_eq!(a.results, b.results, "batch={batch} must replay exactly");
        assert_eq!(a.metadata.duration_ns, b.metadata.duration_ns);
        assert_eq!(a.status.len(), b.status.len());
        assert_eq!(a.metadata.to_json(), b.metadata.to_json());
    }
}

#[test]
fn early_kill_lands_on_the_same_ordinal_mid_batch() {
    // Kill ordinal 40 fires before the first response can be delivered
    // (first RTT ≥ ~10 ms; 40 probes at 100 kpps span 0.4 ms), so the
    // ordinal counts sends only and the kill point is batch-invariant:
    // exactly 39 frames leave whether they go one at a time or as the
    // front of a 64-frame batch.
    let kill = || FaultPlan::builder().kill_at(40).build();
    let (one, stats_one) = run_scanner(1, kill());
    let (batched, stats_b) = run_scanner(64, kill());
    assert!(one.killed && batched.killed);
    let (c1, cb) = (&one.metadata.counters, &batched.metadata.counters);
    assert_eq!(c1.sent, 39, "kill_at(40) admits 39 frames");
    assert_eq!(c1.sent, cb.sent);
    assert_eq!(c1.targets_total, cb.targets_total, "rollback to in-flight target");
    assert_eq!(stats_one.frames_sent, stats_b.frames_sent);
    assert_eq!(one.results, batched.results);
}

#[test]
fn parallel_results_identical_across_batch_sizes() {
    let run = |batch: usize| {
        let transport = SimNet::new(world_cfg(FaultPlan::default())).transport(SRC);
        let mut cfg = scan_cfg(batch);
        cfg.subshards = 4;
        let mut s = run_parallel(&cfg, &transport).unwrap();
        // Drain order may interleave across threads; content may not.
        s.results.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport));
        s
    };
    let one = run(1);
    for batch in [3, 64] {
        let b = run(batch);
        let (c1, cb) = (&one.metadata.counters, &b.metadata.counters);
        assert_eq!(c1.sent, cb.sent, "batch={batch}");
        assert_eq!(c1.unique_successes, cb.unique_successes);
        let key = |s: &zmap_core::ScanSummary| {
            s.results
                .iter()
                .map(|r| (r.ts_ns, r.saddr, r.sport))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&one), key(&b), "virtual timestamps differ at batch={batch}");
    }
}
