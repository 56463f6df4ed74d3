//! Crash tolerance, end to end: the checkpoint journal's encode/decode
//! contract (property-tested), and kill-then-resume equivalence — a scan
//! killed at an arbitrary NIC event and resumed from its journal must
//! discover exactly the hosts an uninterrupted run discovers.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use zmap::core::checkpoint::{CheckpointPolicy, CheckpointState};
use zmap::core::metadata::{CounterId, Counters};
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;

fn arb_counters() -> impl Strategy<Value = Counters> {
    let width = CounterId::ALL.len();
    prop::collection::vec(any::<u64>(), width..width + 1).prop_map(|v| {
        let mut c = Counters::default();
        for (&id, &value) in CounterId::ALL.iter().zip(&v) {
            *c.get_mut(id) = value;
        }
        c
    })
}

fn arb_state() -> impl Strategy<Value = CheckpointState> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u32>(), 1u32..=64, any::<u64>()),
        prop::collection::vec(any::<u64>(), 1..16),
        (any::<u64>(), any::<bool>()),
        arb_counters(),
    )
        .prop_map(
            |(
                (config_digest, seed, group_prime, generator),
                (offset, shard, num_shards, dedup_high_water),
                positions,
                (virtual_time_ns, complete),
                counters,
            )| {
                CheckpointState {
                    config_digest,
                    seed,
                    group_prime,
                    generator,
                    offset,
                    shard,
                    num_shards,
                    num_subshards: positions.len() as u32,
                    positions,
                    dedup_high_water,
                    virtual_time_ns,
                    complete,
                    counters,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every journal the writer can produce, the reader accepts verbatim.
    #[test]
    fn journal_roundtrips_exactly(state in arb_state()) {
        let bytes = state.to_bytes();
        let back = CheckpointState::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, state);
    }

    /// Flipping any single bit anywhere in the journal — header, fields,
    /// positions, counters, or the checksum trailer itself — makes the
    /// whole file unreadable. A resume never acts on silent corruption.
    #[test]
    fn journal_rejects_any_bit_flip(state in arb_state(), which in any::<u64>()) {
        let mut bytes = state.to_bytes();
        let bit = (which % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            CheckpointState::from_bytes(&bytes).is_err(),
            "bit {} flipped undetected", bit
        );
    }
}

// ---------------------------------------------------------------------------
// Kill/resume equivalence.
// ---------------------------------------------------------------------------

const PREFIX: [u8; 2] = [66, 7];

fn scan_config(seed: u64) -> ScanConfig {
    let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
    cfg.allowlist_prefix(Ipv4Addr::new(PREFIX[0], PREFIX[1], 0, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.seed = seed;
    cfg.rate_pps = 1_000; // slow enough that sends and deliveries interleave
    cfg.cooldown_secs = 2;
    cfg.max_retries = 3;
    cfg
}

fn world(world_seed: u64, kill_at: Option<u64>) -> SimNet {
    let model = ServiceModel {
        live_fraction: 1.0, // port 80 open on a seed-dependent subset
        ..ServiceModel::default()
    };
    let faults = match kill_at {
        Some(k) => FaultPlan::builder().kill_at(k).build(),
        None => FaultPlan::none(),
    };
    SimNet::new(WorldConfig {
        seed: world_seed,
        model,
        faults,
        loss: LossModel::NONE,
        ..WorldConfig::default()
    })
}

fn discovered(summary: &ScanSummary) -> BTreeSet<(std::net::IpAddr, u16)> {
    summary.results.iter().map(|r| (r.saddr, r.sport)).collect()
}

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("zmap-ckpt-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Kills a scan at NIC event `kill_at`, resumes it from the journal on a
/// fault-free world with the same seed, and checks the union of the two
/// attempts' discoveries equals an uninterrupted run's — for kill points
/// in the send phase, near its end, and in mid-cooldown.
#[test]
fn kill_anywhere_then_resume_equals_uninterrupted() {
    for (world_seed, scan_seed, kill_at) in [
        (5u64, 11u64, 64u64),  // early: mid-send
        (5, 11, 250),          // late: last sends and first responses
        (5, 11, 420),          // mid-cooldown: all 256 sends done
        (77, 3, 64),
        (77, 3, 420),
    ] {
        let name = format!("kill-{world_seed}-{scan_seed}-{kill_at}.ckpt");
        let path = journal_path(&name);
        let policy = CheckpointPolicy::new(&path).with_interval_ns(10_000_000);

        // Ground truth: the same scan, never interrupted.
        let cfg = scan_config(scan_seed);
        let net = world(world_seed, None);
        let baseline = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)))
            .unwrap()
            .run();
        assert!(!baseline.killed);
        let want = discovered(&baseline);
        assert!(!want.is_empty());

        // Attempt 1: killed at the scheduled NIC event.
        let cfg = scan_config(scan_seed);
        let net = world(world_seed, Some(kill_at));
        let first = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy.clone()),
                ..RunOptions::default()
            });
        assert!(first.killed, "kill_at {kill_at} must fire");
        assert_eq!(first.metadata.counters.shutdown_clean, 0, "a killed scan is not clean");
        if kill_at >= 420 {
            assert_eq!(first.metadata.counters.sent, 256, "mid-cooldown kill: all sends done");
        }
        let journal = CheckpointState::load(&path).unwrap();
        assert!(!journal.complete);

        // Attempt 2: resume on a fault-free world with the same seed.
        let cfg = scan_config(scan_seed);
        let net = world(world_seed, None);
        let second = Scanner::resume(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)), &journal)
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy),
                ..RunOptions::default()
            });
        assert!(!second.killed);
        let c = &second.metadata.counters;
        assert_eq!((c.resume_count, c.shutdown_clean), (1, 1));
        assert!(c.sent >= 256, "cumulative sends cover the space");

        let mut got = discovered(&first);
        got.extend(discovered(&second));
        assert_eq!(
            got, want,
            "union of killed+resumed discoveries must equal uninterrupted \
             (world {world_seed}, scan {scan_seed}, kill_at {kill_at})"
        );

        let final_journal = CheckpointState::load(&path).unwrap();
        assert!(final_journal.complete);
        assert_eq!(final_journal.counters.resume_count, 1);
    }
}

/// A graceful interrupt (shutdown token) leaves a resumable journal and
/// well-formed streams; resuming finishes the scan with full coverage.
#[test]
fn graceful_interrupt_then_resume_covers_everything() {
    let path = journal_path("graceful.ckpt");
    let policy = CheckpointPolicy::new(&path).with_interval_ns(10_000_000);

    let cfg = scan_config(21);
    let net = world(9, None);
    let baseline = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)))
        .unwrap()
        .run();
    let want = discovered(&baseline);

    // Interrupt before the first probe: the cleanest possible shutdown.
    let token = ShutdownToken::new();
    token.request();
    let cfg = scan_config(21);
    let net = world(9, None);
    let first = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)))
        .unwrap()
        .run_with(RunOptions {
            checkpoint: Some(policy.clone()),
            shutdown: Some(token),
            ..RunOptions::default()
        });
    let c = &first.metadata.counters;
    assert!(!first.killed);
    assert_eq!(c.sent, 0, "interrupt honored at the cycle boundary");
    assert_eq!(c.shutdown_clean, 1, "an interrupt is still orderly");
    // The metadata stream is well-formed even for an empty attempt.
    assert!(first.metadata.to_json().contains("\"counters\""));

    let journal = CheckpointState::load(&path).unwrap();
    assert!(!journal.complete, "interrupted scans resume where they left off");

    let cfg = scan_config(21);
    let net = world(9, None);
    let second = Scanner::resume(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 1)), &journal)
        .unwrap()
        .run_with(RunOptions {
            checkpoint: Some(policy),
            ..RunOptions::default()
        });
    assert_eq!(discovered(&second), want);
    assert!(CheckpointState::load(&path).unwrap().complete);
}
