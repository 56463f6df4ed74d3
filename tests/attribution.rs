//! Adversarial attribution matrix: the scanner and the telescope play
//! against each other, end to end, over the simulated Internet.
//!
//! One scenario (a /16 scan whose top /20 is a darknet) runs three ways:
//!
//! * **static IP-ID** — the classic ZMap fingerprint; stage 1 catches it.
//! * **random IP-ID** — the fingerprint is gone, but the cyclic walk is
//!   intact; stage 2 recovers the scanner's exact group parameters from
//!   the darknet hit order alone.
//! * **`--stealth`** (random IP-ID + per-block permutation re-keying) —
//!   both stages come up empty, while the scan still achieves identical
//!   coverage (validation is decoupled from the walk).
//!
//! A golden snapshot pins the full attribution report byte-for-byte
//! (regenerate with `UPDATE_GOLDEN=1 cargo test --test attribution`),
//! and kill/resume runs prove stealth and Blackrock scans stay
//! checkpointable. The telescope also classifies the engine's own frames
//! under each IP-ID rule, Masscan's included.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use zmap::core::plan::ScanPlan;
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;
use zmap::telescope::fingerprint::{classify_frame, Fingerprint, ProbeInfo};
use zmap::telescope::{report_json, Attribution, AttributionMethod, ScanDetector, SpaceHypothesis};
use zmap::wire::ipv4::masscan_ip_id;
use zmap::wire::OptionLayout;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);
/// The scanned space: 10.20.0.0/16, port 80 → a 65536-candidate pool,
/// walked in the 65537 multiplicative group.
const SPACE: Ipv4Addr = Ipv4Addr::new(10, 20, 0, 0);
/// The telescope: the top /20 of the space — 4096 addresses, so the
/// darknet sees 1/16 of the walk.
const DARKNET: (Ipv4Addr, u8) = (Ipv4Addr::new(10, 20, 240, 0), 20);

fn world() -> WorldConfig {
    WorldConfig {
        seed: 5,
        model: ServiceModel::default(),
        loss: LossModel::NONE,
        faults: FaultPlan::none(),
        darknet: Some((u32::from(DARKNET.0), DARKNET.1)),
        ..WorldConfig::default()
    }
}

fn scan_config(rekey_blocks: u32) -> ScanConfig {
    let mut cfg = ScanConfig::new(SRC);
    cfg.allowlist_prefix(SPACE, 16);
    cfg.apply_default_blocklist = false;
    cfg.seed = 7;
    cfg.rate_pps = 1_000_000;
    cfg.cooldown_secs = 2;
    cfg.walk = Walk::rekeyed(rekey_blocks);
    cfg
}

/// Runs one scan and returns the engine's summary plus what the darknet
/// captured, in arrival order.
fn scan_and_capture(cfg: ScanConfig) -> (ScanSummary, Vec<Vec<u8>>) {
    let net = SimNet::new(world());
    let summary = Scanner::new(cfg, net.transport(SRC)).unwrap().run();
    assert!(!summary.killed);
    let frames = net.with_world(|w| w.take_darknet_capture());
    (summary, frames.into_iter().map(|(_, f)| f).collect())
}

fn detect(frames: &[Vec<u8>]) -> ScanDetector {
    let mut det = ScanDetector::with_sequence_capture(8192);
    for f in frames {
        det.ingest_frame(f);
    }
    det
}

/// The analyst's guess: the enclosing /16 on the observed port.
fn hypothesis() -> SpaceHypothesis {
    SpaceHypothesis::new(SPACE, 65_536, &[80])
}

/// The ground-truth oracle: the generator the scanner actually walked
/// with, introspected from the plan the same config builds.
fn true_generator(cfg: &ScanConfig) -> u64 {
    match ScanPlan::build(cfg, None).unwrap() {
        ScanPlan::V4(gen) => gen.cycle().generator(),
        ScanPlan::V6(_) => unreachable!("v4 scenario"),
    }
}

fn the_scan(attrs: &[Attribution]) -> &Attribution {
    assert_eq!(attrs.len(), 1, "one scanner, one flow: {attrs:?}");
    &attrs[0]
}

// ---------------------------------------------------------------------------
// Golden-snapshot plumbing (mirrors tests/golden_outputs.rs).
// ---------------------------------------------------------------------------

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}; run UPDATE_GOLDEN=1 cargo test --test attribution",
            path.display()
        )
    });
    if expected != actual {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-actual");
        std::fs::create_dir_all(&dir).expect("create golden-actual dir");
        let actual_path = dir.join(format!("{name}.txt"));
        std::fs::write(&actual_path, actual).expect("write actual snapshot");
        panic!(
            "golden snapshot {name} drifted; actual written to {}\n\
             if the change is intentional: UPDATE_GOLDEN=1 cargo test --test attribution",
            actual_path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// The adversarial matrix.
// ---------------------------------------------------------------------------

/// All three arms share one scenario, so one test runs them: per-arm
/// verdicts, the stealth-coverage equivalence, the golden report, and a
/// full re-run of the hardest arm proving the pipeline is deterministic
/// end to end.
#[test]
fn adversarial_matrix_with_golden_report() {
    let hyp = hypothesis();

    // Arm 1: static IP-ID. Stage 1 (fingerprint vote) settles it.
    let mut cfg = scan_config(0);
    cfg.ip_id = IpIdMode::Static;
    let (_, frames) = scan_and_capture(cfg);
    assert_eq!(frames.len(), 4096, "every darknet probe is captured");
    let static_attrs = detect(&frames).attributions(&hyp);
    let a = the_scan(&static_attrs);
    assert_eq!(a.tool, Fingerprint::ZMap);
    assert_eq!(a.method, AttributionMethod::Fingerprint);
    assert!(a.confidence > 0.999, "every probe votes ZMap: {a:?}");

    // Arm 2: random IP-ID. The fingerprint is gone — stage 2 recovers
    // the scanner's exact walk parameters from probe order alone.
    let cfg = scan_config(0);
    let want_generator = true_generator(&cfg);
    let (random_summary, frames) = scan_and_capture(cfg);
    let random_attrs = detect(&frames).attributions(&hyp);
    let a = the_scan(&random_attrs);
    assert_eq!(a.tool, Fingerprint::ZMap, "caught despite random IP-ID");
    assert_eq!(a.method, AttributionMethod::Cryptanalytic);
    assert!(a.confidence >= 0.95, "walk order explains the hits: {a:?}");
    let r = a.recovered.expect("cryptanalytic verdicts carry evidence");
    assert_eq!(r.prime, 65_537);
    assert_eq!(
        r.generator, want_generator,
        "the telescope recovers the scanner's actual generator"
    );

    // Arm 3: --stealth (random IP-ID + 16-block re-keying). Both stages
    // fail; the scan itself loses nothing.
    let cfg = scan_config(16);
    let (stealth_summary, frames) = scan_and_capture(cfg);
    assert_eq!(frames.len(), 4096, "re-keying still covers the space");
    let stealth_attrs = detect(&frames).attributions(&hyp);
    let a = the_scan(&stealth_attrs);
    assert_eq!(a.tool, Fingerprint::Unknown);
    assert_eq!(a.method, AttributionMethod::Unattributed);
    assert!(a.confidence < 0.5, "re-keyed walk must not attribute: {a:?}");
    let (stealth, random) = (&stealth_summary.metadata.counters, &random_summary.metadata.counters);
    assert_eq!(
        stealth.unique_successes, random.unique_successes,
        "stealth changes probe order only: validation is walk-independent"
    );
    assert_eq!(stealth.sent, random.sent);

    // The full report is byte-stable: golden snapshot plus a complete
    // re-run of the cryptanalytic arm reproducing it exactly.
    let report = report_json(&[
        ("static-ip-id", &static_attrs[..]),
        ("random-ip-id", &random_attrs[..]),
        ("stealth-16", &stealth_attrs[..]),
    ]);
    let (_, frames_again) = scan_and_capture(scan_config(0));
    let random_again = detect(&frames_again).attributions(&hyp);
    assert_eq!(
        report_json(&[("random-ip-id", &random_attrs[..])]),
        report_json(&[("random-ip-id", &random_again[..])]),
        "attribution is deterministic across full scan re-runs"
    );
    check_golden("attribution_report", &report);
}

/// The telescope classifies the frames the engine's template rendered,
/// captured off the simulated wire: Masscan's configuration reads as
/// Masscan, the static IP ID as ZMap, and a random ID as ZMap only where
/// it happens to be 54 321.
#[test]
fn telescope_fingerprints_the_engines_probes() {
    for ip_id in [
        IpIdMode::DestinationDerived,
        IpIdMode::Static,
        IpIdMode::Random,
    ] {
        let mut cfg = ScanConfig::new(SRC);
        cfg.allowlist_prefix(DARKNET.0, DARKNET.1);
        cfg.apply_default_blocklist = false;
        cfg.seed = 7;
        cfg.rate_pps = 1_000_000;
        cfg.cooldown_secs = 1;
        cfg.ip_id = ip_id;
        if ip_id == IpIdMode::DestinationDerived {
            (cfg.walk, cfg.option_layout, cfg.max_retries) =
                (Walk::Blackrock, OptionLayout::NoOptions, 0);
        }
        let (_, frames) = scan_and_capture(cfg);
        assert_eq!(frames.len(), 4096, "{ip_id:?}");
        let mut unknown = 0;
        for frame in &frames {
            let info = classify_frame(frame).expect("a TCP SYN probe");
            assert!(info.is_tcp_syn);
            let id = u16::from_be_bytes([frame[18], frame[19]]);
            match ip_id {
                IpIdMode::DestinationDerived => assert_eq!(info.fingerprint, Fingerprint::Masscan),
                IpIdMode::Static => assert_eq!(info.fingerprint, Fingerprint::ZMap),
                _ => assert_eq!(info.fingerprint == Fingerprint::ZMap, id == 54_321),
            }
            unknown += usize::from(info.fingerprint == Fingerprint::Unknown);
        }
        if ip_id == IpIdMode::Random {
            assert!(
                unknown > 4_090,
                "random IDs carry no fingerprint: {unknown}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Stealth and Blackrock scans stay crash-tolerant.
// ---------------------------------------------------------------------------

/// A `--stealth` scan killed mid-flight resumes from its journal and
/// converges on exactly the discoveries of an uninterrupted stealth run
/// (the re-keyed walk is re-derived from the seed; the journal's walk
/// fingerprint gates drift).
#[test]
fn stealth_kill_then_resume_equals_uninterrupted() {
    kill_then_resume_equals_uninterrupted(Walk::Rekeyed(4));
}

/// The same for Masscan's configuration, on both Blackrock walks (the
/// legacy one probes some targets twice and never reaches others; the
/// union still matches).
#[test]
fn blackrock_kill_then_resume_equals_uninterrupted() {
    kill_then_resume_equals_uninterrupted(Walk::Blackrock);
    kill_then_resume_equals_uninterrupted(Walk::LegacyBlackrock);
}

fn kill_then_resume_equals_uninterrupted(walk: Walk) {
    let small = || {
        let mut cfg = ScanConfig::new(SRC);
        cfg.allowlist_prefix(Ipv4Addr::new(66, 7, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.seed = 11;
        cfg.rate_pps = 1_000;
        cfg.cooldown_secs = 2;
        cfg.walk = walk;
        if matches!(walk, Walk::Blackrock | Walk::LegacyBlackrock) {
            cfg.option_layout = OptionLayout::NoOptions;
            cfg.ip_id = IpIdMode::DestinationDerived;
            cfg.max_retries = 0;
        }
        cfg
    };
    let small_world = |kill_at: Option<u64>| {
        let model = ServiceModel {
            live_fraction: 1.0,
            ..ServiceModel::default()
        };
        let faults = match kill_at {
            Some(k) => FaultPlan::builder().kill_at(k).build(),
            None => FaultPlan::none(),
        };
        SimNet::new(WorldConfig {
            seed: 5,
            model,
            faults,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        })
    };
    let discovered = |s: &ScanSummary| -> BTreeSet<(std::net::IpAddr, u16)> {
        s.results.iter().map(|r| (r.saddr, r.sport)).collect()
    };

    let dir = std::env::temp_dir().join("zmap-attribution-test");
    std::fs::create_dir_all(&dir).unwrap();
    for kill_at in [64u64, 250, 420] {
        let path = dir.join(format!("{walk:?}-{kill_at}.ckpt"));
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy::new(&path).with_interval_ns(10_000_000);

        let net = small_world(None);
        let baseline = Scanner::new(small(), net.transport(SRC)).unwrap().run();
        assert!(!baseline.killed);
        let want = discovered(&baseline);
        assert!(!want.is_empty());

        let net = small_world(Some(kill_at));
        let first = Scanner::new(small(), net.transport(SRC))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy.clone()),
                ..RunOptions::default()
            });
        assert!(first.killed, "kill_at {kill_at} must fire");
        let journal = CheckpointState::load(&path).unwrap();
        assert!(!journal.complete);

        let net = small_world(None);
        let second = Scanner::resume(small(), net.transport(SRC), &journal)
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy),
                ..RunOptions::default()
            });
        assert!(!second.killed);
        assert_eq!(second.metadata.counters.resume_count, 1);

        let mut got = discovered(&first);
        got.extend(discovered(&second));
        assert_eq!(
            got, want,
            "{walk:?} kill/resume union must equal uninterrupted (kill_at {kill_at})"
        );
        assert!(CheckpointState::load(&path).unwrap().complete);
    }
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any walk seed and any darknet density down to 1/16, recovery
    /// finds the scanner's exact (prime, generator) with high confidence.
    #[test]
    fn recovery_finds_true_parameters(seed in any::<u64>(), density in 2u64..=16) {
        use zmap::math::modmul;
        use zmap::targets::{Cycle, CyclicGroup};
        let p = 65_537u64;
        let cycle = Cycle::new(CyclicGroup::new(p).unwrap(), seed);
        let g = cycle.generator();
        // The darknet keeps elements by value (in-telescope or not), so
        // observation gaps along the walk are geometric with mode 1.
        let mut obs = Vec::new();
        let mut x = cycle.element_at_position(0);
        for _ in 0..p - 1 {
            if x.is_multiple_of(density) {
                obs.push(x);
            }
            x = modmul(x, g, p);
        }
        let got = zmap::telescope::recover_walk(&obs, 128, 16)
            .expect("a clean walk sample must recover");
        prop_assert_eq!(got.prime, p);
        prop_assert_eq!(got.generator, g);
        prop_assert!(got.confidence() >= 0.9, "confidence {}", got.confidence());
    }

    /// Masscan-pattern scans are never misattributed as ZMap by the
    /// majority vote, for any seed-derived sequence numbers: a stray
    /// per-packet IP-ID collision with 54321 cannot swing the flow.
    #[test]
    fn masscan_is_never_majority_voted_zmap(seed in any::<u64>(), src in any::<u32>()) {
        let port = 443u16;
        let mut det = ScanDetector::new();
        for i in 0..64u32 {
            let dst = u32::from(SPACE) | i;
            let seq = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i) as u32) ^ i;
            let id = masscan_ip_id(dst, port, seq);
            // Classify exactly as the telescope would off the wire: the
            // static-ID check shadows the Masscan formula on collision.
            let fp = if id == 54_321 { Fingerprint::ZMap } else { Fingerprint::Masscan };
            det.ingest_info(&ProbeInfo {
                src_ip: src,
                dst_ip: dst,
                dst_port: port,
                fingerprint: fp,
                is_tcp_syn: true,
            });
        }
        let scans = det.scans();
        prop_assert_eq!(scans.len(), 1);
        prop_assert_eq!(scans[0].tool, Fingerprint::Masscan);
    }
}
