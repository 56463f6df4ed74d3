//! Property-based tests (proptest) over the core data structures: the
//! invariants the whole methodology rests on.

use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use zmap::dedup::SlidingWindow;
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;
use zmap::masscan::Blackrock;
use zmap::targets::{Constraint, Cycle, CyclicGroup, ShardAlgorithm, ShardIter, ShardSpec};
use zmap::wire::checksum;
use zmap::wire::cookie::ValidationKey;
use zmap::wire::options;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cyclic-group walk is a bijection of [1, p) for every seed.
    #[test]
    fn cycle_walk_is_bijective(seed in any::<u64>()) {
        let group = CyclicGroup::new(257).unwrap();
        let cycle = Cycle::new(group, seed);
        let mut seen = HashSet::new();
        let mut x = cycle.element_at_position(0);
        for _ in 0..256 {
            prop_assert!((1..257).contains(&x));
            prop_assert!(seen.insert(x));
            x = cycle.step(x);
        }
        prop_assert_eq!(x, cycle.element_at_position(0));
    }

    /// Shards partition the group exactly for any (N, T) and algorithm.
    #[test]
    fn shards_partition_group(
        num_shards in 1u32..12,
        num_subshards in 1u32..5,
        seed in any::<u64>(),
        pizza in any::<bool>(),
    ) {
        let alg = if pizza { ShardAlgorithm::Pizza } else { ShardAlgorithm::Interleaved };
        let group = CyclicGroup::new(65537).unwrap();
        let cycle = Cycle::new(group, seed);
        let mut seen = HashSet::new();
        let mut total = 0u64;
        for shard in 0..num_shards {
            for subshard in 0..num_subshards {
                let spec = ShardSpec { shard, num_shards, subshard, num_subshards };
                for e in ShardIter::new(&cycle, spec, alg).unwrap() {
                    prop_assert!(seen.insert(e), "duplicate element {}", e);
                    total += 1;
                }
            }
        }
        prop_assert_eq!(total, 65536);
    }

    /// Constraint index→address lookup is a strictly increasing bijection
    /// onto the allowed set.
    #[test]
    fn constraint_lookup_bijective(
        prefixes in prop::collection::vec((any::<u32>(), 8u8..=28, any::<bool>()), 1..8),
    ) {
        let mut c = Constraint::new(false);
        for (addr, len, allow) in prefixes {
            c.set_prefix(addr, len, allow);
        }
        c.finalize();
        let n = c.allowed_count();
        // Sample up to 2000 indices (sets can be huge).
        let step = (n / 2000).max(1);
        let mut prev: Option<u32> = None;
        let mut i = 0u64;
        while i < n {
            let a = c.lookup(i).expect("index in range");
            prop_assert!(c.is_allowed(a));
            if step == 1 {
                if let Some(p) = prev {
                    prop_assert!(a > p);
                }
                prev = Some(a);
            }
            i += step;
        }
        prop_assert!(c.lookup(n).is_none());
    }

    /// Blackrock (fixed) is a permutation for arbitrary ranges and seeds.
    #[test]
    fn blackrock_is_permutation(range in 1u64..30_000, seed in any::<u64>()) {
        let br = Blackrock::new(range, seed);
        let mut seen = HashSet::new();
        for i in 0..range {
            let y = br.shuffle(i);
            prop_assert!(y < range);
            prop_assert!(seen.insert(y));
        }
    }

    /// Internet checksum: any single-bit corruption is detected.
    #[test]
    fn checksum_detects_bit_flips(
        mut data in prop::collection::vec(any::<u8>(), 2..64),
        bit in any::<u16>(),
    ) {
        // Even length keeps the flip away from implicit padding concerns.
        if data.len() % 2 == 1 { data.push(0); }
        let c = checksum::checksum(&data);
        let pos = usize::from(bit) % (data.len() * 8);
        data[pos / 8] ^= 1 << (pos % 8);
        let c2 = checksum::checksum(&data);
        prop_assert_ne!(c, c2, "flip at {} undetected", pos);
    }

    /// TCP option decode never panics and roundtrips valid encodings.
    #[test]
    fn options_decode_is_total(data in prop::collection::vec(any::<u8>(), 0..40)) {
        let _ = options::decode(&data); // must not panic
    }

    /// Validation cookies only validate the exact probe addressing.
    #[test]
    fn cookie_is_tuple_exact(
        seed in any::<u64>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        dport in any::<u16>(),
        wrong_ack in any::<u32>(),
    ) {
        let key = ValidationKey::from_seed(seed);
        // The RX path's check: the ACK must be the probe's cookie + 1.
        let validates =
            |dst: u32, ack: u32| ack == key.probe(src, dst, dport).tcp_seq().wrapping_add(1);
        let seq = key.probe(src, dst, dport).tcp_seq();
        prop_assert!(validates(dst, seq.wrapping_add(1)));
        if wrong_ack != seq.wrapping_add(1) {
            prop_assert!(!validates(dst, wrong_ack));
        }
        prop_assert!(!validates(dst.wrapping_add(1), seq.wrapping_add(1)));
    }

    /// Sliding window: never suppresses a first sighting; always
    /// suppresses a repeat within window distance.
    #[test]
    fn window_dedup_contract(
        cap in 1usize..500,
        stream in prop::collection::vec(0u64..200, 1..800),
    ) {
        let mut w = SlidingWindow::new(cap);
        let mut last_seen_at: std::collections::HashMap<u64, (usize, usize)> =
            std::collections::HashMap::new(); // key -> (stream idx, distinct-insert count)
        let mut inserts = 0usize;
        for (i, &k) in stream.iter().enumerate() {
            let fresh = w.check_and_insert(k);
            if let Some(&(_, at_inserts)) = last_seen_at.get(&k) {
                let distance = inserts - at_inserts;
                if distance < cap {
                    prop_assert!(!fresh, "repeat of {} within window suppressed", k);
                }
            } else {
                prop_assert!(fresh, "first sighting of {} must pass", k);
            }
            if fresh {
                inserts += 1;
                last_seen_at.insert(k, (i, inserts));
            }
        }
    }
}

/// Runs a small scan (a /26, 64 targets) against a faulted dense world.
fn faulted_scan(world_seed: u64, scan_seed: u64, plan: FaultPlan, max_retries: u32) -> ScanSummary {
    let net = SimNet::new(WorldConfig {
        seed: world_seed,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        faults: plan,
        ..WorldConfig::default()
    });
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(55, 60, 0, 0), 26);
    cfg.apply_default_blocklist = false;
    cfg.rate_pps = 1_000_000;
    cfg.seed = scan_seed;
    cfg.cooldown_secs = 2;
    cfg.max_retries = max_retries;
    Scanner::new(cfg, net.transport(src)).unwrap().run()
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.3f64,
        0.0..0.3f64,
        0.0..0.3f64,
        0.0..0.3f64,
    )
        .prop_map(|(salt, send_f, dup, reorder, corrupt)| {
            FaultPlan::builder()
                .salt(salt)
                .send_failures(send_f)
                .duplicate(dup)
                .reorder(reorder, 5_000_000)
                .corrupt(corrupt)
                .build()
        })
}

proptest! {
    // Each case runs whole scans; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A seeded fault plan perturbs the world deterministically: two
    /// runs with identical seeds produce identical summaries, down to
    /// the per-result timestamps and the per-second status stream.
    #[test]
    fn faulted_scans_replay_identically(
        world_seed in any::<u64>(),
        scan_seed in any::<u64>(),
        plan in arb_plan(),
    ) {
        let a = faulted_scan(world_seed, scan_seed, plan.clone(), 4);
        let b = faulted_scan(world_seed, scan_seed, plan, 4);
        prop_assert_eq!(a.sent, b.sent);
        prop_assert_eq!(a.send_retries, b.send_retries);
        prop_assert_eq!(a.sendto_failures, b.sendto_failures);
        prop_assert_eq!(a.responses_validated, b.responses_validated);
        prop_assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
        prop_assert_eq!(a.responses_corrupted, b.responses_corrupted);
        prop_assert_eq!(a.unique_successes, b.unique_successes);
        let ra: Vec<_> = a.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
        let rb: Vec<_> = b.results.iter().map(|r| (r.saddr, r.sport, r.ts_ns)).collect();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.status, b.status);
    }

    /// With a bounded failure rate and a generous retry budget, no probe
    /// is ever abandoned: every target leaves the NIC.
    #[test]
    fn retries_cover_all_targets(
        world_seed in any::<u64>(),
        send_f in 0.0..0.3f64,
        salt in any::<u64>(),
    ) {
        let plan = FaultPlan::builder().salt(salt).send_failures(send_f).build();
        // P(single probe exhausted) <= 0.3^11 — negligible over 64 targets.
        let s = faulted_scan(world_seed, 7, plan, 10);
        prop_assert_eq!(s.sendto_failures, 0, "budget of 10 must absorb f <= 0.3");
        prop_assert_eq!(s.sent, s.targets_total);
    }

    /// Response accounting never leaks: every validated response is a
    /// first sighting (success or failure) or a suppressed duplicate.
    #[test]
    fn validated_responses_are_fully_accounted(
        world_seed in any::<u64>(),
        plan in arb_plan(),
    ) {
        let s = faulted_scan(world_seed, 13, plan, 4);
        prop_assert!(
            s.duplicates_suppressed + s.unique_successes + s.unique_failures
                <= s.responses_validated
        );
    }
}

/// `values[r]` cycled over all but the last entry, which is drawn one
/// time in 16: a field's bad value comes up often enough to be met and
/// rarely enough that most sampled configs pass the gate and run.
fn pick<T: Clone>(r: usize, values: &[T]) -> T {
    let n = values.len();
    values[if r % 16 == 15 { n - 1 } else { r % (n - 1) }].clone()
}

const GRID_V6: &str = "2001:db8:a::/48 pattern=low bits=3 density=1.0\n";

/// One point of a small grid over the fields the gate reads, each axis
/// ending in its bad value; cross-field rules (shard vs shards, bitmap vs
/// ports or v6, re-keying vs IP ID or v6, cooldown vs retries, pipeline
/// vs caps) come from combining good values. A /29 (or a 2^3-host v6
/// prefix) keeps every run small.
fn grid_config(r: &[usize]) -> ScanConfig {
    let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
    cfg.allowlist_prefix(Ipv4Addr::new(55, 61, 0, 0), 29);
    cfg.apply_default_blocklist = false;
    cfg.seed = r[0] as u64;
    cfg.num_shards = pick(r[1], &[1, 2, 0]);
    cfg.shard = pick(r[2], &[0, 1, 3]);
    cfg.subshards = pick(r[3], &[1, 2, 0]);
    cfg.batch = pick(r[4], &[64, 3, 0]);
    cfg.probes_per_target = pick(r[5], &[1, 2, 0]);
    cfg.rate_pps = pick(r[6], &[1_000_000, 7, 0]);
    let (none, bitmap, window) = (DedupMethod::None, DedupMethod::FullBitmap, DedupMethod::Window);
    cfg.dedup = pick(r[7], &[window(1_000), window(2), none, bitmap, window(0)]);
    cfg.rekey_blocks = pick(r[8], &[0, 2, 1]);
    (cfg.cooldown_secs, cfg.max_retries) = pick(r[9], &[(1, 3), (1, 0), (0, 0), (0, 3)]);
    let every = |i: usize, n: usize| r[i] % n;
    cfg.ports = [vec![80], vec![80, 443]][every(10, 2)].clone();
    let probes = [ProbeKind::TcpSyn, ProbeKind::IcmpEcho, ProbeKind::Udp(b"u".to_vec())];
    cfg.probe = probes[every(11, 3)].clone();
    cfg.ip_id = [IpIdMode::Random, IpIdMode::Static][every(12, 2)];
    cfg.max_targets = [0, 5][every(13, 2)];
    cfg.max_results = [0, 1][every(14, 2)];
    cfg.tx_pipeline = every(15, 3) == 0;
    if every(16, 3) == 0 {
        cfg.ipv6 = Some(Ipv6Config {
            source_ip: "2001:db8:ffff::1".parse().unwrap(),
            prefix_list: GRID_V6.into(),
        });
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No config the library accepts panics: each grid point is refused
    /// by `PreparedScan::new`, or runs to an orderly end under
    /// `catch_unwind` through the inline driver and the threaded one (at
    /// the grid's 1 or 2 lanes) against a dense world.
    #[test]
    fn configs_are_refused_or_run_without_panic(
        r in prop::collection::vec(any::<usize>(), 17..18),
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::{Arc, Mutex};
        use zmap::core::log::Logger;
        use zmap::core::parallel::SharedSimTransport;
        let cfg = grid_config(&r);
        let v6 = || V6Population::from_prefix_list(GRID_V6, cfg.ports.clone()).unwrap();
        let world = || WorldConfig {
            model: ServiceModel::dense(&[80, 443]),
            loss: LossModel::NONE,
            v6: cfg.ipv6.as_ref().map(|_| v6()),
            ..WorldConfig::default()
        };
        let prepared = || PreparedScan::new(cfg.clone(), Logger::null());
        prop_assert_eq!(prepared().is_ok(), cfg.validate().is_ok(), "{:?}", cfg);
        if let Ok(scan) = prepared() {
            let src = cfg.source_ip;
            let inline =
                catch_unwind(AssertUnwindSafe(|| scan.on(SimNet::new(world()).transport(src)).run()));
            let threaded = catch_unwind(AssertUnwindSafe(|| {
                let transport = SharedSimTransport::new(Arc::new(Mutex::new(World::new(world()))), src);
                prepared().unwrap().run(&transport, RunOptions::default())
            }));
            for (driver, run) in [("inline", inline), ("threaded", threaded)] {
                let s = run.unwrap_or_else(|_| panic!("{driver} driver panicked on {cfg:?}"));
                prop_assert_eq!(s.shutdown_clean, 1, "{} {:?}", driver, cfg);
            }
        }
    }
}
