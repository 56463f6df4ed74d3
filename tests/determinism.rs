//! Cross-driver determinism: the inline driver (`Scanner`) and the
//! threaded one (`run_parallel`, here four lanes) must agree on *what*
//! they found. Both run on the virtual clock (DESIGN §6), but the lanes
//! interleave their sends, so send times and row order differ; over a
//! lossless world the discovered target set is an invariant of the
//! (seed, constraint) pair, not of the driver.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use zmap::prelude::*;
use zmap_core::parallel::run_parallel;
use zmap_netsim::loss::LossModel;

fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        faults: FaultPlan::none(),
        ..WorldConfig::default()
    }
}

fn scan_cfg(src: Ipv4Addr, subshards: u32) -> ScanConfig {
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(66, 10, 4, 0), 23);
    cfg.apply_default_blocklist = false;
    cfg.seed = 21;
    cfg.subshards = subshards;
    cfg.rate_pps = 400_000;
    cfg.cooldown_secs = 1;
    cfg
}

#[test]
fn sequential_and_parallel_engines_find_the_same_targets() {
    let src = Ipv4Addr::new(192, 0, 2, 9);

    // Engine A: the deterministic single-threaded scanner.
    let net = SimNet::new(world_cfg(31));
    let sequential = Scanner::new(scan_cfg(src, 1), net.transport(src))
        .unwrap()
        .run();

    // Engine B: four real send threads over a fresh copy of the world.
    let transport = SimNet::new(world_cfg(31)).transport(src);
    let parallel = run_parallel(&scan_cfg(src, 4), &transport).unwrap();

    let (cs, cp) = (&sequential.metadata.counters, &parallel.metadata.counters);
    assert_eq!(cs.sent, 512);
    assert_eq!(cp.sent, 512);
    assert_eq!(cs.unique_successes, cp.unique_successes);

    let a: BTreeSet<(std::net::IpAddr, u16)> = sequential
        .results
        .iter()
        .map(|r| (r.saddr, r.sport))
        .collect();
    let b: BTreeSet<(std::net::IpAddr, u16)> = parallel
        .results
        .iter()
        .map(|r| (r.saddr, r.sport))
        .collect();
    assert_eq!(a, b, "engines disagree on the discovered set");
    assert_eq!(a.len() as u64, cs.unique_successes);
}
