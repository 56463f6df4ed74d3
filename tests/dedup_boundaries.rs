//! Deduplication boundary tests: the exact eviction edge of the
//! sliding window, the page edges of the paged bitmap, and the two
//! dedup paths driven end-to-end through the engine against a
//! blowback-heavy world. The interesting bugs in FIFO-with-set
//! structures live at `len == capacity` exactly — off-by-one there
//! either leaks a duplicate into results or suppresses a legitimate
//! late response forever.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use zmap::dedup::{PagedBitmap, SlidingWindow};
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;

#[test]
fn window_duplicate_at_high_water_edge_is_suppressed() {
    let cap = 1000usize;
    let mut w = SlidingWindow::new(cap);
    for k in 0..cap as u64 {
        assert!(w.check_and_insert(k), "key {k} is fresh");
    }
    // Exactly at high water: the window is full and key 0 is the oldest
    // entry, one eviction away from forgotten — but still remembered.
    assert_eq!(w.len(), cap);
    assert!(!w.check_and_insert(0), "oldest key still in window");
    assert!(!w.check_and_insert(cap as u64 - 1), "newest key in window");
    assert_eq!(w.suppressed(), 2);
    assert_eq!(w.len(), cap, "suppression must not grow the ring");
}

#[test]
fn window_duplicate_one_past_the_edge_passes() {
    let cap = 1000usize;
    let mut w = SlidingWindow::new(cap);
    for k in 0..cap as u64 {
        w.check_and_insert(k);
    }
    // One fresh key past high water evicts exactly key 0, nothing else.
    assert!(w.check_and_insert(cap as u64));
    assert_eq!(w.len(), cap);
    assert!(
        !w.check_and_insert(1),
        "key 1 was not evicted by the single overflow"
    );
    assert!(
        w.check_and_insert(0),
        "evicted key must pass as fresh (the Figure 5 imprecision)"
    );
    // Re-admitting 0 made it the newest entry; it is remembered again
    // (and the eviction it caused fell on key 1, the oldest — the
    // earlier suppressed observation of 1 did not refresh its slot).
    assert!(!w.check_and_insert(0));
    assert!(w.check_and_insert(1), "0's re-admission evicted key 1");
}

#[test]
fn window_capacity_one_remembers_only_the_last_key() {
    let mut w = SlidingWindow::new(1);
    assert!(w.check_and_insert(7));
    assert!(!w.check_and_insert(7), "immediate repeat suppressed");
    assert!(w.check_and_insert(8), "new key evicts the only slot");
    assert!(w.check_and_insert(7), "evicted key passes again");
    assert_eq!(w.len(), 1);
}

#[test]
fn paged_bitmap_page_edges_are_exact() {
    let mut b = PagedBitmap::new();
    // 2^16 bits per page: 0xFFFF is the last bit of page 0, 0x10000 the
    // first bit of page 1. An off-by-one in the page split makes these
    // two keys alias.
    assert!(b.insert(0xFFFF));
    assert!(!b.contains(0x10000), "page edge must not alias");
    assert!(b.insert(0x10000));
    assert!(!b.insert(0xFFFF), "exact: repeat at page end suppressed");
    assert!(!b.insert(0x10000), "exact: repeat at page start suppressed");
    assert_eq!(b.allocated_pages(), 2, "one page per side of the edge");
    // The far edge of the key space.
    assert!(b.insert(u32::MAX));
    assert!(!b.insert(u32::MAX));
    assert!(b.insert(u32::MAX - 1));
    assert_eq!(b.len(), 4);
}

/// A /24 with heavy blowback: ~every responder re-sends its answer,
/// so the dedup structure, not the population, decides what reaches
/// the results stream.
fn blowback_scan(dedup: DedupMethod) -> ScanSummary {
    let mut model = ServiceModel {
        live_fraction: 0.9,
        ..ServiceModel::default()
    };
    model.blowback_fraction = 1.0;
    model.blowback_max = 8;
    let net = SimNet::new(WorldConfig {
        seed: 11,
        model,
        loss: LossModel::NONE,
        ..WorldConfig::default()
    });
    let src = Ipv4Addr::new(192, 0, 2, 9);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(60, 21, 5, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.seed = 5;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 30; // long enough for the whole duplicate tail
    cfg.dedup = dedup;
    Scanner::new(cfg, net.transport(src)).expect("valid").run()
}

fn dup_records(summary: &ScanSummary) -> u64 {
    let mut seen = HashSet::new();
    summary
        .results
        .iter()
        .filter(|r| !seen.insert((r.saddr, r.sport)))
        .count() as u64
}

#[test]
fn engine_full_bitmap_suppresses_every_duplicate() {
    let s = blowback_scan(DedupMethod::FullBitmap);
    let c = &s.metadata.counters;
    assert!(c.duplicates_suppressed > 0, "blowback world produced no dups");
    assert_eq!(dup_records(&s), 0, "exact filter leaked a duplicate");
    assert_eq!(c.unique_successes, s.results.len() as u64);
}

#[test]
fn engine_window_trades_exactness_for_memory() {
    // A window big enough for the whole /24 behaves exactly...
    let wide = blowback_scan(DedupMethod::Window(1_000_000));
    assert!(wide.metadata.counters.duplicates_suppressed > 0);
    assert_eq!(dup_records(&wide), 0, "wide window leaked a duplicate");

    // ...while a window smaller than the duplicate spread lets repeats
    // back through once their key is evicted — the controlled
    // imprecision the paper's Figure 5 quantifies.
    let narrow = blowback_scan(DedupMethod::Window(2));
    assert!(
        dup_records(&narrow) > 0,
        "2-entry window cannot hold a /24's duplicate tail"
    );
    // Both engines saw the same world: total validated responses match.
    assert_eq!(
        wide.metadata.counters.responses_validated,
        narrow.metadata.counters.responses_validated
    );
}
