//! The engine's allocation budget, measured: once a scan runs, a further
//! probe or a further received frame costs no heap allocation.
//!
//! Each cell runs one configuration twice, over n and then 2n targets, on
//! a dense world with failures reported (every probe draws a SYN-ACK, an
//! RST, an echo reply or a port-unreachable, and every answer is a row).
//! A counting global allocator tallies every allocation made on any
//! thread while the run is in progress. A run's fixed costs — the dedup
//! table, the output buffer, the receive ring, the threaded driver's
//! lane threads and their batches — cancel in the difference between the
//! two runs; what cannot cancel is a cost per probe or per frame. The
//! budget is at most one marginal allocation per 1 000 extra probes and
//! per 1 000 extra received frames: room for a container's amortised
//! doubling, none for a `format!` or a `to_vec` on the path.
//!
//! The cells together run every hot-path root:
//!
//! | root | cells |
//! |---|---|
//! | `TargetIter::next` (Cyclic, Rekeyed, Blackrock, LegacyBlackrock), through `Constraint::lookup` | `cyclic`, `rekeyed`, `blackrock`, `legacy-blackrock` |
//! | `V6TargetIter::next`, `Schedule::next`, `V6DedupSpace::key_for` | `v6` |
//! | `emit`, `flush` | every cell |
//! | `ProbeModule::render_into` | SYN: `cyclic`; ICMP echo: `icmp`; UDP: `udp` |
//! | `send_batch` on `&SimTransport` | every cell |
//! | the one-thread lane (walk → `emit` → `flush`) and the parked receive loop | `threaded` |
//! | `Engine::drain` → `on_frame`, `ProbeModule::parse_response` | v4: every other cell; v6: `v6` |
//! | dedup: an evicting window | `blackrock` |
//! | dedup: `--full-bitmap-dedup` | `legacy-blackrock` |
//! | `OutputModule::record` | csv: `cyclic`, `blackrock`, `icmp`, `v6`; json: `rekeyed`, `legacy-blackrock`, `udp` |
//!
//! The simulated world (zmap-netsim) stands in for the kernel and the NIC
//! and may allocate by design: it grows its delivery queue's page pool to
//! hold the frames in flight. The inline scans run at 20 000 probes/s on
//! a fresh world, so the in-flight set (rate × RTT) stays far below the
//! scan size and the world's pool is warm long before the n-th probe;
//! netsim's own budget is its `tests/alloc_budget.rs`.
//!
//! The threaded driver's receive thread may trail its senders by a whole
//! scan, so the frames in flight, and the world's pool, grow with the
//! scan. The threaded cell therefore runs at 1 Mpps on one world warmed
//! by a scan of 4n targets, and — its count still depending on thread
//! scheduling — is bounded on the median of five runs at each size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zmap_core::log::Logger;
use zmap_core::output::OutputModule;
use zmap_core::{
    DedupMethod, Ipv6Config, OutputFormat, PreparedScan, ProbeKind, RunOptions, ScanConfig,
    ScanSummary, Scanner, SimNet, SimTransport,
};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{ServiceModel, V6Population, WorldConfig};
use zmap_targets::Walk;

struct Counting;

/// Whether allocations are being tallied; set for the length of one run.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts, with no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc` is passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` through this wrapper.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with every thread's allocations tallied; returns its value
/// and the count.
fn tallied<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCS.load(Ordering::Relaxed))
}

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);
/// log2 of n, the smaller run's target count.
const LOG_N: u8 = 15;
/// Repeated runs per size for the threaded cell.
const THREADED_RUNS: usize = 5;

/// How a cell's scan is driven.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    /// [`Scanner::run_into`] on a [`SimNet`] transport, rows streamed
    /// through an [`OutputModule`] in this format.
    Inline(OutputFormat),
    /// [`PreparedScan::run`] with two lanes over the same transport.
    Threaded,
}

struct Cell {
    name: &'static str,
    driver: Driver,
    /// Adjusts the base config (v4, TCP SYN to port 80, cyclic walk).
    tweak: fn(&mut ScanConfig),
}

const CELLS: [Cell; 8] = [
    Cell {
        name: "cyclic",
        driver: Driver::Inline(OutputFormat::Csv),
        tweak: |_| {},
    },
    Cell {
        name: "rekeyed",
        driver: Driver::Inline(OutputFormat::JsonLines),
        tweak: |c| c.walk = Walk::Rekeyed(4),
    },
    Cell {
        name: "blackrock",
        driver: Driver::Inline(OutputFormat::Csv),
        tweak: |c| {
            c.walk = Walk::Blackrock;
            c.dedup = DedupMethod::Window(1024);
        },
    },
    Cell {
        name: "legacy-blackrock",
        driver: Driver::Inline(OutputFormat::JsonLines),
        tweak: |c| {
            c.walk = Walk::LegacyBlackrock;
            c.dedup = DedupMethod::FullBitmap;
        },
    },
    Cell {
        name: "icmp",
        driver: Driver::Inline(OutputFormat::Csv),
        tweak: |c| c.probe = ProbeKind::IcmpEcho,
    },
    Cell {
        name: "udp",
        driver: Driver::Inline(OutputFormat::JsonLines),
        tweak: |c| c.probe = ProbeKind::Udp(b"zmap".to_vec()),
    },
    Cell {
        name: "v6",
        driver: Driver::Inline(OutputFormat::Csv),
        tweak: |c| {
            c.ipv6 = Some(Ipv6Config {
                source_ip: "2001:db8:ffff::1".parse().unwrap(),
                prefix_list: String::new(),
            });
        },
    },
    Cell {
        name: "threaded",
        driver: Driver::Threaded,
        tweak: |c| {
            c.subshards = 2;
            c.rate_pps = 1_000_000;
        },
    },
];

/// The v6 prefix list with `2^log_n` hosts over two prefixes, so the
/// scheduler merges two walks.
fn v6_prefixes(log_n: u8) -> String {
    let bits = log_n - 1;
    format!(
        "2001:db8:a::/48 pattern=low bits={bits} density=1.0\n\
         2001:db8:b::/48 pattern=low bits={bits} density=1.0\n"
    )
}

/// A world where every address is live and half the ports answer: port
/// 80 (TCP and UDP) is open on one host in two, closed ports answer RST
/// or port-unreachable, and nothing is lost.
fn world(v6: Option<&str>) -> WorldConfig {
    let mut model = ServiceModel::dense(&[80]);
    model.port_open.insert(80, 0.5);
    WorldConfig {
        seed: 3,
        model,
        loss: LossModel::NONE,
        v6: v6.map(|p| V6Population::from_prefix_list(p, vec![80]).unwrap()),
        ..WorldConfig::default()
    }
}

/// The cell's config over `2^log_n` targets.
fn config(cell: &Cell, log_n: u8) -> ScanConfig {
    let mut cfg = ScanConfig::new(SRC);
    cfg.allowlist_prefix(Ipv4Addr::new(11, 0, 0, 0), 32 - log_n);
    cfg.apply_default_blocklist = false;
    cfg.ports = vec![80];
    cfg.seed = 5;
    cfg.rate_pps = 20_000;
    cfg.cooldown_secs = 1;
    cfg.report_failures = true;
    (cell.tweak)(&mut cfg);
    if let Some(v6) = cfg.ipv6.as_mut() {
        v6.prefix_list = v6_prefixes(log_n);
    }
    cfg
}

/// One run of `cell` over `2^log_n` targets: `(probes, frames,
/// allocations)`. An inline run gets a world of its own; a threaded run
/// goes through `shared`.
fn run(cell: &Cell, log_n: u8, shared: &SimTransport) -> (u64, u64, u64) {
    let cfg = config(cell, log_n);
    let (s, allocs): (ScanSummary, u64) = match cell.driver {
        Driver::Inline(format) => {
            let net = SimNet::new(world(cfg.ipv6.as_ref().map(|v6| v6.prefix_list.as_str())));
            let scanner = Scanner::new(cfg, net.transport(SRC)).unwrap();
            let mut out = OutputModule::new(format, io::sink());
            let (s, allocs) = tallied(|| scanner.run_into(RunOptions::default(), &mut out));
            assert_eq!(
                out.records(),
                s.unique_successes + s.unique_failures,
                "{}",
                cell.name
            );
            (s, allocs)
        }
        Driver::Threaded => {
            let scan = PreparedScan::new(cfg, Logger::null()).unwrap();
            tallied(|| scan.run(shared, RunOptions::default()))
        }
    };
    let frames = s.responses_validated;
    assert_eq!(
        s.sent,
        1 << log_n,
        "{}: every target probed once",
        cell.name
    );
    assert!(
        frames >= s.sent * 9 / 10,
        "{}: the world answers ({frames} of {})",
        cell.name,
        s.sent
    );
    (s.sent, frames, allocs)
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// `(extra probes, extra frames, marginal allocations)` from n to 2n.
fn marginal(cell: &Cell) -> (u64, u64, i64) {
    let shared = SimNet::new(world(None)).transport(SRC);
    let runs = if cell.driver == Driver::Threaded {
        // Warm the shared world's queue with a scan twice the largest.
        run(cell, LOG_N + 2, &shared);
        THREADED_RUNS
    } else {
        1
    };
    let sample = |log_n| -> (u64, u64, u64) {
        let rs: Vec<_> = (0..runs).map(|_| run(cell, log_n, &shared)).collect();
        let (probes, frames) = (rs[0].0, median(rs.iter().map(|r| r.1).collect()));
        (probes, frames, median(rs.iter().map(|r| r.2).collect()))
    };
    let (p1, f1, a1) = sample(LOG_N);
    let (p2, f2, a2) = sample(LOG_N + 1);
    (p2 - p1, f2 - f1, a2 as i64 - a1 as i64)
}

/// One test, so no other test's allocations land in a tally (the
/// counter is process-wide: the threaded driver allocates off the
/// calling thread).
#[test]
#[allow(clippy::print_stdout)] // the measured table, shown under --nocapture
fn warm_scan_allocates_nothing_per_probe_or_frame() {
    let mut over = Vec::new();
    for cell in &CELLS {
        let (probes, frames, allocs) = marginal(cell);
        println!(
            "{:<17} +{probes} probes, +{frames} frames: {allocs:+} allocations ({:.5} per probe)",
            cell.name,
            allocs as f64 / probes as f64
        );
        let budget = (probes.min(frames) / 1000) as i64;
        if allocs > budget {
            over.push(format!("{}: {allocs} > {budget}", cell.name));
        }
    }
    assert!(
        over.is_empty(),
        "marginal allocations over budget: {over:?}"
    );
}
