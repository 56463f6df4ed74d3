//! The simulated wire's allocation budget: once warm, sending a probe and
//! delivering its replies allocate nothing. Responders render into the
//! world's reused reply, the delivery queue copies frames into pooled
//! pages, and a receive borrows each frame in place.
//!
//! A counting global allocator tallies the allocations made on this
//! test's thread while a `send` or a drain runs. Three rounds of identical
//! volume warm the page pool and every reused buffer; the fourth is
//! measured. What it may still allocate is page-pool growth — a new page,
//! or a longer page table or bucket page list, when the round holds a few
//! more frames in flight than any before it — a handful of events, not a
//! cost per probe or per frame. (Before the queue was paged the same
//! round cost 12 allocations per probe and 1 per frame.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{FaultPlan, RxBatch, ServiceModel, World, WorldConfig};
use zmap_wire::ProbeBuilder;

struct Counting;

thread_local! {
    /// Which tally this thread's allocations go to: 0 none, 1 send, 2 drain.
    static PHASE: Cell<usize> = const { Cell::new(0) };
}

static TALLY: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

fn count() {
    let phase = PHASE.with(Cell::get);
    TALLY[phase].fetch_add(1, Ordering::Relaxed);
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

/// Runs `f` with this thread's allocations tallied under `phase`.
fn tallied<R>(phase: usize, f: impl FnOnce() -> R) -> R {
    PHASE.with(|p| p.set(phase));
    let r = f();
    PHASE.with(|p| p.set(0));
    r
}

const PROBES: u32 = 16_384;
const BATCH: u32 = 256;

/// `(probes, frames, send allocations, drain allocations)` per round.
fn rounds(faults: FaultPlan) -> Vec<(u64, u64, u64, u64)> {
    let mut w = World::new(WorldConfig {
        seed: 7,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::default(),
        faults,
        ..WorldConfig::default()
    });
    let src = Ipv4Addr::new(192, 0, 2, 1);
    let ep = w.attach(src);
    let b = ProbeBuilder::new(src, 7);
    let mut probe = Vec::new();
    let mut rx = RxBatch::new();
    let mut out = Vec::new();
    for round in 0..4u32 {
        TALLY.iter().for_each(|t| t.store(0, Ordering::Relaxed));
        // Rounds start 4 × 2^30 ns (4.3 s) apart: idle gaps longer than the
        // queue's 2^30 ns ring, and a whole number of ring spans, so every
        // round fills the same buckets.
        let base = u64::from(round) * (4 << 30);
        let mut frames = 0u64;
        let mut drain = |w: &mut World, now: u64| {
            tallied(2, || {
                rx.clear();
                w.recv_into(ep, now, &mut rx);
                frames += rx.len() as u64;
            })
        };
        for batch in 0..PROBES / BATCH {
            let mut now = base;
            for i in batch * BATCH..(batch + 1) * BATCH {
                // A different /8 every round, at 10 Mpps.
                let dst = Ipv4Addr::from(((10 + round) << 24) | (i * 257));
                probe.clear();
                probe.extend_from_slice(&b.tcp_syn(dst, 80, 0));
                now = base + u64::from(i) * 100;
                tallied(1, || w.send(ep, &probe, now)).expect("no send faults");
            }
            drain(&mut w, now);
        }
        while let Some(t) = w.next_event_at() {
            drain(&mut w, t);
        }
        let [_, send, recv] = [0, 1, 2].map(|i| TALLY[i].load(Ordering::Relaxed));
        out.push((u64::from(PROBES), frames, send, recv));
    }
    out
}

#[allow(clippy::print_stdout)] // the measured figure, shown under --nocapture
fn assert_budget(shape: &str, faults: FaultPlan) {
    let r = rounds(faults);
    let (probes, frames, send, recv) = r[3];
    assert!(frames > probes / 2, "{shape}: the world answers ({r:?})");
    // Page-pool growth only: at most one allocation per thousand probes.
    assert!(
        send + recv <= probes / 1000,
        "{shape}: warm round allocated {send} on send, {recv} on drain ({r:?})"
    );
    println!(
        "{shape}: {:.4} allocations per probe, {:.4} per frame (warm round of {probes} probes, {frames} frames)",
        send as f64 / probes as f64,
        recv as f64 / frames as f64
    );
}

/// One test, so no other test thread allocates while a round is tallied
/// (the tally is also per thread).
#[test]
fn warm_send_and_drain_allocate_nothing_per_probe_or_frame() {
    assert_budget("dense", FaultPlan::default());
    assert_budget("dups", FaultPlan::builder().duplicate(0.9).build());
}
