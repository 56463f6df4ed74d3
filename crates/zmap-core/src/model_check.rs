//! Model checking for the engine's atomic hand-offs.
//!
//! These tests run the *real* [`SpscRing`] and [`ShutdownToken`] code —
//! not a model of it — under `zmap-sched`'s deterministic scheduler: in
//! test builds the types' atomics are zmap-sched shims and the ring's
//! slots are `Tracked` cells (see the `use` swaps in `ring.rs` /
//! `shutdown.rs`), so every atomic operation is a scheduling point and
//! carries the vector clocks of its `Release`/`Acquire` edges. The
//! explorer enumerates all interleavings up to a fixed decision depth
//! and probes beyond it with a seeded random tail, so a failure here is
//! a reproducible schedule, not a flaky race.
//!
//! Invariants checked, from the protocols in DESIGN.md §9:
//!
//! - **Every publication is ordered**: a slot is read or rewritten only
//!   after the counter that hands it over (`tail` to the consumer,
//!   `head` back to the producer), and what a shutdown requester wrote
//!   is visible to the thread that sees the request. The ring's slot
//!   mutex is no edge in the model, so a weakened ordering fails here.
//! - **No stale or double-popped frame**: the consumer observes exactly
//!   the pushed sequence, in order, once — under every schedule.
//! - **Close/drain terminates**: whichever side closes, both threads
//!   finish within the step budget (`Stats::cap_exceeded == 0`), and
//!   values queued before the close still drain.
//!
//! zmap-sched also fails any schedule that runs a `SeqCst` operation.
//! These are plain unit tests, run by `cargo test --workspace` at the
//! same fixed seed and depth every time.

use crate::ring::SpscRing;
use crate::shutdown::ShutdownToken;
use std::sync::Mutex;
use zmap_sched::{explore, Config, Stats, Tracked};

/// The fixed exploration budget CI runs at: every schedule with up to
/// `DEPTH` branching decisions is enumerated exhaustively; longer
/// schedules continue with a tail seeded by `SEED`.
const DEPTH: usize = 10;
const SEED: u64 = 0x10ae_2024_5eed;

fn config() -> Config {
    Config { depth: DEPTH, seed: SEED, max_steps: 50_000, max_schedules: 4096 }
}

/// Every explored schedule must terminate within the step budget, and
/// the exploration must have actually branched.
fn assert_live(stats: &Stats) {
    assert_eq!(
        stats.cap_exceeded, 0,
        "a schedule exceeded the step budget: close/drain failed to terminate"
    );
    assert!(stats.schedules > 1, "exploration never branched — shim not wired?");
}

#[test]
fn ring_delivers_exactly_the_pushed_sequence_under_all_schedules() {
    let stats = explore(config(), |sched| {
        // Capacity 2 under 5 values: wraparound and the full boundary
        // are both exercised inside the explored window.
        let ring = SpscRing::with_capacity(2);
        let popped = Mutex::new(Vec::new());
        sched.run(vec![
            Box::new(|| {
                for v in 0..5u64 {
                    ring.push(v).expect("consumer drains until close");
                }
                ring.close();
            }),
            Box::new(|| {
                while let Some(v) = ring.pop() {
                    popped.lock().unwrap().push(v);
                }
            }),
        ]);
        let got = popped.into_inner().unwrap();
        assert_eq!(
            got,
            vec![0, 1, 2, 3, 4],
            "stale, lost, reordered, or double-popped frame"
        );
    });
    assert_live(&stats);
}

#[test]
fn consumer_side_close_unblocks_a_producer_stuck_on_full() {
    let stats = explore(config(), |sched| {
        let ring = SpscRing::with_capacity(1);
        ring.try_push(0u64).unwrap();
        sched.run(vec![
            // Spins on the full boundary until the close lands.
            Box::new(|| {
                assert_eq!(ring.push(1), Err(1), "push must fail once closed");
            }),
            Box::new(|| ring.close()),
        ]);
        // The value queued before the close still drains afterwards.
        assert_eq!(ring.try_pop(), Some(0));
        assert_eq!(ring.try_pop(), None);
    });
    assert_live(&stats);
}

#[test]
fn producer_side_close_never_loses_queued_frames() {
    let stats = explore(config(), |sched| {
        let ring = SpscRing::with_capacity(4);
        let popped = Mutex::new(Vec::new());
        sched.run(vec![
            Box::new(|| {
                ring.try_push(7u64).unwrap();
                ring.try_push(8).unwrap();
                ring.close();
            }),
            // A consumer racing the close must still see both frames:
            // close refuses new pushes but never drops queued values.
            Box::new(|| {
                while let Some(v) = ring.pop() {
                    popped.lock().unwrap().push(v);
                }
            }),
        ]);
        assert_eq!(popped.into_inner().unwrap(), vec![7, 8]);
    });
    assert_live(&stats);
}

#[test]
fn racing_try_push_try_pop_never_fabricates_or_drops_a_value() {
    let stats = explore(config(), |sched| {
        let ring = SpscRing::with_capacity(2);
        let pushed = Mutex::new(0u64);
        let popped = Mutex::new(Vec::new());
        sched.run(vec![
            // Non-blocking producer: counts what actually landed.
            Box::new(|| {
                let mut n = 0;
                for v in 0..3u64 {
                    if ring.try_push(v).is_ok() {
                        n += 1;
                    }
                }
                *pushed.lock().unwrap() = n;
            }),
            // Non-blocking consumer: may observe any prefix.
            Box::new(|| {
                for _ in 0..3 {
                    if let Some(v) = ring.try_pop() {
                        popped.lock().unwrap().push(v);
                    }
                }
            }),
        ]);
        let n = *pushed.lock().unwrap();
        let mut got = popped.into_inner().unwrap();
        // Drain the remainder on the main thread (uncontrolled is fine:
        // both workers are joined).
        while let Some(v) = ring.try_pop() {
            got.push(v);
        }
        // try_push skips values when full, but whatever landed comes out
        // exactly once, in order, with nothing invented.
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    });
    assert_live(&stats);
}

#[test]
fn shutdown_request_is_always_observed_and_publishes_what_came_before() {
    let stats = explore(config(), |sched| {
        let token = ShutdownToken::new();
        let requester = token.clone();
        // What the requester wrote before asking to stop, which the
        // token's Release/Acquire pair publishes to the engine.
        let reason = Tracked::new(0u64);
        let observed = Tracked::new(0u64);
        let (reason, observed) = (&reason, &observed);
        sched.run(vec![
            Box::new(move || {
                reason.set(7);
                requester.request();
            }),
            // The engine's poll loop: spins until the flag lands. The
            // step budget converts a lost-wakeup bug into a hard fail.
            Box::new(|| {
                while !token.is_requested() {
                    std::hint::spin_loop();
                }
                observed.set(reason.get());
            }),
        ]);
        assert_eq!(observed.get(), 7);
    });
    assert_live(&stats);
}

#[test]
fn exploration_is_deterministic_at_the_pinned_seed() {
    // A failure names its schedule, and reaching it again needs the same
    // schedules at the same seed and depth: a drift here means the
    // harness (or the ring) changed behavior.
    let run = || {
        explore(config(), |sched| {
            let ring = SpscRing::with_capacity(1);
            sched.run(vec![
                Box::new(|| {
                    let _ = ring.push(1u64);
                    ring.close();
                }),
                Box::new(|| while ring.pop().is_some() {}),
            ]);
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.cap_exceeded, 0);
    assert!(a.exhausted || a.schedules == config().max_schedules);
}
