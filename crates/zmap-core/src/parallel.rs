//! The threaded driver: the engine shape real ZMap uses (Adrian et al.
//! 2014) — N send threads, each owning one subshard of the cyclic group,
//! plus one receive loop — over a transport shared by reference and
//! paced by a *shared virtual clock*. A lane is one thread stepping a
//! `scanner::Lane` — the inline driver's one lane, with one walk and
//! every k-th slot of the schedule — and publishing its position after
//! each step. The calling thread runs `Engine::rx_tick`, then
//! `cooldown`, `finish`. Between turns it parks, unless the transport
//! wants it to go on routing (see [`Transport::receiver_parks`]): while
//! it is awake, the simulator's lanes leave their admitted frames to it,
//! so the simulated network's work runs on the receive thread and the
//! lanes only render and admit. A parked loop is woken by a lane whose
//! clock reaches its next status sample or journal, or, every
//! `DRAIN_EVERY` flushes, a pending delivery. The stages live in
//! `scanner.rs`; this file is who runs them where.
//!
//! A transport is shareable the way `&TcpStream: Write` says it in std:
//! `T: Sync` and `&T: Transport` (the simulator's `&SimTransport`), each
//! thread driving its own copy of the reference.
//!
//! **No wall clock.** Each lane stamps its frames with its own slots of
//! the interleaved schedule and advances the transport's monotone clock
//! to them, so probe ordering, delivery times, and the summary are
//! functions of the seed — never of host scheduling.

use crate::config::ScanConfig;
use crate::log::Logger;
use crate::metrics::ScanMetrics;
use crate::scanner::{Engine, Exit, Lane, PreparedScan, RunOptions, ScanSummary};
use crate::transport::{SimTransport, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zmap_targets::generator::BuildError;

/// Flushes between a parked receive loop's looks, by a lane, for
/// pending deliveries: each wake of the loop costs a context switch, and
/// a lane's look takes the world lock. An awake loop needs no look.
const DRAIN_EVERY: u64 = 64;

/// A lane's published position, alone on its cache lines (128 bytes
/// covers the adjacent-line prefetch pair). Each lane stores it once per
/// batch; packed in one 16-byte `Vec`, a two-lane scan's positions share
/// a line that then crosses between the cores once per batch per lane.
#[repr(align(128))]
struct OwnLine(AtomicU64);

/// `wake_at` while the receive loop is awake: no lane wakes it or looks.
const AWAKE: u64 = u64::MAX;

/// Hands routing back to the lanes when the receive loop ends, by return
/// or by unwinding, so that no lane waits on a loop that is gone.
struct Leaving<'t, T>(&'t T)
where
    for<'a> &'a T: Transport;

impl<T> Drop for Leaving<'_, T>
where
    for<'a> &'a T: Transport,
{
    fn drop(&mut self) {
        self.0.receiver_leaves();
    }
}

/// The former name of [`SimTransport`].
pub type SharedSimTransport = SimTransport;

/// Runs `cfg` through the threaded driver with default options and no
/// logger (see [`PreparedScan::run`]).
pub fn run_parallel<T>(cfg: &ScanConfig, transport: &T) -> Result<ScanSummary, BuildError>
where
    T: Sync,
    for<'a> &'a T: Transport,
{
    Ok(PreparedScan::new(cfg.clone(), Logger::null())?.run(transport, RunOptions::default()))
}

impl PreparedScan {
    /// The threaded driver: runs the scan over a shared `transport` with
    /// one send thread per lane (`cfg.subshards`) and collects the
    /// records into the summary (arrival order depends on thread
    /// scheduling; front-ends sort them once the scan is over).
    ///
    /// The receive side runs on the calling thread until all lanes
    /// finish, then through the cooldown. Pacing is virtual — lane t of k
    /// owns slots t, t + k, … and leaves them empty once it runs dry — so
    /// the scan runs at memory speed and replays independent of host
    /// timing.
    pub fn run<T>(self, mut transport: &T, opts: RunOptions) -> ScanSummary
    where
        T: Sync,
        for<'a> &'a T: Transport,
    {
        let (scan, cfg, opts) = (&self, &self.cfg, &opts);
        // None of the atomics below guards data: the scope's join or the
        // world's lock orders what they announce (DESIGN §9, "Flags that
        // guard no data").
        // [atomics] finished_senders: Release increment as each lane's
        // last visible write, followed by an unconditional unpark of the
        // receive thread, so the loop cannot stay parked past the last
        // lane; Acquire load by the receive loop so a full count means
        // every lane's effects are visible. (Closures bind it as
        // `finished`; same protocol.)
        let finished_senders = AtomicU64::new(0);
        // [atomics] interrupted_senders: Relaxed count of senders that
        // bailed on shutdown/kill; read after the join barrier, which
        // orders it. (Closures bind it as `interrupted`; same protocol.)
        let interrupted_senders = AtomicU64::new(0);
        // [atomics] killed: Release store when any thread observes the
        // kill, Acquire load so whoever sees the flag also sees the
        // killing state.
        let killed = AtomicBool::new(false);
        // [atomics] wake_at: Relaxed store by the receive loop, before it
        // parks, of when its next status sample or journal is due, and of
        // `AWAKE` once it wakes; Relaxed load by a lane after each flush,
        // which unparks a parked loop once its clock has reached that or a
        // pending delivery. It guards no data: a stale read only delays a
        // drain to the lane's next flush or final unpark, or costs one
        // unpark or look, and frames carry their own timestamps.
        let wake_at = AtomicU64::new(AWAKE);
        let receiver = std::thread::current();
        let start = transport.now();
        let threads = cfg.subshards;

        // The metrics registry: one counter/histogram shard per lane plus
        // one for the receive loop, so every hot-path increment is an
        // uncontended atomic add.
        let metrics = ScanMetrics::new(threads as usize + 1, scan.baseline);

        // Per-lane element positions, observable by the receive loop for
        // checkpointing without stopping the lanes, each on a line of its
        // own.
        // [atomics] positions: Relaxed stores/loads — checkpoint snapshots
        // tolerate slight staleness (a rewound resume re-sends, never
        // skips). (Each lane binds its own as `position`; same protocol.)
        let positions: Vec<OwnLine> = (0..threads as usize)
            .map(|t| {
                let resumed = scan.start_positions.as_ref().and_then(|p| p.get(t).copied());
                OwnLine(AtomicU64::new(resumed.unwrap_or(0)))
            })
            .collect();
        let snapshot_positions = || -> Vec<u64> {
            positions.iter().map(|OwnLine(position)| position.load(Ordering::Relaxed)).collect()
        };
        let mut results = Vec::new();
        let mut engine =
            Engine::start(scan, &metrics, opts, start, snapshot_positions(), &mut results);

        std::thread::scope(|scope| {
            for t in 0..threads {
                let (metrics, finished, killed) = (&metrics, &finished_senders, &killed);
                let (interrupted, position) = (&interrupted_senders, &positions[t as usize].0);
                let (wake_at, receiver) = (&wake_at, &receiver);
                scope.spawn(move || {
                    let mut transport = transport;
                    let mut lane = Lane::new(scan, metrics, (t, threads), t..t + 1, start);
                    let mut flushes = 0u64;
                    loop {
                        let more = lane.step(&mut transport, opts.shutdown.as_ref(), killed);
                        if killed.load(Ordering::Acquire) {
                            break;
                        }
                        // Published only once every frame has left: a
                        // checkpoint can never record a target whose frame
                        // has not (resume re-walks, never skips).
                        position.store(lane.walks[0].elements_consumed(), Ordering::Relaxed);
                        // A delivery this lane's sends scheduled can fall due
                        // before the time the receive loop parked until, and
                        // a scan that is answered has routing worth taking
                        // off the lanes: look every `DRAIN_EVERY` flushes
                        // while it is parked, and wake it while any delivery
                        // is pending.
                        flushes += 1;
                        let wake = wake_at.load(Ordering::Relaxed);
                        if lane.clock >= wake
                            || (wake != AWAKE
                                && flushes.is_multiple_of(DRAIN_EVERY)
                                && transport.next_rx_at().is_some())
                        {
                            receiver.unpark();
                        }
                        if !more {
                            break;
                        }
                    }
                    interrupted.fetch_add(u64::from(lane.interrupted), Ordering::Relaxed);
                    finished.fetch_add(1, Ordering::Release);
                    receiver.unpark();
                });
            }

            // The receive side on this thread. While lanes run, the clock
            // is theirs to advance: after each turn this thread publishes
            // when its next status sample or periodic journal is due and
            // parks until a lane's clock reaches that or a delivery — unless
            // the transport wants it to go on routing the lanes' frames. A
            // scheduled kill can land on the receive path too: stop
            // immediately.
            let _leaving = Leaving(transport);
            transport.receiver_wakes();
            loop {
                engine.rx_tick(&mut transport, snapshot_positions);
                if killed.load(Ordering::Acquire) || transport.killed() {
                    killed.store(true, Ordering::Release);
                    break;
                }
                if finished_senders.load(Ordering::Acquire) == u64::from(threads) {
                    break;
                }
                let due = engine.next_due();
                wake_at.store(due, Ordering::Relaxed);
                if transport.now() < due && transport.receiver_parks() {
                    std::thread::park();
                    transport.receiver_wakes();
                }
                wake_at.store(AWAKE, Ordering::Relaxed);
            }
        });

        // Lanes have quiesced: the clock reads the last scheduled send
        // time and this thread is again its only writer, so the marks the
        // cooldown and the exit record replay deterministically. The walk
        // is complete only if every lane exhausted its subshard.
        let killed = killed.load(Ordering::Acquire);
        let exit = if killed { Exit::Killed } else { engine.cooldown(&mut transport) };
        let interrupted = interrupted_senders.load(Ordering::Relaxed) > 0;
        let mut summary = engine.finish(&transport, exit, interrupted, snapshot_positions());
        summary.results = results;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointPolicy, CheckpointState};
    use crate::log::Level;
    use crate::shutdown::ShutdownToken;
    use crate::transport::{FrameBatch, RxBatch, SimNet};
    use std::collections::HashSet;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Mutex;
    use std::thread::Thread;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{FaultPlan, SendError, ServiceModel, WorldConfig};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

    /// A lossless world where every host answers on port 80 (and RSTs
    /// everywhere else): the ground truth of a scan is its prefix.
    fn dense_net(faults: FaultPlan) -> SimNet {
        SimNet::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults,
            ..WorldConfig::default()
        })
    }

    fn dense_world(faults: FaultPlan) -> SimTransport {
        dense_net(faults).transport(SRC)
    }

    /// A scan of `44.<net>.0.0/<len>` over `lanes` subshards.
    fn prefix_cfg(net: u8, len: u8, lanes: u32, rate_pps: u64) -> ScanConfig {
        let mut cfg = ScanConfig::new(SRC);
        cfg.allowlist_prefix(Ipv4Addr::new(44, net, 0, 0), len);
        cfg.apply_default_blocklist = false;
        cfg.subshards = lanes;
        cfg.rate_pps = rate_pps;
        cfg.cooldown_secs = 1;
        cfg
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("zmap-parallel-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A shared transport that wedges once `healthy` batches have left:
    /// the clock stops, later sends are swallowed, nothing more arrives
    /// and the next delivery stays one nanosecond away — the stall the
    /// cooldown watchdog exists to break. `u64::MAX` never wedges; 0 is a
    /// clock frozen from the start.
    struct Wedging {
        inner: SimTransport,
        healthy: u64,
        batches: AtomicU64,
        polls: AtomicU64,
        /// The thread that last polled, unparked while a send waits on it.
        poller: Mutex<Option<Thread>>,
        wedged: AtomicBool,
    }

    impl Wedging {
        fn after(healthy: u64, faults: FaultPlan) -> Self {
            let (batches, polls) = (AtomicU64::new(0), AtomicU64::new(0));
            let (poller, wedged) = (Mutex::new(None), false.into());
            Wedging { inner: dense_world(faults), healthy, batches, polls, poller, wedged }
        }
    }

    impl Transport for &Wedging {
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn advance_to(&mut self, t: u64) {
            if !self.wedged.load(Ordering::SeqCst) {
                (&self.inner).advance_to(t);
            }
        }
        fn send_batch(&mut self, batch: &FrameBatch, from: usize) -> (usize, Option<SendError>) {
            if self.batches.load(Ordering::SeqCst) == self.healthy {
                // Force the interleaving a mid-scan wedge is tested under:
                // two receive polls — so one whole `rx_tick` — see the last
                // healthy batch before the clock stops. (Threaded driver
                // only: the inline one polls on this very thread.) A parked
                // receive loop polls only when woken, so wake it.
                let seen = self.polls.load(Ordering::SeqCst);
                while self.healthy > 0 && self.polls.load(Ordering::SeqCst) < seen + 2 {
                    if let Some(poller) = self.poller.lock().unwrap().as_ref() {
                        poller.unpark();
                    }
                    std::thread::yield_now();
                }
                self.wedged.store(true, Ordering::SeqCst);
            }
            if self.wedged.load(Ordering::SeqCst) {
                return (batch.len() - from, None);
            }
            self.batches.fetch_add(1, Ordering::SeqCst);
            (&self.inner).send_batch(batch, from)
        }
        fn recv_into(&mut self, rx: &mut RxBatch) {
            *self.poller.lock().unwrap() = Some(std::thread::current());
            self.polls.fetch_add(1, Ordering::SeqCst);
            if !self.wedged.load(Ordering::SeqCst) {
                (&self.inner).recv_into(rx);
            }
        }
        fn next_rx_at(&self) -> Option<u64> {
            match self.wedged.load(Ordering::SeqCst) {
                true => Some(self.now() + 1),
                false => self.inner.next_rx_at(),
            }
        }
        fn killed(&self) -> bool {
            self.inner.killed()
        }
    }

    /// Who runs the stages — name, lanes, entry point. `&T: Transport`
    /// serves both: the inline driver owns a copy of the reference, the
    /// threaded one borrows it.
    type Run = fn(PreparedScan, &Wedging, RunOptions) -> ScanSummary;
    const DRIVERS: [(&str, u32, Run); 4] = [
        ("inline", 1, |scan, transport, opts| scan.on(transport).run_with(opts)),
        ("threaded × 1", 1, |scan, transport, opts| scan.run(transport, opts)),
        ("threaded × 2", 2, |scan, transport, opts| scan.run(transport, opts)),
        ("threaded × 4", 4, |scan, transport, opts| scan.run(transport, opts)),
    ];

    /// One scenario of the cross-driver table, against a dense /24: the
    /// netsim oracle is the whole prefix, so `found: Some(n)` demands
    /// exactly `n` of its addresses and `None` one per probe that left.
    struct Row {
        name: &'static str,
        faults: fn() -> FaultPlan,
        /// See [`Wedging`].
        healthy: u64,
        tweak: fn(&mut ScanConfig),
        /// The fault plan kills the first attempt; the expectations apply
        /// to the resumed one (found = both attempts' union).
        resume_after_kill: bool,
        shutdown_requested: bool,
        sent: Option<u64>,
        found: Option<u64>,
        shutdown_clean: u64,
        watchdog_stalls: u64,
    }

    const CLEAN: Row = Row {
        name: "clean",
        faults: FaultPlan::none,
        healthy: u64::MAX,
        tweak: |_| {},
        resume_after_kill: false,
        shutdown_requested: false,
        sent: Some(256),
        found: Some(256),
        shutdown_clean: 1,
        watchdog_stalls: 0,
    };

    /// Each row names the per-engine tests it replaced.
    const ROWS: [Row; 8] = [
        // single_thread_parallel_matches_engine_coverage,
        // parallel_scan_covers_everything_once (the four-lane driver),
        // status_stream_reports_virtual_progress (256 probes at 100 pps
        // span 2.5 virtual seconds of samples).
        Row { tweak: |c| c.rate_pps = 100, ..CLEAN },
        // threaded_rx_honors_dedup_and_failure_reporting: the world
        // answers only on 80, so port 81 draws 256 RSTs; each is a row,
        // and the configured 64-entry window does the dedup.
        Row {
            name: "failures reported through a 64-entry window",
            tweak: |c| {
                c.ports = vec![81];
                c.dedup = crate::config::DedupMethod::Window(64);
                c.report_failures = true;
            },
            ..CLEAN
        },
        // scanner::pre_requested_shutdown_is_clean_and_sends_nothing,
        // pre_requested_shutdown_stops_senders_at_cycle_boundary.
        Row {
            name: "pre-requested shutdown",
            shutdown_requested: true,
            sent: Some(0),
            found: Some(0),
            ..CLEAN
        },
        // scanner::kill_then_resume_covers_the_whole_space,
        // scanner::killed_scan_reports_unclean_shutdown,
        // scanner::checkpoint_journal_is_written_and_marks_completion,
        // parallel_kill_then_resume_covers_everything.
        Row {
            name: "kill, then resume",
            faults: || FaultPlan::builder().kill_at(150).build(),
            tweak: |c| (c.rate_pps, c.probes_per_target) = (1_000, 1),
            resume_after_kill: true,
            sent: None,
            ..CLEAN
        },
        // watchdog_breaks_a_frozen_cooldown, which asserted
        // `shutdown_clean == 1`: a stall is not an orderly exit (the
        // reasoning is on `Engine::finish`).
        Row {
            name: "frozen clock",
            healthy: 0,
            found: Some(0),
            shutdown_clean: 0,
            watchdog_stalls: 1,
            ..CLEAN
        },
        // New: refused sends, with a retry budget small enough that some
        // probes are abandoned. The engines used to back off on different
        // schedules (989 vs 986 hosts on the CI scan); the arrival times
        // compared below pin the one schedule.
        Row {
            name: "30% of sends refused",
            faults: || FaultPlan::builder().send_failures(0.3).build(),
            tweak: |c| c.max_retries = 2,
            sent: None,
            found: None,
            ..CLEAN
        },
        // New: the threaded driver used to refuse `max_targets`. Split
        // over four lanes, 102 is 26 + 26 + 25 + 25.
        Row {
            name: "max targets 102",
            tweak: |c| c.max_targets = 102,
            sent: Some(102),
            found: Some(102),
            ..CLEAN
        },
        // New: the threaded engine used to drop `probes_per_target`.
        Row {
            name: "two probes per target",
            tweak: |c| c.probes_per_target = 2,
            sent: Some(512),
            ..CLEAN
        },
    ];

    #[test]
    fn every_driver_runs_every_scenario_to_the_same_result() {
        for (i, row) in ROWS.iter().enumerate() {
            let mut agreed = None;
            for (driver, lanes, run) in DRIVERS {
                let at = format!("{} / {driver}", row.name);
                let mut cfg = prefix_cfg(100 + i as u8, 24, lanes, 100_000);
                (row.tweak)(&mut cfg);
                let path = temp_path(&format!("table-{i}-{driver}.ckpt"));
                let token = ShutdownToken::new();
                if row.shutdown_requested {
                    token.request();
                }
                let opts = || RunOptions {
                    checkpoint: row
                        .resume_after_kill
                        .then(|| CheckpointPolicy::new(&path).with_interval_ns(10_000_000)),
                    shutdown: Some(token.clone()),
                    ..Default::default()
                };
                let world = Wedging::after(row.healthy, (row.faults)());
                // scanner::logger_receives_scan_lifecycle, for every driver.
                let log = Logger::memory(Level::Info);
                let fresh = PreparedScan::new(cfg.clone(), log.clone()).unwrap();
                let mut s = run(fresh, &world, opts());
                let logged = |what| log.lines().iter().any(|(_, l)| l.starts_with(what));
                let orderly = !row.shutdown_requested && row.watchdog_stalls == 0;
                assert!(logged("scan configured"), "{at}");
                assert_eq!(logged("scan complete"), orderly && !s.killed, "{at}");
                let mut found: HashSet<_> = s.results.iter().map(|r| r.saddr).collect();
                if row.resume_after_kill {
                    let c = &s.metadata.counters;
                    assert!(s.killed && c.shutdown_clean == 0 && c.sent < 256, "{at}");
                    // Each lane whose flush met the kill counts the one
                    // target whose frame was in flight. A threaded kill
                    // can also land on the receive path between flushes.
                    let in_flight = c.targets_total - c.sent;
                    assert!(in_flight <= u64::from(lanes), "{at}: {in_flight} in flight");
                    assert!(driver != "inline" || in_flight == 1, "{at}: {in_flight} in flight");
                    let journal = CheckpointState::load(&path).unwrap();
                    assert!(!journal.complete, "{at}");
                    let resumed = PreparedScan::resume(cfg.clone(), &journal, Logger::null());
                    let healthy_world = Wedging::after(u64::MAX, FaultPlan::none());
                    let second = run(resumed.unwrap(), &healthy_world, opts());
                    let c2 = &second.metadata.counters;
                    assert!(c2.sent >= c.sent, "{at}: counters are cumulative");
                    assert_eq!(c2.resume_count, 1, "{at}");
                    // The final journal: complete, counted, cumulative.
                    let j2 = CheckpointState::load(&path).unwrap();
                    assert!(j2.complete, "{at}");
                    let j2 = j2.counters;
                    assert_eq!(
                        (j2.resume_count, j2.shutdown_clean, j2.sent, j2.checkpoints_written),
                        (1, 1, c2.sent, c2.checkpoints_written),
                        "{at}"
                    );
                    found.extend(second.results.iter().map(|r| r.saddr));
                    s = second;
                } else {
                    let c = &s.metadata.counters;
                    let probes = c.targets_total * u64::from(cfg.probes_per_target);
                    assert_eq!(c.sent + c.sendto_failures, probes, "{at}: every probe accounted");
                }
                let c = &s.metadata.counters;
                let in_prefix = |ip: &IpAddr| match ip {
                    IpAddr::V4(a) => a.octets()[..3] == [44, 100 + i as u8, 0],
                    IpAddr::V6(_) => false,
                };
                assert!(found.iter().all(in_prefix), "{at}: a result outside the oracle");
                assert_eq!(found.len() as u64, row.found.unwrap_or(c.sent), "{at}");
                assert_eq!(c.sent, row.sent.unwrap_or(c.sent), "{at}");
                assert_eq!(
                    (c.shutdown_clean, s.killed, c.watchdog_stalls),
                    (row.shutdown_clean, false, row.watchdog_stalls),
                    "{at}"
                );
                let sent_so_far: Vec<_> = s.status.iter().map(|u| u.counters.sent).collect();
                assert!(!sent_so_far.is_empty(), "{at}: status stream present");
                assert!(sent_so_far.windows(2).all(|w| w[0] <= w[1]), "{at}");
                // One lane is one schedule: the inline and the threaded
                // driver must agree to the counter and the nanosecond (a
                // threaded kill lands on a scheduling-dependent event, so
                // not that row).
                if lanes == 1 && !row.resume_after_kill {
                    let mut arrivals: Vec<_> =
                        s.results.iter().map(|r| (r.ts_ns, r.saddr)).collect();
                    arrivals.sort();
                    let books =
                        (c.sent, c.send_retries, c.sendto_failures, c.unique_successes, arrivals);
                    assert_eq!(*agreed.get_or_insert(books.clone()), books, "{at}");
                }
            }
        }
    }

    /// A threaded run could not report a failed checkpoint write before
    /// the logger rode on the prepared scan.
    #[test]
    fn threaded_run_logs_a_failed_checkpoint_write_and_continues() {
        let log = Logger::memory(Level::Warn);
        let scan = PreparedScan::new(prefix_cfg(20, 26, 2, 100_000), log.clone()).unwrap();
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(temp_path("no-such-dir").join("scan.ckpt"))),
            ..Default::default()
        };
        let s = scan.run(&dense_world(FaultPlan::none()), opts);
        let c = &s.metadata.counters;
        assert_eq!((c.sent, c.unique_successes, c.shutdown_clean), (64, 64, 1));
        assert_eq!(c.checkpoints_written, 0);
        assert!(log
            .lines()
            .iter()
            .any(|(lvl, l)| *lvl == Level::Warn && l.contains("checkpoint write failed")));
    }

    /// The case `Engine::finish` documents: the sends a wedged transport
    /// swallowed still advance the lane's position, so a final journal
    /// would resume past targets that were never probed.
    #[test]
    fn stalled_threaded_run_keeps_its_last_periodic_journal() {
        let path = temp_path("stalled.ckpt");
        let transport = Wedging::after(2, FaultPlan::none());
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path).with_interval_ns(1)),
            ..Default::default()
        };
        let scan = PreparedScan::new(prefix_cfg(21, 24, 1, 100_000), Logger::null()).unwrap();
        let mut walk = scan.walk(0);
        walk.nth(2 * scan.cfg.batch - 1);
        let sent_before_the_stall = walk.elements_consumed();
        let s = scan.run(&transport, opts);
        let c = &s.metadata.counters;
        assert_eq!((c.watchdog_stalls, c.shutdown_clean, s.killed), (1, 0, false));
        assert_eq!(c.sent, 256, "the wedged transport swallowed the rest");
        assert!(c.checkpoints_written >= 2, "the initial journal and a periodic one");
        let journal = CheckpointState::load(&path).unwrap();
        assert_eq!(journal.counters.checkpoints_written, c.checkpoints_written, "the last write");
        assert!(!journal.complete);
        assert_eq!(journal.counters.watchdog_stalls, 0, "written before the stall");
        assert!(journal.positions[0] <= sent_before_the_stall, "{:?}", journal.positions);
    }

    #[test]
    fn parallel_scan_is_deterministic_in_virtual_time() {
        let run = || {
            let transport = dense_world(FaultPlan::none());
            let mut s = run_parallel(&prefix_cfg(2, 24, 4, 400_000), &transport).unwrap();
            // Drain order may interleave across threads; the *content*
            // (which host answered when, on the virtual clock) may not.
            s.results.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport));
            s
        };
        let a = run();
        let b = run();
        let (ca, cb) = (&a.metadata.counters, &b.metadata.counters);
        assert_eq!((ca.sent, ca.unique_successes), (cb.sent, cb.unique_successes));
        let times_a: Vec<_> = a.results.iter().map(|r| (r.ts_ns, r.saddr)).collect();
        let times_b: Vec<_> = b.results.iter().map(|r| (r.ts_ns, r.saddr)).collect();
        assert_eq!(times_a, times_b, "virtual timestamps must replay exactly");
        assert_eq!(a.metadata.duration_ns, b.metadata.duration_ns);
    }

    /// A thread that panicked while holding the world lock, or the wire's,
    /// leaves it poisoned and the world whole: the next scan takes both
    /// locks, and the frames staged on the wire before the panic are
    /// routed with the scan's own.
    #[test]
    fn a_poisoned_world_lock_is_taken() {
        let net = dense_net(FaultPlan::none());
        let transport = net.transport(SRC);
        let probe = zmap_wire::ProbeBuilder::new(SRC, 1);
        let mut staged = FrameBatch::new(8);
        for i in 0..8 {
            let frame = probe.tcp_syn(Ipv4Addr::new(44, 4, 0, i), 80, 0);
            staged.slot(0, 0).extend_from_slice(&frame);
        }
        transport.receiver_wakes();
        assert_eq!((&transport).send_batch(&staged, 0), (8, None));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let world = std::panic::AssertUnwindSafe(|| {
            net.with_world(|_| panic!("poisoning the world lock"))
        });
        let wire = std::panic::AssertUnwindSafe(|| {
            net.with_wire_locked(|| panic!("poisoning the wire lock"))
        });
        let results = [std::panic::catch_unwind(world), std::panic::catch_unwind(wire)];
        std::panic::set_hook(prev);
        assert!(results.iter().all(Result::is_err), "the poisoning closures must panic");
        let s = run_parallel(&prefix_cfg(3, 26, 2, 100_000), &transport).unwrap();
        let c = &s.metadata.counters;
        assert_eq!((c.sent, c.unique_successes), (64, 64), "a poisoned lock loses no coverage");
        let w = net.with_world(|w| w.stats());
        assert_eq!((w.frames_sent, w.responses_generated), (72, 72), "nor a staged frame");
    }

    /// Whatever the lanes left on the wire is routed by the time `run`
    /// returns, killed or not: the world counts every frame the scan
    /// counts as sent, each one swallowed by the blackout.
    #[test]
    fn no_frame_is_left_on_the_wire() {
        for (lanes, kill_at) in [(1, None), (2, None), (1, Some(40_000)), (2, Some(40_000))] {
            let at = format!("{lanes} lanes, kill at {kill_at:?}");
            let dark = FaultPlan::builder().blackout(Ipv4Addr::new(44, 13, 0, 0), 16, 0, u64::MAX);
            let faults = match kill_at {
                Some(k) => dark.kill_at(k),
                None => dark,
            };
            let net = dense_net(faults.build());
            let transport = net.transport(SRC);
            let s = run_parallel(&prefix_cfg(13, 16, lanes, 20_000), &transport).unwrap();
            let c = &s.metadata.counters;
            assert_eq!(s.killed, kill_at.is_some(), "{at}");
            assert!(c.sent == 1 << 16 || s.killed && c.sent < 40_000, "{at}: {} sent", c.sent);
            let w = net.with_world(|w| w.stats());
            assert_eq!((w.frames_sent, w.drops_blackout), (c.sent, c.sent), "{at}");
        }
    }

    /// A dense world whose receive path panics on its `fault_at`-th poll.
    struct PanicsOnRecv {
        inner: SimTransport,
        fault_at: u64,
        polls: AtomicU64,
    }

    impl Transport for &PanicsOnRecv {
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn advance_to(&mut self, t: u64) {
            (&self.inner).advance_to(t);
        }
        fn send_batch(&mut self, batch: &FrameBatch, from: usize) -> (usize, Option<SendError>) {
            (&self.inner).send_batch(batch, from)
        }
        fn recv_into(&mut self, rx: &mut RxBatch) {
            if self.polls.fetch_add(1, Ordering::SeqCst) == self.fault_at {
                panic!("receive path fault");
            }
            (&self.inner).recv_into(rx);
        }
        fn next_rx_at(&self) -> Option<u64> {
            self.inner.next_rx_at()
        }
        fn killed(&self) -> bool {
            self.inner.killed()
        }
    }

    /// A panic on the receive loop's thread reaches the caller once the
    /// lanes have finished; it neither hangs them nor is swallowed.
    #[test]
    fn a_receive_path_panic_reaches_the_caller() {
        for fault_at in [0, 40] {
            let transport = PanicsOnRecv {
                inner: dense_world(FaultPlan::none()),
                fault_at,
                polls: AtomicU64::new(0),
            };
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let scan = std::panic::AssertUnwindSafe(|| {
                run_parallel(&prefix_cfg(11, 18, 2, 1_000_000), &transport)
            });
            let result = std::panic::catch_unwind(scan);
            std::panic::set_hook(prev);
            assert!(result.is_err(), "poll {fault_at}: the panic must reach the caller");
        }
    }

    /// A world that counts the receive loop's polls.
    struct CountsPolls {
        inner: SimTransport,
        polls: AtomicU64,
    }

    impl Transport for &CountsPolls {
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn advance_to(&mut self, t: u64) {
            (&self.inner).advance_to(t);
        }
        fn send_batch(&mut self, batch: &FrameBatch, from: usize) -> (usize, Option<SendError>) {
            (&self.inner).send_batch(batch, from)
        }
        fn recv_into(&mut self, rx: &mut RxBatch) {
            self.polls.fetch_add(1, Ordering::SeqCst);
            (&self.inner).recv_into(rx);
        }
        fn next_rx_at(&self) -> Option<u64> {
            self.inner.next_rx_at()
        }
        fn killed(&self) -> bool {
            self.inner.killed()
        }
    }

    /// With nothing to receive, the receive loop wakes only when a lane's
    /// clock passes a status tick, plus spurious wake-ups — at most one
    /// per flush — and its first and cooldown polls: it parks, not spins.
    #[test]
    fn the_receive_loop_parks_while_the_lanes_send() {
        let dark = FaultPlan::builder().blackout(Ipv4Addr::new(44, 12, 0, 0), 16, 0, u64::MAX);
        let transport =
            CountsPolls { inner: dense_world(dark.build()), polls: AtomicU64::new(0) };
        let cfg = prefix_cfg(12, 20, 1, 1_000);
        let batches = 4096u64.div_ceil(cfg.batch as u64);
        let s = run_parallel(&cfg, &transport).unwrap();
        let c = &s.metadata.counters;
        assert_eq!((c.sent, c.responses_validated), (4096, 0), "a dark /20");
        let ticks = s.status.len() as u64;
        assert!(ticks >= 4, "4096 probes at 1 kpps span 4 s: {ticks} status ticks");
        let polls = transport.polls.load(Ordering::SeqCst);
        assert!(polls <= 2 * batches + ticks + 2, "{polls} polls for {batches} batches");
    }

    #[test]
    fn aggregate_rate_survives_awkward_thread_splits() {
        // 1000 pps on 7 threads: the old truncating split paced each
        // thread at 142 pps (994 aggregate). The interleaved schedule's
        // last probe of a /24 is global slot 255 → t = 255 ms exactly.
        let transport = dense_world(FaultPlan::none());
        let s = run_parallel(&prefix_cfg(9, 24, 7, 1000), &transport).unwrap();
        assert_eq!(s.metadata.counters.sent, 256);
        // Send phase spans [0, 255 ms]; the clock can only have been
        // pushed past that by the cooldown drain (+1 s) afterwards.
        let send_span_ns = 255 * 1_000_000;
        assert!(
            s.metadata.duration_ns >= send_span_ns,
            "aggregate rate ran hot: {} < {}",
            s.metadata.duration_ns,
            send_span_ns
        );
    }

    #[test]
    fn rates_below_the_thread_count_pace_correctly() {
        // 3 pps on 7 threads: the old `max(1)` clamp ran the scan at
        // 7 pps. 16 targets at a true 3 pps put the last send at 5 s.
        let transport = dense_world(FaultPlan::none());
        let s = run_parallel(&prefix_cfg(10, 28, 7, 3), &transport).unwrap();
        let c = &s.metadata.counters;
        assert_eq!(c.sent, 16);
        assert!(
            s.metadata.duration_ns >= 5_000_000_000,
            "16 probes at 3 pps span 5 s; got {} ns",
            s.metadata.duration_ns
        );
        assert_eq!(c.unique_successes, 16, "slow scans still cover everything");
    }
}
