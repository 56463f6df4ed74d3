//! The threaded driver: the engine shape real ZMap uses (Adrian et al.
//! 2014) — N send threads, each owning one subshard of the cyclic group,
//! plus one receive loop — over a transport shared by reference and
//! paced by a *shared virtual clock*. A lane is one thread running the
//! inline driver's send shape over its subshard: walk → `scanner::emit`
//! → `scanner::flush` per batch, then publish its position. The calling
//! thread runs `Engine::rx_tick`, parked between turns until a lane's
//! clock reaches its next delivery or tick, then `cooldown`, `finish`.
//! The stages live in `scanner.rs`; this file is who runs them where.
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
use crate::metrics::{CounterId, ScanMetrics};
use crate::ratecontrol::RateController;
use crate::scanner::{emit, flush, Engine, Exit, PreparedScan, RunOptions, ScanSummary};
use crate::transport::{FrameBatch, SimTransport, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zmap_targets::generator::BuildError;

/// Flushes between a lane's looks for deliveries that have fallen due:
/// each wake of the receive loop costs a context switch.
const DRAIN_EVERY: u64 = 64;

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
    /// finish, then through the cooldown. Pacing is virtual: each lane
    /// owns every `threads`-th slot of the global schedule — fixed slots,
    /// a lane that runs dry leaves them empty — and the scan completes at
    /// memory speed while timestamps, and therefore replay, stay
    /// independent of host timing.
    pub fn run<T>(self, mut transport: &T, opts: RunOptions) -> ScanSummary
    where
        T: Sync,
        for<'a> &'a T: Transport,
    {
        let (scan, cfg, opts) = (&self, &self.cfg, &opts);
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
        // [atomics] wake_at: Relaxed store by the receive loop of when its
        // next status sample or journal is due, Relaxed load by a lane
        // after each flush, which unparks the loop once its clock has
        // reached that or a pending delivery. It guards no data: a stale
        // read only delays a drain to the lane's next flush or final
        // unpark, and frames carry their own timestamps.
        let wake_at = AtomicU64::new(0);
        let receiver = std::thread::current();
        let start = transport.now();
        let threads = cfg.subshards;

        // The metrics registry: one counter/histogram shard per lane plus
        // one for the receive loop, so every hot-path increment is an
        // uncontended atomic add.
        let metrics = ScanMetrics::new(threads as usize + 1, scan.baseline);

        // Per-lane element positions, observable by the receive loop for
        // checkpointing without stopping the lanes.
        // [atomics] positions: Relaxed stores/loads — checkpoint snapshots
        // tolerate slight staleness (a rewound resume re-sends, never
        // skips). (Each lane binds its own as `position`; same protocol.)
        let positions: Vec<AtomicU64> = (0..threads as usize)
            .map(|t| {
                let resumed = scan.start_positions.as_ref().and_then(|p| p.get(t).copied());
                AtomicU64::new(resumed.unwrap_or(0))
            })
            .collect();
        let snapshot_positions =
            || -> Vec<u64> { positions.iter().map(|p| p.load(Ordering::Relaxed)).collect() };
        let mut results = Vec::new();
        let (targets, resumed_at) = (scan.shard_targets(), snapshot_positions());
        let mut engine =
            Engine::start(scan, &metrics, opts, start, targets, resumed_at, &mut results);

        std::thread::scope(|scope| {
            for t in 0..threads {
                let (metrics, finished, killed) = (&metrics, &finished_senders, &killed);
                let (interrupted, position) = (&interrupted_senders, &positions[t as usize]);
                let (wake_at, receiver) = (&wake_at, &receiver);
                scope.spawn(move || {
                    let mut transport = transport;
                    // Interleaved pacing: lane t owns global schedule
                    // slots t, t+threads, t+2·threads, … so the union
                    // across all lanes is exactly the single-sender
                    // schedule and the aggregate rate is conserved — no
                    // truncated remainder, and rates below the thread
                    // count still work.
                    let (base, stride) = (u64::from(t), u64::from(threads));
                    let mut rc = RateController::new_interleaved(start, cfg.rate_pps, base, stride);
                    let mut entropy: u16 = t as u16;
                    let mut ip_id = || {
                        entropy = entropy.wrapping_add(0x9E37);
                        entropy
                    };
                    let (mut it, mut batch) = (scan.lane(t), FrameBatch::new(cfg.batch));
                    let (retries, shard) = (cfg.max_retries, t as usize);
                    let (mut clock, mut walking, mut flushes) = (start, true, 0u64);
                    while walking {
                        let mut targets = 0;
                        while !batch.is_full() {
                            // Cycle boundary: the only place a lane stops
                            // walking — for shutdown, a dead process, or an
                            // exhausted walk. The partial batch still ships.
                            if opts.shutdown.as_ref().is_some_and(|s| s.is_requested())
                                || killed.load(Ordering::Acquire)
                            {
                                interrupted.fetch_add(1, Ordering::Relaxed);
                                walking = false;
                                break;
                            }
                            let Some(target) = it.next() else {
                                walking = false;
                                break;
                            };
                            targets += 1;
                            // Tagged with the walk position, published
                            // once the frame has left.
                            let tag = it.elements_consumed();
                            emit(scan, metrics, &mut rc, &mut batch, target, tag, &mut ip_id);
                        }
                        if batch.is_empty() {
                            break;
                        }
                        metrics.add_at(shard, CounterId::TargetsTotal, targets);
                        let flushed =
                            flush(&mut transport, &mut batch, &mut clock, retries, metrics, shard);
                        if flushed.is_err() {
                            killed.store(true, Ordering::Release);
                            break;
                        }
                        // Published only once every frame has left: a
                        // checkpoint can never record a target whose frame
                        // has not (resume re-walks, never skips).
                        position.store(batch.tag(batch.len() - 1), Ordering::Relaxed);
                        batch.clear();
                        // A delivery this lane's sends scheduled can fall due
                        // before the time the receive loop parked until;
                        // look every `DRAIN_EVERY` flushes.
                        flushes += 1;
                        if clock >= wake_at.load(Ordering::Relaxed)
                            || (flushes % DRAIN_EVERY == 0
                                && transport.next_rx_at().is_some_and(|at| at <= clock))
                        {
                            receiver.unpark();
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                    receiver.unpark();
                });
            }

            // The receive side on this thread. While lanes run, the clock
            // is theirs to advance: after each turn this thread publishes
            // when its next status sample or periodic journal is due and
            // parks until a lane's clock reaches that or a delivery. A
            // scheduled kill can land on the receive path too: stop
            // immediately.
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
                if transport.now() < due {
                    std::thread::park();
                }
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
    use crate::transport::{RxBatch, SimNet};
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
    const ROWS: [Row; 7] = [
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
            tweak: |c| c.rate_pps = 1_000,
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
                    assert!(s.killed && s.shutdown_clean == 0 && s.sent < 256, "{at}");
                    let journal = CheckpointState::load(&path).unwrap();
                    assert!(!journal.complete, "{at}");
                    let resumed = PreparedScan::resume(cfg.clone(), &journal, Logger::null());
                    let healthy_world = Wedging::after(u64::MAX, FaultPlan::none());
                    let second = run(resumed.unwrap(), &healthy_world, opts());
                    assert!(second.sent >= s.sent, "{at}: counters are cumulative");
                    assert_eq!(second.resume_count, 1, "{at}");
                    // The final journal: complete, counted, cumulative.
                    let j2 = CheckpointState::load(&path).unwrap();
                    assert!(j2.complete, "{at}");
                    let j2 = j2.counters;
                    assert_eq!(
                        (j2.resume_count, j2.shutdown_clean, j2.sent, j2.checkpoints_written),
                        (1, 1, second.sent, second.checkpoints_written),
                        "{at}"
                    );
                    found.extend(second.results.iter().map(|r| r.saddr));
                    s = second;
                } else {
                    let probes = s.targets_total * u64::from(cfg.probes_per_target);
                    assert_eq!(s.sent + s.sendto_failures, probes, "{at}: every probe accounted");
                }
                let in_prefix = |ip: &IpAddr| match ip {
                    IpAddr::V4(a) => a.octets()[..3] == [44, 100 + i as u8, 0],
                    IpAddr::V6(_) => false,
                };
                assert!(found.iter().all(in_prefix), "{at}: a result outside the oracle");
                assert_eq!(found.len() as u64, row.found.unwrap_or(s.sent), "{at}");
                assert_eq!(s.sent, row.sent.unwrap_or(s.sent), "{at}");
                assert_eq!(
                    (s.shutdown_clean, s.killed, s.watchdog_stalls),
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
                        (s.sent, s.send_retries, s.sendto_failures, s.unique_successes, arrivals);
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
        assert_eq!((s.sent, s.unique_successes, s.shutdown_clean), (64, 64, 1));
        assert_eq!(s.checkpoints_written, 0);
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
        let mut walk = scan.lane(0);
        walk.nth(2 * scan.cfg.batch - 1);
        let sent_before_the_stall = walk.elements_consumed();
        let s = scan.run(&transport, opts);
        assert_eq!((s.watchdog_stalls, s.shutdown_clean, s.killed), (1, 0, false));
        assert_eq!(s.sent, 256, "the wedged transport swallowed the rest");
        assert!(s.checkpoints_written >= 2, "the initial journal and a periodic one");
        let journal = CheckpointState::load(&path).unwrap();
        assert_eq!(journal.counters.checkpoints_written, s.checkpoints_written, "the last write");
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
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.unique_successes, b.unique_successes);
        let times_a: Vec<_> = a.results.iter().map(|r| (r.ts_ns, r.saddr)).collect();
        let times_b: Vec<_> = b.results.iter().map(|r| (r.ts_ns, r.saddr)).collect();
        assert_eq!(times_a, times_b, "virtual timestamps must replay exactly");
        assert_eq!(a.duration_ns, b.duration_ns);
    }

    /// A thread that panicked while holding the world lock leaves it
    /// poisoned and the world whole: the next scan takes the lock.
    #[test]
    fn a_poisoned_world_lock_is_taken() {
        let net = dense_net(FaultPlan::none());
        let transport = net.transport(SRC);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let poisoning = std::panic::AssertUnwindSafe(|| {
            net.with_world(|_| panic!("poisoning the world lock"))
        });
        let result = std::panic::catch_unwind(poisoning);
        std::panic::set_hook(prev);
        assert!(result.is_err(), "the poisoning closure must panic");
        let s = run_parallel(&prefix_cfg(3, 26, 2, 100_000), &transport).unwrap();
        assert_eq!((s.sent, s.unique_successes), (64, 64), "a poisoned lock loses no coverage");
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
        assert_eq!((s.sent, s.responses_validated), (4096, 0), "a dark /20");
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
        assert_eq!(s.sent, 256);
        // Send phase spans [0, 255 ms]; the clock can only have been
        // pushed past that by the cooldown drain (+1 s) afterwards.
        let send_span_ns = 255 * 1_000_000;
        assert!(
            s.duration_ns >= send_span_ns,
            "aggregate rate ran hot: {} < {}",
            s.duration_ns,
            send_span_ns
        );
    }

    #[test]
    fn rates_below_the_thread_count_pace_correctly() {
        // 3 pps on 7 threads: the old `max(1)` clamp ran the scan at
        // 7 pps. 16 targets at a true 3 pps put the last send at 5 s.
        let transport = dense_world(FaultPlan::none());
        let s = run_parallel(&prefix_cfg(10, 28, 7, 3), &transport).unwrap();
        assert_eq!(s.sent, 16);
        assert!(
            s.duration_ns >= 5_000_000_000,
            "16 probes at 3 pps span 5 s; got {} ns",
            s.duration_ns
        );
        assert_eq!(s.unique_successes, 16, "slow scans still cover everything");
    }
}
