#![deny(clippy::unwrap_used, clippy::expect_used)]
//! The threaded driver: the engine shape real ZMap uses (Adrian et al.
//! 2014) — N send paths, each owning one subshard of the cyclic group,
//! plus one receive thread — over a transport shared by reference and
//! paced by a *shared virtual clock*. Each send path is a TX pipeline
//! (paper §4.2, the netmap shape): a generator thread that walks, paces
//! and renders into batches (`scanner::emit`), and a transport thread
//! that sends them (`scanner::flush`), joined by a pair of bounded SPSC
//! rings; the calling thread runs `Engine::rx_tick`, `cooldown`, `finish`.
//! The stages live in `scanner.rs`; this file is who runs them where.
//!
//! A transport is shareable the way `&TcpStream: Write` says it in std:
//! `T: Sync` and `&T: Transport`, each thread driving its own copy of the
//! reference.
//!
//! Two invariants from the inline driver are preserved under real
//! concurrency, and both are machine-checked by zmap-analyze:
//!
//! * **No wall clock.** Each lane stamps its frames with its own slots
//!   of the interleaved schedule and advances a monotone [`AtomicU64`]
//!   clock to them, so probe ordering, delivery times, and the summary
//!   are functions of the seed — never of host scheduling.
//! * **No poison cascade.** The shared [`World`] sits behind a mutex; a
//!   panicking worker must not take the whole scan down with it. Every
//!   acquisition goes through [`lock_world`], which recovers poisoned
//!   locks (the world's data is a simulation, always structurally
//!   valid) and counts the recovery into the monitor stream.

use crate::config::ScanConfig;
use crate::log::Logger;
use crate::metrics::{CounterId, ScanMetrics};
use crate::ratecontrol::RateController;
use crate::ring::SpscRing;
use crate::scanner::{emit, flush, Engine, Exit, PreparedScan, RunOptions, ScanSummary};
use crate::transport::{FrameBatch, RxBatch, Transport};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use zmap_netsim::{EndpointId, SendError, World};
use zmap_targets::generator::BuildError;

/// Acquires the world lock, recovering from poisoning instead of
/// propagating the panic: a worker that died mid-`send` leaves the
/// simulation in a consistent state (every [`World`] mutation is
/// internally complete before control returns), so the right response
/// is to keep scanning and surface the event as a counter — one faulted
/// thread must not cascade into a lost scan.
pub fn lock_world<'a>(
    world: &'a Mutex<World>,
    recoveries: &AtomicU64,
) -> MutexGuard<'a, World> {
    match world.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// The simulated Internet behind a lock, with a shared virtual clock;
/// the [`Transport`] is `&SharedSimTransport`.
pub struct SharedSimTransport {
    world: Arc<Mutex<World>>,
    ep: EndpointId,
    // [atomics] clock: monotone virtual time — AcqRel fetch_max to
    // publish each thread's latest send time, Acquire load so a reader
    // sees every event at or before the observed instant.
    clock: AtomicU64,
    // [atomics] recoveries: Relaxed counter of poisoned-lock recoveries;
    // diagnostic only, ordered by the world mutex it annotates.
    recoveries: AtomicU64,
}

impl SharedSimTransport {
    /// Wraps a world (typically freshly built) and attaches at `ip`.
    pub fn new(world: Arc<Mutex<World>>, ip: Ipv4Addr) -> Self {
        let recoveries = AtomicU64::new(0);
        let ep = lock_world(&world, &recoveries).attach(ip);
        SharedSimTransport {
            world,
            ep,
            clock: AtomicU64::new(0),
            recoveries,
        }
    }
}

impl Transport for &SharedSimTransport {
    fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Monotone: callers may race, the clock only moves forward.
    fn advance_to(&mut self, t: u64) {
        self.clock.fetch_max(t, Ordering::AcqRel);
    }

    /// One lock acquisition for the whole batch — the simulator's
    /// analogue of collapsing per-packet syscalls into one `sendmmsg`.
    /// Each frame is stamped with its own slot time, not the shared
    /// clock's, so the stamp is a pure function of (seed, lane).
    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let mut world = lock_world(&self.world, &self.recoveries);
        let mut accepted = 0usize;
        for i in from_idx..batch.len() {
            let (at, frame) = batch.frame(i);
            self.clock.fetch_max(at, Ordering::AcqRel);
            match world.send(self.ep, frame, at) {
                Ok(()) => accepted += 1,
                Err(e) => return (accepted, Some(e)),
            }
        }
        (accepted, None)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        let now = self.now();
        lock_world(&self.world, &self.recoveries).recv_into(self.ep, now, rx);
    }

    fn next_rx_at(&self) -> Option<u64> {
        lock_world(&self.world, &self.recoveries).next_event_at()
    }

    fn poison_recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    fn killed(&self) -> bool {
        lock_world(&self.world, &self.recoveries).kill_fired()
    }
}

/// Batches in flight per generator/transport pair, per ring direction.
/// The pre-filled recycle pool is the *only* source of TX buffers, so
/// pipeline memory is bounded at `depth × batch × frame` per pair —
/// netmap's preallocated-ring model.
const TX_RING_DEPTH: usize = 4;

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
    /// `cfg.subshards` generator/transport thread pairs and collects the
    /// records into the summary (arrival order depends on thread
    /// scheduling; front-ends sort them once the scan is over).
    ///
    /// The receive side runs on the calling thread until all senders
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
        // [atomics] finished_senders: Release increment as each sender's
        // last visible write, Acquire load by the receive loop so a full
        // count means every sender's effects are visible. (Closures bind
        // it as `finished`; same protocol.)
        let finished_senders = AtomicU64::new(0);
        // [atomics] interrupted_senders: Relaxed count of senders that
        // bailed on shutdown/kill; read after the join barrier, which
        // orders it. (Closures bind it as `interrupted`; same protocol.)
        let interrupted_senders = AtomicU64::new(0);
        // [atomics] killed: Release store when any thread observes the
        // kill, Acquire load so whoever sees the flag also sees the
        // killing state.
        let killed = AtomicBool::new(false);
        let start = transport.now();
        let threads = cfg.subshards;

        // The metrics registry: one counter/histogram shard per hot-path
        // thread (the generator and the transport half of each pair) plus
        // one for the receive loop, so every hot-path increment is an
        // uncontended atomic add.
        let metrics = ScanMetrics::new(2 * threads as usize + 1, scan.baseline);

        // Per-sender element positions, observable by the receive loop
        // for checkpointing without stopping the senders.
        // [atomics] positions: Relaxed stores/loads — checkpoint snapshots
        // tolerate slight staleness (a rewound resume re-sends, never
        // skips).
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

        // TX pipeline plumbing (paper §4.2, the netmap shape): one `ready`
        // ring carrying rendered batches generator → transport and one
        // `recycle` ring carrying drained buffers back, per pair. The
        // recycle rings are pre-filled with every TX buffer that will ever
        // exist, so the steady state allocates nothing.
        let rings: Vec<(SpscRing<FrameBatch>, SpscRing<FrameBatch>)> = (0..threads)
            .map(|_| {
                let ready = SpscRing::with_capacity(TX_RING_DEPTH);
                let recycle = SpscRing::with_capacity(TX_RING_DEPTH);
                for _ in 0..TX_RING_DEPTH {
                    recycle
                        .try_push(FrameBatch::new(cfg.batch))
                        .unwrap_or_else(|_| unreachable!("fresh ring holds its own depth"));
                }
                (ready, recycle)
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..threads {
                let metrics = &metrics;
                let finished = &finished_senders;
                let interrupted = &interrupted_senders;
                let killed = &killed;
                let positions = &positions;
                let (ready, recycle) = &rings[t as usize];
                // Generator half of the pair: walks the subshard, paces,
                // renders — and never touches the transport.
                scope.spawn(move || {
                    // Interleaved pacing: pair t owns global schedule
                    // slots t, t+threads, t+2·threads, … so the union
                    // across all pairs is exactly the single-sender
                    // schedule and the aggregate rate is conserved — no
                    // truncated remainder, and rates below the thread
                    // count still work.
                    let (base, stride) = (u64::from(t), u64::from(threads));
                    let mut rc = RateController::new_interleaved(start, cfg.rate_pps, base, stride);
                    let mut entropy: u16 = t as u16;
                    let mut ip_id_entropy = || {
                        entropy = entropy.wrapping_add(0x9E37);
                        entropy
                    };
                    let mut it = scan.lane(t);
                    // The recycle ring is pre-filled at setup, so an empty
                    // pop means the transport half already died (pre-start
                    // kill closed both rings): nothing to render.
                    let Some(mut batch) = recycle.pop() else {
                        interrupted.fetch_add(1, Ordering::Relaxed);
                        ready.close();
                        return;
                    };
                    let mut dead = false;
                    loop {
                        // Cycle boundary: the only place a generator stops
                        // — for shutdown, a dead process, or an exhausted
                        // walk.
                        if opts.shutdown.as_ref().is_some_and(|s| s.is_requested())
                            || killed.load(Ordering::Acquire)
                        {
                            interrupted.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        let Some(target) = it.next() else {
                            break;
                        };
                        metrics.add_at(t as usize, CounterId::TargetsTotal, 1);
                        // Tagged with the walk position, which the
                        // transport half publishes once the frame has left.
                        let tag = it.elements_consumed();
                        emit(scan, metrics, &mut rc, &mut batch, target, tag, &mut ip_id_entropy);
                        if !batch.is_full() {
                            continue;
                        }
                        // Hand the full batch to the transport thread and
                        // take a drained buffer back. Either ring closing
                        // means the transport thread died (kill); stop
                        // rendering — resume re-walks from its positions.
                        let refill = match ready.push(batch) {
                            Ok(()) => recycle.pop(),
                            Err(_) => None,
                        };
                        match refill {
                            Some(b) => batch = b,
                            None => {
                                dead = true;
                                batch = FrameBatch::new(cfg.batch);
                                break;
                            }
                        }
                    }
                    // The final partial batch still ships: every consumed
                    // target's frame reaches the transport thread (or dies
                    // with it) before this generator reports done.
                    if !dead && !batch.is_empty() {
                        let _ = ready.push(batch);
                    }
                    ready.close();
                });
                // Transport half: drains rendered batches and owns all NIC
                // interaction plus this pair's checkpoint position — a
                // position advances only once its batch's frames have
                // actually left, so a checkpoint can never record a target
                // whose frame is still queued (resume re-walks, never
                // skips).
                scope.spawn(move || {
                    let mut transport = transport;
                    let mut lane_clock = start;
                    let (retries, shard) = (cfg.max_retries, (threads + t) as usize);
                    while let Some(mut batch) = ready.pop() {
                        let flushed =
                            flush(&mut transport, &mut batch, &mut lane_clock, retries, metrics, shard);
                        if flushed.is_err() {
                            killed.store(true, Ordering::Release);
                            break;
                        }
                        positions[t as usize].store(batch.tag(batch.len() - 1), Ordering::Relaxed);
                        batch.clear();
                        let _ = recycle.try_push(batch);
                    }
                    // Unblock a generator waiting on either ring, then
                    // report this pair's send path done.
                    ready.close();
                    recycle.close();
                    finished.fetch_add(1, Ordering::Release);
                });
            }

            // The receive side on this thread. While senders run, the
            // clock is theirs to advance — this thread only ticks
            // (yielding so they get the mutex). A scheduled kill can land
            // on the receive path too: stop immediately.
            loop {
                engine.rx_tick(&mut transport, snapshot_positions);
                if killed.load(Ordering::Acquire) || transport.killed() {
                    killed.store(true, Ordering::Release);
                    break;
                }
                if finished_senders.load(Ordering::Acquire) == u64::from(threads) {
                    break;
                }
                std::thread::yield_now();
            }
        });

        // Senders have quiesced: the clock reads the last scheduled send
        // time and this thread is again its only writer, so the marks the
        // cooldown and the exit record replay deterministically. The walk
        // is complete only if every sender exhausted its subshard.
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
    use std::collections::HashSet;
    use std::net::IpAddr;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{FaultPlan, ServiceModel, WorldConfig};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

    /// A lossless world where every host answers on port 80 (and RSTs
    /// everywhere else): the ground truth of a scan is its prefix.
    fn shared_world(faults: FaultPlan) -> Arc<Mutex<World>> {
        Arc::new(Mutex::new(World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults,
            ..WorldConfig::default()
        })))
    }

    fn dense_world(faults: FaultPlan) -> SharedSimTransport {
        SharedSimTransport::new(shared_world(faults), SRC)
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
        inner: SharedSimTransport,
        healthy: u64,
        batches: AtomicU64,
        polls: AtomicU64,
        wedged: AtomicBool,
    }

    impl Wedging {
        fn after(healthy: u64, faults: FaultPlan) -> Self {
            let (batches, polls) = (AtomicU64::new(0), AtomicU64::new(0));
            Wedging { inner: dense_world(faults), healthy, batches, polls, wedged: false.into() }
        }
    }

    impl Transport for &Wedging {
        fn now(&self) -> u64 {
            (&self.inner).now()
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
                // only: the inline one polls on this very thread.)
                let seen = self.polls.load(Ordering::SeqCst);
                while self.healthy > 0 && self.polls.load(Ordering::SeqCst) < seen + 2 {
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
            self.polls.fetch_add(1, Ordering::SeqCst);
            if !self.wedged.load(Ordering::SeqCst) {
                (&self.inner).recv_into(rx);
            }
        }
        fn next_rx_at(&self) -> Option<u64> {
            match self.wedged.load(Ordering::SeqCst) {
                true => Some(self.now() + 1),
                false => (&self.inner).next_rx_at(),
            }
        }
        fn killed(&self) -> bool {
            (&self.inner).killed()
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
                assert_eq!(s.metadata.counters.lock_poison_recoveries, 0, "{at}");
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

    #[test]
    fn poisoned_world_lock_recovers_instead_of_cascading() {
        let world = shared_world(FaultPlan::none());
        let transport = SharedSimTransport::new(Arc::clone(&world), SRC);
        // Poison the mutex by panicking (silently) while holding it.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let w = Arc::clone(&world);
        let result = std::thread::spawn(move || {
            let _guard = w.lock().unwrap();
            panic!("poisoning the world lock");
        })
        .join();
        std::panic::set_hook(prev);
        assert!(result.is_err() && world.is_poisoned(), "the poisoning thread must panic");

        // The transport keeps working: attach/send/recv all recover.
        let s = run_parallel(&prefix_cfg(3, 26, 2, 100_000), &transport).unwrap();
        assert_eq!(s.sent, 64, "a poisoned lock must not lose coverage");
        assert_eq!(s.unique_successes, 64);
        let recoveries = s.metadata.counters.lock_poison_recoveries;
        assert!(recoveries > 0, "recoveries must be counted, got {recoveries}");
        // The recovery surfaces in the status stream.
        let last = s.status.last().expect("at least the t=0 sample");
        assert!(last.counters.lock_poison_recoveries > 0);
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
