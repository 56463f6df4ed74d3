//! Multi-threaded scanning: the engine shape real ZMap uses (Adrian et
//! al. 2014) — N send paths, each owning one subshard of the cyclic
//! group, plus one receive thread — here over a thread-safe transport
//! paced by a *shared virtual clock*. Each send path is a TX pipeline
//! (paper §4.2, the netmap shape): a generator thread that walks, paces
//! and renders into batches, and a transport thread that sends them,
//! joined by a pair of bounded SPSC rings.
//!
//! Two invariants from the single-threaded engine are preserved under
//! real concurrency, and both are machine-checked by zmap-analyze:
//!
//! * **No wall clock.** Send threads advance a monotone [`AtomicU64`]
//!   clock to each probe's scheduled (virtual) send time and stamp the
//!   frame with that time, so probe ordering, delivery times, and the
//!   summary are functions of the seed — never of host scheduling.
//! * **No poison cascade.** The shared [`World`] sits behind a mutex; a
//!   panicking worker must not take the whole scan down with it. Every
//!   acquisition goes through [`lock_world`], which recovers poisoned
//!   locks (the world's data is a simulation, always structurally
//!   valid) and counts the recovery into the monitor stream.

use crate::checkpoint::{CheckpointPolicy, CheckpointState};
use crate::config::ScanConfig;
use crate::log::Logger;
use crate::metrics::{CounterId, HistId, ScanMetrics};
use crate::monitor::Monitor;
use crate::plan::{ProbeModule, ScanPlan};
use crate::ratecontrol::RateController;
use crate::ring::SpscRing;
use crate::scanner::{summarize, Checkpointer, ResumeError, RxPath, ScanSummary};
use crate::shutdown::ShutdownToken;
use crate::transport::FrameBatch;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use zmap_netsim::{EndpointId, SendError, World};
use zmap_targets::generator::BuildError;

/// A transport shareable across send/receive threads, timed by a shared
/// virtual clock.
pub trait SharedTransport: Send + Sync {
    /// Nanoseconds since the transport's epoch (virtual).
    fn now(&self) -> u64;

    /// Advances the shared clock to at least `t` (monotone; callers may
    /// race, the clock only moves forward).
    fn advance_to(&self, t: u64);

    /// Emits one frame stamped at virtual time `at_ns` (called
    /// concurrently from send threads). `Err(WouldBlock)` means the
    /// frame was not sent; callers retry.
    #[must_use = "an unchecked send error is a silently lost probe"]
    fn send_frame_at(&self, frame: &[u8], at_ns: u64) -> Result<(), SendError>;

    /// Emits frames `from_idx..` of `batch` in one call (`sendmmsg`),
    /// advancing the shared clock through each frame's scheduled time and
    /// stamping each with its own slot time. Returns how many frames were
    /// accepted before the first refusal plus the refusal itself, if any;
    /// the caller retries or abandons the frame at `from_idx + accepted`.
    ///
    /// The default loops [`send_frame_at`](Self::send_frame_at); batching
    /// transports override it to pay their per-call cost (a lock, a
    /// syscall) once per batch.
    #[must_use = "an unchecked send error is a silently lost probe"]
    fn send_batch_at(&self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let mut accepted = 0usize;
        for i in from_idx..batch.len() {
            let (at, frame) = batch.frame(i);
            self.advance_to(at);
            match self.send_frame_at(frame, at) {
                Ok(()) => accepted += 1,
                Err(e) => return (accepted, Some(e)),
            }
        }
        (accepted, None)
    }

    /// Drains frames received so far (single consumer).
    fn recv_frames(&self) -> Vec<(u64, Vec<u8>)>;

    /// Poisoned-lock acquisitions this transport has recovered.
    fn poison_recoveries(&self) -> u64 {
        0
    }

    /// True once the scanning process has been declared dead by a fault
    /// schedule. Polled by the receive loop so a kill can land anywhere,
    /// including mid-cooldown. Real transports never die this way; only
    /// simulations script it.
    fn killed(&self) -> bool {
        false
    }
}

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

/// The simulated Internet behind a lock, with a shared virtual clock.
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

impl SharedTransport for SharedSimTransport {
    fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    fn advance_to(&self, t: u64) {
        self.clock.fetch_max(t, Ordering::AcqRel);
    }

    fn send_frame_at(&self, frame: &[u8], at_ns: u64) -> Result<(), SendError> {
        lock_world(&self.world, &self.recoveries).send(self.ep, frame, at_ns)
    }

    /// One lock acquisition for the whole batch — the simulator's
    /// analogue of collapsing per-packet syscalls into one `sendmmsg`.
    fn send_batch_at(&self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
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

    fn recv_frames(&self) -> Vec<(u64, Vec<u8>)> {
        let now = self.now();
        lock_world(&self.world, &self.recoveries).recv_ready(self.ep, now)
    }

    fn poison_recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    fn killed(&self) -> bool {
        lock_world(&self.world, &self.recoveries).kill_fired()
    }
}

/// Default consecutive no-progress receive polls before the supervisor
/// declares a stall. Large enough that host scheduling jitter cannot trip
/// it (every poll is a full lock + drain round), small enough to bound a
/// genuinely frozen engine.
pub const DEFAULT_WATCHDOG_POLL_LIMIT: u64 = 1_000_000;

/// Optional run-time machinery for [`run_parallel_with`] /
/// [`resume_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelRunOptions {
    /// Cooperative shutdown: senders stop at the next cycle boundary.
    /// The supervisor also trips this token when it detects a stall.
    pub shutdown: Option<ShutdownToken>,
    /// Write initial, periodic (virtual-time interval), and final
    /// checkpoint journals.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Consecutive receive polls with no progress (virtual clock, sends,
    /// sender completions, validated responses all unchanged) before the
    /// supervisor records a stall and abandons the wait.
    pub watchdog_poll_limit: u64,
}

impl Default for ParallelRunOptions {
    fn default() -> Self {
        ParallelRunOptions {
            shutdown: None,
            checkpoint: None,
            watchdog_poll_limit: DEFAULT_WATCHDOG_POLL_LIMIT,
        }
    }
}

/// Virtual time the receive loop advances per idle poll once all
/// senders have finished (drains the cooldown quickly without skipping
/// any scheduled delivery).
const COOLDOWN_STEP_NS: u64 = 1_000_000;

/// Batches in flight per generator/transport pair, per ring direction.
/// The pre-filled recycle pool is the *only* source of TX buffers, so
/// pipeline memory is bounded at `depth × batch × frame` per pair —
/// netmap's preallocated-ring model.
const TX_RING_DEPTH: usize = 4;

/// Flushes a rendered batch through the batched shared-transport path,
/// retrying transiently refused frames with the same linear virtual
/// backoff as the per-probe loop. Returns true when a scheduled kill
/// landed (and raises `killed`). The flush latency recorded is the
/// batch's own paced span plus the backoff this flush accrued —
/// batch-local values that replay identically, unlike a shared-clock
/// read. Counters land in metrics shard `shard`, which must be owned by
/// the calling thread.
fn flush_shared<T: SharedTransport>(
    transport: &T,
    metrics: &ScanMetrics,
    shard: usize,
    killed: &AtomicBool,
    max_retries: u32,
    batch: &FrameBatch,
) -> bool {
    let mut idx = 0usize;
    let mut backoff_total = 0u64;
    while idx < batch.len() {
        let (accepted, err) = transport.send_batch_at(batch, idx);
        metrics.add_at(shard, CounterId::Sent, accepted as u64);
        idx += accepted;
        match err {
            None => break,
            Some(SendError::Killed) => {
                killed.store(true, Ordering::Release);
                return true;
            }
            Some(_) => {
                let (due, frame) = batch.frame(idx);
                let mut attempt = 0u32;
                let died = loop {
                    if attempt == max_retries {
                        metrics.add_at(shard, CounterId::SendtoFailures, 1);
                        break false;
                    }
                    metrics.add_at(shard, CounterId::SendRetries, 1);
                    backoff_total += 50_000;
                    transport.advance_to(due + u64::from(attempt) * 50_000 + 50_000);
                    attempt += 1;
                    let at = due + u64::from(attempt) * 50_000;
                    match transport.send_frame_at(frame, at) {
                        Ok(()) => {
                            metrics.add_at(shard, CounterId::Sent, 1);
                            break false;
                        }
                        Err(SendError::Killed) => {
                            killed.store(true, Ordering::Release);
                            break true;
                        }
                        Err(_) => {}
                    }
                };
                if died {
                    return true;
                }
                idx += 1;
            }
        }
    }
    metrics.record_at(shard, HistId::BatchFlush, batch.span_ns() + backoff_total);
    false
}

/// Runs `cfg` with `cfg.subshards` generator/transport thread pairs over
/// `transport`.
///
/// The receive loop runs on the calling thread until all senders finish
/// plus the cooldown. Uses scoped threads so the plan and transport
/// borrow safely. Pacing is virtual: each pair advances the shared
/// clock to its next probe's scheduled time, so the scan completes at
/// memory speed while timestamps — and therefore replay — stay
/// independent of host timing.
pub fn run_parallel<T: SharedTransport>(
    cfg: &ScanConfig,
    transport: &T,
) -> Result<ScanSummary, BuildError> {
    run_parallel_with(cfg, transport, ParallelRunOptions::default())
}

/// Like [`run_parallel`] with checkpointing, cooperative shutdown, and
/// the stall supervisor configured explicitly.
pub fn run_parallel_with<T: SharedTransport>(
    cfg: &ScanConfig,
    transport: &T,
    opts: ParallelRunOptions,
) -> Result<ScanSummary, BuildError> {
    Ok(PreparedScan::new(cfg)?.run(transport, opts))
}

/// Resumes a parallel scan from a checkpoint journal: the walk is
/// rebuilt from the journal's recorded group parts, each sender
/// fast-forwards to its recorded position (rewound by the in-flight
/// grace window), and the journal's counters become the baseline so
/// metadata stays cumulative across attempts. Refuses a journal whose
/// config digest does not match `cfg`; a journal recording a different
/// shard of the same scan gets the distinct [`ResumeError::ShardSpec`].
pub fn resume_parallel<T: SharedTransport>(
    cfg: &ScanConfig,
    transport: &T,
    journal: &CheckpointState,
    opts: ParallelRunOptions,
) -> Result<ScanSummary, ResumeError> {
    Ok(PreparedScan::resume(cfg, journal)?.run(transport, opts))
}

/// A threaded scan that has passed every configuration check and has sent
/// nothing yet — the threaded engine's counterpart of a constructed
/// [`Scanner`](crate::scanner::Scanner). A front-end builds one before it
/// touches its output files, so a rejected config leaves them alone.
pub struct PreparedScan<'a> {
    cfg: &'a ScanConfig,
    journal: Option<&'a CheckpointState>,
    plan: ScanPlan,
    module: ProbeModule,
}

impl<'a> PreparedScan<'a> {
    /// Validates `cfg` for a fresh scan.
    pub fn new(cfg: &'a ScanConfig) -> Result<Self, BuildError> {
        Self::build(cfg, None)
    }

    /// Validates `cfg` against `journal` (see [`resume_parallel`]).
    pub fn resume(cfg: &'a ScanConfig, journal: &'a CheckpointState) -> Result<Self, ResumeError> {
        crate::scanner::check_shard_spec(journal, cfg)?;
        journal.check_config(cfg).map_err(ResumeError::Journal)?;
        Self::build(cfg, Some(journal)).map_err(ResumeError::Build)
    }

    fn build(cfg: &'a ScanConfig, journal: Option<&'a CheckpointState>) -> Result<Self, BuildError> {
        // In v6 mode the journaled cycle parts are ignored: the walk plan is
        // a pure function of (prefix list, ports, seed), which the config
        // digest already pins.
        let plan = ScanPlan::build(cfg, journal.map(|j| (j.generator, j.offset)))?;
        // The per-scan packet template (paper §4.4) is laid out once here and
        // patched per probe on the generator threads.
        let module = ProbeModule::build(cfg)?;
        Ok(PreparedScan { cfg, journal, plan, module })
    }

    /// Runs the scan over `transport` (see [`run_parallel`]).
    pub fn run<T: SharedTransport>(self, transport: &T, opts: ParallelRunOptions) -> ScanSummary {
        run_inner(self, transport, opts)
    }
}

fn run_inner<T: SharedTransport>(
    scan: PreparedScan<'_>,
    transport: &T,
    opts: ParallelRunOptions,
) -> ScanSummary {
    let PreparedScan { cfg, journal, plan: gen, module } = scan;

    // Counters carried over from the journal when resuming, so the
    // resumed attempt's metadata reports the cumulative truth.
    let mut baseline = journal.map(|j| j.counters).unwrap_or_default();
    if journal.is_some() {
        baseline.resume_count += 1;
        baseline.shutdown_clean = 0;
    }
    let resume_positions = journal.map(|j| j.rewound_positions(cfg.rate_pps));
    let logger = Logger::null();

    // [atomics] finished_senders: Release increment as each sender's last
    // visible write, Acquire load by the supervisor so a full count means
    // every sender's effects are visible. (Closures bind it as
    // `finished`; same protocol.)
    let finished_senders = AtomicU64::new(0);
    // [atomics] interrupted_senders: Relaxed count of senders that bailed
    // on shutdown/kill; read after the join barrier, which orders it.
    // (Closures bind it as `interrupted`; same protocol.)
    let interrupted_senders = AtomicU64::new(0);
    // [atomics] killed: Release store when any thread observes the kill,
    // Acquire load so whoever sees the flag also sees the killing state.
    let killed = AtomicBool::new(false);
    let start = transport.now();
    let threads = cfg.subshards.max(1);
    let expected_targets = gen.target_count() / u64::from(cfg.num_shards.max(1));

    // The metrics registry: one counter/histogram shard per hot-path
    // thread (the generator and the transport half of each pair) plus
    // one for the receive loop, so every hot-path increment is an
    // uncontended atomic add. The Monitor, the checkpoint journal, and
    // the final summary are all consumers of this registry.
    let metrics = ScanMetrics::new(2 * threads as usize + 1, baseline);
    let rx = metrics.rx_shard();

    // Cooperative shutdown: the caller's token if given, else an internal
    // one so the supervisor always has something to trip.
    let token = opts.shutdown.clone().unwrap_or_default();

    // Per-sender element positions, observable by the receive loop for
    // checkpointing without stopping the senders.
    // [atomics] positions: Relaxed stores/loads — checkpoint snapshots
    // tolerate slight staleness (a rewound resume re-sends, never skips).
    let positions: Vec<AtomicU64> = (0..threads)
        .map(|t| {
            AtomicU64::new(
                resume_positions
                    .as_ref()
                    .and_then(|p| p.get(t as usize).copied())
                    .unwrap_or(0),
            )
        })
        .collect();

    let mut monitor = Monitor::new();

    metrics.trace(0, "scan_start", expected_targets);
    if journal.is_some() {
        metrics.trace(0, "resume_rewind", baseline.resume_count);
    }

    // An initial journal before the first probe: a kill at any point
    // after this leaves something to resume from.
    let ckpt = opts
        .checkpoint
        .as_ref()
        .map(|policy| Checkpointer::new(policy, cfg, &gen, &metrics, &logger));
    let snapshot_positions = || -> Vec<u64> {
        positions
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    };
    if let Some(ckpt) = &ckpt {
        ckpt.write(snapshot_positions(), 0, false);
    }

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
                    .try_push(FrameBatch::new(cfg.batch.max(1)))
                    .unwrap_or_else(|_| unreachable!("fresh ring holds its own depth"));
            }
            (ready, recycle)
        })
        .collect();

    let results = std::thread::scope(|scope| {
        for t in 0..threads {
            let gen = &gen;
            let metrics = &metrics;
            let finished = &finished_senders;
            let interrupted = &interrupted_senders;
            let killed = &killed;
            let token = &token;
            let positions = &positions;
            let resume_positions = &resume_positions;
            let transport = &*transport;
            let module = &module;
            let shard = cfg.shard;
            let max_retries = cfg.max_retries;
            let rate_pps = cfg.rate_pps;
            let batch_cap = cfg.batch.max(1);
            let (ready, recycle) = &rings[t as usize];
            // Generator half of the pair: walks the subshard, paces,
            // renders — and never touches the transport.
            scope.spawn(move || {
                // Interleaved pacing: pair t owns global schedule slots
                // t, t+threads, t+2·threads, … so the union across all
                // pairs is exactly the single-sender schedule and the
                // aggregate rate is conserved — no truncated remainder,
                // and rates below the thread count still work.
                let mut rc = RateController::new_interleaved(
                    0,
                    rate_pps,
                    u64::from(t),
                    u64::from(threads),
                );
                let mut entropy: u16 = t as u16;
                let mut it = gen.iter_shard(shard, t);
                if let Some(pos) = resume_positions {
                    if let Some(&p) = pos.get(t as usize) {
                        it.fast_forward_elements(p);
                    }
                }
                let mshard = t as usize;
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
                    // Cycle boundary: the only place a generator stops —
                    // for shutdown, a dead process, or an exhausted walk.
                    if token.is_requested() || killed.load(Ordering::Acquire) {
                        interrupted.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    let Some((ip, port)) = it.next() else {
                        break;
                    };
                    // Virtual pacing: this probe is due at `start + due`
                    // on the shared clock; the batched send advances the
                    // clock through it and stamps the frame with this
                    // pair's own due time, so the stamp is a pure
                    // function of (seed, subshard).
                    let due = start + rc.mark_sent();
                    entropy = entropy.wrapping_add(0x9E37);
                    module.render_into(
                        ip,
                        port,
                        entropy,
                        batch.reserve(due, it.elements_consumed()),
                    );
                    metrics.add_at(mshard, CounterId::TargetsTotal, 1);
                    // Stamp the scheduled send time for RTT measurement.
                    if let Ok(key) = gen.probe_key(ip, port) {
                        metrics.note_probe(key, due);
                    }
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
                            batch = FrameBatch::new(batch_cap);
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
            // whose frame is still queued (resume re-walks, never skips).
            scope.spawn(move || {
                let mshard = threads as usize + t as usize;
                while let Some(mut batch) = ready.pop() {
                    if flush_shared(transport, metrics, mshard, killed, max_retries, &batch) {
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

        // Receive loop on this thread. It doubles as the supervisor:
        // every poll it samples a progress signature (virtual clock,
        // sends, sender completions, validated responses); if the
        // signature freezes for `watchdog_poll_limit` consecutive polls,
        // it records a stall, trips the shutdown token, and abandons the
        // wait rather than spinning forever.
        // Collected, not streamed: arrival order here depends on thread
        // scheduling, and the front-ends sort the records into their
        // canonical order once the scan is over.
        let mut results = Vec::new();
        let mut rx_path = RxPath::new(cfg, &gen, &module, &logger, &metrics, start, &mut results);
        let deadline_after_done = cfg.cooldown_secs.max(1) * 1_000_000_000;
        let mut done_at: Option<u64> = None;
        let mut last_ckpt_at = 0u64;
        let mut last_sig = (u64::MAX, 0u64, 0u64, 0u64);
        let mut idle_polls = 0u64;
        loop {
            for (ts, frame) in transport.recv_frames() {
                rx_path.on_frame(ts, &frame);
            }
            // Mirror the transport's cumulative poison-recovery count
            // into the receive shard (this loop is its only writer).
            metrics.store_at(rx, CounterId::LockPoisonRecoveries, transport.poison_recoveries());
            // Stream #3: the Monitor samples the registry on the virtual
            // clock — a pure consumer, no parallel books.
            monitor.observe(
                transport.now().saturating_sub(start),
                &metrics,
                expected_targets,
            );
            // A scheduled kill can land on the receive path too
            // (mid-cooldown): stop immediately, with no further output.
            if killed.load(Ordering::Acquire) || transport.killed() {
                killed.store(true, Ordering::Release);
                break;
            }
            // Periodic checkpoint from the sender positions, without
            // stopping the senders.
            if let Some(ckpt) = &ckpt {
                let rel = transport.now().saturating_sub(start);
                if rel.saturating_sub(last_ckpt_at) >= ckpt.policy.interval_ns {
                    ckpt.write(snapshot_positions(), rel, false);
                    last_ckpt_at = rel;
                }
            }
            // Supervisor: progress signature check.
            let sig = (
                transport.now(),
                metrics.get(CounterId::Sent),
                finished_senders.load(Ordering::Acquire),
                metrics.get(CounterId::ResponsesValidated),
            );
            if sig == last_sig {
                idle_polls += 1;
                if idle_polls >= opts.watchdog_poll_limit {
                    metrics.add_at(rx, CounterId::WatchdogStalls, 1);
                    metrics.trace(
                        transport.now().saturating_sub(start),
                        "watchdog_stall",
                        idle_polls,
                    );
                    token.request();
                    break;
                }
            } else {
                last_sig = sig;
                idle_polls = 0;
            }
            // All senders done? Drain the cooldown in virtual time, then
            // stop. While senders run, the clock is theirs to advance —
            // this thread only polls (yielding so they get the mutex).
            if finished_senders.load(Ordering::Acquire) == u64::from(threads) {
                let now = transport.now();
                let done = *done_at.get_or_insert_with(|| {
                    // First poll after the last sender finished: the
                    // clock still reads the last scheduled send time (no
                    // one else advances it until this branch does), so
                    // these marks replay deterministically on clean runs.
                    metrics.trace(
                        now.saturating_sub(start),
                        "send_phase_end",
                        metrics.get(CounterId::Sent),
                    );
                    metrics.trace(now.saturating_sub(start), "cooldown_start", 0);
                    now
                });
                if now.saturating_sub(done) >= deadline_after_done {
                    let drained = now.saturating_sub(done);
                    metrics.record(HistId::CooldownDrain, drained);
                    metrics.trace(now.saturating_sub(start), "cooldown_end", drained);
                    break;
                }
                transport.advance_to(now + COOLDOWN_STEP_NS);
            } else {
                std::thread::yield_now();
            }
        }
        results
    });

    // Final mirror of the transport's poison-recovery count (senders
    // have quiesced; this thread is again the only writer).
    metrics.store_at(rx, CounterId::LockPoisonRecoveries, transport.poison_recoveries());

    let was_killed = killed.load(Ordering::Acquire);
    if !was_killed {
        // Orderly exit: mark it and write the final journal. The walk is
        // complete only if every sender exhausted its subshard (none
        // stopped for a shutdown request or a stall).
        metrics.add_at(rx, CounterId::ShutdownClean, 1);
        if let Some(ckpt) = &ckpt {
            let complete = interrupted_senders.load(Ordering::Relaxed) == 0
                && metrics.get(CounterId::WatchdogStalls) == baseline.watchdog_stalls;
            ckpt.write(
                snapshot_positions(),
                transport.now().saturating_sub(start),
                complete,
            );
        }
        metrics.trace(
            transport.now().saturating_sub(start),
            "scan_complete",
            metrics.get(CounterId::UniqueSuccesses),
        );
    } else {
        metrics.trace(transport.now().saturating_sub(start), "killed", 0);
    }

    let duration_ns = transport.now() - start;
    summarize(
        cfg,
        gen.permutation(),
        &metrics,
        &monitor,
        results,
        was_killed,
        duration_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{ServiceModel, WorldConfig};

    fn shared_world() -> Arc<Mutex<World>> {
        Arc::new(Mutex::new(World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        })))
    }

    /// Poisons `world`'s mutex by panicking (silently) while holding it.
    fn poison(world: &Arc<Mutex<World>>) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let w = Arc::clone(world);
        let result = std::thread::spawn(move || {
            let _guard = w.lock().unwrap();
            panic!("poisoning the world lock");
        })
        .join();
        std::panic::set_hook(prev);
        assert!(result.is_err(), "the poisoning thread must panic");
        assert!(world.is_poisoned());
    }

    #[test]
    fn parallel_scan_covers_everything_once() {
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 0, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 4;
        cfg.rate_pps = 200_000;
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert_eq!(s.sent, 256, "4 subshards must cover the /24 exactly");
        assert_eq!(s.unique_successes, 256);
        let distinct: HashSet<_> = s.results.iter().map(|r| r.saddr).collect();
        assert_eq!(distinct.len(), 256);
        assert_eq!(s.metadata.counters.lock_poison_recoveries, 0);
        assert_eq!(s.shutdown_clean, 1);
    }

    #[test]
    fn single_thread_parallel_matches_engine_coverage() {
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 1, 0, 0), 26);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 1;
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert_eq!(s.sent, 64);
        assert_eq!(s.unique_successes, 64);
    }

    #[test]
    fn parallel_scan_is_deterministic_in_virtual_time() {
        let run = || {
            let world = shared_world();
            let src = Ipv4Addr::new(192, 0, 2, 9);
            let transport = SharedSimTransport::new(world, src);
            let mut cfg = ScanConfig::new(src);
            cfg.allowlist_prefix(Ipv4Addr::new(44, 2, 0, 0), 24);
            cfg.apply_default_blocklist = false;
            cfg.subshards = 4;
            cfg.rate_pps = 400_000;
            cfg.cooldown_secs = 1;
            let mut s = run_parallel(&cfg, &transport).unwrap();
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
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(Arc::clone(&world), src);
        poison(&world);

        // The transport keeps working: attach/send/recv all recover.
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 3, 0, 0), 26);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 2;
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert_eq!(s.sent, 64, "a poisoned lock must not lose coverage");
        assert_eq!(s.unique_successes, 64);
        let recoveries = s.metadata.counters.lock_poison_recoveries;
        assert!(recoveries > 0, "recoveries must be counted, got {recoveries}");
        // The recovery surfaces in the status stream.
        let last = s.status.last().expect("at least the t=0 sample");
        assert!(last.counters.lock_poison_recoveries > 0);
    }

    /// A transport whose virtual clock never advances: the cooldown
    /// drain can make no progress, which is exactly the stall the
    /// supervisor exists to break.
    struct FrozenClockTransport;

    impl SharedTransport for FrozenClockTransport {
        fn now(&self) -> u64 {
            0
        }
        fn advance_to(&self, _t: u64) {}
        fn send_frame_at(&self, _frame: &[u8], _at_ns: u64) -> Result<(), SendError> {
            Ok(())
        }
        fn recv_frames(&self) -> Vec<(u64, Vec<u8>)> {
            Vec::new()
        }
    }

    #[test]
    fn watchdog_breaks_a_frozen_cooldown() {
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 5, 0, 0), 28);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 1;
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 1;
        let opts = ParallelRunOptions {
            watchdog_poll_limit: 500,
            ..Default::default()
        };
        // Without the supervisor this would spin forever: the clock never
        // reaches the cooldown deadline.
        let s = run_parallel_with(&cfg, &FrozenClockTransport, opts).unwrap();
        assert_eq!(s.watchdog_stalls, 1, "frozen clock must trip the supervisor");
        assert_eq!(s.sent, 16, "sends completed; only the drain was stuck");
        assert_eq!(s.shutdown_clean, 1, "a stall degrades the scan, not crashes it");
        assert!(!s.killed);
        let last = s.status.last().expect("status stream present");
        assert_eq!(last.counters.watchdog_stalls, 0, "stall happened after the last sample");
    }

    #[test]
    fn pre_requested_shutdown_stops_senders_at_cycle_boundary() {
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 7, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 2;
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 1;
        let token = ShutdownToken::new();
        token.request();
        let s = run_parallel_with(
            &cfg,
            &transport,
            ParallelRunOptions {
                shutdown: Some(token),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.sent, 0, "no probe leaves after a shutdown request");
        assert_eq!(s.shutdown_clean, 1, "interrupt is still an orderly exit");
        assert!(!s.killed);
    }

    #[test]
    fn parallel_kill_then_resume_covers_everything() {
        use crate::checkpoint::CheckpointPolicy;
        use zmap_netsim::FaultPlan;
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let dir = std::env::temp_dir().join("zmap-parallel-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 6, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 4;
        cfg.rate_pps = 200_000;
        cfg.cooldown_secs = 1;
        let world = Arc::new(Mutex::new(World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().kill_at(300).build(),
            ..WorldConfig::default()
        })));
        let transport = SharedSimTransport::new(world, src);
        let policy = CheckpointPolicy::new(&path).with_interval_ns(100_000);
        let opts = ParallelRunOptions {
            checkpoint: Some(policy),
            ..Default::default()
        };
        let first = run_parallel_with(&cfg, &transport, opts.clone()).unwrap();
        assert!(first.killed, "kill at NIC event 300 lands mid-scan");
        assert_eq!(first.shutdown_clean, 0);
        assert!(first.checkpoints_written >= 1);

        let journal = CheckpointState::load(&path).unwrap();
        assert!(!journal.complete);
        let transport2 = SharedSimTransport::new(shared_world(), src);
        let second = resume_parallel(&cfg, &transport2, &journal, opts).unwrap();
        assert!(!second.killed);
        assert_eq!(second.resume_count, 1);
        assert_eq!(second.shutdown_clean, 1);
        let mut union: HashSet<_> = first.results.iter().map(|r| r.saddr).collect();
        union.extend(second.results.iter().map(|r| r.saddr));
        assert_eq!(union.len(), 256, "kill/resume must lose nothing");
        // The final journal of the resumed run marks completion and
        // carries the cumulative counters.
        let j2 = CheckpointState::load(&path).unwrap();
        assert!(j2.complete);
        assert_eq!(j2.counters.resume_count, 1);
        assert!(j2.counters.sent >= first.sent);
    }

    #[test]
    fn resume_parallel_refuses_foreign_config() {
        use crate::checkpoint::CheckpointPolicy;
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let dir = std::env::temp_dir().join("zmap-parallel-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 8, 0, 0), 26);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 2;
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 1;
        let transport = SharedSimTransport::new(shared_world(), src);
        let opts = ParallelRunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path)),
            ..Default::default()
        };
        run_parallel_with(&cfg, &transport, opts).unwrap();
        let journal = CheckpointState::load(&path).unwrap();
        let mut other = cfg.clone();
        other.seed = 999;
        let transport2 = SharedSimTransport::new(shared_world(), src);
        let err = resume_parallel(
            &other,
            &transport2,
            &journal,
            ParallelRunOptions::default(),
        );
        assert!(matches!(err, Err(ResumeError::Journal(_))));
    }

    #[test]
    fn aggregate_rate_survives_awkward_thread_splits() {
        // 1000 pps on 7 threads: the old truncating split paced each
        // thread at 142 pps (994 aggregate). The interleaved schedule's
        // last probe of a /24 is global slot 255 → t = 255 ms exactly.
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 9, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 7;
        cfg.rate_pps = 1000;
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
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
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 10, 0, 0), 28);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 7;
        cfg.rate_pps = 3;
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert_eq!(s.sent, 16);
        assert!(
            s.duration_ns >= 5_000_000_000,
            "16 probes at 3 pps span 5 s; got {} ns",
            s.duration_ns
        );
        assert_eq!(s.unique_successes, 16, "slow scans still cover everything");
    }

    #[test]
    fn threaded_rx_honors_dedup_and_failure_reporting() {
        // The world answers only on 80, so a scan of 81 draws 256 RSTs:
        // with `report_failures` each becomes a row, and the configured
        // 64-entry window (not a hard-coded one) does the dedup.
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(shared_world(), src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 15, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.ports = vec![81];
        cfg.subshards = 2;
        cfg.rate_pps = 200_000;
        cfg.cooldown_secs = 1;
        cfg.dedup = crate::config::DedupMethod::Window(64);
        cfg.report_failures = true;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert_eq!(s.unique_successes, 0);
        assert_eq!(s.metadata.counters.unique_failures, 256);
        assert_eq!(s.results.len(), 256, "one failure row per RST");
        assert!(s.results.iter().all(|r| !r.success));
        let distinct: HashSet<_> = s.results.iter().map(|r| r.saddr).collect();
        assert_eq!(distinct.len(), 256);
    }

    #[test]
    fn status_stream_reports_virtual_progress() {
        let world = shared_world();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let transport = SharedSimTransport::new(world, src);
        let mut cfg = ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(44, 4, 0, 0), 24);
        cfg.apply_default_blocklist = false;
        cfg.subshards = 4;
        cfg.rate_pps = 100; // 256 probes at 100 pps ≈ 2.5 virtual secs
        cfg.cooldown_secs = 1;
        let s = run_parallel(&cfg, &transport).unwrap();
        assert!(s.status.len() >= 2, "samples: {}", s.status.len());
        let mut prev = 0;
        for sample in &s.status {
            assert!(sample.counters.sent >= prev);
            prev = sample.counters.sent;
        }
    }
}
