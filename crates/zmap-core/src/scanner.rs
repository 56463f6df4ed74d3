//! The scan engine: target walk → paced probes → validated, deduplicated,
//! classified results — every stage written once, in this file.
//!
//! A [`PreparedScan`] goes through `emit` (pace + render a target's
//! probes), `flush` (batched send, the one retry loop), `Engine::rx_tick`
//! (drain, status, periodic journal), `Engine::cooldown` (drain
//! stragglers under the stall watchdog) and `Engine::finish` (the only
//! exit). Two drivers decide which thread runs which stage: the
//! **inline** one here ([`Scanner::run_into`] — a [`Scanner`] owns its
//! transport, so the calling thread does it all) and the **threaded** one
//! in `parallel.rs` ([`PreparedScan::run`] — the transport is borrowed and
//! `Sync`, so each lane gets a thread pair).

use crate::checkpoint::{config_digest, CheckpointPolicy, CheckpointState, JournalError};
use crate::config::{DedupMethod, ScanConfig};
use crate::log::{Level, Logger};
use crate::metadata::{ConfigEcho, Counters, PermutationEcho, ScanMetadata};
use crate::metrics::{CounterId, HistId, ScanMetrics};
use crate::monitor::{Monitor, StatusUpdate};
use crate::output::{RowSink, ScanResult};
use crate::plan::{PlanIter, ProbeModule, ScanPlan};
use crate::ratecontrol::RateController;
use crate::shutdown::ShutdownToken;
use crate::transport::{FrameBatch, RxBatch, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::net::IpAddr;
use zmap_dedup::{PagedBitmap, SlidingWindow};
use zmap_metrics::{MetricsSnapshot, TraceSnapshot};
use zmap_netsim::SendError;
use zmap_targets::generator::BuildError;
use zmap_targets::TargetGenerator;

/// Outcome of a completed scan.
#[derive(Debug)]
pub struct ScanSummary {
    /// Probes sent.
    pub sent: u64,
    /// Targets in this shard.
    pub targets_total: u64,
    /// Responses that validated (cookie matched).
    pub responses_validated: u64,
    /// Frames that parsed but were not ours / failed validation.
    pub responses_discarded: u64,
    /// Duplicate responses suppressed by dedup.
    pub duplicates_suppressed: u64,
    /// Unique successful targets (open/answering).
    pub unique_successes: u64,
    /// Unique failed targets (RST/unreachable).
    pub unique_failures: u64,
    /// Send attempts retried after transient transport failures.
    pub send_retries: u64,
    /// Probes abandoned after exhausting retries.
    pub sendto_failures: u64,
    /// Responses rejected by checksum validation.
    pub responses_corrupted: u64,
    /// Checkpoint journals written (periodic plus final).
    pub checkpoints_written: u64,
    /// Times this scan has been resumed from a checkpoint journal.
    pub resume_count: u64,
    /// Cooldown drains the stall watchdog abandoned.
    pub watchdog_stalls: u64,
    /// 1 when the engine exited through the orderly shutdown path.
    pub shutdown_clean: u64,
    /// True when a fault schedule killed the process mid-flight: the
    /// summary is whatever a post-mortem harness could recover, not the
    /// product of an orderly exit.
    pub killed: bool,
    /// Virtual scan duration (ns), including cooldown.
    pub duration_ns: u64,
    /// The success records (plus failures when `report_failures`).
    pub results: Vec<ScanResult>,
    /// Per-second status samples.
    pub status: Vec<StatusUpdate>,
    /// Machine-readable metadata (stream #4).
    pub metadata: ScanMetadata,
    /// The metrics registry dump: latency histograms, the event trace,
    /// and the RTT sampling rate (also folded into `metadata`).
    pub metrics: MetricsSnapshot,
}

impl ScanSummary {
    /// Fraction of targets that answered successfully.
    pub fn hitrate(&self) -> f64 {
        if self.targets_total == 0 {
            0.0
        } else {
            self.unique_successes as f64 / self.targets_total as f64
        }
    }
}

/// Consecutive cooldown-drain polls with a frozen progress signature
/// (virtual clock, pending-RX time, RX counters) tolerated before the
/// drain watchdog declares the transport stalled, records a
/// `watchdog_stalls` intervention and abandons the wait. A drain that
/// makes progress never repeats its signature, so only a frozen transport
/// clock trips it; the limit only bounds how long such a stall is waited
/// out.
pub const WATCHDOG_POLL_LIMIT: u64 = 2_048;

/// Optional run-time machinery for either driver ([`Scanner::run_with`],
/// [`PreparedScan::run`]). `Default` is a plain uninstrumented run.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Write an initial, periodic (virtual-time interval), and final
    /// checkpoint journal to this policy's path.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative shutdown: once requested, sending stops at the next
    /// cycle boundary and the scan proceeds straight through cooldown to
    /// an orderly exit (all four streams flushed, final checkpoint).
    pub shutdown: Option<ShutdownToken>,
    /// Schedule-aligned resume (inline driver): re-enter the global rate
    /// schedule at the slot the rewound walk position corresponds to, so
    /// a replayed probe departs at exactly the virtual time its
    /// uninterrupted twin would have. Exact for single-subshard scans
    /// (the supervisor's worker shape); `false` (the default) keeps the
    /// historical resume pacing, which restarts the schedule from the
    /// transport's clock.
    pub align_resume: bool,
}

/// Why [`PreparedScan::resume`] refused to build.
#[derive(Debug)]
pub enum ResumeError {
    /// The journal is damaged or does not belong to this configuration.
    Journal(JournalError),
    /// The configuration itself failed validation.
    Build(BuildError),
    /// The journal belongs to this scan (same config once the shard
    /// spec is set aside) but records a different slice of it — e.g. a
    /// supervisor migrating worker 2's journal onto worker 3. Distinct
    /// from [`ResumeError::Journal`] so the caller can name both specs
    /// instead of surfacing an opaque digest mismatch. Tuples are
    /// `(shard, num_shards, num_subshards)`.
    ShardSpec {
        /// The spec recorded in the journal.
        journal: (u32, u32, u32),
        /// The spec the offered configuration targets.
        config: (u32, u32, u32),
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Journal(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Build(e) => write!(f, "cannot resume: {e}"),
            ResumeError::ShardSpec { journal, config } => write!(
                f,
                "cannot resume: journal records shard {}/{} ({} subshards) but the \
                 offered config targets shard {}/{} ({} subshards); a journal only \
                 resumes the exact shard that wrote it",
                journal.0, journal.1, journal.2, config.0, config.1, config.2,
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

enum DedupState {
    None,
    Bitmap(Box<PagedBitmap>),
    Window(SlidingWindow),
}

impl DedupState {
    fn new(method: DedupMethod) -> Self {
        match method {
            DedupMethod::None => DedupState::None,
            DedupMethod::FullBitmap => DedupState::Bitmap(Box::new(PagedBitmap::new())),
            DedupMethod::Window(n) => DedupState::Window(SlidingWindow::new(n)),
        }
    }

    /// Observes a response by its plan-derived key. For v4 the key is
    /// `target_key(ip, port)`; for v6 it is the compact per-prefix index
    /// (the bitmap arm is unreachable there — v6 + full-bitmap is
    /// refused by the gate).
    fn observe(&mut self, ip: IpAddr, key: u64) -> bool {
        match self {
            DedupState::None => true,
            // The bitmap indexes bare 32-bit addresses, so it is only
            // selected for single-port v4 scans (enforced by the
            // gate); feeding it a (ip, port) composite would silently
            // truncate.
            DedupState::Bitmap(b) => {
                let IpAddr::V4(v4) = ip else {
                    unreachable!("full-bitmap dedup is rejected for v6 plans")
                };
                zmap_dedup::Deduplicator::observe(&mut **b, u64::from(u32::from(v4)))
            }
            DedupState::Window(w) => w.check_and_insert(key),
        }
    }
}

/// A scan that has passed every configuration check — the gate
/// ([`ScanConfig::validate`]) first, then the builds of its walk plan and
/// probe module — and has sent nothing yet. A front-end builds one before
/// it touches its output files, so a rejected config leaves them alone;
/// [`on`](Self::on) hands it an owned transport (inline driver),
/// [`run`](Self::run) a shared one (threaded).
pub struct PreparedScan {
    pub(crate) cfg: ScanConfig,
    pub(crate) plan: ScanPlan,
    /// The per-scan packet template (paper §4.4), laid out once and
    /// patched per probe by [`emit`].
    module: ProbeModule,
    logger: Logger,
    /// Counters carried over from the journal when resuming (so metadata
    /// reports the cumulative truth across attempts); zero for fresh runs.
    pub(crate) baseline: Counters,
    /// Per-subshard element positions to fast-forward to before sending
    /// (already rewound by the in-flight grace window); `None` fresh.
    pub(crate) start_positions: Option<Vec<u64>>,
}

impl PreparedScan {
    /// Validates `cfg` for a fresh scan; `logger` is stream #2. This and
    /// [`resume`](Self::resume) are the only ways to a runnable scan, so
    /// every entry point (`Scanner::{new, resume}`, `run_parallel`) is
    /// behind the one gate.
    pub fn new(cfg: ScanConfig, logger: Logger) -> Result<Self, BuildError> {
        Self::build(cfg, logger, None)
    }

    /// Validates `cfg` against a checkpoint journal: the cyclic-group walk
    /// is reconstructed from the journal's recorded parts (not re-derived
    /// from the seed), per-subshard positions are rewound by the in-flight
    /// grace window, and the journal's counters become the baseline so the
    /// resumed run's metadata is cumulative across attempts.
    ///
    /// Refuses a journal whose config digest does not match `cfg` — a
    /// journal only resumes the exact scan that wrote it; one recording a
    /// different shard of the same scan gets [`ResumeError::ShardSpec`].
    pub fn resume(
        cfg: ScanConfig,
        journal: &CheckpointState,
        logger: Logger,
    ) -> Result<Self, ResumeError> {
        check_shard_spec(journal, &cfg)?;
        journal.check_config(&cfg).map_err(ResumeError::Journal)?;
        let mut scan = Self::build(cfg, logger, Some((journal.generator, journal.offset)))
            .map_err(ResumeError::Build)?;
        if scan.plan.permutation().0 != journal.group_prime {
            // The digest already covers the target space, so this only
            // trips on a corrupted-yet-checksum-valid journal; belt and
            // braces before walking the wrong group. For v6 the prime
            // slot carries the walk-plan fingerprint, so this also
            // catches a journal written against a different prefix list.
            return Err(ResumeError::Journal(JournalError::Malformed(
                "journal group prime does not match the configured target space".into(),
            )));
        }
        scan.baseline = journal.counters;
        scan.baseline.resume_count += 1;
        scan.baseline.shutdown_clean = 0;
        let positions = journal.rewound_positions(scan.cfg.rate_pps);
        scan.logger.info(format_args!(
            "resuming scan (attempt {}): {} probes sent so far, rewinding to positions {:?}",
            scan.baseline.resume_count + 1,
            scan.baseline.sent,
            positions,
        ));
        scan.start_positions = Some(positions);
        Ok(scan)
    }

    fn build(
        cfg: ScanConfig,
        logger: Logger,
        cycle_parts: Option<(u64, u64)>,
    ) -> Result<Self, BuildError> {
        cfg.validate().map_err(BuildError::Config)?;
        // In v6 mode the journaled cycle parts are ignored: the walk plan
        // is a pure function of (prefix list, ports, seed) and the resume
        // gate compares its fingerprint instead.
        let plan = ScanPlan::build(&cfg, cycle_parts)?;
        let module = ProbeModule::build(&cfg)?;
        let (prime, generator, _) = plan.permutation();
        logger.info(format_args!(
            "scan configured: {} targets in shard {}/{}, group p={}, generator={}",
            plan.target_count(),
            cfg.shard,
            cfg.num_shards,
            prime,
            generator,
        ));
        Ok(PreparedScan {
            cfg,
            plan,
            module,
            logger,
            baseline: Counters::default(),
            start_positions: None,
        })
    }

    /// Pairs the scan with an owned transport: the inline driver.
    pub fn on<T: Transport>(self, transport: T) -> Scanner<T> {
        Scanner { scan: self, transport }
    }

    /// Lane `t`'s walk (subshard `t` of this shard), fast-forwarded to
    /// its resume position.
    pub(crate) fn lane(&self, t: u32) -> PlanIter<'_> {
        let mut it = self.plan.iter_shard(self.cfg.shard, t);
        if let Some(&p) = self.start_positions.as_ref().and_then(|p| p.get(t as usize)) {
            it.fast_forward_elements(p);
        }
        it
    }

    /// Shard-local target count (exact only for the whole scan; for a
    /// shard we estimate as total/shards for progress display).
    pub(crate) fn shard_targets(&self) -> u64 {
        self.plan.target_count() / u64::from(self.cfg.num_shards)
    }
}

/// A [`PreparedScan`] plus an owned transport: the inline driver.
pub struct Scanner<T: Transport> {
    scan: PreparedScan,
    transport: T,
}

impl<T: Transport> Scanner<T> {
    /// Validates the configuration and prepares the permutation.
    pub fn new(cfg: ScanConfig, transport: T) -> Result<Self, BuildError> {
        Self::with_logger(cfg, transport, Logger::null())
    }

    /// Like [`new`](Self::new) with an explicit logger (stream #2).
    pub fn with_logger(cfg: ScanConfig, transport: T, logger: Logger) -> Result<Self, BuildError> {
        Ok(PreparedScan::new(cfg, logger)?.on(transport))
    }

    /// Rebuilds a scanner from a checkpoint journal (see
    /// [`PreparedScan::resume`]).
    pub fn resume(
        cfg: ScanConfig,
        transport: T,
        journal: &CheckpointState,
    ) -> Result<Self, ResumeError> {
        Ok(PreparedScan::resume(cfg, journal, Logger::null())?.on(transport))
    }

    /// The v4 target generator (inspectable before running); `None` in
    /// IPv6 mode — use [`plan`](Self::plan) for the family-generic view.
    pub fn generator(&self) -> Option<&TargetGenerator> {
        match &self.scan.plan {
            ScanPlan::V4(gen) => Some(gen),
            ScanPlan::V6(_) => None,
        }
    }

    /// The address-family plan (inspectable before running).
    pub fn plan(&self) -> &ScanPlan {
        &self.scan.plan
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &ScanConfig {
        &self.scan.cfg
    }

    /// Runs the scan to completion (send phase + cooldown) and returns
    /// the summary. Consumes the scanner.
    pub fn run(self) -> ScanSummary {
        self.run_with(RunOptions::default())
    }

    /// Like [`run`](Self::run) with checkpointing and cooperative
    /// shutdown wired in.
    pub fn run_with(self, opts: RunOptions) -> ScanSummary {
        let mut results = Vec::new();
        let mut summary = self.run_into(opts, &mut results);
        summary.results = results;
        summary
    }

    /// Like [`run_with`](Self::run_with), but each record goes to `rows`
    /// the moment the receive path accepts it — in arrival order, while
    /// the scan runs — and the summary's `results` stays empty. Handing in
    /// an [`OutputModule`](crate::output::OutputModule) streams the data
    /// file with no row held in memory.
    ///
    /// This is the inline driver: the lanes are interleaved round-robin
    /// into one batch on the calling thread (the temporal mixing of
    /// ZMap's concurrent send threads, deterministically; a lane that
    /// runs dry gives up its slots), with an `Engine::rx_tick` after
    /// every full flush. `max_targets`, `max_results` and `align_resume`
    /// live here: they need one global, ordered count of targets.
    pub fn run_into(self, opts: RunOptions, rows: &mut dyn RowSink) -> ScanSummary {
        let Scanner { scan, mut transport } = self;
        let cfg = &scan.cfg;
        let start = transport.now();
        let mut rc = RateController::new(start, cfg.rate_pps);
        let metrics = ScanMetrics::new(1, scan.baseline);
        let shard_targets = match cfg.max_targets {
            0 => scan.shard_targets(),
            cap => cap,
        };
        let mut iters: Vec<_> = (0..cfg.subshards).map(|t| scan.lane(t)).collect();
        if let Some(positions) = scan.start_positions.as_ref().filter(|_| opts.align_resume) {
            // Schedule-aligned resume: the first replayed probe must
            // depart at the slot its uninterrupted twin occupied, not
            // at slot 0 of a restarted schedule. Count the targets
            // the walk accepted before each rewound position with a
            // throwaway iterator — an accept that lands past the
            // position is the resumed stream's first yield, so it is
            // not counted — then skip the schedule that many slots.
            let mut replayed = 0u64;
            for (t, &p) in positions.iter().enumerate() {
                let mut probe_iter = scan.plan.iter_shard(cfg.shard, t as u32);
                while probe_iter.elements_consumed() < p {
                    if probe_iter.next().is_none() {
                        break;
                    }
                    if probe_iter.elements_consumed() <= p {
                        replayed += 1;
                    } else {
                        break;
                    }
                }
            }
            let slots = replayed * u64::from(cfg.probes_per_target);
            rc.fast_forward(slots);
            metrics.trace(0, "resume_align", slots);
        }
        let positions =
            |iters: &[PlanIter<'_>]| iters.iter().map(|it| it.elements_consumed()).collect();
        let mut engine =
            Engine::start(&scan, &metrics, &opts, start, shard_targets, positions(&iters), rows);

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x005E_ED1D);
        let mut live: Vec<usize> = (0..iters.len()).collect();
        let mut next = 0usize;
        let mut walking = true;
        let mut killed = false;
        let mut interrupted = false;
        // The TX hot path: each probe is rendered from the per-scan
        // template straight into its slot of a reusable frame pool as it
        // is paced, and the pool is flushed through one batched transport
        // call per `cfg.batch` targets — ZMap's packet template plus
        // sendmmsg shape. After the first batch fills, the loop performs
        // zero allocations per probe.
        let mut batch = FrameBatch::new(cfg.batch);
        let mut lane_clock = start;
        // Local mirror of the TargetsTotal counter (which includes any
        // resume baseline): the hot loop reads it once per target, and a
        // registry read walks every counter shard. It is published to the
        // registry once per batch, before the flush: every reader (kill
        // rollback, `rx_tick`'s status sample and journal, `finish`) looks
        // after one.
        let mut targets_total = metrics.get(CounterId::TargetsTotal);
        loop {
            while walking && !batch.is_full() {
                let target = if opts.shutdown.as_ref().is_some_and(|t| t.is_requested()) {
                    interrupted = true;
                    metrics.trace(
                        transport.now().saturating_sub(start),
                        "shutdown_requested",
                        0,
                    );
                    scan.logger.info(format_args!(
                        "shutdown requested; stopping sends at cycle boundary"
                    ));
                    None
                } else if cfg.max_targets > 0 && targets_total >= cfg.max_targets {
                    None
                } else {
                    // Pick the next target, rotating across subshards.
                    loop {
                        if live.is_empty() {
                            break None;
                        }
                        next %= live.len();
                        match iters[live[next]].next() {
                            Some(t) => {
                                next += 1;
                                break Some(t);
                            }
                            None => {
                                live.remove(next);
                            }
                        }
                    }
                };
                let Some(target) = target else {
                    walking = false;
                    break;
                };
                targets_total += 1;
                // Tag each frame with the target count including its own
                // target, so a mid-batch kill can roll the count back to
                // exactly the targets whose probes were in flight.
                emit(&scan, &metrics, &mut rc, &mut batch, target, targets_total, || rng.gen());
            }
            // A full batch, or whatever is still queued when the walk
            // ends (exhausted, shard cap, max-results, or shutdown
            // request): those targets are already counted, so their
            // probes must still leave.
            if batch.is_empty() {
                break;
            }
            metrics.store_absolute(CounterId::TargetsTotal, targets_total);
            let flushed =
                flush(&mut transport, &mut batch, &mut lane_clock, cfg.max_retries, &metrics, 0);
            if let Err(targets_in_flight) = flushed {
                metrics.store_absolute(CounterId::TargetsTotal, targets_in_flight);
                killed = true;
                break;
            }
            batch.clear();
            if !walking {
                break;
            }
            engine.rx_tick(&mut transport, || positions(&iters));
            if cfg.max_results > 0 && metrics.get(CounterId::UniqueSuccesses) >= cfg.max_results
            {
                scan.logger.info(format_args!(
                    "max-results {} reached; entering cooldown",
                    cfg.max_results
                ));
                walking = false;
            }
        }
        let exit = if killed { Exit::Killed } else { engine.cooldown(&mut transport) };
        engine.finish(&transport, exit, interrupted, positions(&iters))
    }
}

/// Shard-spec gate ahead of the digest check. The config digest covers
/// the shard spec, so a journal migrated onto the wrong worker slice
/// would otherwise surface as an opaque digest mismatch; this
/// distinguishes "same scan, wrong slice" (everything agrees once the
/// journal's spec is substituted into the offered config) from a truly
/// foreign config, which falls through to the digest check.
fn check_shard_spec(journal: &CheckpointState, cfg: &ScanConfig) -> Result<(), ResumeError> {
    let config = (cfg.shard, cfg.num_shards, cfg.subshards);
    let recorded = (journal.shard, journal.num_shards, journal.num_subshards);
    if recorded == config {
        return Ok(());
    }
    let mut as_journal = cfg.clone();
    as_journal.shard = journal.shard;
    as_journal.num_shards = journal.num_shards;
    as_journal.subshards = journal.num_subshards;
    if config_digest(&as_journal) == journal.config_digest {
        return Err(ResumeError::ShardSpec { journal: recorded, config });
    }
    Ok(())
}

/// Stage 1, once per target: paces, renders and RTT-stamps the target's
/// `probes_per_target` probes into `batch`, each tagged `tag` (the
/// driver's bookkeeping for rolling progress back to the frames that
/// left). The target arrives with the RTT key its walk derived, so TX
/// makes no key lookup. `ip_id_entropy` is the driver's IP-ID stream,
/// drawn per probe.
#[inline]
pub(crate) fn emit(
    scan: &PreparedScan,
    metrics: &ScanMetrics,
    rc: &mut RateController,
    batch: &mut FrameBatch,
    (ip, port, rtt_key): (IpAddr, u16, Option<u64>),
    tag: u64,
    mut ip_id_entropy: impl FnMut() -> u16,
) {
    for _ in 0..scan.cfg.probes_per_target {
        let at = rc.mark_sent();
        scan.module.render_into(ip, port, ip_id_entropy(), batch.reserve(at, tag));
        // Stamp the scheduled send time for RTT measurement; retransmits
        // to the same target keep the first stamp.
        if let Some(key) = rtt_key {
            metrics.note_probe(key, at);
        }
    }
}

/// Stage 2: flushes a frame batch through [`Transport::send_batch`],
/// retrying each transiently refused frame (EAGAIN) up to `max_retries`
/// times with exponential virtual-time backoff (50 µs, then doubling —
/// ZMap's sendto retry shape). Exhausted probes count as
/// `sendto_failures` and are never re-queued: a single-pass scanner
/// treats them like any other lost probe. Counters land in metrics shard
/// `shard`, which the calling thread must own.
///
/// A refusal delays every frame behind it, as a blocked socket would:
/// the backoff is written into the batch's own slot times, and
/// `lane_clock` (when this lane's last frame left) carries it into the
/// lane's next batch. The transport's clock, which other lanes may be
/// advancing, is never read, so the schedule and the recorded flush
/// latency (paced span + accrued backoff) replay identically. `Err` is a
/// scheduled kill — never retried, no counter moves for the dead frame —
/// and carries the tag of the frame it landed on.
pub(crate) fn flush<T: Transport>(
    transport: &mut T,
    batch: &mut FrameBatch,
    lane_clock: &mut u64,
    max_retries: u32,
    metrics: &ScanMetrics,
    shard: usize,
) -> Result<(), u64> {
    let span = batch.span_ns();
    batch.delay_from(0, *lane_clock);
    let mut idx = 0usize;
    let mut attempt = 0u32;
    let mut backoff_total = 0u64;
    while idx < batch.len() {
        let (accepted, err) = transport.send_batch(batch, idx);
        metrics.add_at(shard, CounterId::Sent, accepted as u64);
        idx += accepted;
        if accepted > 0 {
            attempt = 0;
        }
        match err {
            None => {}
            Some(SendError::Killed) => return Err(batch.tag(idx)),
            Some(_) if attempt == max_retries => {
                metrics.add_at(shard, CounterId::SendtoFailures, 1);
                idx += 1;
                attempt = 0;
            }
            // Push the refused frame (and so the rest of the batch) out
            // by the backoff and re-enter the batched path at it.
            Some(_) => {
                metrics.add_at(shard, CounterId::SendRetries, 1);
                let backoff = 50_000u64 << attempt.min(10);
                backoff_total += backoff;
                attempt += 1;
                batch.delay_from(idx, batch.frame(idx).0 + backoff);
            }
        }
    }
    *lane_clock = batch.last_at().unwrap_or(*lane_clock);
    metrics.record_at(shard, HistId::BatchFlush, span + backoff_total);
    Ok(())
}

/// How a run left its cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// The drain ran to the cooldown deadline.
    Orderly,
    /// The watchdog abandoned a frozen drain.
    Stalled,
    /// A fault schedule killed the process.
    Killed,
}

/// One run's receive side and books — receive path, status monitor,
/// checkpoint journal — and the three stages that use them, run by both
/// drivers on the calling thread over that thread's transport.
pub(crate) struct Engine<'a> {
    scan: &'a PreparedScan,
    metrics: &'a ScanMetrics,
    dedup: DedupState,
    /// The receive ring each drain fills and the receive path reads.
    rx: RxBatch,
    /// The metrics shard owned by the receiving thread.
    rx_shard: usize,
    /// Takes the success records (plus failures when `report_failures`).
    rows: &'a mut dyn RowSink,
    monitor: Monitor,
    /// Where the journal goes and the digest of the config it belongs to.
    ckpt: Option<(&'a CheckpointPolicy, u64)>,
    /// Scan start on the transport clock.
    start: u64,
    /// The status stream's progress denominator.
    expected_probes: u64,
    last_ckpt_at: u64,
}

impl<'a> Engine<'a> {
    /// Opens the run's books at transport time `start`: the opening trace
    /// marks and an initial journal (of the lanes' starting `positions`),
    /// so a kill at any point — even probe #1 — leaves a resume point.
    pub(crate) fn start(
        scan: &'a PreparedScan,
        metrics: &'a ScanMetrics,
        opts: &'a RunOptions,
        start: u64,
        shard_targets: u64,
        positions: Vec<u64>,
        rows: &'a mut dyn RowSink,
    ) -> Self {
        metrics.trace(0, "scan_start", shard_targets);
        if scan.start_positions.is_some() {
            metrics.trace(0, "resume_rewind", scan.baseline.resume_count);
        }
        let engine = Engine {
            scan,
            metrics,
            dedup: DedupState::new(scan.cfg.dedup),
            rx: RxBatch::new(),
            rx_shard: metrics.rx_shard(),
            rows,
            monitor: Monitor::new(),
            ckpt: opts.checkpoint.as_ref().map(|policy| (policy, config_digest(&scan.cfg))),
            start,
            expected_probes: shard_targets * u64::from(scan.cfg.probes_per_target),
            last_ckpt_at: 0,
        };
        engine.journal(positions, 0, false);
        engine
    }

    /// Snapshots the walk into the journal (a no-op without a checkpoint
    /// policy): the registry's counters with this write already counted,
    /// committed to the registry — counter, size histogram, trace event —
    /// only once the write has landed. A failure is logged and otherwise
    /// ignored: a failed checkpoint must never take down a live scan.
    /// The journal size stands in for write latency because a wall-clock
    /// duration would not replay deterministically.
    fn journal(&self, positions: Vec<u64>, virtual_time_ns: u64, complete: bool) {
        let Some((policy, digest)) = self.ckpt else {
            return;
        };
        let (cfg, metrics) = (&self.scan.cfg, self.metrics);
        let mut counters = metrics.counters();
        counters.checkpoints_written += 1;
        // In v6 mode the prime slot carries the walk-plan fingerprint and
        // generator/offset are zero (see `ScanPlan::permutation`).
        let (group_prime, generator, offset) = self.scan.plan.permutation();
        let state = CheckpointState {
            config_digest: digest,
            seed: cfg.seed,
            group_prime,
            generator,
            offset,
            shard: cfg.shard,
            num_shards: cfg.num_shards,
            num_subshards: cfg.subshards,
            positions,
            dedup_high_water: counters.unique_successes + counters.unique_failures,
            virtual_time_ns,
            complete,
            counters,
        };
        let bytes = state.to_bytes().len() as u64;
        match state.write_atomic(&policy.path) {
            Ok(()) => {
                metrics.add_at(self.rx_shard, CounterId::CheckpointsWritten, 1);
                metrics.record_at(self.rx_shard, HistId::CheckpointWrite, bytes);
                metrics.trace(virtual_time_ns, "checkpoint_written", bytes);
            }
            Err(e) => self.scan.logger.log(
                Level::Warn,
                format_args!("checkpoint write failed (scan continues): {e}"),
            ),
        }
    }

    /// Drains the received frames through the receive path, each read in
    /// place from the reused receive ring; returns how many frames there
    /// were.
    fn drain<T: Transport>(&mut self, transport: &mut T) -> u64 {
        let mut rx = std::mem::take(&mut self.rx);
        rx.clear();
        transport.recv_into(&mut rx);
        for (ts, frame) in rx.iter() {
            self.on_frame(ts, frame);
        }
        let frames = rx.len() as u64;
        self.rx = rx;
        frames
    }

    /// The receive path, per frame stamped `ts` on the transport clock:
    /// validate, key, sample the RTT, dedup, classify, emit the record.
    fn on_frame(&mut self, ts: u64, frame: &[u8]) {
        let (scan, metrics, shard) = (self.scan, self.metrics, self.rx_shard);
        match scan.module.parse_response(frame) {
            Ok(Some(resp)) => {
                metrics.add_at(shard, CounterId::ResponsesValidated, 1);
                // Map the response into the plan's dedup index space. A
                // failure (v6 responder off its prefix's host pattern,
                // unknown port) degrades exactly this response — counted
                // and dropped — never the run.
                let key = match scan.plan.probe_key(resp.ip, resp.port) {
                    Ok(key) => key,
                    Err(e) => {
                        metrics.add_at(shard, CounterId::ResponsesDiscarded, 1);
                        scan.logger.log(
                            Level::Debug,
                            format_args!("response outside the target space: {e}"),
                        );
                        return;
                    }
                };
                // RTT from the probe's scheduled send to this arrival;
                // the tracker releases on first take, so duplicates and
                // blowback contribute no sample.
                metrics.record_rtt(shard, key, ts);
                if !self.dedup.observe(resp.ip, key) {
                    metrics.add_at(shard, CounterId::DuplicatesSuppressed, 1);
                    return;
                }
                let success = resp.kind.is_success();
                if success {
                    metrics.add_at(shard, CounterId::UniqueSuccesses, 1);
                } else {
                    metrics.add_at(shard, CounterId::UniqueFailures, 1);
                }
                if success || scan.cfg.report_failures {
                    self.rows.row(&ScanResult {
                        ts_ns: ts.saturating_sub(self.start),
                        saddr: resp.ip,
                        sport: resp.port,
                        classification: crate::plan::classify_kind(&resp.kind),
                        ttl: resp.ttl,
                        success,
                    });
                }
            }
            Ok(None) => {
                metrics.add_at(shard, CounterId::ResponsesDiscarded, 1);
            }
            Err(zmap_wire::WireError::BadChecksum) => {
                metrics.add_at(shard, CounterId::ResponsesCorrupted, 1);
                scan.logger
                    .log(Level::Debug, format_args!("checksum mismatch: frame dropped"));
            }
            Err(e) => {
                metrics.add_at(shard, CounterId::ResponsesDiscarded, 1);
                scan.logger
                    .log(Level::Debug, format_args!("malformed frame: {e}"));
            }
        }
    }

    /// Stage 3, between flushes: drains responses, lets the monitor
    /// sample the registry on the virtual clock (stream #3 is a pure
    /// consumer, no parallel books), and writes the periodic journal from
    /// `positions` — how far each lane has *sent*, never mid-target.
    pub(crate) fn rx_tick<T: Transport>(
        &mut self,
        transport: &mut T,
        positions: impl FnOnce() -> Vec<u64>,
    ) {
        self.drain(transport);
        let rel = transport.now().saturating_sub(self.start);
        self.monitor.observe(rel, self.metrics, self.expected_probes);
        if let Some((policy, _)) = self.ckpt {
            if rel.saturating_sub(self.last_ckpt_at) >= policy.interval_ns {
                self.journal(positions(), rel, false);
                self.last_ckpt_at = rel;
            }
        }
    }

    /// When `rx_tick` next has work of its own, on the transport clock:
    /// the next status sample or the next periodic journal.
    pub(crate) fn next_due(&self) -> u64 {
        let journal =
            self.ckpt.map_or(u64::MAX, |(p, _)| self.last_ckpt_at.saturating_add(p.interval_ns));
        self.start.saturating_add(self.monitor.next_tick().min(journal))
    }

    /// Stage 4, once the send phase has ended without a kill: drains
    /// stragglers for `cooldown_secs` of virtual time, jumping the clock
    /// from one pending delivery to the next. A scheduled kill can still
    /// land here — on the receive path — so the transport's death flag is
    /// polled between drains.
    ///
    /// Drain watchdog: a transport whose clock refuses to advance (a
    /// wedged NIC thread, a stalled shared-clock peer) leaves
    /// `next_rx_at` pending forever and would pin this loop. Track a
    /// progress signature — clock, pending-RX time, RX counters — and
    /// once it freezes for [`WATCHDOG_POLL_LIMIT`] consecutive polls,
    /// record the intervention and abandon the wait.
    pub(crate) fn cooldown<T: Transport>(&mut self, transport: &mut T) -> Exit {
        let (metrics, start) = (self.metrics, self.start);
        let entered = transport.now();
        let rel = entered.saturating_sub(start);
        metrics.trace(rel, "send_phase_end", metrics.get(CounterId::Sent));
        metrics.trace(rel, "cooldown_start", 0);
        let end = entered + self.scan.cfg.cooldown_secs * 1_000_000_000;
        let mut last_drain = entered;
        // Every frame moves one of these counters, so from here on a local
        // count of drained frames tells "RX made progress" as they would,
        // without walking the registry on every poll.
        let mut rx_seen = metrics.get(CounterId::ResponsesValidated)
            + metrics.get(CounterId::ResponsesDiscarded)
            + metrics.get(CounterId::ResponsesCorrupted)
            + metrics.get(CounterId::DuplicatesSuppressed);
        let mut signature = (0u64, None, 0u64);
        let mut frozen_polls = 0u64;
        loop {
            if transport.killed() {
                return Exit::Killed;
            }
            let pending = transport.next_rx_at();
            let sig = (transport.now(), pending, rx_seen);
            if sig == signature {
                frozen_polls += 1;
                if frozen_polls >= WATCHDOG_POLL_LIMIT {
                    metrics.add_at(self.rx_shard, CounterId::WatchdogStalls, 1);
                    metrics.trace(
                        transport.now().saturating_sub(start),
                        "watchdog_stall",
                        frozen_polls,
                    );
                    self.scan.logger.warn(format_args!(
                        "drain watchdog: no progress across {frozen_polls} polls; \
                         abandoning cooldown wait"
                    ));
                    return Exit::Stalled;
                }
            } else {
                signature = sig;
                frozen_polls = 0;
            }
            match pending {
                Some(t) if t <= end => {
                    transport.advance_to(t);
                    rx_seen += self.drain(transport);
                    last_drain = t;
                }
                _ => break,
            }
        }
        transport.advance_to(end);
        self.drain(transport);
        if transport.killed() {
            return Exit::Killed;
        }
        let drained = last_drain.saturating_sub(entered);
        metrics.record_at(self.rx_shard, HistId::CooldownDrain, drained);
        metrics.trace(end.saturating_sub(start), "cooldown_end", drained);
        Exit::Orderly
    }

    /// Stage 5, the one exit of both drivers. Orderly exit: mark it, write
    /// the final journal of the lanes' `positions` (complete unless a
    /// shutdown request `interrupted` the walk), then emit the closing
    /// status sample and log line — so every stream reflects the clean
    /// shutdown. A watchdog stall is neither orderly nor journaled: the
    /// worker was wedged, its walk positions are untrustworthy (sends may
    /// have been swallowed by the stalled transport), so the last periodic
    /// journal — written while the clock still advanced — stays the resume
    /// point for a supervisor migration. A killed process writes nothing
    /// more: no final checkpoint, no closing status sample, no completion
    /// log line; its summary is what a post-mortem harness recovers, with
    /// `shutdown_clean` still 0.
    pub(crate) fn finish<T: Transport>(
        mut self,
        transport: &T,
        exit: Exit,
        interrupted: bool,
        positions: Vec<u64>,
    ) -> ScanSummary {
        let (scan, metrics) = (self.scan, self.metrics);
        let rel = transport.now().saturating_sub(self.start);
        if exit == Exit::Killed {
            metrics.trace(rel, "killed", 0);
        } else {
            if exit == Exit::Orderly {
                metrics.add_at(self.rx_shard, CounterId::ShutdownClean, 1);
                self.journal(positions, rel, !interrupted);
            }
            // Final status samples covering the cooldown (so the stream
            // ends at 100% complete — a zero-sent scan reports 100% via
            // the zero-denominator guard, never NaN or a stuck 0%).
            self.monitor.observe(rel, metrics, metrics.get(CounterId::Sent));
            let c = metrics.counters();
            metrics.trace(rel, "scan_complete", c.unique_successes);
            scan.logger.info(format_args!(
                "scan {}: {} sent, {} validated, {} unique successes, {:.4}% hitrate",
                if interrupted || exit == Exit::Stalled {
                    "interrupted (clean shutdown)"
                } else {
                    "complete"
                },
                c.sent,
                c.responses_validated,
                c.unique_successes,
                if c.targets_total == 0 {
                    0.0
                } else {
                    100.0 * c.unique_successes as f64 / c.targets_total as f64
                }
            ));
        }
        // The registry and the status samples become the metadata
        // document (stream #4) and the summary; the records went to the
        // row sink (a collecting caller moves them into `results`).
        let counters = metrics.counters();
        let snapshot = metrics.snapshot();
        let (group_prime, generator, offset) = scan.plan.permutation();
        let mut metadata = ScanMetadata {
            version: env!("CARGO_PKG_VERSION").to_string(),
            config: ConfigEcho::from_config(&scan.cfg),
            permutation: PermutationEcho {
                group_prime,
                generator,
                offset,
            },
            counters,
            duration_ns: rel,
            histograms: BTreeMap::new(),
            trace: TraceSnapshot::default(),
            rtt_sample_one_in: 0,
        };
        metadata.attach_metrics(snapshot.clone());
        ScanSummary {
            sent: counters.sent,
            targets_total: counters.targets_total,
            responses_validated: counters.responses_validated,
            responses_discarded: counters.responses_discarded,
            duplicates_suppressed: counters.duplicates_suppressed,
            unique_successes: counters.unique_successes,
            unique_failures: counters.unique_failures,
            send_retries: counters.send_retries,
            sendto_failures: counters.sendto_failures,
            responses_corrupted: counters.responses_corrupted,
            checkpoints_written: counters.checkpoints_written,
            resume_count: counters.resume_count,
            watchdog_stalls: counters.watchdog_stalls,
            shutdown_clean: counters.shutdown_clean,
            killed: exit == Exit::Killed,
            duration_ns: rel,
            results: Vec::new(),
            status: self.monitor.samples().to_vec(),
            metadata,
            metrics: snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProbeKind;
    use crate::output::Classification;
    use crate::transport::SimNet;
    use std::net::Ipv4Addr;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{ServiceModel, WorldConfig};

    fn dense_net(ports: &[u16]) -> SimNet {
        SimNet::new(WorldConfig {
            model: ServiceModel::dense(ports),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        })
    }

    fn base_cfg(net_ports: &[u16]) -> ScanConfig {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
        cfg.allowlist_prefix(Ipv4Addr::new(10, 10, 10, 0), 24);
        cfg.apply_default_blocklist = false; // 10/8 is in the default list
        cfg.ports = net_ports.to_vec();
        cfg.rate_pps = 1_000_000;
        cfg.cooldown_secs = 2;
        cfg
    }

    fn scan(net: &SimNet, cfg: ScanConfig) -> ScanSummary {
        Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9))).unwrap().run()
    }

    #[test]
    fn dense_scan_finds_everything() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let s = scan(&net, cfg);
        assert_eq!(s.sent, 256);
        assert_eq!(s.unique_successes, 256);
        assert_eq!(s.duplicates_suppressed, 0);
        assert_eq!(s.responses_discarded, 0);
        assert!((s.hitrate() - 1.0).abs() < 1e-9);
        assert_eq!(s.results.len(), 256);
        // Every result is a distinct IP in the scanned /24.
        let mut ips: Vec<_> = s.results.iter().map(|r| r.saddr).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 256);
        assert!(ips.iter().all(|ip| match ip {
            IpAddr::V4(v4) => v4.octets()[..3] == [10, 10, 10],
            IpAddr::V6(_) => false,
        }));
    }

    #[test]
    fn multiport_scan_counts_targets_not_hosts() {
        let net = dense_net(&[80, 443]);
        let cfg = base_cfg(&[80, 443]);
        let s = scan(&net, cfg);
        assert_eq!(s.sent, 512);
        assert_eq!(s.unique_successes, 512);
        // Results carry both ports.
        assert!(s.results.iter().any(|r| r.sport == 80));
        assert!(s.results.iter().any(|r| r.sport == 443));
    }

    #[test]
    fn closed_ports_are_failures_not_successes() {
        let net = dense_net(&[80]); // only 80 open
        let mut cfg = base_cfg(&[81]);
        cfg.report_failures = true;
        let s = scan(&net, cfg);
        assert_eq!(s.unique_successes, 0);
        assert_eq!(s.unique_failures, 256, "dense world RSTs on closed");
        assert_eq!(s.results.len(), 256);
        assert!(s.results.iter().all(|r| r.classification == Classification::Rst));
    }

    #[test]
    fn failures_hidden_by_default() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[81]);
        let s = scan(&net, cfg);
        assert!(s.results.is_empty());
        assert_eq!(s.unique_failures, 256);
    }

    #[test]
    fn max_targets_caps_probes() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.max_targets = 10;
        let s = scan(&net, cfg);
        assert!(s.sent <= 11, "sent {}", s.sent);
    }

    #[test]
    fn max_results_stops_early() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.max_results = 5;
        // Slow rate so responses arrive while still sending, and a small
        // batch so the cap is checked often enough to stop mid-/24.
        cfg.rate_pps = 1_000;
        cfg.batch = 8;
        let s = scan(&net, cfg);
        assert!(s.unique_successes >= 5);
        assert!(s.sent < 256, "must stop before the whole /24: {}", s.sent);
    }

    #[test]
    fn full_bitmap_dedup_rejects_multi_port_scans() {
        let net = dense_net(&[80, 443]);
        let mut cfg = base_cfg(&[80, 443]);
        cfg.dedup = DedupMethod::FullBitmap;
        let err = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .err()
            .expect("bitmap cannot key (ip, port) pairs");
        assert!(matches!(err, BuildError::Config(_)), "{err}");
        assert!(err.to_string().contains("full-bitmap"), "{err}");
    }

    #[test]
    fn full_bitmap_dedup_works_single_port() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.dedup = DedupMethod::FullBitmap;
        let s = scan(&net, cfg);
        assert_eq!(s.unique_successes, 256);
    }

    #[test]
    fn oversized_udp_payload_rejected_at_setup() {
        let net = dense_net(&[53]);
        let mut cfg = base_cfg(&[53]);
        cfg.probe = ProbeKind::Udp(vec![0u8; 70_000]);
        let err = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .err()
            .expect("payload cannot fit one packet");
        assert!(matches!(err, BuildError::Config(_)), "{err}");
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let run = |batch: usize| {
            let net = dense_net(&[80]);
            let mut cfg = base_cfg(&[80]);
            cfg.batch = batch;
            scan(&net, cfg)
        };
        let one = run(1);
        let dflt = run(64);
        let odd = run(7); // /24 is not a multiple: final partial batch
        assert_eq!(one.results, dflt.results, "batching is invisible in output");
        assert_eq!(one.results, odd.results);
        assert_eq!(one.sent, 256);
        assert_eq!(dflt.sent, 256);
        assert_eq!(odd.sent, 256);
    }

    #[test]
    fn icmp_echo_scan() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.probe = ProbeKind::IcmpEcho;
        let s = scan(&net, cfg);
        assert_eq!(s.sent, 256, "one echo per host regardless of ports");
        assert_eq!(s.unique_successes, 256);
        assert!(s
            .results
            .iter()
            .all(|r| r.classification == Classification::EchoReply && r.sport == 0));
    }

    #[test]
    fn udp_scan() {
        let net = dense_net(&[53]);
        let mut cfg = base_cfg(&[53]);
        cfg.probe = ProbeKind::Udp(b"probe".to_vec());
        let s = scan(&net, cfg);
        assert_eq!(s.unique_successes, 256);
        assert!(s.results.iter().all(|r| r.classification == Classification::UdpData));
    }

    #[test]
    fn blowback_is_deduplicated() {
        let mut model = ServiceModel::dense(&[80]);
        model.blowback_fraction = 1.0;
        model.blowback_max = 50;
        let net = SimNet::new(WorldConfig {
            model,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        });
        let mut cfg = base_cfg(&[80]);
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 400; // long enough for the duplicate tail
        let s = scan(&net, cfg);
        assert_eq!(s.unique_successes, 256, "dups must not inflate successes");
        assert!(
            s.duplicates_suppressed > 1000,
            "blowback should produce heavy duplication: {}",
            s.duplicates_suppressed
        );
        assert_eq!(s.results.len(), 256);
    }

    #[test]
    fn forged_unreachable_does_not_hide_the_host_behind_it() {
        // An off-path sender who knows the scanner's address races a
        // forged host-unreachable for 10.10.10.5:80 ahead of that host's
        // genuine SYN-ACK. The forgery quotes a structurally perfect
        // probe (another key's), so only the cookie tells it apart. It
        // must not become a failure row — and, by entering the dedup
        // window first, must not get the real answer suppressed.
        use crate::transport::LoopbackTransport;
        use zmap_wire::icmp::UnreachCode;
        use zmap_wire::{
            EtherType, EthernetRepr, IcmpRepr, IcmpType, IpProtocol, Ipv4Repr, MacAddr,
            ProbeBuilder, TcpFlags, TcpRepr, TcpView,
        };
        let mut cfg = base_cfg(&[80]);
        cfg.report_failures = true;
        let (scanner, host) = (cfg.source_ip, Ipv4Addr::new(10, 10, 10, 5));
        let reply = |from: Ipv4Addr, protocol, l4_len: usize| {
            let mut f = Vec::new();
            let (dst, src) = (MacAddr::local(1), MacAddr::local(2));
            EthernetRepr { dst, src, ethertype: EtherType::Ipv4 }.emit(&mut f);
            Ipv4Repr { src: from, dst: scanner, protocol, id: 7, ttl: 60, payload_len: l4_len as u16 }
                .emit(&mut f)
                .unwrap();
            f
        };
        let foreign = ProbeBuilder::new(scanner, cfg.seed ^ 1).tcp_syn(host, 80, 0);
        let mut forged = reply(Ipv4Addr::new(10, 0, 0, 1), IpProtocol::Icmp, 8 + 28);
        IcmpRepr { icmp_type: IcmpType::DestUnreachable(UnreachCode::Host), id: 0, seq: 0 }
            .emit(&foreign[14..14 + 28], &mut forged);

        let probe = ProbeBuilder::new(scanner, cfg.seed).tcp_syn(host, 80, 0);
        let syn = TcpView::parse(&probe[14 + 20..]).unwrap();
        let tcp = TcpRepr {
            src_port: 80,
            dst_port: syn.src_port(),
            seq: 1,
            ack: syn.seq().wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: 1000,
            options: &[],
        };
        let mut synack = reply(host, IpProtocol::Tcp, tcp.header_len());
        let pseudo = zmap_wire::checksum::pseudo_header(host.into(), scanner.into(), 6, 20);
        tcp.emit(pseudo, &[], &mut synack);

        let mut transport = LoopbackTransport::default();
        transport.inbox = vec![(1_000, forged), (2_000, synack)];
        let s = Scanner::new(cfg, transport).unwrap().run();
        assert_eq!((s.unique_successes, s.unique_failures), (1, 0));
        assert_eq!((s.responses_discarded, s.duplicates_suppressed), (1, 0));
        assert_eq!(s.results.len(), 1);
        assert_eq!(s.results[0].saddr, IpAddr::V4(host));
        assert_eq!(s.results[0].classification, Classification::SynAck);
    }

    #[test]
    fn without_dedup_duplicates_pollute_output() {
        let mut model = ServiceModel::dense(&[80]);
        model.blowback_fraction = 1.0;
        model.blowback_max = 50;
        let net = SimNet::new(WorldConfig {
            model,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        });
        let mut cfg = base_cfg(&[80]);
        cfg.rate_pps = 100_000;
        cfg.cooldown_secs = 400;
        cfg.dedup = DedupMethod::None;
        let s = scan(&net, cfg);
        assert!(
            s.unique_successes > 1000,
            "no dedup: every duplicate counts ({})",
            s.unique_successes
        );
    }

    #[test]
    fn rate_controls_virtual_duration() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.rate_pps = 256; // exactly 1 second of sending for a /24
        cfg.cooldown_secs = 1;
        let s = scan(&net, cfg);
        // ~1 s sending + 1 s cooldown.
        assert!(s.duration_ns >= 1_900_000_000, "{}", s.duration_ns);
        assert!(s.duration_ns < 3_000_000_000, "{}", s.duration_ns);
        assert!(!s.status.is_empty(), "status stream populated");
    }

    #[test]
    fn sharded_scans_partition_results() {
        let mut all = std::collections::HashSet::new();
        let mut total_sent = 0;
        for shard in 0..3u32 {
            let net = dense_net(&[80]);
            let mut cfg = base_cfg(&[80]);
            cfg.shard = shard;
            cfg.num_shards = 3;
            cfg.subshards = 2;
            let s = scan(&net, cfg);
            total_sent += s.sent;
            for r in &s.results {
                assert!(all.insert((r.saddr, r.sport)), "{} duplicated", r.saddr);
            }
        }
        assert_eq!(total_sent, 256);
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn metadata_captures_permutation() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let s = scan(&net, cfg);
        let json = s.metadata.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["counters"]["sent"], 256);
        assert!(v["permutation"]["generator"].as_u64().unwrap() > 1);
        assert_eq!(v["config"]["source_ip"], "192.0.2.9");
    }

    #[test]
    fn same_seed_same_results_different_seed_different_order() {
        let run = |seed| {
            let net = dense_net(&[80]);
            let mut cfg = base_cfg(&[80]);
            cfg.seed = seed;
            scan(&net, cfg)
        };
        let a = run(1);
        let b = run(1);
        let c = run(2);
        let order = |s: &ScanSummary| s.results.iter().map(|r| r.saddr).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&b), "determinism");
        assert_ne!(order(&a), order(&c), "seed changes order");
        assert_eq!(a.unique_successes, c.unique_successes, "same coverage");
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("zmap-scanner-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn checkpointing_does_not_perturb_the_walk() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let path = temp_journal("plain-equivalence.ckpt");
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path)),
                ..Default::default()
            });
        let net2 = dense_net(&[80]);
        let p = scan(&net2, base_cfg(&[80]));
        let order = |s: &ScanSummary| s.results.iter().map(|r| r.saddr).collect::<Vec<_>>();
        assert_eq!(order(&s), order(&p), "checkpointing must not perturb the walk");
    }

    /// The resume gates are written once (`PreparedScan::resume`), so one
    /// test covers what `resume_refuses_foreign_config`,
    /// `resume_names_both_specs_on_a_shard_mismatch` and the threaded
    /// engine's own foreign-config refusal test covered per engine. Migrating a journal onto the wrong shard of the *same* scan
    /// is a distinct, precisely-worded refusal — not the opaque digest
    /// mismatch a foreign config gets — so a supervisor can tell a bad
    /// migration from a corrupted or unrelated journal.
    #[test]
    fn resume_gates_tell_a_wrong_slice_from_a_foreign_config() {
        let path = temp_journal("resume-gates.ckpt");
        let sliced = |shard, seed| {
            let mut cfg = base_cfg(&[80]);
            (cfg.shard, cfg.num_shards, cfg.seed) = (shard, 4, seed);
            cfg
        };
        let net = dense_net(&[80]);
        let s = Scanner::new(sliced(1, 0), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path)),
                ..Default::default()
            });
        assert_eq!(s.shutdown_clean, 1);
        let journal = CheckpointState::load(&path).unwrap();
        let resume = |cfg| PreparedScan::resume(cfg, &journal, Logger::null()).err();
        assert!(resume(sliced(1, 0)).is_none(), "the scan that wrote it resumes");

        // Same scan, wrong slice: everything matches but the shard index.
        match resume(sliced(2, 0)) {
            Some(ResumeError::ShardSpec { journal: j, config: c }) => {
                assert_eq!((j, c), ((1, 4, 1), (2, 4, 1)));
                let msg = ResumeError::ShardSpec { journal: j, config: c }.to_string();
                assert!(msg.contains("shard 1/4") && msg.contains("shard 2/4"), "{msg}");
            }
            other => panic!("expected ShardSpec, got {:?}", other.map(|e| e.to_string())),
        }
        // A config that differs beyond the slice stays a digest mismatch,
        // on the right slice or the wrong one: the distinct error must
        // not hide a genuinely foreign journal.
        for shard in [1, 2] {
            assert!(matches!(
                resume(sliced(shard, 999)),
                Some(ResumeError::Journal(JournalError::ConfigMismatch { .. }))
            ));
        }
    }

    /// The one retry loop: exponential backoff, and a refusal delays the
    /// frames queued behind it — in this batch and the lane's next one.
    #[test]
    fn flush_backs_off_exponentially_and_delays_the_frames_behind() {
        let mut t = crate::transport::LoopbackTransport::default();
        // Send attempts 1–3 (frame 1 and its two retries) and 5–7 (frame
        // 3 likewise) are refused; the budget is two retries.
        t.fail_attempts = vec![1, 2, 3, 5, 6, 7];
        let metrics = ScanMetrics::new(1, Counters::default());
        let mut batch = FrameBatch::new(4);
        for i in 0..4u64 {
            batch.slot(i * 10_000, i).push(i as u8);
        }
        let mut lane_clock = 0;
        flush(&mut t, &mut batch, &mut lane_clock, 2, &metrics, 0).unwrap();
        // Frame 1 (slot 10 µs) is retried 50 µs and then 100 µs later and
        // abandoned; frame 2 (slot 20 µs) leaves behind that backoff.
        let sent: Vec<(u64, u8)> = t.sent.iter().map(|(at, f)| (*at, f[0])).collect();
        assert_eq!(sent, vec![(0, 0), (160_000, 2)]);
        let c = metrics.counters();
        assert_eq!((c.sent, c.send_retries, c.sendto_failures), (2, 4, 2));
        assert_eq!(lane_clock, 310_000, "the lane's next batch starts behind the backoff");
        batch.clear();
        batch.slot(40_000, 4).push(4);
        flush(&mut t, &mut batch, &mut lane_clock, 2, &metrics, 0).unwrap();
        assert_eq!(t.sent.last().map(|(at, _)| *at), Some(310_000));
    }

}
