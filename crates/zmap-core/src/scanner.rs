//! The scan engine: target walk → paced probes → validated, deduplicated,
//! classified results.

use crate::checkpoint::{config_digest, CheckpointPolicy, CheckpointState, JournalError};
use crate::config::{DedupMethod, ScanConfig};
use crate::log::{Level, Logger};
use crate::metadata::{ConfigEcho, Counters, PermutationEcho, ScanMetadata};
use crate::metrics::{CounterId, HistId, ScanMetrics};
use crate::monitor::{Monitor, StatusUpdate};
use crate::output::{RowSink, ScanResult};
use crate::plan::{ProbeModule, ScanPlan};
use crate::ratecontrol::RateController;
use crate::shutdown::ShutdownToken;
use crate::transport::{FrameBatch, Transport};
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
    /// Supervisor interventions (threaded engine; always 0 here).
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
    /// and the RTT-tracker overflow count (also folded into `metadata`).
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

/// Optional run-time machinery for [`Scanner::run_with`]. `Default` is a
/// plain uninstrumented run.
#[derive(Debug)]
pub struct RunOptions {
    /// Write an initial, periodic (virtual-time interval), and final
    /// checkpoint journal to this policy's path.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative shutdown: once requested, sending stops at the next
    /// cycle boundary and the scan proceeds straight through cooldown to
    /// an orderly exit (all four streams flushed, final checkpoint).
    pub shutdown: Option<ShutdownToken>,
    /// Consecutive cooldown-drain polls with a frozen progress signature
    /// (virtual clock, pending-RX timestamp, RX counters) tolerated
    /// before the drain watchdog declares the transport stalled, records
    /// a `watchdog_stalls` intervention, and abandons the wait. Without
    /// it, a transport whose clock stops advancing pins the drain loop
    /// forever. The supervisor converts `--watchdog-secs` into this.
    pub watchdog_poll_limit: u64,
    /// Schedule-aligned resume: re-enter the global rate schedule at the
    /// slot the rewound walk position corresponds to, so a replayed
    /// probe departs at exactly the virtual time its uninterrupted twin
    /// would have. Exact for single-subshard scans (the supervisor's
    /// worker shape); `false` (the default) keeps the historical resume
    /// pacing, which restarts the schedule from the transport's clock.
    pub align_resume: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            checkpoint: None,
            shutdown: None,
            watchdog_poll_limit: crate::parallel::DEFAULT_WATCHDOG_POLL_LIMIT,
            align_resume: false,
        }
    }
}

/// Why [`Scanner::resume`] refused to build.
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
    /// rejected at plan build).
    fn observe(&mut self, ip: IpAddr, key: u64) -> bool {
        match self {
            DedupState::None => true,
            // The bitmap indexes bare 32-bit addresses, so it is only
            // selected for single-port v4 scans (enforced at assemble /
            // plan build); feeding it a (ip, port) composite would
            // silently truncate.
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

/// The scanner engine. Generic over [`Transport`].
pub struct Scanner<T: Transport> {
    cfg: ScanConfig,
    transport: T,
    module: ProbeModule,
    gen: ScanPlan,
    logger: Logger,
    rng: StdRng,
    /// Counters carried over from the journal when resuming (so metadata
    /// reports the cumulative truth across attempts); zero for fresh runs.
    baseline: Counters,
    /// Per-subshard element positions to fast-forward to before sending
    /// (already rewound by the in-flight grace window); `None` fresh.
    start_positions: Option<Vec<u64>>,
}

impl<T: Transport> Scanner<T> {
    /// Validates the configuration and prepares the permutation.
    pub fn new(cfg: ScanConfig, transport: T) -> Result<Self, BuildError> {
        Self::with_logger(cfg, transport, Logger::null())
    }

    /// Like [`new`](Self::new) with an explicit logger (stream #2).
    pub fn with_logger(
        cfg: ScanConfig,
        transport: T,
        logger: Logger,
    ) -> Result<Self, BuildError> {
        Self::assemble(cfg, transport, logger, None)
    }

    /// Rebuilds a scanner from a checkpoint journal: the cyclic-group walk
    /// is reconstructed from the journal's recorded parts (not re-derived
    /// from the seed), per-subshard positions are rewound by the in-flight
    /// grace window, and the journal's counters become the baseline so the
    /// resumed run's metadata is cumulative across attempts.
    ///
    /// Refuses a journal whose config digest does not match `cfg` — a
    /// journal only resumes the exact scan that wrote it.
    pub fn resume(
        cfg: ScanConfig,
        transport: T,
        journal: &CheckpointState,
    ) -> Result<Self, ResumeError> {
        Self::resume_with_logger(cfg, transport, journal, Logger::null())
    }

    /// Like [`resume`](Self::resume) with an explicit logger.
    pub fn resume_with_logger(
        cfg: ScanConfig,
        transport: T,
        journal: &CheckpointState,
        logger: Logger,
    ) -> Result<Self, ResumeError> {
        check_shard_spec(journal, &cfg)?;
        journal.check_config(&cfg).map_err(ResumeError::Journal)?;
        let mut scanner = Self::assemble(
            cfg,
            transport,
            logger,
            Some((journal.generator, journal.offset)),
        )
        .map_err(ResumeError::Build)?;
        if scanner.gen.permutation().0 != journal.group_prime {
            // The digest already covers the target space, so this only
            // trips on a corrupted-yet-checksum-valid journal; belt and
            // braces before walking the wrong group. For v6 the prime
            // slot carries the walk-plan fingerprint, so this also
            // catches a journal written against a different prefix list.
            return Err(ResumeError::Journal(JournalError::Malformed(
                "journal group prime does not match the configured target space".into(),
            )));
        }
        let mut baseline = journal.counters;
        baseline.resume_count += 1;
        baseline.shutdown_clean = 0;
        let positions = journal.rewound_positions(scanner.cfg.rate_pps);
        scanner.logger.info(format_args!(
            "resuming scan (attempt {}): {} probes sent so far, rewinding to positions {:?}",
            baseline.resume_count + 1,
            baseline.sent,
            positions,
        ));
        scanner.baseline = baseline;
        scanner.start_positions = Some(positions);
        Ok(scanner)
    }

    fn assemble(
        cfg: ScanConfig,
        transport: T,
        logger: Logger,
        cycle_parts: Option<(u64, u64)>,
    ) -> Result<Self, BuildError> {
        // In v6 mode the journaled cycle parts are ignored: the walk plan
        // is a pure function of (prefix list, ports, seed) and the resume
        // gate compares its fingerprint instead.
        let gen = ScanPlan::build(&cfg, cycle_parts)?;
        let module = ProbeModule::build(&cfg)?;
        let (prime, generator, _) = gen.permutation();
        logger.info(format_args!(
            "scan configured: {} targets in shard {}/{}, group p={}, generator={}",
            gen.target_count(),
            cfg.shard,
            cfg.num_shards,
            prime,
            generator,
        ));
        Ok(Scanner {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x005E_ED1D),
            cfg,
            transport,
            module,
            gen,
            logger,
            baseline: Counters::default(),
            start_positions: None,
        })
    }

    /// The v4 target generator (inspectable before running); `None` in
    /// IPv6 mode — use [`plan`](Self::plan) for the family-generic view.
    pub fn generator(&self) -> Option<&TargetGenerator> {
        match &self.gen {
            ScanPlan::V4(gen) => Some(gen),
            ScanPlan::V6(_) => None,
        }
    }

    /// The address-family plan (inspectable before running).
    pub fn plan(&self) -> &ScanPlan {
        &self.gen
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &ScanConfig {
        &self.cfg
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
    pub fn run_into(self, opts: RunOptions, rows: &mut dyn RowSink) -> ScanSummary {
        let RunOptions {
            checkpoint,
            shutdown,
            watchdog_poll_limit,
            align_resume,
        } = opts;
        let Scanner {
            cfg,
            mut transport,
            module,
            gen,
            logger,
            mut rng,
            baseline,
            start_positions,
        } = self;
        let start = transport.now();
        let mut rc = RateController::new(start, cfg.rate_pps);
        let mut monitor = Monitor::new();
        let metrics = ScanMetrics::new(1, baseline);
        let mut rx = RxPath::new(&cfg, &gen, &module, &logger, &metrics, start, rows);
        let ckpt = checkpoint
            .as_ref()
            .map(|policy| Checkpointer::new(policy, &cfg, &gen, &metrics, &logger));

        // Shard-local target count (exact only for the whole scan; for a
        // shard we estimate as total/shards for progress display).
        let whole = gen.target_count();
        let shard_targets = if cfg.max_targets > 0 {
            cfg.max_targets
        } else {
            whole / u64::from(cfg.num_shards.max(1))
        };

        // Interleave subshard iterators round-robin: this reproduces the
        // temporal mixing of ZMap's concurrent send threads while staying
        // deterministic.
        let subshards = cfg.subshards.max(1);
        let mut iters: Vec<_> = (0..subshards)
            .map(|t| gen.iter_shard(cfg.shard, t))
            .collect();
        if let Some(positions) = &start_positions {
            for (it, &p) in iters.iter_mut().zip(positions.iter()) {
                it.fast_forward_elements(p);
            }
            if align_resume {
                // Schedule-aligned resume: the first replayed probe must
                // depart at the slot its uninterrupted twin occupied, not
                // at slot 0 of a restarted schedule. Count the targets
                // the walk accepted before each rewound position with a
                // throwaway iterator — an accept that lands past the
                // position is the resumed stream's first yield, so it is
                // not counted — then skip the schedule that many slots.
                let mut replayed = 0u64;
                for (t, &p) in positions.iter().enumerate() {
                    let mut probe_iter = gen.iter_shard(cfg.shard, t as u32);
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
                let slots = replayed * u64::from(cfg.probes_per_target.max(1));
                rc.fast_forward(slots);
                metrics.trace(0, "resume_align", slots);
            }
        }
        let mut live: Vec<usize> = (0..iters.len()).collect();
        let mut next = 0usize;
        let mut done = false;
        let mut killed = false;
        let mut interrupted = false;
        let mut stalled = false;
        let mut last_ckpt_at = 0u64;

        metrics.trace(0, "scan_start", shard_targets);
        if start_positions.is_some() {
            metrics.trace(0, "resume_rewind", baseline.resume_count);
        }

        // An initial journal before the first probe: a kill at any point
        // after this — even probe #1 — leaves something to resume from.
        if let Some(ckpt) = &ckpt {
            ckpt.write(
                iters.iter().map(|it| it.elements_consumed()).collect(),
                0,
                false,
            );
        }

        // The TX hot path: each probe is rendered from the per-scan
        // template straight into its slot of a reusable frame pool as it
        // is paced, and the pool is flushed through one batched transport
        // call per `cfg.batch` targets — ZMap's packet template plus
        // sendmmsg shape. After the first batch fills, the loop performs
        // zero allocations per probe.
        let mut batch = FrameBatch::new(cfg.batch.max(1));
        // Local mirror of the TargetsTotal counter (which includes any
        // resume baseline): the hot loop reads it once per target, and a
        // registry read walks every counter shard.
        let mut targets_total = metrics.get(CounterId::TargetsTotal);
        'scan: while !done {
            if shutdown.as_ref().is_some_and(|t| t.is_requested()) {
                interrupted = true;
                metrics.trace(
                    transport.now().saturating_sub(start),
                    "shutdown_requested",
                    0,
                );
                logger.info(format_args!(
                    "shutdown requested; stopping sends at cycle boundary"
                ));
                break 'scan;
            }
            if cfg.max_targets > 0 && targets_total >= cfg.max_targets {
                break;
            }
            // Pick the next target, rotating across subshards.
            let target = loop {
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
            };
            let Some((ip, port)) = target else {
                break;
            };
            metrics.add(CounterId::TargetsTotal, 1);
            targets_total += 1;

            // TX-side keys never fail — the walk only yields in-space
            // targets — but degrade to no RTT stamp rather than panic.
            let rtt_key = gen.probe_key(ip, port).ok();
            for _ in 0..cfg.probes_per_target.max(1) {
                let at = rc.mark_sent();
                let entropy: u16 = rng.gen();
                // Tag each frame with the target count including its own
                // target, so a mid-batch kill can roll the count back to
                // exactly the targets whose probes were in flight.
                module.render_into(ip, port, entropy, batch.reserve(at, targets_total));
                // Stamp the scheduled send time for RTT measurement;
                // retransmits to the same target keep the first stamp.
                if let Some(key) = rtt_key {
                    metrics.note_probe(key, at);
                }
            }
            if !batch.is_full() {
                continue;
            }

            match flush_batch(&mut transport, &batch, cfg.max_retries, &metrics) {
                FlushStatus::Killed { targets_in_flight } => {
                    metrics.store_absolute(CounterId::TargetsTotal, targets_in_flight);
                    killed = true;
                    break 'scan;
                }
                FlushStatus::Flushed => {}
            }
            batch.clear();

            drain_rx(&mut transport, &mut rx);
            monitor.observe(
                transport.now().saturating_sub(start),
                &metrics,
                shard_targets * u64::from(cfg.probes_per_target.max(1)),
            );

            // Periodic snapshot on a virtual-time interval, at a cycle
            // boundary (never mid-target, so positions are consistent).
            if let Some(ckpt) = &ckpt {
                let rel = transport.now().saturating_sub(start);
                if rel.saturating_sub(last_ckpt_at) >= ckpt.policy.interval_ns {
                    ckpt.write(
                        iters.iter().map(|it| it.elements_consumed()).collect(),
                        rel,
                        false,
                    );
                    last_ckpt_at = rel;
                }
            }

            if cfg.max_results > 0 && metrics.get(CounterId::UniqueSuccesses) >= cfg.max_results
            {
                logger.info(format_args!(
                    "max-results {} reached; entering cooldown",
                    cfg.max_results
                ));
                done = true;
            }
        }
        // Flush whatever is still queued: the walk ended (exhausted, shard
        // cap, max-results, or shutdown request) with a partial batch whose
        // targets are already counted, so their probes must still leave.
        if !killed && !batch.is_empty() {
            match flush_batch(&mut transport, &batch, cfg.max_retries, &metrics) {
                FlushStatus::Killed { targets_in_flight } => {
                    metrics.store_absolute(CounterId::TargetsTotal, targets_in_flight);
                    killed = true;
                }
                FlushStatus::Flushed => {}
            }
            batch.clear();
        }
        if !killed {
            metrics.trace(
                transport.now().saturating_sub(start),
                "send_phase_end",
                metrics.get(CounterId::Sent),
            );
        }
        // Cooldown: drain stragglers for cooldown_secs of virtual time.
        // A scheduled kill can still land here — on the receive path —
        // so poll the transport's death flag between drains.
        if !killed {
            let cooldown_entered = transport.now();
            metrics.trace(cooldown_entered.saturating_sub(start), "cooldown_start", 0);
            let cooldown_end = cooldown_entered + cfg.cooldown_secs * 1_000_000_000;
            let mut last_drain = cooldown_entered;
            // Drain watchdog: a transport whose clock refuses to advance
            // (a wedged NIC thread, a stalled shared-clock peer) leaves
            // `next_rx_at` pending forever and would pin this loop. Track
            // a progress signature — clock, pending-RX time, RX counters —
            // and once it freezes for `watchdog_poll_limit` consecutive
            // polls, record the intervention and abandon the wait. The
            // interrupted flag keeps the final journal resumable, so a
            // supervisor can migrate the stalled attempt.
            let mut signature = (0u64, None, 0u64);
            let mut frozen_polls = 0u64;
            loop {
                if transport.killed() {
                    killed = true;
                    break;
                }
                let pending = transport.next_rx_at();
                let rx_seen = metrics.get(CounterId::ResponsesValidated)
                    + metrics.get(CounterId::ResponsesDiscarded)
                    + metrics.get(CounterId::ResponsesCorrupted)
                    + metrics.get(CounterId::DuplicatesSuppressed);
                let sig = (transport.now(), pending, rx_seen);
                if sig == signature {
                    frozen_polls += 1;
                    if frozen_polls >= watchdog_poll_limit {
                        metrics.add(CounterId::WatchdogStalls, 1);
                        metrics.trace(
                            transport.now().saturating_sub(start),
                            "watchdog_stall",
                            frozen_polls,
                        );
                        logger.warn(format_args!(
                            "drain watchdog: no progress across {frozen_polls} polls; \
                             abandoning cooldown wait"
                        ));
                        stalled = true;
                        interrupted = true;
                        break;
                    }
                } else {
                    signature = sig;
                    frozen_polls = 0;
                }
                match pending {
                    Some(t) if t <= cooldown_end => {
                        transport.advance_to(t);
                        drain_rx(&mut transport, &mut rx);
                        last_drain = t;
                    }
                    _ => break,
                }
            }
            if !killed && !stalled {
                transport.advance_to(cooldown_end);
                drain_rx(&mut transport, &mut rx);
                killed = transport.killed();
            }
            if !killed && !stalled {
                let drained = last_drain.saturating_sub(cooldown_entered);
                metrics.record(HistId::CooldownDrain, drained);
                metrics.trace(cooldown_end.saturating_sub(start), "cooldown_end", drained);
            }
        }

        if !killed {
            // Orderly exit: mark it, write the final journal (complete
            // unless a shutdown token interrupted the walk), then emit
            // the closing status sample and log line — so every stream
            // reflects the clean shutdown. A watchdog stall is neither
            // orderly nor journaled: the worker was wedged, its walk
            // positions are untrustworthy (sends may have been swallowed
            // by the stalled transport), so the last periodic journal —
            // written while the clock still advanced — stays the resume
            // point for a supervisor migration.
            if !stalled {
                metrics.add(CounterId::ShutdownClean, 1);
            }
            if let Some(ckpt) = ckpt.as_ref().filter(|_| !stalled) {
                let rel = transport.now().saturating_sub(start);
                ckpt.write(
                    iters.iter().map(|it| it.elements_consumed()).collect(),
                    rel,
                    !interrupted,
                );
            }
            // Final status samples covering the cooldown (so the stream
            // ends at 100% complete — a zero-sent scan reports 100% via
            // the zero-denominator guard, never NaN or a stuck 0%).
            monitor.observe(
                transport.now().saturating_sub(start),
                &metrics,
                metrics.get(CounterId::Sent),
            );
            let c = metrics.counters();
            metrics.trace(
                transport.now().saturating_sub(start),
                "scan_complete",
                c.unique_successes,
            );
            logger.info(format_args!(
                "scan {}: {} sent, {} validated, {} unique successes, {:.4}% hitrate",
                if interrupted { "interrupted (clean shutdown)" } else { "complete" },
                c.sent,
                c.responses_validated,
                c.unique_successes,
                if c.targets_total == 0 {
                    0.0
                } else {
                    100.0 * c.unique_successes as f64 / c.targets_total as f64
                }
            ));
        } else {
            metrics.trace(transport.now().saturating_sub(start), "killed", 0);
        }
        // A killed process writes nothing more: no final checkpoint, no
        // closing status sample, no completion log line. The summary
        // below is what a post-mortem harness recovers, with
        // `shutdown_clean` still 0.

        let duration_ns = transport.now() - start;
        summarize(
            &cfg,
            gen.permutation(),
            &metrics,
            &monitor,
            Vec::new(),
            killed,
            duration_ns,
        )
    }
}

/// The one exit of both engines: folds the registry, the status samples
/// and the collected records (none when they were streamed to a sink)
/// into the metadata document (stream #4) and the summary.
pub(crate) fn summarize(
    cfg: &ScanConfig,
    permutation: (u64, u64, u64),
    metrics: &ScanMetrics,
    monitor: &Monitor,
    results: Vec<ScanResult>,
    killed: bool,
    duration_ns: u64,
) -> ScanSummary {
    let counters = metrics.counters();
    let snapshot = metrics.snapshot();
    let (group_prime, generator, offset) = permutation;
    let mut metadata = ScanMetadata {
        version: env!("CARGO_PKG_VERSION").to_string(),
        config: ConfigEcho::from_config(cfg),
        permutation: PermutationEcho {
            group_prime,
            generator,
            offset,
        },
        counters,
        duration_ns,
        histograms: BTreeMap::new(),
        trace: TraceSnapshot::default(),
        inflight_overflow: 0,
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
        killed,
        duration_ns,
        results,
        status: monitor.samples().to_vec(),
        metadata,
        metrics: snapshot,
    }
}

/// Shard-spec gate ahead of the digest check. The config digest covers
/// the shard spec, so a journal migrated onto the wrong worker slice
/// would otherwise surface as an opaque digest mismatch; this
/// distinguishes "same scan, wrong slice" (everything agrees once the
/// journal's spec is substituted into the offered config) from a truly
/// foreign config, which falls through to the digest check.
pub(crate) fn check_shard_spec(
    journal: &CheckpointState,
    cfg: &ScanConfig,
) -> Result<(), ResumeError> {
    let config = (cfg.shard, cfg.num_shards.max(1), cfg.subshards.max(1));
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

/// A scan's checkpoint writer: the journal identity (policy, config
/// digest, walk parameters) and the books it reads and commits to (the
/// metrics registry, the logger), bound once per run so the engines'
/// checkpoint sites say only what varies — positions, time, completion.
pub(crate) struct Checkpointer<'a> {
    pub(crate) policy: &'a CheckpointPolicy,
    digest: u64,
    cfg: &'a ScanConfig,
    /// The plan's `(prime, generator, offset)` triple; in v6 mode the
    /// prime slot carries the walk-plan fingerprint and generator/offset
    /// are zero (see `ScanPlan::permutation`).
    permutation: (u64, u64, u64),
    metrics: &'a ScanMetrics,
    logger: &'a Logger,
}

impl<'a> Checkpointer<'a> {
    pub(crate) fn new(
        policy: &'a CheckpointPolicy,
        cfg: &'a ScanConfig,
        plan: &ScanPlan,
        metrics: &'a ScanMetrics,
        logger: &'a Logger,
    ) -> Self {
        Checkpointer {
            policy,
            digest: config_digest(cfg),
            cfg,
            permutation: plan.permutation(),
            metrics,
            logger,
        }
    }

    /// Snapshots the walk into the journal: the registry's counters with
    /// this write already counted, committed to the registry — counter,
    /// size histogram, trace event — only once the write has landed. A
    /// failure is logged and otherwise ignored: a failed checkpoint must
    /// never take down a live scan. The journal size stands in for write
    /// latency because a wall-clock duration would not replay
    /// deterministically.
    pub(crate) fn write(&self, positions: Vec<u64>, virtual_time_ns: u64, complete: bool) {
        let mut counters = self.metrics.counters();
        counters.checkpoints_written += 1;
        let (group_prime, generator, offset) = self.permutation;
        let state = CheckpointState {
            config_digest: self.digest,
            seed: self.cfg.seed,
            group_prime,
            generator,
            offset,
            shard: self.cfg.shard,
            num_shards: self.cfg.num_shards.max(1),
            num_subshards: self.cfg.subshards.max(1),
            positions,
            dedup_high_water: counters.unique_successes + counters.unique_failures,
            virtual_time_ns,
            complete,
            counters,
        };
        let bytes = state.to_bytes().len() as u64;
        match state.write_atomic(&self.policy.path) {
            Ok(()) => {
                self.metrics.add(CounterId::CheckpointsWritten, 1);
                self.metrics.record(HistId::CheckpointWrite, bytes);
                self.metrics.trace(virtual_time_ns, "checkpoint_written", bytes);
            }
            Err(e) => self.logger.log(
                Level::Warn,
                format_args!("checkpoint write failed (scan continues): {e}"),
            ),
        }
    }
}

/// What became of one batch flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushStatus {
    /// Every frame either left the NIC or exhausted its retries.
    Flushed,
    /// The process is dead (scheduled crash) — stop everything, now.
    Killed {
        /// `targets_total` rolled back to count only the targets up to
        /// and including the frame on which the kill landed.
        targets_in_flight: u64,
    },
}

/// Flushes a frame batch through [`Transport::send_batch`], retrying each
/// transiently refused frame (EAGAIN) up to `max_retries` times with
/// exponential virtual-time backoff (50 µs, then doubling — ZMap's sendto
/// retry shape) before re-entering the batched path at the next frame.
/// Exhausted probes count as `sendto_failures` and are never re-queued: a
/// single-pass scanner treats them like any other lost probe. A
/// [`SendError::Killed`] is never retried: the process is gone and no
/// counter moves for the dead frame.
fn flush_batch<T: Transport>(
    transport: &mut T,
    batch: &FrameBatch,
    max_retries: u32,
    metrics: &ScanMetrics,
) -> FlushStatus {
    let mut idx = 0usize;
    // Retry backoff accumulated by this flush alone: the recorded flush
    // latency is the batch's paced span plus this — a batch-local value
    // that replays identically, unlike a read of a shared clock.
    let mut backoff_total = 0u64;
    while idx < batch.len() {
        let (accepted, err) = transport.send_batch(batch, idx);
        metrics.add(CounterId::Sent, accepted as u64);
        idx += accepted;
        match err {
            None => break,
            Some(SendError::Killed) => {
                return FlushStatus::Killed {
                    targets_in_flight: batch.tag(idx),
                };
            }
            Some(_) => {
                // Retry the refused frame alone; the rest of the batch
                // re-enters the batched path once it goes through.
                let (_, frame) = batch.frame(idx);
                let mut attempt = 0u32;
                loop {
                    if attempt == max_retries {
                        metrics.add(CounterId::SendtoFailures, 1);
                        idx += 1;
                        break;
                    }
                    metrics.add(CounterId::SendRetries, 1);
                    let backoff = 50_000u64 << attempt.min(10);
                    backoff_total += backoff;
                    let t = transport.now() + backoff;
                    transport.advance_to(t);
                    attempt += 1;
                    match transport.send_frame(frame) {
                        Ok(()) => {
                            metrics.add(CounterId::Sent, 1);
                            idx += 1;
                            break;
                        }
                        Err(SendError::Killed) => {
                            return FlushStatus::Killed {
                                targets_in_flight: batch.tag(idx),
                            };
                        }
                        Err(_) => {}
                    }
                }
            }
        }
    }
    metrics.record(HistId::BatchFlush, batch.span_ns() + backoff_total);
    FlushStatus::Flushed
}

/// The receive path of one scan, shared by both engines: validate the
/// frame, key it into the plan's dedup space, sample its RTT, dedup,
/// classify, and hand the record to the row sink.
pub(crate) struct RxPath<'a> {
    plan: &'a ScanPlan,
    module: &'a ProbeModule,
    dedup: DedupState,
    logger: &'a Logger,
    metrics: &'a ScanMetrics,
    /// The metrics shard owned by the receiving thread.
    shard: usize,
    report_failures: bool,
    /// Scan start on the transport clock; record timestamps are relative.
    start: u64,
    /// Takes the success records (plus failures when `report_failures`).
    rows: &'a mut dyn RowSink,
}

impl<'a> RxPath<'a> {
    pub(crate) fn new(
        cfg: &ScanConfig,
        plan: &'a ScanPlan,
        module: &'a ProbeModule,
        logger: &'a Logger,
        metrics: &'a ScanMetrics,
        start: u64,
        rows: &'a mut dyn RowSink,
    ) -> Self {
        RxPath {
            plan,
            module,
            dedup: DedupState::new(cfg.dedup),
            logger,
            metrics,
            shard: metrics.rx_shard(),
            report_failures: cfg.report_failures,
            start,
            rows,
        }
    }

    /// Processes one received frame stamped `ts` on the transport clock.
    pub(crate) fn on_frame(&mut self, ts: u64, frame: &[u8]) {
        let (metrics, shard) = (self.metrics, self.shard);
        match self.module.parse_response(frame) {
            Ok(Some(resp)) => {
                metrics.add_at(shard, CounterId::ResponsesValidated, 1);
                // Map the response into the plan's dedup index space. A
                // failure (v6 responder off its prefix's host pattern,
                // unknown port) degrades exactly this response — counted
                // and dropped — never the run.
                let key = match self.plan.probe_key(resp.ip, resp.port) {
                    Ok(key) => key,
                    Err(e) => {
                        metrics.add_at(shard, CounterId::ResponsesDiscarded, 1);
                        self.logger.log(
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
                if success || self.report_failures {
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
                self.logger
                    .log(Level::Debug, format_args!("checksum mismatch: frame dropped"));
            }
            Err(e) => {
                metrics.add_at(shard, CounterId::ResponsesDiscarded, 1);
                self.logger
                    .log(Level::Debug, format_args!("malformed frame: {e}"));
            }
        }
    }
}

/// Drains the transport's received frames through the receive path
/// (send loop and cooldown alike).
fn drain_rx<T: Transport>(transport: &mut T, rx: &mut RxPath<'_>) {
    for (ts, frame) in transport.recv_frames() {
        rx.on_frame(ts, &frame);
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

    #[test]
    fn dense_scan_finds_everything() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
        assert_eq!(s.unique_successes, 0);
        assert_eq!(s.unique_failures, 256, "dense world RSTs on closed");
        assert_eq!(s.results.len(), 256);
        assert!(s.results.iter().all(|r| r.classification == Classification::Rst));
    }

    #[test]
    fn failures_hidden_by_default() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[81]);
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
        assert!(s.results.is_empty());
        assert_eq!(s.unique_failures, 256);
    }

    #[test]
    fn max_targets_caps_probes() {
        let net = dense_net(&[80]);
        let mut cfg = base_cfg(&[80]);
        cfg.max_targets = 10;
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
            Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
                .unwrap()
                .run()
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
            options: vec![],
        };
        let mut synack = reply(host, IpProtocol::Tcp, tcp.header_len());
        let pseudo = zmap_wire::checksum::pseudo_header(host.into(), scanner.into(), 6, 20);
        tcp.emit(pseudo, &[], &mut synack);

        let mut transport = LoopbackTransport::new();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
            let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
                .unwrap()
                .run();
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
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
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
            Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
                .unwrap()
                .run()
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
    fn pre_requested_shutdown_is_clean_and_sends_nothing() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let token = ShutdownToken::new();
        token.request();
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                shutdown: Some(token),
                ..Default::default()
            });
        assert_eq!(s.sent, 0, "no probe leaves after a shutdown request");
        assert_eq!(s.shutdown_clean, 1, "interrupt is still an orderly exit");
        assert!(!s.killed);
        // All four streams remain well-formed: metadata serializes and
        // the status stream has its closing sample.
        let v: serde_json::Value = serde_json::from_str(&s.metadata.to_json()).unwrap();
        assert_eq!(v["counters"]["shutdown_clean"], 1);
        assert!(!s.status.is_empty());
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
        let p = Scanner::new(base_cfg(&[80]), net2.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
        let order = |s: &ScanSummary| s.results.iter().map(|r| r.saddr).collect::<Vec<_>>();
        assert_eq!(order(&s), order(&p), "checkpointing must not perturb the walk");
    }

    #[test]
    fn checkpoint_journal_is_written_and_marks_completion() {
        let path = temp_journal("complete.ckpt");
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path)),
                ..Default::default()
            });
        assert!(s.checkpoints_written >= 2, "initial + final at minimum");
        let j = CheckpointState::load(&path).unwrap();
        assert!(j.complete, "walk exhausted => journal marked complete");
        assert_eq!(j.counters.sent, s.sent);
        assert_eq!(j.counters.shutdown_clean, 1);
        assert_eq!(j.counters.checkpoints_written, s.checkpoints_written);
    }

    #[test]
    fn killed_scan_reports_unclean_shutdown() {
        use zmap_netsim::FaultPlan;
        let net = SimNet::new(WorldConfig {
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().kill_at(50).build(),
            ..WorldConfig::default()
        });
        let s = Scanner::new(base_cfg(&[80]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
        assert!(s.killed);
        assert_eq!(s.shutdown_clean, 0);
        assert!(s.sent < 256, "died mid-walk: {}", s.sent);
    }

    #[test]
    fn kill_then_resume_covers_the_whole_space() {
        let path = temp_journal("kill-resume.ckpt");
        let mut cfg = base_cfg(&[80]);
        cfg.rate_pps = 1_000; // slow enough that the grace rewind is small
        use zmap_netsim::FaultPlan;
        let net = SimNet::new(WorldConfig {
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().kill_at(200).build(),
            ..WorldConfig::default()
        });
        let policy = CheckpointPolicy::new(&path).with_interval_ns(10_000_000);
        let first = Scanner::new(cfg.clone(), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy.clone()),
                ..Default::default()
            });
        assert!(first.killed);

        let journal = CheckpointState::load(&path).unwrap();
        assert!(!journal.complete);
        let net2 = dense_net(&[80]);
        let second = Scanner::resume(cfg, net2.transport(Ipv4Addr::new(192, 0, 2, 9)), &journal)
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy),
                ..Default::default()
            });
        assert!(!second.killed);
        assert_eq!(second.resume_count, 1);
        assert_eq!(second.shutdown_clean, 1);

        let mut union: std::collections::HashSet<_> = first
            .results
            .iter()
            .map(|r| (r.saddr, r.sport))
            .collect();
        union.extend(second.results.iter().map(|r| (r.saddr, r.sport)));
        assert_eq!(union.len(), 256, "kill/resume must lose nothing");
        // Cumulative counters: the resumed metadata carries both attempts.
        assert!(second.metadata.counters.sent >= first.sent);
        let j2 = CheckpointState::load(&temp_journal("kill-resume.ckpt")).unwrap();
        assert!(j2.complete);
        assert_eq!(j2.counters.resume_count, 1);
    }

    #[test]
    fn resume_refuses_foreign_config() {
        let path = temp_journal("foreign.ckpt");
        let net = dense_net(&[80]);
        let s = Scanner::new(base_cfg(&[80]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path)),
                ..Default::default()
            });
        assert_eq!(s.shutdown_clean, 1);
        let journal = CheckpointState::load(&path).unwrap();
        let mut other = base_cfg(&[80]);
        other.seed = 999; // different permutation => different scan
        let net2 = dense_net(&[80]);
        let err = Scanner::resume(other, net2.transport(Ipv4Addr::new(192, 0, 2, 9)), &journal);
        assert!(matches!(
            err,
            Err(ResumeError::Journal(JournalError::ConfigMismatch { .. }))
        ));
    }

    /// Migrating a journal onto the wrong shard of the *same* scan is a
    /// distinct, precisely-worded refusal — not the opaque digest
    /// mismatch a foreign config gets — so a supervisor can tell a bad
    /// migration from a corrupted or unrelated journal.
    #[test]
    fn resume_names_both_specs_on_a_shard_mismatch() {
        let path = temp_journal("shard-mismatch.ckpt");
        let mut cfg = base_cfg(&[80]);
        cfg.shard = 1;
        cfg.num_shards = 4;
        let net = dense_net(&[80]);
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path)),
                ..Default::default()
            });
        assert_eq!(s.shutdown_clean, 1);
        let journal = CheckpointState::load(&path).unwrap();

        // Same scan, wrong slice: everything matches but the shard index.
        let mut wrong_slice = base_cfg(&[80]);
        wrong_slice.shard = 2;
        wrong_slice.num_shards = 4;
        let net2 = dense_net(&[80]);
        let err = Scanner::resume(
            wrong_slice,
            net2.transport(Ipv4Addr::new(192, 0, 2, 9)),
            &journal,
        );
        match err {
            Err(ResumeError::ShardSpec { journal: j, config: c }) => {
                assert_eq!(j, (1, 4, 1));
                assert_eq!(c, (2, 4, 1));
                let msg = ResumeError::ShardSpec { journal: j, config: c }.to_string();
                assert!(msg.contains("shard 1/4"), "{msg}");
                assert!(msg.contains("shard 2/4"), "{msg}");
            }
            Err(other) => panic!("expected ShardSpec, got {other}"),
            Ok(_) => panic!("expected ShardSpec, journal was accepted"),
        }

        // A config that differs beyond the slice stays a digest mismatch:
        // the distinct error must not hide a genuinely foreign journal.
        let mut foreign = base_cfg(&[80]);
        foreign.shard = 2;
        foreign.num_shards = 4;
        foreign.seed = 999;
        let net3 = dense_net(&[80]);
        let err = Scanner::resume(
            foreign,
            net3.transport(Ipv4Addr::new(192, 0, 2, 9)),
            &journal,
        );
        assert!(matches!(
            err,
            Err(ResumeError::Journal(JournalError::ConfigMismatch { .. }))
        ));
    }

    #[test]
    fn logger_receives_scan_lifecycle() {
        let net = dense_net(&[80]);
        let cfg = base_cfg(&[80]);
        let log = Logger::memory(Level::Debug);
        let s = Scanner::with_logger(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)), log.clone())
            .unwrap()
            .run();
        assert_eq!(s.sent, 256);
        let lines = log.lines();
        assert!(lines.iter().any(|(_, l)| l.contains("scan configured")));
        assert!(lines.iter().any(|(_, l)| l.contains("scan complete")));
    }
}
