//! Fault-tolerant multi-tenant scan supervisor (DESIGN.md §10).
//!
//! A long-lived scheduler daemon over the sequential
//! [`Scanner`](crate::scanner::Scanner): scan
//! jobs arrive as [`JobSpec`]s (config + world + shard count), get
//! admitted through a fair-share reservation ledger
//! ([`fairshare::FairShareLedger`]), are split into per-shard tasks, and
//! run on a bounded worker pool. Every attempt executes under the
//! engine's drain watchdog with periodic checkpoint journals; when a
//! worker dies — a scheduled netsim kill, an injected panic, or a
//! watchdog stall — the supervisor quarantines the worker, replays the
//! task's journal onto a fresh worker with the engine's 2 s
//! at-least-once rewind, and applies capped exponential restart backoff.
//! A circuit breaker parks a task as *degraded* after
//! [`SupervisorConfig::breaker_limit`] consecutive failures instead of
//! crash-looping.
//!
//! # Determinism
//!
//! The supervisor runs a single-threaded discrete-event loop on its own
//! virtual clock. Events are ordered by `(time, sequence)`; worker
//! attempts execute synchronously (each on a joined thread, for panic
//! isolation only) and charge their virtual duration to the loop's
//! clock. Scheduling, fault landing, restarts, and the status stream
//! are therefore pure functions of the scenario — two runs of the same
//! scenario are byte-identical, which is what the CI stress job diffs.
//!
//! Recovery keeps *results* exactly-once even though probing is
//! at-least-once: a resumed attempt uses schedule-aligned resume
//! ([`RunOptions::align_resume`](crate::scanner::RunOptions)), so every
//! replayed probe departs at the same virtual instant as its
//! uninterrupted twin and produces a byte-identical record; the merge
//! unions attempts, drops identical duplicates, and sorts by
//! `(ts_ns, saddr, sport)`. A panicked worker is the exception: nothing
//! it buffered survives, so its task restarts from scratch rather than
//! from a journal whose pre-checkpoint discoveries are lost.

pub mod fairshare;
mod worker;

pub use worker::PANIC_MARKER;

use crate::checkpoint::{CheckpointPolicy, CheckpointState};
use crate::config::ScanConfig;
use crate::log::Logger;
use crate::metadata::Counters;
use crate::metrics::{CounterId, HistId, ScanMetrics};
use crate::output::ScanResult;
use crate::scanner::PreparedScan;
use fairshare::{backoff_delay_ns, FairShareLedger, GrantId};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use worker::{run_attempt, AttemptRequest, AttemptResult};
use zmap_metrics::MetricsSnapshot;
use zmap_netsim::faults::WorkerFaultPlan;
use zmap_netsim::WorldConfig;

/// Default drain-watchdog budget for supervised attempts: generous
/// against healthy cooldowns, small enough that a stalled worker is
/// declared dead quickly.
pub const DEFAULT_SUPERVISED_WATCHDOG_POLLS: u64 = 2_048;

/// One scan job as submitted by a tenant.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name; also keys journal files and the status stream.
    pub id: String,
    /// Tenant for fair-share accounting.
    pub tenant: String,
    /// The whole job's scan configuration (`shard`/`num_shards` must
    /// describe the full scan; the supervisor does the slicing).
    pub cfg: ScanConfig,
    /// World template for every attempt of every task. Its fault plan
    /// must be inert — worker faults are the supervisor's to inject.
    pub world: WorldConfig,
    /// How many shard-tasks to split the job into (each runs the scan's
    /// `shard i of tasks` slice with one subshard).
    pub tasks: u32,
    /// Virtual arrival time of the job at the supervisor.
    pub submit_at_ns: u64,
}

/// Supervisor-wide policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker pool size.
    pub workers: u32,
    /// Total TX budget shared by all tenants (pps).
    pub capacity_pps: u64,
    /// Consecutive failures after which a task is parked as degraded.
    pub breaker_limit: u32,
    /// First restart backoff; doubles per consecutive failure.
    pub backoff_base_ns: u64,
    /// Backoff ceiling.
    pub backoff_cap_ns: u64,
    /// How long a worker that hosted a death stays quarantined.
    pub quarantine_ns: u64,
    /// Virtual-time interval between periodic checkpoint journals.
    pub checkpoint_interval_ns: u64,
    /// Drain-watchdog poll budget for every attempt.
    pub watchdog_poll_limit: u64,
    /// Directory for per-task checkpoint journals.
    pub journal_dir: PathBuf,
    /// Scheduled worker faults (inert by default).
    pub worker_faults: WorkerFaultPlan,
}

impl SupervisorConfig {
    /// Defaults for everything but the pool size, link budget, and
    /// journal directory.
    pub fn new(workers: u32, capacity_pps: u64, journal_dir: PathBuf) -> Self {
        SupervisorConfig {
            workers: workers.max(1),
            capacity_pps: capacity_pps.max(1),
            breaker_limit: 3,
            backoff_base_ns: 250_000_000,
            backoff_cap_ns: 8_000_000_000,
            quarantine_ns: 1_000_000_000,
            checkpoint_interval_ns: 100_000_000,
            watchdog_poll_limit: DEFAULT_SUPERVISED_WATCHDOG_POLLS,
            journal_dir,
            worker_faults: WorkerFaultPlan::none(),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SupervisorError {
    /// The job spec failed validation.
    Config(String),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Config(m) => write!(f, "invalid job: {m}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobOutcome {
    /// Every task finished; merged results are exact.
    Completed,
    /// At least one task tripped the circuit breaker; results cover
    /// whatever the surviving tasks produced.
    Degraded,
}

/// One line of the supervisor's per-job status stream (stream #3 of the
/// supervised world): virtual time, job, event kind, deterministic
/// detail text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobEvent {
    pub t_ns: u64,
    pub job: String,
    pub kind: String,
    pub detail: String,
}

/// Final per-job accounting.
#[derive(Debug, Clone, Serialize)]
pub struct JobReport {
    pub id: String,
    pub tenant: String,
    pub outcome: JobOutcome,
    /// pps granted to the whole job at admission.
    pub granted_pps: u64,
    /// pps each task's rate controller actually ran at.
    pub per_task_pps: u64,
    pub tasks: u32,
    /// Worker deaths this job absorbed.
    pub restarts: u32,
    /// Journal replays onto fresh workers.
    pub migrations: u32,
    /// Merged, deduplicated, `(ts_ns, saddr, sport)`-sorted results
    /// across all tasks and attempts.
    pub results: Vec<ScanResult>,
}

/// Everything a supervised run produced.
#[derive(Debug)]
pub struct SupervisorReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Supervisor counters (`jobs_admitted`, `worker_restarts`,
    /// `jobs_degraded`, `migrations`, plus zeros for engine-only rows).
    pub counters: Counters,
    /// Registry dump: the restart-backoff histogram and lifecycle trace.
    pub metrics: MetricsSnapshot,
    /// The full status stream, ordered by `(t_ns, emission order)`.
    pub events: Vec<JobEvent>,
    /// Virtual time of the last event the loop processed.
    pub finished_at_ns: u64,
}

impl SupervisorReport {
    /// True when no job degraded.
    pub fn all_completed(&self) -> bool {
        self.jobs.iter().all(|j| j.outcome == JobOutcome::Completed)
    }
}

// ---------------------------------------------------------------------------
// Internal scheduling state.
// ---------------------------------------------------------------------------

/// Discrete events, ordered by `(t_ns, seq)` in the loop's heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Job `idx` arrives and is admitted.
    Submit(usize),
    /// Task `tid` is ready to be dispatched.
    TaskReady(usize),
    /// Worker `w` returns to the idle pool.
    WorkerFree(u32),
    /// A task of job `idx` reached a terminal phase at this virtual
    /// time; check whether the whole job is done. Job-completion
    /// bookkeeping (grant release, counters, the terminal event) runs
    /// here rather than inside `dispatch` so a later-submitted job
    /// never sees the ledger post-release of a job that only finishes
    /// later in virtual time.
    JobCheck(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskPhase {
    Runnable,
    Completed,
    Degraded,
}

struct TaskState {
    job: usize,
    cfg: ScanConfig,
    journal_path: PathBuf,
    consecutive_failures: u32,
    resume: bool,
    phase: TaskPhase,
    results: Vec<ScanResult>,
}

struct JobState {
    grant: GrantId,
    granted_pps: u64,
    per_task_pps: u64,
    task_ids: Vec<usize>,
    restarts: u32,
    migrations: u32,
    finished: bool,
}

/// The supervisor daemon. Build, [`submit`](Self::submit) jobs, then
/// [`run`](Self::run) the scenario to completion.
pub struct Supervisor {
    cfg: SupervisorConfig,
    specs: Vec<JobSpec>,
}

impl Supervisor {
    /// A supervisor over the given policy.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor { cfg, specs: Vec::new() }
    }

    /// Validates and enqueues a job for the next [`run`](Self::run).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), SupervisorError> {
        if spec.id.is_empty()
            || !spec.id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SupervisorError::Config(format!(
                "job id {:?} must be non-empty [A-Za-z0-9_-] (it names journal files)",
                spec.id
            )));
        }
        if self.specs.iter().any(|s| s.id == spec.id) {
            return Err(SupervisorError::Config(format!("duplicate job id {:?}", spec.id)));
        }
        if spec.tenant.is_empty() {
            return Err(SupervisorError::Config("tenant must be non-empty".into()));
        }
        if spec.tasks == 0 {
            return Err(SupervisorError::Config("a job needs at least one task".into()));
        }
        if spec.cfg.num_shards.max(1) != 1 || spec.cfg.shard != 0 {
            return Err(SupervisorError::Config(
                "submit the whole scan (shard 0/1); the supervisor does the slicing".into(),
            ));
        }
        if spec.cfg.rate_pps == 0 {
            return Err(SupervisorError::Config("rate_pps must be at least 1".into()));
        }
        if spec.cfg.cooldown_secs == 0 {
            return Err(SupervisorError::Config(
                "cooldown_secs must be at least 1 (stall detection needs a drain window)".into(),
            ));
        }
        if !spec.world.faults.is_inert() {
            return Err(SupervisorError::Config(
                "job worlds must carry an inert fault plan; worker faults are scheduled \
                 through the supervisor's worker_faults, and packet-counter-keyed faults \
                 would break replay identity"
                    .into(),
            ));
        }
        // Shake out config errors now, not on a pool worker: validate
        // the plan and probe module of the first task slice.
        let probe = task_config(&spec.cfg, 0, spec.tasks, 1);
        if let Err(e) = PreparedScan::new(probe, Logger::null()) {
            return Err(SupervisorError::Config(format!("job {:?}: {e}", spec.id)));
        }
        self.specs.push(spec);
        Ok(())
    }

    /// Runs the scenario to completion with a null logger.
    pub fn run(self) -> SupervisorReport {
        self.run_with_logger(Logger::null())
    }

    /// Runs every submitted job to a terminal state and reports.
    pub fn run_with_logger(self, logger: Logger) -> SupervisorReport {
        let Supervisor { cfg, specs } = self;
        if let Err(e) = std::fs::create_dir_all(&cfg.journal_dir) {
            logger.warn(format_args!(
                "cannot create journal dir {}: {e}; journals will not persist",
                cfg.journal_dir.display()
            ));
        }
        let metrics = ScanMetrics::new(1, Counters::default());
        let mut ledger = FairShareLedger::new(cfg.capacity_pps);
        let mut events: Vec<JobEvent> = Vec::new();
        let mut tasks: Vec<TaskState> = Vec::new();
        let mut jobs: Vec<Option<JobState>> = specs.iter().map(|_| None).collect();
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut idle: BTreeSet<u32> = (0..cfg.workers).collect();
        let mut worker_attempts: Vec<u64> = vec![0; cfg.workers as usize];
        let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<_>, seq: &mut u64, t: u64, ev: Ev| {
            heap.push(Reverse((t, *seq, ev)));
            *seq += 1;
        };
        for (idx, spec) in specs.iter().enumerate() {
            push(&mut heap, &mut seq, spec.submit_at_ns, Ev::Submit(idx));
        }

        let mut now = 0u64;
        while let Some(Reverse((t, _, ev))) = heap.pop() {
            now = now.max(t);
            match ev {
                Ev::Submit(idx) => {
                    let spec = &specs[idx];
                    let (grant, granted) = ledger.admit(&spec.tenant, spec.cfg.rate_pps);
                    let per_task = (granted / u64::from(spec.tasks)).max(1);
                    metrics.add(CounterId::JobsAdmitted, 1);
                    metrics.trace(now, "job_admitted", granted);
                    events.push(JobEvent {
                        t_ns: now,
                        job: spec.id.clone(),
                        kind: "admitted".into(),
                        detail: format!(
                            "tenant {} granted {granted} pps across {} tasks ({per_task} pps each)",
                            spec.tenant, spec.tasks
                        ),
                    });
                    let mut task_ids = Vec::with_capacity(spec.tasks as usize);
                    for i in 0..spec.tasks {
                        let path = cfg
                            .journal_dir
                            .join(format!("job-{}-task-{i}.ckpt", spec.id));
                        // A stale journal from a previous scenario must
                        // never leak into this one.
                        let _ = std::fs::remove_file(&path);
                        let tid = tasks.len();
                        tasks.push(TaskState {
                            job: idx,
                            cfg: task_config(&spec.cfg, i, spec.tasks, per_task),
                            journal_path: path,
                            consecutive_failures: 0,
                            resume: false,
                            phase: TaskPhase::Runnable,
                            results: Vec::new(),
                        });
                        task_ids.push(tid);
                        push(&mut heap, &mut seq, now, Ev::TaskReady(tid));
                    }
                    jobs[idx] = Some(JobState {
                        grant,
                        granted_pps: granted,
                        per_task_pps: per_task,
                        task_ids,
                        restarts: 0,
                        migrations: 0,
                        finished: false,
                    });
                }
                Ev::TaskReady(tid) => ready.push_back(tid),
                Ev::WorkerFree(w) => {
                    idle.insert(w);
                }
                Ev::JobCheck(idx) => {
                    let terminal = match &jobs[idx] {
                        Some(s) => {
                            !s.finished
                                && s.task_ids
                                    .iter()
                                    .all(|&t| tasks[t].phase != TaskPhase::Runnable)
                        }
                        None => false,
                    };
                    if terminal {
                        if let Some(s) = &mut jobs[idx] {
                            s.finished = true;
                            ledger.release(s.grant);
                            let degraded = s
                                .task_ids
                                .iter()
                                .any(|&t| tasks[t].phase == TaskPhase::Degraded);
                            if degraded {
                                metrics.add(CounterId::JobsDegraded, 1);
                                metrics.trace(now, "job_degraded", idx as u64);
                                events.push(JobEvent {
                                    t_ns: now,
                                    job: specs[idx].id.clone(),
                                    kind: "degraded".into(),
                                    detail: format!(
                                        "parked after {} worker deaths",
                                        s.restarts
                                    ),
                                });
                            } else {
                                metrics.trace(now, "job_completed", idx as u64);
                                events.push(JobEvent {
                                    t_ns: now,
                                    job: specs[idx].id.clone(),
                                    kind: "completed".into(),
                                    detail: format!(
                                        "{} restarts, {} migrations",
                                        s.restarts, s.migrations
                                    ),
                                });
                            }
                        }
                    }
                }
            }

            // Dispatch: lowest idle worker takes the oldest ready task.
            while let (Some(&w), Some(&tid)) = (idle.iter().next(), ready.front()) {
                idle.remove(&w);
                ready.pop_front();
                if tasks[tid].phase != TaskPhase::Runnable {
                    idle.insert(w);
                    continue;
                }
                let free_at = dispatch(
                    &cfg, &specs, &mut tasks, &mut jobs, &metrics, &logger, &mut events,
                    &mut worker_attempts, &mut heap, &mut seq, &mut push, now, w, tid,
                );
                push(&mut heap, &mut seq, free_at, Ev::WorkerFree(w));
            }
        }

        // Events are emitted in dispatch order but stamped with virtual
        // times (an attempt's completion is stamped `now + duration`
        // while dispatch itself runs at `now`). Present the log in
        // (t_ns, emission order); the sort is stable, so same-instant
        // events keep their causal order.
        events.sort_by_key(|e| e.t_ns);
        let reports = specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let state = jobs[idx].take();
                let (granted_pps, per_task_pps, restarts, migrations, task_ids) = match &state {
                    Some(s) => {
                        (s.granted_pps, s.per_task_pps, s.restarts, s.migrations, s.task_ids.clone())
                    }
                    None => (0, 0, 0, 0, Vec::new()),
                };
                let degraded =
                    task_ids.iter().any(|&tid| tasks[tid].phase == TaskPhase::Degraded);
                let mut results: Vec<ScanResult> = Vec::new();
                for &tid in &task_ids {
                    results.extend(tasks[tid].results.iter().copied());
                }
                merge_results(&mut results);
                JobReport {
                    id: spec.id.clone(),
                    tenant: spec.tenant.clone(),
                    outcome: if degraded { JobOutcome::Degraded } else { JobOutcome::Completed },
                    granted_pps,
                    per_task_pps,
                    tasks: spec.tasks,
                    restarts,
                    migrations,
                    results,
                }
            })
            .collect();
        SupervisorReport {
            jobs: reports,
            counters: metrics.counters(),
            metrics: metrics.snapshot(),
            events,
            finished_at_ns: now,
        }
    }
}

/// The `index`-of-`tasks` slice of a whole-scan config at `rate_pps`.
fn task_config(whole: &ScanConfig, index: u32, tasks: u32, rate_pps: u64) -> ScanConfig {
    let mut cfg = whole.clone();
    cfg.shard = index;
    cfg.num_shards = tasks;
    cfg.subshards = 1;
    cfg.rate_pps = rate_pps;
    cfg
}

/// Union-merge across attempts and tasks: sort by the full record key,
/// then drop byte-identical duplicates (a replayed probe's response is
/// the same record, see the module docs).
fn merge_results(results: &mut Vec<ScanResult>) {
    results.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport, r.ttl, r.success));
    results.dedup();
}

/// How an attempt ended, for the restart policy.
enum AttemptEnd {
    Success,
    Death(&'static str),
    /// The journal was refused or the config failed to build; handled
    /// outside the death path.
    Aborted,
}

/// Runs one attempt of `tid` on worker `w` at virtual `now`; returns
/// when the worker becomes free again.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    cfg: &SupervisorConfig,
    specs: &[JobSpec],
    tasks: &mut [TaskState],
    jobs: &mut [Option<JobState>],
    metrics: &ScanMetrics,
    logger: &Logger,
    events: &mut Vec<JobEvent>,
    worker_attempts: &mut [u64],
    heap: &mut BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: &mut u64,
    push: &mut impl FnMut(&mut BinaryHeap<Reverse<(u64, u64, Ev)>>, &mut u64, u64, Ev),
    now: u64,
    w: u32,
    tid: usize,
) -> u64 {
    let job_idx = tasks[tid].job;
    let job_id = specs[job_idx].id.clone();
    worker_attempts[w as usize] += 1;
    let ordinal = worker_attempts[w as usize];
    let fault = cfg.worker_faults.fault_for(w, ordinal);

    let journal = if tasks[tid].resume {
        match CheckpointState::load(&tasks[tid].journal_path) {
            Ok(j) => Some(j),
            Err(e) => {
                logger.warn(format_args!(
                    "job {job_id}: journal {} unreadable ({e}); restarting task from scratch",
                    tasks[tid].journal_path.display()
                ));
                events.push(JobEvent {
                    t_ns: now,
                    job: job_id.clone(),
                    kind: "journal_unreadable".into(),
                    detail: "restarting task from scratch".into(),
                });
                tasks[tid].resume = false;
                None
            }
        }
    } else {
        None
    };
    let resuming = journal.is_some();
    events.push(JobEvent {
        t_ns: now,
        job: job_id.clone(),
        kind: "started".into(),
        detail: format!(
            "task {} on worker {w}{}",
            tasks[tid].cfg.shard,
            if resuming { " (resume)" } else { "" }
        ),
    });

    let outcome = run_attempt(AttemptRequest {
        cfg: tasks[tid].cfg.clone(),
        world: specs[job_idx].world.clone(),
        journal,
        checkpoint: CheckpointPolicy::new(&tasks[tid].journal_path)
            .with_interval_ns(cfg.checkpoint_interval_ns),
        watchdog_poll_limit: cfg.watchdog_poll_limit,
        fault,
    });

    let (end, duration) = match outcome.result {
        None => (AttemptEnd::Death("panic"), outcome.death_clock_ns),
        Some(AttemptResult::Ran(summary)) => {
            let duration = summary.duration_ns;
            tasks[tid].results.extend(summary.results.iter().copied());
            if summary.killed {
                (AttemptEnd::Death("kill"), duration)
            } else if summary.shutdown_clean == 0 {
                // Neither killed nor orderly: the drain watchdog gave up
                // on a frozen transport.
                (AttemptEnd::Death("stall"), duration)
            } else {
                (AttemptEnd::Success, duration)
            }
        }
        Some(AttemptResult::ResumeRefused(msg)) => {
            // The clear-message refusal path (ResumeError::ShardSpec or
            // a digest mismatch): never run a journal on the wrong
            // slice. Drop the journal, restart the task fresh.
            logger.warn(format_args!("job {job_id}: migration refused: {msg}"));
            events.push(JobEvent {
                t_ns: now,
                job: job_id.clone(),
                kind: "migration_refused".into(),
                detail: msg,
            });
            let _ = std::fs::remove_file(&tasks[tid].journal_path);
            tasks[tid].resume = false;
            (AttemptEnd::Aborted, 0)
        }
        Some(AttemptResult::BuildFailed(msg)) => {
            logger.error(format_args!("job {job_id}: task config rot: {msg}"));
            events.push(JobEvent {
                t_ns: now,
                job: job_id.clone(),
                kind: "build_failed".into(),
                detail: msg,
            });
            tasks[tid].phase = TaskPhase::Degraded;
            (AttemptEnd::Aborted, 0)
        }
    };

    if resuming {
        if let AttemptEnd::Success | AttemptEnd::Death(_) = end {
            metrics.add(CounterId::Migrations, 1);
            metrics.trace(now, "migration", w.into());
            if let Some(j) = &mut jobs[job_idx] {
                j.migrations += 1;
            }
            events.push(JobEvent {
                t_ns: now,
                job: job_id.clone(),
                kind: "migrated".into(),
                detail: format!("journal replayed on worker {w}"),
            });
        }
    }

    let free_at = match end {
        AttemptEnd::Success => {
            tasks[tid].phase = TaskPhase::Completed;
            tasks[tid].consecutive_failures = 0;
            events.push(JobEvent {
                t_ns: now + duration,
                job: job_id.clone(),
                kind: "task_completed".into(),
                detail: format!("task {} after {duration} ns", tasks[tid].cfg.shard),
            });
            now + duration
        }
        AttemptEnd::Death(cause) => {
            metrics.add(CounterId::WorkerRestarts, 1);
            metrics.trace(now + duration, "worker_death", w.into());
            if let Some(j) = &mut jobs[job_idx] {
                j.restarts += 1;
            }
            tasks[tid].consecutive_failures += 1;
            // A panicked worker flushed nothing: its journal's walk
            // positions are ahead of any output that survived, so a
            // resume would silently skip the lost discoveries. Replay
            // from scratch instead. Kill and stall leave the attempt's
            // partial output in hand — their journals migrate.
            if cause == "panic" {
                let _ = std::fs::remove_file(&tasks[tid].journal_path);
                tasks[tid].resume = false;
                tasks[tid].results.clear();
            } else {
                tasks[tid].resume = true;
            }
            events.push(JobEvent {
                t_ns: now + duration,
                job: job_id.clone(),
                kind: "worker_death".into(),
                detail: format!(
                    "{cause} on worker {w} (task {}, failure {} of {})",
                    tasks[tid].cfg.shard,
                    tasks[tid].consecutive_failures,
                    cfg.breaker_limit
                ),
            });
            if tasks[tid].consecutive_failures >= cfg.breaker_limit {
                tasks[tid].phase = TaskPhase::Degraded;
                metrics.trace(now + duration, "task_degraded", tasks[tid].cfg.shard.into());
                events.push(JobEvent {
                    t_ns: now + duration,
                    job: job_id.clone(),
                    kind: "task_degraded".into(),
                    detail: format!(
                        "circuit breaker open after {} consecutive failures",
                        tasks[tid].consecutive_failures
                    ),
                });
            } else {
                let backoff = backoff_delay_ns(
                    cfg.backoff_base_ns,
                    cfg.backoff_cap_ns,
                    tasks[tid].consecutive_failures,
                );
                metrics.record(HistId::RestartBackoff, backoff);
                events.push(JobEvent {
                    t_ns: now + duration,
                    job: job_id.clone(),
                    kind: "requeued".into(),
                    detail: format!("retry after {backoff} ns backoff"),
                });
                push(heap, seq, now + duration + backoff, Ev::TaskReady(tid));
            }
            now + duration + cfg.quarantine_ns
        }
        AttemptEnd::Aborted => {
            if tasks[tid].phase == TaskPhase::Runnable {
                push(heap, seq, now, Ev::TaskReady(tid));
            }
            now
        }
    };

    // The attempt ran synchronously but *virtually* finishes at
    // `now + duration`; job-completion bookkeeping must happen at that
    // time in the event loop, not here at dispatch time.
    if tasks[tid].phase != TaskPhase::Runnable {
        push(heap, seq, now + duration, Ev::JobCheck(job_idx));
    }
    free_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;
    use std::net::Ipv4Addr;
    use zmap_netsim::faults::WorkerFaultKind;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{ServiceModel, WorldConfig};

    fn dense_world() -> WorldConfig {
        WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        }
    }

    fn job_cfg(third_octet: u8, rate: u64, seed: u64) -> ScanConfig {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
        // A /26 keeps every test fast while leaving room for multiple
        // checkpoints at slow rates.
        cfg.allowlist_prefix(Ipv4Addr::new(10, 60, third_octet, 0), 26);
        cfg.apply_default_blocklist = false;
        cfg.ports = vec![80];
        cfg.rate_pps = rate;
        cfg.cooldown_secs = 1;
        cfg.seed = seed;
        cfg
    }

    fn spec(id: &str, tenant: &str, cfg: ScanConfig, tasks: u32, submit_at_ns: u64) -> JobSpec {
        JobSpec { id: id.into(), tenant: tenant.into(), cfg, world: dense_world(), tasks, submit_at_ns }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("zmap-supervisor-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The job run solo, task by task, on a fresh uninterrupted engine —
    /// the byte-identity reference for supervised recovery.
    fn solo_results(spec: &JobSpec, per_task_pps: u64) -> Vec<ScanResult> {
        let mut all = Vec::new();
        for i in 0..spec.tasks {
            let cfg = task_config(&spec.cfg, i, spec.tasks, per_task_pps);
            let net = crate::transport::SimNet::new(spec.world.clone());
            let summary = Scanner::new(cfg, net.transport(spec.cfg.source_ip))
                .expect("task config is valid")
                .run();
            assert!(!summary.killed, "solo reference must run uninterrupted");
            all.extend(summary.results);
        }
        merge_results(&mut all);
        all
    }

    #[test]
    fn submit_validation_rejects_malformed_jobs() {
        let dir = test_dir("validate");
        let mut sup = Supervisor::new(SupervisorConfig::new(2, 1_000_000, dir));
        let ok = job_cfg(0, 1000, 3);

        let reject = |sup: &mut Supervisor, s: JobSpec, needle: &str| {
            let msg = sup.submit(s).expect_err("must be rejected").to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        };

        reject(&mut sup, spec("bad id!", "t", ok.clone(), 1, 0), "job id");
        reject(&mut sup, spec("j", "", ok.clone(), 1, 0), "tenant");
        reject(&mut sup, spec("j", "t", ok.clone(), 0, 0), "at least one task");
        let mut sharded = ok.clone();
        sharded.shard = 1;
        sharded.num_shards = 2;
        reject(&mut sup, spec("j", "t", sharded, 1, 0), "whole scan");
        let mut zero_rate = ok.clone();
        zero_rate.rate_pps = 0;
        reject(&mut sup, spec("j", "t", zero_rate, 1, 0), "rate_pps");
        let mut no_cooldown = ok.clone();
        no_cooldown.cooldown_secs = 0;
        reject(&mut sup, spec("j", "t", no_cooldown, 1, 0), "cooldown_secs");
        let mut faulty = spec("j", "t", ok.clone(), 1, 0);
        faulty.world.faults.kill_at = Some(5);
        reject(&mut sup, faulty, "inert");
        let mut empty = ok.clone();
        empty.ports = Vec::new();
        reject(&mut sup, spec("j", "t", empty, 1, 0), "j");

        sup.submit(spec("j", "t", ok.clone(), 1, 0)).expect("valid job admits");
        reject(&mut sup, spec("j", "t", ok, 1, 0), "duplicate");
    }

    #[test]
    fn clean_jobs_complete_identical_to_solo_runs() {
        let dir = test_dir("clean");
        let mut sup = Supervisor::new(SupervisorConfig::new(2, 1_000_000, dir));
        let specs = [
            spec("alpha", "alice", job_cfg(1, 2000, 3), 2, 0),
            spec("beta", "bob", job_cfg(2, 2000, 4), 1, 50_000_000),
        ];
        for s in &specs {
            sup.submit(s.clone()).expect("valid");
        }
        let report = sup.run();
        assert!(report.all_completed());
        assert_eq!(report.counters.jobs_admitted, 2);
        assert_eq!(report.counters.worker_restarts, 0);
        assert_eq!(report.counters.migrations, 0);
        assert_eq!(report.counters.jobs_degraded, 0);
        for (job, s) in report.jobs.iter().zip(&specs) {
            assert_eq!(job.restarts, 0);
            assert_eq!(job.results, solo_results(s, job.per_task_pps), "{}", job.id);
            assert_eq!(job.results.len(), 64, "{}: dense /26 answers fully", job.id);
        }
        // The status stream saw every lifecycle edge in virtual order.
        let kinds: Vec<&str> = report.events.iter().map(|e| e.kind.as_str()).collect();
        assert!(kinds.contains(&"admitted"));
        assert!(kinds.contains(&"started"));
        assert!(kinds.contains(&"task_completed"));
        assert!(kinds.contains(&"completed"));
        assert!(report.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn killed_worker_migrates_the_journal_and_stays_exact() {
        let dir = test_dir("kill");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        // Slow scan (64 targets at 100 pps = 640 ms of sending) against a
        // 100 ms checkpoint interval: the kill lands past several
        // journals, so the replay genuinely resumes mid-walk.
        cfg.worker_faults = WorkerFaultPlan::none().with(0, 1, WorkerFaultKind::Kill, 40);
        let mut sup = Supervisor::new(cfg);
        let s = spec("kjob", "t", job_cfg(3, 100, 7), 1, 0);
        sup.submit(s.clone()).expect("valid");
        let report = sup.run();
        assert!(report.all_completed());
        let job = &report.jobs[0];
        assert_eq!(job.restarts, 1);
        assert_eq!(job.migrations, 1);
        assert_eq!(report.counters.worker_restarts, 1);
        assert_eq!(report.counters.migrations, 1);
        assert_eq!(job.results, solo_results(&s, job.per_task_pps));
        assert!(report.events.iter().any(|e| e.kind == "worker_death" && e.detail.contains("kill")));
        assert!(report.events.iter().any(|e| e.kind == "migrated"));
        assert!(report.events.iter().any(|e| e.kind == "requeued"));
        // The requeue delay landed in the restart-backoff histogram.
        assert_eq!(report.metrics.histograms["restart_backoff_ns"].count, 1);
    }

    #[test]
    fn panicked_worker_restarts_from_scratch_and_stays_exact() {
        let dir = test_dir("panic");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        cfg.worker_faults = WorkerFaultPlan::none().with(0, 1, WorkerFaultKind::Panic, 20);
        let mut sup = Supervisor::new(cfg);
        let s = spec("pjob", "t", job_cfg(4, 100, 9), 1, 0);
        sup.submit(s.clone()).expect("valid");
        let report = sup.run();
        assert!(report.all_completed());
        let job = &report.jobs[0];
        assert_eq!(job.restarts, 1);
        // A panic loses the worker's buffered results, so its journal
        // must NOT migrate: a resume would skip the lost discoveries.
        assert_eq!(job.migrations, 0);
        assert_eq!(report.counters.migrations, 0);
        assert_eq!(job.results, solo_results(&s, job.per_task_pps));
        assert!(report.events.iter().any(|e| e.kind == "worker_death" && e.detail.contains("panic")));
        assert!(!report.events.iter().any(|e| e.kind == "migrated"));
    }

    #[test]
    fn stalled_worker_trips_the_watchdog_and_migrates() {
        let dir = test_dir("stall");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        // Freeze the NIC partway through attempt 1. Stall ordinals count
        // whole NIC *calls* (one batched send is one call), so shrink the
        // batch to make the attempt take many calls and land the tenth
        // mid-walk, past the first 100 ms checkpoint.
        cfg.worker_faults = WorkerFaultPlan::none().with(0, 1, WorkerFaultKind::Stall, 10);
        let mut sup = Supervisor::new(cfg);
        let mut scan = job_cfg(5, 100, 11);
        scan.batch = 4;
        let s = spec("sjob", "t", scan, 1, 0);
        sup.submit(s.clone()).expect("valid");
        let report = sup.run();
        assert!(report.all_completed());
        let job = &report.jobs[0];
        assert_eq!(job.restarts, 1);
        assert_eq!(job.migrations, 1, "a stall leaves a trustworthy journal behind");
        assert_eq!(job.results, solo_results(&s, job.per_task_pps));
        assert!(report.events.iter().any(|e| e.kind == "worker_death" && e.detail.contains("stall")));
    }

    #[test]
    fn circuit_breaker_parks_a_crash_looping_job_as_degraded() {
        let dir = test_dir("breaker");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        cfg.breaker_limit = 3;
        cfg.worker_faults = WorkerFaultPlan::none()
            .with(0, 1, WorkerFaultKind::Kill, 10)
            .with(0, 2, WorkerFaultKind::Kill, 10)
            .with(0, 3, WorkerFaultKind::Kill, 10);
        let mut sup = Supervisor::new(cfg);
        sup.submit(spec("djob", "t", job_cfg(6, 100, 13), 1, 0)).expect("valid");
        let report = sup.run();
        assert!(!report.all_completed());
        let job = &report.jobs[0];
        assert_eq!(job.outcome, JobOutcome::Degraded);
        assert_eq!(job.restarts, 3);
        assert_eq!(report.counters.jobs_degraded, 1);
        assert!(report.events.iter().any(|e| e.kind == "task_degraded"));
        assert!(report.events.iter().any(|e| e.kind == "degraded"));
        // Two requeues before the breaker opened, with doubling delays.
        let h = &report.metrics.histograms["restart_backoff_ns"];
        assert_eq!(h.count, 2);
        let requeues: Vec<&JobEvent> =
            report.events.iter().filter(|e| e.kind == "requeued").collect();
        assert_eq!(requeues.len(), 2);
        assert!(requeues[0].detail.contains("250000000"), "{}", requeues[0].detail);
        assert!(requeues[1].detail.contains("500000000"), "{}", requeues[1].detail);
    }

    #[test]
    fn fair_share_splits_the_link_between_tenants() {
        let dir = test_dir("fairshare");
        // Capacity 2000: alice's first job takes 1500 of it; bob's job
        // is then clamped to the equal split's remaining headroom.
        let mut sup = Supervisor::new(SupervisorConfig::new(2, 2_000, dir));
        sup.submit(spec("a1", "alice", job_cfg(7, 1500, 3), 1, 0)).expect("valid");
        sup.submit(spec("b1", "bob", job_cfg(8, 1500, 4), 1, 1)).expect("valid");
        let report = sup.run();
        assert!(report.all_completed());
        assert_eq!(report.jobs[0].granted_pps, 1500);
        assert_eq!(report.jobs[1].granted_pps, 500, "clipped to the link's remainder");
    }

    #[test]
    fn same_scenario_twice_is_byte_identical() {
        let run = |tag: &str| {
            let dir = test_dir(&format!("double-{tag}"));
            let mut cfg = SupervisorConfig::new(2, 1_000_000, dir);
            cfg.worker_faults = WorkerFaultPlan::none()
                .with(0, 1, WorkerFaultKind::Kill, 30)
                .with(1, 2, WorkerFaultKind::Panic, 15);
            let mut sup = Supervisor::new(cfg);
            sup.submit(spec("alpha", "alice", job_cfg(9, 200, 3), 2, 0)).expect("valid");
            sup.submit(spec("beta", "bob", job_cfg(10, 200, 4), 1, 40_000_000)).expect("valid");
            let report = sup.run();
            let mut lines = Vec::new();
            for e in &report.events {
                lines.push(serde_json::to_string(e).expect("serializes"));
            }
            for j in &report.jobs {
                lines.push(serde_json::to_string(j).expect("serializes"));
            }
            lines.push(serde_json::to_string(&report.counters).expect("serializes"));
            lines.join("\n")
        };
        assert_eq!(run("a"), run("b"), "scheduling must be a pure function of the scenario");
    }
}
