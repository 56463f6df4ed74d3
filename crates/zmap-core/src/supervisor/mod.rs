//! Fault-tolerant multi-tenant scan supervisor (DESIGN.md §10).
//!
//! [`JobSpec`]s are admitted through a fair-share reservation ledger,
//! split into per-shard tasks, and run on a bounded worker pool, each
//! attempt an inline-driver [`Scanner`](crate::scanner::Scanner) with
//! checkpoint journals and the drain watchdog. A worker that dies — a
//! netsim kill, an injected panic, a watchdog stall — is quarantined; its
//! task is requeued with capped exponential backoff and replays its
//! journal, or is parked as *degraded* after [`BREAKER_LIMIT`]
//! consecutive failures.
//!
//! One thread runs a discrete-event loop on a virtual clock. Events are
//! ordered by `(time, sequence)`; each attempt runs to its end on the
//! loop's thread, under `catch_unwind`, and charges its virtual duration
//! to the clock. Scheduling, fault landing, restarts, and the status
//! stream are therefore pure functions of the scenario.

pub mod fairshare;
mod worker;

use crate::checkpoint::CheckpointState;
use crate::config::ScanConfig;
use crate::log::Logger;
use crate::metadata::Counters;
use crate::metrics::{CounterId, HistId, ScanMetrics};
use crate::output::ScanResult;
use crate::scanner::{PreparedScan, ResumeError};
use fairshare::{backoff_delay_ns, FairShareLedger, GrantId};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::path::PathBuf;
use zmap_metrics::MetricsSnapshot;
use zmap_netsim::faults::WorkerFaultPlan;
use zmap_netsim::WorldConfig;

/// Consecutive failures after which a task is parked as degraded.
pub const BREAKER_LIMIT: u32 = 3;

/// How long a worker that hosted a death stays out of the pool.
pub const QUARANTINE_NS: u64 = 1_000_000_000;

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

/// What a deployment chooses; the recovery policy is fixed (DESIGN §10.4).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker pool size.
    pub workers: u32,
    /// Total TX budget shared by all tenants (pps).
    pub capacity_pps: u64,
    /// Directory for per-task checkpoint journals.
    pub journal_dir: PathBuf,
    /// Scheduled worker faults (inert by default).
    pub worker_faults: WorkerFaultPlan,
}

impl SupervisorConfig {
    /// A pool of `workers` sharing `capacity_pps`, with no faults.
    pub fn new(workers: u32, capacity_pps: u64, journal_dir: PathBuf) -> Self {
        SupervisorConfig {
            workers: workers.max(1),
            capacity_pps: capacity_pps.max(1),
            journal_dir,
            worker_faults: WorkerFaultPlan::none(),
        }
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum JobOutcome {
    /// Every task finished; merged results are exact.
    #[default]
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
#[derive(Debug, Clone, Default, Serialize)]
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

/// The supervisor daemon and its event loop's state. Build,
/// [`submit`](Self::submit) jobs, then [`run`](Self::run) the scenario to
/// completion; each private method is one step of the loop.
pub struct Supervisor {
    cfg: SupervisorConfig,
    specs: Vec<JobSpec>,
    logger: Logger,
    metrics: ScanMetrics,
    ledger: FairShareLedger,
    /// One per job, filled in as it runs; results are merged at the end.
    reports: Vec<JobReport>,
    /// Each job's grant, held from admission until the job closes.
    grants: Vec<Option<GrantId>>,
    tasks: Vec<Task>,
    ready: VecDeque<usize>,
    idle: BTreeSet<u32>,
    /// Attempts started per worker: the ordinal worker faults key on.
    attempts: Vec<u64>,
    /// Pending events, ordered by `(t_ns, seq)`.
    agenda: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    now: u64,
    events: Vec<JobEvent>,
}

impl Supervisor {
    /// A supervisor over the given pool.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor {
            logger: Logger::null(),
            metrics: ScanMetrics::new(1, Counters::default()),
            ledger: FairShareLedger::new(cfg.capacity_pps),
            idle: (0..cfg.workers).collect(),
            attempts: vec![0; cfg.workers as usize],
            cfg,
            specs: Vec::new(),
            reports: Vec::new(),
            grants: Vec::new(),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            agenda: BinaryHeap::new(),
            seq: 0,
            now: 0,
            events: Vec::new(),
        }
    }

    /// Validates and enqueues a job for the next [`run`](Self::run); `Err`
    /// says what is wrong with the spec.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), String> {
        let problem = if spec.id.is_empty()
            || !spec.id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            format!("job id {:?} must be non-empty [A-Za-z0-9_-] (it names journal files)", spec.id)
        } else if self.specs.iter().any(|s| s.id == spec.id) {
            format!("duplicate job id {:?}", spec.id)
        } else if spec.tenant.is_empty() {
            "tenant must be non-empty".into()
        } else if spec.tasks == 0 {
            "a job needs at least one task".into()
        } else if spec.cfg.num_shards != 1 || spec.cfg.shard != 0 {
            "submit the whole scan (shard 0/1); the supervisor does the slicing".into()
        } else if spec.cfg.cooldown_secs == 0 {
            "cooldown_secs must be at least 1 (stall detection needs a drain window)".into()
        } else if !spec.world.faults.is_inert() {
            "job worlds must carry an inert fault plan; worker faults are scheduled through \
             the supervisor's worker_faults, and packet-counter-keyed faults would break \
             replay identity"
                .into()
        } else {
            // Shake out config errors now, not on a pool worker: the gate,
            // the plan and the probe module of the first task slice, at
            // the job's own rate.
            let first = task_config(&spec.cfg, 0, spec.tasks, spec.cfg.rate_pps);
            match PreparedScan::new(first, Logger::null()) {
                Ok(_) => {
                    self.at(spec.submit_at_ns, Ev::Submit(self.specs.len()));
                    let (id, tenant, tasks) = (spec.id.clone(), spec.tenant.clone(), spec.tasks);
                    self.reports.push(JobReport { id, tenant, tasks, ..JobReport::default() });
                    self.grants.push(None);
                    self.specs.push(spec);
                    return Ok(());
                }
                Err(e) => format!("job {:?}: {e}", spec.id),
            }
        };
        Err(problem)
    }

    /// Runs the scenario to completion with a null logger.
    pub fn run(self) -> SupervisorReport {
        self.run_with_logger(Logger::null())
    }

    /// Runs every submitted job to a terminal state and reports.
    pub fn run_with_logger(mut self, logger: Logger) -> SupervisorReport {
        if let Err(e) = std::fs::create_dir_all(&self.cfg.journal_dir) {
            logger.warn(format_args!(
                "cannot create journal dir {}: {e}; journals will not persist",
                self.cfg.journal_dir.display()
            ));
        }
        self.logger = logger;
        while let Some(Reverse((t, _, ev))) = self.agenda.pop() {
            self.now = t;
            match ev {
                Ev::Submit(job) => self.admit(job),
                Ev::Ready(tid) => self.ready.push_back(tid),
                Ev::Free(w) => {
                    self.idle.insert(w);
                }
                Ev::Check(job) => self.check(job),
            }
            // The lowest-numbered idle worker takes the oldest ready task.
            while let (Some(&w), Some(&tid)) = (self.idle.first(), self.ready.front()) {
                self.idle.remove(&w);
                self.ready.pop_front();
                self.attempt(w, tid);
            }
        }

        // An attempt's events are emitted when it returns but stamped
        // with its virtual times; the stable sort keeps same-instant
        // events in emission order.
        self.events.sort_by_key(|e| e.t_ns);
        for task in self.tasks {
            self.reports[task.job].results.extend(task.results);
        }
        for report in &mut self.reports {
            merge_results(&mut report.results);
        }
        SupervisorReport {
            jobs: self.reports,
            counters: self.metrics.counters(),
            metrics: self.metrics.snapshot(),
            events: self.events,
            finished_at_ns: self.now,
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
/// then drop byte-identical duplicates. A resumed attempt replays probes
/// schedule-aligned ([`RunOptions::align_resume`](crate::scanner::RunOptions)),
/// so a replayed response is the same record.
fn merge_results(results: &mut Vec<ScanResult>) {
    results.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport, r.ttl, r.success));
    results.dedup();
}

/// What the loop's agenda holds, ordered by `(t_ns, seq)`. Dispatch runs
/// after every event, not once per instant: when two workers free up at
/// the same time, the one whose event was scheduled first takes a
/// waiting task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Job `idx` arrives and is admitted.
    Submit(usize),
    /// Task `tid` joins the ready queue.
    Ready(usize),
    /// Worker `w` rejoins the idle pool.
    Free(u32),
    /// A task of job `idx` ended at this virtual time. The job closes
    /// here, never at dispatch, so a later-submitted job never sees the
    /// ledger after a release that is still in its future.
    Check(usize),
}

struct Task {
    job: usize,
    cfg: ScanConfig,
    journal: PathBuf,
    failures: u32,
    resume: bool,
    /// `None` while the task is runnable.
    outcome: Option<JobOutcome>,
    results: Vec<ScanResult>,
}

impl Supervisor {
    fn at(&mut self, t_ns: u64, ev: Ev) {
        self.agenda.push(Reverse((t_ns, self.seq, ev)));
        self.seq += 1;
    }

    /// Appends one line to the status stream.
    fn emit(&mut self, t_ns: u64, job: usize, kind: &str, detail: String) {
        let job = self.specs[job].id.clone();
        self.events.push(JobEvent { t_ns, job, kind: kind.into(), detail });
    }

    fn admit(&mut self, job: usize) {
        let spec = self.specs[job].clone();
        let (grant, granted) = self.ledger.admit(&spec.tenant, spec.cfg.rate_pps);
        let per_task = (granted / u64::from(spec.tasks)).max(1);
        self.metrics.add(CounterId::JobsAdmitted, 1);
        self.metrics.trace(self.now, "job_admitted", granted);
        let detail = format!(
            "tenant {} granted {granted} pps across {} tasks ({per_task} pps each)",
            spec.tenant, spec.tasks
        );
        self.emit(self.now, job, "admitted", detail);
        self.grants[job] = Some(grant);
        (self.reports[job].granted_pps, self.reports[job].per_task_pps) = (granted, per_task);
        for i in 0..spec.tasks {
            let journal = self.cfg.journal_dir.join(format!("job-{}-task-{i}.ckpt", spec.id));
            // A stale journal from a previous scenario must never leak
            // into this one.
            let _ = std::fs::remove_file(&journal);
            let cfg = task_config(&spec.cfg, i, spec.tasks, per_task);
            self.at(self.now, Ev::Ready(self.tasks.len()));
            let (failures, resume, outcome, results) = (0, false, None, Vec::new());
            self.tasks.push(Task { job, cfg, journal, failures, resume, outcome, results });
        }
    }

    /// Closes `job` once none of its tasks is runnable: releases the
    /// grant and emits the terminal event.
    fn check(&mut self, job: usize) {
        let any = |outcome| self.tasks.iter().any(|t| t.job == job && t.outcome == outcome);
        if any(None) {
            return;
        }
        let degraded = any(Some(JobOutcome::Degraded));
        let Some(grant) = self.grants[job].take() else { return };
        self.ledger.release(grant);
        let JobReport { restarts, migrations, .. } = self.reports[job];
        if degraded {
            self.reports[job].outcome = JobOutcome::Degraded;
            self.metrics.add(CounterId::JobsDegraded, 1);
            self.metrics.trace(self.now, "job_degraded", job as u64);
            self.emit(self.now, job, "degraded", format!("parked after {restarts} worker deaths"));
        } else {
            self.metrics.trace(self.now, "job_completed", job as u64);
            let detail = format!("{restarts} restarts, {migrations} migrations");
            self.emit(self.now, job, "completed", detail);
        }
    }

    /// Runs one attempt of task `tid` on worker `w`, starting now, and
    /// schedules what follows from its virtual end.
    fn attempt(&mut self, w: u32, tid: usize) {
        let now = self.now;
        self.attempts[w as usize] += 1;
        let fault = self.cfg.worker_faults.fault_for(w, self.attempts[w as usize]);
        let task = &mut self.tasks[tid];
        let (job, shard) = (task.job, task.cfg.shard);
        let job_id = self.specs[job].id.clone();
        let state = match task.resume.then(|| CheckpointState::load(&task.journal)) {
            Some(Err(e)) => {
                self.logger.warn(format_args!(
                    "job {job_id}: journal {} unreadable ({e}); restarting task from scratch",
                    task.journal.display()
                ));
                task.resume = false;
                self.emit(now, job, "journal_unreadable", "restarting task from scratch".into());
                None
            }
            loaded => loaded.and_then(Result::ok),
        };
        let resume = if state.is_some() { " (resume)" } else { "" };
        self.emit(now, job, "started", format!("task {shard} on worker {w}{resume}"));

        let task = &mut self.tasks[tid];
        let world = &self.specs[job].world;
        let ran = match worker::run(&task.cfg, world, state.as_ref(), &task.journal, fault) {
            Ok(ran) => ran,
            Err(ResumeError::Build(e)) => {
                self.logger.error(format_args!("job {job_id}: task config rot: {e}"));
                task.outcome = Some(JobOutcome::Degraded);
                self.emit(now, job, "build_failed", e.to_string());
                self.at(now, Ev::Check(job));
                return self.at(now, Ev::Free(w));
            }
            Err(e) => {
                // Never run a journal on the wrong slice: drop it and
                // restart the task fresh.
                self.logger.warn(format_args!("job {job_id}: migration refused: {e}"));
                let _ = std::fs::remove_file(&task.journal);
                task.resume = false;
                self.emit(now, job, "migration_refused", e.to_string());
                self.at(now, Ev::Ready(tid));
                return self.at(now, Ev::Free(w));
            }
        };
        task.results.extend(ran.results);
        if state.is_some() {
            self.metrics.add(CounterId::Migrations, 1);
            self.metrics.trace(now, "migration", w.into());
            self.reports[job].migrations += 1;
            self.emit(now, job, "migrated", format!("journal replayed on worker {w}"));
        }

        let end = now + ran.duration_ns;
        let task = &mut self.tasks[tid];
        let Some(cause) = ran.death else {
            (task.outcome, task.failures) = (Some(JobOutcome::Completed), 0);
            let detail = format!("task {shard} after {} ns", ran.duration_ns);
            self.emit(end, job, "task_completed", detail);
            self.at(end, Ev::Check(job));
            return self.at(end, Ev::Free(w));
        };
        task.failures += 1;
        let failures = task.failures;
        // A panicked worker flushed nothing: its journal's walk positions
        // are ahead of any output that survived, so a resume would skip
        // the lost discoveries. Kill and stall leave the attempt's partial
        // output in hand, so their journals migrate.
        task.resume = cause != "panic";
        if !task.resume {
            let _ = std::fs::remove_file(&task.journal);
            task.results.clear();
        }
        self.metrics.add(CounterId::WorkerRestarts, 1);
        self.metrics.trace(end, "worker_death", w.into());
        self.reports[job].restarts += 1;
        let detail =
            format!("{cause} on worker {w} (task {shard}, failure {failures} of {BREAKER_LIMIT})");
        self.emit(end, job, "worker_death", detail);
        if failures < BREAKER_LIMIT {
            let backoff = backoff_delay_ns(failures);
            self.metrics.record(HistId::RestartBackoff, backoff);
            self.emit(end, job, "requeued", format!("retry after {backoff} ns backoff"));
            self.at(end + backoff, Ev::Ready(tid));
        } else {
            self.tasks[tid].outcome = Some(JobOutcome::Degraded);
            self.metrics.trace(end, "task_degraded", shard.into());
            let detail = format!("circuit breaker open after {failures} consecutive failures");
            self.emit(end, job, "task_degraded", detail);
            self.at(end, Ev::Check(job));
        }
        self.at(end + QUARANTINE_NS, Ev::Free(w));
    }
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
    fn unusable_journal_restarts_the_task_from_scratch() {
        let dir = test_dir("no-journal");
        std::fs::create_dir_all(&dir).expect("test dir");
        // A journal directory under a regular file can never be created,
        // so the killed attempt leaves nothing to migrate.
        let file = dir.join("plain-file");
        std::fs::write(&file, b"").expect("plain file");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, file.join("journals"));
        cfg.worker_faults = WorkerFaultPlan::none().with(0, 1, WorkerFaultKind::Kill, 40);
        let mut sup = Supervisor::new(cfg);
        let s = spec("ujob", "t", job_cfg(11, 100, 17), 1, 0);
        sup.submit(s.clone()).expect("valid");
        let report = sup.run();
        assert!(report.all_completed());
        let job = &report.jobs[0];
        assert_eq!(job.restarts, 1);
        assert_eq!(job.migrations, 0, "no journal was replayed");
        let unreadable: Vec<&JobEvent> =
            report.events.iter().filter(|e| e.kind == "journal_unreadable").collect();
        assert_eq!(unreadable.len(), 1);
        assert_eq!(unreadable[0].detail, "restarting task from scratch");
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == "started" && e.detail == "task 0 on worker 0" && e.t_ns > 0));
        assert_eq!(job.results, solo_results(&s, job.per_task_pps));
    }

    #[test]
    fn circuit_breaker_parks_a_crash_looping_job_as_degraded() {
        let dir = test_dir("breaker");
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
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
