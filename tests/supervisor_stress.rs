//! Supervisor stress and convergence suite (DESIGN.md §10).
//!
//! The headline scenario is the CI stress job's shape: 24 interleaved
//! multi-tenant jobs on a 4-worker pool with seeded kills, panics, and
//! stalls on three of the workers. Every job must end `Completed` with
//! results byte-identical to an uninterrupted solo run of the same task
//! slices, or deterministically `Degraded`; and the whole scenario —
//! events, job reports, counters — must be byte-identical across two
//! runs.
//!
//! Property tests pin the two convergence lemmas the restart policy
//! leans on: the backoff curve is monotone non-decreasing and capped,
//! and a job whose first attempt dies at *any* worker-event ordinal
//! (any fault kind) still converges to a terminal outcome with exact
//! results when it completes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use zmap::core::supervisor::fairshare::{backoff_delay_ns, BACKOFF_BASE_NS, BACKOFF_CAP_NS};
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;

fn dense_world(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        ..WorldConfig::default()
    }
}

/// A /26 job config; `batch` is small so stall faults (which count whole
/// NIC calls) land inside an attempt instead of after it.
fn job_cfg(third_octet: u8, rate: u64, seed: u64) -> ScanConfig {
    let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
    cfg.allowlist_prefix(Ipv4Addr::new(10, 70, third_octet, 0), 26);
    cfg.apply_default_blocklist = false;
    cfg.ports = vec![80];
    cfg.rate_pps = rate;
    cfg.cooldown_secs = 1;
    cfg.seed = seed;
    cfg.batch = 4;
    cfg
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("zmap-supervisor-stress").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The task slice the supervisor runs: `index` of `tasks` shards at the
/// granted per-task rate (mirrors `supervisor::task_config`).
fn task_slice(whole: &ScanConfig, index: u32, tasks: u32, rate_pps: u64) -> ScanConfig {
    let mut cfg = whole.clone();
    cfg.shard = index;
    cfg.num_shards = tasks;
    cfg.subshards = 1;
    cfg.rate_pps = rate_pps;
    cfg
}

/// The byte-identity reference: each task slice run solo on a fresh,
/// uninterrupted engine, merged the way the supervisor merges.
fn solo_results(spec: &JobSpec, per_task_pps: u64) -> Vec<ScanResult> {
    let mut all = Vec::new();
    for i in 0..spec.tasks {
        let cfg = task_slice(&spec.cfg, i, spec.tasks, per_task_pps);
        let net = SimNet::new(spec.world.clone());
        let summary = Scanner::new(cfg, net.transport(spec.cfg.source_ip))
            .expect("task slice is a valid config")
            .run();
        assert!(!summary.killed, "solo reference must run uninterrupted");
        all.extend(summary.results);
    }
    all.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport, r.ttl, r.success));
    all.dedup();
    all
}

/// Serializes everything determinism promises about a run.
fn report_bytes(report: &SupervisorReport) -> String {
    let mut lines = Vec::new();
    for e in &report.events {
        lines.push(serde_json::to_string(e).expect("event serializes"));
    }
    for j in &report.jobs {
        lines.push(serde_json::to_string(j).expect("job serializes"));
    }
    lines.push(serde_json::to_string(&report.counters).expect("counters serialize"));
    lines.join("\n")
}

/// 24 jobs, 6 tenants, 4 workers, faults on workers 0–3: two kills, a
/// panic, a stall, and a second kill — the ISSUE's acceptance scenario.
fn stress_scenario(tag: &str) -> (Vec<JobSpec>, SupervisorReport) {
    let dir = test_dir(&format!("stress-{tag}"));
    let mut cfg = SupervisorConfig::new(4, 1_000_000, dir);
    cfg.worker_faults = WorkerFaultPlan::none()
        .with(0, 1, WorkerFaultKind::Kill, 20)
        .with(0, 3, WorkerFaultKind::Kill, 25)
        .with(1, 2, WorkerFaultKind::Panic, 12)
        .with(2, 1, WorkerFaultKind::Stall, 10)
        .with(3, 2, WorkerFaultKind::Kill, 18);
    let mut sup = Supervisor::new(cfg);
    let mut specs = Vec::new();
    for j in 0..24u8 {
        let spec = JobSpec {
            id: format!("job-{j:02}"),
            tenant: format!("tenant-{}", j % 6),
            cfg: job_cfg(j, 100, 100 + u64::from(j)),
            world: dense_world(5),
            tasks: 1 + u32::from(j) % 2,
            submit_at_ns: u64::from(j) * 25_000_000,
        };
        sup.submit(spec.clone()).expect("stress specs are valid");
        specs.push(spec);
    }
    (specs, sup.run())
}

#[test]
fn stress_24_jobs_4_workers_with_seeded_deaths() {
    let (specs, report) = stress_scenario("main");
    assert_eq!(report.counters.jobs_admitted, 24);
    assert_eq!(report.jobs.len(), 24);
    // All five scheduled faults land: 36 tasks across 4 workers reach
    // every faulted (worker, attempt) slot.
    assert!(
        report.counters.worker_restarts >= 3,
        "expected the seeded deaths to land, saw {}",
        report.counters.worker_restarts
    );
    for kind in ["kill", "panic", "stall"] {
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == "worker_death" && e.detail.contains(kind)),
            "no {kind} death in the event stream"
        );
    }
    // Kills and stalls leave journals behind; at least one migrated.
    assert!(report.counters.migrations >= 1);

    // Every job is terminal, and every completed job's merged results
    // are byte-identical to its uninterrupted solo decomposition.
    for (job, spec) in report.jobs.iter().zip(&specs) {
        match job.outcome {
            JobOutcome::Completed => {
                assert_eq!(
                    job.results,
                    solo_results(spec, job.per_task_pps),
                    "{}: recovery must be invisible in the output",
                    job.id
                );
                assert_eq!(job.results.len(), 64, "{}: dense /26 answers fully", job.id);
            }
            JobOutcome::Degraded => {
                // Legal terminal state; determinism is pinned below.
            }
        }
    }
    // The status stream is ordered by virtual time.
    assert!(report.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}

#[test]
fn stress_scenario_is_byte_identical_across_runs() {
    let (_, a) = stress_scenario("double-a");
    let (_, b) = stress_scenario("double-b");
    assert_eq!(
        report_bytes(&a),
        report_bytes(&b),
        "scheduling must be a pure function of the scenario"
    );
}

/// A crash-looping job degrades; a healthy job sharing the pool still
/// completes exactly — and both outcomes are deterministic.
#[test]
fn breaker_degrades_deterministically_without_collateral() {
    let run = |tag: &str| {
        let dir = test_dir(&format!("degrade-{tag}"));
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        cfg.worker_faults = WorkerFaultPlan::none()
            .with(0, 1, WorkerFaultKind::Kill, 10)
            .with(0, 2, WorkerFaultKind::Kill, 10)
            .with(0, 3, WorkerFaultKind::Kill, 10);
        let mut sup = Supervisor::new(cfg);
        let doomed = JobSpec {
            id: "doomed".into(),
            tenant: "alice".into(),
            cfg: job_cfg(30, 100, 31),
            world: dense_world(5),
            tasks: 1,
            submit_at_ns: 0,
        };
        // Arrives after the doomed job has consumed the three faulted
        // attempt slots — faults key on (worker, attempt), so an early
        // neighbour would catch one of the scheduled kills itself.
        let healthy = JobSpec {
            id: "healthy".into(),
            tenant: "bob".into(),
            cfg: job_cfg(31, 100, 32),
            world: dense_world(5),
            tasks: 1,
            submit_at_ns: 20_000_000_000,
        };
        let mut specs = Vec::new();
        for s in [doomed, healthy] {
            sup.submit(s.clone()).expect("valid");
            specs.push(s);
        }
        (specs, sup.run())
    };
    let (specs, report) = run("a");
    assert_eq!(report.jobs[0].outcome, JobOutcome::Degraded);
    assert_eq!(report.jobs[0].restarts, 3);
    assert_eq!(report.counters.jobs_degraded, 1);
    assert_eq!(report.jobs[1].outcome, JobOutcome::Completed);
    assert_eq!(
        report.jobs[1].results,
        solo_results(&specs[1], report.jobs[1].per_task_pps),
        "a neighbour's crash loop must not perturb a healthy job"
    );
    let (_, again) = run("b");
    assert_eq!(report_bytes(&report), report_bytes(&again));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The restart backoff curve is monotone non-decreasing in the
    /// failure count and stays within `[BACKOFF_BASE_NS, BACKOFF_CAP_NS]`
    /// — the two properties that make "requeue with backoff" converge
    /// instead of thrash or overflow.
    #[test]
    fn backoff_is_monotone_and_capped(failures in 1u32..=512) {
        let here = backoff_delay_ns(failures);
        let next = backoff_delay_ns(failures + 1);
        prop_assert!(next >= here, "backoff regressed: f={failures} {here} -> {next}");
        prop_assert!(here <= BACKOFF_CAP_NS, "f={failures}: {here} above the cap");
        prop_assert!(here >= BACKOFF_BASE_NS, "f={failures}: {here} under base");
        // Far beyond the doubling range the curve is pinned to the cap,
        // never wrapped to something small.
        prop_assert_eq!(backoff_delay_ns(200), BACKOFF_CAP_NS);
    }
}

proptest! {
    // Every case runs real scans; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A job whose first attempt dies at an arbitrary worker-event
    /// ordinal — any fault kind, landing anywhere from the first NIC
    /// call to past the end of the walk — always converges to a
    /// terminal outcome, and when that outcome is `Completed` the
    /// merged results are byte-identical to the uninterrupted run.
    #[test]
    fn job_killed_at_any_ordinal_converges(at in 1u64..=80, kind_idx in 0usize..3) {
        let kind = [WorkerFaultKind::Kill, WorkerFaultKind::Panic, WorkerFaultKind::Stall]
            [kind_idx];
        let dir = test_dir(&format!("prop-{kind_idx}-{at}"));
        let mut cfg = SupervisorConfig::new(1, 1_000_000, dir);
        cfg.worker_faults = WorkerFaultPlan::none().with(0, 1, kind, at);
        let mut sup = Supervisor::new(cfg);
        let spec = JobSpec {
            id: format!("prop-{kind_idx}-{at}"),
            tenant: "t".into(),
            cfg: job_cfg(40, 100, 7 + at),
            world: dense_world(5),
            tasks: 1,
            submit_at_ns: 0,
        };
        sup.submit(spec.clone()).expect("valid");
        let report = sup.run();
        let job = &report.jobs[0];
        match job.outcome {
            JobOutcome::Completed => {
                prop_assert_eq!(
                    &job.results,
                    &solo_results(&spec, job.per_task_pps),
                    "fault {:?}@{} left a visible scar", kind, at
                );
            }
            JobOutcome::Degraded => {
                // Also terminal: the breaker parked it rather than
                // crash-looping. A single scheduled fault cannot trip a
                // breaker_limit of 3, so this arm is unreachable here —
                // but the property is "terminal", not "completed".
                prop_assert!(report.counters.jobs_degraded >= 1);
            }
        }
        // The single scheduled fault produced at most one restart.
        prop_assert!(job.restarts <= 1, "restarts {} for one fault", job.restarts);
    }
}
