//! Golden-snapshot harness: a fixed seed×config matrix runs through
//! both engines and every byte of the four output streams plus the
//! metrics dump is compared against snapshots checked into
//! `tests/golden/`. Any behavior drift — an extra trace event, a
//! reordered CSV row, a histogram bucket moving — fails here with the
//! offending section named, which is exactly the class of regression
//! per-field assertions let through.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! git diff tests/golden/   # review the drift before committing it
//! ```
//!
//! On mismatch the actual bytes land in `target/golden-actual/<name>.txt`
//! so CI can upload them as an artifact for offline diffing.

use std::net::Ipv4Addr;
use std::path::PathBuf;
use zmap::prelude::*;
use zmap_core::log::{Level, Logger};
use zmap_core::output::OutputModule;
use zmap_core::parallel::run_parallel;
use zmap_netsim::loss::LossModel;

fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        model: ServiceModel::default(),
        loss: LossModel::NONE,
        faults: FaultPlan::none(),
        ..WorldConfig::default()
    }
}

/// Renders results as the CSV data stream (stream #1).
fn data_section(results: &[zmap_core::output::ScanResult]) -> String {
    let mut out = OutputModule::new(OutputFormat::Csv, Vec::new());
    for r in results {
        out.record(r).expect("Vec sink never fails");
    }
    String::from_utf8(out.finish().expect("Vec sink never fails")).expect("csv is utf8")
}

/// One snapshot: named sections, each a byte-exact stream.
fn render<S: AsRef<str>>(sections: &[(S, String)]) -> String {
    let mut s = String::new();
    for (name, body) in sections {
        s.push_str(&format!("== {} ==\n", name.as_ref()));
        s.push_str(body);
        if !body.ends_with('\n') {
            s.push('\n');
        }
    }
    s
}

/// The "metrics (json)" section: the registry dump the metadata
/// document folds in (histograms, trace, RTT sampling rate).
fn metrics_section(md: &zmap_core::ScanMetadata) -> String {
    serde_json::to_string(&MetricsSnapshot {
        histograms: md.histograms.clone(),
        trace: md.trace.clone(),
        rtt_sample_one_in: md.rtt_sample_one_in,
    })
    .expect("metrics serialize")
}

/// The "counters" section of the threaded-engine snapshots.
fn counters_section(c: &zmap_core::metadata::Counters) -> String {
    format!(
        "sent={} validated={} dups={} successes={} retries={} sendto_failures={} corrupted={} clean={}\n",
        c.sent,
        c.responses_validated,
        c.duplicates_suppressed,
        c.unique_successes,
        c.send_retries,
        c.sendto_failures,
        c.responses_corrupted,
        c.shutdown_clean,
    )
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `actual` against the checked-in snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {}: {e}; run UPDATE_GOLDEN=1 cargo test --test golden_outputs", path.display())
    });
    if expected != actual {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-actual");
        std::fs::create_dir_all(&dir).expect("create golden-actual dir");
        let actual_path = dir.join(format!("{name}.txt"));
        std::fs::write(&actual_path, actual).expect("write actual snapshot");
        // Name the first diverging section + line for a readable failure.
        let mut at = "end of file".to_string();
        let mut section = "?".to_string();
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if let Some(s) = e.strip_prefix("== ") {
                section = s.trim_end_matches(" ==").to_string();
            }
            if e != a {
                at = format!("line {} (section {section}):\n  expected: {e}\n  actual:   {a}", i + 1);
                break;
            }
        }
        panic!(
            "golden snapshot {name} drifted at {at}\nfull actual written to {}\n\
             if the change is intentional: UPDATE_GOLDEN=1 cargo test --test golden_outputs",
            actual_path.display()
        );
    }
}

/// Runs the single-threaded engine and snapshots all five sections:
/// data, logs, status, metadata, metrics.
fn scan_and_snapshot(name: &str, mutate: impl FnOnce(&mut ScanConfig)) {
    let src = Ipv4Addr::new(192, 0, 2, 9);
    let net = SimNet::new(world_cfg(5));
    let mut cfg = ScanConfig::new(src);
    cfg.apply_default_blocklist = false;
    cfg.seed = 3;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;
    mutate(&mut cfg);
    let logger = Logger::memory(Level::Debug);
    let summary = Scanner::with_logger(cfg, net.transport(src), logger.clone())
        .expect("golden config is valid")
        .run();
    assert!(!summary.killed, "golden scans are fault-free");

    let logs = logger
        .lines()
        .iter()
        .map(|(lvl, m)| format!("{lvl:?} {m}\n"))
        .collect::<String>();
    let status = summary
        .status
        .iter()
        .map(|s| serde_json::to_string(s).expect("status serializes") + "\n")
        .collect::<String>();
    let actual = render(&[
        ("data (csv)", data_section(&summary.results)),
        ("logs", logs),
        ("status (json)", status),
        ("metadata (json)", summary.metadata.to_json()),
        ("metrics (json)", metrics_section(&summary.metadata)),
    ]);
    check_golden(name, &actual);
}

#[test]
fn golden_tcp_single_port() {
    scan_and_snapshot("tcp80_24", |cfg| {
        cfg.allowlist_prefix(Ipv4Addr::new(81, 40, 7, 0), 24);
    });
}

#[test]
fn golden_tcp_multiport_windowed() {
    scan_and_snapshot("tcp_multiport_25", |cfg| {
        cfg.allowlist_prefix(Ipv4Addr::new(81, 40, 8, 0), 25);
        cfg.ports = vec![80, 443];
        cfg.dedup = DedupMethod::Window(1000);
        cfg.report_failures = true;
    });
}

#[test]
fn golden_icmp_echo() {
    scan_and_snapshot("icmp_24", |cfg| {
        cfg.allowlist_prefix(Ipv4Addr::new(81, 40, 9, 0), 24);
        cfg.probe = ProbeKind::IcmpEcho;
    });
}

/// The IPv6 scenario shared by the v6 golden snapshots: two prefixes
/// with different procedural host patterns, partial density in one so
/// the snapshot pins misses as well as hits.
const V6_PREFIXES: &str = "2001:db8:a::/48 pattern=low bits=6 density=1.0\n\
                           2001:db8:b::/48 pattern=eui64 bits=5 density=0.5\n";

/// The v6 counterpart of [`scan_and_snapshot`]: same five sections, same
/// byte-exactness, scanned over the procedural v6 population.
fn scan_and_snapshot_v6(name: &str, mutate: impl FnOnce(&mut ScanConfig)) {
    let src = Ipv4Addr::new(192, 0, 2, 9);
    let mut wc = world_cfg(5);
    wc.v6 = Some(
        V6Population::from_prefix_list(V6_PREFIXES, vec![443]).expect("golden prefixes parse"),
    );
    let net = SimNet::new(wc);
    let mut cfg = ScanConfig::new(src);
    cfg.ipv6 = Some(Ipv6Config {
        source_ip: "2001:db8:ffff::1".parse().unwrap(),
        prefix_list: V6_PREFIXES.into(),
    });
    cfg.ports = vec![443];
    cfg.seed = 3;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;
    mutate(&mut cfg);
    let logger = Logger::memory(Level::Debug);
    let summary = Scanner::with_logger(cfg, net.transport(src), logger.clone())
        .expect("golden config is valid")
        .run();
    assert!(!summary.killed, "golden scans are fault-free");

    let logs = logger
        .lines()
        .iter()
        .map(|(lvl, m)| format!("{lvl:?} {m}\n"))
        .collect::<String>();
    let status = summary
        .status
        .iter()
        .map(|s| serde_json::to_string(s).expect("status serializes") + "\n")
        .collect::<String>();
    let actual = render(&[
        ("data (csv)", data_section(&summary.results)),
        ("logs", logs),
        ("status (json)", status),
        ("metadata (json)", summary.metadata.to_json()),
        ("metrics (json)", metrics_section(&summary.metadata)),
    ]);
    check_golden(name, &actual);
}

#[test]
fn golden_tcp_over_v6() {
    scan_and_snapshot_v6("tcp443_v6", |_| {});
}

#[test]
fn golden_icmpv6_echo() {
    scan_and_snapshot_v6("icmpv6_echo_v6", |cfg| {
        cfg.probe = ProbeKind::IcmpEcho;
    });
}

/// The threaded engine: timestamps of *status samples* depend on thread
/// scheduling, so the snapshot holds the scheduling-independent parts —
/// the sorted result set, the final counters, and the metrics dump
/// (histogram merges are order-independent bucket adds; the recorded
/// multiset is fixed by the per-thread interleaved schedule).
#[test]
fn golden_parallel_two_threads() {
    let src = Ipv4Addr::new(192, 0, 2, 9);
    let transport = SimNet::new(world_cfg(5)).transport(src);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(81, 41, 0, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.seed = 3;
    cfg.subshards = 2;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;
    let summary = run_parallel(&cfg, &transport).expect("golden config is valid");
    assert!(!summary.killed, "golden scans are fault-free");

    let mut results = summary.results.clone();
    results.sort_by_key(|r| (r.saddr, r.sport, r.ts_ns));
    let actual = render(&[
        ("data (csv, sorted)", data_section(&results)),
        ("counters", counters_section(&summary.metadata.counters)),
        ("metrics (json)", metrics_section(&summary.metadata)),
    ]);
    check_golden("parallel_2t_24", &actual);
}

/// The threaded engine as the front-ends select it (`cfg.tx_pipeline`):
/// the scheduling-independent streams — sorted data and counters, no
/// metrics dump — must match the checked-in snapshot.
#[test]
fn golden_parallel_tx_pipeline() {
    let src = Ipv4Addr::new(192, 0, 2, 9);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(81, 41, 0, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.seed = 3;
    cfg.subshards = 2;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;

    let snapshot = |cfg: &ScanConfig| {
        let transport = SimNet::new(world_cfg(5)).transport(src);
        let summary = run_parallel(cfg, &transport).expect("golden config is valid");
        assert!(!summary.killed, "golden scans are fault-free");
        let mut results = summary.results.clone();
        results.sort_by_key(|r| (r.saddr, r.sport, r.ts_ns));
        render(&[
            ("data (csv, sorted)", data_section(&results)),
            ("counters", counters_section(&summary.metadata.counters)),
        ])
    };

    cfg.tx_pipeline = true;
    check_golden("parallel_tx_pipeline_24", &snapshot(&cfg));
}

/// The supervisor under `tests/supervisor_stress.rs`'s headline scenario:
/// 24 jobs of 6 tenants on 4 workers, with two kills, a panic, a stall
/// and a third kill. Pins the status stream, every job's report and
/// merged results, the counters and the metrics dump.
#[test]
fn golden_supervisor_stress() {
    let dir = std::env::temp_dir().join("zmap-golden-supervisor-stress");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sup_cfg = SupervisorConfig::new(4, 1_000_000, dir);
    sup_cfg.worker_faults = WorkerFaultPlan::none()
        .with(0, 1, WorkerFaultKind::Kill, 20)
        .with(0, 3, WorkerFaultKind::Kill, 25)
        .with(1, 2, WorkerFaultKind::Panic, 12)
        .with(2, 1, WorkerFaultKind::Stall, 10)
        .with(3, 2, WorkerFaultKind::Kill, 18);
    let mut sup = Supervisor::new(sup_cfg);
    for j in 0..24u8 {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
        cfg.allowlist_prefix(Ipv4Addr::new(10, 70, j, 0), 26);
        cfg.apply_default_blocklist = false;
        cfg.ports = vec![80];
        cfg.rate_pps = 100;
        cfg.cooldown_secs = 1;
        cfg.seed = 100 + u64::from(j);
        cfg.batch = 4;
        let world = WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        };
        sup.submit(JobSpec {
            id: format!("job-{j:02}"),
            tenant: format!("tenant-{}", j % 6),
            cfg,
            world,
            tasks: 1 + u32::from(j) % 2,
            submit_at_ns: u64::from(j) * 25_000_000,
        })
        .expect("stress specs are valid");
    }
    let report = sup.run();

    let events = report
        .events
        .iter()
        .map(|e| serde_json::to_string(e).expect("event serializes") + "\n")
        .collect::<String>();
    let mut sections = vec![("events (json)".to_string(), events)];
    for job in &report.jobs {
        let header = format!(
            "outcome={:?} granted_pps={} per_task_pps={} tasks={} restarts={} migrations={}\n",
            job.outcome, job.granted_pps, job.per_task_pps, job.tasks, job.restarts, job.migrations,
        );
        sections.push((
            format!("job {} of {} (csv)", job.id, job.tenant),
            header + &data_section(&job.results),
        ));
    }
    sections.push((
        "counters (json)".to_string(),
        serde_json::to_string(&report.counters).expect("counters serialize"),
    ));
    sections.push((
        "metrics (json)".to_string(),
        serde_json::to_string(&report.metrics).expect("metrics serialize"),
    ));
    sections.push(("finished_at_ns".to_string(), report.finished_at_ns.to_string()));
    check_golden("supervisor_stress", &render(&sections));
}
