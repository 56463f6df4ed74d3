//! Integration: the four output streams (§5 "Data, Metadata, and Logs")
//! stay separate, schema-stable, and machine-parseable.

use std::net::Ipv4Addr;
use zmap::core::log::{Level, Logger};
use zmap::core::output::{OutputModule, SCHEMA};
use zmap::prelude::*;
use zmap_netsim::loss::LossModel;

fn run_with_logger(logger: Logger) -> ScanSummary {
    let net = SimNet::new(WorldConfig {
        seed: 14,
        model: ServiceModel::dense(&[80]),
        loss: LossModel::NONE,
        ..WorldConfig::default()
    });
    let src = Ipv4Addr::new(192, 0, 2, 3);
    let mut cfg = ScanConfig::new(src);
    cfg.allowlist_prefix(Ipv4Addr::new(88, 1, 2, 0), 24);
    cfg.apply_default_blocklist = false;
    cfg.rate_pps = 128; // 2 virtual seconds of sending → status samples
    cfg.cooldown_secs = 1;
    zmap::core::Scanner::with_logger(cfg, net.transport(src), logger)
        .unwrap()
        .run()
}

#[test]
fn all_four_streams_are_populated_and_distinct() {
    let logger = Logger::memory(Level::Debug);
    let summary = run_with_logger(logger.clone());

    // Stream 1: data records.
    assert_eq!(summary.results.len(), 256);

    // Stream 2: logs, leveled, human-oriented.
    let logs = logger.lines();
    assert!(logs.iter().any(|(l, m)| *l == Level::Info && m.contains("scan configured")));

    // Stream 3: real-time status samples at 1 Hz of virtual time.
    assert!(summary.status.len() >= 2, "{} samples", summary.status.len());
    for s in &summary.status {
        assert!(s.send_rate <= 256.0 + 1.0);
    }

    // Stream 4: machine-readable metadata.
    let v: serde_json::Value = serde_json::from_str(&summary.metadata.to_json()).unwrap();
    assert_eq!(v["counters"]["unique_successes"], 256);
    // Data never leaks into metadata and vice versa: metadata has no
    // per-host records.
    assert!(v.get("results").is_none());
}

#[test]
fn output_schema_is_stable_across_formats() {
    let logger = Logger::null();
    let summary = run_with_logger(logger);
    let r = &summary.results[0];

    // CSV columns must be exactly the declared schema.
    let mut csv = OutputModule::new(OutputFormat::Csv, Vec::new());
    csv.record(r).unwrap();
    let text = String::from_utf8(csv.finish().unwrap()).unwrap();
    let header: Vec<&str> = text.lines().next().unwrap().split(',').collect();
    let declared: Vec<&str> = SCHEMA.iter().map(|&(n, _)| n).collect();
    assert_eq!(header, declared);

    // JSONL keys must be exactly the declared schema (static types, no
    // dynamic keys — the §5 lesson).
    let mut jsonl = OutputModule::new(OutputFormat::JsonLines, Vec::new());
    jsonl.record(r).unwrap();
    let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let v: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let mut keys: Vec<&str> = v.as_object().unwrap().keys().map(|s| s.as_str()).collect();
    keys.sort_unstable();
    let mut declared_sorted = declared.clone();
    declared_sorted.sort_unstable();
    assert_eq!(keys, declared_sorted);

    // Field types are single and well-defined.
    assert!(v["ts_ns"].is_u64());
    assert!(v["saddr"].is_string());
    assert!(v["sport"].is_u64());
    assert!(v["classification"].is_string());
    assert!(v["ttl"].is_u64());
    assert!(v["success"].is_boolean());
}

#[test]
fn status_stream_reports_progress_monotonically() {
    let summary = run_with_logger(Logger::null());
    let mut prev_sent = 0;
    for s in &summary.status {
        assert!(s.counters.sent >= prev_sent, "sent must be monotone");
        prev_sent = s.counters.sent;
        assert!(s.percent_complete <= 100.0 + 1e-9);
    }
    assert!(summary.status.last().unwrap().percent_complete > 99.0);
}
