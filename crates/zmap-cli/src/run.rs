//! Scan orchestration: wire the four output streams and run.

use crate::args::CliOptions;
use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use zmap_core::checkpoint::{CheckpointPolicy, CheckpointState};
use zmap_core::log::{Level, Logger};
use zmap_core::output::OutputModule;
use zmap_core::monitor::StatusUpdate;
use zmap_core::transport::SimNet;
use zmap_core::{PreparedScan, RunOptions, ScanSummary};
use zmap_netsim::{FaultPlan, ServiceModel, V6Population, WorldConfig};

/// Exit code for a scan killed mid-flight (crash injection or a stall the
/// watchdog tripped). The journal at `--checkpoint` is resumable.
pub const EXIT_KILLED: i32 = 3;

/// Runs the scan described by `opts`. Returns the process exit code.
pub fn run_scan(mut opts: CliOptions) -> io::Result<i32> {
    // Supervisor mode is a different process shape (many jobs, per-job
    // streams); hand off before any single-scan setup.
    if let Some(spec_path) = opts.serve_path.clone() {
        return crate::serve::run_serve(&opts, &spec_path);
    }
    // Build the simulated Internet this scan runs against.
    let mut model = ServiceModel::default();
    if let Some(f) = opts.sim_live_fraction {
        model.live_fraction = f.clamp(0.0, 1.0);
    }
    let faults = match &opts.fault_plan_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            match FaultPlan::from_json_str(&text) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("ERROR invalid fault plan {path}: {e}");
                    return Ok(2);
                }
            }
        }
        None => FaultPlan::none(),
    };
    // IPv6 mode: one read of the prefix list feeds both sides — the scan
    // config (target walk + config digest; parsing set its source) and the
    // simulated world (the procedural v6 population the scan probes).
    let v6_pop = match (opts.config.ipv6.as_mut(), &opts.prefix_list_path) {
        (Some(v6), Some(path)) => {
            v6.prefix_list = std::fs::read_to_string(path)?;
            match V6Population::from_prefix_list(&v6.prefix_list, opts.config.ports.clone()) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("ERROR invalid prefix list {path}: {e}");
                    return Ok(2);
                }
            }
        }
        _ => None,
    };
    // Crash tolerance: build the checkpoint policy and, on --resume, load
    // and verify the journal before the scanner exists. Journal problems
    // (missing file, corruption, a different scan's journal) are
    // configuration errors: exit 2, nothing sent.
    let checkpoint = opts.checkpoint_path.as_ref().map(|p| {
        CheckpointPolicy::new(PathBuf::from(p))
            .with_interval_ns(opts.checkpoint_interval_secs.saturating_mul(1_000_000_000))
    });
    let journal = if opts.resume {
        let path = opts
            .checkpoint_path
            .as_ref()
            .expect("validated: --resume requires --checkpoint");
        match CheckpointState::load(std::path::Path::new(path)) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("ERROR cannot resume from {path}: {e}");
                return Ok(2);
            }
        }
    } else {
        None
    };

    let world = WorldConfig {
        seed: opts.sim_seed,
        model,
        faults,
        v6: v6_pop,
        ..WorldConfig::default()
    };
    // Stream 1 opens after the engine has accepted the config (building
    // one sends nothing) and before the first probe: a rejected config
    // leaves an existing `-o` file alone, and an unwritable `-o` costs
    // nothing but its error, not a whole scan.
    let open_output = || -> io::Result<OutputModule<Box<dyn Write>>> {
        let sink: Box<dyn Write> = if opts.output_path == "-" {
            Box::new(io::stdout())
        } else {
            Box::new(File::create(&opts.output_path)?)
        };
        Ok(OutputModule::new(opts.format, sink))
    };

    // One logger and one prepared scan (fresh or resumed) ahead of the
    // engine choice: both drivers log to stream #2 and refuse a bad
    // config or journal the same way.
    let logger = Logger::writer(
        if opts.verbose { Level::Debug } else { Level::Info },
        Box::new(io::stderr()),
    );
    let scan = match &journal {
        Some(j) => PreparedScan::resume(opts.config.clone(), j, logger).map_err(|e| e.to_string()),
        None => PreparedScan::new(opts.config.clone(), logger)
            .map_err(|e| format!("invalid configuration: {e}")),
    };
    let scan = match scan {
        Ok(s) => s,
        Err(why) => {
            eprintln!("ERROR {why}");
            return Ok(2);
        }
    };
    let mut out = open_output()?;
    let run_opts = RunOptions { checkpoint, ..RunOptions::default() };
    let transport = SimNet::new(world).transport(opts.config.source_ip);
    // --tx-pipeline selects the threaded driver: one send thread per lane
    // walks, renders and flushes its subshard; this thread receives.
    let summary = if opts.config.tx_pipeline {
        let mut summary = scan.run(&transport, run_opts);
        // Receive order depends on thread interleaving; the output
        // contract does not. Canonical order makes pipelined output
        // byte-comparable across runs and against the inline driver
        // — and is why this branch holds its rows until the scan ends.
        summary
            .results
            .sort_by_key(|r| (r.ts_ns, r.saddr, r.sport));
        for r in &summary.results {
            out.record(r)?;
        }
        summary
    } else {
        // Rows reach the data stream in arrival order while the scan
        // runs; none are held.
        scan.on(&transport).run_into(run_opts, &mut out)
    };
    // A killed scan keeps every row it received before it died.
    out.finish()?;
    emit_streams(&opts, &summary)
}

/// Writes streams 3 (status) and 4 (metadata) and maps the kill flag to
/// the exit code — whichever engine produced the summary.
fn emit_streams(opts: &CliOptions, summary: &ScanSummary) -> io::Result<i32> {
    // Stream 3: status (replayed at completion in this offline build).
    if !opts.quiet {
        for s in &summary.status {
            eprintln!("{}", status_line(s, opts.status_json));
        }
    }

    // Stream 4: metadata.
    let metadata_json = summary.metadata.to_json();
    match &opts.metadata_path {
        Some(path) => {
            let mut f = File::create(path)?;
            writeln!(f, "{metadata_json}")?;
        }
        None => eprintln!("{metadata_json}"),
    }

    // All four streams are flushed above even when the scan died: the
    // post-mortem is complete, but the exit code says the scan is not.
    if summary.killed {
        eprintln!("ERROR scan killed mid-flight; resume with --resume");
        return Ok(EXIT_KILLED);
    }
    Ok(0)
}

/// Renders one status sample. The JSON form serialises the whole
/// [`StatusUpdate`] (every counter, every sample), so machine consumers
/// never depend on the elision rules of the human-readable form.
///
/// Every counter is rendered in the text arm — quiet segments only when
/// nonzero — so nothing the metadata reports is invisible while a scan
/// runs (`every_counter_reaches_the_text_status_line` walks
/// `CounterId::ALL` to hold a new counter to that).
fn status_line(s: &StatusUpdate, json: bool) -> String {
    if json {
        return serde_json::to_string(s)
            .unwrap_or_else(|e| format!("{{\"error\":\"status serialization: {e}\"}}"));
    }
    let c = &s.counters;
    let mut line = format!(
        "{}s: sent {}/{} ({:.0} pps), {} recv, {} results, {} dups, {:.1}% done",
        s.t_secs,
        c.sent,
        c.targets_total,
        s.send_rate,
        c.responses_validated,
        c.unique_successes,
        c.duplicates_suppressed,
        s.percent_complete
    );
    if c.unique_failures > 0 {
        line.push_str(&format!(", {} failures", c.unique_failures));
    }
    if c.responses_discarded > 0 {
        line.push_str(&format!(", {} discarded", c.responses_discarded));
    }
    if c.send_retries > 0 || c.sendto_failures > 0 {
        line.push_str(&format!(
            ", {} retries ({} failed)",
            c.send_retries, c.sendto_failures
        ));
    }
    if c.responses_corrupted > 0 {
        line.push_str(&format!(", {} corrupt", c.responses_corrupted));
    }
    if c.checkpoints_written > 0 {
        line.push_str(&format!(", {} ckpt", c.checkpoints_written));
    }
    if c.resume_count > 0 {
        line.push_str(&format!(", resumed x{}", c.resume_count));
    }
    if c.watchdog_stalls > 0 {
        line.push_str(&format!(", {} stalls", c.watchdog_stalls));
    }
    if c.jobs_admitted > 0 {
        line.push_str(&format!(", {} jobs", c.jobs_admitted));
    }
    if c.worker_restarts > 0 {
        line.push_str(&format!(", {} restarts", c.worker_restarts));
    }
    if c.jobs_degraded > 0 {
        line.push_str(&format!(", {} degraded", c.jobs_degraded));
    }
    if c.migrations > 0 {
        line.push_str(&format!(", {} migrations", c.migrations));
    }
    if c.shutdown_clean > 0 {
        line.push_str(", clean shutdown");
    }
    line
}

#[cfg(test)]
mod tests {
    use crate::args::parse_args;
    use zmap_core::metadata::Counters;
    use zmap_core::CounterId;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn status_line_json_carries_every_counter() {
        let s = super::StatusUpdate {
            t_secs: 2,
            send_rate: 5.0,
            percent_complete: 100.0,
            counters: Counters {
                targets_total: 10,
                sent: 10,
                responses_validated: 4,
                responses_discarded: 1,
                duplicates_suppressed: 1,
                unique_successes: 3,
                unique_failures: 1,
                send_retries: 2,
                sendto_failures: 1,
                responses_corrupted: 1,
                checkpoints_written: 1,
                shutdown_clean: 1,
                ..Counters::default()
            },
        };
        let line = super::status_line(&s, true);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        // Every field the text form may elide is always present here.
        for key in [
            "t_secs",
            "targets_total",
            "sent",
            "send_rate",
            "responses_validated",
            "responses_discarded",
            "duplicates_suppressed",
            "unique_successes",
            "unique_failures",
            "send_retries",
            "sendto_failures",
            "responses_corrupted",
            "checkpoints_written",
            "resume_count",
            "watchdog_stalls",
            "shutdown_clean",
            "jobs_admitted",
            "worker_restarts",
            "jobs_degraded",
            "migrations",
            "percent_complete",
        ] {
            assert!(!v[key].is_null(), "missing {key} in {line}");
        }
        assert_eq!(v["sent"], 10);
        // The human-readable form still renders the same sample.
        let text = super::status_line(&s, false);
        assert!(text.contains("sent 10/10"), "{text}");
        assert!(text.contains("clean shutdown"), "{text}");
    }

    #[test]
    fn every_counter_reaches_the_text_status_line() {
        // A counter added to the table must show up on the operator's
        // status line, not only in the metadata document.
        let mut s = super::StatusUpdate {
            t_secs: 1,
            send_rate: 0.0,
            percent_complete: 0.0,
            counters: Counters::default(),
        };
        let quiet = super::status_line(&s, false);
        for &id in CounterId::ALL {
            *s.counters.get_mut(id) = 7;
            let line = super::status_line(&s, false);
            let name = id.name();
            assert_ne!(line, quiet, "{name} is missing from the text status line");
            *s.counters.get_mut(id) = 0;
        }
    }

    #[test]
    fn end_to_end_scan_writes_outputs() {
        let dir = std::env::temp_dir().join("zmap-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("results.csv");
        let md = dir.join("meta.json");
        let opts = parse_args(&args(&format!(
            "--subnet 11.22.0.0/24 -p 80 -r 100000 --seed 3 --sim-seed 5 \
             --sim-live-fraction 1.0 --cooldown-secs 1 -O csv -q \
             -o {} --metadata-file {}",
            out.display(),
            md.display()
        )))
        .unwrap();
        let code = super::run_scan(opts).unwrap();
        assert_eq!(code, 0);
        let csv = std::fs::read_to_string(&out).unwrap();
        assert!(csv.starts_with("ts_ns,saddr,sport,"), "{csv}");
        // live-fraction 1.0: port 80 open on ~25% of hosts (default model).
        let rows = csv.lines().count() - 1;
        assert!(rows > 20 && rows < 150, "rows={rows}");
        let meta: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
        assert_eq!(meta["counters"]["sent"], 256);
    }

    #[test]
    fn fault_plan_scan_surfaces_counters_in_metadata() {
        let dir = std::env::temp_dir().join("zmap-cli-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        std::fs::write(
            &plan,
            r#"{"send_failure_fraction": 0.3, "duplicate_fraction": 0.10}"#,
        )
        .unwrap();
        let out = dir.join("results.txt");
        let md = dir.join("meta.json");
        let opts = parse_args(&args(&format!(
            "--subnet 11.23.0.0/24 -p 80 -r 100000 --seed 3 --sim-seed 5 \
             --sim-live-fraction 1.0 --cooldown-secs 1 --retries 6 -q \
             --fault-plan {} -o {} --metadata-file {}",
            plan.display(),
            out.display(),
            md.display()
        )))
        .unwrap();
        let code = super::run_scan(opts).unwrap();
        assert_eq!(code, 0);
        let meta: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
        // A generous retry budget absorbs every transient failure.
        assert_eq!(meta["counters"]["sent"], 256);
        assert!(meta["counters"]["send_retries"].as_u64().unwrap() > 0);
        assert_eq!(meta["counters"]["sendto_failures"], 0);
        assert!(meta["counters"]["duplicates_suppressed"].as_u64().unwrap() > 0);
        assert_eq!(meta["config"]["max_retries"], 6);
    }

    #[test]
    fn kill_then_resume_finishes_the_scan() {
        let dir = std::env::temp_dir().join("zmap-cli-killresume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("kill.json");
        std::fs::write(&plan, r#"{"kill_at": 150}"#).unwrap();
        let ckpt = dir.join("scan.ckpt");
        let out1 = dir.join("attempt1.csv");
        let out2 = dir.join("attempt2.csv");
        let md = dir.join("meta.json");
        let _ = std::fs::remove_file(&ckpt);

        // Rate 1000 pps: sends and response deliveries interleave, so the
        // kill lands after some results exist (the CSV gets its header).
        let base = "--subnet 11.24.0.0/24 -p 80 -r 1000 --seed 11 --sim-seed 7 \
                    --sim-live-fraction 1.0 --cooldown-secs 1 -O csv -q";
        let opts = parse_args(&args(&format!(
            "{base} --fault-plan {} --checkpoint {} -o {}",
            plan.display(),
            ckpt.display(),
            out1.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), super::EXIT_KILLED);
        // The killed attempt still produced well-formed output...
        let csv1 = std::fs::read_to_string(&out1).unwrap();
        assert!(csv1.starts_with("ts_ns,saddr,sport,"), "{csv1}");
        // ...and left a resumable (incomplete) journal behind.
        let j = zmap_core::checkpoint::CheckpointState::load(&ckpt).unwrap();
        assert!(!j.complete);

        // Resume against a fault-free world: the scan runs to completion.
        let opts = parse_args(&args(&format!(
            "{base} --checkpoint {} --resume -o {} --metadata-file {}",
            ckpt.display(),
            out2.display(),
            md.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), 0);
        let j = zmap_core::checkpoint::CheckpointState::load(&ckpt).unwrap();
        assert!(j.complete);
        let meta: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
        assert_eq!(meta["counters"]["resume_count"], 1);
        assert_eq!(meta["counters"]["shutdown_clean"], 1);
        // Cumulative sends across both attempts cover the /24 at least once.
        assert!(meta["counters"]["sent"].as_u64().unwrap() >= 256);
    }

    #[test]
    fn tx_pipeline_scan_is_deterministic_and_finds_the_same_hosts() {
        let dir = std::env::temp_dir().join("zmap-cli-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let seq_out = dir.join("seq.csv");
        let pipe_a = dir.join("pipe-a.csv");
        let pipe_b = dir.join("pipe-b.csv");
        let pipe_md = dir.join("pipe-meta.json");

        let base = "--subnet 11.26.0.0/24 -p 80 -r 100000 --seed 3 --sim-seed 5 \
                    --sim-live-fraction 1.0 --cooldown-secs 1 -O csv -q";
        let seq = parse_args(&args(&format!("{base} -o {}", seq_out.display()))).unwrap();
        assert_eq!(super::run_scan(seq).unwrap(), 0);

        // Same scan through the ring pipeline, twice: thread interleaving
        // must not leak into the data stream (exact byte-identity of
        // pipelined vs combined senders is pinned in zmap-core; the two
        // CLI engines pace sends differently, so here the contract is
        // determinism plus an identical result set).
        let pipe = format!("{base} --tx-pipeline --threads 2");
        let a = parse_args(&args(&format!(
            "{pipe} -o {} --metadata-file {}",
            pipe_a.display(),
            pipe_md.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(a).unwrap(), 0);
        let b = parse_args(&args(&format!("{pipe} -o {}", pipe_b.display()))).unwrap();
        assert_eq!(super::run_scan(b).unwrap(), 0);

        let csv_a = std::fs::read_to_string(&pipe_a).unwrap();
        let csv_b = std::fs::read_to_string(&pipe_b).unwrap();
        assert_eq!(csv_a, csv_b, "pipelined scan must replay byte-identically");

        // Pacing differs between the engines but the discovered hosts
        // (addr, port, classification, success) must not.
        let hosts = |csv: &str| -> std::collections::BTreeSet<String> {
            csv.lines()
                .skip(1)
                .map(|l| {
                    let mut f = l.split(',');
                    let _ts = f.next();
                    f.collect::<Vec<_>>().join(",")
                })
                .collect()
        };
        let seq_csv = std::fs::read_to_string(&seq_out).unwrap();
        assert_eq!(hosts(&seq_csv), hosts(&csv_a));

        let meta: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&pipe_md).unwrap()).unwrap();
        assert_eq!(meta["counters"]["sent"], 256);
        assert_eq!(meta["counters"]["shutdown_clean"], 1);
    }

    /// Was `args::tx_pipeline_rejects_multiple_probes_per_target`: the
    /// threaded engine dropped `--probes`, so the CLI refused the pair.
    #[test]
    fn tx_pipeline_sends_every_probe_of_a_multi_probe_scan() {
        let dir = std::env::temp_dir().join("zmap-cli-pipeline-probes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = "--subnet 11.27.0.0/24 -p 80 -r 100000 --seed 3 --sim-seed 5 \
                    --sim-live-fraction 1.0 --cooldown-secs 1 -O csv -q --probes 2 --threads 1";
        let run = |name: &str, engine: &str| {
            let (out, md) = (dir.join(format!("{name}.csv")), dir.join(format!("{name}.json")));
            let opts = parse_args(&args(&format!(
                "{base} {engine} -o {} --metadata-file {}",
                out.display(),
                md.display()
            )))
            .unwrap();
            assert_eq!(super::run_scan(opts).unwrap(), 0);
            let meta: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
            assert_eq!(meta["counters"]["targets_total"], 256);
            assert_eq!(meta["counters"]["sent"], 512, "{name}: two probes per target");
            let mut rows: Vec<String> =
                std::fs::read_to_string(&out).unwrap().lines().map(String::from).collect();
            rows.sort();
            rows
        };
        let seq = run("seq", "");
        assert!(seq.len() > 20, "the scan found hosts: {}", seq.len());
        assert_eq!(run("pipe", "--tx-pipeline"), seq, "one lane is one schedule");
    }

    #[test]
    fn ipv6_scan_end_to_end() {
        let dir = std::env::temp_dir().join("zmap-cli-v6-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefixes = dir.join("v6.txt");
        std::fs::write(
            &prefixes,
            "2001:db8:a::/48 pattern=low bits=6 density=1.0\n",
        )
        .unwrap();
        let out = dir.join("results.csv");
        let md = dir.join("meta.json");
        let opts = parse_args(&args(&format!(
            "--ipv6 2001:db8:ffff::1 --prefix-list {} -p 443 -r 100000 --seed 9 \
             --sim-seed 5 --cooldown-secs 1 -O csv -q -o {} --metadata-file {}",
            prefixes.display(),
            out.display(),
            md.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), 0);
        let csv = std::fs::read_to_string(&out).unwrap();
        let rows: Vec<_> = csv.lines().skip(1).collect();
        // density=1.0: all 2^6 hosts answer on the open port.
        assert_eq!(rows.len(), 64, "{csv}");
        assert!(rows.iter().all(|l| l.contains("2001:db8:a:")), "{csv}");
        let meta: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
        assert_eq!(meta["counters"]["sent"], 64);
        assert_eq!(meta["counters"]["unique_successes"], 64);
        assert_eq!(meta["config"]["ipv6_source"], "2001:db8:ffff::1");
        assert!(meta["config"]["prefix_list"]
            .as_str()
            .unwrap()
            .contains("2001:db8:a::/48"));
    }

    #[test]
    fn malformed_prefix_list_is_a_config_error() {
        let dir = std::env::temp_dir().join("zmap-cli-badv6-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefixes = dir.join("bad.txt");
        std::fs::write(&prefixes, "not-a-prefix\n").unwrap();
        let opts = parse_args(&args(&format!(
            "--ipv6 2001:db8::1 --prefix-list {} -q",
            prefixes.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), 2);
    }

    #[test]
    fn resume_without_a_journal_is_a_config_error() {
        let dir = std::env::temp_dir().join("zmap-cli-noresume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("missing.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let opts = parse_args(&args(&format!(
            "--subnet 11.25.0.0/28 -q --checkpoint {} --resume",
            ckpt.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), 2);
    }

    #[test]
    fn malformed_fault_plan_is_a_config_error() {
        let dir = std::env::temp_dir().join("zmap-cli-badplan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("bad.json");
        std::fs::write(&plan, r#"{"duplicate_fraction": 2.5}"#).unwrap();
        let opts = parse_args(&args(&format!(
            "--subnet 11.23.0.0/28 -q --fault-plan {}",
            plan.display()
        )))
        .unwrap();
        assert_eq!(super::run_scan(opts).unwrap(), 2);
    }
}
