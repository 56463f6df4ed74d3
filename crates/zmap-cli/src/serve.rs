//! `--serve`: scan-as-a-service mode.
//!
//! Reads a job-spec JSON file, runs the [`zmap_core::Supervisor`] over
//! every job in it, and writes per-job data files (`job-<id>.<ext>`,
//! format from `-O`) and metadata files (`job-<id>.meta.json`) plus one
//! `supervisor.json` (counters, registry snapshot, final virtual clock)
//! into `--serve-output-dir`. Unless `--quiet`, the status stream goes to
//! stderr: one [`JobEvent`](zmap_core::JobEvent) object per line, in
//! virtual-time order.
//!
//! Exit codes: `0` every job completed, `4` at least one job degraded,
//! `2` the spec failed to parse or validate.
//!
//! The spec schema (`submit_ms` in integer milliseconds; `workers`
//! defaults to 4 and `capacity_pps` to 1 000 000, and both must be at
//! least 1). The recovery policy — breaker, backoff, quarantine,
//! checkpoint interval, watchdog — is fixed (DESIGN.md §10.4):
//!
//! ```json
//! {
//!   "workers": 4, "capacity_pps": 1000000,
//!   "worker_faults": { "entries": [{ "worker": 0, "attempt": 1, "kind": "kill", "at": 40 }] },
//!   "jobs": [
//!     { "id": "alpha", "tenant": "alice", "prefix": "11.30.0.0", "prefix_len": 24,
//!       "ports": [80], "rate_pps": 20000, "tasks": 2, "submit_ms": 0, "seed": 3,
//!       "sim_seed": 5, "cooldown_secs": 1, "live_fraction": 1.0, "probes": 1 }
//!   ]
//! }
//! ```
//!
//! Unknown keys are rejected.

use crate::args::CliOptions;
use serde_json::Value;
use std::fs::File;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use zmap_core::log::{Level, Logger};
use zmap_core::output::OutputModule;
use zmap_core::{JobSpec, OutputFormat, ScanConfig, Supervisor, SupervisorConfig};
use zmap_netsim::{WorkerFaultPlan, WorldConfig};

/// Runs supervisor mode. Returns the process exit code.
pub fn run_serve(opts: &CliOptions, spec_path: &str) -> io::Result<i32> {
    let text = std::fs::read_to_string(spec_path)?;
    let out_dir = PathBuf::from(opts.serve_output_dir.as_deref().unwrap_or("."));
    let supervisor = match build_supervisor(&text, &out_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ERROR invalid job spec {spec_path}: {e}");
            return Ok(2);
        }
    };
    std::fs::create_dir_all(&out_dir)?;

    let level = if opts.verbose { Level::Debug } else { Level::Info };
    let report = supervisor.run_with_logger(Logger::writer(level, Box::new(io::stderr())));

    // Per-job status stream (stream 3 of the supervised world): one JSON
    // object per lifecycle event, already in deterministic order.
    if !opts.quiet {
        for ev in &report.events {
            eprintln!("{}", serde_json::to_string(ev).map_err(io::Error::other)?);
        }
    }

    let ext = match opts.format {
        OutputFormat::Text => "txt",
        OutputFormat::Csv => "csv",
        OutputFormat::JsonLines => "jsonl",
    };
    for job in &report.jobs {
        let data = File::create(out_dir.join(format!("job-{}.{ext}", job.id)))?;
        let mut out = OutputModule::new(opts.format, Box::new(data));
        for r in &job.results {
            out.record(r)?;
        }
        out.finish()?;
        let meta = serde_json::json!({
            "id": (job.id.as_str()),
            "tenant": (job.tenant.as_str()),
            "outcome": (format!("{:?}", job.outcome)),
            "granted_pps": (job.granted_pps),
            "per_task_pps": (job.per_task_pps),
            "tasks": (job.tasks),
            "restarts": (job.restarts),
            "migrations": (job.migrations),
            "result_count": (job.results.len())
        });
        std::fs::write(out_dir.join(format!("job-{}.meta.json", job.id)), format!("{meta}\n"))?;
    }

    // Counters and MetricsSnapshot serialize themselves; splice their
    // JSON into the envelope rather than rebuilding them as Values.
    let counters = serde_json::to_string(&report.counters).map_err(io::Error::other)?;
    let metrics = serde_json::to_string(&report.metrics).map_err(io::Error::other)?;
    let envelope = format!(
        "{{\"finished_at_ns\":{},\"jobs\":{},\"counters\":{counters},\"metrics\":{metrics}}}\n",
        report.finished_at_ns,
        report.jobs.len()
    );
    std::fs::write(out_dir.join("supervisor.json"), envelope)?;

    if report.all_completed() {
        Ok(0)
    } else {
        eprintln!("ERROR at least one job degraded; see per-job metadata");
        Ok(4)
    }
}

/// Parses the spec text and builds a loaded supervisor.
fn build_supervisor(text: &str, out_dir: &Path) -> Result<Supervisor, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let mut cfg = SupervisorConfig::new(4, 1_000_000, out_dir.join("journals"));
    let mut jobs = None;
    fields(&v, |f| {
        match f.0 {
            "workers" => cfg.workers = f.u32()?,
            "capacity_pps" => cfg.capacity_pps = f.u64()?,
            "worker_faults" => cfg.worker_faults = WorkerFaultPlan::from_json_value(f.1)?,
            "jobs" => jobs = Some(f.read("an array", Value::as_array)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if cfg.workers == 0 || cfg.capacity_pps == 0 {
        let key = if cfg.workers == 0 { "workers" } else { "capacity_pps" };
        return Err(format!("{key:?} must be at least 1"));
    }
    let jobs = jobs.filter(|j| !j.is_empty()).ok_or("\"jobs\" must be a non-empty array")?;
    let mut supervisor = Supervisor::new(cfg);
    for (i, job) in jobs.iter().enumerate() {
        let spec = parse_job(job).map_err(|e| format!("jobs[{i}]: {e}"))?;
        supervisor.submit(spec).map_err(|e| format!("jobs[{i}]: {e}"))?;
    }
    Ok(supervisor)
}

/// Parses one entry of the `jobs` array into a [`JobSpec`].
fn parse_job(v: &Value) -> Result<JobSpec, String> {
    let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
    let mut world = WorldConfig { seed: 1, ..WorldConfig::default() };
    let (mut id, mut tenant, mut prefix, mut prefix_len, mut rate) = (None, None, None, None, None);
    let (mut tasks, mut submit_ms) = (1, 0);
    fields(v, |f| {
        match f.0 {
            "id" => id = Some(f.str()?.to_string()),
            "tenant" => tenant = Some(f.str()?.to_string()),
            "prefix" => prefix = Some(f.str()?.parse().map_err(|_| "\"prefix\" is not IPv4")?),
            "prefix_len" => prefix_len = Some(f.u64()?).filter(|&n| n <= 32),
            "ports" => {
                let ports = f.read("an array", Value::as_array)?.iter();
                cfg.ports = ports
                    .map(|p| p.as_u64().and_then(|n| u16::try_from(n).ok()))
                    .collect::<Option<_>>()
                    .filter(|list: &Vec<u16>| !list.is_empty())
                    .ok_or("\"ports\" must be a non-empty array of ports")?;
            }
            "rate_pps" => rate = Some(f.u64()?),
            "tasks" => tasks = f.u32()?,
            "submit_ms" => submit_ms = f.u64()?,
            "seed" => cfg.seed = f.u64()?,
            "sim_seed" => world.seed = f.u64()?,
            "cooldown_secs" => cfg.cooldown_secs = f.u64()?,
            "live_fraction" => {
                world.model.live_fraction = f.read("a number", Value::as_f64)?.clamp(0.0, 1.0);
            }
            "probes" => cfg.probes_per_target = f.u32()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (Some(id), Some(tenant), Some(prefix), Some(prefix_len), Some(rate)) =
        (id, tenant, prefix, prefix_len, rate)
    else {
        let keys = "\"id\", \"tenant\", \"prefix\", \"prefix_len\" (0..=32), \"rate_pps\"";
        return Err(format!("needs {keys}"));
    };
    cfg.allowlist_prefix(prefix, prefix_len as u8);
    cfg.rate_pps = rate;
    let submit_at_ns = submit_ms.saturating_mul(1_000_000);
    Ok(JobSpec { id, tenant, cfg, world, tasks, submit_at_ns })
}

/// One entry of a spec object, read through getters whose errors name
/// the key.
struct Field<'a>(&'a str, &'a Value);

impl<'a> Field<'a> {
    fn read<T>(&self, what: &str, read: impl Fn(&'a Value) -> Option<T>) -> Result<T, String> {
        read(self.1).ok_or_else(|| format!("{:?} must be {what}", self.0))
    }

    fn u64(&self) -> Result<u64, String> {
        self.read("a non-negative integer", Value::as_u64)
    }

    fn u32(&self) -> Result<u32, String> {
        self.read("an integer in 0..=2^32-1", |v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
    }

    fn str(&self) -> Result<&'a str, String> {
        self.read("a string", Value::as_str)
    }
}

/// Hands every entry of the object `v` to `set`, which returns `false`
/// for a key outside the schema: a typo must not silently yield a
/// different scenario than the one the operator reviewed.
fn fields<'a>(
    v: &'a Value,
    mut set: impl FnMut(Field<'a>) -> Result<bool, String>,
) -> Result<(), String> {
    for (key, value) in v.as_object().ok_or("must be a JSON object")? {
        if !set(Field(key, value))? {
            return Err(format!("unknown key {key:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::parse_args;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const SPEC: &str = r#"{
        "workers": 2,
        "capacity_pps": 1000000,
        "worker_faults": { "entries": [
            { "worker": 0, "attempt": 1, "kind": "kill", "at": 40 }
        ] },
        "jobs": [
            { "id": "alpha", "tenant": "alice", "prefix": "11.40.0.0",
              "prefix_len": 25, "ports": [80], "rate_pps": 2000,
              "tasks": 2, "seed": 3, "sim_seed": 5,
              "cooldown_secs": 1, "live_fraction": 1.0 },
            { "id": "beta", "tenant": "bob", "prefix": "11.41.0.0",
              "prefix_len": 25, "ports": [80], "rate_pps": 2000,
              "submit_ms": 50, "seed": 4, "sim_seed": 5,
              "cooldown_secs": 1, "live_fraction": 1.0 }
        ]
    }"#;

    #[test]
    fn serve_mode_runs_jobs_and_writes_per_job_files() {
        let dir = std::env::temp_dir().join("zmap-cli-serve-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("jobs.json");
        std::fs::write(&spec, SPEC).unwrap();
        let opts = parse_args(&args(&format!(
            "--serve {} --serve-output-dir {} -O csv -q",
            spec.display(),
            dir.display()
        )))
        .unwrap();
        let code = crate::run::run_scan(opts).unwrap();
        assert_eq!(code, 0, "both jobs recover and complete");
        for id in ["alpha", "beta"] {
            let csv = std::fs::read_to_string(dir.join(format!("job-{id}.csv"))).unwrap();
            assert!(csv.starts_with("ts_ns,saddr,sport,"), "{csv}");
            // live_fraction 1.0 makes every host live; the default model
            // still opens port 80 on only ~a quarter of them.
            assert!(csv.lines().count() > 10, "a /25 all-live world fills the file");
            let meta: serde_json::Value = serde_json::from_str(
                &std::fs::read_to_string(dir.join(format!("job-{id}.meta.json"))).unwrap(),
            )
            .unwrap();
            assert_eq!(meta["outcome"], "Completed");
        }
        // The killed worker shows up in the supervisor's counters.
        let meta: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join("supervisor.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(meta["counters"]["jobs_admitted"], 2);
        assert_eq!(meta["counters"]["worker_restarts"], 1);
        assert_eq!(meta["counters"]["migrations"], 1);
        assert_eq!(meta["counters"]["jobs_degraded"], 0);
    }

    /// A one-job spec with `top` as its first top-level entry.
    fn spec_with(top: &str) -> String {
        format!(
            r#"{{{top}, "jobs": [{{"id": "x", "tenant": "t", "prefix": "11.0.0.0",
                "prefix_len": 24, "rate_pps": 100}}]}}"#
        )
    }

    #[test]
    fn malformed_spec_is_a_config_error() {
        let dir = std::env::temp_dir().join("zmap-cli-serve-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        let no_workers = spec_with(r#""workers": 0"#);
        let no_capacity = spec_with(r#""capacity_pps": 0"#);
        for (name, body) in [
            ("not-json.json", "{"),
            ("typo.json", r#"{"wrokers": 2, "jobs": []}"#),
            ("no-jobs.json", r#"{"workers": 2, "jobs": []}"#),
            ("no-workers.json", no_workers.as_str()),
            ("no-capacity.json", no_capacity.as_str()),
            (
                "bad-job.json",
                r#"{"jobs": [{"id": "x!", "tenant": "t", "prefix": "11.0.0.0",
                   "prefix_len": 24, "rate_pps": 100}]}"#,
            ),
        ] {
            let spec = dir.join(name);
            std::fs::write(&spec, body).unwrap();
            let opts = parse_args(&args(&format!("--serve {} -q", spec.display()))).unwrap();
            assert_eq!(crate::run::run_scan(opts).unwrap(), 2, "{name}");
        }
        // A zero pool or link budget is refused by name, not clamped to 1.
        for (key, body) in [("workers", &no_workers), ("capacity_pps", &no_capacity)] {
            let err = super::build_supervisor(body, &dir).err().expect("refused");
            assert!(err.contains(key), "{err}");
        }
    }
}
