#![forbid(unsafe_code)]
//! End-to-end benchmark driver. Builds the `zmap` binary, generates each
//! workload's inputs from `--seed`, runs the CLI as a child process with
//! tracing off and reports what an operator sees: probes per second of
//! the whole process, its peak resident set and its set-up time. With
//! `--trace 1` it instead runs the in-process `layers` replay and reports
//! the per-layer metrics. This binary uses the scanner through CLI flags
//! and output files only.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use zmap_benchmark::stats::{self, Summary};
use zmap_benchmark::workloads::{self, Plan, Scale, DEFAULT_SEED, NAMES};
use zmap_benchmark::{
    bench_dir, out_dir, parse_options, procfs, release_dir, repo_root, result_line, Options,
};

/// Fewest timed one-probe runs behind a `setup_s` value.
const SETUP_RUNS: usize = 31;
/// One-probe runs after each repetition: set-up is sampled across the
/// whole run, not in one 0.1 s burst that catches a single machine state.
const SETUP_PER_REP: usize = 3;
/// Fewest timed scans a run reports a median over, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// `/proc` sampling period while a scan child runs (50 Hz). `VmHWM` only
/// rises, so a slower poll loses just the growth of the last period, and on
/// a 2-core box every wake-up preempts one of `pipe`'s two busy threads.
const POLL: Duration = Duration::from_millis(20);

/// `setup_s` is about 2 ms, where a quarter of it is inside the scheduler's
/// noise: `--aa` lets a gap pass when it is within the metric's relative
/// bound *or* this many seconds, whichever is larger (`BENCHMARK.json` can
/// carry only the relative half).
const SETUP_FLOOR_S: f64 = 0.002;

/// Counters the correctness gate pins (same-seed runs must reproduce them
/// exactly, and `pipe` must match `mixed`).
const PINNED: [&str; 7] = [
    "targets_total",
    "sent",
    "responses_validated",
    "responses_discarded",
    "duplicates_suppressed",
    "unique_successes",
    "unique_failures",
];

type Counters = BTreeMap<String, u64>;

/// `(name, value, unit)` as it goes into the result line.
type Metric = (String, f64, String);

fn pinned(c: &Counters) -> Vec<u64> {
    PINNED
        .iter()
        .map(|k| c.get(*k).copied().unwrap_or(0))
        .collect()
}

/// The whole-number members of the `counters` object of a metadata file;
/// `None` when the text is not JSON or has no such object.
fn metadata_counters(text: &str) -> Option<Counters> {
    let doc = serde_json::from_str(text).ok()?;
    let members = doc.get("counters")?.as_object()?;
    Some(
        members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
    )
}

/// One finished `zmap` child.
struct ChildRun {
    wall_s: f64,
    /// Peak `VmHWM` seen while polling (0 for unpolled set-up runs).
    peak_rss_kb: u64,
    cpu_s: f64,
    exit_ok: bool,
    /// `counters` of the metadata file, when one was written and parses.
    counters: Option<Counters>,
    /// Data rows in the CSV (header excluded).
    rows: u64,
}

struct Harness {
    zmap: PathBuf,
    work: PathBuf,
    scale: Scale,
}

impl Harness {
    /// Instantiates workload `name` for `seed` at this harness's scale and
    /// writes its input files.
    fn plan(&self, name: &str, seed: u64) -> Result<Plan, String> {
        let plan = workloads::plan(name, seed, self.scale, &self.work);
        plan.write_inputs()
            .map_err(|e| format!("writing inputs: {e}"))?;
        Ok(plan)
    }

    /// Runs `zmap <args> -o … --metadata-file …`. A scan child is polled
    /// for memory and CPU; a set-up child lives a few milliseconds, so it
    /// is only waited for.
    fn run(&self, args: &[String], tag: &str, poll: bool) -> Result<ChildRun, String> {
        let data = self.work.join(format!("{tag}.csv"));
        let meta = self.work.join(format!("{tag}.meta.json"));
        let log = self.work.join(format!("{tag}.stderr"));
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&meta);
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(&self.zmap);
        cmd.args(args)
            .arg("-o")
            .arg(&data)
            .arg("--metadata-file")
            .arg(&meta)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.zmap.display()))?;
        let pid = child.id();
        let (status, end, peak_rss_kb, cpu_ticks) = if poll {
            // The waiter stamps the exit the moment the child ends; this
            // thread samples /proc until then.
            let waiter = std::thread::spawn(move || {
                let status = child.wait();
                (status, Instant::now())
            });
            let (mut peak, mut ticks) = (0u64, 0u64);
            while !waiter.is_finished() {
                if let Ok(s) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
                    peak = peak.max(procfs::vm_hwm_kb(&s).unwrap_or(0));
                }
                if let Ok(s) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
                    ticks = ticks.max(procfs::stat_cpu_ticks(&s).map_or(0, |(_, t)| t));
                }
                std::thread::sleep(POLL);
            }
            let (status, end) = waiter
                .join()
                .map_err(|_| "waiter thread panicked".to_string())?;
            (status, end, peak, ticks)
        } else {
            let status = child.wait();
            (status, Instant::now(), 0, 0)
        };
        let status = status.map_err(|e| format!("waiting for zmap: {e}"))?;
        let counters = std::fs::read_to_string(&meta)
            .ok()
            .and_then(|text| metadata_counters(&text));
        // The CSV header is written with the first record, so an empty
        // file is zero rows.
        let rows = std::fs::read(&data)
            .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count() as u64)
            .unwrap_or(0)
            .saturating_sub(1);
        if !status.success() {
            let tail = std::fs::read_to_string(&log).unwrap_or_default();
            eprintln!("zmap {tag} exited with {status}: {}", tail.trim_end());
        }
        Ok(ChildRun {
            wall_s: end.duration_since(start).as_secs_f64(),
            peak_rss_kb,
            cpu_s: cpu_ticks as f64 / procfs::TICKS_PER_SEC as f64,
            exit_ok: status.success(),
            counters,
            rows,
        })
    }
}

/// Operations one run attempted and how many of them failed: targets not
/// sent plus result rows missing from the data file. A run that exits
/// non-zero, leaves no metadata or did not shut down cleanly fails every
/// operation it was asked for.
fn failures(run: &ChildRun, plan: &Plan, violations: &mut Vec<String>, tag: &str) -> (u64, u64) {
    let Some(c) = &run.counters else {
        violations.push(format!("{tag}: no readable metadata file"));
        return (1, 1);
    };
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let attempted = get("targets_total").max(1);
    if !run.exit_ok || get("shutdown_clean") != 1 {
        violations.push(format!(
            "{tag}: exit ok = {}, shutdown_clean = {}",
            run.exit_ok,
            get("shutdown_clean")
        ));
        return (attempted, attempted);
    }
    let unsent = get("targets_total").saturating_sub(get("sent")) + get("sendto_failures");
    if unsent > 0 {
        violations.push(format!("{tag}: {unsent} of {attempted} targets not sent"));
    }
    let want_rows = get("unique_successes")
        + if plan.output_failures {
            get("unique_failures")
        } else {
            0
        };
    if run.rows != want_rows {
        violations.push(format!(
            "{tag}: {} data rows, counters report {want_rows}",
            run.rows
        ));
    }
    (
        attempted,
        (unsent + want_rows.saturating_sub(run.rows)).min(attempted),
    )
}

/// The property that makes a workload the workload it claims to be.
fn shape_violation(plan: &Plan, c: &Counters) -> Option<String> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let uniques = get("unique_successes") + get("unique_failures");
    match plan.name {
        "dark" if get("responses_validated") != 0 => Some(format!(
            "dark: {} responses validated, want 0",
            get("responses_validated")
        )),
        // More distinct responders than window slots: the window evicted.
        "dense" if plan.dedup_window.is_none_or(|w| uniques <= w) => Some(format!(
            "dense: {uniques} unique responders never fill the {:?}-entry window",
            plan.dedup_window
        )),
        "dups" => {
            let share =
                get("duplicates_suppressed") as f64 / get("responses_validated").max(1) as f64;
            (share < 0.45).then(|| format!("dups: duplicate share {share:.3} < 0.45"))
        }
        "mixed" | "pipe" | "v6" if get("unique_successes") == 0 => {
            Some(format!("{}: no responsive host found", plan.name))
        }
        _ => None,
    }
}

/// Pinned counters for `(scale, workload)` from `expected/seed7.json`.
fn expected_counters(scale: Scale, name: &str) -> Result<Option<Vec<u64>>, String> {
    let path = bench_dir().join("expected").join("seed7.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(entry) = doc.get(scale.label()).and_then(|s| s.get(name)) else {
        return Ok(None);
    };
    PINNED
        .iter()
        .map(|k| entry.get(k).and_then(Value::as_u64))
        .collect::<Option<Vec<u64>>>()
        .map(Some)
        .ok_or_else(|| format!("{}: {name} lacks a pinned counter", path.display()))
}

/// What the tracing-off pass measured for one workload.
#[derive(Default)]
struct E2e {
    name: &'static str,
    /// Per repetition: `sent` ÷ wall time of the whole child.
    pps: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Per one-probe run: wall time of the whole child.
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    counters: Counters,
}

impl E2e {
    fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The three end-to-end metrics as `(name, unit, per-run samples)`; the
    /// reported value of each is the median of its samples.
    fn samples(&self) -> [(&'static str, &'static str, &[f64]); 3] {
        [
            ("pps", "probes/s", &self.pps),
            ("peak_rss_mb", "MB", &self.rss_mb),
            ("setup_s", "s", &self.setup_s),
        ]
    }

    fn metrics(&self) -> Vec<Metric> {
        self.samples()
            .map(|(name, unit, samples)| {
                (name.to_string(), stats::median(samples), unit.to_string())
            })
            .to_vec()
    }
}

/// Times `n` one-probe runs.
fn time_setup(h: &Harness, plan: &Plan, n: usize, r: &mut E2e) -> Result<(), String> {
    for _ in 0..n {
        let run = h.run(&plan.setup_args, &format!("{}-setup", plan.name), false)?;
        let sent = run.counters.as_ref().and_then(|c| c.get("sent")).copied();
        if !run.exit_ok || sent != Some(1) {
            r.violations.push(format!(
                "{}: a set-up run sent {sent:?} probes, want 1",
                plan.name
            ));
        }
        r.setup_s.push(run.wall_s);
    }
    Ok(())
}

fn measure_e2e(h: &Harness, name: &str, seed: u64, seconds: f64) -> Result<E2e, String> {
    let plan = h.plan(name, seed)?;
    let quick = h.scale == Scale::Quick;
    let mut r = E2e {
        name: plan.name,
        ..E2e::default()
    };

    if !quick {
        // Discarded: first touch of the binary's pages and the work files.
        h.run(&plan.scan_args, &format!("{name}-warmup"), true)?;
    }
    let started = Instant::now();
    let mut rep = 0usize;
    loop {
        // Every repetition writes the same two files, which `run` deletes
        // first: their dirty pages are dropped before the kernel writes
        // them back, so the benchmark does not compete with its own disk
        // traffic (a file per repetition left ~80 MB per `dense` run).
        let run = h.run(&plan.scan_args, &format!("{name}-rep"), true)?;
        let tag = format!("{name} repetition {rep}");
        time_setup(h, &plan, SETUP_PER_REP, &mut r)?;
        let (attempted, failed) = failures(&run, &plan, &mut r.violations, &tag);
        r.attempted += attempted;
        r.failed += failed;
        if let Some(c) = &run.counters {
            let sent = c.get("sent").copied().unwrap_or(0);
            r.pps.push(sent as f64 / run.wall_s);
            r.rss_mb.push(run.peak_rss_kb as f64 / 1024.0);
            if rep == 0 {
                r.counters = c.clone();
                r.violations.extend(shape_violation(&plan, c));
            } else if pinned(c) != pinned(&r.counters) {
                r.violations
                    .push(format!("{tag}: counters differ from the first repetition"));
            }
        }
        rep += 1;
        let enough = if quick { 1 } else { MIN_REPS };
        if rep >= enough && (quick || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    if r.pps.is_empty() {
        return Err(format!("{name}: no repetition produced metadata"));
    }

    let missing = if quick { 5 } else { SETUP_RUNS }.saturating_sub(r.setup_s.len());
    time_setup(h, &plan, missing, &mut r)?;

    if name == "pipe" {
        // Same world, other engine: the threaded pipeline must account for
        // exactly what the sequential scan of `mixed` does.
        let mixed = h.plan("mixed", seed)?;
        let run = h.run(&mixed.scan_args, "pipe-vs-mixed", false)?;
        match &run.counters {
            Some(c) if pinned(c) == pinned(&r.counters) => {}
            other => r.violations.push(format!(
                "pipe counters {:?} != mixed counters {:?}",
                pinned(&r.counters),
                other.as_ref().map(pinned)
            )),
        }
    }
    if seed == DEFAULT_SEED {
        match expected_counters(h.scale, name)? {
            Some(want) if want == pinned(&r.counters) => {}
            Some(want) => r.violations.push(format!(
                "{name}: seed-{DEFAULT_SEED} counters {:?} != expected {want:?} ({PINNED:?})",
                pinned(&r.counters)
            )),
            None => r.violations.push(format!(
                "{name}: expected/seed7.json has no {} entry",
                h.scale.label()
            )),
        }
    }
    Ok(r)
}

fn print_e2e(r: &E2e) {
    println!("== {} (end to end, tracing off) ==", r.name);
    println!(
        "  {:<14} {:>14} {:>14} {:>14} {:>14} {:>14}  n",
        "metric", "median", "min", "q1", "q3", "max"
    );
    for (name, unit, samples) in r.samples() {
        let s = Summary::of(samples);
        println!(
            "  {:<14} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}  {} [{unit}]",
            name, s.median, s.min, s.q1, s.q3, s.max, s.n
        );
    }
    if let Some((p, v)) = stats::tail_percentile(&r.setup_s) {
        println!("  setup_s p{p:.1} = {v:.6} s (highest percentile with 10 samples beyond it)");
    }
    let samples: Vec<String> = r.pps.iter().map(|v| format!("{v:.0}")).collect();
    println!("  pps samples, in order: {}", samples.join(" "));
    println!("  operations attempted {} failed {}", r.attempted, r.failed);
    let shown: Vec<String> = PINNED
        .iter()
        .map(|k| format!("{k}={}", r.counters.get(*k).copied().unwrap_or(0)))
        .collect();
    println!("  counters {}", shown.join(" "));
    for v in &r.violations {
        println!("  GATE VIOLATION: {v}");
    }
}

/// What the traced pass reported for one workload.
struct Traced {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Runs one untraced CLI scan (for process wall and CPU time) and the
/// `layers` replay, and merges the two into the per-layer metric set.
fn measure_layers(h: &Harness, name: &str, seed: u64, seconds: f64) -> Result<Traced, String> {
    let plan = h.plan(name, seed)?;
    let mut violations = Vec::new();
    let tag = format!("{name}-cli");
    if h.scale == Scale::Full {
        h.run(&plan.scan_args, &format!("{name}-warmup"), true)?;
    }
    let cli = h.run(&plan.scan_args, &tag, true)?;
    let (cli_attempted, cli_failed) = failures(&cli, &plan, &mut violations, &tag);
    let sent = cli
        .counters
        .as_ref()
        .and_then(|c| c.get("sent"))
        .copied()
        .unwrap_or(0)
        .max(1);

    cargo_build(&bench_dir().join("Cargo.toml"), &["--bin", "layers"])?;
    let layers = release_dir(&bench_dir()).join("layers");
    let mut cmd = Command::new(&layers);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if h.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", layers.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !out.status.success() {
        return Err(format!("layers exited with {}", out.status));
    }
    let doc = serde_json::from_str(last).map_err(|e| format!("layers result line: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("layers result lacks {k:?}"))
    };
    let engine_wall_s = field("engine_wall_s")?.as_f64().unwrap_or(0.0);
    let mut metrics: Vec<Metric> = field("metrics")?
        .as_object()
        .ok_or("layers result: metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m["value"].as_f64().unwrap_or(0.0),
                m["unit"].as_str().unwrap_or("").to_string(),
            )
        })
        .collect();
    // Process overhead around the engine: start-up, argument and input
    // parsing, and writing the data and metadata streams.
    let emit_share = (cli.wall_s - engine_wall_s) / cli.wall_s;
    let cpu_ns = cli.cpu_s * 1e9 / sent as f64;
    println!("  {:<30} {emit_share:>16.4} ratio", "cli.emit_share");
    println!("  {:<30} {cpu_ns:>16.4} ns", "proc.cpu_ns_per_probe");
    metrics.push(("cli.emit_share".into(), emit_share, "ratio".into()));
    metrics.push(("proc.cpu_ns_per_probe".into(), cpu_ns, "ns".into()));
    for v in &violations {
        println!("  GATE VIOLATION: {v}");
    }
    Ok(Traced {
        correct: violations.is_empty() && field("correct")?.as_bool() == Some(true),
        attempted: cli_attempted + field("attempted")?.as_u64().unwrap_or(0),
        failed: cli_failed + field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// `cargo build --release` for one manifest, from the repository root,
/// inheriting `CARGO_TARGET_DIR`. Cargo's own output goes to stderr so
/// stdout ends with the result line.
fn cargo_build(manifest: &Path, extra: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .args(extra)
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo build of {} failed with {status}",
            manifest.display()
        ))
    }
}

/// Regression bounds by end-to-end metric name, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json end_to_end entry lacks name or bound".to_string())
}

/// Two back-to-back sets of the whole end-to-end pass on the same code:
/// prints both medians and the gap per (metric, workload); fails when a
/// gap exceeds the metric's own bound.
fn run_aa(h: &Harness, o: &Options) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets: Vec<Vec<E2e>> = Vec::new();
    for set in ["A", "B"] {
        let mut results = Vec::new();
        for name in NAMES {
            eprintln!("set {set}: {name}");
            let r = measure_e2e(h, name, o.seed, o.seconds)?;
            print_e2e(&r);
            results.push(r);
        }
        sets.push(results);
    }
    let mut ok = true;
    println!("== A/A: same code, two sets ==");
    println!(
        "  {:<8} {:<12} {:>14} {:>14} {:>8} {:>8} {:>9} {:>9}",
        "workload", "metric", "median A", "median B", "gap", "bound", "spread A", "spread B"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= a.correct() && b.correct();
        for ((metric, _, sa), (_, _, sb)) in a.samples().into_iter().zip(b.samples()) {
            let (ma, mb) = (stats::median(sa), stats::median(sb));
            let gap = (mb - ma).abs() / ma;
            let bound = *bounds
                .get(metric)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
            let within = gap <= bound || (metric == "setup_s" && (mb - ma).abs() <= SETUP_FLOOR_S);
            let verdict = if within { "" } else { "  EXCEEDS BOUND" };
            ok &= within;
            println!(
                "  {:<8} {:<12} {:>14.6} {:>14.6} {:>7.2}% {:>7.0}% {:>8.2}% {:>8.2}%{verdict}",
                a.name,
                metric,
                ma,
                mb,
                100.0 * gap,
                100.0 * bound,
                100.0 * stats::iqr_share(sa),
                100.0 * stats::iqr_share(sb),
            );
        }
    }
    Ok(ok)
}

/// Rewrites `expected/seed7.json` from a fresh run of every workload at
/// both scales (after a deliberate change to the simulated world).
fn record_expected(zmap: &Path, work: &Path) -> Result<(), String> {
    // One workload per line keeps diffs of this file readable.
    let mut scales = Vec::new();
    for scale in [Scale::Full, Scale::Quick] {
        let h = Harness {
            zmap: zmap.to_path_buf(),
            work: work.to_path_buf(),
            scale,
        };
        let mut lines = Vec::new();
        for name in NAMES {
            let plan = h.plan(name, DEFAULT_SEED)?;
            let run = h.run(&plan.scan_args, &format!("{name}-record"), false)?;
            let c = run.counters.ok_or_else(|| format!("{name}: no metadata"))?;
            let pins: Vec<String> = PINNED
                .iter()
                .map(|k| format!("\"{k}\":{}", c.get(*k).copied().unwrap_or(0)))
                .collect();
            lines.push(format!("    \"{name}\": {{{}}}", pins.join(",")));
        }
        scales.push(format!(
            "  \"{}\": {{\n{}\n  }}",
            scale.label(),
            lines.join(",\n")
        ));
    }
    let path = bench_dir().join("expected").join("seed7.json");
    std::fs::write(&path, format!("{{\n{}\n}}\n", scales.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(o: &Options) -> Result<bool, String> {
    cargo_build(&repo_root().join("Cargo.toml"), &["-p", "zmap-cli"])?;
    let zmap = release_dir(&repo_root()).join("zmap");
    if !zmap.is_file() {
        return Err(format!("{} was not built", zmap.display()));
    }
    let work = out_dir().join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    if o.record_expected {
        record_expected(&zmap, &work)?;
        return Ok(true);
    }
    let h = Harness {
        zmap,
        work,
        scale: if o.quick { Scale::Quick } else { Scale::Full },
    };
    if o.aa {
        return run_aa(&h, o);
    }
    if o.all {
        let mut ok = true;
        for name in NAMES {
            let r = measure_e2e(&h, name, o.seed, o.seconds)?;
            print_e2e(&r);
            let t = measure_layers(&h, name, o.seed, o.seconds)?;
            ok &= r.correct() && t.correct && t.failed == 0;
        }
        println!(
            "{}",
            if ok {
                "all gates passed"
            } else {
                "GATE VIOLATIONS above"
            }
        );
        return Ok(ok);
    }
    let name = o
        .workload
        .as_deref()
        .ok_or("give --workload <name>, --all, --aa or --record-expected")?;
    // One workload: the report, then the driver's result line. A result
    // that fails the gate is still a result; `correct` carries the verdict.
    let line = if o.trace {
        let t = measure_layers(&h, name, o.seed, o.seconds)?;
        result_line(t.correct, t.attempted, t.failed, &t.metrics)
    } else {
        let r = measure_e2e(&h, name, o.seed, o.seconds)?;
        print_e2e(&r);
        result_line(r.correct(), r.attempted, r.failed, &r.metrics())
    };
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!(
                "usage: e2e (--workload <{}> [--trace 0|1] | --all | --aa | --record-expected) \
                 [--seed N] [--seconds S] [--quick]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_counters_are_read_as_whole_numbers() {
        let meta = r#"{"version":"1.0.0","counters":{"sent":16777216,"targets_total":16777216,
            "shutdown_clean":1,"hit_rate":0.5},"config":{"rate":10000000}}"#;
        let c = metadata_counters(meta).unwrap();
        assert_eq!(c.get("sent"), Some(&16_777_216));
        assert_eq!(c.get("shutdown_clean"), Some(&1));
        assert_eq!(c.get("hit_rate"), None, "a fraction is not a counter");
        assert_eq!(metadata_counters(r#"{"config":{}}"#), None);
        assert_eq!(metadata_counters("{\"counters\":{\"sent\":1"), None);
    }
}
