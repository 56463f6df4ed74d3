//! The `zmap` binary, driven from outside the process: its exit codes,
//! same-seed double runs, the two drivers at one lane, `--serve` on the
//! committed supervisor scenario, and kill → resume. Every run writes
//! into a scratch directory of its test, removed on drop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory of this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("zmap-binary-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Writes `contents` to `file` in the directory; returns its path.
    fn write(&self, file: &str, contents: &str) -> String {
        let path = self.0.join(file);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repository root.
fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every stream one run wrote.
#[derive(Debug, PartialEq, Eq)]
struct Streams {
    data: String,
    metadata: String,
    stdout: String,
    stderr: String,
}

impl Streams {
    /// The sorted unique `(saddr, sport)` pairs of the data stream (CSV).
    fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self
            .data
            .lines()
            .skip(1)
            .map(|row| row.split(',').skip(1).take(2).collect::<Vec<_>>().join(","))
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// A counter of the metadata document.
    fn counter(&self, name: &str) -> u64 {
        let meta: serde_json::Value = serde_json::from_str(&self.metadata).unwrap();
        meta["counters"][name].as_u64().unwrap_or_else(|| panic!("no counter {name}"))
    }
}

/// Runs `zmap` with `args` plus `-o <name>.csv` and `--metadata-file
/// <name>.json` in `dir`; returns its exit code and every stream it wrote.
fn run(dir: &Path, name: &str, args: &[&str]) -> (Option<i32>, Streams) {
    let (data, meta) = (dir.join(format!("{name}.csv")), dir.join(format!("{name}.json")));
    let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
        .args(args)
        .arg("-o")
        .arg(&data)
        .arg("--metadata-file")
        .arg(&meta)
        .output()
        .unwrap();
    let streams = Streams {
        data: std::fs::read_to_string(&data).unwrap(),
        metadata: std::fs::read_to_string(&meta).unwrap(),
        stdout: String::from_utf8(run.stdout).unwrap(),
        stderr: String::from_utf8(run.stderr).unwrap(),
    };
    (run.status.code(), streams)
}

/// [`run`], which must succeed.
fn scan(dir: &Path, name: &str, args: &[&str]) -> Streams {
    let (code, streams) = run(dir, name, args);
    assert_eq!(code, Some(0), "{name}: {}", streams.stderr);
    streams
}

/// A config the gate refuses is a usage error: exit 2, before any file
/// is touched, so no data file appears.
#[test]
fn zero_dedup_window_exits_2_and_creates_no_output_file() {
    let dir = Scratch::new("exit-codes");
    let out = dir.0.join("never.csv");
    let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
        .args(["--subnet", "11.22.0.0/28", "--dedup-window", "0", "-q", "-o"])
        .arg(&out)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--dedup-window"), "{stderr}");
    assert!(!out.exists(), "a refused config left a data file behind");
}

// Same seeds, same bytes: each scan below runs twice and every stream it
// writes — data (`-o`), metadata (`--metadata-file`), and stdout and
// stderr (logs plus the JSON status stream) where they are not silenced —
// must match byte for byte. The v4 scan, the 4-lane `--tx-pipeline` scan
// (thread interleaving may not leak into data or metadata; its status
// timing does depend on scheduling, so it runs `-q`) and the v6 scan over
// the committed XMap scenario.

/// Runs `args` twice and asserts the two runs' streams are identical;
/// returns the first run's.
fn twice(test: &str, args: &[&str]) -> Streams {
    let dir = Scratch::new(test);
    let first = scan(&dir.0, "run1", args);
    let second = scan(&dir.0, "run2", args);
    assert!(first.data == second.data, "{test}: data streams differ");
    assert!(first.metadata == second.metadata, "{test}: metadata differs");
    assert!(first.stdout == second.stdout, "{test}: stdout differs");
    assert!(first.stderr == second.stderr, "{test}: logs or status stream differ");
    // An empty data stream matching proves nothing.
    let rows = first.data.lines().count();
    assert!(rows > 100, "{test}: {rows} rows");
    first
}

#[test]
fn the_v4_scan_replays_every_stream() {
    let run = twice(
        "v4",
        &[
            "--subnet", "23.128.0.0/20", "-p", "80,443", "-r", "100000", "--seed", "42",
            "--sim-seed", "9", "--sim-live-fraction", "0.5", "-O", "csv", "--status-json",
        ],
    );
    // The registry must have recorded something: an empty histogram
    // matching proves nothing. RTT is sampled one probe in 64, so the
    // count is a few dozen on this scan.
    let meta: serde_json::Value = serde_json::from_str(&run.metadata).unwrap();
    assert_eq!(meta["rtt_sample_one_in"], 64);
    assert!(meta["histograms"]["probe_rtt_ns"]["count"].as_u64().unwrap() > 0, "no RTT sample");
    assert!(meta["trace"].to_string().contains("\"scan_complete\""), "no scan_complete event");
    assert!(!run.stderr.is_empty(), "no status stream");
}

#[test]
fn the_four_lane_pipelined_scan_replays_data_and_metadata() {
    twice(
        "pipe",
        &[
            "--subnet", "23.128.16.0/20", "-p", "80,443", "-r", "100000", "--seed", "42",
            "--sim-seed", "9", "--sim-live-fraction", "0.5", "-O", "csv", "-q",
            "--tx-pipeline", "--threads", "4",
        ],
    );
}

/// `--max-targets` splits over the lanes (lane t of k gets ⌊N/k⌋, plus
/// one while t < N mod k): exactly N targets leave, and the scan replays.
#[test]
fn capped_pipelined_scans_send_exactly_n_and_replay() {
    for threads in ["2", "4"] {
        let run = twice(
            &format!("pipe-capped-{threads}"),
            &[
                "--subnet", "23.128.16.0/20", "-p", "80,443", "-r", "100000", "--seed", "42",
                "--sim-seed", "9", "--sim-live-fraction", "0.5", "-O", "csv", "-q",
                "--tx-pipeline", "--threads", threads, "--max-targets", "1001",
            ],
        );
        assert_eq!((run.counter("targets_total"), run.counter("sent")), (1001, 1001), "{threads}");
    }
}

#[test]
fn the_v6_scan_replays_every_stream() {
    let prefixes = repo().join("scenarios/ipv6-xmap.txt");
    let run = twice(
        "v6",
        &[
            "--ipv6", "2001:db8:ffff::1", "--prefix-list", prefixes.to_str().unwrap(), "-p", "443",
            "-r", "100000", "--seed", "42", "--sim-seed", "9", "-O", "csv", "--status-json",
        ],
    );
    // The scan walked the v6 space: the metadata echoes the prefix list
    // and the data stream carries v6 addresses.
    assert!(run.metadata.contains("\"prefix_list\""), "no prefix list in the metadata");
    assert!(run.data.contains("2001:db8:"), "no v6 address in the data");
}

// One engine, two drivers: at one lane the inline driver and the
// threaded one (`--tx-pipeline`) are the same schedule, so the sorted
// data stream and the whole metadata document (counters, histograms,
// trace) match byte for byte, on a clean world, with 30% of sends
// refused (one retry loop) and with a `--max-targets` cap.

#[test]
fn inline_and_threaded_drivers_write_the_same_streams() {
    let dir = Scratch::new("two-drivers");
    let plan = dir.write("refused.json", r#"{"send_failure_fraction": 0.3}"#);
    let common = [
        "--subnet", "23.128.0.0/20", "-p", "80,443", "-r", "100000", "--seed", "42",
        "--sim-seed", "9", "--sim-live-fraction", "0.5", "-O", "csv", "-q", "--threads", "1",
    ];
    // The data rows, sorted, and the metadata document.
    let drive = |name: &str, extra: &[&str]| -> (Vec<String>, String) {
        let run = scan(&dir.0, name, &[&common[..], extra].concat());
        let mut rows: Vec<String> = run.data.lines().map(str::to_string).collect();
        rows.sort();
        (rows, run.metadata)
    };
    let worlds = [
        ("clean", vec![]),
        ("refused", vec!["--fault-plan", plan.as_str()]),
        ("capped", vec!["--max-targets", "1001"]),
    ];
    for (world, faults) in worlds {
        let (inline_rows, inline_meta) = drive(&format!("{world}-inline"), &faults);
        let threaded = [&faults[..], &["--tx-pipeline"]].concat();
        let (threaded_rows, threaded_meta) = drive(&format!("{world}-threaded"), &threaded);
        // An empty data stream matching proves nothing.
        assert!(inline_rows.len() > 100, "{world}: {} rows", inline_rows.len());
        assert!(
            inline_rows == threaded_rows,
            "{world}: the sorted data streams differ ({} vs {} rows)",
            inline_rows.len(),
            threaded_rows.len()
        );
        assert_eq!(inline_meta, threaded_meta, "{world}: metadata");
        let meta: serde_json::Value = serde_json::from_str(&inline_meta).unwrap();
        let retries = meta["counters"]["send_retries"].as_u64().unwrap();
        assert_eq!(retries > 0, world == "refused", "{world}: {retries} send retries");
        let targets = meta["counters"]["targets_total"].as_u64().unwrap();
        assert_eq!(targets == 1001, world == "capped", "{world}: {targets} targets");
    }
}

// `--serve`: scenarios/supervisor-stress.json runs 24 jobs across 6
// tenants on a 4-worker pool, with kills on workers 0 and 3, a panic on
// worker 1 and a stall on worker 2. The supervisor's event loop is a pure
// function of the scenario, so every output — per-job data and metadata,
// the task journals, supervisor.json and the status stream — is the same
// on every run, and the committed manifest holds all of them.

/// Every file under `dir`, by its path relative to `root`.
fn tree(root: &Path, dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            tree(root, &path, files);
        } else {
            let name = path.strip_prefix(root).unwrap().to_str().unwrap().to_string();
            files.insert(name, std::fs::read(&path).unwrap());
        }
    }
}

#[test]
fn the_supervisor_stress_scenario_replays_and_matches_its_manifest() {
    // The manifest names `sup1/...` and `sup1-status.jsonl`, written by a
    // run from a directory holding `scenarios/supervisor-stress.json`.
    let dir = Scratch::new("serve");
    std::fs::create_dir(dir.0.join("scenarios")).unwrap();
    let scenario = "scenarios/supervisor-stress.json";
    std::fs::copy(repo().join(scenario), dir.0.join(scenario)).unwrap();
    let serve = |out: &str| -> BTreeMap<String, Vec<u8>> {
        let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
            .current_dir(&dir.0)
            .args(["--serve", scenario, "--serve-output-dir", out, "-O", "csv"])
            .output()
            .unwrap();
        assert!(run.status.success(), "{out}: {}", String::from_utf8_lossy(&run.stderr));
        std::fs::write(dir.0.join(format!("{out}-status.jsonl")), &run.stderr).unwrap();
        let mut files = BTreeMap::new();
        tree(&dir.0.join(out), &dir.0.join(out), &mut files);
        files.insert("status".into(), run.stderr);
        files
    };
    let (first, second) = (serve("sup1"), serve("sup2"));
    assert_eq!(first.keys().collect::<Vec<_>>(), second.keys().collect::<Vec<_>>());
    for (name, bytes) in &first {
        assert!(*bytes == second[name], "{name} differs between two runs");
    }

    // A same-binary comparison cannot see a scheduling change: hold all 85
    // output files (24 data, 24 meta, supervisor.json, 36 journals) and
    // the 139-line status stream to the committed hashes. After an
    // intentional change, regenerate them from such a directory with
    //   (find sup1 -type f | LC_ALL=C sort; echo sup1-status.jsonl) \
    //     | xargs sha256sum > scenarios/supervisor-stress.sha256
    assert_eq!(first.len(), 85 + 1, "sup1 holds {} files", first.len() - 1);
    assert_eq!(first["status"].iter().filter(|&&b| b == b'\n').count(), 139);
    let manifest = std::fs::read_to_string(repo().join("scenarios/supervisor-stress.sha256")).unwrap();
    assert_eq!(manifest.lines().count(), 86);
    for line in manifest.lines() {
        let (hash, path) = line.split_once("  ").unwrap();
        let actual = sha256_hex(&std::fs::read(dir.0.join(path)).unwrap());
        assert_eq!(actual, hash, "{path} does not match scenarios/supervisor-stress.sha256");
    }

    // The scenario's seeded deaths must actually have landed, and every
    // job must have been admitted and recovered.
    let supervisor = String::from_utf8(first["supervisor.json"].clone()).unwrap();
    for counter in [
        r#""jobs_admitted":24"#,
        r#""worker_restarts":5"#,
        r#""migrations":4"#,
        r#""jobs_degraded":0"#,
    ] {
        assert!(supervisor.contains(counter), "supervisor.json lacks {counter}");
    }
    // Recovery was invisible: 24 per-job data files, none empty.
    let data: Vec<_> = first.iter().filter(|(n, _)| n.starts_with("job-") && n.ends_with(".csv")).collect();
    assert_eq!(data.len(), 24);
    for (name, bytes) in data {
        assert!(bytes.iter().filter(|&&b| b == b'\n').count() > 1, "{name} holds no data row");
    }
}

/// SHA-256 (FIPS 180-4) of `data`, as lowercase hex.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
        0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
        0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
        0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
        0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
        0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
    ];
    let mut h: [u32; 8] =
        [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 64];
        for i in 0..64 {
            w[i] = if i < 16 {
                u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap())
            } else {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1)
            };
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

// Kill → resume: a scan killed at a NIC event (`kill_at` in the fault
// plan) exits 3 with its journal resumable, and `--resume` finishes it.

#[test]
fn a_killed_scan_exits_3_and_resumes_to_a_clean_finish() {
    let dir = Scratch::new("kill-resume-v4");
    let kill = dir.write("kill.json", r#"{"kill_at": 1500}"#);
    let common = [
        "--subnet", "23.129.0.0/22", "-p", "80", "-r", "1000", "--seed", "7", "--sim-seed", "3",
        "--sim-live-fraction", "1.0", "-O", "csv", "-q", "--checkpoint",
    ];
    let journal = dir.0.join("scan.ckpt");
    let common = [&common[..], &[journal.to_str().unwrap()]].concat();
    let (code, killed) = run(&dir.0, "attempt1", &[&common[..], &["--fault-plan", &kill]].concat());
    assert_eq!(code, Some(3), "attempt 1: {}", killed.stderr);
    let resumed = scan(&dir.0, "attempt2", &[&common[..], &["--resume"]].concat());
    assert_eq!(resumed.counter("resume_count"), 1);
    assert_eq!(resumed.counter("shutdown_clean"), 1);
}

/// Kills the scan `args` describes at NIC event `kill_at`, resumes it,
/// and runs it once uninterrupted: the killed run's hosts plus the
/// resumed run's must be exactly the uninterrupted run's. Each case's
/// `kill_at` lands just after a periodic journal (1 s of virtual time
/// apart) while replies to probes before the journaled positions are in
/// flight, so a resume that skipped its rewind would miss their hosts.
/// At 50 pps the 2 s rewind lands mid-walk, so the multi-walk streams'
/// closed-form jump to the journaled position is exercised too.
fn kill_and_resume(name: &str, kill_at: u64, args: &[&str]) {
    let dir = Scratch::new(&format!("kill-resume-{name}"));
    let kill = dir.write("kill.json", &format!(r#"{{"kill_at": {kill_at}}}"#));
    let journal = dir.0.join("scan.ckpt");
    let journaled = [
        args,
        &["--checkpoint", journal.to_str().unwrap(), "--checkpoint-interval-secs", "1"],
    ]
    .concat();
    let (code, killed) = run(&dir.0, "killed", &[&journaled[..], &["--fault-plan", &kill]].concat());
    assert_eq!(code, Some(3), "{name}: killed run: {}", killed.stderr);
    let resumed = scan(&dir.0, "resumed", &[&journaled[..], &["--resume"]].concat());
    assert_eq!(resumed.counter("resume_count"), 1, "{name}");
    let whole = scan(&dir.0, "whole", args).hosts();
    let mut union = [killed.hosts(), resumed.hosts()].concat();
    union.sort();
    union.dedup();
    assert!(union == whole, "{name}: killed + resumed found {} hosts, one run {}", union.len(), whole.len());
    // Both halves must have carried part of the scan.
    assert!(!killed.hosts().is_empty(), "{name}: the killed run found nothing");
    assert!(whole.len() > 100, "{name}: {} hosts", whole.len());
}

/// Without the rewind the resumed run misses 26 hosts.
#[test]
fn a_killed_v6_scan_resumes_to_the_uninterrupted_hosts() {
    let prefixes = repo().join("scenarios/ipv6-xmap.txt");
    kill_and_resume(
        "v6",
        350,
        &[
            "--ipv6", "2001:db8:ffff::1", "--prefix-list", prefixes.to_str().unwrap(), "-p", "443",
            "-r", "50", "--seed", "7", "--sim-seed", "3", "-O", "csv", "-q",
        ],
    );
}

/// Without the rewind the resumed run misses 9 hosts.
#[test]
fn a_killed_stealth_scan_resumes_to_the_uninterrupted_hosts() {
    kill_and_resume(
        "stealth",
        400,
        &[
            "--subnet", "23.129.0.0/22", "-p", "80", "-r", "50", "--seed", "7", "--sim-seed", "3",
            "--sim-live-fraction", "1.0", "--stealth", "-O", "csv", "-q",
        ],
    );
}
