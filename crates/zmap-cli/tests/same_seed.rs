//! Same seeds, same bytes: each scan below runs twice and every stream it
//! writes — data (`-o`), metadata (`--metadata-file`), and stdout and
//! stderr (logs plus the JSON status stream) where they are not silenced —
//! must match byte for byte. The v4 scan, the 4-lane `--tx-pipeline` scan
//! (thread interleaving may not leak into data or metadata; its status
//! timing does depend on scheduling, so it runs `-q`) and the v6 scan over
//! the committed XMap scenario.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every stream one run wrote.
#[derive(Debug, PartialEq, Eq)]
struct Streams {
    data: String,
    metadata: String,
    stdout: String,
    stderr: String,
}

/// A scratch directory of this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("zmap-same-seed-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `zmap` with `args` plus `-o` and `--metadata-file` into `dir`,
/// under the run name `name`.
fn scan(dir: &Path, name: &str, args: &[&str]) -> Streams {
    let (data, meta) = (dir.join(format!("{name}.csv")), dir.join(format!("{name}.json")));
    let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
        .args(args)
        .arg("-o")
        .arg(&data)
        .arg("--metadata-file")
        .arg(&meta)
        .output()
        .unwrap();
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert!(run.status.success(), "{name}: {stderr}");
    Streams {
        data: std::fs::read_to_string(&data).unwrap(),
        metadata: std::fs::read_to_string(&meta).unwrap(),
        stdout: String::from_utf8(run.stdout).unwrap(),
        stderr,
    }
}

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

#[test]
fn the_v6_scan_replays_every_stream() {
    let prefixes = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/ipv6-xmap.txt");
    let run = twice(
        "v6",
        &[
            "--ipv6", "2001:db8:ffff::1", "--prefix-list", prefixes, "-p", "443", "-r", "100000",
            "--seed", "42", "--sim-seed", "9", "-O", "csv", "--status-json",
        ],
    );
    // The scan walked the v6 space: the metadata echoes the prefix list
    // and the data stream carries v6 addresses.
    assert!(run.metadata.contains("\"prefix_list\""), "no prefix list in the metadata");
    assert!(run.data.contains("2001:db8:"), "no v6 address in the data");
}
