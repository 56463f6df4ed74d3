//! The `experiments` binary's command line: an entry refuses words it
//! does not take, and the attribution entry's flags still work.

use std::path::PathBuf;
use std::process::Command;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A directory under the test target's scratch space, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `experiments fig1_adoption out.txt` used to print the figure to stdout
/// and write nothing; now it is a usage error that names the entry.
#[test]
fn an_entry_refuses_words_it_does_not_take() {
    let dir = Scratch::new("experiments-cli-refuses");
    let out = dir.0.join("out.txt");
    for (entry, words) in [
        ("fig1_adoption", vec![out.to_str().unwrap()]),
        ("fig1_adoption", vec!["--scenario", "x.json"]),
        ("exp_attribution", vec!["--report"]),
        ("exp_attribution", vec!["--out", "x.json"]),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .current_dir(&dir.0)
            .arg(entry)
            .args(&words)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{entry} {words:?}: {stderr}");
        assert!(stderr.starts_with(&format!("usage: experiments {entry}")), "{stderr}");
        assert!(run.stdout.is_empty(), "{entry} {words:?} printed a result");
    }
    assert!(!out.exists(), "a refused command line wrote a file");
}

#[test]
fn the_attribution_entry_takes_a_scenario_and_a_report() {
    let dir = Scratch::new("experiments-cli-attribution");
    let scenario = repo().join("scenarios/attribution.json");
    let report = dir.0.join("report.json");
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("exp_attribution")
        .arg("--scenario")
        .arg(&scenario)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&run.stdout), format!("wrote {}\n", report.display()));
    let written = std::fs::read_to_string(&report).unwrap();
    assert!(written.contains(r#""method": "fingerprint""#), "{written}");
}
