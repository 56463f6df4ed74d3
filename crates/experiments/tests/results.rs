//! Every `results/` file is what its experiment returns today, byte for
//! byte, and the attribution scenario's report replays.
//!
//! The regeneration runs in release builds only (`cargo test --release
//! -p experiments`, about 10 s on two cores; in a debug build Figure 7
//! alone takes 30 s). A drifted file's actual bytes land in
//! `target/results-actual/<file>`; after an intentional change, copy them
//! over `results/` and say why in the commit.

use experiments::{find, EXPERIMENTS};
use std::path::PathBuf;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release -p experiments")]
fn every_results_file_regenerates_byte_for_byte() {
    let actual_dir = repo().join("target/results-actual");
    let mut drifted = Vec::new();
    for e in EXPERIMENTS {
        let actual = (e.run)(&[]).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let expected = std::fs::read_to_string(repo().join("results").join(e.file))
            .unwrap_or_else(|err| panic!("results/{}: {err}", e.file));
        if actual == expected {
            let _ = std::fs::remove_file(actual_dir.join(e.file));
            continue;
        }
        std::fs::create_dir_all(&actual_dir).unwrap();
        std::fs::write(actual_dir.join(e.file), &actual).unwrap();
        let line = expected.lines().zip(actual.lines()).take_while(|(x, y)| x == y).count() + 1;
        drifted.push(format!("results/{} (first difference on line {line})", e.file));
    }
    assert!(
        drifted.is_empty(),
        "{} drifted from what the code regenerates; actual bytes in {}:\n  {}",
        drifted.len(),
        actual_dir.display(),
        drifted.join("\n  ")
    );
}

/// The committed scenario runs every stage of the attribution pipeline
/// and the stealth countermeasure, and its report is a pure function of
/// the scenario: a second run, written with `--report`, is identical.
#[test]
fn the_attribution_scenario_replays_byte_for_byte() {
    let scenario = repo().join("scenarios/attribution.json").display().to_string();
    let run = find("exp_attribution").unwrap().run;
    let first = run(&["--scenario".into(), scenario.clone()]).unwrap();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("attribution-report.json");
    let report = path.display().to_string();
    let wrote = run(&["--scenario".into(), scenario, "--report".into(), report.clone()]).unwrap();
    assert_eq!(wrote, format!("wrote {report}\n"));
    assert!(first == std::fs::read_to_string(&path).unwrap(), "two runs wrote different reports");
    for needle in [
        r#""method": "fingerprint""#,
        r#""method": "cryptanalytic""#,
        r#""method": "unattributed""#,
        r#""prime": 65537"#,
    ] {
        assert!(first.contains(needle), "the report has no {needle}:\n{first}");
    }
}

/// A scenario that cannot be read is an error naming the file, not a panic.
#[test]
fn a_missing_scenario_is_an_error() {
    let run = find("exp_attribution").unwrap().run;
    let err = run(&["--scenario".into(), "no/such/scenario.json".into()]).unwrap_err();
    assert!(err.to_string().starts_with("no/such/scenario.json: "), "{err}");
}
