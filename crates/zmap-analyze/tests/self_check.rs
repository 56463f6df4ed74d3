//! The workspace must pass its own analyzer: `check` exits 0 on it, and
//! exits 1 on every fixture tree of deliberate violations. There is no
//! suppression file — a finding is fixed in the code.

use std::path::{Path, PathBuf};
use std::process::Command;
use zmap_analyze::analyze_root;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/zmap-analyze sits two levels below the root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let findings = analyze_root(&workspace_root()).expect("walk the workspace");
    assert!(
        findings.is_empty(),
        "fix these findings in the code:\n{}",
        zmap_analyze::report::text(&findings)
    );
}

fn run_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_zmap-analyze"))
        .args(args)
        .output()
        .expect("spawn the analyzer binary")
}

#[test]
fn check_exits_zero_on_the_workspace() {
    let root = workspace_root();
    let out = run_check(&["check", "--root", root.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_exits_one_on_each_fixture_tree() {
    // Each tree is what a regression of its lint looks like in CI.
    for (case, lint) in [
        ("atomics_discipline", "atomics-ordering-discipline"),
        ("lock_discipline", "lock-discipline"),
    ] {
        let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(case);
        let out = run_check(&["check", "--root", bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{case}: findings exit 1");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(lint), "{case}: {stdout}");
    }
}

#[test]
fn json_report_is_machine_readable() {
    let root = workspace_root();
    let out = run_check(&["check", "--json", "--root", root.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value =
        serde_json::from_str(stdout.trim()).expect("valid JSON on stdout");
    assert_eq!(v.as_object().map(|o| o.len()), Some(1), "one key: {stdout}");
    assert_eq!(v["findings"].as_array().map(Vec::len), Some(0));
}
