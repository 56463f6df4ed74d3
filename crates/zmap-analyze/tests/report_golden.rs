//! The JSON report is a machine interface (CI uploads it as an
//! artifact): its field set, workspace-relative paths, stable lint IDs,
//! and ordering — identical to the text report — are pinned here by a
//! byte-exact golden file.
//!
//! Regenerate after an intentional change with:
//! `cargo run -p zmap-analyze -- check --json \
//!    --root crates/zmap-analyze/tests/fixtures/atomics_discipline \
//!    > crates/zmap-analyze/tests/golden/atomics_discipline.json`

use std::path::PathBuf;
use zmap_analyze::lints::Finding;
use zmap_analyze::{analyze_root, report};

fn manifest(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn atomics_fixture() -> Vec<Finding> {
    analyze_root(&manifest("tests/fixtures/atomics_discipline")).unwrap()
}

#[test]
fn json_report_matches_the_golden_file() {
    let json = report::json(&atomics_fixture());
    let golden =
        std::fs::read_to_string(manifest("tests/golden/atomics_discipline.json")).unwrap();
    assert_eq!(
        json.trim(),
        golden.trim(),
        "JSON schema or content drifted; if intentional, regenerate the \
         golden file (command in this file's header)"
    );
}

#[test]
fn json_and_text_reports_list_findings_in_the_same_order() {
    let findings = atomics_fixture();
    let v: serde_json::Value = serde_json::from_str(&report::json(&findings)).unwrap();
    let from_json: Vec<String> = v["findings"]
        .as_array()
        .unwrap()
        .iter()
        .map(|f| {
            format!(
                "{}:{}: [{}]",
                f["path"].as_str().unwrap(),
                f["line"],
                f["lint"].as_str().unwrap()
            )
        })
        .collect();
    let text = report::text(&findings);
    let from_text: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("crates/"))
        .map(|l| {
            let (span, _) = l.split_once("] ").unwrap();
            format!("{span}]")
        })
        .collect();
    assert!(!from_json.is_empty());
    assert_eq!(from_json, from_text, "the two renderings must sort identically");
}

#[test]
fn json_findings_carry_the_stable_fields() {
    let v: serde_json::Value = serde_json::from_str(&report::json(&atomics_fixture())).unwrap();
    for f in v["findings"].as_array().unwrap() {
        let path = f["path"].as_str().expect("path is a string");
        assert!(
            path.starts_with("crates/") && !path.starts_with('/'),
            "workspace-relative path, not absolute: {path}"
        );
        assert!(f["lint"].is_string(), "stable lint ID");
        assert!(f["line"].is_u64());
        assert!(f["message"].is_string());
    }
}
