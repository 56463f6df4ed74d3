//! Each lint fires on its fixture tree at the exact `file:line`.
//!
//! The trees under `tests/fixtures/` are tiny fake workspaces (never
//! compiled, never walked by the real `check` run — the walker skips
//! directories named `fixtures`). Every test asserts the *complete*
//! finding set for its tree, so both false negatives and accidental
//! extra findings fail here.

use std::path::PathBuf;
use zmap_analyze::analyze_root;
use zmap_analyze::lints::Finding;

fn fixture(case: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case);
    analyze_root(&root).unwrap_or_else(|e| panic!("walking fixture {case}: {e}"))
}

/// `(path, line)` spans of every finding for `lint`, in report order.
fn spans(findings: &[Finding], lint: &str) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

#[test]
fn atomics_discipline_requires_protocol_comments_and_bans_seqcst() {
    let f = fixture("atomics_discipline");
    assert_eq!(
        spans(&f, "atomics-ordering-discipline"),
        vec![
            ("crates/zmap-core/src/seq.rs".to_string(), 18),
            ("crates/zmap-core/src/seq.rs".to_string(), 22),
            ("crates/zmap-core/src/seq.rs".to_string(), 32),
        ],
        "L18: `bad` has no protocol comment; L22: SeqCst is always denied; \
         L32: slot read guarded only by a Relaxed load. The annotated \
         `good` sites and the Acquire-guarded slot read stay quiet"
    );
    assert!(f[0].message.contains("[atomics] bad"), "{:?}", f[0]);
    assert!(f[1].message.contains("SeqCst"), "{:?}", f[1]);
    assert!(f[2].message.contains("Relaxed"), "{:?}", f[2]);
    assert_eq!(f.len(), 3, "{f:?}");
}

#[test]
fn lock_discipline_flags_sends_under_guard_and_abba_order() {
    let f = fixture("lock_discipline");
    assert_eq!(
        spans(&f, "lock-discipline"),
        vec![
            ("crates/zmap-core/src/transport.rs".to_string(), 7),
            ("crates/zmap-core/src/transport.rs".to_string(), 24),
        ],
        "L7: send_batch while the world guard lives; L24: log→stats order \
         reversed by log.rs. drop-before-send and sending through the \
         guard itself stay quiet"
    );
    assert!(f[0].message.contains("send_batch") && f[0].message.contains("world"), "{:?}", f[0]);
    assert!(f[1].message.contains("opposite order") && f[1].message.contains("log.rs"), "{:?}", f[1]);
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn findings_come_back_sorted_by_path_line_lint() {
    let f = fixture("atomics_discipline");
    let mut sorted = f.clone();
    sorted.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint))
    });
    assert_eq!(f, sorted);
}
