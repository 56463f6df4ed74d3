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
            ("crates/zmap-core/src/parallel.rs".to_string(), 7),
            ("crates/zmap-core/src/parallel.rs".to_string(), 24),
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
fn alloc_in_hot_path_follows_the_call_graph() {
    let f = fixture("alloc_hot");
    assert_eq!(
        spans(&f, "alloc-in-hot-path"),
        vec![
            ("crates/zmap-core/src/output.rs".to_string(), 16),
            ("crates/zmap-core/src/plan.rs".to_string(), 16),
            ("crates/zmap-core/src/scanner.rs".to_string(), 19),
            ("crates/zmap-targets/src/constraint.rs".to_string(), 18),
            ("crates/zmap-targets/src/constraint.rs".to_string(), 19),
            ("crates/zmap-targets/src/generator.rs".to_string(), 23),
            ("crates/zmap-targets/src/schedule.rs".to_string(), 22),
            ("crates/zmap-targets/src/v6.rs".to_string(), 23),
            ("crates/zmap-targets/src/v6.rs".to_string(), 33),
            ("crates/zmap-wire/src/probe.rs".to_string(), 14),
            ("crates/zmap-wire/src/probe.rs".to_string(), 30),
        ],
        "serde_json::to_string in OutputModule::record, to_vec one hop below \
         ProbeModule::render_into, to_vec one hop below Engine::drain, \
         Vec::new and Box::new inside Constraint::lookup, \
         to_vec one hop below TargetIter::next, to_vec inside Schedule::next, \
         format! one hop below V6TargetIter::next, to_vec inside \
         V6DedupSpace::key_for, and below ProbeModule::parse_response \
         the to_vec in V4's ICMP arm and the one in the generic TCP arm fire; Vec::with_capacity in \
         OutputModule::new, Schedule::new and Constraint::finalize, the format! in `label`, the \
         owned banner of `parse_banner` and the collecting `recv_frames` (all \
         unreachable from a root: decode's bare \
         `finalize(…)` is the free fn, not the method), the `#[cold]` doubling step \
         below `patch` and the `#[cold]` miss path below `key_for`, the borrowing \
         UDP arm and the flat Constraint::is_allowed stay quiet"
    );
    assert!(
        f[0].message.contains("`to_string` allocates")
            && f[0].message.contains("OutputModule::record"),
        "the data stream's record path is a root: {:?}",
        f[0]
    );
    assert!(
        f[1].message.contains("ProbeModule::render_into → ProbeModule::patch"),
        "the finding names the reaching chain: {:?}",
        f[1]
    );
    assert!(
        f[2].message.contains("Engine::drain → Engine::on_frame"),
        "the receive drain is a root: {:?}",
        f[2]
    );
    assert!(
        f[3].message.contains("Constraint::lookup") && f[4].message.contains("Constraint::lookup"),
        "the index → address map is a root: {:?} {:?}",
        f[3],
        f[4]
    );
    assert!(
        f[5].message.contains("TargetIter::next → TargetGenerator::decode"),
        "the walk's entry point is a root: {:?}",
        f[5]
    );
    assert!(
        f[6].message.contains("via Schedule::next;")
            && f[7].message.contains("V6TargetIter::next → V6TargetSpace::decode_walk")
            && f[8].message.contains("via V6DedupSpace::key_for;"),
        "the scheduler, the v6 walk and the RX key lookup are roots: {:?} {:?} {:?}",
        f[6],
        f[7],
        f[8]
    );
    assert!(
        f[9].message.contains("ProbeBuilder::classify → V4::icmp_response")
            && f[10].message.contains("ProbeModule::parse_response")
            && f[10].message.contains("ProbeBuilder::classify"),
        "the RX parse is a root, followed through the seam's `L::` dispatch: {:?} {:?}",
        f[9],
        f[10]
    );
    assert_eq!(f.len(), 11, "{f:?}");
}

#[test]
fn panic_reachability_follows_entry_points_and_honors_panics_docs() {
    let f = fixture("panic_reach");
    assert_eq!(
        spans(&f, "panic-reachability"),
        vec![("crates/zmap-core/src/engine.rs".to_string(), 14)],
        "unwrap below Engine::run fires; the documented `# Panics` \
         contract in run_with and the unreachable helper stay quiet"
    );
    assert!(
        f[0].message.contains("Engine::run → Engine::step"),
        "the finding names the reaching chain: {:?}",
        f[0]
    );
    assert_eq!(f.len(), 1, "{f:?}");
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
