//! `run_lints` is a pure function of the file *set*: the order files
//! were inserted into the map and the line-ending style of the sources
//! must never change a single finding. CI and local runs, git checkouts
//! with `core.autocrlf`, and any future parallel walker all depend on
//! this.

use proptest::prelude::*;
use std::collections::BTreeMap;
use zmap_analyze::lexer::lex;
use zmap_analyze::lints::{run_lints, LINTS};

/// A corpus that trips every lint: the per-file pass (atomics) and the
/// workspace pass (a send under a lock), plus a clean file that must stay
/// silent.
const CORPUS: &[(&str, &str)] = &[
    (
        "crates/zmap-core/src/seq.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::SeqCst)\n}\n",
    ),
    (
        "crates/zmap-core/src/parallel.rs",
        "fn tx(w: &Mutex<World>) {\n    let g = w.lock();\n    link.send_batch(&[1]);\n}\n",
    ),
    (
        "crates/zmap-math/src/clean.rs",
        "pub fn double(x: u64) -> u64 {\n    x * 2\n}\n",
    ),
];

/// Renders findings to comparable strings.
fn findings(order: &[usize], crlf: bool) -> Vec<String> {
    let mut files = BTreeMap::new();
    for &i in order {
        let (path, src) = CORPUS[i];
        let src = if crlf { src.replace('\n', "\r\n") } else { src.to_string() };
        files.insert(path.to_string(), lex(&src));
    }
    run_lints(&files)
        .into_iter()
        .map(|f| format!("{}:{}:{}: {}", f.path, f.line, f.lint, f.message))
        .collect()
}

/// Sort-by-priority permutation of `0..keys.len()` — covers every
/// corpus entry exactly once in a sampled order.
fn permutation(keys: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by_key(|&i| (keys[i], i));
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insertion_order_and_line_endings_never_change_findings(
        keys in prop::collection::vec(0u64..1_000_000, 3..4),
        crlf in any::<bool>(),
    ) {
        let canonical = findings(&(0..CORPUS.len()).collect::<Vec<_>>(), false);
        for lint in &LINTS {
            prop_assert!(
                canonical.iter().any(|f| f.contains(&format!(":{}: ", lint.id))),
                "the corpus must trigger {}: {:?}", lint.id, canonical
            );
        }
        let sampled = findings(&permutation(&keys), crlf);
        prop_assert_eq!(
            canonical, sampled,
            "findings drifted under permutation {:?} / crlf={}", keys, crlf
        );
    }
}
