#![forbid(unsafe_code)]
//! # zmap-analyze — workspace lint engine for hot-path invariants
//!
//! The paper's engineering claims (stateless scanning, a lock-free TX
//! pipeline, line-rate sends) hold only while the engine keeps two
//! disciplines that follow a declared protocol: atomic orderings match
//! their `[atomics]` comment, and no lock is held across a send. No
//! compiler lint expresses these; this crate machine-checks them. The
//! rules rustc and clippy can hold (no unwrap, expect or panic in any
//! library crate, console output, the host clock, undocumented `unsafe`)
//! are lint configuration: each library crate root's `#![deny(…)]`,
//! `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`. The hot path's
//! allocation budget is measured, not inferred: zmap-core's
//! `tests/alloc_budget.rs` counts warm allocations on every hot-path
//! root.
//!
//! The pipeline is: walk the workspace's `.rs` files ([`walk_workspace`])
//! → lex each into a line-numbered token stream ([`lexer`]) → run the
//! lints ([`lints`]) → render text or JSON ([`report`]). No dependencies,
//! no `syn`: the hand-rolled lexer is in the same spirit as the vendored
//! proptest stub.
//!
//! Run it as `cargo run -p zmap-analyze -- check`.

pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;

use lexer::LexedFile;
use lints::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned: vendored dependency stubs, build output,
/// version control, the analyzer's own lint fixtures (which are
/// violations on purpose), and the wall-clock benchmark harness (its own
/// workspace; it times and prints by design).
const EXCLUDED_DIRS: [&str; 5] = ["vendor", "target", ".git", "fixtures", "benchmark"];

/// Collects the workspace's lintable `.rs` files, keyed by
/// workspace-relative forward-slash path, lexed and ready for the lint
/// pass.
pub fn walk_workspace(root: &Path) -> io::Result<BTreeMap<String, LexedFile>> {
    let mut files = BTreeMap::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !EXCLUDED_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let src = fs::read_to_string(&path)?;
                files.insert(rel, lexer::lex(&src));
            }
        }
    }
    Ok(files)
}

/// Walks `root` and runs every lint. The core entry point for tests and
/// the CLI alike.
pub fn analyze_root(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lints::run_lints(&walk_workspace(root)?))
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when invoked
/// via `cargo run -p zmap-analyze`, else the current directory.
pub fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map(Path::to_path_buf).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_root_is_the_workspace() {
        let root = default_root();
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates/zmap-core").exists());
    }

    #[test]
    fn walker_excludes_vendor_and_fixtures() {
        let files = walk_workspace(&default_root()).unwrap();
        assert!(files.keys().all(|p| !p.starts_with("vendor/")));
        assert!(files.keys().all(|p| !p.contains("/fixtures/")));
        assert!(files.contains_key("crates/zmap-core/src/scanner.rs"));
        assert!(files.contains_key("src/lib.rs"));
    }
}
