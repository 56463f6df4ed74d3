//! The lint pass: eleven project-specific checks over the lexed token
//! streams. Each lint exists because a paper invariant (determinism,
//! statelessness, lock-free-ring correctness) is only as strong as the
//! codebase's discipline about it; see DESIGN.md §9 for the mapping.
//!
//! Every lint is one row of the [`LINTS`] registry: id, summary, and a
//! workspace-level pass fn. `run_lints`, `report.rs`, and the docs all
//! derive from that single table, so the ID list cannot drift from the
//! dispatch.

use crate::lexer::{LexedFile, Tok};
use crate::parse::{self, CallSite, FnItem, ParsedFile};
use std::collections::BTreeMap;

/// One lint violation, anchored to a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub lint: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// One registered lint: the single source of truth binding an ID to its
/// pass. Docs and reports enumerate this table; `run_lints` dispatches
/// through it.
pub struct Lint {
    /// Stable machine-readable ID (appears in findings, baseline
    /// entries, JSON reports, and DESIGN.md §9).
    pub id: &'static str,
    /// One-line human summary, mirrored in the docs.
    pub summary: &'static str,
    /// The pass: appends findings for the whole workspace file set.
    pub pass: fn(&BTreeMap<String, LexedFile>, &mut Vec<Finding>),
}

/// Lifts a per-file lint into the workspace-level pass signature.
macro_rules! per_file {
    ($pass:ident, $inner:ident) => {
        fn $pass(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
            for (path, lexed) in files {
                $inner(path, lexed, out);
            }
        }
    };
}

per_file!(pass_unwrap_hot_path, lint_unwrap_hot_path);
per_file!(pass_wallclock, lint_wallclock);
per_file!(pass_unseeded_rng, lint_unseeded_rng);
per_file!(pass_must_use_fallible, lint_must_use_fallible);
per_file!(pass_println, lint_println);
per_file!(pass_todo_fixme, lint_todo_fixme);
per_file!(pass_atomics_ordering, lint_atomics_ordering);

/// `unsafe-needs-safety-comment` has two halves sharing one ID: the
/// per-site SAFETY-comment check and the per-crate forbid attestation.
fn pass_unsafe(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    for (path, lexed) in files {
        lint_unsafe_comments(path, lexed, out);
    }
    lint_unsafe_attestation(files, out);
}

/// The lint registry, in the order findings are documented. Adding a
/// lint means adding a row here — there is no second list to update.
pub const LINTS: [Lint; 11] = [
    Lint {
        id: "no-unwrap-hot-path",
        summary: "no .unwrap()/.expect() on the TX/RX hot path",
        pass: pass_unwrap_hot_path,
    },
    Lint {
        id: "no-wallclock-in-engine",
        summary: "engine code must not read the host clock",
        pass: pass_wallclock,
    },
    Lint {
        id: "no-unseeded-rng",
        summary: "all randomness derives from an explicit u64 seed",
        pass: pass_unseeded_rng,
    },
    Lint {
        id: "must-use-fallible-send",
        summary: "fallible trait send/recv methods must be #[must_use]",
        pass: pass_must_use_fallible,
    },
    Lint {
        id: "no-println-outside-cli",
        summary: "library code must not print to the console",
        pass: pass_println,
    },
    Lint {
        id: "unsafe-needs-safety-comment",
        summary: "unsafe needs a SAFETY comment; unsafe-free crates must forbid",
        pass: pass_unsafe,
    },
    Lint {
        id: "todo-fixme-gate",
        summary: "no TODO/FIXME/XXX comments in committed code",
        pass: pass_todo_fixme,
    },
    Lint {
        id: "atomics-ordering-discipline",
        summary: "every atomic op must match a declared [atomics] protocol",
        pass: pass_atomics_ordering,
    },
    Lint {
        id: "lock-discipline",
        summary: "no lock held across sends; consistent acquisition order",
        pass: lint_lock_discipline,
    },
    Lint {
        id: "alloc-in-hot-path",
        summary: "no call-graph-reachable allocation from TX/RX hot-path roots",
        pass: lint_alloc_in_hot_path,
    },
    Lint {
        id: "panic-reachability",
        summary: "no undocumented panic reachable from an engine entry point",
        pass: lint_panic_reachability,
    },
];

/// Lint IDs, derived from [`LINTS`] so the two can never disagree.
pub const LINT_IDS: [&str; LINTS.len()] = {
    let mut ids = [""; LINTS.len()];
    let mut i = 0;
    while i < LINTS.len() {
        ids[i] = LINTS[i].id;
        i += 1;
    }
    ids
};

/// Crates whose code is allowed to read the wall clock and print to the
/// console: the CLI front-end, the bench/experiment harness, and this
/// analyzer itself (a build-time tool, never on a scan path).
const FRONTEND_CRATES: [&str; 3] = ["zmap-cli", "bench", "zmap-analyze"];

/// Runs every registered lint over the workspace file set.
///
/// `files` maps workspace-relative forward-slash paths to lexed sources.
/// Findings come back sorted by (path, line, lint).
pub fn run_lints(files: &BTreeMap<String, LexedFile>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for lint in &LINTS {
        (lint.pass)(files, &mut findings);
    }
    debug_assert!(
        findings.iter().all(|f| LINT_IDS.contains(&f.lint)),
        "a pass emitted a finding under an unregistered lint ID"
    );
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint))
    });
    findings
}

fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn is_tests_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

fn is_examples_path(path: &str) -> bool {
    path.starts_with("examples/") || path.contains("/examples/")
}

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn in_frontend_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| FRONTEND_CRATES.contains(&c))
}

// ---------------------------------------------------------------------
// Token-stream geometry helpers.
// ---------------------------------------------------------------------

/// Index just past the `}` matching the `{` at `open`.
fn skip_brace_block(lexed: &LexedFile, open: usize) -> usize {
    debug_assert!(lexed.punct(open, '{'));
    let mut depth = 0i32;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.punct(i, '{') {
            depth += 1;
        } else if lexed.punct(i, '}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    lexed.tokens.len()
}

/// Index just past the `]` matching the `[` at `open`.
fn skip_bracket_group(lexed: &LexedFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.punct(i, '[') {
            depth += 1;
        } else if lexed.punct(i, ']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    lexed.tokens.len()
}

/// True when the attribute group `[start..end)` (token indices spanning
/// `[` … `]`) gates on `cfg(test)` — conservatively, "mentions `test`
/// under `cfg` without a `not`".
fn attr_is_cfg_test(lexed: &LexedFile, start: usize, end: usize) -> bool {
    let mut saw_cfg = false;
    for i in start..end {
        match lexed.ident(i) {
            Some("cfg") => saw_cfg = true,
            Some("not") => return false,
            Some("test") | Some("tests") if saw_cfg => return true,
            _ => {}
        }
    }
    false
}

/// Token-index ranges covered by `#[cfg(test)]` items and `#[test]` fns.
fn test_regions(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.punct(i, '#') && lexed.punct(i + 1, '[') {
            let attr_end = skip_bracket_group(lexed, i + 1);
            let is_test_attr = attr_is_cfg_test(lexed, i + 1, attr_end)
                || (attr_end == i + 3 && lexed.ident(i + 2) == Some("test"));
            let mut j = attr_end;
            // Skip any further attributes on the same item.
            while lexed.punct(j, '#') && lexed.punct(j + 1, '[') {
                j = skip_bracket_group(lexed, j + 1);
            }
            if is_test_attr {
                // Find the item's body: the first `{` before a `;`.
                let mut k = j;
                while k < lexed.tokens.len() {
                    if lexed.punct(k, ';') {
                        break;
                    }
                    if lexed.punct(k, '{') {
                        let end = skip_brace_block(lexed, k);
                        regions.push((i, end));
                        i = end;
                        break;
                    }
                    k += 1;
                }
                if i <= k {
                    i = k.max(j);
                }
            }
            i = i.max(attr_end);
            continue;
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Body ranges (token indices inside the braces) of `trait … { … }`
/// declarations, with the nesting depth tracked so only direct trait
/// items are inspected by callers.
fn trait_bodies(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.ident(i) == Some("trait") {
            let mut k = i + 1;
            while k < lexed.tokens.len() {
                if lexed.punct(k, ';') {
                    break;
                }
                if lexed.punct(k, '{') {
                    bodies.push((k + 1, skip_brace_block(lexed, k) - 1));
                    break;
                }
                k += 1;
            }
            i = k;
        }
        i += 1;
    }
    bodies
}

// ---------------------------------------------------------------------
// Lint 1: no-unwrap-hot-path
// ---------------------------------------------------------------------

fn is_hot_path_file(path: &str) -> bool {
    if is_tests_path(path) || is_examples_path(path) {
        return false;
    }
    matches!(basename(path), "scanner.rs" | "parallel.rs" | "transport.rs")
        || path.starts_with("crates/zmap-wire/src/")
        || path == "crates/zmap-netsim/src/world.rs"
}

fn lint_unwrap_hot_path(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    if !is_hot_path_file(path) {
        return;
    }
    let tests = test_regions(lexed);
    for i in 1..lexed.tokens.len() {
        let Some(id) = lexed.ident(i) else { continue };
        if (id == "unwrap" || id == "expect")
            && lexed.punct(i - 1, '.')
            && lexed.punct(i + 1, '(')
            && !in_regions(&tests, i)
        {
            out.push(Finding {
                lint: "no-unwrap-hot-path",
                path: path.to_string(),
                line: lexed.line(i),
                message: format!(
                    "`.{id}()` on the TX/RX hot path can panic a live scan; \
                     propagate the error or recover (see parallel::lock_world)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Lint 2: no-wallclock-in-engine
// ---------------------------------------------------------------------

fn lint_wallclock(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    if in_frontend_crate(path) {
        return;
    }
    for i in 0..lexed.tokens.len() {
        let clock = match lexed.ident(i) {
            Some("Instant") => "Instant",
            Some("SystemTime") => "SystemTime",
            _ => continue,
        };
        if lexed.punct(i + 1, ':') && lexed.punct(i + 2, ':') && lexed.ident(i + 3) == Some("now")
        {
            out.push(Finding {
                lint: "no-wallclock-in-engine",
                path: path.to_string(),
                line: lexed.line(i),
                message: format!(
                    "`{clock}::now` reads the host clock; engine code must take time \
                     from its Transport so replays are byte-identical"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Lint 3: no-unseeded-rng
// ---------------------------------------------------------------------

fn lint_unseeded_rng(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for i in 0..lexed.tokens.len() {
        let Some(id) = lexed.ident(i) else { continue };
        if matches!(id, "thread_rng" | "from_entropy" | "OsRng") {
            out.push(Finding {
                lint: "no-unseeded-rng",
                path: path.to_string(),
                line: lexed.line(i),
                message: format!(
                    "`{id}` draws OS entropy; every randomized path must derive from \
                     an explicit u64 seed (StdRng::seed_from_u64) to stay replayable"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Lint 4: must-use-fallible-send
// ---------------------------------------------------------------------

/// True when the attributes/modifiers immediately before the `fn` at
/// `fn_idx` include `#[must_use]`. `floor` bounds the backward walk.
fn has_must_use_attr(lexed: &LexedFile, fn_idx: usize, floor: usize) -> bool {
    let modifiers = ["pub", "unsafe", "async", "const", "default", "extern", "crate", "super", "self", "in"];
    let mut j = fn_idx;
    while j > floor {
        let prev = j - 1;
        if lexed.ident(prev).is_some_and(|id| modifiers.contains(&id)) {
            j = prev;
        } else if lexed.punct(prev, ')') {
            // pub(crate) and friends: walk to the opening paren.
            let mut k = prev;
            let mut depth = 0i32;
            while k > floor {
                if lexed.punct(k, ')') {
                    depth += 1;
                } else if lexed.punct(k, '(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            j = k;
        } else if lexed.punct(prev, ']') {
            // An attribute group: scan its contents, then continue past.
            let mut k = prev;
            let mut depth = 0i32;
            while k > floor {
                if lexed.punct(k, ']') {
                    depth += 1;
                } else if lexed.punct(k, '[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            for t in k..prev {
                if lexed.ident(t) == Some("must_use") {
                    return true;
                }
            }
            // Step over the leading `#`.
            j = k.saturating_sub(1).max(floor);
        } else {
            break;
        }
    }
    false
}

fn lint_must_use_fallible(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    if is_tests_path(path) || is_examples_path(path) {
        return;
    }
    for &(body_start, body_end) in &trait_bodies(lexed) {
        let mut depth = 0i32;
        let mut i = body_start;
        while i < body_end {
            if lexed.punct(i, '{') {
                depth += 1;
            } else if lexed.punct(i, '}') {
                depth -= 1;
            } else if depth == 0 && lexed.ident(i) == Some("fn") {
                let Some(name) = lexed.ident(i + 1) else {
                    i += 1;
                    continue;
                };
                if name.starts_with("send") || name.starts_with("recv") {
                    // Signature: tokens until the body `{` or the `;`.
                    let mut k = i + 2;
                    let mut saw_arrow = false;
                    let mut returns_result = false;
                    while k < body_end && !lexed.punct(k, '{') && !lexed.punct(k, ';') {
                        if lexed.punct(k, '-') && lexed.punct(k + 1, '>') {
                            saw_arrow = true;
                        }
                        if saw_arrow && lexed.ident(k) == Some("Result") {
                            returns_result = true;
                        }
                        k += 1;
                    }
                    if returns_result && !has_must_use_attr(lexed, i, body_start) {
                        out.push(Finding {
                            lint: "must-use-fallible-send",
                            path: path.to_string(),
                            line: lexed.line(i),
                            message: format!(
                                "fallible trait method `{name}` returns Result but is not \
                                 `#[must_use]`; a dropped send/recv error is a silently \
                                 lost probe"
                            ),
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Lint 5: no-println-outside-cli
// ---------------------------------------------------------------------

fn lint_println(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    if in_frontend_crate(path) || is_tests_path(path) || is_examples_path(path) {
        return;
    }
    let tests = test_regions(lexed);
    for i in 0..lexed.tokens.len() {
        let Some(id) = lexed.ident(i) else { continue };
        if matches!(id, "println" | "eprintln" | "print" | "eprint" | "dbg")
            && lexed.punct(i + 1, '!')
            && !in_regions(&tests, i)
        {
            out.push(Finding {
                lint: "no-println-outside-cli",
                path: path.to_string(),
                line: lexed.line(i),
                message: format!(
                    "`{id}!` in library code bypasses the four output streams; \
                     route through Logger or return data to the caller"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Lint 6: unsafe-needs-safety-comment (+ forbid attestation)
// ---------------------------------------------------------------------

fn lint_unsafe_comments(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for i in 0..lexed.tokens.len() {
        if lexed.ident(i) != Some("unsafe") {
            continue;
        }
        let line = lexed.line(i);
        let documented = lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY") && c.line + 3 >= line && c.line <= line);
        if !documented {
            out.push(Finding {
                lint: "unsafe-needs-safety-comment",
                path: path.to_string(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding \
                          3 lines; state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

/// Crates with zero `unsafe` tokens in `src/` must attest with
/// `#![forbid(unsafe_code)]` in their crate root, so the zero-unsafe
/// state is compiler-enforced rather than accidental.
fn lint_unsafe_attestation(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    // crate key -> src dir prefix
    let mut crates: BTreeMap<String, String> = BTreeMap::new();
    for path in files.keys() {
        if let Some(name) = crate_of(path) {
            crates.insert(format!("crates/{name}"), format!("crates/{name}/src/"));
        } else if path.starts_with("src/") {
            crates.insert(String::new(), "src/".to_string());
        }
    }
    for (crate_dir, src_prefix) in crates {
        let src_files: Vec<(&String, &LexedFile)> = files
            .iter()
            .filter(|(p, _)| p.starts_with(src_prefix.as_str()))
            .collect();
        let has_unsafe = src_files.iter().any(|(_, f)| {
            f.tokens
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "unsafe"))
        });
        if has_unsafe {
            continue;
        }
        let root = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| format!("{src_prefix}{f}"))
            .find(|p| files.contains_key(p));
        let Some(root) = root else { continue };
        let lexed = &files[&root];
        let mut attested = false;
        for i in 0..lexed.tokens.len() {
            if lexed.ident(i) == Some("forbid")
                && lexed.punct(i + 1, '(')
                && lexed.ident(i + 2) == Some("unsafe_code")
            {
                attested = true;
                break;
            }
        }
        if !attested {
            let display = if crate_dir.is_empty() { "the umbrella crate" } else { &crate_dir };
            out.push(Finding {
                lint: "unsafe-needs-safety-comment",
                path: root.clone(),
                line: 1,
                message: format!(
                    "{display} contains no unsafe code but its root lacks \
                     `#![forbid(unsafe_code)]`; attest so regressions are \
                     compile errors"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Lint 7: todo-fixme-gate
// ---------------------------------------------------------------------

fn lint_todo_fixme(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for c in &lexed.comments {
        for marker in ["TODO", "FIXME", "XXX"] {
            if c.text.contains(marker) {
                out.push(Finding {
                    lint: "todo-fixme-gate",
                    path: path.to_string(),
                    line: c.line,
                    message: format!(
                        "comment carries `{marker}`; deferred work must live in the \
                         baseline (with a reason) or in ROADMAP.md, not in code"
                    ),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint 8: atomics-ordering-discipline
// ---------------------------------------------------------------------

/// Index just past the `)` matching the `(` at `open`.
fn skip_paren_group(lexed: &LexedFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.punct(i, '(') {
            depth += 1;
        } else if lexed.punct(i, ')') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    lexed.tokens.len()
}

/// Methods on the std atomic types whose arguments name an `Ordering`.
const ATOMIC_OPS: [&str; 13] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Contiguous comment lines merged into blocks `(first_line, last_line,
/// joined text)` — a protocol declaration is naturally multi-line, and
/// the lexer stores `//` comments one entry per line.
fn comment_blocks(lexed: &LexedFile) -> Vec<(u32, u32, String)> {
    let mut blocks: Vec<(u32, u32, String)> = Vec::new();
    for c in &lexed.comments {
        match blocks.last_mut() {
            Some((_, last, text)) if c.line <= *last + 1 => {
                *last = (*last).max(c.line);
                text.push(' ');
                text.push_str(&c.text);
            }
            _ => blocks.push((c.line, c.line, c.text.clone())),
        }
    }
    blocks
}

/// Memory-ordering names mentioned as `Ordering::X` in `[start..end)`.
fn orderings_in(lexed: &LexedFile, start: usize, end: usize) -> Vec<&'static str> {
    let mut out = Vec::new();
    for i in start..end.min(lexed.tokens.len()) {
        if lexed.ident(i) == Some("Ordering") && lexed.punct(i + 1, ':') && lexed.punct(i + 2, ':')
        {
            let o = match lexed.ident(i + 3) {
                Some("Relaxed") => "Relaxed",
                Some("Acquire") => "Acquire",
                Some("Release") => "Release",
                Some("AcqRel") => "AcqRel",
                Some("SeqCst") => "SeqCst",
                _ => continue,
            };
            out.push(o);
        }
    }
    out
}

/// Every `Ordering::Relaxed`/`Acquire`/`Release`/`AcqRel` site must be
/// covered by a declared per-receiver protocol comment of the form
/// `// [atomics] <receiver>: … <Ordering names> …` (anywhere in the same
/// file, normally at the field declaration), or — for closure-local
/// receivers whose binding name is not the field — an `[atomics]`
/// comment within the 3 lines above the site. `SeqCst` is denied
/// outright: it papers over not knowing the protocol. And inside any fn
/// that indexes a slot array (`slots[…]`/`slot[…]`), the guarding
/// counter loads must include an `Acquire` — a `Relaxed` load may never
/// guard a slot read, because nothing would order the slot's contents
/// after the counter observation.
fn lint_atomics_ordering(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    if in_frontend_crate(path) || is_tests_path(path) || is_examples_path(path) {
        return;
    }
    let parsed = parse::parse(lexed);
    let blocks = comment_blocks(lexed);
    for f in parsed.fns.iter().filter(|f| !f.in_test && f.body.is_some()) {
        // Counter loads seen so far in this fn, for the slot-guard rule:
        // (token idx, had Acquire or stronger).
        let mut loads_seen: Vec<(usize, bool)> = Vec::new();
        for call in &f.calls {
            if !ATOMIC_OPS.contains(&call.name.as_str()) {
                continue;
            }
            let args_end = skip_paren_group(lexed, call.idx + 1);
            let orderings = orderings_in(lexed, call.idx + 1, args_end);
            if orderings.is_empty() {
                continue; // same method name on a non-atomic type
            }
            if call.name == "load" {
                let acq = orderings.iter().any(|o| matches!(*o, "Acquire" | "AcqRel" | "SeqCst"));
                loads_seen.push((call.idx, acq));
            }
            if orderings.contains(&"SeqCst") {
                out.push(Finding {
                    lint: "atomics-ordering-discipline",
                    path: path.to_string(),
                    line: call.line,
                    message: format!(
                        "`{}` uses Ordering::SeqCst; name the actual acquire/release \
                         protocol instead — SeqCst here means the protocol is unknown",
                        call.name
                    ),
                });
                continue;
            }
            let receiver = call.receiver.as_deref().unwrap_or("");
            let tag = format!("[atomics] {receiver}");
            let covered = blocks.iter().any(|(first, last, text)| {
                let declares = (!receiver.is_empty() && text.contains(tag.as_str()))
                    || (text.contains("[atomics]")
                        && *last + 3 >= call.line
                        && *first < call.line);
                declares && orderings.iter().all(|o| text.contains(o))
            });
            if !covered {
                out.push(Finding {
                    lint: "atomics-ordering-discipline",
                    path: path.to_string(),
                    line: call.line,
                    message: format!(
                        "atomic `{}.{}` uses Ordering::{} without a matching \
                         `[atomics] {}: …` protocol comment declaring that ordering",
                        receiver,
                        call.name,
                        orderings.join("/"),
                        receiver,
                    ),
                });
            }
        }
        // Slot-guard rule: find indexed slot accesses in this body.
        let (body_start, body_end) = f.body.unwrap_or((0, 0));
        for i in body_start..body_end.min(lexed.tokens.len()) {
            let is_slot = matches!(lexed.ident(i), Some("slots") | Some("slot"));
            if !is_slot || !lexed.punct(i + 1, '[') {
                continue;
            }
            let prior: Vec<&(usize, bool)> =
                loads_seen.iter().filter(|(idx, _)| *idx < i).collect();
            if !prior.is_empty() && prior.iter().all(|(_, acq)| !acq) {
                out.push(Finding {
                    lint: "atomics-ordering-discipline",
                    path: path.to_string(),
                    line: lexed.line(i),
                    message: "slot read is guarded only by Relaxed counter loads; the \
                              peer counter must be read with Acquire so the slot's \
                              contents are ordered after the observation"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint 9: lock-discipline
// ---------------------------------------------------------------------

/// Calls that hand frames to a transport — blocking or retrying, so a
/// lock held across one stalls the peer thread for the full send.
const TX_SINK_CALLS: [&str; 4] = ["send", "send_batch", "send_frame", "flush"];

/// Files whose lock acquisition order is checked for global consistency
/// (the three subsystems a TX thread can hold locks from).
const LOCK_ORDER_FILES: [&str; 3] = [
    "crates/zmap-core/src/parallel.rs",
    "crates/zmap-core/src/log.rs",
    "crates/zmap-core/src/metrics.rs",
];

/// One lock acquisition inside a fn body.
struct LockSite {
    /// Lock identity: receiver of `.lock()` or first-arg of `lock_world`.
    name: String,
    /// Guard binding (`let g = …`), when the statement is a let.
    binding: Option<String>,
    line: u32,
    /// Token index of the `lock`/`lock_world` ident.
    idx: usize,
    /// Token index past which the guard is certainly dead.
    live_end: usize,
}

/// The `let` binding name when the statement containing token `i` is
/// `let [mut] <name> = …`. Walks back to the nearest statement boundary.
fn let_binding_of(lexed: &LexedFile, i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if lexed.punct(j, ';') || lexed.punct(j, '{') || lexed.punct(j, '}') {
            break;
        }
        if lexed.ident(j) == Some("let") {
            let name_at = if lexed.ident(j + 1) == Some("mut") { j + 2 } else { j + 1 };
            return lexed.ident(name_at).map(str::to_string);
        }
    }
    None
}

/// Token index past the end of the statement containing `i` (the next
/// `;` at the current nesting depth, or the enclosing block's end).
fn statement_end(lexed: &LexedFile, i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < lexed.tokens.len() {
        if lexed.punct(j, '{') || lexed.punct(j, '(') || lexed.punct(j, '[') {
            depth += 1;
        } else if lexed.punct(j, '}') || lexed.punct(j, ')') || lexed.punct(j, ']') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0 && lexed.punct(j, ';') {
            return j + 1;
        }
        j += 1;
    }
    lexed.tokens.len()
}

/// Token index of the enclosing block's `}` starting from `i`.
fn enclosing_block_end(lexed: &LexedFile, i: usize, hard_end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < hard_end.min(lexed.tokens.len()) {
        if lexed.punct(j, '{') || lexed.punct(j, '(') || lexed.punct(j, '[') {
            depth += 1;
        } else if lexed.punct(j, '}') || lexed.punct(j, ')') || lexed.punct(j, ']') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        }
        j += 1;
    }
    hard_end
}

/// Lock acquisitions in `f`'s body, with guard live ranges.
fn lock_sites(lexed: &LexedFile, f: &FnItem) -> Vec<LockSite> {
    let Some((body_start, body_end)) = f.body else { return Vec::new() };
    let mut sites = Vec::new();
    for call in &f.calls {
        let (name, idx) = match call.name.as_str() {
            "lock" if call.is_method => {
                (call.receiver.clone().unwrap_or_else(|| "<lock>".into()), call.idx)
            }
            "lock_world" => {
                // Identity is the last ident of the first argument:
                // `lock_world(&self.world, &recoveries)` → `world`.
                let args_end = skip_paren_group(lexed, call.idx + 1);
                let mut ident = None;
                for t in call.idx + 2..args_end {
                    if lexed.punct(t, ',') {
                        break;
                    }
                    if let Some(id) = lexed.ident(t) {
                        if id != "self" {
                            ident = Some(id.to_string());
                        }
                    }
                }
                (ident.unwrap_or_else(|| "world".into()), call.idx)
            }
            _ => continue,
        };
        let binding = let_binding_of(lexed, idx);
        let live_end = if binding.is_some() {
            enclosing_block_end(lexed, idx, body_end)
        } else {
            statement_end(lexed, idx)
        };
        let _ = body_start;
        sites.push(LockSite { name, binding, line: call.line, idx, live_end });
    }
    sites
}

/// (a) No lock may be held across a transport send/flush call — the
/// guard exemption is calls *on the guard itself* (`world.send(…)` where
/// `world` is the guard: the lock IS the transport's serialization
/// point, which is calling through the lock, not holding an unrelated
/// one across it). An explicit `drop(guard)` before the send also ends
/// the hazard. (b) Across `parallel.rs`/`log.rs`/`metrics.rs`, any two
/// locks acquired in one fn must be acquired in a globally consistent
/// order, or two threads taking them in opposite orders deadlock.
fn lint_lock_discipline(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    // Global acquisition-order observations: (first, second) -> site.
    let mut order: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (path, lexed) in files {
        if in_frontend_crate(path) || is_tests_path(path) || is_examples_path(path) {
            continue;
        }
        let parsed = parse::parse(lexed);
        for f in parsed.fns.iter().filter(|f| !f.in_test) {
            let sites = lock_sites(lexed, f);
            // Rule (a): sends under a live guard.
            for site in &sites {
                for call in &f.calls {
                    if call.idx <= site.idx || call.idx >= site.live_end {
                        continue;
                    }
                    // An explicit drop of the guard ends the hazard.
                    if let Some(b) = &site.binding {
                        let dropped = f.calls.iter().any(|c| {
                            c.name == "drop"
                                && c.idx > site.idx
                                && c.idx < call.idx
                                && lexed.ident(c.idx + 2) == Some(b.as_str())
                        });
                        if dropped {
                            continue;
                        }
                    }
                    if !TX_SINK_CALLS.contains(&call.name.as_str()) {
                        continue;
                    }
                    let recv = call.receiver.as_deref();
                    let through_guard = recv.is_some()
                        && (recv == site.binding.as_deref()
                            || recv == Some("lock_world")
                            || recv == Some("lock"));
                    if through_guard {
                        continue;
                    }
                    out.push(Finding {
                        lint: "lock-discipline",
                        path: path.to_string(),
                        line: call.line,
                        message: format!(
                            "`{}` is called while the `{}` lock (taken line {}) is \
                             still held; a blocked send stalls every thread waiting \
                             on that lock — drop the guard first",
                            call.name, site.name, site.line
                        ),
                    });
                }
            }
            // Rule (b): pairwise acquisition order in the three
            // lock-bearing subsystems.
            if LOCK_ORDER_FILES.contains(&path.as_str()) {
                for (a, b) in sites.iter().zip(sites.iter().skip(1)) {
                    if a.name == b.name {
                        continue;
                    }
                    let pair = (a.name.clone(), b.name.clone());
                    let reverse = (b.name.clone(), a.name.clone());
                    if let Some((rpath, rline)) = order.get(&reverse) {
                        out.push(Finding {
                            lint: "lock-discipline",
                            path: path.to_string(),
                            line: b.line,
                            message: format!(
                                "locks `{}` then `{}` acquired here, but {}:{} takes \
                                 them in the opposite order; pick one global order or \
                                 two threads can deadlock",
                                a.name, b.name, rpath, rline
                            ),
                        });
                    } else {
                        order.entry(pair).or_insert((path.clone(), a.line));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Call graph (shared by lints 11 and 12)
// ---------------------------------------------------------------------

/// The workspace call graph: every fn in every file, with name-resolved
/// edges. Resolution is by name (plus owner for `Qual::fn` calls) — an
/// over-approximation by design: a false edge can only make the
/// reachability lints *stricter*, never let a real path escape.
struct Graph {
    /// Parallel to `files` iteration order: (path, parsed).
    files: Vec<(String, ParsedFile)>,
    /// fn name -> every (file idx, fn idx) bearing it.
    by_name: BTreeMap<String, Vec<(usize, usize)>>,
}

impl Graph {
    fn build(files: &BTreeMap<String, LexedFile>) -> Graph {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(p, l)| (p.clone(), parse::parse(l)))
            .collect();
        let mut by_name: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, (_, pf)) in parsed.iter().enumerate() {
            for (ni, f) in pf.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, ni));
            }
        }
        Graph { files: parsed, by_name }
    }

    fn node(&self, id: (usize, usize)) -> &FnItem {
        &self.files[id.0].1.fns[id.1]
    }

    fn path(&self, id: (usize, usize)) -> &str {
        &self.files[id.0].0
    }

    /// Workspace fns a call site in `from` may land in.
    fn resolve(&self, from: (usize, usize), call: &CallSite) -> Vec<(usize, usize)> {
        let Some(cands) = self.by_name.get(&call.name) else { return Vec::new() };
        cands
            .iter()
            .copied()
            .filter(|&id| {
                let node = self.node(id);
                match (&call.qualifier, call.is_method) {
                    // `L::fn(…)` through a type parameter (a single
                    // capital, by convention): static dispatch into
                    // whichever impl the caller is instantiated with —
                    // any trait-impl method of that name.
                    (Some(q), _) if q.len() == 1 && q.as_bytes()[0].is_ascii_uppercase() => {
                        node.trait_name.is_some()
                    }
                    // `Qual::fn(…)`: only impls of a matching owner (or
                    // free fns, for path-qualified module calls).
                    (Some(q), _) => {
                        node.owner.as_deref() == Some(q.as_str()) || node.owner.is_none()
                    }
                    // `x.fn(…)`: any impl method of that name.
                    (None, true) => node.owner.is_some(),
                    // `fn(…)`: a free fn, or a helper nested in an impl
                    // method of the caller's file (it carries that impl's
                    // owner). A bare call never reaches another type's
                    // method: cookie.rs's `finalize(v)` is not
                    // `Constraint::finalize`.
                    (None, false) => node.owner.is_none() || id.0 == from.0,
                }
            })
            .collect()
    }

    /// Multi-source BFS from `roots`, skipping nodes where `excluded`.
    /// Returns, per reached node, the chain of fn names from its root.
    fn reach(
        &self,
        roots: &[(usize, usize)],
        excluded: &dyn Fn(&Graph, (usize, usize)) -> bool,
    ) -> BTreeMap<(usize, usize), Vec<String>> {
        let mut chains: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
        let mut queue: Vec<(usize, usize)> = Vec::new();
        for &r in roots {
            if excluded(self, r) || chains.contains_key(&r) {
                continue;
            }
            chains.insert(r, vec![self.qualified_name(r)]);
            queue.push(r);
        }
        let mut qi = 0usize;
        while qi < queue.len() {
            let cur = queue[qi];
            qi += 1;
            let chain = chains[&cur].clone();
            for call in &self.node(cur).calls {
                for next in self.resolve(cur, call) {
                    if next == cur || chains.contains_key(&next) || excluded(self, next) {
                        continue;
                    }
                    let mut c = chain.clone();
                    c.push(self.qualified_name(next));
                    chains.insert(next, c);
                    queue.push(next);
                }
            }
        }
        chains
    }

    fn qualified_name(&self, id: (usize, usize)) -> String {
        let f = self.node(id);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Lint 10: alloc-in-hot-path
// ---------------------------------------------------------------------

/// Hot-path roots: the per-target walks (v4, v6, and the scheduler both
/// multi-walk streams draw through), the per-frame TX machinery, the
/// engine's receive drain (receive ring → parse → dedup key → row) with
/// the RX parse and key lookup as roots of their own, and the per-row
/// data stream. A heap allocation reachable from any of these runs
/// millions of times per scan.
fn is_alloc_root(f: &FnItem) -> bool {
    match f.owner.as_deref() {
        Some("Engine") => f.name == "drain",
        Some("Constraint") => matches!(f.name.as_str(), "lookup" | "is_allowed"),
        Some("TargetIter" | "V6TargetIter" | "Schedule") => f.name == "next",
        Some("V6DedupSpace") => f.name == "key_for",
        Some("SpscRing") => matches!(f.name.as_str(), "push" | "try_push" | "pop" | "try_pop"),
        Some("ProbeModule") => matches!(f.name.as_str(), "render_into" | "parse_response"),
        Some("OutputModule") => f.name == "record",
        // The engine's TX stages, shared by both drivers: one root each.
        None => matches!(f.name.as_str(), "emit" | "flush"),
        _ => f.name == "send_batch",
    }
}

const ALLOC_QUALIFIERS: [&str; 8] =
    ["Vec", "Box", "String", "VecDeque", "HashMap", "BTreeMap", "HashSet", "BTreeSet"];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
const ALLOC_METHODS: [&str; 5] = ["to_string", "to_owned", "to_vec", "into_bytes", "join"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Types whose methods allocate *as their contract*: capture transports
/// exist to retain copies of the frames they are handed, so their
/// allocations are the feature, not a hot-path leak.
const CAPTURE_TYPES: [&str; 1] = ["LoopbackTransport"];

/// Crates whose allocations are not hot-path findings even when
/// reachable: the simulated network "hardware" (zmap-netsim) allocates
/// by design — it stands in for the kernel/NIC, not for engine code.
/// The walk also stops at a `#[cold]` fn: a container's doubling step is
/// amortised over the items that filled it, not paid per item, and the
/// attribute says so to the compiler as well as to this lint (growth
/// spelled `push`/`resize` already passes for the same reason).
fn alloc_excluded(g: &Graph, id: (usize, usize)) -> bool {
    let path = g.path(id);
    let node = g.node(id);
    node.in_test
        || node.is_cold
        || is_tests_path(path)
        || is_examples_path(path)
        || in_frontend_crate(path)
        || crate_of(path) == Some("zmap-netsim")
        || node.owner.as_deref().is_some_and(|o| CAPTURE_TYPES.contains(&o))
}

fn lint_alloc_in_hot_path(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    let g = Graph::build(files);
    let mut roots = Vec::new();
    for (fi, (_, pf)) in g.files.iter().enumerate() {
        for (ni, f) in pf.fns.iter().enumerate() {
            if is_alloc_root(f) && !alloc_excluded(&g, (fi, ni)) {
                roots.push((fi, ni));
            }
        }
    }
    let reached = g.reach(&roots, &alloc_excluded);
    for (&id, chain) in &reached {
        let f = g.node(id);
        for call in &f.calls {
            let is_alloc = match (&call.qualifier, call.is_method) {
                // `Vec::new`, and the allocating conversions in path form
                // (`serde_json::to_string(r)`, `ToString::to_string(&x)`).
                (Some(q), _) => {
                    (ALLOC_QUALIFIERS.contains(&q.as_str())
                        && ALLOC_CTORS.contains(&call.name.as_str()))
                        || ALLOC_METHODS.contains(&call.name.as_str())
                }
                (None, true) => ALLOC_METHODS.contains(&call.name.as_str()),
                (None, false) => false,
            };
            if is_alloc {
                out.push(Finding {
                    lint: "alloc-in-hot-path",
                    path: g.path(id).to_string(),
                    line: call.line,
                    message: format!(
                        "`{}` allocates on a path reachable from hot-path root via \
                         {}; preallocate outside the TX loop",
                        call.name,
                        chain.join(" → ")
                    ),
                });
            }
        }
        for m in &f.macros {
            if ALLOC_MACROS.contains(&m.name.as_str()) {
                out.push(Finding {
                    lint: "alloc-in-hot-path",
                    path: g.path(id).to_string(),
                    line: m.line,
                    message: format!(
                        "`{}!` allocates on a path reachable from hot-path root via \
                         {}; preallocate outside the TX loop",
                        m.name,
                        chain.join(" → ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint 11: panic-reachability
// ---------------------------------------------------------------------

/// Engine entry points: the fns a scan actually enters through.
const ENGINE_ENTRY_FNS: [&str; 4] = ["run", "run_with", "run_into", "run_parallel"];
const ENGINE_CRATES: [&str; 2] = ["zmap-core", "zmap-masscan"];

/// Macros that abort; `assert!`/`debug_assert!`/`unreachable!` are
/// deliberately not counted — they state invariants, and banning them
/// would push people toward silent corruption instead.
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

fn panic_excluded(g: &Graph, id: (usize, usize)) -> bool {
    let path = g.path(id);
    g.node(id).in_test || is_tests_path(path) || is_examples_path(path) || in_frontend_crate(path)
}

/// Every `panic!`/`.unwrap()`/`.expect()` in a fn reachable from an
/// engine entry point is a scan-aborting landmine the per-line hot-path
/// lint cannot see (it only knows file names, not the call graph). Two
/// escapes: a `# Panics` doc section on the containing fn (the panic is
/// a documented contract), and sites in hot-path files (already policed
/// per-line by `no-unwrap-hot-path` — no double reporting).
fn lint_panic_reachability(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    let g = Graph::build(files);
    let mut roots = Vec::new();
    for (fi, (path, pf)) in g.files.iter().enumerate() {
        if !crate_of(path).is_some_and(|c| ENGINE_CRATES.contains(&c)) {
            continue;
        }
        for (ni, f) in pf.fns.iter().enumerate() {
            if ENGINE_ENTRY_FNS.contains(&f.name.as_str()) && !panic_excluded(&g, (fi, ni)) {
                roots.push((fi, ni));
            }
        }
    }
    let reached = g.reach(&roots, &panic_excluded);
    for (&id, chain) in &reached {
        let f = g.node(id);
        let path = g.path(id);
        if f.has_panics_doc || is_hot_path_file(path) {
            continue;
        }
        for call in &f.calls {
            if call.is_method && PANIC_METHODS.contains(&call.name.as_str()) {
                out.push(Finding {
                    lint: "panic-reachability",
                    path: path.to_string(),
                    line: call.line,
                    message: format!(
                        "`.{}()` can abort a live scan: reachable from engine entry \
                         via {}; recover, propagate, or document a `# Panics` contract",
                        call.name,
                        chain.join(" → ")
                    ),
                });
            }
        }
        for m in &f.macros {
            if PANIC_MACROS.contains(&m.name.as_str()) {
                out.push(Finding {
                    lint: "panic-reachability",
                    path: path.to_string(),
                    line: m.line,
                    message: format!(
                        "`{}!` aborts a live scan: reachable from engine entry via \
                         {}; recover, propagate, or document a `# Panics` contract",
                        m.name,
                        chain.join(" → ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn files_of(entries: &[(&str, &str)]) -> BTreeMap<String, LexedFile> {
        entries
            .iter()
            .map(|(p, s)| (p.to_string(), lex(s)))
            .collect()
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "fn hot() { x.lock().unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let files = files_of(&[("crates/zmap-core/src/parallel.rs", src)]);
        let f: Vec<_> = run_lints(&files)
            .into_iter()
            .filter(|f| f.lint == "no-unwrap-hot-path")
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn must_use_attr_detected_through_other_attrs() {
        let src = "trait T {\n #[doc(hidden)]\n #[must_use]\n fn send_x(&self) -> Result<(), E>;\n\
                   fn send_y(&self) -> Result<(), E>;\n fn recv_ok(&self) -> u64;\n}";
        let files = files_of(&[("crates/zmap-core/src/x.rs", src)]);
        let f: Vec<_> = run_lints(&files)
            .into_iter()
            .filter(|f| f.lint == "must-use-fallible-send")
            .collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("send_y"));
    }

    #[test]
    fn wallclock_allowed_in_frontend_crates_only() {
        let src = "fn f() { let t = Instant::now(); }";
        let files = files_of(&[
            ("crates/zmap-core/src/engine.rs", src),
            ("crates/zmap-cli/src/run.rs", src),
            ("crates/bench/src/lib.rs", src),
        ]);
        let f: Vec<_> = run_lints(&files)
            .into_iter()
            .filter(|f| f.lint == "no-wallclock-in-engine")
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, "crates/zmap-core/src/engine.rs");
    }

    #[test]
    fn attestation_requires_forbid_only_when_unsafe_free() {
        let clean = "pub fn f() {}";
        let attested = "#![forbid(unsafe_code)]\npub fn f() {}";
        let has_unsafe = "pub fn f() { unsafe { g() } }"; // no SAFETY comment
        let files = files_of(&[
            ("crates/a/src/lib.rs", clean),
            ("crates/b/src/lib.rs", attested),
            ("crates/c/src/lib.rs", has_unsafe),
        ]);
        let fs = run_lints(&files);
        let attest: Vec<_> = fs
            .iter()
            .filter(|f| f.message.contains("forbid"))
            .collect();
        assert_eq!(attest.len(), 1);
        assert_eq!(attest[0].path, "crates/a/src/lib.rs");
        let safety: Vec<_> = fs
            .iter()
            .filter(|f| f.message.contains("SAFETY"))
            .collect();
        assert_eq!(safety.len(), 1);
        assert_eq!(safety[0].path, "crates/c/src/lib.rs");
    }
}
