//! The lint pass: two project-specific checks over the lexed token
//! streams — the ones no compiler lint can express, because each follows
//! a declared protocol. The rules rustc and clippy can hold live in the
//! workspace's lint configuration, and the allocation budget is measured
//! by `zmap-core`'s `tests/alloc_budget.rs`; DESIGN.md §9 maps every
//! invariant to what checks it.
//!
//! Every lint is one row of the [`LINTS`] registry: id, summary, and a
//! workspace-level pass fn. `run_lints`, `report.rs`, and the docs all
//! derive from that single table, so the ID list cannot drift from the
//! dispatch.

use crate::lexer::LexedFile;
use crate::parse::{self, FnItem};
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
    /// Stable machine-readable ID (appears in findings, JSON reports,
    /// and DESIGN.md §9).
    pub id: &'static str,
    /// One-line human summary, mirrored in the docs.
    pub summary: &'static str,
    /// The pass: appends findings for the whole workspace file set.
    pub pass: fn(&BTreeMap<String, LexedFile>, &mut Vec<Finding>),
}

/// `atomics-ordering-discipline` checks each file on its own.
fn pass_atomics_ordering(files: &BTreeMap<String, LexedFile>, out: &mut Vec<Finding>) {
    for (path, lexed) in files {
        lint_atomics_ordering(path, lexed, out);
    }
}

/// The lint registry, in the order findings are documented. Adding a
/// lint means adding a row here — there is no second list to update.
pub const LINTS: [Lint; 2] = [
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
];

/// Crates no lint looks at: the CLI front-end, the bench/experiment
/// harness, and this analyzer itself (a build-time tool). None of them is
/// on a scan's hot path.
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
        findings.iter().all(|f| LINTS.iter().any(|l| l.id == f.lint)),
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

fn in_frontend_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| FRONTEND_CRATES.contains(&c))
}

// ---------------------------------------------------------------------
// Lint 1: atomics-ordering-discipline
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
// Lint 2: lock-discipline
// ---------------------------------------------------------------------

/// Calls that hand frames to a transport — blocking or retrying, so a
/// lock held across one stalls the peer thread for the full send.
const TX_SINK_CALLS: [&str; 3] = ["send", "send_batch", "flush"];

/// Files whose lock acquisition order is checked for global consistency
/// (the three subsystems a TX thread can hold locks from).
const LOCK_ORDER_FILES: [&str; 3] = [
    "crates/zmap-core/src/transport.rs",
    "crates/zmap-core/src/log.rs",
    "crates/zmap-core/src/metrics.rs",
];

/// One lock acquisition inside a fn body.
struct LockSite {
    /// Lock identity: the receiver of `.lock()`.
    name: String,
    /// Guard binding (`let g = …`), when the statement is a let.
    binding: Option<String>,
    line: u32,
    /// Token index of the `lock` ident.
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
    let Some((_, body_end)) = f.body else { return Vec::new() };
    let mut sites = Vec::new();
    for call in &f.calls {
        if call.name != "lock" || !call.is_method {
            continue;
        }
        let (name, idx) = (call.receiver.clone().unwrap_or_else(|| "<lock>".into()), call.idx);
        let binding = let_binding_of(lexed, idx);
        let live_end = if binding.is_some() {
            enclosing_block_end(lexed, idx, body_end)
        } else {
            statement_end(lexed, idx)
        };
        sites.push(LockSite { name, binding, line: call.line, idx, live_end });
    }
    sites
}

/// (a) No lock may be held across a transport send/flush call — the
/// guard exemption is calls *on the guard itself* (`world.send(…)` where
/// `world` is the guard: the lock IS the transport's serialization
/// point, which is calling through the lock, not holding an unrelated
/// one across it). An explicit `drop(guard)` before the send also ends
/// the hazard. (b) Across `transport.rs`/`log.rs`/`metrics.rs`, any two
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
                        && (recv == site.binding.as_deref() || recv == Some("lock"));
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
