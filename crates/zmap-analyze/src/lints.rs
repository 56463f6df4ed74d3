//! The lint pass: four project-specific checks over the lexed token
//! streams — the ones no compiler lint can express, because each follows
//! a declared protocol or the workspace call graph. The rules rustc and
//! clippy can hold live in the workspace's lint configuration instead;
//! DESIGN.md §9 maps every invariant to what checks it.
//!
//! Every lint is one row of the [`LINTS`] registry: id, summary, and a
//! workspace-level pass fn. `run_lints`, `report.rs`, and the docs all
//! derive from that single table, so the ID list cannot drift from the
//! dispatch.

use crate::lexer::LexedFile;
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
pub const LINTS: [Lint; 4] = [
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
    let Some((_, body_end)) = f.body else { return Vec::new() };
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
// Call graph (shared by lints 3 and 4)
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
// Lint 3: alloc-in-hot-path
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
// Lint 4: panic-reachability
// ---------------------------------------------------------------------

/// Engine entry points: the fns a scan actually enters through.
const ENGINE_ENTRY_FNS: [&str; 4] = ["run", "run_with", "run_into", "run_parallel"];
const ENGINE_CRATES: [&str; 1] = ["zmap-core"];

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
/// engine entry point is a scan-aborting landmine. Clippy's
/// `unwrap_used`/`expect_used` deny them per module in the hot-path
/// files; this lint follows the call graph out of those files. The one
/// escape is a `# Panics` doc section on the containing fn (the panic is
/// a documented contract).
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
        if f.has_panics_doc {
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
