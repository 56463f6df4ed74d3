//! A lightweight item parser on top of the lexer: `fn` items with their
//! body spans and test membership, and the call sites inside each body —
//! the structure the two protocol lints walk, without pulling in `syn`.
//!
//! Like the lexer, the parser is deliberately approximate where lints
//! don't care: generics are skipped by angle-bracket matching and
//! closure bodies belong to their enclosing `fn`. It is exact about the
//! things that make naive scanning wrong: body extents via brace
//! matching, `#[cfg(test)]` regions, and innermost-function attribution
//! of call sites.

use crate::lexer::LexedFile;

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "loop", "in", "as", "let", "else", "move",
];

/// One `fn` item: free function, inherent/trait-impl method, or trait
/// declaration (body-less when the trait gives no default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token range `(open_brace, past_close_brace)` of the body; `None`
    /// for body-less trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a `#[cfg(test)]` region / `#[test]`.
    pub in_test: bool,
    /// Calls made from this fn's body (innermost attribution).
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// True when token index `i` falls inside this fn's body.
    pub fn contains(&self, i: usize) -> bool {
        self.body.is_some_and(|(s, e)| i >= s && i < e)
    }
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (`foo` in `foo(…)`, `x.foo(…)`, `T::foo(…)`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the callee ident.
    pub idx: usize,
    /// True for `x.foo(…)` method-call syntax.
    pub is_method: bool,
    /// Receiver ident for method calls (`x` in `x.foo(…)`; `self.y.foo`
    /// resolves to `y`, `a[b].foo` to `a`), when recoverable.
    pub receiver: Option<String>,
}

/// The parsed form of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every fn item, in source order.
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// Index of the innermost fn whose body contains token `i`.
    pub fn fn_at(&self, i: usize) -> Option<usize> {
        // Innermost = the fn with the latest body start among those
        // containing `i` (nested fns start later than their parent).
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.contains(i))
            .max_by_key(|(_, f)| f.body.map(|(s, _)| s).unwrap_or(0))
            .map(|(k, _)| k)
    }
}

/// Index just past the `}` matching the `{` at `open`.
fn skip_brace(lexed: &LexedFile, open: usize) -> usize {
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
fn skip_bracket(lexed: &LexedFile, open: usize) -> usize {
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

/// Index just past the `>` matching the `<` at `open` (generics).
fn skip_angles(lexed: &LexedFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.punct(i, '<') {
            depth += 1;
        } else if lexed.punct(i, '>') {
            // `->` arrives as '-' '>' — don't count the arrow's '>'.
            if !(i > 0 && lexed.punct(i - 1, '-')) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        } else if lexed.punct(i, '{') || lexed.punct(i, ';') {
            // Unbalanced (e.g. a `<` comparison): bail at item structure.
            return i;
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
            let attr_end = skip_bracket(lexed, i + 1);
            let is_test_attr = attr_is_cfg_test(lexed, i + 1, attr_end)
                || (attr_end == i + 4 && lexed.ident(i + 2) == Some("test"));
            let mut j = attr_end;
            while lexed.punct(j, '#') && lexed.punct(j + 1, '[') {
                j = skip_bracket(lexed, j + 1);
            }
            if is_test_attr {
                let mut k = j;
                while k < lexed.tokens.len() {
                    if lexed.punct(k, ';') {
                        break;
                    }
                    if lexed.punct(k, '{') {
                        let end = skip_brace(lexed, k);
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

/// Parses `lexed` into fn items and their call sites.
pub fn parse(lexed: &LexedFile) -> ParsedFile {
    let tests = test_regions(lexed);
    let mut out = ParsedFile::default();

    // Pass 1: fn items.
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.ident(i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = lexed.ident(i + 1) else {
            i += 1;
            continue;
        };
        // Find the body `{` or the trailing `;` (trait declaration).
        let mut k = i + 2;
        let mut body = None;
        while k < lexed.tokens.len() {
            if lexed.punct(k, ';') {
                break;
            }
            if lexed.punct(k, '<') {
                let nk = skip_angles(lexed, k);
                k = nk.max(k + 1);
                continue;
            }
            if lexed.punct(k, '{') {
                body = Some((k, skip_brace(lexed, k)));
                break;
            }
            k += 1;
        }
        out.fns.push(FnItem {
            name: name.to_string(),
            body: body.map(|(open, end)| (open + 1, end.saturating_sub(1))),
            in_test: in_regions(&tests, i),
            calls: Vec::new(),
        });
        i = match body {
            // Step inside the body so nested fns are found too.
            Some((open, _)) => open + 1,
            None => k + 1,
        };
    }

    // Pass 2: call sites, attributed to the innermost containing fn.
    // A macro invocation (`name!(…)`) is no call: its `!` stands between
    // the name and the `(`.
    for idx in 0..lexed.tokens.len() {
        let Some(name) = lexed.ident(idx) else { continue };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Call: `name (` — but not a declaration (`fn name(`) and not a
        // tuple-struct pattern context we can't distinguish (accepted
        // over-approximation).
        if !lexed.punct(idx + 1, '(') {
            continue;
        }
        if idx > 0 && lexed.ident(idx - 1) == Some("fn") {
            continue;
        }
        let Some(f) = out.fn_at(idx) else { continue };
        let is_method = idx > 0 && lexed.punct(idx - 1, '.');
        let receiver = if is_method { receiver_of(lexed, idx - 1) } else { None };
        out.fns[f].calls.push(CallSite {
            name: name.to_string(),
            line: lexed.line(idx),
            idx,
            is_method,
            receiver,
        });
    }
    out
}

/// The receiver ident of a method call, walking back from the `.` at
/// `dot`: `x.m(…)` → `x`; `self.y.m(…)` → `y`; `a[i].m(…)` → `a`;
/// `f(…).m(…)` → the ident before the call's `(`.
fn receiver_of(lexed: &LexedFile, dot: usize) -> Option<String> {
    let mut j = dot;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        if lexed.punct(j, ')') {
            // Walk to the matching `(`, then take the ident before it.
            let mut depth = 0i32;
            loop {
                if lexed.punct(j, ')') {
                    depth += 1;
                } else if lexed.punct(j, '(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            continue; // token before the `(` is the method/fn name
        }
        if lexed.punct(j, ']') {
            let mut depth = 0i32;
            loop {
                if lexed.punct(j, ']') {
                    depth += 1;
                } else if lexed.punct(j, '[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            continue; // token before the `[` is the indexed ident
        }
        return match lexed.ident(j) {
            Some("self") => None, // `self.m(…)`: no useful field name
            Some(id) => Some(id.to_string()),
            None => None,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fns_and_bodies() {
        let p = parse_src("fn a() { b(); }\nfn b() {}\npub fn c(x: u32) -> u32 { x }\n");
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].name, "b");
        assert!(p.fns[1].calls.is_empty());
    }

    #[test]
    fn trait_declarations_and_default_bodies() {
        let src = "trait T {\n fn send(&self) -> Result<(), E>;\n fn helper(&self) { self.send(); }\n}";
        let p = parse_src(src);
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert_eq!(helper.calls.len(), 1);
        assert_eq!(helper.calls[0].name, "send");
        let send = p.fns.iter().find(|f| f.name == "send").unwrap();
        assert!(send.body.is_none(), "declaration has no body");
    }

    #[test]
    fn method_receivers_resolve_through_fields_and_indexing() {
        let src = "fn f() { self.tail.load(x); positions[t].store(v); q.pop(); g().h(); }";
        let p = parse_src(src);
        let calls = &p.fns[0].calls;
        let by_name = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("load").receiver.as_deref(), Some("tail"));
        assert_eq!(by_name("store").receiver.as_deref(), Some("positions"));
        assert_eq!(by_name("pop").receiver.as_deref(), Some("q"));
        assert_eq!(
            by_name("h").receiver.as_deref(),
            Some("g"),
            "call-result receiver resolves to the producing call's name"
        );
    }

    #[test]
    fn macros_are_not_calls() {
        let src = "fn f() { vec![1]; panic!(\"x\"); format!(\"y\"); real(); }";
        let p = parse_src(src);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].name, "real");
    }

    #[test]
    fn nested_fns_get_innermost_attribution() {
        let src = "fn outer() { inner_call(); fn nested() { deep_call(); } }";
        let p = parse_src(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let nested = p.fns.iter().find(|f| f.name == "nested").unwrap();
        assert_eq!(outer.calls.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), vec!["inner_call"]);
        assert_eq!(nested.calls.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), vec!["deep_call"]);
    }

    #[test]
    fn test_region_membership() {
        let src = "fn checked(x: u32) { assert!(x > 0); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() {}\n}\n#[test]\nfn u() {}\n";
        let p = parse_src(src);
        let in_test: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(in_test, vec![("checked", false), ("t", true), ("u", true)]);
    }

    #[test]
    fn generic_signatures_do_not_confuse_body_detection() {
        let src = "fn f<T: Iterator<Item = u8>>(x: T) -> Vec<u8> where T: Clone { x.collect() }";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
        assert_eq!(p.fns[0].calls[0].name, "collect");
    }
}
