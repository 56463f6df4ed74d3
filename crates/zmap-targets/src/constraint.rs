//! The allowlist/blocklist constraint: a flat range table.
//!
//! ZMap restricts scans with CIDR allowlists and blocklists (reserved
//! space, opt-out requests, …). Target generation needs two operations,
//! both fast:
//!
//! * `is_allowed(addr)` — filter individual addresses, and
//! * `lookup(i)` — map a *target index* `i ∈ [0, allowed_count)` to the
//!   `i`-th allowed address in numeric order, so the cyclic-group walk can
//!   cover exactly the allowed set.
//!
//! The mapping is strictly increasing, and that order is a contract: the
//! journal's config digest hashes the canonical range list, and a telescope
//! recovering a scan's generator from observed targets (Mazel & Strullu;
//! `tests/attribution.rs`) inverts exactly this map.
//!
//! `lookup` runs once per probe, so the finalized form is flat: the allowed
//! set as sorted, disjoint, non-adjacent `Span`s, each carrying the count
//! of allowed addresses before it (a prefix sum), and a directory keyed on
//! the top bits of the *index* naming the span that holds each bucket's
//! first index. `lookup(i)` is one directory read, a binary search over the
//! (usually zero or one) spans that start inside the bucket, and one add;
//! `is_allowed` is a binary search over span starts. ZMap's `constraint.c`
//! gets the same effect by fronting its radix tree with a flat /16 array.
//!
//! Rules are logged by [`Constraint::set_prefix`] (later calls override
//! earlier ones on overlap, like ZMap applying blocklist after allowlist)
//! and compiled by [`finalize`](Constraint::finalize) with one sort and one
//! sweep — O(N log N) for N rules in any order. `finalize` is required
//! before counting queries, is idempotent, and
//! [`TargetGenerator`](crate::TargetGenerator) calls it for you.

use std::collections::BinaryHeap;

/// Maximum prefix length (IPv4).
const MAX_DEPTH: u8 = 32;

/// Directory buckets per span, at most (bucket sizes are powers of two).
const BUCKETS_PER_SPAN: u64 = 4;

/// Allowed addresses `start..=end` and the count of allowed addresses before
/// them; 16 bytes, so the prefix sum and its address share a cache line.
#[derive(Debug, Clone, Copy)]
struct Span {
    first_index: u64,
    start: u32,
    end: u32,
}

/// A logged rule: `start..=end` gets verdict `allow`.
#[derive(Debug, Clone, Copy)]
struct Rule {
    start: u32,
    end: u32,
    allow: bool,
}

/// A set of IPv4 addresses defined by CIDR rules, supporting O(log ranges)
/// membership tests and near-constant-time index→address lookup.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The allowed set as of the last finalize (or `new`): sorted,
    /// disjoint, non-adjacent.
    spans: Vec<Span>,
    /// Rules set since then, oldest first; they override `spans`.
    pending: Vec<Rule>,
    /// `dir[i >> shift]` = the span holding index `(i >> shift) << shift`;
    /// one trailing entry names the last span. Valid only when finalized.
    dir: Vec<u32>,
    shift: u32,
    total: u64,
    finalized: bool,
}

impl Constraint {
    /// A constraint where every address starts as allowed
    /// (`default_allow = true`, blocklist-style) or denied
    /// (`false`, allowlist-style).
    pub fn new(default_allow: bool) -> Self {
        let everything = Span { first_index: 0, start: 0, end: u32::MAX };
        Constraint {
            spans: if default_allow { vec![everything] } else { Vec::new() },
            pending: Vec::new(),
            dir: Vec::new(),
            shift: 0,
            total: 0,
            finalized: false,
        }
    }

    /// Sets the verdict for `addr/len`. Later calls win on overlap.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn set_prefix(&mut self, addr: u32, len: u8, allow: bool) {
        assert!(len <= MAX_DEPTH, "prefix length {len} exceeds 32");
        self.finalized = false;
        let host_bits = u32::MAX.checked_shr(u32::from(len)).unwrap_or(0);
        self.pending.push(Rule { start: addr & !host_bits, end: addr | host_bits, allow });
    }

    /// Compiles the logged rules into the range table and builds the index
    /// directory. Idempotent; required before
    /// [`allowed_count`](Self::allowed_count) / [`lookup`](Self::lookup).
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        let ranges = self.allowed_ranges();
        self.pending = Vec::new();
        self.total = 0;
        self.spans.clear();
        for (start, end) in ranges {
            self.spans.push(Span { first_index: self.total, start, end });
            self.total += u64::from(end - start) + 1;
        }
        self.dir.clear();
        if let Some(last) = self.spans.len().checked_sub(1) {
            // The smallest power-of-two bucket that keeps the directory
            // within BUCKETS_PER_SPAN entries per span.
            let max_buckets = BUCKETS_PER_SPAN * self.spans.len() as u64;
            self.shift = 0;
            while (self.total - 1) >> self.shift >= max_buckets {
                self.shift += 1;
            }
            let mut k = 0;
            for bucket in 0..=(self.total - 1) >> self.shift {
                while k < last && self.spans[k + 1].first_index <= bucket << self.shift {
                    k += 1;
                }
                self.dir.push(k as u32);
            }
            self.dir.push(last as u32);
        }
        self.finalized = true;
    }

    /// Whether `addr` is in the allowed set. Works before finalize, by
    /// replaying the rule log newest-first: O(rules) per call until then.
    pub fn is_allowed(&self, addr: u32) -> bool {
        if let Some(rule) = self.pending.iter().rev().find(|r| r.start <= addr && addr <= r.end) {
            return rule.allow;
        }
        let after = self.spans.partition_point(|s| s.start <= addr);
        after > 0 && addr <= self.spans[after - 1].end
    }

    /// Number of allowed addresses.
    ///
    /// # Panics
    /// Panics if the constraint was mutated since the last
    /// [`finalize`](Self::finalize).
    pub fn allowed_count(&self) -> u64 {
        self.assert_finalized();
        self.total
    }

    /// The `index`-th allowed address in increasing numeric order, or
    /// `None` if `index ≥ allowed_count()`.
    ///
    /// # Panics
    /// Panics if the constraint was mutated since the last
    /// [`finalize`](Self::finalize).
    pub fn lookup(&self, index: u64) -> Option<u32> {
        self.assert_finalized();
        if index >= self.total {
            return None;
        }
        // The span holding `index` lies between the one holding its
        // bucket's first index and the one holding the next bucket's.
        let bucket = (index >> self.shift) as usize;
        let (lo, hi) = (self.dir[bucket] as usize, self.dir[bucket + 1] as usize);
        let k = lo + self.spans[lo + 1..=hi].partition_point(|s| s.first_index <= index);
        let span = &self.spans[k];
        Some(span.start + (index - span.first_index) as u32)
    }

    /// The allowed set as sorted, disjoint, non-adjacent inclusive
    /// `(start, end)` ranges. Works before finalize. Useful for diagnostics
    /// and simulation setup.
    pub fn allowed_ranges(&self) -> Vec<(u32, u32)> {
        if self.pending.is_empty() {
            return self.spans.iter().map(|s| (s.start, s.end)).collect();
        }
        // Later-rule-wins as a sweep over the address line. Rules in
        // priority order: the compiled set (lowest; everything outside it
        // is denied), then the log. The verdict can only change where a
        // rule starts or just past where one ends.
        let compiled = self.spans.iter().map(|s| Rule { start: s.start, end: s.end, allow: true });
        let rules: Vec<Rule> = compiled.chain(self.pending.iter().copied()).collect();
        let mut by_start: Vec<u32> = (0..rules.len() as u32).collect();
        by_start.sort_unstable_by_key(|&r| rules[r as usize].start);
        let mut cuts: Vec<u64> =
            rules.iter().flat_map(|r| [u64::from(r.start), u64::from(r.end) + 1]).collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut opened = 0;
        // Rules covering the current segment (plus expired ones not yet
        // popped); the newest is on top.
        let mut live: BinaryHeap<u32> = BinaryHeap::new();
        for segment in cuts.windows(2) {
            let (lo, hi) = (segment[0] as u32, (segment[1] - 1) as u32);
            while opened < by_start.len() && rules[by_start[opened] as usize].start == lo {
                live.push(by_start[opened]);
                opened += 1;
            }
            while live.peek().is_some_and(|&r| rules[r as usize].end < lo) {
                live.pop();
            }
            if live.peek().is_some_and(|&r| rules[r as usize].allow) {
                match out.last_mut() {
                    Some(prev) if u64::from(prev.1) + 1 == u64::from(lo) => prev.1 = hi,
                    _ => out.push((lo, hi)),
                }
            }
        }
        out
    }

    fn assert_finalized(&self) {
        assert!(
            self.finalized,
            "Constraint::finalize() must be called after mutation and before counting queries"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    #[test]
    fn default_allow_covers_everything() {
        let mut c = Constraint::new(true);
        c.finalize();
        assert_eq!(c.allowed_count(), 1u64 << 32);
        assert!(c.is_allowed(0));
        assert!(c.is_allowed(u32::MAX));
        assert_eq!(c.lookup(0), Some(0));
        assert_eq!(c.lookup((1u64 << 32) - 1), Some(u32::MAX));
        assert_eq!(c.lookup(1u64 << 32), None);
    }

    #[test]
    fn default_deny_is_empty() {
        let mut c = Constraint::new(false);
        c.finalize();
        assert_eq!(c.allowed_count(), 0);
        assert_eq!(c.lookup(0), None);
        assert!(!c.is_allowed(12345));
    }

    #[test]
    fn single_slash24_allowlist() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("192.0.2.0"), 24, true);
        c.finalize();
        assert_eq!(c.allowed_count(), 256);
        assert!(c.is_allowed(ip("192.0.2.0")));
        assert!(c.is_allowed(ip("192.0.2.255")));
        assert!(!c.is_allowed(ip("192.0.3.0")));
        assert_eq!(c.lookup(0), Some(ip("192.0.2.0")));
        assert_eq!(c.lookup(255), Some(ip("192.0.2.255")));
        assert_eq!(c.lookup(256), None);
    }

    #[test]
    fn blocklist_carves_hole() {
        let mut c = Constraint::new(true);
        c.set_prefix(ip("10.0.0.0"), 8, false);
        c.finalize();
        assert_eq!(c.allowed_count(), (1u64 << 32) - (1 << 24));
        assert!(!c.is_allowed(ip("10.1.2.3")));
        assert!(c.is_allowed(ip("11.0.0.0")));
        // Index order must skip the hole: index of 11.0.0.0 equals the
        // count of allowed addresses below it (10/8 removed).
        let idx_11 = (u64::from(ip("11.0.0.0"))) - (1 << 24);
        assert_eq!(c.lookup(idx_11), Some(ip("11.0.0.0")));
    }

    #[test]
    fn later_rules_override_earlier() {
        // Allow 10/8, then block 10.5/16, then re-allow 10.5.5/24.
        let mut c = Constraint::new(false);
        c.set_prefix(ip("10.0.0.0"), 8, true);
        c.set_prefix(ip("10.5.0.0"), 16, false);
        c.set_prefix(ip("10.5.5.0"), 24, true);
        c.finalize();
        assert_eq!(c.allowed_count(), (1 << 24) - (1 << 16) + (1 << 8));
        assert!(c.is_allowed(ip("10.4.0.1")));
        assert!(!c.is_allowed(ip("10.5.0.1")));
        assert!(c.is_allowed(ip("10.5.5.1")));
    }

    #[test]
    fn lookup_is_bijective_on_allowed_set() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("1.2.3.0"), 28, true);
        c.set_prefix(ip("9.9.9.9"), 32, true);
        c.set_prefix(ip("255.255.255.0"), 24, true);
        c.set_prefix(ip("255.255.255.128"), 25, false);
        c.finalize();
        let n = c.allowed_count();
        assert_eq!(n, 16 + 1 + 128);
        let mut prev: Option<u32> = None;
        for i in 0..n {
            let a = c.lookup(i).unwrap();
            assert!(c.is_allowed(a), "lookup({i}) = {a} not allowed");
            if let Some(p) = prev {
                assert!(a > p, "lookup not strictly increasing at {i}");
            }
            prev = Some(a);
        }
    }

    #[test]
    fn slash32_and_slash0() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("8.8.8.8"), 32, true);
        c.finalize();
        assert_eq!(c.allowed_count(), 1);
        assert_eq!(c.lookup(0), Some(ip("8.8.8.8")));

        let mut c = Constraint::new(false);
        c.set_prefix(0, 0, true);
        c.finalize();
        assert_eq!(c.allowed_count(), 1u64 << 32);
    }

    #[test]
    fn allowed_ranges_coalesce() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("192.0.2.0"), 25, true);
        c.set_prefix(ip("192.0.2.128"), 25, true); // adjacent halves
        c.finalize();
        assert_eq!(c.allowed_ranges(), vec![(ip("192.0.2.0"), ip("192.0.2.255"))]);
    }

    #[test]
    fn last_address_edge() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("255.255.255.255"), 32, true);
        c.finalize();
        assert_eq!(c.allowed_ranges(), vec![(u32::MAX, u32::MAX)]);
        assert_eq!(c.lookup(0), Some(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn count_before_finalize_panics() {
        let c = Constraint::new(true);
        let _ = c.allowed_count();
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn overlong_prefix_panics() {
        let mut c = Constraint::new(true);
        c.set_prefix(0, 33, false);
    }

    #[test]
    fn finalize_is_idempotent_and_refreshes() {
        let mut c = Constraint::new(false);
        c.set_prefix(ip("10.0.0.0"), 8, true);
        c.finalize();
        assert_eq!(c.allowed_count(), 1 << 24);
        c.set_prefix(ip("10.0.0.0"), 9, false);
        c.finalize();
        c.finalize();
        assert_eq!(c.allowed_count(), 1 << 23);
    }
}
