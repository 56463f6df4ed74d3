//! Differential tests for [`Constraint`]: the compiled range table must
//! agree, address by address and index by index, with the definition of
//! the rule language — "the last rule containing an address decides it,
//! else the default" — replayed naively over a small universe.
//!
//! The universe is three /24-sized windows: the bottom of the address
//! space, one in the middle, and the top, so that `0.0.0.0/x`,
//! `255.255.255.255/32` and the wrap-prone edges are always in play. Rules
//! are confined to the windows (length ≥ 24) except `0.0.0.0/0`, which
//! decides everything; outside the windows the verdict is therefore one
//! bool, and the expected range list can be written down exactly.

use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use zmap_targets::Constraint;

const WINDOW: u32 = 256;
const WINDOW_BASES: [u32; 3] = [0, 0x5A3C_9600, u32::MAX - (WINDOW - 1)];

type Rule = (u32, u8, bool);

fn covers((addr, len, _): Rule, a: u32) -> bool {
    let host_bits = u32::MAX.checked_shr(u32::from(len)).unwrap_or(0);
    a & !host_bits == addr & !host_bits
}

/// The definition: rules replayed last-to-first for one address.
fn reference_verdict(default_allow: bool, rules: &[Rule], a: u32) -> bool {
    rules.iter().rev().find(|&&r| covers(r, a)).map_or(default_allow, |r| r.2)
}

/// The allowed set the definition gives, as canonical ranges: every window
/// address judged on its own, every gap between windows judged once (no
/// rule but /0 reaches into a gap), adjacent allowed pieces coalesced.
fn reference_ranges(default_allow: bool, rules: &[Rule]) -> Vec<(u32, u32)> {
    let mut pieces: Vec<(u32, u32)> = Vec::new();
    for (w, &base) in WINDOW_BASES.iter().enumerate() {
        if w > 0 {
            let gap_start = WINDOW_BASES[w - 1] + WINDOW;
            pieces.push((gap_start, base - 1));
        }
        pieces.extend((0..WINDOW).map(|o| (base + o, base + o)));
    }
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in pieces {
        if !reference_verdict(default_allow, rules, lo) {
            continue;
        }
        match out.last_mut() {
            Some(prev) if u64::from(prev.1) + 1 == u64::from(lo) => prev.1 = hi,
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Turns raw proptest draws into rules clustered on the windows, and always
/// adds a `0.0.0.0/x` rule and a `255.255.255.255/32` rule somewhere.
fn build_rules(raw: Vec<(u8, u32, u8, bool)>, zero_len: u8, edge: (bool, bool, u32)) -> Vec<Rule> {
    let mut rules: Vec<Rule> = raw
        .into_iter()
        .map(|(window, offset, len, allow)| {
            // One draw in ten is the whole-space rule; the rest stay inside
            // a window and share its few low bits, so they overlap a lot.
            if len == 23 {
                (0, 0, allow)
            } else {
                (WINDOW_BASES[usize::from(window)] + offset % WINDOW, len, allow)
            }
        })
        .collect();
    let (zero_allow, top_allow, at) = edge;
    let at = at as usize % (rules.len() + 1);
    rules.insert(at, (0, zero_len, zero_allow));
    rules.insert(at, (u32::MAX, 32, top_allow));
    rules
}

fn assert_canonical(ranges: &[(u32, u32)]) {
    for r in ranges {
        assert!(r.0 <= r.1, "inverted range {r:?}");
    }
    for pair in ranges.windows(2) {
        assert!(
            u64::from(pair[0].1) + 1 < u64::from(pair[1].0),
            "ranges {:?} and {:?} overlap, touch or are out of order",
            pair[0],
            pair[1]
        );
    }
}

/// Every check the finalized constraint must pass against `expected`.
fn assert_matches(c: &Constraint, default_allow: bool, rules: &[Rule], expected: &[(u32, u32)]) {
    let ranges = c.allowed_ranges();
    assert_canonical(&ranges);
    assert_eq!(ranges, expected);

    let total: u64 = expected.iter().map(|r| u64::from(r.1 - r.0) + 1).sum();
    assert_eq!(c.allowed_count(), total);
    assert_eq!(c.lookup(total), None);
    assert_eq!(c.lookup(u64::MAX), None);

    for &base in &WINDOW_BASES {
        for a in (0..WINDOW).map(|o| base + o) {
            assert_eq!(c.is_allowed(a), reference_verdict(default_allow, rules, a), "addr {a:#x}");
        }
        for a in [base.checked_sub(1), (base + (WINDOW - 1)).checked_add(1)].into_iter().flatten() {
            assert_eq!(c.is_allowed(a), reference_verdict(default_allow, rules, a), "addr {a:#x}");
        }
    }

    // lookup(i) is the i-th allowed address: every index of every short
    // range, both ends and the middle of a long one (a range that swallowed
    // a gap holds up to 2^32 indices, and lookup is affine inside it).
    let mut first_index = 0u64;
    for &(lo, hi) in expected {
        let len = u64::from(hi - lo) + 1;
        let offsets: Vec<u64> = if len <= 4 * u64::from(WINDOW) {
            (0..len).collect()
        } else {
            vec![0, 1, len / 2, len - 2, len - 1]
        };
        for o in offsets {
            assert_eq!(c.lookup(first_index + o), Some(lo + o as u32), "index {}", first_index + o);
        }
        first_index += len;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn range_table_agrees_with_the_rule_by_rule_reference(
        default_allow in any::<bool>(),
        raw in prop::collection::vec((0u8..3, any::<u32>(), 23u8..=32, any::<bool>()), 0..31),
        zero_len in 24u8..=32,
        edge in (any::<bool>(), any::<bool>(), any::<u32>()),
        split in any::<u32>(),
    ) {
        let rules = build_rules(raw, zero_len, edge);
        prop_assert!(rules.len() <= 32);
        let expected = reference_ranges(default_allow, &rules);

        // Compile in two batches, so the second batch overrides an already
        // compiled table as well as its own log.
        let (early, late) = rules.split_at(split as usize % (rules.len() + 1));
        let mut c = Constraint::new(default_allow);
        for &(addr, len, allow) in early {
            c.set_prefix(addr, len, allow);
        }
        c.finalize();
        assert_matches(&c, default_allow, early, &reference_ranges(default_allow, early));
        for &(addr, len, allow) in late {
            c.set_prefix(addr, len, allow);
        }

        // Membership and the range list work on the unfinalized log too.
        prop_assert_eq!(c.allowed_ranges(), expected.clone());
        for &base in &WINDOW_BASES {
            for a in (0..WINDOW).step_by(7).map(|o| base + o) {
                prop_assert_eq!(c.is_allowed(a), reference_verdict(default_allow, &rules, a));
            }
        }
        if !late.is_empty() {
            let counted = catch_unwind(AssertUnwindSafe(|| c.allowed_count()));
            prop_assert!(counted.is_err(), "allowed_count after mutation must panic");
            let looked_up = catch_unwind(AssertUnwindSafe(|| c.lookup(0)));
            prop_assert!(looked_up.is_err(), "lookup after mutation must panic");
        }

        c.finalize();
        assert_matches(&c, default_allow, &rules, &expected);

        // One shot from scratch gives the same table, and finalize is idempotent.
        let mut fresh = Constraint::new(default_allow);
        for &(addr, len, allow) in &rules {
            fresh.set_prefix(addr, len, allow);
        }
        fresh.finalize();
        assert_matches(&fresh, default_allow, &rules, &expected);
        let before = format!("{fresh:?}");
        fresh.finalize();
        prop_assert_eq!(format!("{fresh:?}"), before);
    }
}

/// A large blocklist arriving in no particular order must compile in
/// O(N log N). There is no wall-clock assertion: a build that is quadratic
/// in the rule count does not finish inside the test budget.
#[test]
fn two_hundred_thousand_shuffled_rules_compile_and_agree() {
    const RULES: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(0x2a4d_6170);
    // /24–/32 rules packed into 44.0.0.0/10, so most overlap several others.
    let mut rules: Vec<Rule> = (0..RULES)
        .map(|_| {
            let addr = 0x2C00_0000 | (rng.gen::<u32>() >> 10);
            (addr, rng.gen_range(24u8..=32), rng.gen::<u32>() % 4 == 0)
        })
        .collect();
    for i in (1..RULES).rev() {
        rules.swap(i, rng.gen_range(0..=i));
    }

    let mut c = Constraint::new(true);
    for &(addr, len, allow) in &rules {
        c.set_prefix(addr, len, allow);
    }
    c.finalize();

    let ranges = c.allowed_ranges();
    assert_canonical(&ranges);
    assert!(ranges.len() > 1000, "the rules must fragment the space: {}", ranges.len());
    let total: u64 = ranges.iter().map(|r| u64::from(r.1 - r.0) + 1).sum();
    assert_eq!(c.allowed_count(), total);
    assert_eq!(c.lookup(total), None);

    // Membership against the definition, at addresses on and beside the
    // edges of sampled rules (where a wrong merge shows) and at random ones.
    let mut checked_allowed = 0;
    for _ in 0..100 {
        let (addr, len, _) = rules[rng.gen_range(0..RULES)];
        let host_bits = u32::MAX.checked_shr(u32::from(len)).unwrap_or(0);
        let (start, end) = (addr & !host_bits, addr | host_bits);
        for a in [start - 1, start, end, end + 1, 0x2C00_0000 | (rng.gen::<u32>() >> 10)] {
            let expected = reference_verdict(true, &rules, a);
            assert_eq!(c.is_allowed(a), expected, "addr {a:#x}");
            checked_allowed += usize::from(expected);
        }
    }
    assert!(checked_allowed > 50, "samples must land on both verdicts");

    // Index → address: each sampled range's first and last index map to
    // its two ends, so the prefix sums and the directory agree with it.
    let mut first_index = 0u64;
    for (k, &(lo, hi)) in ranges.iter().enumerate() {
        let len = u64::from(hi - lo) + 1;
        if k % 97 == 0 || k + 1 == ranges.len() {
            assert_eq!(c.lookup(first_index), Some(lo));
            assert_eq!(c.lookup(first_index + len - 1), Some(hi));
        }
        first_index += len;
    }
}
