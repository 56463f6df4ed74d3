//! Figure 6 — Sharding approaches: interleaved (2014) vs. pizza (2017).
//!
//! The paper's figure visualizes how each algorithm assigns the cyclic
//! group's elements to shards. We reproduce it as (a) the assignment
//! diagram over a small group and (b) a verification that both schemes
//! partition the group exactly — plus the interleaved scheme's
//! error-prone per-shard counts that motivated the switch.

use crate::{table, Output};
use std::fmt::Write;
use zmap_targets::{CyclicGroup, Cycle, ShardAlgorithm, ShardIter, ShardSpec};

/// Shard `shard` of `n`, with no subshards.
fn one_of(shard: u32, n: u32) -> ShardSpec {
    ShardSpec { shard, num_shards: n, subshard: 0, num_subshards: 1 }
}

fn assignment_row(cycle: &Cycle, n: u32, alg: ShardAlgorithm) -> Vec<String> {
    // For each exponent position 0..order, which shard visits it?
    let order = cycle.group().order() as usize;
    let mut owner = vec![None; order];
    for shard in 0..n {
        // Recover positions by matching elements.
        let mut pos_of = std::collections::HashMap::new();
        for e in 0..order as u64 {
            pos_of.insert(cycle.element_at_position(e), e as usize);
        }
        for elem in ShardIter::new(cycle, one_of(shard, n), alg).unwrap() {
            owner[pos_of[&elem]] = Some(shard);
        }
    }
    vec![
        format!("{alg:?}"),
        owner
            .iter()
            .map(|o| match o {
                Some(s) => char::from_digit(*s % 10, 10).unwrap(),
                None => '?',
            })
            .collect(),
    ]
}

pub fn run(_: &[String]) -> Output {
    // A small group so the diagram fits a terminal: p = 41, order 40.
    let group = CyclicGroup::new(41).unwrap();
    let cycle = Cycle::new(group, 9);
    let n = 4;

    let mut out = format!("Figure 6: shard assignment along the walk (p=41, {n} shards)\n\n");
    writeln!(out, "position:  0123456789... (exponent order along the cycle)\n")?;
    let rows = vec![
        assignment_row(&cycle, n, ShardAlgorithm::Interleaved),
        assignment_row(&cycle, n, ShardAlgorithm::Pizza),
    ];
    out += &table(&["algorithm", "assignment (digit = shard)"], &rows);

    writeln!(out, "\nper-shard element counts (order 40, 3 shards — does not divide):")?;
    let mut rows = Vec::new();
    for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
        let counts: Vec<String> = (0..3)
            .map(|shard| ShardIter::new(&cycle, one_of(shard, 3), alg).unwrap().count().to_string())
            .collect();
        rows.push(vec![format!("{alg:?}"), counts.join(" + ")]);
    }
    out += &table(&["algorithm", "shard sizes"], &rows);

    // The partition check the paper's bug history motivates, on a
    // larger group and awkward shard counts.
    let group = CyclicGroup::new(65537).unwrap();
    let cycle = Cycle::new(group, 4);
    for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
        for n in [3u32, 7, 100] {
            let mut seen = std::collections::HashSet::new();
            let mut total = 0u64;
            for shard in 0..n {
                for e in ShardIter::new(&cycle, one_of(shard, n), alg).unwrap() {
                    assert!(seen.insert(e), "{alg:?} N={n}: duplicate element");
                    total += 1;
                }
            }
            assert_eq!(total, 65536, "{alg:?} N={n}: incomplete coverage");
        }
    }
    writeln!(out, "\npartition verified: both algorithms cover order-65536 group")?;
    writeln!(out, "exactly once for N in {{3, 7, 100}} (no off-by-one, no overlap)")?;
    Ok(out)
}
