#![allow(clippy::print_stdout)]
//! Figure 6 — Sharding approaches: interleaved (2014) vs. pizza (2017).
//!
//! The paper's figure visualizes how each algorithm assigns the cyclic
//! group's elements to shards. We reproduce it as (a) the assignment
//! diagram over a small group and (b) a verification that both schemes
//! partition the group exactly — plus the interleaved scheme's
//! error-prone per-shard counts that motivated the switch.

use bench::print_table;
use zmap_targets::{CyclicGroup, Cycle, ShardAlgorithm, ShardIter, ShardSpec};

fn assignment_row(cycle: &Cycle, n: u32, alg: ShardAlgorithm) -> Vec<String> {
    // For each exponent position 0..order, which shard visits it?
    let order = cycle.group().order() as usize;
    let mut owner = vec![None; order];
    for shard in 0..n {
        let spec = ShardSpec {
            shard,
            num_shards: n,
            subshard: 0,
            num_subshards: 1,
        };
        // Recover positions by matching elements.
        let mut pos_of = std::collections::HashMap::new();
        for e in 0..order as u64 {
            pos_of.insert(cycle.element_at_position(e), e as usize);
        }
        for elem in ShardIter::new(cycle, spec, alg).unwrap() {
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

fn main() {
    // A small group so the diagram fits a terminal: p = 41, order 40.
    let group = CyclicGroup::new(41).unwrap();
    let cycle = Cycle::new(group, 9);
    let n = 4;

    println!("Figure 6: shard assignment along the walk (p=41, {n} shards)\n");
    println!("position:  0123456789... (exponent order along the cycle)\n");
    let rows = vec![
        assignment_row(&cycle, n, ShardAlgorithm::Interleaved),
        assignment_row(&cycle, n, ShardAlgorithm::Pizza),
    ];
    print_table(&["algorithm", "assignment (digit = shard)"], &rows);

    println!("\nper-shard element counts (order 40, 3 shards — does not divide):");
    let mut rows = Vec::new();
    for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
        let counts: Vec<String> = (0..3)
            .map(|shard| {
                let spec = ShardSpec {
                    shard,
                    num_shards: 3,
                    subshard: 0,
                    num_subshards: 1,
                };
                ShardIter::new(&cycle, spec, alg).unwrap().count().to_string()
            })
            .collect();
        rows.push(vec![format!("{alg:?}"), counts.join(" + ")]);
    }
    print_table(&["algorithm", "shard sizes"], &rows);

    // The partition check the paper's bug history motivates, on a
    // larger group and awkward shard counts.
    let group = CyclicGroup::new(65537).unwrap();
    let cycle = Cycle::new(group, 4);
    for alg in [ShardAlgorithm::Interleaved, ShardAlgorithm::Pizza] {
        for n in [3u32, 7, 100] {
            let mut seen = std::collections::HashSet::new();
            let mut total = 0u64;
            for shard in 0..n {
                let spec = ShardSpec {
                    shard,
                    num_shards: n,
                    subshard: 0,
                    num_subshards: 1,
                };
                for e in ShardIter::new(&cycle, spec, alg).unwrap() {
                    assert!(seen.insert(e), "{alg:?} N={n}: duplicate element");
                    total += 1;
                }
            }
            assert_eq!(total, 65536, "{alg:?} N={n}: incomplete coverage");
        }
    }
    println!("\npartition verified: both algorithms cover order-65536 group");
    println!("exactly once for N in {{3, 7, 100}} (no off-by-one, no overlap)");
}
