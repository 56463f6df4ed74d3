//! Property tests: the per-thread subshard walks the threaded driver's
//! send threads own must form an exact partition of the shard —
//! pairwise disjoint, and their union equal (as a set) to the
//! single-subshard cyclic walk — for arbitrary (shards, subshards, seed)
//! and both sharding algorithms. A violated partition would mean a
//! threaded scan double-probes or silently skips targets.

use proptest::prelude::*;
use std::collections::HashSet;
use zmap_targets::{Constraint, ShardAlgorithm, TargetGenerator};

fn generator(
    seed: u64,
    shards: u32,
    subshards: u32,
    algorithm: ShardAlgorithm,
) -> TargetGenerator {
    // A /22 (1024 addresses): big enough that every subshard of every
    // split is non-trivial, small enough for hundreds of cases.
    let mut c = Constraint::new(false);
    c.set_prefix(0x2C80_0000, 22, true);
    TargetGenerator::builder()
        .constraint(c)
        .ports(&[80])
        .seed(seed)
        .shards(shards)
        .subshards(subshards)
        .algorithm(algorithm)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subshard_walks_partition_the_shard(
        seed in any::<u64>(),
        shards in 1u32..5,
        subshards in 1u32..8,
        shard_pick in any::<u32>(),
        pizza in any::<bool>(),
    ) {
        let algorithm = if pizza { ShardAlgorithm::Pizza } else { ShardAlgorithm::Interleaved };
        let shard = shard_pick % shards;

        // Reference: the same shard walked as one subshard.
        let whole = generator(seed, shards, 1, algorithm);
        let single: Vec<_> = whole
            .iter_shard(shard, 0)
            .map(|t| (t.ip, t.port))
            .collect();
        let single_set: HashSet<_> = single.iter().copied().collect();
        prop_assert_eq!(
            single.len(),
            single_set.len(),
            "the reference walk itself must not repeat"
        );

        // Split: every subshard walked independently.
        let split = generator(seed, shards, subshards, algorithm);
        let mut union = HashSet::new();
        let mut total = 0usize;
        for sub in 0..subshards {
            for t in split.iter_shard(shard, sub) {
                total += 1;
                prop_assert!(
                    union.insert((t.ip, t.port)),
                    "target {}:{} appears in two subshards", t.ip, t.port
                );
            }
        }
        // Pairwise disjoint (checked by the inserts above) + equal union
        // + equal cardinality ⇒ an exact partition.
        prop_assert_eq!(total, single.len(), "subshards lost or grew targets");
        prop_assert_eq!(union, single_set, "subshard union must equal the whole shard");
    }

    #[test]
    fn full_space_splits_cover_every_address_once(
        seed in any::<u64>(),
        subshards in 1u32..6,
    ) {
        // One shard, many subshards: the union over subshards must hit
        // all 1024 addresses exactly once — the exact contract the
        // threaded driver's send threads rely on.
        let g = generator(seed, 1, subshards, ShardAlgorithm::Pizza);
        let mut seen = HashSet::new();
        for sub in 0..subshards {
            for t in g.iter_shard(0, sub) {
                prop_assert!(seen.insert(t.ip), "duplicate {}", t.ip);
            }
        }
        prop_assert_eq!(seen.len(), 1024);
    }
}
