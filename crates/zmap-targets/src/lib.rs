#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Target generation for Internet-wide scanning, as described in §4.1–§4.2
//! of *Ten Years of ZMap* (IMC 2024).
//!
//! ZMap visits every (IP, port) target exactly once, in a pseudorandom
//! order, with O(1) state: it walks the multiplicative group (ℤ/pℤ)^× of a
//! prime p slightly larger than the number of targets, from a random
//! primitive root. This crate implements that machinery end to end:
//!
//! * [`group::CyclicGroup`] — the ladder of group moduli (2^8+1 … 2^48+21),
//! * [`cycle::Cycle`] — a per-scan random permutation of the group,
//! * [`shard`] — both sharding algorithms: interleaved (2014) and
//!   pizza (2017),
//! * one stride scheduler that merges *k* sharded walks into one stream,
//!   shared by the IPv6 prefix walk ([`v6`]) and the stealth re-keyed
//!   walk ([`rekey`]),
//! * [`blackrock`] — Masscan's index shuffle, the two Blackrock [`Walk`]s,
//! * [`constraint::Constraint`] — the allowlist/blocklist as a flat table
//!   of allowed ranges with prefix sums and an index directory, so the
//!   order-preserving index→address lookup every probe pays is one
//!   directory read and one add,
//! * [`TargetGenerator`] — the high-level iterator over `(Ipv4Addr, port)`
//!   targets for one shard of a scan.
//!
//! # Example
//!
//! ```
//! use zmap_targets::{Constraint, TargetGenerator};
//!
//! // Scan 10.0.0.0/8 on ports 80 and 443, shard 0 of 2.
//! let mut allow = Constraint::new(false);
//! allow.set_prefix(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0)), 8, true);
//! let gen = TargetGenerator::builder()
//!     .constraint(allow)
//!     .ports(&[80, 443])
//!     .seed(42)
//!     .shards(2)
//!     .build()
//!     .unwrap();
//! let shard0: Vec<_> = gen.iter_shard(0, 0).take(5).collect();
//! assert_eq!(shard0.len(), 5);
//! for t in &shard0 {
//!     assert!(t.ip.octets()[0] == 10);
//!     assert!(t.port == 80 || t.port == 443);
//! }
//! ```

pub mod blackrock;
pub mod constraint;
pub mod cycle;
pub mod generator;
pub mod group;
pub mod parse;
pub mod rekey;
mod schedule;
pub mod shard;
pub mod v6;

pub use blackrock::{Blackrock, LegacyBlackrock};
pub use constraint::Constraint;
pub use cycle::Cycle;
pub use generator::{Target, TargetGenerator, TargetGeneratorBuilder, Walk};
pub use group::CyclicGroup;
pub use parse::{parse_cidr, parse_target_file_contents, ParseError};
pub use rekey::{BlockParams, RekeyError, RekeyIter, RekeyedWalk};
pub use shard::{ShardAlgorithm, ShardIter, ShardSpec};
pub use v6::{
    parse_prefix_list, DedupError, HostPattern, PrefixSpec, PrefixTable, Target6, V6DedupSpace,
    V6Error, V6ParseError, V6TargetIter, V6TargetSpace,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut allow = Constraint::new(false);
        allow.set_prefix(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0)), 8, true);
        let gen = TargetGenerator::builder()
            .constraint(allow)
            .ports(&[80, 443])
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(gen.target_count(), (1u64 << 24) * 2);
    }
}
