//! High-level (IP, port) target generation: the composition of constraint
//! tree, cyclic group, and sharding described in paper §4.1.
//!
//! Since multiport support, ZMap selects from a pool of (IP, port)
//! *targets* rather than iterating IPs and ports independently: the group
//! element's top ⌈log₂ IPs⌉ bits index into the allowed-address set and
//! its bottom ⌈log₂ Ports⌉ bits index the port list. Elements whose IP or
//! port index falls outside the real pool are rejected and skipped (the
//! group is the smallest ladder prime that fits, so the walk stays
//! efficient). The other [`Walk`]s hand [`TargetGenerator::decode`] the
//! same packed elements in their own order.

use crate::blackrock::{Blackrock, LegacyBlackrock};
use crate::constraint::Constraint;
use crate::cycle::Cycle;
use crate::group::{CyclicGroup, GroupError};
use crate::rekey::{RekeyError, RekeyIter, RekeyedWalk};
use crate::schedule::splitmix64;
use crate::shard::{ShardAlgorithm, ShardError, ShardIter, ShardSpec};
use std::net::Ipv4Addr;

/// A single scan target: one (IP, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Target {
    /// Destination address.
    pub ip: Ipv4Addr,
    /// Destination transport port.
    pub port: u16,
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// How an IPv4 scan orders its (IP, port) targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Walk {
    /// One cyclic-group permutation (ZMap, paper §4.1).
    #[default]
    Cyclic,
    /// The stealth walk: this many independently keyed blocks in seeded
    /// order (see [`crate::rekey`]); fewer than 2 fails to build.
    Rekeyed(u32),
    /// Masscan's Blackrock shuffle of the target indices ([`Blackrock`]).
    Blackrock,
    /// Early Masscan's biased shuffle ([`LegacyBlackrock`]): some targets twice, some never.
    LegacyBlackrock,
}

impl Walk {
    /// The walk `--rekey-blocks blocks` selects: `0` is the cyclic walk.
    pub fn rekeyed(blocks: u32) -> Walk {
        if blocks == 0 { Walk::Cyclic } else { Walk::Rekeyed(blocks) }
    }
}

/// The built form of a [`Walk`]; a Blackrock walk keeps its fingerprint.
#[derive(Debug)]
enum Order {
    Cyclic,
    Rekeyed(RekeyedWalk),
    Blackrock(Shuffle, u64),
}

#[derive(Debug)]
enum Shuffle {
    Fixed(Blackrock),
    Legacy(LegacyBlackrock),
}

impl Shuffle {
    fn shuffle(&self, i: u64) -> u64 {
        match self {
            Shuffle::Fixed(b) => b.shuffle(i),
            Shuffle::Legacy(b) => b.shuffle(i),
        }
    }
}

/// Pseudorandom, exactly-once generator of scan targets.
///
/// Build with [`TargetGenerator::builder`]. The generator is cheap to
/// clone conceptually but owned once per scan; individual shards/threads
/// get iterators via [`iter_shard`](Self::iter_shard).
#[derive(Debug)]
pub struct TargetGenerator {
    constraint: Constraint,
    ports: Vec<u16>,
    num_ips: u64,
    port_bits: u32,
    cycle: Cycle,
    order: Order,
    num_shards: u32,
    num_subshards: u32,
    algorithm: ShardAlgorithm,
}

impl TargetGenerator {
    /// Starts building a generator.
    pub fn builder() -> TargetGeneratorBuilder {
        TargetGeneratorBuilder::default()
    }

    /// Total number of real targets (allowed IPs × ports).
    pub fn target_count(&self) -> u64 {
        self.num_ips * self.ports.len() as u64
    }

    /// Number of allowed destination addresses.
    pub fn ip_count(&self) -> u64 {
        self.num_ips
    }

    /// The scanned port list, in the order given.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// The group walk parameters (generator, offset, modulus) — recorded
    /// in scan metadata so a scan is reproducible/resumable.
    pub fn cycle(&self) -> &Cycle {
        &self.cycle
    }

    /// A stable fingerprint of a re-keyed or Blackrock walk, or `None`
    /// for the cyclic walk. Scan journals store this where the cyclic
    /// walk stores the group prime.
    pub fn walk_fingerprint(&self) -> Option<u64> {
        match &self.order {
            Order::Cyclic => None,
            Order::Rekeyed(walk) => Some(walk.fingerprint()),
            Order::Blackrock(_, fingerprint) => Some(*fingerprint),
        }
    }

    /// The sharding algorithm in use.
    pub fn algorithm(&self) -> ShardAlgorithm {
        self.algorithm
    }

    /// Decodes one group element into a target, or `None` when the element
    /// indexes outside the (IP, port) pool (rejection sampling).
    pub fn decode(&self, element: u64) -> Option<Target> {
        debug_assert!(element >= 1 && element < self.cycle.group().prime());
        let candidate = element - 1;
        let port_idx = (candidate & ((1u64 << self.port_bits) - 1)) as usize;
        let ip_idx = candidate >> self.port_bits;
        if port_idx >= self.ports.len() || ip_idx >= self.num_ips {
            return None;
        }
        // `ip_idx < num_ips` was checked above, so this lookup cannot
        // miss; routing the impossible case through `?` keeps the decode
        // path panic-free (rejection, not abort, on any future drift).
        let addr = self.constraint.lookup(ip_idx)?;
        Some(Target {
            ip: Ipv4Addr::from(addr),
            port: self.ports[port_idx],
        })
    }

    /// Iterator over the targets of subshard `(shard, subshard)`.
    ///
    /// # Panics
    /// Panics if the indices exceed the configured counts (a programming
    /// error — counts are fixed at build time).
    #[expect(clippy::expect_used)]
    pub fn iter_shard(&self, shard: u32, subshard: u32) -> TargetIter<'_> {
        let spec = ShardSpec {
            shard,
            num_shards: self.num_shards,
            subshard,
            num_subshards: self.num_subshards,
        };
        self.iter_spec(spec).expect("shard indices within configured counts")
    }

    /// Iterator for an explicit [`ShardSpec`] (counts may differ from the
    /// builder's, e.g. when a coordinator hands out specs).
    pub fn iter_spec(&self, spec: ShardSpec) -> Result<TargetIter<'_>, ShardError> {
        let inner = match &self.order {
            Order::Cyclic => WalkIter::Single(ShardIter::new(&self.cycle, spec, self.algorithm)?),
            Order::Rekeyed(walk) => WalkIter::Rekeyed(walk.iter_spec(spec, self.algorithm)?),
            Order::Blackrock(shuffle, _) => {
                spec.validate()?;
                let indices = (spec.lane()..self.target_count()).step_by(spec.lanes() as usize);
                WalkIter::Blackrock(BlackrockIter { gen: self, shuffle, indices, consumed: 0 })
            }
        };
        Ok(TargetIter { gen: self, inner })
    }

    /// Whether `ip` is in the allowed set.
    pub fn is_ip_allowed(&self, ip: Ipv4Addr) -> bool {
        self.constraint.is_allowed(u32::from(ip))
    }
}

/// The walk driving one subshard: a single shared permutation, the
/// stealth re-keyed block sequence, or a Blackrock shuffle. All yield
/// elements whose `− 1` is a packed global candidate, so
/// [`TargetGenerator::decode`] is common.
#[derive(Debug)]
enum WalkIter<'a> {
    Single(ShardIter<'a>),
    Rekeyed(RekeyIter<'a>),
    Blackrock(BlackrockIter<'a>),
}

/// One lane of a Blackrock walk: lane `l` of `L` takes the indices
/// `i ≡ l (mod L)` below the target count. Each shuffled index `v` maps
/// ip-major, as Masscan does (`ip = v mod #ips`, `port = v div #ips`),
/// and is re-packed as the cyclic walk's element, so it always decodes.
/// The position is the number of indices consumed.
#[derive(Debug)]
struct BlackrockIter<'a> {
    gen: &'a TargetGenerator,
    shuffle: &'a Shuffle,
    indices: std::iter::StepBy<std::ops::Range<u64>>,
    consumed: u64,
}

impl BlackrockIter<'_> {
    fn remaining(&self) -> u64 {
        self.indices.size_hint().0 as u64
    }

    fn fast_forward(&mut self, k: u64) -> u64 {
        let k = k.min(self.remaining());
        if k > 0 {
            self.indices.nth(k as usize - 1);
        }
        self.consumed += k;
        k
    }
}

impl Iterator for BlackrockIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let v = self.shuffle.shuffle(self.indices.next()?);
        self.consumed += 1;
        let ips = self.gen.num_ips;
        Some(((v % ips) << self.gen.port_bits) + v / ips + 1)
    }
}

/// Iterator over one subshard's targets (rejection-sampled group walk).
#[derive(Debug)]
pub struct TargetIter<'a> {
    gen: &'a TargetGenerator,
    inner: WalkIter<'a>,
}

impl TargetIter<'_> {
    /// Group elements consumed so far (yields *and* rejection-sampled
    /// skips *and* fast-forwarded jumps). Checkpoints record this —
    /// element positions, not target counts, because rejection sampling
    /// makes decoded targets a subsequence of walked elements.
    pub fn elements_consumed(&self) -> u64 {
        match &self.inner {
            WalkIter::Single(it) => it.consumed(),
            WalkIter::Rekeyed(it) => it.consumed(),
            WalkIter::Blackrock(it) => it.consumed,
        }
    }

    /// Group elements left in this subshard's walk.
    pub fn elements_remaining(&self) -> u64 {
        match &self.inner {
            WalkIter::Single(it) => it.remaining(),
            WalkIter::Rekeyed(it) => it.remaining(),
            WalkIter::Blackrock(it) => it.remaining(),
        }
    }

    /// Skips the next `min(k, remaining)` *elements* (one modular
    /// exponentiation per walk segment, no decoding) and returns how many
    /// were skipped. Resuming a scan fast-forwards each subshard to its
    /// journaled position before the first `next()`.
    pub fn fast_forward_elements(&mut self, k: u64) -> u64 {
        match &mut self.inner {
            WalkIter::Single(it) => it.fast_forward(k),
            WalkIter::Rekeyed(it) => it.fast_forward(k),
            WalkIter::Blackrock(it) => it.fast_forward(k),
        }
    }
}

impl Iterator for TargetIter<'_> {
    type Item = Target;

    fn next(&mut self) -> Option<Target> {
        loop {
            let element = match &mut self.inner {
                WalkIter::Single(it) => it.next()?,
                WalkIter::Rekeyed(it) => it.next()?,
                WalkIter::Blackrock(it) => it.next()?,
            };
            if let Some(t) = self.gen.decode(element) {
                return Some(t);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // At most every remaining element decodes.
        (0, Some(usize::try_from(self.elements_remaining()).unwrap_or(usize::MAX)))
    }
}

/// Errors from [`TargetGeneratorBuilder::build`].
#[derive(Debug)]
pub enum BuildError {
    /// No ports were configured.
    NoPorts,
    /// The constraint allows zero addresses.
    EmptyAddressSet,
    /// The (IP × port) pool exceeds the largest cyclic group.
    Group(GroupError),
    /// Explicit cycle parts (resume path) were invalid for the group.
    Cycle(crate::cycle::CycleError),
    /// The stealth re-keying plan could not be built.
    Rekey(RekeyError),
    /// A scan-configuration combination the engine cannot honor
    /// (engines surface e.g. oversized UDP payloads through this).
    Config(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoPorts => write!(f, "at least one port is required"),
            BuildError::EmptyAddressSet => write!(f, "constraint allows zero addresses"),
            BuildError::Group(e) => write!(f, "group selection failed: {e}"),
            BuildError::Cycle(e) => write!(f, "resumed cycle parameters invalid: {e}"),
            BuildError::Rekey(e) => write!(f, "stealth re-keying invalid: {e}"),
            BuildError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`TargetGenerator`].
#[derive(Debug)]
pub struct TargetGeneratorBuilder {
    constraint: Constraint,
    ports: Vec<u16>,
    seed: u64,
    num_shards: u32,
    num_subshards: u32,
    algorithm: ShardAlgorithm,
    cycle_parts: Option<(u64, u64)>,
    walk: Walk,
}

impl Default for TargetGeneratorBuilder {
    fn default() -> Self {
        TargetGeneratorBuilder {
            constraint: Constraint::new(true),
            ports: vec![80],
            seed: 0,
            num_shards: 1,
            num_subshards: 1,
            algorithm: ShardAlgorithm::Pizza,
            cycle_parts: None,
            walk: Walk::Cyclic,
        }
    }
}

impl TargetGeneratorBuilder {
    /// The address set to scan (defaults to all of IPv4 — combine with
    /// [`crate::parse::default_blocklist`] in real deployments).
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Destination ports (deduplicated, order preserved). Default `[80]`.
    pub fn ports(mut self, ports: &[u16]) -> Self {
        let mut seen = std::collections::HashSet::new();
        self.ports = ports.iter().copied().filter(|p| seen.insert(*p)).collect();
        self
    }

    /// Scan seed: fixes the permutation (generator + offset). Default 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of machine-level shards. Default 1.
    pub fn shards(mut self, n: u32) -> Self {
        self.num_shards = n.max(1);
        self
    }

    /// Number of per-machine send threads (subshards). Default 1.
    pub fn subshards(mut self, t: u32) -> Self {
        self.num_subshards = t.max(1);
        self
    }

    /// Sharding algorithm. Default [`ShardAlgorithm::Pizza`].
    pub fn algorithm(mut self, a: ShardAlgorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Uses explicit walk parameters via [`Cycle::from_parts`] instead
    /// of deriving them from the seed — the resume path, which must
    /// re-enter the *recorded* permutation rather than trust that seed
    /// derivation never changes across versions. `build` fails if
    /// `generator` is not a primitive root or `offset` is out of range
    /// for the selected group.
    pub fn cycle_parts(mut self, generator: u64, offset: u64) -> Self {
        self.cycle_parts = Some((generator, offset));
        self
    }

    /// The walk order. Default [`Walk::Cyclic`]. Every other walk is a
    /// pure function of the seed, so resume re-derives it: it is
    /// incompatible with [`cycle_parts`](Self::cycle_parts).
    pub fn walk(mut self, walk: Walk) -> Self {
        self.walk = walk;
        self
    }

    /// [`walk`](Self::walk)`(`[`Walk::rekeyed`]`(blocks))`: `0` keeps the
    /// cyclic walk, `1` is rejected at build time.
    pub fn rekey_blocks(self, blocks: u32) -> Self {
        self.walk(Walk::rekeyed(blocks))
    }

    /// Finalizes the constraint, selects the group, and derives the cycle.
    pub fn build(mut self) -> Result<TargetGenerator, BuildError> {
        if self.ports.is_empty() {
            return Err(BuildError::NoPorts);
        }
        self.constraint.finalize();
        let num_ips = self.constraint.allowed_count();
        if num_ips == 0 {
            return Err(BuildError::EmptyAddressSet);
        }
        let port_bits = (self.ports.len() as u64).next_power_of_two().trailing_zeros();
        let needed = num_ips
            .checked_shl(port_bits)
            .filter(|&n| n >> port_bits == num_ips)
            .ok_or(BuildError::Group(GroupError::TooManyTargets {
                requested: u64::MAX,
                largest_order: CyclicGroup::max_order(),
            }))?;
        let group = CyclicGroup::for_target_count(needed).map_err(BuildError::Group)?;
        let (range, seed) = (num_ips * self.ports.len() as u64, self.seed);
        let fingerprint = [u64::from(self.walk == Walk::LegacyBlackrock), num_ips, range]
            .into_iter()
            .fold(splitmix64(seed ^ 0x626C_6163_6B72_6B31), |h, part| splitmix64(h ^ part));
        use Shuffle::{Fixed, Legacy};
        let order = match self.walk {
            Walk::Cyclic => Order::Cyclic,
            _ if self.cycle_parts.is_some() => {
                return Err(BuildError::Config(
                    "explicit cycle parts apply only to the cyclic walk".into(),
                ))
            }
            Walk::Rekeyed(blocks) => Order::Rekeyed(
                RekeyedWalk::new(needed, blocks, self.seed).map_err(BuildError::Rekey)?,
            ),
            Walk::Blackrock => Order::Blackrock(Fixed(Blackrock::new(range, seed)), fingerprint),
            Walk::LegacyBlackrock => {
                Order::Blackrock(Legacy(LegacyBlackrock::new(range, seed)), fingerprint)
            }
        };
        let cycle = match self.cycle_parts {
            Some((generator, offset)) => {
                Cycle::from_parts(group, generator, offset).map_err(BuildError::Cycle)?
            }
            None => Cycle::new(group, self.seed),
        };
        Ok(TargetGenerator {
            constraint: self.constraint,
            ports: self.ports,
            num_ips,
            port_bits,
            cycle,
            order,
            num_shards: self.num_shards,
            num_subshards: self.num_subshards,
            algorithm: self.algorithm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn slash24_gen(ports: &[u16], seed: u64) -> TargetGenerator {
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true); // 192.0.2.0/24
        TargetGenerator::builder()
            .constraint(c)
            .ports(ports)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn covers_every_target_exactly_once() {
        let gen = slash24_gen(&[80, 443, 8080], 5);
        assert_eq!(gen.target_count(), 256 * 3);
        let got: Vec<Target> = gen.iter_shard(0, 0).collect();
        assert_eq!(got.len(), 256 * 3);
        let set: HashSet<Target> = got.iter().copied().collect();
        assert_eq!(set.len(), 256 * 3, "duplicate targets");
        for t in &set {
            assert_eq!(t.ip.octets()[..3], [192, 0, 2]);
            assert!([80u16, 443, 8080].contains(&t.port));
        }
    }

    #[test]
    fn sharded_union_equals_whole_scan() {
        for alg in [ShardAlgorithm::Pizza, ShardAlgorithm::Interleaved] {
            let mut c = Constraint::new(false);
            c.set_prefix(0x0A000000, 26, true);
            let gen = TargetGenerator::builder()
                .constraint(c)
                .ports(&[80, 443])
                .seed(9)
                .shards(3)
                .subshards(2)
                .algorithm(alg)
                .build()
                .unwrap();
            let mut union = HashSet::new();
            let mut total = 0usize;
            for s in 0..3 {
                for t in 0..2 {
                    for target in gen.iter_shard(s, t) {
                        assert!(union.insert(target), "{target:?} duplicated ({alg:?})");
                        total += 1;
                    }
                }
            }
            assert_eq!(total as u64, gen.target_count(), "{alg:?}");
        }
    }

    #[test]
    fn order_is_pseudorandom_not_sequential() {
        let gen = slash24_gen(&[80], 7);
        let ips: Vec<u32> = gen
            .iter_shard(0, 0)
            .take(32)
            .map(|t| u32::from(t.ip))
            .collect();
        let sorted = {
            let mut s = ips.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(ips, sorted, "walk should not be in address order");
    }

    #[test]
    fn seeds_change_order_but_not_set() {
        let a: Vec<Target> = slash24_gen(&[80], 1).iter_shard(0, 0).collect();
        let b: Vec<Target> = slash24_gen(&[80], 2).iter_shard(0, 0).collect();
        assert_ne!(a, b);
        let sa: HashSet<_> = a.into_iter().collect();
        let sb: HashSet<_> = b.into_iter().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn duplicate_ports_are_deduplicated() {
        let gen = slash24_gen(&[80, 80, 443], 1);
        assert_eq!(gen.ports(), &[80, 443]);
        assert_eq!(gen.target_count(), 512);
    }

    #[test]
    fn non_power_of_two_port_count_rejects_cleanly() {
        // 3 ports ⇒ 2 port bits ⇒ port index 3 must be rejected, never
        // emitted, and every real target still appears exactly once.
        let gen = slash24_gen(&[1, 2, 3], 3);
        let got: Vec<Target> = gen.iter_shard(0, 0).collect();
        assert_eq!(got.len() as u64, gen.target_count());
    }

    #[test]
    fn single_ip_many_ports() {
        let mut c = Constraint::new(false);
        c.set_prefix(0x08080808, 32, true);
        let ports: Vec<u16> = (1..=100).collect();
        let gen = TargetGenerator::builder()
            .constraint(c)
            .ports(&ports)
            .seed(4)
            .build()
            .unwrap();
        let got: HashSet<Target> = gen.iter_shard(0, 0).collect();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|t| t.ip == Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn empty_configurations_error() {
        let c = Constraint::new(false);
        let err = TargetGenerator::builder().constraint(c).build().unwrap_err();
        assert!(matches!(err, BuildError::EmptyAddressSet));
        let err = TargetGenerator::builder().ports(&[]).build().unwrap_err();
        assert!(matches!(err, BuildError::NoPorts));
    }

    #[test]
    fn group_scales_with_pool_size() {
        // /24 on 1 port → 256 targets → 2^16+1 group (257 is too small
        // only when >256 targets; 256 fits 257's order of 256).
        let gen = slash24_gen(&[80], 0);
        assert_eq!(gen.cycle().group().prime(), 257);
        // /24 on 2 ports → 512 targets → 65537 group.
        let gen = slash24_gen(&[80, 443], 0);
        assert_eq!(gen.cycle().group().prime(), 65537);
    }

    #[test]
    fn full_ipv4_single_port_uses_32bit_group() {
        let gen = TargetGenerator::builder().seed(1).build().unwrap();
        assert_eq!(gen.target_count(), 1u64 << 32);
        assert_eq!(gen.cycle().group().prime(), (1u64 << 32) + 15);
        // Don't walk 4B targets; just decode a few elements.
        let mut found = 0;
        for i in 0..100u64 {
            if let Some(t) = gen.decode(gen.cycle().element_at_position(i)) {
                let _ = t;
                found += 1;
            }
        }
        assert!(found > 90, "full-v4 walk should rarely reject ({found}/100)");
    }

    #[test]
    fn cycle_parts_reproduce_a_seeded_walk() {
        let fresh = slash24_gen(&[80, 443], 21);
        let (g, off) = (fresh.cycle().generator(), fresh.cycle().offset());
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        let resumed = TargetGenerator::builder()
            .constraint(c)
            .ports(&[80, 443])
            .seed(9999) // deliberately wrong: parts must win over the seed
            .cycle_parts(g, off)
            .build()
            .unwrap();
        let a: Vec<Target> = fresh.iter_shard(0, 0).collect();
        let b: Vec<Target> = resumed.iter_shard(0, 0).collect();
        assert_eq!(a, b, "explicit parts must replay the recorded walk");
    }

    #[test]
    fn bad_cycle_parts_fail_to_build() {
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        // 257's subgroup element 4 is no primitive root (4 = 2^2).
        let err = TargetGenerator::builder()
            .constraint(c)
            .ports(&[80])
            .cycle_parts(4, 0)
            .build();
        assert!(matches!(err, Err(BuildError::Cycle(_))), "{err:?}");
    }

    #[test]
    fn target_iter_fast_forward_matches_stepping() {
        let gen = slash24_gen(&[80, 443], 33);
        for skip in [0u64, 1, 100, 512, 700] {
            let mut stepped = gen.iter_shard(0, 0);
            while stepped.elements_consumed() < skip && stepped.next().is_some() {}
            // Drain trailing rejected elements the same way resume does:
            // positions are element-exact, so jump straight there.
            let consumed = stepped.elements_consumed();
            let mut jumped = gen.iter_shard(0, 0);
            jumped.fast_forward_elements(consumed);
            assert_eq!(jumped.elements_consumed(), consumed);
            let a: Vec<Target> = stepped.collect();
            let b: Vec<Target> = jumped.collect();
            assert_eq!(a, b, "skip {skip}");
        }
    }

    fn slash24_rekeyed(ports: &[u16], seed: u64, blocks: u32) -> TargetGenerator {
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        TargetGenerator::builder()
            .constraint(c)
            .ports(ports)
            .seed(seed)
            .rekey_blocks(blocks)
            .build()
            .unwrap()
    }

    #[test]
    fn rekeyed_walk_covers_every_target_exactly_once() {
        let gen = slash24_rekeyed(&[80, 443, 8080], 5, 8);
        assert!(gen.walk_fingerprint().is_some());
        let got: Vec<Target> = gen.iter_shard(0, 0).collect();
        assert_eq!(got.len() as u64, gen.target_count());
        let set: HashSet<Target> = got.iter().copied().collect();
        assert_eq!(set.len() as u64, gen.target_count());
    }

    #[test]
    fn rekeyed_sharded_union_equals_whole_scan() {
        for alg in [ShardAlgorithm::Pizza, ShardAlgorithm::Interleaved] {
            let mut c = Constraint::new(false);
            c.set_prefix(0x0A000000, 25, true);
            let gen = TargetGenerator::builder()
                .constraint(c)
                .ports(&[80, 443])
                .seed(9)
                .shards(3)
                .subshards(2)
                .algorithm(alg)
                .rekey_blocks(4)
                .build()
                .unwrap();
            let mut union = HashSet::new();
            for s in 0..3 {
                for t in 0..2 {
                    for target in gen.iter_shard(s, t) {
                        assert!(union.insert(target), "{target:?} duplicated ({alg:?})");
                    }
                }
            }
            assert_eq!(union.len() as u64, gen.target_count(), "{alg:?}");
        }
    }

    #[test]
    fn rekeyed_order_differs_from_single_walk_but_same_set() {
        let single: Vec<Target> = slash24_gen(&[80], 6).iter_shard(0, 0).collect();
        let rekeyed: Vec<Target> = slash24_rekeyed(&[80], 6, 4).iter_shard(0, 0).collect();
        assert_ne!(single, rekeyed);
        let a: HashSet<_> = single.into_iter().collect();
        let b: HashSet<_> = rekeyed.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rekeyed_target_iter_fast_forward_matches_stepping() {
        let gen = slash24_rekeyed(&[80, 443], 33, 4);
        for skip in [0u64, 1, 100, 512, 700] {
            let mut stepped = gen.iter_shard(0, 0);
            while stepped.elements_consumed() < skip && stepped.next().is_some() {}
            let consumed = stepped.elements_consumed();
            let mut jumped = gen.iter_shard(0, 0);
            jumped.fast_forward_elements(consumed);
            assert_eq!(jumped.elements_consumed(), consumed);
            let a: Vec<Target> = stepped.collect();
            let b: Vec<Target> = jumped.collect();
            assert_eq!(a, b, "skip {skip}");
        }
    }

    #[test]
    fn rekey_rejects_cycle_parts_and_single_block() {
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        let err = TargetGenerator::builder()
            .constraint(c)
            .rekey_blocks(4)
            .cycle_parts(3, 0)
            .build();
        assert!(matches!(err, Err(BuildError::Config(_))), "{err:?}");
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        let err = TargetGenerator::builder().constraint(c).rekey_blocks(1).build();
        assert!(matches!(err, Err(BuildError::Rekey(_))), "{err:?}");
    }

    #[test]
    fn walk_fingerprint_only_in_rekey_mode() {
        assert_eq!(slash24_gen(&[80], 3).walk_fingerprint(), None);
        let a = slash24_rekeyed(&[80], 3, 4).walk_fingerprint().unwrap();
        let b = slash24_rekeyed(&[80], 4, 4).walk_fingerprint().unwrap();
        assert_ne!(a, b, "fingerprint must track the seed");
    }

    fn blackrock_gen(
        prefix: (u32, u8),
        ports: &[u16],
        walk: Walk,
        lanes: (u32, u32),
    ) -> TargetGenerator {
        let mut c = Constraint::new(false);
        c.set_prefix(prefix.0, prefix.1, true);
        TargetGenerator::builder()
            .constraint(c)
            .ports(ports)
            .seed(5)
            .shards(lanes.0)
            .subshards(lanes.1)
            .walk(walk)
            .build()
            .unwrap()
    }

    #[test]
    fn blackrock_walk_is_the_shuffle_mapped_ip_major() {
        let ports = [80, 443, 8080];
        for (walk, legacy) in [(Walk::Blackrock, false), (Walk::LegacyBlackrock, true)] {
            let gen = blackrock_gen((0xC0000200, 26), &ports, walk, (1, 1));
            let range = gen.target_count();
            let shuffle = |i| {
                if legacy {
                    LegacyBlackrock::new(range, 5).shuffle(i)
                } else {
                    Blackrock::new(range, 5).shuffle(i)
                }
            };
            let want: Vec<Target> = (0..range)
                .map(|i| {
                    let v = shuffle(i);
                    Target {
                        ip: Ipv4Addr::from(0xC0000200 + (v % 64) as u32),
                        port: ports[(v / 64) as usize],
                    }
                })
                .collect();
            let got: Vec<Target> = gen.iter_shard(0, 0).collect();
            assert_eq!(got, want, "{walk:?}");
        }
    }

    #[test]
    fn blackrock_sharded_union_equals_whole_scan() {
        for walk in [Walk::Blackrock, Walk::LegacyBlackrock] {
            let whole: Vec<Target> = blackrock_gen((0x0A000000, 25), &[80, 443], walk, (1, 1))
                .iter_shard(0, 0)
                .collect();
            for (shards, subshards) in [(1, 1), (3, 1), (2, 2)] {
                let gen = blackrock_gen((0x0A000000, 25), &[80, 443], walk, (shards, subshards));
                let mut union = Vec::new();
                for s in 0..shards {
                    for t in 0..subshards {
                        union.extend(gen.iter_shard(s, t));
                    }
                }
                let mut want = whole.clone();
                union.sort_unstable();
                want.sort_unstable();
                assert_eq!(union, want, "{walk:?} {shards}x{subshards}");
            }
        }
        let fixed: HashSet<Target> =
            blackrock_gen((0x0A000000, 25), &[80, 443], Walk::Blackrock, (1, 1))
                .iter_shard(0, 0)
                .collect();
        assert_eq!(fixed.len(), 256, "the fixed walk reaches every target once");
    }

    #[test]
    fn blackrock_fast_forward_matches_stepping() {
        for walk in [Walk::Blackrock, Walk::LegacyBlackrock] {
            let gen = blackrock_gen((0xC0000200, 24), &[80, 443], walk, (2, 2));
            for skip in [0u64, 1, 50, 127, 128, 500] {
                let mut stepped = gen.iter_shard(1, 1);
                for _ in 0..skip {
                    stepped.next();
                }
                let mut jumped = gen.iter_shard(1, 1);
                assert_eq!(jumped.fast_forward_elements(skip), skip.min(128));
                assert_eq!(jumped.elements_consumed(), stepped.elements_consumed());
                assert_eq!(jumped.elements_remaining(), stepped.elements_remaining());
                let a: Vec<Target> = stepped.collect();
                let b: Vec<Target> = jumped.collect();
                assert_eq!(a, b, "{walk:?} skip {skip}");
            }
        }
    }

    #[test]
    fn legacy_blackrock_reaches_261_634_of_the_slash_14() {
        // The §3 experiment's space: 51.64.0.0/14 on one port, seed 5.
        let gen = blackrock_gen((0x33400000, 14), &[80], Walk::LegacyBlackrock, (1, 1));
        let mut probes = 0u64;
        let distinct: HashSet<Target> = gen.iter_shard(0, 0).inspect(|_| probes += 1).collect();
        assert_eq!((probes, distinct.len()), (262_144, 261_634));
    }

    #[test]
    fn blackrock_walks_have_fingerprints_and_refuse_cycle_parts() {
        let fp = |walk, seed| {
            let mut c = Constraint::new(false);
            c.set_prefix(0xC0000200, 24, true);
            let gen = TargetGenerator::builder()
                .constraint(c)
                .seed(seed)
                .walk(walk)
                .build();
            gen.unwrap().walk_fingerprint().unwrap()
        };
        assert_ne!(fp(Walk::Blackrock, 3), fp(Walk::LegacyBlackrock, 3));
        assert_ne!(fp(Walk::Blackrock, 3), fp(Walk::Blackrock, 4));
        let mut c = Constraint::new(false);
        c.set_prefix(0xC0000200, 24, true);
        let err = TargetGenerator::builder()
            .constraint(c)
            .walk(Walk::Blackrock)
            .cycle_parts(3, 0)
            .build();
        assert!(matches!(err, Err(BuildError::Config(_))), "{err:?}");
    }

    #[test]
    fn is_ip_allowed_matches_constraint() {
        let gen = slash24_gen(&[80], 0);
        assert!(gen.is_ip_allowed(Ipv4Addr::new(192, 0, 2, 17)));
        assert!(!gen.is_ip_allowed(Ipv4Addr::new(192, 0, 3, 17)));
    }
}
