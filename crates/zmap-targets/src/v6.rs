//! IPv6 target generation: per-prefix cyclic walks over a prefix list.
//!
//! IPv6's 2^128 address space cannot be permuted with one cyclic group the
//! way IPv4 × ports can (§4.1 tops out at the 2^48 + 21 modulus). Following
//! XMap and the hitlist literature, a v6 scan instead enumerates a *prefix
//! list*: each announced prefix carries a procedural host pattern (low-byte
//! hosts, EUI-64 interface IDs, or embedded-IPv4 addresses) and a bounded
//! number of host bits, so each line enumerates a small, countable range
//! of addresses, `fixed | index` ([`PrefixSpec`]). The ranges are disjoint
//! and sorted into a [`PrefixTable`], so an address maps back to its line
//! and index by one binary search ([`V6DedupSpace::key_for`]). Every
//! prefix gets its own smallest-fitting ladder group walked from its own
//! derived seed, and the walks are merged by a seeded stride schedule so
//! probe order stays unpredictable across prefixes (Mazel & Strullu's
//! objection to per-prefix bursts); each target carries its dedup key.

use std::net::Ipv6Addr;

use crate::cycle::Cycle;
use crate::group::CyclicGroup;
use crate::schedule::{derive_seed, splitmix64, Schedule};
use crate::shard::{ShardAlgorithm, ShardError, ShardIter, ShardSpec};

/// One (address, port) scan target drawn from the v6 walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target6 {
    /// Destination address.
    pub ip: Ipv6Addr,
    /// Destination port (probe modules without ports scan port 0).
    pub port: u16,
    /// What [`V6DedupSpace::key_for`] returns for `(ip, port)`, computed
    /// from the walk's (prefix, index, port slot) without a search;
    /// `None` past the 64-bit key space.
    pub key: Option<u64>,
}

/// The address as two little-endian words: the hash input for the
/// pattern constants and the fingerprint.
fn words(addr: Ipv6Addr) -> [u64; 2] {
    let a = u128::from(addr);
    [((a >> 64) as u64).swap_bytes(), (a as u64).swap_bytes()]
}

/// How the host bits of a prefix map to concrete interface identifiers.
///
/// Every pattern fills the host part above a low `bits`-bit index field
/// with a constant derived from the prefix, so each is a bijection from
/// an index in `[0, 2^bits)` to an address inside the prefix that inverts
/// without state — the RX path recovers the index from a bare response
/// address. Past parsing, a pattern only decides that constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostPattern {
    /// Hosts numbered from the bottom of the prefix: `prefix | index`.
    /// The most common pattern in hitlists (routers, servers, ::1-style
    /// statics). Up to 64 host bits.
    Low,
    /// SLAAC-style modified EUI-64 interface IDs: a prefix-derived OUI,
    /// the `ff:fe` filler, and a serial number carrying the index. Up to
    /// 24 host bits (the serial field).
    Eui64,
    /// IPv4-embedded addresses: the low 32 bits hold a prefix-derived
    /// IPv4 base with the low `bits` bits replaced by the index (dual-
    /// stack gateways, 6to4-style layouts). Up to 32 host bits.
    EmbeddedV4,
}

impl HostPattern {
    /// Keyword, widest `bits=`, and the host bits the pattern's field
    /// needs below the prefix (the IID is 64 bits, an embedded v4 32).
    const TABLE: [(HostPattern, &'static str, u8, u8); 3] = [
        (HostPattern::Low, "low", 64, 0),
        (HostPattern::Eui64, "eui64", 24, 64),
        (HostPattern::EmbeddedV4, "embedded-v4", 32, 32),
    ];

    /// The keyword used in prefix-list files.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The widest `bits=` value the pattern's index field can carry.
    pub fn max_bits(self) -> u8 {
        Self::TABLE[self as usize].2
    }

    fn parse(s: &str) -> Option<Self> {
        Self::TABLE.iter().find(|row| row.1 == s).map(|row| row.0)
    }
}

/// One parsed prefix-list line:
///
/// ```text
/// 2001:db8:a::/48 pattern=eui64 bits=10 density=0.6
/// ```
///
/// `pattern` defaults to `low`, `bits` to 8, `density` to 1.0. The same
/// line format drives both the scanner's walk and the netsim population,
/// so a committed scenario's hit-rate curve is reproducible from one file.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSpec {
    prefix: Ipv6Addr,
    prefix_len: u8,
    pattern: HostPattern,
    bits: u8,
    density: f64,
    /// The prefix plus the pattern's fill above the index field: host
    /// `index` is `fixed | index`.
    fixed: u128,
}

impl PrefixSpec {
    /// Builds a spec programmatically, with the same validation as
    /// [`PrefixSpec::parse_line`].
    pub fn new(
        prefix: Ipv6Addr,
        prefix_len: u8,
        pattern: HostPattern,
        bits: u8,
        density: f64,
    ) -> Result<Self, V6ParseError> {
        PrefixSpec {
            prefix,
            prefix_len,
            pattern,
            bits,
            density,
            fixed: 0,
        }
        .finish(0)
    }

    /// Parses one prefix-list line (used by [`parse_prefix_list`], which
    /// adds comment/blank handling and line numbers).
    pub fn parse_line(line: &str) -> Result<Self, V6ParseError> {
        Self::parse_at(line, 0)
    }

    fn parse_at(line: &str, lineno: usize) -> Result<Self, V6ParseError> {
        let err = |msg: String| V6ParseError { line: lineno, msg };
        let mut fields = line.split_whitespace();
        let cidr = fields.next().ok_or_else(|| err("empty line".into()))?;
        let (addr_s, len_s) = cidr
            .split_once('/')
            .ok_or_else(|| err(format!("'{cidr}' is not a prefix (missing '/len')")))?;
        let prefix: Ipv6Addr = addr_s
            .parse()
            .map_err(|_| err(format!("'{addr_s}' is not an IPv6 address")))?;
        let prefix_len: u8 = len_s
            .parse()
            .ok()
            .filter(|&l| l <= 128)
            .ok_or_else(|| err(format!("'/{len_s}' is not a prefix length (0–128)")))?;
        let mut spec = PrefixSpec {
            prefix,
            prefix_len,
            pattern: HostPattern::Low,
            bits: 8,
            density: 1.0,
            fixed: 0,
        };
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| err(format!("'{field}' is not key=value")))?;
            match key {
                "pattern" => {
                    spec.pattern = HostPattern::parse(value).ok_or_else(|| {
                        err(format!("unknown pattern '{value}' (low|eui64|embedded-v4)"))
                    })?;
                }
                "bits" => {
                    spec.bits = value
                        .parse()
                        .map_err(|_| err(format!("bits='{value}' is not an integer")))?;
                }
                "density" => {
                    spec.density = value
                        .parse()
                        .map_err(|_| err(format!("density='{value}' is not a number")))?;
                }
                _ => return Err(err(format!("unknown field '{key}'"))),
            }
        }
        spec.finish(lineno)
    }

    /// Validates the line and derives `fixed`: the prefix plus the fill
    /// its pattern puts above the index field.
    fn finish(mut self, lineno: usize) -> Result<Self, V6ParseError> {
        let err = |msg: String| V6ParseError { line: lineno, msg };
        if u128::from(self.prefix) & self.host_mask() != 0 {
            return Err(err(format!(
                "{} has bits set below /{}",
                self.prefix, self.prefix_len
            )));
        }
        let (_, name, pattern_max, field_floor) = HostPattern::TABLE[self.pattern as usize];
        let prefix_max = 128 - self.prefix_len;
        if self.bits > pattern_max.min(prefix_max) {
            return Err(err(format!(
                "bits={} exceeds pattern {name} limit ({pattern_max}) or the /{} host space ({prefix_max})",
                self.bits, self.prefix_len
            )));
        }
        if prefix_max < field_floor {
            return Err(err(format!(
                "pattern {name} needs at least {field_floor} host bits, /{} leaves {prefix_max}",
                self.prefix_len
            )));
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err(err(format!("density={} outside (0, 1]", self.density)));
        }
        let [w0, w1] = words(self.prefix);
        let h = splitmix64(splitmix64(w0 ^ w1) ^ u64::from(self.prefix_len));
        let fill = match self.pattern {
            HostPattern::Low => 0,
            // Modified EUI-64: the derived OUI (universal/local bit set,
            // multicast bit clear), `ff:fe`, then the 24-bit serial.
            HostPattern::Eui64 => {
                let oui = ((h >> 24) & 0xFC_FFFF) | 0x02_0000;
                u128::from((oui << 40) | (0xFFFE << 24))
            }
            // The derived IPv4 base, its low `bits` bits left to the index.
            HostPattern::EmbeddedV4 => u128::from(h as u32) & !(self.host_count() - 1),
        };
        self.fixed = u128::from(self.prefix) | fill;
        Ok(self)
    }

    /// The prefix address (host bits zero).
    pub fn prefix(&self) -> Ipv6Addr {
        self.prefix
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The host pattern.
    pub fn pattern(&self) -> HostPattern {
        self.pattern
    }

    /// Number of index bits (host count = 2^bits).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Fraction of hosts the netsim population answers for.
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Number of addresses this spec enumerates.
    pub fn host_count(&self) -> u128 {
        1u128 << self.bits
    }

    /// `"2001:db8::/32"` — how errors and logs name this prefix.
    pub fn canonical_prefix(&self) -> String {
        format!("{}/{}", self.prefix, self.prefix_len)
    }

    /// `"2001:db8::/32 pattern=low bits=8"` — how errors name this line.
    fn describe(&self) -> String {
        format!(
            "{} pattern={} bits={}",
            self.canonical_prefix(),
            self.pattern.name(),
            self.bits
        )
    }

    fn host_mask(&self) -> u128 {
        u128::MAX.checked_shr(self.prefix_len.into()).unwrap_or(0)
    }

    /// Whether `addr` falls inside the prefix (mask match only — the
    /// pattern may still fail to invert).
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & !self.host_mask() == u128::from(self.prefix)
    }

    /// The address at host `index`: `fixed | index`.
    ///
    /// # Panics
    /// Debug-asserts `index < host_count()`; the walk never passes an
    /// out-of-range index.
    pub fn addr_at(&self, index: u128) -> Ipv6Addr {
        debug_assert!(index < self.host_count());
        Ipv6Addr::from(self.fixed | index)
    }

    /// Inverts [`addr_at`](Self::addr_at): the index whose address is
    /// exactly `addr`, or `None` when `addr` is outside the prefix or off
    /// the pattern (wrong OUI, stray middle bits, index ≥ 2^bits).
    pub fn index_of(&self, addr: Ipv6Addr) -> Option<u128> {
        let index = u128::from(addr) ^ self.fixed;
        (index >> self.bits == 0).then_some(index)
    }

    /// Folds this spec into a fingerprint accumulator.
    fn fold_fingerprint(&self, h: u64) -> u64 {
        let [w0, w1] = words(self.prefix);
        let (len, tag, bits) = (
            self.prefix_len.into(),
            self.pattern as u64 + 1,
            self.bits.into(),
        );
        let parts = [w0, w1, len, tag, bits, self.density.to_bits()];
        parts.into_iter().fold(h, |h, part| splitmix64(h ^ part))
    }
}

/// Every line's on-pattern address range, sorted by start.
///
/// Line `i` enumerates exactly `[fixed_i, fixed_i + 2^bits_i)`, so the
/// line and host index of an address are one binary search away. The
/// scanner's dedup keys and the netsim population make this one lookup.
#[derive(Debug, Clone)]
pub struct PrefixTable {
    /// `(first address, last address, line)`, sorted.
    ranges: Vec<(u128, u128, usize)>,
}

impl PrefixTable {
    /// Builds the table; lines are numbered by their position in `specs`.
    pub fn new(specs: &[PrefixSpec]) -> Self {
        let mut ranges: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.fixed, s.fixed | (s.host_count() - 1), i))
            .collect();
        ranges.sort_unstable();
        PrefixTable { ranges }
    }

    /// Two lines whose ranges share an address (in line order) and the
    /// first address they share. Such a list cannot key every target to
    /// one line, so [`V6TargetSpace::new`] rejects it.
    pub fn overlap(&self) -> Option<(usize, usize, Ipv6Addr)> {
        let w = self.ranges.windows(2).find(|w| w[1].0 <= w[0].1)?;
        let (a, b) = (w[0].2.min(w[1].2), w[0].2.max(w[1].2));
        Some((a, b, Ipv6Addr::from(w[1].0)))
    }

    /// The line whose range holds `addr`, and `addr`'s index there.
    #[inline]
    pub fn find(&self, addr: Ipv6Addr) -> Option<(usize, u128)> {
        let a = u128::from(addr);
        let below = &self.ranges[..self.ranges.partition_point(|r| r.0 <= a)];
        let &(first, last, line) = below.last()?;
        (a <= last).then_some((line, a - first))
    }
}

/// A prefix-list parse failure: the offending line (1-based; 0 when the
/// line was parsed standalone) and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V6ParseError {
    /// 1-based line number, 0 for standalone parses.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for V6ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "prefix list line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for V6ParseError {}

/// Parses a whole prefix-list file: one [`PrefixSpec`] per non-blank,
/// non-`#`-comment line, preserving file order (which fixes walk ordinals
/// and dedup offsets — reordering the file is a different scan).
pub fn parse_prefix_list(contents: &str) -> Result<Vec<PrefixSpec>, V6ParseError> {
    let mut specs = Vec::new();
    for (i, raw) in contents.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        specs.push(PrefixSpec::parse_at(line, i + 1)?);
    }
    Ok(specs)
}

/// Errors building a [`V6TargetSpace`].
#[derive(Debug)]
pub enum V6Error {
    /// The prefix list parsed to zero specs.
    EmptyPrefixList,
    /// No ports were configured.
    NoPorts,
    /// Two lines enumerate a common address, so a response from it could
    /// not be keyed to one line. Names both lines.
    Overlap {
        /// The earlier line, e.g. `"2001:db8::/32 pattern=low bits=8"`.
        first: String,
        /// The later line.
        second: String,
        /// The first address both enumerate.
        at: Ipv6Addr,
    },
    /// A prefix's pool is so large that even splitting it into
    /// [`MAX_WALKS_PER_PREFIX`] subwalks of the largest ladder group
    /// cannot cover it. Names the prefix so the operator knows which
    /// line to shrink (`bits=` or the port list).
    PrefixTooLarge {
        /// The offending prefix, e.g. `"2001:db8::/32"`.
        prefix: String,
        /// Its (host × port-slot) pool size.
        pool: u128,
        /// The subwalk cap.
        max_walks: u64,
    },
}

impl std::fmt::Display for V6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V6Error::EmptyPrefixList => write!(f, "prefix list is empty"),
            V6Error::NoPorts => write!(f, "at least one port is required"),
            V6Error::Overlap { first, second, at } => write!(
                f,
                "prefix lines {first} and {second} both enumerate {at}; \
                 every address must belong to one line"
            ),
            V6Error::PrefixTooLarge {
                prefix,
                pool,
                max_walks,
            } => write!(
                f,
                "prefix {prefix}: pool of {pool} targets exceeds {max_walks} subwalks \
                 of the largest group; lower bits= or the port count"
            ),
        }
    }
}

impl std::error::Error for V6Error {}

/// Upper bound on subwalks per prefix. A prefix whose pool exceeds
/// `MAX_WALKS_PER_PREFIX × CyclicGroup::max_order()` (≈ 2^64 targets) is
/// rejected by name rather than silently exploding walk state.
pub const MAX_WALKS_PER_PREFIX: u64 = 1 << 16;

/// One per-prefix (or per-prefix-slice) cyclic walk.
#[derive(Debug, Clone)]
struct Walk {
    spec_idx: usize,
    /// First host index this walk covers (subwalk slices are contiguous).
    host_base: u128,
    /// Valid raw-index pool: `host_span << port_bits`. Raw elements at or
    /// beyond this are rejection-sampled away.
    pool: u64,
    cycle: Cycle,
}

/// The full v6 walk plan: every prefix's pool mapped onto its own
/// smallest-fitting ladder group, iterated shard-compatibly.
#[derive(Debug, Clone)]
pub struct V6TargetSpace {
    /// The specs, ports and key layout the walk's targets are keyed in.
    dedup: V6DedupSpace,
    port_bits: u32,
    seed: u64,
    algorithm: ShardAlgorithm,
    walks: Vec<Walk>,
}

impl V6TargetSpace {
    /// Builds the walk plan.
    ///
    /// Each prefix's pool is `2^bits × 2^port_bits` raw slots. A pool
    /// that fits the largest ladder group becomes one walk; a larger one
    /// is split into `2^k` contiguous host-index slices that each fit.
    /// Every walk gets its own cycle seeded from `(seed, walk ordinal)`.
    ///
    /// # Errors
    /// [`V6Error::Overlap`] (naming both lines) when two specs enumerate
    /// a common address; [`V6Error::PrefixTooLarge`] (naming the prefix)
    /// when a split would need more than [`MAX_WALKS_PER_PREFIX`]
    /// subwalks; the empty-input errors otherwise.
    pub fn new(
        specs: Vec<PrefixSpec>,
        ports: &[u16],
        seed: u64,
        algorithm: ShardAlgorithm,
    ) -> Result<Self, V6Error> {
        if specs.is_empty() {
            return Err(V6Error::EmptyPrefixList);
        }
        if ports.is_empty() {
            return Err(V6Error::NoPorts);
        }
        let dedup = V6DedupSpace::new(&specs, ports);
        if let Some((a, b, at)) = dedup.table.overlap() {
            let (first, second) = (specs[a].describe(), specs[b].describe());
            return Err(V6Error::Overlap { first, second, at });
        }
        let port_bits = (ports.len() as u64).next_power_of_two().trailing_zeros();
        // Largest power-of-two pool a ladder group holds: 2^48 ≤ 2^48+20.
        let max_pool_bits = 48u32;
        let mut walks = Vec::new();
        for (spec_idx, spec) in specs.iter().enumerate() {
            let bits = u32::from(spec.bits());
            let span_bits = bits.min(max_pool_bits.saturating_sub(port_bits));
            let split = bits - span_bits;
            let too_large = || V6Error::PrefixTooLarge {
                prefix: spec.canonical_prefix(),
                pool: spec.host_count() << port_bits,
                max_walks: MAX_WALKS_PER_PREFIX,
            };
            if split >= 63 || (1u64 << split) > MAX_WALKS_PER_PREFIX {
                return Err(too_large());
            }
            let pool = 1u64 << (span_bits + port_bits);
            // Never fails: the pool was capped at the largest group.
            let group = CyclicGroup::for_target_count(pool).map_err(|_| too_large())?;
            for w in 0..1u64 << split {
                let ordinal = walks.len() as u64;
                walks.push(Walk {
                    spec_idx,
                    host_base: u128::from(w) << span_bits,
                    pool,
                    cycle: Cycle::new(group.clone(), derive_seed(seed, ordinal)),
                });
            }
        }
        Ok(V6TargetSpace {
            dedup,
            port_bits,
            seed,
            algorithm,
            walks,
        })
    }

    /// The prefix specs, in file order.
    pub fn specs(&self) -> &[PrefixSpec] {
        &self.dedup.specs
    }

    /// The scanned ports.
    pub fn ports(&self) -> &[u16] {
        &self.dedup.ports
    }

    /// Total number of cyclic walks (≥ number of prefixes; larger when
    /// prefixes were split).
    pub fn walk_count(&self) -> usize {
        self.walks.len()
    }

    /// Exact number of (address, port) targets across all prefixes.
    pub fn target_count(&self) -> u128 {
        self.dedup.key_space()
    }

    /// A stable digest of (specs, ports, seed). The scan journal stores
    /// this where the IPv4 path stores the group prime, so `--resume`
    /// detects a changed prefix list / port set / seed the same way the
    /// v4 path detects a changed target space.
    pub fn fingerprint(&self) -> u64 {
        let h = splitmix64(self.seed ^ 0x7636_7761_6C6B_2121);
        let h = self
            .ports()
            .iter()
            .fold(h, |h, &p| splitmix64(h ^ u64::from(p)));
        self.specs()
            .iter()
            .fold(h, |h, spec| spec.fold_fingerprint(h))
    }

    /// The dedup index space over this plan's prefixes and ports.
    pub fn dedup_space(&self) -> V6DedupSpace {
        self.dedup.clone()
    }

    /// Decodes one raw group element of walk `walk_idx` into a target, or
    /// `None` for rejection-sampled slots (element beyond the pool, or a
    /// port slot past the real port list).
    fn decode(&self, walk_idx: usize, element: u64) -> Option<Target6> {
        let walk = &self.walks[walk_idx];
        let candidate = element - 1;
        let port_idx = (candidate & ((1u64 << self.port_bits) - 1)) as usize;
        if candidate >= walk.pool || port_idx >= self.dedup.ports.len() {
            return None;
        }
        let index = walk.host_base + u128::from(candidate >> self.port_bits);
        Some(Target6 {
            ip: self.dedup.specs[walk.spec_idx].addr_at(index),
            port: self.dedup.ports[port_idx],
            key: u64::try_from(self.dedup.key(walk.spec_idx, index, port_idx)).ok(),
        })
    }

    /// Iterator over the targets of one subshard, interleaved across all
    /// walks.
    ///
    /// # Errors
    /// Returns `Err` when the spec is invalid for any walk.
    pub fn iter_spec(&self, spec: ShardSpec) -> Result<V6TargetIter<'_>, ShardError> {
        let walks = self
            .walks
            .iter()
            .map(|w| ShardIter::new(&w.cycle, spec, self.algorithm));
        // A seeded first pass below the stride de-phases equal-weight
        // walks beyond the lane-order tie-break.
        let phase = |lane: usize, stride: u128| {
            u128::from(derive_seed(self.seed ^ 0x696E_746C_7636_5F5F, lane as u64)) % stride
        };
        Ok(V6TargetIter {
            space: self,
            schedule: Schedule::new(walks.collect::<Result<_, _>>()?, phase),
        })
    }

    /// Convenience wrapper building the [`ShardSpec`] from bare indices.
    ///
    /// # Panics
    /// Panics when the indices are out of range (programming error).
    #[expect(clippy::expect_used)]
    pub fn iter_shard(
        &self,
        shard: u32,
        num_shards: u32,
        subshard: u32,
        num_subshards: u32,
    ) -> V6TargetIter<'_> {
        self.iter_spec(ShardSpec {
            shard,
            num_shards,
            subshard,
            num_subshards,
        })
        .expect("shard indices within counts")
    }
}

/// Iterator over one subshard's v6 targets: every walk's [`ShardIter`]
/// merged by the seeded stride schedule.
///
/// The checkpointable position is
/// [`elements_consumed`](V6TargetIter::elements_consumed) — total raw
/// draws across all walks, a single `u64` exactly like the IPv4 walk
/// position, so the journal format and `ShardSpec` plumbing carry over
/// unchanged. The schedule is deterministic in (specs, ports, seed,
/// spec), so [`fast_forward_elements`](V6TargetIter::fast_forward_elements)
/// finds any position in closed form and then jumps each walk in
/// O(log k).
#[derive(Debug, Clone)]
pub struct V6TargetIter<'a> {
    space: &'a V6TargetSpace,
    schedule: Schedule<'a>,
}

impl V6TargetIter<'_> {
    /// Raw draws so far (yields + rejection skips + fast-forwarded jumps).
    pub fn elements_consumed(&self) -> u64 {
        self.schedule.consumed()
    }

    /// Raw draws left across all walks.
    pub fn elements_remaining(&self) -> u64 {
        self.schedule.remaining()
    }

    /// Skips the next `min(k, remaining)` raw draws and returns how many
    /// were skipped: O(walks) per bit of the schedule's pass clock, then
    /// one modular exponentiation per walk.
    pub fn fast_forward_elements(&mut self, k: u64) -> u64 {
        self.schedule.fast_forward(k)
    }
}

impl Iterator for V6TargetIter<'_> {
    type Item = Target6;

    fn next(&mut self) -> Option<Target6> {
        loop {
            let (walk, element) = self.schedule.next()?;
            if let Some(t) = self.space.decode(walk, element) {
                return Some(t);
            }
        }
    }
}

/// Errors mapping a response `(addr, port)` into the dedup index space.
///
/// These are per-response: the RX path drops (or counts) the one response
/// and keeps scanning — a malformed hitlist entry or an off-pattern
/// responder degrades one prefix's dedup, never the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupError {
    /// The address is outside every configured prefix.
    NoMatchingPrefix(Ipv6Addr),
    /// The address is inside `prefix` but does not invert under its host
    /// pattern (wrong OUI, stray bits, index beyond `bits=`).
    PatternMismatch {
        /// The longest matching prefix, as `(network, length)`.
        prefix: (Ipv6Addr, u8),
        /// The address that failed to invert.
        addr: Ipv6Addr,
    },
    /// The port is not in the scanned port list.
    UnknownPort {
        /// The matching prefix, as `(network, length)`.
        prefix: (Ipv6Addr, u8),
        /// The unexpected source port.
        port: u16,
    },
    /// The cumulative index exceeds the 64-bit dedup key space (possible
    /// only when the prefix list enumerates > 2^64 targets).
    KeyOverflow {
        /// The matching prefix, as `(network, length)`.
        prefix: (Ipv6Addr, u8),
        /// The 128-bit key that did not fit.
        key: u128,
    },
}

impl std::fmt::Display for DedupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DedupError::NoMatchingPrefix(a) => {
                write!(f, "{a} is outside every configured prefix")
            }
            DedupError::PatternMismatch {
                prefix: (net, len),
                addr,
            } => {
                write!(f, "{addr} does not match the host pattern of {net}/{len}")
            }
            DedupError::UnknownPort {
                prefix: (net, len),
                port,
            } => {
                write!(
                    f,
                    "port {port} (prefix {net}/{len}) is not in the scanned set"
                )
            }
            DedupError::KeyOverflow {
                prefix: (net, len),
                key,
            } => {
                write!(f, "dedup key {key} for prefix {net}/{len} exceeds 64 bits")
            }
        }
    }
}

impl std::error::Error for DedupError {}

/// Maps response `(addr, port)` pairs to dense `u64` dedup keys.
///
/// Keys are per-prefix index spaces laid out consecutively in file order:
/// `base(prefix) + host_index × |ports| + port_idx`. Compact (no
/// power-of-two padding), so bitmap dedup state is proportional to the
/// real target count.
#[derive(Debug, Clone)]
pub struct V6DedupSpace {
    specs: Vec<PrefixSpec>,
    table: PrefixTable,
    /// Each spec's first key: the key counts of the specs before it.
    bases: Vec<u128>,
    ports: Vec<u16>,
}

impl V6DedupSpace {
    /// Builds the space. Offsets follow `specs` order. The specs should
    /// not overlap ([`parse_prefix_list`] and [`V6TargetSpace::new`]
    /// reject lists that do); where two do, an address keys against the
    /// range that starts last at or below it.
    pub fn new(specs: &[PrefixSpec], ports: &[u16]) -> Self {
        let mut next = 0u128;
        let bases = specs
            .iter()
            .map(|s| {
                let base = next;
                next += s.host_count() * ports.len() as u128;
                base
            })
            .collect();
        V6DedupSpace {
            specs: specs.to_vec(),
            table: PrefixTable::new(specs),
            bases,
            ports: ports.to_vec(),
        }
    }

    /// Total key-space size (keys are `[0, key_space)`); callers sizing a
    /// full bitmap check this fits their budget first.
    pub fn key_space(&self) -> u128 {
        self.specs.iter().map(PrefixSpec::host_count).sum::<u128>() * self.ports.len() as u128
    }

    /// The key of host `index` of spec `spec` on port slot `port_idx` —
    /// the one layout the walk and [`key_for`](Self::key_for) share.
    fn key(&self, spec: usize, index: u128, port_idx: usize) -> u128 {
        self.bases[spec] + index * self.ports.len() as u128 + port_idx as u128
    }

    /// The dense dedup key for a response, or a typed error naming the
    /// prefix that failed.
    ///
    /// One binary search over the [`PrefixTable`] finds the line that
    /// enumerates the address. An address no line enumerates is named
    /// against its longest matching prefix, not a shorter, wrong one.
    pub fn key_for(&self, addr: Ipv6Addr, port: u16) -> Result<u64, DedupError> {
        let Some((spec, index)) = self.table.find(addr) else {
            return Err(self.miss(addr));
        };
        let prefix = (self.specs[spec].prefix, self.specs[spec].prefix_len);
        let port_idx = self
            .ports
            .iter()
            .position(|&p| p == port)
            .ok_or(DedupError::UnknownPort { prefix, port })?;
        let key = self.key(spec, index, port_idx);
        u64::try_from(key).map_err(|_| DedupError::KeyOverflow { prefix, key })
    }

    /// The error for an address no line enumerates: a pattern mismatch
    /// against its longest matching prefix, or no prefix at all.
    #[cold]
    fn miss(&self, addr: Ipv6Addr) -> DedupError {
        let longest = self
            .specs
            .iter()
            .filter(|s| s.contains(addr))
            .max_by_key(|s| s.prefix_len);
        match longest {
            Some(s) => DedupError::PatternMismatch {
                prefix: (s.prefix, s.prefix_len),
                addr,
            },
            None => DedupError::NoMatchingPrefix(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec(line: &str) -> PrefixSpec {
        PrefixSpec::parse_line(line).unwrap()
    }

    fn small_space(seed: u64) -> V6TargetSpace {
        let specs = vec![
            spec("2001:db8:a::/48 pattern=low bits=6 density=0.5"),
            spec("2001:db8:b::/48 pattern=eui64 bits=4 density=1.0"),
            spec("2001:db8:c::/48 pattern=embedded-v4 bits=5 density=0.25"),
        ];
        V6TargetSpace::new(specs, &[80, 443], seed, ShardAlgorithm::Pizza).unwrap()
    }

    #[test]
    fn parse_full_line_and_defaults() {
        let s = spec("2001:db8:a::/48 pattern=eui64 bits=10 density=0.6");
        assert_eq!(s.prefix(), "2001:db8:a::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(s.prefix_len(), 48);
        assert_eq!(s.pattern(), HostPattern::Eui64);
        assert_eq!(s.bits(), 10);
        assert_eq!(s.density(), 0.6);
        assert_eq!(s.host_count(), 1024);

        let d = spec("2001:db8::/32");
        assert_eq!(d.pattern(), HostPattern::Low);
        assert_eq!(d.bits(), 8);
        assert_eq!(d.density(), 1.0);
    }

    #[test]
    fn parse_list_skips_comments_and_numbers_errors() {
        let list = "# announced prefixes\n\n2001:db8:a::/48 bits=4\n 2001:db8:b::/48 pattern=eui64 bits=3 # inline comment\n";
        let specs = parse_prefix_list(list).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].pattern(), HostPattern::Eui64);

        let err = parse_prefix_list("2001:db8::/32\nnot-a-prefix\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_rejects_bad_lines() {
        for bad in [
            "2001:db8::",                             // no /len
            "zzz::q/48",                              // bad address
            "2001:db8::/200",                         // bad length
            "2001:db8::1/48",                         // host bits set
            "2001:db8::/48 pattern=magic",            // unknown pattern
            "2001:db8::/48 pattern=eui64 bits=30",    // > pattern cap (24)
            "2001:db8::/48 pattern=embedded-v4 bits=33", // > cap (32)
            "2001:db8::/120 bits=16",                 // > host space
            "2001:db8::/80 pattern=eui64 bits=4",     // IID needs /≤64
            "2001:db8::/100 pattern=embedded-v4 bits=4", // v4 needs /≤96
            "2001:db8::/48 density=0",                // density out of range
            "2001:db8::/48 density=1.5",
            "2001:db8::/48 color=red",                // unknown key
            "2001:db8::/48 bits",                     // not key=value
        ] {
            assert!(PrefixSpec::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn patterns_roundtrip_and_reject_off_pattern() {
        for line in [
            "2001:db8:a::/48 pattern=low bits=10",
            "2001:db8:b::/48 pattern=eui64 bits=10",
            "2001:db8:c::/48 pattern=embedded-v4 bits=10",
            "::/0 pattern=low bits=12",
            "2001:db8::/64 pattern=embedded-v4 bits=32",
        ] {
            let s = spec(line);
            for index in [0u128, 1, 2, 500, s.host_count() - 1] {
                let addr = s.addr_at(index);
                assert!(s.contains(addr), "{line} index {index}");
                assert_eq!(s.index_of(addr), Some(index), "{line} index {index}");
            }
        }
    }

    #[test]
    fn eui64_addresses_have_the_fffe_filler() {
        let s = spec("2001:db8:b::/48 pattern=eui64 bits=8");
        let o = s.addr_at(0x2A).octets();
        assert_eq!(o[11], 0xFF);
        assert_eq!(o[12], 0xFE);
        assert_eq!(o[8] & 0x03, 0x02, "U/L set, multicast clear");
        assert_eq!(o[15], 0x2A);
    }

    #[test]
    fn index_of_rejects_stray_bits_and_wrong_oui() {
        let low = spec("2001:db8:a::/48 pattern=low bits=8");
        // Index beyond 2^bits.
        assert_eq!(low.index_of("2001:db8:a::1:0".parse().unwrap()), None);
        // Outside the prefix entirely.
        assert_eq!(low.index_of("2001:db8:ff::1".parse().unwrap()), None);

        let eui = spec("2001:db8:b::/48 pattern=eui64 bits=8");
        let good = eui.addr_at(3);
        let mut o = good.octets();
        o[8] ^= 0x10; // corrupt the derived OUI
        assert_eq!(eui.index_of(Ipv6Addr::from(o)), None);
        let mut o = good.octets();
        o[6] = 0x01; // stray bits between /48 and the IID
        assert_eq!(eui.index_of(Ipv6Addr::from(o)), None);

        let emb = spec("2001:db8:c::/48 pattern=embedded-v4 bits=8");
        let good = emb.addr_at(3);
        let mut o = good.octets();
        o[12] ^= 0x80; // corrupt the v4 base above the index field
        assert_eq!(emb.index_of(Ipv6Addr::from(o)), None);
    }

    #[test]
    fn whole_walk_is_an_exact_permutation() {
        let space = small_space(42);
        let expected: u128 = space.target_count();
        assert_eq!(expected, (64 + 16 + 32) * 2);
        let mut seen = HashSet::new();
        for t in space.iter_shard(0, 1, 0, 1) {
            assert!(seen.insert(t), "duplicate target {t:?}");
            let s = space
                .specs()
                .iter()
                .find(|s| s.contains(t.ip))
                .expect("target inside a configured prefix");
            assert!(s.index_of(t.ip).is_some());
            assert!(space.ports().contains(&t.port));
        }
        assert_eq!(seen.len() as u128, expected);
    }

    #[test]
    fn sharding_partitions_exactly() {
        let space = small_space(7);
        for (n, t) in [(1u32, 1u32), (2, 1), (3, 2), (5, 3), (64, 1)] {
            let mut union = HashSet::new();
            for shard in 0..n {
                for sub in 0..t {
                    for tgt in space.iter_shard(shard, n, sub, t) {
                        assert!(union.insert(tgt), "{tgt:?} in two shards (n={n} t={t})");
                    }
                }
            }
            assert_eq!(union.len() as u128, space.target_count(), "n={n} t={t}");
        }
    }

    #[test]
    fn interleave_mixes_prefixes_early() {
        // The first handful of targets must span multiple prefixes — the
        // stride scheduler must not drain one walk before starting the
        // next (Mazel & Strullu: per-prefix bursts are predictable).
        let space = small_space(99);
        let first: Vec<Target6> = space.iter_shard(0, 1, 0, 1).take(12).collect();
        let prefixes: HashSet<usize> = first
            .iter()
            .map(|t| {
                space
                    .specs()
                    .iter()
                    .position(|s| s.contains(t.ip))
                    .unwrap()
            })
            .collect();
        assert!(prefixes.len() >= 2, "first 12 targets all in one prefix");
    }

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        let a: Vec<Target6> = small_space(5).iter_shard(0, 1, 0, 1).collect();
        let b: Vec<Target6> = small_space(5).iter_shard(0, 1, 0, 1).collect();
        let c: Vec<Target6> = small_space(6).iter_shard(0, 1, 0, 1).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same target *set* regardless of seed.
        let sa: HashSet<Target6> = a.into_iter().collect();
        let sc: HashSet<Target6> = c.into_iter().collect();
        assert_eq!(sa, sc);
    }

    #[test]
    fn fast_forward_matches_stepping() {
        let space = small_space(11);
        for skip in [0u64, 1, 7, 40, 150, 10_000] {
            let mut stepped = space.iter_shard(0, 2, 1, 2);
            let total = stepped.elements_remaining();
            let mut walked = 0;
            while walked < skip.min(total) {
                // Step raw draws, not targets: consume one element per
                // loop via the public iterator path.
                let before = stepped.elements_consumed();
                if stepped.next().is_none() {
                    break;
                }
                walked += stepped.elements_consumed() - before;
            }
            let mut jumped = space.iter_shard(0, 2, 1, 2);
            jumped.fast_forward_elements(stepped.elements_consumed());
            assert_eq!(jumped.elements_consumed(), stepped.elements_consumed());
            assert_eq!(jumped.elements_remaining(), stepped.elements_remaining());
            let a: Vec<Target6> = stepped.collect();
            let b: Vec<Target6> = jumped.collect();
            assert_eq!(a, b, "skip {skip}");
        }
    }

    #[test]
    fn consumed_counts_all_raw_draws() {
        let space = small_space(3);
        let mut it = space.iter_shard(0, 1, 0, 1);
        let raw_total = it.elements_remaining();
        let mut targets = 0u64;
        for _ in it.by_ref() {
            targets += 1;
        }
        assert_eq!(it.elements_consumed(), raw_total);
        assert_eq!(u128::from(targets), space.target_count());
        // Rejection sampling means raw draws exceed decoded targets.
        assert!(raw_total > targets);
    }

    #[test]
    fn oversized_prefix_splits_into_fitting_walks() {
        // bits=50 with one port: pool 2^50 > 2^48 ⇒ 4 subwalks of 2^48.
        let specs = vec![spec("2001:db8::/32 pattern=low bits=50")];
        let space = V6TargetSpace::new(specs, &[443], 1, ShardAlgorithm::Pizza).unwrap();
        assert_eq!(space.walk_count(), 4);
        assert_eq!(space.target_count(), 1u128 << 50);
        // Two ports (port_bits=1): span drops to 47 ⇒ 8 subwalks.
        let specs = vec![spec("2001:db8::/32 pattern=low bits=50")];
        let space = V6TargetSpace::new(specs, &[80, 443], 1, ShardAlgorithm::Pizza).unwrap();
        assert_eq!(space.walk_count(), 8);
    }

    #[test]
    fn far_oversized_prefix_is_rejected_by_name() {
        // bits=64 with 4 ports: 2^66 pool needs 2^18 subwalks > the cap.
        let specs = vec![spec("2001:db8::/32 pattern=low bits=64")];
        let err = V6TargetSpace::new(specs, &[1, 2, 3, 4], 1, ShardAlgorithm::Pizza).unwrap_err();
        match &err {
            V6Error::PrefixTooLarge { prefix, .. } => {
                assert_eq!(prefix, "2001:db8::/32");
            }
            other => panic!("expected PrefixTooLarge, got {other:?}"),
        }
        assert!(err.to_string().contains("2001:db8::/32"), "{err}");
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matches!(
            V6TargetSpace::new(vec![], &[80], 1, ShardAlgorithm::Pizza),
            Err(V6Error::EmptyPrefixList)
        ));
        let specs = vec![spec("2001:db8::/48 bits=4")];
        assert!(matches!(
            V6TargetSpace::new(specs, &[], 1, ShardAlgorithm::Pizza),
            Err(V6Error::NoPorts)
        ));
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let base = small_space(42).fingerprint();
        assert_eq!(base, small_space(42).fingerprint());
        assert_ne!(base, small_space(43).fingerprint());
        let specs = vec![
            spec("2001:db8:a::/48 pattern=low bits=6 density=0.5"),
            spec("2001:db8:b::/48 pattern=eui64 bits=4"),
            spec("2001:db8:c::/48 pattern=embedded-v4 bits=5 density=0.25"),
        ];
        // Changed density on spec 1 (1.0 vs small_space's 1.0 — change it).
        let mut altered = specs.clone();
        altered[1] = spec("2001:db8:b::/48 pattern=eui64 bits=4 density=0.9");
        let a = V6TargetSpace::new(specs, &[80, 443], 42, ShardAlgorithm::Pizza).unwrap();
        let b = V6TargetSpace::new(altered, &[80, 443], 42, ShardAlgorithm::Pizza).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = V6TargetSpace::new(
            a.specs().to_vec(),
            &[80, 444],
            42,
            ShardAlgorithm::Pizza,
        )
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn dedup_keys_are_dense_unique_and_invertible() {
        let space = small_space(8);
        let dedup = space.dedup_space();
        let key_space = dedup.key_space();
        assert_eq!(key_space, space.target_count());
        let mut seen = HashSet::new();
        for t in space.iter_shard(0, 1, 0, 1) {
            let key = dedup.key_for(t.ip, t.port).unwrap();
            assert!(u128::from(key) < key_space);
            assert!(seen.insert(key), "key {key} duplicated");
        }
        assert_eq!(seen.len() as u128, key_space);
    }

    #[test]
    fn dedup_errors_name_the_prefix() {
        let space = small_space(8);
        let dedup = space.dedup_space();
        let outside: Ipv6Addr = "2001:db9::1".parse().unwrap();
        assert_eq!(
            dedup.key_for(outside, 80),
            Err(DedupError::NoMatchingPrefix(outside))
        );
        // Inside the eui64 prefix but not EUI-64-shaped.
        let off_pattern: Ipv6Addr = "2001:db8:b::1234".parse().unwrap();
        match dedup.key_for(off_pattern, 80) {
            Err(DedupError::PatternMismatch { prefix, addr }) => {
                assert_eq!(prefix, ("2001:db8:b::".parse().unwrap(), 48));
                assert_eq!(addr, off_pattern);
            }
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        let good = space.specs()[0].addr_at(1);
        match dedup.key_for(good, 8080) {
            Err(DedupError::UnknownPort { prefix, port }) => {
                assert_eq!(prefix, ("2001:db8:a::".parse().unwrap(), 48));
                assert_eq!(port, 8080);
            }
            other => panic!("expected UnknownPort, got {other:?}"),
        }
    }

    #[test]
    fn dedup_longest_prefix_wins() {
        // A /48 nested inside a /32: addresses in the /48 must key against
        // the /48 even though the /32 also contains them.
        let outer = spec("2001:db8::/32 pattern=low bits=8");
        let inner = spec("2001:db8:0:1::/64 pattern=low bits=4");
        let dedup = V6DedupSpace::new(&[outer.clone(), inner.clone()], &[80]);
        let addr = inner.addr_at(3);
        let key = dedup.key_for(addr, 80).unwrap();
        // Inner's base comes after outer's 256 × 1 keys.
        assert_eq!(key, 256 + 3);
        // An address under the /32 but off the /64 keys against the outer.
        let key = dedup.key_for(outer.addr_at(7), 80).unwrap();
        assert_eq!(key, 7);
    }

    #[test]
    fn dedup_key_overflow_is_typed() {
        // Two 2^63-host prefixes × 2 ports: the second prefix's keys pass
        // 2^64 and must error by name, not wrap.
        let a = spec("2001:db8:a::/48 pattern=low bits=63");
        let b = spec("2001:db8:b::/48 pattern=low bits=63");
        let dedup = V6DedupSpace::new(&[a, b.clone()], &[80, 443]);
        assert!(dedup.key_space() > u128::from(u64::MAX));
        let high = b.addr_at(b.host_count() - 1);
        match dedup.key_for(high, 443) {
            Err(DedupError::KeyOverflow { prefix, key }) => {
                assert_eq!(prefix, ("2001:db8:b::".parse().unwrap(), 48));
                assert!(key > u128::from(u64::MAX));
            }
            other => panic!("expected KeyOverflow, got {other:?}"),
        }
    }

    #[test]
    fn nested_lines_key_every_walked_target() {
        // The /64 sits inside the /32, but their on-pattern ranges are
        // disjoint: the /32 walks 2001:db8::0–ff, the /64 sixteen EUI-64
        // hosts. Each target keys against the line that walked it, even
        // where its longest matching prefix is the other line.
        let specs = parse_prefix_list("2001:db8::/32 bits=8\n2001:db8::/64 pattern=eui64 bits=4\n")
            .unwrap();
        let space = V6TargetSpace::new(specs, &[443], 3, ShardAlgorithm::Pizza).unwrap();
        let dedup = space.dedup_space();
        let mut walked = 0;
        for t in space.iter_shard(0, 1, 0, 1) {
            assert_eq!(dedup.key_for(t.ip, t.port).map(Some), Ok(t.key), "{}", t.ip);
            walked += 1;
        }
        assert_eq!(walked, 256 + 16);
        assert_eq!(dedup.key_for("2001:db8::5".parse().unwrap(), 443), Ok(5));
    }

    #[test]
    fn overlapping_lines_are_rejected_naming_both() {
        let specs = parse_prefix_list("2001:db8::/64 bits=16\n2001:db8::/32 bits=20\n").unwrap();
        let err = V6TargetSpace::new(specs, &[80], 1, ShardAlgorithm::Pizza).unwrap_err();
        match &err {
            V6Error::Overlap { first, second, at } => {
                assert_eq!(first, "2001:db8::/64 pattern=low bits=16");
                assert_eq!(second, "2001:db8::/32 pattern=low bits=20");
                assert_eq!(*at, "2001:db8::".parse::<Ipv6Addr>().unwrap());
            }
            other => panic!("expected Overlap, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("/64 pattern=low") && msg.contains("/32 pattern=low"),
            "{msg}"
        );
        // One prefix under two patterns enumerates disjoint ranges.
        let specs = parse_prefix_list("2001:db8::/48 bits=8\n2001:db8::/48 pattern=eui64 bits=8\n");
        V6TargetSpace::new(specs.unwrap(), &[80], 1, ShardAlgorithm::Pizza).unwrap();
    }

    /// Resuming at every raw-draw position of `fresh()` yields what the
    /// uninterrupted walk yields from there, with the same positions.
    fn assert_resumes_everywhere<I, T>(
        fresh: impl Fn() -> I,
        consumed: impl Fn(&I) -> u64,
        jump: impl Fn(&mut I, u64) -> u64,
    ) where
        I: Iterator<Item = T>,
        T: PartialEq + std::fmt::Debug,
    {
        let mut full = fresh();
        let mut steps = Vec::new();
        while let Some(t) = full.next() {
            steps.push((consumed(&full), t));
        }
        let total = consumed(&full);
        for cut in 0..=total {
            let mut resumed = fresh();
            assert_eq!(jump(&mut resumed, cut), cut);
            let from = steps.partition_point(|s| s.0 <= cut);
            for want in steps[from..].iter().take(8) {
                let got = resumed.next();
                assert_eq!(
                    (consumed(&resumed), got.as_ref()),
                    (want.0, Some(&want.1)),
                    "cut {cut}"
                );
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite: the 128-bit analogue of shard.rs's partition
            // property — any shard/subshard split of a multi-prefix v6
            // space is disjoint and exhaustive.
            #[test]
            fn v6_shards_partition_disjoint_and_exhaustive(
                seed in any::<u64>(),
                n in 1u32..5,
                t in 1u32..4,
            ) {
                let space = small_space(seed);
                let mut union = HashSet::new();
                for shard in 0..n {
                    for sub in 0..t {
                        for tgt in space.iter_shard(shard, n, sub, t) {
                            prop_assert!(union.insert(tgt), "{tgt:?} in two shards");
                        }
                    }
                }
                prop_assert_eq!(union.len() as u128, space.target_count());
            }

            // Pattern bijections hold for arbitrary prefixes and indices.
            #[test]
            fn pattern_bijection_roundtrips(
                prefix_hi in any::<u64>(),
                prefix_lo in any::<u64>(),
                plen in 0u8..=64,
                pattern_sel in 0u8..3,
                bits in 0u8..=16,
                index in any::<u64>(),
            ) {
                let raw_prefix = (u128::from(prefix_hi) << 64) | u128::from(prefix_lo);
                let pattern = match pattern_sel {
                    0 => HostPattern::Low,
                    1 => HostPattern::Eui64,
                    _ => HostPattern::EmbeddedV4,
                };
                let mask = if plen == 0 { 0 } else { u128::MAX << (128 - plen) };
                let prefix = Ipv6Addr::from(raw_prefix & mask);
                let spec = PrefixSpec::new(prefix, plen, pattern, bits, 1.0).unwrap();
                let index = u128::from(index) % spec.host_count();
                let addr = spec.addr_at(index);
                prop_assert_eq!(spec.index_of(addr), Some(index));
                prop_assert!(spec.contains(addr));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            // Kill-anywhere: resuming every subshard of a sharded v6
            // space, and a re-keyed walk, from any journaled raw-draw
            // position yields exactly the suffix.
            #[test]
            fn v6_fast_forward_from_any_position_matches(
                seed in any::<u64>(),
                (n, t) in (1u32..4, 1u32..3),
                blocks in 3u32..20,
                interleaved in any::<bool>(),
            ) {
                let space = small_space(seed);
                for shard in 0..n {
                    for sub in 0..t {
                        assert_resumes_everywhere(
                            || space.iter_shard(shard, n, sub, t),
                            V6TargetIter::elements_consumed,
                            V6TargetIter::fast_forward_elements,
                        );
                    }
                }
                // Blocks of at most 200 candidates: each walks the 257 group.
                let walk = crate::RekeyedWalk::new(600, blocks, seed).unwrap();
                let alg = if interleaved { ShardAlgorithm::Interleaved } else { ShardAlgorithm::Pizza };
                let spec = ShardSpec { shard: 0, num_shards: n, subshard: t - 1, num_subshards: t };
                assert_resumes_everywhere(
                    || walk.iter_spec(spec, alg).unwrap(),
                    crate::RekeyIter::consumed,
                    crate::RekeyIter::fast_forward,
                );
            }
        }
    }
}
