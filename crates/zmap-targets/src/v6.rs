//! IPv6 target generation: per-prefix cyclic walks over a prefix tree.
//!
//! IPv6's 2^128 address space cannot be permuted with one cyclic group the
//! way IPv4 × ports can (§4.1 tops out at the 2^48 + 21 modulus). Following
//! XMap and the hitlist literature, a v6 scan instead enumerates a *prefix
//! list*: each announced prefix carries a procedural host pattern (low-byte
//! hosts, EUI-64 interface IDs, or embedded-IPv4 addresses) and a bounded
//! number of host bits, so each prefix spans a small, countable target
//! pool. Every prefix gets its own smallest-fitting ladder group walked
//! from its own derived seed, and the per-prefix walks are merged by a
//! seeded stride-scheduling interleave so probe order stays unpredictable
//! across prefixes (Mazel & Strullu's objection to per-prefix bursts).
//!
//! The pieces:
//!
//! * [`PrefixSpec`] — one prefix-list line: prefix, host pattern, host
//!   bits, and responsiveness density (the density is consumed by the
//!   netsim population; the walk only needs the bijection).
//! * [`HostPattern`] — invertible index ↔ address mappings.
//! * [`V6TargetSpace`] — the walk plan: per-prefix groups, automatic
//!   splitting of prefixes whose pool exceeds the largest ladder group
//!   ([`CyclicGroup::max_order`]), and [`ShardSpec`]-compatible iteration
//!   whose per-subshard position is a single `u64` — the same checkpoint
//!   shape the IPv4 journal records.
//! * [`V6DedupSpace`] — maps a response `(addr, port)` back into a dense
//!   per-prefix index space for dedup bitmaps, with typed errors so a
//!   malformed address degrades one response, never the run.

use std::net::Ipv6Addr;

use crate::cycle::Cycle;
use crate::group::{CyclicGroup, GroupError};
use crate::shard::{ShardAlgorithm, ShardError, ShardIter, ShardSpec};

/// One (address, port) scan target drawn from the v6 walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target6 {
    /// Destination address.
    pub ip: Ipv6Addr,
    /// Destination port (probe modules without ports scan port 0).
    pub port: u16,
}

/// SplitMix64 finalizer: the seed-derivation mixer for per-walk seeds and
/// the space fingerprint. Self-contained so the walk plan depends only on
/// the prefix list, the ports, and the scan seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Reads the 8 little-endian bytes at offset `k` of a 16-byte address
/// image (callers pass 0 or 8, so the slice is always in bounds).
fn le64(o: &[u8; 16], k: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&o[k..k + 8]);
    u64::from_le_bytes(b)
}

/// Derives stream `ordinal` of `seed` (walk sub-seeds, interleave offsets).
fn derive_seed(seed: u64, ordinal: u64) -> u64 {
    splitmix64(seed ^ splitmix64(ordinal))
}

/// How the host bits of a prefix map to concrete interface identifiers.
///
/// All three patterns are bijections from an index in `[0, 2^bits)` to an
/// address inside the prefix, and are invertible without state — the RX
/// path recovers the index from a bare response address.
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
    /// The keyword used in prefix-list files.
    pub fn name(self) -> &'static str {
        match self {
            HostPattern::Low => "low",
            HostPattern::Eui64 => "eui64",
            HostPattern::EmbeddedV4 => "embedded-v4",
        }
    }

    /// The widest `bits=` value the pattern's index field can carry.
    pub fn max_bits(self) -> u8 {
        match self {
            HostPattern::Low => 64,
            HostPattern::Eui64 => 24,
            HostPattern::EmbeddedV4 => 32,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "low" => Some(HostPattern::Low),
            "eui64" => Some(HostPattern::Eui64),
            "embedded-v4" => Some(HostPattern::EmbeddedV4),
            _ => None,
        }
    }

    fn tag(self) -> u64 {
        match self {
            HostPattern::Low => 1,
            HostPattern::Eui64 => 2,
            HostPattern::EmbeddedV4 => 3,
        }
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
        let spec = PrefixSpec {
            prefix,
            prefix_len,
            pattern,
            bits,
            density,
        };
        spec.validate(0)?;
        Ok(spec)
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
        spec.validate(lineno)?;
        Ok(spec)
    }

    fn validate(&self, lineno: usize) -> Result<(), V6ParseError> {
        let err = |msg: String| V6ParseError { line: lineno, msg };
        if u128::from(self.prefix) & self.host_mask() != 0 {
            return Err(err(format!(
                "{} has bits set below /{}",
                self.prefix, self.prefix_len
            )));
        }
        let pattern_max = self.pattern.max_bits();
        let prefix_max = 128 - self.prefix_len;
        if self.bits > pattern_max.min(prefix_max) {
            return Err(err(format!(
                "bits={} exceeds pattern {} limit ({}) or the /{} host space ({})",
                self.bits,
                self.pattern.name(),
                pattern_max,
                self.prefix_len,
                prefix_max
            )));
        }
        let field_floor = match self.pattern {
            // The IID (64 bits) resp. embedded v4 (32 bits) must lie
            // entirely inside the host part of the prefix.
            HostPattern::Low => 0,
            HostPattern::Eui64 => 64,
            HostPattern::EmbeddedV4 => 32,
        };
        if prefix_max < field_floor {
            return Err(err(format!(
                "pattern {} needs at least {} host bits, /{} leaves {}",
                self.pattern.name(),
                field_floor,
                self.prefix_len,
                prefix_max
            )));
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err(err(format!("density={} outside (0, 1]", self.density)));
        }
        Ok(())
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

    fn host_mask(&self) -> u128 {
        if self.prefix_len == 0 {
            u128::MAX
        } else {
            (u128::MAX) >> self.prefix_len
        }
    }

    /// Whether `addr` falls inside the prefix (mask match only — the
    /// pattern may still fail to invert).
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & !self.host_mask() == u128::from(self.prefix)
    }

    /// A stable 64-bit digest of (prefix, len) — the entropy source for
    /// the EUI-64 OUI and the embedded IPv4 base, so both scanner and
    /// netsim derive identical pattern constants from the same line.
    fn prefix_hash(&self) -> u64 {
        let o = self.prefix.octets();
        let mut h = le64(&o, 0);
        h = splitmix64(h ^ le64(&o, 8));
        splitmix64(h ^ u64::from(self.prefix_len))
    }

    /// The fixed (serial-less) part of the modified EUI-64 interface ID:
    /// derived OUI (universal/local bit set, multicast bit clear), then
    /// `ff:fe`, then a zero 24-bit serial slot.
    fn eui64_base(&self) -> u64 {
        let h = self.prefix_hash();
        let b0 = (((h >> 40) as u8) & 0xFC) | 0x02;
        ((b0 as u64) << 56)
            | (((h >> 32) as u8 as u64) << 48)
            | (((h >> 24) as u8 as u64) << 40)
            | (0xFFu64 << 32)
            | (0xFEu64 << 24)
    }

    /// The derived IPv4 base for the embedded-v4 pattern.
    fn v4base(&self) -> u32 {
        self.prefix_hash() as u32
    }

    /// The address at host `index`.
    ///
    /// # Panics
    /// Debug-asserts `index < host_count()`; the walk never passes an
    /// out-of-range index.
    pub fn addr_at(&self, index: u128) -> Ipv6Addr {
        debug_assert!(index < self.host_count());
        let pfx = u128::from(self.prefix);
        let host = match self.pattern {
            HostPattern::Low => index,
            HostPattern::Eui64 => u128::from(self.eui64_base()) | index,
            HostPattern::EmbeddedV4 => {
                let mask = if self.bits == 32 {
                    u32::MAX
                } else {
                    (1u32 << self.bits) - 1
                };
                u128::from(self.v4base() & !mask) | index
            }
        };
        Ipv6Addr::from(pfx | host)
    }

    /// Inverts [`addr_at`](Self::addr_at): the index whose address is
    /// exactly `addr`, or `None` when `addr` is outside the prefix or off
    /// the pattern (wrong OUI, stray middle bits, index ≥ 2^bits).
    pub fn index_of(&self, addr: Ipv6Addr) -> Option<u128> {
        let a = u128::from(addr);
        if a & !self.host_mask() != u128::from(self.prefix) {
            return None;
        }
        let host = a & self.host_mask();
        match self.pattern {
            HostPattern::Low => (host < self.host_count()).then_some(host),
            HostPattern::Eui64 => {
                if host >> 64 != 0 {
                    return None;
                }
                let iid = host as u64;
                if iid & !0x00FF_FFFF != self.eui64_base() {
                    return None;
                }
                let serial = u128::from(iid & 0x00FF_FFFF);
                (serial < self.host_count()).then_some(serial)
            }
            HostPattern::EmbeddedV4 => {
                if host >> 32 != 0 {
                    return None;
                }
                let low = host as u32;
                let mask = if self.bits == 32 {
                    u32::MAX
                } else {
                    (1u32 << self.bits) - 1
                };
                if low & !mask != self.v4base() & !mask {
                    return None;
                }
                Some(u128::from(low & mask))
            }
        }
    }

    /// Folds this spec into a fingerprint accumulator.
    fn fold_fingerprint(&self, mut h: u64) -> u64 {
        let o = self.prefix.octets();
        h = splitmix64(h ^ le64(&o, 0));
        h = splitmix64(h ^ le64(&o, 8));
        h = splitmix64(h ^ u64::from(self.prefix_len));
        h = splitmix64(h ^ self.pattern.tag());
        h = splitmix64(h ^ u64::from(self.bits));
        splitmix64(h ^ self.density.to_bits())
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
    /// Group selection failed for a prefix's subwalk pool. Unreachable
    /// after splitting (pools are capped at [`CyclicGroup::max_order`]),
    /// kept so a future ladder change degrades with a named prefix
    /// instead of a panic.
    Group {
        /// The offending prefix.
        prefix: String,
        /// The underlying ladder error.
        source: GroupError,
    },
}

impl std::fmt::Display for V6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V6Error::EmptyPrefixList => write!(f, "prefix list is empty"),
            V6Error::NoPorts => write!(f, "at least one port is required"),
            V6Error::PrefixTooLarge {
                prefix,
                pool,
                max_walks,
            } => write!(
                f,
                "prefix {prefix}: pool of {pool} targets exceeds {max_walks} subwalks \
                 of the largest group; lower bits= or the port count"
            ),
            V6Error::Group { prefix, source } => {
                write!(f, "prefix {prefix}: group selection failed: {source}")
            }
        }
    }
}

impl std::error::Error for V6Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            V6Error::Group { source, .. } => Some(source),
            _ => None,
        }
    }
}

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
    specs: Vec<PrefixSpec>,
    ports: Vec<u16>,
    port_bits: u32,
    seed: u64,
    algorithm: ShardAlgorithm,
    walks: Vec<Walk>,
    /// walks-per-spec, parallel to `specs` (diagnostics + tests).
    walks_per_spec: Vec<u64>,
}

impl V6TargetSpace {
    /// Builds the walk plan.
    ///
    /// Each prefix's pool is `2^bits × 2^port_bits` raw slots. A pool
    /// that fits the largest ladder group becomes one walk; a larger one
    /// is split into `2^k` contiguous host-index slices that each fit —
    /// the recovery path for [`GroupError::TooManyTargets`]. Every walk
    /// gets its own cycle seeded from `(seed, walk ordinal)`.
    ///
    /// # Errors
    /// [`V6Error::PrefixTooLarge`] (naming the prefix) when a split would
    /// need more than [`MAX_WALKS_PER_PREFIX`] subwalks; the empty-input
    /// errors otherwise.
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
        let port_bits = (ports.len() as u64).next_power_of_two().trailing_zeros();
        // Largest power-of-two pool a ladder group holds: 2^48 ≤ 2^48+20.
        let max_pool_bits = 48u32;
        let mut walks = Vec::new();
        let mut walks_per_spec = Vec::with_capacity(specs.len());
        for (spec_idx, spec) in specs.iter().enumerate() {
            let bits = u32::from(spec.bits());
            let span_bits = bits.min(max_pool_bits.saturating_sub(port_bits));
            let split = bits - span_bits;
            if split >= 63 || (1u64 << split) > MAX_WALKS_PER_PREFIX {
                return Err(V6Error::PrefixTooLarge {
                    prefix: spec.canonical_prefix(),
                    pool: spec.host_count() << port_bits,
                    max_walks: MAX_WALKS_PER_PREFIX,
                });
            }
            let subwalks = 1u64 << split;
            let host_span = 1u128 << span_bits;
            let pool = 1u64 << (span_bits + port_bits);
            let group = CyclicGroup::for_target_count(pool).map_err(|source| V6Error::Group {
                prefix: spec.canonical_prefix(),
                source,
            })?;
            for w in 0..subwalks {
                let ordinal = walks.len() as u64;
                walks.push(Walk {
                    spec_idx,
                    host_base: u128::from(w) * host_span,
                    pool,
                    cycle: Cycle::new(group.clone(), derive_seed(seed, ordinal)),
                });
            }
            walks_per_spec.push(subwalks);
        }
        Ok(V6TargetSpace {
            specs,
            ports: ports.to_vec(),
            port_bits,
            seed,
            algorithm,
            walks,
            walks_per_spec,
        })
    }

    /// The prefix specs, in file order.
    pub fn specs(&self) -> &[PrefixSpec] {
        &self.specs
    }

    /// The scanned ports.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// The scan seed the walk plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sharding algorithm applied inside every walk.
    pub fn algorithm(&self) -> ShardAlgorithm {
        self.algorithm
    }

    /// Total number of cyclic walks (≥ number of prefixes; larger when
    /// prefixes were split).
    pub fn walk_count(&self) -> usize {
        self.walks.len()
    }

    /// How many subwalks prefix `spec_idx` was split into (1 = no split).
    pub fn walks_for_prefix(&self, spec_idx: usize) -> u64 {
        self.walks_per_spec[spec_idx]
    }

    /// Exact number of (address, port) targets across all prefixes.
    pub fn target_count(&self) -> u128 {
        self.specs
            .iter()
            .map(|s| s.host_count() * self.ports.len() as u128)
            .sum()
    }

    /// A stable digest of (specs, ports, seed). The scan journal stores
    /// this where the IPv4 path stores the group prime, so `--resume`
    /// detects a changed prefix list / port set / seed the same way the
    /// v4 path detects a changed target space.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.seed ^ 0x7636_7761_6C6B_2121);
        for &p in &self.ports {
            h = splitmix64(h ^ u64::from(p));
        }
        for spec in &self.specs {
            h = spec.fold_fingerprint(h);
        }
        h
    }

    /// The dedup index space over this plan's prefixes and ports.
    pub fn dedup_space(&self) -> V6DedupSpace {
        V6DedupSpace::new(&self.specs, &self.ports)
    }

    /// Decodes one raw group element of walk `walk_idx` into a target, or
    /// `None` for rejection-sampled slots (element beyond the pool, or a
    /// port slot past the real port list).
    fn decode_walk(&self, walk_idx: usize, element: u64) -> Option<Target6> {
        let walk = &self.walks[walk_idx];
        debug_assert!(element >= 1 && element < walk.cycle.group().prime());
        let candidate = element - 1;
        if candidate >= walk.pool {
            return None;
        }
        let port_idx = (candidate & ((1u64 << self.port_bits) - 1)) as usize;
        if port_idx >= self.ports.len() {
            return None;
        }
        let host_off = candidate >> self.port_bits;
        let spec = &self.specs[walk.spec_idx];
        Some(Target6 {
            ip: spec.addr_at(walk.host_base + u128::from(host_off)),
            port: self.ports[port_idx],
        })
    }

    /// Iterator over the targets of one subshard, interleaved across all
    /// walks.
    ///
    /// # Errors
    /// Returns `Err` when the spec is invalid for any walk.
    pub fn iter_spec(&self, spec: ShardSpec) -> Result<V6TargetIter<'_>, ShardError> {
        spec.validate()?;
        let mut lanes = Vec::new();
        for (walk_idx, walk) in self.walks.iter().enumerate() {
            let inner = ShardIter::new(&walk.cycle, spec, self.algorithm)?;
            let weight = inner.remaining();
            if weight == 0 {
                // This subshard's slice of the walk is empty; the walk's
                // elements belong to other subshards.
                continue;
            }
            // Stride scheduling: each draw advances the lane's pass value
            // by SCALE/weight, and the next draw always comes from the
            // lane with the smallest pass — walks contribute elements in
            // proportion to their slice size, so no prefix is probed in a
            // burst. The seeded initial offset de-phases equal-weight
            // lanes beyond the deterministic ordinal tie-break.
            let stride = STRIDE_SCALE / u128::from(weight);
            let pass = u128::from(derive_seed(
                self.seed ^ 0x696E_746C_7636_5F5F,
                walk_idx as u64,
            )) % stride.max(1);
            lanes.push(Lane {
                walk: walk_idx,
                inner,
                pass,
                stride,
            });
        }
        Ok(V6TargetIter {
            space: self,
            lanes,
            consumed: 0,
        })
    }

    /// Convenience wrapper building the [`ShardSpec`] from bare indices.
    ///
    /// # Panics
    /// Panics when the indices are out of range (programming error).
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

/// Fixed-point scale for stride scheduling (per-lane pass increments are
/// `SCALE / weight`; weights are ≤ 2^48, so increments stay ≥ 2^16 and
/// accumulated passes stay far below u128 overflow).
const STRIDE_SCALE: u128 = 1 << 64;

#[derive(Debug, Clone)]
struct Lane<'a> {
    walk: usize,
    inner: ShardIter<'a>,
    pass: u128,
    stride: u128,
}

/// Iterator over one subshard's v6 targets: a seeded stride-scheduling
/// interleave of every walk's [`ShardIter`].
///
/// The checkpointable position is [`elements_consumed`]
/// (`V6TargetIter::elements_consumed`) — total raw draws across all
/// walks, a single `u64` exactly like the IPv4 walk position, so the
/// journal format and `ShardSpec` plumbing carry over unchanged. The
/// scheduler is deterministic in (specs, ports, seed, spec), so
/// [`fast_forward_elements`](V6TargetIter::fast_forward_elements) replays
/// the draw order cheaply and then jumps each walk in O(log k).
#[derive(Debug, Clone)]
pub struct V6TargetIter<'a> {
    space: &'a V6TargetSpace,
    lanes: Vec<Lane<'a>>,
    consumed: u64,
}

impl V6TargetIter<'_> {
    /// Raw draws so far (yields + rejection skips + fast-forwarded jumps).
    pub fn elements_consumed(&self) -> u64 {
        self.consumed
    }

    /// Raw draws left across all walks.
    pub fn elements_remaining(&self) -> u64 {
        self.lanes.iter().map(|l| l.inner.remaining()).sum()
    }

    /// Index of the lane the scheduler draws from next: smallest pass,
    /// ties broken by walk ordinal. `None` when every lane is dry.
    fn next_lane(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.inner.remaining() == 0 {
                continue;
            }
            match best {
                Some(b) if self.lanes[b].pass <= lane.pass => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// Skips the next `min(k, remaining)` raw draws and returns how many
    /// were skipped. The scheduler replay is O(k · lanes) integer work;
    /// the group walks then jump via one modular exponentiation per walk.
    pub fn fast_forward_elements(&mut self, k: u64) -> u64 {
        let mut skips = vec![0u64; self.lanes.len()];
        let mut rem: Vec<u64> = self.lanes.iter().map(|l| l.inner.remaining()).collect();
        let mut done = 0u64;
        while done < k {
            let mut best: Option<usize> = None;
            for (i, r) in rem.iter().enumerate() {
                if *r == 0 {
                    continue;
                }
                match best {
                    Some(b) if self.lanes[b].pass <= self.lanes[i].pass => {}
                    _ => best = Some(i),
                }
            }
            let Some(i) = best else { break };
            skips[i] += 1;
            rem[i] -= 1;
            self.lanes[i].pass += self.lanes[i].stride;
            done += 1;
        }
        for (i, &s) in skips.iter().enumerate() {
            let jumped = self.lanes[i].inner.fast_forward(s);
            debug_assert_eq!(jumped, s);
        }
        self.consumed += done;
        done
    }
}

impl Iterator for V6TargetIter<'_> {
    type Item = Target6;

    fn next(&mut self) -> Option<Target6> {
        loop {
            let i = self.next_lane()?;
            let lane = &mut self.lanes[i];
            let element = match lane.inner.next() {
                Some(e) => e,
                None => {
                    // next_lane only returns lanes with remaining > 0, so
                    // this is unreachable; end the walk rather than panic
                    // a live scan if the invariant is ever broken.
                    debug_assert!(false, "lane had remaining > 0");
                    return None;
                }
            };
            lane.pass += lane.stride;
            self.consumed += 1;
            let walk = lane.walk;
            if let Some(t) = self.space.decode_walk(walk, element) {
                return Some(t);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (
            0,
            Some(usize::try_from(self.elements_remaining()).unwrap_or(usize::MAX)),
        )
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
            DedupError::PatternMismatch { prefix: (net, len), addr } => {
                write!(f, "{addr} does not match the host pattern of {net}/{len}")
            }
            DedupError::UnknownPort { prefix: (net, len), port } => {
                write!(f, "port {port} (prefix {net}/{len}) is not in the scanned set")
            }
            DedupError::KeyOverflow { prefix: (net, len), key } => {
                write!(f, "dedup key {key} for prefix {net}/{len} exceeds 64 bits")
            }
        }
    }
}

impl std::error::Error for DedupError {}

#[derive(Debug, Clone)]
struct DedupEntry {
    spec: PrefixSpec,
    /// Cumulative target offset of this prefix (spec order), in compact
    /// `host_index × ports + port_idx` units.
    base: u128,
}

/// Maps response `(addr, port)` pairs to dense `u64` dedup keys.
///
/// Keys are per-prefix index spaces laid out consecutively in file order:
/// `base(prefix) + host_index × |ports| + port_idx`. Compact (no
/// power-of-two padding), so bitmap dedup state is proportional to the
/// real target count.
#[derive(Debug, Clone)]
pub struct V6DedupSpace {
    entries: Vec<DedupEntry>,
    ports: Vec<u16>,
}

impl V6DedupSpace {
    /// Builds the space. Offsets follow `specs` order.
    pub fn new(specs: &[PrefixSpec], ports: &[u16]) -> Self {
        let mut entries = Vec::with_capacity(specs.len());
        let mut base = 0u128;
        for spec in specs {
            entries.push(DedupEntry {
                spec: spec.clone(),
                base,
            });
            base += spec.host_count() * ports.len() as u128;
        }
        V6DedupSpace {
            entries,
            ports: ports.to_vec(),
        }
    }

    /// Total key-space size (keys are `[0, key_space)`); callers sizing a
    /// full bitmap check this fits their budget first.
    pub fn key_space(&self) -> u128 {
        self.entries
            .last()
            .map(|e| e.base + e.spec.host_count() * self.ports.len() as u128)
            .unwrap_or(0)
    }

    /// The dense dedup key for a response, or a typed error naming the
    /// prefix that failed.
    ///
    /// Longest-prefix match picks the spec; if the address falls inside
    /// that prefix but off its pattern, the error names it rather than
    /// falling through to a shorter, wrong prefix.
    pub fn key_for(&self, addr: Ipv6Addr, port: u16) -> Result<u64, DedupError> {
        let entry = self
            .entries
            .iter()
            .filter(|e| e.spec.contains(addr))
            .max_by_key(|e| e.spec.prefix_len())
            .ok_or(DedupError::NoMatchingPrefix(addr))?;
        let index = entry
            .spec
            .index_of(addr)
            .ok_or_else(|| DedupError::PatternMismatch {
                prefix: (entry.spec.prefix(), entry.spec.prefix_len()),
                addr,
            })?;
        let port_idx =
            self.ports
                .iter()
                .position(|&p| p == port)
                .ok_or_else(|| DedupError::UnknownPort {
                    prefix: (entry.spec.prefix(), entry.spec.prefix_len()),
                    port,
                })?;
        let key = entry.base + index * self.ports.len() as u128 + port_idx as u128;
        u64::try_from(key).map_err(|_| DedupError::KeyOverflow {
            prefix: (entry.spec.prefix(), entry.spec.prefix_len()),
            key,
        })
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
        assert_eq!(space.walks_for_prefix(0), 4);
        assert_eq!(space.target_count(), 1u128 << 50);
        // Two ports (port_bits=1): span drops to 47 ⇒ 8 subwalks.
        let specs = vec![spec("2001:db8::/32 pattern=low bits=50")];
        let space = V6TargetSpace::new(specs, &[80, 443], 1, ShardAlgorithm::Pizza).unwrap();
        assert_eq!(space.walks_for_prefix(0), 8);
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

            // Kill-anywhere over the interleaved walk: resuming from any
            // journaled raw-draw position yields exactly the suffix.
            #[test]
            fn v6_fast_forward_from_any_position_matches(
                seed in any::<u64>(),
                cut in 0u64..300,
            ) {
                let space = small_space(seed);
                let mut full = space.iter_shard(0, 1, 0, 1);
                let mut prefix_targets = Vec::new();
                while full.elements_consumed() < cut {
                    match full.next() {
                        Some(t) => prefix_targets.push(t),
                        None => break,
                    }
                }
                let consumed = full.elements_consumed();
                let suffix: Vec<Target6> = full.collect();
                let mut resumed = space.iter_shard(0, 1, 0, 1);
                resumed.fast_forward_elements(consumed);
                let resumed_suffix: Vec<Target6> = resumed.collect();
                prop_assert_eq!(suffix, resumed_suffix);
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
    }
}
