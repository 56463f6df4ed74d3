//! Differential tests for the walk scheduler and the v6 address model.
//!
//! Walk order is a golden: the sequence a seed produces, every checkpoint
//! position and every dedup key must stay what they were before the v6
//! and stealth walks shared one scheduler and the v6 address model
//! became `fixed | index`. The `reference` module keeps the earlier
//! implementations verbatim — the greedy lane-search interleave with its
//! replay fast-forward, the sequential block walk, and the three-arm
//! pattern mapping with a linear longest-prefix-match key lookup — and
//! the properties below require the current code to match them draw for
//! draw, position for position and key for key.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use std::sync::mpsc;
use std::time::Duration;
use zmap_targets::v6::{DedupError, HostPattern, PrefixSpec, V6TargetSpace};
use zmap_targets::{BlockParams, RekeyedWalk, ShardAlgorithm, ShardSpec, Target6};

mod reference {
    use std::net::Ipv6Addr;
    use zmap_targets::v6::{DedupError, HostPattern, PrefixSpec};
    use zmap_targets::{BlockParams, Cycle, CyclicGroup, ShardAlgorithm, ShardIter, ShardSpec};

    pub fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn le64(o: &[u8; 16], k: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&o[k..k + 8]);
        u64::from_le_bytes(b)
    }

    pub fn derive_seed(seed: u64, ordinal: u64) -> u64 {
        splitmix64(seed ^ splitmix64(ordinal))
    }

    // ---- the three-arm address model -------------------------------

    fn host_mask(s: &PrefixSpec) -> u128 {
        if s.prefix_len() == 0 {
            u128::MAX
        } else {
            (u128::MAX) >> s.prefix_len()
        }
    }

    fn contains(s: &PrefixSpec, addr: Ipv6Addr) -> bool {
        u128::from(addr) & !host_mask(s) == u128::from(s.prefix())
    }

    fn prefix_hash(s: &PrefixSpec) -> u64 {
        let o = s.prefix().octets();
        let mut h = le64(&o, 0);
        h = splitmix64(h ^ le64(&o, 8));
        splitmix64(h ^ u64::from(s.prefix_len()))
    }

    fn eui64_base(s: &PrefixSpec) -> u64 {
        let h = prefix_hash(s);
        let b0 = (((h >> 40) as u8) & 0xFC) | 0x02;
        ((b0 as u64) << 56)
            | (((h >> 32) as u8 as u64) << 48)
            | (((h >> 24) as u8 as u64) << 40)
            | (0xFFu64 << 32)
            | (0xFEu64 << 24)
    }

    fn v4base(s: &PrefixSpec) -> u32 {
        prefix_hash(s) as u32
    }

    pub fn addr_at(s: &PrefixSpec, index: u128) -> Ipv6Addr {
        let pfx = u128::from(s.prefix());
        let host = match s.pattern() {
            HostPattern::Low => index,
            HostPattern::Eui64 => u128::from(eui64_base(s)) | index,
            HostPattern::EmbeddedV4 => {
                let mask = if s.bits() == 32 {
                    u32::MAX
                } else {
                    (1u32 << s.bits()) - 1
                };
                u128::from(v4base(s) & !mask) | index
            }
        };
        Ipv6Addr::from(pfx | host)
    }

    pub fn index_of(s: &PrefixSpec, addr: Ipv6Addr) -> Option<u128> {
        let a = u128::from(addr);
        if a & !host_mask(s) != u128::from(s.prefix()) {
            return None;
        }
        let host = a & host_mask(s);
        match s.pattern() {
            HostPattern::Low => (host < s.host_count()).then_some(host),
            HostPattern::Eui64 => {
                if host >> 64 != 0 {
                    return None;
                }
                let iid = host as u64;
                if iid & !0x00FF_FFFF != eui64_base(s) {
                    return None;
                }
                let serial = u128::from(iid & 0x00FF_FFFF);
                (serial < s.host_count()).then_some(serial)
            }
            HostPattern::EmbeddedV4 => {
                if host >> 32 != 0 {
                    return None;
                }
                let low = host as u32;
                let mask = if s.bits() == 32 {
                    u32::MAX
                } else {
                    (1u32 << s.bits()) - 1
                };
                if low & !mask != v4base(s) & !mask {
                    return None;
                }
                Some(u128::from(low & mask))
            }
        }
    }

    /// The linear longest-prefix-match dedup key.
    pub fn key_for(
        specs: &[PrefixSpec],
        ports: &[u16],
        addr: Ipv6Addr,
        port: u16,
    ) -> Result<u64, DedupError> {
        let mut base = 0u128;
        let mut entries = Vec::new();
        for spec in specs {
            entries.push((spec, base));
            base += spec.host_count() * ports.len() as u128;
        }
        let (spec, base) = entries
            .iter()
            .filter(|e| contains(e.0, addr))
            .max_by_key(|e| e.0.prefix_len())
            .ok_or(DedupError::NoMatchingPrefix(addr))?;
        let index = index_of(spec, addr).ok_or(DedupError::PatternMismatch {
            prefix: (spec.prefix(), spec.prefix_len()),
            addr,
        })?;
        let port_idx = ports
            .iter()
            .position(|&p| p == port)
            .ok_or(DedupError::UnknownPort {
                prefix: (spec.prefix(), spec.prefix_len()),
                port,
            })?;
        let key = base + index * ports.len() as u128 + port_idx as u128;
        u64::try_from(key).map_err(|_| DedupError::KeyOverflow {
            prefix: (spec.prefix(), spec.prefix_len()),
            key,
        })
    }

    // ---- the v6 walk plan and its greedy interleave ------------------

    struct Walk {
        spec_idx: usize,
        host_base: u128,
        pool: u64,
        cycle: Cycle,
    }

    pub struct Space {
        specs: Vec<PrefixSpec>,
        ports: Vec<u16>,
        port_bits: u32,
        seed: u64,
        algorithm: ShardAlgorithm,
        walks: Vec<Walk>,
    }

    impl Space {
        pub fn new(
            specs: Vec<PrefixSpec>,
            ports: &[u16],
            seed: u64,
            algorithm: ShardAlgorithm,
        ) -> Self {
            let port_bits = (ports.len() as u64).next_power_of_two().trailing_zeros();
            let max_pool_bits = 48u32;
            let mut walks = Vec::new();
            for (spec_idx, spec) in specs.iter().enumerate() {
                let bits = u32::from(spec.bits());
                let span_bits = bits.min(max_pool_bits.saturating_sub(port_bits));
                let split = bits - span_bits;
                let subwalks = 1u64 << split;
                let host_span = 1u128 << span_bits;
                let pool = 1u64 << (span_bits + port_bits);
                let group = CyclicGroup::for_target_count(pool).unwrap();
                for w in 0..subwalks {
                    let ordinal = walks.len() as u64;
                    walks.push(Walk {
                        spec_idx,
                        host_base: u128::from(w) * host_span,
                        pool,
                        cycle: Cycle::new(group.clone(), derive_seed(seed, ordinal)),
                    });
                }
            }
            Space {
                specs,
                ports: ports.to_vec(),
                port_bits,
                seed,
                algorithm,
                walks,
            }
        }

        fn decode_walk(&self, walk_idx: usize, element: u64) -> Option<(Ipv6Addr, u16)> {
            let walk = &self.walks[walk_idx];
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
            Some((
                addr_at(spec, walk.host_base + u128::from(host_off)),
                self.ports[port_idx],
            ))
        }

        pub fn iter_spec(&self, spec: ShardSpec) -> Iter<'_> {
            let mut lanes = Vec::new();
            for (walk_idx, walk) in self.walks.iter().enumerate() {
                let inner = ShardIter::new(&walk.cycle, spec, self.algorithm).unwrap();
                let weight = inner.remaining();
                if weight == 0 {
                    continue;
                }
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
            Iter {
                space: self,
                lanes,
                consumed: 0,
            }
        }
    }

    const STRIDE_SCALE: u128 = 1 << 64;

    struct Lane<'a> {
        walk: usize,
        inner: ShardIter<'a>,
        pass: u128,
        stride: u128,
    }

    pub struct Iter<'a> {
        space: &'a Space,
        lanes: Vec<Lane<'a>>,
        consumed: u64,
    }

    impl Iter<'_> {
        pub fn elements_consumed(&self) -> u64 {
            self.consumed
        }

        pub fn elements_remaining(&self) -> u64 {
            self.lanes.iter().map(|l| l.inner.remaining()).sum()
        }

        /// The lanes' current passes (walk ordinal, pass).
        pub fn passes(&self) -> Vec<(usize, u128)> {
            self.lanes.iter().map(|l| (l.walk, l.pass)).collect()
        }

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

    impl Iterator for Iter<'_> {
        type Item = (Ipv6Addr, u16);

        fn next(&mut self) -> Option<(Ipv6Addr, u16)> {
            loop {
                let i = self.next_lane()?;
                let lane = &mut self.lanes[i];
                let element = lane.inner.next()?;
                lane.pass += lane.stride;
                self.consumed += 1;
                let walk = lane.walk;
                if let Some(t) = self.space.decode_walk(walk, element) {
                    return Some(t);
                }
            }
        }
    }

    // ---- the re-keyed walk and its sequential block order -------------

    struct Block {
        base: u64,
        len: u64,
        cycle: Cycle,
    }

    pub struct Rekeyed {
        blocks: Vec<Block>,
        pub fingerprint: u64,
    }

    impl Rekeyed {
        pub fn new(pool: u64, num_blocks: u32, seed: u64) -> Self {
            let k = num_blocks as u128;
            let mut blocks = Vec::new();
            for i in 0..num_blocks as u128 {
                let base = (pool as u128 * i / k) as u64;
                let end = (pool as u128 * (i + 1) / k) as u64;
                let len = end - base;
                if len == 0 {
                    continue;
                }
                let group = CyclicGroup::for_target_count(len).unwrap();
                let cycle = Cycle::new(group, derive_seed(seed, i as u64));
                blocks.push(Block { base, len, cycle });
            }
            let mut order_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                derive_seed(seed, u64::MAX),
            );
            for i in (1..blocks.len()).rev() {
                let j = rand::Rng::gen_range(&mut order_rng, 0..=i);
                blocks.swap(i, j);
            }
            let mut h = splitmix64(seed ^ 0x7265_6B65_795F_7631);
            h = splitmix64(h ^ pool);
            h = splitmix64(h ^ u64::from(num_blocks));
            for b in &blocks {
                for part in [
                    b.base,
                    b.len,
                    b.cycle.group().prime(),
                    b.cycle.generator(),
                    b.cycle.offset(),
                ] {
                    h = splitmix64(h ^ part);
                }
            }
            Rekeyed {
                blocks,
                fingerprint: h,
            }
        }

        pub fn blocks(&self) -> Vec<BlockParams> {
            self.blocks
                .iter()
                .map(|b| BlockParams {
                    base: b.base,
                    len: b.len,
                    prime: b.cycle.group().prime(),
                    generator: b.cycle.generator(),
                    offset: b.cycle.offset(),
                })
                .collect()
        }

        pub fn iter_spec(&self, spec: ShardSpec, algorithm: ShardAlgorithm) -> RekeyIter<'_> {
            let iters = self
                .blocks
                .iter()
                .map(|b| ShardIter::new(&b.cycle, spec, algorithm).unwrap())
                .collect();
            RekeyIter {
                blocks: &self.blocks,
                iters,
                cur: 0,
                consumed: 0,
            }
        }
    }

    pub struct RekeyIter<'a> {
        blocks: &'a [Block],
        iters: Vec<ShardIter<'a>>,
        cur: usize,
        consumed: u64,
    }

    impl RekeyIter<'_> {
        pub fn consumed(&self) -> u64 {
            self.consumed
        }

        pub fn remaining(&self) -> u64 {
            self.iters[self.cur..]
                .iter()
                .map(ShardIter::remaining)
                .sum()
        }

        pub fn fast_forward(&mut self, k: u64) -> u64 {
            let mut left = k;
            let mut skipped = 0;
            while left > 0 && self.cur < self.iters.len() {
                let n = self.iters[self.cur].fast_forward(left);
                skipped += n;
                left -= n;
                if left > 0 {
                    self.cur += 1;
                }
            }
            self.consumed += skipped;
            skipped
        }
    }

    impl Iterator for RekeyIter<'_> {
        type Item = u64;

        fn next(&mut self) -> Option<u64> {
            while self.cur < self.iters.len() {
                match self.iters[self.cur].next() {
                    Some(e) => {
                        self.consumed += 1;
                        let b = &self.blocks[self.cur];
                        if e - 1 < b.len {
                            return Some(b.base + e);
                        }
                    }
                    None => self.cur += 1,
                }
            }
            None
        }
    }
}

// ---- v6 spaces ---------------------------------------------------------

/// One prefix-list line as drawn: `(pattern selector, prefix length
/// past /32, bits seed, wide, density percent, random prefix bits)`.
type LineDraw = (u8, u8, u8, bool, u8, u64);

fn line_draw() -> impl Strategy<Value = LineDraw> {
    (
        0u8..3,
        0u8..=32,
        any::<u8>(),
        any::<bool>(),
        0u8..100,
        any::<u64>(),
    )
}

/// Builds disjoint lines: line `i` sits under `2001:i::/32`, so no line's
/// prefix contains another's and the longest-prefix match is unique.
/// Most lines are narrow; a `wide` line draws `bits` up to its pattern's
/// limit (50 for `low`), which splits it into several walks.
fn build_specs(draws: &[LineDraw]) -> Vec<PrefixSpec> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &(sel, plen, bits_seed, wide, density, random))| {
            let pattern = [
                HostPattern::Low,
                HostPattern::Eui64,
                HostPattern::EmbeddedV4,
            ][sel as usize];
            let plen = 32 + plen;
            let cap = match pattern {
                HostPattern::Low => 50,
                _ => pattern.max_bits(),
            };
            let bits = if wide {
                bits_seed % (cap + 1)
            } else {
                bits_seed % 9
            };
            let net = u128::MAX << (128 - plen);
            let middle = (u128::from(random) << 64) & net & ((1u128 << 96) - 1);
            let prefix = (0x2001u128 << 112) | ((i as u128 + 1) << 96) | middle;
            let density = f64::from(density + 1) / 100.0;
            PrefixSpec::new(Ipv6Addr::from(prefix), plen, pattern, bits, density).unwrap()
        })
        .collect()
}

fn shard_spec(n: u32, t: u32, pick: u32) -> ShardSpec {
    ShardSpec {
        shard: pick % n,
        num_shards: n,
        subshard: (pick / n) % t,
        num_subshards: t,
    }
}

fn algorithm(interleaved: bool) -> ShardAlgorithm {
    if interleaved {
        ShardAlgorithm::Interleaved
    } else {
        ShardAlgorithm::Pizza
    }
}

/// The next `n` yields of both iterators, with both counters after each.
fn assert_same_v6_steps(
    new: &mut zmap_targets::V6TargetIter<'_>,
    old: &mut reference::Iter<'_>,
    n: usize,
    space: &V6TargetSpace,
) {
    for step in 0..n {
        let got = new.next();
        let want = old.next();
        assert_eq!(got.map(|t| (t.ip, t.port)), want, "step {step}");
        assert_eq!(
            new.elements_consumed(),
            old.elements_consumed(),
            "step {step}"
        );
        assert_eq!(
            new.elements_remaining(),
            old.elements_remaining(),
            "step {step}"
        );
        let Some(Target6 { ip, port, key }) = got else {
            break;
        };
        let want_key = reference::key_for(space.specs(), space.ports(), ip, port).ok();
        assert_eq!(key, want_key, "walk key of {ip}:{port}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// v6 spaces: the walk, its positions and its keys equal the greedy
    /// interleave's, from the start and from fast-forwarded cuts.
    #[test]
    fn v6_walk_matches_the_greedy_interleave(
        lines in prop::collection::vec(line_draw(), 1..21),
        nports in 1usize..=3,
        seed in any::<u64>(),
        (n, t, pick) in (1u32..=4, 1u32..=3, any::<u32>()),
        interleaved in any::<bool>(),
        cuts in prop::collection::vec(0u64..3_000, 3..4),
    ) {
        let specs = build_specs(&lines);
        let ports: Vec<u16> = [443, 80, 8080][..nports].to_vec();
        let alg = algorithm(interleaved);
        let space = V6TargetSpace::new(specs.clone(), &ports, seed, alg).unwrap();
        let old_space = reference::Space::new(specs, &ports, seed, alg);
        let spec = shard_spec(n, t, pick);
        let mut new = space.iter_spec(spec).unwrap();
        let mut old = old_space.iter_spec(spec);
        prop_assert_eq!(new.elements_remaining(), old.elements_remaining());
        assert_same_v6_steps(&mut new, &mut old, 400, &space);
        for cut in cuts {
            let mut new = space.iter_spec(spec).unwrap();
            let mut old = old_space.iter_spec(spec);
            prop_assert_eq!(new.fast_forward_elements(cut), old.fast_forward_elements(cut));
            prop_assert_eq!(new.elements_consumed(), old.elements_consumed());
            prop_assert_eq!(new.elements_remaining(), old.elements_remaining());
            assert_same_v6_steps(&mut new, &mut old, 60, &space);
        }
    }

    /// The address model: `fixed | index` and its xor-and-shift inverse
    /// equal the three-arm mapping, on pattern and off it, and the
    /// table-backed key lookup equals the linear longest-prefix match —
    /// errors included — on walked, perturbed and foreign addresses.
    #[test]
    fn address_model_and_keys_match_the_three_arm_mapping(
        lines in prop::collection::vec(line_draw(), 1..21),
        nports in 1usize..=3,
        probes in prop::collection::vec((any::<usize>(), any::<u64>(), 0u32..128, any::<bool>(), 0u16..4), 64..65),
    ) {
        let specs = build_specs(&lines);
        let ports: Vec<u16> = [443, 80, 8080][..nports].to_vec();
        let space = V6TargetSpace::new(specs.clone(), &ports, 1, ShardAlgorithm::Pizza).unwrap();
        let dedup = space.dedup_space();
        for (pick, index, flip, perturb, port_sel) in probes {
            let s = &specs[pick % specs.len()];
            let index = u128::from(index) % s.host_count();
            let addr = s.addr_at(index);
            prop_assert_eq!(addr, reference::addr_at(s, index));
            let probe = if perturb {
                Ipv6Addr::from(u128::from(addr) ^ (1u128 << flip))
            } else {
                addr
            };
            for other in &specs {
                prop_assert_eq!(other.index_of(probe), reference::index_of(other, probe));
            }
            let port = [443, 80, 8080, 53][port_sel as usize];
            let want: Result<u64, DedupError> = reference::key_for(&specs, &ports, probe, port);
            prop_assert_eq!(dedup.key_for(probe, port), want, "{}:{}", probe, port);
        }
    }

    /// Re-keyed walks: the block plan and the fingerprint are unchanged,
    /// and the scheduled walk equals the sequential block walk element
    /// for element, from the start and from cuts anywhere in the pool.
    #[test]
    fn rekeyed_walk_matches_the_sequential_block_walk(
        (small, tiny_pool, pool) in (any::<bool>(), 1u64..=64, 1u64..=(1 << 20)),
        blocks in 2u32..=64,
        seed in any::<u64>(),
        (n, t, pick) in (1u32..=3, 1u32..=2, any::<u32>()),
        interleaved in any::<bool>(),
        cuts in prop::collection::vec(any::<u64>(), 4..5),
    ) {
        let pool = if small { tiny_pool } else { pool };
        let walk = RekeyedWalk::new(pool, blocks, seed).unwrap();
        let old_walk = reference::Rekeyed::new(pool, blocks, seed);
        prop_assert_eq!(walk.blocks().collect::<Vec<BlockParams>>(), old_walk.blocks());
        prop_assert_eq!(walk.fingerprint(), old_walk.fingerprint);
        let (spec, alg) = (shard_spec(n, t, pick), algorithm(interleaved));
        let mut new = walk.iter_spec(spec, alg).unwrap();
        let mut old = old_walk.iter_spec(spec, alg);
        let total = old.remaining();
        prop_assert_eq!(new.remaining(), total);
        for step in 0..2_000 {
            let got = new.next();
            prop_assert_eq!(got, old.next(), "step {}", step);
            prop_assert_eq!(new.consumed(), old.consumed(), "step {}", step);
            prop_assert_eq!(new.remaining(), old.remaining(), "step {}", step);
            if got.is_none() {
                break;
            }
        }
        for cut in cuts {
            let cut = cut % (total + 2);
            let mut new = walk.iter_spec(spec, alg).unwrap();
            let mut old = old_walk.iter_spec(spec, alg);
            prop_assert_eq!(new.fast_forward(cut), old.fast_forward(cut));
            prop_assert_eq!(new.consumed(), old.consumed());
            prop_assert_eq!(new.remaining(), old.remaining());
            for step in 0..200 {
                let got = new.next();
                prop_assert_eq!(got, old.next(), "cut {} step {}", cut, step);
                prop_assert_eq!(new.consumed(), old.consumed());
                if got.is_none() {
                    break;
                }
            }
        }
    }
}

/// Equal passes are broken by lane order. Random interleave offsets
/// almost never tie, so this looks for a seed where two equal-weight
/// walks start on the same pass — then every one of their draws ties —
/// and checks the scheduler against the reference at every position.
/// With two lines the tied walks alternate directly; with twenty, other
/// walks fall between their draws.
fn assert_ties_follow_lane_order(lines: usize) {
    let specs: Vec<PrefixSpec> = (0..lines)
        .map(|i| PrefixSpec::parse_line(&format!("2001:db8:{i:x}::/48 bits=48")).unwrap())
        .collect();
    // Each walk holds 2^48 + 20 draws (the 2^48 + 21 group), so its
    // stride is ⌊2^64 / (2^48 + 20)⌋ and offsets fall below it.
    let stride = (1u128 << 64) / ((1u128 << 48) + 20);
    let tied = |seed: u64| {
        let mut offsets: Vec<u128> = (0..lines as u64)
            .map(|i| u128::from(reference::derive_seed(seed ^ 0x696E_746C_7636_5F5F, i)) % stride)
            .collect();
        offsets.sort_unstable();
        offsets.windows(2).any(|w| w[0] == w[1])
    };
    let seed = (0..4_000_000u64)
        .find(|&s| tied(s))
        .expect("some seed ties two offsets");
    let space = V6TargetSpace::new(specs.clone(), &[443], seed, ShardAlgorithm::Pizza).unwrap();
    let old_space = reference::Space::new(specs, &[443], seed, ShardAlgorithm::Pizza);
    let passes = old_space.iter_spec(ShardSpec::whole()).passes();
    assert!(
        passes
            .iter()
            .any(|a| passes.iter().any(|b| a.0 < b.0 && a.1 == b.1)),
        "seed {seed} must start two lanes on one pass: {passes:?}"
    );
    let steps: Vec<(Ipv6Addr, u16)> = old_space.iter_spec(ShardSpec::whole()).take(400).collect();
    let got: Vec<(Ipv6Addr, u16)> = space
        .iter_shard(0, 1, 0, 1)
        .take(400)
        .map(|t| (t.ip, t.port))
        .collect();
    assert_eq!(got, steps, "draw order, {lines} lines, seed {seed}");
    for cut in 0..=200u64 {
        let mut new = space.iter_shard(0, 1, 0, 1);
        new.fast_forward_elements(cut);
        let got: Vec<(Ipv6Addr, u16)> = new.take(40).map(|t| (t.ip, t.port)).collect();
        let want = &steps[cut as usize..cut as usize + 40];
        assert_eq!(got, want, "resume at {cut}, {lines} lines, seed {seed}");
    }
}

#[test]
fn equal_passes_break_ties_by_lane_order() {
    assert_ties_follow_lane_order(2);
    assert_ties_follow_lane_order(20);
}

/// Resume is closed-form: a position deep in a large space costs the
/// same few jumps as one near its start. The jumps run on their own
/// thread and must report back within a second; replaying the draws
/// instead would take hours, so a timeout leaves that thread running
/// rather than join it.
#[test]
fn resume_is_closed_form_on_a_large_space() {
    let (done, finished) = mpsc::channel();
    let jumps = std::thread::spawn(move || {
        // Sixteen lanes of 2^32 + 14 draws each (the 2^32 + 15 group).
        let specs = (0..16)
            .map(|i| PrefixSpec::parse_line(&format!("2001:db8:{i:x}::/48 bits=32")).unwrap())
            .collect();
        let space = V6TargetSpace::new(specs, &[443], 5, ShardAlgorithm::Pizza).unwrap();
        let mut drained = space.iter_shard(0, 1, 0, 1);
        let total = drained.elements_remaining();
        assert_eq!(total, 16 * ((1 << 32) + 14));
        assert_eq!(drained.fast_forward_elements(1 << 40), total);
        assert_eq!((drained.elements_remaining(), drained.next()), (0, None));
        // One jump halfway equals the same distance in uneven chunks.
        let half = total / 2 + 12_345;
        let mut jumped = space.iter_shard(0, 1, 0, 1);
        assert_eq!(jumped.fast_forward_elements(half), half);
        let mut chunked = space.iter_shard(0, 1, 0, 1);
        for chunk in [1, 7, 1 << 20, 3 << 30, half - (3 << 30) - (1 << 20) - 8] {
            chunked.fast_forward_elements(chunk);
        }
        assert_eq!(chunked.elements_consumed(), half);
        assert!(jumped.by_ref().take(64).eq(chunked.by_ref().take(64)));
        assert_eq!(jumped.elements_consumed(), chunked.elements_consumed());
        done.send(()).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(1)) {
        Ok(()) => jumps.join().expect("the jump thread finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => match jumps.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the thread reports before it returns"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the jumps took over a second"),
    }
}
