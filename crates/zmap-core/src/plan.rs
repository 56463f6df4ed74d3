//! The address-family plan: one dispatch layer that lets the engine
//! (sequential and threaded) drive an IPv4 cyclic-group walk or an
//! XMap-style IPv6 per-prefix walk through the same code path.
//!
//! Everything family-specific funnels through two small enums:
//! [`ScanPlan`] (target space + sharded iteration + dedup keying) and
//! [`ProbeModule`] (per-scan key material + packet template: render a
//! probe, validate a response). The engines match on neither in their
//! hot loops beyond what lives here.

use crate::config::{ProbeKind, ScanConfig};
use std::net::IpAddr;
use zmap_dedup::target_key;
use zmap_targets::generator::{BuildError, TargetIter};
use zmap_targets::{
    parse_prefix_list, DedupError, Target, Target6, TargetGenerator, V6DedupSpace, V6TargetIter,
    V6TargetSpace,
};
use zmap_wire::probe::{ProbeBuilder, Response, ResponseKind};
use zmap_wire::template::ProbeTemplate;
use zmap_wire::{WireError, L3, V4, V6};

/// The effective port list: the ICMP modules have no port dimension, so a
/// single pseudo-port keeps the (IP, port) target machinery uniform.
pub fn effective_ports(cfg: &ScanConfig) -> Vec<u16> {
    match cfg.probe {
        ProbeKind::IcmpEcho => vec![0],
        _ => cfg.ports.clone(),
    }
}

/// The IPv6 half of a plan: the per-prefix walk plan plus the dense
/// dedup index space derived from it.
pub struct V6Plan {
    /// The prefix-tree walk (one smallest-fitting cyclic group per
    /// prefix, interleaved by the stride scheduler).
    pub space: V6TargetSpace,
    /// Maps response `(addr, port)` back into the compact per-prefix
    /// index space; failures degrade one response, never the run.
    pub dedup: V6DedupSpace,
    num_shards: u32,
    num_subshards: u32,
}

/// A validated target space for one address family.
pub enum ScanPlan {
    /// IPv4: the classic single cyclic-group permutation over the
    /// constraint's allowed set.
    V4(Box<TargetGenerator>),
    /// IPv6: per-prefix cyclic walks over the prefix list.
    V6(Box<V6Plan>),
}

impl ScanPlan {
    /// Builds the target space for `cfg`, which must have passed
    /// [`ScanConfig::validate`] (as every [`PreparedScan`] has).
    /// `cycle_parts` rebuilds a journaled v4 permutation verbatim instead
    /// of re-deriving it from the seed; the v6 walk plan and the stealth
    /// re-keyed walk are pure functions of the config and seed, so their
    /// resume paths ignore it.
    ///
    /// [`PreparedScan`]: crate::PreparedScan
    pub fn build(
        cfg: &ScanConfig,
        cycle_parts: Option<(u64, u64)>,
    ) -> Result<ScanPlan, BuildError> {
        let ports = effective_ports(cfg);
        match &cfg.ipv6 {
            None => {
                let mut gen_builder = TargetGenerator::builder()
                    .constraint(cfg.effective_constraint())
                    .ports(&ports)
                    .seed(cfg.seed)
                    .shards(cfg.num_shards)
                    .subshards(cfg.subshards)
                    .algorithm(cfg.shard_algorithm)
                    .rekey_blocks(cfg.rekey_blocks);
                // A re-keyed walk is re-derived from the seed on resume
                // (the journal's fingerprint gate catches drift); recorded
                // single-permutation parts only apply to the classic walk.
                if cfg.rekey_blocks == 0 {
                    if let Some((generator, offset)) = cycle_parts {
                        gen_builder = gen_builder.cycle_parts(generator, offset);
                    }
                }
                Ok(ScanPlan::V4(Box::new(gen_builder.build()?)))
            }
            Some(v6) => {
                let specs = parse_prefix_list(&v6.prefix_list)
                    .map_err(|e| BuildError::Config(format!("invalid prefix list: {e}")))?;
                let space = V6TargetSpace::new(specs, &ports, cfg.seed, cfg.shard_algorithm)
                    .map_err(|e| BuildError::Config(format!("cannot plan v6 walk: {e}")))?;
                let dedup = space.dedup_space();
                Ok(ScanPlan::V6(Box::new(V6Plan {
                    space,
                    dedup,
                    num_shards: cfg.num_shards,
                    num_subshards: cfg.subshards,
                })))
            }
        }
    }

    /// The permutation triple the checkpoint journal records. For v4 this
    /// is the literal `(group prime, generator, offset)`; for v6 the
    /// walk plan is a pure function of (prefix list, ports, seed), so its
    /// [`V6TargetSpace::fingerprint`] rides in the prime slot (with
    /// generator/offset zero) and the resume gate compares fingerprints.
    /// A stealth re-keyed v4 walk is likewise seed-pure, so its
    /// [`zmap_targets::RekeyedWalk::fingerprint`] rides the same way.
    pub fn permutation(&self) -> (u64, u64, u64) {
        match self {
            ScanPlan::V4(gen) => match gen.walk_fingerprint() {
                Some(fp) => (fp, 0, 0),
                None => (
                    gen.cycle().group().prime(),
                    gen.cycle().generator(),
                    gen.cycle().offset(),
                ),
            },
            ScanPlan::V6(p) => (p.space.fingerprint(), 0, 0),
        }
    }

    /// Total targets in the whole scan (all shards). Saturates at
    /// `u64::MAX` for v6 spaces beyond 2^64 — progress display only; the
    /// walk itself is exact.
    pub fn target_count(&self) -> u64 {
        match self {
            ScanPlan::V4(gen) => gen.target_count(),
            ScanPlan::V6(p) => u64::try_from(p.space.target_count()).unwrap_or(u64::MAX),
        }
    }

    /// One subshard's iterator. The config's shard spec passed the gate,
    /// so this cannot fail for in-range `shard`/`subshard`.
    pub fn iter_shard(&self, shard: u32, subshard: u32) -> PlanIter<'_> {
        match self {
            ScanPlan::V4(gen) => PlanIter::V4(gen.iter_shard(shard, subshard)),
            ScanPlan::V6(p) => {
                PlanIter::V6(p.space.iter_shard(shard, p.num_shards, subshard, p.num_subshards))
            }
        }
    }

    /// The dense dedup/RTT key of a response address (the walk hands TX
    /// each target's key, so only RX derives one). An `Err` names the
    /// response that failed to invert — the caller discards that one
    /// response and keeps scanning.
    pub fn probe_key(&self, ip: IpAddr, port: u16) -> Result<u64, DedupError> {
        match (self, ip) {
            (ScanPlan::V4(_), IpAddr::V4(v4)) => Ok(target_key(u32::from(v4), port)),
            (ScanPlan::V6(p), IpAddr::V6(v6)) => p.dedup.key_for(v6, port),
            // A cross-family response cannot belong to this scan; treat
            // it like an address outside every prefix.
            (ScanPlan::V6(_), IpAddr::V4(v4)) => {
                Err(DedupError::NoMatchingPrefix(v4.to_ipv6_mapped()))
            }
            (ScanPlan::V4(_), IpAddr::V6(v6)) => Err(DedupError::NoMatchingPrefix(v6)),
        }
    }
}

/// One subshard's target stream, family-erased to `(IpAddr, port, key)`:
/// each target comes with the dedup/RTT key [`ScanPlan::probe_key`]
/// would derive for it (`None` only past a v6 list's 64-bit key space).
pub enum PlanIter<'a> {
    V4(TargetIter<'a>),
    V6(V6TargetIter<'a>),
}

impl PlanIter<'_> {
    /// Raw group elements drawn so far (the checkpoint position unit).
    pub fn elements_consumed(&self) -> u64 {
        match self {
            PlanIter::V4(it) => it.elements_consumed(),
            PlanIter::V6(it) => it.elements_consumed(),
        }
    }

    /// Skips `k` raw elements (checkpoint fast-forward); returns how many
    /// were actually available.
    pub fn fast_forward_elements(&mut self, k: u64) -> u64 {
        match self {
            PlanIter::V4(it) => it.fast_forward_elements(k),
            PlanIter::V6(it) => it.fast_forward_elements(k),
        }
    }
}

impl Iterator for PlanIter<'_> {
    type Item = (IpAddr, u16, Option<u64>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            PlanIter::V4(it) => it.next().map(|Target { ip, port }| {
                (IpAddr::V4(ip), port, Some(target_key(u32::from(ip), port)))
            }),
            PlanIter::V6(it) => {
                it.next().map(|Target6 { ip, port, key }| (IpAddr::V6(ip), port, key))
            }
        }
    }
}

/// A validated response, family-erased. `kind` is the one
/// [`ResponseKind`] enum — the v6 parser never produces `Unreachable`.
pub struct AnyResponse {
    /// The probed host.
    pub ip: IpAddr,
    /// The probed port (0 for echo probes).
    pub port: u16,
    /// What came back.
    pub kind: ResponseKind,
    /// TTL (v4) or hop limit (v6) observed on the response.
    pub ttl: u8,
}

impl<L: L3> From<Response<L>> for AnyResponse {
    fn from(r: Response<L>) -> AnyResponse {
        AnyResponse {
            ip: r.ip.into(),
            port: r.port,
            kind: r.kind,
            ttl: r.ttl,
        }
    }
}

/// The scan's probe module for one address family (ZMap's "scan module",
/// paper §5): the per-scan key material that validates responses plus the
/// packet template (§4.4) laid out once from it, so the TX loop only
/// patches addresses, cookie and checksums. The family is chosen by the
/// config, so this is the one runtime `V4 | V6` match; everything below
/// it is `zmap-wire`'s family-generic code, monomorphised.
pub enum ProbeModule {
    V4 {
        builder: ProbeBuilder<V4>,
        template: ProbeTemplate<V4>,
    },
    V6 {
        builder: ProbeBuilder<V6>,
        template: ProbeTemplate<V6>,
    },
}

/// Lays out one family's builder and template from the config.
fn lay_out<L: L3>(
    source_ip: L::Addr,
    cfg: &ScanConfig,
) -> Result<(ProbeBuilder<L>, ProbeTemplate<L>), WireError> {
    let mut builder = ProbeBuilder::new(source_ip, cfg.seed);
    builder.layout = cfg.option_layout;
    builder.ip_id = cfg.ip_id;
    let template = match &cfg.probe {
        ProbeKind::TcpSyn => ProbeTemplate::tcp_syn(&builder),
        ProbeKind::IcmpEcho => ProbeTemplate::icmp_echo(&builder),
        ProbeKind::Udp(payload) => ProbeTemplate::udp(&builder, payload)?,
    };
    Ok((builder, template))
}

impl ProbeModule {
    /// Builds the configured module. Laying the template out here also
    /// surfaces the one per-probe construction failure (oversized UDP
    /// payload) at setup time, keeping the TX hot path infallible.
    pub fn build(cfg: &ScanConfig) -> Result<ProbeModule, BuildError> {
        match &cfg.ipv6 {
            None => lay_out(cfg.source_ip, cfg)
                .map(|(builder, template)| ProbeModule::V4 { builder, template }),
            Some(v6) => lay_out(v6.source_ip, cfg)
                .map(|(builder, template)| ProbeModule::V6 { builder, template }),
        }
        .map_err(|e| BuildError::Config(format!("cannot build probe template: {e}")))
    }

    /// Renders the probe for one target into `out`, a recycled
    /// [`FrameBatch`](crate::transport::FrameBatch) slot: a buffer still
    /// holding a previous render of this module is patched in place.
    /// `ip_id_entropy` feeds the v4 IP ID and is ignored for v6 (no
    /// fragment header is emitted). The target's family must match the
    /// module's — guaranteed when both derive from the same config.
    pub fn render_into(&self, ip: IpAddr, port: u16, ip_id_entropy: u16, out: &mut Vec<u8>) {
        match (self, ip) {
            (ProbeModule::V4 { template, .. }, IpAddr::V4(v4)) => {
                template.render_into(v4, port, ip_id_entropy, out)
            }
            (ProbeModule::V6 { template, .. }, IpAddr::V6(v6)) => {
                template.render_into(v6, port, out)
            }
            _ => unreachable!("probe module fed a target from the other address family"),
        }
    }

    /// Parses and validates a received frame. `Ok(None)` means a
    /// well-formed frame that is not a response to this scan.
    pub fn parse_response(&self, frame: &[u8]) -> Result<Option<AnyResponse>, WireError> {
        Ok(match self {
            ProbeModule::V4 { builder, .. } => builder.parse_response(frame)?.map(Into::into),
            ProbeModule::V6 { builder, .. } => builder.parse_response(frame)?.map(Into::into),
        })
    }
}

/// Maps a validated response kind to the output classification (shared by
/// both families; the v6 parser never produces `Unreachable`).
pub fn classify_kind(kind: &ResponseKind) -> crate::output::Classification {
    use crate::output::Classification;
    match kind {
        ResponseKind::SynAck => Classification::SynAck,
        ResponseKind::Rst => Classification::Rst,
        ResponseKind::EchoReply => Classification::EchoReply,
        ResponseKind::Unreachable { .. } => Classification::Unreach,
        ResponseKind::UdpData(_) => Classification::UdpData,
        ResponseKind::OtherTcp(_) => Classification::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    const PREFIXES: &str = "2001:db8:a::/48 pattern=low bits=6 density=1.0\n\
                            2001:db8:b::/48 pattern=eui64 bits=4 density=1.0\n";

    fn v6_cfg() -> ScanConfig {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7));
        cfg.ipv6 = Some(crate::config::Ipv6Config {
            source_ip: "2001:db8:ffff::1".parse().unwrap(),
            prefix_list: PREFIXES.to_string(),
        });
        cfg.ports = vec![443];
        cfg.seed = 11;
        cfg
    }

    #[test]
    fn v4_plan_matches_generator_directly() {
        let cfg = ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7));
        let plan = ScanPlan::build(&cfg, None).unwrap();
        let ScanPlan::V4(ref gen) = plan else {
            panic!("v4 config must build a v4 plan")
        };
        assert_eq!(plan.target_count(), gen.target_count());
        assert_eq!(plan.permutation().0, gen.cycle().group().prime());
        let got: Vec<_> = plan.iter_shard(0, 0).take(16).collect();
        let want: Vec<_> = gen
            .iter_shard(0, 0)
            .take(16)
            .map(|t| (IpAddr::V4(t.ip), t.port))
            .map(|(ip, port)| (ip, port, plan.probe_key(ip, port).ok()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stealth_permutation_is_fingerprint_with_zero_parts() {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7));
        cfg.rekey_blocks = 8;
        let plan = ScanPlan::build(&cfg, None).unwrap();
        let (fp, g, o) = plan.permutation();
        assert_ne!(fp, 0);
        assert_eq!((g, o), (0, 0));
        // Seed shifts the fingerprint: a foreign journal cannot slip
        // through the resume gate.
        let mut other = ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7));
        other.rekey_blocks = 8;
        other.seed = 1;
        assert_ne!(ScanPlan::build(&other, None).unwrap().permutation().0, fp);
    }

    #[test]
    fn stealth_resume_ignores_cycle_parts() {
        // A stealth journal records (fingerprint, 0, 0); the resume path
        // feeds those zero parts back through build, which must re-derive
        // the walk from the seed instead of choking on generator 0.
        let mut cfg = ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7));
        cfg.rekey_blocks = 8;
        let fresh = ScanPlan::build(&cfg, None).unwrap();
        let resumed = ScanPlan::build(&cfg, Some((0, 0))).unwrap();
        assert_eq!(resumed.permutation(), fresh.permutation());
        let a: Vec<_> = fresh.iter_shard(0, 0).take(64).collect();
        let b: Vec<_> = resumed.iter_shard(0, 0).take(64).collect();
        assert_eq!(a, b, "resume must re-enter the identical walk");
    }

    #[test]
    fn v6_plan_walks_every_target_once() {
        let plan = ScanPlan::build(&v6_cfg(), None).unwrap();
        assert_eq!(plan.target_count(), 64 + 16);
        let seen: std::collections::HashSet<_> =
            plan.iter_shard(0, 0).map(|(ip, port, _)| (ip, port)).collect();
        assert_eq!(seen.len(), 80, "every (addr, port) exactly once");
        for (ip, port) in &seen {
            assert!(matches!(ip, IpAddr::V6(_)));
            assert_eq!(*port, 443);
        }
    }

    #[test]
    fn v6_permutation_is_fingerprint_with_zero_parts() {
        let plan = ScanPlan::build(&v6_cfg(), None).unwrap();
        let (fp, g, o) = plan.permutation();
        assert_ne!(fp, 0);
        assert_eq!((g, o), (0, 0));
        // Fingerprint shifts with the prefix list: a foreign journal
        // cannot slip through the resume gate.
        let mut other = v6_cfg();
        other.ipv6.as_mut().unwrap().prefix_list =
            "2001:db8:a::/48 pattern=low bits=6 density=1.0\n".into();
        let plan2 = ScanPlan::build(&other, None).unwrap();
        assert_ne!(plan2.permutation().0, fp);
    }

    #[test]
    fn v6_probe_key_round_trips_and_degrades_per_response() {
        let cfg = v6_cfg();
        let plan = ScanPlan::build(&cfg, None).unwrap();
        let mut keys = std::collections::HashSet::new();
        for (ip, port, key) in plan.iter_shard(0, 0) {
            let derived = plan.probe_key(ip, port).expect("walked targets always key");
            assert_eq!(key, Some(derived), "the walk hands out the RX key");
            keys.insert(derived);
        }
        assert_eq!(keys.len(), 80, "keys are dense and collision-free");
        // Off-space responses fail with a typed, per-response error.
        let stray: Ipv6Addr = "2001:db8:dead::1".parse().unwrap();
        assert!(matches!(
            plan.probe_key(IpAddr::V6(stray), 443),
            Err(DedupError::NoMatchingPrefix(_))
        ));
        let inside: Ipv6Addr = "2001:db8:a::1".parse().unwrap();
        assert!(matches!(
            plan.probe_key(IpAddr::V6(inside), 80),
            Err(DedupError::UnknownPort { .. })
        ));
        assert!(plan
            .probe_key(IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4)), 443)
            .is_err());
    }

    #[test]
    fn v6_bad_prefix_list_is_a_config_error() {
        let mut cfg = v6_cfg();
        cfg.ipv6.as_mut().unwrap().prefix_list = "not-a-prefix/129\n".into();
        assert!(matches!(
            ScanPlan::build(&cfg, None),
            Err(BuildError::Config(_))
        ));
    }

    #[test]
    fn render_into_matches_from_scratch_builder_frames() {
        // {v4, v6} x {TCP SYN, ICMP echo, UDP}: the engine-facing render
        // must equal the from-scratch builder frame, both into an empty
        // buffer and into one recycled from the previous target.
        let kinds = [
            ProbeKind::TcpSyn,
            ProbeKind::IcmpEcho,
            ProbeKind::Udp(b"probe".to_vec()),
        ];
        for v6 in [false, true] {
            for kind in &kinds {
                let mut cfg = if v6 {
                    v6_cfg()
                } else {
                    ScanConfig::new(Ipv4Addr::new(198, 51, 100, 7))
                };
                cfg.probe = kind.clone();
                let module = ProbeModule::build(&cfg).unwrap();
                let mut buf = Vec::new();
                for (host, port, entropy) in [(5u8, 443u16, 7u16), (9, 80, 0xABCD)] {
                    let (ip, want) = match &module {
                        ProbeModule::V4 { builder, .. } => {
                            let ip = Ipv4Addr::new(203, 0, 113, host);
                            let frame = match kind {
                                ProbeKind::TcpSyn => builder.tcp_syn(ip, port, entropy),
                                ProbeKind::IcmpEcho => builder.icmp_echo(ip, entropy),
                                ProbeKind::Udp(p) => builder.udp(ip, port, p, entropy).unwrap(),
                            };
                            (IpAddr::V4(ip), frame)
                        }
                        ProbeModule::V6 { builder, .. } => {
                            let ip = Ipv6Addr::new(0x2001, 0xdb8, 0xa, 0, 0, 0, 0, host.into());
                            let frame = match kind {
                                ProbeKind::TcpSyn => builder.tcp_syn(ip, port, entropy),
                                ProbeKind::IcmpEcho => builder.icmp_echo(ip, entropy),
                                ProbeKind::Udp(p) => builder.udp(ip, port, p, entropy).unwrap(),
                            };
                            (IpAddr::V6(ip), frame)
                        }
                    };
                    module.render_into(ip, port, entropy, &mut buf);
                    assert_eq!(buf, want, "v6={v6} {kind:?} {ip}:{port}");
                }
            }
        }
    }

    #[test]
    fn classification_mapping() {
        use crate::output::Classification;
        use zmap_wire::icmp::UnreachCode;
        use zmap_wire::tcp::TcpFlags;
        for (kind, want) in [
            (ResponseKind::SynAck, Classification::SynAck),
            (ResponseKind::Rst, Classification::Rst),
            (ResponseKind::EchoReply, Classification::EchoReply),
            (
                ResponseKind::Unreachable {
                    code: UnreachCode::Port,
                    via: Ipv4Addr::new(9, 9, 9, 9),
                },
                Classification::Unreach,
            ),
            (ResponseKind::UdpData(10), Classification::UdpData),
            (ResponseKind::OtherTcp(TcpFlags::ACK), Classification::Other),
        ] {
            assert_eq!(classify_kind(&kind), want);
        }
    }
}
