//! Procedural host profiles: everything about a simulated host is a pure
//! function of `(world seed, ip)`.

use crate::services::ServiceModel;
use crate::{below, hash3, unit};
use std::cell::Cell;
use zmap_wire::options::{OptionLayout, OptionSet};

/// Salts for the independent per-host random draws.
mod salt {
    pub const LIVE: u64 = 1;
    pub const OS: u64 = 2;
    pub const OPTION: u64 = 3;
    pub const ECHO: u64 = 4;
    pub const CLOSED: u64 = 5;
    pub const BLOWBACK: u64 = 6;
    pub const RTT: u64 = 7;
    pub const PORT_BASE: u64 = 0x1000;
    pub const UNREACH: u64 = 9;
    pub const BLOWBACK_COUNT: u64 = 10;
    pub const MIDDLEBOX: u64 = 11;
    pub const DEAD_RTT: u64 = 0xDE1A;
}

/// The first of `tiers` whose threshold `unit(hash3(seed, ip, salt))` is
/// below, else `rest`. A tier at or under 0 never fires, so the first
/// positive threshold decides alone when it is at least 1, and no positive
/// threshold leaves `rest`: the hash is drawn only when it can change the
/// outcome.
fn tiered<T: Copy>(seed: u64, ip: u32, salt: u64, tiers: &[(f64, T)], rest: T) -> T {
    match tiers.iter().find(|(p, _)| *p > 0.0) {
        None => rest,
        Some(&(p, t)) if p >= 1.0 => t,
        Some(_) => {
            let u = unit(hash3(seed, ip, salt));
            tiers.iter().find(|(p, _)| u < *p).map_or(rest, |&(_, t)| t)
        }
    }
}

/// The operating system flavor of a host's TCP stack (drives response
/// option layout, TTL, and window size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackOs {
    Linux,
    Windows,
    Bsd,
    Embedded,
}

impl StackOs {
    /// Initial TTL of responses (classic fingerprints).
    pub fn initial_ttl(&self) -> u8 {
        match self {
            StackOs::Linux => 64,
            StackOs::Windows => 128,
            StackOs::Bsd => 64,
            StackOs::Embedded => 255,
        }
    }

    /// SYN-ACK window size.
    pub fn window(&self) -> u16 {
        match self {
            StackOs::Linux => 29200,
            StackOs::Windows => 8192,
            StackOs::Bsd => 65535,
            StackOs::Embedded => 5840,
        }
    }

    /// Option layout this OS uses in its own SYN-ACKs.
    pub fn reply_layout(&self) -> OptionLayout {
        match self {
            StackOs::Linux => OptionLayout::Linux,
            StackOs::Windows => OptionLayout::Windows,
            StackOs::Bsd => OptionLayout::Bsd,
            StackOs::Embedded => OptionLayout::MssOnly,
        }
    }
}

/// How sensitive a host's SYN path is to probe TCP options (the Figure 7
/// mechanism: middleboxes and odd stacks silently drop "anomalous" SYNs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionSensitivity {
    /// Accepts any SYN, optionless included (the vast majority).
    AcceptsAny,
    /// Drops SYNs carrying no TCP options.
    RequiresAnyOption,
    /// Drops SYNs with fewer than two options (the >99.99%-of-MSS tail).
    RequiresMultiOption,
    /// Accepts only exact OS option orderings (Linux/BSD/Windows), not
    /// the byte-optimal packing (the 0.0023% tail).
    RequiresOsOrdering,
}

impl OptionSensitivity {
    /// Whether a probe with `opts` from `layout` gets through.
    pub fn accepts(&self, layout: OptionLayout, opts: &OptionSet) -> bool {
        match self {
            OptionSensitivity::AcceptsAny => true,
            OptionSensitivity::RequiresAnyOption => opts.any(),
            OptionSensitivity::RequiresMultiOption => opts.count() >= 2,
            OptionSensitivity::RequiresOsOrdering => matches!(
                layout,
                OptionLayout::Linux | OptionLayout::Bsd | OptionLayout::Windows
            ),
        }
    }
}

/// What a live host does with a SYN to one of its closed ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosedPort {
    /// Sends an RST.
    Rst,
    /// Its firewall sends ICMP admin-prohibited.
    AdminProhibited,
    /// Stays silent.
    Silent,
}

/// Everything the responder needs to know about one live host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProfile {
    /// The host's address.
    pub ip: u32,
    /// TCP stack flavor.
    pub os: StackOs,
    /// SYN-path option filtering.
    pub sensitivity: OptionSensitivity,
    /// Answers ICMP echo?
    pub echoes: bool,
    /// Closed ports: sends RST? (else silent or ICMP, see `icmp_closed`)
    pub rst_on_closed: bool,
    /// Closed ports: sends ICMP admin-prohibited instead.
    pub icmp_on_closed: bool,
    /// Number of duplicate copies of each response this host sends
    /// *in addition to* the first (0 for normal hosts; blowback hosts
    /// send 10s–1000s, Goldblatt et al.).
    pub blowback_extra: u32,
    /// One-way latency to this host in nanoseconds (5–150 ms).
    pub owd_ns: u64,
}

/// One address's draws, each made when it is first read, so a reply pays
/// only for the fields it looks at. Every draw keeps its salt, so each
/// field has the value [`host_profile`] gives it. Liveness and OS are
/// memoised: several header fields read them.
#[derive(Debug)]
pub struct HostDraws<'m> {
    /// The world seed.
    pub seed: u64,
    /// The address.
    pub ip: u32,
    /// The population the address belongs to.
    pub model: &'m ServiceModel,
    live: Cell<Option<bool>>,
    os: Cell<Option<StackOs>>,
}

impl<'m> HostDraws<'m> {
    /// No draw made yet.
    pub fn new(seed: u64, ip: u32, model: &'m ServiceModel) -> Self {
        HostDraws { seed, ip, model, live: Cell::new(None), os: Cell::new(None) }
    }

    /// Whether the address is a live host.
    pub fn live(&self) -> bool {
        memo(&self.live, || below(self.seed, self.ip, salt::LIVE, self.model.live_fraction))
    }

    /// The host's TCP stack.
    pub fn os(&self) -> StackOs {
        memo(&self.os, || match unit(hash3(self.seed, self.ip, salt::OS)) {
            u if u < 0.55 => StackOs::Linux,
            u if u < 0.80 => StackOs::Windows,
            u if u < 0.85 => StackOs::Bsd,
            _ => StackOs::Embedded,
        })
    }

    /// The host's SYN-path option filter.
    pub fn sensitivity(&self) -> OptionSensitivity {
        use OptionSensitivity::*;
        let m = self.model;
        // Nested thresholds: the picky tails are subsets of "requires options".
        let os = m.requires_os_ordering;
        let multi = os + m.requires_multi_option;
        let any = multi + m.requires_any_option;
        let tiers = [(os, RequiresOsOrdering), (multi, RequiresMultiOption), (any, RequiresAnyOption)];
        tiered(self.seed, self.ip, salt::OPTION, &tiers, AcceptsAny)
    }

    /// The host's answer to a SYN on a closed port.
    pub fn closed_port(&self) -> ClosedPort {
        let (rst, icmp) = (self.model.rst_on_closed, self.model.icmp_on_closed);
        let tiers = [(rst, ClosedPort::Rst), (rst + icmp, ClosedPort::AdminProhibited)];
        tiered(self.seed, self.ip, salt::CLOSED, &tiers, ClosedPort::Silent)
    }

    /// Whether the host answers ICMP echo.
    pub fn echoes(&self) -> bool {
        below(self.seed, self.ip, salt::ECHO, self.model.echo_reply)
    }

    /// Copies of each reply the host sends beyond the first: 0 for most,
    /// and for a blowback host a heavy-tailed count in [10, max]
    /// (power-law-ish: most send tens of duplicates, a few thousands — the
    /// "tens of thousands of response packets" Goldblatt et al. observed).
    pub fn blowback_extra(&self) -> u32 {
        let max = self.model.blowback_max;
        if !below(self.seed, self.ip, salt::BLOWBACK, self.model.blowback_fraction) {
            return 0;
        }
        if max < 10 {
            return max;
        }
        let u = unit(hash3(self.seed, self.ip, salt::BLOWBACK_COUNT)).max(1e-9);
        // Pareto with alpha≈1: count = 10 / u, capped.
        ((10.0 / u) as u64).min(u64::from(max)) as u32
    }

    /// One-way delay in nanoseconds: 5–150 ms, roughly log-uniform, to a
    /// live host; dead space still has routing distance, 5–50 ms.
    pub fn owd_ns(&self) -> u64 {
        if !self.live() {
            return 5_000_000 + hash3(self.seed, self.ip, salt::DEAD_RTT) % 45_000_000;
        }
        let owd_ms = 5.0 * (30.0f64).powf(unit(hash3(self.seed, self.ip, salt::RTT)));
        (owd_ms * 1e6) as u64
    }
}

/// `cell`'s value, drawn into it on first use.
fn memo<T: Copy>(cell: &Cell<Option<T>>, draw: impl FnOnce() -> T) -> T {
    cell.get().unwrap_or_else(|| {
        let v = draw();
        cell.set(Some(v));
        v
    })
}

/// Derives the profile for `ip`, or `None` if the address is not a live
/// host under `model`: every [`HostDraws`] field, drawn at once.
pub fn host_profile(seed: u64, ip: u32, model: &ServiceModel) -> Option<HostProfile> {
    let h = HostDraws::new(seed, ip, model);
    if !h.live() {
        return None;
    }
    let closed = h.closed_port();
    Some(HostProfile {
        ip,
        os: h.os(),
        sensitivity: h.sensitivity(),
        echoes: h.echoes(),
        rst_on_closed: closed == ClosedPort::Rst,
        icmp_on_closed: closed == ClosedPort::AdminProhibited,
        blowback_extra: h.blowback_extra(),
        owd_ns: h.owd_ns(),
    })
}

/// Whether live host `ip` has `port` open.
pub fn port_open(seed: u64, ip: u32, port: u16, model: &ServiceModel) -> bool {
    below(seed, ip, salt::PORT_BASE + u64::from(port), model.port_open_prob(port))
}

/// Whether `ip` sits behind an always-SYN-ACK middlebox (decided per
/// /24 prefix: packed prefixes answer for their whole block).
pub fn middlebox(seed: u64, ip: u32, model: &ServiceModel) -> bool {
    below(seed, ip >> 8, salt::MIDDLEBOX, model.middlebox_fraction)
}

/// Whether a dead address draws an upstream ICMP host-unreachable. Dead
/// space dominates a realistic walk, and a world without unreachables
/// (every transport bench runs one) skips the hash here.
pub fn dead_unreach(seed: u64, ip: u32, model: &ServiceModel) -> bool {
    below(seed, ip, salt::UNREACH, model.unreach_for_dead)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ServiceModel {
        ServiceModel::default()
    }

    /// The eager derivation `HostDraws` replaced, verbatim (plus the dead
    /// space delay the world drew): every draw made up front.
    mod eager {
        use super::super::{salt, HostProfile, OptionSensitivity, StackOs};
        use crate::services::ServiceModel;
        use crate::{hash3, unit};

        pub fn host_profile(seed: u64, ip: u32, model: &ServiceModel) -> Option<HostProfile> {
            if unit(hash3(seed, ip, salt::LIVE)) >= model.live_fraction {
                return None;
            }
            let os = match unit(hash3(seed, ip, salt::OS)) {
                u if u < 0.55 => StackOs::Linux,
                u if u < 0.80 => StackOs::Windows,
                u if u < 0.85 => StackOs::Bsd,
                _ => StackOs::Embedded,
            };
            let u_opt = unit(hash3(seed, ip, salt::OPTION));
            let sensitivity = if u_opt < model.requires_os_ordering {
                OptionSensitivity::RequiresOsOrdering
            } else if u_opt < model.requires_os_ordering + model.requires_multi_option {
                OptionSensitivity::RequiresMultiOption
            } else if u_opt
                < model.requires_os_ordering + model.requires_multi_option + model.requires_any_option
            {
                OptionSensitivity::RequiresAnyOption
            } else {
                OptionSensitivity::AcceptsAny
            };
            let u_closed = unit(hash3(seed, ip, salt::CLOSED));
            let rst_on_closed = u_closed < model.rst_on_closed;
            let icmp_on_closed =
                !rst_on_closed && u_closed < model.rst_on_closed + model.icmp_on_closed;
            let blowback_extra = if unit(hash3(seed, ip, salt::BLOWBACK)) < model.blowback_fraction {
                sample_blowback_count(hash3(seed, ip, salt::BLOWBACK_COUNT), model.blowback_max)
            } else {
                0
            };
            let owd_ms = 5.0 * (30.0f64).powf(unit(hash3(seed, ip, salt::RTT)));
            Some(HostProfile {
                ip,
                os,
                sensitivity,
                echoes: unit(hash3(seed, ip, salt::ECHO)) < model.echo_reply,
                rst_on_closed,
                icmp_on_closed,
                blowback_extra,
                owd_ns: (owd_ms * 1e6) as u64,
            })
        }

        pub fn dead_owd_ns(seed: u64, ip: u32) -> u64 {
            5_000_000 + hash3(seed, ip, 0xDE1A) % 45_000_000
        }

        pub fn port_open(seed: u64, ip: u32, port: u16, model: &ServiceModel) -> bool {
            let p = model.port_open_prob(port);
            if p <= 0.0 {
                return false;
            }
            if p >= 1.0 {
                return true;
            }
            unit(hash3(seed, ip, salt::PORT_BASE + u64::from(port))) < p
        }

        pub fn middlebox(seed: u64, ip: u32, model: &ServiceModel) -> bool {
            if model.middlebox_fraction <= 0.0 {
                return false;
            }
            unit(hash3(seed, ip >> 8, salt::MIDDLEBOX)) < model.middlebox_fraction
        }

        pub fn dead_unreach(seed: u64, ip: u32, model: &ServiceModel) -> bool {
            if model.unreach_for_dead <= 0.0 {
                return false;
            }
            unit(hash3(seed, ip, salt::UNREACH)) < model.unreach_for_dead
        }

        fn sample_blowback_count(h: u64, max: u32) -> u32 {
            if max < 10 {
                return max;
            }
            let u = unit(h).max(1e-9);
            let c = (10.0 / u) as u64;
            c.min(u64::from(max)) as u32
        }
    }

    /// A threshold of one of five kinds: below 0, 0, `level` (interior),
    /// 1, or past 1.
    fn threshold(kind: u8, level: f64) -> f64 {
        match kind {
            0 => -0.01 - level,
            1 => 0.0,
            2 => level,
            3 => 1.0,
            _ => 1.0 + level,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn lazy_draws_equal_the_eager_profile(
            seed in proptest::any::<u64>(),
            ip in proptest::any::<u32>(),
            kinds in proptest::collection::vec(0u8..5, 11..12),
            levels in proptest::collection::vec(0.0f64..1.0, 11..12),
            blowback_max in 0u32..20_000,
            port in proptest::any::<u16>(),
        ) {
            let t = |i: usize| threshold(kinds[i], levels[i]);
            let m = ServiceModel {
                live_fraction: t(0),
                default_port_open: t(1),
                echo_reply: t(2),
                rst_on_closed: t(3),
                icmp_on_closed: t(4),
                requires_any_option: t(5),
                requires_multi_option: t(6),
                requires_os_ordering: t(7),
                blowback_fraction: t(8),
                blowback_max,
                unreach_for_dead: t(9),
                middlebox_fraction: t(10),
                ..ServiceModel::default()
            };
            let want = eager::host_profile(seed, ip, &m);
            proptest::prop_assert_eq!(host_profile(seed, ip, &m), want);
            // Each field read first, on its own draws, and in reply order
            // on shared ones: memoisation must not depend on the order.
            let fresh = || HostDraws::new(seed, ip, &m);
            let shared = fresh();
            proptest::prop_assert_eq!(shared.owd_ns(), fresh().owd_ns());
            proptest::prop_assert_eq!(shared.live(), want.is_some());
            proptest::prop_assert_eq!(fresh().live(), want.is_some());
            match want {
                Some(p) => {
                    proptest::prop_assert_eq!(shared.owd_ns(), p.owd_ns);
                    for h in [&shared, &fresh()] {
                        proptest::prop_assert_eq!(h.os(), p.os);
                        proptest::prop_assert_eq!(h.sensitivity(), p.sensitivity);
                        proptest::prop_assert_eq!(h.echoes(), p.echoes);
                        proptest::prop_assert_eq!(h.closed_port() == ClosedPort::Rst, p.rst_on_closed);
                        proptest::prop_assert_eq!(
                            h.closed_port() == ClosedPort::AdminProhibited,
                            p.icmp_on_closed
                        );
                        proptest::prop_assert_eq!(h.blowback_extra(), p.blowback_extra);
                    }
                }
                None => proptest::prop_assert_eq!(shared.owd_ns(), eager::dead_owd_ns(seed, ip)),
            }
            for port in [port, 80] {
                proptest::prop_assert_eq!(port_open(seed, ip, port, &m), eager::port_open(seed, ip, port, &m));
            }
            proptest::prop_assert_eq!(middlebox(seed, ip, &m), eager::middlebox(seed, ip, &m));
            proptest::prop_assert_eq!(dead_unreach(seed, ip, &m), eager::dead_unreach(seed, ip, &m));
        }
    }

    #[test]
    fn below_skips_the_hash_only_where_the_threshold_decides() {
        for ip in 0..1000u32 {
            let u = unit(hash3(4, ip, 77));
            for p in [-1.0, 0.0, 1e-9, 0.5, 1.0 - 1e-12, 1.0, 3.0] {
                assert_eq!(below(4, ip, 77, p), u < p, "ip {ip} p {p}");
            }
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let m = model();
        for ip in 0..2000u32 {
            assert_eq!(host_profile(9, ip, &m), host_profile(9, ip, &m));
        }
    }

    #[test]
    fn live_fraction_is_respected() {
        let m = model();
        let n = 200_000u32;
        let live = (0..n).filter(|&ip| host_profile(3, ip, &m).is_some()).count();
        let frac = live as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.005, "live fraction {frac}");
    }

    #[test]
    fn port_open_rates_track_model() {
        let m = model();
        let n = 100_000u32;
        let open80 = (0..n).filter(|&ip| port_open(3, ip, 80, &m)).count() as f64 / n as f64;
        assert!((open80 - 0.25).abs() < 0.02, "port 80 rate {open80}");
        let open_tail =
            (0..n).filter(|&ip| port_open(3, ip, 31337, &m)).count() as f64 / n as f64;
        assert!(open_tail < 0.01, "tail port rate {open_tail}");
    }

    #[test]
    fn option_sensitivity_fractions() {
        let m = model();
        let mut any = 0u32;
        let mut requires = 0u32;
        let n = 400_000u32;
        for ip in 0..n {
            if let Some(p) = host_profile(5, ip, &m) {
                any += 1;
                if p.sensitivity != OptionSensitivity::AcceptsAny {
                    requires += 1;
                }
            }
        }
        let frac = f64::from(requires) / f64::from(any);
        // ~1.8% of live hosts require options.
        assert!(frac > 0.010 && frac < 0.028, "option-requiring {frac}");
    }

    #[test]
    fn sensitivity_acceptance_matrix() {
        use OptionLayout::*;
        let none = NoOptions.carries();
        let mss = MssOnly.carries();
        let linux = Linux.carries();
        let packed = OptimalPacked.carries();

        let s = OptionSensitivity::AcceptsAny;
        assert!(s.accepts(NoOptions, &none));

        let s = OptionSensitivity::RequiresAnyOption;
        assert!(!s.accepts(NoOptions, &none));
        assert!(s.accepts(MssOnly, &mss));

        let s = OptionSensitivity::RequiresMultiOption;
        assert!(!s.accepts(MssOnly, &mss));
        assert!(s.accepts(OptimalPacked, &packed));
        assert!(s.accepts(Linux, &linux));

        let s = OptionSensitivity::RequiresOsOrdering;
        assert!(s.accepts(Linux, &linux));
        assert!(s.accepts(Windows, &Windows.carries()));
        assert!(!s.accepts(OptimalPacked, &packed), "packed is not an OS layout");
    }

    #[test]
    fn blowback_is_rare_and_heavy_tailed() {
        let m = model();
        let mut blowers = Vec::new();
        for ip in 0..3_000_000u32 {
            if let Some(p) = host_profile(11, ip, &m) {
                if p.blowback_extra > 0 {
                    blowers.push(p.blowback_extra);
                }
            }
        }
        assert!(!blowers.is_empty(), "population must contain blowback hosts");
        let max = *blowers.iter().max().unwrap();
        let min = *blowers.iter().min().unwrap();
        assert!(max > 500, "tail should reach hundreds+, max={max}");
        assert!(min >= 10, "floor is 10 duplicates, min={min}");
        assert!(max <= 8192);
    }

    #[test]
    fn latency_is_in_declared_range() {
        let m = model();
        for ip in 0..50_000u32 {
            if let Some(p) = host_profile(2, ip, &m) {
                assert!(p.owd_ns >= 4_900_000, "{}", p.owd_ns);
                assert!(p.owd_ns <= 151_000_000, "{}", p.owd_ns);
            }
        }
    }

    #[test]
    fn os_fingerprints() {
        assert_eq!(StackOs::Linux.initial_ttl(), 64);
        assert_eq!(StackOs::Windows.initial_ttl(), 128);
        assert_eq!(StackOs::Linux.reply_layout(), OptionLayout::Linux);
        assert_eq!(StackOs::Embedded.reply_layout(), OptionLayout::MssOnly);
    }

    #[test]
    fn dense_model_every_host_lives() {
        let m = ServiceModel::dense(&[80]);
        for ip in 0..100u32 {
            let p = host_profile(1, ip, &m).expect("dense model: all live");
            assert_eq!(p.sensitivity, OptionSensitivity::AcceptsAny);
            assert!(port_open(1, ip, 80, &m));
            assert!(!port_open(1, ip, 81, &m));
        }
    }
}
