//! Scan configuration — the library-level equivalent of ZMap's CLI flags.

use serde::Serialize;
use std::net::{Ipv4Addr, Ipv6Addr};
use zmap_targets::parse::default_blocklist;
use zmap_targets::{Constraint, ShardAlgorithm, Walk};
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;

/// Which probe module to run (ZMap ships many; these are the core three).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ProbeKind {
    /// TCP SYN scan ("tcp_synscan", the default).
    TcpSyn,
    /// ICMP echo scan ("icmp_echoscan").
    IcmpEcho,
    /// UDP probe with a fixed payload ("udp").
    Udp(Vec<u8>),
}

/// Response deduplication strategy (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DedupMethod {
    /// No deduplication (every response is reported).
    None,
    /// Exact paged bitmap — single-port scans only (512 MB worst case).
    FullBitmap,
    /// Sliding window of the last n distinct targets (ZMap default,
    /// n = 10^6).
    Window(usize),
}

/// IPv6 scanning mode (XMap-style, see DESIGN.md §11). When set, the
/// target space is the prefix list below — walked per-prefix by
/// `zmap_targets::V6TargetSpace` — instead of the IPv4 constraint, and
/// probes are built by the v6 wire path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Config {
    /// Scanner IPv6 source address (the wire-level source; the IPv4
    /// `source_ip` still names the simulator endpoint the scanner is
    /// attached to).
    pub source_ip: Ipv6Addr,
    /// Prefix-list file *contents*, one `prefix/len [pattern=] [bits=]
    /// [density=]` spec per line. The CLI reads `--prefix-list` into
    /// this; the library never touches the filesystem.
    pub prefix_list: String,
}

/// Everything a scan needs. Construct with [`ScanConfig::new`] and adjust
/// fields; [`validate`](Self::validate) is the gate every scan passes.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Scanner source address.
    pub source_ip: Ipv4Addr,
    /// Scan seed: fixes the permutation, validation key, and all
    /// procedural choices. Random per scan in real deployments.
    pub seed: u64,
    /// Target ports (ignored by the ICMP module).
    pub ports: Vec<u16>,
    /// Probe module.
    pub probe: ProbeKind,
    /// Address constraint (allowlist/blocklist composition). Ignored in
    /// IPv6 mode, where `ipv6.prefix_list` defines the target space.
    pub constraint: Constraint,
    /// IPv6 mode: `Some` switches target generation, probe construction,
    /// and dedup keying to the 128-bit path.
    pub ipv6: Option<Ipv6Config>,
    /// Apply the IANA reserved-space blocklist on top of the constraint
    /// (ZMap always does unless explicitly overridden).
    pub apply_default_blocklist: bool,
    /// Probes per second.
    pub rate_pps: u64,
    /// Probes sent per target (ZMap `--probes`, default 1).
    pub probes_per_target: u32,
    /// Stop after this many targets (0 = whole shard).
    pub max_targets: u64,
    /// Stop after this many unique successful results (0 = unlimited).
    pub max_results: u64,
    /// Seconds to keep listening after the last probe (ZMap `--cooldown`,
    /// default 8).
    pub cooldown_secs: u64,
    /// This machine's shard and the shard count.
    pub shard: u32,
    pub num_shards: u32,
    /// Send "threads" (subshards). The simulator engine interleaves them
    /// on one thread; the partition semantics match threaded ZMap.
    pub subshards: u32,
    /// Sharding algorithm (pizza since 2017).
    pub shard_algorithm: ShardAlgorithm,
    /// TCP option layout for SYN probes (§4.3; default MSS-only).
    pub option_layout: OptionLayout,
    /// IP ID policy (§4.3; default random since 2024).
    pub ip_id: IpIdMode,
    /// The v4 walk order (default [`Walk::Cyclic`]). [`Walk::Rekeyed`] is
    /// the stealth walk: independently keyed blocks in seeded order, so a
    /// darknet cannot recover one permutation from the observed probe
    /// order (Mazel & Strullu countermeasure); CLI `--stealth` and
    /// `--rekey-blocks` set it. The two Blackrock walks are Masscan's
    /// order (§3), with no CLI flag.
    pub walk: Walk,
    /// Deduplication (§4.1; default 10^6-entry sliding window).
    pub dedup: DedupMethod,
    /// Report RST/unreachable (host-alive-but-closed) results too, not
    /// just successes (ZMap's default reports only successes).
    pub report_failures: bool,
    /// Retries per probe when the transport reports a transient send
    /// failure (EAGAIN), each after an exponential virtual-time backoff.
    /// A probe whose retries are exhausted is counted as a send drop.
    pub max_retries: u32,
    /// Frames queued per batched send (ZMap `--batch`, default 64):
    /// probes are rendered into a reusable frame pool and flushed through
    /// one `sendmmsg`-style transport call per batch. A pure performance
    /// knob — the results stream is identical for any value ≥ 1 — so it
    /// is excluded from the config digest.
    pub batch: usize,
    /// Driver selector for front-ends (the CLI, the benchmark adapter):
    /// `true` asks for the threaded driver, `false` for the inline one
    /// ([`Scanner`](crate::Scanner)). Only the gate reads it here — the
    /// threaded driver ([`PreparedScan::run`](crate::PreparedScan::run))
    /// is always one send thread per lane plus a receive loop, whoever
    /// calls it. Like `batch`, it is excluded from the config digest.
    pub tx_pipeline: bool,
    /// Internal: whether `allowlist_prefix` has replaced the default
    /// allow-all constraint yet.
    allowlist_started: bool,
}

impl ScanConfig {
    /// A config with ZMap's defaults: full IPv4 minus the reserved-space
    /// blocklist, TCP/80 SYN scan, 10 kpps, window dedup.
    pub fn new(source_ip: Ipv4Addr) -> Self {
        ScanConfig {
            source_ip,
            seed: 0,
            ports: vec![80],
            probe: ProbeKind::TcpSyn,
            constraint: Constraint::new(true),
            ipv6: None,
            apply_default_blocklist: true,
            rate_pps: 10_000,
            probes_per_target: 1,
            max_targets: 0,
            max_results: 0,
            cooldown_secs: 8,
            shard: 0,
            num_shards: 1,
            subshards: 1,
            shard_algorithm: ShardAlgorithm::Pizza,
            option_layout: OptionLayout::MssOnly,
            ip_id: IpIdMode::Random,
            walk: Walk::Cyclic,
            dedup: DedupMethod::Window(1_000_000),
            report_failures: false,
            max_retries: 3,
            batch: 64,
            tx_pipeline: false,
            allowlist_started: false,
        }
    }

    /// Replaces the constraint with "deny all, allow this prefix" — the
    /// common single-subnet experiment setup. Callable repeatedly to add
    /// prefixes.
    pub fn allowlist_prefix(&mut self, net: Ipv4Addr, len: u8) {
        if self.allowlist_started {
            self.constraint.set_prefix(u32::from(net), len, true);
        } else {
            let mut c = Constraint::new(false);
            c.set_prefix(u32::from(net), len, true);
            self.constraint = c;
            self.allowlist_started = true;
        }
    }

    /// Blocks a prefix (on top of whatever is allowed).
    pub fn blocklist_prefix(&mut self, net: Ipv4Addr, len: u8) {
        self.constraint.set_prefix(u32::from(net), len, false);
    }

    /// The gate for a runnable scan: every rule that reads only this
    /// config's fields, in one place. [`PreparedScan`](crate::PreparedScan)
    /// runs it before it builds anything, and the CLI and the supervisor
    /// run it on their input, so each rule has one definition and one
    /// message. A message names the CLI flag (and the field, where the
    /// two differ). Fields only: the target space itself — the
    /// constraint, the prefix list — is checked where it is built.
    pub fn validate(&self) -> Result<(), String> {
        let window = match self.dedup {
            DedupMethod::Window(n) => n as u64,
            DedupMethod::None | DedupMethod::FullBitmap => 1,
        };
        for (value, flag) in [
            (u64::from(self.num_shards), "--shards (num_shards)"),
            (u64::from(self.subshards), "--threads (subshards)"),
            (self.batch as u64, "--batch"),
            (u64::from(self.probes_per_target), "--probes (probes_per_target)"),
            (self.rate_pps, "--rate (rate_pps)"),
            (window, "--dedup-window"),
        ] {
            if value == 0 {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        if self.shard >= self.num_shards {
            return Err(format!(
                "--shard {} is out of range for --shards {} (shard indices are 0-based)",
                self.shard, self.num_shards
            ));
        }
        // The threaded driver walks each subshard to exhaustion: a global
        // cap counted across racing lanes cannot be deterministic.
        let caps = [(self.max_targets, "--max-targets"), (self.max_results, "--max-results")];
        for (cap, flag) in caps {
            if self.tx_pipeline && cap > 0 {
                return Err(format!(
                    "{flag} is not implemented by the --tx-pipeline engine; drop one of \
                     the two (size a pipelined scan with --subnet or --shard/--shards)"
                ));
            }
        }
        let bitmap = self.dedup == DedupMethod::FullBitmap;
        let why = if bitmap && self.ipv6.is_some() {
            "--full-bitmap-dedup indexes the 2^32 IPv4 space and cannot cover IPv6; \
             use --dedup-window for --ipv6 scans"
        } else if bitmap && self.probe != ProbeKind::IcmpEcho && self.ports.len() > 1 {
            "--full-bitmap-dedup indexes bare IPv4 addresses and cannot tell ports \
             apart; use --dedup-window for multi-port scans"
        } else if self.walk == Walk::Rekeyed(1) {
            "--rekey-blocks 1 is a single-keyed walk with extra steps; use 2 or more \
             blocks (or drop the flag for the classic walk)"
        } else if matches!(self.walk, Walk::Rekeyed(_)) && self.ip_id == IpIdMode::Static {
            "--static-ip-id stamps the fingerprint that --stealth / --rekey-blocks \
             exist to remove; drop one of them"
        } else if self.walk != Walk::Cyclic && self.ipv6.is_some() {
            "--stealth / --rekey-blocks (and the Blackrock walks) order the IPv4 walk \
             and do not apply to --ipv6 scans"
        } else if self.cooldown_secs == 0 && self.max_retries > 0 {
            "--cooldown-secs 0 discards the late responses the --retries budget \
             exists to recover; pass --retries 0 or a nonzero cooldown"
        } else {
            return Ok(());
        };
        Err(why.into())
    }

    /// The final constraint with the default blocklist applied (what the
    /// scanner actually walks). Callers must `finalize()` before counting.
    pub fn effective_constraint(&self) -> Constraint {
        let mut c = self.constraint.clone();
        if self.apply_default_blocklist {
            for cidr in default_blocklist() {
                c.set_prefix(cidr.addr, cidr.len, false);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_zmap() {
        let c = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(c.ports, vec![80]);
        assert_eq!(c.rate_pps, 10_000);
        assert_eq!(c.cooldown_secs, 8);
        assert_eq!(c.option_layout, OptionLayout::MssOnly);
        assert_eq!(c.ip_id, IpIdMode::Random);
        assert_eq!(c.dedup, DedupMethod::Window(1_000_000));
        assert_eq!(c.shard_algorithm, ShardAlgorithm::Pizza);
        assert_eq!(c.batch, 64, "ZMap's sendmmsg batch default");
        assert!(c.apply_default_blocklist);
    }

    /// Every rule of the gate, through the library's front door: each
    /// config is refused by `PreparedScan::new` with the gate's own
    /// message, naming the flag, and the unbroken config builds.
    #[test]
    fn prepared_scan_refuses_every_gate_rule_by_flag() {
        use crate::log::Logger;
        use crate::scanner::PreparedScan;
        let v6 = |c: &mut ScanConfig| {
            c.ipv6 = Some(Ipv6Config {
                source_ip: "2001:db8:ffff::1".parse().unwrap(),
                prefix_list: "2001:db8:a::/48 pattern=low bits=4\n".into(),
            });
        };
        type Tweak = fn(&mut ScanConfig);
        let rows: [(&str, Tweak, &[&str]); 18] = [
            ("v4 shard 3 of 2", |c| (c.shard, c.num_shards) = (3, 2), &["--shard 3", "--shards 2"]),
            ("zero shards", |c| c.num_shards = 0, &["--shards"]),
            ("zero rate", |c| c.rate_pps = 0, &["--rate", "rate_pps"]),
            ("zero probes", |c| c.probes_per_target = 0, &["--probes"]),
            ("zero threads", |c| c.subshards = 0, &["--threads"]),
            ("zero batch", |c| c.batch = 0, &["--batch"]),
            ("dedup window 0", |c| c.dedup = DedupMethod::Window(0), &["--dedup-window"]),
            (
                "bitmap, two ports",
                |c| (c.dedup, c.ports) = (DedupMethod::FullBitmap, vec![80, 443]),
                &["--full-bitmap-dedup", "--dedup-window"],
            ),
            ("rekey 1", |c| c.walk = Walk::Rekeyed(1), &["--rekey-blocks 1"]),
            (
                "rekey, static IP ID",
                |c| (c.walk, c.ip_id) = (Walk::Rekeyed(16), IpIdMode::Static),
                &["--static-ip-id"],
            ),
            (
                "cooldown 0 with retries",
                |c| (c.cooldown_secs, c.max_retries) = (0, 3),
                &["--cooldown-secs 0", "--retries 0"],
            ),
            (
                "pipeline, max targets",
                |c| (c.tx_pipeline, c.max_targets) = (true, 5),
                &["--max-targets", "--tx-pipeline"],
            ),
            (
                "pipeline, max results",
                |c| (c.tx_pipeline, c.max_results) = (true, 5),
                &["--max-results", "--tx-pipeline"],
            ),
            ("v6 shard 2 of 2", |c| (c.shard, c.num_shards) = (2, 2), &["--shard 2"]),
            ("v6 dedup window 0", |c| c.dedup = DedupMethod::Window(0), &["--dedup-window"]),
            ("v6 bitmap", |c| c.dedup = DedupMethod::FullBitmap, &["--full-bitmap-dedup", "--ipv6"]),
            ("v6 rekey", |c| c.walk = Walk::Rekeyed(16), &["--stealth", "--ipv6"]),
            ("v6 blackrock", |c| c.walk = Walk::Blackrock, &["Blackrock", "--ipv6"]),
        ];
        for (name, tweak, needles) in rows {
            let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
            cfg.allowlist_prefix(Ipv4Addr::new(11, 0, 0, 0), 28);
            if name.starts_with("v6") {
                v6(&mut cfg);
            }
            assert!(PreparedScan::new(cfg.clone(), Logger::null()).is_ok(), "{name}: base");
            tweak(&mut cfg);
            let err = PreparedScan::new(cfg.clone(), Logger::null()).err().expect(name);
            let msg = err.to_string();
            assert_eq!(cfg.validate().err().as_deref(), msg.strip_prefix("invalid configuration: "));
            for needle in needles {
                assert!(msg.contains(needle), "{name}: {msg:?} should name {needle:?}");
            }
        }
    }

    #[test]
    fn allowlist_accumulates() {
        let mut c = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        c.allowlist_prefix(Ipv4Addr::new(11, 0, 0, 0), 24);
        c.allowlist_prefix(Ipv4Addr::new(12, 0, 0, 0), 24);
        let mut eff = c.effective_constraint();
        eff.finalize();
        assert_eq!(eff.allowed_count(), 512);
        assert!(eff.is_allowed(u32::from(Ipv4Addr::new(11, 0, 0, 5))));
        assert!(!eff.is_allowed(u32::from(Ipv4Addr::new(13, 0, 0, 5))));
    }

    #[test]
    fn default_blocklist_is_applied() {
        let c = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        let mut eff = c.effective_constraint();
        eff.finalize();
        // Multicast and RFC1918 are gone.
        assert!(!eff.is_allowed(u32::from(Ipv4Addr::new(224, 0, 0, 1))));
        assert!(!eff.is_allowed(u32::from(Ipv4Addr::new(10, 1, 2, 3))));
        assert!(eff.is_allowed(u32::from(Ipv4Addr::new(8, 8, 8, 8))));
        // ~600M addresses blocked.
        let blocked = (1u64 << 32) - eff.allowed_count();
        assert!(blocked > 500_000_000 && blocked < 800_000_000, "{blocked}");
    }

    #[test]
    fn blocklist_on_top_of_allowlist() {
        let mut c = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        c.allowlist_prefix(Ipv4Addr::new(20, 0, 0, 0), 16);
        c.blocklist_prefix(Ipv4Addr::new(20, 0, 5, 0), 24);
        let mut eff = c.effective_constraint();
        eff.finalize();
        assert_eq!(eff.allowed_count(), 65536 - 256);
    }
}
