//! Completion metadata — stream #4: a machine-readable record of what
//! ran, with what configuration, and what happened.
//!
//! §5: "Be liberal in what environment and execution information is
//! included in scan metadata, as it is difficult to know a priori what
//! will be useful."

use crate::config::ScanConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use zmap_metrics::{HistogramSnapshot, TraceSnapshot};
use zmap_targets::Walk;

/// Machine-readable scan metadata, serialized as a single JSON object at
/// scan completion.
#[derive(Debug, Clone, Serialize)]
pub struct ScanMetadata {
    /// Library version (Cargo package version).
    pub version: String,
    /// Configuration echo.
    pub config: ConfigEcho,
    /// The permutation parameters — enough to reproduce the exact probe
    /// order of this scan.
    pub permutation: PermutationEcho,
    /// Outcome counters.
    pub counters: Counters,
    /// Virtual duration of the scan in nanoseconds.
    pub duration_ns: u64,
    /// Engine latency histograms by name (probe RTT, batch flush span,
    /// checkpoint journal bytes, cooldown drain), sorted by key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Bounded trace of scan lifecycle events, sorted by virtual time.
    pub trace: TraceSnapshot,
    /// `probe_rtt_ns` samples one probe in this many, chosen by a fixed
    /// hash of the target.
    pub rtt_sample_one_in: u64,
}

/// The serializable subset of [`ScanConfig`]. `Serialize` is written by
/// hand (below) so the two v6-only fields are *skipped* when `None`: the
/// config digest serializes this echo, and a v4 config must keep its
/// pre-v6 byte-identical JSON.
#[derive(Debug, Clone)]
pub struct ConfigEcho {
    pub source_ip: String,
    /// IPv6 wire source address; present only in v6 mode.
    pub ipv6_source: Option<String>,
    /// The full prefix-list contents in v6 mode. Folding the list into
    /// the echo makes the config digest — and so checkpoint-resume
    /// compatibility — cover the target space.
    pub prefix_list: Option<String>,
    pub seed: u64,
    pub ports: Vec<u16>,
    pub probe: String,
    pub rate_pps: u64,
    pub probes_per_target: u32,
    pub cooldown_secs: u64,
    pub shard: u32,
    pub num_shards: u32,
    pub subshards: u32,
    pub shard_algorithm: String,
    pub option_layout: String,
    pub ip_id: String,
    /// Stealth re-key block count; present only when re-keying is on.
    pub rekey_blocks: Option<u32>,
    /// The walk's name; present only for the two Blackrock walks.
    pub walk: Option<String>,
    pub dedup: String,
    pub max_retries: u32,
}

impl Serialize for ConfigEcho {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let extra = self.ipv6_source.is_some() as usize
            + self.prefix_list.is_some() as usize
            + self.rekey_blocks.is_some() as usize
            + self.walk.is_some() as usize;
        let mut st = serializer.serialize_struct("ConfigEcho", 15 + extra)?;
        st.serialize_field("source_ip", &self.source_ip)?;
        // v6-only fields ride between source_ip and seed, but only when
        // present — absent fields must leave no trace in the JSON.
        if let Some(v6) = &self.ipv6_source {
            st.serialize_field("ipv6_source", v6)?;
        }
        if let Some(list) = &self.prefix_list {
            st.serialize_field("prefix_list", list)?;
        }
        st.serialize_field("seed", &self.seed)?;
        st.serialize_field("ports", &self.ports)?;
        st.serialize_field("probe", &self.probe)?;
        st.serialize_field("rate_pps", &self.rate_pps)?;
        st.serialize_field("probes_per_target", &self.probes_per_target)?;
        st.serialize_field("cooldown_secs", &self.cooldown_secs)?;
        st.serialize_field("shard", &self.shard)?;
        st.serialize_field("num_shards", &self.num_shards)?;
        st.serialize_field("subshards", &self.subshards)?;
        st.serialize_field("shard_algorithm", &self.shard_algorithm)?;
        st.serialize_field("option_layout", &self.option_layout)?;
        st.serialize_field("ip_id", &self.ip_id)?;
        // Like the v6 fields: only stealth configs carry the re-key echo,
        // so classic configs keep their pre-stealth byte-identical JSON
        // (and so their pre-stealth config digest).
        if let Some(blocks) = &self.rekey_blocks {
            st.serialize_field("rekey_blocks", blocks)?;
        }
        if let Some(walk) = &self.walk {
            st.serialize_field("walk", walk)?;
        }
        st.serialize_field("dedup", &self.dedup)?;
        st.serialize_field("max_retries", &self.max_retries)?;
        st.end()
    }
}

/// Cyclic-group walk parameters.
#[derive(Debug, Clone, Serialize)]
pub struct PermutationEcho {
    pub group_prime: u64,
    pub generator: u64,
    pub offset: u64,
}

/// Declares the counter set once. Each row is `field => Variant` under
/// its doc line; the macro generates [`Counters`] (one `u64` field per
/// row, serialized in row order), [`CounterId`] (one variant per row,
/// discriminant = row index), and the by-id accessors every consumer —
/// the metrics registry, the checkpoint journal, the status stream —
/// iterates instead of restating the list. Adding a counter is one row.
macro_rules! counter_table {
    ($($(#[$doc:meta])* $field:ident => $id:ident,)*) => {
        /// Outcome counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// Index of each [`Counters`] field in the metrics registry's
        /// counter bank, in declaration order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum CounterId {
            $($(#[$doc])* $id,)*
        }

        impl CounterId {
            /// Every counter, in declaration (= JSON key = journal) order.
            pub const ALL: &'static [CounterId] = &[$(CounterId::$id,)*];

            /// The counter's [`Counters`] field name: its JSON key and
            /// its journal `counter <name>` tag.
            pub const fn name(self) -> &'static str {
                match self {
                    $(CounterId::$id => stringify!($field),)*
                }
            }
        }

        impl Counters {
            /// Reads one counter by id.
            #[inline]
            pub fn get(&self, id: CounterId) -> u64 {
                match id {
                    $(CounterId::$id => self.$field,)*
                }
            }

            /// Mutable access to one counter by id.
            #[inline]
            pub fn get_mut(&mut self, id: CounterId) -> &mut u64 {
                match id {
                    $(CounterId::$id => &mut self.$field,)*
                }
            }
        }
    };
}

counter_table! {
    /// Targets walked (decoded from the permutation) in this shard.
    targets_total => TargetsTotal,
    /// Probes sent.
    sent => Sent,
    /// Responses that validated (cookie matched).
    responses_validated => ResponsesValidated,
    /// Frames that parsed but failed validation / were not ours.
    responses_discarded => ResponsesDiscarded,
    /// Duplicate responses suppressed by dedup.
    duplicates_suppressed => DuplicatesSuppressed,
    /// Unique successful targets (open/answering).
    unique_successes => UniqueSuccesses,
    /// Unique failed targets (RST/unreachable).
    unique_failures => UniqueFailures,
    /// Send attempts retried after a transient transport failure.
    send_retries => SendRetries,
    /// Probes abandoned after exhausting retries (never sent).
    sendto_failures => SendtoFailures,
    /// Responses rejected by checksum validation (bit errors in flight).
    responses_corrupted => ResponsesCorrupted,
    /// Checkpoint journals written (periodic plus final).
    checkpoints_written => CheckpointsWritten,
    /// Times this scan has been resumed from a checkpoint journal
    /// (cumulative across attempts).
    resume_count => ResumeCount,
    /// Cooldown drains with no virtual-clock or counter progress that
    /// the watchdog broke out of.
    watchdog_stalls => WatchdogStalls,
    /// 1 when the engine exited through the orderly shutdown path
    /// (cooldown drained, streams flushed, final checkpoint written);
    /// 0 when it was killed mid-flight.
    shutdown_clean => ShutdownClean,
    /// Jobs the supervisor admitted to the worker pool (supervisor runs
    /// only; always 0 for a standalone scan).
    jobs_admitted => JobsAdmitted,
    /// Worker attempts restarted after a death (kill, panic, or
    /// watchdog stall) — each restart replays the job's journal.
    worker_restarts => WorkerRestarts,
    /// Jobs the circuit breaker parked as `degraded` after exhausting
    /// the restart budget, instead of crash-looping.
    jobs_degraded => JobsDegraded,
    /// Checkpoint journals migrated onto a fresh worker (a restart that
    /// had a journal to rewind; first-attempt retries without one are
    /// restarts but not migrations).
    migrations => Migrations,
}

/// Number of counters (the width of the registry's counter bank).
pub const COUNTER_WIDTH: usize = CounterId::ALL.len();

impl ConfigEcho {
    /// Extracts the echo from a config.
    pub fn from_config(cfg: &ScanConfig) -> Self {
        ConfigEcho {
            source_ip: cfg.source_ip.to_string(),
            ipv6_source: cfg.ipv6.as_ref().map(|v6| v6.source_ip.to_string()),
            prefix_list: cfg.ipv6.as_ref().map(|v6| v6.prefix_list.clone()),
            seed: cfg.seed,
            ports: cfg.ports.clone(),
            probe: format!("{:?}", cfg.probe),
            rate_pps: cfg.rate_pps,
            probes_per_target: cfg.probes_per_target,
            cooldown_secs: cfg.cooldown_secs,
            shard: cfg.shard,
            num_shards: cfg.num_shards,
            subshards: cfg.subshards,
            shard_algorithm: format!("{:?}", cfg.shard_algorithm),
            option_layout: format!("{:?}", cfg.option_layout),
            ip_id: format!("{:?}", cfg.ip_id),
            rekey_blocks: if let Walk::Rekeyed(blocks) = cfg.walk { Some(blocks) } else { None },
            walk: matches!(cfg.walk, Walk::Blackrock | Walk::LegacyBlackrock)
                .then(|| format!("{:?}", cfg.walk)),
            dedup: format!("{:?}", cfg.dedup),
            max_retries: cfg.max_retries,
        }
    }
}

impl ScanMetadata {
    /// Serializes to the canonical single-line JSON form.
    ///
    /// # Panics
    /// Never in practice: every field is a number, string, map or list,
    /// which the serializer cannot refuse.
    #[expect(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metadata is always serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn counter_table_names_match_the_json_keys_and_accessors() {
        let mut c = Counters::default();
        let mut members = Vec::new();
        for (i, &id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id as usize, i, "discriminant is the row index");
            let value = i as u64 + 1;
            *c.get_mut(id) = value;
            assert_eq!(c.get(id), value, "{}", id.name());
            members.push(format!("\"{}\":{value}", id.name()));
        }
        // One JSON member per row, keyed by `name()`, in row order.
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, format!("{{{}}}", members.join(",")));
        let names: std::collections::BTreeSet<_> =
            CounterId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(names.len(), COUNTER_WIDTH, "names are unique");
    }

    #[test]
    fn metadata_roundtrips_through_json() {
        let cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        let mut rtt = zmap_metrics::Log2Histogram::new();
        rtt.record(50_000);
        rtt.record(75_000);
        let mut trace = TraceSnapshot::default();
        trace.events.push(zmap_metrics::TraceEventSnapshot {
            t_ns: 0,
            kind: "scan_start".into(),
            detail: 100,
        });
        let md = ScanMetadata {
            version: env!("CARGO_PKG_VERSION").to_string(),
            config: ConfigEcho::from_config(&cfg),
            permutation: PermutationEcho {
                group_prime: 4_294_967_311,
                generator: 12345,
                offset: 42,
            },
            counters: Counters {
                targets_total: 100,
                sent: 100,
                responses_validated: 37,
                responses_discarded: 2,
                duplicates_suppressed: 1,
                unique_successes: 30,
                unique_failures: 6,
                send_retries: 4,
                sendto_failures: 1,
                responses_corrupted: 2,
                checkpoints_written: 3,
                resume_count: 1,
                watchdog_stalls: 0,
                shutdown_clean: 1,
                jobs_admitted: 2,
                worker_restarts: 3,
                jobs_degraded: 1,
                migrations: 2,
            },
            duration_ns: 5_000_000_000,
            histograms: BTreeMap::from([("probe_rtt_ns".into(), rtt.snapshot())]),
            trace,
            rtt_sample_one_in: 64,
        };
        let json = md.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["config"]["source_ip"], "192.0.2.1");
        assert_eq!(v["permutation"]["group_prime"], 4_294_967_311u64);
        assert_eq!(v["counters"]["unique_successes"], 30);
        assert_eq!(v["config"]["rate_pps"], 10_000);
        assert_eq!(v["counters"]["send_retries"], 4);
        assert_eq!(v["counters"]["sendto_failures"], 1);
        assert_eq!(v["counters"]["responses_corrupted"], 2);
        assert_eq!(v["counters"]["checkpoints_written"], 3);
        assert_eq!(v["counters"]["resume_count"], 1);
        assert_eq!(v["counters"]["watchdog_stalls"], 0);
        assert_eq!(v["counters"]["shutdown_clean"], 1);
        assert_eq!(v["counters"]["jobs_admitted"], 2);
        assert_eq!(v["counters"]["worker_restarts"], 3);
        assert_eq!(v["counters"]["jobs_degraded"], 1);
        assert_eq!(v["counters"]["migrations"], 2);
        assert!(v["config"]["max_retries"].is_u64());
        assert!(v["version"].as_str().unwrap().contains('.'));
        assert_eq!(v["histograms"]["probe_rtt_ns"]["count"], 2);
        assert_eq!(v["trace"]["events"][0]["kind"], "scan_start");
        assert_eq!(v["rtt_sample_one_in"], 64);
    }

    #[test]
    fn v6_echo_fields_are_absent_for_v4_configs() {
        // The config digest serializes this echo: a v4 config must
        // produce byte-identical JSON to pre-v6 builds (no null fields),
        // while a v6 config folds the prefix list into the digest.
        let cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        let json = serde_json::to_string(&ConfigEcho::from_config(&cfg)).unwrap();
        assert!(!json.contains("ipv6_source"), "{json}");
        assert!(!json.contains("prefix_list"), "{json}");

        let mut v6 = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        v6.ipv6 = Some(crate::config::Ipv6Config {
            source_ip: "2001:db8::1".parse().unwrap(),
            prefix_list: "2001:db8:a::/48 pattern=low bits=4\n".into(),
        });
        let echo = ConfigEcho::from_config(&v6);
        assert_eq!(echo.ipv6_source.as_deref(), Some("2001:db8::1"));
        assert!(echo.prefix_list.as_deref().unwrap().contains("/48"));
    }

    #[test]
    fn walk_echo_absent_for_classic_configs() {
        // Same contract as the v6 fields: a cyclic config's echo JSON
        // (and so its config digest) must not change because the walk
        // fields exist, nor a stealth one's because `walk` does.
        let echo = |walk| {
            let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
            cfg.walk = walk;
            serde_json::to_string(&ConfigEcho::from_config(&cfg)).unwrap()
        };
        let json = echo(Walk::Cyclic);
        assert!(
            !json.contains("rekey_blocks") && !json.contains("walk"),
            "{json}"
        );
        let json = echo(Walk::Rekeyed(16));
        assert!(
            json.contains("\"rekey_blocks\":16") && !json.contains("walk"),
            "{json}"
        );
        let json = echo(Walk::LegacyBlackrock);
        assert!(
            json.contains("\"walk\":\"LegacyBlackrock\",\"dedup\""),
            "{json}"
        );
        assert!(!json.contains("rekey_blocks"), "{json}");
    }

    #[test]
    fn config_echo_captures_ports_and_shards() {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        cfg.ports = vec![80, 443];
        cfg.shard = 2;
        cfg.num_shards = 5;
        let echo = ConfigEcho::from_config(&cfg);
        assert_eq!(echo.ports, vec![80, 443]);
        assert_eq!(echo.shard, 2);
        assert_eq!(echo.num_shards, 5);
        assert!(echo.shard_algorithm.contains("Pizza"));
    }
}
