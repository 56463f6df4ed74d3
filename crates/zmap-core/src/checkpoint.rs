//! Checkpoint journals — crash-tolerant scan state.
//!
//! The paper's architectural claim (§3) is that ZMap's scan state is
//! tiny: a cyclic-group walk is fully described by
//! `(modulus, generator, offset, position)`. This module turns that
//! claim into an operational property. A scan periodically snapshots its
//! identity (seed + config digest + permutation parameters), the
//! per-sender walk positions, the dedup high-water mark and the full
//! [`Counters`] set into a small, versioned, checksummed journal that is
//! written atomically (temp file + rename). Kill the process anywhere
//! and `Scanner::resume` re-enters the walk where the journal left off.
//!
//! # Journal format
//!
//! A line-oriented text document, deliberately dependency-free so a
//! corrupted journal can never half-parse into a plausible state:
//!
//! ```text
//! zmapckpt 2
//! config_digest <u64>
//! seed <u64>
//! group_prime <u64>
//! generator <u64>
//! offset <u64>
//! shard <u32>
//! num_shards <u32>
//! num_subshards <u32>
//! virtual_time_ns <u64>
//! dedup_high_water <u64>
//! complete <0|1>
//! positions <n> <p0> <p1> ... <pn-1>
//! counter <name> <u64>        (one line per Counters field)
//! crc <16 hex digits>
//! ```
//!
//! The `crc` trailer is SipHash-2-4 over every byte that precedes it.
//! Any single-bit flip lands either in the body (checksum mismatch), in
//! the hex digits (mismatch or parse failure), or in the `crc` keyword
//! itself (missing-trailer failure) — a corrupt journal is always
//! rejected whole, never half-loaded.
//!
//! Positions are *element* positions in the group walk (not target
//! counts): rejection sampling in the target decoder means decoded
//! targets are a subsequence of walked elements, and only the element
//! position is sufficient to re-enter the permutation exactly.

use crate::config::ScanConfig;
use crate::metadata::{ConfigEcho, CounterId, Counters};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use zmap_wire::cookie::siphash24;

/// Journal format version. Bump on any incompatible layout change
/// (format 2 dropped the counter of world-lock poison recoveries).
pub const FORMAT_VERSION: u32 = 2;

/// Fixed SipHash key for the journal checksum ("zmapckpt" / 1). It is
/// the same for every format version, so an older journal is refused by
/// its version line rather than by its checksum.
const CRC_K0: u64 = 0x7A6D_6170_636B_7074;
const CRC_K1: u64 = 0x0000_0000_0000_0001;

/// Fixed SipHash key for the config digest.
const DIGEST_K0: u64 = 0x7A6D_6170_6366_6721;
const DIGEST_K1: u64 = 0x0000_0000_0000_0001;

/// How far (in virtual ns) behind the recorded positions a resumed scan
/// re-enters the walk. Probes sent within this horizon of the final
/// checkpoint may have had responses still in flight when the process
/// died; rewinding re-probes them so a kill/resume pair covers exactly
/// the same target set as an uninterrupted run (at-least-once, never
/// at-most-once). 2 s of virtual time comfortably bounds every RTT,
/// reorder jitter and duplicate delay the simulator can produce.
pub const RESUME_GRACE_NS: u64 = 2_000_000_000;

/// Everything needed to resume a scan, plus the cumulative counters so
/// the resumed attempt's metadata reports the truth across attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Digest of the scan configuration (see [`config_digest`]). Resume
    /// refuses a journal whose digest does not match the offered config.
    pub config_digest: u64,
    /// Scan seed (also covered by the digest; stored for inspection).
    pub seed: u64,
    /// Cyclic group modulus.
    pub group_prime: u64,
    /// Walk generator (primitive root of `group_prime`).
    pub generator: u64,
    /// Walk offset.
    pub offset: u64,
    /// Shard assignment of the checkpointed process.
    pub shard: u32,
    pub num_shards: u32,
    pub num_subshards: u32,
    /// Elements consumed per subshard iterator at checkpoint time.
    pub positions: Vec<u64>,
    /// Distinct targets the dedup structure had observed.
    pub dedup_high_water: u64,
    /// Virtual clock at checkpoint time (ns since scan start).
    pub virtual_time_ns: u64,
    /// True only for the final checkpoint of a completed scan.
    pub complete: bool,
    /// Cumulative counters across all attempts so far.
    pub counters: Counters,
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error reading or writing the journal.
    Io(io::Error),
    /// The file does not start with the `zmapckpt` magic.
    BadMagic,
    /// The file is a journal, but from a newer/unknown format version.
    UnsupportedVersion(u32),
    /// No `crc` trailer line found.
    MissingChecksum,
    /// The checksum trailer does not match the body.
    BadChecksum,
    /// Structurally invalid line or value.
    Malformed(String),
    /// A required field never appeared.
    MissingField(&'static str),
    /// The journal is valid but belongs to a different configuration.
    ConfigMismatch { journal: u64, config: u64 },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a zmap checkpoint journal"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version {v} (supported: {FORMAT_VERSION})")
            }
            JournalError::MissingChecksum => write!(f, "journal has no checksum trailer"),
            JournalError::BadChecksum => write!(f, "journal checksum mismatch (corrupt)"),
            JournalError::Malformed(what) => write!(f, "malformed journal: {what}"),
            JournalError::MissingField(name) => write!(f, "journal missing field {name}"),
            JournalError::ConfigMismatch { journal, config } => write!(
                f,
                "journal belongs to a different scan (digest {journal:#018x}, config {config:#018x})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl CheckpointState {
    /// Serializes to the canonical journal byte form, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(&format!("zmapckpt {FORMAT_VERSION}\n"));
        body.push_str(&format!("config_digest {}\n", self.config_digest));
        body.push_str(&format!("seed {}\n", self.seed));
        body.push_str(&format!("group_prime {}\n", self.group_prime));
        body.push_str(&format!("generator {}\n", self.generator));
        body.push_str(&format!("offset {}\n", self.offset));
        body.push_str(&format!("shard {}\n", self.shard));
        body.push_str(&format!("num_shards {}\n", self.num_shards));
        body.push_str(&format!("num_subshards {}\n", self.num_subshards));
        body.push_str(&format!("virtual_time_ns {}\n", self.virtual_time_ns));
        body.push_str(&format!("dedup_high_water {}\n", self.dedup_high_water));
        body.push_str(&format!("complete {}\n", u8::from(self.complete)));
        body.push_str(&format!("positions {}", self.positions.len()));
        for p in &self.positions {
            body.push_str(&format!(" {p}"));
        }
        body.push('\n');
        for &id in CounterId::ALL {
            let (name, value) = (id.name(), self.counters.get(id));
            body.push_str(&format!("counter {name} {value}\n"));
        }
        let crc = siphash24(CRC_K0, CRC_K1, body.as_bytes());
        body.push_str(&format!("crc {crc:016x}\n"));
        body.into_bytes()
    }

    /// Parses and validates a journal. Rejects anything that is not a
    /// byte-exact, checksum-clean, fully-populated document.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| JournalError::Malformed("not UTF-8".into()))?;
        if !text.starts_with("zmapckpt ") {
            return Err(JournalError::BadMagic);
        }
        // Locate the checksum trailer: the last line, which must cover
        // every byte before it. Parsing is byte-strict — exactly
        // `crc <16 lowercase hex>\n`, nothing trailing — so no bit flip
        // can alias to an equivalent spelling (e.g. uppercase hex).
        let crc_at = text.rfind("\ncrc ").ok_or(JournalError::MissingChecksum)?;
        let body = &bytes[..crc_at + 1];
        let trailer = &text[crc_at + 1..];
        let hex = trailer
            .strip_prefix("crc ")
            .and_then(|t| t.strip_suffix('\n'))
            .ok_or(JournalError::MissingChecksum)?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return Err(JournalError::BadChecksum);
        }
        let recorded =
            u64::from_str_radix(hex, 16).map_err(|_| JournalError::BadChecksum)?;
        if siphash24(CRC_K0, CRC_K1, body) != recorded {
            return Err(JournalError::BadChecksum);
        }

        let mut st = CheckpointState {
            config_digest: 0,
            seed: 0,
            group_prime: 0,
            generator: 0,
            offset: 0,
            shard: 0,
            num_shards: 0,
            num_subshards: 0,
            positions: Vec::new(),
            dedup_high_water: 0,
            virtual_time_ns: 0,
            complete: false,
            counters: Counters::default(),
        };
        let mut seen = std::collections::HashSet::new();
        for line in text[..crc_at].lines() {
            let mut words = line.split_whitespace();
            let key = words
                .next()
                .ok_or_else(|| JournalError::Malformed("empty line".into()))?;
            match key {
                "zmapckpt" => {
                    let v = next_u64(&mut words, "version")? as u32;
                    if v != FORMAT_VERSION {
                        return Err(JournalError::UnsupportedVersion(v));
                    }
                }
                "config_digest" => st.config_digest = next_u64(&mut words, "config_digest")?,
                "seed" => st.seed = next_u64(&mut words, "seed")?,
                "group_prime" => st.group_prime = next_u64(&mut words, "group_prime")?,
                "generator" => st.generator = next_u64(&mut words, "generator")?,
                "offset" => st.offset = next_u64(&mut words, "offset")?,
                "shard" => st.shard = next_u64(&mut words, "shard")? as u32,
                "num_shards" => st.num_shards = next_u64(&mut words, "num_shards")? as u32,
                "num_subshards" => {
                    st.num_subshards = next_u64(&mut words, "num_subshards")? as u32
                }
                "virtual_time_ns" => {
                    st.virtual_time_ns = next_u64(&mut words, "virtual_time_ns")?
                }
                "dedup_high_water" => {
                    st.dedup_high_water = next_u64(&mut words, "dedup_high_water")?
                }
                "complete" => st.complete = next_u64(&mut words, "complete")? != 0,
                "positions" => {
                    let n = next_u64(&mut words, "positions")? as usize;
                    st.positions = words
                        .map(|w| w.parse::<u64>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| JournalError::Malformed("bad position".into()))?;
                    if st.positions.len() != n {
                        return Err(JournalError::Malformed(format!(
                            "positions declares {n} entries, carries {}",
                            st.positions.len()
                        )));
                    }
                }
                "counter" => {
                    let name = words
                        .next()
                        .ok_or(JournalError::MissingField("counter name"))?;
                    let v: u64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or(JournalError::MissingField("counter value"))?;
                    let id = CounterId::ALL
                        .iter()
                        .find(|id| id.name() == name)
                        .ok_or_else(|| {
                            JournalError::Malformed(format!("unknown counter {name}"))
                        })?;
                    *st.counters.get_mut(*id) = v;
                    seen.insert(format!("counter.{name}"));
                    continue;
                }
                other => {
                    return Err(JournalError::Malformed(format!("unknown key {other}")))
                }
            }
            seen.insert(key.to_string());
        }
        for required in [
            "zmapckpt",
            "config_digest",
            "seed",
            "group_prime",
            "generator",
            "offset",
            "shard",
            "num_shards",
            "num_subshards",
            "virtual_time_ns",
            "dedup_high_water",
            "complete",
            "positions",
        ] {
            if !seen.contains(required) {
                return Err(JournalError::Malformed(format!("missing {required}")));
            }
        }
        if st.positions.len() != st.num_subshards as usize {
            return Err(JournalError::Malformed(format!(
                "{} positions for {} subshards",
                st.positions.len(),
                st.num_subshards
            )));
        }
        Ok(st)
    }

    /// Writes the journal atomically: serialize to `<path>.tmp`, sync,
    /// rename over `path`. A crash mid-write leaves the previous journal
    /// intact; a crash mid-rename leaves one of the two valid files.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Loads and validates a journal from disk.
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        Self::from_bytes(&fs::read(path)?)
    }

    /// Checks the journal against a config; `Err(ConfigMismatch)` when
    /// the digests disagree.
    pub fn check_config(&self, cfg: &ScanConfig) -> Result<(), JournalError> {
        let digest = config_digest(cfg);
        if self.config_digest != digest {
            return Err(JournalError::ConfigMismatch {
                journal: self.config_digest,
                config: digest,
            });
        }
        Ok(())
    }

    /// Per-subshard positions rewound by the in-flight grace window, so
    /// a resumed walk re-probes anything whose response may have been in
    /// flight at the kill. `rate_pps` paces all subshards round-robin,
    /// so the per-subshard rewind is the grace window's probe budget
    /// split across subshards (plus one for rounding).
    pub fn rewound_positions(&self, rate_pps: u64) -> Vec<u64> {
        let subshards = self.positions.len().max(1) as u64;
        let probes = rate_pps.saturating_mul(RESUME_GRACE_NS) / 1_000_000_000;
        let rewind = probes / subshards + 1;
        self.positions
            .iter()
            .map(|&p| p.saturating_sub(rewind))
            .collect()
    }
}

fn next_u64<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    field: &'static str,
) -> Result<u64, JournalError> {
    words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or(JournalError::MissingField(field))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// When and where a running scan writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Journal path (rewritten in place, atomically).
    pub path: PathBuf,
    /// Virtual-time interval between periodic snapshots.
    pub interval_ns: u64,
}

impl CheckpointPolicy {
    /// A policy with the default 1 s (virtual) snapshot interval.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            interval_ns: 1_000_000_000,
        }
    }

    /// Overrides the snapshot interval.
    pub fn with_interval_ns(mut self, interval_ns: u64) -> Self {
        self.interval_ns = interval_ns.max(1);
        self
    }
}

/// Digest of everything that determines a scan's coverage and probe
/// order: the [`ConfigEcho`] (seed, ports, sharding, probe, rates…),
/// the limit fields the echo omits, and the canonical allowed-range set
/// of the effective constraint. Two configs with equal digests walk the
/// identical target permutation.
pub fn config_digest(cfg: &ScanConfig) -> u64 {
    let echo = ConfigEcho::from_config(cfg);
    let mut material = serde_json::to_string(&echo).unwrap_or_default();
    material.push_str(&format!(
        "|max_targets={} max_results={} report_failures={} probe={:?}",
        cfg.max_targets, cfg.max_results, cfg.report_failures, cfg.probe
    ));
    let mut constraint = cfg.effective_constraint();
    constraint.finalize();
    for (lo, hi) in constraint.allowed_ranges() {
        material.push_str(&format!("|{lo}-{hi}"));
    }
    siphash24(DIGEST_K0, DIGEST_K1, material.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample() -> CheckpointState {
        CheckpointState {
            config_digest: 0xDEAD_BEEF_0BAD_F00D,
            seed: 7,
            group_prime: 4_294_967_311,
            generator: 3,
            offset: 41,
            shard: 1,
            num_shards: 4,
            num_subshards: 3,
            positions: vec![10, 20, 30],
            dedup_high_water: 17,
            virtual_time_ns: 2_500_000_000,
            complete: false,
            counters: Counters {
                targets_total: 60,
                sent: 60,
                unique_successes: 42,
                checkpoints_written: 2,
                ..Counters::default()
            },
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let st = sample();
        let bytes = st.to_bytes();
        let back = CheckpointState::from_bytes(&bytes).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn journal_bytes_are_pinned() {
        // A literal, not a round trip: format 2 is pinned byte for byte
        // (counter names, their order, the checksum), so a journal from
        // any other build of this format loads here and vice versa.
        let journal = "zmapckpt 2\nconfig_digest 16045690981293355021\nseed 7\n\
            group_prime 4294967311\ngenerator 3\noffset 41\nshard 1\nnum_shards 4\n\
            num_subshards 3\nvirtual_time_ns 2500000000\ndedup_high_water 17\n\
            complete 0\npositions 3 10 20 30\ncounter targets_total 60\n\
            counter sent 60\ncounter responses_validated 0\n\
            counter responses_discarded 0\ncounter duplicates_suppressed 0\n\
            counter unique_successes 42\ncounter unique_failures 0\n\
            counter send_retries 0\ncounter sendto_failures 0\n\
            counter responses_corrupted 0\n\
            counter checkpoints_written 2\ncounter resume_count 0\n\
            counter watchdog_stalls 0\ncounter shutdown_clean 0\n\
            counter jobs_admitted 0\ncounter worker_restarts 0\n\
            counter jobs_degraded 0\ncounter migrations 0\ncrc 56fb5bc270b7981b\n";
        assert_eq!(String::from_utf8(sample().to_bytes()).unwrap(), journal);
        assert_eq!(CheckpointState::from_bytes(journal.as_bytes()).unwrap(), sample());
    }

    /// Format 1's pinned bytes, checksum intact (one counter line more),
    /// refused by their version line.
    #[test]
    fn format_1_journals_are_refused_by_version() {
        let journal = "zmapckpt 1\nconfig_digest 16045690981293355021\nseed 7\n\
            group_prime 4294967311\ngenerator 3\noffset 41\nshard 1\nnum_shards 4\n\
            num_subshards 3\nvirtual_time_ns 2500000000\ndedup_high_water 17\n\
            complete 0\npositions 3 10 20 30\ncounter targets_total 60\n\
            counter sent 60\ncounter responses_validated 0\n\
            counter responses_discarded 0\ncounter duplicates_suppressed 0\n\
            counter unique_successes 42\ncounter unique_failures 0\n\
            counter send_retries 0\ncounter sendto_failures 0\n\
            counter responses_corrupted 0\ncounter lock_poison_recoveries 0\n\
            counter checkpoints_written 2\ncounter resume_count 0\n\
            counter watchdog_stalls 0\ncounter shutdown_clean 0\n\
            counter jobs_admitted 0\ncounter worker_restarts 0\n\
            counter jobs_degraded 0\ncounter migrations 0\ncrc 27ec510dbc74c2ca\n";
        assert!(matches!(
            CheckpointState::from_bytes(journal.as_bytes()),
            Err(JournalError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut fuzz = bytes.clone();
                fuzz[byte] ^= 1 << bit;
                match CheckpointState::from_bytes(&fuzz) {
                    Err(_) => {}
                    Ok(loaded) => panic!(
                        "bit {bit} of byte {byte} accepted: {loaded:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn truncated_journal_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(CheckpointState::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn version_and_magic_gates() {
        assert!(matches!(
            CheckpointState::from_bytes(b"not a journal"),
            Err(JournalError::BadMagic)
        ));
        let bytes = sample().to_bytes();
        // Re-sign a future-version body: must still be refused.
        let text = String::from_utf8(bytes).unwrap();
        let body = text.replace("zmapckpt 2\n", "zmapckpt 99\n");
        let body = &body[..body.rfind("crc ").unwrap()];
        let crc = siphash24(CRC_K0, CRC_K1, body.as_bytes());
        let doc = format!("{body}crc {crc:016x}\n");
        assert!(matches!(
            CheckpointState::from_bytes(doc.as_bytes()),
            Err(JournalError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join("zmap-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");
        let st = sample();
        st.write_atomic(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), st);
        // Overwrite with a newer snapshot; the temp file never lingers.
        let mut st2 = st.clone();
        st2.virtual_time_ns += 1;
        st2.write_atomic(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), st2);
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn config_digest_tracks_coverage_inputs() {
        let mut a = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        a.allowlist_prefix(Ipv4Addr::new(10, 0, 0, 0), 24);
        a.apply_default_blocklist = false;
        let base = config_digest(&a);
        assert_eq!(base, config_digest(&a.clone()), "digest is deterministic");

        let mut b = a.clone();
        b.seed = 99;
        assert_ne!(base, config_digest(&b), "seed changes the permutation");

        let mut c = a.clone();
        c.ports = vec![443];
        assert_ne!(base, config_digest(&c), "ports change coverage");

        let mut d = a.clone();
        d.allowlist_prefix(Ipv4Addr::new(11, 0, 0, 0), 24);
        assert_ne!(base, config_digest(&d), "constraint changes coverage");
    }

    /// A journal written by an earlier build must still resume: the digest
    /// hashes `allowed_ranges()`, so its canonical form (sorted, disjoint,
    /// adjacent runs coalesced) is part of the journal format. Values
    /// captured from the build before the constraint became a range table.
    #[test]
    fn config_digest_is_pinned() {
        let default_blocklist = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(config_digest(&default_blocklist), 6_612_799_829_941_613_865);

        let mut holes = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        holes.seed = 7;
        holes.allowlist_prefix(Ipv4Addr::new(11, 0, 0, 0), 8);
        for third in [0, 1, 77, 255] {
            holes.blocklist_prefix(Ipv4Addr::new(11, 9, third, 0), 24);
        }
        holes.blocklist_prefix(Ipv4Addr::new(11, 255, 255, 0), 24);
        assert_eq!(config_digest(&holes), 606_939_034_905_555_712);
    }

    #[test]
    fn check_config_refuses_mismatch() {
        let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 1));
        cfg.allowlist_prefix(Ipv4Addr::new(10, 0, 0, 0), 24);
        let mut st = sample();
        st.config_digest = config_digest(&cfg);
        assert!(st.check_config(&cfg).is_ok());
        let mut other = cfg.clone();
        other.seed = 5;
        assert!(matches!(
            st.check_config(&other),
            Err(JournalError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn rewound_positions_rewind_by_grace_budget() {
        let st = sample(); // 3 subshards, positions 10/20/30
        // 30 pps over a 2 s grace = 60 probes, /3 subshards + 1 = 21.
        assert_eq!(st.rewound_positions(30), vec![0, 0, 9]);
        // Zero rate still rewinds the rounding probe.
        assert_eq!(st.rewound_positions(0), vec![9, 19, 29]);
    }
}
