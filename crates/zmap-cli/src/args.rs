//! Hand-rolled argument parsing (keeping the binary dependency-free).

use std::net::{Ipv4Addr, Ipv6Addr};
use zmap_core::{DedupMethod, Ipv6Config, OutputFormat, ProbeKind, ScanConfig};
use zmap_targets::parse::{parse_cidr, Cidr};
use zmap_targets::{ShardAlgorithm, Walk};
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;

/// Parsed CLI options: the scan config plus CLI-only concerns.
#[derive(Debug)]
pub struct CliOptions {
    /// The scan configuration.
    pub config: ScanConfig,
    /// Output format for the data stream.
    pub format: OutputFormat,
    /// Data output path (`-` = stdout).
    pub output_path: String,
    /// Metadata output path (None = stderr at completion).
    pub metadata_path: Option<String>,
    /// Suppress the 1 Hz status stream.
    pub quiet: bool,
    /// Emit the status stream as machine-readable JSON lines.
    pub status_json: bool,
    /// Emit debug-level logs.
    pub verbose: bool,
    /// Simulated-world seed.
    pub sim_seed: u64,
    /// Simulated live-host fraction override.
    pub sim_live_fraction: Option<f64>,
    /// Path to a fault-plan JSON file injected into the simulated world.
    pub fault_plan_path: Option<String>,
    /// Checkpoint journal path; enables crash-tolerant journaling.
    pub checkpoint_path: Option<String>,
    /// Virtual seconds between periodic checkpoint snapshots.
    pub checkpoint_interval_secs: u64,
    /// Resume the scan recorded in the journal at `checkpoint_path`.
    pub resume: bool,
    /// Supervisor mode: path to a job-spec JSON file. The process runs
    /// the scan supervisor over the jobs in the file instead of a single
    /// scan.
    pub serve_path: Option<String>,
    /// Directory for per-job output files in `--serve` mode (default
    /// current directory).
    pub serve_output_dir: Option<String>,
    /// IPv6 scan: the scanner's v6 source address (`--ipv6`). Set iff
    /// `prefix_list_path` is set; the pair switches the scan to v6, and
    /// `config.ipv6` carries the address from parsing on.
    pub ipv6_source: Option<Ipv6Addr>,
    /// Path to the IPv6 prefix spec file (`--prefix-list`). The file is
    /// read into `config.ipv6` in `run_scan` — parsing stays IO-free.
    pub prefix_list_path: Option<String>,
    /// Print help and exit.
    pub help: bool,
}

/// Errors from [`parse_args`].
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Unknown flag.
    UnknownFlag(String),
    /// A flag was missing its value.
    MissingValue(String),
    /// A value failed to parse; `(flag, value, why)`.
    BadValue(String, String, String),
    /// The flags parsed individually but combine into a scan that cannot
    /// work (for example `--shard 3 --shards 2`).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(s) => write!(f, "unknown flag: {s}"),
            CliError::MissingValue(s) => write!(f, "flag {s} requires a value"),
            CliError::BadValue(flag, v, why) => {
                write!(f, "bad value {v:?} for {flag}: {why}")
            }
            CliError::Invalid(why) => write!(f, "invalid arguments: {why}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text (`zmap --help`).
pub const USAGE: &str = "\
zmap-rs: fast Internet-wide scanner (simulated-network build)

USAGE: zmap [OPTIONS]

TARGETING
  --subnet CIDR            allowlist a prefix (repeatable; default all IPv4)
  --blocklist CIDR         blocklist a prefix (repeatable)
  --no-default-blocklist   do not exclude IANA reserved space
  -p, --target-ports LIST  comma-separated ports (default 80)
  --max-targets N          stop after N targets
  --max-results N          stop after N unique successes
  --ipv6 SRC6              IPv6 scan from this v6 source address
                           (requires --prefix-list; v4 --subnet and
                           --blocklist do not apply to v6 scans)
  --prefix-list FILE       IPv6 prefix specs, one per line:
                           PREFIX/LEN [pattern=low|eui64|embedded-v4]
                           [bits=N] [density=F]; requires --ipv6

PROBES
  --probe-module M         tcp_synscan | icmp_echoscan | udp (default tcp_synscan)
  --option-layout L        none|mss|sack|ts|wscale|packed|linux|bsd|windows
  --static-ip-id           classic IP ID 54321 (default: random per probe)
  --probes N               probes per target (default 1)
  --stealth                attribution countermeasures: keep the random
                           per-probe IP ID and re-key the target
                           permutation per block (16 blocks unless
                           --rekey-blocks says otherwise), defeating
                           both fingerprint and cyclic-walk attribution
  --rekey-blocks N         split the walk into N independently-keyed,
                           shuffled blocks (N >= 2; IPv4 only; same
                           target coverage, resumable checkpoints)

RATE & SHARDING
  -r, --rate PPS           probes per second (default 10000)
  --batch N                frames per batched (sendmmsg-style) send
                           (default 64; pure performance knob)
  --cooldown-secs N        post-send listen time (default 8)
  --retries N              resend attempts after EAGAIN-style send
                           failures before dropping a probe (default 3)
  --seed N                 scan seed (permutation + validation key)
  --shard I --shards N     this machine's shard (default 0 of 1)
  --threads T              send subshards (default 1)
  --tx-pipeline            run the threaded driver: one send thread
                           per --threads lane walks, renders and
                           flushes its subshard, one thread receives
                           (identical output, pure performance
                           topology). Walks whole subshards: not with
                           --max-targets or --max-results
  --interleaved            2014 interleaved sharding (default: pizza)

OUTPUT (four streams: data, logs, status, metadata)
  -O, --output-format F    text | csv | jsonl (default text)
  -o, --output-file PATH   data stream destination (default -)
  --metadata-file PATH     completion metadata JSON (default stderr)
  --dedup-window N         sliding window size (default 1000000; N >= 1)
  --no-dedup               report every response
  --full-bitmap-dedup      exact 2^32 bitmap (single-port only)
  --status-json            status stream as JSON lines (one object per
                           sample, machine-readable; same counters as
                           the human-readable form)
  -q, --quiet              no status updates
  -v, --verbose            debug logging
  --output-failures        also report RST/unreachable results

CRASH TOLERANCE
  --checkpoint PATH        write a resumable journal at PATH: an initial
                           snapshot before the first probe, periodic
                           snapshots on a virtual-time interval, and a
                           final one at orderly exit (atomic rewrite)
  --checkpoint-interval-secs N
                           virtual seconds between snapshots (default 1)
  --resume                 resume the scan recorded in --checkpoint PATH;
                           refuses a journal written by a different
                           configuration. Exit code 3 means the scan was
                           killed mid-flight and the journal is resumable.

SUPERVISOR (scan-as-a-service mode)
  --serve FILE             run the scan supervisor over the jobs in FILE
                           (JSON job specs: tenant, config, shard plan,
                           per-worker fault plans). Jobs are sharded
                           across a bounded worker pool with fair-share
                           admission per tenant; dead workers (kill,
                           panic, stall) are quarantined and their jobs
                           replayed from checkpoint journals with capped
                           exponential backoff; jobs that keep dying are
                           parked as degraded. Per-job status JSON lines
                           go to stderr; per-job data/metadata files go
                           to --serve-output-dir. Exit 0 when every job
                           completes, 4 when any job degraded.
  --serve-output-dir DIR   where --serve writes per-job files
                           (default .)

SIMULATION (this build scans a simulated Internet)
  --sim-seed N             world seed (default 1)
  --sim-live-fraction F    fraction of addresses that are live hosts
  --fault-plan FILE        JSON fault plan (loss bursts, duplication,
                           corruption, blackouts, ICMP storms)
  --source-ip IP           scanner address (default 192.0.2.9)
  -h, --help               this text
";

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e: T::Err| CliError::BadValue(flag.into(), v.into(), e.to_string()))
}

fn parse_cidr_flag(flag: &str, v: &str) -> Result<Cidr, CliError> {
    parse_cidr(v).map_err(|e| CliError::BadValue(flag.into(), v.into(), e.to_string()))
}

/// Parses argv (without the program name).
pub fn parse_args(argv: &[String]) -> Result<CliOptions, CliError> {
    let mut opts = CliOptions {
        config: ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9)),
        format: OutputFormat::Text,
        output_path: "-".into(),
        metadata_path: None,
        quiet: false,
        status_json: false,
        verbose: false,
        sim_seed: 1,
        sim_live_fraction: None,
        fault_plan_path: None,
        checkpoint_path: None,
        checkpoint_interval_secs: 1,
        resume: false,
        serve_path: None,
        serve_output_dir: None,
        ipv6_source: None,
        prefix_list_path: None,
        help: false,
    };
    let mut it = argv.iter().peekable();
    let need = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                    flag: &str|
     -> Result<String, CliError> {
        it.next()
            .cloned()
            .ok_or_else(|| CliError::MissingValue(flag.into()))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => opts.help = true,
            "--subnet" => {
                let c = parse_cidr_flag("--subnet", &need(&mut it, "--subnet")?)?;
                opts.config.allowlist_prefix(Ipv4Addr::from(c.addr), c.len);
            }
            "--blocklist" => {
                let c = parse_cidr_flag("--blocklist", &need(&mut it, "--blocklist")?)?;
                opts.config.blocklist_prefix(Ipv4Addr::from(c.addr), c.len);
            }
            "--no-default-blocklist" => opts.config.apply_default_blocklist = false,
            "-p" | "--target-ports" => {
                let v = need(&mut it, "--target-ports")?;
                let mut ports = Vec::new();
                for part in v.split(',') {
                    ports.push(parse_num::<u16>("--target-ports", part.trim())?);
                }
                opts.config.ports = ports;
            }
            "--max-targets" => {
                opts.config.max_targets = parse_num("--max-targets", &need(&mut it, "--max-targets")?)?
            }
            "--max-results" => {
                opts.config.max_results = parse_num("--max-results", &need(&mut it, "--max-results")?)?
            }
            "--probe-module" => {
                let v = need(&mut it, "--probe-module")?;
                opts.config.probe = match v.as_str() {
                    "tcp_synscan" => ProbeKind::TcpSyn,
                    "icmp_echoscan" => ProbeKind::IcmpEcho,
                    "udp" => ProbeKind::Udp(b"zmap-udp-probe".to_vec()),
                    other => {
                        return Err(CliError::BadValue(
                            "--probe-module".into(),
                            other.into(),
                            "expected tcp_synscan|icmp_echoscan|udp".into(),
                        ))
                    }
                };
            }
            "--option-layout" => {
                let v = need(&mut it, "--option-layout")?;
                opts.config.option_layout = match v.as_str() {
                    "none" => OptionLayout::NoOptions,
                    "mss" => OptionLayout::MssOnly,
                    "sack" => OptionLayout::SackPermittedOnly,
                    "ts" => OptionLayout::TimestampOnly,
                    "wscale" => OptionLayout::WindowScaleOnly,
                    "packed" => OptionLayout::OptimalPacked,
                    "linux" => OptionLayout::Linux,
                    "bsd" => OptionLayout::Bsd,
                    "windows" => OptionLayout::Windows,
                    other => {
                        return Err(CliError::BadValue(
                            "--option-layout".into(),
                            other.into(),
                            "see --help for layouts".into(),
                        ))
                    }
                };
            }
            "--static-ip-id" => opts.config.ip_id = IpIdMode::Static,
            "--stealth" => {
                // Explicit --rekey-blocks wins regardless of flag order.
                if opts.config.walk == Walk::Cyclic {
                    opts.config.walk = Walk::Rekeyed(16);
                }
            }
            "--rekey-blocks" => {
                let blocks = parse_num("--rekey-blocks", &need(&mut it, "--rekey-blocks")?)?;
                opts.config.walk = Walk::rekeyed(blocks);
            }
            "--probes" => {
                opts.config.probes_per_target = parse_num("--probes", &need(&mut it, "--probes")?)?
            }
            "-r" | "--rate" => {
                opts.config.rate_pps = parse_num("--rate", &need(&mut it, "--rate")?)?
            }
            "--batch" => {
                opts.config.batch = parse_num("--batch", &need(&mut it, "--batch")?)?
            }
            "--cooldown-secs" => {
                opts.config.cooldown_secs =
                    parse_num("--cooldown-secs", &need(&mut it, "--cooldown-secs")?)?
            }
            "--retries" => {
                opts.config.max_retries = parse_num("--retries", &need(&mut it, "--retries")?)?
            }
            "--seed" => opts.config.seed = parse_num("--seed", &need(&mut it, "--seed")?)?,
            "--shard" => opts.config.shard = parse_num("--shard", &need(&mut it, "--shard")?)?,
            "--shards" => {
                opts.config.num_shards = parse_num("--shards", &need(&mut it, "--shards")?)?
            }
            "--threads" => {
                opts.config.subshards = parse_num("--threads", &need(&mut it, "--threads")?)?
            }
            "--tx-pipeline" => opts.config.tx_pipeline = true,
            "--interleaved" => opts.config.shard_algorithm = ShardAlgorithm::Interleaved,
            "-O" | "--output-format" => {
                let v = need(&mut it, "--output-format")?;
                opts.format = match v.as_str() {
                    "text" => OutputFormat::Text,
                    "csv" => OutputFormat::Csv,
                    "jsonl" | "json" => OutputFormat::JsonLines,
                    other => {
                        return Err(CliError::BadValue(
                            "--output-format".into(),
                            other.into(),
                            "expected text|csv|jsonl".into(),
                        ))
                    }
                };
            }
            "-o" | "--output-file" => opts.output_path = need(&mut it, "--output-file")?,
            "--metadata-file" => opts.metadata_path = Some(need(&mut it, "--metadata-file")?),
            "--dedup-window" => {
                opts.config.dedup =
                    DedupMethod::Window(parse_num("--dedup-window", &need(&mut it, "--dedup-window")?)?)
            }
            "--no-dedup" => opts.config.dedup = DedupMethod::None,
            "--full-bitmap-dedup" => opts.config.dedup = DedupMethod::FullBitmap,
            "-q" | "--quiet" => opts.quiet = true,
            "--status-json" => opts.status_json = true,
            "-v" | "--verbose" => opts.verbose = true,
            "--output-failures" => opts.config.report_failures = true,
            "--sim-seed" => opts.sim_seed = parse_num("--sim-seed", &need(&mut it, "--sim-seed")?)?,
            "--sim-live-fraction" => {
                opts.sim_live_fraction = Some(parse_num(
                    "--sim-live-fraction",
                    &need(&mut it, "--sim-live-fraction")?,
                )?)
            }
            "--fault-plan" => opts.fault_plan_path = Some(need(&mut it, "--fault-plan")?),
            "--checkpoint" => opts.checkpoint_path = Some(need(&mut it, "--checkpoint")?),
            "--checkpoint-interval-secs" => {
                opts.checkpoint_interval_secs = parse_num(
                    "--checkpoint-interval-secs",
                    &need(&mut it, "--checkpoint-interval-secs")?,
                )?
            }
            "--resume" => opts.resume = true,
            "--serve" => opts.serve_path = Some(need(&mut it, "--serve")?),
            "--serve-output-dir" => {
                opts.serve_output_dir = Some(need(&mut it, "--serve-output-dir")?)
            }
            "--ipv6" => {
                let v = need(&mut it, "--ipv6")?;
                let source_ip = v.parse().map_err(|_| {
                    CliError::BadValue("--ipv6".into(), v.clone(), "not an IPv6 address".into())
                })?;
                opts.ipv6_source = Some(source_ip);
                opts.config.ipv6 = Some(Ipv6Config { source_ip, prefix_list: String::new() });
            }
            "--prefix-list" => opts.prefix_list_path = Some(need(&mut it, "--prefix-list")?),
            "--source-ip" => {
                let v = need(&mut it, "--source-ip")?;
                opts.config.source_ip = v.parse().map_err(|_| {
                    CliError::BadValue("--source-ip".into(), v.clone(), "not an IPv4 address".into())
                })?;
            }
            other => return Err(CliError::UnknownFlag(other.into())),
        }
    }
    if !opts.help {
        validate(&opts)?;
    }
    Ok(opts)
}

/// Cross-flag checks. The rules about CLI-only options live here; every
/// rule about the scan itself is zmap-core's gate (`ScanConfig::validate`),
/// which names the flags it refuses. Both run before any file is read.
fn validate(opts: &CliOptions) -> Result<(), CliError> {
    let why = if opts.checkpoint_interval_secs == 0 {
        "--checkpoint-interval-secs must be at least 1"
    } else if opts.resume && opts.checkpoint_path.is_none() {
        "--resume requires --checkpoint PATH (the journal to resume from)"
    } else if opts.status_json && opts.quiet {
        "--status-json formats the status stream that --quiet suppresses; drop one of them"
    } else if opts.ipv6_source.is_some() && opts.prefix_list_path.is_none() {
        "--ipv6 requires --prefix-list FILE (the v6 target space)"
    } else if opts.prefix_list_path.is_some() && opts.ipv6_source.is_none() {
        "--prefix-list requires --ipv6 SRC6 (the scanner's v6 address)"
    } else if opts.serve_output_dir.is_some() && opts.serve_path.is_none() {
        "--serve-output-dir only applies to --serve mode"
    } else if opts.serve_path.is_some() && opts.resume {
        "--serve manages per-job journals itself; --resume does not apply"
    } else {
        return opts.config.validate().map_err(CliError::Invalid);
    };
    Err(CliError::Invalid(why.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.ports, vec![80]);
        assert_eq!(o.format, OutputFormat::Text);
        assert_eq!(o.output_path, "-");
        assert!(!o.help);
    }

    #[test]
    fn typical_invocation() {
        let o = parse_args(&args(
            "--subnet 11.0.0.0/16 -p 80,443 -r 50000 --seed 7 -O csv --shard 1 --shards 4 --threads 2",
        ))
        .unwrap();
        assert_eq!(o.config.ports, vec![80, 443]);
        assert_eq!(o.config.rate_pps, 50_000);
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.format, OutputFormat::Csv);
        assert_eq!(o.config.shard, 1);
        assert_eq!(o.config.num_shards, 4);
        assert_eq!(o.config.subshards, 2);
    }

    #[test]
    fn probe_modules_and_layouts() {
        let o = parse_args(&args("--probe-module icmp_echoscan")).unwrap();
        assert_eq!(o.config.probe, ProbeKind::IcmpEcho);
        let o = parse_args(&args("--option-layout linux --static-ip-id")).unwrap();
        assert_eq!(o.config.option_layout, OptionLayout::Linux);
        assert_eq!(o.config.ip_id, IpIdMode::Static);
    }

    #[test]
    fn stealth_flags() {
        let walk = |a: &str| parse_args(&args(a)).unwrap().config.walk;
        assert_eq!(parse_args(&[]).unwrap().config.walk, Walk::Cyclic, "classic default");
        assert_eq!(walk("--stealth"), Walk::Rekeyed(16));
        assert_eq!(walk("--rekey-blocks 4"), Walk::Rekeyed(4));
        assert_eq!(walk("--rekey-blocks 0"), Walk::Cyclic);
        // Explicit block count wins regardless of flag order.
        assert_eq!(walk("--stealth --rekey-blocks 4"), Walk::Rekeyed(4));
        assert_eq!(walk("--rekey-blocks 4 --stealth"), Walk::Rekeyed(4));
        assert!(invalid_why("--rekey-blocks 1").contains("--rekey-blocks 1"));
        assert!(invalid_why("--stealth --static-ip-id").contains("--static-ip-id"));
        assert!(
            invalid_why("--stealth --ipv6 2001:db8::1 --prefix-list v6.txt").contains("--ipv6")
        );
        assert!(USAGE.contains("--stealth"));
        assert!(USAGE.contains("--rekey-blocks"));
    }

    #[test]
    fn dedup_flags() {
        assert_eq!(
            parse_args(&args("--no-dedup")).unwrap().config.dedup,
            DedupMethod::None
        );
        assert_eq!(
            parse_args(&args("--dedup-window 500")).unwrap().config.dedup,
            DedupMethod::Window(500)
        );
        assert_eq!(
            parse_args(&args("--full-bitmap-dedup")).unwrap().config.dedup,
            DedupMethod::FullBitmap
        );
    }

    #[test]
    fn batch_flag() {
        assert_eq!(parse_args(&[]).unwrap().config.batch, 64, "default batch");
        assert_eq!(parse_args(&args("--batch 256")).unwrap().config.batch, 256);
        assert_eq!(parse_args(&args("--batch 1")).unwrap().config.batch, 1);
        assert!(invalid_why("--batch 0").contains("--batch"));
        assert!(USAGE.contains("--batch"));
    }

    #[test]
    fn tx_pipeline_flag() {
        assert!(!parse_args(&[]).unwrap().config.tx_pipeline, "off by default");
        let o = parse_args(&args("--tx-pipeline --threads 4")).unwrap();
        assert!(o.config.tx_pipeline);
        assert_eq!(o.config.subshards, 4);
        // Single-threaded pipelining is allowed (one send thread) — it is
        // a topology knob, not a thread-count constraint.
        assert!(parse_args(&args("--tx-pipeline")).unwrap().config.tx_pipeline);
        assert!(USAGE.contains("--tx-pipeline"));
    }

    #[test]
    fn full_bitmap_dedup_refuses_multiple_ports() {
        let why = invalid_why("--full-bitmap-dedup -p 80,443");
        assert!(why.contains("--full-bitmap-dedup"), "{why}");
        assert!(why.contains("--dedup-window"), "{why}");
        // Order of flags must not matter.
        assert!(parse_args(&args("-p 80,443 --full-bitmap-dedup")).is_err());
        // Single port stays allowed.
        assert!(parse_args(&args("--full-bitmap-dedup -p 443")).is_ok());
    }

    #[test]
    fn errors_are_informative() {
        assert_eq!(
            parse_args(&args("--bogus")).unwrap_err(),
            CliError::UnknownFlag("--bogus".into())
        );
        assert_eq!(
            parse_args(&args("--rate")).unwrap_err(),
            CliError::MissingValue("--rate".into())
        );
        assert!(matches!(
            parse_args(&args("--rate fast")),
            Err(CliError::BadValue(_, _, _))
        ));
        assert!(matches!(
            parse_args(&args("--subnet not-a-cidr")),
            Err(CliError::BadValue(_, _, _))
        ));
    }

    #[test]
    fn help_flag() {
        assert!(parse_args(&args("-h")).unwrap().help);
        assert!(USAGE.contains("--subnet"));
        assert!(USAGE.contains("four streams"));
    }

    #[test]
    fn status_json_flag() {
        assert!(!parse_args(&[]).unwrap().status_json, "off by default");
        assert!(parse_args(&args("--status-json")).unwrap().status_json);
        assert!(USAGE.contains("--status-json"));
        // Formatting a suppressed stream is a contradiction, not a no-op.
        let why = invalid_why("--status-json -q");
        assert!(why.contains("--status-json"), "{why}");
        assert!(why.contains("--quiet"), "{why}");
    }

    #[test]
    fn fault_injection_flags() {
        let o = parse_args(&args("--retries 7 --fault-plan plan.json")).unwrap();
        assert_eq!(o.config.max_retries, 7);
        assert_eq!(o.fault_plan_path.as_deref(), Some("plan.json"));
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.max_retries, 3, "default retry budget");
        assert!(o.fault_plan_path.is_none());
        assert!(USAGE.contains("--retries"));
        assert!(USAGE.contains("--fault-plan"));
    }

    fn invalid_why(s: &str) -> String {
        match parse_args(&args(s)).unwrap_err() {
            CliError::Invalid(why) => why,
            other => panic!("expected CliError::Invalid for {s:?}, got {other:?}"),
        }
    }

    #[test]
    fn shard_out_of_range_is_rejected() {
        let why = invalid_why("--shard 3 --shards 2");
        assert!(why.contains("--shard 3"), "{why}");
        assert!(why.contains("--shards 2"), "{why}");
        // The boundary case: shard indices are 0-based.
        assert!(parse_args(&args("--shard 2 --shards 2")).is_err());
        assert!(parse_args(&args("--shard 1 --shards 2")).is_ok());
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(invalid_why("--shards 0").contains("--shards"));
    }

    #[test]
    fn zero_rate_is_rejected() {
        assert!(invalid_why("--rate 0").contains("--rate"));
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(invalid_why("--threads 0").contains("--threads"));
    }

    #[test]
    fn zero_probes_is_rejected() {
        assert!(invalid_why("--probes 0").contains("--probes"));
    }

    #[test]
    fn tx_pipeline_rejects_max_targets() {
        let why = invalid_why("--tx-pipeline --max-targets 10");
        assert!(why.contains("--max-targets"), "{why}");
        assert!(parse_args(&args("--max-targets 10")).is_ok());
    }

    #[test]
    fn tx_pipeline_rejects_max_results() {
        let why = invalid_why("--tx-pipeline --max-results 5");
        assert!(why.contains("--max-results"), "{why}");
        assert!(parse_args(&args("--max-results 5")).is_ok());
    }

    #[test]
    fn zero_cooldown_with_retries_is_rejected() {
        let why = invalid_why("--cooldown-secs 0");
        assert!(why.contains("--retries 0"), "{why}");
        // Explicitly opting out of retries makes a zero cooldown coherent.
        let o = parse_args(&args("--cooldown-secs 0 --retries 0")).unwrap();
        assert_eq!(o.config.cooldown_secs, 0);
        assert_eq!(o.config.max_retries, 0);
    }

    #[test]
    fn resume_requires_a_journal_path() {
        assert!(invalid_why("--resume").contains("--checkpoint"));
        let o = parse_args(&args("--checkpoint scan.ckpt --resume")).unwrap();
        assert!(o.resume);
        assert_eq!(o.checkpoint_path.as_deref(), Some("scan.ckpt"));
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        assert!(invalid_why("--checkpoint-interval-secs 0").contains("--checkpoint-interval-secs"));
        let o = parse_args(&args("--checkpoint s.ckpt --checkpoint-interval-secs 5")).unwrap();
        assert_eq!(o.checkpoint_interval_secs, 5);
    }

    #[test]
    fn serve_flags() {
        let o = parse_args(&args("--serve jobs.json --serve-output-dir /tmp/out")).unwrap();
        assert_eq!(o.serve_path.as_deref(), Some("jobs.json"));
        assert_eq!(o.serve_output_dir.as_deref(), Some("/tmp/out"));
        assert!(parse_args(&[]).unwrap().serve_path.is_none());
        assert!(invalid_why("--serve-output-dir /tmp").contains("--serve"));
        let why = invalid_why("--serve jobs.json --checkpoint a.ckpt --resume");
        assert!(why.contains("--serve"), "{why}");
        assert!(USAGE.contains("--serve"));
        assert!(USAGE.contains("--serve-output-dir"));
    }

    #[test]
    fn ipv6_flags() {
        let o = parse_args(&args("--ipv6 2001:db8::1 --prefix-list v6.txt -p 443")).unwrap();
        assert_eq!(o.ipv6_source, Some("2001:db8::1".parse().unwrap()));
        assert_eq!(o.prefix_list_path.as_deref(), Some("v6.txt"));
        // Each half of the pair is useless alone.
        assert!(invalid_why("--ipv6 2001:db8::1").contains("--prefix-list"));
        assert!(invalid_why("--prefix-list v6.txt").contains("--ipv6"));
        // The v4 bitmap cannot index a 128-bit space.
        let why = invalid_why("--ipv6 2001:db8::1 --prefix-list v6.txt --full-bitmap-dedup");
        assert!(why.contains("--full-bitmap-dedup"), "{why}");
        assert!(matches!(
            parse_args(&args("--ipv6 192.0.2.1 --prefix-list v6.txt")),
            Err(CliError::BadValue(_, _, _))
        ));
        assert!(USAGE.contains("--ipv6"));
        assert!(USAGE.contains("--prefix-list"));
    }

    #[test]
    fn help_skips_validation() {
        // `zmap --shards 0 --help` should print usage, not argue.
        let o = parse_args(&args("--shards 0 --help")).unwrap();
        assert!(o.help);
        assert!(USAGE.contains("--checkpoint"));
        assert!(USAGE.contains("--resume"));
    }

    #[test]
    fn repeatable_subnets_accumulate() {
        let o = parse_args(&args("--subnet 11.0.0.0/24 --subnet 12.0.0.0/24")).unwrap();
        let mut c = o.config.effective_constraint();
        c.finalize();
        assert_eq!(c.allowed_count(), 512);
    }
}
