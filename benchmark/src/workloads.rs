//! The six workloads: seed → input files and `zmap` command lines.
//!
//! Everything a workload feeds the scanner is a pure function of
//! `(name, seed, scale)`: the scan seed, the simulated-world seed, the
//! blocklist holes, the IPv6 prefix list and the fault-plan files. The
//! scanner itself only ever sees the generated flags and files.

use std::io;
use std::path::{Path, PathBuf};

/// Seed used when none is given; its counters are pinned in
/// `expected/seed7.json`.
pub const DEFAULT_SEED: u64 = 7;

/// Workload names, in reporting order.
pub const NAMES: [&str; 6] = ["dark", "mixed", "dense", "dups", "v6", "pipe"];

/// Every scan runs far above any rate the simulator sustains, so pacing
/// never idles the engine: the measured rate is the engine's own.
const RATE: &str = "10000000";

/// The /8 every IPv4 workload scans: 2^24 addresses, an exact fit for the
/// 2^24 + 43 cyclic group (no rejection-sampling skips).
const SUBNET: &str = "61.0.0.0/8";
const SUBNET_BASE: u32 = 61 << 24;

/// /24 holes punched into the /8 for `mixed` and `pipe`.
const HOLES: usize = 1000;

/// `mixed`/`pipe` scan one pizza-slice shard of the /8 so the walk stays
/// tight on the group while a repetition lasts about a second. (The
/// threaded engine ignores `--max-targets`, so a shard is the one way to
/// size both engines identically.)
const MIXED_SHARDS: u64 = 11;

const DARK_TARGETS: u64 = 8_388_608;
const DENSE_TARGETS: u64 = 131_072;
const DENSE_WINDOW: u64 = 32_768;
const V6_TARGETS: u64 = 262_144;
const V6_PREFIXES: usize = 16;
const V6_SOURCE: &str = "2001:db8:ffff::1";

/// Responsive share of each generated /48, densest first (mean ≈ 0.28).
const V6_DENSITIES: [&str; V6_PREFIXES] = [
    "1.0", "0.8", "0.6", "0.5", "0.4", "0.3", "0.25", "0.2", "0.15", "0.1", "0.08", "0.05", "0.04",
    "0.03", "0.02", "0.01",
];
const V6_PATTERNS: [&str; 3] = ["low", "eui64", "embedded-v4"];

/// Full size, or every workload at 1/64 of it (`--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn divisor(self) -> u64 {
        match self {
            Scale::Full => 1,
            Scale::Quick => 64,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs do not
/// change when the scanner's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (the modulo bias at these sizes is < 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A workload instantiated for one seed: what to write and what to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub name: &'static str,
    /// `zmap` arguments for one measured scan, without the per-run
    /// `-o`/`--metadata-file` pair.
    pub scan_args: Vec<String>,
    /// The same command line cut down to one probe: what `setup_s` times.
    pub setup_args: Vec<String>,
    /// Input files the arguments name, with their contents.
    pub files: Vec<(PathBuf, String)>,
    /// `--dedup-window`, where the workload sets it (`dense`, whose gate
    /// is that the window fills and evicts); `None` leaves the scanner's
    /// default.
    pub dedup_window: Option<u64>,
    /// Whether failures (RST, unreachable) become data rows too.
    pub output_failures: bool,
}

impl Plan {
    /// Writes the input files (creating `dir` as needed).
    pub fn write_inputs(&self) -> io::Result<()> {
        for (path, contents) in &self.files {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, contents)?;
        }
        Ok(())
    }
}

/// The distinct /24 indices (0..65536 within the /8) blocked for `seed`,
/// ascending.
pub fn holes(seed: u64) -> Vec<u32> {
    let mut rng = SplitMix::new(seed ^ 0x0068_6F6C_6573);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < HOLES {
        set.insert(rng.below(1 << 16) as u32);
    }
    set.into_iter().collect()
}

/// The `--prefix-list` file for `seed`: sixteen distinct /48s under
/// 2001:db8::/32 cycling through the three host patterns, densities from
/// 1.0 down to 0.01, `bits` host bits each.
pub fn prefix_list(seed: u64, bits: u32) -> String {
    let mut rng = SplitMix::new(seed ^ 0x7636_7076);
    let mut sites = std::collections::BTreeSet::new();
    // 0xffff is the scanner's own /48.
    while sites.len() < V6_PREFIXES {
        sites.insert(rng.below(0xffff) as u16);
    }
    let mut out = String::new();
    for (i, site) in sites.into_iter().enumerate() {
        out.push_str(&format!(
            "2001:db8:{site:x}::/48 pattern={} bits={bits} density={}\n",
            V6_PATTERNS[i % V6_PATTERNS.len()],
            V6_DENSITIES[i],
        ));
    }
    out
}

/// The fault plan `name` injects, if any.
pub fn fault_plan(name: &str, seed: u64) -> Option<String> {
    match name {
        // The whole /8 is dark for all time: every probe leaves, nothing
        // comes back.
        "dark" => Some(format!(
            "{{\"salt\":{seed},\"blackouts\":[{{\"network\":\"61.0.0.0\",\"prefix_len\":8,\
             \"start_ns\":0,\"end_ns\":{}}}]}}\n",
            u64::MAX
        )),
        "dups" => Some(format!("{{\"salt\":{seed},\"duplicate_fraction\":0.9}}\n")),
        _ => None,
    }
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Instantiates workload `name` for `seed`; input files go under `dir`.
///
/// # Panics
/// Panics on a name outside [`NAMES`] (callers validate user input).
pub fn plan(name: &str, seed: u64, scale: Scale, dir: &Path) -> Plan {
    let name = *NAMES
        .iter()
        .find(|n| **n == name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"));
    let div = scale.divisor();
    let seed_s = seed.to_string();
    let mut common = strs(&["-r", RATE, "--cooldown-secs", "1", "-q", "-O", "csv"]);
    common.extend(strs(&["--seed", &seed_s, "--sim-seed", &seed_s]));

    let mut files = Vec::new();
    let mut fault_args = Vec::new();
    if let Some(contents) = fault_plan(name, seed) {
        let path = dir.join(format!("{name}-{seed}-faults.json"));
        fault_args = vec!["--fault-plan".to_string(), path.display().to_string()];
        files.push((path, contents));
    }

    let mut dedup_window = None;
    let mut output_failures = false;
    let max_targets = |n: u64| strs(&["--max-targets", &n.to_string()]);
    // (arguments of a measured scan, arguments of its one-probe twin)
    let (scan, setup): (Vec<String>, Vec<String>) = match name {
        "dark" => {
            let space = strs(&["--subnet", SUBNET, "--no-default-blocklist"]);
            (
                [space.clone(), max_targets(DARK_TARGETS / div)].concat(),
                [space, max_targets(1)].concat(),
            )
        }
        "mixed" | "pipe" => {
            let holes = holes(seed);
            let blocklist: Vec<String> = holes
                .iter()
                .flat_map(|h| {
                    let net = std::net::Ipv4Addr::from(SUBNET_BASE | (h << 8));
                    ["--blocklist".to_string(), format!("{net}/24")]
                })
                .collect();
            let shards = MIXED_SHARDS * div;
            let shard = strs(&[
                "--shard",
                &(seed % shards).to_string(),
                "--shards",
                &shards.to_string(),
            ]);
            let subnet = strs(&["--subnet", SUBNET]);
            if name == "mixed" {
                (
                    [subnet.clone(), blocklist.clone(), shard.clone()].concat(),
                    [subnet, blocklist, shard, max_targets(1)].concat(),
                )
            } else {
                let engine = strs(&["--tx-pipeline", "--threads", "1"]);
                // `--max-targets` does not reach the threaded engine, so its
                // one-probe command keeps the holes but narrows the subnet
                // to one address in the first /24 that is not a hole.
                let open = (0u32..1 << 16)
                    .find(|i| holes.binary_search(i).is_err())
                    .expect("1000 holes cannot cover 65536 /24s");
                let one = std::net::Ipv4Addr::from(SUBNET_BASE | (open << 8) | 1);
                (
                    [subnet, blocklist.clone(), shard, engine.clone()].concat(),
                    [strs(&["--subnet", &format!("{one}/32")]), blocklist, engine].concat(),
                )
            }
        }
        "dense" | "dups" => {
            let mut space = strs(&["--subnet", SUBNET, "--sim-live-fraction", "1.0"]);
            if name == "dense" {
                // Every unique answer becomes a row, and the window is a
                // quarter of the targets, so it fills and evicts.
                let window = DENSE_WINDOW / div;
                dedup_window = Some(window);
                output_failures = true;
                space.push("--output-failures".into());
                space.extend(strs(&["--dedup-window", &window.to_string()]));
            }
            (
                [space.clone(), max_targets(DENSE_TARGETS / div)].concat(),
                [space, max_targets(1)].concat(),
            )
        }
        "v6" => {
            let path = dir.join(format!("v6-{seed}-prefixes.txt"));
            let space = strs(&[
                "--ipv6",
                V6_SOURCE,
                "--prefix-list",
                &path.display().to_string(),
                "-p",
                "443",
            ]);
            // 16 host bits fit the 2^16 + 1 group exactly.
            files.push((path, prefix_list(seed, 16)));
            (
                [space.clone(), max_targets(V6_TARGETS / div)].concat(),
                [space, max_targets(1)].concat(),
            )
        }
        _ => unreachable!("name was checked against NAMES"),
    };
    let scan_args = [scan, fault_args.clone(), common.clone()].concat();
    let setup_args = [setup, fault_args, common].concat();

    Plan {
        name,
        scan_args,
        setup_args,
        files,
        dedup_window,
        output_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let dir = Path::new("out/work");
        for name in NAMES {
            let a = plan(name, 7, Scale::Full, dir);
            let b = plan(name, 7, Scale::Full, dir);
            assert_eq!(a, b, "{name}: same seed must reproduce the plan");
            let c = plan(name, 8, Scale::Full, dir);
            assert_ne!(
                a.scan_args, c.scan_args,
                "{name}: seed must reach the flags"
            );
        }
        assert_eq!(holes(7), holes(7));
        assert_ne!(holes(7), holes(8));
        assert_ne!(prefix_list(7, 16), prefix_list(8, 16));
    }

    #[test]
    fn holes_are_distinct_sorted_and_inside_the_slash8() {
        let h = holes(3);
        assert_eq!(h.len(), HOLES);
        assert!(h.windows(2).all(|w| w[0] < w[1]));
        assert!(h.iter().all(|&i| i < 1 << 16));
    }

    #[test]
    fn prefix_list_has_sixteen_distinct_well_formed_lines() {
        let list = prefix_list(7, 16);
        let lines: Vec<&str> = list.lines().collect();
        assert_eq!(lines.len(), V6_PREFIXES);
        let prefixes: std::collections::BTreeSet<&str> =
            lines.iter().map(|l| l.split(' ').next().unwrap()).collect();
        assert_eq!(prefixes.len(), V6_PREFIXES);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with("2001:db8:"), "{line}");
            assert!(line.contains("::/48 pattern="), "{line}");
            assert!(
                line.ends_with(&format!("bits=16 density={}", V6_DENSITIES[i])),
                "{line}"
            );
        }
    }

    #[test]
    fn fault_plans_are_json_and_only_where_specified() {
        for name in NAMES {
            match fault_plan(name, 7) {
                Some(text) => {
                    assert!(matches!(name, "dark" | "dups"));
                    let v = serde_json::from_str(&text).unwrap();
                    assert_eq!(v["salt"], 7u64);
                }
                None => assert!(!matches!(name, "dark" | "dups")),
            }
        }
    }

    #[test]
    fn pipe_is_mixed_through_the_threaded_engine() {
        let dir = Path::new("w");
        let mixed = plan("mixed", 7, Scale::Full, dir);
        let mut pipe = plan("pipe", 7, Scale::Full, dir).scan_args;
        let at = pipe.iter().position(|a| a == "--tx-pipeline").unwrap();
        assert_eq!(
            pipe.drain(at..at + 3).collect::<Vec<_>>(),
            ["--tx-pipeline", "--threads", "1"]
        );
        assert_eq!(pipe, mixed.scan_args);
        assert_eq!(value_of(&pipe, "--shards"), Some("11"));
        assert_eq!(value_of(&pipe, "--shard"), Some("7"));
    }

    #[test]
    fn setup_commands_send_one_probe() {
        let dir = Path::new("w");
        for name in NAMES {
            let p = plan(name, 7, Scale::Full, dir);
            if name == "pipe" {
                assert!(value_of(&p.setup_args, "--subnet")
                    .unwrap()
                    .ends_with("/32"));
                assert!(!p.setup_args.iter().any(|a| a == "--shards"));
                assert_eq!(
                    p.setup_args.iter().filter(|a| *a == "--blocklist").count(),
                    HOLES
                );
            } else {
                assert_eq!(
                    value_of(&p.setup_args, "--max-targets"),
                    Some("1"),
                    "{name}"
                );
                assert_eq!(
                    p.setup_args
                        .iter()
                        .filter(|a| *a == "--max-targets")
                        .count(),
                    1,
                    "{name}"
                );
            }
            assert_eq!(value_of(&p.setup_args, "--cooldown-secs"), Some("1"));
        }
    }

    #[test]
    fn quick_scale_is_one_sixty_fourth() {
        let dir = Path::new("w");
        let full = plan("dense", 7, Scale::Full, dir);
        let quick = plan("dense", 7, Scale::Quick, dir);
        assert_eq!(value_of(&full.scan_args, "--max-targets"), Some("131072"));
        assert_eq!(value_of(&quick.scan_args, "--max-targets"), Some("2048"));
        assert_eq!(quick.dedup_window, Some(512));
        assert_eq!(plan("dups", 7, Scale::Quick, dir).dedup_window, None);
        assert_eq!(
            value_of(&plan("mixed", 7, Scale::Quick, dir).scan_args, "--shards"),
            Some("704")
        );
    }
}
