#![forbid(unsafe_code)]
//! Shared, scanner-independent parts of the benchmark: statistics,
//! workload input generation, span records and `/proc` parsing. Nothing
//! here links a `zmap-*` crate (JSON comes from the vendored `serde_json`),
//! so the `e2e` binary depends on the scanner through its CLI flags only.

pub mod procfs;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// The benchmark package directory (`<repo>/benchmark`), fixed when the
/// binary is built — the checkout it was built in is the one it measures.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (parent of [`bench_dir`]).
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Scratch and result directory (`benchmark/out`, git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Where cargo puts release binaries for a build started in `manifest_dir`:
/// `$CARGO_TARGET_DIR/release` when the variable is set (a relative value
/// is relative to the repository root, where every build here is started),
/// else `<manifest_dir>/target/release`.
pub fn release_dir(manifest_dir: &std::path::Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir.join("release")
            } else {
                repo_root().join(dir).join("release")
            }
        }
        _ => manifest_dir.join("target").join("release"),
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `(name, value, unit)`. A non-finite value has
/// no JSON spelling and is written as 0.
pub fn result_line<N: AsRef<str>, U: AsRef<str>>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(N, f64, U)],
) -> serde_json::Value {
    let metrics: serde_json::Map = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            (
                name.as_ref().to_string(),
                serde_json::json!({"value": value, "unit": (unit.as_ref())}),
            )
        })
        .collect();
    serde_json::json!({
        "correct": correct,
        "attempted": (attempted.max(1)),
        "failed": failed,
        "metrics": (serde_json::Value::Object(metrics)),
    })
}

/// Command-line options shared by both binaries (the driver's contract:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub all: bool,
    pub aa: bool,
    pub record_expected: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: workloads::DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            quick: false,
            all: false,
            aa: false,
            record_expected: false,
        }
    }
}

/// Parses the shared flags; unknown flags are errors.
pub fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v.parse().map_err(|e| format!("bad --seconds {v:?}: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--all" => o.all = true,
            "--aa" => o.aa = true,
            "--record-expected" => o.record_expected = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(w) = &o.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let o = parse_options(&args("--workload dups --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("dups"));
        assert_eq!(o.seed, 9);
        assert_eq!(o.seconds, 3.0);
        assert!(o.trace);
    }

    #[test]
    fn result_line_has_the_four_keys_and_whole_counts() {
        let line = result_line(
            true,
            0,
            0,
            &[("pps", 1.25, "probes/s"), ("bad", f64::NAN, "s")],
        );
        let text = line.to_string();
        assert_eq!(
            text,
            r#"{"attempted":1,"correct":true,"failed":0,"metrics":{"bad":{"unit":"s","value":0.0},"pps":{"unit":"probes/s","value":1.25}}}"#
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--trace 2")).is_err());
        assert!(parse_options(&args("--seconds 0")).is_err());
        assert!(parse_options(&args("--frobnicate")).is_err());
    }
}
