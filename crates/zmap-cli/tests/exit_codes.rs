//! The `zmap` binary's exit codes, observed from outside the process.

use std::process::Command;

/// A config the gate refuses is a usage error: exit 2, before any file
/// is touched, so no data file appears.
#[test]
fn zero_dedup_window_exits_2_and_creates_no_output_file() {
    let dir = std::env::temp_dir().join(format!("zmap-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("never.csv");
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
        .args(["--subnet", "11.22.0.0/28", "--dedup-window", "0", "-q", "-o"])
        .arg(&out)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--dedup-window"), "{stderr}");
    assert!(!out.exists(), "a refused config left a data file behind");
}
