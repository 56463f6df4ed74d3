//! One engine, two drivers: at one lane the inline driver and the
//! threaded one (`--tx-pipeline`) are the same schedule, so the sorted
//! data stream and the whole metadata document (counters, histograms,
//! trace) match byte for byte, on a clean world and with 30% of sends
//! refused (one retry loop).

use std::path::Path;
use std::process::Command;

/// Runs the shared command line plus `extra`, writing `<name>.csv` and
/// `<name>.json` into `dir`; returns the data rows, sorted, and the
/// metadata document.
fn scan(dir: &Path, name: &str, extra: &[&str]) -> (Vec<String>, String) {
    let (data, meta) = (dir.join(format!("{name}.csv")), dir.join(format!("{name}.json")));
    let run = Command::new(env!("CARGO_BIN_EXE_zmap"))
        .args(["--subnet", "23.128.0.0/20", "-p", "80,443", "-r", "100000", "--seed", "42"])
        .args(["--sim-seed", "9", "--sim-live-fraction", "0.5", "-O", "csv", "-q"])
        .args(["--threads", "1"])
        .args(extra)
        .arg("-o")
        .arg(&data)
        .arg("--metadata-file")
        .arg(&meta)
        .output()
        .unwrap();
    assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));
    let mut rows: Vec<String> =
        std::fs::read_to_string(&data).unwrap().lines().map(str::to_string).collect();
    rows.sort();
    (rows, std::fs::read_to_string(&meta).unwrap())
}

#[test]
fn inline_and_threaded_drivers_write_the_same_streams() {
    let dir = std::env::temp_dir().join(format!("zmap-two-drivers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("refused.json");
    std::fs::write(&plan, r#"{"send_failure_fraction": 0.3}"#).unwrap();
    let plan = plan.to_str().unwrap();
    for (world, faults) in [("clean", vec![]), ("refused", vec!["--fault-plan", plan])] {
        let (inline_rows, inline_meta) = scan(&dir, &format!("{world}-inline"), &faults);
        let threaded = [&faults[..], &["--tx-pipeline"]].concat();
        let (threaded_rows, threaded_meta) = scan(&dir, &format!("{world}-threaded"), &threaded);
        // An empty data stream matching proves nothing.
        assert!(inline_rows.len() > 100, "{world}: {} rows", inline_rows.len());
        assert!(
            inline_rows == threaded_rows,
            "{world}: the sorted data streams differ ({} vs {} rows)",
            inline_rows.len(),
            threaded_rows.len()
        );
        assert_eq!(inline_meta, threaded_meta, "{world}: metadata");
        let meta: serde_json::Value = serde_json::from_str(&inline_meta).unwrap();
        let retries = meta["counters"]["send_retries"].as_u64().unwrap();
        assert_eq!(retries > 0, world == "refused", "{world}: {retries} send retries");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
