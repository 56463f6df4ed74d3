//! Integration: the CLI wrapper end to end — parse argv, run a scan,
//! verify all four output streams land where they should.

use zmap_cli::{parse_args, run_scan};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// A scratch directory, removed with everything in it on drop.
struct TmpDir(std::path::PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmpdir(name: &str) -> TmpDir {
    let d = std::env::temp_dir().join(format!("zmap-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    TmpDir(d)
}

#[test]
fn jsonl_scan_end_to_end() {
    let dir = tmpdir("jsonl");
    let out = dir.join("out.jsonl");
    let md = dir.join("md.json");
    let opts = parse_args(&args(&format!(
        "--subnet 66.10.0.0/22 -p 80,443 -r 200000 --seed 9 --sim-seed 2 \
         --sim-live-fraction 0.5 --cooldown-secs 1 -O jsonl -q \
         -o {} --metadata-file {}",
        out.display(),
        md.display()
    )))
    .unwrap();
    assert_eq!(run_scan(opts).unwrap(), 0);

    // Data stream: one JSON object per line, stable schema.
    let data = std::fs::read_to_string(&out).unwrap();
    let mut n = 0;
    for line in data.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v["saddr"].as_str().unwrap().starts_with("66.10."));
        let port = v["sport"].as_u64().unwrap();
        assert!(port == 80 || port == 443, "{port}");
        assert_eq!(v["classification"], "synack");
        assert_eq!(v["success"], true);
        n += 1;
    }
    assert!(n > 50, "expected plenty of results, got {n}");

    // Metadata stream: valid JSON with the counters.
    let meta: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
    assert_eq!(meta["counters"]["sent"], 2048);
    assert_eq!(meta["config"]["ports"], serde_json::json!([80, 443]));
    assert!(meta["permutation"]["group_prime"].as_u64().unwrap() > 2048);
}

#[test]
fn text_output_is_ip_port_lines() {
    let dir = tmpdir("text");
    let out = dir.join("out.txt");
    let opts = parse_args(&args(&format!(
        "--subnet 66.20.0.0/24 -r 100000 --sim-live-fraction 1.0 \
         --cooldown-secs 1 -q -o {}",
        out.display()
    )))
    .unwrap();
    assert_eq!(run_scan(opts).unwrap(), 0);
    let data = std::fs::read_to_string(&out).unwrap();
    for line in data.lines() {
        let (ip, port) = line.split_once(':').expect("ip:port format");
        assert!(ip.parse::<std::net::Ipv4Addr>().is_ok(), "{ip}");
        assert_eq!(port, "80");
    }
    assert!(data.lines().count() > 10);
}

#[test]
fn invalid_config_is_a_clean_error() {
    // Allowlisting reserved space that the default blocklist removes
    // leaves zero targets: exit code 2, no panic.
    let opts = parse_args(&args("--subnet 10.0.0.0/24 -q")).unwrap();
    assert_eq!(run_scan(opts).unwrap(), 2);
}

#[test]
fn deterministic_given_seeds() {
    let run = || {
        let dir = tmpdir("det");
        let out = dir.join("out.txt");
        let opts = parse_args(&args(&format!(
            "--subnet 66.30.0.0/24 --seed 4 --sim-seed 4 --cooldown-secs 1 -q -o {}",
            out.display()
        )))
        .unwrap();
        run_scan(opts).unwrap();
        std::fs::read_to_string(&out).unwrap()
    };
    assert_eq!(run(), run());
}

/// What the data file must hold for `opts`: the library scan of the same
/// configuration against the same world, its `results` rendered in order.
fn library_rendering(
    opts: &zmap_cli::CliOptions,
    faults: zmap::netsim::FaultPlan,
) -> (Vec<u8>, bool) {
    use zmap::core::output::OutputModule;
    use zmap::prelude::*;
    let mut model = ServiceModel::default();
    if let Some(f) = opts.sim_live_fraction {
        model.live_fraction = f;
    }
    let net = SimNet::new(WorldConfig {
        seed: opts.sim_seed,
        model,
        faults,
        ..WorldConfig::default()
    });
    let summary = Scanner::new(opts.config.clone(), net.transport(opts.config.source_ip))
        .unwrap()
        .run();
    let mut out = OutputModule::new(opts.format, Vec::new());
    for r in &summary.results {
        out.record(r).unwrap();
    }
    (out.finish().unwrap(), summary.killed)
}

#[test]
fn sequential_data_file_is_the_library_results_rendered_in_order() {
    let dir = tmpdir("stream");
    for format in ["text", "csv", "jsonl"] {
        let out = dir.join(format!("out.{format}"));
        let opts = parse_args(&args(&format!(
            "--subnet 66.40.0.0/22 -p 80,443 -r 50000 --seed 6 --sim-seed 8 \
             --sim-live-fraction 0.6 --output-failures --cooldown-secs 1 -O {format} -q -o {}",
            out.display()
        )))
        .unwrap();
        let (expected, _) = library_rendering(&opts, zmap::netsim::FaultPlan::none());
        assert_eq!(run_scan(opts).unwrap(), 0);
        let data = std::fs::read(&out).unwrap();
        assert!(data.len() > 1000, "{format}: {} bytes", data.len());
        assert_eq!(String::from_utf8(data).unwrap(), String::from_utf8(expected).unwrap());
    }
}

#[test]
fn killed_scan_keeps_exactly_the_rows_received_before_the_kill() {
    let dir = tmpdir("killed");
    let kill = r#"{"kill_at": 700}"#;
    let plan = dir.join("kill.json");
    std::fs::write(&plan, kill).unwrap();
    let out = dir.join("out.csv");
    // 1000 pps: answers arrive while probes still leave, so the kill
    // lands with rows already accepted and more still on the wire.
    let opts = parse_args(&args(&format!(
        "--subnet 66.50.0.0/22 -p 80 -r 1000 --seed 7 --sim-seed 3 \
         --sim-live-fraction 1.0 -O csv -q --fault-plan {} -o {}",
        plan.display(),
        out.display()
    )))
    .unwrap();
    let faults = zmap::netsim::FaultPlan::from_json_str(kill).unwrap();
    let (expected, killed) = library_rendering(&opts, faults);
    assert!(killed);
    assert_eq!(run_scan(opts).unwrap(), zmap_cli::run::EXIT_KILLED);
    let data = std::fs::read_to_string(&out).unwrap();
    assert!(data.lines().count() > 20, "rows before the kill: {data}");
    assert_eq!(data, String::from_utf8(expected).unwrap());
}

#[test]
fn unwritable_output_fails_before_the_first_probe() {
    let dir = tmpdir("badout");
    let md = dir.join("md.json");
    let ckpt = dir.join("scan.ckpt");
    let out = dir.join("no-such-dir").join("out.csv");
    for engine in ["", "--tx-pipeline --threads 2"] {
        let opts = parse_args(&args(&format!(
            "--subnet 66.60.0.0/24 -r 100000 --sim-live-fraction 1.0 --cooldown-secs 1 -q \
             {engine} -o {} --metadata-file {} --checkpoint {}",
            out.display(),
            md.display(),
            ckpt.display()
        )))
        .unwrap();
        // `main` turns this error into "zmap: io error: …" and exit 1.
        let err = run_scan(opts).expect_err("the data sink cannot be created");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{engine}: {err}");
        // Nothing was sent: the scan never started, so no metadata
        // document and no journal — not even the initial one — exist.
        assert!(!md.exists(), "{engine}: metadata written");
        assert!(!ckpt.exists(), "{engine}: journal written");
    }
}

#[test]
fn rejected_config_leaves_the_output_path_untouched() {
    let dir = tmpdir("rejected");
    let kept = dir.join("kept.csv");
    let absent = dir.join("absent.csv");
    let earlier = "saddr\n66.1.2.3\n";
    for engine in ["", "--tx-pipeline --threads 2"] {
        std::fs::write(&kept, earlier).unwrap();
        for out in [&kept, &absent] {
            // Reserved space minus the default blocklist is zero targets:
            // the engine, not the argument parser, rejects it (exit 2).
            let opts = parse_args(&args(&format!(
                "--subnet 10.0.0.0/24 -q {engine} -o {}",
                out.display()
            )))
            .unwrap();
            assert_eq!(run_scan(opts).unwrap(), 2, "{engine}");
        }
        // An earlier scan's results survive the typo; no empty file appears.
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), earlier, "{engine}");
        assert!(!absent.exists(), "{engine}: an empty data file was left behind");
    }
}
