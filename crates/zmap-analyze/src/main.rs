#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! CLI: `zmap-analyze check [--json] [--root <dir>]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use zmap_analyze::{analyze_root, default_root, report};

struct Options {
    json: bool,
    root: PathBuf,
}

const USAGE: &str = "usage: zmap-analyze check [--json] [--root <dir>]";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        root: default_root(),
    };
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                opts.root = PathBuf::from(v);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let findings =
        analyze_root(&opts.root).map_err(|e| format!("walking {}: {e}", opts.root.display()))?;
    if opts.json {
        println!("{}", report::json(&findings));
    } else {
        print!("{}", report::text(&findings));
    }
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("zmap-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("zmap-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
