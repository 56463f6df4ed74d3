#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! `zmap` binary entry point.

use std::process::ExitCode;
use zmap_cli::{parse_args, run_scan};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("zmap: {e}");
            eprintln!("try `zmap --help`");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        print!("{}", zmap_cli::args::USAGE);
        return ExitCode::SUCCESS;
    }
    match run_scan(opts) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("zmap: io error: {e}");
            ExitCode::from(1)
        }
    }
}
