#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! `experiments NAME [ARGS]` prints what experiment NAME's `results/`
//! file holds; `experiments` alone lists the names.

use experiments::{find, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first().and_then(|name| find(name)) else {
        eprintln!("usage: experiments NAME [ARGS], where NAME is one of:");
        for e in EXPERIMENTS {
            eprintln!("  {:<24} results/{}", e.name, e.file);
        }
        return ExitCode::from(2);
    };
    match (experiment.run)(&args[1..]) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", experiment.name);
            ExitCode::FAILURE
        }
    }
}
