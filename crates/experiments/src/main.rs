#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! `experiments NAME [FLAG VALUE]...` prints what experiment NAME's
//! `results/` file holds; `experiments` alone lists the names. A word
//! that NAME does not take exits 2 with NAME's usage line.

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
    // Flag-value pairs, each flag one the entry takes: any other word
    // would be dropped without a trace.
    let takes = |flag: &String| experiment.flags.iter().any(|(f, _)| f == flag);
    let words = &args[1..];
    if words.len() % 2 == 1 || !words.iter().step_by(2).all(takes) {
        let flags: String = experiment.flags.iter().map(|(f, v)| format!(" [{f} {v}]")).collect();
        eprintln!("usage: experiments {}{flags}", experiment.name);
        return ExitCode::from(2);
    }
    match (experiment.run)(words) {
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
