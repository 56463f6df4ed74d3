#![forbid(unsafe_code)]
#![allow(clippy::print_stderr)]
//! Argument parsing and run orchestration for the `zmap` binary.
//!
//! Per the paper's "Library and Command Line Wrapper" lesson, everything
//! of substance lives in `zmap-core`; this crate only translates argv
//! into a [`zmap_core::ScanConfig`], wires up the four output streams
//! (data→stdout, logs→stderr, status→stderr, metadata→file/stderr), and
//! runs the scan.
//!
//! This build's "NIC" is the deterministic simulated Internet from
//! `zmap-netsim` (see DESIGN.md): the CLI exposes the simulation's seed
//! and population knobs so scans are reproducible end to end.

pub mod args;
pub mod run;
pub mod serve;

pub use args::{parse_args, CliError, CliOptions};
pub use run::run_scan;
