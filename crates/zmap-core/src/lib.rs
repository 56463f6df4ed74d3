#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! The ZMap scanner as a Rust library.
//!
//! *Ten Years of ZMap* (§5) closes with "If we were to implement ZMap
//! today, we would do so in Rust" — this crate is that scanner, built
//! per the paper's own architecture lessons:
//!
//! * **library + CLI wrapper**: everything here is a library; `zmap-cli`
//!   is a thin argument parser over [`ScanConfig`] + [`Scanner`],
//! * **four output streams** (§5 "Data, Metadata, and Logs"): data
//!   records ([`output`]), leveled logs ([`log`]), 1 Hz real-time status
//!   ([`monitor`]), and machine-readable completion metadata
//!   ([`metadata`]),
//! * **static output schema**: results serialize to CSV/JSON Lines with
//!   fixed field types ([`output::SCHEMA`]),
//! * **stateless core**: target generation is the cyclic-group walk
//!   (zmap-targets), response validation is cookie-based (zmap-wire),
//!   dedup is the sliding window (zmap-dedup) — no per-probe state.
//!
//! There is one engine and it is generic over [`transport::Transport`].
//! [`scanner`] holds every stage — a validated [`PreparedScan`], then
//! `emit` → `flush` → `rx_tick` → `cooldown` → `finish` — and the inline
//! driver ([`Scanner`], which owns its transport and runs the stages on
//! the calling thread); [`parallel`] holds the threaded driver
//! ([`PreparedScan::run`]: one send thread per lane and a receive loop
//! that parks between turns, over a transport shared as
//! `&T: Transport`). Both drivers run on
//! [`transport::SimTransport`], which drives the zmap-netsim simulated
//! Internet deterministically, which is how every experiment in this
//! repository runs.
//!
//! # Quickstart
//!
//! ```
//! use zmap_core::{ScanConfig, Scanner, transport::SimNet};
//! use zmap_netsim::{ServiceModel, WorldConfig};
//!
//! // A dense /24 so the doctest is fast and deterministic.
//! let net = SimNet::new(WorldConfig {
//!     model: ServiceModel::dense(&[80]),
//!     loss: zmap_netsim::loss::LossModel::NONE,
//!     ..WorldConfig::default()
//! });
//! let mut cfg = ScanConfig::new("192.0.2.9".parse().unwrap());
//! cfg.allowlist_prefix("11.7.7.0".parse().unwrap(), 24);
//! cfg.ports = vec![80];
//! let summary = Scanner::new(cfg, net.transport("192.0.2.9".parse().unwrap()))
//!     .unwrap()
//!     .run();
//! assert_eq!(summary.sent, 256);
//! assert_eq!(summary.unique_successes, 256); // dense world: all open
//! ```

pub mod checkpoint;
pub mod config;
pub mod l7;
pub mod log;
pub mod metadata;
pub mod metrics;
#[cfg(test)]
mod model_check;
pub mod monitor;
pub mod output;
pub mod parallel;
pub mod plan;
pub mod ratecontrol;
pub mod ring;
pub mod scanner;
pub mod shutdown;
pub mod supervisor;
pub mod transport;

pub use checkpoint::{CheckpointPolicy, CheckpointState, JournalError};
pub use config::{DedupMethod, Ipv6Config, ProbeKind, ScanConfig};
pub use plan::ScanPlan;
pub use shutdown::ShutdownToken;
pub use metadata::ScanMetadata;
pub use metrics::{CounterId, HistId, ScanMetrics};
pub use output::{Classification, OutputFormat, RowSink, ScanResult};
pub use scanner::{PreparedScan, ResumeError, RunOptions, ScanSummary, Scanner};
pub use supervisor::{
    JobEvent, JobOutcome, JobReport, JobSpec, Supervisor, SupervisorConfig, SupervisorReport,
};
pub use transport::{SimNet, SimTransport, Transport};
