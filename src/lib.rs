#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! # zmap-rs — *Ten Years of ZMap*, reproduced in Rust
//!
//! Umbrella crate re-exporting the whole workspace: the scanner library
//! ([`core`]), its substrates (target generation, wire formats,
//! deduplication), and the simulated-Internet evaluation environment
//! ([`netsim`], [`telescope`]). The Masscan baseline is a configuration
//! of the one engine: a Blackrock [`targets::Walk`], optionless SYNs and
//! [`wire::IpIdMode::DestinationDerived`].
//!
//! Start with [`core::Scanner`] and the `examples/` directory
//! (`cargo run --example quickstart`). DESIGN.md maps every paper
//! figure/table to the module and bench that regenerates it.

/// Number-theoretic primitives (cyclic groups, primality, factoring).
pub use zmap_math as math;

/// Target generation: cyclic-group permutation, sharding, constraints.
pub use zmap_targets as targets;

/// Packet construction/parsing, TCP option layouts, validation cookies.
pub use zmap_wire as wire;

/// Response deduplication: paged bitmap and the sliding window.
pub use zmap_dedup as dedup;

/// Lock-free counters, log2 latency histograms, bounded event traces.
pub use zmap_metrics as metrics;

/// The deterministic simulated IPv4 Internet.
pub use zmap_netsim as netsim;

/// Network-telescope attribution pipeline (Figures 1–4, 8).
pub use zmap_telescope as telescope;

/// The scanner engine and its four output streams.
pub use zmap_core as core;

/// README's Rust blocks, compiled by `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Most-used types, one import away.
pub mod prelude {
    pub use zmap_core::{
        CheckpointPolicy, CheckpointState, Classification, DedupMethod, JournalError,
        OutputFormat, PreparedScan, ProbeKind, ResumeError, RunOptions, ScanConfig, ScanResult,
        ScanSummary, Scanner, ShutdownToken, SimNet, Transport,
    };
    pub use zmap_core::metrics::{CounterId, HistId, ScanMetrics};
    pub use zmap_core::{
        JobEvent, JobOutcome, JobReport, JobSpec, Supervisor, SupervisorConfig, SupervisorReport,
    };
    pub use zmap_metrics::{HistogramSnapshot, Log2Histogram, MetricsSnapshot};
    pub use zmap_core::Ipv6Config;
    pub use zmap_netsim::{
        FaultPlan, SendError, ServiceModel, V6Population, WorkerFault, WorkerFaultKind,
        WorkerFaultPlan, World, WorldConfig,
    };
    pub use zmap_targets::{Constraint, ShardAlgorithm, Target, TargetGenerator, Walk};
    pub use zmap_wire::{IpIdMode, OptionLayout};
}
