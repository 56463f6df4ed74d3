#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Network-telescope analysis: re-deriving the paper's adoption figures
//! from packets.
//!
//! Figures 1–4 of *Ten Years of ZMap* measure scanner behavior from the
//! ORION network telescope: flows targeting ≥10 darknet IPs are scans,
//! and scanning tools are identified by wire-format fingerprints (ZMap's
//! static IP ID of 54321; Masscan's destination-derived IP ID). This
//! crate implements that pipeline against simulated traffic:
//!
//! * [`fingerprint`] — per-packet tool classification,
//! * [`detector`] — flow assembly and the ≥10-IP scan threshold,
//! * [`cryptanalysis`] — second-stage attribution by cyclic-walk
//!   recovery (Mazel & Strullu), catching scanners that randomize the
//!   IP ID,
//! * [`aggregate`] — the quarterly/port/country roll-ups behind each
//!   figure,
//! * [`bibliography`] — the Appendix B dataset (Figure 8).

pub mod aggregate;
pub mod bibliography;
pub mod cryptanalysis;
pub mod detector;
pub mod fingerprint;

pub use aggregate::{CountryReport, PortReport, QuarterReport};
pub use cryptanalysis::{
    recover_walk, report_json, Attribution, AttributionMethod, RecoveredParams, SpaceHypothesis,
};
pub use detector::{ScanDetector, ScanRecord};
pub use fingerprint::{classify_frame, Fingerprint};
