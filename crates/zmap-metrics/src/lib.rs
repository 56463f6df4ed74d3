#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Deterministic observability primitives — the substrate behind the
//! engines' metrics registry (`zmap_core::metrics`).
//!
//! Three building blocks, none of which ever consults a wall clock:
//!
//! * [`CounterBank`] — a sharded array of `AtomicU64` counters. Each
//!   send thread owns one shard and increments without contention; a
//!   snapshot sums the shards. Addition commutes, so the totals are
//!   independent of thread interleaving.
//! * [`Log2Histogram`] / [`SharedHistogram`] — fixed-bucket base-2
//!   latency histograms. Bucket `k` covers `[2^(k-1), 2^k)` ns, so the
//!   record path is one `leading_zeros` plus one atomic add — cheap
//!   enough to leave enabled on the TX hot path. Bucket counts are sums
//!   of events, so shard merges are associative and commutative, and a
//!   merged histogram is a pure function of the *set* of recorded
//!   values — never of recording order.
//! * [`TraceRing`] — a bounded ring of virtual-time-stamped events
//!   (phase transitions, watchdog trips, fault activations, resume
//!   rewinds). When full it overwrites the oldest entry and counts the
//!   drop, so a misbehaving scan can never grow the ring without bound.
//!
//! Everything here records *virtual* durations handed in by the caller;
//! combined with the order-independence above, that is the determinism
//! argument (DESIGN.md §5): two runs with the same seed and config
//! produce byte-identical snapshots.

mod counter;
mod hist;
mod trace;

pub use counter::CounterBank;
pub use hist::{
    bucket_ceil, bucket_floor, bucket_index, BucketCount, HistogramSnapshot, Log2Histogram,
    SharedHistogram, BUCKETS,
};
pub use trace::{TraceEvent, TraceEventSnapshot, TraceRing, TraceSnapshot};

use serde::Serialize;
use std::collections::BTreeMap;

/// A complete, serializable dump of a registry: every histogram by name
/// (BTreeMap, so key order — and therefore the serialized bytes — is
/// deterministic), the event trace, and the RTT sampling rate.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Histograms by name (e.g. `probe_rtt_ns`), sorted by key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The bounded event trace.
    pub trace: TraceSnapshot,
    /// `probe_rtt_ns` holds the RTT of one probe in this many, chosen by
    /// a fixed hash of the target (its `count` is a sample, not the
    /// number of validated responses).
    pub rtt_sample_one_in: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serializes_deterministically() {
        let mut h = Log2Histogram::new();
        h.record(100);
        h.record(1_000_000);
        let mut snap = MetricsSnapshot::default();
        snap.histograms.insert("zeta".into(), h.snapshot());
        snap.histograms.insert("alpha".into(), h.snapshot());
        let a = serde_json::to_string(&snap).unwrap();
        let b = serde_json::to_string(&snap.clone()).unwrap();
        assert_eq!(a, b);
        // BTreeMap order: alpha before zeta regardless of insert order.
        assert!(a.find("alpha").unwrap() < a.find("zeta").unwrap());
    }
}
