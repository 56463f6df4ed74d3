//! The scan-wide metrics registry: the engine's single store for
//! counters, latency histograms, the event trace, and the probe
//! in-flight tracker that turns response arrivals into RTT samples.
//!
//! Both drivers create one [`ScanMetrics`] per run and route *every*
//! counter increment through it (the [`Monitor`](crate::monitor::Monitor)
//! and the checkpoint journal are consumers of this registry, not
//! parallel books). The inline driver uses one shard; the threaded one
//! gives each send thread its own shard plus one for the receive loop,
//! so the hot path is an uncontended atomic add either way.
//!
//! All recorded durations are virtual-clock values handed in by the
//! engines, and every aggregate is order-independent (sums, min/max,
//! sorted trace), so two same-seed runs produce byte-identical
//! snapshots — the determinism contract CI enforces.

use crate::metadata::Counters;
pub use crate::metadata::{CounterId, COUNTER_WIDTH};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use zmap_metrics::{CounterBank, MetricsSnapshot, SharedHistogram, TraceRing};

/// The engine latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Probe send (scheduled slot time) → validated response arrival.
    ProbeRtt = 0,
    /// Virtual span of one batch flush: last scheduled slot minus first,
    /// plus any retry backoff the flush accrued.
    BatchFlush,
    /// Serialized size of each checkpoint journal write, in bytes (a
    /// deterministic proxy — wall-clock write time would not replay).
    CheckpointWrite,
    /// Virtual time from cooldown entry to the last drained event.
    CooldownDrain,
    /// Supervisor restart backoff: the virtual delay imposed before a
    /// dead worker's task is requeued (empty outside supervised runs).
    RestartBackoff,
}

const HIST_NAMES: [&str; 5] = [
    "probe_rtt_ns",
    "batch_flush_ns",
    "checkpoint_write_bytes",
    "cooldown_drain_ns",
    "restart_backoff_ns",
];

/// Splitmix64 finalizer for the tracker maps. The keys are already
/// well-mixed `target_key` packings, and `note`/`take` run once per
/// probe on the TX hot path — std's default SipHash costs more there
/// than the map operation itself. Not DoS-resistant, which is fine:
/// keys come from the scan's own permutation, not from the network.
#[derive(Clone, Copy, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type KeyMap = HashMap<u64, u64, std::hash::BuildHasherDefault<KeyHasher>>;

/// In-flight probe tracker: `target key → scheduled send time`, sharded
/// by key hash so sender inserts and receive-loop takes contend only
/// within a shard. Bounded: a full shard drops new inserts (counted), so
/// memory never exceeds `SHARDS × PER_SHARD_CAP` entries even if nothing
/// ever answers.
struct InflightClock {
    shards: Vec<Mutex<KeyMap>>,
    // [atomics] overflow: Relaxed counter of dropped inserts; summed at
    // snapshot time after the scan quiesces, so no ordering is needed.
    overflow: AtomicU64,
}

const INFLIGHT_SHARDS: usize = 16;
const INFLIGHT_PER_SHARD_CAP: usize = 1 << 16;

impl InflightClock {
    fn new() -> Self {
        InflightClock {
            shards: (0..INFLIGHT_SHARDS).map(|_| Mutex::new(KeyMap::default())).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<KeyMap> {
        // Multiplicative hash spreads the (ip, port) packing across
        // shards; the low bits of raw keys are port bits and cluster.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
        &self.shards[(h as usize) % INFLIGHT_SHARDS]
    }

    /// Records `key`'s first scheduled send time (later probes to the
    /// same target keep the first stamp).
    fn note(&self, key: u64, t_ns: u64) {
        let mut g = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        if g.len() < INFLIGHT_PER_SHARD_CAP {
            // Common case: one probe → one lookup on the TX hot path.
            g.entry(key).or_insert(t_ns);
        } else if !g.contains_key(&key) {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        // At cap with the key present: first stamp wins, nothing to do.
    }

    /// Takes `key`'s send time; the first response wins, duplicates get
    /// `None`.
    fn take(&self, key: u64) -> Option<u64> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key)
    }
}

/// The per-scan metrics registry. Shareable across threads by reference
/// (the parallel engine hands `&ScanMetrics` to its scoped senders).
pub struct ScanMetrics {
    /// Counters carried over from a resume journal; added to every
    /// snapshot, never written after construction.
    baseline: Counters,
    bank: CounterBank,
    hists: [SharedHistogram; 5],
    trace: TraceRing,
    inflight: InflightClock,
}

/// Retained trace events. Generous for real scans (tens of events);
/// bounded against pathological fault schedules.
const TRACE_CAP: usize = 256;

impl ScanMetrics {
    /// A registry with `shards` counter/histogram write lanes, seeded
    /// with `baseline` (the resume journal's cumulative counters, or
    /// default for a fresh scan).
    pub fn new(shards: usize, baseline: Counters) -> Self {
        let shards = shards.max(1);
        ScanMetrics {
            baseline,
            bank: CounterBank::new(shards, COUNTER_WIDTH),
            hists: [
                SharedHistogram::new(shards),
                SharedHistogram::new(shards),
                SharedHistogram::new(shards),
                SharedHistogram::new(shards),
                SharedHistogram::new(shards),
            ],
            trace: TraceRing::new(TRACE_CAP),
            inflight: InflightClock::new(),
        }
    }

    /// Adds `n` to a counter in shard 0 (single-threaded engine).
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.bank.add(0, id as usize, n);
    }

    /// Adds `n` to a counter in `shard` (parallel engine: each send
    /// thread passes its own index, the receive loop passes
    /// [`rx_shard`](Self::rx_shard)).
    #[inline]
    pub fn add_at(&self, shard: usize, id: CounterId, n: u64) {
        self.bank.add(shard, id as usize, n);
    }

    /// Overwrites a counter's shard-0 lane so the registry total
    /// (baseline + lanes) equals the absolute value `v`. Single-writer
    /// counters only (`targets_total` rollback after a mid-batch kill).
    #[inline]
    pub fn store_absolute(&self, id: CounterId, v: u64) {
        self.bank
            .store(0, id as usize, v.saturating_sub(self.baseline.get(id)));
    }

    /// Overwrites a counter's lane in `shard` with the attempt-local
    /// value `v` (receive loop mirroring the transport's cumulative
    /// poison-recovery count).
    #[inline]
    pub fn store_at(&self, shard: usize, id: CounterId, v: u64) {
        self.bank.store(shard, id as usize, v);
    }

    /// Current total of one counter (baseline + all shards).
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.baseline.get(id) + self.bank.sum(id as usize)
    }

    /// The shard index reserved for the receive loop in a parallel run
    /// constructed with `new(threads + 1, …)`.
    pub fn rx_shard(&self) -> usize {
        self.bank.shards() - 1
    }

    /// A consistent-enough snapshot of every counter: exact once writers
    /// have quiesced; during a parallel scan each field is individually
    /// atomic (same contract as the previous ad-hoc atomics).
    pub fn counters(&self) -> Counters {
        let totals = self.bank.totals();
        let mut c = self.baseline;
        for &id in CounterId::ALL {
            *c.get_mut(id) += totals[id as usize];
        }
        c
    }

    /// Records a histogram value into shard 0.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        self.hists[id as usize].record(0, v);
    }

    /// Records a histogram value into `shard`.
    #[inline]
    pub fn record_at(&self, shard: usize, id: HistId, v: u64) {
        self.hists[id as usize].record(shard, v);
    }

    /// Appends a trace event (virtual time relative to scan start).
    pub fn trace(&self, t_ns: u64, kind: &'static str, detail: u64) {
        self.trace.push(t_ns, kind, detail);
    }

    /// Stamps a probe's scheduled send time for RTT tracking. `key` is
    /// the `zmap_dedup::target_key` packing of `(ip, port)`.
    #[inline]
    pub fn note_probe(&self, key: u64, t_ns: u64) {
        self.inflight.note(key, t_ns);
    }

    /// Resolves a validated response against the in-flight tracker and
    /// records the RTT into `shard`. Duplicate responses find nothing
    /// and record nothing.
    #[inline]
    pub fn record_rtt(&self, shard: usize, key: u64, arrival_ns: u64) {
        if let Some(sent_at) = self.inflight.take(key) {
            self.hists[HistId::ProbeRtt as usize]
                .record(shard, arrival_ns.saturating_sub(sent_at));
        }
    }

    /// The full serializable dump: histograms by name, sorted trace, and
    /// the in-flight overflow count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            trace: self.trace.snapshot(),
            inflight_overflow: self.inflight.overflow.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        };
        for (i, name) in HIST_NAMES.iter().enumerate() {
            snap.histograms
                .insert((*name).to_string(), self.hists[i].merged().snapshot());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_through_the_bank() {
        let m = ScanMetrics::new(1, Counters::default());
        m.add(CounterId::Sent, 10);
        m.add(CounterId::UniqueSuccesses, 3);
        m.add(CounterId::Sent, 5);
        let c = m.counters();
        assert_eq!(c.sent, 15);
        assert_eq!(c.unique_successes, 3);
        assert_eq!(c.targets_total, 0);
        assert_eq!(m.get(CounterId::Sent), 15);
    }

    #[test]
    fn baseline_is_added_to_every_snapshot() {
        let baseline = Counters {
            sent: 100,
            resume_count: 1,
            ..Counters::default()
        };
        let m = ScanMetrics::new(2, baseline);
        m.add_at(0, CounterId::Sent, 7);
        m.add_at(1, CounterId::Sent, 3);
        assert_eq!(m.counters().sent, 110);
        assert_eq!(m.counters().resume_count, 1);
    }

    #[test]
    fn store_absolute_rolls_a_counter_back() {
        let baseline = Counters {
            targets_total: 50,
            ..Counters::default()
        };
        let m = ScanMetrics::new(1, baseline);
        m.add(CounterId::TargetsTotal, 20);
        assert_eq!(m.get(CounterId::TargetsTotal), 70);
        m.store_absolute(CounterId::TargetsTotal, 63);
        assert_eq!(m.get(CounterId::TargetsTotal), 63);
    }

    #[test]
    fn rtt_tracker_resolves_first_response_only() {
        let m = ScanMetrics::new(1, Counters::default());
        m.note_probe(42, 1_000);
        m.note_probe(42, 2_000); // retransmit keeps the first stamp
        m.record_rtt(0, 42, 51_000);
        m.record_rtt(0, 42, 99_000); // duplicate: no sample
        let snap = m.snapshot();
        let h = &snap.histograms["probe_rtt_ns"];
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 50_000);
        assert_eq!(h.max, 50_000);
    }

    #[test]
    fn snapshot_names_every_histogram() {
        let m = ScanMetrics::new(1, Counters::default());
        m.record(HistId::BatchFlush, 10);
        m.record(HistId::CheckpointWrite, 512);
        m.record(HistId::CooldownDrain, 1_000_000_000);
        let snap = m.snapshot();
        for name in [
            "probe_rtt_ns",
            "batch_flush_ns",
            "checkpoint_write_bytes",
            "cooldown_drain_ns",
            "restart_backoff_ns",
        ] {
            assert!(snap.histograms.contains_key(name), "missing {name}");
        }
        assert_eq!(snap.histograms["batch_flush_ns"].count, 1);
        assert_eq!(snap.inflight_overflow, 0);
    }

    #[test]
    fn trace_events_arrive_sorted() {
        let m = ScanMetrics::new(1, Counters::default());
        m.trace(500, "cooldown_start", 0);
        m.trace(0, "scan_start", 64);
        let t = m.snapshot().trace;
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].kind, "scan_start");
        assert_eq!(t.events[0].detail, 64);
        assert_eq!(t.events[1].kind, "cooldown_start");
    }
}
