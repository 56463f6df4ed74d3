//! The scan-wide metrics registry: the engine's single store for
//! counters, latency histograms, the event trace, and the sampled send
//! stamps that turn response arrivals into RTT samples.
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
use std::sync::Mutex;
use zmap_dedup::FifoMap;
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

/// One probe in this many is RTT-sampled (stated in the metadata).
pub const RTT_SAMPLE_ONE_IN: u64 = 64;

/// Sampled stamps remembered: the newest 2^16, i.e. the last ~4.2 M
/// probes — 0.42 s of round trip at 10 Mpps, 2.8 s at 1.488 Mpps. A
/// stamp nobody answers ages out instead of filling the map.
const RTT_HORIZON: usize = 1 << 16;

/// Whether the probe to `key` carries an RTT sample: a pure function of
/// the key, so the sender and the receive loop agree with no shared
/// per-target state, and 63 probes in 64 touch nothing. The multiplier
/// is not `KeyTable`'s (2^64 / φ): sampling on that product's top bits
/// would home every sampled key in the first 64th of the stamp table.
#[inline]
pub fn rtt_sampled(key: u64) -> bool {
    key.wrapping_mul(0xBF58_476D_1CE4_E5B9) <= u64::MAX / RTT_SAMPLE_ONE_IN
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
    /// Sampled probes' scheduled send times, `target key → t_ns`. One
    /// lock for both drivers: it is taken for one probe in 64.
    rtt_stamps: Mutex<FifoMap>,
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
            rtt_stamps: Mutex::new(FifoMap::new(RTT_HORIZON)),
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

    fn rtt_stamps(&self) -> std::sync::MutexGuard<'_, FifoMap> {
        // Every FifoMap update leaves it usable, so a poisoned lock is
        // recovered, as the transport's is.
        self.rtt_stamps.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Stamps a sampled probe's scheduled send time ([`rtt_sampled`]);
    /// later probes to the same target keep the first stamp. `key` is
    /// the plan's dedup key (`zmap_dedup::target_key` on IPv4).
    #[inline]
    pub fn note_probe(&self, key: u64, t_ns: u64) {
        if rtt_sampled(key) {
            self.rtt_stamps().try_insert(key, t_ns);
        }
    }

    /// Resolves a validated response against the sampled stamps and
    /// records the RTT into `shard`. The first response takes the stamp;
    /// duplicates, unsampled targets and stamps that aged out find
    /// nothing and record nothing.
    #[inline]
    pub fn record_rtt(&self, shard: usize, key: u64, arrival_ns: u64) {
        if !rtt_sampled(key) {
            return;
        }
        if let Some(sent_at) = self.rtt_stamps().take(key) {
            self.hists[HistId::ProbeRtt as usize]
                .record(shard, arrival_ns.saturating_sub(sent_at));
        }
    }

    /// The full serializable dump: histograms by name, sorted trace, and
    /// the RTT sampling rate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            trace: self.trace.snapshot(),
            rtt_sample_one_in: RTT_SAMPLE_ONE_IN,
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

    /// Distinct keys that are (or are not) RTT-sampled, in a fixed order.
    fn keys(sampled: bool) -> impl Iterator<Item = u64> {
        (0u64..)
            .map(|i| zmap_dedup::target_key(0x0B00_0000 + i as u32, 80))
            .filter(move |&k| rtt_sampled(k) == sampled)
    }

    #[test]
    fn rtt_tracker_resolves_first_response_only() {
        let m = ScanMetrics::new(1, Counters::default());
        let key = keys(true).next().unwrap();
        m.note_probe(key, 1_000);
        m.note_probe(key, 2_000); // retransmit keeps the first stamp
        m.record_rtt(0, key, 51_000);
        m.record_rtt(0, key, 99_000); // duplicate: no sample
        let snap = m.snapshot();
        let h = &snap.histograms["probe_rtt_ns"];
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 50_000);
        assert_eq!(h.max, 50_000);
    }

    #[test]
    fn unsampled_probes_touch_nothing() {
        let m = ScanMetrics::new(1, Counters::default());
        for key in keys(false).take(1000) {
            m.note_probe(key, 1_000);
            m.record_rtt(0, key, 51_000);
        }
        assert!(m.rtt_stamps().is_empty());
        assert_eq!(m.snapshot().histograms["probe_rtt_ns"].count, 0);
    }

    #[test]
    fn one_key_in_64_is_sampled() {
        // The two key shapes the plans produce: v4 (ip, port) packings
        // and v6's consecutive compact indices.
        let n = 1u64 << 20;
        let v4 = (0..n).filter(|&i| rtt_sampled(zmap_dedup::target_key(i as u32 * 7, 443)));
        let v6 = (0..n).filter(|&i| rtt_sampled(i));
        for (family, hits) in [("v4", v4.count() as u64), ("v6", v6.count() as u64)] {
            let expect = n / RTT_SAMPLE_ONE_IN;
            assert!(hits.abs_diff(expect) < expect / 20, "{family}: {hits} of {n}");
        }
    }

    #[test]
    fn unanswered_stamps_age_out_instead_of_filling_the_map() {
        let m = ScanMetrics::new(1, Counters::default());
        let mut sampled = keys(true);
        let oldest = sampled.next().unwrap();
        m.note_probe(oldest, 0);
        for (t, key) in sampled.by_ref().take(4 * RTT_HORIZON).enumerate() {
            m.note_probe(key, t as u64);
            assert!(m.rtt_stamps().memory_bytes() <= 26 * RTT_HORIZON as u64);
        }
        // A probe sent now is still measured ...
        let fresh = sampled.next().unwrap();
        m.note_probe(fresh, 5_000_000);
        m.record_rtt(0, fresh, 5_030_000);
        // ... and one from beyond the horizon no longer is.
        m.record_rtt(0, oldest, 5_040_000);
        let snap = m.snapshot();
        let h = &snap.histograms["probe_rtt_ns"];
        assert_eq!((h.count, h.min, h.max), (1, 30_000, 30_000));
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
        assert_eq!(snap.rtt_sample_one_in, 64);
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
