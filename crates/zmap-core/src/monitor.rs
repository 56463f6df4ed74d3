//! Real-time status updates — stream #3: per-second send/receive/drop
//! rates, as ZMap prints while a scan runs.
//!
//! A sample carries the whole [`Counters`] set, serialized flat under the
//! counters' own names, so a counter added to the table in `metadata.rs`
//! reaches this live stream with no edit here — a scan operator never
//! learns about a new failure mode only after the scan completes.

use crate::metadata::{CounterId, Counters, COUNTER_WIDTH};
use crate::metrics::ScanMetrics;
use serde::Serialize;

/// One per-second status sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusUpdate {
    /// Seconds since scan start.
    pub t_secs: u64,
    /// Send rate over the last interval (pps).
    pub send_rate: f64,
    /// Percent of targets completed (0–100).
    pub percent_complete: f64,
    /// Every counter, as of this sample.
    pub counters: Counters,
}

/// Flat, in the stream's historical key order: `t_secs`, the counters in
/// table order with `send_rate` riding after `sent`, `percent_complete`.
impl Serialize for StatusUpdate {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("StatusUpdate", COUNTER_WIDTH + 3)?;
        st.serialize_field("t_secs", &self.t_secs)?;
        for &id in CounterId::ALL {
            st.serialize_field(id.name(), &self.counters.get(id))?;
            if id == CounterId::Sent {
                st.serialize_field("send_rate", &self.send_rate)?;
            }
        }
        st.serialize_field("percent_complete", &self.percent_complete)?;
        st.end()
    }
}

/// Collects per-second samples as the scan advances.
#[derive(Debug, Default)]
pub struct Monitor {
    samples: Vec<StatusUpdate>,
    last_sent: u64,
    next_tick: u64,
}

/// Interval between samples, in ns.
const TICK_NS: u64 = 1_000_000_000;

impl Monitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Called by the engine as time advances; emits a sample per elapsed
    /// second boundary from the running counters. `expected_targets` is
    /// the denominator for progress (the shard's estimated probe count).
    pub fn tick(&mut self, now_ns: u64, c: &Counters, expected_targets: u64) {
        while now_ns >= self.next_tick {
            let t_secs = self.next_tick / TICK_NS;
            // Saturating: a resumed scan seeds `sent` from the journal
            // baseline, and a rolled-back counter must never produce a
            // negative-wrapped (then NaN-breeding) rate.
            let send_rate = c.sent.saturating_sub(self.last_sent) as f64;
            self.samples.push(StatusUpdate {
                t_secs,
                send_rate,
                percent_complete: percent_complete(c.sent, expected_targets),
                counters: *c,
            });
            self.last_sent = c.sent;
            self.next_tick += TICK_NS;
        }
    }

    /// Like [`tick`](Self::tick), reading the counters from the metrics
    /// registry — the engines' path, which makes the status stream a
    /// pure consumer of the registry rather than a parallel book. The
    /// registry is snapshotted only when a second boundary has passed:
    /// the engines call this once per flushed batch or receive poll.
    pub fn observe(&mut self, now_ns: u64, metrics: &ScanMetrics, expected_targets: u64) {
        if now_ns >= self.next_tick {
            self.tick(now_ns, &metrics.counters(), expected_targets);
        }
    }

    /// When the next sample is due, on the clock [`tick`](Self::tick) reads.
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// All samples so far.
    pub fn samples(&self) -> &[StatusUpdate] {
        &self.samples
    }
}

/// Progress as a percentage, always a finite value in `[0, 100]`:
/// an unknown/zero denominator reports 100 (the scan cannot be "behind"
/// a target space it never had), and an overshooting numerator — probe
/// retransmits, a `max_targets` cap below the estimate — clamps at 100.
fn percent_complete(sent: u64, expected: u64) -> f64 {
    if expected == 0 {
        100.0
    } else {
        (100.0 * sent as f64 / expected as f64).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(sent: u64, received: u64, successes: u64, duplicates: u64) -> Counters {
        Counters {
            sent,
            responses_validated: received,
            unique_successes: successes,
            duplicates_suppressed: duplicates,
            ..Counters::default()
        }
    }

    #[test]
    fn one_sample_per_second() {
        let mut m = Monitor::new();
        m.tick(0, &counts(0, 0, 0, 0), 1000); // t=0 boundary
        m.tick(500_000_000, &counts(5000, 10, 8, 0), 1000);
        m.tick(1_000_000_000, &counts(10_000, 25, 20, 1), 1000);
        m.tick(3_000_000_000, &counts(30_000, 70, 60, 2), 1000);
        let s = m.samples();
        // Boundaries at t=0,1,2,3.
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].t_secs, 0);
        assert_eq!(s[1].t_secs, 1);
        assert_eq!(s[3].t_secs, 3);
        // Rate over second 1 = sent at that boundary minus before.
        assert_eq!(s[1].send_rate, 10_000.0);
    }

    #[test]
    fn percent_complete_is_always_finite_and_bounded() {
        let mut m = Monitor::new();
        m.tick(0, &counts(250, 0, 0, 0), 1000);
        assert!((m.samples()[0].percent_complete - 25.0).abs() < 1e-9);
        // Zero expected targets (empty shard, zero-sent scan): 100%, not
        // NaN/inf from a zero denominator.
        let mut m = Monitor::new();
        m.tick(0, &counts(0, 0, 0, 0), 0);
        assert_eq!(m.samples()[0].percent_complete, 100.0);
        // Overshoot (sent beyond the shard estimate) clamps at 100.
        let mut m = Monitor::new();
        m.tick(0, &counts(1500, 0, 0, 0), 1000);
        assert_eq!(m.samples()[0].percent_complete, 100.0);
        for s in m.samples() {
            assert!(s.percent_complete.is_finite());
            assert!((0.0..=100.0).contains(&s.percent_complete));
        }
    }

    #[test]
    fn rate_never_goes_negative_on_counter_rollback() {
        let mut m = Monitor::new();
        m.tick(0, &counts(100, 0, 0, 0), 1000);
        // A rolled-back `sent` (smaller than the previous sample) must
        // not wrap into an astronomically large rate.
        m.tick(1_000_000_000, &counts(40, 0, 0, 0), 1000);
        let s = m.samples();
        assert_eq!(s[1].send_rate, 0.0);
        assert!(s.iter().all(|u| u.send_rate.is_finite() && u.send_rate >= 0.0));
    }

    #[test]
    fn observe_reads_the_registry() {
        use crate::metrics::{CounterId, ScanMetrics};
        let metrics = ScanMetrics::new(1, Counters::default());
        metrics.add(CounterId::Sent, 500);
        metrics.add(CounterId::UniqueSuccesses, 123);
        let mut m = Monitor::new();
        m.observe(0, &metrics, 1000);
        assert_eq!(m.samples()[0].counters.sent, 500);
        assert_eq!(m.samples()[0].counters.unique_successes, 123);
        assert!((m.samples()[0].percent_complete - 50.0).abs() < 1e-9);
    }

    #[test]
    fn samples_carry_fault_counters() {
        let mut m = Monitor::new();
        let mut c = counts(10, 1, 1, 0);
        c.send_retries = 3;
        c.responses_corrupted = 1;
        m.tick(0, &c, 100);
        assert_eq!(m.samples()[0].counters, c);
    }

    #[test]
    fn status_json_is_pinned() {
        // The `--status-json` line format: flat, and in this key order.
        let mut c = Counters::default();
        for (i, &id) in CounterId::ALL.iter().enumerate() {
            *c.get_mut(id) = i as u64 + 1;
        }
        let mut m = Monitor::new();
        m.tick(1_000_000_000, &c, 8);
        assert_eq!(
            serde_json::to_string(&m.samples()[1]).unwrap(),
            "{\"t_secs\":1,\"targets_total\":1,\"sent\":2,\"send_rate\":0.0,\
             \"responses_validated\":3,\"responses_discarded\":4,\
             \"duplicates_suppressed\":5,\"unique_successes\":6,\"unique_failures\":7,\
             \"send_retries\":8,\"sendto_failures\":9,\"responses_corrupted\":10,\
             \"checkpoints_written\":11,\"resume_count\":12,\"watchdog_stalls\":13,\
             \"shutdown_clean\":14,\"jobs_admitted\":15,\"worker_restarts\":16,\
             \"jobs_degraded\":17,\"migrations\":18,\
             \"percent_complete\":25.0}"
        );
    }
}
