//! Composable fault injection for the simulated Internet.
//!
//! A [`FaultPlan`] layers scheduled impairments on top of the world's
//! baseline loss model: EAGAIN-style transient send failures at the
//! scanner's NIC, burst-loss windows, mid-scan blackouts of address
//! ranges, response corruption (single bit flips that probe the receive
//! path's checksum validation), response duplication, reordering jitter,
//! and ICMP rate-limit storms. Every impairment is a pure function of
//! `(world seed ^ plan salt, a per-packet counter or address, a stream
//! tag)`, so a scan against a faulted world replays identically under the
//! same seed — the property every fault-injection test leans on.

use crate::{hash3, unit};
use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;

/// Error from [`crate::World::send`]: the simulated NIC refused the frame
/// this instant, like `sendto(2)` returning `EAGAIN`. The caller may retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Transient send-buffer exhaustion; retrying after a backoff is
    /// expected to succeed.
    WouldBlock,
    /// The scheduled [`FaultPlan::kill_at`] ordinal was reached: the
    /// scanning process is considered dead from this instant. Not
    /// retryable — the engine must abandon the scan exactly as a
    /// `SIGKILL` would, leaving only its last checkpoint behind.
    Killed,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::WouldBlock => write!(f, "send would block (EAGAIN)"),
            SendError::Killed => write!(f, "process killed by fault schedule"),
        }
    }
}

impl std::error::Error for SendError {}

/// A window during which a fraction of in-flight packets is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BurstLoss {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Fraction of packets traversing the window that are dropped.
    pub drop_fraction: f64,
}

/// An address range that goes dark for a time window: probes into it
/// vanish (no responses, no errors) — a mid-scan routing outage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Blackout {
    /// Network address (host byte order).
    pub network: u32,
    pub prefix_len: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Blackout {
    fn covers(&self, dst: u32, now_ns: u64) -> bool {
        if now_ns < self.start_ns || now_ns >= self.end_ns {
            return false;
        }
        let shift = 32 - u32::from(self.prefix_len);
        self.prefix_len == 0 || (dst >> shift) == (self.network >> shift)
    }
}

/// A window during which routers answer a fraction of probes with ICMP
/// host-unreachable instead of forwarding them — the signature of an
/// ICMP rate-limit storm near the target network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IcmpStorm {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Fraction of in-window probes consumed and answered with ICMP.
    pub reply_fraction: f64,
}

// Stream tags separating the fault draws from each other and from the
// loss model's streams.
const S_SEND: u64 = 0xFA17_0001;
const S_BURST: u64 = 0xFA17_0002;
const S_CORRUPT: u64 = 0xFA17_0003;
const S_CORRUPT_POS: u64 = 0xFA17_0004;
const S_DUP: u64 = 0xFA17_0005;
const S_DUP_DELAY: u64 = 0xFA17_0006;
const S_REORDER: u64 = 0xFA17_0007;
const S_STORM: u64 = 0xFA17_0008;

/// The full fault schedule for one simulated scan.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultPlan {
    /// Mixed into the world seed so two plans on one world can differ.
    pub salt: u64,
    /// Probability a send attempt fails with [`SendError::WouldBlock`].
    pub send_failure_fraction: f64,
    /// Probability a delivered response is duplicated.
    pub duplicate_fraction: f64,
    /// Probability a delivered response picks up extra delay.
    pub reorder_fraction: f64,
    /// Maximum extra delay for reordered responses.
    pub reorder_jitter_ns: u64,
    /// Probability a delivered response has one bit flipped.
    pub corrupt_fraction: f64,
    /// Scheduled burst-loss windows (checked in order; first hit wins).
    pub burst_loss: Vec<BurstLoss>,
    /// Scheduled address-range blackouts.
    pub blackouts: Vec<Blackout>,
    /// Optional ICMP rate-limit storm window.
    pub icmp_storm: Option<IcmpStorm>,
    /// Kill the scanning process at this send-attempt ordinal
    /// (1-based): that attempt and every later one fail with
    /// [`SendError::Killed`]. Crash injection for kill/resume tests.
    pub kill_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan can never perturb anything.
    pub fn is_inert(&self) -> bool {
        self.send_failure_fraction == 0.0
            && self.duplicate_fraction == 0.0
            && self.reorder_fraction == 0.0
            && self.corrupt_fraction == 0.0
            && self.burst_loss.is_empty()
            && self.blackouts.is_empty()
            && self.icmp_storm.is_none()
            && self.kill_at.is_none()
    }

    /// Has the scheduled kill fired by send attempt `attempt` (1-based)?
    pub fn killed(&self, attempt: u64) -> bool {
        self.kill_at.is_some_and(|k| attempt >= k)
    }

    /// Starts a builder.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder(FaultPlan::default())
    }

    #[inline]
    fn draw(&self, seed: u64, counter: u64, stream: u64) -> f64 {
        unit(hash3(seed ^ self.salt, counter as u32, stream ^ (counter >> 32)))
    }

    /// Does send attempt number `attempt` fail at the NIC?
    pub fn send_fails(&self, seed: u64, attempt: u64) -> bool {
        self.send_failure_fraction > 0.0
            && self.draw(seed, attempt, S_SEND) < self.send_failure_fraction
    }

    /// Is `dst` inside a blacked-out range at `now_ns`?
    pub fn in_blackout(&self, dst: u32, now_ns: u64) -> bool {
        self.blackouts.iter().any(|b| b.covers(dst, now_ns))
    }

    /// Does packet number `counter`, traversing the network at `at_ns`,
    /// die in a burst-loss window?
    pub fn burst_drop(&self, seed: u64, at_ns: u64, counter: u64) -> bool {
        self.burst_loss
            .iter()
            .find(|w| at_ns >= w.start_ns && at_ns < w.end_ns)
            .is_some_and(|w| self.draw(seed, counter, S_BURST) < w.drop_fraction)
    }

    /// If response number `counter` is corrupted, the bit index to flip
    /// (relative to the corruptible region the caller defines).
    pub fn corrupt_bit(&self, seed: u64, counter: u64, region_bits: u64) -> Option<u64> {
        if region_bits == 0
            || self.corrupt_fraction == 0.0
            || self.draw(seed, counter, S_CORRUPT) >= self.corrupt_fraction
        {
            return None;
        }
        Some(hash3(seed ^ self.salt, counter as u32, S_CORRUPT_POS) % region_bits)
    }

    /// Extra delivery delay for the duplicate of response `counter`, if
    /// that response is duplicated.
    pub fn duplicate_delay(&self, seed: u64, counter: u64) -> Option<u64> {
        if self.duplicate_fraction == 0.0
            || self.draw(seed, counter, S_DUP) >= self.duplicate_fraction
        {
            return None;
        }
        // Duplicates trail the original by up to 50 ms.
        Some(1 + hash3(seed ^ self.salt, counter as u32, S_DUP_DELAY) % 50_000_000)
    }

    /// Extra delay applied to response `counter` when it is reordered.
    pub fn reorder_extra(&self, seed: u64, counter: u64) -> u64 {
        if self.reorder_fraction == 0.0
            || self.reorder_jitter_ns == 0
            || self.draw(seed, counter, S_REORDER) >= self.reorder_fraction
        {
            return 0;
        }
        1 + hash3(seed ^ self.salt, counter as u32, S_REORDER ^ 0x9E37) % self.reorder_jitter_ns
    }

    /// Is probe number `counter`, sent at `now_ns`, consumed by the ICMP
    /// storm (router replies with unreachable instead of forwarding)?
    pub fn storm_consumes(&self, seed: u64, now_ns: u64, counter: u64) -> bool {
        self.icmp_storm.is_some_and(|s| {
            now_ns >= s.start_ns
                && now_ns < s.end_ns
                && self.draw(seed, counter, S_STORM) < s.reply_fraction
        })
    }

    /// Parses a plan from its JSON form (the `--fault-plan` file format).
    ///
    /// All fields are optional; times are nanoseconds; blackout networks
    /// are dotted-quad strings:
    ///
    /// ```json
    /// {
    ///   "salt": 7,
    ///   "send_failure_fraction": 0.01,
    ///   "duplicate_fraction": 0.02,
    ///   "reorder_fraction": 0.1, "reorder_jitter_ns": 5000000,
    ///   "corrupt_fraction": 0.0001,
    ///   "burst_loss": [{"start_ns": 0, "end_ns": 1000000000, "drop_fraction": 0.5}],
    ///   "blackouts": [{"network": "10.7.0.0", "prefix_len": 16,
    ///                  "start_ns": 0, "end_ns": 2000000000}],
    ///   "icmp_storm": {"start_ns": 0, "end_ns": 500000000, "reply_fraction": 0.3}
    /// }
    /// ```
    pub fn from_json_str(s: &str) -> Result<FaultPlan, String> {
        let v = serde_json::from_str(s).map_err(|e| format!("fault plan is not JSON: {e}"))?;
        let obj = v
            .as_object()
            .ok_or_else(|| "fault plan must be a JSON object".to_string())?;
        let mut plan = FaultPlan::default();
        for (key, val) in obj {
            match key.as_str() {
                "salt" => plan.salt = req_u64(val, key)?,
                "send_failure_fraction" => plan.send_failure_fraction = req_frac(val, key)?,
                "duplicate_fraction" => plan.duplicate_fraction = req_frac(val, key)?,
                "reorder_fraction" => plan.reorder_fraction = req_frac(val, key)?,
                "reorder_jitter_ns" => plan.reorder_jitter_ns = req_u64(val, key)?,
                "corrupt_fraction" => plan.corrupt_fraction = req_frac(val, key)?,
                "burst_loss" => {
                    for w in val
                        .as_array()
                        .ok_or_else(|| "burst_loss must be an array".to_string())?
                    {
                        plan.burst_loss.push(BurstLoss {
                            start_ns: req_u64(&w["start_ns"], "burst_loss.start_ns")?,
                            end_ns: req_u64(&w["end_ns"], "burst_loss.end_ns")?,
                            drop_fraction: req_frac(
                                &w["drop_fraction"],
                                "burst_loss.drop_fraction",
                            )?,
                        });
                    }
                }
                "blackouts" => {
                    for b in val
                        .as_array()
                        .ok_or_else(|| "blackouts must be an array".to_string())?
                    {
                        // Dotted quad in hand-written plans; the metadata
                        // echo round-trips it as a bare integer.
                        let net: u32 = match b["network"].as_str() {
                            Some(s) => s
                                .parse::<Ipv4Addr>()
                                .map(u32::from)
                                .map_err(|e| format!("bad blackout network: {e}"))?,
                            None => u32::try_from(req_u64(&b["network"], "blackouts.network")?)
                                .map_err(|_| "blackouts.network out of range".to_string())?,
                        };
                        let len = req_u64(&b["prefix_len"], "blackouts.prefix_len")?;
                        if len > 32 {
                            return Err(format!("blackout prefix_len {len} > 32"));
                        }
                        plan.blackouts.push(Blackout {
                            network: net,
                            prefix_len: len as u8,
                            start_ns: req_u64(&b["start_ns"], "blackouts.start_ns")?,
                            end_ns: req_u64(&b["end_ns"], "blackouts.end_ns")?,
                        });
                    }
                }
                "icmp_storm" if val.is_null() => plan.icmp_storm = None,
                "icmp_storm" => {
                    plan.icmp_storm = Some(IcmpStorm {
                        start_ns: req_u64(&val["start_ns"], "icmp_storm.start_ns")?,
                        end_ns: req_u64(&val["end_ns"], "icmp_storm.end_ns")?,
                        reply_fraction: req_frac(
                            &val["reply_fraction"],
                            "icmp_storm.reply_fraction",
                        )?,
                    });
                }
                "kill_at" => {
                    // The metadata echo serializes the unset state as
                    // null; accept it back.
                    plan.kill_at = if val.is_null() {
                        None
                    } else {
                        Some(req_u64(val, key)?)
                    };
                }
                other => return Err(format!("unknown fault plan key: {other}")),
            }
        }
        Ok(plan)
    }

    /// Serializes for the metadata echo.
    ///
    /// # Panics
    /// Never in practice: every field is a number, list or option, which
    /// the serializer cannot refuse.
    #[expect(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plan is always serializable")
    }
}

/// How a scheduled worker fault manifests in the attempt it lands on.
/// The ordinal `at` is interpreted by the kind: a NIC-event ordinal for
/// [`Kill`](WorkerFaultKind::Kill) and [`Stall`](WorkerFaultKind::Stall),
/// a send-attempt ordinal for [`Panic`](WorkerFaultKind::Panic). All are
/// 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WorkerFaultKind {
    /// The worker process dies as if `SIGKILL`ed: [`FaultPlan::kill_at`]
    /// is merged into the attempt's world, so every NIC call from the
    /// ordinal onward fails with [`SendError::Killed`]. The attempt's
    /// partial output survives (the harness recovers it post-mortem).
    Kill,
    /// The worker thread panics mid-send. Unlike a kill, nothing the
    /// attempt held in memory survives — only its on-disk journal.
    Panic,
    /// The worker's transport clock freezes: sends are swallowed, no
    /// response ever matures, and the receive path reports an eternally
    /// pending event. Detected by the engine's drain watchdog.
    Stall,
}

/// One scheduled worker fault: the `attempt`-th task assignment (1-based)
/// executed on worker `worker` suffers `kind` at ordinal `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkerFault {
    pub worker: u32,
    pub attempt: u64,
    pub kind: WorkerFaultKind,
    pub at: u64,
}

/// Per-worker fault schedule for a supervised scan: which task attempts
/// on which pool workers die, and how. Deterministic by construction —
/// the supervisor's dispatch order decides which job lands on a faulted
/// `(worker, attempt)` slot, and that order is a pure function of the
/// scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct WorkerFaultPlan {
    pub entries: Vec<WorkerFault>,
}

impl WorkerFaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        WorkerFaultPlan::default()
    }

    /// True when no fault is scheduled.
    pub fn is_inert(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an entry (fluent, for tests and scenario builders).
    pub fn with(mut self, worker: u32, attempt: u64, kind: WorkerFaultKind, at: u64) -> Self {
        self.entries.push(WorkerFault { worker, attempt, kind, at });
        self
    }

    /// The fault scheduled for the `attempt`-th assignment on `worker`,
    /// if any (first matching entry wins).
    pub fn fault_for(&self, worker: u32, attempt: u64) -> Option<WorkerFault> {
        self.entries
            .iter()
            .find(|e| e.worker == worker && e.attempt == attempt)
            .copied()
    }

    /// Parses a plan from its JSON form (the job-spec `worker_faults`
    /// key). `kind` is `"kill"`, `"panic"`, or `"stall"` (the serialized
    /// echo's capitalized forms are accepted back):
    ///
    /// ```json
    /// {"entries": [{"worker": 0, "attempt": 1, "kind": "kill", "at": 40}]}
    /// ```
    pub fn from_json_str(s: &str) -> Result<WorkerFaultPlan, String> {
        let v: serde_json::Value =
            serde_json::from_str(s).map_err(|e| format!("worker fault plan is not JSON: {e}"))?;
        Self::from_json_value(&v)
    }

    /// Like [`from_json_str`](Self::from_json_str) on an already-parsed
    /// value (the job-spec parser holds one).
    pub fn from_json_value(v: &serde_json::Value) -> Result<WorkerFaultPlan, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| "worker fault plan must be a JSON object".to_string())?;
        let mut plan = WorkerFaultPlan::default();
        for (key, val) in obj {
            match key.as_str() {
                "entries" => {
                    for e in val
                        .as_array()
                        .ok_or_else(|| "entries must be an array".to_string())?
                    {
                        let kind = match e["kind"].as_str() {
                            Some(k) if k.eq_ignore_ascii_case("kill") => WorkerFaultKind::Kill,
                            Some(k) if k.eq_ignore_ascii_case("panic") => WorkerFaultKind::Panic,
                            Some(k) if k.eq_ignore_ascii_case("stall") => WorkerFaultKind::Stall,
                            Some(k) => return Err(format!("unknown worker fault kind: {k}")),
                            None => return Err("entries[].kind must be a string".to_string()),
                        };
                        let at = req_u64(&e["at"], "entries[].at")?;
                        let attempt = req_u64(&e["attempt"], "entries[].attempt")?;
                        if at == 0 || attempt == 0 {
                            return Err("worker fault ordinals are 1-based".to_string());
                        }
                        plan.entries.push(WorkerFault {
                            worker: u32::try_from(req_u64(&e["worker"], "entries[].worker")?)
                                .map_err(|_| "entries[].worker out of range".to_string())?,
                            attempt,
                            kind,
                            at,
                        });
                    }
                }
                other => return Err(format!("unknown worker fault plan key: {other}")),
            }
        }
        Ok(plan)
    }

    /// Serializes for the metadata echo.
    ///
    /// # Panics
    /// Never in practice: every field is a number or list, which the
    /// serializer cannot refuse.
    #[expect(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("worker fault plan is always serializable")
    }
}

fn req_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{key} must be a non-negative integer"))
}

fn req_frac(v: &serde_json::Value, key: &str) -> Result<f64, String> {
    let f = v
        .as_f64()
        .ok_or_else(|| format!("{key} must be a number"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{key} must be within [0, 1], got {f}"));
    }
    Ok(f)
}

/// Fluent constructor for [`FaultPlan`].
pub struct FaultPlanBuilder(FaultPlan);

impl FaultPlanBuilder {
    /// Mixes `salt` into every draw.
    pub fn salt(mut self, salt: u64) -> Self {
        self.0.salt = salt;
        self
    }

    /// Fails this fraction of send attempts with EAGAIN.
    pub fn send_failures(mut self, fraction: f64) -> Self {
        self.0.send_failure_fraction = fraction;
        self
    }

    /// Duplicates this fraction of delivered responses.
    pub fn duplicate(mut self, fraction: f64) -> Self {
        self.0.duplicate_fraction = fraction;
        self
    }

    /// Delays this fraction of responses by up to `jitter_ns` extra.
    pub fn reorder(mut self, fraction: f64, jitter_ns: u64) -> Self {
        self.0.reorder_fraction = fraction;
        self.0.reorder_jitter_ns = jitter_ns;
        self
    }

    /// Flips one bit in this fraction of delivered responses.
    pub fn corrupt(mut self, fraction: f64) -> Self {
        self.0.corrupt_fraction = fraction;
        self
    }

    /// Adds a burst-loss window.
    pub fn burst_loss(mut self, start_ns: u64, end_ns: u64, drop_fraction: f64) -> Self {
        self.0.burst_loss.push(BurstLoss { start_ns, end_ns, drop_fraction });
        self
    }

    /// Blacks out `network/prefix_len` during `[start_ns, end_ns)`.
    pub fn blackout(mut self, network: Ipv4Addr, prefix_len: u8, start_ns: u64, end_ns: u64) -> Self {
        self.0.blackouts.push(Blackout {
            network: u32::from(network),
            prefix_len,
            start_ns,
            end_ns,
        });
        self
    }

    /// Schedules an ICMP rate-limit storm.
    pub fn icmp_storm(mut self, start_ns: u64, end_ns: u64, reply_fraction: f64) -> Self {
        self.0.icmp_storm = Some(IcmpStorm { start_ns, end_ns, reply_fraction });
        self
    }

    /// Kills the scanning process at send attempt `ordinal` (1-based).
    pub fn kill_at(mut self, ordinal: u64) -> Self {
        self.0.kill_at = Some(ordinal);
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::builder().corrupt(0.5).build().is_inert());
    }

    #[test]
    fn draws_are_deterministic_and_stream_separated() {
        let p = FaultPlan::builder().send_failures(0.5).duplicate(0.5).build();
        for i in 0..200u64 {
            assert_eq!(p.send_fails(9, i), p.send_fails(9, i));
            assert_eq!(p.duplicate_delay(9, i), p.duplicate_delay(9, i));
        }
        // The two streams must not be the same coin.
        let same = (0..2000u64)
            .filter(|&i| p.send_fails(9, i) == p.duplicate_delay(9, i).is_some())
            .count();
        assert!(same > 700 && same < 1300, "correlated streams: {same}");
    }

    #[test]
    fn fractions_are_respected_roughly() {
        let p = FaultPlan::builder().send_failures(0.1).build();
        let fails = (0..10_000u64).filter(|&i| p.send_fails(3, i)).count();
        assert!((700..1300).contains(&fails), "{fails}");
    }

    #[test]
    fn salt_changes_the_draws() {
        let a = FaultPlan::builder().salt(1).send_failures(0.5).build();
        let b = FaultPlan::builder().salt(2).send_failures(0.5).build();
        let differs = (0..1000u64).any(|i| a.send_fails(7, i) != b.send_fails(7, i));
        assert!(differs);
    }

    #[test]
    fn blackout_covers_range_and_window_only() {
        let p = FaultPlan::builder()
            .blackout(Ipv4Addr::new(10, 7, 0, 0), 16, 1_000, 2_000)
            .build();
        let inside = u32::from(Ipv4Addr::new(10, 7, 200, 3));
        let outside = u32::from(Ipv4Addr::new(10, 8, 0, 1));
        assert!(p.in_blackout(inside, 1_500));
        assert!(!p.in_blackout(inside, 999), "before the window");
        assert!(!p.in_blackout(inside, 2_000), "after the window (exclusive)");
        assert!(!p.in_blackout(outside, 1_500), "outside the prefix");
    }

    #[test]
    fn burst_drop_only_inside_window() {
        let p = FaultPlan::builder().burst_loss(5_000, 6_000, 1.0).build();
        assert!(p.burst_drop(1, 5_500, 0));
        assert!(!p.burst_drop(1, 4_999, 0));
        assert!(!p.burst_drop(1, 6_000, 0));
    }

    #[test]
    fn corrupt_bit_stays_in_region() {
        let p = FaultPlan::builder().corrupt(1.0).build();
        for i in 0..500u64 {
            let bit = p.corrupt_bit(11, i, 480).expect("fraction 1.0");
            assert!(bit < 480);
        }
        assert!(p.corrupt_bit(11, 0, 0).is_none(), "empty region");
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let text = r#"{
            "salt": 7,
            "send_failure_fraction": 0.01,
            "duplicate_fraction": 0.02,
            "corrupt_fraction": 0.0001,
            "reorder_fraction": 0.1,
            "reorder_jitter_ns": 5000000,
            "burst_loss": [{"start_ns": 0, "end_ns": 1000000000, "drop_fraction": 0.5}],
            "blackouts": [{"network": "10.7.0.0", "prefix_len": 16,
                           "start_ns": 0, "end_ns": 2000000000}],
            "icmp_storm": {"start_ns": 0, "end_ns": 500000000, "reply_fraction": 0.3}
        }"#;
        let plan = FaultPlan::from_json_str(text).unwrap();
        assert_eq!(plan.salt, 7);
        assert_eq!(plan.burst_loss.len(), 1);
        assert_eq!(plan.blackouts[0].network, u32::from(Ipv4Addr::new(10, 7, 0, 0)));
        assert_eq!(plan.icmp_storm.unwrap().reply_fraction, 0.3);
        // The echo form parses back to the same plan.
        let again = FaultPlan::from_json_str(&plan.to_json()).unwrap();
        assert_eq!(again, plan);

        assert!(FaultPlan::from_json_str("[]").is_err());
        assert!(FaultPlan::from_json_str(r#"{"bogus": 1}"#).is_err());
        assert!(FaultPlan::from_json_str(r#"{"corrupt_fraction": 2.0}"#).is_err());
        assert!(
            FaultPlan::from_json_str(r#"{"blackouts": [{"network": "x", "prefix_len": 8,
                "start_ns": 0, "end_ns": 1}]}"#)
                .is_err()
        );
    }

    #[test]
    fn empty_json_object_is_inert() {
        assert!(FaultPlan::from_json_str("{}").unwrap().is_inert());
    }

    #[test]
    fn kill_at_fires_from_its_ordinal_onward() {
        let p = FaultPlan::builder().kill_at(100).build();
        assert!(!p.is_inert());
        assert!(!p.killed(99));
        assert!(p.killed(100));
        assert!(p.killed(1_000_000), "death is permanent");
        assert!(!FaultPlan::none().killed(u64::MAX));
    }

    #[test]
    fn worker_fault_plan_parses_and_matches() {
        let text = r#"{"entries": [
            {"worker": 0, "attempt": 1, "kind": "kill", "at": 40},
            {"worker": 2, "attempt": 3, "kind": "panic", "at": 7},
            {"worker": 1, "attempt": 2, "kind": "stall", "at": 120}
        ]}"#;
        let plan = WorkerFaultPlan::from_json_str(text).unwrap();
        assert!(!plan.is_inert());
        assert_eq!(
            plan.fault_for(0, 1).unwrap().kind,
            WorkerFaultKind::Kill
        );
        assert_eq!(plan.fault_for(2, 3).unwrap().at, 7);
        assert_eq!(
            plan.fault_for(1, 2).unwrap().kind,
            WorkerFaultKind::Stall
        );
        assert_eq!(plan.fault_for(0, 2), None, "other attempts run clean");
        assert_eq!(plan.fault_for(3, 1), None, "unlisted workers run clean");
        // The echo form parses back to the same plan.
        let again = WorkerFaultPlan::from_json_str(&plan.to_json()).unwrap();
        assert_eq!(again, plan);

        assert!(WorkerFaultPlan::from_json_str("{}").unwrap().is_inert());
        assert!(WorkerFaultPlan::from_json_str("[]").is_err());
        assert!(WorkerFaultPlan::from_json_str(r#"{"bogus": 1}"#).is_err());
        assert!(
            WorkerFaultPlan::from_json_str(
                r#"{"entries": [{"worker": 0, "attempt": 1, "kind": "melt", "at": 1}]}"#
            )
            .is_err(),
            "unknown kinds are rejected"
        );
        assert!(
            WorkerFaultPlan::from_json_str(
                r#"{"entries": [{"worker": 0, "attempt": 0, "kind": "kill", "at": 1}]}"#
            )
            .is_err(),
            "ordinals are 1-based"
        );
    }

    #[test]
    fn kill_at_parses_from_json() {
        let p = FaultPlan::from_json_str(r#"{"kill_at": 42}"#).unwrap();
        assert_eq!(p.kill_at, Some(42));
        let again = FaultPlan::from_json_str(&p.to_json()).unwrap();
        assert_eq!(again, p);
        // The unset echo form (null) parses back as unset.
        let none = FaultPlan::from_json_str(r#"{"kill_at": null}"#).unwrap();
        assert_eq!(none.kill_at, None);
        assert!(FaultPlan::from_json_str(r#"{"kill_at": -3}"#).is_err());
    }
}
