//! One supervised attempt: a fresh simulated world and an inline-driver
//! [`Scanner`] run to its end on the loop's thread, with the scheduled
//! worker fault injected around the transport.

use crate::checkpoint::{CheckpointPolicy, CheckpointState};
use crate::config::ScanConfig;
use crate::output::ScanResult;
use crate::scanner::{ResumeError, RunOptions, Scanner};
use crate::transport::{FrameBatch, RxBatch, SimNet, Transport};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use zmap_netsim::faults::{SendError, WorkerFault, WorkerFaultKind};
use zmap_netsim::WorldConfig;

/// Virtual time between an attempt's periodic checkpoint journals.
const CHECKPOINT_INTERVAL_NS: u64 = 100_000_000;

/// An attempt that reached the engine: how the worker died, if it did, its
/// virtual time from start to exit or death, and what it delivered.
pub(super) struct Ran {
    pub death: Option<&'static str>,
    pub duration_ns: u64,
    pub results: Vec<ScanResult>,
}

/// Payload of an injected panic: the virtual clock at the worker's death.
struct InjectedPanic(u64);

/// The injected worker death: unwinds to `run`'s `catch_unwind`.
/// `resume_unwind` skips the panic hook, so nothing reaches stderr.
#[cold]
fn die(clock_ns: u64) -> ! {
    std::panic::resume_unwind(Box::new(InjectedPanic(clock_ns)))
}

/// Runs one attempt of `cfg` in a fresh `world`, resuming from `journal`
/// when given and writing journals to `journal_path`. `Err` is the engine
/// refusing to start: a journal for another slice or config, or
/// (unreachable after submit-time validation) a config that fails to
/// build. World, transport and scanner live inside `catch_unwind`, so a
/// panic, injected or genuine, leaves the caller's state as it was.
pub(super) fn run(
    cfg: &ScanConfig,
    world: &WorldConfig,
    journal: Option<&CheckpointState>,
    journal_path: &Path,
    fault: Option<WorkerFault>,
) -> Result<Ran, ResumeError> {
    let attempt = AssertUnwindSafe(|| {
        let mut world = world.clone();
        if let Some(WorkerFault { kind: WorkerFaultKind::Kill, at, .. }) = fault {
            world.faults.kill_at = Some(at);
        }
        let net = SimNet::new(world);
        let inner = net.transport(cfg.source_ip);
        let nic = FaultyNic { inner, fault, count: 0, frozen_at: None };
        let scanner = match journal {
            Some(j) => Scanner::resume(cfg.clone(), nic, j),
            None => Scanner::new(cfg.clone(), nic).map_err(ResumeError::Build),
        };
        scanner.map(|s| {
            s.run_with(RunOptions {
                checkpoint: Some(
                    CheckpointPolicy::new(journal_path).with_interval_ns(CHECKPOINT_INTERVAL_NS),
                ),
                align_resume: true,
                ..RunOptions::default()
            })
        })
    });
    match std::panic::catch_unwind(attempt) {
        Ok(Ok(summary)) => Ok(Ran {
            // Neither killed nor orderly: the drain watchdog gave up on a
            // frozen transport.
            death: (summary.killed.then_some("kill"))
                .or((summary.metadata.counters.shutdown_clean == 0).then_some("stall")),
            duration_ns: summary.metadata.duration_ns,
            results: summary.results,
        }),
        Ok(Err(e)) => Err(e),
        Err(payload) => Ok(Ran {
            death: Some("panic"),
            duration_ns: payload.downcast_ref::<InjectedPanic>().map_or(0, |p| p.0),
            results: Vec::new(),
        }),
    }
}

/// The attempt's transport with its scheduled fault. A `Panic` counts
/// frames and unwinds the attempt at the `at`-th, modelling a worker that
/// dies without flushing anything it held in memory. A `Stall` counts NIC
/// calls (sends and receive polls) and freezes the clock at the `at`-th:
/// later sends are swallowed, no response matures, and `next_rx_at`
/// reports an event one nanosecond ahead forever — the frozen progress
/// the engine's drain watchdog exists to catch. A `Kill` is netsim's own
/// `kill_at` and passes through.
struct FaultyNic<T> {
    inner: T,
    fault: Option<WorkerFault>,
    /// Frames sent (panic) or NIC calls made (stall) so far.
    count: u64,
    /// The clock at the moment of a stall.
    frozen_at: Option<u64>,
}

impl<T: Transport> FaultyNic<T> {
    /// Counts one NIC call carrying `frames` frames; true once stalled.
    ///
    /// # Panics
    ///
    /// Through [`die`], when a `Panic` fault's ordinal falls inside this
    /// call, which dies whole (a sendmmsg nobody returns from).
    fn tick(&mut self, frames: u64) -> bool {
        match self.fault {
            Some(WorkerFault { kind: WorkerFaultKind::Panic, at, .. }) => {
                if self.count + frames >= at.max(1) {
                    die(self.inner.now());
                }
                self.count += frames;
            }
            Some(WorkerFault { kind: WorkerFaultKind::Stall, at, .. })
                if self.frozen_at.is_none() =>
            {
                self.count += 1;
                if self.count >= at.max(1) {
                    self.frozen_at = Some(self.inner.now());
                }
            }
            _ => {}
        }
        self.frozen_at.is_some()
    }
}

impl<T: Transport> Transport for FaultyNic<T> {
    fn now(&self) -> u64 {
        self.frozen_at.unwrap_or_else(|| self.inner.now())
    }

    fn advance_to(&mut self, t: u64) {
        if self.frozen_at.is_none() {
            self.inner.advance_to(t);
        }
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let frames = batch.len().saturating_sub(from_idx);
        if self.tick(frames as u64) {
            // Swallowed: the wedged NIC acknowledges and drops.
            return (frames, None);
        }
        self.inner.send_batch(batch, from_idx)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        if !self.tick(0) {
            self.inner.recv_into(rx);
        }
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.frozen_at.map_or_else(|| self.inner.next_rx_at(), |t| Some(t + 1))
    }

    fn killed(&self) -> bool {
        self.frozen_at.is_none() && self.inner.killed()
    }
}
