//! One supervised worker attempt: a fresh simulated world and an
//! inline-driver [`Scanner`] run on a spawned thread, with the scheduled
//! worker fault (if any) injected around the transport.
//!
//! The thread boundary exists for *panic isolation*, not parallelism —
//! the supervisor joins each attempt synchronously, so its event loop
//! stays single-threaded and deterministic. [`SimNet`] wraps
//! `Rc<RefCell<World>>` and is `!Send`, which is why the world is built
//! *inside* the thread closure from the job's `WorldConfig` rather than
//! handed across.

use crate::checkpoint::{CheckpointPolicy, CheckpointState};
use crate::config::ScanConfig;
use crate::scanner::{ResumeError, RunOptions, ScanSummary, Scanner};
use crate::transport::{FrameBatch, SimNet, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zmap_netsim::faults::{SendError, WorkerFault, WorkerFaultKind};
use zmap_netsim::WorldConfig;

/// Marker embedded in every injected panic payload so the process-wide
/// panic hook can swallow the (expected) report while real panics still
/// reach stderr.
pub const PANIC_MARKER: &str = "injected worker panic";

/// Everything one attempt needs; built by the supervisor, consumed by
/// the worker thread.
pub(crate) struct AttemptRequest {
    /// The task's exact config (identical across attempts — the journal
    /// digest check depends on it).
    pub cfg: ScanConfig,
    /// World template; the supervisor guarantees its fault plan is inert
    /// so a `Kill` can be merged in without clobbering anything.
    pub world: WorldConfig,
    /// Journal to resume from (`None` for a fresh attempt).
    pub journal: Option<CheckpointState>,
    /// Per-attempt journal policy (path + interval).
    pub checkpoint: CheckpointPolicy,
    /// Drain-watchdog budget handed to [`RunOptions`].
    pub watchdog_poll_limit: u64,
    /// The scheduled fault for this `(worker, attempt)` slot, if any.
    pub fault: Option<WorkerFault>,
}

/// What the worker thread produced.
pub(crate) enum AttemptResult {
    /// The engine ran to an exit (clean, killed, or stalled).
    Ran(Box<ScanSummary>),
    /// [`Scanner::resume`] refused the journal — shard-spec or digest
    /// mismatch. The supervisor logs the message and restarts fresh.
    ResumeRefused(String),
    /// [`Scanner::new`] refused the config. Submit-time validation makes
    /// this unreachable in practice; surfaced rather than panicking.
    BuildFailed(String),
}

/// Attempt result plus panic forensics.
pub(crate) struct AttemptOutcome {
    /// `None` when the worker thread died (injected or genuine panic).
    pub result: Option<AttemptResult>,
    /// Virtual time of an injected panic death (0 otherwise) — the
    /// wrapper stores it just before unwinding, because nothing else
    /// survives the thread.
    pub death_clock_ns: u64,
}

/// Runs one attempt on its own thread and joins it.
pub(crate) fn run_attempt(req: AttemptRequest) -> AttemptOutcome {
    silence_injected_panics();
    // [atomics] death_clock: written at most once by the worker thread
    // immediately before an injected panic; read by the supervisor only
    // after `join()` returns, which is the synchronization point —
    // Relaxed is sufficient on both sides.
    let death_clock = Arc::new(AtomicU64::new(0));
    let dc = Arc::clone(&death_clock);
    let handle = std::thread::Builder::new()
        .name("zmap-supervised-worker".into())
        .spawn(move || attempt_body(req, dc));
    match handle {
        Ok(h) => match h.join() {
            Ok(result) => AttemptOutcome { result: Some(result), death_clock_ns: 0 },
            Err(_) => AttemptOutcome {
                result: None,
                death_clock_ns: death_clock.load(Ordering::Relaxed),
            },
        },
        // Spawn failure is OS resource exhaustion, not a scan fault;
        // report it like a panic death so the restart machinery (not a
        // supervisor crash) absorbs it.
        Err(_) => AttemptOutcome { result: None, death_clock_ns: 0 },
    }
}

fn attempt_body(req: AttemptRequest, death_clock: Arc<AtomicU64>) -> AttemptResult {
    let AttemptRequest { cfg, mut world, journal, checkpoint, watchdog_poll_limit, fault } = req;
    if let Some(WorkerFault { kind: WorkerFaultKind::Kill, at, .. }) = fault {
        world.faults.kill_at = Some(at);
    }
    let net = SimNet::new(world);
    let transport = net.transport(cfg.source_ip);
    let opts = RunOptions {
        checkpoint: Some(checkpoint),
        shutdown: None,
        watchdog_poll_limit,
        align_resume: true,
    };
    match fault {
        Some(WorkerFault { kind: WorkerFaultKind::Panic, at, .. }) => {
            let wrapped = PanicAfter {
                inner: transport,
                sends_done: 0,
                panic_at: at.max(1),
                death_clock,
            };
            run_on(cfg, wrapped, journal.as_ref(), opts)
        }
        Some(WorkerFault { kind: WorkerFaultKind::Stall, at, .. }) => {
            let wrapped = StallAfter {
                inner: transport,
                events: 0,
                stall_at: at.max(1),
                frozen_at: None,
            };
            run_on(cfg, wrapped, journal.as_ref(), opts)
        }
        _ => run_on(cfg, transport, journal.as_ref(), opts),
    }
}

fn run_on<T: Transport>(
    cfg: ScanConfig,
    transport: T,
    journal: Option<&CheckpointState>,
    opts: RunOptions,
) -> AttemptResult {
    let built = match journal {
        Some(j) => Scanner::resume(cfg, transport, j),
        None => Scanner::new(cfg, transport).map_err(ResumeError::Build),
    };
    match built {
        Ok(scanner) => AttemptResult::Ran(Box::new(scanner.run_with(opts))),
        Err(ResumeError::Build(e)) => AttemptResult::BuildFailed(e.to_string()),
        Err(e) => AttemptResult::ResumeRefused(e.to_string()),
    }
}

/// Installs (once per process) a panic hook that swallows injected
/// worker panics and forwards everything else to the previous hook, so
/// fault-injection runs don't spray expected backtraces over stderr.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(PANIC_MARKER))
                .or_else(|| {
                    info.payload().downcast_ref::<&str>().map(|s| s.contains(PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Transport wrapper that panics at the `panic_at`-th send (1-based),
/// modeling a worker that dies without flushing anything it held in
/// memory. Only the journal on disk survives.
struct PanicAfter<T: Transport> {
    inner: T,
    sends_done: u64,
    panic_at: u64,
    death_clock: Arc<AtomicU64>,
}

impl<T: Transport> PanicAfter<T> {
    /// # Panics
    ///
    /// Always — this *is* the injected worker death. The panic unwinds
    /// only the supervised worker thread (see [`run_attempt`]); the
    /// process-wide hook installed by `silence_injected_panics` keeps
    /// the expected report off stderr.
    fn die(&self) -> ! {
        // [atomics] death_clock: single store before the unwind; the
        // supervisor reads it after join(). See run_attempt.
        self.death_clock.store(self.inner.now(), Ordering::Relaxed);
        panic!("{PANIC_MARKER} at send {}", self.panic_at);
    }
}

impl<T: Transport> Transport for PanicAfter<T> {
    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn advance_to(&mut self, t: u64) {
        self.inner.advance_to(t);
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), SendError> {
        self.sends_done += 1;
        if self.sends_done >= self.panic_at {
            self.die();
        }
        self.inner.send_frame(frame)
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let frames = batch.len().saturating_sub(from_idx) as u64;
        if self.sends_done + frames >= self.panic_at {
            // The fatal ordinal falls inside this batch: the whole batch
            // dies with the worker (a sendmmsg nobody returns from).
            self.die();
        }
        self.sends_done += frames;
        self.inner.send_batch(batch, from_idx)
    }

    fn recv_frames(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.inner.recv_frames()
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.inner.next_rx_at()
    }

    fn killed(&self) -> bool {
        self.inner.killed()
    }
}

/// Transport wrapper that freezes the clock after the `stall_at`-th NIC
/// call (sends and receive polls both count): subsequent sends are
/// swallowed, no response ever matures, and `next_rx_at` reports an
/// eternally pending event one nanosecond in the future — exactly the
/// frozen-progress shape the engine's drain watchdog exists to catch.
struct StallAfter<T: Transport> {
    inner: T,
    events: u64,
    stall_at: u64,
    /// `Some(t)` once stalled: the clock value at the moment of death.
    frozen_at: Option<u64>,
}

impl<T: Transport> StallAfter<T> {
    /// Counts one NIC call; returns true when the transport is (now)
    /// stalled.
    fn tick(&mut self) -> bool {
        if self.frozen_at.is_some() {
            return true;
        }
        self.events += 1;
        if self.events >= self.stall_at {
            self.frozen_at = Some(self.inner.now());
            return true;
        }
        false
    }
}

impl<T: Transport> Transport for StallAfter<T> {
    fn now(&self) -> u64 {
        match self.frozen_at {
            Some(t) => t,
            None => self.inner.now(),
        }
    }

    fn advance_to(&mut self, t: u64) {
        if self.frozen_at.is_none() {
            self.inner.advance_to(t);
        }
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), SendError> {
        if self.tick() {
            // Swallowed: the wedged NIC acknowledges and drops.
            return Ok(());
        }
        self.inner.send_frame(frame)
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        if self.tick() {
            return (batch.len().saturating_sub(from_idx), None);
        }
        self.inner.send_batch(batch, from_idx)
    }

    fn recv_frames(&mut self) -> Vec<(u64, Vec<u8>)> {
        if self.tick() {
            return Vec::new();
        }
        self.inner.recv_frames()
    }

    fn next_rx_at(&self) -> Option<u64> {
        match self.frozen_at {
            Some(t) => Some(t + 1),
            None => self.inner.next_rx_at(),
        }
    }

    fn killed(&self) -> bool {
        match self.frozen_at {
            Some(_) => false,
            None => self.inner.killed(),
        }
    }
}
