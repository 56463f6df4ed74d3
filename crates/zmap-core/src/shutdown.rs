//! Cooperative shutdown — graceful interruption of a running scan.
//!
//! A [`ShutdownToken`] is a cloneable flag shared between whoever wants
//! to stop a scan (a signal handler, a supervisor thread, a test) and
//! the engine's send loops. Senders poll it at every cycle boundary
//! (between targets, never mid-probe); once requested, the engine stops
//! sending, runs the normal cooldown drain so in-flight responses are
//! collected, flushes all four output streams and writes a final
//! checkpoint. Interrupting a scan therefore never tears CSV/JSONL
//! output mid-record and never loses the journal.
//!
//! The token is deliberately transport-agnostic: wire it to a SIGINT
//! handler in a real deployment, or call [`ShutdownToken::request`]
//! programmatically (what the tests and the watchdog do).

use std::sync::atomic::Ordering;
use std::sync::Arc;

// Test builds swap the flag for a zmap-sched shim so the model checker
// (src/model_check.rs) can explore request/observe interleavings and
// check that a request publishes what its requester wrote before it.
#[cfg(not(test))]
use std::sync::atomic::AtomicBool;
#[cfg(test)]
use zmap_sched::ShimAtomicBool as AtomicBool;

/// Shared stop-request flag. Cheap to clone; all clones observe the
/// same state.
#[derive(Debug, Clone, Default)]
pub struct ShutdownToken {
    // [atomics] requested: Release store by the requester so everything
    // it did before asking for shutdown is visible to engine threads
    // that Acquire-load the flag and begin the cooldown drain.
    requested: Arc<AtomicBool>,
}

impl ShutdownToken {
    /// A fresh token with no shutdown requested.
    pub fn new() -> Self {
        ShutdownToken::default()
    }

    /// Requests a graceful shutdown. Idempotent; safe from any thread
    /// or from a signal handler (a single atomic store).
    pub fn request(&self) {
        self.requested.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let t = ShutdownToken::new();
        let u = t.clone();
        assert!(!t.is_requested());
        assert!(!u.is_requested());
        u.request();
        assert!(t.is_requested());
        u.request(); // idempotent
        assert!(t.is_requested());
    }

    #[test]
    fn visible_across_threads() {
        let t = ShutdownToken::new();
        let u = t.clone();
        std::thread::spawn(move || u.request()).join().unwrap();
        assert!(t.is_requested());
    }
}
