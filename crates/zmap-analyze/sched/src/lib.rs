#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Deterministic interleaving checker for the lock-free TX pipeline.
//!
//! The static lints in `zmap-analyze` check that every atomic site
//! *declares* its acquire/release protocol; this crate checks that the
//! protocol actually *works* by executing the real `SpscRing` and
//! `ShutdownToken` code under every thread schedule up to a bound.
//!
//! Three pieces:
//!
//! - [`ShimAtomicU64`] / [`ShimAtomicBool`] — drop-in stand-ins for the
//!   `std` atomics. Outside a controlled run they delegate straight to
//!   the wrapped atomic (one thread-local read of overhead), so the
//!   regular unit and stress tests of the shimmed types are unaffected.
//!   Inside a controlled run every operation becomes a *yield point*:
//!   the thread parks, the scheduler decides who advances, and the
//!   operation is logged as an [`Event`].
//! - A cooperative scheduler: threads run one at a time, handing
//!   control back at each atomic operation. Serializing execution this
//!   way explores the sequentially-consistent interleavings of the
//!   atomic operations — every ordering bug that is a *wrong protocol*
//!   (stale read guarding a slot, missed close, double pop) appears in
//!   some interleaving; only hardware-level reordering is out of scope.
//! - [`explore`] — drives the scheduler through schedules: exhaustive
//!   (depth-first over scheduling choices) up to [`Config::depth`]
//!   decisions, seeded-random beyond, so short prefixes are covered
//!   completely and long tails are still probed, deterministically.
//!
//! Liveness is checked by budget: a schedule that exceeds
//! [`Config::max_steps`] atomic operations is counted in
//! [`Stats::cap_exceeded`] and the run is released to free execution so
//! the process is never wedged. Tests assert the counter stays zero —
//! "close/drain terminates under every explored schedule".

use std::cell::Cell;
use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Event log

/// Kind of atomic operation a shim performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
}

/// One logged atomic operation from a controlled run.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Index of the virtual thread that performed the operation.
    pub thread: usize,
    /// Load or store.
    pub op: Op,
    /// The memory ordering the call site requested.
    pub ordering: Ordering,
    /// The value loaded or stored (bools widen to 0/1).
    pub value: u64,
}

// ---------------------------------------------------------------------------
// Shared scheduler session (one controlled run at a time, process-wide)

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Executing thread-local code between yield points.
    Running,
    /// Parked at an atomic operation, waiting for a grant.
    AtYield,
    /// Body returned.
    Finished,
}

#[derive(Default)]
struct SessionState {
    active: bool,
    /// Set when the step budget is exhausted: every yield point becomes
    /// a pass-through so the threads can finish on their own.
    free_run: bool,
    status: Vec<Status>,
    granted: Vec<bool>,
    steps: usize,
    events: Vec<Event>,
}

struct Session {
    state: Mutex<SessionState>,
    cv: Condvar,
}

fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| Session {
        state: Mutex::new(SessionState::default()),
        cv: Condvar::new(),
    })
}

/// Serializes whole explorations: `cargo test` runs tests in parallel,
/// and the session above is process-global.
fn explorer_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

thread_local! {
    /// The virtual-thread index of the current OS thread, when it is
    /// one of a controlled run's workers.
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

fn lock_state() -> MutexGuard<'static, SessionState> {
    session().state.lock().unwrap_or_else(|p| p.into_inner())
}

/// The shim hot path: outside a controlled run, perform the operation
/// directly; inside one, park at the yield point, perform the operation
/// once granted, and log it.
fn step(op: Op, ordering: Ordering, action: impl FnOnce() -> u64) -> u64 {
    let Some(tid) = TID.with(Cell::get) else {
        return action();
    };
    let s = session();
    let mut st = lock_state();
    if !st.active || st.free_run {
        drop(st);
        return action();
    }
    st.status[tid] = Status::AtYield;
    s.cv.notify_all();
    loop {
        if st.free_run {
            st.status[tid] = Status::Running;
            drop(st);
            return action();
        }
        if st.granted[tid] {
            break;
        }
        st = s.cv.wait(st).unwrap_or_else(|p| p.into_inner());
    }
    // The controller already flipped this thread's status to Running at
    // grant time — atomically with the grant decision — so it can never
    // observe an all-parked state and grant two threads at once.
    st.granted[tid] = false;
    // The operation runs under the session lock: execution is serialized
    // by design, so this adds no restriction, and it keeps the log order
    // identical to the execution order.
    let value = action();
    st.steps += 1;
    st.events.push(Event { thread: tid, op, ordering, value });
    value
}

// ---------------------------------------------------------------------------
// Atomic shims

/// `AtomicU64` stand-in that yields to the scheduler at every operation
/// during a controlled run and is a thin pass-through otherwise.
#[derive(Debug, Default)]
pub struct ShimAtomicU64 {
    inner: StdAtomicU64,
}

impl ShimAtomicU64 {
    /// A shim holding `v`.
    pub fn new(v: u64) -> Self {
        ShimAtomicU64 { inner: StdAtomicU64::new(v) }
    }

    /// Atomic load with `ordering`, a yield point under the scheduler.
    pub fn load(&self, ordering: Ordering) -> u64 {
        step(Op::Load, ordering, || self.inner.load(ordering))
    }

    /// Atomic store with `ordering`, a yield point under the scheduler.
    pub fn store(&self, v: u64, ordering: Ordering) {
        step(Op::Store, ordering, || {
            self.inner.store(v, ordering);
            v
        });
    }
}

/// `AtomicBool` stand-in; see [`ShimAtomicU64`].
#[derive(Debug, Default)]
pub struct ShimAtomicBool {
    inner: StdAtomicBool,
}

impl ShimAtomicBool {
    /// A shim holding `v`.
    pub fn new(v: bool) -> Self {
        ShimAtomicBool { inner: StdAtomicBool::new(v) }
    }

    /// Atomic load with `ordering`, a yield point under the scheduler.
    pub fn load(&self, ordering: Ordering) -> bool {
        step(Op::Load, ordering, || u64::from(self.inner.load(ordering))) != 0
    }

    /// Atomic store with `ordering`, a yield point under the scheduler.
    pub fn store(&self, v: bool, ordering: Ordering) {
        step(Op::Store, ordering, || {
            self.inner.store(v, ordering);
            u64::from(v)
        });
    }
}

// ---------------------------------------------------------------------------
// Schedule enumeration

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Source of scheduling decisions for one execution: the first
/// [`Config::depth`] branching decisions replay/extend a depth-first
/// choice stack (exhaustive enumeration), later ones are seeded-random.
struct ChoiceSource {
    /// `(chosen, options)` per recorded branching decision.
    stack: Vec<(usize, usize)>,
    cursor: usize,
    depth: usize,
    seed: u64,
    rng: u64,
    execution: u64,
}

impl ChoiceSource {
    fn new(depth: usize, seed: u64) -> Self {
        ChoiceSource { stack: Vec::new(), cursor: 0, depth, seed, rng: seed, execution: 0 }
    }

    /// Picks one of `options` (> 0). Forced choices (1 option) are not
    /// recorded — only real branch points spend exploration depth.
    fn next(&mut self, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        if self.cursor < self.stack.len() {
            let c = self.stack[self.cursor].0;
            self.cursor += 1;
            c.min(options - 1)
        } else if self.stack.len() < self.depth {
            self.stack.push((0, options));
            self.cursor += 1;
            0
        } else {
            (splitmix64(&mut self.rng) % options as u64) as usize
        }
    }

    /// Advances to the next schedule (depth-first). Returns `false`
    /// when the bounded space is exhausted.
    fn advance(&mut self) -> bool {
        self.execution += 1;
        // Random choices beyond the stack must differ per execution yet
        // stay reproducible: reseed from (seed, execution index).
        self.rng = self.seed ^ splitmix64(&mut { self.execution });
        self.cursor = 0;
        while let Some((chosen, options)) = self.stack.last_mut() {
            if *chosen + 1 < *options {
                *chosen += 1;
                return true;
            }
            self.stack.pop();
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Exploration driver

/// Bounds for one [`explore`] call.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Branching decisions enumerated exhaustively (depth-first) before
    /// falling back to seeded-random scheduling. The schedule count is
    /// at most `threads^depth`.
    pub depth: usize,
    /// Seed for the random tail of each schedule.
    pub seed: u64,
    /// Atomic-operation budget per schedule; exceeding it counts as a
    /// liveness violation ([`Stats::cap_exceeded`]) and releases the
    /// threads to free execution.
    pub max_steps: usize,
    /// Hard cap on explored schedules, a guard against misconfigured
    /// depth.
    pub max_schedules: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { depth: 8, seed: 0x5EED_2A94, max_steps: 20_000, max_schedules: 4096 }
    }
}

/// What an [`explore`] call did.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Schedules executed.
    pub schedules: usize,
    /// Total atomic operations across all schedules.
    pub steps: usize,
    /// Schedules that blew [`Config::max_steps`] — liveness failures.
    pub cap_exceeded: usize,
    /// `true` when the depth-bounded space was fully enumerated (the
    /// run ended by exhaustion, not by [`Config::max_schedules`]).
    pub exhausted: bool,
}

/// Handle the per-schedule closure uses to run virtual threads and
/// inspect the resulting event log.
pub struct Sched<'c> {
    choices: &'c mut ChoiceSource,
    max_steps: usize,
    cap_exceeded: bool,
    steps: usize,
    events: Vec<Event>,
}

impl Sched<'_> {
    /// Runs `bodies` as virtual threads under the scheduler until all
    /// finish. Every atomic operation on a shimmed type is a scheduling
    /// point; between points exactly one thread executes.
    pub fn run<'env>(&mut self, bodies: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = bodies.len();
        assert!(n > 0, "a schedule needs at least one thread");
        {
            let mut st = lock_state();
            assert!(!st.active, "one controlled run at a time");
            st.active = true;
            st.free_run = false;
            st.status = vec![Status::Running; n];
            st.granted = vec![false; n];
            st.steps = 0;
            st.events.clear();
        }
        std::thread::scope(|scope| {
            for (tid, body) in bodies.into_iter().enumerate() {
                scope.spawn(move || {
                    TID.with(|t| t.set(Some(tid)));
                    body();
                    TID.with(|t| t.set(None));
                    let mut st = lock_state();
                    st.status[tid] = Status::Finished;
                    session().cv.notify_all();
                });
            }
            self.controller();
        });
        let mut st = lock_state();
        st.active = false;
        self.steps = st.steps;
        self.events = std::mem::take(&mut st.events);
    }

    /// The scheduling loop: wait until no thread is between yield
    /// points, pick one parked thread, grant it one atomic operation.
    fn controller(&mut self) {
        let s = session();
        loop {
            let mut st = lock_state();
            while st.status.contains(&Status::Running) {
                st = s.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            if st.steps >= self.max_steps {
                // Liveness budget blown: record it and let the threads
                // finish unscheduled so join() below terminates.
                self.cap_exceeded = true;
                st.free_run = true;
                s.cv.notify_all();
                return;
            }
            let ready: Vec<usize> = (0..st.status.len())
                .filter(|&t| st.status[t] == Status::AtYield)
                .collect();
            if ready.is_empty() {
                return; // all finished
            }
            let pick = ready[self.choices.next(ready.len())];
            st.granted[pick] = true;
            st.status[pick] = Status::Running;
            s.cv.notify_all();
        }
    }

    /// Event log of the last [`run`](Self::run), in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// Explores thread schedules: calls `schedule` once per schedule until
/// the depth-bounded space is exhausted or `config.max_schedules` is
/// hit. The closure builds fresh state, calls [`Sched::run`], and
/// asserts its invariants; panics propagate to the caller with the
/// schedule already counted in the returned [`Stats`].
pub fn explore(config: Config, mut schedule: impl FnMut(&mut Sched)) -> Stats {
    let _guard = explorer_lock().lock().unwrap_or_else(|p| p.into_inner());
    let mut choices = ChoiceSource::new(config.depth, config.seed);
    let mut stats = Stats::default();
    loop {
        let mut sched = Sched {
            choices: &mut choices,
            max_steps: config.max_steps,
            cap_exceeded: false,
            steps: 0,
            events: Vec::new(),
        };
        schedule(&mut sched);
        stats.schedules += 1;
        stats.steps += sched.steps;
        stats.cap_exceeded += usize::from(sched.cap_exceeded);
        if stats.schedules >= config.max_schedules {
            return stats;
        }
        if !choices.advance() {
            stats.exhausted = true;
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

    #[test]
    fn shims_pass_through_outside_a_controlled_run() {
        let u = ShimAtomicU64::new(7);
        assert_eq!(u.load(Acquire), 7);
        u.store(9, Release);
        assert_eq!(u.load(Relaxed), 9);
        let b = ShimAtomicBool::new(false);
        b.store(true, Release);
        assert!(b.load(Acquire));
    }

    #[test]
    fn choice_source_enumerates_binary_tree_exhaustively() {
        // Depth 3 over a constant 2-way branch: exactly 2^3 distinct
        // prefixes, visited once each, in depth-first order.
        let mut c = ChoiceSource::new(3, 42);
        let mut seen = Vec::new();
        loop {
            let prefix: Vec<usize> = (0..3).map(|_| c.next(2)).collect();
            seen.push(prefix);
            if !c.advance() {
                break;
            }
        }
        assert_eq!(seen.len(), 8);
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "every prefix distinct");
    }

    #[test]
    fn forced_choices_do_not_spend_depth() {
        let mut c = ChoiceSource::new(2, 1);
        assert_eq!(c.next(1), 0);
        assert_eq!(c.next(1), 0);
        assert_eq!(c.stack.len(), 0);
        c.next(3);
        assert_eq!(c.stack.len(), 1);
    }

    #[test]
    fn explore_is_deterministic_across_runs() {
        let run = || {
            let mut orders = Vec::new();
            let stats = explore(
                Config { depth: 4, seed: 99, max_steps: 1000, max_schedules: 64 },
                |sched| {
                    let x = ShimAtomicU64::new(0);
                    let y = ShimAtomicU64::new(0);
                    sched.run(vec![
                        Box::new(|| {
                            x.store(1, Release);
                            y.load(Acquire);
                        }),
                        Box::new(|| {
                            y.store(1, Release);
                            x.load(Acquire);
                        }),
                    ]);
                    orders.push(
                        sched.events().iter().map(|e| (e.thread, e.op, e.value)).collect::<Vec<_>>(),
                    );
                },
            );
            (stats.schedules, stats.cap_exceeded, orders)
        };
        let (a_n, a_cap, a_orders) = run();
        let (b_n, b_cap, b_orders) = run();
        assert_eq!(a_n, b_n);
        assert_eq!(a_cap, 0);
        assert_eq!(b_cap, 0);
        assert_eq!(a_orders, b_orders, "same seed+depth, same schedules");
        assert!(a_n > 1, "two racing threads must branch");
    }

    #[test]
    fn scheduler_finds_both_outcomes_of_a_store_load_race() {
        // Classic litmus: with thread A doing `x=1` and thread B loading
        // x, exhaustive exploration must witness B seeing both 0 and 1.
        let mut seen = [false, false];
        explore(
            Config { depth: 4, seed: 7, max_steps: 100, max_schedules: 64 },
            |sched| {
                let x = ShimAtomicU64::new(0);
                let observed = ShimAtomicU64::new(u64::MAX);
                sched.run(vec![
                    Box::new(|| x.store(1, Release)),
                    Box::new(|| {
                        let v = x.load(Acquire);
                        observed.store(v, Release);
                    }),
                ]);
                seen[observed.load(Acquire) as usize] = true;
            },
        );
        assert!(seen[0], "some schedule runs the load first");
        assert!(seen[1], "some schedule runs the store first");
    }

    #[test]
    fn step_cap_releases_the_run_instead_of_hanging() {
        let stats = explore(
            Config { depth: 2, seed: 3, max_steps: 16, max_schedules: 2 },
            |sched| {
                let done = ShimAtomicBool::new(false);
                let flag = ShimAtomicBool::new(false);
                sched.run(vec![
                    // Spins far past the 16-step budget before signaling.
                    Box::new(|| {
                        for _ in 0..64 {
                            flag.load(Relaxed);
                        }
                        flag.store(true, Release);
                    }),
                    Box::new(|| {
                        while !flag.load(Acquire) {}
                        done.store(true, Release);
                    }),
                ]);
                assert!(done.load(Acquire), "free-run lets the threads finish");
            },
        );
        assert!(stats.cap_exceeded >= 1, "the budget violation is recorded");
    }
}
