#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
//! Deterministic model checker for the engine's atomic hand-offs.
//!
//! It runs the *real* `SpscRing` and `ShutdownToken` code (zmap-core's
//! `model_check.rs`) under every thread schedule up to a bound, and
//! checks both what the threads compute and whether each access to the
//! data a protocol publishes is ordered after the write it reads — the
//! happens-before check of [loom](https://github.com/tokio-rs/loom),
//! whose design this follows without depending on it.
//!
//! Four pieces:
//!
//! - [`ShimAtomicU64`] / [`ShimAtomicBool`] — drop-in stand-ins for the
//!   `std` atomics. Outside a controlled run they delegate straight to
//!   the wrapped atomic (one thread-local read of overhead), so the
//!   regular unit and stress tests of the shimmed types are unaffected.
//!   Inside a controlled run every operation becomes a *yield point*:
//!   the thread parks and the scheduler decides who advances.
//! - Vector clocks, one per virtual thread. A `Release` store, or a
//!   `Release`/`AcqRel` read-modify-write, leaves the thread's clock on
//!   the atomic; an `Acquire` load or `Acquire`/`AcqRel` RMW joins the
//!   clock it finds there; `Relaxed` does neither (a `Relaxed` store
//!   clears what a release left, a `Relaxed` RMW passes it on, as a
//!   release sequence does). [`Sched::run`]'s spawn and join order
//!   everything before and after the run. Any `SeqCst` operation fails
//!   its schedule: every atomic in this workspace names its protocol.
//! - [`Tracked`] — a cell for the non-atomic data a protocol publishes.
//!   It keeps the clock of its last write; a read or write by a thread
//!   whose clock is not ordered after that write fails the schedule.
//! - [`explore`] — drives the scheduler through schedules: exhaustive
//!   (depth-first over scheduling choices) up to [`Config::depth`]
//!   decisions, seeded-random beyond, so short prefixes are covered
//!   completely and long tails are still probed, deterministically. A
//!   failing schedule panics with its number, seed and choices, and the
//!   same [`Config`] reaches it again.
//!
//! The exact limit: threads run one at a time, and a load returns the
//! latest store to its atomic. So every interleaving of the operations
//! is explored, and every missing edge to data is seen, but a bug that
//! needs a load to return an *older* store — a `Relaxed` flag read
//! before the data it follows has reached this core — is not.
//!
//! Liveness is checked by budget: a schedule that exceeds
//! [`Config::max_steps`] atomic operations is counted in
//! [`Stats::cap_exceeded`] and the run is released to free execution so
//! the process is never wedged. Tests assert the counter stays zero —
//! "close/drain terminates under every explored schedule".

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{self, AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Shared scheduler session (one controlled run at a time, process-wide)

/// Kind of atomic operation a shim performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Load,
    Store,
    /// A read-modify-write (`fetch_add`, `fetch_max`).
    Rmw,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Executing thread-local code between yield points.
    Running,
    /// Parked at its start or at an atomic operation, waiting for a grant.
    AtYield,
    /// Body returned.
    Finished,
}

/// One logical time per virtual thread of the current run.
type Clock = Vec<u32>;

/// The clock a shim's last release left on it, tagged with its run.
type Released = Mutex<Option<(u64, Clock)>>;

fn join(into: &mut Clock, from: &Clock) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

#[derive(Default)]
struct SessionState {
    active: bool,
    /// Set when the step budget is exhausted: every yield point becomes
    /// a pass-through so the threads can finish on their own.
    free_run: bool,
    /// Set when a virtual thread panicked: the others unwind at their
    /// next yield point instead of waiting on it forever.
    aborted: bool,
    status: Vec<Status>,
    granted: Vec<bool>,
    steps: usize,
    /// Numbers the runs. A clock left on a shim or a [`Tracked`] cell by
    /// an earlier run is ordered before this one by that run's join and
    /// this run's spawn, so it is ignored.
    run: u64,
    /// Each virtual thread's vector clock.
    clocks: Vec<Clock>,
    /// The run's first failure: an unordered access, a `SeqCst`
    /// operation, or a panic.
    failure: Option<String>,
}

impl SessionState {
    fn fail(&mut self, what: String) {
        self.failure.get_or_insert(what);
    }

    /// Applies thread `tid`'s operation on the atomic whose release
    /// clock is `released` to the clocks, then ticks the thread's own
    /// time, so its later writes are not covered by this release.
    fn synchronise(&mut self, tid: usize, op: Op, ordering: Ordering, released: &Released) {
        if !matches!(ordering, Relaxed | Acquire | Release | AcqRel) {
            self.fail(format!(
                "thread {tid} ran a {op:?} with {ordering:?}; name its acquire/release protocol instead"
            ));
        }
        let mut left = released.lock().unwrap_or_else(|p| p.into_inner());
        if left.as_ref().is_some_and(|(run, _)| *run != self.run) {
            *left = None;
        }
        let clock = &mut self.clocks[tid];
        if op != Op::Store && matches!(ordering, Acquire | AcqRel) {
            if let Some((_, from)) = left.as_ref() {
                join(clock, from);
            }
        }
        let releases = op != Op::Load && matches!(ordering, Release | AcqRel);
        match (op, left.as_mut()) {
            (Op::Store, _) if releases => *left = Some((self.run, clock.clone())),
            (Op::Store, _) => *left = None,
            (Op::Rmw, Some((_, to))) if releases => join(to, clock),
            (Op::Rmw, None) if releases => *left = Some((self.run, clock.clone())),
            _ => {}
        }
        clock[tid] += 1;
    }
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

/// Parks virtual thread `tid` at a yield point until the scheduler
/// grants it, and returns the session lock to run the granted step
/// under; `None` when nothing is scheduled (no run, or a free run).
/// Unwinds when another thread of the run panicked.
fn park(tid: usize) -> Option<MutexGuard<'static, SessionState>> {
    let s = session();
    let mut st = lock_state();
    loop {
        if st.aborted {
            drop(st);
            resume_unwind(Box::new("another virtual thread panicked"));
        }
        if !st.active || st.free_run {
            return None;
        }
        if st.granted[tid] {
            // The controller already flipped this thread's status to
            // Running at grant time — atomically with the grant decision
            // — so it can never observe an all-parked state and grant two
            // threads at once.
            st.granted[tid] = false;
            return Some(st);
        }
        if st.status[tid] != Status::AtYield {
            st.status[tid] = Status::AtYield;
            s.cv.notify_all();
        }
        st = s.cv.wait(st).unwrap_or_else(|p| p.into_inner());
    }
}

/// The shim hot path: outside a controlled run, perform the operation
/// directly; inside one, park at the yield point, perform the operation
/// once granted, and apply its ordering to the clocks.
fn step<R>(op: Op, ordering: Ordering, released: &Released, action: impl FnOnce() -> R) -> R {
    let Some(tid) = TID.with(Cell::get) else {
        return action();
    };
    let Some(mut st) = park(tid) else {
        return action();
    };
    // The operation runs under the session lock: execution is serialized
    // by design, so this adds no restriction, and its ordering reaches
    // the clocks before any other thread runs.
    let value = action();
    st.steps += 1;
    st.synchronise(tid, op, ordering, released);
    value
}

/// Marks a virtual thread finished however its body ends; a panic
/// fails the run and unwinds the other threads.
struct Exit(usize);

impl Drop for Exit {
    fn drop(&mut self) {
        let mut st = lock_state();
        if std::thread::panicking() && !st.aborted {
            st.aborted = true;
            st.fail(format!("thread {} panicked", self.0));
        }
        st.status[self.0] = Status::Finished;
        session().cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Atomic shims

/// `AtomicU64` stand-in that yields to the scheduler at every operation
/// during a controlled run and is a thin pass-through otherwise.
#[derive(Debug, Default)]
pub struct ShimAtomicU64 {
    inner: StdAtomicU64,
    released: Released,
}

impl ShimAtomicU64 {
    /// A shim holding `v`.
    pub fn new(v: u64) -> Self {
        ShimAtomicU64 { inner: StdAtomicU64::new(v), released: Mutex::new(None) }
    }

    /// Atomic load with `ordering`, a yield point under the scheduler.
    pub fn load(&self, ordering: Ordering) -> u64 {
        step(Op::Load, ordering, &self.released, || self.inner.load(ordering))
    }

    /// Atomic store with `ordering`, a yield point under the scheduler.
    pub fn store(&self, v: u64, ordering: Ordering) {
        step(Op::Store, ordering, &self.released, || self.inner.store(v, ordering));
    }

    /// Atomic add returning the previous value, a yield point under the
    /// scheduler.
    pub fn fetch_add(&self, v: u64, ordering: Ordering) -> u64 {
        step(Op::Rmw, ordering, &self.released, || self.inner.fetch_add(v, ordering))
    }

    /// Atomic maximum returning the previous value, a yield point under
    /// the scheduler.
    pub fn fetch_max(&self, v: u64, ordering: Ordering) -> u64 {
        step(Op::Rmw, ordering, &self.released, || self.inner.fetch_max(v, ordering))
    }
}

/// `AtomicBool` stand-in; see [`ShimAtomicU64`].
#[derive(Debug, Default)]
pub struct ShimAtomicBool {
    inner: StdAtomicBool,
    released: Released,
}

impl ShimAtomicBool {
    /// A shim holding `v`.
    pub fn new(v: bool) -> Self {
        ShimAtomicBool { inner: StdAtomicBool::new(v), released: Mutex::new(None) }
    }

    /// Atomic load with `ordering`, a yield point under the scheduler.
    pub fn load(&self, ordering: Ordering) -> bool {
        step(Op::Load, ordering, &self.released, || self.inner.load(ordering))
    }

    /// Atomic store with `ordering`, a yield point under the scheduler.
    pub fn store(&self, v: bool, ordering: Ordering) {
        step(Op::Store, ordering, &self.released, || self.inner.store(v, ordering));
    }
}

// ---------------------------------------------------------------------------
// Tracked data

/// Non-atomic data that a protocol publishes, such as a ring slot or a
/// value a flag announces. In a controlled run it keeps the clock of
/// its last write, and a read or write by a thread not ordered after
/// that write fails the schedule; elsewhere it is a plain cell.
///
/// The value sits behind a `std` mutex only because the crate forbids
/// `unsafe`; that mutex is no edge. Accesses are not yield points, so a
/// caller must not hold a [`lock`](Self::lock) guard across a shim
/// operation.
#[derive(Debug)]
pub struct Tracked<T> {
    value: Mutex<T>,
    /// `(run, writer, writer's own time)` of the last write in a run.
    last_write: Mutex<Option<(u64, usize, u32)>>,
}

impl<T> Tracked<T> {
    /// A cell holding `value`, written by the calling thread.
    pub fn new(value: T) -> Self {
        let cell = Tracked { value: Mutex::new(value), last_write: Mutex::new(None) };
        cell.access(true);
        cell
    }

    /// Reads the value.
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        self.access(false);
        *self.value.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Writes `value`.
    pub fn set(&self, value: T) {
        self.access(true);
        *self.value.lock().unwrap_or_else(|p| p.into_inner()) = value;
    }

    /// A write access through a guard, with `Mutex::lock`'s signature,
    /// so a `Tracked` can stand in for a mutex whose contents a protocol
    /// of atomics orders.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        self.access(true);
        self.value.lock()
    }

    fn access(&self, write: bool) {
        let Some(tid) = TID.with(Cell::get) else {
            return;
        };
        let mut st = lock_state();
        if !st.active || st.free_run {
            return;
        }
        let mut last = self.last_write.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((run, writer, time)) = *last {
            if run == st.run && st.clocks[tid][writer] < time {
                let (kind, ty) = (if write { "write" } else { "read" }, std::any::type_name::<T>());
                st.fail(format!(
                    "thread {tid}'s {kind} of a Tracked<{ty}> is not ordered after thread {writer}'s write"
                ));
            }
        }
        if write {
            *last = Some((st.run, tid, st.clocks[tid][tid]));
        }
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

/// Handle the per-schedule closure uses to run virtual threads.
pub struct Sched<'c> {
    choices: &'c mut ChoiceSource,
    max_steps: usize,
    cap_exceeded: bool,
    steps: usize,
}

impl Sched<'_> {
    /// Runs `bodies` as virtual threads under the scheduler until all
    /// finish. Each thread's start and every atomic operation on a
    /// shimmed type is a scheduling point; between points exactly one
    /// thread executes. The spawn orders everything the caller did
    /// before the run before every thread, and the join orders every
    /// thread before what the caller does after.
    ///
    /// # Panics
    /// Panics, naming the schedule, when an access to a [`Tracked`] cell
    /// was not ordered after its last write, an atomic operation used
    /// `SeqCst`, or a body panicked.
    #[expect(clippy::panic, reason = "a failed schedule fails the test that explores it")]
    pub fn run<'env>(&mut self, bodies: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = bodies.len();
        assert!(n > 0, "a schedule needs at least one thread");
        {
            let mut st = lock_state();
            assert!(!st.active, "one controlled run at a time");
            st.active = true;
            st.free_run = false;
            st.aborted = false;
            st.status = vec![Status::Running; n];
            st.granted = vec![false; n];
            st.steps = 0;
            st.run += 1;
            st.clocks = (0..n).map(|t| (0..n).map(|u| u32::from(u == t)).collect()).collect();
            st.failure = None;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for (tid, body) in bodies.into_iter().enumerate() {
                    scope.spawn(move || {
                        let _exit = Exit(tid);
                        TID.with(|t| t.set(Some(tid)));
                        park(tid);
                        body();
                    });
                }
                self.controller();
            })
        }));
        let failure = {
            let mut st = lock_state();
            st.active = false;
            self.steps = st.steps;
            st.failure.take()
        };
        if let Some(what) = failure {
            let c = &self.choices;
            let prefix: Vec<usize> = c.stack.iter().take(c.cursor).map(|&(chosen, _)| chosen).collect();
            panic!(
                "schedule {} (seed {:#x}, depth {}, choices {prefix:?}): {what}",
                c.execution, c.seed, c.depth
            );
        }
        if let Err(p) = outcome {
            resume_unwind(p);
        }
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
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn shims_pass_through_outside_a_controlled_run() {
        let u = ShimAtomicU64::new(7);
        assert_eq!(u.load(Acquire), 7);
        u.store(9, Release);
        assert_eq!(u.load(Relaxed), 9);
        assert_eq!(u.fetch_add(2, AcqRel), 9);
        assert_eq!(u.fetch_max(5, Relaxed), 11);
        assert_eq!(u.load(SeqCst), 11, "SeqCst is checked only in a controlled run");
        let b = ShimAtomicBool::new(false);
        b.store(true, Release);
        assert!(b.load(Acquire));
        let t = Tracked::new(1u8);
        t.set(2);
        assert_eq!(t.get(), 2);
        *t.lock().unwrap() = 3;
        assert_eq!(t.get(), 3);
    }

    /// Explores `schedule` at a small fixed budget; the failure message
    /// of the first failing schedule, if any.
    fn failure(schedule: impl FnMut(&mut Sched)) -> Option<String> {
        let config = Config { depth: 8, seed: 11, max_steps: 1000, max_schedules: 512 };
        catch_unwind(AssertUnwindSafe(|| explore(config, schedule)))
            .err()
            .map(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// Thread 0 writes `data` and stores 1 to a flag with `store`
    /// (writing `data` again after it if `write_after`); thread 1 reads
    /// `data` once its load with `load` sees the 1.
    fn message_passing(store: Ordering, load: Ordering, write_after: bool) -> Option<String> {
        failure(|sched| {
            let data = Tracked::new(0u64);
            let flag = ShimAtomicU64::new(0);
            sched.run(vec![
                Box::new(|| {
                    data.set(7);
                    flag.store(1, store);
                    if write_after {
                        data.set(7);
                    }
                }),
                Box::new(|| {
                    if flag.load(load) == 1 {
                        assert_eq!(data.get(), 7);
                    }
                }),
            ]);
        })
    }

    #[test]
    fn a_release_store_read_by_an_acquire_load_orders_a_tracked_write() {
        assert_eq!(message_passing(Release, Acquire, false), None);
        // The release covers what its thread wrote before it, not after.
        let msg = message_passing(Release, Acquire, true).unwrap();
        assert!(msg.contains("thread 1's read of a Tracked<u64> is not ordered after thread 0's write"), "{msg}");
    }

    /// Thread 0 writes `data` and stores 1 with Release; thread 1 then
    /// moves the flag to 2 with a Relaxed RMW or a Relaxed store; thread
    /// 2 reads `data` once an Acquire load sees the 2.
    fn through_a_relaxed_write(rmw: bool) -> Option<String> {
        failure(|sched| {
            let data = Tracked::new(0u64);
            let flag = ShimAtomicU64::new(0);
            sched.run(vec![
                Box::new(|| {
                    data.set(7);
                    flag.store(1, Release);
                }),
                Box::new(|| {
                    if rmw {
                        flag.fetch_add(1, Relaxed);
                    } else if flag.load(Relaxed) == 1 {
                        flag.store(2, Relaxed);
                    }
                }),
                Box::new(|| {
                    if flag.load(Acquire) == 2 {
                        data.get();
                    }
                }),
            ]);
        })
    }

    #[test]
    fn relaxed_on_either_side_orders_nothing() {
        for (store, load) in [(Relaxed, Acquire), (Release, Relaxed)] {
            let msg = message_passing(store, load, false).unwrap();
            assert!(msg.contains("not ordered after thread 0's write"), "{store:?}/{load:?}: {msg}");
        }
        // A Relaxed RMW neither adds its clock nor drops the release it
        // follows (a release sequence); a Relaxed store drops it.
        assert_eq!(through_a_relaxed_write(true), None);
        assert!(through_a_relaxed_write(false).unwrap().contains("thread 2's read"));
    }

    /// Thread 0 writes `a`, then `fetch_add`s with `first`; thread 1
    /// writes `b`, then `fetch_max`es with `second` and reads `a` if it
    /// came after thread 0; thread 2 reads `b` once an Acquire load sees
    /// thread 1's maximum.
    fn rmw_chain(first: Ordering, second: Ordering) -> Option<String> {
        failure(|sched| {
            let (a, b) = (Tracked::new(0u64), Tracked::new(0u64));
            let x = ShimAtomicU64::new(0);
            sched.run(vec![
                Box::new(|| {
                    a.set(1);
                    x.fetch_add(1, first);
                }),
                Box::new(|| {
                    b.set(2);
                    if x.fetch_max(8, second) == 1 {
                        a.get();
                    }
                }),
                Box::new(|| {
                    if x.load(Acquire) >= 8 {
                        b.get();
                    }
                }),
            ]);
        })
    }

    #[test]
    fn an_acqrel_rmw_carries_the_clock_on() {
        assert_eq!(rmw_chain(AcqRel, AcqRel), None);
        assert_eq!(rmw_chain(Release, AcqRel), None);
        let msg = rmw_chain(Relaxed, AcqRel).unwrap();
        assert!(msg.contains("thread 1's read"), "no release from thread 0: {msg}");
        let msg = rmw_chain(Release, Release).unwrap();
        assert!(msg.contains("thread 1's read"), "no acquire half: {msg}");
        let msg = rmw_chain(AcqRel, Acquire).unwrap();
        assert!(msg.contains("thread 2's read"), "no release half: {msg}");
    }

    #[test]
    fn spawn_and_join_order_everything() {
        let ordered = failure(|sched| {
            let before = Tracked::new(0u64);
            before.set(1);
            let (after, made) = (Tracked::new(0u64), Mutex::new(None));
            sched.run(vec![
                Box::new(|| after.set(before.get() + 1)),
                Box::new(|| *made.lock().unwrap() = Some(Tracked::new(before.get()))),
            ]);
            assert_eq!(after.get(), 2);
            let made = made.into_inner().unwrap().unwrap();
            assert_eq!(made.get(), 1);
            // A second run's threads come after the first run's.
            sched.run(vec![Box::new(|| after.set(after.get() + 1)), Box::new(|| made.set(before.get()))]);
        });
        assert_eq!(ordered, None);
        // Sibling threads are ordered by nothing but atomics.
        let msg = failure(|sched| {
            let data = Tracked::new(0u64);
            sched.run(vec![Box::new(|| data.set(1)), Box::new(|| data.set(2))]);
        })
        .unwrap();
        assert!(msg.contains("write of a Tracked<u64> is not ordered after"), "{msg}");
    }

    #[test]
    fn a_seqcst_operation_fails_its_schedule() {
        let run = |ordering: Ordering| {
            failure(|sched| {
                let x = ShimAtomicU64::new(0);
                sched.run(vec![
                    Box::new(|| x.store(1, Release)),
                    Box::new(|| {
                        x.fetch_add(1, ordering);
                    }),
                ]);
            })
        };
        assert_eq!(run(AcqRel), None);
        let msg = run(SeqCst).unwrap();
        assert!(msg.contains("thread 1 ran a Rmw with SeqCst"), "{msg}");
    }

    #[test]
    fn a_failing_schedule_replays_at_the_same_seed() {
        // Thread 0 reads the data only in schedules where its Relaxed
        // load comes after thread 1's store, so the failure is one
        // schedule's, not the body's.
        let config = |max_schedules| Config { depth: 6, seed: 23, max_steps: 100, max_schedules };
        let run = |max_schedules| {
            let mut schedules = 0;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                explore(config(max_schedules), |sched| {
                    schedules += 1;
                    let data = Tracked::new(0u64);
                    let flag = ShimAtomicBool::new(false);
                    sched.run(vec![
                        Box::new(|| {
                            if flag.load(Relaxed) {
                                data.get();
                            }
                        }),
                        Box::new(|| {
                            data.set(1);
                            flag.store(true, Release);
                        }),
                    ]);
                })
            }));
            (outcome.err().and_then(|p| p.downcast_ref::<String>().cloned()), schedules)
        };
        let (first, n) = run(64);
        let first = first.unwrap();
        assert!(first.starts_with(&format!("schedule {} (seed 0x17, depth 6, choices [", n - 1)), "{first}");
        assert!(n > 1, "the first schedule is clean");
        assert_eq!(run(64), (Some(first), n), "same seed, same failing schedule");
        assert_eq!(run(n - 1), (None, n - 1), "the schedules before it pass");
    }

    #[test]
    fn a_panicking_body_fails_its_schedule_instead_of_hanging() {
        let msg = failure(|sched| {
            let flag = ShimAtomicBool::new(false);
            sched.run(vec![
                Box::new(|| panic!("body failed")),
                // Waits for a store that never comes; it unwinds at its
                // next yield point once thread 0 has panicked.
                Box::new(|| while !flag.load(Acquire) {}),
            ]);
        })
        .unwrap();
        assert!(msg.contains("thread 0 panicked"), "{msg}");
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
                    // Pushed right after each operation, before the
                    // thread's next yield point, so in execution order.
                    let log = Mutex::new(Vec::new());
                    sched.run(vec![
                        Box::new(|| {
                            x.store(1, Release);
                            log.lock().unwrap().push((0, 1));
                            let v = y.load(Acquire);
                            log.lock().unwrap().push((0, v));
                        }),
                        Box::new(|| {
                            y.store(1, Release);
                            log.lock().unwrap().push((1, 1));
                            let v = x.load(Acquire);
                            log.lock().unwrap().push((1, v));
                        }),
                    ]);
                    orders.push(log.into_inner().unwrap());
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
