//! The engine/wire boundary.
//!
//! [`Transport`] is everything the scanner needs from "a NIC": a clock,
//! a way to emit frames, and a way to poll received frames. The engine is
//! generic over it, which is what keeps the library testable and lets the
//! whole evaluation run against the simulated Internet.
//!
//! Sends are fallible: a transport may refuse a frame transiently
//! ([`SendError::WouldBlock`], the simulator's EAGAIN), and the engine is
//! responsible for retrying with backoff.
//!
//! [`SimTransport`] couples both drivers to a [`SimNet`], the simulated
//! Internet ([`zmap_netsim::World`]), on a virtual clock. The world sits
//! behind one lock, its NIC ([`zmap_netsim::Nic`]) in front of it behind
//! another, on the *wire*. A sender admits each frame at the NIC. In the
//! inline driver, and while the threaded driver's receive loop is parked,
//! the sender then routes the frame through the world itself. While that
//! loop is awake ([`Transport::receiver_wakes`]), the sender leaves its
//! admitted frames on the wire instead — at most `WIRE_FRAMES`, then it
//! waits until they are taken — and whoever next takes the world lock
//! (`recv_into`, `next_rx_at`, `killed`, [`SimNet::with_world`]) first
//! routes them, in admission order. So the send thread renders and admits
//! while the receive thread routes, and every byte and counter is what
//! routing at once gives.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use zmap_netsim::{Admitted, EndpointId, Nic, SendError, World, WorldConfig};

/// A reusable pool of rendered frames awaiting one batched send — the
/// engine-side model of a `sendmmsg` iovec array.
///
/// Each slot holds `(scheduled send time, engine tag, frame buffer)`.
/// Buffers are recycled across [`clear`](Self::clear) calls, so after
/// the first fill the TX hot path performs zero allocations: the engine
/// renders each probe straight into [`reserve`](Self::reserve)'s buffer
/// with `ProbeModule::render_into`.
///
/// The tag is the caller's bookkeeping, carried alongside the frame. The
/// engine's lanes pass 0: a partially accepted batch is rolled back by
/// frame index, which is all they need to know.
pub struct FrameBatch {
    slots: Vec<(u64, u64, Vec<u8>)>,
    len: usize,
    capacity: usize,
}

impl FrameBatch {
    /// An empty batch that flushes when `capacity` frames are queued.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        FrameBatch {
            slots: (0..capacity).map(|_| (0, 0, Vec::new())).collect(),
            len: 0,
            capacity,
        }
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the batch holds `capacity` frames and must be flushed.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Grants the next slot's (cleared, capacity-retaining) buffer,
    /// scheduled at `at_ns` and tagged `tag`; render the frame into it.
    pub fn slot(&mut self, at_ns: u64, tag: u64) -> &mut Vec<u8> {
        let buf = self.reserve(at_ns, tag);
        buf.clear();
        buf
    }

    /// Like [`Self::slot`], but the recycled buffer keeps its previous
    /// contents, so `ProbeTemplate::render_into` can recognise a prior
    /// render of the same template and patch it in place instead of
    /// re-copying the frame. Callers must overwrite (or clear) the buffer
    /// before flush.
    pub fn reserve(&mut self, at_ns: u64, tag: u64) -> &mut Vec<u8> {
        if self.len == self.slots.len() {
            // Past the flush threshold (a multi-probe target straddling
            // it): the only growth after construction.
            self.slots.resize_with(self.len + 1, Default::default);
        }
        let slot = &mut self.slots[self.len];
        (slot.0, slot.1) = (at_ns, tag);
        self.len += 1;
        &mut slot.2
    }

    /// Scheduled time and frame bytes of slot `i` (`i < len`).
    pub fn frame(&self, i: usize) -> (u64, &[u8]) {
        let (at, _, buf) = &self.slots[i];
        (*at, buf.as_slice())
    }

    /// Engine tag of slot `i` (`i < len`).
    pub fn tag(&self, i: usize) -> u64 {
        self.slots[i].1
    }

    /// Scheduled time of the first queued frame (`None` when empty).
    pub fn first_at(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[0].0)
    }

    /// Scheduled time of the last queued frame (`None` when empty).
    pub fn last_at(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[self.len - 1].0)
    }

    /// Virtual span the batch covers: last scheduled slot minus first
    /// (0 when empty or single-frame). Slots are reserved in paced order,
    /// so this is the time the rate controller spread the batch across.
    pub fn span_ns(&self) -> u64 {
        match (self.first_at(), self.last_at()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Postpones every frame from slot `from_idx` on that is scheduled
    /// before `at_ns` to `at_ns` — what a refused send does to the frames
    /// queued behind it. Slots are in paced order, so the scan stops at
    /// the first frame already due later.
    pub fn delay_from(&mut self, from_idx: usize, at_ns: u64) {
        for slot in &mut self.slots[from_idx..self.len] {
            if slot.0 >= at_ns {
                break;
            }
            slot.0 = at_ns;
        }
    }

    /// Empties the batch, keeping every buffer's allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Empties the batch and queues one copy of `frame` at `at_ns`: the
    /// one-frame send of callers outside the engine's TX path.
    pub fn refill(&mut self, at_ns: u64, frame: &[u8]) -> &Self {
        self.clear();
        self.slot(at_ns, 0).extend_from_slice(frame);
        self
    }
}

/// The RX twin of [`FrameBatch`]: received frames in one byte arena, the
/// format the simulated world's receive writes.
pub use zmap_netsim::RxBatch;

/// A scanner's view of the network.
pub trait Transport {
    /// Current time in nanoseconds. Virtual for simulations.
    fn now(&self) -> u64;

    /// Advances the clock to `t` (no-op if `t` is in the past).
    fn advance_to(&mut self, t: u64);

    /// Emits frames `from_idx..` of `batch` in one call (`sendmmsg`),
    /// advancing the clock through each frame's scheduled time. Returns
    /// how many frames were accepted before the first refusal, plus the
    /// refusal itself, if any — the caller retries or abandons the frame
    /// at `from_idx + accepted` and re-enters with the rest. A refusal of
    /// `WouldBlock` means the frame was not sent and may be retried after
    /// a backoff. One-frame senders use [`FrameBatch::refill`].
    #[must_use = "an unchecked send error is a silently lost probe"]
    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>);

    /// Appends every frame received up to the current time to `rx`, with
    /// receive timestamps, in arrival order.
    fn recv_into(&mut self, rx: &mut RxBatch);

    /// [`recv_into`](Self::recv_into), collected into one owned buffer
    /// per frame — for callers outside the engine's receive path.
    fn recv_frames(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut rx = RxBatch::new();
        self.recv_into(&mut rx);
        rx.iter().map(|(t, frame)| (t, frame.to_vec())).collect()
    }

    /// Timestamp of the next pending inbound frame, if the transport can
    /// know it (lets the engine fast-forward through idle cooldown).
    fn next_rx_at(&self) -> Option<u64> {
        None
    }

    /// True once the scanning process has been declared dead by a fault
    /// schedule. Engines poll this on the receive path so a kill can land
    /// mid-cooldown, where no sends occur. Real transports never die this
    /// way; only simulations script it.
    fn killed(&self) -> bool {
        false
    }

    /// The threaded driver's receive loop is awake and polls until it
    /// next parks: a transport may leave sent frames for its next poll to
    /// route instead of routing them on the sender's thread.
    fn receiver_wakes(&self) {}

    /// The receive loop asks to park. A transport that holds frames for
    /// its polls to route, and wants it to go on, returns false, and the
    /// loop polls again; on true, senders route their own frames until
    /// it next wakes.
    fn receiver_parks(&self) -> bool {
        true
    }

    /// The receive loop has stopped for good (its return or a panic):
    /// senders route their own frames, and any left waiting for room go
    /// on. Frames still held are routed by whoever next receives.
    fn receiver_leaves(&self) {}
}

/// Frames the wire holds before a sender waits for them to be taken:
/// sixteen default batches.
const WIRE_FRAMES: usize = 1024;

/// Asks in a row the receive loop must find the lanes not outpacing it
/// before it parks: one ask where a lane woke late from a full wire is
/// not a lane slower than routing.
const PARK_AFTER: u32 = 4;

/// Takes `m`'s lock, poisoned or not: a transport's state is whole after
/// any panic, and a scan whose own thread panicked returns no summary
/// anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Admitted frames no thread has routed yet, in admission order, in one
/// byte arena.
#[derive(Default)]
struct Staged {
    /// Per frame: its sender, its admission, where its bytes end.
    frames: Vec<(EndpointId, Admitted, usize)>,
    bytes: Vec<u8>,
}

impl Staged {
    fn push(&mut self, from: EndpointId, sent: Admitted, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.frames.push((from, sent, self.bytes.len()));
    }

    /// Routes every frame through `world`, in order, and empties the
    /// arena (keeping its allocations).
    fn route(&mut self, world: &mut World) {
        let mut start = 0;
        for &(from, sent, end) in &self.frames {
            world.route(from, &self.bytes[start..end], sent);
            start = end;
        }
        self.frames.clear();
        self.bytes.clear();
    }
}

/// One world's NIC and the frames it admitted that wait to be routed,
/// shared by every transport on the world. Lock order: the world's lock
/// before `state`; `taken` is locked only under the world's lock.
struct Wire {
    /// The world's configuration, which admission reads.
    cfg: WorldConfig,
    state: Mutex<WireState>,
    /// Signalled when the staged frames are taken, or the receive loop
    /// leaves: a sender waiting for room checks again.
    room: Condvar,
    /// The buffer staged frames are routed from, swapped with
    /// `WireState::staged`: locked only under the world lock.
    taken: Mutex<Staged>,
    // [atomics] pending: set with a Release store by a sender that staged
    // frames or moved the NIC, cleared with a Relaxed store by whoever
    // takes them, both under the `state` lock. Acquire load by a world-lock
    // taker before that lock, which it then takes only on true, so it sees
    // the frames; Relaxed load under the lock, which orders it. A reader
    // that misses a store sees those frames at its next call, as if they
    // had been sent after it.
    pending: AtomicBool,
    // [atomics] staging: whether the receive loop is awake, so senders
    // stage; stored under the `state` lock with Release, set true only
    // under the world lock too. Read under the `state` lock with Relaxed
    // (the lock orders it); once per batch before any lock with Relaxed
    // to pick the sender's path, which costs at most one lock when stale;
    // and with Acquire under the world lock, where false cannot turn true
    // and makes visible every frame staged before it turned false, so a
    // sender that then also finds nothing `pending` routes without the
    // `state` lock.
    staging: AtomicBool,
    // [atomics] delivered: the world's `frames_delivered`, Relaxed store
    // by each world-lock taker after a receive, Relaxed load per staged
    // admission, which places the kill ordinal with it. It guards no data:
    // a stale read moves a kill to a later event, and a threaded scan's
    // kill already lands on a scheduling-dependent one.
    delivered: AtomicU64,
}

struct WireState {
    /// The world's NIC while senders stage or frames are pending; the
    /// world holds a copy as of the last take. Otherwise the world's is
    /// the live one, copied here when the receive loop next wakes.
    nic: Nic,
    staged: Staged,
    /// Frames staged less frames taken since the receive loop last asked
    /// to park.
    gain: isize,
    /// Whether a sender found the wire full since then.
    filled: bool,
    /// Asks in a row, up to this one, that found the lanes not
    /// outpacing the loop.
    calm: u32,
}

impl Wire {
    fn new(world: &World) -> Self {
        Wire {
            cfg: world.config().clone(),
            state: Mutex::new(WireState {
                nic: world.nic(),
                staged: Staged::default(),
                gain: 0,
                filled: false,
                calm: 0,
            }),
            room: Condvar::new(),
            taken: Mutex::new(Staged::default()),
            pending: AtomicBool::new(false),
            staging: AtomicBool::new(false),
            delivered: AtomicU64::new(world.stats().frames_delivered),
        }
    }

    /// Moves the staged frames into `taken` and the NIC into `world`, and
    /// lets waiting senders go on.
    fn take(&self, state: &mut WireState, taken: &mut Staged, world: &mut World) {
        self.pending.store(false, Ordering::Relaxed);
        std::mem::swap(&mut state.staged, taken);
        state.gain -= taken.frames.len() as isize;
        world.set_nic(state.nic);
        self.room.notify_all();
    }

    /// Routes what the wire holds through `world`, whose lock the caller
    /// holds. Senders stage again as soon as the frames are taken.
    fn route_into(&self, world: &mut World) {
        if !self.pending.load(Ordering::Acquire) {
            return;
        }
        let mut taken = lock(&self.taken);
        self.take(&mut lock(&self.state), &mut taken, world);
        taken.route(world);
    }

    /// Runs `f` on `world`, whose lock the caller holds, with the wire
    /// routed into it and held still: nothing is staged meanwhile, and
    /// `f` may send through the world itself. With the receive loop
    /// parked and nothing pending — the inline driver, always — that
    /// takes no lock beyond the world's.
    fn exclusive<R>(&self, world: &mut World, f: impl FnOnce(&mut World) -> R) -> R {
        if !self.staging.load(Ordering::Acquire) && !self.pending.load(Ordering::Acquire) {
            return f(world);
        }
        self.held(&mut lock(&self.state), world, f)
    }

    /// [`exclusive`](Self::exclusive) with the `state` lock held too:
    /// routes what the wire holds, runs `f`, and leaves the wire the
    /// world's NIC and delivery count as of then.
    fn held<R>(&self, state: &mut WireState, world: &mut World, f: impl FnOnce(&mut World) -> R) -> R {
        if self.pending.load(Ordering::Relaxed) {
            let mut taken = lock(&self.taken);
            self.take(state, &mut taken, world);
            taken.route(world);
        }
        let r = f(world);
        state.nic = world.nic();
        self.delivered.store(world.stats().frames_delivered, Ordering::Relaxed);
        r
    }

    /// Lets senders stage, from the world's NIC and delivery count as of
    /// now; the caller holds `world`'s lock.
    fn open(&self, world: &mut World) {
        let mut state = lock(&self.state);
        self.held(&mut state, world, |_| ());
        self.staging.store(true, Ordering::Release);
    }

    /// Admits frames `from_idx..` of `batch` from `ep` onto the wire while
    /// the receive loop is awake, waiting whenever the wire is full.
    /// Returns the frames accepted, the refusal, if any, and the slot time
    /// of the last frame attempted; it stops early, before the first frame
    /// not attempted, once the loop has parked or left.
    fn stage(&self, ep: EndpointId, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>, u64) {
        let mut state = lock(&self.state);
        let (mut accepted, mut latest) = (0usize, 0u64);
        while from_idx + accepted < batch.len() && self.staging.load(Ordering::Relaxed) {
            if state.staged.frames.len() >= WIRE_FRAMES {
                state.filled = true;
                state = self.room.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let (at, frame) = batch.frame(from_idx + accepted);
            latest = latest.max(at);
            let delivered = self.delivered.load(Ordering::Relaxed);
            let admitted = state.nic.admit(&self.cfg, delivered, frame.len(), at);
            self.pending.store(true, Ordering::Release);
            match admitted {
                Ok(sent) => {
                    state.staged.push(ep, sent, frame);
                    state.gain += 1;
                }
                Err(e) => return (accepted, Some(e), latest),
            }
            accepted += 1;
        }
        (accepted, None, latest)
    }
}

/// A simulated Internet that scanner transports attach to.
///
/// Cloning the handle is cheap; all clones refer to one world and its
/// one wire.
#[derive(Clone)]
pub struct SimNet {
    world: Arc<Mutex<World>>,
    wire: Arc<Wire>,
}

impl SimNet {
    /// Builds a world from config.
    pub fn new(cfg: WorldConfig) -> Self {
        let world = World::new(cfg);
        let wire = Arc::new(Wire::new(&world));
        SimNet { world: Arc::new(Mutex::new(world)), wire }
    }

    /// Attaches a scanner endpoint at `ip` and returns its transport.
    pub fn transport(&self, ip: Ipv4Addr) -> SimTransport {
        SimTransport::attach(Arc::clone(&self.world), Arc::clone(&self.wire), ip)
    }

    /// Access the underlying world (stats, darknet captures), with every
    /// frame sent so far routed into it.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        self.wire.exclusive(&mut lock(&self.world), f)
    }
}

/// One endpoint on a [`SimNet`], the transport of both drivers:
/// `&SimTransport` is the [`Transport`] (any number of threads drive it
/// through copies of the reference), and the owned one forwards to it.
///
/// Poisoned locks are simply taken (see `lock`).
pub struct SimTransport {
    world: Arc<Mutex<World>>,
    wire: Arc<Wire>,
    ep: EndpointId,
    // [atomics] clock: monotone virtual time — AcqRel fetch_max, once per
    // batch (the latest slot attempted) and per advance_to; Acquire load so
    // a reader sees every event at or before the observed instant. It
    // guards no data (DESIGN §9): those events sit behind the world lock.
    clock: AtomicU64,
}

impl SimTransport {
    /// Attaches a new endpoint at `ip` to `world`, its clock at 0.
    ///
    /// The transport gets a wire of its own, and with it the world's NIC:
    /// a world with several endpoints must be built through
    /// [`SimNet::transport`], whose transports share one.
    pub fn new(world: Arc<Mutex<World>>, ip: Ipv4Addr) -> Self {
        let wire = Arc::new(Wire::new(&lock(&world)));
        SimTransport::attach(world, wire, ip)
    }

    fn attach(world: Arc<Mutex<World>>, wire: Arc<Wire>, ip: Ipv4Addr) -> Self {
        let ep = lock(&world).attach(ip);
        SimTransport { world, wire, ep, clock: AtomicU64::new(0) }
    }

    /// Sends frames `from_idx..` of `batch` through the world on this
    /// thread, after whatever the wire holds: admits and routes each.
    fn route_batch(&self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>, u64) {
        let (mut accepted, mut refused, mut latest) = (0usize, None, 0u64);
        self.wire.exclusive(&mut lock(&self.world), |world| {
            for i in from_idx..batch.len() {
                let (at, frame) = batch.frame(i);
                latest = latest.max(at);
                if let Err(e) = world.send(self.ep, frame, at) {
                    refused = Some(e);
                    break;
                }
                accepted += 1;
            }
        });
        (accepted, refused, latest)
    }
}

impl Transport for &SimTransport {
    fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Monotone: callers may race, the clock only moves forward.
    fn advance_to(&mut self, t: u64) {
        self.clock.fetch_max(t, Ordering::AcqRel);
    }

    /// One pass of the locks for the whole batch — the simulator's
    /// analogue of collapsing per-packet syscalls into one `sendmmsg`:
    /// the wire's alone while the receive loop is awake (the frames are
    /// staged), else the world's (they are routed here), and the wire's
    /// too while it holds frames.
    /// Each frame goes out at its own slot time, never the shared
    /// clock's, so the stamp is a pure function of (seed, lane); the
    /// clock then moves to the latest slot attempted.
    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let (mut accepted, mut refused, mut latest) = (0usize, None, 0u64);
        if self.wire.staging.load(Ordering::Relaxed) {
            (accepted, refused, latest) = self.wire.stage(self.ep, batch, from_idx);
        }
        if refused.is_none() && from_idx + accepted < batch.len() {
            let routed = self.route_batch(batch, from_idx + accepted);
            (accepted, refused, latest) = (accepted + routed.0, routed.1, latest.max(routed.2));
        }
        self.advance_to(latest);
        (accepted, refused)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        let now = self.now();
        let mut world = lock(&self.world);
        self.wire.route_into(&mut world);
        world.recv_into(self.ep, now, rx);
        self.wire.delivered.store(world.stats().frames_delivered, Ordering::Relaxed);
    }

    fn next_rx_at(&self) -> Option<u64> {
        let mut world = lock(&self.world);
        self.wire.route_into(&mut world);
        world.next_event_at()
    }

    fn killed(&self) -> bool {
        let mut world = lock(&self.world);
        self.wire.route_into(&mut world);
        world.kill_fired()
    }

    fn receiver_wakes(&self) {
        self.wire.open(&mut lock(&self.world));
    }

    /// Refused while the lanes outpace the receive loop: when, since the
    /// loop last asked, the lanes have staged more frames than it took,
    /// or a lane has found the wire full, routing is the slower side and
    /// the loop keeps taking it off them. Once they have not for
    /// `PARK_AFTER` asks in a row, the lanes are the slower side, and
    /// routing their own frames costs them less than handing them across
    /// cores: the loop parks, and whatever the wire still holds goes with
    /// a lane's next batch.
    fn receiver_parks(&self) -> bool {
        let mut state = lock(&self.wire.state);
        let outpaced = state.gain > 0 || state.filled;
        (state.gain, state.filled) = (0, false);
        state.calm = if outpaced { 0 } else { state.calm + 1 };
        let parks = state.calm >= PARK_AFTER;
        if parks {
            state.calm = 0;
            self.wire.staging.store(false, Ordering::Release);
        }
        parks
    }

    fn receiver_leaves(&self) {
        let _state = lock(&self.wire.state);
        self.wire.staging.store(false, Ordering::Release);
        self.wire.room.notify_all();
    }
}

impl Transport for SimTransport {
    fn now(&self) -> u64 {
        Transport::now(&self)
    }

    fn advance_to(&mut self, t: u64) {
        Transport::advance_to(&mut &*self, t);
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        Transport::send_batch(&mut &*self, batch, from_idx)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        Transport::recv_into(&mut &*self, rx);
    }

    fn next_rx_at(&self) -> Option<u64> {
        Transport::next_rx_at(&self)
    }

    fn killed(&self) -> bool {
        Transport::killed(&self)
    }

    fn receiver_wakes(&self) {
        Transport::receiver_wakes(&self);
    }

    fn receiver_parks(&self) -> bool {
        Transport::receiver_parks(&self)
    }

    fn receiver_leaves(&self) {
        Transport::receiver_leaves(&self);
    }
}

#[cfg(test)]
impl SimNet {
    /// Runs `f` holding the wire's lock, so a panic in `f` poisons it.
    pub(crate) fn with_wire_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _state = lock(&self.wire.state);
        f()
    }
}

/// In-memory transport for engine unit tests: records what the engine
/// sends; tests push frames to be received and may script send failures.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct LoopbackTransport {
    now: u64,
    /// Frames the engine sent, with send timestamps.
    pub sent: Vec<(u64, Vec<u8>)>,
    /// Frames queued for the engine, with receive timestamps.
    pub inbox: Vec<(u64, Vec<u8>)>,
    /// Attempt numbers (0-based, counting every frame offered) that fail
    /// with `WouldBlock` — scripts EAGAIN bursts for retry tests.
    pub fail_attempts: Vec<u64>,
    attempts: u64,
}

#[cfg(test)]
impl Transport for LoopbackTransport {
    fn now(&self) -> u64 {
        self.now
    }

    fn advance_to(&mut self, t: u64) {
        if t > self.now {
            self.now = t;
        }
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        for i in from_idx..batch.len() {
            let (at, frame) = batch.frame(i);
            self.advance_to(at);
            let attempt = self.attempts;
            self.attempts += 1;
            if self.fail_attempts.contains(&attempt) {
                return (i - from_idx, Some(SendError::WouldBlock));
            }
            self.sent.push((self.now, frame.to_vec()));
        }
        (batch.len() - from_idx, None)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        let now = self.now;
        let (ready, later): (Vec<_>, Vec<_>) =
            self.inbox.drain(..).partition(|&(t, _)| t <= now);
        self.inbox = later;
        for (t, frame) in &ready {
            rx.push(*t, frame);
        }
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.inbox.iter().map(|&(t, _)| t).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_span_tracks_first_and_last_slots() {
        let mut b = FrameBatch::new(4);
        assert_eq!(b.first_at(), None);
        assert_eq!(b.span_ns(), 0);
        b.reserve(1_000, 1).extend_from_slice(b"a");
        assert_eq!(b.span_ns(), 0, "single frame spans nothing");
        b.reserve(4_500, 2).extend_from_slice(b"b");
        b.reserve(9_000, 3).extend_from_slice(b"c");
        assert_eq!(b.first_at(), Some(1_000));
        assert_eq!(b.last_at(), Some(9_000));
        assert_eq!(b.span_ns(), 8_000);
        b.clear();
        assert_eq!(b.last_at(), None);
        assert_eq!(b.span_ns(), 0);
    }

    #[test]
    fn loopback_clock_is_monotone() {
        let mut t = LoopbackTransport::default();
        t.advance_to(100);
        t.advance_to(50); // ignored
        assert_eq!(t.now(), 100);
    }

    #[test]
    fn loopback_delivers_by_time() {
        let mut t = LoopbackTransport::default();
        t.inbox.push((100, vec![1]));
        t.inbox.push((200, vec![2]));
        t.advance_to(150);
        let got = t.recv_frames();
        assert_eq!(got, vec![(100, vec![1])]);
        assert_eq!(t.next_rx_at(), Some(200));
        t.advance_to(200);
        assert_eq!(t.recv_frames().len(), 1);
    }

    #[test]
    fn sim_transport_roundtrip() {
        use zmap_netsim::{loss::LossModel, ServiceModel};
        use zmap_wire::ProbeBuilder;
        let net = SimNet::new(WorldConfig {
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(192, 0, 2, 5);
        let mut t = net.transport(src);
        let b = ProbeBuilder::new(src, 7);
        let mut one = FrameBatch::new(1);
        let syn = b.tcp_syn(Ipv4Addr::new(7, 7, 7, 7), 80, 0);
        assert_eq!(t.send_batch(one.refill(0, &syn), 0), (1, None));
        assert!(t.recv_frames().is_empty(), "response takes RTT");
        let rx_at = t.next_rx_at().expect("scheduled");
        t.advance_to(rx_at);
        let frames = t.recv_frames();
        assert_eq!(frames.len(), 1);
        assert!(b.parse_response(&frames[0].1).unwrap().is_some());
        assert_eq!(net.with_world(|w| w.stats().frames_sent), 1);
    }

    /// Frames routed at once move the world's NIC without the wire's
    /// lock; a wake must hand that NIC to the wire, or the frames staged
    /// after it are admitted from a stale one (attempt ordinals, link
    /// time) and the take rolls the world's back.
    #[test]
    fn a_wake_hands_the_wire_the_nic_the_senders_moved() {
        use zmap_netsim::FaultPlan;
        use zmap_wire::timing::LinkSpeed;
        use zmap_wire::ProbeBuilder;
        let cfg = WorldConfig {
            faults: FaultPlan::builder().send_failures(0.2).build(),
            link: Some(LinkSpeed::Gbe1),
            ..WorldConfig::default()
        };
        let src = Ipv4Addr::new(192, 0, 2, 5);
        let b = ProbeBuilder::new(src, 7);
        let fill = |first: u32| {
            let mut batch = FrameBatch::new(32);
            for i in first..first + 32 {
                let syn = b.tcp_syn(Ipv4Addr::from(0x0A00_0000 + i), 80, 0);
                batch.slot(u64::from(i) * 10, 0).extend_from_slice(&syn);
            }
            batch
        };
        // Each frame offered once; a refused one is dropped.
        let send_all = |mut t: &SimTransport, batch: &FrameBatch| {
            let mut from = 0;
            while from < batch.len() {
                let (n, refused) = t.send_batch(batch, from);
                from += n + usize::from(refused.is_some());
            }
        };
        let (first, second) = (fill(0), fill(32));

        let net = SimNet::new(cfg.clone());
        let t = net.transport(src);
        send_all(&t, &first);
        t.receiver_wakes();
        send_all(&t, &second);
        assert!(net.wire.pending.load(Ordering::Relaxed), "the second batch waits on the wire");
        t.receiver_leaves();
        let staged = net.with_world(|w| (w.stats(), w.tx_busy_until_ns()));

        let mut world = World::new(cfg);
        let ep = world.attach(src);
        for batch in [&first, &second] {
            for i in 0..batch.len() {
                let (at, frame) = batch.frame(i);
                let _ = world.send(ep, frame, at);
            }
        }
        let (want, got) = (world.stats(), staged.0);
        assert!(want.sendto_failures > 0, "the plan refuses some frames");
        assert_eq!(
            (got.frames_sent, got.sendto_failures, staged.1),
            (want.frames_sent, want.sendto_failures, world.tx_busy_until_ns())
        );
    }

    #[test]
    fn frame_batch_recycles_buffers_without_stale_bytes() {
        let mut b = FrameBatch::new(2);
        assert!(b.is_empty());
        b.slot(10, 1).extend_from_slice(&[1, 2, 3, 4]);
        b.slot(20, 2).extend_from_slice(&[5]);
        assert!(b.is_full());
        assert_eq!(b.frame(0), (10, &[1, 2, 3, 4][..]));
        assert_eq!(b.frame(1), (20, &[5][..]));
        assert_eq!((b.tag(0), b.tag(1)), (1, 2));
        b.clear();
        assert!(b.is_empty());
        // The recycled slot must not leak the previous frame's tail.
        b.slot(30, 3).extend_from_slice(&[9]);
        assert_eq!(b.frame(0), (30, &[9][..]));
        assert_eq!(b.tag(0), 3);
    }

    #[test]
    #[should_panic(expected = "batch capacity must be positive")]
    fn zero_capacity_batch_panics() {
        FrameBatch::new(0);
    }

    #[test]
    fn send_batch_paces_and_stops_at_refusal() {
        // The third frame offered is refused.
        let mut t = LoopbackTransport { fail_attempts: vec![2], ..Default::default() };
        let mut batch = FrameBatch::new(4);
        for i in 0..4u64 {
            batch.slot(i * 1000, i).push(i as u8);
        }
        let (n, err) = t.send_batch(&batch, 0);
        assert_eq!(n, 2);
        assert_eq!(err, Some(SendError::WouldBlock));
        assert_eq!(t.now(), 2000, "clock stops at the refused frame's slot");
        // Re-enter at the refused frame: the retry succeeds.
        let (n2, err2) = t.send_batch(&batch, 2);
        assert_eq!((n2, err2), (2, None));
        let sent: Vec<(u64, u8)> = t.sent.iter().map(|(at, f)| (*at, f[0])).collect();
        assert_eq!(sent, vec![(0, 0), (1000, 1), (2000, 2), (3000, 3)]);
    }

    #[test]
    fn sim_send_batch_matches_single_sends() {
        use zmap_netsim::{loss::LossModel, ServiceModel};
        use zmap_wire::ProbeBuilder;
        let world_cfg = || WorldConfig {
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        };
        let src = Ipv4Addr::new(192, 0, 2, 5);
        let b = ProbeBuilder::new(src, 7);
        let mut batch = FrameBatch::new(32);
        for i in 0..32u32 {
            let frame = b.tcp_syn(Ipv4Addr::from(0x0700_0000 + i * 131), 80, i as u16);
            batch.slot(u64::from(i) * 10_000, u64::from(i)).extend_from_slice(&frame);
        }

        let net_a = SimNet::new(world_cfg());
        let mut ta = net_a.transport(src);
        let (n, err) = ta.send_batch(&batch, 0);
        assert_eq!((n, err), (32, None));
        assert_eq!(ta.now(), 31 * 10_000);
        ta.advance_to(1 << 42);
        let batched = ta.recv_frames();

        let net_b = SimNet::new(world_cfg());
        let mut tb = net_b.transport(src);
        let mut one = FrameBatch::new(1);
        for i in 0..batch.len() {
            let (at, frame) = batch.frame(i);
            assert_eq!(tb.send_batch(one.refill(at, frame), 0), (1, None));
        }
        tb.advance_to(1 << 42);
        assert_eq!(batched, tb.recv_frames(), "delivery must be path-independent");
    }

    #[test]
    fn recv_into_appends_what_recv_frames_returns() {
        use zmap_netsim::{loss::LossModel, ServiceModel};
        use zmap_wire::ProbeBuilder;
        let run = |into: bool| {
            let net = SimNet::new(WorldConfig {
                model: ServiceModel::dense(&[80]),
                loss: LossModel::NONE,
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(192, 0, 2, 5);
            let mut t = net.transport(src);
            let b = ProbeBuilder::new(src, 7);
            let mut one = FrameBatch::new(1);
            for i in 0..16u32 {
                let syn = b.tcp_syn(Ipv4Addr::from(0x0700_0000 + i * 131), 80, 0);
                assert_eq!(t.send_batch(one.refill(0, &syn), 0), (1, None));
            }
            t.advance_to(1 << 42);
            if !into {
                return t.recv_frames();
            }
            let mut rx = RxBatch::new();
            rx.push(1, &[0xAA]);
            t.recv_into(&mut rx);
            assert_eq!(rx.frame(0), (1, &[0xAA][..]), "recv_into appends");
            rx.iter().skip(1).map(|(at, f)| (at, f.to_vec())).collect()
        };
        let frames = run(false);
        assert_eq!(frames.len(), 16);
        assert_eq!(run(true), frames);
    }

    #[test]
    fn two_transports_share_one_world() {
        let net = SimNet::new(WorldConfig::default());
        let _a = net.transport(Ipv4Addr::new(1, 1, 1, 1));
        let _b = net.transport(Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(net.with_world(|w| w.stats().frames_sent), 0);
    }
}
