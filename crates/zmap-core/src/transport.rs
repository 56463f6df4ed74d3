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
//! Internet ([`zmap_netsim::World`]) behind one lock, on a virtual clock.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use zmap_netsim::{EndpointId, SendError, World, WorldConfig};

/// A reusable pool of rendered frames awaiting one batched send — the
/// engine-side model of a `sendmmsg` iovec array.
///
/// Each slot holds `(scheduled send time, engine tag, frame buffer)`.
/// Buffers are recycled across [`clear`](Self::clear) calls, so after
/// the first fill the TX hot path performs zero allocations: the engine
/// renders each probe straight into [`reserve`](Self::reserve)'s buffer
/// with `ProbeModule::render_into`.
///
/// The tag is driver-defined bookkeeping carried alongside the frame
/// (the inline driver stores its target count, the threaded one its walk
/// position) so a partially accepted batch can roll progress back to
/// exactly the frames that left the NIC.
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
}

/// A simulated Internet that scanner transports attach to.
///
/// Cloning the handle is cheap; all clones refer to one world.
#[derive(Clone)]
pub struct SimNet {
    world: Arc<Mutex<World>>,
}

impl SimNet {
    /// Builds a world from config.
    pub fn new(cfg: WorldConfig) -> Self {
        SimNet {
            world: Arc::new(Mutex::new(World::new(cfg))),
        }
    }

    /// Attaches a scanner endpoint at `ip` and returns its transport.
    pub fn transport(&self, ip: Ipv4Addr) -> SimTransport {
        SimTransport::new(Arc::clone(&self.world), ip)
    }

    /// Access the underlying world (stats, darknet captures).
    pub fn with_world<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        f(&mut self.world.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One endpoint on a [`SimNet`], the transport of both drivers:
/// `&SimTransport` is the [`Transport`] (any number of threads drive it
/// through copies of the reference), and the owned one forwards to it.
///
/// A poisoned world lock is simply taken: the world is whole after any
/// panic, and a scan whose own thread panicked returns no summary anyway.
pub struct SimTransport {
    world: Arc<Mutex<World>>,
    ep: EndpointId,
    // [atomics] clock: monotone virtual time — AcqRel fetch_max, once per
    // batch (the latest slot attempted) and per advance_to; Acquire load so
    // a reader sees every event at or before the observed instant.
    clock: AtomicU64,
}

impl SimTransport {
    /// Attaches a new endpoint at `ip` to `world`, its clock at 0.
    pub fn new(world: Arc<Mutex<World>>, ip: Ipv4Addr) -> Self {
        let ep = world.lock().unwrap_or_else(PoisonError::into_inner).attach(ip);
        SimTransport { world, ep, clock: AtomicU64::new(0) }
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

    /// One lock acquisition for the whole batch — the simulator's
    /// analogue of collapsing per-packet syscalls into one `sendmmsg`.
    /// Each frame goes out at its own slot time, never the shared
    /// clock's, so the stamp is a pure function of (seed, lane); the
    /// clock then moves to the latest slot attempted.
    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let mut world = self.world.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut accepted, mut refused, mut latest) = (0usize, None, 0u64);
        for i in from_idx..batch.len() {
            let (at, frame) = batch.frame(i);
            latest = latest.max(at);
            if let Err(e) = world.send(self.ep, frame, at) {
                refused = Some(e);
                break;
            }
            accepted += 1;
        }
        drop(world);
        self.advance_to(latest);
        (accepted, refused)
    }

    fn recv_into(&mut self, rx: &mut RxBatch) {
        let now = self.now();
        self.world.lock().unwrap_or_else(PoisonError::into_inner).recv_into(self.ep, now, rx);
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.world.lock().unwrap_or_else(PoisonError::into_inner).next_event_at()
    }

    fn killed(&self) -> bool {
        self.world.lock().unwrap_or_else(PoisonError::into_inner).kill_fired()
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
