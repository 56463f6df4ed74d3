//! The simulated Internet: endpoints, the event queue, loss, rate limits,
//! darknet capture, and routing between scanners and the procedural host
//! population.
//!
//! The world is a discrete-event simulator driven by the scanner(s): a
//! transport calls [`World::send`] with the current simulated time, the
//! world synthesizes host responses (via [`crate::responder`]) and
//! schedules their delivery; [`World::recv_into`] hands back everything
//! that has arrived by "now". Single-threaded and fully deterministic.

use crate::faults::{FaultPlan, SendError};
use crate::hash3;
use crate::loss::LossModel;
use crate::profile::HostDraws;
use crate::queue::DeliveryQueue;
use crate::ratelimit::PrefixRateLimiter;
use crate::responder::{self, Reply};
use crate::rx::RxBatch;
use crate::services::ServiceModel;
use std::net::Ipv4Addr;
use zmap_metrics::Log2Histogram;
use zmap_wire::ethernet::EthernetView;
use zmap_wire::ipv4::Ipv4View;
use zmap_wire::timing::{wire_bytes, LinkSpeed};

/// Handle to an attached endpoint (scanner NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(usize);

/// Per-prefix rate limit parameters.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// SYN tokens per second per prefix.
    pub rate: f64,
    /// Bucket depth.
    pub burst: f64,
    /// Prefix granularity in bits (24 = per-/24).
    pub prefix_len: u8,
}

/// World configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed for all procedural generation.
    pub seed: u64,
    /// Host population parameters.
    pub model: ServiceModel,
    /// Packet-loss model.
    pub loss: LossModel,
    /// Optional per-prefix SYN rate limiting (the Masscan-bias mechanism).
    pub rate_limit: Option<RateLimitConfig>,
    /// Optional darknet `(network, prefix_len)`: addresses in it never
    /// respond, and every frame sent to them is captured for telescope
    /// analysis.
    pub darknet: Option<(u32, u8)>,
    /// Cap on captured darknet frames (memory guard); excess frames are
    /// counted but not stored.
    pub darknet_capture_limit: usize,
    /// Scheduled impairments layered on top of the loss model
    /// (inert by default).
    pub faults: FaultPlan,
    /// Optional NIC link speed: when set, frames serialize onto the wire
    /// back to back (preamble + padded frame + FCS + interframe gap, per
    /// `zmap_wire::timing`), so the effective send time of a frame is
    /// pushed past the end of the previous frame's wire occupancy. This
    /// is what caps a scanner at 1.488 Mpps on 1 GbE / 14.88 Mpps on
    /// 10 GbE regardless of how fast it hands frames to the NIC. `None`
    /// (the default) models an infinitely fast link.
    pub link: Option<LinkSpeed>,
    /// Optional IPv6 population. When set, IPv6 frames are routed to it;
    /// when `None` (the default), v6 frames vanish silently, as before.
    ///
    /// The v6 path shares the NIC boundary with v4 — send-failure faults,
    /// scheduled kills, and link serialization all apply before the frame
    /// is parsed — but the in-network impairment layers (loss model,
    /// prefix rate limiting, darknet, fault mutations) are keyed on
    /// 32-bit addresses and do not apply to v6 traffic.
    pub v6: Option<crate::v6::V6Population>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            model: ServiceModel::default(),
            loss: LossModel::default(),
            rate_limit: None,
            darknet: None,
            darknet_capture_limit: 2_000_000,
            faults: FaultPlan::default(),
            link: None,
            v6: None,
        }
    }
}

/// Counters the world keeps about everything it saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldStats {
    /// Frames handed to `send`.
    pub frames_sent: u64,
    /// Probes lost to per-(vantage, prefix) path loss.
    pub drops_path: u64,
    /// Probes lost to transient loss.
    pub drops_transient: u64,
    /// Probes lost to prefix rate limiting.
    pub drops_ratelimit: u64,
    /// Responses generated by hosts.
    pub responses_generated: u64,
    /// Responses lost in the return direction.
    pub drops_response: u64,
    /// Frames delivered to endpoints.
    pub frames_delivered: u64,
    /// Frames captured by (or counted at) the darknet.
    pub darknet_frames: u64,
    /// Send attempts refused at the NIC (fault layer, EAGAIN-style).
    pub sendto_failures: u64,
    /// Probes swallowed by an address-range blackout.
    pub drops_blackout: u64,
    /// Packets (either direction) lost to a burst-loss window.
    pub drops_burst: u64,
    /// Responses delivered with a flipped bit.
    pub frames_corrupted: u64,
    /// Responses delivered twice.
    pub frames_duplicated: u64,
    /// Responses delayed by reorder jitter.
    pub frames_reordered: u64,
    /// ICMP unreachables synthesized by a rate-limit storm.
    pub storm_replies: u64,
}

/// The simulated Internet.
pub struct World {
    cfg: WorldConfig,
    endpoints: Vec<Endpoint>,
    queue: DeliveryQueue,
    /// Per endpoint: frames another endpoint's receive popped for it.
    /// Only a world with several endpoints (an L7 phase beside its L4
    /// scan, Masscan beside ZMap) fills one.
    inboxes: Vec<RxBatch>,
    /// The responders render each probe's reply here, once.
    reply: Reply,
    rate_limiter: Option<PrefixRateLimiter>,
    pkt_counter: u64,
    send_attempts: u64,
    stats: WorldStats,
    /// When the NIC finishes serializing the last accepted frame, in
    /// picoseconds (only meaningful with `cfg.link`; picosecond units
    /// keep 10 GbE's 67.2 ns minimum-frame time exact).
    tx_busy_ps: u128,
    darknet_capture: Vec<(u64, Vec<u8>)>,
    /// Virtual latency from each probe's send to the scheduled delivery
    /// of its reply (OWD round trip + jitter + fault-layer delays) — the
    /// network-side counterpart of the engines' `probe_rtt_ns`.
    delivery_latency: Log2Histogram,
}

struct Endpoint {
    ip: u32,
}

impl World {
    /// Creates a world from configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        let rate_limiter = cfg
            .rate_limit
            .map(|r| PrefixRateLimiter::new(r.rate, r.burst, r.prefix_len));
        World {
            cfg,
            endpoints: Vec::new(),
            queue: DeliveryQueue::new(),
            inboxes: Vec::new(),
            reply: Reply::default(),
            rate_limiter,
            pkt_counter: 0,
            send_attempts: 0,
            stats: WorldStats::default(),
            tx_busy_ps: 0,
            darknet_capture: Vec::new(),
            delivery_latency: Log2Histogram::new(),
        }
    }

    /// Attaches a scanner endpoint at `ip`. Frames whose IPv4 destination
    /// is `ip` are routed to this endpoint.
    pub fn attach(&mut self, ip: Ipv4Addr) -> EndpointId {
        let idx = self.endpoints.len();
        self.endpoints.push(Endpoint { ip: u32::from(ip) });
        self.inboxes.push(RxBatch::new());
        EndpointId(idx)
    }

    /// The endpoint owning `ip`, if any: the newest one attached there,
    /// so a second endpoint at a finished scanner's address (an L7 phase
    /// after the L4 scan) receives its own replies. A linear scan: worlds
    /// attach a handful of endpoints at most, and this sits on the
    /// per-frame path where a `HashMap`'s hashing costs more than walking
    /// the Vec.
    #[inline]
    fn endpoint_by_ip(&self, ip: u32) -> Option<usize> {
        self.endpoints.iter().rposition(|e| e.ip == ip)
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// Frames captured at the darknet (up to the configured cap).
    pub fn darknet_capture(&self) -> &[(u64, Vec<u8>)] {
        &self.darknet_capture
    }

    /// Takes the darknet capture buffer (leaves it empty).
    pub fn take_darknet_capture(&mut self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut self.darknet_capture)
    }

    fn in_darknet(&self, dst: u32) -> bool {
        match self.cfg.darknet {
            None => false,
            Some((net, len)) => {
                let shift = 32 - u32::from(len);
                len == 0 || (dst >> shift) == (net >> shift)
            }
        }
    }

    /// Sends one frame from `from` into the world at `now_ns`.
    ///
    /// The world parses it, applies outbound loss/rate limits, asks the
    /// destination host to respond, applies inbound loss, and schedules
    /// deliveries. With a fault plan configured, the frame may be refused
    /// at the NIC ([`SendError::WouldBlock`]) or the process may be
    /// declared dead ([`SendError::Killed`]); every in-network impairment
    /// is a silent drop or a mutation.
    #[must_use = "an unchecked send error is a silently lost probe"]
    pub fn send(&mut self, from: EndpointId, frame: &[u8], now_ns: u64) -> Result<(), SendError> {
        // NIC-level transient send failure: the frame never enters the
        // network. Counted before frames_sent so stats reflect frames
        // that actually left the host.
        self.send_attempts += 1;
        // Scheduled crash: the kill ordinal indexes NIC-boundary events
        // (send attempts plus delivered frames), so a kill can land on a
        // send or, during cooldown, on a delivery. From that event on the
        // process is dead. The frame never leaves and is not counted as a
        // failure — a killed process has no stats.
        if self.cfg.faults.killed(self.nic_events()) {
            return Err(SendError::Killed);
        }
        if self.cfg.faults.send_fails(self.cfg.seed, self.send_attempts) {
            self.stats.sendto_failures += 1;
            return Err(SendError::WouldBlock);
        }
        self.stats.frames_sent += 1;
        self.pkt_counter += 1;
        // Line-rate serialization: with a link configured, a frame cannot
        // leave before the NIC finishes clocking out the previous one.
        // Its effective send time is pushed past the wire occupancy of
        // everything before it, and the rest of this function — loss
        // windows, rate limits, response scheduling — sees that time.
        let now_ns = match self.cfg.link {
            None => now_ns,
            Some(link) => {
                let start_ps = self.tx_busy_ps.max(u128::from(now_ns) * 1000);
                let time_ps = u128::from(wire_bytes(frame.len())) * 8 * 1_000_000_000_000
                    / u128::from(link.bits_per_second());
                self.tx_busy_ps = start_ps + time_ps;
                (start_ps / 1000) as u64
            }
        };
        let vantage = self.endpoints[from.0].ip;

        // Parse enough to route; garbage frames vanish silently (the real
        // Internet does not send error reports for unparseable frames).
        let Ok(eth) = EthernetView::parse(frame) else {
            return Ok(());
        };
        // IPv6 branches off here: the NIC boundary above (kill ordinals,
        // send failures, link serialization) has already applied, so the
        // fault-injection resume properties hold for v6 scans too.
        if eth.ethertype() == zmap_wire::ethernet::EtherType::Ipv6 {
            self.send_v6(from, &eth, now_ns);
            return Ok(());
        }
        let Ok(ip) = Ipv4View::parse(eth.payload()) else {
            return Ok(());
        };
        let dst = u32::from(ip.dst());

        // Darknet tap: capture and never respond.
        if self.in_darknet(dst) {
            self.stats.darknet_frames += 1;
            if self.darknet_capture.len() < self.cfg.darknet_capture_limit {
                self.darknet_capture.push((now_ns, frame.to_vec()));
            }
            return Ok(());
        }

        // Endpoint-to-endpoint traffic (e.g. scanner talking to a local
        // responder in tests) bypasses the host model.
        if let Some(ep) = self.endpoint_by_ip(dst) {
            let at = now_ns + 1_000; // 1 µs local hop
            self.push_delivery(now_ns, at, ep, frame);
            return Ok(());
        }

        // Mid-scan blackout: the route is down, the probe vanishes.
        if self.cfg.faults.in_blackout(dst, now_ns) {
            self.stats.drops_blackout += 1;
            return Ok(());
        }
        // Outbound burst loss.
        if self
            .cfg
            .faults
            .burst_drop(self.cfg.seed, now_ns, self.pkt_counter)
        {
            self.stats.drops_burst += 1;
            return Ok(());
        }
        // ICMP rate-limit storm: a router consumes the probe and answers
        // with host-unreachable instead of forwarding it.
        if self
            .cfg
            .faults
            .storm_consumes(self.cfg.seed, now_ns, self.pkt_counter)
        {
            self.stats.storm_replies += 1;
            if let Some(ep) = self.endpoint_by_ip(vantage) {
                let router = Ipv4Addr::from((dst & 0xFFFF_FF00) | 1);
                let mut reply = std::mem::take(&mut self.reply);
                reply.frame.clear();
                let code = zmap_wire::icmp::UnreachCode::Host;
                responder::build_unreach(&eth, &ip, router, code, self.cfg.seed, &mut reply.frame);
                let delay = 1_000_000 + hash3(self.cfg.seed, dst, 0x5702) % 20_000_000;
                self.push_delivery(now_ns, now_ns + delay, ep, &reply.frame);
                self.reply = reply;
            }
            return Ok(());
        }

        // Outbound loss.
        if self.cfg.loss.path_lossy(self.cfg.seed, vantage, dst) {
            self.stats.drops_path += 1;
            return Ok(());
        }
        if self.cfg.loss.transient_drop(self.cfg.seed, dst, now_ns, 0) {
            self.stats.drops_transient += 1;
            return Ok(());
        }
        // Prefix rate limiting (SYN floods to one subnet).
        if let Some(rl) = &mut self.rate_limiter {
            if !rl.allow(dst, now_ns) {
                self.stats.drops_ratelimit += 1;
                return Ok(());
            }
        }
        self.answer(&eth, &ip, dst, now_ns);
        Ok(())
    }

    /// The destination's side of a v4 probe that got through: the host's
    /// reply, rendered once into `self.reply`, then scheduled.
    ///
    /// Kept out of line: most probes stop at one of `send`'s filters
    /// (every probe of a blacked-out scan does), and in a build without
    /// LTO, with this path inlined, those early returns ran ~1 ns slower
    /// per probe (a dark `/8` scan used ~4 % more CPU, 2-core x86-64
    /// host). Under the fat-LTO release profile the attribute changes no
    /// instruction — the inliner leaves this fn out of line on its own
    /// (`.text` byte-identical with and without it) — so it holds the
    /// decision for the builds without LTO, such as the benchmark's
    /// layer replay.
    #[inline(never)]
    fn answer(&mut self, eth: &EthernetView<'_>, ip: &Ipv4View<'_>, dst: u32, now_ns: u64) {
        // The destination's draws, made as the reply reads them; the
        // one-way delay comes from the same draws, so liveness is drawn
        // once.
        let host = HostDraws::new(self.cfg.seed, dst, &self.cfg.model);
        responder::respond_routed(&host, eth, ip, &mut self.reply);
        if self.reply.is_silent() {
            // Silent destination (dead space, filtered SYN): no delay to
            // compute, nothing to schedule.
            return;
        }
        let owd = host.owd_ns();
        // Every reply is addressed to the probe's source.
        let ep = self.endpoint_by_ip(u32::from(ip.src()));
        let mut reply = std::mem::take(&mut self.reply);
        self.schedule_reply(&mut reply, ep, dst, owd, now_ns);
        self.reply = reply;
    }

    /// Schedules each copy of a v4 `reply` (sent at `now_ns` to `dst`,
    /// `owd` away) for endpoint `ep`, through return-path loss, jitter
    /// and the fault layer.
    fn schedule_reply(
        &mut self,
        reply: &mut Reply,
        ep: Option<usize>,
        dst: u32,
        owd: u64,
        now_ns: u64,
    ) {
        // Small per-reply jitter so responses interleave realistically.
        // Keyed on the frame's virtual send time, not the global packet
        // ordinal: multi-threaded senders interleave nondeterministically,
        // and delivery times must stay a pure function of (seed, probe).
        // The key has no copy index, so one draw serves every copy.
        let jitter = hash3(self.cfg.seed, dst, 0x717 ^ now_ns) % 2_000_000;
        for (copy, &delay) in reply.delays.iter().enumerate() {
            self.stats.responses_generated += 1;
            self.pkt_counter += 1;
            // Return-path transient loss (responses are packets too).
            if self
                .cfg
                .loss
                .transient_drop(self.cfg.seed, dst, now_ns, 1 + copy as u64)
            {
                self.stats.drops_response += 1;
                continue;
            }
            let Some(ep) = ep else {
                continue;
            };
            let mut at = now_ns + 2 * owd + delay + jitter;

            // Fault layer, return path. Reordering adds delay; burst-loss
            // windows apply at traversal time; corruption flips one bit
            // past the Ethernet header, so receiver-side checksum
            // validation can — and must — catch it (checksums are NOT
            // recomputed). The duplicate, when drawn, is a clean
            // retransmission-style copy of the original frame.
            let extra = self.cfg.faults.reorder_extra(self.cfg.seed, self.pkt_counter);
            if extra > 0 {
                self.stats.frames_reordered += 1;
                at += extra;
            }
            if self
                .cfg
                .faults
                .burst_drop(self.cfg.seed, at, self.pkt_counter)
            {
                self.stats.drops_burst += 1;
                continue;
            }
            let dup_at = self
                .cfg
                .faults
                .duplicate_delay(self.cfg.seed, self.pkt_counter)
                .map(|d| at + d);
            let region_bits = (reply.frame.len() as u64).saturating_sub(14) * 8;
            match self
                .cfg
                .faults
                .corrupt_bit(self.cfg.seed, self.pkt_counter, region_bits)
            {
                Some(bit) => {
                    // Queue a copy with the bit flipped; the frame is
                    // restored for any copy after it.
                    self.stats.frames_corrupted += 1;
                    let (byte, mask) = (14 + (bit / 8) as usize, 1 << (bit % 8));
                    reply.frame[byte] ^= mask;
                    self.push_delivery(now_ns, at, ep, &reply.frame);
                    reply.frame[byte] ^= mask;
                }
                None => self.push_delivery(now_ns, at, ep, &reply.frame),
            }
            if let Some(at2) = dup_at {
                self.stats.frames_duplicated += 1;
                self.push_delivery(now_ns, at2, ep, &reply.frame);
            }
        }
    }

    /// The IPv6 arm of [`send`](Self::send): asks the v6 population to
    /// respond and schedules deliveries back to the *sending* endpoint
    /// (v6 worlds are single-vantage; endpoints are keyed by v4 address,
    /// so responses return to the scanner that probed). Without a
    /// configured v6 population, v6 frames vanish silently.
    fn send_v6(&mut self, from: EndpointId, eth: &EthernetView<'_>, now_ns: u64) {
        let Ok(ip) = zmap_wire::ipv6::Ipv6View::parse(eth.payload()) else {
            return;
        };
        let dst = ip.dst();
        let Some(pop) = &self.cfg.v6 else {
            return;
        };
        pop.respond(self.cfg.seed, eth, &ip, &mut self.reply);
        if self.reply.is_silent() {
            return;
        }
        let owd = crate::v6::owd6(self.cfg.seed, dst);
        // Same jitter shape as v4: keyed on the frame's virtual send time
        // so delivery stays a pure function of (seed, probe), one draw
        // for every copy.
        let jitter = crate::v6::hash6(self.cfg.seed, dst, 0x717 ^ now_ns) % 2_000_000;
        let reply = std::mem::take(&mut self.reply);
        for &delay in &reply.delays {
            self.stats.responses_generated += 1;
            self.pkt_counter += 1;
            let at = now_ns + 2 * owd + delay + jitter;
            self.push_delivery(now_ns, at, from.0, &reply.frame);
        }
        self.reply = reply;
    }

    /// Schedules a copy of `frame` for delivery at `at_ns`, recording the
    /// virtual latency since the probe's send time `sent_ns`.
    fn push_delivery(&mut self, sent_ns: u64, at_ns: u64, endpoint: usize, frame: &[u8]) {
        self.delivery_latency.record(at_ns.saturating_sub(sent_ns));
        self.queue.push(at_ns, endpoint, frame);
    }

    /// The delivery-latency histogram: send-to-scheduled-delivery spans
    /// of every frame the world has queued, on the virtual clock. Purely
    /// a function of (seed, probe stream), so it is bit-identical across
    /// same-seed runs.
    pub fn delivery_latency(&self) -> &Log2Histogram {
        &self.delivery_latency
    }

    /// When the configured link finishes serializing everything accepted
    /// so far, in nanoseconds (0 when no frame has been sent or no link
    /// is configured). `sent_frames / tx_busy_until_ns` is the effective
    /// transmit rate the link allowed — the measurable line-rate cap.
    pub fn tx_busy_until_ns(&self) -> u64 {
        self.tx_busy_ps.div_ceil(1000) as u64
    }

    /// Timestamp of the next scheduled delivery, if any.
    pub fn next_event_at(&self) -> Option<u64> {
        self.queue.next_at()
    }

    /// Appends to `rx` every frame that has arrived at `ep` by `now_ns`,
    /// with its arrival timestamp, in delivery order: first what earlier
    /// receives of other endpoints left in `ep`'s inbox, then the queue's
    /// due frames in `(at_ns, seq)` order. Due frames for other endpoints
    /// move to their inboxes. Each frame is copied once, out of the
    /// queue's pages.
    ///
    /// Once a scheduled kill has fired the process is gone: nothing more
    /// is delivered, and the delivery that crosses the kill ordinal is
    /// itself lost (the process died as the frame arrived).
    pub fn recv_into(&mut self, ep: EndpointId, now_ns: u64, rx: &mut RxBatch) {
        if self.kill_fired() {
            return;
        }
        let inbox = &mut self.inboxes[ep.0];
        for (at, frame) in inbox.iter() {
            rx.push(at, frame);
        }
        inbox.clear();
        while let Some((at, endpoint, frame)) = self.queue.pop_due(now_ns) {
            self.stats.frames_delivered += 1;
            // `nic_events()`, spelled out: `frame` still borrows the queue.
            if self.cfg.faults.killed(self.send_attempts + self.stats.frames_delivered) {
                break;
            }
            let to = if endpoint == ep.0 { &mut *rx } else { &mut self.inboxes[endpoint] };
            to.push(at, frame);
        }
    }

    /// Total NIC-boundary events so far: send attempts plus delivered
    /// frames. This is the ordinal stream that [`FaultPlan::kill_at`]
    /// indexes, so a kill point can land anywhere in a scan — including
    /// mid-cooldown, when only deliveries occur.
    ///
    /// [`FaultPlan::kill_at`]: crate::faults::FaultPlan::kill_at
    pub fn nic_events(&self) -> u64 {
        self.send_attempts + self.stats.frames_delivered
    }

    /// True once a scheduled kill has fired — the NIC-event ordinal has
    /// reached the kill point. Engines poll this on the receive path to
    /// detect death where no sends happen (cooldown drain).
    pub fn kill_fired(&self) -> bool {
        self.cfg.faults.killed(self.nic_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;
    use zmap_wire::{ProbeBuilder, ResponseKind};

    impl World {
        /// [`recv_into`](World::recv_into), collected into one owned
        /// buffer per frame.
        fn recv_ready(&mut self, ep: EndpointId, now_ns: u64) -> Vec<(u64, Vec<u8>)> {
            let mut rx = RxBatch::new();
            self.recv_into(ep, now_ns, &mut rx);
            rx.iter().map(|(at, frame)| (at, frame.to_vec())).collect()
        }
    }

    fn lossless_world(model: ServiceModel) -> World {
        World::new(WorldConfig {
            seed: 5,
            model,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn probe_gets_response_after_rtt() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        let dst = Ipv4Addr::new(9, 9, 9, 9);
        w.send(ep, &b.tcp_syn(dst, 80, 0), 0).unwrap();
        // Nothing immediately.
        assert!(w.recv_ready(ep, 0).is_empty());
        // Everything within a second (max RTT 300 ms + jitter).
        let frames = w.recv_ready(ep, 1_000_000_000);
        assert_eq!(frames.len(), 1);
        let (ts, frame) = &frames[0];
        assert!(*ts > 0);
        let resp = b.parse_response(frame).unwrap().unwrap();
        assert_eq!(resp.kind, ResponseKind::SynAck);
        assert_eq!(resp.ip, dst);
    }

    #[test]
    fn delivery_latency_histogram_records_every_delivery() {
        let mk = || {
            let mut w = lossless_world(ServiceModel::dense(&[80]));
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            for i in 0..32u32 {
                let dst = Ipv4Addr::from(0x0A000000u32 + i * 1000);
                w.send(ep, &b.tcp_syn(dst, 80, 0), u64::from(i) * 1000).unwrap();
            }
            w.recv_ready(ep, u64::MAX >> 1);
            w.delivery_latency().snapshot()
        };
        let a = mk();
        assert_eq!(a.count, 32, "one latency sample per delivered response");
        assert!(a.min > 0, "simulated RTT is never zero");
        // Same seed, same traffic => bit-identical histogram.
        assert_eq!(a, mk());
    }

    #[test]
    fn delivery_order_is_time_sorted() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        for i in 0..50u32 {
            let dst = Ipv4Addr::from(0x0A000000u32 + i * 1000);
            w.send(ep, &b.tcp_syn(dst, 80, 0), u64::from(i) * 1000).unwrap();
        }
        let frames = w.recv_ready(ep, u64::MAX >> 1);
        assert_eq!(frames.len(), 50);
        for pair in frames.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "deliveries must be time-ordered");
        }
    }

    #[test]
    fn two_endpoints_get_their_own_traffic() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let a = w.attach(Ipv4Addr::new(1, 1, 1, 1));
        let bb = w.attach(Ipv4Addr::new(2, 2, 2, 2));
        let pa = ProbeBuilder::new(Ipv4Addr::new(1, 1, 1, 1), 1);
        let pb = ProbeBuilder::new(Ipv4Addr::new(2, 2, 2, 2), 2);
        w.send(a, &pa.tcp_syn(Ipv4Addr::new(9, 9, 9, 1), 80, 0), 0).unwrap();
        w.send(bb, &pb.tcp_syn(Ipv4Addr::new(9, 9, 9, 2), 80, 0), 0).unwrap();
        let fa = w.recv_ready(a, 1 << 40);
        let fb = w.recv_ready(bb, 1 << 40);
        assert_eq!(fa.len(), 1);
        assert_eq!(fb.len(), 1);
        assert!(pa.parse_response(&fa[0].1).unwrap().is_some());
        assert!(pb.parse_response(&fb[0].1).unwrap().is_some());
        // Cross-validation must fail.
        assert!(pa.parse_response(&fb[0].1).unwrap().is_none());
    }

    #[test]
    fn newest_endpoint_at_an_ip_receives() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let ip = Ipv4Addr::new(1, 1, 1, 1);
        let old = w.attach(ip);
        let new = w.attach(ip);
        let p = ProbeBuilder::new(ip, 1);
        w.send(new, &p.tcp_syn(Ipv4Addr::new(9, 9, 9, 1), 80, 0), 0).unwrap();
        assert!(w.recv_ready(old, 1 << 40).is_empty(), "the older endpoint is shadowed");
        assert_eq!(w.recv_ready(new, 1 << 40).len(), 1);
    }

    #[test]
    fn darknet_captures_and_never_responds() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            darknet: Some((0xC0000000, 8)), // 192/8
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        w.send(ep, &b.tcp_syn(Ipv4Addr::new(192, 0, 2, 1), 80, 0), 0).unwrap();
        w.send(ep, &b.tcp_syn(Ipv4Addr::new(10, 0, 0, 1), 80, 0), 0).unwrap();
        assert_eq!(w.darknet_capture().len(), 1);
        assert_eq!(w.stats().darknet_frames, 1);
        let frames = w.recv_ready(ep, 1 << 40);
        assert_eq!(frames.len(), 1, "only the non-darknet probe answers");
    }

    #[test]
    fn loss_reduces_yield() {
        let mk = |loss| {
            let mut w = World::new(WorldConfig {
                seed: 5,
                model: ServiceModel::dense(&[80]),
                loss,
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            for i in 0..4000u32 {
                let dst = Ipv4Addr::from(0x0B000000 + i * 37);
                w.send(ep, &b.tcp_syn(dst, 80, 0), u64::from(i) * 10_000).unwrap();
            }
            w.recv_ready(ep, 1 << 42).len()
        };
        let clean = mk(LossModel::NONE);
        let lossy = mk(LossModel::default());
        assert_eq!(clean, 4000);
        assert!(lossy < clean, "loss must reduce yield");
        let miss = (clean - lossy) as f64 / clean as f64;
        assert!(miss > 0.01 && miss < 0.06, "miss rate {miss}");
    }

    #[test]
    fn rate_limit_punishes_subnet_bursts() {
        let mk = |bursty: bool| {
            let mut w = World::new(WorldConfig {
                seed: 5,
                model: ServiceModel::dense(&[80]),
                loss: LossModel::NONE,
                rate_limit: Some(RateLimitConfig {
                    rate: 100.0,
                    burst: 30.0,
                    prefix_len: 24,
                }),
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            // 256 /24s × 128 hosts at 10k pps total: interleaved is
            // ~39 pps per /24 (under the 100/s limit); sequential dumps
            // 128 probes into one /24 in 12.8 ms (over it).
            let mut order = Vec::new();
            for subnet in 0..256u32 {
                for host in 0..128u32 {
                    order.push((subnet, host));
                }
            }
            if !bursty {
                // interleave: round-robin subnets
                order.sort_by_key(|&(s, h)| (h, s));
            }
            for (i, (s, h)) in order.iter().enumerate() {
                let dst = Ipv4Addr::from(0x0C000000 | (s << 8) | h);
                w.send(ep, &b.tcp_syn(dst, 80, 0), i as u64 * 100_000).unwrap();
            }
            w.stats().drops_ratelimit
        };
        assert_eq!(mk(false), 0, "interleaved order under the limit");
        assert!(mk(true) > 500, "sequential order trips the limiter");
    }

    #[test]
    fn stats_are_consistent() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        for i in 0..100u32 {
            w.send(ep, &b.tcp_syn(Ipv4Addr::from(0x0D000000 + i), 80, 0), 0).unwrap();
        }
        let got = w.recv_ready(ep, 1 << 42).len() as u64;
        let s = w.stats();
        assert_eq!(s.frames_sent, 100);
        assert_eq!(s.responses_generated, 100);
        assert_eq!(s.frames_delivered, got);
        assert_eq!(got, 100);
    }

    #[test]
    fn send_failures_surface_as_would_block() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().send_failures(0.25).build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        let mut failures = 0u64;
        for i in 0..400u32 {
            if w.send(ep, &b.tcp_syn(Ipv4Addr::from(0x0E000000 + i), 80, 0), 0).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 50 && failures < 150, "{failures}");
        assert_eq!(w.stats().sendto_failures, failures);
        // Failed attempts never became frames.
        assert_eq!(w.stats().frames_sent, 400 - failures);
    }

    #[test]
    fn blackout_swallows_probes_in_window_only() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder()
                .blackout(Ipv4Addr::new(14, 0, 0, 0), 8, 1_000_000, 2_000_000)
                .build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        let dst = Ipv4Addr::new(14, 3, 3, 7);
        w.send(ep, &b.tcp_syn(dst, 80, 0), 500_000).unwrap(); // before
        w.send(ep, &b.tcp_syn(dst, 80, 0), 1_500_000).unwrap(); // inside
        w.send(ep, &b.tcp_syn(dst, 80, 0), 2_500_000).unwrap(); // after
        assert_eq!(w.stats().drops_blackout, 1);
        assert_eq!(w.recv_ready(ep, 1 << 42).len(), 2);
    }

    #[test]
    fn corruption_and_duplication_are_counted_and_visible() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().corrupt(0.3).duplicate(0.3).build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        for i in 0..300u32 {
            w.send(ep, &b.tcp_syn(Ipv4Addr::from(0x0F000000 + i), 80, 0), 0)
                .unwrap();
        }
        let got = w.recv_ready(ep, 1 << 42);
        let s = w.stats();
        assert!(s.frames_corrupted > 30, "{}", s.frames_corrupted);
        assert!(s.frames_duplicated > 30, "{}", s.frames_duplicated);
        // Every duplicate is one extra delivery.
        assert_eq!(got.len() as u64, 300 + s.frames_duplicated);
        // Corrupted frames fail validation at the receiver; clean ones
        // (originals' duplicates included) still parse.
        let bad = got
            .iter()
            .filter(|(_, f)| b.parse_response(f).is_err())
            .count() as u64;
        assert!(bad >= s.frames_corrupted / 2, "bit flips must be detectable");
    }

    #[test]
    fn storm_replies_are_icmp_unreachables() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().icmp_storm(0, 1 << 40, 1.0).build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        w.send(ep, &b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 80, 0), 0).unwrap();
        assert_eq!(w.stats().storm_replies, 1);
        assert_eq!(w.stats().responses_generated, 0, "probe never reached the host");
        let got = w.recv_ready(ep, 1 << 42);
        assert_eq!(got.len(), 1);
        let resp = b.parse_response(&got[0].1).unwrap().unwrap();
        assert!(
            matches!(resp.kind, ResponseKind::Unreachable { .. }),
            "{:?}",
            resp.kind
        );
    }

    #[test]
    fn faulted_world_replays_identically() {
        let run = || {
            let mut w = World::new(WorldConfig {
                seed: 11,
                model: ServiceModel::dense(&[80]),
                loss: LossModel::NONE,
                faults: FaultPlan::builder()
                    .send_failures(0.05)
                    .duplicate(0.1)
                    .corrupt(0.1)
                    .reorder(0.2, 5_000_000)
                    .burst_loss(0, 300_000, 0.5)
                    .build(),
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            for i in 0..200u32 {
                let _ = w.send(ep, &b.tcp_syn(Ipv4Addr::from(0x10000000 + i), 80, 0), u64::from(i) * 10_000);
            }
            w.recv_ready(ep, 1 << 42)
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "same seed + same plan must replay byte-identically");
        }
    }

    /// The NIC-event ordinal advances frame by frame, so a scheduled kill
    /// lands inside a run of sends on its exact attempt.
    #[test]
    fn kill_lands_on_its_exact_send_ordinal() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().kill_at(40).build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        let probes: Vec<Vec<u8>> = (0..64u32)
            .map(|i| b.tcp_syn(Ipv4Addr::from(0x1200_0000 + i), 80, 0))
            .collect();
        let mut accepted = 0;
        let err = probes.iter().find_map(|f| w.send(ep, f, 0).inspect(|()| accepted += 1).err());
        // Attempt 40 is the kill ordinal: 39 frames left the NIC.
        assert_eq!((accepted, err), (39, Some(SendError::Killed)));
        assert!(w.kill_fired());
        assert_eq!(w.stats().frames_sent, 39);
        // The dead process receives nothing.
        assert!(w.recv_ready(ep, 1 << 42).is_empty());
    }

    #[test]
    fn transient_refusals_clear_on_retry() {
        let mut w = World::new(WorldConfig {
            seed: 5,
            model: ServiceModel::dense(&[80]),
            loss: LossModel::NONE,
            faults: FaultPlan::builder().send_failures(0.2).build(),
            ..WorldConfig::default()
        });
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        let probes: Vec<Vec<u8>> = (0..200u32)
            .map(|i| b.tcp_syn(Ipv4Addr::from(0x1300_0000 + i), 80, 0))
            .collect();
        // Drive every frame through, retrying a refused one the way an
        // engine would.
        let mut refusals = 0u64;
        for f in &probes {
            loop {
                match w.send(ep, f, 0) {
                    Ok(()) => break,
                    Err(SendError::WouldBlock) => refusals += 1,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        assert!(refusals > 10, "fault plan must actually refuse: {refusals}");
        assert_eq!(w.stats().frames_sent, 200, "every frame eventually leaves");
    }

    /// The paper's TX-rate table: a minimum-size SYN frame (60 bytes
    /// before FCS) serializes at 1,488,095 pps on 1 GbE and 14,880,952
    /// pps on 10 GbE. The world's link accounting must reproduce both.
    #[test]
    fn link_serialization_reproduces_canonical_line_rates() {
        for (link, want_pps) in [
            (LinkSpeed::Gbe1, 1_488_095.0),
            (LinkSpeed::Gbe10, 14_880_952.0),
        ] {
            let mut w = World::new(WorldConfig {
                seed: 5,
                model: ServiceModel {
                    live_fraction: 0.0,
                    unreach_for_dead: 0.0,
                    ..ServiceModel::default()
                },
                loss: LossModel::NONE,
                link: Some(link),
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            let frame = b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 80, 0);
            // 58 bytes + FCS = 62 < 64: padded to the canonical minimum
            // frame, so it rides at exactly the paper's table rates.
            assert!(frame.len() + 4 <= 64, "minimum-frame SYN probe");
            let n = 100_000u64;
            // Hand every frame to the NIC at t=0: the achieved rate is
            // then purely the link's serialization cap.
            for _ in 0..n {
                w.send(ep, &frame, 0).unwrap();
            }
            let busy_ns = w.tx_busy_until_ns();
            let pps = n as f64 * 1e9 / busy_ns as f64;
            assert!(
                (pps - want_pps).abs() < 1.0,
                "{link:?}: {pps} pps over {busy_ns} ns"
            );
        }
    }

    #[test]
    fn link_pushes_response_times_past_serialization() {
        // Two frames to the SAME host handed to the NIC at t=0 on a slow
        // custom link: the second frame's responses must be scheduled
        // relative to its *effective* (serialized) send time, not t=0.
        // Same destination keeps the one-way delay identical across the
        // linked/unlinked runs, and 100 kb/s serializes a minimum frame
        // in 6.72 ms — far beyond the ±2 ms response-jitter range, so the
        // shift cannot be an artifact of re-keyed jitter.
        let delivery_at = |link: Option<LinkSpeed>| {
            let mut w = World::new(WorldConfig {
                seed: 5,
                model: ServiceModel::dense(&[80]),
                loss: LossModel::NONE,
                link,
                ..WorldConfig::default()
            });
            let src = Ipv4Addr::new(1, 2, 3, 4);
            let ep = w.attach(src);
            let b = ProbeBuilder::new(src, 1);
            w.send(ep, &b.tcp_syn(Ipv4Addr::new(9, 9, 9, 1), 80, 0), 0).unwrap();
            w.send(ep, &b.tcp_syn(Ipv4Addr::new(9, 9, 9, 1), 80, 1), 0).unwrap();
            let frames = w.recv_ready(ep, u64::MAX >> 1);
            assert_eq!(frames.len(), 2);
            frames.iter().map(|(ts, _)| *ts).max().unwrap()
        };
        let slow = delivery_at(Some(LinkSpeed::Custom(100_000)));
        let fast = delivery_at(None);
        assert!(
            slow >= fast + 4_000_000,
            "serialization must delay the tail: slow={slow} fast={fast}"
        );
    }

    #[test]
    fn unlinked_world_has_no_serialization_state() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        let b = ProbeBuilder::new(src, 1);
        w.send(ep, &b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 80, 0), 1000).unwrap();
        assert_eq!(w.tx_busy_until_ns(), 0, "no link => no busy tracking");
    }

    #[test]
    fn v6_probes_round_trip_and_replay_identically() {
        let run = || {
            let pop = crate::v6::V6Population::from_prefix_list(
                "2001:db8:a::/48 pattern=low bits=6 density=1.0\n",
                vec![80],
            )
            .unwrap();
            let mut w = World::new(WorldConfig {
                seed: 21,
                loss: LossModel::NONE,
                v6: Some(pop),
                ..WorldConfig::default()
            });
            let ep = w.attach(Ipv4Addr::new(1, 2, 3, 4));
            let b = zmap_wire::ProbeBuilderV6::new(
                "2001:db8:ffff::1".parse().unwrap(),
                9,
            );
            let spec = w.config().v6.as_ref().unwrap().specs()[0].clone();
            for i in 0..64u128 {
                w.send(ep, &b.tcp_syn(spec.addr_at(i), 80, 0), i as u64 * 10_000)
                    .unwrap();
            }
            let frames = w.recv_ready(ep, 1 << 42);
            assert_eq!(frames.len(), 64, "density 1.0 answers every probe");
            for (_, f) in &frames {
                let resp = b.parse_response(f).unwrap().unwrap();
                assert_eq!(resp.kind, ResponseKind::SynAck);
            }
            frames
        };
        assert_eq!(run(), run(), "same seed replays byte-identically");
    }

    #[test]
    fn v6_frames_vanish_without_a_population() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let ep = w.attach(Ipv4Addr::new(1, 2, 3, 4));
        let b = zmap_wire::ProbeBuilderV6::new("2001:db8::1".parse().unwrap(), 9);
        w.send(ep, &b.tcp_syn("2001:db8:a::1".parse().unwrap(), 80, 0), 0)
            .unwrap();
        assert!(w.recv_ready(ep, 1 << 42).is_empty());
        assert_eq!(w.stats().frames_sent, 1);
        assert_eq!(w.stats().responses_generated, 0);
    }

    #[test]
    fn next_event_at_tracks_queue() {
        let mut w = lossless_world(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let ep = w.attach(src);
        assert_eq!(w.next_event_at(), None);
        let b = ProbeBuilder::new(src, 1);
        w.send(ep, &b.tcp_syn(Ipv4Addr::new(9, 9, 9, 9), 80, 0), 1000).unwrap();
        let t = w.next_event_at().expect("one delivery scheduled");
        assert!(t > 1000);
        let _ = w.recv_ready(ep, t);
        assert_eq!(w.next_event_at(), None);
    }
}
