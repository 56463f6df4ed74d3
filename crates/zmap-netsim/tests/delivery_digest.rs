//! Pins the simulated wire's delivery stream to committed digests.
//!
//! `faulted_world_replays_identically` (world.rs) compares a build with
//! itself; these digests compare it with the bytes the world delivered
//! before its delivery queue was rebuilt. Each scenario folds into one
//! FNV-1a digest every `(endpoint, t, frame)` the world hands back, every
//! `next_event_at` the drain hops through, the counters and the
//! delivery-latency histogram.
//!
//! The traffic covers every path a delivery can take: two endpoints whose
//! clocks sit half a second apart (the lagging one schedules deliveries
//! earlier than frames already drained), receives interleaved with sends,
//! endpoint-to-endpoint frames, RSTs, ICMP unreachables, UDP and echo
//! replies, blowback tails that run for minutes, fault-layer duplicates,
//! reordering, corruption, burst loss, an ICMP storm, refused sends and,
//! in the second scenario, a kill that lands during the drain.

use std::net::Ipv4Addr;
use zmap_netsim::loss::LossModel;
use zmap_netsim::{EndpointId, FaultPlan, RxBatch, ServiceModel, World, WorldConfig};
use zmap_wire::ProbeBuilder;

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const ROUNDS: u32 = 3_000;
/// How far endpoint A's clock runs ahead of endpoint B's.
const LEAD_NS: u64 = 500_000_000;

fn world(kill_at: Option<u64>) -> World {
    let mut model = ServiceModel::dense(&[80, 53]);
    model.live_fraction = 0.8;
    model.unreach_for_dead = 0.5;
    model.rst_on_closed = 0.6;
    model.icmp_on_closed = 0.3;
    model.requires_any_option = 0.05;
    model.middlebox_fraction = 0.01;
    model.blowback_fraction = 0.05;
    model.blowback_max = 64;
    let mut faults = FaultPlan::builder()
        .send_failures(0.02)
        .duplicate(0.2)
        .reorder(0.2, 8_000_000)
        .corrupt(0.05)
        .burst_loss(520_000_000, 530_000_000, 0.5)
        .icmp_storm(540_000_000, 550_000_000, 0.3);
    if let Some(k) = kill_at {
        faults = faults.kill_at(k);
    }
    World::new(WorldConfig {
        seed: 29,
        model,
        loss: LossModel::default(),
        faults: faults.build(),
        ..WorldConfig::default()
    })
}

/// Folds one receive of endpoint `ep` at `now` into `d`, tagged `who`.
fn take(d: &mut Digest, w: &mut World, who: u64, ep: EndpointId, now: u64) {
    let mut rx = RxBatch::new();
    w.recv_into(ep, now, &mut rx);
    d.u64(who);
    d.u64(rx.len() as u64);
    for (t, f) in rx.iter() {
        d.u64(t);
        d.u64(f.len() as u64);
        d.bytes(f);
    }
}

/// Runs the scenario and returns its digest plus the NIC-event ordinals
/// at the end of the send phase and at the end of the drain.
fn run(kill_at: Option<u64>) -> (u64, u64, u64) {
    let mut w = world(kill_at);
    let (ip_a, ip_b) = (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8));
    let a = w.attach(ip_a);
    let b = w.attach(ip_b);
    let (pa, pb) = (ProbeBuilder::new(ip_a, 1), ProbeBuilder::new(ip_b, 2));
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for i in 0..ROUNDS {
        let t_b = u64::from(i) * 20_000;
        let t_a = t_b + LEAD_NS;
        let dst_a = Ipv4Addr::from(0x0A00_0000 + i * 7_919);
        let dst_b = Ipv4Addr::from(0x1400_0000 + i * 104_729);
        let probe_a = match i % 10 {
            0 => pa.icmp_echo(dst_a, 0),
            1 => pa.udp(dst_a, 53, b"q", 0).expect("small datagram"),
            2 | 3 => pa.tcp_syn(dst_a, 81, 0),
            _ => pa.tcp_syn(dst_a, 80, 0),
        };
        d.u64(u64::from(w.send(a, &probe_a, t_a).is_ok()));
        d.u64(u64::from(w.send(b, &pb.tcp_syn(dst_b, 80, 0), t_b).is_ok()));
        if i % 500 == 7 {
            // Endpoint to endpoint: A's frame lands in B's inbox.
            d.u64(u64::from(w.send(a, &pb.tcp_syn(ip_b, 9, 0), t_a).is_ok()));
        }
        if i % 64 == 63 {
            take(&mut d, &mut w, 1, a, t_a);
            take(&mut d, &mut w, 2, b, t_b);
        }
    }
    let sent = w.nic_events();
    // The drain: hop from one scheduled delivery to the next, A first.
    while let Some(t) = w.next_event_at() {
        d.u64(t);
        take(&mut d, &mut w, 3, a, t);
        take(&mut d, &mut w, 4, b, t);
        if w.kill_fired() {
            break;
        }
    }
    d.u64(w.next_event_at().unwrap_or(u64::MAX));
    let s = w.stats();
    for v in [
        s.frames_sent,
        s.drops_path,
        s.drops_transient,
        s.drops_ratelimit,
        s.responses_generated,
        s.drops_response,
        s.frames_delivered,
        s.darknet_frames,
        s.sendto_failures,
        s.drops_blackout,
        s.drops_burst,
        s.frames_corrupted,
        s.frames_duplicated,
        s.frames_reordered,
        s.storm_replies,
    ] {
        d.u64(v);
    }
    let lat = w.delivery_latency().snapshot();
    for v in [lat.count, lat.min, lat.max, lat.p50, lat.p90, lat.p99] {
        d.u64(v);
    }
    (d.0, sent, w.nic_events())
}

#[test]
fn delivery_stream_matches_the_pinned_digest() {
    let (digest, sent, total) = run(None);
    assert!(
        total > sent + 5_000,
        "the drain delivers the tails: {sent} → {total}"
    );
    assert_eq!(
        digest, 0x3DBB_D9CF_00A7_F3BE,
        "digest {digest:#018x} (send phase {sent}, total {total})"
    );
}

#[test]
fn kill_in_the_drain_matches_the_pinned_digest() {
    let (digest, sent, total) = run(Some(KILL_AT));
    assert!(
        sent < KILL_AT && total == KILL_AT,
        "kill lands in the drain: {sent} {total}"
    );
    assert_eq!(
        digest, 0x5561_730D_9913_4D1C,
        "digest {digest:#018x} (send phase {sent}, total {total})"
    );
}

/// A NIC-event ordinal halfway through the drain (the send phase ends at
/// 9 625 events and the drain at 19 081).
const KILL_AT: u64 = 14_353;
