//! Admission and routing, split: a transport may let the NIC admit a
//! whole batch of frames and route them later, in admission order, on
//! another thread. That must deliver exactly what sending each frame at
//! once delivers.
//!
//! The world carries `delivery_digest.rs`'s fault mix — refused sends,
//! duplication, reordering, corruption, burst loss and an ICMP storm —
//! with its windows moved onto this scan's span and a 1 GbE link that
//! the frames outpace, so admission both refuses frames and pushes their
//! send times. Every fault draw after the NIC is keyed on a packet
//! ordinal; were `route` to read a counter that `admit` has since moved
//! on, the draws, and so the stream, would differ.

use std::net::Ipv4Addr;
use zmap_metrics::HistogramSnapshot;
use zmap_netsim::loss::LossModel;
use zmap_netsim::{Admitted, EndpointId, FaultPlan, RxBatch, ServiceModel, World, WorldConfig};
use zmap_wire::timing::LinkSpeed;
use zmap_wire::ProbeBuilder;

const SRC: Ipv4Addr = Ipv4Addr::new(1, 2, 3, 4);
const PEER: Ipv4Addr = Ipv4Addr::new(5, 6, 7, 8);
const FRAMES: u32 = 8_192;
/// Frames admitted per batch.
const BATCH: usize = 256;
/// Hand-over spacing: faster than 1 GbE's 672 ns per minimum frame.
const GAP_NS: u64 = 500;
/// Batches between receives.
const RECV_EVERY: usize = 4;

fn world() -> World {
    let mut model = ServiceModel::dense(&[80, 53]);
    model.live_fraction = 0.8;
    model.unreach_for_dead = 0.5;
    model.rst_on_closed = 0.6;
    model.icmp_on_closed = 0.3;
    model.blowback_fraction = 0.05;
    model.blowback_max = 64;
    let span = u64::from(FRAMES) * 700;
    let faults = FaultPlan::builder()
        .send_failures(0.02)
        .duplicate(0.2)
        .reorder(0.2, 8_000_000)
        .corrupt(0.05)
        .burst_loss(span / 4, span / 4 + span / 10, 0.5)
        .icmp_storm(span / 2, span / 2 + span / 10, 0.3)
        .build();
    World::new(WorldConfig {
        seed: 29,
        model,
        loss: LossModel::default(),
        faults,
        link: Some(LinkSpeed::Gbe1),
        ..WorldConfig::default()
    })
}

/// The scan: SYNs to ports 80 and 81, echo requests, and now and then a
/// frame to the other endpoint, each with its hand-over time.
fn frames() -> Vec<(u64, Vec<u8>)> {
    let b = ProbeBuilder::new(SRC, 1);
    (0..FRAMES)
        .map(|i| {
            let dst = Ipv4Addr::from(0x0A00_0000 + i * 7_919);
            let frame = match i % 10 {
                0 => b.icmp_echo(dst, 0),
                1 if i % 1_000 == 1 => b.tcp_syn(PEER, 9, 0),
                2 | 3 => b.tcp_syn(dst, 81, 0),
                _ => b.tcp_syn(dst, 80, 0),
            };
            (u64::from(i) * GAP_NS, frame)
        })
        .collect()
}

/// What a run delivered: every receive's `(t, frame)`s, the counters and
/// the delivery-latency histogram.
#[derive(Debug, PartialEq)]
struct Run {
    delivered: Vec<Vec<(u64, Vec<u8>)>>,
    stats: [u64; 15],
    latency: HistogramSnapshot,
}

fn receive(w: &mut World, ep: EndpointId, now: u64, into: &mut Vec<Vec<(u64, Vec<u8>)>>) {
    let mut rx = RxBatch::new();
    w.recv_into(ep, now, &mut rx);
    into.push(rx.iter().map(|(t, f)| (t, f.to_vec())).collect());
}

fn finish(mut w: World, ep: EndpointId, peer: EndpointId, mut delivered: Vec<Vec<(u64, Vec<u8>)>>) -> Run {
    receive(&mut w, ep, u64::MAX >> 1, &mut delivered);
    receive(&mut w, peer, u64::MAX >> 1, &mut delivered);
    let s = w.stats();
    Run {
        delivered,
        stats: [
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
        ],
        latency: w.delivery_latency().snapshot(),
    }
}

/// Each frame sent at once, receiving every `RECV_EVERY` batches.
fn per_frame() -> Run {
    let mut w = world();
    let (ep, peer) = (w.attach(SRC), w.attach(PEER));
    let mut delivered = Vec::new();
    for (k, batch) in frames().chunks(BATCH).enumerate() {
        for (at, frame) in batch {
            let _ = w.send(ep, frame, *at);
        }
        if k % RECV_EVERY == RECV_EVERY - 1 {
            receive(&mut w, ep, batch[BATCH - 1].0, &mut delivered);
        }
    }
    finish(w, ep, peer, delivered)
}

/// Each batch admitted whole while the one before it still waits to be
/// routed; routing trails in chunks of `chunk`, and a receive first
/// routes everything admitted, as a transport routes its wire.
fn staged(chunk: usize) -> Run {
    let mut w = world();
    let (ep, peer) = (w.attach(SRC), w.attach(PEER));
    let mut wire: Vec<(Admitted, Vec<u8>)> = Vec::new();
    let mut delivered = Vec::new();
    let route = |w: &mut World, wire: &mut Vec<(Admitted, Vec<u8>)>, keep: usize| {
        while wire.len() > keep {
            let n = chunk.min(wire.len() - keep);
            for (sent, frame) in wire.drain(..n) {
                w.route(ep, &frame, sent);
            }
        }
    };
    for (k, batch) in frames().chunks(BATCH).enumerate() {
        for (at, frame) in batch {
            if let Ok(sent) = w.admit(frame.len(), *at) {
                wire.push((sent, frame.clone()));
            }
        }
        // Admission runs a batch ahead of routing.
        route(&mut w, &mut wire, BATCH);
        if k % RECV_EVERY == RECV_EVERY - 1 {
            route(&mut w, &mut wire, 0);
            receive(&mut w, ep, batch[BATCH - 1].0, &mut delivered);
        }
    }
    route(&mut w, &mut wire, 0);
    finish(w, ep, peer, delivered)
}

#[test]
fn routing_behind_admission_delivers_what_sending_at_once_does() {
    let want = per_frame();
    let s = &want.stats;
    // The mix fires: refusals, storm replies, burst drops, corruption,
    // duplicates and reordering, and replies reach both endpoints.
    assert!(s[8] > 50 && s[14] > 10 && s[10] > 10, "{s:?}");
    assert!(s[11] > 50 && s[12] > 50 && s[13] > 50, "{s:?}");
    assert!(want.delivered.iter().map(Vec::len).sum::<usize>() > 5_000);
    for chunk in [1, 7, 64] {
        assert!(staged(chunk) == want, "routing in chunks of {chunk} changed the stream");
    }
}
