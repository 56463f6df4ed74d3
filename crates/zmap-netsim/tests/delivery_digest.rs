//! Pins the simulated wire's delivery stream to committed digests.
//!
//! `faulted_world_replays_identically` (world.rs) compares a build with
//! itself; these digests compare it with the bytes earlier worlds
//! delivered: the first two with the world before its delivery queue was
//! rebuilt, the third with the host model before its draws became lazy.
//! Each scenario folds into one FNV-1a digest every `(endpoint, t, frame)`
//! the world hands back, every `next_event_at` the drain hops through, the
//! counters and the delivery-latency histogram.
//!
//! The first two scenarios cover every path a delivery can take: two
//! endpoints whose clocks sit half a second apart (the lagging one
//! schedules deliveries earlier than frames already drained), receives
//! interleaved with sends, endpoint-to-endpoint frames, RSTs, ICMP
//! unreachables, UDP and echo replies, blowback tails that run for
//! minutes, fault-layer duplicates, reordering, corruption, burst loss, an
//! ICMP storm, refused sends and, in the second scenario, a kill that
//! lands during the drain. Their models use interior thresholds only. The
//! third holds every threshold at 0 or 1, or past either end — the values
//! that decide a draw without its hash — across SYNs in every option
//! layout, ACK + data banners, echo and UDP probes and a v6 population.

use std::net::{Ipv4Addr, Ipv6Addr};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{
    EndpointId, FaultPlan, RxBatch, ServiceModel, V6Population, World, WorldConfig,
};
use zmap_wire::options::OptionLayout;
use zmap_wire::{ProbeBuilder, ProbeBuilderV6};

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

/// Folds the world's counters and its delivery-latency histogram into `d`.
fn fold_stats(d: &mut Digest, w: &World) {
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
    fold_stats(&mut d, &w);
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

/// Probes sent into each boundary world: 40 rounds of the 16 kinds.
const BOUNDARY_ROUNDS: u32 = 640;

/// The boundary scenario's models: every threshold at 0 or 1, or past
/// either end, so each host draw is decided by its threshold alone.
fn boundary_models() -> [ServiceModel; 5] {
    // Live, echo and RST at exactly 1, everything else at 0.
    let dense = || ServiceModel::dense(&[80, 53]);
    [
        dense(),
        // Every threshold at 1 or past it: every port open, every host
        // wants an OS option ordering, every reply is a blowback burst.
        ServiceModel {
            default_port_open: 1.0,
            echo_reply: 1.5,
            icmp_on_closed: 1.0,
            requires_any_option: 1.0,
            requires_multi_option: 1.0,
            requires_os_ordering: 1.0,
            blowback_fraction: 1.0,
            blowback_max: 12,
            unreach_for_dead: 1.0,
            ..dense()
        },
        // Closed ports answer with ICMP, and only SYNs carrying two or
        // more options pass (the first tier's threshold is below 0);
        // blowback hosts send fewer than ten copies.
        ServiceModel {
            rst_on_closed: 0.0,
            icmp_on_closed: 1.0,
            requires_os_ordering: -0.5,
            requires_multi_option: 2.0,
            blowback_fraction: 2.0,
            blowback_max: 5,
            ..dense()
        },
        // Every /24 behind a middlebox, and no live host behind any.
        ServiceModel {
            live_fraction: -1.0,
            middlebox_fraction: 1.0,
            unreach_for_dead: 1.0,
            ..dense()
        },
        // Dead space that always draws a host-unreachable.
        ServiceModel {
            live_fraction: 0.0,
            unreach_for_dead: 2.0,
            ..dense()
        },
    ]
}

/// Runs every boundary world in turn into one digest; returns it and the
/// frames delivered across the worlds.
fn run_boundary() -> (u64, u64) {
    let pop = V6Population::from_prefix_list(
        "2001:db8:a::/48 pattern=low bits=6 density=1.0\n",
        vec![80],
    )
    .expect("valid prefix line");
    let spec = pop.specs()[0].clone();
    let src = Ipv4Addr::new(1, 2, 3, 4);
    let src6: Ipv6Addr = "2001:db8:ffff::1".parse().expect("valid address");
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    let mut delivered = 0;
    for (k, model) in boundary_models().into_iter().enumerate() {
        let mut w = World::new(WorldConfig {
            seed: 31,
            model,
            loss: if k % 2 == 0 { LossModel::NONE } else { LossModel::default() },
            v6: Some(pop.clone()),
            ..WorldConfig::default()
        });
        let ep = w.attach(src);
        let mut p = ProbeBuilder::new(src, 3);
        let p6 = ProbeBuilderV6::new(src6, 4);
        for i in 0..BOUNDARY_ROUNDS {
            let t = u64::from(i) * 50_000;
            let dst = Ipv4Addr::from(0x2A00_0000 + i * 65_537);
            let probe = match i % 16 {
                layout @ 0..=8 => {
                    p.layout = OptionLayout::ALL[layout as usize];
                    p.tcp_syn(dst, 80, 0)
                }
                9 => p.tcp_syn(dst, 81, 0),
                10 => p.tcp_ack_data(dst, 80, i, b"GET / HTTP/1.0\r\n\r\n", 0).expect("small segment"),
                11 => p.tcp_ack_data(dst, 81, i, b"HELO\r\n", 0).expect("small segment"),
                12 => p.icmp_echo(dst, 0),
                13 => p.udp(dst, 53, b"q", 0).expect("small datagram"),
                14 => p.udp(dst, 54, b"q", 0).expect("small datagram"),
                _ => {
                    let dst6 = spec.addr_at(u128::from(i / 16 % 64));
                    match i / 16 % 4 {
                        0 => p6.tcp_syn(dst6, 80, 0),
                        1 => p6.tcp_syn(dst6, 81, 0),
                        2 => p6.icmp_echo(dst6, 0),
                        _ => p6.udp(dst6, 80, b"q", 0).expect("small datagram"),
                    }
                }
            };
            d.u64(u64::from(w.send(ep, &probe, t).is_ok()));
            if i % 32 == 31 {
                take(&mut d, &mut w, 5, ep, t);
            }
        }
        while let Some(t) = w.next_event_at() {
            d.u64(t);
            take(&mut d, &mut w, 6, ep, t);
        }
        fold_stats(&mut d, &w);
        delivered += w.stats().frames_delivered;
    }
    (d.0, delivered)
}

#[test]
fn boundary_thresholds_match_the_pinned_digest() {
    let (digest, delivered) = run_boundary();
    assert!(delivered > 5_000, "the worlds answer: {delivered} frames");
    assert_eq!(
        digest, 0x1B5C_4F07_1F2A_588D,
        "digest {digest:#018x} ({delivered} frames)"
    );
}
