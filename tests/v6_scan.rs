//! Integration: IPv6 scans end to end — XMap-style per-prefix walks
//! through both engines against the procedural v6 population, byte-level
//! determinism across the four output streams, kill-then-resume
//! equivalence for the 128-bit index space, and the per-response dedup
//! degradation contract (a response outside the target space is
//! discarded, not a scan abort).

use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use zmap::core::checkpoint::{CheckpointPolicy, CheckpointState};
use zmap::core::log::{Level, Logger};
use zmap::core::output::OutputModule;
use zmap::core::parallel::run_parallel;
use zmap::core::transport::{FrameBatch, RxBatch};
use zmap::core::Transport;
use zmap::netsim::loss::LossModel;
use zmap::prelude::*;

const PREFIXES: &str = "2001:db8:a::/48 pattern=low bits=6 density=1.0\n\
                        2001:db8:b::/48 pattern=eui64 bits=4 density=1.0\n";

/// Total hosts the prefix list above announces: 2^6 + 2^4.
const HOSTS: u64 = 64 + 16;

fn v6_world(seed: u64, prefixes: &str, ports: &[u16]) -> WorldConfig {
    WorldConfig {
        seed,
        loss: LossModel::NONE,
        v6: Some(
            V6Population::from_prefix_list(prefixes, ports.to_vec())
                .expect("test prefix list parses"),
        ),
        ..WorldConfig::default()
    }
}

fn v6_cfg(prefixes: &str, ports: &[u16]) -> ScanConfig {
    let mut cfg = ScanConfig::new(Ipv4Addr::new(192, 0, 2, 9));
    cfg.ipv6 = Some(Ipv6Config {
        source_ip: "2001:db8:ffff::1".parse().unwrap(),
        prefix_list: prefixes.into(),
    });
    cfg.ports = ports.to_vec();
    cfg.seed = 11;
    cfg.rate_pps = 100_000;
    cfg.cooldown_secs = 2;
    cfg
}

fn found_in(results: &[ScanResult]) -> BTreeSet<(IpAddr, u16)> {
    results.iter().map(|r| (r.saddr, r.sport)).collect()
}

fn discovered(summary: &ScanSummary) -> BTreeSet<(IpAddr, u16)> {
    found_in(&summary.results)
}

fn in_scanned_prefixes(ip: IpAddr) -> bool {
    let IpAddr::V6(v6) = ip else { return false };
    let o = v6.octets();
    o[..5] == [0x20, 0x01, 0x0d, 0xb8, 0x00] && (o[5] == 0x0a || o[5] == 0x0b)
}

#[test]
fn tcp_v6_scan_finds_every_host() {
    let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
    let cfg = v6_cfg(PREFIXES, &[443]);
    let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
        .unwrap()
        .run();
    let c = &s.metadata.counters;
    assert_eq!(c.sent, HOSTS);
    assert_eq!(c.unique_successes, HOSTS);
    assert_eq!(c.responses_discarded, 0);
    assert!((s.hitrate() - 1.0).abs() < 1e-9);
    let found = discovered(&s);
    assert_eq!(found.len() as u64, HOSTS);
    assert!(found.iter().all(|&(ip, port)| in_scanned_prefixes(ip) && port == 443));
}

#[test]
fn icmpv6_scan_finds_every_host() {
    let net = SimNet::new(v6_world(5, PREFIXES, &[]));
    let mut cfg = v6_cfg(PREFIXES, &[0]);
    cfg.probe = ProbeKind::IcmpEcho;
    let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
        .unwrap()
        .run();
    let c = &s.metadata.counters;
    assert_eq!(c.sent, HOSTS);
    assert_eq!(c.unique_successes, HOSTS, "echo replies ignore port state");
    assert!(discovered(&s).iter().all(|&(ip, _)| in_scanned_prefixes(ip)));
}

#[test]
fn udp_v6_scan_finds_every_open_host() {
    let net = SimNet::new(v6_world(5, PREFIXES, &[5353]));
    let mut cfg = v6_cfg(PREFIXES, &[5353]);
    cfg.probe = ProbeKind::Udp(b"v6-udp-probe".to_vec());
    let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
        .unwrap()
        .run();
    let c = &s.metadata.counters;
    assert_eq!(c.sent, HOSTS);
    assert_eq!(c.unique_successes, HOSTS);
}

/// Sparse prefixes (density < 1) produce partial hit rates without any
/// change in coverage of the walk: every announced host is still probed
/// exactly once.
#[test]
fn sparse_density_hits_a_subset() {
    let sparse = "2001:db8:a::/48 pattern=low bits=8 density=0.3\n";
    let net = SimNet::new(v6_world(5, sparse, &[443]));
    let cfg = v6_cfg(sparse, &[443]);
    let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
        .unwrap()
        .run();
    let c = &s.metadata.counters;
    assert_eq!(c.sent, 256, "the walk covers the full 2^8 pattern space");
    let oracle = V6Population::from_prefix_list(sparse, vec![443])
        .unwrap()
        .responsive_count(5);
    assert_eq!(
        c.unique_successes, oracle,
        "hits must equal the population's responsive-host oracle"
    );
    assert!(c.unique_successes > 0 && c.unique_successes < 256);
}

#[test]
fn sequential_and_parallel_engines_agree() {
    let seq = {
        let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
        Scanner::new(v6_cfg(PREFIXES, &[443]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run()
    };
    let par = {
        let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
        let transport = net.transport(Ipv4Addr::new(192, 0, 2, 9));
        let mut cfg = v6_cfg(PREFIXES, &[443]);
        cfg.subshards = 2;
        run_parallel(&cfg, &transport).unwrap()
    };
    assert_eq!(
        seq.metadata.counters.unique_successes,
        par.metadata.counters.unique_successes
    );
    assert_eq!(discovered(&seq), found_in(&par.results));
}

/// Shards partition the v6 walk: disjoint per-shard discoveries whose
/// union is the whole population, exactly as for v4.
#[test]
fn shards_partition_the_v6_space() {
    let mut union = BTreeSet::new();
    let mut total_sent = 0u64;
    for shard in 0..3u32 {
        let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
        let mut cfg = v6_cfg(PREFIXES, &[443]);
        cfg.shard = shard;
        cfg.num_shards = 3;
        let s = Scanner::new(cfg, net.transport(Ipv4Addr::new(192, 0, 2, 9)))
            .unwrap()
            .run();
        total_sent += s.metadata.counters.sent;
        for t in discovered(&s) {
            assert!(union.insert(t), "shard overlap at {t:?}");
        }
    }
    assert_eq!(total_sent, HOSTS);
    assert_eq!(union.len() as u64, HOSTS);
}

/// Byte-level determinism across all four output streams: two identical
/// v6 scans must render identical data, logs, status, and metadata — the
/// same contract the CI double-run job enforces on the shipped binary.
#[test]
fn v6_double_run_is_byte_identical() {
    let run = || {
        let net = SimNet::new(v6_world(7, PREFIXES, &[443]));
        let logger = Logger::memory(Level::Debug);
        let summary = Scanner::with_logger(
            v6_cfg(PREFIXES, &[443]),
            net.transport(Ipv4Addr::new(192, 0, 2, 9)),
            logger.clone(),
        )
        .unwrap()
        .run();
        let mut out = OutputModule::new(OutputFormat::Csv, Vec::new());
        for r in &summary.results {
            out.record(r).unwrap();
        }
        let data = String::from_utf8(out.finish().unwrap()).unwrap();
        let logs = logger
            .lines()
            .iter()
            .map(|(lvl, m)| format!("{lvl:?} {m}\n"))
            .collect::<String>();
        let status = summary
            .status
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect::<String>();
        (data, logs, status, summary.metadata.to_json())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "data stream must replay byte-identically");
    assert_eq!(a.1, b.1, "log stream must replay byte-identically");
    assert_eq!(a.2, b.2, "status stream must replay byte-identically");
    assert_eq!(a.3, b.3, "metadata must replay byte-identically");
}

/// Kill-then-resume over the 128-bit index space: the journal carries the
/// v6 space fingerprint in the group-prime slot and the walk position in
/// the cycle parts, so the union of a killed attempt and its resume must
/// equal an uninterrupted run.
///
/// The 80 probes leave in 0.8 ms, so a 10 ms journal interval leaves
/// only the initial journal behind. At a 500 µs interval the first flush
/// (64 probes) is journaled; ordinal 100 kills the scan after that,
/// while 49 of their replies are still in flight. Only the resume's
/// rewind re-probes those targets: without it the union misses them.
#[test]
fn v6_kill_then_resume_equals_uninterrupted() {
    let dir = std::env::temp_dir().join("zmap-v6-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [(20u64, 10_000_000), (70, 10_000_000), (130, 10_000_000), (100, 500_000)];
    for (kill_at, interval_ns) in cases {
        let path: PathBuf = dir.join(format!("v6-{kill_at}.ckpt"));
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy::new(&path).with_interval_ns(interval_ns);

        let baseline = {
            let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
            Scanner::new(v6_cfg(PREFIXES, &[443]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
                .unwrap()
                .run()
        };
        assert!(!baseline.killed);
        let want = discovered(&baseline);

        let first = {
            let mut wc = v6_world(5, PREFIXES, &[443]);
            wc.faults = FaultPlan::builder().kill_at(kill_at).build();
            let net = SimNet::new(wc);
            Scanner::new(v6_cfg(PREFIXES, &[443]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
                .unwrap()
                .run_with(RunOptions {
                    checkpoint: Some(policy.clone()),
                    ..RunOptions::default()
                })
        };
        assert!(first.killed, "kill_at {kill_at} must fire");
        let journal = CheckpointState::load(&path).unwrap();
        assert!(!journal.complete);

        let second = {
            let net = SimNet::new(v6_world(5, PREFIXES, &[443]));
            Scanner::resume(
                v6_cfg(PREFIXES, &[443]),
                net.transport(Ipv4Addr::new(192, 0, 2, 9)),
                &journal,
            )
            .unwrap()
            .run_with(RunOptions {
                checkpoint: Some(policy),
                ..RunOptions::default()
            })
        };
        assert!(!second.killed);
        assert_eq!(second.metadata.counters.resume_count, 1);

        let mut got = discovered(&first);
        got.extend(discovered(&second));
        assert_eq!(
            got, want,
            "union of killed+resumed v6 discoveries must equal uninterrupted (kill_at {kill_at})"
        );
    }
}

/// A journal written by a different prefix list must be refused: the v6
/// space fingerprint rides the journal's group-prime slot, so a foreign
/// journal fails the same gate a v4 group mismatch does.
#[test]
fn v6_resume_refuses_a_foreign_prefix_list() {
    let dir = std::env::temp_dir().join("zmap-v6-foreign-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("foreign.ckpt");
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy::new(&path).with_interval_ns(10_000_000);

    let mut wc = v6_world(5, PREFIXES, &[443]);
    wc.faults = FaultPlan::builder().kill_at(40).build();
    let net = SimNet::new(wc);
    let first = Scanner::new(v6_cfg(PREFIXES, &[443]), net.transport(Ipv4Addr::new(192, 0, 2, 9)))
        .unwrap()
        .run_with(RunOptions {
            checkpoint: Some(policy),
            ..RunOptions::default()
        });
    assert!(first.killed);
    let journal = CheckpointState::load(&path).unwrap();

    let other = "2001:db8:c::/48 pattern=low bits=6 density=1.0\n";
    let net = SimNet::new(v6_world(5, other, &[443]));
    assert!(
        Scanner::resume(v6_cfg(other, &[443]), net.transport(Ipv4Addr::new(192, 0, 2, 9)), &journal)
            .is_err(),
        "a different prefix list must not resume this journal"
    );
}

/// Crafts the SYN-ACK a live v6 host would send in reply to `probe`.
fn synthesize_synack_v6(probe: &[u8]) -> Vec<u8> {
    use zmap::wire::checksum;
    use zmap::wire::ethernet::{EtherType, EthernetRepr, EthernetView, MacAddr};
    use zmap::wire::ipv4::IpProtocol;
    use zmap::wire::ipv6::{Ipv6Repr, Ipv6View};
    use zmap::wire::tcp::{TcpFlags, TcpRepr, TcpView};

    let eth = EthernetView::parse(probe).unwrap();
    let ip = Ipv6View::parse(eth.payload()).unwrap();
    let tcp = TcpView::parse(ip.payload()).unwrap();
    let reply_tcp = TcpRepr {
        src_port: tcp.dst_port(),
        dst_port: tcp.src_port(),
        seq: 0x11223344,
        ack: tcp.seq().wrapping_add(1),
        flags: TcpFlags::SYN_ACK,
        window: 14600,
        options: OptionLayout::Linux.bytes(),
    };
    let tcp_len = reply_tcp.header_len() as u16;
    let mut buf = Vec::new();
    EthernetRepr {
        dst: eth.src(),
        src: MacAddr::local(77),
        ethertype: EtherType::Ipv6,
    }
    .emit(&mut buf);
    Ipv6Repr {
        src: ip.dst(),
        dst: ip.src(),
        next_header: IpProtocol::Tcp,
        hop_limit: 55,
        payload_len: tcp_len,
    }
    .emit(&mut buf);
    let pseudo = checksum::pseudo_header_v6(
        &ip.dst().octets(),
        &ip.src().octets(),
        6,
        u32::from(tcp_len),
    );
    reply_tcp.emit(pseudo, &[], &mut buf);
    buf
}

/// A scripted wire: the frames a scan sent, and the frames queued for
/// it with their receive times.
#[derive(Default)]
struct Wire {
    now: u64,
    sent: Vec<Vec<u8>>,
    inbox: Vec<(u64, Vec<u8>)>,
}

/// A transport handle the test keeps after the scanner takes ownership
/// of its twin — both share one scripted wire.
#[derive(Clone, Default)]
struct Scripted(Arc<Mutex<Wire>>);

impl Transport for Scripted {
    fn now(&self) -> u64 {
        self.0.lock().unwrap().now
    }
    fn advance_to(&mut self, t: u64) {
        let mut w = self.0.lock().unwrap();
        w.now = w.now.max(t);
    }
    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let mut w = self.0.lock().unwrap();
        for i in from_idx..batch.len() {
            let (at, frame) = batch.frame(i);
            w.now = w.now.max(at);
            w.sent.push(frame.to_vec());
        }
        (batch.len() - from_idx, None)
    }
    fn recv_into(&mut self, rx: &mut RxBatch) {
        let mut w = self.0.lock().unwrap();
        let now = w.now;
        w.inbox.retain(|(t, frame)| {
            let due = *t <= now;
            if due {
                rx.push(*t, frame);
            }
            !due
        });
    }
}

/// The dedup-degradation contract: a cookie-valid response from an
/// address outside the prefix list cannot be keyed into the per-prefix
/// index space. It must be counted as discarded and dropped — one lost
/// record, not a dead scan — while in-space responses keep landing.
#[test]
fn response_outside_the_target_space_degrades_not_aborts() {
    let prefixes = "2001:db8:a::/48 pattern=low bits=2 density=1.0\n";
    let cfg = v6_cfg(prefixes, &[443]);

    // Pass 1: dry run against an empty wire to harvest the probe frames
    // this (seed, prefix list) deterministically emits.
    let wire = Scripted::default();
    let probes = {
        let s = Scanner::new(cfg.clone(), wire.clone()).unwrap().run();
        assert_eq!(s.metadata.counters.sent, 4);
        wire.0.lock().unwrap().sent.clone()
    };

    // A cookie-valid SYN-ACK from an address the prefix list never
    // announced: forge the probe the scanner *would* have sent there
    // (same seed, same source) and answer it.
    let foreign: Ipv6Addr = "2001:db8:ffff::99".parse().unwrap();
    let b = zmap::wire::ProbeBuilderV6::new("2001:db8:ffff::1".parse().unwrap(), cfg.seed);
    let foreign_reply = synthesize_synack_v6(&b.tcp_syn(foreign, 443, 0));

    // Pass 2: same scan, inbox preloaded with valid replies for every
    // in-space probe plus the out-of-space one.
    let wire = Scripted::default();
    {
        let mut w = wire.0.lock().unwrap();
        for p in &probes {
            w.inbox.push((1, synthesize_synack_v6(p)));
        }
        w.inbox.push((1, foreign_reply));
    }
    let s = Scanner::new(cfg, wire).unwrap().run();
    let c = &s.metadata.counters;
    assert_eq!(c.sent, 4);
    assert_eq!(c.unique_successes, 4, "in-space responses still land");
    assert_eq!(c.responses_discarded, 1, "the foreign response is dropped");
    assert!(!s.killed);
    assert!(discovered(&s).iter().all(|&(ip, _)| ip != IpAddr::V6(foreign)));
}
