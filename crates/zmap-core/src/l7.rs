//! Two-phase scanning: L4 discovery followed by L7 interrogation.
//!
//! §3 of the paper ("L4 vs L7 Discrepancies"): TCP liveness does not
//! reliably indicate service presence — middleboxes SYN-ACK entire
//! prefixes with nothing behind them (Izhikevich et al.'s LZR; Sattler
//! et al.'s packed prefixes). ZMap therefore discovers *potential*
//! services, and downstream tools (LZR, ZGrab) confirm them. This module
//! is that downstream step: for each L4-positive target it completes a
//! fresh handshake, sends an application request, and reports whether a
//! banner came back.

use crate::transport::{FrameBatch, Transport};
use std::net::Ipv4Addr;
use zmap_wire::{ProbeBuilder, ResponseKind};

/// Outcome of interrogating one L4-positive target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L7Result {
    pub ip: Ipv4Addr,
    pub port: u16,
    /// The SYN-ACK was reproducible on a fresh connection.
    pub l4_confirmed: bool,
    /// Application data received (None = shunned/middlebox/silent).
    pub banner: Option<Vec<u8>>,
}

impl L7Result {
    /// §3's definition of a *real* service: it spoke.
    pub fn l7_confirmed(&self) -> bool {
        self.banner.is_some()
    }
}

/// Configuration for the interrogation phase.
#[derive(Debug, Clone)]
pub struct L7Config {
    /// Application request sent after the handshake (default: generic
    /// HTTP GET — real deployments pick per-port payloads).
    pub request: Vec<u8>,
    /// How long to wait for each response, in virtual seconds.
    pub timeout_secs: u64,
}

impl Default for L7Config {
    fn default() -> Self {
        L7Config {
            request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
            timeout_secs: 5,
        }
    }
}

/// Interrogates one target over `transport`: SYN → SYN-ACK → ACK+data →
/// banner. Blocks (in virtual time) until completion or timeout.
pub fn interrogate<T: Transport>(
    transport: &mut T,
    builder: &ProbeBuilder,
    ip: Ipv4Addr,
    port: u16,
    cfg: &L7Config,
) -> L7Result {
    let mut result = L7Result {
        ip,
        port,
        l4_confirmed: false,
        banner: None,
    };
    // Phase A: fresh handshake. A refused send (transient NIC failure)
    // aborts this target; the two-phase driver treats it as unresponsive.
    let mut one = FrameBatch::new(1);
    if !send_now(transport, &mut one, &builder.tcp_syn(ip, port, 0)) {
        return result;
    }
    let deadline = transport.now() + cfg.timeout_secs * 1_000_000_000;
    let server_seq = loop {
        match wait_step(transport, deadline) {
            None => return result,
            Some(frames) => {
                let mut found = None;
                for (_ts, frame) in &frames {
                    if let Ok(Some(resp)) = builder.parse_response(frame) {
                        if resp.ip == ip
                            && resp.port == port
                            && resp.kind == ResponseKind::SynAck
                        {
                            found = Some(resp.seq);
                        }
                    }
                }
                if let Some(seq) = found {
                    break seq;
                }
            }
        }
    };
    result.l4_confirmed = true;

    // Phase B: deliver the application request on the same "connection".
    // An unbuildable frame (request too large for one packet) or a
    // refused send both leave the target L4-confirmed but bannerless.
    let Ok(data_frame) = builder.tcp_ack_data(ip, port, server_seq, &cfg.request, 0) else {
        return result;
    };
    if !send_now(transport, &mut one, &data_frame) {
        return result;
    }
    let deadline = transport.now() + cfg.timeout_secs * 1_000_000_000;
    loop {
        match wait_step(transport, deadline) {
            None => return result,
            Some(frames) => {
                for (_ts, frame) in &frames {
                    if let Ok(Some((rip, rport, banner))) =
                        builder.parse_banner(frame, cfg.request.len())
                    {
                        if rip == ip && rport == port {
                            result.banner = Some(banner);
                            return result;
                        }
                    }
                }
            }
        }
    }
}

/// Sends `frame` at the transport's current time through the one-slot
/// `batch`; false when the NIC refused it.
fn send_now<T: Transport>(transport: &mut T, batch: &mut FrameBatch, frame: &[u8]) -> bool {
    let now = transport.now();
    transport.send_batch(batch.refill(now, frame), 0).1.is_none()
}

/// Advances to the next inbound frame (or the deadline) and returns the
/// frames now ready; `None` once the deadline has passed with nothing
/// pending.
fn wait_step<T: Transport>(transport: &mut T, deadline: u64) -> Option<Vec<(u64, Vec<u8>)>> {
    let ready = transport.recv_frames();
    if !ready.is_empty() {
        return Some(ready);
    }
    match transport.next_rx_at() {
        Some(t) if t <= deadline => {
            transport.advance_to(t);
            Some(transport.recv_frames())
        }
        _ => {
            transport.advance_to(deadline);
            let last = transport.recv_frames();
            if last.is_empty() {
                None
            } else {
                Some(last)
            }
        }
    }
}

/// Interrogates a batch of targets sequentially (real deployments
/// parallelize; virtual time makes sequential exact and fast).
pub fn interrogate_all<T: Transport>(
    transport: &mut T,
    builder: &ProbeBuilder,
    targets: &[(Ipv4Addr, u16)],
    cfg: &L7Config,
) -> Vec<L7Result> {
    targets
        .iter()
        .map(|&(ip, port)| interrogate(transport, builder, ip, port, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimNet;
    use zmap_netsim::loss::LossModel;
    use zmap_netsim::{ServiceModel, WorldConfig};

    fn setup(model: ServiceModel) -> (SimNet, ProbeBuilder) {
        let net = SimNet::new(WorldConfig {
            seed: 3,
            model,
            loss: LossModel::NONE,
            ..WorldConfig::default()
        });
        let b = ProbeBuilder::new(Ipv4Addr::new(192, 0, 2, 8), 5);
        (net, b)
    }

    #[test]
    fn real_service_yields_banner() {
        let (net, b) = setup(ServiceModel::dense(&[80]));
        let mut t = net.transport(Ipv4Addr::new(192, 0, 2, 8));
        let r = interrogate(&mut t, &b, Ipv4Addr::new(9, 9, 9, 9), 80, &L7Config::default());
        assert!(r.l4_confirmed);
        assert!(r.l7_confirmed());
        let banner = r.banner.expect("dense world serves HTTP");
        assert!(banner.starts_with(b"HTTP/1.1 200 OK"), "{banner:?}");
    }

    #[test]
    fn closed_port_fails_l4() {
        let (net, b) = setup(ServiceModel::dense(&[80]));
        let mut t = net.transport(Ipv4Addr::new(192, 0, 2, 8));
        let r = interrogate(&mut t, &b, Ipv4Addr::new(9, 9, 9, 9), 81, &L7Config::default());
        assert!(!r.l4_confirmed);
        assert!(!r.l7_confirmed());
    }

    #[test]
    fn middlebox_confirms_l4_but_not_l7() {
        let mut model = ServiceModel::dense(&[80]);
        model.middlebox_fraction = 1.0; // every prefix is packed
        let (net, b) = setup(model);
        let mut t = net.transport(Ipv4Addr::new(192, 0, 2, 8));
        // Port 9999 is closed everywhere, but the middlebox answers.
        let r = interrogate(&mut t, &b, Ipv4Addr::new(9, 9, 9, 9), 9999, &L7Config::default());
        assert!(r.l4_confirmed, "middlebox SYN-ACKs everything");
        assert!(!r.l7_confirmed(), "…but no service ever speaks");
    }

    #[test]
    fn batch_interrogation_over_mixed_population() {
        let mut model = ServiceModel::dense(&[22]);
        model.middlebox_fraction = 0.0;
        let (net, b) = setup(model);
        let mut t = net.transport(Ipv4Addr::new(192, 0, 2, 8));
        let targets: Vec<(Ipv4Addr, u16)> = (0..10u32)
            .map(|i| (Ipv4Addr::from(0x0A00_0100 + i), 22))
            .collect();
        let results = interrogate_all(&mut t, &b, &targets, &L7Config::default());
        assert_eq!(results.len(), 10);
        for r in &results {
            assert!(r.l4_confirmed);
            assert!(r.banner.as_deref().unwrap().starts_with(b"SSH-2.0"));
        }
    }

    /// The two-phase shape of `exp_l4_l7`: the L7 phase attaches a second
    /// endpoint at the finished scanner's address and must get the replies.
    #[test]
    fn interrogation_after_a_scan_on_the_same_net() {
        let (net, b) = setup(ServiceModel::dense(&[80]));
        let src = Ipv4Addr::new(192, 0, 2, 8);
        let mut cfg = crate::config::ScanConfig::new(src);
        cfg.allowlist_prefix(Ipv4Addr::new(9, 9, 9, 0), 30);
        cfg.apply_default_blocklist = false;
        cfg.cooldown_secs = 1;
        let summary = crate::scanner::Scanner::new(cfg, net.transport(src))
            .expect("valid config")
            .run();
        assert_eq!(summary.results.len(), 4, "dense /30 answers fully");
        let mut t = net.transport(src);
        let r = interrogate(&mut t, &b, Ipv4Addr::new(9, 9, 9, 9), 80, &L7Config::default());
        assert!(r.l4_confirmed, "the SYN-ACK reached the interrogating endpoint");
        assert!(r.l7_confirmed());
    }

    #[test]
    fn timeout_terminates_in_dead_space() {
        let mut model = ServiceModel::dense(&[80]);
        model.live_fraction = 0.0;
        model.unreach_for_dead = 0.0;
        let (net, b) = setup(model);
        let mut t = net.transport(Ipv4Addr::new(192, 0, 2, 8));
        let before = t.now();
        let r = interrogate(&mut t, &b, Ipv4Addr::new(9, 9, 9, 9), 80, &L7Config::default());
        assert!(!r.l4_confirmed);
        assert!(t.now() >= before + 5_000_000_000, "waited out the timeout");
    }
}
