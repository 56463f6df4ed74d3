//! §3 experiment — L4 vs L7 discrepancies (two-phase scanning).
//!
//! Paper: "TCP liveness does not reliably indicate service presence
//! because of pervasive middlebox deployment" (Izhikevich et al., LZR);
//! highly-L4-responsive "packed" prefixes (Sattler et al.) inflate L4
//! results, especially on unassigned ports. ZMap's role is therefore
//! discovering *potential* services; L7 follow-up (ZGrab/LZR) confirms.
//!
//! Reproduction: L4-scan a /14 on an assigned port (80) and an
//! unassigned port (47808), then interrogate every L4-positive target
//! at L7 and report what fraction was a real, speaking service.

use crate::{pct, prefix_config, table, vantage, Output};
use std::fmt::Write;
use std::net::Ipv4Addr;
use zmap_core::l7::{interrogate_all, L7Config};
use zmap_core::transport::SimNet;
use zmap_core::Scanner;
use zmap_netsim::loss::LossModel;
use zmap_netsim::{ServiceModel, WorldConfig};
use zmap_wire::ipv4::IpIdMode;
use zmap_wire::options::OptionLayout;
use zmap_wire::ProbeBuilder;

fn world() -> WorldConfig {
    // Packed prefixes: 1% of /24s front a SYN-ACK-everything middlebox.
    let model = ServiceModel {
        live_fraction: 0.08,
        middlebox_fraction: 0.01,
        ..ServiceModel::default()
    };
    WorldConfig {
        seed: 61,
        model,
        loss: LossModel::NONE,
        ..WorldConfig::default()
    }
}

pub fn run(_: &[String]) -> Output {
    let mut out = String::from("§3: two-phase scanning — L4 discovery vs L7 confirmation\n\n");
    let mut rows = Vec::new();
    for port in [80u16, 22, 47808] {
        let net = SimNet::new(world());
        let src = vantage();
        let mut cfg = prefix_config(src, Ipv4Addr::new(92, 32, 0, 0), 14, &[port], 2_000_000, 8);
        cfg.cooldown_secs = 2;
        let summary = Scanner::new(cfg, net.transport(src))
            .expect("valid config")
            .run();
        let l4_targets: Vec<(Ipv4Addr, u16)> = summary
            .results
            .iter()
            .filter_map(|r| match r.saddr {
                std::net::IpAddr::V4(v4) => Some((v4, r.sport)),
                std::net::IpAddr::V6(_) => None,
            })
            .collect();

        // Phase 2: interrogate every L4-positive target.
        let mut builder = ProbeBuilder::new(src, 8);
        builder.layout = OptionLayout::MssOnly;
        builder.ip_id = IpIdMode::Random;
        let mut transport = net.transport(src);
        let results = interrogate_all(
            &mut transport,
            &builder,
            &l4_targets,
            &L7Config::default(),
        );
        let l7 = results.iter().filter(|r| r.l7_confirmed()).count();
        rows.push(vec![
            format!("tcp/{port}"),
            l4_targets.len().to_string(),
            l7.to_string(),
            pct(l7 as f64 / l4_targets.len().max(1) as f64),
        ]);
    }
    out += &table(
        &["port", "L4 positive", "L7 confirmed", "real-service rate"],
        &rows,
    );
    writeln!(out, "\nexpected shape: assigned ports are mostly real services;")?;
    writeln!(out, "the unassigned port's L4 positives are dominated by packed-")?;
    writeln!(out, "prefix middleboxes that never speak — the LZR finding that")?;
    writeln!(out, "limits ZMap (alone) to discovering *potential* services.")?;
    Ok(out)
}
