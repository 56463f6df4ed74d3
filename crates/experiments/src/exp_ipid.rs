//! §4.3 experiment — static vs. random IP ID.
//!
//! Paper: "We performed three scans of 10% of IPv4 on TCP/80 in April
//! 2024 with a static IP ID and with a random per-packet IP ID and find
//! that the difference in hit-rate between the random and static IP IDs
//! is not statistically significant." (ZMap switched its default to
//! random in early 2024 purely to drop the gratuitous fingerprint.)

use crate::{pct, run_prefix_scan, table, two_proportion_z, Output};
use std::fmt::Write;
use std::net::Ipv4Addr;
use zmap_netsim::{ServiceModel, WorldConfig};
use zmap_wire::ipv4::IpIdMode;

fn world(seed: u64) -> WorldConfig {
    let model = ServiceModel {
        live_fraction: 0.10,
        ..ServiceModel::default()
    };
    WorldConfig {
        seed,
        model,
        ..WorldConfig::default()
    }
}

fn trial(ip_id: IpIdMode, trial_idx: u64, scan_seed: u64) -> (u64, u64) {
    // Each trial scans a distinct /14 slice ("10% of IPv4", scaled).
    // The two arms use different scan seeds (different permutations and
    // validation keys), as two real back-to-back scans would.
    let prefix = Ipv4Addr::from(0x2840_0000u32 + ((trial_idx as u32) << 18));
    let s = run_prefix_scan(
        world(1000 + trial_idx),
        prefix,
        14,
        &[80],
        2_000_000,
        scan_seed,
        |cfg| {
            cfg.ip_id = ip_id;
            cfg.cooldown_secs = 3;
        },
    );
    let c = &s.metadata.counters;
    (c.unique_successes, c.targets_total)
}

pub fn run(_: &[String]) -> Output {
    let mut out = String::from("§4.3: hit rate with static (54321) vs random per-probe IP ID\n\n");
    let mut rows = Vec::new();
    let mut static_hits = 0;
    let mut static_n = 0;
    let mut random_hits = 0;
    let mut random_n = 0;
    for t in 0..3u64 {
        let (hs, ns) = trial(IpIdMode::Static, t, 2 * t);
        let (hr, nr) = trial(IpIdMode::Random, t, 2 * t + 1);
        static_hits += hs;
        static_n += ns;
        random_hits += hr;
        random_n += nr;
        rows.push(vec![
            format!("trial {}", t + 1),
            format!("{hs} ({})", pct(hs as f64 / ns as f64)),
            format!("{hr} ({})", pct(hr as f64 / nr as f64)),
        ]);
    }
    out += &table(&["", "static 54321", "random"], &rows);
    let z = two_proportion_z(static_hits, static_n, random_hits, random_n);
    writeln!(
        out,
        "\npooled: static {} vs random {}; two-proportion z = {:.2}",
        pct(static_hits as f64 / static_n as f64),
        pct(random_hits as f64 / random_n as f64),
        z
    )?;
    writeln!(
        out,
        "conclusion: |z| {} 1.96 ⇒ difference {} statistically significant \
         (paper: not significant)",
        if z.abs() < 1.96 { "<" } else { ">=" },
        if z.abs() < 1.96 { "is NOT" } else { "IS" }
    )?;
    Ok(out)
}
