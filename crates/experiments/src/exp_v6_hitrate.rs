//! IPv6 hit-rate curve (exp_v6_hitrate) — the XMap-shaped experiment
//! behind the EXPERIMENTS.md §IPv6 table.
//!
//! XMap's evaluation scans announced prefixes whose host patterns and
//! densities differ wildly: dense low-byte statics answer almost every
//! probe, SLAAC/EUI-64 blocks answer a fraction, and embedded-IPv4
//! infrastructure is nearly empty. The curve that falls out — per-prefix
//! hit rate tracking announced density while *coverage* of the walked
//! pattern space stays total — is reproduced here over the committed
//! `scenarios/ipv6-xmap.txt` population. The population's
//! `responsive_count` is the oracle denominator: measured hits must
//! equal it exactly for every prefix, with zero duplicates and zero
//! discards.

use crate::{pct, table, vantage, Output};
use std::fmt::Write;
use std::net::IpAddr;
use zmap_core::transport::SimNet;
use zmap_core::{Ipv6Config, ScanConfig, Scanner};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{V6Population, WorldConfig};

const WORLD_SEED: u64 = 31;
const PORT: u16 = 443;

/// The committed XMap-shaped prefix list.
const PREFIXES: &str = include_str!("../../../scenarios/ipv6-xmap.txt");

pub fn run(_: &[String]) -> Output {
    let pop = V6Population::from_prefix_list(PREFIXES, vec![PORT])?;
    let net = SimNet::new(WorldConfig {
        seed: WORLD_SEED,
        loss: LossModel::NONE,
        v6: Some(pop.clone()),
        ..WorldConfig::default()
    });

    let src = vantage();
    let mut cfg = ScanConfig::new(src);
    cfg.ipv6 = Some(Ipv6Config {
        source_ip: "2001:db8:ffff::1".parse()?,
        prefix_list: PREFIXES.to_string(),
    });
    cfg.ports = vec![PORT];
    cfg.seed = 7;
    cfg.rate_pps = 1_000_000;
    cfg.cooldown_secs = 2;
    let summary = Scanner::new(cfg, net.transport(src)).expect("valid config").run();
    let c = &summary.metadata.counters;

    // Attribute each discovery to its /48 (byte 5 of the address
    // distinguishes the scenario's prefixes: 0x01..0x04 after 2001:db8:).
    let spec_of = |ip: IpAddr| -> usize {
        let IpAddr::V6(v6) = ip else { panic!("v6 scan produced {ip}") };
        usize::from(v6.octets()[4]) - 1
    };
    let specs = pop.specs();
    let mut hits = vec![0u64; specs.len()];
    for r in &summary.results {
        hits[spec_of(r.saddr)] += 1;
    }

    let mut rows = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let announced = 1u64 << spec.bits();
        let oracle = V6Population::new(vec![spec.clone()], vec![PORT])
            .responsive_count(WORLD_SEED);
        rows.push(vec![
            format!("{}/{} {}", spec.prefix(), spec.prefix_len(), spec.pattern().name()),
            announced.to_string(),
            oracle.to_string(),
            hits[i].to_string(),
            pct(hits[i] as f64 / announced as f64),
        ]);
    }
    let mut out = table(
        &["prefix", "walked", "oracle", "hits", "hit rate"],
        &rows,
    );

    let oracle_total = pop.responsive_count(WORLD_SEED);
    writeln!(
        out,
        "\ntotal: {} probes, {} hits, oracle {}, {} dups, {} discarded",
        c.sent,
        c.unique_successes,
        oracle_total,
        c.duplicates_suppressed,
        c.responses_discarded
    )?;
    assert_eq!(c.unique_successes, oracle_total, "hits must equal the oracle");
    assert_eq!(c.duplicates_suppressed, 0);
    assert_eq!(c.responses_discarded, 0);
    Ok(out)
}
