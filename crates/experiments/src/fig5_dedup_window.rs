//! Figure 5 — Sliding-window duplicate pass rate vs. window size.
//!
//! Paper: ZMap moved from a 2^32-bit bitmap (512 MB; 35 TB for the
//! 48-bit multiport space) to a sliding window over the last n
//! responses. A window of 10^6 (the default) eliminates nearly all
//! duplicates; lower scan rates can make do with smaller windows.
//!
//! Reproduction: scan a /16 with a blowback-heavy population at several
//! rates, sweeping the window size; report the fraction of output
//! records that are duplicates (would have been suppressed by an exact
//! filter).

use crate::{pct, run_prefix_scan, table, Output};
use std::collections::HashSet;
use std::fmt::Write;
use std::net::Ipv4Addr;
use zmap_core::DedupMethod;
use zmap_netsim::{ServiceModel, WorldConfig};

fn world() -> WorldConfig {
    // Dense-ish so the /16 yields ~5k responders.
    let mut model = ServiceModel {
        live_fraction: 0.30,
        ..ServiceModel::default()
    };
    // Blowback-heavy population: 5% of responders re-send, tails to 2000
    // duplicates — the adversarial case for small windows.
    model.blowback_fraction = 0.05;
    model.blowback_max = 2000;
    WorldConfig {
        seed: 11,
        model,
        loss: zmap_netsim::loss::LossModel::NONE,
        ..WorldConfig::default()
    }
}

pub fn run(_: &[String]) -> Output {
    let mut out = String::from("Figure 5: duplicate pass rate vs. sliding window size\n\n");
    writeln!(
        out,
        "memory arithmetic (paper §4.1): 2^32-bit bitmap = {} MB; \
         48-bit space would need {:.1} TB\n",
        zmap_dedup::exact_bitmap_bytes(1 << 32) / (1 << 20),
        zmap_dedup::exact_bitmap_bytes(1 << 48) as f64 / 1e12,
    )?;

    let windows = [100usize, 1_000, 10_000, 100_000, 1_000_000];
    let rates = [10_000u64, 100_000, 1_000_000];
    let mut rows = Vec::new();
    for &rate in &rates {
        for &w in &windows {
            let summary = run_prefix_scan(
                world(),
                Ipv4Addr::new(60, 20, 0, 0),
                16,
                &[80],
                rate,
                5,
                |cfg| {
                    cfg.dedup = DedupMethod::Window(w);
                    // Long cooldown so the duplicate tail arrives.
                    cfg.cooldown_secs = 300;
                },
            );
            // A record is a duplicate if its (ip, port) already appeared.
            let mut seen = HashSet::new();
            let mut dups = 0u64;
            for r in &summary.results {
                if !seen.insert((r.saddr, r.sport)) {
                    dups += 1;
                }
            }
            let total = summary.results.len() as u64;
            // RTT quantiles straight from the scan's metrics registry:
            // the blowback tail shows up as a fat p99 long before the
            // duplicate counters do.
            let rtt = summary.metadata.histograms.get("probe_rtt_ns");
            let ms = |ns: u64| format!("{:.0}", ns as f64 / 1e6);
            rows.push(vec![
                format!("{rate}"),
                format!("{w}"),
                total.to_string(),
                dups.to_string(),
                pct(dups as f64 / total.max(1) as f64),
                summary.metadata.counters.duplicates_suppressed.to_string(),
                rtt.map_or_else(|| "-".into(), |h| ms(h.p50)),
                rtt.map_or_else(|| "-".into(), |h| ms(h.p99)),
            ]);
        }
    }
    out += &table(
        &["rate (pps)", "window", "records", "dup records", "dup rate", "suppressed", "rtt p50 (ms)", "rtt p99 (ms)"],
        &rows,
    );
    writeln!(out, "\nexpected shape: dup rate falls with window size; higher scan")?;
    writeln!(out, "rates need larger windows; 10^6 (ZMap default) ≈ zero dups.")?;
    Ok(out)
}
