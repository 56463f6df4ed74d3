//! Figure 7 — Hit rates for varying TCP option layouts (+ line rates).
//!
//! Paper: SYNs without options find 1.5–2.0% fewer services on TCP/80
//! than probes with any of MSS/SACK/TS/WS; exact OS orderings maximize
//! coverage; the byte-optimal packing finds 0.0023% fewer than OS
//! layouts; MSS alone finds >99.99% of services while keeping the probe
//! under the minimum Ethernet frame (1.488 Mpps on 1 GbE vs 1.389 for
//! the Windows layout and 1.276 for Linux).
//!
//! Reproduction: scan a /12 per layout against the option-sensitive
//! population. The two tiny tails (multi-option and OS-ordering) are
//! amplified 50× in the world model so they are measurable at /12 scale;
//! the table reports measured deltas both raw and rescaled to paper
//! scale (÷50).

use crate::{run_prefix_scan, table, vantage, Output};
use std::fmt::Write;
use std::net::Ipv4Addr;
use zmap_netsim::{ServiceModel, WorldConfig};
use zmap_wire::options::OptionLayout;
use zmap_wire::ProbeBuilder;
use zmap_wire::timing::{line_rate_pps, LinkSpeed};

/// Tail amplification factor (documented in EXPERIMENTS.md).
const AMP: f64 = 50.0;

fn world() -> WorldConfig {
    let mut model = ServiceModel {
        live_fraction: 0.10,
        ..ServiceModel::default()
    };
    model.requires_multi_option *= AMP; // 1e-4 → 5e-3
    model.requires_os_ordering *= AMP; // 2.3e-5 → 1.15e-3
    WorldConfig {
        seed: 77,
        model,
        loss: zmap_netsim::loss::LossModel::NONE,
        ..WorldConfig::default()
    }
}

fn frame_len(layout: OptionLayout) -> usize {
    let mut b = ProbeBuilder::new(vantage(), 1);
    b.layout = layout;
    b.tcp_syn(Ipv4Addr::new(1, 2, 3, 4), 80, 0).len()
}

pub fn run(_: &[String]) -> Output {
    let mut out = String::from("Figure 7: TCP/80 hit rate by probe option layout (/12 scan)\n\n");
    let mut rows = Vec::new();
    let mut results: Vec<(OptionLayout, u64)> = Vec::new();
    for layout in OptionLayout::ALL {
        let summary = run_prefix_scan(
            world(),
            Ipv4Addr::new(32, 0, 0, 0),
            12,
            &[80],
            2_000_000,
            9,
            |cfg| {
                cfg.option_layout = layout;
                cfg.cooldown_secs = 2;
            },
        );
        results.push((layout, summary.metadata.counters.unique_successes));
    }
    let best = results.iter().map(|&(_, n)| n).max().unwrap() as f64;
    for &(layout, found) in &results {
        let deficit = (best - found as f64) / best;
        let flen = frame_len(layout);
        rows.push(vec![
            layout.label().to_string(),
            found.to_string(),
            format!("{:+.4}%", -100.0 * deficit),
            format!("{:+.5}%", -100.0 * deficit / AMP),
            format!("{flen}"),
            format!("{:.3}", line_rate_pps(flen, LinkSpeed::Gbe1) / 1e6),
        ]);
    }
    out += &table(&["layout", "services", "delta vs best", "delta (paper scale)", "frame B", "1GbE Mpps"], &rows);
    writeln!(out, "\nnotes: the multi-option and OS-ordering tails are amplified")?;
    writeln!(out, "{AMP}x in the world model so a /12 scan can resolve them; the")?;
    writeln!(out, "'paper scale' column (delta / {AMP}) applies to layouts whose")?;
    writeln!(out, "deficit comes only from those tails (every row except 'none',")?;
    writeln!(out, "whose 1.5-2.0% deficit is the unamplified requires-any-option")?;
    writeln!(out, "population).")?;
    writeln!(out, "\npaper anchors: none = -1.5..-2.0%; packed = -0.0023% (paper")?;
    writeln!(out, "scale); mss finds >99.99% of best; Mpps: 1.488 / 1.389 / 1.276")?;
    writeln!(out, "for minimal / Windows / Linux layouts.")?;
    Ok(out)
}
