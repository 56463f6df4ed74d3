//! Figure 1 — ZMap-Attributed TCP Scan Traffic, 2014Q1–2024Q1.
//!
//! Paper: ZMap's share of Internet-wide IPv4 TCP scan packets grew
//! slowly through the research era and accelerated sharply after 2020,
//! reaching 35.4% in 2024Q1 (35% headline).
//!
//! Reproduction: simulate the quarterly scanner population, land its
//! probes on a simulated telescope, attribute tools from wire
//! fingerprints only, and print the share time series.

use crate::{pct, table, telescope_quarter, Output};
use std::fmt::Write;
use zmap_netsim::population::{PopulationModel, Quarter};
use zmap_telescope::aggregate::QuarterReport;

pub fn run(_: &[String]) -> Output {
    let model = PopulationModel::default();
    let quarters = Quarter::range(Quarter { year: 2014, q: 1 }, Quarter { year: 2024, q: 1 });
    let mut rows = Vec::new();
    let mut final_share = 0.0;
    for q in quarters {
        let scans = telescope_quarter(&model, q, 40);
        let rep = QuarterReport::from_scans(q.to_string(), &scans);
        final_share = rep.zmap_share();
        // Print yearly Q1 plus the last point, like the figure's ticks.
        if q.q == 1 {
            rows.push(vec![
                rep.label.clone(),
                rep.scans.to_string(),
                rep.total_packets.to_string(),
                pct(rep.zmap_share()),
                pct(rep.masscan_packets as f64 / rep.total_packets.max(1) as f64),
            ]);
        }
    }
    let mut out = String::from("Figure 1: ZMap-attributed share of telescope TCP scan packets\n\n");
    out += &table(&["quarter", "scans", "packets", "zmap share", "masscan share"], &rows);
    writeln!(out, "\npaper 2024Q1: 35.4% | measured 2024Q1: {}", pct(final_share))?;
    writeln!(out, "expected shape: slow growth pre-2020, sharp acceleration after")?;
    Ok(out)
}
