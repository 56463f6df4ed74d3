#![allow(clippy::print_stdout)]
//! Figure 3 — ZMap Scans: top ports by packet (2024Q1).
//!
//! Paper: ZMap traffic concentrates on web-facing ports (80, 8080, 443)
//! — a different mix from the telnet-heavy background — reflecting its
//! adoption by attack-surface-management products.

use bench::{pct, print_table, telescope_quarter};
use zmap_netsim::population::{PopulationModel, Quarter};
use zmap_telescope::aggregate::PortReport;

fn main() {
    let model = PopulationModel::default();
    let q = Quarter { year: 2024, q: 1 };
    let scans = telescope_quarter(&model, q, 60);
    let mut report = PortReport::default();
    report.add_scans(&scans);

    println!("Figure 3: top TCP ports by ZMap-attributed scan packets ({q})\n");
    let rows: Vec<Vec<String>> = report
        .top_ports_zmap(12)
        .into_iter()
        .enumerate()
        .map(|(i, (port, c))| {
            vec![
                format!("{}", i + 1),
                format!("tcp/{port}"),
                c.zmap.to_string(),
                pct(c.zmap as f64 / c.total.max(1) as f64),
            ]
        })
        .collect();
    print_table(&["rank", "port", "zmap packets", "share of port"], &rows);

    let top = report.top_ports_zmap(3);
    println!(
        "\nexpected shape: web ports on top — measured top-3: {}",
        top.iter()
            .map(|(p, _)| format!("tcp/{p}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
