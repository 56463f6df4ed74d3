//! Figure 3 — ZMap Scans: top ports by packet (2024Q1).
//!
//! Paper: ZMap traffic concentrates on web-facing ports (80, 8080, 443)
//! — a different mix from the telnet-heavy background — reflecting its
//! adoption by attack-surface-management products.

use crate::{pct, port_report_2024q1, table, Output};
use std::fmt::Write;

pub fn run(_: &[String]) -> Output {
    let (q, report) = port_report_2024q1();
    let mut out = format!("Figure 3: top TCP ports by ZMap-attributed scan packets ({q})\n\n");
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
    out += &table(&["rank", "port", "zmap packets", "share of port"], &rows);

    let top = report.top_ports_zmap(3);
    writeln!(
        out,
        "\nexpected shape: web ports on top — measured top-3: {}",
        top.iter()
            .map(|(p, _)| format!("tcp/{p}"))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    Ok(out)
}
