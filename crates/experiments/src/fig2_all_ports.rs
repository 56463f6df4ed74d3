//! Figure 2 — All TCP Scans: top ports by packet (2024Q1).
//!
//! Paper: the overall scan mix is dominated by ports like 23, 80, 445,
//! 22, with MikroTik's 8728 driven to the sixth most-scanned port almost
//! entirely by ZMap. §2.1's headline per-port ZMap shares: 12% of
//! TCP/23, 69% of TCP/80, 73% of TCP/8080, 99.5% of TCP/8728.

use crate::{pct, port_report_2024q1, table, Output};
use std::fmt::Write;

pub fn run(_: &[String]) -> Output {
    let (q, report) = port_report_2024q1();
    let mut out = format!("Figure 2: top TCP ports by scan packets, all tools ({q})\n\n");
    let rows: Vec<Vec<String>> = report
        .top_ports_all(12)
        .into_iter()
        .enumerate()
        .map(|(i, (port, c))| {
            vec![
                format!("{}", i + 1),
                format!("tcp/{port}"),
                c.total.to_string(),
                pct(c.zmap as f64 / c.total.max(1) as f64),
            ]
        })
        .collect();
    out += &table(&["rank", "port", "packets", "zmap share"], &rows);

    writeln!(out, "\nper-port ZMap shares (paper → measured):")?;
    for (port, paper) in [(23u16, 0.12), (80, 0.69), (8080, 0.73), (8728, 0.995)] {
        writeln!(
            out,
            "  tcp/{port:<5} {:>6} → {}",
            pct(paper),
            pct(report.zmap_share_of_port(port))
        )?;
    }
    Ok(out)
}
