//! Figure 4 — ZMap share of scan packets by source country (2024Q1).
//!
//! Paper row: US 66%, NL 33%, RU 0.48%, DE 18%, GB 69%, BG 9%, CN 2%,
//! IN 12%, ZA 0.1%, HK 2% — the outsized US share driven by American
//! security companies scanning from cloud providers.

use crate::{pct, table, telescope_quarter, Output};
use std::fmt::Write;
use zmap_netsim::geo::{country_of, Country};
use zmap_netsim::population::{PopulationModel, Quarter};
use zmap_telescope::aggregate::CountryReport;

pub fn run(_: &[String]) -> Output {
    // A larger population than the other figures: per-country shares
    // are ratios of heavy-tailed sums, so small-country cells (CN, ZA)
    // need more instances to converge.
    let model = PopulationModel {
        instances_at_peak: 12_000,
        ..PopulationModel::default()
    };
    let q = Quarter { year: 2024, q: 1 };
    let scans = telescope_quarter(&model, q, 40);
    let mut report = CountryReport::default();
    // The telescope geolocates source addresses with the same address →
    // country map the simulation used to place scanners (standing in for
    // MaxMind-style geolocation).
    report.add_scans(&scans, |src| country_of(model.seed, src).code().to_string());

    let mut out = format!("Figure 4: ZMap share of scan packets by origin country ({q})\n\n");
    let rows: Vec<Vec<String>> = Country::TOP10
        .iter()
        .map(|c| {
            let measured = report.zmap_share(c.code()).unwrap_or(0.0);
            vec![
                c.code().to_string(),
                pct(c.zmap_share_2024()),
                pct(measured),
            ]
        })
        .collect();
    out += &table(&["country", "paper", "measured"], &rows);
    writeln!(out, "\nexpected shape: US/GB high, RU/ZA near zero, NL middling")?;
    Ok(out)
}
