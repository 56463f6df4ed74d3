//! Figure 8 / Appendix B — Academic papers built on ZMap data, by topic.
//!
//! This table is the paper's own manual thematic analysis of 1,034
//! citing papers; we embed the published taxonomy (it is data, not a
//! measurement — see DESIGN.md) and regenerate the table plus the §2.2
//! headline numbers.

use crate::Output;
use std::fmt::Write;
use zmap_telescope::bibliography::{papers_using_zmap_data, render_table, total_categorized, FIGURE8};

pub fn run(_: &[String]) -> Output {
    let mut out = String::from("Figure 8: academic papers built on ZMap data\n\n");
    writeln!(out, "{}", render_table())?;
    writeln!(
        out,
        "§2.2 headlines: {} papers directly based on ZMap data (paper: 307;",
        papers_using_zmap_data()
    )?;
    writeln!(out, "topic rows overlap since papers span topics); {} ethics-guidance-", 53)?;
    writeln!(
        out,
        "only citations; {} categorized in total out of 1,034 examined.",
        total_categorized()
    )?;
    let max = FIGURE8
        .iter()
        .filter(|r| r.uses_zmap_data)
        .max_by_key(|r| r.papers)
        .expect("table is non-empty");
    writeln!(out, "largest data-using topic: {} ({} papers)", max.topic, max.papers)?;
    Ok(out)
}
