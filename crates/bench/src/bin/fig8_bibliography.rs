#![allow(clippy::print_stdout)]
//! Figure 8 / Appendix B — Academic papers built on ZMap data, by topic.
//!
//! This table is the paper's own manual thematic analysis of 1,034
//! citing papers; we embed the published taxonomy (it is data, not a
//! measurement — see DESIGN.md) and regenerate the table plus the §2.2
//! headline numbers.

use zmap_telescope::bibliography::{papers_using_zmap_data, render_table, total_categorized, FIGURE8};

fn main() {
    println!("Figure 8: academic papers built on ZMap data\n");
    print!("{}", render_table());
    println!();
    println!(
        "§2.2 headlines: {} papers directly based on ZMap data (paper: 307;",
        papers_using_zmap_data()
    );
    println!("topic rows overlap since papers span topics); {} ethics-guidance-", 53);
    println!(
        "only citations; {} categorized in total out of 1,034 examined.",
        total_categorized()
    );
    let max = FIGURE8
        .iter()
        .filter(|r| r.uses_zmap_data)
        .max_by_key(|r| r.papers)
        .expect("table is non-empty");
    println!(
        "largest data-using topic: {} ({} papers)",
        max.topic, max.papers
    );
}
