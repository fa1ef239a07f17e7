//! Golden test pinning EXPERIMENTS.md's E1 block, Table 2, to what the
//! `table2` bin prints: both come from [`table2_rows`], so a change to the
//! corpus, the simulator or the trace statistics that moves one cell fails
//! here until the block is regenerated.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test -p droidracer-bench --test table2_golden
//! ```

use droidracer_bench::{table2_rows, Table2Row};
use droidracer_core::default_threads;

const EXPERIMENTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// The E1 table header, as EXPERIMENTS.md writes it.
const HEADER: &str = "| Application (LOC) | Trace length | Fields | Threads w/o Qs | Threads w/ Qs | Async tasks |\n|---|---|---|---|---|---|\n";

/// Table 2 as an EXPERIMENTS.md markdown table.
fn render_markdown(rows: &[Table2Row]) -> String {
    let mut out = HEADER.to_owned();
    for row in rows {
        out.push_str(&format!("| {} |\n", row.cells().join(" | ")));
    }
    out
}

/// The byte range of E1's table in `doc`: from its header line through the
/// newline of its last row.
fn e1_table(doc: &str) -> std::ops::Range<usize> {
    let section = doc
        .find("## E1 ")
        .expect("EXPERIMENTS.md has an E1 section");
    let start = section
        + doc[section..]
            .find("| Application (LOC) |")
            .expect("E1 has a Table 2 block");
    let end = start
        + doc[start..]
            .find("\n\n")
            .expect("a blank line ends the table")
        + 1;
    start..end
}

#[test]
fn experiments_e1_is_what_table2_prints() {
    let (rows, _) = table2_rows(default_threads());
    let want = render_markdown(&rows);
    let doc = std::fs::read_to_string(EXPERIMENTS_PATH).expect("EXPERIMENTS.md reads");
    let range = e1_table(&doc);
    if std::env::var_os("BLESS").is_some() {
        let blessed = format!("{}{want}{}", &doc[..range.start], &doc[range.end..]);
        std::fs::write(EXPERIMENTS_PATH, blessed).expect("EXPERIMENTS.md writes");
        return;
    }
    assert_eq!(
        &doc[range], want,
        "EXPERIMENTS.md E1 differs from `table2`; if the change is intended, \
         regenerate with BLESS=1 cargo test -p droidracer-bench --test table2_golden"
    );
}
