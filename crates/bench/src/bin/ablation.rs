//! Experiment E5 — the baseline comparison implied by §4.1
//! ("Specializations") and §7: what happens to race reports when the
//! happens-before relation is replaced by
//!
//! * the classic multi-threaded relation (misses every single-threaded
//!   race),
//! * the single-threaded event-driven relation (false positives wherever
//!   synchronization crosses threads),
//! * the naive combination with unrestricted transitivity and same-thread
//!   lock edges (spurious orderings suppress real races),
//! * events-simulated-as-threads (loses FIFO/run-to-completion orderings —
//!   "produce many false positives", §7),
//!
//! plus the FastTrack-style vector-clock detector as an independent
//! multi-threaded baseline.
//!
//! Run with `cargo run --release -p droidracer-bench --bin ablation`.

use droidracer_apps::open_source_corpus;
use droidracer_bench::TextTable;
use droidracer_core::{vc, AnalysisBuilder, HbMode, RaceCategory};

fn main() {
    let mut table = TextTable::new([
        "Application",
        "droidracer",
        "mt-only",
        "async-only",
        "naive-combined",
        "events-as-threads",
        "vector-clock",
    ]);
    println!("Races reported under each happens-before relation (open-source corpus)");
    println!("(droidracer = the paper's combined relation; counts are representative reports)\n");
    let mut totals = [0usize; 6];
    let mut mt_only_single_threaded = 0usize;
    for entry in open_source_corpus() {
        let trace = match entry.generate_trace() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: {e}", entry.name);
                continue;
            }
        };
        let mut row = vec![entry.name.to_owned()];
        for (i, mode) in HbMode::all().iter().enumerate() {
            let analysis = AnalysisBuilder::new().mode(*mode).analyze(&trace).unwrap();
            let n = analysis.representatives().len();
            totals[i] += n;
            if *mode == HbMode::MultithreadedOnly {
                mt_only_single_threaded += analysis
                    .representatives()
                    .iter()
                    .filter(|cr| cr.category != RaceCategory::Multithreaded)
                    .count();
            }
            row.push(n.to_string());
        }
        let vc_n = vc::detect_multithreaded(&trace).len();
        totals[5] += vc_n;
        row.push(vc_n.to_string());
        table.row(row);
    }
    let mut total_row = vec!["TOTAL".to_owned()];
    total_row.extend(totals.iter().map(|n| n.to_string()));
    table.rule();
    table.row(total_row);
    println!("{}", table.render());
    println!("Expected shape (paper §4.1, §7):");
    println!("  mt-only reports no single-threaded races (measured single-threaded under mt-only: {mt_only_single_threaded})");
    println!(
        "  async-only ≥ droidracer (cross-thread synchronization invisible → false positives)"
    );
    println!("  naive-combined ≤ droidracer (spurious same-thread lock orderings suppress races)");
    println!("  events-as-threads ≥ droidracer (FIFO and run-to-completion orderings lost)");
    println!("  vector-clock agrees with mt-only on racy locations (cross-checked in tests)");
}
