//! The debugging toolkit: race explanations, coverage triage and Graphviz
//! export — the paper's concluding "better debugging support" implemented.
//!
//! The app under test hands data between threads through a hand-rolled flag
//! (ad-hoc synchronization, a classic §6 false-positive source): the
//! detector reports races on the flag AND on everything it guards; coverage
//! triage collapses them to the single root cause.
//!
//! Run with `cargo run --example debugging_tour`.

use droidracer::core::{explain, race_coverage, to_dot, AnalysisBuilder};
use droidracer::trace::{ThreadKind, TraceBuilder};

fn main() {
    // A producer thread fills three payload fields, then raises `ready`;
    // the consumer polls `ready` and reads the payload. No tracked
    // synchronization anywhere.
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let producer = b.thread("producer", ThreadKind::App, false);
    let title = b.loc("Document-obj", "title");
    let body = b.loc("Document-obj", "body");
    let footer = b.loc("Document-obj", "footer");
    let ready = b.loc("Document-obj", "ready");
    b.thread_init(main);
    b.fork(main, producer);
    b.thread_init(producer);
    b.write(producer, title);
    b.write(producer, body);
    b.write(producer, footer);
    b.write(producer, ready);
    b.read(main, ready); // the busy-wait poll
    b.read(main, title);
    b.read(main, body);
    b.read(main, footer);
    let trace = b.finish();

    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    println!("{}", analysis.render());
    assert_eq!(analysis.representatives().len(), 4);

    // 1. Explain each report: sites, posting chains, category criteria.
    println!("--- explanations ---");
    for cr in analysis.representatives() {
        print!("{}", explain(&analysis, &cr.race));
    }

    // 2. Coverage triage: the flag race covers the three payload races.
    let coverage = race_coverage(&analysis);
    println!("--- coverage triage ---");
    println!(
        "{} reports → {} root cause(s), {} covered",
        coverage.total(),
        coverage.roots.len(),
        coverage.covered.len()
    );
    let names = analysis.trace().names();
    for root in &coverage.roots {
        println!("  root: {}", names.loc_name(root.race.loc));
    }
    for (covered, by) in &coverage.covered {
        println!(
            "  covered: {} (by root #{})",
            names.loc_name(covered.race.loc),
            by.map(|k| k.to_string()).unwrap_or_else(|| "?".into())
        );
    }
    assert_eq!(coverage.roots.len(), 1, "one root cause: the ready flag");
    assert_eq!(names.field_name(coverage.roots[0].race.loc.field), "ready");

    // 3. Graphviz export for visual inspection.
    let dot = to_dot(&analysis);
    let path = std::env::temp_dir().join("droidracer_debugging_tour.dot");
    std::fs::write(&path, &dot).expect("write dot file");
    println!("--- graph ---");
    println!(
        "happens-before graph ({} nodes) written to {}",
        analysis.hb().graph().node_count(),
        path.display()
    );
}
