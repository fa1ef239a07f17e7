//! The tracer's blind spots (§6 "False positives and negatives"): custom
//! task queues and untracked native threads produce false positives that
//! reordering-based verification rejects.
//!
//! The app hands work from one thread to another through a hand-rolled
//! queue whose synchronization is invisible to the tracer (modeled by the
//! `untracked:` naming convention + [`droidracer::apps::strip_untracked`]).
//! The detector dutifully reports a race; re-running under many schedules
//! never reorders the accesses, exposing the report as a false positive.
//!
//! Run with `cargo run --example custom_queue_pitfall`.

use droidracer::apps::{
    strip_untracked, verify_race, CorpusEntry, MotifBuilder, PaperRow, VerifyOutcome,
};
use droidracer::core::AnalysisBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One true cross-posted race and one false one (ordered through an
    // untracked custom-queue join).
    let mut m = MotifBuilder::new("QueueDemo", "MainActivity");
    m.cross_posted_races(1, 1);
    let (app, events, truth) = m.finish();
    let entry = CorpusEntry {
        name: "QueueDemo",
        open_source: true,
        app,
        events,
        seed: 5,
        paper: PaperRow::default(),
        truth: truth.clone(),
    };

    let trace = entry.generate_trace()?;
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    println!("{}", analysis.render());
    assert_eq!(
        analysis.representatives().len(),
        2,
        "both the real and the hidden-ordered pair are reported"
    );

    // Reordering-based verification (the paper's DDMS procedure) separates
    // them mechanically.
    for (field, t) in &truth {
        let outcome = verify_race(&entry, field, 60)?;
        let verdict = match outcome {
            VerifyOutcome::Reordered => "TRUE positive (reordered)",
            VerifyOutcome::NotReordered => "FALSE positive (never reorders)",
            VerifyOutcome::NoSuchRace => "not reported",
        };
        println!("{field}: {verdict}  — ground truth: {}", t.note);
        match outcome {
            VerifyOutcome::Reordered => assert!(t.is_true, "verified race must be planted true"),
            VerifyOutcome::NotReordered => {
                assert!(!t.is_true, "unverifiable race must be planted false")
            }
            VerifyOutcome::NoSuchRace => panic!("planted race on {field} was not reported"),
        }
    }

    // For completeness: the stripped trace really is missing the hidden
    // synchronization the simulator enforced.
    let rerun = entry.generate_trace()?;
    let unstripped_len = {
        // generate_trace already strips; demonstrate idempotence.
        strip_untracked(&rerun).len()
    };
    assert_eq!(unstripped_len, rerun.len());
    println!(
        "\nThe detector sees {} ops; the hidden join/fork ops were scrubbed.",
        rerun.len()
    );
    Ok(())
}
