//! Validates every corpus motif in isolation: the detector reports exactly
//! the planted races, classifies them into the intended category, and the
//! reordering-based verifier agrees with the planted true/false annotation.

use droidracer_apps::{
    verify_race, CorpusEntry, MotifBuilder, PaperRow, RaceCategory, VerifyOutcome,
};
use droidracer_core::{Analysis, AnalysisBuilder};

fn entry(m: MotifBuilder) -> CorpusEntry {
    let (app, events, truth) = m.finish();
    CorpusEntry {
        name: "motif",
        open_source: true,
        app,
        events,
        seed: 13,
        paper: PaperRow::default(),
        truth,
    }
}

/// Analyzes the entry and asserts every planted race is reported in its
/// intended category, with nothing extra.
fn assert_planted(entry: &CorpusEntry, expected: usize, category: RaceCategory) -> Analysis {
    let trace = entry.generate_trace().expect("entry runs");
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    let reps = analysis.representatives();
    assert_eq!(reps.len(), expected, "{}", analysis.render());
    let names = analysis.trace().names();
    for cr in &reps {
        assert_eq!(cr.category, category, "{}", analysis.render());
        let field = names.field_name(cr.race.loc.field);
        assert!(
            entry.truth.contains_key(&field),
            "unplanned race on {field}"
        );
    }
    analysis
}

/// Checks the verifier against the planted annotations.
fn assert_verifiable(entry: &CorpusEntry, budget: usize) {
    for (field, t) in &entry.truth {
        let outcome = verify_race(entry, field, budget).expect("verification runs");
        let expected = if t.is_true {
            VerifyOutcome::Reordered
        } else {
            VerifyOutcome::NotReordered
        };
        assert_eq!(outcome, expected, "{field}: {}", t.note);
    }
}

#[test]
fn mt_true_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.mt_races(2, 0);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::Multithreaded);
    assert_verifiable(&e, 40);
}

#[test]
fn mt_false_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.mt_races(0, 2);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::Multithreaded);
    assert_verifiable(&e, 40);
}

#[test]
fn cross_posted_true_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.cross_posted_races(2, 0);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::CrossPosted);
    assert_verifiable(&e, 40);
}

#[test]
fn cross_posted_false_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.cross_posted_races(0, 2);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::CrossPosted);
    assert_verifiable(&e, 40);
}

#[test]
fn co_enabled_true_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.co_enabled_races(2, 0);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::CoEnabled);
    assert_verifiable(&e, 40);
}

#[test]
fn co_enabled_false_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.co_enabled_races(0, 2);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::CoEnabled);
    assert_verifiable(&e, 40);
}

#[test]
fn delayed_true_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.delayed_races(2, 0);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::Delayed);
    assert_verifiable(&e, 40);
}

#[test]
fn delayed_false_motif() {
    let mut m = MotifBuilder::new("M", "Main");
    m.delayed_races(0, 2);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::Delayed);
    assert_verifiable(&e, 40);
}

#[test]
fn unknown_motif_is_deterministic_and_unknown() {
    let mut m = MotifBuilder::new("M", "Main");
    m.unknown_races(2);
    let e = entry(m);
    assert_planted(&e, 2, RaceCategory::Unknown);
    // All unknown races are annotated false (front posts are deterministic
    // in the model); the verifier must agree.
    assert_verifiable(&e, 30);
}

#[test]
fn safe_sync_motif_reports_nothing_under_full_rules() {
    let mut m = MotifBuilder::new("M", "Main");
    m.safe_sync(6, 4);
    let e = entry(m);
    assert_planted(&e, 0, RaceCategory::Unknown);
}

#[test]
fn safe_sync_motif_trips_the_async_only_baseline() {
    use droidracer_core::HbMode;
    let mut m = MotifBuilder::new("M", "Main");
    m.safe_sync(6, 4);
    let e = entry(m);
    let trace = e.generate_trace().expect("runs");
    let baseline = AnalysisBuilder::new()
        .mode(HbMode::AsyncOnly)
        .analyze(&trace)
        .unwrap();
    assert_eq!(
        baseline.representatives().len(),
        6,
        "all six safely synchronized fields become false positives"
    );
}

#[test]
fn cross_posted_true_races_vanish_under_naive_combination() {
    use droidracer_core::HbMode;
    let mut m = MotifBuilder::new("M", "Main");
    m.cross_posted_races(3, 0);
    let e = entry(m);
    let trace = e.generate_trace().expect("runs");
    assert_eq!(
        AnalysisBuilder::new()
            .analyze(&trace)
            .unwrap()
            .representatives()
            .len(),
        3
    );
    let naive = AnalysisBuilder::new()
        .mode(HbMode::NaiveCombined)
        .analyze(&trace)
        .unwrap();
    assert_eq!(
        naive.representatives().len(),
        0,
        "the spurious same-thread lock ordering suppresses all three"
    );
}

#[test]
fn lifecycle_flag_motif_reproduces_figure_4() {
    let mut m = MotifBuilder::new("M", "DwFileAct");
    let field = m.lifecycle_flag_race(true);
    let e = entry(m);
    let trace = e.generate_trace().expect("runs");
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    // Depending on download progress at BACK time, the flag race shows up
    // multithreaded and/or cross-posted.
    let on_flag: Vec<_> = analysis
        .representatives()
        .into_iter()
        .filter(|cr| analysis.trace().names().field_name(cr.race.loc.field) == field)
        .collect();
    assert!(!on_flag.is_empty(), "{}", analysis.render());
    for cr in on_flag {
        assert!(
            matches!(
                cr.category,
                RaceCategory::Multithreaded | RaceCategory::CrossPosted
            ),
            "{}",
            analysis.render()
        );
    }
}
