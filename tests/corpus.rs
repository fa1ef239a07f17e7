//! Integration tests over the 15-application corpus: the measured Tables 2
//! and 3 stay pinned to the paper's numbers (experiments E1 and E2).

use droidracer::apps::{corpus, open_source_corpus, verify_race, RaceCategory, VerifyOutcome};

/// Relative tolerance for Table 2's trace statistics.
fn close(measured: usize, paper: usize, tolerance: f64) -> bool {
    if paper == 0 {
        return measured == 0;
    }
    let ratio = measured as f64 / paper as f64;
    (1.0 - tolerance..=1.0 + tolerance).contains(&ratio)
}

#[test]
fn table2_statistics_track_the_paper() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("entry runs");
        let stats = droidracer::trace::TraceStats::of(&trace);
        let p = &entry.paper;
        assert!(
            close(stats.trace_length, p.trace_length, 0.05),
            "{}: trace length {} vs paper {}",
            entry.name,
            stats.trace_length,
            p.trace_length
        );
        assert!(
            close(stats.fields, p.fields, 0.05),
            "{}: fields {} vs paper {}",
            entry.name,
            stats.fields,
            p.fields
        );
        assert_eq!(
            stats.async_tasks, p.async_tasks,
            "{}: async tasks",
            entry.name
        );
        assert_eq!(
            stats.threads_with_queues, p.threads_with_queues,
            "{}: threads with queues",
            entry.name
        );
        // Threads without queues may exceed the paper's count because the
        // planted races need their own worker threads; never by much.
        assert!(
            stats.threads_without_queues >= p.threads_without_queues.min(2)
                && stats.threads_without_queues <= p.threads_without_queues + 5,
            "{}: threads w/o queues {} vs paper {}",
            entry.name,
            stats.threads_without_queues,
            p.threads_without_queues
        );
    }
}

#[test]
fn table3_reported_counts_match_exactly() {
    for entry in corpus() {
        let report = entry.analyze().expect("entry analyzes");
        for cat in RaceCategory::all() {
            assert_eq!(
                report.reported.get(cat),
                entry.paper.reported.get(cat),
                "{}: {cat} reports",
                entry.name
            );
        }
        assert_eq!(
            report.unplanned(&entry.truth),
            0,
            "{}: unplanned",
            entry.name
        );
        assert!(
            report.misclassified(&entry.truth).is_empty(),
            "{}: misclassified {:?}",
            entry.name,
            report.misclassified(&entry.truth)
        );
    }
}

#[test]
fn table3_true_positives_match_ground_truth() {
    for entry in open_source_corpus() {
        let report = entry.analyze().expect("entry analyzes");
        let verified = entry.paper.verified.expect("open source has Y");
        for cat in RaceCategory::all() {
            // Our unknown-category races are annotated false by design
            // (front-post determinism; see the motif docs).
            let expected = if cat == RaceCategory::Unknown {
                0
            } else {
                verified.get(cat)
            };
            assert_eq!(
                report.verified.get(cat),
                expected,
                "{}: {cat} true positives",
                entry.name
            );
        }
    }
}

#[test]
fn overall_true_positive_rate_matches_the_papers_37_percent() {
    // Paper: "Out of the total 215 reports … 80 (37%) were confirmed to be
    // true positives." Ours: 78 of 215 (36%) — the two missing are Music
    // Player's unknown-category true positives, documented in DESIGN.md.
    let mut reported = 0;
    let mut verified = 0;
    for entry in open_source_corpus() {
        let report = entry.analyze().expect("entry analyzes");
        reported += report.reported.total();
        verified += report.verified.total();
    }
    assert_eq!(reported, 215);
    assert_eq!(verified, 78);
    let rate = verified as f64 / reported as f64;
    assert!((0.30..0.45).contains(&rate), "rate {rate}");
}

#[test]
fn aard_dictionary_race_is_mechanically_verifiable() {
    // The paper's flagship multi-threaded race (the dictionary-loading
    // Service): reordering-based verification confirms it.
    let entry = droidracer::apps::aard_dictionary();
    let field = entry
        .truth
        .iter()
        .find(|(_, t)| t.is_true)
        .map(|(f, _)| f.clone())
        .expect("has a true race");
    let outcome = verify_race(&entry, &field, 60).expect("verification runs");
    assert_eq!(outcome, VerifyOutcome::Reordered);
}

#[test]
fn coverage_triage_collapses_browser_false_positives() {
    // Browser's 64 cross-posted reports are dominated by one untracked
    // custom-queue mechanism (62 false positives); coverage triage reduces
    // the 66 reports to a handful of independent roots.
    let entry = droidracer::apps::browser();
    let trace = entry.generate_trace().expect("runs");
    let analysis = droidracer::core::AnalysisBuilder::new()
        .analyze(&trace)
        .unwrap();
    let report = droidracer::core::race_coverage(&analysis);
    assert_eq!(report.total(), 66);
    assert!(
        report.roots.len() <= 6,
        "expected a handful of roots, got {}",
        report.roots.len()
    );
    assert!(report.covered.len() >= 60);
}

#[test]
fn races_are_prevalent_across_explored_tests() {
    // "For each application, DroidRacer found tests which manifested one or
    // more races" — run the systematic exploration (depth 1) on the small
    // corpus apps and check races keep appearing.
    for entry in [
        droidracer::apps::aard_dictionary(),
        droidracer::apps::music_player(),
    ] {
        let summary = entry.explore(1, 8).expect("exploration runs");
        assert!(summary.tests > 0, "{}", entry.name);
        assert!(
            summary.racy_tests > 0,
            "{}: no racy tests among {}",
            entry.name,
            summary.tests
        );
        assert!(summary.union.total() > 0);
    }
}

#[test]
fn corpus_traces_are_deterministic() {
    let entry = droidracer::apps::music_player();
    let a = entry.generate_trace().expect("runs");
    let b = entry.generate_trace().expect("runs");
    assert_eq!(a.ops(), b.ops(), "same seed, same trace");
}
