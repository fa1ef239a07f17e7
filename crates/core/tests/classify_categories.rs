//! Named, hand-derived expectations for the §4.3 race classifier — one
//! minimal feasible trace per category, run through the full
//! [`AnalysisBuilder`] pipeline (validation → stripping → closure → race
//! detection → classification). Shrunk fuzz counterexamples are diffed
//! against these shapes: each constructor documents the smallest structure
//! that produces its category.

use droidracer_core::{AnalysisBuilder, CategoryCounts, RaceCategory};
use droidracer_trace::{from_text, to_text, ThreadKind, Trace, TraceBuilder};

/// Multithreaded: the two accesses run on different threads with no
/// fork/join/lock ordering between them.
fn multithreaded() -> Trace {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let bg = b.thread("bg", ThreadKind::App, false);
    let loc = b.loc("o", "C.f");
    b.thread_init(main);
    b.fork(main, bg);
    b.thread_init(bg);
    b.write(bg, loc);
    b.read(main, loc);
    b.finish_validated()
        .expect("multithreaded trace is feasible")
}

/// Co-enabled: both accesses run on one thread, in handler tasks of two
/// *distinct, unordered* environment events — clicking two buttons on the
/// same screen.
fn co_enabled() -> Trace {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let h1 = b.task("onClickA");
    let h2 = b.task("onClickB");
    let e1 = b.event("click:A");
    let e2 = b.event("click:B");
    let loc = b.loc("o", "C.f");
    b.thread_init(main);
    b.attach_q(main);
    b.loop_on_q(main);
    b.post_event(main, h1, main, e1);
    b.post_event(main, h2, main, e2);
    b.begin(main, h1);
    b.write(main, loc);
    b.end(main, h1);
    b.begin(main, h2);
    b.write(main, loc);
    b.end(main, h2);
    b.finish_validated().expect("co-enabled trace is feasible")
}

/// Delayed: the posting chains differ in their most recent *delayed* post;
/// FIFO's §4.2 refinement leaves a delayed and a plain post unordered.
fn delayed() -> Trace {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let binder = b.thread("binder", ThreadKind::Binder, true);
    let slow = b.task("slowRefresh");
    let fast = b.task("fastUpdate");
    let loc = b.loc("o", "C.f");
    b.thread_init(main);
    b.attach_q(main);
    b.loop_on_q(main);
    b.thread_init(binder);
    b.post_delayed(binder, slow, main, 1000);
    b.post(binder, fast, main);
    b.begin(main, fast);
    b.write(main, loc);
    b.end(main, fast);
    b.begin(main, slow);
    b.write(main, loc);
    b.end(main, slow);
    b.finish_validated().expect("delayed trace is feasible")
}

/// Cross-posted: the racing tasks were posted to the looper from two
/// *different* background threads whose posts are unordered.
fn cross_posted() -> Trace {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let bg1 = b.thread("bg1", ThreadKind::App, true);
    let bg2 = b.thread("bg2", ThreadKind::App, true);
    let t1 = b.task("A");
    let t2 = b.task("B");
    let loc = b.loc("o", "C.f");
    b.thread_init(main);
    b.attach_q(main);
    b.loop_on_q(main);
    b.thread_init(bg1);
    b.thread_init(bg2);
    b.post(bg1, t1, main);
    b.post(bg2, t2, main);
    b.begin(main, t1);
    b.write(main, loc);
    b.end(main, t1);
    b.begin(main, t2);
    b.write(main, loc);
    b.end(main, t2);
    b.finish_validated()
        .expect("cross-posted trace is feasible")
}

/// Unknown: same-thread plain posts made outside any task — neither the
/// event, delay nor cross-thread criterion applies.
fn unknown() -> Trace {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let t1 = b.task("A");
    let t2 = b.task("B");
    let loc = b.loc("o", "C.f");
    b.thread_init(main);
    b.attach_q(main);
    b.loop_on_q(main);
    b.post(main, t1, main);
    b.post(main, t2, main);
    b.begin(main, t1);
    b.write(main, loc);
    b.end(main, t1);
    b.begin(main, t2);
    b.write(main, loc);
    b.end(main, t2);
    b.finish_validated().expect("unknown trace is feasible")
}

fn fixtures() -> [(RaceCategory, Trace); 5] {
    [
        (RaceCategory::Multithreaded, multithreaded()),
        (RaceCategory::CoEnabled, co_enabled()),
        (RaceCategory::Delayed, delayed()),
        (RaceCategory::CrossPosted, cross_posted()),
        (RaceCategory::Unknown, unknown()),
    ]
}

/// Each fixture, analyzed end to end, reports exactly one representative
/// race of exactly its category.
#[test]
fn each_category_has_a_pinned_minimal_trace() {
    for (category, trace) in fixtures() {
        let analysis = AnalysisBuilder::new()
            .validate_first(true)
            .analyze(&trace)
            .expect("fixtures validate");
        let reps = analysis.representatives();
        assert_eq!(reps.len(), 1, "{category}: expected one representative");
        assert_eq!(
            reps[0].category, category,
            "{category} fixture misclassified"
        );
        let mut expected = CategoryCounts::default();
        expected.add(category, 1);
        assert_eq!(analysis.counts(), expected, "{category}: partition totals");
    }
}

/// Fixtures survive a text round-trip unchanged and classify identically
/// afterwards — the property shrunk fuzz regressions rely on when they are
/// committed as `.trace` files.
#[test]
fn fixtures_round_trip_through_the_text_format() {
    for (category, trace) in fixtures() {
        let reparsed = from_text(&to_text(&trace)).expect("fixtures serialize");
        assert_eq!(
            reparsed, trace,
            "{category}: text round-trip must be lossless"
        );
        let analysis = AnalysisBuilder::new()
            .analyze(&reparsed)
            .expect("analyzable");
        assert_eq!(
            analysis.representatives()[0].category,
            category,
            "{category}: classification must survive serialization"
        );
    }
}

/// The five categories are mutually exclusive on these fixtures: no fixture
/// produces a race of any *other* category.
#[test]
fn fixtures_do_not_bleed_between_categories() {
    for (category, trace) in fixtures() {
        let analysis = AnalysisBuilder::new().analyze(&trace).expect("analyzable");
        for other in RaceCategory::all() {
            if other != category {
                assert_eq!(
                    analysis.count(other),
                    0,
                    "{category} fixture must not also report {other}"
                );
            }
        }
    }
}
