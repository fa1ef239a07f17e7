//! Golden-file regression tests: a committed trace file must keep parsing,
//! validating and analyzing to the same result across changes to the
//! format, the semantics checker and the detector.

use proptest::prelude::*;

use droidracer::core::{AnalysisBuilder, RaceCategory};
use droidracer::trace::{from_text, to_text, validate, TraceStats};

const AARD_TRACE: &str = include_str!("data/aard_dictionary.trace");

#[test]
fn golden_aard_trace_parses_and_validates() {
    let trace = from_text(AARD_TRACE).expect("golden trace parses");
    assert_eq!(trace.len(), 1343);
    // The stripped corpus trace is a feasible prefix except for the
    // scrubbed untracked ops — Aard has none, so it validates fully.
    assert_eq!(validate(&trace), Ok(()));
    let stats = TraceStats::of(&trace);
    assert_eq!(stats.fields, 189);
    assert_eq!(stats.async_tasks, 58);
}

#[test]
fn golden_aard_trace_analyzes_to_the_known_race() {
    let trace = from_text(AARD_TRACE).expect("golden trace parses");
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    let reps = analysis.representatives();
    assert_eq!(reps.len(), 1);
    assert_eq!(reps[0].category, RaceCategory::Multithreaded);
    assert_eq!(
        analysis.trace().names().field_name(reps[0].race.loc.field),
        "mt.f0"
    );
}

#[test]
fn golden_trace_reserializes_identically() {
    let trace = from_text(AARD_TRACE).expect("golden trace parses");
    let text = to_text(&trace);
    let again = from_text(&text).expect("re-serialized trace parses");
    assert_eq!(again.ops(), trace.ops());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_is_total_on_garbage(text in ".{0,400}") {
        let _ = from_text(&text);
    }

    /// Nor on inputs that resemble the format.
    #[test]
    fn parser_is_total_on_format_like_input(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("droidracer-trace v1".to_owned()),
                "thread t[0-9] (main|binder|app|system)( initial)? \"[a-z ]{0,6}\"".prop_map(|s| s),
                "task p[0-9] \"[a-z]{0,6}\"".prop_map(|s| s),
                "op (threadinit|threadexit|attachQ|loopOnQ) t[0-9]".prop_map(|s| s),
                "op post t[0-9] p[0-9] t[0-9]( delay=[0-9]{1,3})?( front)?( event=e[0-9])?".prop_map(|s| s),
                "op (begin|end|cancel|enable) t[0-9] p[0-9]".prop_map(|s| s),
                "op (read|write) t[0-9] o[0-9].f[0-9]".prop_map(|s| s),
                "[a-z =\"]{0,20}".prop_map(|s| s),
            ],
            0..30,
        )
    ) {
        let text = lines.join("\n");
        let _ = from_text(&text);
    }
}
