//! Corruption-fuzz property test over the evaluation corpus: every seeded
//! byte-level corruption of every corpus trace must either be salvaged by
//! the lenient parser with diagnosed repairs (and the repair must be a
//! fixed point — re-parsing it yields no further diagnostics) or be
//! rejected with a clean typed `ParseTraceError` — never a panic. The
//! storm runner (`droidracer::fuzz::inject::storm`) wraps each parse in a
//! panic boundary and counts non-converging repairs as contract
//! violations too.

use droidracer::apps::corpus;
use droidracer::fuzz::inject::storm;
use droidracer::trace::to_text;

/// Corruptions per corpus trace. Debug builds run a reduced storm so the
/// plain `cargo test` gate stays fast; the CI `corruption-smoke` step runs
/// the full 1,000 per trace in release mode.
const STORM_SIZE: u64 = if cfg!(debug_assertions) { 50 } else { 1_000 };

#[test]
fn corrupted_corpus_traces_never_panic_the_parser() {
    for entry in corpus() {
        let trace = entry
            .generate_trace()
            .unwrap_or_else(|e| panic!("{}: trace generation failed: {e}", entry.name));
        let text = to_text(&trace);
        // Per-entry seed keeps failures reproducible with the entry alone.
        let seed = 0xC0_4012_u64 ^ entry.name.len() as u64;
        let report = storm(&text, seed, STORM_SIZE);
        assert_eq!(
            report.panics, 0,
            "{}: corruption storm violated the no-panic contract: {report:?}",
            entry.name
        );
        assert_eq!(
            report.clean + report.repaired + report.parse_errors,
            report.total,
            "{}: outcomes don't tally: {report:?}",
            entry.name
        );
        // The storm must actually exercise the recovery machinery: on a
        // multi-kilobyte trace some corruptions are salvageable and some
        // (header hits) are not.
        assert!(report.repaired > 0, "{}: {report:?}", entry.name);
    }
}

#[test]
fn clean_corpus_traces_parse_without_repairs() {
    for entry in corpus() {
        let trace = entry
            .generate_trace()
            .unwrap_or_else(|e| panic!("{}: trace generation failed: {e}", entry.name));
        assert!(
            droidracer::fuzz::inject::roundtrips_clean(&to_text(&trace)),
            "{}: clean trace round-trip produced repairs or mismatched ops",
            entry.name
        );
    }
}

/// Two traces the strict parser accepts but the semantics checker rejects.
/// With validation off (the default spec) the batch engine meets a post
/// after the begin it schedules, which yields a backward POST edge, and two
/// tasks overlapping on one looper, which yield an end-after-begin FIFO
/// candidate. Both must still end in a typed report on every front door:
/// the batch submission, the streaming one (whose degenerate fallback runs
/// the batch engine), and a validating spec that rejects them up front.
#[test]
fn invalid_but_parseable_traces_never_panic_the_engines() {
    use droidracer::core::{AnalysisService, ExitClass, JobSpec, LocalService};

    let post_after_begin = "droidracer-trace v1\n\
        thread t0 main initial \"main\"\n\
        task p0 \"a\"\n\
        op threadinit t0\n\
        op attachQ t0\n\
        op loopOnQ t0\n\
        op begin t0 p0\n\
        op end t0 p0\n\
        op post t0 p0 t0\n";
    let overlapping_tasks = "droidracer-trace v1\n\
        thread t0 main initial \"main\"\n\
        task p0 \"a\"\n\
        task p1 \"b\"\n\
        op threadinit t0\n\
        op attachQ t0\n\
        op loopOnQ t0\n\
        op post t0 p0 t0\n\
        op post t0 p1 t0\n\
        op begin t0 p0\n\
        op begin t0 p1\n\
        op end t0 p0\n\
        op end t0 p1\n";
    let mut service = LocalService::new();
    for (name, text) in [
        ("post after begin", post_after_begin),
        ("overlapping tasks", overlapping_tasks),
    ] {
        let spec = JobSpec::default();
        let batch = service.submit(&spec, text).expect("in-process submit");
        assert!(
            matches!(batch.exit, ExitClass::Clean | ExitClass::Races),
            "{name}: batch report {batch:?}"
        );
        for chunk_ops in [1, 4, 64] {
            let streamed = service.submit_streaming(&spec, text, chunk_ops);
            assert_eq!(streamed.exit, batch.exit, "{name}: chunk {chunk_ops}");
            assert_eq!(streamed.races, batch.races, "{name}: chunk {chunk_ops}");
        }
        let validating = JobSpec {
            validate: true,
            ..JobSpec::default()
        };
        let rejected = service
            .submit(&validating, text)
            .expect("in-process submit");
        assert_eq!(rejected.exit, ExitClass::Invalid, "{name}: {rejected:?}");
        let rejected = service.submit_streaming(&validating, text, 4);
        assert_eq!(rejected.exit, ExitClass::Invalid, "{name}: {rejected:?}");
    }
}
