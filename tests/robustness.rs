//! Corruption-fuzz property test over the evaluation corpus: every seeded
//! byte-level corruption of every corpus trace must either be salvaged by
//! the lenient parser with diagnosed repairs (and the repair must be a
//! fixed point — re-parsing it yields no further diagnostics) or be
//! rejected with a clean typed `ParseTraceError` — never a panic. The
//! storm runner (`droidracer::fuzz::inject::storm`) wraps each parse in a
//! panic boundary and counts non-converging repairs as contract
//! violations too. A proptest then sends corrupted traces under any job
//! spec through `LocalService`, the front door the server runs.

use proptest::prelude::*;

use droidracer::apps::corpus;
use droidracer::core::{
    AnalysisService, ExitClass, HbMode, JobReport, JobSpec, LocalService, StreamOptions,
};
use droidracer::fuzz::inject::{corrupt, storm};
use droidracer::trace::{to_text, ChunkedReader, Repair};

/// Corruptions per corpus trace. Debug builds run a reduced storm so the
/// plain `cargo test` gate stays fast; CI's `Release test suites` step runs
/// the full 1,000 per trace in release mode.
const STORM_SIZE: u64 = if cfg!(debug_assertions) { 50 } else { 1_000 };

const AARD_TRACE: &str = include_str!("data/aard_dictionary.trace");

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
/// the batch submission, a streaming session (whose degenerate fallback
/// runs the batch engine), and a validating spec that rejects them up
/// front.
#[test]
fn invalid_but_parseable_traces_never_panic_the_engines() {
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
        let trace = droidracer::trace::from_text(text).expect("parseable");
        for chunk_ops in [1, 4, 64] {
            let mut session = spec.builder().streaming(StreamOptions::default());
            for piece in trace.ops().chunks(chunk_ops) {
                session.push_chunk(piece).expect("no budget");
            }
            let outcome = session.finish(trace.names()).expect("no budget").outcome;
            let streamed = JobReport::from_stream(&outcome, trace.names(), Vec::new());
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
    }
}

/// Traces that name a thread or task their declarations do not, with ids
/// so large that a table indexed by them could not be allocated: a begun
/// task, a forked thread and a posted task. The syntax pass refuses such an
/// op, so every front door ends in a typed report, and the process lives.
fn undeclared_id_traces() -> [(&'static str, String); 3] {
    let head = "droidracer-trace v1\n\
        thread t0 main initial \"main\"\n\
        task p0 \"a\"\n\
        op threadinit t0\n\
        op attachQ t0\n\
        op loopOnQ t0\n";
    [
        (
            "undeclared begun task",
            format!("{head}op post t0 p0 t0\nop begin t0 p400000000\nop end t0 p400000000\n"),
        ),
        (
            "undeclared forked thread",
            format!("{head}op fork t0 t300000000\nop threadinit t300000000\n"),
        ),
        (
            "undeclared posted task",
            format!("{head}op post t0 p400000000 t0\n"),
        ),
    ]
}

#[test]
fn undeclared_thread_and_task_ids_yield_typed_reports() {
    let mut service = LocalService::new();
    for (name, text) in undeclared_id_traces() {
        for validate in [false, true] {
            let strict = JobSpec {
                validate,
                ..JobSpec::default()
            };
            let report = service.submit(&strict, &text).expect("in-process submit");
            assert_eq!(report.exit, ExitClass::Invalid, "{name}: {report:?}");
            assert!(
                report.diagnostics.iter().any(|d| d.contains("undeclared")),
                "{name}: {report:?}"
            );
        }
        let lenient = JobSpec {
            lenient: true,
            ..JobSpec::default()
        };
        let report = service.submit(&lenient, &text).expect("in-process submit");
        assert_eq!(report.exit, ExitClass::Clean, "{name}: {report:?}");
        assert!(
            report.diagnostics.iter().any(|d| d.contains("undeclared")),
            "{name}: {report:?}"
        );

        let mut reader = ChunkedReader::new();
        let mut ops = reader.push_text(&text).expect("header present");
        let (names, rest, diags) = reader.finish().expect("header present");
        ops.extend(rest);
        assert!(
            !diags.is_empty() && diags.iter().all(|d| d.repair == Repair::SkipOp),
            "{name}: {diags:?}"
        );
        let mut session = JobSpec::default()
            .builder()
            .streaming(StreamOptions::default());
        session.push_chunk(&ops).expect("no budget");
        let outcome = session.finish(&names).expect("no budget").outcome;
        let streamed = JobReport::from_stream(&outcome, &names, Vec::new());
        assert_eq!(streamed.exit, ExitClass::Clean, "{name}: {streamed:?}");
    }
}

/// Every `HbMode` and both settings of each flag, with no cap or one small
/// enough that some corrupted Aard Dictionary traces (8,039 word-ops, 254
/// graph nodes when intact) blow it and some do not. No deadline: a wall
/// clock would make the outcome depend on the machine.
fn any_job_spec() -> impl Strategy<Value = JobSpec> {
    (
        0..HbMode::all().len(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop_oneof![Just(None), (0u64..16_384).prop_map(Some)],
        prop_oneof![Just(None), (0u64..262_144).prop_map(Some)],
    )
        .prop_map(
            |(mode, (merge_accesses, validate, lenient), max_ops, max_matrix_bits)| JobSpec {
                mode: HbMode::all()[mode],
                merge_accesses,
                validate,
                lenient,
                max_ops,
                max_matrix_bits,
                deadline_ms: None,
            },
        )
}

/// A closed stdout ends the CLI's output, not the process: with the pipe's
/// read end gone before the command writes, each command still exits with
/// the code it computed, and nothing panics.
#[test]
fn a_closed_stdout_ends_the_output_not_the_process() {
    let bin = env!("CARGO_BIN_EXE_droidracer");
    let aard = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/aard_dictionary.trace"
    );
    let commands: [(&[&str], i32); 4] = [
        (&["analyze", aard], 1),
        (&["validate", aard], 0),
        (&["stats", aard], 0),
        (&["corpus", "Aard Dictionary"], 0),
    ];
    for (args, code) in commands {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = std::process::Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any spec on any corrupted trace ends in a typed report through
    /// `LocalService`: no panic, no completed analysis past its op cap, and
    /// a cache record that decodes back to the same report.
    #[test]
    fn any_spec_on_a_corrupted_trace_yields_a_typed_report(
        seed in any::<u64>(),
        spec in any_job_spec(),
    ) {
        let (text, kind) = corrupt(AARD_TRACE, seed);
        let context = format!("{kind:?} corruption, seed {seed}, spec {}", spec.to_token());
        let report = LocalService::new().submit(&spec, &text).expect("in-process submit");
        if let (Some(cap), false) = (spec.max_ops, report.exit == ExitClass::Resource) {
            prop_assert!(
                report.stats.word_ops <= cap,
                "{context}: {} word-ops past the cap {cap}",
                report.stats.word_ops
            );
        }
        prop_assert_eq!(JobReport::from_record(&report.to_record()), Ok(report), "{context}");
    }
}
