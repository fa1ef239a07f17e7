//! Replays the committed fuzz regression corpus through the full oracle
//! stack, and pins the coverage claim that justifies it: the fuzzer found
//! (and shrink preserved) an engine path — effective task cancellation —
//! that no trace of the static 15-app corpus exercises.

use std::path::Path;

use droidracer::apps::{component_corpus, corpus};
use droidracer::core::HbConfig;
use droidracer::fuzz::corpus::{load_regressions, replay_regressions, serial_executor_ordering};
use droidracer::trace::OpKind;

const REGRESSIONS: &str = "tests/data/fuzz_regressions";

/// Every committed regression trace passes the whole oracle stack clean:
/// engine differential, detector differential, HB invariants, partition.
#[test]
fn committed_regressions_replay_clean() {
    let results =
        replay_regressions(Path::new(REGRESSIONS), HbConfig::new()).expect("corpus loads");
    assert!(
        !results.is_empty(),
        "the regression corpus must not be empty"
    );
    for (path, divergences) in results {
        assert!(
            divergences.is_empty(),
            "{}: {divergences:?}",
            path.display()
        );
    }
}

/// The fuzz-found regression exercises *effective* cancellation — a cancel
/// that erases a pending post, changing the analyzed trace — which the
/// static corpus never does.
#[test]
fn cancel_regression_covers_what_the_static_corpus_does_not() {
    // No app in the static corpus ever emits a cancel operation.
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus traces generate");
        assert!(
            !trace
                .iter()
                .any(|(_, op)| matches!(op.kind, OpKind::Cancel { .. })),
            "{}: static corpus unexpectedly exercises cancel",
            entry.name
        );
    }

    // The committed fuzz regression does, and the cancel is effective: the
    // cancelled post is stripped before analysis.
    let regressions = load_regressions(Path::new(REGRESSIONS)).expect("corpus loads");
    let (path, trace) = regressions
        .iter()
        .find(|(p, _)| p.ends_with("cancel_pending_post.trace"))
        .expect("the cancel regression is committed");
    assert!(
        trace
            .iter()
            .any(|(_, op)| matches!(op.kind, OpKind::Cancel { .. })),
        "{}: must contain a cancel op",
        path.display()
    );
    let stripped = trace.without_cancelled();
    assert!(
        stripped.len() < trace.len(),
        "{}: the cancel must actually erase a pending post ({} vs {} ops)",
        path.display(),
        stripped.len(),
        trace.len()
    );
}

/// The component-substructure campaign committed one shrunk trace per
/// component tag; all four must stay in the corpus (replayed clean by
/// `committed_regressions_replay_clean` above).
#[test]
fn all_four_component_regressions_are_committed() {
    let regressions = load_regressions(Path::new(REGRESSIONS)).expect("corpus loads");
    for tag in ["service", "fragment", "serial_executor", "broadcast"] {
        assert!(
            regressions
                .iter()
                .any(|(p, _)| p.ends_with(format!("component_{tag}.trace"))),
            "component_{tag}.trace is missing from {REGRESSIONS}"
        );
    }
}

/// The serial-executor regression exercises an ordering shape the whole
/// static catalog — the 15 paper apps *and* the 7 component apps — never
/// reaches: a plain *application* thread that is never itself posted to
/// delivering two tasks to the same non-main queue, so the FIFO rule
/// orders work on a dedicated serial executor. The catalog's cross-queue
/// fan-out always originates from environment binder threads or from the
/// main looper, so only the fuzzer covers this path.
#[test]
fn serial_executor_regression_covers_what_the_static_corpus_does_not() {
    let mut entries = corpus();
    entries.extend(component_corpus());
    for entry in entries {
        let trace = entry.generate_trace().expect("corpus traces generate");
        assert!(
            !serial_executor_ordering(&trace),
            "{}: static corpus unexpectedly exercises serial-executor ordering",
            entry.name
        );
    }

    let regressions = load_regressions(Path::new(REGRESSIONS)).expect("corpus loads");
    let (path, trace) = regressions
        .iter()
        .find(|(p, _)| p.ends_with("component_serial_executor.trace"))
        .expect("the serial-executor regression is committed");
    assert!(
        serial_executor_ordering(trace),
        "{}: must exhibit the serial-executor ordering shape",
        path.display()
    );
}
