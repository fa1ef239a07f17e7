//! DSL-faithfulness differential tests.
//!
//! The compiler's Activity lowering is derived from the declarative
//! [`droidracer::framework::dsl::ACTIVITY`] automaton. These tests prove the
//! derivation changes nothing: a hand-built plan transcribing the original
//! hard-coded lowering is equal to the DSL-derived one, and compiling every
//! corpus application through either plan yields bit-identical traces and
//! identical race reports under every happens-before mode.

use droidracer::apps::{component_corpus, corpus, strip_untracked, CorpusEntry};
use droidracer::core::{AnalysisBuilder, HbMode};
use droidracer::framework::lifecycle::Callback;
use droidracer::framework::{compile_with_activity_plan, ActivityPlan, LifecycleTask, PlanTask};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::{to_text, Trace};

/// The original hand-coded Activity lowering, transcribed literally: which
/// callbacks each lifecycle transition runs and which transitions it
/// enables on completion. This is the plan the compiler used before the
/// DSL existed; it must never drift from [`ActivityPlan::from_dsl`].
fn legacy_plan() -> ActivityPlan {
    let t = |task, runs: &[Callback], enables: &[LifecycleTask], initial| PlanTask {
        task,
        runs: runs.to_vec(),
        enables: enables.to_vec(),
        initial,
    };
    ActivityPlan {
        tasks: vec![
            t(
                LifecycleTask::Launch,
                &[Callback::Create, Callback::Start, Callback::Resume],
                &[LifecycleTask::Pause, LifecycleTask::Destroy],
                true,
            ),
            t(
                LifecycleTask::Pause,
                &[Callback::Pause],
                &[LifecycleTask::Stop, LifecycleTask::Resume],
                false,
            ),
            t(
                LifecycleTask::Stop,
                &[Callback::Stop],
                &[LifecycleTask::Relaunch],
                false,
            ),
            t(
                LifecycleTask::Destroy,
                &[Callback::Destroy],
                &[LifecycleTask::Launch],
                false,
            ),
            t(
                LifecycleTask::Resume,
                &[Callback::Resume],
                &[LifecycleTask::Pause, LifecycleTask::Destroy],
                false,
            ),
            t(
                LifecycleTask::Relaunch,
                &[Callback::Restart, Callback::Start, Callback::Resume],
                &[LifecycleTask::Pause, LifecycleTask::Destroy],
                false,
            ),
        ],
    }
}

/// Compiles and runs `entry` under an explicit activity plan, mirroring
/// [`CorpusEntry::generate_trace`] exactly (same scheduler, seed, step
/// bound and untracked stripping).
fn trace_with_plan(entry: &CorpusEntry, plan: &ActivityPlan) -> Trace {
    let compiled =
        compile_with_activity_plan(&entry.app, &entry.events, plan).expect("entry compiles");
    let result = run(
        &compiled.program,
        &mut RandomScheduler::new(entry.seed),
        &SimConfig { max_steps: 600_000 },
    )
    .expect("entry simulates");
    assert!(result.completed, "{}: run did not complete", entry.name);
    strip_untracked(&result.trace)
}

fn full_catalog() -> Vec<CorpusEntry> {
    let mut entries = corpus();
    entries.extend(component_corpus());
    entries
}

#[test]
fn dsl_plan_equals_the_hand_coded_lowering() {
    assert_eq!(ActivityPlan::from_dsl(), legacy_plan());
}

#[test]
fn dsl_traces_are_bit_identical_across_the_catalog() {
    let dsl = ActivityPlan::from_dsl();
    let legacy = legacy_plan();
    for entry in full_catalog() {
        let a = trace_with_plan(&entry, &dsl);
        let b = trace_with_plan(&entry, &legacy);
        assert_eq!(
            to_text(&a),
            to_text(&b),
            "{}: DSL-compiled trace diverges from the legacy lowering",
            entry.name
        );
        // The default compile() path is the DSL plan; the entry's own trace
        // must be the same artifact.
        let own = entry.generate_trace().expect("entry runs");
        assert_eq!(
            to_text(&a),
            to_text(&own),
            "{}: generate_trace differs",
            entry.name
        );
    }
}

#[test]
fn dsl_race_reports_match_under_every_hb_mode() {
    let dsl = ActivityPlan::from_dsl();
    let legacy = legacy_plan();
    for entry in full_catalog() {
        let a = trace_with_plan(&entry, &dsl);
        let b = trace_with_plan(&entry, &legacy);
        for mode in HbMode::all() {
            let ra = AnalysisBuilder::new()
                .mode(mode)
                .analyze(&a)
                .expect("analysis");
            let rb = AnalysisBuilder::new()
                .mode(mode)
                .analyze(&b)
                .expect("analysis");
            assert_eq!(
                ra.races(),
                rb.races(),
                "{} under {mode:?}: race sets diverge",
                entry.name
            );
            assert_eq!(
                ra.representatives(),
                rb.representatives(),
                "{} under {mode:?}: representatives diverge",
                entry.name
            );
        }
    }
}
