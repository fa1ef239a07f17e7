//! End-to-end pipeline tests: UI Explorer → Trace Generator → Race
//! Detector, with replay, semantics validation (E6) and baseline
//! cross-checks.

use std::collections::BTreeSet;

use droidracer::core::{vc, AnalysisBuilder, HbMode};
use droidracer::explorer::{enumerate_sequences, run_campaign, run_sequence, ExplorerConfig};
use droidracer::framework::{App, AppBuilder, Stmt, UiEventKind};
use droidracer::trace::{validate, MemLoc};

fn two_screen_app() -> App {
    let mut b = AppBuilder::new("PipelineApp");
    let home = b.activity("Home");
    let detail = b.activity("Detail");
    let counter = b.var("Home-obj", "counter");
    let cache = b.var("Cache-obj", "entries");
    let warmup = b.worker("cache-warmer", vec![Stmt::Write(cache)]);
    b.on_create(home, vec![Stmt::Write(counter), Stmt::ForkWorker(warmup)]);
    b.on_destroy(home, vec![Stmt::Read(counter)]);
    b.button(home, "inc", vec![Stmt::Write(counter)]);
    b.button(home, "open", vec![Stmt::StartActivity(detail)]);
    b.button(detail, "readCache", vec![Stmt::Read(cache)]);
    b.finish()
}

#[test]
fn every_explored_trace_satisfies_the_semantics() {
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 40,
        ..ExplorerConfig::default()
    };
    let campaign = run_campaign(&app, &config).expect("campaign runs");
    assert!(campaign.runs.len() >= 10);
    for (events, result) in &campaign.runs {
        assert_eq!(validate(&result.trace), Ok(()), "sequence {events:?}");
    }
}

#[test]
fn campaign_finds_the_cache_race_in_some_test() {
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 40,
        ..ExplorerConfig::default()
    };
    let campaign = run_campaign(&app, &config).expect("campaign runs");
    let mut racy = 0;
    for (_, result) in &campaign.runs {
        if !AnalysisBuilder::new()
            .analyze(&result.trace)
            .unwrap()
            .races()
            .is_empty()
        {
            racy += 1;
        }
    }
    assert!(racy > 0, "the cache-warmer race must surface");
}

#[test]
fn replay_is_bit_identical_for_every_recorded_test() {
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 12,
        seed: 31,
        ..ExplorerConfig::default()
    };
    let campaign = run_campaign(&app, &config).expect("campaign runs");
    for id in 0..campaign.db.len() {
        let replayed = campaign
            .db
            .replay(&app, id)
            .expect("entry exists")
            .expect("replay runs");
        assert_eq!(
            replayed.trace.ops(),
            campaign.runs[id].1.trace.ops(),
            "entry {id}"
        );
    }
}

#[test]
fn deeper_exploration_extends_shallower() {
    let app = two_screen_app();
    let shallow = enumerate_sequences(
        &app,
        &ExplorerConfig {
            max_depth: 1,
            max_sequences: 1000,
            ..ExplorerConfig::default()
        },
    );
    let deep = enumerate_sequences(
        &app,
        &ExplorerConfig {
            max_depth: 2,
            max_sequences: 100_000,
            ..ExplorerConfig::default()
        },
    );
    for s in &shallow {
        assert!(deep.contains(s), "depth-2 enumeration contains {s:?}");
    }
    assert!(deep.len() > shallow.len());
}

#[test]
fn vector_clock_matches_graph_mt_baseline_on_explored_traces() {
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 15,
        ..ExplorerConfig::default()
    };
    for events in enumerate_sequences(&app, &config) {
        let result = run_sequence(&app, &events, &config).expect("runs");
        let vc_locs: BTreeSet<MemLoc> = vc::detect_multithreaded(&result.trace)
            .iter()
            .map(|r| r.loc)
            .collect();
        let graph_locs: BTreeSet<MemLoc> = AnalysisBuilder::new()
            .mode(HbMode::MultithreadedOnly)
            .analyze(&result.trace)
            .unwrap()
            .races()
            .iter()
            .map(|cr| cr.race.loc)
            .collect();
        assert_eq!(vc_locs, graph_locs, "sequence {events:?}");
    }
}

#[test]
fn full_mode_races_are_a_subset_of_events_as_threads() {
    // Dropping FIFO/run-to-completion/enable edges only removes orderings,
    // so every race under the full relation survives under the
    // events-as-threads baseline.
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 15,
        ..ExplorerConfig::default()
    };
    for events in enumerate_sequences(&app, &config) {
        let result = run_sequence(&app, &events, &config).expect("runs");
        let full: BTreeSet<MemLoc> = AnalysisBuilder::new()
            .analyze(&result.trace)
            .unwrap()
            .races()
            .iter()
            .map(|cr| cr.race.loc)
            .collect();
        let baseline: BTreeSet<MemLoc> = AnalysisBuilder::new()
            .mode(HbMode::EventsAsThreads)
            .analyze(&result.trace)
            .unwrap()
            .races()
            .iter()
            .map(|cr| cr.race.loc)
            .collect();
        assert!(
            full.is_subset(&baseline),
            "sequence {events:?}: full ⊆ events-as-threads violated"
        );
    }
}

#[test]
fn text_format_roundtrips_explored_traces() {
    let app = two_screen_app();
    let config = ExplorerConfig {
        max_depth: 1,
        ..ExplorerConfig::default()
    };
    for events in enumerate_sequences(&app, &config) {
        let result = run_sequence(&app, &events, &config).expect("runs");
        let text = droidracer::trace::to_text(&result.trace);
        let back = droidracer::trace::from_text(&text).expect("parses");
        assert_eq!(back.ops(), result.trace.ops());
        // The round-tripped trace analyzes identically.
        let a = AnalysisBuilder::new().analyze(&result.trace).unwrap();
        let b = AnalysisBuilder::new().analyze(&back).unwrap();
        assert_eq!(a.races(), b.races());
    }
}

#[test]
fn long_click_and_text_input_events_flow_through() {
    let mut b = AppBuilder::new("Inputs");
    let act = b.activity("Form");
    let text = b.var("Form-obj", "emailText");
    b.widget(
        act,
        "emailField",
        vec![
            (UiEventKind::TextInput, vec![Stmt::Write(text)]),
            (UiEventKind::LongClick, vec![Stmt::Read(text)]),
        ],
    );
    let app = b.finish();
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 50,
        ..ExplorerConfig::default()
    };
    let seqs = enumerate_sequences(&app, &config);
    // Both event kinds appear in the enumeration.
    let kinds: BTreeSet<String> = seqs.iter().flatten().map(|e| format!("{e}")).collect();
    assert!(kinds.iter().any(|k| k.contains("text")), "{kinds:?}");
    assert!(kinds.iter().any(|k| k.contains("long-click")), "{kinds:?}");
    for events in &seqs {
        let result = run_sequence(&app, events, &config).expect("runs");
        assert_eq!(validate(&result.trace), Ok(()));
    }
}
