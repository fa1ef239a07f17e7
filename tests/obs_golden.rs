//! Golden and schema tests for the observability layer (PR 3).
//!
//! Pins three contracts end to end, through the public facade:
//!
//! 1. the span-tree text renderer's exact output on a fixed-time tree
//!    (golden — any formatting change must update the expectation here);
//! 2. the Chrome `trace_event` export is valid JSON with the documented
//!    event schema, and the `droidracer analyze --profile` binary emits a
//!    profile covering all five pipeline phases for every corpus app;
//! 3. determinism: the exported profile of a corpus analysis is
//!    bit-identical at 1, 2 and 8 worker threads once wall-clock fields
//!    are stripped, and the `MetricsRegistry` view of the engine counters
//!    matches the raw `EngineStats` exactly.

use droidracer::apps::corpus;
use droidracer::core::{analyze_all_profiled, HbConfig};
use droidracer::obs::json::Json;
use droidracer::obs::{
    chrome_trace, render_span_tree, strip_wall_clock, MetricsRegistry, SpanRecord,
};
use droidracer::trace::{to_text, Trace};

/// A synthetic profile with pinned times: the CLI's `analyze` shape.
fn fixed_tree() -> SpanRecord {
    let mut root = SpanRecord::leaf("analyze");
    root.dur_ns = 3_210_000;
    let mut parse = SpanRecord::leaf("parse");
    parse.start_ns = 10_000;
    parse.dur_ns = 520_000;
    parse.counters.push(("ops".to_owned(), 1355));
    let mut analysis = SpanRecord::leaf("analysis");
    analysis.start_ns = 540_000;
    analysis.dur_ns = 2_400_000;
    let mut prepare = SpanRecord::leaf("prepare");
    prepare.start_ns = 550_000;
    prepare.dur_ns = 110_000;
    prepare.counters.push(("ops".to_owned(), 1355));
    let mut closure = SpanRecord::leaf("closure");
    closure.start_ns = 700_000;
    closure.dur_ns = 1_800_000;
    closure.counters.push(("word_ops".to_owned(), 12803));
    analysis.children.push(prepare);
    analysis.children.push(closure);
    root.children.push(parse);
    root.children.push(analysis);
    root
}

#[test]
fn span_tree_renders_golden_output() {
    let expected = "\
analyze           3.21 ms
├─ parse         520.0 µs  ops=1355
└─ analysis       2.40 ms
   ├─ prepare    110.0 µs  ops=1355
   └─ closure     1.80 ms  word_ops=12803
";
    assert_eq!(render_span_tree(&fixed_tree()), expected);
}

#[test]
fn chrome_trace_export_matches_schema() {
    let mut metrics = MetricsRegistry::new();
    metrics.counter_add("hb.word_ops", 12803);
    metrics.observe("trace.ops", 1355);
    metrics.gauge_set("time.total_ms", 3.21);
    let tree = fixed_tree();
    let doc = chrome_trace(std::slice::from_ref(&tree), &metrics);
    let json = Json::parse(&doc).expect("export is valid JSON");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // Every span becomes one "X" event; counter + histogram become "C"
    // events; the gauge is deliberately excluded (wall-clock by convention).
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let counters: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .collect();
    assert_eq!(spans.len(), tree.span_count());
    assert_eq!(counters.len(), 2);
    for event in events {
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(event.get("cat").and_then(Json::as_str).is_some());
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("pid").and_then(Json::as_f64).is_some());
        assert!(event.get("tid").and_then(Json::as_f64).is_some());
        assert!(event.get("args").is_some());
    }
    let closure = spans
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("closure"))
        .expect("closure span exported");
    assert_eq!(
        closure
            .get("args")
            .unwrap()
            .get("word_ops")
            .unwrap()
            .as_f64(),
        Some(12803.0)
    );
}

/// `droidracer analyze <trace> --profile out.json` emits a valid Chrome
/// trace-event profile covering all five pipeline phases, for every one of
/// the 15 corpus apps (the PR's acceptance criterion, also enforced in CI
/// on one app).
#[test]
fn cli_profile_covers_five_phases_on_every_corpus_app() {
    let bin = env!("CARGO_BIN_EXE_droidracer");
    let dir = std::env::temp_dir();
    let entries = corpus();
    assert_eq!(entries.len(), 15);
    for entry in entries {
        let trace = entry.generate_trace().expect("corpus entries generate");
        let slug: String = entry
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let trace_path = dir.join(format!("dr_obs_{slug}.trace"));
        let profile_path = dir.join(format!("dr_obs_{slug}.profile.json"));
        std::fs::write(&trace_path, to_text(&trace)).expect("write trace file");
        let out = std::process::Command::new(bin)
            .arg("analyze")
            .arg(&trace_path)
            .arg("--profile")
            .arg(&profile_path)
            .output()
            .expect("binary runs");
        // Exit 1 = races found (expected on the corpus); anything else is a
        // real failure.
        assert!(
            matches!(out.status.code(), Some(0) | Some(1)),
            "{}: exit {:?}\n{}",
            entry.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&profile_path).expect("profile written");
        let json = Json::parse(&doc).expect("profile is valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        for phase in ["parse", "graph", "closure", "detect", "report"] {
            assert!(
                names.contains(&phase),
                "{}: profile missing the `{phase}` phase span; has {names:?}",
                entry.name
            );
        }
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&profile_path);
    }
}

/// Traces small enough to analyze three times over in a debug build; the
/// release-mode pipeline bench runs the same check on the full corpus.
fn small_corpus_traces() -> Vec<Trace> {
    let traces: Vec<Trace> = corpus()
        .iter()
        .filter_map(|e| e.generate_trace().ok())
        .filter(|t| t.len() <= 25_000)
        .collect();
    assert!(traces.len() >= 5, "determinism check needs several apps");
    traces
}

#[test]
fn profiled_corpus_export_is_thread_count_invariant() {
    let traces = small_corpus_traces();
    let (analyses1, span1) = analyze_all_profiled(&traces, 1, HbConfig::new());
    let mut registry1 = MetricsRegistry::new();
    for a in &analyses1 {
        registry1.absorb(&a.metrics());
    }
    let base = strip_wall_clock(&chrome_trace(std::slice::from_ref(&span1), &registry1));
    for threads in [2usize, 8] {
        let (analyses, span) = analyze_all_profiled(&traces, threads, HbConfig::new());
        assert_eq!(
            span.structure(),
            span1.structure(),
            "{threads}-thread span structure diverged"
        );
        let mut registry = MetricsRegistry::new();
        for a in &analyses {
            registry.absorb(&a.metrics());
        }
        let stripped = strip_wall_clock(&chrome_trace(std::slice::from_ref(&span), &registry));
        assert_eq!(stripped, base, "{threads}-thread export diverged");
    }
}

/// The `MetricsRegistry` view of the engine counters is the raw
/// `EngineStats`, unchanged — summed across apps by `absorb`.
#[test]
fn registry_mirrors_engine_stats_across_corpus() {
    let traces = small_corpus_traces();
    let (analyses, _) = analyze_all_profiled(&traces, 2, HbConfig::new());
    let mut registry = MetricsRegistry::new();
    for a in &analyses {
        registry.absorb(&a.metrics());
    }
    let word_ops: u64 = analyses.iter().map(|a| a.hb().stats().word_ops).sum();
    let base_edges: u64 = analyses
        .iter()
        .map(|a| a.hb().stats().base_edges as u64)
        .sum();
    let rounds: u64 = analyses.iter().map(|a| a.hb().stats().rounds as u64).sum();
    assert_eq!(registry.counter("hb.word_ops"), Some(word_ops));
    assert_eq!(registry.counter("hb.base_edges"), Some(base_edges));
    assert_eq!(registry.counter("hb.rounds"), Some(rounds));
}
