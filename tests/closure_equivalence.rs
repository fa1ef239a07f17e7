//! The closure engine against the rules as written, and every closure
//! entry point against `compute`.
//!
//! [`Spec`] computes the happens-before relation from the rules of Figures
//! 6 and 7, FIFO, NOPRE and the §4.2 delay refinement as written, by a naive
//! fixpoint over trace operations that shares no code with the engine: no
//! node merging, no trace index, no base-edge builder, no sweep and no delay
//! table. It is the reference. [`HappensBefore::compute`]'s op-level
//! `ordered(i, j)` must equal the spec's on every op pair, in every
//! `HbMode`, merged and unmerged, and the engine's counters must partition
//! its relation. These tests pin that on the component corpus, on Aard
//! Dictionary and on proptest-generated random applications. The spec costs
//! `O(n³/64)` per round, so the larger corpus apps are left to
//! `stream_equivalence`, which holds the column engine's matrices to the
//! row engine's on all 15.
//!
//! Every other public closure entry point — over a prebuilt graph, budgeted,
//! with assumed edges, and through the session API — must reproduce
//! [`HappensBefore::compute`] bit for bit, every counter included: there is
//! one closure path.

use proptest::prelude::*;

use droidracer::apps::{component_corpus, corpus};
use droidracer::core::spec::Spec;
use droidracer::core::{
    AnalysisBuilder, Budget, HappensBefore, HbConfig, HbGraph, HbMode, RuleSet,
};
use droidracer::framework::{compile, App, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::{from_text, Trace};

const AARD_TRACE: &str = include_str!("data/aard_dictionary.trace");

/// Asserts `compute`, merged and unmerged, orders every op pair of `trace`
/// as the spec does under `rules`, and that its counters partition its
/// relation.
fn assert_matches_spec(trace: &Trace, rules: RuleSet, context: &str) {
    let trace = trace.without_cancelled();
    let spec = Spec::compute(&trace, rules);
    for merge_accesses in [true, false] {
        let hb = HappensBefore::compute(
            &trace,
            HbConfig {
                rules,
                merge_accesses,
            },
        );
        let (count, first) = spec.disagreements(|i, j| hb.ordered(i, j));
        assert_eq!(
            count, 0,
            "{context} / merge={merge_accesses}: {count} op pair(s) ordered unlike the spec, \
             first {first:?}"
        );
        let s = hb.stats();
        assert_eq!(
            s.base_edges + s.derived_edges(),
            hb.ordered_pairs(),
            "{context} / merge={merge_accesses}: counters do not partition the relation"
        );
    }
}

/// Asserts every other closure entry point reproduces `compute` on `trace`
/// under `config`: the same matrices and the same stats.
fn assert_entry_points_reproduce_compute(trace: &Trace, config: HbConfig, context: &str) {
    let trace = trace.without_cancelled();
    let hb = HappensBefore::compute(&trace, config);
    let index = trace.index();
    let graph = || HbGraph::build(&trace, &index, config.merge_accesses);
    let on_graph = HappensBefore::compute_on_graph(&trace, &index, graph(), config);
    let budgeted = HappensBefore::compute_on_graph_budgeted(
        &trace,
        &index,
        graph(),
        config,
        &Budget::unlimited(),
    )
    .expect("unlimited budget cannot exhaust");
    let assumed = HappensBefore::compute_with_assumed_edges(&trace, &index, config, &[]);
    let analysis = AnalysisBuilder::new()
        .config(config)
        .analyze(&trace)
        .expect("infallible without validation");
    for (entry, other) in [
        ("compute_on_graph", &on_graph),
        ("compute_on_graph_budgeted", &budgeted),
        ("compute_with_assumed_edges", &assumed),
        ("AnalysisBuilder::analyze", analysis.hb()),
    ] {
        assert_eq!(
            other.relation_matrices(),
            hb.relation_matrices(),
            "{context}: {entry} matrices differ from compute"
        );
        assert_eq!(other.stats(), hb.stats(), "{context}: {entry} stats");
    }
}

/// The seven component-corpus apps match the spec in every configuration.
#[test]
fn corpus_matches_reference_in_every_mode() {
    for entry in component_corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        for mode in HbMode::all() {
            assert_matches_spec(
                &trace,
                mode.rule_set(),
                &format!("{} / {mode:?}", entry.name),
            );
        }
    }
}

/// Aard Dictionary (1,343 ops) matches the spec in every configuration.
#[test]
fn aard_dictionary_matches_reference() {
    let trace = from_text(AARD_TRACE).expect("the golden trace parses");
    for mode in HbMode::all() {
        assert_matches_spec(
            &trace,
            mode.rule_set(),
            &format!("Aard Dictionary / {mode:?}"),
        );
    }
}

/// Every closure entry point reproduces `compute` on all 15 corpus apps in
/// every mode, and on Aard Dictionary unmerged.
#[test]
fn corpus_entry_points_reproduce_compute() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        for mode in HbMode::all() {
            let config = HbConfig::for_mode(mode);
            assert_entry_points_reproduce_compute(
                &trace,
                config,
                &format!("{} / {mode:?}", entry.name),
            );
        }
    }
    let trace = from_text(AARD_TRACE).expect("the golden trace parses");
    let config = HbConfig::new().without_merging();
    assert_entry_points_reproduce_compute(&trace, config, "Aard Dictionary unmerged");
}

/// The service front door delegates to `AnalysisBuilder`: submitting a
/// corpus trace's text through `LocalService` yields exactly the report the
/// builder's `Analysis` maps to — races, category counts, engine counters.
#[test]
fn local_service_matches_builder() {
    use droidracer::core::{AnalysisBuilder, AnalysisService, JobReport, JobSpec, LocalService};
    use droidracer::trace::to_text;
    let mut service = LocalService::new();
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        let report = service
            .submit(&JobSpec::default(), &to_text(&trace))
            .expect("local service is infallible");
        let built = AnalysisBuilder::new()
            .analyze(&trace)
            .expect("infallible without validation");
        assert_eq!(
            report,
            JobReport::from_analysis(&built, Vec::new()),
            "{}",
            entry.name
        );
        assert_eq!(
            report.stats.word_ops,
            built.hb().stats().word_ops,
            "{}",
            entry.name
        );
        assert_eq!(report.counts, built.counts(), "{}", entry.name);
    }
}

/// Derives a small valid app from fuzz bytes: handlers posting forward
/// (plain, delayed and front posts), a worker thread, locks, and shared
/// variables — enough surface to exercise FIFO, NOPRE, LOCK and both
/// transitivity rules.
fn build_app(bytes: &[u8]) -> (App, Vec<UiEvent>) {
    let mut pos = 0usize;
    let mut next = |n: usize| -> usize {
        let b = bytes.get(pos).copied().unwrap_or(0) as usize;
        pos += 1;
        if n == 0 {
            0
        } else {
            b % n
        }
    };
    let mut b = AppBuilder::new("ClosureFuzz");
    let act = b.activity("Main");
    let vars: Vec<_> = (0..1 + next(3))
        .map(|i| b.var("obj", format!("f{i}")))
        .collect();
    let leaf = |next: &mut dyn FnMut(usize) -> usize| -> Stmt {
        let v = vars[next(vars.len())];
        if next(2) == 0 {
            Stmt::Read(v)
        } else {
            Stmt::Write(v)
        }
    };
    let late = b.handler("late", vec![leaf(&mut next), leaf(&mut next)]);
    let mut mid_body = vec![leaf(&mut next)];
    if next(2) == 0 {
        mid_body.push(Stmt::Post {
            handler: late,
            delay: if next(3) == 0 { Some(20) } else { None },
            front: next(5) == 0,
        });
    }
    let mid = b.handler("mid", mid_body);
    let w = b.worker(
        "bg",
        vec![
            leaf(&mut next),
            Stmt::Post {
                handler: mid,
                delay: None,
                front: false,
            },
        ],
    );
    let mut on_create = vec![Stmt::ForkWorker(w), leaf(&mut next)];
    for _ in 0..next(3) {
        on_create.push(Stmt::Post {
            handler: mid,
            delay: if next(4) == 0 { Some(10) } else { None },
            front: false,
        });
    }
    b.on_create(act, on_create);
    let btn = b.button(act, "go", vec![leaf(&mut next)]);
    let mut events = Vec::new();
    for _ in 0..next(3) {
        events.push(UiEvent::Widget(btn, UiEventKind::Click));
    }
    (b.finish(), events)
}

fn simulate(bytes: &[u8], seed: u64) -> Trace {
    let (app, events) = build_app(bytes);
    let compiled = compile(&app, &events).expect("fuzzed apps compile");
    let result = run(
        &compiled.program,
        &mut RandomScheduler::new(seed),
        &SimConfig::default(),
    )
    .expect("fuzzed apps run");
    result.trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random traces match the spec, and every entry point reproduces
    /// `compute`, under every rule preset, merged and unmerged.
    #[test]
    fn random_traces_match_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        seed in 0u64..1000,
    ) {
        let trace = simulate(&bytes, seed);
        for mode in HbMode::all() {
            let context = format!("fuzz seed {seed} / {mode:?}");
            assert_matches_spec(&trace, mode.rule_set(), &context);
            for config in [HbConfig::for_mode(mode), HbConfig::for_mode(mode).without_merging()] {
                let context = format!("{context} / merge={}", config.merge_accesses);
                assert_entry_points_reproduce_compute(&trace, config, &context);
            }
        }
    }
}
