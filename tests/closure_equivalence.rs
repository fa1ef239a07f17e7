//! Differential suite for the incremental worklist closure engine.
//!
//! The engine (sparse row-bounded bit-matrices, a dirty-node worklist and
//! one FIFO/NOPRE sweep per looper) is a pure performance change: for every
//! trace and every rule configuration the closed `st`/`mt` matrices must be
//! *bit-identical* to the retained naive reference saturation with its
//! pair-wise generator rules ([`HappensBefore::compute_reference`]). Base
//! edges, TRANS-MT edges, rounds and the relation size must match exactly.
//! The sweep fires only the generator edges nothing else implies and leaves
//! the rest to TRANS-ST, so per rule the counters differ: the sum
//! `fifo_fired + nopre_fired + trans_st_edges` must match, the firings may
//! only fall short of the reference's, and on each side the counters must
//! partition the relation. These tests pin that contract on the 15-app
//! corpus, on every `HbMode`, and on proptest-generated random
//! applications.
//!
//! Every other public closure entry point — over a prebuilt graph, budgeted,
//! with assumed edges, and through the session API — must reproduce
//! [`HappensBefore::compute`] bit for bit, every counter included: there is
//! one closure path, and this suite pins it to the spec.

use proptest::prelude::*;

use droidracer::apps::corpus;
use droidracer::core::{AnalysisBuilder, Budget, HappensBefore, HbConfig, HbGraph, HbMode};
use droidracer::framework::{compile, App, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::Trace;

/// Asserts the incremental engine reproduces the reference saturation on
/// `trace` under `config`, bit for bit, and that every other entry point
/// reproduces the incremental engine.
fn assert_closure_equivalent(trace: &Trace, config: HbConfig, context: &str) {
    let trace = trace.without_cancelled();
    let incremental = HappensBefore::compute(&trace, config);
    let reference = HappensBefore::compute_reference(&trace, config);
    let (inc_primary, inc_mt) = incremental.relation_matrices();
    let (ref_primary, ref_mt) = reference.relation_matrices();
    assert_eq!(
        inc_primary, ref_primary,
        "{context}: st/plain matrix differs from reference"
    );
    assert_eq!(
        inc_mt, ref_mt,
        "{context}: mt matrix differs from reference"
    );
    let (i, r) = (incremental.stats(), reference.stats());
    assert_eq!(i.base_edges, r.base_edges, "{context}: base edges");
    assert_eq!(i.trans_mt_edges, r.trans_mt_edges, "{context}: TRANS-MT");
    assert_eq!(i.rounds, r.rounds, "{context}: fixpoint rounds");
    assert_eq!(
        incremental.ordered_pairs(),
        reference.ordered_pairs(),
        "{context}: relation size"
    );
    assert_eq!(
        i.fifo_fired + i.nopre_fired + i.trans_st_edges,
        r.fifo_fired + r.nopre_fired + r.trans_st_edges,
        "{context}: FIFO + NOPRE + TRANS-ST"
    );
    assert!(
        i.fifo_fired + i.nopre_fired <= r.fifo_fired + r.nopre_fired,
        "{context}: generator firings {} + {} exceed the reference's {} + {}",
        i.fifo_fired,
        i.nopre_fired,
        r.fifo_fired,
        r.nopre_fired
    );
    for (side, hb) in [("incremental", &incremental), ("reference", &reference)] {
        let s = hb.stats();
        assert_eq!(
            s.base_edges + s.derived_edges(),
            hb.ordered_pairs(),
            "{context}: {side} counters do not partition the relation"
        );
    }

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
    for (entry, hb) in [
        ("compute_on_graph", &on_graph),
        ("compute_on_graph_budgeted", &budgeted),
        ("compute_with_assumed_edges", &assumed),
        ("AnalysisBuilder::analyze", analysis.hb()),
    ] {
        assert_eq!(
            hb.relation_matrices(),
            incremental.relation_matrices(),
            "{context}: {entry} matrices differ from compute"
        );
        assert_eq!(hb.stats(), incremental.stats(), "{context}: {entry} stats");
    }
}

/// Every corpus app, analyzed under the production configuration, closes to
/// the same relation as the reference engine.
#[test]
fn corpus_matches_reference_in_full_mode() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        assert_closure_equivalent(&trace, HbConfig::new(), entry.name);
    }
}

/// All five rule presets agree with the reference. The whole-matrix
/// reference saturation scales with n² per round, so the all-modes sweep
/// runs on the corpus apps whose graphs stay small enough for five
/// reference closures in a debug build; the full-size apps are covered in
/// `corpus_matches_reference_in_full_mode` and by the CI word-ops budget.
#[test]
fn corpus_matches_reference_in_every_mode() {
    let mut checked = 0usize;
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        if trace.len() > 25_000 {
            continue;
        }
        for mode in HbMode::all() {
            let config = HbConfig {
                rules: mode.rule_set(),
                merge_accesses: true,
            };
            assert_closure_equivalent(&trace, config, &format!("{} / {mode:?}", entry.name));
        }
        checked += 1;
    }
    assert!(checked >= 5, "mode sweep must cover several corpus apps");
}

/// The unmerged graph (every op its own node) exercises much larger
/// matrices per op; one corpus app suffices to cover merge_accesses=false.
#[test]
fn unmerged_graph_matches_reference() {
    let entry = &corpus()[0];
    let trace = entry.generate_trace().expect("corpus entries generate");
    let config = HbConfig::new().without_merging();
    assert_closure_equivalent(&trace, config, &format!("{} unmerged", entry.name));
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

    /// Random traces close identically under every rule preset, merged and
    /// unmerged.
    #[test]
    fn random_traces_match_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        seed in 0u64..1000,
    ) {
        let trace = simulate(&bytes, seed);
        for mode in HbMode::all() {
            for merge in [true, false] {
                let config = HbConfig {
                    rules: mode.rule_set(),
                    merge_accesses: merge,
                };
                assert_closure_equivalent(
                    &trace,
                    config,
                    &format!("fuzz seed {seed} / {mode:?} / merge={merge}"),
                );
            }
        }
    }
}
