//! Parallel ≡ sequential equivalence suite for the detection pipeline.
//!
//! The `droidracer_core::par` determinism contract says a parallel run is
//! *bit-identical* to the sequential one — same races, same order, same
//! counts, same engine counters, same rendered report — for every thread
//! count. These tests pin that contract across all three parallel entry
//! points (corpus analysis, plain and fault-isolated; UI exploration;
//! explorer campaigns) on the full corpus and on proptest-generated random
//! applications, for `n_threads ∈ {1, 2, 8}`.

use proptest::prelude::*;

use droidracer::apps::{
    analyze_corpus_isolated, analyze_corpus_parallel, corpus, open_source_corpus,
};
use droidracer::core::{analyze_all, par_map, Analysis, AnalysisBuilder, Budget};
use droidracer::explorer::{run_campaign, run_campaign_parallel, ExplorerConfig};
use droidracer::framework::{compile, App, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::Trace;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Full bit-level comparison of two analyses of the same trace.
fn assert_analyses_identical(p: &Analysis, s: &Analysis, context: &str) {
    assert_eq!(p.races(), s.races(), "{context}: race lists differ");
    assert_eq!(
        p.representatives(),
        s.representatives(),
        "{context}: representatives differ"
    );
    assert_eq!(p.counts(), s.counts(), "{context}: category counts differ");
    assert_eq!(
        p.hb().stats(),
        s.hb().stats(),
        "{context}: engine counters differ"
    );
    assert_eq!(
        p.hb().ordered_pairs(),
        s.hb().ordered_pairs(),
        "{context}: relation sizes differ"
    );
    assert_eq!(p.render(), s.render(), "{context}: rendered reports differ");
}

#[test]
fn corpus_analysis_is_identical_across_thread_counts() {
    let entries = corpus();
    let sequential: Vec<_> = entries
        .iter()
        .map(|e| e.analyze().expect("corpus entries analyze"))
        .collect();
    for threads in THREAD_COUNTS {
        let parallel = analyze_corpus_parallel(&entries, threads)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()));
        // The fault-isolated run under an unlimited budget must quarantine
        // nothing on the clean corpus and change no report.
        let isolated = analyze_corpus_isolated(&entries, threads, &Budget::unlimited())
            .into_iter()
            .map(|r| r.map_err(|q| q.to_string()));
        let runs: [(&str, Vec<_>); 2] = [
            ("parallel", parallel.collect()),
            ("isolated", isolated.collect()),
        ];
        for (kind, reports) in runs {
            assert_eq!(
                reports.len(),
                sequential.len(),
                "{kind} at {threads} threads"
            );
            for ((entry, p), s) in entries.iter().zip(reports).zip(&sequential) {
                let context = format!("{} at {} threads ({kind})", entry.name, threads);
                let p = p.unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_eq!(p.stats, s.stats, "{context}: trace stats differ");
                assert_eq!(p.reported, s.reported, "{context}: reported differ");
                assert_eq!(p.verified, s.verified, "{context}: verified differ");
                assert_analyses_identical(&p.analysis, &s.analysis, &context);
            }
        }
    }
}

#[test]
fn exploration_is_identical_across_thread_counts() {
    // Exploration multiplies work by the sequence count; three small
    // open-source apps keep the suite fast while still covering posts,
    // delays and background threads.
    for entry in open_source_corpus().into_iter().take(3) {
        let sequential = entry.explore(2, 12).expect("exploration runs");
        for threads in THREAD_COUNTS {
            let parallel = entry
                .explore_with_threads(2, 12, threads)
                .expect("exploration runs");
            let context = format!("{} at {} threads", entry.name, threads);
            assert_eq!(parallel.tests, sequential.tests, "{context}");
            assert_eq!(parallel.racy_tests, sequential.racy_tests, "{context}");
            assert_eq!(
                parallel.racy_locations, sequential.racy_locations,
                "{context}"
            );
            assert_eq!(parallel.union, sequential.union, "{context}");
        }
    }
}

#[test]
fn campaigns_are_identical_across_thread_counts() {
    let mut b = AppBuilder::new("Campaign");
    let act = b.activity("Main");
    let v = b.var("o", "C.f");
    let w = b.worker("bg", vec![Stmt::Write(v)]);
    let h = b.handler("tick", vec![Stmt::Read(v)]);
    b.on_create(
        act,
        vec![
            Stmt::ForkWorker(w),
            Stmt::Post {
                handler: h,
                delay: None,
                front: false,
            },
        ],
    );
    b.button(act, "go", vec![Stmt::Write(v)]);
    let app = b.finish();
    let config = ExplorerConfig {
        max_depth: 2,
        ..ExplorerConfig::default()
    };
    let sequential = run_campaign(&app, &config).expect("campaign runs");
    for threads in THREAD_COUNTS {
        let parallel = run_campaign_parallel(&app, &config, threads).expect("campaign runs");
        assert_eq!(parallel.db.len(), sequential.db.len());
        for (p, s) in parallel.db.entries().iter().zip(sequential.db.entries()) {
            assert_eq!(p.id, s.id, "{threads} threads");
            assert_eq!(p.events, s.events, "{threads} threads");
            assert_eq!(p.seed, s.seed, "{threads} threads");
            assert_eq!(p.decisions, s.decisions, "{threads} threads");
            assert_eq!(p.completed, s.completed, "{threads} threads");
            assert_eq!(p.trace_len, s.trace_len, "{threads} threads");
        }
        for ((pe, pr), (se, sr)) in parallel.runs.iter().zip(&sequential.runs) {
            assert_eq!(pe, se, "{threads} threads: event sequences differ");
            assert_eq!(
                pr.trace.ops(),
                sr.trace.ops(),
                "{threads} threads: traces differ"
            );
        }
    }
}

/// Derives a small valid app from fuzz bytes: a couple of handlers posting
/// forward, a worker, shared variables, and a click sequence. Construction
/// keeps compilation total, so every generated trace is feasible.
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
    let mut b = AppBuilder::new("ParFuzz");
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
    let mut early_body = vec![leaf(&mut next)];
    if next(2) == 0 {
        early_body.push(Stmt::Post {
            handler: late,
            delay: if next(3) == 0 { Some(20) } else { None },
            front: next(5) == 0,
        });
    }
    let early = b.handler("early", early_body);
    let w = b.worker(
        "bg",
        vec![
            leaf(&mut next),
            Stmt::Post {
                handler: late,
                delay: None,
                front: false,
            },
        ],
    );
    let mut on_create = vec![Stmt::ForkWorker(w), leaf(&mut next)];
    for _ in 0..next(3) {
        on_create.push(Stmt::Post {
            handler: early,
            delay: None,
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch of random traces analyzed through the pool is bit-identical
    /// to the sequential map, for every thread count.
    #[test]
    fn random_trace_batches_are_identical(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..8),
        seed in 0u64..1000,
    ) {
        let traces: Vec<Trace> = blobs
            .iter()
            .enumerate()
            .map(|(i, bytes)| simulate(bytes, seed.wrapping_add(i as u64)))
            .collect();
        let sequential: Vec<Analysis> = traces.iter().map(|t| AnalysisBuilder::new().analyze(t).unwrap()).collect();
        for threads in THREAD_COUNTS {
            let parallel = analyze_all(&traces, threads);
            prop_assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_analyses_identical(p, s, &format!("trace {i} at {threads} threads"));
            }
        }
    }

    /// `par_map` itself is order-preserving for arbitrary inputs.
    #[test]
    fn par_map_preserves_order(
        items in proptest::collection::vec(any::<u64>(), 0..64),
        threads in 1usize..9,
    ) {
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31).wrapping_add(7)).collect();
        let got = par_map(&items, threads, |x| x.wrapping_mul(31).wrapping_add(7));
        prop_assert_eq!(got, expected);
    }
}
