//! Property-based tests spanning the whole pipeline: random app models are
//! compiled, simulated under random schedules, validated against the
//! operational semantics (experiment E6), and analyzed under every
//! happens-before mode, checking the invariants that relate them.

use proptest::prelude::*;
use std::collections::BTreeSet;

use droidracer::core::{
    classify, detect, vc, Analysis, AnalysisBuilder, ClassifiedRace, HappensBefore, HbConfig,
    HbMode, RaceCategory, StreamOptions, StreamingAnalysis,
};
use droidracer::framework::{compile, App, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::{validate, ChunkedReader, MemLoc, Trace};

/// A cursor over fuzz bytes.
struct Bytes<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bytes { data, pos: 0 }
    }

    fn next(&mut self) -> u8 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn pick(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.next() as usize % n
        }
    }
}

/// Derives a small random-but-valid app model from fuzz bytes.
///
/// Construction rules keep compilation total: handlers may only post
/// handlers with larger indices (no recursion), joins always follow a fork
/// of the same worker, and events are clicks of declared buttons.
fn build_random_app(bytes: &[u8]) -> (App, Vec<UiEvent>) {
    let mut c = Bytes::new(bytes);
    let mut b = AppBuilder::new("Fuzzed");
    let act = b.activity("Main");
    let n_vars = 1 + c.pick(5);
    let vars: Vec<_> = (0..n_vars).map(|i| b.var("obj", format!("f{i}"))).collect();
    let n_mutexes = 1 + c.pick(2);
    let mutexes: Vec<_> = (0..n_mutexes).map(|i| b.mutex(format!("m{i}"))).collect();

    let leaf = |c: &mut Bytes| -> Stmt {
        let v = vars[c.pick(vars.len())];
        match c.pick(4) {
            0 => Stmt::Read(v),
            1 | 2 => Stmt::Write(v),
            _ => Stmt::Synchronized(
                mutexes[c.pick(mutexes.len())],
                vec![if c.pick(2) == 0 {
                    Stmt::Read(v)
                } else {
                    Stmt::Write(v)
                }],
            ),
        }
    };

    // Handlers, declared in reverse so earlier ones can post later ones
    // without creating post cycles (the compile walk would reject them).
    let n_handlers = 1 + c.pick(3);
    let mut handlers_rev: Vec<droidracer::framework::HandlerId> = Vec::new();
    for i in (0..n_handlers).rev() {
        let len = c.pick(4);
        let mut body = Vec::new();
        for _ in 0..len {
            body.push(leaf(&mut c));
        }
        if !handlers_rev.is_empty() && c.pick(2) == 0 {
            body.push(Stmt::Post {
                handler: handlers_rev[c.pick(handlers_rev.len())],
                delay: if c.pick(3) == 0 {
                    Some(10 * (1 + c.pick(5) as u64))
                } else {
                    None
                },
                front: c.pick(6) == 0,
            });
        }
        handlers_rev.push(b.handler(format!("h{i}"), body));
    }
    let handlers = handlers_rev;

    // Workers: leaves plus posts to main.
    let n_workers = c.pick(3);
    let workers: Vec<_> = (0..n_workers)
        .map(|i| {
            let len = c.pick(3);
            let mut body = Vec::new();
            for _ in 0..len {
                body.push(leaf(&mut c));
            }
            if c.pick(2) == 0 {
                body.push(Stmt::Post {
                    handler: handlers[c.pick(handlers.len())],
                    delay: None,
                    front: false,
                });
            }
            b.worker(format!("w{i}"), body)
        })
        .collect();

    // An optional AsyncTask.
    let has_async = c.pick(2) == 0;
    let at = if has_async {
        let bg = vec![leaf(&mut c), Stmt::PublishProgress, leaf(&mut c)];
        Some(b.async_task(
            "T",
            vec![leaf(&mut c)],
            bg,
            vec![leaf(&mut c)],
            vec![leaf(&mut c)],
        ))
    } else {
        None
    };

    // onCreate: leaves, forks (optionally joined), posts, async execute.
    let mut on_create = Vec::new();
    for _ in 0..c.pick(4) {
        on_create.push(leaf(&mut c));
    }
    for &w in &workers {
        on_create.push(Stmt::ForkWorker(w));
        if c.pick(3) == 0 {
            on_create.push(Stmt::JoinWorker(w));
        }
    }
    for _ in 0..c.pick(3) {
        on_create.push(Stmt::Post {
            handler: handlers[c.pick(handlers.len())],
            delay: if c.pick(4) == 0 { Some(50) } else { None },
            front: c.pick(8) == 0,
        });
    }
    if let Some(at) = at {
        on_create.push(Stmt::ExecuteAsyncTask(at));
    }
    b.on_create(act, on_create);
    let mut destroy = Vec::new();
    for _ in 0..c.pick(3) {
        destroy.push(leaf(&mut c));
    }
    b.on_destroy(act, destroy);

    // Buttons and the event sequence.
    let n_buttons = c.pick(3);
    let buttons: Vec<_> = (0..n_buttons)
        .map(|i| {
            let mut body = vec![leaf(&mut c)];
            if c.pick(2) == 0 {
                body.push(leaf(&mut c));
            }
            b.button(act, format!("btn{i}"), body)
        })
        .collect();
    let mut events = Vec::new();
    for _ in 0..c.pick(4) {
        if !buttons.is_empty() {
            events.push(UiEvent::Widget(
                buttons[c.pick(buttons.len())],
                UiEventKind::Click,
            ));
        }
    }
    if c.pick(3) == 0 {
        events.push(UiEvent::Rotate);
    }
    if c.pick(2) == 0 {
        events.push(UiEvent::Back);
    }
    (b.finish(), events)
}

fn simulate(bytes: &[u8], seed: u64) -> Trace {
    let (app, events) = build_random_app(bytes);
    let compiled = compile(&app, &events).expect("random apps always compile");
    let result = run(
        &compiled.program,
        &mut RandomScheduler::new(seed),
        &SimConfig::default(),
    )
    .expect("random apps always run");
    result.trace
}

fn race_keys(analysis: &Analysis) -> BTreeSet<(MemLoc, RaceCategory)> {
    analysis
        .representatives()
        .iter()
        .map(|cr| (cr.race.loc, cr.category))
        .collect()
}

fn race_locs(analysis: &Analysis) -> BTreeSet<MemLoc> {
    analysis.races().iter().map(|cr| cr.race.loc).collect()
}

/// Batch races over the cancellation-filtered trace, classified — the
/// oracle for the streamed≡batch properties below.
fn batch_races(trace: &Trace, config: HbConfig) -> Vec<ClassifiedRace> {
    let filtered = trace.without_cancelled();
    let hb = HappensBefore::compute(&filtered, config);
    let index = filtered.index();
    detect(&filtered, &hb)
        .into_iter()
        .map(|race| ClassifiedRace {
            category: classify(&filtered, &index, &hb, &race),
            race,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// E6: every simulated trace satisfies the Figure 5 semantics.
    #[test]
    fn simulated_traces_are_valid(bytes in proptest::collection::vec(any::<u8>(), 0..160), seed in 0u64..1000) {
        let trace = simulate(&bytes, seed);
        prop_assert_eq!(validate(&trace), Ok(()));
    }

    /// The §6 optimization is lossless: merged and unmerged graphs report
    /// identical (location, category) race sets.
    #[test]
    fn node_merging_preserves_races(bytes in proptest::collection::vec(any::<u8>(), 0..160), seed in 0u64..500) {
        let trace = simulate(&bytes, seed);
        let merged = AnalysisBuilder::new().config(HbConfig::new()).analyze(&trace).unwrap();
        let unmerged = AnalysisBuilder::new().config(HbConfig::new().without_merging()).analyze(&trace).unwrap();
        prop_assert_eq!(race_keys(&merged), race_keys(&unmerged));
    }

    /// Happens-before respects trace order: `αj ⊀ αi` for `i < j`.
    #[test]
    fn hb_never_orders_backwards(bytes in proptest::collection::vec(any::<u8>(), 0..120), seed in 0u64..500) {
        let trace = simulate(&bytes, seed);
        let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
        let n = analysis.trace().len();
        // Sample pairs rather than the full quadratic set.
        for i in (0..n).step_by(3) {
            for j in (i + 1..n).step_by(5) {
                prop_assert!(!(analysis.hb().ordered(j, i) && i != j), "op {} ≺ op {}", j, i);
            }
        }
    }

    /// Dropping rules only removes orderings: races under the full relation
    /// survive under events-as-threads; races under naive-combined are a
    /// subset of the full relation's.
    #[test]
    fn mode_monotonicity(bytes in proptest::collection::vec(any::<u8>(), 0..160), seed in 0u64..500) {
        let trace = simulate(&bytes, seed);
        let full = AnalysisBuilder::new().analyze(&trace).unwrap();
        let weaker = AnalysisBuilder::new().mode(HbMode::EventsAsThreads).analyze(&trace).unwrap();
        prop_assert!(race_locs(&full).is_subset(&race_locs(&weaker)));
        let naive = AnalysisBuilder::new().mode(HbMode::NaiveCombined).analyze(&trace).unwrap();
        prop_assert!(race_locs(&naive).is_subset(&race_locs(&full)));
    }

    /// The vector-clock detector, the FastTrack detector and the
    /// graph-based multithreaded-only mode flag exactly the same locations.
    #[test]
    fn vc_equals_graph_mt_baseline(bytes in proptest::collection::vec(any::<u8>(), 0..160), seed in 0u64..500) {
        let trace = simulate(&bytes, seed);
        let vc_locs: BTreeSet<MemLoc> =
            vc::detect_multithreaded(&trace).iter().map(|r| r.loc).collect();
        let ft_locs: BTreeSet<MemLoc> =
            droidracer::core::fasttrack::detect(&trace).iter().map(|r| r.loc).collect();
        let graph = AnalysisBuilder::new().mode(HbMode::MultithreadedOnly).analyze(&trace).unwrap();
        prop_assert_eq!(&vc_locs, &race_locs(&graph));
        prop_assert_eq!(&ft_locs, &vc_locs);
    }

    /// Replay determinism: the same seed yields the same trace.
    #[test]
    fn same_seed_same_trace(bytes in proptest::collection::vec(any::<u8>(), 0..120), seed in 0u64..200) {
        let a = simulate(&bytes, seed);
        let b = simulate(&bytes, seed);
        prop_assert_eq!(a.ops(), b.ops());
    }

    /// Trace text serialization round-trips.
    #[test]
    fn trace_format_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..120), seed in 0u64..200) {
        let trace = simulate(&bytes, seed);
        let text = droidracer::trace::to_text(&trace);
        let back = droidracer::trace::from_text(&text).expect("parses");
        prop_assert_eq!(back.ops(), trace.ops());
    }

    /// Streamed ≡ batch on every random chunk partition: the op sequence
    /// is cut at fuzz-chosen boundaries and pushed chunk by chunk; the
    /// session must reproduce the batch race set, classification and
    /// bit-identical matrices.
    #[test]
    fn streamed_equals_batch_on_random_partitions(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        seed in 0u64..300,
        cuts in proptest::collection::vec(0usize..64, 0..12),
        mode_pick in 0usize..5,
    ) {
        let trace = simulate(&bytes, seed);
        let config = HbConfig::for_mode(HbMode::all()[mode_pick]);
        let expected = batch_races(&trace, config);
        let hb = HappensBefore::compute(&trace.without_cancelled(), config);

        let mut s = StreamingAnalysis::new(config, StreamOptions::default());
        let mut pos = 0usize;
        for cut in cuts {
            let next = (pos + cut).min(trace.len());
            s.push_chunk(&trace.ops()[pos..next]).expect("unbudgeted");
            pos = next;
        }
        s.push_chunk(&trace.ops()[pos..]).expect("unbudgeted");
        let out = s.finish(trace.names()).expect("unbudgeted");

        prop_assert_eq!(&out.races, &expected);
        let (st, mt) = out.matrices.as_ref().expect("unsummarized");
        let (bst, bmt) = hb.relation_matrices();
        prop_assert_eq!(st, bst);
        prop_assert_eq!(mt.as_ref(), bmt);
    }

    /// Chunked text reading is split-point-invariant: serializing the
    /// trace, tearing the text at arbitrary byte positions (including
    /// mid-record) and streaming the recovered ops yields the same
    /// analysis as the batch pipeline on the original trace.
    #[test]
    fn torn_text_chunks_stream_to_the_batch_result(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        seed in 0u64..200,
        tears in proptest::collection::vec(1usize..97, 1..8),
    ) {
        let trace = simulate(&bytes, seed);
        let text = droidracer::trace::to_text(&trace);
        let config = HbConfig::new();
        let expected = batch_races(&trace, config);

        let mut reader = ChunkedReader::new();
        let mut s = StreamingAnalysis::new(config, StreamOptions::default());
        let mut pos = 0usize;
        for step in tears {
            let mut next = (pos + step).min(text.len());
            while !text.is_char_boundary(next) {
                next += 1;
            }
            let ops = reader.push_text(&text[pos..next]).expect("valid header");
            s.push_chunk(&ops).expect("unbudgeted");
            pos = next;
        }
        let ops = reader.push_text(&text[pos..]).expect("valid header");
        s.push_chunk(&ops).expect("unbudgeted");
        let (names, rest, diags) = reader.finish().expect("valid header");
        prop_assert!(diags.is_empty(), "clean text needs no repairs");
        s.push_chunk(&rest).expect("unbudgeted");
        let out = s.finish(&names).expect("unbudgeted");
        prop_assert_eq!(&out.races, &expected);
    }
}
