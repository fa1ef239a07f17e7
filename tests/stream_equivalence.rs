//! Differential suite for the streaming engine: **streamed ≡ batch**.
//!
//! The streaming analysis maintains the happens-before relation
//! column-by-column as operations arrive; the batch engine saturates
//! row-by-row over the whole trace. Both compute the same least fixpoint,
//! so for every corpus trace, every chunk-size partition of its op
//! sequence, and every rule preset the streamed session must reproduce
//! the batch race set and classification exactly — and, when the session
//! does not summarize (retire columns into digests), the reconstructed
//! `st`/`mt` matrices must be *bit-identical* to the batch matrices.

use droidracer::apps::corpus;
use droidracer::core::{
    classify, detect, ClassifiedRace, HappensBefore, HbConfig, HbMode, StreamOptions,
    StreamOutcome, StreamingAnalysis,
};
use droidracer::trace::Trace;

/// Batch result over the cancellation-filtered trace: classified races and
/// the closed relation.
fn batch(trace: &Trace, config: HbConfig) -> (Vec<ClassifiedRace>, HappensBefore) {
    let filtered = trace.without_cancelled();
    let hb = HappensBefore::compute(&filtered, config);
    let index = filtered.index();
    let races = detect(&filtered, &hb)
        .into_iter()
        .map(|race| ClassifiedRace {
            category: classify(&filtered, &index, &hb, &race),
            race,
        })
        .collect();
    (races, hb)
}

/// Streams `trace` in `chunk`-sized pieces.
fn stream(trace: &Trace, config: HbConfig, options: StreamOptions, chunk: usize) -> StreamOutcome {
    let mut s = StreamingAnalysis::new(config, options);
    for piece in trace.ops().chunks(chunk.max(1)) {
        s.push_chunk(piece)
            .expect("unbudgeted stream cannot exhaust");
    }
    s.finish(trace.names())
        .expect("unbudgeted stream cannot exhaust")
}

/// Asserts one streamed partition reproduces the batch result. Summarized
/// sessions compare the race set and per-category totals (their matrices
/// are partially retired); unsummarized sessions also compare the
/// matrices bit for bit.
fn assert_equiv(trace: &Trace, config: HbConfig, chunk: usize, summarize: bool, context: &str) {
    let (expected, hb) = batch(trace, config);
    let options = StreamOptions {
        summarize,
        window: 32,
        ..StreamOptions::default()
    };
    let out = stream(trace, config, options, chunk);
    assert_eq!(
        out.races, expected,
        "{context}: race set diverges (chunk={chunk}, summarize={summarize})"
    );
    let mut counts = droidracer::core::CategoryCounts::default();
    for r in &expected {
        counts.add(r.category, 1);
    }
    assert_eq!(
        out.counts, counts,
        "{context}: classification totals diverge (chunk={chunk})"
    );
    if summarize {
        assert!(
            out.matrices.is_none(),
            "{context}: summarized session kept matrices"
        );
    } else {
        let (st, mt) = out
            .matrices
            .as_ref()
            .expect("unsummarized session returns matrices");
        let (bst, bmt) = hb.relation_matrices();
        assert_eq!(st, bst, "{context}: st matrix diverges (chunk={chunk})");
        assert_eq!(
            mt.as_ref(),
            bmt,
            "{context}: mt matrix diverges (chunk={chunk})"
        );
    }
    // Cancel-free corpus entries must emit every race before `finish`
    // reconciliation and never retract; entries with cancels may rebuild.
    if out.stats.rebuilds == 0 {
        assert_eq!(out.stats.late_emissions, 0, "{context}: late emissions");
        assert_eq!(out.stats.retractions, 0, "{context}: retractions");
    }
    assert!(
        !out.stats.degenerate,
        "{context}: corpus traces are well-formed"
    );
}

/// Every corpus app at the production chunk size, with and without
/// summarization.
#[test]
fn corpus_streamed_equals_batch_chunk64() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        assert_equiv(&trace, HbConfig::new(), 64, false, entry.name);
        assert_equiv(&trace, HbConfig::new(), 64, true, entry.name);
    }
}

/// Every corpus app pushed as one whole-trace chunk (the degenerate
/// partition: a single boundary, like a batch run through the streaming
/// code path).
#[test]
fn corpus_streamed_equals_batch_whole_chunk() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        assert_equiv(
            &trace,
            HbConfig::new(),
            trace.len().max(1),
            false,
            entry.name,
        );
    }
}

/// Fine-grained partitions (chunk sizes 1 and 7) across all five rule
/// presets and both summarization settings. Op-at-a-time streaming is the
/// adversarial partition — every boundary between two dependent ops is
/// exercised — so this sweep runs on the corpus entries small enough for
/// 20 debug-build closures each.
#[test]
fn corpus_small_entries_fine_chunks_all_modes() {
    let mut checked = 0usize;
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        if trace.len() > 12_000 {
            continue;
        }
        for mode in HbMode::all() {
            let config = HbConfig::for_mode(mode);
            for chunk in [1usize, 7] {
                for summarize in [false, true] {
                    let context = format!("{} / {mode:?}", entry.name);
                    assert_equiv(&trace, config, chunk, summarize, &context);
                }
            }
        }
        checked += 1;
    }
    assert!(checked >= 4, "the fine-chunk sweep must cover several apps");
}

/// Node merging off: access ops become individual nodes, shifting every
/// block boundary the emitter sees.
#[test]
fn corpus_streamed_equals_batch_without_merging() {
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        if trace.len() > 12_000 {
            continue;
        }
        assert_equiv(
            &trace,
            HbConfig::new().without_merging(),
            7,
            false,
            entry.name,
        );
    }
}

/// Summarization bounds live memory: on the larger corpus entries (K-9
/// Mail among them) the windowed session must retire columns and keep its
/// peak matrix footprint below the batch engine's dense `2·n²` bits, while
/// still reporting exactly the batch races.
#[test]
fn summarization_bounds_memory_on_large_entries() {
    let mut checked = Vec::new();
    for entry in corpus() {
        let trace = entry.generate_trace().expect("corpus entries generate");
        if trace.len() < 20_000 {
            continue;
        }
        checked.push(entry.name);
        let config = HbConfig::new();
        let options = StreamOptions {
            summarize: true,
            window: 64,
            ..StreamOptions::default()
        };
        let out = stream(&trace, config, options, 64);
        let (expected, hb) = batch(&trace, config);
        assert_eq!(
            out.races, expected,
            "{}: window-64 races diverge",
            entry.name
        );
        let n = hb.graph().node_count() as u64;
        let batch_bits = 2 * n * n;
        assert!(
            out.stats.retired_rows > 0,
            "{}: nothing retired",
            entry.name
        );
        assert!(
            out.stats.peak_matrix_bits < batch_bits,
            "{}: streamed peak {} bits ≥ batch dense {} bits",
            entry.name,
            out.stats.peak_matrix_bits,
            batch_bits
        );
    }
    assert!(checked.contains(&"K-9 Mail"), "checked only {checked:?}");
}
