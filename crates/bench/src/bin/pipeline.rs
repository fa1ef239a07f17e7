//! Experiment E8 — throughput of the parallel detection pipeline.
//!
//! Analyzes the full corpus trace set sequentially and then through
//! `droidracer_core::par` at 1/2/4/8 worker threads, verifying on the fly
//! that every parallel run produces exactly the sequential reports (the
//! determinism contract), and emits the measured traces/sec into
//! `BENCH_pipeline.json` alongside the per-rule engine counters.
//!
//! The run also enforces the checked-in word-ops budgets
//! (`tests/data/wordops_budget.txt` for the corpus-total batch `word_ops`,
//! `wordops_budget_component.txt` and `wordops_budget_stream.txt` for the
//! component corpus and the streamed corpus) and the K-9 Mail closure-time
//! ceiling (`tests/data/ns_per_word_op_ceiling.txt`): if a reading is not
//! finite and positive or exceeds its file, the binary exits nonzero,
//! failing CI's perf-guard step. Run with `BLESS=1` to re-bless the three
//! budgets after an intentional engine change. The timing ceiling is only
//! read: it is edited by hand.
//!
//! Run with `cargo run --release -p droidracer-bench --bin pipeline`.
//! The JSON lands in the current directory.

use std::time::Instant;

use droidracer_apps::{component_corpus, corpus};
use droidracer_bench::{engine_stats_table, maybe_export_profile, TextTable};
use droidracer_core::{
    analyze_all, analyze_all_profiled, default_threads, effective_workers, par_map, Analysis,
    AnalysisBuilder, EngineStats, HappensBefore, HbConfig, StreamOptions, StreamingAnalysis,
    SPAWN_MIN_ITEMS,
};
use droidracer_obs::MetricsRegistry;
use droidracer_trace::Trace;

/// One measured sweep point.
struct Sample {
    threads: usize,
    seconds: f64,
    traces_per_sec: f64,
    speedup: f64,
    /// Workers the fan-out actually used ([`effective_workers`]): 1 means
    /// the pool short-circuited to the inline sequential path.
    workers: usize,
}

fn measure(traces: &[Trace], threads: usize, repeats: usize) -> (f64, Vec<Analysis>) {
    // Warm-up once, then keep the best of `repeats` (least-noise estimate).
    let mut best = f64::MAX;
    let mut analyses = analyze_all(traces, threads);
    for _ in 0..repeats {
        let start = Instant::now();
        analyses = analyze_all(traces, threads);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, analyses)
}

fn main() {
    let entries = corpus();
    println!("Parallel detection pipeline sweep ({} apps)", entries.len());
    println!(
        "machine: {} hardware thread(s) available\n",
        default_threads()
    );

    let generated = par_map(&entries, default_threads(), |e| e.generate_trace());
    let mut names: Vec<&'static str> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    for (entry, result) in entries.iter().zip(generated) {
        match result {
            Ok(t) => {
                names.push(entry.name);
                traces.push(t);
            }
            Err(e) => eprintln!("{}: {e}", entry.name),
        }
    }

    let repeats = 3;
    // Sequential baseline: the plain per-trace loop, no pool at all.
    let mut baseline = f64::MAX;
    let mut reference: Vec<Analysis> = traces
        .iter()
        .map(|t| AnalysisBuilder::new().analyze(t).unwrap())
        .collect();
    for _ in 0..repeats {
        let start = Instant::now();
        reference = traces
            .iter()
            .map(|t| AnalysisBuilder::new().analyze(t).unwrap())
            .collect();
        baseline = baseline.min(start.elapsed().as_secs_f64());
    }

    let mut samples = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (seconds, analyses) = measure(&traces, threads, repeats);
        // Determinism check: every thread count reproduces the sequential
        // reports exactly.
        assert_eq!(analyses.len(), reference.len());
        for (p, s) in analyses.iter().zip(&reference) {
            assert_eq!(p.races(), s.races(), "{threads}-thread run diverged");
            assert_eq!(p.counts(), s.counts(), "{threads}-thread run diverged");
            assert_eq!(
                p.hb().stats(),
                s.hb().stats(),
                "{threads}-thread run diverged"
            );
        }
        samples.push(Sample {
            threads,
            seconds,
            traces_per_sec: traces.len() as f64 / seconds,
            speedup: baseline / seconds,
            workers: effective_workers(traces.len(), threads),
        });
    }

    let mut table = TextTable::new(["Threads", "Workers", "Time", "Traces/sec", "Speedup"]);
    table.row([
        "seq".to_owned(),
        "-".to_owned(),
        format!("{:.3} s", baseline),
        format!("{:.2}", traces.len() as f64 / baseline),
        "1.00x".to_owned(),
    ]);
    table.rule();
    for s in &samples {
        table.row([
            s.threads.to_string(),
            s.workers.to_string(),
            format!("{:.3} s", s.seconds),
            format!("{:.2}", s.traces_per_sec),
            format!("{:.2}x", s.speedup),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(all parallel runs verified bit-identical to the sequential reports; \
         workers=1 is the inline short-circuit, spawn threshold {SPAWN_MIN_ITEMS} items)\n"
    );

    // Aggregate corpus metrics: absorbing each analysis' registry sums the
    // deterministic counters across apps.
    let mut registry = MetricsRegistry::new();
    for analysis in &reference {
        registry.absorb(&analysis.metrics());
    }

    // The component corpus' analysis cost gets its own exact word-ops
    // budget, kept out of the `hb.*` counters so the long-standing corpus
    // budget below is untouched by catalog growth.
    export_component_word_ops(&mut registry);

    // Single-trace closure latency: the K-9 Mail hot path, with the
    // per-word-op wall-clock gauge that the CI ceiling gates.
    export_closure_latency(&names, &traces, &mut registry);

    // The column engine's cost on the same corpus, streamed in 64-op
    // chunks, against the row engine's.
    export_stream_word_ops(&traces, &reference, &mut registry);

    println!("Happens-before engine hot-path counters:");
    let stats_rows: Vec<(&str, &EngineStats)> = names
        .iter()
        .zip(&reference)
        .map(|(n, a)| (*n, a.hb().stats()))
        .collect();
    println!(
        "{}",
        engine_stats_table(stats_rows.iter().map(|&(n, s)| (n, s))).render()
    );

    let json = render_json(&traces, baseline, &samples, &stats_rows, &registry);
    let path = "BENCH_pipeline.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");

    let (_, span) = analyze_all_profiled(&traces, 1, HbConfig::new());
    maybe_export_profile(&span, &registry);
    enforce_budget(
        "wordops_budget.txt",
        "# Corpus-total happens-before `word_ops` budget, enforced by the\n\
         # pipeline bench (CI perf-guard).",
        "corpus-total word_ops",
        stats_rows.iter().map(|(_, s)| s.word_ops).sum(),
    );
}

/// Analyzes the 7 component-automaton apps and exports their summed
/// happens-before `word_ops` as `motif.word_ops`, gated by its own exact
/// budget (`tests/data/wordops_budget_component.txt`, `BLESS=1` rewrites
/// it). The component analyses never touch the registry's `hb.*`
/// counters, so the 15-app budget keeps gating exactly the paper corpus.
fn export_component_word_ops(registry: &mut MetricsRegistry) {
    let entries = component_corpus();
    let traces: Vec<Trace> = par_map(&entries, default_threads(), |e| {
        e.generate_trace().expect("component entry generates")
    });
    let word_ops: u64 = analyze_all(&traces, default_threads())
        .iter()
        .map(|a| a.hb().stats().word_ops)
        .sum();
    registry.counter_add("motif.word_ops", word_ops);
    enforce_budget(
        "wordops_budget_component.txt",
        "# Component-corpus (7 component-automaton apps) happens-before\n\
         # `word_ops` budget, enforced by the pipeline bench alongside the\n\
         # original 15-app budget in wordops_budget.txt.",
        "component-corpus word_ops",
        word_ops,
    );
}

/// Times the happens-before closure of the single biggest corpus trace
/// (K-9 Mail), best of 3, and exports:
///
/// * `hb.ns_per_word_op` (gauge): closure nanoseconds per `word_ops` unit
///   — the wall-clock-per-op metric the CI ceiling gates;
/// * `hb.k9_closure_ms` (gauge): the raw closure wall time.
///
/// Then enforces the checked-in per-word-op ceiling
/// (`tests/data/ns_per_word_op_ceiling.txt`) — a generous multiple of the
/// measured value so CI jitter cannot trip it, while an order-of-magnitude
/// kernel regression still fails the perf-guard step. The ceiling is
/// edited by hand; `BLESS=1` does not touch it.
fn export_closure_latency(
    names: &[&'static str],
    traces: &[Trace],
    registry: &mut MetricsRegistry,
) {
    let k9 = names
        .iter()
        .position(|n| *n == "K-9 Mail")
        .expect("K-9 Mail missing from the corpus");
    let trace = traces[k9].without_cancelled();
    let config = HbConfig::new();
    let repeats = 3;

    let mut secs = f64::MAX;
    let mut hb = HappensBefore::compute(&trace, config);
    for _ in 0..repeats {
        let start = Instant::now();
        hb = HappensBefore::compute(&trace, config);
        secs = secs.min(start.elapsed().as_secs_f64());
    }
    let word_ops = hb.stats().word_ops;
    let ns_per_word_op = secs * 1e9 / word_ops as f64;
    registry.gauge_set("hb.ns_per_word_op", ns_per_word_op);
    registry.gauge_set("hb.k9_closure_ms", secs * 1e3);
    println!(
        "K-9 Mail closure: {:.1} ms ({:.2} ns/word-op over {} word-ops)\n",
        secs * 1e3,
        ns_per_word_op,
        word_ops
    );
    enforce_ceiling(
        "ns_per_word_op_ceiling.txt",
        "K-9 Mail closure ns/word-op",
        ns_per_word_op,
        "raise the ceiling in that file by hand",
    );
}

/// Streams every corpus trace through [`StreamingAnalysis`] in 64-op chunks
/// with the windowed summarizer on and exports the summed `stream.word_ops`
/// counter and the `stream.word_ops_ratio` gauge (column word-ops over the
/// batch engine's row word-ops on the same corpus). The sum is gated by its
/// own exact budget (`tests/data/wordops_budget_stream.txt`, `BLESS=1`
/// rewrites it).
fn export_stream_word_ops(
    traces: &[Trace],
    reference: &[Analysis],
    registry: &mut MetricsRegistry,
) {
    let options = StreamOptions {
        summarize: true,
        window: 64,
        budget: None,
    };
    let mut word_ops = 0u64;
    for trace in traces {
        let mut session = StreamingAnalysis::new(HbConfig::new(), options);
        for piece in trace.ops().chunks(64) {
            session.push_chunk(piece).expect("unlimited budget");
        }
        word_ops += session
            .finish(trace.names())
            .expect("unlimited budget")
            .stats
            .word_ops;
    }
    let batch_total: u64 = reference.iter().map(|a| a.hb().stats().word_ops).sum();
    let ratio = word_ops as f64 / batch_total as f64;
    registry.counter_add("stream.word_ops", word_ops);
    registry.gauge_set("stream.word_ops_ratio", ratio);
    println!("stream word-ops: {word_ops} vs batch {batch_total} ({ratio:.3}x)\n");
    enforce_budget(
        "wordops_budget_stream.txt",
        "# Corpus-total streaming (column engine) `word_ops` budget: the 15\n\
         # corpus apps streamed in 64-op chunks with the summarizer on,\n\
         # enforced by the pipeline bench.",
        "corpus stream word_ops",
        word_ops,
    );
}

/// The path of the checked-in data file `tests/data/{file}`.
fn data_path(file: &str) -> String {
    format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Enforces the exact word-ops budget `tests/data/{file}` like
/// [`enforce_ceiling`]: the counter is fully deterministic, so the budget
/// is an exact ceiling, not a noisy timing threshold. With `BLESS=1` it
/// instead rewrites the file as the comment lines of `header`, the command
/// that regenerates it, and `measured`.
fn enforce_budget(file: &str, header: &str, what: &str, measured: u64) {
    if std::env::var("BLESS").is_ok() {
        let path = data_path(file);
        let content = format!(
            "{header} Regenerate with:\n\
             #   BLESS=1 cargo run --release -p droidracer-bench --bin pipeline\n\
             {measured}\n"
        );
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("blessed {what}: {measured}");
        return;
    }
    enforce_ceiling(file, what, measured as f64, "re-bless with BLESS=1");
}

/// Enforces the checked-in ceiling `tests/data/{file}`: exits 1 if
/// `measured` is not a finite positive reading or exceeds the file's first
/// non-comment line, or if the file is missing or malformed. `remedy` tells
/// the reader how to move the ceiling when the regression is intended.
fn enforce_ceiling(file: &str, what: &str, measured: f64, remedy: &str) {
    if !(measured.is_finite() && measured > 0.0) {
        eprintln!("BROKEN READING: {what} {measured} is not a finite positive value");
        std::process::exit(1);
    }
    let path = data_path(file);
    let ceiling: f64 = match std::fs::read_to_string(&path) {
        Ok(text) => match text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
            .and_then(|l| l.parse().ok())
        {
            Some(c) => c,
            None => {
                eprintln!("ceiling file {path} is malformed");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("missing ceiling {path}: {e} (measured {measured}; {remedy})");
            std::process::exit(1);
        }
    };
    if measured > ceiling {
        eprintln!(
            "PERF REGRESSION: {what} {measured} exceeds ceiling {ceiling} (+{:.1}%). \
             If intentional, {remedy}.",
            100.0 * (measured - ceiling) / ceiling
        );
        std::process::exit(1);
    }
    println!("{what} OK: {measured} <= {ceiling}\n");
}

/// Hand-rolled JSON (no serde in the dependency-free pipeline).
fn render_json(
    traces: &[Trace],
    baseline: f64,
    samples: &[Sample],
    stats: &[(&str, &EngineStats)],
    registry: &MetricsRegistry,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"machine_threads\": {},\n  \"corpus_traces\": {},\n  \"total_ops\": {},\n",
        default_threads(),
        traces.len(),
        traces.iter().map(Trace::len).sum::<usize>(),
    ));
    out.push_str(&format!(
        "  \"sequential\": {{ \"seconds\": {:.6}, \"traces_per_sec\": {:.3} }},\n",
        baseline,
        traces.len() as f64 / baseline
    ));
    out.push_str("  \"parallel\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"threads\": {}, \"effective_workers\": {}, \"seconds\": {:.6}, \
             \"traces_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.threads,
            s.workers,
            s.seconds,
            s.traces_per_sec,
            s.speedup,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"engine_counters\": [\n");
    for (i, (name, s)) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"app\": \"{}\", \"base_edges\": {}, \"fifo\": {}, \"nopre\": {}, \
             \"trans_st\": {}, \"trans_mt\": {}, \"rounds\": {}, \"word_ops\": {}, \
             \"worklist_pops\": {}, \"rows_recomputed\": {}, \"skipped_words\": {} }}{}\n",
            name,
            s.base_edges,
            s.fifo_fired,
            s.nopre_fired,
            s.trans_st_edges,
            s.trans_mt_edges,
            s.rounds,
            s.word_ops,
            s.worklist_pops,
            s.rows_recomputed,
            s.skipped_words,
            if i + 1 < stats.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"metrics\": {}\n", registry.to_json()));
    out.push_str("}\n");
    out
}
