//! Experiment E8 — throughput of the parallel detection pipeline.
//!
//! Analyzes the full corpus trace set sequentially and then through
//! `droidracer_core::par` at 1/2/4/8 worker threads, verifying on the fly
//! that every parallel run produces exactly the sequential reports (the
//! determinism contract), and emits the measured traces/sec into
//! `BENCH_pipeline.json` alongside the per-rule engine counters.
//!
//! The run also enforces the checked-in word-ops budget
//! (`tests/data/wordops_budget.txt`): if the corpus-total `word_ops`
//! exceeds the budget the binary exits nonzero, failing CI's perf-guard
//! step. Run with `BLESS=1` to re-bless the budget after an intentional
//! engine change.
//!
//! Run with `cargo run --release -p droidracer-bench --bin pipeline`.
//! The JSON lands in the current directory.

use std::time::Instant;

use droidracer_apps::{analyze_corpus_isolated, analyze_corpus_parallel, component_corpus, corpus};
use droidracer_bench::{engine_stats_table, maybe_export_profile, TextTable};
use droidracer_core::bitmatrix::BitMatrix;
use droidracer_core::{
    analyze_all, analyze_all_profiled, default_threads, effective_workers, par_map, Analysis,
    AnalysisBuilder, Budget, EngineStats, ExitClass, HappensBefore, HbConfig, JobReport,
    JobSpec, QuarantineCause, StreamOptions, StreamingAnalysis, SPAWN_MIN_ITEMS,
};
use droidracer_fuzz::{run_fuzz, FuzzConfig};
use droidracer_obs::{chrome_trace, strip_wall_clock, MetricsRegistry};
use droidracer_server::{
    run_soak, status_counter, ChaosPlan, Client, RetryPolicy, Server, ServerConfig, Submission,
};
use droidracer_trace::{from_text_lenient, to_text, Trace};

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
    let mut reference: Vec<Analysis> = traces.iter().map(|t| AnalysisBuilder::new().analyze(t).unwrap()).collect();
    for _ in 0..repeats {
        let start = Instant::now();
        reference = traces.iter().map(|t| AnalysisBuilder::new().analyze(t).unwrap()).collect();
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

    // A seeded differential-fuzzing session rides along so the bench JSON
    // surfaces the witnessing counters and pins `fuzz.oracle_divergences`
    // at zero on every bench run, not just in CI's smoke job.
    let fuzz_report = run_fuzz(&FuzzConfig {
        seed: 0xD201D,
        iters: 150,
        ..FuzzConfig::default()
    });
    assert_eq!(
        fuzz_report.oracle_divergences(),
        0,
        "differential fuzz session diverged:\n{}",
        fuzz_report.render()
    );
    fuzz_report.export_metrics(&mut registry);
    // The component-substructure coverage features: each must have fired at
    // least once in the seeded session, and the counts land in the JSON so a
    // generator regression that stops reaching a component path is visible.
    for (feature, count) in fuzz_report.coverage.entries() {
        if feature.starts_with("gen.component.") {
            registry.counter_add(feature, count);
        }
    }
    for label in ["service", "fragment", "serial_executor", "broadcast"] {
        let key = format!("gen.component.{label}");
        assert!(
            registry.counter(&key).unwrap_or(0) > 0,
            "seeded fuzz session never generated the {label} component substructure"
        );
    }
    println!(
        "fuzz smoke (seed 0x{:X}): {} iterations, {} races, witnessed {}, \
         unwitnessed {}, oracle divergences 0\n",
        fuzz_report.seed,
        fuzz_report.iterations,
        fuzz_report.races_found,
        fuzz_report.total_witnessed(),
        fuzz_report.total_unwitnessed(),
    );

    // Component-corpus ground-truth guard: the 7 component apps must verify
    // exactly their planted true races (`motif.planted == motif.verified`),
    // and their analysis cost gets its own exact word-ops budget — kept out
    // of the original 15-app registry so the long-standing corpus budget
    // below is untouched by corpus growth.
    export_motif_counters(&mut registry);

    // Robustness guard: the clean corpus must sail through the hardened
    // pipeline untouched — zero quarantines, zero lenient-parse repairs,
    // zero budget exhaustions. The counters land in the bench JSON so a
    // regression (a trace that suddenly needs repair, an analysis that
    // starts panicking under isolation) shows up as a nonzero export even
    // before the asserts fire.
    export_robustness_counters(&entries, &traces, &mut registry);

    // Single-trace closure latency: the K-9 Mail hot path, with the
    // per-word-op wall-clock gauge that the CI ceiling gates.
    export_closure_latency(&names, &traces, &mut registry);

    // Streaming sweep: every corpus trace re-analyzed online (64-op chunks,
    // windowed summarizer) must reproduce the batch reports exactly, and the
    // summarizer must demonstrably bound memory on the largest app. The
    // `stream.*` counters land in the bench JSON.
    export_stream_counters(&names, &traces, &reference, &mut registry);

    // Server load sweep: a live in-process daemon serves the whole corpus
    // under mixed clean/corrupt/oversized/hostile traffic; every served
    // report must equal the direct reference, and the second clean pass
    // must be answered entirely from the cache. The `srv.*` counters land
    // in the bench JSON.
    export_server_counters(&names, &traces, &reference, &mut registry);

    // Chaos soak: a fresh per-scenario server is subjected to the seeded
    // fault plan (torn frames, dropped connections, stalls, shard panics,
    // torn/corrupt WAL tails). Violation counters (`srv.chaos.*`) land in
    // the bench JSON and must all be zero; activity totals land as
    // `chaos.*` gauges so a fault plan that silently stops injecting
    // faults is also visible.
    export_chaos_counters(&mut registry);

    // Profile determinism check: the exported span structure — not just the
    // reports — must be bit-identical across thread counts once the
    // wall-clock fields are stripped.
    let (_, span1) = analyze_all_profiled(&traces, 1, HbConfig::new());
    let stripped = strip_wall_clock(&chrome_trace(std::slice::from_ref(&span1), &registry));
    for threads in [2usize, 8] {
        let (_, span) = analyze_all_profiled(&traces, threads, HbConfig::new());
        let other = strip_wall_clock(&chrome_trace(std::slice::from_ref(&span), &registry));
        assert_eq!(stripped, other, "{threads}-thread profile diverged");
    }
    println!("(exported profiles verified bit-identical at 1/2/8 threads, modulo wall-clock)\n");

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
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    maybe_export_profile(&span1, &registry);
    enforce_word_ops_budget(&stats_rows, &registry);
}

/// Analyzes the component-automaton corpus and exports:
///
/// * `motif.planted` (counter): planted true races summed over the 7
///   component apps;
/// * `motif.verified` (counter): races the schedule-replay verifier
///   confirmed — asserted equal to `motif.planted` (exact recovery);
/// * `motif.reported` (counter): all representatives including planted
///   false positives;
/// * `motif.word_ops` (counter): the component corpus' happens-before
///   word-ops total, gated by its own exact budget
///   (`tests/data/wordops_budget_component.txt`, `BLESS=1` rewrites it).
///
/// The component analyses never touch the main registry's `hb.*` counters,
/// so the original 15-app word-ops budget keeps gating exactly the paper
/// corpus.
fn export_motif_counters(registry: &mut MetricsRegistry) {
    let entries = component_corpus();
    let reports = analyze_corpus_parallel(&entries, default_threads());
    let mut planted = 0u64;
    let mut verified = 0u64;
    let mut reported = 0u64;
    let mut word_ops = 0u64;
    for (entry, report) in entries.iter().zip(reports) {
        let report = report.expect("component entry analyzes");
        assert_eq!(
            report.unplanned(&entry.truth),
            0,
            "{}: unplanned races on the clean component corpus",
            entry.name
        );
        planted += entry.truth.values().filter(|t| t.is_true).count() as u64;
        verified += report.verified.total() as u64;
        reported += report.reported.total() as u64;
        word_ops += report.analysis.hb().stats().word_ops;
    }
    assert_eq!(
        planted, verified,
        "component corpus: planted true races must all verify"
    );
    registry.counter_add("motif.planted", planted);
    registry.counter_add("motif.verified", verified);
    registry.counter_add("motif.reported", reported);
    registry.counter_add("motif.word_ops", word_ops);
    println!(
        "component-corpus guard OK: {} apps, {planted} planted true races all verified \
         ({reported} reported incl. planted false positives)\n",
        entries.len()
    );
    // Its own blessed file, so growing the catalog never perturbs the
    // original 15-app budget.
    enforce_ceiling(
        "wordops_budget_component.txt",
        "# Component-corpus (7 component-automaton apps) happens-before\n\
         # `word_ops` budget, enforced by the pipeline bench alongside the\n\
         # original 15-app budget in wordops_budget.txt.",
        "component-corpus word_ops",
        word_ops as f64,
        word_ops as f64,
    );
}

/// Runs the fault-isolated corpus analysis and a lenient re-parse of every
/// generated trace, exporting `robust.quarantined`, `robust.repairs`, and
/// `robust.budget_exhausted` — all asserted zero: a clean corpus must not
/// exercise any recovery or isolation machinery.
fn export_robustness_counters(
    entries: &[droidracer_apps::CorpusEntry],
    traces: &[Trace],
    registry: &mut MetricsRegistry,
) {
    let isolated = analyze_corpus_isolated(entries, default_threads(), &Budget::unlimited());
    let quarantined = isolated.iter().filter(|r| r.is_err()).count() as u64;
    let budget_exhausted = isolated
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(q) if matches!(q.cause, QuarantineCause::BudgetExhausted(_))
            )
        })
        .count() as u64;
    let repairs: u64 = traces
        .iter()
        .map(|t| match from_text_lenient(&to_text(t)) {
            Ok((_, diags)) => diags.len() as u64,
            Err(e) => panic!("clean corpus trace failed to re-parse: {e}"),
        })
        .sum();
    registry.counter_add("robust.quarantined", quarantined);
    registry.counter_add("robust.repairs", repairs);
    registry.counter_add("robust.budget_exhausted", budget_exhausted);
    for q in isolated.iter().filter_map(|r| r.as_ref().err()) {
        eprintln!("{q}");
    }
    assert_eq!(
        registry.counter("robust.quarantined"),
        Some(0),
        "clean corpus produced quarantines"
    );
    assert_eq!(
        registry.counter("robust.repairs"),
        Some(0),
        "clean corpus traces needed lenient repairs"
    );
    assert_eq!(
        registry.counter("robust.budget_exhausted"),
        Some(0),
        "clean corpus exhausted an unlimited budget"
    );
    println!("robustness guard OK: 0 quarantined, 0 repairs, 0 budget exhaustions\n");
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
/// kernel regression still fails the perf-guard step. `BLESS=1` rewrites
/// the ceiling at 8× the measured value.
fn export_closure_latency(names: &[&'static str], traces: &[Trace], registry: &mut MetricsRegistry) {
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
    // A timing threshold, unlike the exact word-ops budgets, so the
    // blessed value carries 8× headroom for CI jitter.
    enforce_ceiling(
        "ns_per_word_op_ceiling.txt",
        "# Ceiling for `hb.ns_per_word_op` (K-9 Mail sequential closure\n\
         # nanoseconds per word-op), enforced by the pipeline bench. Blessed\n\
         # at 8x the measured value to absorb CI jitter.",
        "K-9 Mail closure ns/word-op",
        ns_per_word_op,
        (ns_per_word_op * 8.0).ceil(),
    );
}

/// Streams every corpus trace through [`StreamingAnalysis`] in 64-op chunks
/// with the windowed summarizer on, verifies each streamed report matches
/// the batch reference exactly, and exports the summed `stream.*` counters
/// plus a `stream.peak_matrix_bits` gauge (corpus max). The memory-bound
/// contract is asserted on the largest app: K-9 Mail's streamed matrix peak
/// must stay below the batch engine's dense relation-matrix footprint.
fn export_stream_counters(
    names: &[&'static str],
    traces: &[Trace],
    reference: &[Analysis],
    registry: &mut MetricsRegistry,
) {
    let options = StreamOptions {
        summarize: true,
        window: 64,
        budget: None,
    };
    let mut totals = droidracer_core::StreamStats::default();
    let mut peak_max = 0u64;
    let mut k9_checked = false;
    for ((name, trace), analysis) in names.iter().zip(traces).zip(reference) {
        let mut session = StreamingAnalysis::new(HbConfig::new(), options);
        for piece in trace.ops().chunks(64) {
            session.push_chunk(piece).expect("unlimited budget");
        }
        let out = session.finish(trace.names()).expect("unlimited budget");
        assert_eq!(
            out.races.as_slice(),
            analysis.races(),
            "{name}: streamed races diverged from batch"
        );
        assert_eq!(
            out.counts,
            analysis.counts(),
            "{name}: streamed classification diverged from batch"
        );
        assert!(!out.stats.degenerate, "{name}: clean trace fell back to batch");
        let s = out.stats;
        totals.ops += s.ops;
        totals.chunks += s.chunks;
        totals.races_emitted += s.races_emitted;
        totals.retractions += s.retractions;
        totals.late_emissions += s.late_emissions;
        totals.rebuilds += s.rebuilds;
        totals.retired_rows += s.retired_rows;
        totals.word_ops += s.word_ops;
        peak_max = peak_max.max(s.peak_matrix_bits);
        if *name == "K-9 Mail" {
            let dense = |m: &BitMatrix| (m.words_per_row() * m.len() * 64) as u64;
            let (st, mt) = analysis.hb().relation_matrices();
            let batch_bits = dense(st) + mt.map(dense).unwrap_or(0);
            assert!(
                s.peak_matrix_bits < batch_bits,
                "K-9 Mail: streamed peak {} bits >= batch dense {} bits",
                s.peak_matrix_bits,
                batch_bits
            );
            println!(
                "stream memory bound OK (K-9 Mail): peak {} bits < batch dense {} bits",
                s.peak_matrix_bits, batch_bits
            );
            k9_checked = true;
        }
    }
    assert!(k9_checked, "K-9 Mail missing from the corpus sweep");
    registry.counter_add("stream.chunks", totals.chunks);
    registry.counter_add("stream.ops", totals.ops);
    registry.counter_add("stream.races_emitted", totals.races_emitted);
    registry.counter_add("stream.retractions", totals.retractions);
    registry.counter_add("stream.late_emissions", totals.late_emissions);
    registry.counter_add("stream.rebuilds", totals.rebuilds);
    registry.counter_add("stream.retired_rows", totals.retired_rows);
    registry.counter_add("stream.word_ops", totals.word_ops);
    registry.gauge_set("stream.peak_matrix_bits", peak_max as f64);
    // The streaming overhead metric: column word-ops relative to the batch
    // engine's row word-ops on the same corpus (both count words actually
    // visited inside nonzero bounds since the column store learned the
    // batch engine's bounds discipline).
    let batch_total: u64 = reference.iter().map(|a| a.hb().stats().word_ops).sum();
    let ratio = totals.word_ops as f64 / batch_total as f64;
    registry.gauge_set("stream.word_ops_ratio", ratio);
    println!(
        "stream sweep OK: {} ops in {} chunks, {} races emitted live, {} rows retired",
        totals.ops, totals.chunks, totals.races_emitted, totals.retired_rows
    );
    println!(
        "stream word-ops: {} vs batch {} ({ratio:.3}x)\n",
        totals.word_ops, batch_total
    );
}

/// Drives a live in-process analysis server with mixed multi-tenant
/// traffic and exports the `srv.*` service counters:
///
/// * a clean tenant submits every corpus trace twice — the first pass
///   measures `srv.traces_per_sec` (gauge) and every report is asserted
///   equal to the direct [`AnalysisBuilder`] reference, the second pass
///   must be answered entirely from the content-addressed cache;
/// * a corrupt tenant submits garbage (an `Invalid` report) and an
///   oversized blob (rejected before any worker sees it);
/// * a greedy tenant blows a one-op job budget (`srv.budget_exhausted`);
/// * a hostile tenant's jobs panic via the fault hook and are quarantined
///   (`srv.quarantined`) without disturbing anyone else.
///
/// Only the `srv.*` counters cross into the bench registry: the server's
/// per-tenant `hb.*` counters stay out, so the corpus word-ops budget
/// below keeps gating exactly the direct analyses. The cache contract is
/// instead asserted through the server's own status: after both passes the
/// clean tenant's cumulative `hb.word_ops` equals one batch pass over the
/// corpus — the cache hits did zero analysis work.
fn export_server_counters(
    names: &[&'static str],
    traces: &[Trace],
    reference: &[Analysis],
    registry: &mut MetricsRegistry,
) {
    let config = ServerConfig {
        shards: 2,
        fault_hook: Some(std::sync::Arc::new(|phase: &str| {
            if phase == "job.hostile" {
                panic!("bench-injected fault");
            }
        })),
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind bench server");
    let addr = server.local_addr().expect("tcp addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let texts: Vec<String> = traces.iter().map(to_text).collect();
    let spec = JobSpec::default();
    let expected: Vec<JobReport> = reference
        .iter()
        .map(|a| JobReport::from_analysis(a, Vec::new()))
        .collect();

    // Pass 1 (clean tenant): every served report equals the direct one.
    // The clean client runs with the standard retry policy: against a
    // healthy server it must never actually retry, which the zero
    // `srv.client.retries` / `srv.client.gave_up` exports below pin.
    let mut clean = Client::connect_tcp(&addr, "clean")
        .expect("connect")
        .with_retry_policy(RetryPolicy::standard())
        .expect("retry policy");
    let start = Instant::now();
    for ((name, text), want) in names.iter().zip(&texts).zip(&expected) {
        let sub = clean.submit_trace(&spec, text).expect("submit");
        assert!(!sub.cache_hit(), "{name}: cache hit on first submission");
        assert_eq!(sub.report(), Some(want), "{name}: served report diverged");
    }
    let first_pass = start.elapsed().as_secs_f64();

    // Hostile traffic between the two clean passes.
    let mut corrupt = Client::connect_tcp(&addr, "corrupt").expect("connect");
    let sub = corrupt.submit_trace(&spec, "not a trace\n").expect("submit");
    assert_eq!(
        sub.report().expect("ran").exit,
        ExitClass::Invalid,
        "garbage must classify as Invalid"
    );
    let oversized = "x".repeat(9 << 20);
    let sub = corrupt.submit_trace(&spec, &oversized).expect("submit");
    assert!(
        matches!(sub, Submission::Rejected { .. }),
        "oversized trace must be rejected"
    );
    let mut greedy = Client::connect_tcp(&addr, "greedy").expect("connect");
    let tiny = JobSpec {
        max_ops: Some(1),
        ..JobSpec::default()
    };
    let sub = greedy.submit_trace(&tiny, &texts[0]).expect("submit");
    assert_eq!(
        sub.report().expect("ran").exit,
        ExitClass::Resource,
        "one-op budget must exhaust"
    );
    let mut hostile = Client::connect_tcp(&addr, "hostile").expect("connect");
    // A spec the clean pass never used: the content-addressed cache is
    // shared across tenants, so the same spec + bytes would be answered
    // from cache without ever reaching the fault hook.
    let uncached = JobSpec {
        validate: true,
        ..JobSpec::default()
    };
    let sub = hostile.submit_trace(&uncached, &texts[0]).expect("submit");
    let report = sub.report().expect("quarantined report");
    assert_eq!(report.exit, ExitClass::Resource);
    assert!(
        report.diagnostics.iter().any(|d| d.contains("quarantined")),
        "panic-injected job must be quarantined: {:?}",
        report.diagnostics
    );

    // Pass 2 (clean tenant): all cache hits, bit-identical reports.
    for ((name, text), want) in names.iter().zip(&texts).zip(&expected) {
        let sub = clean.submit_trace(&spec, text).expect("submit");
        assert!(sub.cache_hit(), "{name}: second submission missed the cache");
        assert_eq!(sub.report(), Some(want), "{name}: cached report diverged");
    }

    let status = clean.status().expect("status");
    let clean_stats = clean.stats();
    clean.shutdown().expect("shutdown");
    drop((clean, corrupt, greedy, hostile));
    handle.join().expect("join").expect("server run failed");

    let batch_word_ops: u64 = reference.iter().map(|a| a.hb().stats().word_ops).sum();
    assert_eq!(
        status_counter(&status, "tenant.clean.hb.word_ops"),
        Some(batch_word_ops),
        "cache hits must do zero analysis work"
    );
    for key in [
        "srv.jobs",
        "srv.cache_hits",
        "srv.cache_stores",
        "srv.quarantined",
        "srv.budget_exhausted",
        "srv.invalid",
        "srv.rejected",
    ] {
        registry.counter_add(key, status_counter(&status, key).unwrap_or(0));
    }
    registry.gauge_set("srv.traces_per_sec", traces.len() as f64 / first_pass);
    // Exported even when (expected to be) zero: a healthy server must not
    // make a retrying client work for its answers.
    registry.counter_add("srv.client.retries", clean_stats.retries);
    registry.counter_add("srv.client.gave_up", clean_stats.gave_up);
    assert_eq!(clean_stats.retries, 0, "clean pass needed retries");
    assert_eq!(clean_stats.gave_up, 0, "clean pass abandoned a submission");
    assert_eq!(
        registry.counter("srv.cache_hits"),
        Some(traces.len() as u64),
        "second clean pass must be all cache hits"
    );
    assert_eq!(registry.counter("srv.quarantined"), Some(1));
    assert_eq!(registry.counter("srv.budget_exhausted"), Some(1));
    assert_eq!(registry.counter("srv.invalid"), Some(1));
    println!(
        "server sweep OK: {} traces served at {:.2} traces/sec, {} cache hits, \
         1 invalid, 1 rejected, 1 budget-exhausted, 1 quarantined\n",
        traces.len(),
        traces.len() as f64 / first_pass,
        traces.len(),
    );
}

/// Runs the deterministic chaos soak (its own per-scenario servers and
/// scratch stores — the main sweep's counters are untouched) and exports
/// its verdict. Every violation counter must be zero: no accepted job
/// lost or duplicated, every recomputed report bit-identical, no server
/// crash, every durably-acked cache entry recovered after the simulated
/// kill + restart.
fn export_chaos_counters(registry: &mut MetricsRegistry) {
    let dir = std::env::temp_dir().join(format!("droidracer-bench-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = ChaosPlan::full(0xC4A055EED, &dir);
    let report = run_soak(&plan).expect("chaos soak infrastructure");
    std::fs::remove_dir_all(&dir).ok();
    report.export(registry);
    assert_eq!(report.violations(), 0, "chaos soak violations: {report:?}");
    println!(
        "chaos soak OK: {} scenarios, {} faults injected, {} jobs completed, \
         {} client retries, 0 violations\n",
        report.scenarios, report.faults_injected, report.jobs_completed, report.client_retries,
    );
}

/// Fails (exit 1) if the corpus-total `word_ops` regresses above the
/// checked-in budget. `BLESS=1` rewrites the budget file instead. The
/// counter is fully deterministic, so the budget is an exact ceiling, not a
/// noisy timing threshold.
fn enforce_word_ops_budget(stats: &[(&str, &EngineStats)], registry: &MetricsRegistry) {
    let total: u64 = stats.iter().map(|(_, s)| s.word_ops).sum();
    // The metrics registry must expose the exact same engine counters as the
    // raw EngineStats path — the budget is enforced through the registry to
    // keep the two views honest.
    assert_eq!(
        registry.counter("hb.word_ops"),
        Some(total),
        "MetricsRegistry word_ops diverged from EngineStats"
    );
    enforce_ceiling(
        "wordops_budget.txt",
        "# Corpus-total happens-before `word_ops` budget, enforced by the\n\
         # pipeline bench (CI perf-guard).",
        "corpus-total word_ops",
        total as f64,
        total as f64,
    );
}

/// Enforces the checked-in ceiling `tests/data/{file}`: exits 1 if
/// `measured` exceeds the file's first non-comment line, or if the file is
/// missing or malformed. With `BLESS=1` it instead rewrites the file as
/// the comment lines of `header`, the command that regenerates it, and
/// `blessed`.
fn enforce_ceiling(file: &str, header: &str, what: &str, measured: f64, blessed: f64) {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS").is_ok() {
        let content = format!(
            "{header} Regenerate with:\n\
             #   BLESS=1 cargo run --release -p droidracer-bench --bin pipeline\n\
             {blessed}\n"
        );
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("blessed {what}: {blessed}");
        return;
    }
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
            eprintln!("missing ceiling {path}: {e} (measured {measured}; run with BLESS=1)");
            std::process::exit(1);
        }
    };
    if measured > ceiling {
        eprintln!(
            "PERF REGRESSION: {what} {measured} exceeds ceiling {ceiling} (+{:.1}%). \
             If intentional, re-bless with BLESS=1.",
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
