//! Experiment E3 — the performance numbers reported in §6 prose:
//!
//! * the node-merging optimization reduces graph nodes to 1.4%–24.8% of the
//!   trace length (average 11.1%) — e.g. Flipkart's 157K-op trace becomes a
//!   2.2K-node graph;
//! * race detection takes "a few seconds to a few hours" and up to 20 MB.
//!
//! Run with `cargo run --release -p droidracer-bench --bin perf_table`.

use std::time::Instant;

use droidracer_apps::corpus;
use droidracer_bench::{engine_stats_table, maybe_export_profile, TextTable};
use droidracer_core::{analyze_all_profiled, default_threads, par_map, HappensBefore, HbConfig};
use droidracer_obs::MetricsRegistry;
use droidracer_trace::Trace;

/// Rough memory footprint of the closed relation: two N×N bit matrices.
fn relation_bytes(nodes: usize) -> usize {
    2 * nodes * nodes.div_ceil(64) * 8
}

fn mb(bytes: usize) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let mut table = TextTable::new([
        "Application",
        "Trace len",
        "Graph nodes",
        "Reduction",
        "HB rounds",
        "Analysis time",
        "Relation mem",
    ]);
    println!("Performance of the Race Detector (§6 prose)");
    println!("paper: nodes reduced to 1.4%–24.8% of trace length (avg 11.1%), ≤20 MB\n");
    let mut ratios = Vec::new();
    // Generate and analyze the corpus on the parallel pipeline; results
    // arrive in corpus order. Per-entry analysis time comes from the
    // analysis' own stage timing, so it stays meaningful under fan-out.
    let entries = corpus();
    let generated = par_map(&entries, default_threads(), |entry| entry.generate_trace());
    let mut traces: Vec<(&'static str, Trace)> = Vec::new();
    for (entry, trace) in entries.iter().zip(generated) {
        match trace {
            Ok(t) => traces.push((entry.name, t)),
            Err(e) => eprintln!("{}: {e}", entry.name),
        }
    }
    let plain_traces: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let (analyses, span) = analyze_all_profiled(&plain_traces, default_threads(), HbConfig::new());
    let mut registry = MetricsRegistry::new();
    for analysis in &analyses {
        registry.absorb(&analysis.metrics());
    }
    for ((name, trace), analysis) in traces.iter().zip(&analyses) {
        let graph = analysis.hb().graph();
        let ratio = graph.reduction_ratio();
        ratios.push(ratio);
        table.row([
            (*name).to_owned(),
            trace.len().to_string(),
            graph.node_count().to_string(),
            format!("{:.1}%", ratio * 100.0),
            analysis.hb().rounds().to_string(),
            format!("{:.0} ms", analysis.spans().dur_ns as f64 / 1e6),
            mb(relation_bytes(graph.node_count())),
        ]);
    }
    println!("{}", table.render());

    println!("Happens-before engine hot-path counters:");
    let stats_rows: Vec<(&str, _)> = traces
        .iter()
        .zip(&analyses)
        .map(|((name, _), analysis)| (*name, analysis.hb().stats()))
        .collect();
    println!(
        "{}",
        engine_stats_table(stats_rows.iter().map(|&(n, s)| (n, s))).render()
    );
    let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let (lo, hi) = ratios.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    println!(
        "Node reduction: {:.1}%–{:.1}%, avg {:.1}%   (paper: 1.4%–24.8%, avg 11.1%)\n",
        lo * 100.0,
        hi * 100.0,
        avg * 100.0
    );

    // Merged vs unmerged comparison: the optimization's effect on analysis
    // time and memory without precision loss. Picks the largest trace that
    // stays tractable unmerged (an unmerged N-op trace needs two N×N bit
    // matrices — the whole point of the optimization).
    if let Some((name, trace)) = traces
        .iter()
        .filter(|(_, t)| t.len() <= 8_000)
        .max_by_key(|(_, t)| t.len())
    {
        println!("Merged vs unmerged graph on {name} ({} ops):", trace.len());
        for (label, config) in [
            ("merged  ", HbConfig::new()),
            ("unmerged", HbConfig::new().without_merging()),
        ] {
            let start = Instant::now();
            let hb = HappensBefore::compute(trace, config);
            let elapsed = start.elapsed();
            println!(
                "  {label}: {:>7} nodes, {:>8.0} ms, {}",
                hb.graph().node_count(),
                elapsed.as_secs_f64() * 1000.0,
                mb(relation_bytes(hb.graph().node_count())),
            );
        }
    }
    maybe_export_profile(&span, &registry);
}
