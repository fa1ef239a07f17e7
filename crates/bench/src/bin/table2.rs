//! Experiment E1 — regenerates **Table 2**: statistics about applications
//! and traces (trace length, distinct fields, threads without/with task
//! queues, asynchronous tasks), measured on the synthetic corpus next to the
//! paper's numbers.
//!
//! Run with `cargo run --release -p droidracer-bench --bin table2`.

use droidracer_bench::{maybe_export_profile, table2_rows, TextTable};
use droidracer_core::default_threads;
use droidracer_obs::MetricsRegistry;

fn main() {
    let mut table = TextTable::new([
        "Application (LOC)",
        "Trace length",
        "Fields",
        "Threads (w/o Qs)",
        "Threads (w/ Qs)",
        "Async. tasks",
    ]);
    println!("Table 2: statistics about applications and traces");
    println!("(measured on the synthetic corpus; paper-reported numbers in parentheses)\n");
    let (rows, span) = table2_rows(default_threads());
    let mut registry = MetricsRegistry::new();
    let mut was_open_source = true;
    for row in &rows {
        if was_open_source && !row.open_source {
            table.rule();
            was_open_source = false;
        }
        let stats = &row.measured;
        registry.counter_add("trace.ops", stats.trace_length as u64);
        registry.counter_add("trace.fields", stats.fields as u64);
        registry.counter_add("trace.async_tasks", stats.async_tasks as u64);
        table.row(row.cells());
    }
    println!("{}", table.render());
    maybe_export_profile(&span, &registry);
}
