//! Shared rendering helpers for the benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation, printing paper-reported numbers next to measured
//! ones. See DESIGN.md's experiment index (E1–E7) for the mapping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;

use droidracer_apps::{corpus, PaperRow};
use droidracer_core::{par_map_profiled, EngineStats};
use droidracer_obs::{chrome_trace, render_span_tree, MetricsRegistry, SpanRecord};
use droidracer_trace::TraceStats;

/// Exports a bench run's profile when the `DR_PROFILE` environment variable
/// names an output path: writes the Chrome `trace_event` JSON there and
/// prints the span tree. A no-op when the variable is unset, so every bench
/// binary can call this unconditionally.
pub fn maybe_export_profile(span: &SpanRecord, metrics: &MetricsRegistry) {
    let Ok(path) = std::env::var("DR_PROFILE") else {
        return;
    };
    match std::fs::write(&path, chrome_trace(std::slice::from_ref(span), metrics)) {
        Ok(()) => {
            print!("{}", render_span_tree(span));
            println!("profile written to {path}");
        }
        Err(e) => eprintln!("could not write profile {path}: {e}"),
    }
}

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Display>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows
            .push(cells.into_iter().map(|s| s.to_string()).collect());
    }

    /// Appends a horizontal rule (rendered as dashes).
    pub fn rule(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |row: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("  {cell:>w$}"));
                }
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&"-".repeat(total));
                out.push('\n');
            } else {
                render_row(row, &mut out);
            }
        }
        out
    }
}

/// Builds the hot-path counter table for a set of analyzed traces: one row
/// per trace showing where the happens-before engine spent its effort
/// (base edges, per-rule firings, fixpoint rounds, bit-matrix word-ops,
/// and the incremental-worklist counters — pops, rows recomputed, and
/// words the sparse row bounds let saturation skip).
pub fn engine_stats_table<'a>(
    rows: impl IntoIterator<Item = (&'a str, &'a EngineStats)>,
) -> TextTable {
    let mut table = TextTable::new([
        "Application",
        "Base edges",
        "FIFO",
        "NOPRE",
        "TRANS-ST",
        "TRANS-MT",
        "Rounds",
        "Word-ops",
        "Pops",
        "Rows",
        "Skipped",
    ]);
    fn cells(name: &str, s: &EngineStats) -> [String; 11] {
        [
            name.to_owned(),
            s.base_edges.to_string(),
            s.fifo_fired.to_string(),
            s.nopre_fired.to_string(),
            s.trans_st_edges.to_string(),
            s.trans_mt_edges.to_string(),
            s.rounds.to_string(),
            s.word_ops.to_string(),
            s.worklist_pops.to_string(),
            s.rows_recomputed.to_string(),
            s.skipped_words.to_string(),
        ]
    }
    let mut total = EngineStats::default();
    let mut n = 0usize;
    for (name, s) in rows {
        table.row(cells(name, s));
        total.absorb(s);
        n += 1;
    }
    if n > 1 {
        table.rule();
        table.row(cells("TOTAL", &total));
    }
    table
}

/// One row of Table 2 (experiment E1): an application's trace statistics,
/// measured on its corpus trace and as the paper reports them.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The application's name.
    pub name: &'static str,
    /// Whether the original is open source; Table 2 rules off the others.
    pub open_source: bool,
    /// The statistics of the generated trace.
    pub measured: TraceStats,
    /// The paper's numbers.
    pub paper: PaperRow,
}

impl Table2Row {
    /// The row's cells: the application (with its lines of code when the
    /// paper gives them), then trace length, fields, threads without and
    /// with task queues, and asynchronous tasks, each `measured (paper)`.
    pub fn cells(&self) -> [String; 6] {
        let (m, p) = (&self.measured, &self.paper);
        [
            match p.loc {
                Some(loc) => format!("{} ({loc})", self.name),
                None => self.name.to_owned(),
            },
            vs(m.trace_length, p.trace_length),
            vs(m.fields, p.fields),
            vs(m.threads_without_queues, p.threads_without_queues),
            vs(m.threads_with_queues, p.threads_with_queues),
            vs(m.async_tasks, p.async_tasks),
        ]
    }
}

/// Table 2's rows in corpus order, generating the traces on `threads`
/// workers, with the span of that generation. An app whose trace fails to
/// generate is reported on stderr and has no row.
pub fn table2_rows(threads: usize) -> (Vec<Table2Row>, SpanRecord) {
    let entries = corpus();
    let (traces, span) = par_map_profiled(&entries, threads, "generate", |entry, rec| {
        let trace = entry.generate_trace();
        if let Ok(t) = &trace {
            rec.counter("ops", t.len() as u64);
        }
        trace
    });
    let rows = entries
        .into_iter()
        .zip(traces)
        .filter_map(|(entry, trace)| match trace {
            Ok(t) => Some(Table2Row {
                name: entry.name,
                open_source: entry.open_source,
                measured: TraceStats::of(&t),
                paper: entry.paper,
            }),
            Err(e) => {
                eprintln!("{}: {e}", entry.name);
                None
            }
        })
        .collect();
    (rows, span)
}

/// Formats `measured` next to the paper's number as `measured (paper)`.
pub fn vs(measured: impl Display, paper: impl Display) -> String {
    format!("{measured} ({paper})")
}

/// Formats the Table 3 `X(Y)` cell.
pub fn xy(x: usize, y: usize) -> String {
    format!("{x}({y})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["App", "Len"]);
        t.row(["Aard", "1355"]);
        t.rule();
        t.row(["Flipkart", "157539"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("App"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].chars().all(|c| c == '-'));
        assert!(lines[2].ends_with("1355"));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(vs(10, 12), "10 (12)");
        assert_eq!(xy(17, 4), "17(4)");
    }

    #[test]
    fn engine_stats_table_adds_total_row() {
        let a = EngineStats {
            base_edges: 3,
            fifo_fired: 1,
            ..Default::default()
        };
        let b = EngineStats {
            base_edges: 2,
            nopre_fired: 4,
            ..Default::default()
        };
        let rendered = engine_stats_table([("x", &a), ("y", &b)]).render();
        let total = rendered.lines().last().expect("has rows");
        assert!(total.starts_with("TOTAL"), "got: {rendered}");
        assert!(total.contains('5'), "summed base edges: {rendered}");
    }
}
