//! Profile exporters: the human-readable span-tree renderer and the Chrome
//! `trace_event`-format JSON writer.
//!
//! The Chrome format is the de-facto interchange format for timeline
//! profiles: a `{"traceEvents": [...]}` object whose events use `"ph": "X"`
//! complete events (name, microsecond `ts`/`dur`, `pid`/`tid`) for spans
//! and `"ph": "C"` counter events for metrics. The emitted files load in
//! `chrome://tracing` and Perfetto.
//!
//! Both exporters keep the determinism contract of the crate root: the only
//! nondeterministic bytes in an export are the `ts`/`dur` values, which
//! [`strip_wall_clock`] erases for bit-exact comparisons.

use crate::json::escape;
use crate::metrics::{MetricValue, MetricsRegistry};
use crate::SpanRecord;

fn format_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} µs", ns as f64 / 1e3)
    }
}

/// Renders a span tree with box-drawing guides, right-aligned durations and
/// the counters attached to each span:
///
/// ```text
/// analyze                     3.21 ms
/// ├─ parse                    0.52 ms  ops=1355
/// └─ analysis                 2.40 ms
///    ├─ prepare               0.11 ms  ops=1355
///    └─ closure               1.80 ms  word_ops=12803
/// ```
pub fn render_span_tree(root: &SpanRecord) -> String {
    let mut rows: Vec<(String, u64, String)> = Vec::new();
    collect_rows(root, "", "", &mut rows);
    let label_width = rows
        .iter()
        .map(|(l, _, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, dur_ns, counters) in rows {
        let pad = label_width - label.chars().count();
        out.push_str(&label);
        out.push_str(&" ".repeat(pad));
        out.push_str(&format!("  {:>10}", format_duration(dur_ns)));
        if !counters.is_empty() {
            out.push_str("  ");
            out.push_str(&counters);
        }
        out.push('\n');
    }
    out
}

fn collect_rows(
    span: &SpanRecord,
    prefix: &str,
    child_prefix: &str,
    rows: &mut Vec<(String, u64, String)>,
) {
    let counters = span
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    rows.push((format!("{prefix}{}", span.name), span.dur_ns, counters));
    let last = span.children.len().saturating_sub(1);
    for (i, child) in span.children.iter().enumerate() {
        let (tee, bar) = if i == last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        collect_rows(
            child,
            &format!("{child_prefix}{tee}"),
            &format!("{child_prefix}{bar}"),
            rows,
        );
    }
}

fn push_span_events(span: &SpanRecord, first: &mut bool, out: &mut String) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let mut args = span
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
        .collect::<Vec<_>>()
        .join(", ");
    if !args.is_empty() {
        args = format!(" {args} ");
    }
    out.push_str(&format!(
        "    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 0, \"args\": {{{args}}}}}",
        escape(&span.name),
        span.start_ns as f64 / 1e3,
        span.dur_ns as f64 / 1e3,
    ));
    for child in &span.children {
        push_span_events(child, first, out);
    }
}

/// Writes `roots` and the deterministic metrics of `metrics` as a Chrome
/// `trace_event` JSON document.
///
/// Spans become `"ph": "X"` complete events (depth-first order, counters in
/// `args`); counters and histograms become `"ph": "C"` counter events at
/// `ts` 0. Gauges are wall-clock-ish by convention and deliberately not
/// exported, so the only nondeterministic bytes in the document are the
/// span `ts`/`dur` values (see [`strip_wall_clock`]).
pub fn chrome_trace(roots: &[SpanRecord], metrics: &MetricsRegistry) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    for root in roots {
        push_span_events(root, &mut first, &mut out);
    }
    for (name, value) in metrics.iter() {
        let args = match value {
            MetricValue::Counter(v) => format!("\"value\": {v}"),
            MetricValue::Histogram(h) => format!(
                "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            ),
            MetricValue::Gauge(_) => continue,
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cat\": \"metric\", \"ph\": \"C\", \"ts\": 0, \"pid\": 1, \"tid\": 0, \"args\": {{ {args} }}}}",
            escape(name)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Erases the wall-clock fields of an exported profile: the numeric value
/// after every `"ts":` and `"dur":` key becomes `0`. Two profiles of the
/// same input — at any worker-thread count — must be bit-identical after
/// stripping.
pub fn strip_wall_clock(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while !rest.is_empty() {
        let ts = rest.find("\"ts\":");
        let dur = rest.find("\"dur\":");
        let (at, key_len) = match (ts, dur) {
            (Some(t), Some(d)) => {
                if t < d {
                    (t, 5)
                } else {
                    (d, 6)
                }
            }
            (Some(t), None) => (t, 5),
            (None, Some(d)) => (d, 6),
            (None, None) => break,
        };
        let number_start = at + key_len;
        out.push_str(&rest[..number_start]);
        rest = &rest[number_start..];
        let skipped = rest
            .find(|c: char| !matches!(c, ' ' | '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(rest.len());
        out.push_str(" 0");
        rest = &rest[skipped..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_tree() -> SpanRecord {
        let mut root = SpanRecord::leaf("analyze");
        root.dur_ns = 3_210_000;
        let mut parse = SpanRecord::leaf("parse");
        parse.start_ns = 10_000;
        parse.dur_ns = 520_000;
        parse.counters.push(("ops".to_owned(), 1355));
        let mut closure = SpanRecord::leaf("closure");
        closure.start_ns = 600_000;
        closure.dur_ns = 1_800_000;
        root.children.push(parse);
        root.children.push(closure);
        root
    }

    #[test]
    fn tree_renderer_shows_guides_and_counters() {
        let text = render_span_tree(&sample_tree());
        assert!(text.contains("analyze"), "{text}");
        assert!(text.contains("├─ parse"), "{text}");
        assert!(text.contains("└─ closure"), "{text}");
        assert!(text.contains("ops=1355"), "{text}");
        assert!(text.contains("ms"), "{text}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_spans() {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("hb.word_ops", 42);
        metrics.gauge_set("time.total_ms", 3.2);
        metrics.observe("trace.ops", 1355);
        let doc = chrome_trace(std::slice::from_ref(&sample_tree()), &metrics);
        let json = Json::parse(&doc).expect("exported profile parses");
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        // 3 spans + counter + histogram; the gauge is excluded.
        assert_eq!(events.len(), 5);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"analyze"));
        assert!(names.contains(&"hb.word_ops"));
        assert!(!names.contains(&"time.total_ms"));
        for event in events {
            assert!(event.get("ph").is_some());
            assert!(event.get("ts").is_some());
            assert!(event.get("pid").is_some());
        }
    }

    #[test]
    fn strip_wall_clock_zeroes_ts_and_dur_only() {
        let doc = chrome_trace(
            std::slice::from_ref(&sample_tree()),
            &MetricsRegistry::new(),
        );
        let stripped = strip_wall_clock(&doc);
        assert!(stripped.contains("\"ts\": 0"), "{stripped}");
        assert!(stripped.contains("\"dur\": 0"), "{stripped}");
        assert!(!stripped.contains("520.000"), "{stripped}");
        // Still valid JSON, with counters untouched.
        let json = Json::parse(&stripped).expect("stripped profile parses");
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        let parse = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("parse"))
            .unwrap();
        assert_eq!(
            parse.get("args").unwrap().get("ops").unwrap().as_f64(),
            Some(1355.0)
        );
    }

    #[test]
    fn identical_structures_strip_to_identical_bytes() {
        let mut a = sample_tree();
        let mut b = sample_tree();
        a.dur_ns = 111;
        b.dur_ns = 999_999;
        a.children[0].start_ns = 5;
        b.children[0].start_ns = 777;
        let m = MetricsRegistry::new();
        let sa = strip_wall_clock(&chrome_trace(std::slice::from_ref(&a), &m));
        let sb = strip_wall_clock(&chrome_trace(std::slice::from_ref(&b), &m));
        assert_eq!(sa, sb);
        assert_eq!(a.structure(), b.structure());
    }
}
