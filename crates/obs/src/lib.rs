//! Structured observability for the DroidRacer pipeline.
//!
//! Production race detectors live or die by their diagnostics: every
//! analysis phase must be attributable (where did the time go?) and every
//! engine counter inspectable (what did the fixpoint actually do?). This
//! crate provides the three pieces the rest of the workspace builds on:
//!
//! * **Spans** — hierarchical wall-clock timers with explicit parent/child
//!   structure ([`SpanRecord`]), built through a stack-shaped [`Recorder`]
//!   backed by a monotonic clock;
//! * **Metrics** — a [`MetricsRegistry`] of named counters, gauges and
//!   histograms that absorbs the engine's deterministic hot-path counters
//!   instead of duplicating them;
//! * **Exporters** — a human-readable span-tree renderer
//!   ([`render_span_tree`]) and a Chrome `trace_event`-format JSON writer
//!   ([`chrome_trace`]) loadable in `chrome://tracing` / Perfetto.
//!
//! # Determinism contract
//!
//! A span tree separates *structure* from *wall-clock*. The structure —
//! span names, parent/child hierarchy, and attached counter values — is a
//! pure function of the analyzed input and must be identical across runs
//! and across worker-thread counts (the parallel pipeline merges per-worker
//! spans by input index, never by completion order). The `start_ns` /
//! `dur_ns` fields are the only nondeterministic part; the exporters keep
//! them out of [`SpanRecord::structure`] and [`strip_wall_clock`] erases
//! them from an exported profile, so equivalence tests can compare profiles
//! bit for bit.
//!
//! # Examples
//!
//! ```
//! use droidracer_obs::Recorder;
//!
//! let mut rec = Recorder::new();
//! rec.start("analyze");
//! rec.start("parse");
//! rec.counter("ops", 1355);
//! rec.end();
//! rec.start("closure");
//! rec.end();
//! rec.end();
//! let root = rec.finish_root();
//! assert_eq!(root.name, "analyze");
//! assert_eq!(root.children.len(), 2);
//! assert_eq!(root.find("parse").unwrap().counters, vec![("ops".to_owned(), 1355)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;

pub use export::{chrome_trace, render_span_tree, strip_wall_clock};
pub use metrics::{Histogram, MetricValue, MetricsRegistry};

use std::time::Instant;

/// One completed span: a named slice of wall-clock time with child spans
/// and deterministic counters attached.
///
/// `start_ns` is measured from the recording clock origin (see
/// [`Recorder::with_origin`]); both time fields are wall-clock and excluded
/// from the determinism contract. Equality compares everything — use
/// [`SpanRecord::structure`] to compare modulo wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. a pipeline phase like `closure`).
    pub name: String,
    /// Nanoseconds from the clock origin to the span's start (wall-clock).
    pub start_ns: u64,
    /// Span duration in nanoseconds (wall-clock).
    pub dur_ns: u64,
    /// Deterministic counters attached while the span was open, in
    /// attachment order.
    pub counters: Vec<(String, u64)>,
    /// Child spans, in completion order (which equals start order for the
    /// strictly nested spans a [`Recorder`] produces).
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A leaf span with zeroed times — useful for tests and synthetic trees.
    pub fn leaf(name: impl Into<String>) -> Self {
        SpanRecord {
            name: name.into(),
            start_ns: 0,
            dur_ns: 0,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Depth-first search for the first span named `name` (including self).
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanRecord::span_count)
            .sum::<usize>()
    }

    /// The deterministic structure of the subtree: names, hierarchy and
    /// counters, with every wall-clock field omitted. Two runs of the same
    /// input — at any worker-thread count — must produce identical
    /// structures.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        self.push_structure(0, &mut out);
        out
    }

    fn push_structure(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        for (k, v) in &self.counters {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for child in &self.children {
            child.push_structure(depth + 1, out);
        }
    }

    /// Shifts every `start_ns` in the subtree by `delta` nanoseconds
    /// (saturating at zero).
    fn shift(&mut self, delta: i128) {
        let shifted = self.start_ns as i128 + delta;
        self.start_ns = shifted.clamp(0, u64::MAX as i128) as u64;
        for child in &mut self.children {
            child.shift(delta);
        }
    }
}

struct Frame {
    record: SpanRecord,
    start: Instant,
}

/// A stack-shaped span builder over a monotonic clock.
///
/// [`Recorder::start`] opens a span nested in the innermost open span;
/// [`Recorder::end`] closes it, stamping the duration. Completed subtrees
/// recorded elsewhere on the *same* clock origin graft in via
/// [`Recorder::adopt`]; subtrees from a foreign clock rebase via
/// [`Recorder::graft`].
pub struct Recorder {
    origin: Instant,
    stack: Vec<Frame>,
    roots: Vec<SpanRecord>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose clock origin is "now".
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A recorder measuring from an explicit origin. Sharing one origin
    /// across the workers of a parallel fan-out puts every recorded span on
    /// a single timeline, so per-worker subtrees adopt without rebasing.
    pub fn with_origin(origin: Instant) -> Self {
        Recorder {
            origin,
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The clock origin all `start_ns` values are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span (or a new root).
    pub fn start(&mut self, name: impl Into<String>) {
        let mut record = SpanRecord::leaf(name);
        record.start_ns = self.now_ns();
        self.stack.push(Frame {
            record,
            start: Instant::now(),
        });
    }

    /// Attaches a deterministic counter to the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.stack
            .last_mut()
            .expect("counter() requires an open span")
            .record
            .counters
            .push((name.into(), value));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self) {
        let mut frame = self.stack.pop().expect("end() without a matching start()");
        frame.record.dur_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match self.stack.last_mut() {
            Some(parent) => parent.record.children.push(frame.record),
            None => self.roots.push(frame.record),
        }
    }

    /// Runs `f` inside a span named `name` (convenience for start/end).
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.start(name);
        let r = f(self);
        self.end();
        r
    }

    /// Attaches a completed subtree recorded on the *same* clock origin as
    /// a child of the innermost open span (or as a root). Times are kept
    /// verbatim.
    pub fn adopt(&mut self, record: SpanRecord) {
        match self.stack.last_mut() {
            Some(parent) => parent.record.children.push(record),
            None => self.roots.push(record),
        }
    }

    /// Attaches a completed subtree recorded on a *foreign* clock, rebasing
    /// its times so the subtree ends "now" on this recorder's timeline.
    /// Correct when grafting immediately after the recorded work finished —
    /// the usual case of folding a worker-local profile into a parent.
    pub fn graft(&mut self, mut record: SpanRecord) {
        let end = record.start_ns.saturating_add(record.dur_ns);
        let delta = self.now_ns() as i128 - end as i128;
        record.shift(delta);
        self.adopt(record);
    }

    /// Closes any still-open spans and returns the completed roots in
    /// completion order.
    pub fn finish(mut self) -> Vec<SpanRecord> {
        while !self.stack.is_empty() {
            self.end();
        }
        self.roots
    }

    /// Like [`Recorder::finish`], asserting the recording produced exactly
    /// one root span.
    ///
    /// # Panics
    ///
    /// Panics if the recording has zero or several roots.
    pub fn finish_root(self) -> SpanRecord {
        let mut roots = self.finish();
        assert_eq!(roots.len(), 1, "expected exactly one root span");
        roots.pop().expect("checked length")
    }
}

/// A destination for completed profiles: one span tree plus the metrics
/// that go with it. Sinks let an `AnalysisBuilder` caller opt into
/// observability without threading arguments through every pipeline layer.
pub trait ObsSink: Send + Sync {
    /// Consumes one completed profile.
    fn record(&self, spans: &SpanRecord, metrics: &MetricsRegistry);
}

/// An [`ObsSink`] that buffers every profile it receives, in arrival order.
///
/// Arrival order is nondeterministic under a parallel fan-out; deterministic
/// pipelines should prefer the span trees carried by the analysis results
/// themselves (merged by input index). The collector is for streaming
/// consumers that only aggregate.
#[derive(Default)]
pub struct CollectingSink {
    profiles: std::sync::Mutex<Vec<(SpanRecord, MetricsRegistry)>>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the collected profiles.
    pub fn take(&self) -> Vec<(SpanRecord, MetricsRegistry)> {
        std::mem::take(&mut self.profiles.lock().expect("sink lock poisoned"))
    }

    /// Number of profiles collected so far.
    pub fn len(&self) -> usize {
        self.profiles.lock().expect("sink lock poisoned").len()
    }

    /// Whether nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObsSink for CollectingSink {
    fn record(&self, spans: &SpanRecord, metrics: &MetricsRegistry) {
        self.profiles
            .lock()
            .expect("sink lock poisoned")
            .push((spans.clone(), metrics.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_start_end_pairs() {
        let mut rec = Recorder::new();
        rec.start("root");
        rec.start("a");
        rec.end();
        rec.start("b");
        rec.start("b1");
        rec.end();
        rec.end();
        rec.end();
        let root = rec.finish_root();
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "a");
        assert_eq!(root.children[1].children[0].name, "b1");
        assert_eq!(root.span_count(), 4);
    }

    #[test]
    fn structure_omits_wall_clock() {
        let mut rec = Recorder::new();
        rec.start("root");
        rec.counter("ops", 7);
        rec.start("child");
        rec.end();
        rec.end();
        let root = rec.finish_root();
        assert_eq!(root.structure(), "root ops=7\n  child\n");
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut rec = Recorder::new();
        rec.start("root");
        rec.start("open");
        let roots = rec.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children[0].name, "open");
    }

    #[test]
    fn adopt_keeps_times_graft_rebases() {
        let mut child = SpanRecord::leaf("worker");
        child.start_ns = 1_000;
        child.dur_ns = 500;

        let mut rec = Recorder::new();
        rec.start("root");
        rec.adopt(child.clone());
        rec.graft(child);
        rec.end();
        let root = rec.finish_root();
        assert_eq!(root.children[0].start_ns, 1_000);
        // The grafted copy was rebased to end at graft time.
        let grafted = &root.children[1];
        assert!(grafted.start_ns + grafted.dur_ns <= root.dur_ns + root.start_ns + 1_000_000);
    }

    #[test]
    fn find_searches_depth_first() {
        let mut rec = Recorder::new();
        rec.start("root");
        rec.start("x");
        rec.start("target");
        rec.end();
        rec.end();
        rec.end();
        let root = rec.finish_root();
        assert!(root.find("target").is_some());
        assert!(root.find("absent").is_none());
    }

    #[test]
    fn collecting_sink_buffers_profiles() {
        let sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.record(&SpanRecord::leaf("a"), &MetricsRegistry::new());
        sink.record(&SpanRecord::leaf("b"), &MetricsRegistry::new());
        assert_eq!(sink.len(), 2);
        let got = sink.take();
        assert_eq!(got[0].0.name, "a");
        assert!(sink.is_empty());
    }

    #[test]
    #[should_panic]
    fn end_without_start_panics() {
        let mut rec = Recorder::new();
        rec.end();
    }
}
