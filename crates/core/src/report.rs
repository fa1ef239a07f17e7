//! End-to-end analysis: happens-before + detection + classification, with
//! Table 3-style reporting.
//!
//! Sessions are started through [`AnalysisBuilder`](crate::AnalysisBuilder);
//! for the service-shaped result (uniform across batch and streaming, with
//! a stable wire/cache encoding) see [`JobReport`](crate::JobReport).

use std::collections::HashMap;
use std::fmt;

use droidracer_obs::{MetricsRegistry, SpanRecord};
use droidracer_trace::{MemLoc, Trace};

use crate::classify::RaceCategory;
use crate::coverage::CoverageReport;
use crate::engine::HappensBefore;
use crate::race::Race;

/// A race together with its §4.3 category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedRace {
    /// The race.
    pub race: Race,
    /// Its category.
    pub category: RaceCategory,
}

/// One representative race per `(location, category)` pair — the reporting
/// granularity of Table 3 ("if there are multiple races belonging to the
/// same category on the same memory location, DroidRacer reports any one of
/// them").
pub(crate) fn representatives_of(races: &[ClassifiedRace]) -> Vec<ClassifiedRace> {
    let mut seen: HashMap<(MemLoc, RaceCategory), ClassifiedRace> = HashMap::new();
    for cr in races {
        seen.entry((cr.race.loc, cr.category)).or_insert(*cr);
    }
    let mut reps: Vec<ClassifiedRace> = seen.into_values().collect();
    reps.sort_by_key(|cr| (cr.race.loc, cr.category, cr.race.first, cr.race.second));
    reps
}

/// The result of analyzing one trace: the (cancellation-stripped) trace, the
/// happens-before relation, the classified races, and the session's
/// observability record (phase spans + engine metrics).
///
/// # Examples
///
/// ```
/// use droidracer_trace::{TraceBuilder, ThreadKind};
/// use droidracer_core::AnalysisBuilder;
///
/// let mut b = TraceBuilder::new();
/// let main = b.thread("main", ThreadKind::Main, true);
/// let bg = b.thread("bg", ThreadKind::App, false);
/// let loc = b.loc("obj", "C.state");
/// b.thread_init(main);
/// b.fork(main, bg);
/// b.thread_init(bg);
/// b.write(bg, loc);
/// b.read(main, loc);
///
/// let analysis = AnalysisBuilder::new().analyze(&b.finish()).unwrap();
/// assert_eq!(analysis.races().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Analysis {
    trace: Trace,
    hb: HappensBefore,
    races: Vec<ClassifiedRace>,
    spans: SpanRecord,
    coverage: Option<CoverageReport>,
    explanations: Vec<String>,
}

impl Analysis {
    /// Assembles a result from the pipeline stages (used by the builder;
    /// spans default to an empty placeholder until the session closes).
    pub(crate) fn assemble(trace: Trace, hb: HappensBefore, races: Vec<ClassifiedRace>) -> Self {
        Analysis {
            trace,
            hb,
            races,
            spans: SpanRecord::leaf("analysis"),
            coverage: None,
            explanations: Vec::new(),
        }
    }

    pub(crate) fn set_spans(&mut self, spans: SpanRecord) {
        self.spans = spans;
    }

    pub(crate) fn set_coverage(&mut self, coverage: CoverageReport) {
        self.coverage = Some(coverage);
    }

    pub(crate) fn set_explanations(&mut self, explanations: Vec<String>) {
        self.explanations = explanations;
    }

    /// The analyzed trace (after cancellation stripping).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The happens-before relation.
    pub fn hb(&self) -> &HappensBefore {
        &self.hb
    }

    /// The session's phase span tree (root `analysis`, children per pipeline
    /// stage). Span *structure* — names, nesting, counters — is
    /// deterministic; only `start_ns`/`dur_ns` carry wall-clock values, and
    /// they are the analysis's only timing record (observability only, never
    /// part of report equality).
    pub fn spans(&self) -> &SpanRecord {
        &self.spans
    }

    /// The session's metrics: every engine counter, graph/trace sizes, and
    /// per-category race counts as deterministic counters, plus the total
    /// wall-clock time as the `time.total_ms` gauge. That gauge reads the
    /// root `analysis` span, so it also covers the opt-in validate, coverage
    /// and explain phases.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("trace.ops", self.trace.len() as u64);
        m.counter_add("graph.nodes", self.hb.graph().node_count() as u64);
        let stats = self.hb.stats();
        m.counter_add("hb.base_edges", stats.base_edges as u64);
        m.counter_add("hb.fifo_fired", stats.fifo_fired as u64);
        m.counter_add("hb.nopre_fired", stats.nopre_fired as u64);
        m.counter_add("hb.trans_st_edges", stats.trans_st_edges as u64);
        m.counter_add("hb.trans_mt_edges", stats.trans_mt_edges as u64);
        m.counter_add("hb.rounds", stats.rounds as u64);
        m.counter_add("hb.word_ops", stats.word_ops);
        m.counter_add("hb.worklist_pops", stats.worklist_pops);
        m.counter_add("hb.rows_recomputed", stats.rows_recomputed);
        m.counter_add("hb.skipped_words", stats.skipped_words);
        m.counter_add("races.block_pairs", self.races.len() as u64);
        let counts = self.counts();
        m.counter_add("races.representatives", counts.total() as u64);
        for cat in RaceCategory::all() {
            m.counter_add(format!("races.{cat}"), counts.get(cat) as u64);
        }
        m.gauge_set("time.total_ms", self.spans.dur_ns as f64 / 1e6);
        m
    }

    /// The coverage report, when the session ran with
    /// [`AnalysisBuilder::with_coverage`](crate::AnalysisBuilder::with_coverage).
    pub fn coverage(&self) -> Option<&CoverageReport> {
        self.coverage.as_ref()
    }

    /// One rendered explanation per representative race, when the session
    /// ran with
    /// [`AnalysisBuilder::with_explanations`](crate::AnalysisBuilder::with_explanations).
    pub fn explanations(&self) -> &[String] {
        &self.explanations
    }

    /// All classified races (one per unordered conflicting block pair).
    pub fn races(&self) -> &[ClassifiedRace] {
        &self.races
    }

    /// One representative race per `(location, category)` pair — the
    /// reporting granularity of Table 3 ("if there are multiple races
    /// belonging to the same category on the same memory location,
    /// DroidRacer reports any one of them").
    pub fn representatives(&self) -> Vec<ClassifiedRace> {
        representatives_of(&self.races)
    }

    /// Number of representative races in `category`.
    pub fn count(&self, category: RaceCategory) -> usize {
        self.representatives()
            .iter()
            .filter(|cr| cr.category == category)
            .count()
    }

    /// Representative counts for every category, in presentation order.
    pub fn counts(&self) -> CategoryCounts {
        let mut counts = CategoryCounts::default();
        for cr in self.representatives() {
            counts.add(cr.category, 1);
        }
        counts
    }

    /// Renders a human-readable report using the trace's name table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let names = self.trace.names();
        let reps = self.representatives();
        out.push_str(&format!(
            "{} race report(s) on {} location(s)\n",
            reps.len(),
            reps.iter()
                .map(|cr| cr.race.loc)
                .collect::<std::collections::HashSet<_>>()
                .len()
        ));
        for cr in &reps {
            let r = &cr.race;
            out.push_str(&format!(
                "  [{}] {} on {}: op {} `{}` vs op {} `{}`\n",
                cr.category,
                r.kind,
                names.loc_name(r.loc),
                r.first,
                self.trace.op(r.first),
                r.second,
                self.trace.op(r.second),
            ));
        }
        out
    }
}

/// Race counts per category, in the shape of one row of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// Multi-threaded races.
    pub multithreaded: usize,
    /// Co-enabled single-threaded races.
    pub co_enabled: usize,
    /// Delayed single-threaded races.
    pub delayed: usize,
    /// Cross-posted single-threaded races.
    pub cross_posted: usize,
    /// Unclassified races.
    pub unknown: usize,
}

impl CategoryCounts {
    /// Adds `n` to `category`.
    pub fn add(&mut self, category: RaceCategory, n: usize) {
        match category {
            RaceCategory::Multithreaded => self.multithreaded += n,
            RaceCategory::CoEnabled => self.co_enabled += n,
            RaceCategory::Delayed => self.delayed += n,
            RaceCategory::CrossPosted => self.cross_posted += n,
            RaceCategory::Unknown => self.unknown += n,
        }
    }

    /// Count for `category`.
    pub fn get(&self, category: RaceCategory) -> usize {
        match category {
            RaceCategory::Multithreaded => self.multithreaded,
            RaceCategory::CoEnabled => self.co_enabled,
            RaceCategory::Delayed => self.delayed,
            RaceCategory::CrossPosted => self.cross_posted,
            RaceCategory::Unknown => self.unknown,
        }
    }

    /// Total across categories.
    pub fn total(&self) -> usize {
        self.multithreaded + self.co_enabled + self.delayed + self.cross_posted + self.unknown
    }

    /// Element-wise sum.
    pub fn merged(mut self, other: &CategoryCounts) -> CategoryCounts {
        for cat in RaceCategory::all() {
            self.add(cat, other.get(cat));
        }
        self
    }
}

impl fmt::Display for CategoryCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mt={} cross-posted={} co-enabled={} delayed={} unknown={}",
            self.multithreaded, self.cross_posted, self.co_enabled, self.delayed, self.unknown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::HbMode;
    use crate::session::AnalysisBuilder;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("obj", "C.state");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        b.finish()
    }

    fn analyze(trace: &Trace) -> Analysis {
        AnalysisBuilder::new().analyze(trace).expect("runs")
    }

    #[test]
    fn analysis_finds_and_classifies() {
        let analysis = analyze(&racy_trace());
        assert_eq!(analysis.races().len(), 1);
        assert_eq!(analysis.count(RaceCategory::Multithreaded), 1);
        assert_eq!(analysis.counts().total(), 1);
    }

    #[test]
    fn representatives_dedup_by_location_and_category() {
        // Two bg accesses in separate blocks race with main's block on the
        // same location → 2 block-pair races, 1 representative.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("obj", "C.state");
        let l = b.lock("m");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.acquire(bg, l); // splits bg's accesses into two blocks
        b.release(bg, l);
        b.write(bg, loc);
        b.read(main, loc);
        let trace = b.finish();
        let analysis = analyze(&trace);
        assert_eq!(analysis.races().len(), 2);
        assert_eq!(analysis.representatives().len(), 1);
    }

    #[test]
    fn cancelled_posts_are_stripped_before_analysis() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post(main, t1, main);
        b.cancel(main, t1);
        let trace = b.finish();
        let analysis = analyze(&trace);
        assert_eq!(analysis.trace().len(), 3);
        assert!(analysis.races().is_empty());
    }

    #[test]
    fn render_mentions_location_names() {
        let analysis = analyze(&racy_trace());
        let text = analysis.render();
        assert!(text.contains("C.state"), "got: {text}");
        assert!(text.contains("multithreaded"), "got: {text}");
    }

    #[test]
    fn counts_arithmetic() {
        let mut a = CategoryCounts::default();
        a.add(RaceCategory::CoEnabled, 3);
        a.add(RaceCategory::Unknown, 1);
        let mut b = CategoryCounts::default();
        b.add(RaceCategory::CoEnabled, 2);
        let m = a.merged(&b);
        assert_eq!(m.co_enabled, 5);
        assert_eq!(m.total(), 6);
        assert_eq!(m.get(RaceCategory::Unknown), 1);
    }

    #[test]
    fn baseline_mode_analysis_runs() {
        let trace = racy_trace();
        for mode in HbMode::all() {
            let analysis = AnalysisBuilder::new().mode(mode).analyze(&trace).expect("runs");
            // The mt race is visible to every mode that has fork edges; the
            // async-only baseline misses fork and reports it too (as a
            // "race") — either way analysis must not crash.
            let _ = analysis.counts();
        }
    }

    #[test]
    fn metrics_mirror_engine_stats() {
        let analysis = analyze(&racy_trace());
        let m = analysis.metrics();
        let stats = analysis.hb().stats();
        assert_eq!(m.counter("hb.word_ops"), Some(stats.word_ops));
        assert_eq!(m.counter("hb.base_edges"), Some(stats.base_edges as u64));
        assert_eq!(m.counter("hb.rounds"), Some(stats.rounds as u64));
        assert_eq!(m.counter("trace.ops"), Some(analysis.trace().len() as u64));
        assert_eq!(
            m.counter("races.representatives"),
            Some(analysis.counts().total() as u64)
        );
        assert!(m.gauge("time.total_ms").is_some());
    }
}
