//! The analysis session API: [`AnalysisBuilder`] and [`AnalysisError`].
//!
//! Historically the pipeline was driven through a knob soup of free
//! constructors (an `Analysis::run`/`run_mode`/`run_with` family, since
//! removed, plus an `HbConfig` with a merge flag). The builder replaces them with a
//! single entry point that owns every toggle — relation preset, individual
//! rules, node merging, optional semantics validation, race coverage and
//! race explanations — and the observability wiring: every session records
//! a five-phase span tree, and an optional [`ObsSink`] receives the
//! completed profile without any caller threading arguments through the
//! pipeline layers.
//!
//! # Examples
//!
//! ```
//! use droidracer_trace::{ThreadKind, TraceBuilder};
//! use droidracer_core::AnalysisBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let main = b.thread("main", ThreadKind::Main, true);
//! let bg = b.thread("bg", ThreadKind::App, false);
//! let loc = b.loc("obj", "C.state");
//! b.thread_init(main);
//! b.fork(main, bg);
//! b.thread_init(bg);
//! b.write(bg, loc);
//! b.read(main, loc);
//!
//! let analysis = AnalysisBuilder::new()
//!     .validate_first(true)
//!     .analyze(&b.finish())
//!     .expect("valid trace");
//! assert_eq!(analysis.races().len(), 1);
//! // Every session carries its phase spans and engine metrics.
//! assert!(analysis.spans().find("closure").is_some());
//! assert_eq!(
//!     analysis.metrics().counter("hb.rounds"),
//!     Some(analysis.hb().rounds() as u64),
//! );
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use droidracer_obs::{MetricsRegistry, ObsSink, Recorder, SpanRecord};
use droidracer_trace::{validate, Names, Op, Trace, ValidateError};

use crate::classify::classify;
use crate::coverage::race_coverage;
use crate::engine::HappensBefore;
use crate::explain::explain;
use crate::graph::HbGraph;
use crate::race::detect;
use crate::report::{representatives_of, Analysis, ClassifiedRace};
use crate::robust::{Budget, BudgetExhausted, BudgetReason};
use crate::rules::{HbConfig, HbMode, RuleSet};
use crate::stream::{StreamEvent, StreamOptions, StreamOutcome, StreamStats, StreamingAnalysis};

/// Why an analysis session could not produce a result.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The input trace violates the concurrency semantics (only checked
    /// when [`AnalysisBuilder::validate_first`] is enabled).
    Validate(ValidateError),
    /// The session ran out of its resource [`Budget`]; the payload carries
    /// the partial engine counters accumulated before the cutoff.
    BudgetExhausted(BudgetExhausted),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Validate(e) => write!(f, "trace rejected by the semantics checker: {e}"),
            AnalysisError::BudgetExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Validate(e) => Some(e),
            AnalysisError::BudgetExhausted(e) => Some(e),
        }
    }
}

impl From<ValidateError> for AnalysisError {
    fn from(e: ValidateError) -> Self {
        AnalysisError::Validate(e)
    }
}

impl From<BudgetExhausted> for AnalysisError {
    fn from(e: BudgetExhausted) -> Self {
        AnalysisError::BudgetExhausted(e)
    }
}

/// Builder-style entry point for one race-detection session.
///
/// See the [module documentation](self) for an example. All setters take
/// and return `self`, so a session reads as one expression; the terminal
/// operation is [`AnalysisBuilder::analyze`].
#[derive(Clone, Default)]
pub struct AnalysisBuilder {
    config: HbConfig,
    validate: bool,
    coverage: bool,
    explain: bool,
    origin: Option<Instant>,
    sink: Option<Arc<dyn ObsSink>>,
    budget: Budget,
    fault_hook: Option<FaultHook>,
}

/// A fault-injection callback fired with each phase name as it starts; see
/// [`AnalysisBuilder::fault_hook`].
pub type FaultHook = Arc<dyn Fn(&str) + Send + Sync>;

impl AnalysisBuilder {
    /// A session with the paper's full configuration (all rules, node
    /// merging on, no validation, no extras).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects a preset happens-before relation (the paper's or one of the
    /// §4.1 baselines). Overwrites any previously set rule set.
    pub fn mode(mut self, mode: HbMode) -> Self {
        self.config.rules = mode.rule_set();
        self
    }

    /// Sets an explicit rule set (fine-grained ablation control).
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.config.rules = rules;
        self
    }

    /// Replaces the whole engine configuration at once.
    pub fn config(mut self, config: HbConfig) -> Self {
        self.config = config;
        self
    }

    /// Toggles the §6 node-merging optimization (default: on).
    pub fn merge_accesses(mut self, merge: bool) -> Self {
        self.config.merge_accesses = merge;
        self
    }

    /// Runs the Figure 5 semantics checker before analyzing; an invalid
    /// trace fails the session with [`AnalysisError::Validate`] instead of
    /// producing garbage orderings (default: off).
    pub fn validate_first(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Also computes the race-coverage report (root causes vs covered
    /// reports) and stores it on the result (default: off — coverage
    /// recomputes the relation once per candidate root and is much more
    /// expensive than detection).
    pub fn with_coverage(mut self, coverage: bool) -> Self {
        self.coverage = coverage;
        self
    }

    /// Also renders a happens-before explanation for every representative
    /// race and stores them on the result (default: off).
    pub fn with_explanations(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Measures the session's spans from an explicit clock origin instead
    /// of the session start. Workers of a parallel fan-out share the
    /// fan-out's origin so every recorded span lands on one timeline and
    /// per-worker subtrees merge without rebasing.
    pub fn clock_origin(mut self, origin: Instant) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Streams the completed profile (span tree + metrics) to `sink` after
    /// every session. The result also carries the same spans/metrics, so a
    /// sink is only needed by callers that aggregate across sessions.
    pub fn sink(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Limits the session's resources (default: unlimited). The deadline is
    /// checked between phases and cooperatively inside the happens-before
    /// engine's loops; the op and matrix caps apply to the closure phase.
    /// Exhaustion fails the session with
    /// [`AnalysisError::BudgetExhausted`] — never a hang or OOM.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a fault-injection hook invoked with each phase name as the
    /// phase starts. The fault-injection harness uses this to fire panics
    /// deep inside the pipeline; a hook that panics exercises exactly the
    /// code paths a real defect would.
    pub fn fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Opens an incremental [`StreamingSession`] with this builder's
    /// relation configuration, budget, observability sink and fault hook.
    /// The builder's [`Budget`](crate::Budget) applies unless `options`
    /// carries its own.
    pub fn streaming(&self, options: StreamOptions) -> StreamingSession {
        let mut options = options;
        if options.budget.is_none() && self.budget.is_limited() {
            options.budget = Some(self.budget);
        }
        let mut rec = match self.origin {
            Some(origin) => Recorder::with_origin(origin),
            None => Recorder::new(),
        };
        rec.start("stream");
        StreamingSession {
            inner: StreamingAnalysis::new(self.config, options),
            rec,
            sink: self.sink.clone(),
            fault_hook: self.fault_hook.clone(),
        }
    }

    /// Fires the fault-injection hook, if any, at a phase boundary.
    fn enter_phase(&self, phase: &str) {
        if let Some(hook) = &self.fault_hook {
            hook(phase);
        }
    }

    /// The between-phase deadline check: cheap, and keeps post-closure
    /// phases (detect, coverage, explanations) from overrunning a deadline
    /// the engine respected.
    fn check_deadline(&self) -> Result<(), AnalysisError> {
        if self.budget.deadline_passed() {
            return Err(AnalysisError::BudgetExhausted(BudgetExhausted {
                reason: BudgetReason::Deadline,
                partial: crate::EngineStats::default(),
                ops_processed: 0,
            }));
        }
        Ok(())
    }

    /// Runs the session: (optional) validation → cancellation stripping +
    /// indexing → graph build + merge → happens-before closure → race
    /// detection + classification (+ optional coverage / explanations).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Validate`] when validation is enabled and
    /// the trace violates the concurrency semantics, and
    /// [`AnalysisError::BudgetExhausted`] when a [`Budget`] limit trips.
    /// Without validation and with the default unlimited budget the session
    /// is infallible.
    pub fn analyze(&self, trace: &Trace) -> Result<Analysis, AnalysisError> {
        let mut rec = match self.origin {
            Some(origin) => Recorder::with_origin(origin),
            None => Recorder::new(),
        };
        rec.start("analysis");

        if self.validate {
            rec.start("validate");
            self.enter_phase("validate");
            let checked = validate(trace);
            rec.end();
            checked?;
        }

        rec.start("prepare");
        self.enter_phase("prepare");
        let trace = trace.without_cancelled();
        let index = trace.index();
        rec.counter("ops", trace.len() as u64);
        rec.end();
        self.check_deadline()?;

        rec.start("graph");
        self.enter_phase("graph");
        let graph = HbGraph::build(&trace, &index, self.config.merge_accesses);
        rec.counter("nodes", graph.node_count() as u64);
        rec.end();

        rec.start("closure");
        self.enter_phase("closure");
        let hb = HappensBefore::compute_on_graph_budgeted(
            &trace,
            &index,
            graph,
            self.config,
            &self.budget,
        )?;
        let stats = hb.stats();
        rec.counter("base_edges", stats.base_edges as u64);
        rec.counter("fifo_fired", stats.fifo_fired as u64);
        rec.counter("nopre_fired", stats.nopre_fired as u64);
        rec.counter("trans_st_edges", stats.trans_st_edges as u64);
        rec.counter("trans_mt_edges", stats.trans_mt_edges as u64);
        rec.counter("rounds", stats.rounds as u64);
        rec.counter("word_ops", stats.word_ops);
        rec.counter("worklist_pops", stats.worklist_pops);
        rec.counter("rows_recomputed", stats.rows_recomputed);
        rec.counter("skipped_words", stats.skipped_words);
        rec.end();

        self.check_deadline()?;
        rec.start("detect");
        self.enter_phase("detect");
        let raw = detect(&trace, &hb);
        let races: Vec<ClassifiedRace> = raw
            .into_iter()
            .map(|race| ClassifiedRace {
                category: classify(&trace, &index, &hb, &race),
                race,
            })
            .collect();
        rec.counter("block_pairs", races.len() as u64);
        rec.counter("representatives", representatives_of(&races).len() as u64);
        rec.end();

        let mut analysis = Analysis::assemble(trace, hb, races);

        if self.coverage {
            self.check_deadline()?;
            rec.start("coverage");
            self.enter_phase("coverage");
            let report = race_coverage(&analysis);
            rec.counter("roots", report.roots.len() as u64);
            rec.counter("covered", report.covered.len() as u64);
            rec.end();
            analysis.set_coverage(report);
        }

        if self.explain {
            self.check_deadline()?;
            rec.start("explain");
            self.enter_phase("explain");
            let explanations: Vec<String> = analysis
                .representatives()
                .iter()
                .map(|cr| explain(&analysis, &cr.race))
                .collect();
            rec.counter("explained", explanations.len() as u64);
            rec.end();
            analysis.set_explanations(explanations);
        }

        rec.end();
        analysis.set_spans(rec.finish_root());
        if let Some(sink) = &self.sink {
            sink.record(analysis.spans(), &analysis.metrics());
        }
        Ok(analysis)
    }
}

/// An instrumented streaming session opened by
/// [`AnalysisBuilder::streaming`]: the incremental engine of
/// [`StreamingAnalysis`] wired to the builder's observability sink,
/// resource budget and fault-injection hook.
///
/// Push operations as they arrive; [`StreamingSession::finish`] closes the
/// stream, records the `stream.*` counters into the session span tree and
/// ships the profile to the configured [`ObsSink`].
pub struct StreamingSession {
    inner: StreamingAnalysis,
    rec: Recorder,
    sink: Option<Arc<dyn ObsSink>>,
    fault_hook: Option<FaultHook>,
}

/// The result of a finished [`StreamingSession`]: the engine outcome plus
/// the recorded observability profile.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The analysis result (races, counts, matrices, stats, events).
    pub outcome: StreamOutcome,
    /// The session span tree (root `stream`, with the `stream.*` counters
    /// attached).
    pub spans: SpanRecord,
    /// The session metrics: one counter per `stream.*` counter and the
    /// `stream.peak_matrix_bits` / `stream.live_matrix_bits` gauges.
    pub metrics: MetricsRegistry,
}

impl StreamingSession {
    /// Pushes a single operation (a one-op chunk).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BudgetExhausted`] when a budget limit
    /// trips; the session is poisoned afterwards.
    pub fn push_op(&mut self, op: Op) -> Result<Vec<StreamEvent>, AnalysisError> {
        self.push_chunk(&[op])
    }

    /// Pushes a chunk of operations and returns the race events the chunk
    /// made derivable (or withdrew).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BudgetExhausted`] when a budget limit
    /// trips; the session is poisoned afterwards.
    pub fn push_chunk(&mut self, ops: &[Op]) -> Result<Vec<StreamEvent>, AnalysisError> {
        if let Some(hook) = &self.fault_hook {
            hook("stream.chunk");
        }
        self.inner.push_chunk(ops).map_err(AnalysisError::from)
    }

    /// Session counters so far.
    pub fn stats(&self) -> StreamStats {
        self.inner.stats()
    }

    /// Number of operations pushed so far.
    pub fn ops_pushed(&self) -> usize {
        self.inner.ops_pushed()
    }

    /// Closes the stream: finalizes the engine, reconciles the standing
    /// emissions, records the `stream.*` counters and ships the profile to
    /// the sink.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BudgetExhausted`] when a budget limit
    /// trips (or had already tripped).
    pub fn finish(mut self, names: &Names) -> Result<StreamReport, AnalysisError> {
        if let Some(hook) = &self.fault_hook {
            hook("stream.finish");
        }
        self.rec.start("finalize");
        let outcome = self.inner.finish(names)?;
        self.rec.end();
        let s = outcome.stats;
        let counters: [(&str, u64); 9] = [
            ("stream.chunks", s.chunks),
            ("stream.ops", s.ops),
            ("stream.races_emitted", s.races_emitted),
            ("stream.retractions", s.retractions),
            ("stream.late_emissions", s.late_emissions),
            ("stream.rebuilds", s.rebuilds),
            ("stream.retired_rows", s.retired_rows),
            ("stream.word_ops", s.word_ops),
            ("stream.degenerate", u64::from(s.degenerate)),
        ];
        let mut metrics = MetricsRegistry::new();
        for (name, value) in counters {
            self.rec.counter(name, value);
            metrics.counter_add(name, value);
        }
        metrics.gauge_set("stream.peak_matrix_bits", s.peak_matrix_bits as f64);
        metrics.gauge_set("stream.live_matrix_bits", s.live_matrix_bits as f64);
        self.rec.end();
        let spans = self.rec.finish_root();
        if let Some(sink) = &self.sink {
            sink.record(&spans, &metrics);
        }
        Ok(StreamReport {
            outcome,
            spans,
            metrics,
        })
    }
}

impl fmt::Debug for StreamingSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingSession")
            .field("stats", &self.inner.stats())
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for AnalysisBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisBuilder")
            .field("config", &self.config)
            .field("validate", &self.validate)
            .field("coverage", &self.coverage)
            .field("explain", &self.explain)
            .field("origin", &self.origin)
            .field("sink", &self.sink.as_ref().map(|_| "dyn ObsSink"))
            .field("budget", &self.budget)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "dyn Fn"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_obs::CollectingSink;
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

    #[test]
    fn streaming_session_matches_batch_and_records_profile() {
        let trace = racy_trace();
        let sink = Arc::new(CollectingSink::new());
        let builder = AnalysisBuilder::new().sink(sink.clone());
        let mut session = builder.streaming(StreamOptions::default());
        for op in trace.ops() {
            session.push_op(*op).expect("unbudgeted");
        }
        let report = session.finish(trace.names()).expect("unbudgeted");
        let batch = builder.analyze(&trace).expect("runs");
        assert_eq!(report.outcome.races, batch.races());
        assert_eq!(report.spans.name, "stream");
        assert!(report.spans.find("finalize").is_some());
        assert_eq!(
            report.metrics.counter("stream.ops"),
            Some(trace.len() as u64)
        );
        assert_eq!(
            report.metrics.counter("stream.chunks"),
            Some(trace.len() as u64)
        );
        assert!(report.metrics.gauge("stream.peak_matrix_bits").is_some());
        // Both the batch analyze and the stream finish hit the sink.
        assert_eq!(sink.take().len(), 2);
    }

    #[test]
    fn streaming_session_inherits_builder_budget() {
        let trace = racy_trace();
        let builder = AnalysisBuilder::new().budget(Budget {
            max_matrix_bits: Some(1),
            ..Budget::default()
        });
        let mut session = builder.streaming(StreamOptions::default());
        let mut err = None;
        for op in trace.ops() {
            if let Err(e) = session.push_op(*op) {
                err = Some(e);
                break;
            }
        }
        match err.expect("1-bit budget must trip") {
            AnalysisError::BudgetExhausted(e) => {
                assert_eq!(e.reason, BudgetReason::MatrixBits)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn streaming_fault_hook_fires_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let trace = racy_trace();
        let chunks = Arc::new(AtomicUsize::new(0));
        let seen = chunks.clone();
        let builder = AnalysisBuilder::new().fault_hook(Arc::new(move |phase: &str| {
            if phase == "stream.chunk" {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let mut session = builder.streaming(StreamOptions::default());
        session.push_chunk(trace.ops()).expect("unbudgeted");
        session.finish(trace.names()).expect("unbudgeted");
        assert_eq!(chunks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn builder_records_pipeline_spans() {
        let analysis = AnalysisBuilder::new().analyze(&racy_trace()).expect("runs");
        let spans = analysis.spans();
        assert_eq!(spans.name, "analysis");
        for phase in ["prepare", "graph", "closure", "detect"] {
            assert!(spans.find(phase).is_some(), "missing phase {phase}");
        }
        assert!(spans.find("validate").is_none(), "validation is opt-in");
    }

    #[test]
    fn validation_catches_malformed_traces() {
        // A task beginning on a thread that never attached a queue.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t = b.task("T");
        b.thread_init(main);
        b.begin(main, t);
        let trace = b.finish();
        let err = AnalysisBuilder::new()
            .validate_first(true)
            .analyze(&trace)
            .expect_err("invalid trace must fail");
        assert!(matches!(err, AnalysisError::Validate(_)));
        assert!(err.to_string().contains("semantics"), "{err}");
        // Without validation the session still runs.
        assert!(AnalysisBuilder::new().analyze(&trace).is_ok());
    }

    #[test]
    fn coverage_and_explanations_are_opt_in() {
        let plain = AnalysisBuilder::new().analyze(&racy_trace()).expect("runs");
        assert!(plain.coverage().is_none());
        assert!(plain.explanations().is_empty());

        let rich = AnalysisBuilder::new()
            .with_coverage(true)
            .with_explanations(true)
            .analyze(&racy_trace())
            .expect("runs");
        assert!(rich.coverage().is_some());
        assert_eq!(rich.explanations().len(), rich.representatives().len());
        assert!(rich.spans().find("coverage").is_some());
        assert!(rich.spans().find("explain").is_some());
    }

    #[test]
    fn sink_receives_each_profile() {
        let sink = Arc::new(CollectingSink::new());
        let builder = AnalysisBuilder::new().sink(sink.clone());
        builder.analyze(&racy_trace()).expect("runs");
        builder.analyze(&racy_trace()).expect("runs");
        let profiles = sink.take();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].0.name, "analysis");
        assert!(profiles[0].1.counter("hb.word_ops").is_some());
    }

    #[test]
    fn mode_and_merge_match_legacy_config() {
        let trace = racy_trace();
        for mode in HbMode::all() {
            for merge in [true, false] {
                let config = HbConfig {
                    rules: mode.rule_set(),
                    merge_accesses: merge,
                };
                let via_builder = AnalysisBuilder::new()
                    .mode(mode)
                    .merge_accesses(merge)
                    .analyze(&trace)
                    .expect("runs");
                let via_config = AnalysisBuilder::new()
                    .config(config)
                    .analyze(&trace)
                    .expect("runs");
                assert_eq!(via_builder.races(), via_config.races(), "{mode:?}/{merge}");
                assert_eq!(
                    via_builder.hb().stats(),
                    via_config.hb().stats(),
                    "{mode:?}/{merge}"
                );
            }
        }
    }
}
