//! The corpus driver: entries, expected paper numbers, and the
//! run-and-analyze pipeline reproducing Tables 2 and 3.

use std::error::Error;
use std::fmt;

use std::collections::BTreeSet;

use droidracer_core::{
    par_map, par_map_profiled, par_try_map, Analysis, AnalysisBuilder, AnalysisError, Budget,
    CategoryCounts, ItemError, QuarantineCause, Quarantined, RaceCategory,
};
use droidracer_explorer::{enumerate_sequences, ExplorerConfig};
use droidracer_framework::{compile, App, CompileError, UiEvent};
use droidracer_obs::SpanRecord;
use droidracer_sim::{run, RandomScheduler, SimConfig, SimError};
use droidracer_trace::{MemLoc, Trace, TraceStats};

use crate::motifs::GroundTruth;
use crate::strip::strip_untracked;

/// The numbers the paper reports for one application (Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PaperRow {
    /// Lines of code (open-source apps only).
    pub loc: Option<u32>,
    /// Trace length (Table 2).
    pub trace_length: usize,
    /// Distinct fields accessed (Table 2).
    pub fields: usize,
    /// Threads without task queues (Table 2).
    pub threads_without_queues: usize,
    /// Threads with task queues (Table 2).
    pub threads_with_queues: usize,
    /// Asynchronous tasks (Table 2).
    pub async_tasks: usize,
    /// Races reported per category (Table 3, the `X` of `X(Y)`).
    pub reported: CategoryCounts,
    /// Verified true positives per category (Table 3, the `Y`), known for
    /// the open-source applications only.
    pub verified: Option<CategoryCounts>,
}

/// One synthetic application of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Application name, matching Table 2.
    pub name: &'static str,
    /// Whether the original is open source (Table 2's horizontal rule).
    pub open_source: bool,
    /// The framework-level app model.
    pub app: App,
    /// The representative UI event sequence (the paper drives 1–7 events).
    pub events: Vec<UiEvent>,
    /// Scheduler seed for the representative run.
    pub seed: u64,
    /// The numbers the paper reports.
    pub paper: PaperRow,
    /// Planted-race ground truth.
    pub truth: GroundTruth,
}

/// A corpus failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The app model did not compile.
    Compile(CompileError),
    /// The simulation failed.
    Sim(SimError),
    /// The run did not reach quiescence within the step budget.
    Incomplete {
        /// The app that stalled.
        name: &'static str,
    },
    /// The analysis session failed (validation or budget exhaustion).
    Analysis(AnalysisError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Compile(e) => write!(f, "compile error: {e}"),
            CorpusError::Sim(e) => write!(f, "simulation error: {e}"),
            CorpusError::Incomplete { name } => write!(f, "run of {name} did not complete"),
            CorpusError::Analysis(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl Error for CorpusError {}

impl From<AnalysisError> for CorpusError {
    fn from(e: AnalysisError) -> Self {
        CorpusError::Analysis(e)
    }
}

impl From<CompileError> for CorpusError {
    fn from(e: CompileError) -> Self {
        CorpusError::Compile(e)
    }
}

impl From<SimError> for CorpusError {
    fn from(e: SimError) -> Self {
        CorpusError::Sim(e)
    }
}

impl CorpusEntry {
    /// Runs the representative test: compile, simulate under the entry's
    /// seed, and strip untracked operations — yielding the trace the Race
    /// Detector analyzes.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if compilation or simulation fails or the run
    /// stalls.
    pub fn generate_trace(&self) -> Result<Trace, CorpusError> {
        let compiled = compile(&self.app, &self.events)?;
        let result = run(
            &compiled.program,
            &mut RandomScheduler::new(self.seed),
            &SimConfig { max_steps: 600_000 },
        )?;
        if !result.completed {
            return Err(CorpusError::Incomplete { name: self.name });
        }
        Ok(strip_untracked(&result.trace))
    }

    /// Full pipeline: trace generation + happens-before analysis + race
    /// classification + ground-truth matching.
    ///
    /// # Errors
    ///
    /// See [`CorpusEntry::generate_trace`].
    pub fn analyze(&self) -> Result<EntryReport, CorpusError> {
        self.analyze_with_budget(&Budget::unlimited())
    }

    /// Like [`CorpusEntry::analyze`] but under a resource [`Budget`]: an
    /// entry that blows its budget fails with
    /// [`CorpusError::Analysis`]`(`[`AnalysisError::BudgetExhausted`]`)`
    /// instead of hanging or exhausting memory.
    ///
    /// # Errors
    ///
    /// See [`CorpusEntry::generate_trace`], plus budget exhaustion.
    pub fn analyze_with_budget(&self, budget: &Budget) -> Result<EntryReport, CorpusError> {
        let trace = self.generate_trace()?;
        let stats = TraceStats::of(&trace);
        let analysis = AnalysisBuilder::new().budget(*budget).analyze(&trace)?;
        Ok(self.entry_report(stats, analysis))
    }

    /// Matches an analysis against the entry's ground truth.
    fn entry_report(&self, stats: TraceStats, analysis: Analysis) -> EntryReport {
        let mut reported = CategoryCounts::default();
        let mut verified = CategoryCounts::default();
        let names = analysis.trace().names();
        for cr in analysis.representatives() {
            reported.add(cr.category, 1);
            let field = names.field_name(cr.race.loc.field);
            if self.truth.get(&field).is_some_and(|t| t.is_true) {
                verified.add(cr.category, 1);
            }
        }
        EntryReport {
            stats,
            reported,
            verified,
            analysis,
        }
    }
}

/// Runs [`CorpusEntry::analyze`] for every entry on `threads` workers,
/// returning reports in corpus order.
///
/// Each entry's pipeline (compile → simulate → strip → analyze) touches
/// only its own data, so the fan-out is safe; the merge is deterministic —
/// the result at position `i` is always entry `i`'s report, identical to
/// what the sequential loop produces (see `droidracer_core::par`).
/// `threads <= 1` degenerates to the sequential loop itself.
pub fn analyze_corpus_parallel(
    entries: &[CorpusEntry],
    threads: usize,
) -> Vec<Result<EntryReport, CorpusError>> {
    par_map(entries, threads, CorpusEntry::analyze)
}

/// Fault-isolated corpus run: like [`analyze_corpus_parallel`], but every
/// entry runs under `budget` and inside a panic boundary
/// ([`droidracer_core::par_try_map`]). A panicking, erroring, or
/// budget-blown entry becomes a [`Quarantined`] verdict at its position;
/// the sibling entries' reports are bit-identical to a run without the
/// faulty entry.
pub fn analyze_corpus_isolated(
    entries: &[CorpusEntry],
    threads: usize,
    budget: &Budget,
) -> Vec<Result<EntryReport, Quarantined>> {
    par_try_map(entries, threads, |entry| entry.analyze_with_budget(budget))
        .into_iter()
        .zip(entries)
        .map(|(result, entry)| result.map_err(|err| quarantine(entry.name, err)))
        .collect()
}

/// Maps a per-item fan-out failure to its quarantine verdict.
fn quarantine(input: &str, err: ItemError<CorpusError>) -> Quarantined {
    let (cause, payload) = match err {
        ItemError::Panic(msg) => (QuarantineCause::Panic, msg),
        ItemError::Err(CorpusError::Analysis(AnalysisError::BudgetExhausted(e))) => {
            (QuarantineCause::BudgetExhausted(e.reason), e.to_string())
        }
        ItemError::Err(e) => (QuarantineCause::Error, e.to_string()),
    };
    Quarantined {
        input: input.to_owned(),
        cause,
        payload,
    }
}

/// Like [`analyze_corpus_parallel`], additionally returning the campaign's
/// span tree: a root `corpus` span with one child per entry (in corpus
/// order for every thread count), each wrapping the entry's `generate`
/// span and the full per-phase `analysis` subtree of its analysis session.
pub fn analyze_corpus_profiled(
    entries: &[CorpusEntry],
    threads: usize,
) -> (Vec<Result<EntryReport, CorpusError>>, SpanRecord) {
    let (results, mut span) = par_map_profiled(entries, threads, "corpus", |entry, rec| {
        rec.start(entry.name);
        rec.start("generate");
        let trace = entry.generate_trace();
        rec.end();
        let report = trace.map(|trace| {
            let stats = TraceStats::of(&trace);
            // invariant: a default session (no validation, unlimited
            // budget) cannot fail.
            let analysis = AnalysisBuilder::new()
                .clock_origin(rec.origin())
                .analyze(&trace)
                .expect("infallible without validation");
            rec.adopt(analysis.spans().clone());
            entry.entry_report(stats, analysis)
        });
        rec.end();
        report
    });
    // The generic fan-out labels children `corpus[i]`; the entry name the
    // worker recorded underneath is the useful label — hoist it.
    for child in &mut span.children {
        if let Some(named) = child.children.first() {
            child.name = named.name.clone();
            let inner = std::mem::take(&mut child.children);
            child.children = inner
                .into_iter()
                .next()
                .map(|s| s.children)
                .unwrap_or_default();
        }
    }
    (results, span)
}

/// Summary of a full exploration of one app: every UI event sequence up to
/// the depth bound executed and analyzed — the paper's per-application
/// testing campaign ("for each application, DroidRacer found tests which
/// manifested one or more races").
#[derive(Debug, Clone)]
pub struct ExplorationSummary {
    /// Number of event sequences executed.
    pub tests: usize,
    /// How many manifested at least one race.
    pub racy_tests: usize,
    /// Distinct racy memory locations across all tests.
    pub racy_locations: usize,
    /// Union of representative race counts per category across tests
    /// (deduplicated by location).
    pub union: CategoryCounts,
}

impl CorpusEntry {
    /// Runs the full pipeline — systematic UI exploration, trace generation,
    /// stripping, happens-before analysis — over every event sequence up to
    /// `depth` (capped at `max_sequences`).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if any sequence fails to compile or simulate.
    pub fn explore(
        &self,
        depth: usize,
        max_sequences: usize,
    ) -> Result<ExplorationSummary, CorpusError> {
        self.explore_with_threads(depth, max_sequences, 1)
    }

    /// Like [`CorpusEntry::explore`], fanning the per-sequence pipeline out
    /// over `threads` workers. Each sequence keeps the seed the sequential
    /// loop would assign it (its enumeration index), and the summary is
    /// folded in enumeration order, so the result is identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if any sequence fails to compile or simulate.
    pub fn explore_with_threads(
        &self,
        depth: usize,
        max_sequences: usize,
        threads: usize,
    ) -> Result<ExplorationSummary, CorpusError> {
        self.explore_profiled(depth, max_sequences, threads)
            .map(|(summary, _)| summary)
    }

    /// Like [`CorpusEntry::explore_with_threads`], additionally returning
    /// the campaign's span tree: a root `explore` span with one
    /// `explore[i]` child per sequence (in enumeration order for every
    /// thread count), each wrapping the sequence's full analysis subtree.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if any sequence fails to compile or simulate.
    pub fn explore_profiled(
        &self,
        depth: usize,
        max_sequences: usize,
        threads: usize,
    ) -> Result<(ExplorationSummary, SpanRecord), CorpusError> {
        let config = ExplorerConfig {
            max_depth: depth,
            max_sequences,
            seed: self.seed,
            max_steps: 600_000,
        };
        let sequences: Vec<(usize, Vec<UiEvent>)> = enumerate_sequences(&self.app, &config)
            .into_iter()
            .enumerate()
            .collect();
        type TestOutcome = Result<(bool, Vec<(MemLoc, RaceCategory)>), CorpusError>;
        let (per_test, span) = par_map_profiled(
            &sequences,
            threads,
            "explore",
            |(i, events), rec| -> TestOutcome {
                rec.start("simulate");
                let outcome = compile(&self.app, events)
                    .map_err(CorpusError::from)
                    .and_then(|c| {
                        run(
                            &c.program,
                            &mut RandomScheduler::new(self.seed.wrapping_add(*i as u64)),
                            &SimConfig { max_steps: 600_000 },
                        )
                        .map_err(CorpusError::from)
                    });
                rec.end();
                let result = outcome?;
                let trace = strip_untracked(&result.trace);
                // invariant: a default session (no validation, unlimited
                // budget) cannot fail.
                let analysis = AnalysisBuilder::new()
                    .clock_origin(rec.origin())
                    .analyze(&trace)
                    .expect("infallible without validation");
                rec.adopt(analysis.spans().clone());
                rec.counter("races", analysis.races().len() as u64);
                let pairs: Vec<(MemLoc, RaceCategory)> = analysis
                    .representatives()
                    .iter()
                    .map(|cr| (cr.race.loc, cr.category))
                    .collect();
                Ok((!analysis.races().is_empty(), pairs))
            },
        );
        let mut tests = 0;
        let mut racy_tests = 0;
        let mut seen: BTreeSet<(MemLoc, RaceCategory)> = BTreeSet::new();
        for result in per_test {
            let (racy, pairs) = result?;
            tests += 1;
            if racy {
                racy_tests += 1;
            }
            seen.extend(pairs);
        }
        let mut union = CategoryCounts::default();
        let mut locs = BTreeSet::new();
        for (loc, cat) in &seen {
            union.add(*cat, 1);
            locs.insert(*loc);
        }
        Ok((
            ExplorationSummary {
                tests,
                racy_tests,
                racy_locations: locs.len(),
                union,
            },
            span,
        ))
    }
}

/// Measured results for one corpus entry.
#[derive(Debug, Clone)]
pub struct EntryReport {
    /// Table 2-style trace statistics.
    pub stats: TraceStats,
    /// Races reported per category (Table 3 `X`).
    pub reported: CategoryCounts,
    /// Reported races whose planted ground truth is a real race (`Y`).
    pub verified: CategoryCounts,
    /// The full analysis (trace, happens-before, races).
    pub analysis: Analysis,
}

impl EntryReport {
    /// Reported races whose field has no ground-truth annotation at all
    /// (unplanned reports — should be zero for a well-formed entry).
    pub fn unplanned(&self, truth: &GroundTruth) -> usize {
        let names = self.analysis.trace().names();
        self.analysis
            .representatives()
            .iter()
            .filter(|cr| !truth.contains_key(&names.field_name(cr.race.loc.field)))
            .count()
    }

    /// Reported representatives whose measured category disagrees with the
    /// planted one (diagnostic).
    pub fn misclassified(&self, truth: &GroundTruth) -> Vec<(String, RaceCategory, RaceCategory)> {
        let names = self.analysis.trace().names();
        self.analysis
            .representatives()
            .iter()
            .filter_map(|cr| {
                let field = names.field_name(cr.race.loc.field);
                let planted = truth.get(&field)?;
                (planted.category != cr.category).then_some((field, planted.category, cr.category))
            })
            .collect()
    }
}
