//! The unified analysis front door: [`JobSpec`], [`JobReport`], and the
//! [`AnalysisService`] trait.
//!
//! The batch session API ([`AnalysisBuilder`]) and the streaming session
//! API ([`AnalysisBuilder::streaming`]) grew independently and return
//! different result shapes (`Analysis` vs `StreamReport`). A serving layer
//! needs one shape for both: a client submits a *job* — trace text plus a
//! [`JobSpec`] describing how to analyze it — and receives a [`JobReport`]
//! whatever path the work took (whole-trace batch, incremental stream,
//! budget cutoff, rejected input). The report carries the representative
//! races with resolved location names, the §4.3 classification counts, the
//! deterministic engine counters, repair diagnostics, and an [`ExitClass`]
//! mirroring the CLI exit taxonomy — and it is self-contained: no `Names`
//! table or trace is needed to read, persist, or ship it.
//!
//! Both the spec and the report have stable single-line text encodings
//! ([`JobSpec::to_token`], [`JobReport::to_record`]): the spec token keys
//! the content-addressed result cache (same spec + same trace bytes ⇒ same
//! report), and the record is what the cache persists and the wire carries.
//!
//! [`LocalService`] is the in-process implementation; the analysis server
//! (`droidracer-server`) exposes the same trait over a socket, so `fn
//! f(svc: &mut impl AnalysisService)` code cannot tell whether races are
//! computed in-process or by a remote shard.
//!
//! # Examples
//!
//! ```
//! use droidracer_core::{AnalysisService, ExitClass, JobSpec, LocalService};
//!
//! let text = "\
//! droidracer-trace v1
//! thread t0 main initial \"main\"
//! thread t1 app \"bg\"
//! object o0 \"obj\"
//! field f0 \"C.state\"
//! op threadinit t0
//! op fork t0 t1
//! op threadinit t1
//! op write t1 o0.f0
//! op read t0 o0.f0
//! ";
//! let report = LocalService::new()
//!     .submit(&JobSpec::default(), text)
//!     .expect("local submission is infallible");
//! assert_eq!(report.exit, ExitClass::Races);
//! assert_eq!(report.races.len(), 1);
//! assert_eq!(report.races[0].loc, "obj.C.state");
//! // The report round-trips through its cache/wire record.
//! let back = droidracer_core::JobReport::from_record(&report.to_record()).unwrap();
//! assert_eq!(back, report);
//! ```

use std::fmt;

use droidracer_trace::{from_text, from_text_lenient, Names, Trace};

use crate::classify::RaceCategory;
use crate::race::RaceKind;
use crate::report::{representatives_of, Analysis, CategoryCounts};
use crate::robust::Budget;
use crate::rules::HbMode;
use crate::session::{AnalysisBuilder, AnalysisError};
use crate::stream::StreamOutcome;

/// How to analyze one submitted trace. Every field has a wire- and
/// cache-stable encoding (see [`JobSpec::to_token`]); the default spec is
/// the paper's full configuration, strict parsing, no limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Happens-before relation preset.
    pub mode: HbMode,
    /// The §6 node-merging optimization.
    pub merge_accesses: bool,
    /// Run the Figure 5 semantics checker first; an invalid trace yields
    /// [`ExitClass::Invalid`] instead of garbage orderings.
    pub validate: bool,
    /// Parse leniently, repairing malformed lines (each repair becomes a
    /// diagnostic on the report).
    pub lenient: bool,
    /// Work-unit cap (bit-matrix words touched), per job.
    pub max_ops: Option<u64>,
    /// Relation-matrix allocation cap in bits, per job.
    pub max_matrix_bits: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from job start.
    pub deadline_ms: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            mode: HbMode::Full,
            merge_accesses: true,
            validate: false,
            lenient: false,
            max_ops: None,
            max_matrix_bits: None,
            deadline_ms: None,
        }
    }
}

impl JobSpec {
    /// The session builder implementing this spec. The deadline (if any)
    /// starts counting when this is called — i.e. at job start, not at
    /// submission time.
    pub fn builder(&self) -> AnalysisBuilder {
        AnalysisBuilder::new()
            .mode(self.mode)
            .merge_accesses(self.merge_accesses)
            .validate_first(self.validate)
            .budget(self.budget())
    }

    /// The per-job [`Budget`] this spec asks for (deadline measured from
    /// now).
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(cap) = self.max_ops {
            budget = budget.with_max_ops(cap);
        }
        if let Some(bits) = self.max_matrix_bits {
            budget = budget.with_max_matrix_bits(bits);
        }
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_timeout(std::time::Duration::from_millis(ms));
        }
        budget
    }

    /// Encodes the spec as one stable token, e.g.
    /// `v1:full:merge:strict:ops=-:bits=-:dl=-`. The token is both the wire
    /// form and the spec half of the content-addressed cache key: two specs
    /// with equal tokens produce equal reports on equal trace bytes.
    pub fn to_token(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map(|n| n.to_string()).unwrap_or_else(|| "-".to_owned())
        }
        format!(
            "v1:{}:{}:{}{}:ops={}:bits={}:dl={}",
            self.mode.label(),
            if self.merge_accesses {
                "merge"
            } else {
                "no-merge"
            },
            if self.validate { "validate+" } else { "" },
            if self.lenient { "lenient" } else { "strict" },
            opt(self.max_ops),
            opt(self.max_matrix_bits),
            opt(self.deadline_ms),
        )
    }

    /// Parses a [`JobSpec::to_token`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the token is malformed or from
    /// an unknown version.
    pub fn from_token(token: &str) -> Result<Self, String> {
        fn opt(field: &str, key: &str) -> Result<Option<u64>, String> {
            let value = field
                .strip_prefix(key)
                .ok_or_else(|| format!("expected `{key}…`, got `{field}`"))?;
            if value == "-" {
                return Ok(None);
            }
            value
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value in `{field}`"))
        }
        let parts: Vec<&str> = token.split(':').collect();
        let [version, mode, merge, parse, ops, bits, dl] = parts.as_slice() else {
            return Err(format!(
                "expected 7 `:`-separated fields, got {}",
                parts.len()
            ));
        };
        if *version != "v1" {
            return Err(format!("unknown spec version `{version}`"));
        }
        let mode = HbMode::all()
            .into_iter()
            .find(|m| m.label() == *mode)
            .ok_or_else(|| format!("unknown mode `{mode}`"))?;
        let merge_accesses = match *merge {
            "merge" => true,
            "no-merge" => false,
            other => return Err(format!("bad merge field `{other}`")),
        };
        let (validate, parse) = match parse.strip_prefix("validate+") {
            Some(rest) => (true, rest),
            None => (false, *parse),
        };
        let lenient = match parse {
            "lenient" => true,
            "strict" => false,
            other => return Err(format!("bad parse field `{other}`")),
        };
        Ok(JobSpec {
            mode,
            merge_accesses,
            validate,
            lenient,
            max_ops: opt(ops, "ops=")?,
            max_matrix_bits: opt(bits, "bits=")?,
            deadline_ms: opt(dl, "dl=")?,
        })
    }
}

/// How a job ended, mirroring the CLI exit taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitClass {
    /// Analysis completed; no races.
    Clean,
    /// Analysis completed; races were found.
    Races,
    /// The job hit a resource boundary — budget or quota exhausted, or the
    /// worker was quarantined after a panic. Partial diagnostics only.
    Resource,
    /// The input was rejected: unparseable (or, with
    /// [`JobSpec::validate`], semantically invalid) trace text.
    Invalid,
}

impl ExitClass {
    /// The process exit code of the CLI taxonomy (0 clean / 1 races /
    /// 2 quarantine-or-budget / 3 fatal).
    pub fn code(self) -> u8 {
        match self {
            ExitClass::Clean => 0,
            ExitClass::Races => 1,
            ExitClass::Resource => 2,
            ExitClass::Invalid => 3,
        }
    }

    /// Stable short label (the record encoding).
    pub fn label(self) -> &'static str {
        match self {
            ExitClass::Clean => "clean",
            ExitClass::Races => "races",
            ExitClass::Resource => "resource",
            ExitClass::Invalid => "invalid",
        }
    }

    /// Parses a [`ExitClass::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "clean" => ExitClass::Clean,
            "races" => ExitClass::Races,
            "resource" => ExitClass::Resource,
            "invalid" => ExitClass::Invalid,
            _ => return None,
        })
    }
}

impl fmt::Display for ExitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One representative race in a [`JobReport`], with its location resolved
/// to a name so the report is readable without the trace's name table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedRace {
    /// The raced location, rendered `entity.field`.
    pub loc: String,
    /// Which of the two operations write.
    pub kind: RaceKind,
    /// The §4.3 category.
    pub category: RaceCategory,
    /// Trace index of the earlier operation.
    pub first: usize,
    /// Trace index of the later operation.
    pub second: usize,
}

/// Deterministic size/work counters of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Operations analyzed (after cancellation stripping).
    pub ops: u64,
    /// Bit-matrix words touched by the happens-before closure. Batch and
    /// stream engines count different traversals, so this differs between
    /// the two paths for the same trace (races and counts never do).
    pub word_ops: u64,
    /// Fixpoint rounds (batch path; zero when streamed).
    pub rounds: u64,
    /// Raw unordered block-pair races before representative dedup.
    pub block_pairs: u64,
    /// Whether the incremental streaming engine produced this report.
    pub streamed: bool,
}

/// The uniform result of one analysis job, whichever engine ran it, as
/// every [`AnalysisService`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// How the job ended.
    pub exit: ExitClass,
    /// One representative race per `(location, category)` pair, sorted.
    pub races: Vec<ReportedRace>,
    /// Representative counts per category.
    pub counts: CategoryCounts,
    /// Deterministic work counters.
    pub stats: JobStats,
    /// Human-readable notes: lenient-parse repairs, the budget/validation
    /// failure, the quarantined panic message.
    pub diagnostics: Vec<String>,
}

impl JobReport {
    /// A report for a job that never produced an analysis (rejected input,
    /// blown budget, quarantined worker).
    pub fn aborted(exit: ExitClass, diagnostic: impl Into<String>) -> Self {
        JobReport {
            exit,
            races: Vec::new(),
            counts: CategoryCounts::default(),
            stats: JobStats::default(),
            diagnostics: vec![diagnostic.into()],
        }
    }

    /// Builds the report of a completed batch session.
    pub fn from_analysis(analysis: &Analysis, diagnostics: Vec<String>) -> Self {
        let stats = analysis.hb().stats();
        let reps = analysis.representatives();
        JobReport {
            exit: if reps.is_empty() {
                ExitClass::Clean
            } else {
                ExitClass::Races
            },
            races: reported_races(
                reps.iter().map(|cr| (cr.race, cr.category)),
                analysis.trace().names(),
            ),
            counts: analysis.counts(),
            stats: JobStats {
                ops: analysis.trace().len() as u64,
                word_ops: stats.word_ops,
                rounds: stats.rounds as u64,
                block_pairs: analysis.races().len() as u64,
                streamed: false,
            },
            diagnostics,
        }
    }

    /// Builds the report of a finished streaming session. The races and
    /// counts are identical to the batch report of the same trace (the
    /// streamed ≡ batch contract); `stats.word_ops` counts the streaming
    /// engine's column traversals instead of the batch engine's rows.
    pub fn from_stream(outcome: &StreamOutcome, names: &Names, diagnostics: Vec<String>) -> Self {
        let reps = representatives_of(&outcome.races);
        JobReport {
            exit: if reps.is_empty() {
                ExitClass::Clean
            } else {
                ExitClass::Races
            },
            races: reported_races(reps.iter().map(|cr| (cr.race, cr.category)), names),
            counts: outcome.counts,
            stats: JobStats {
                ops: outcome.stats.ops,
                word_ops: outcome.stats.word_ops,
                rounds: 0,
                block_pairs: outcome.races.len() as u64,
                streamed: true,
            },
            diagnostics,
        }
    }

    /// Renders the report for humans (the `submit` CLI output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "exit={} ops={} word_ops={} block_pairs={}{}\n",
            self.exit,
            self.stats.ops,
            self.stats.word_ops,
            self.stats.block_pairs,
            if self.stats.streamed {
                " (streamed)"
            } else {
                ""
            },
        );
        out.push_str(&format!(
            "{} representative race(s): {}\n",
            self.races.len(),
            self.counts
        ));
        for r in &self.races {
            out.push_str(&format!(
                "  [{}] {} on {}: op {} vs op {}\n",
                r.category, r.kind, r.loc, r.first, r.second
            ));
        }
        for d in &self.diagnostics {
            out.push_str(&format!("  note: {d}\n"));
        }
        out
    }

    /// Encodes the report as one line of printable ASCII — the form the
    /// result cache persists and the wire protocol ships. Free-form text
    /// (location names, diagnostics) is percent-escaped so the record
    /// splits unambiguously on spaces, commas and semicolons.
    pub fn to_record(&self) -> String {
        let races = if self.races.is_empty() {
            "-".to_owned()
        } else {
            self.races
                .iter()
                .map(|r| {
                    format!(
                        "{}|{}|{}|{}|{}",
                        escape(&r.loc),
                        kind_label(r.kind),
                        category_label(r.category),
                        r.first,
                        r.second
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let diags = if self.diagnostics.is_empty() {
            "-".to_owned()
        } else {
            self.diagnostics
                .iter()
                .map(|d| escape(d))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "exit={} counts={},{},{},{},{} stats={},{},{},{},{} races={races} diags={diags}",
            self.exit.label(),
            self.counts.multithreaded,
            self.counts.co_enabled,
            self.counts.delayed,
            self.counts.cross_posted,
            self.counts.unknown,
            self.stats.ops,
            self.stats.word_ops,
            self.stats.rounds,
            self.stats.block_pairs,
            u8::from(self.stats.streamed),
        )
    }

    /// Parses a [`JobReport::to_record`] line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for any malformed record; never
    /// panics, whatever the input.
    pub fn from_record(record: &str) -> Result<Self, String> {
        let mut exit = None;
        let mut counts = None;
        let mut stats = None;
        let mut races = None;
        let mut diags = None;
        for field in record.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field `{field}`"))?;
            match key {
                "exit" => {
                    exit = Some(
                        ExitClass::from_label(value)
                            .ok_or_else(|| format!("unknown exit class `{value}`"))?,
                    )
                }
                "counts" => {
                    let ns = parse_u64_list(value, 5)?;
                    counts = Some(CategoryCounts {
                        multithreaded: ns[0] as usize,
                        co_enabled: ns[1] as usize,
                        delayed: ns[2] as usize,
                        cross_posted: ns[3] as usize,
                        unknown: ns[4] as usize,
                    });
                }
                "stats" => {
                    let ns = parse_u64_list(value, 5)?;
                    stats = Some(JobStats {
                        ops: ns[0],
                        word_ops: ns[1],
                        rounds: ns[2],
                        block_pairs: ns[3],
                        streamed: ns[4] != 0,
                    });
                }
                "races" => {
                    let mut parsed = Vec::new();
                    if value != "-" {
                        for tok in value.split(',') {
                            parsed.push(parse_race(tok)?);
                        }
                    }
                    races = Some(parsed);
                }
                "diags" => {
                    let mut parsed = Vec::new();
                    if value != "-" {
                        for tok in value.split(',') {
                            parsed.push(unescape(tok)?);
                        }
                    }
                    diags = Some(parsed);
                }
                _ => return Err(format!("unknown field `{key}`")),
            }
        }
        Ok(JobReport {
            exit: exit.ok_or("missing exit field")?,
            races: races.ok_or("missing races field")?,
            counts: counts.ok_or("missing counts field")?,
            stats: stats.ok_or("missing stats field")?,
            diagnostics: diags.ok_or("missing diags field")?,
        })
    }
}

fn reported_races(
    reps: impl Iterator<Item = (crate::race::Race, RaceCategory)>,
    names: &Names,
) -> Vec<ReportedRace> {
    reps.map(|(race, category)| ReportedRace {
        loc: names.loc_name(race.loc),
        kind: race.kind,
        category,
        first: race.first,
        second: race.second,
    })
    .collect()
}

fn kind_label(kind: RaceKind) -> &'static str {
    match kind {
        RaceKind::WriteWrite => "ww",
        RaceKind::WriteRead => "wr",
        RaceKind::ReadWrite => "rw",
    }
}

fn kind_from_label(label: &str) -> Option<RaceKind> {
    Some(match label {
        "ww" => RaceKind::WriteWrite,
        "wr" => RaceKind::WriteRead,
        "rw" => RaceKind::ReadWrite,
        _ => return None,
    })
}

fn category_label(category: RaceCategory) -> &'static str {
    match category {
        RaceCategory::Multithreaded => "mt",
        RaceCategory::CoEnabled => "co",
        RaceCategory::Delayed => "dl",
        RaceCategory::CrossPosted => "xp",
        RaceCategory::Unknown => "un",
    }
}

fn category_from_label(label: &str) -> Option<RaceCategory> {
    Some(match label {
        "mt" => RaceCategory::Multithreaded,
        "co" => RaceCategory::CoEnabled,
        "dl" => RaceCategory::Delayed,
        "xp" => RaceCategory::CrossPosted,
        "un" => RaceCategory::Unknown,
        _ => return None,
    })
}

fn parse_race(tok: &str) -> Result<ReportedRace, String> {
    let parts: Vec<&str> = tok.split('|').collect();
    let [loc, kind, category, first, second] = parts.as_slice() else {
        return Err(format!("bad race entry `{tok}`"));
    };
    Ok(ReportedRace {
        loc: unescape(loc)?,
        kind: kind_from_label(kind).ok_or_else(|| format!("bad race kind `{kind}`"))?,
        category: category_from_label(category)
            .ok_or_else(|| format!("bad race category `{category}`"))?,
        first: first
            .parse()
            .map_err(|_| format!("bad race index `{first}`"))?,
        second: second
            .parse()
            .map_err(|_| format!("bad race index `{second}`"))?,
    })
}

fn parse_u64_list(value: &str, expect: usize) -> Result<Vec<u64>, String> {
    let ns: Result<Vec<u64>, _> = value.split(',').map(str::parse).collect();
    let ns = ns.map_err(|_| format!("bad number list `{value}`"))?;
    if ns.len() != expect {
        return Err(format!(
            "expected {expect} numbers, got {} in `{value}`",
            ns.len()
        ));
    }
    Ok(ns)
}

/// Percent-escapes the record separators (and `%` itself) plus control
/// characters, keeping records single-line and split-safe.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' | ' ' | ',' | '|' | '=' | ';' => out.push_str(&format!("%{:02X}", c as u32)),
            '\x00'..='\x1f' | '\x7f' => out.push_str(&format!("%{:02X}", c as u32)),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in `{s}`"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in `{s}`"))?;
            out.push(
                u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape `%{hex}` in `{s}`"))?,
            );
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escaped text in `{s}` is not UTF-8"))
}

/// One uniform entry point for analysis work: submit trace text under a
/// [`JobSpec`], receive a [`JobReport`]. Implemented in-process by
/// [`LocalService`] and over the wire by the analysis server's client.
///
/// Job-level failures (bad input, blown budgets, quarantined workers) are
/// *reports* with the corresponding [`ExitClass`], not `Err`s — `Err` is
/// reserved for transport faults (an unreachable or shut-down server),
/// which an in-process service never produces.
pub trait AnalysisService {
    /// Analyzes `trace_text` according to `spec`.
    ///
    /// # Errors
    ///
    /// Transport failures only; see the trait docs.
    fn submit(&mut self, spec: &JobSpec, trace_text: &str) -> std::io::Result<JobReport>;
}

/// The in-process [`AnalysisService`]: parses per the spec and runs the
/// session through [`AnalysisBuilder`]. Infallible at the transport level.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalService;

impl LocalService {
    /// A local service.
    pub fn new() -> Self {
        LocalService
    }

    /// Parses `trace_text` per `spec`, returning the trace and any repair
    /// diagnostics, or the ready [`ExitClass::Invalid`] report.
    #[allow(clippy::result_large_err)] // the Err is the job's actual result, not an error path
    fn parse(&self, spec: &JobSpec, trace_text: &str) -> Result<(Trace, Vec<String>), JobReport> {
        if spec.lenient {
            match from_text_lenient(trace_text) {
                Ok((trace, repairs)) => Ok((
                    trace,
                    repairs.iter().map(|d| format!("repair: {d}")).collect(),
                )),
                Err(e) => Err(JobReport::aborted(ExitClass::Invalid, e.to_string())),
            }
        } else {
            match from_text(trace_text) {
                Ok(trace) => Ok((trace, Vec::new())),
                Err(e) => Err(JobReport::aborted(ExitClass::Invalid, e.to_string())),
            }
        }
    }

    /// Runs the job on the batch pipeline and wraps the outcome.
    fn run_batch(&self, spec: &JobSpec, trace: &Trace, diagnostics: Vec<String>) -> JobReport {
        match spec.builder().analyze(trace) {
            Ok(analysis) => JobReport::from_analysis(&analysis, diagnostics),
            Err(AnalysisError::Validate(e)) => {
                let mut report = JobReport::aborted(ExitClass::Invalid, e.to_string());
                report.diagnostics.splice(0..0, diagnostics);
                report
            }
            Err(AnalysisError::BudgetExhausted(e)) => {
                let mut report = JobReport::aborted(ExitClass::Resource, e.to_string());
                report.stats.ops = trace.len() as u64;
                report.stats.word_ops = e.ops_processed;
                report.diagnostics.splice(0..0, diagnostics);
                report
            }
        }
    }
}

impl AnalysisService for LocalService {
    fn submit(&mut self, spec: &JobSpec, trace_text: &str) -> std::io::Result<JobReport> {
        let report = match self.parse(spec, trace_text) {
            Ok((trace, diagnostics)) => self.run_batch(spec, &trace, diagnostics),
            Err(report) => report,
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{to_text, ThreadKind, TraceBuilder};

    fn racy_text() -> String {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("obj", "C.state");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        to_text(&b.finish())
    }

    #[test]
    fn spec_token_round_trips() {
        let specs = [
            JobSpec::default(),
            JobSpec {
                mode: HbMode::EventsAsThreads,
                merge_accesses: false,
                validate: true,
                lenient: true,
                max_ops: Some(123),
                max_matrix_bits: Some(1 << 20),
                deadline_ms: Some(2500),
            },
            JobSpec {
                mode: HbMode::AsyncOnly,
                lenient: true,
                ..JobSpec::default()
            },
        ];
        for spec in specs {
            let token = spec.to_token();
            assert_eq!(JobSpec::from_token(&token), Ok(spec), "{token}");
        }
        assert!(JobSpec::from_token("v2:full:merge:strict:ops=-:bits=-:dl=-").is_err());
        assert!(JobSpec::from_token("garbage").is_err());
        assert!(JobSpec::from_token("").is_err());
    }

    #[test]
    fn local_submit_matches_builder() {
        let text = racy_text();
        let report = LocalService::new()
            .submit(&JobSpec::default(), &text)
            .expect("infallible");
        let trace = from_text(&text).unwrap();
        let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
        assert_eq!(report, JobReport::from_analysis(&analysis, Vec::new()));
        assert_eq!(report.exit, ExitClass::Races);
        assert_eq!(report.counts.multithreaded, 1);
        assert_eq!(report.stats.word_ops, analysis.hb().stats().word_ops);
        assert_eq!(report.races[0].loc, "obj.C.state");
    }

    #[test]
    fn invalid_and_budget_jobs_classify() {
        let report = LocalService::new()
            .submit(&JobSpec::default(), "not a trace\n")
            .expect("infallible");
        assert_eq!(report.exit, ExitClass::Invalid);
        assert_eq!(report.exit.code(), 3);
        assert!(!report.diagnostics.is_empty());

        let starved = JobSpec {
            max_matrix_bits: Some(1),
            ..JobSpec::default()
        };
        let report = LocalService::new()
            .submit(&starved, &racy_text())
            .expect("infallible");
        assert_eq!(report.exit, ExitClass::Resource);
        assert_eq!(report.exit.code(), 2);
        assert!(report.races.is_empty());

        // Validation gate: a semantically invalid trace is Invalid only
        // when the spec asks for validation.
        let bad = "droidracer-trace v1\nthread t0 main initial \"main\"\ntask p0 \"T\"\nop threadinit t0\nop begin t0 p0\n";
        let lax = LocalService::new()
            .submit(&JobSpec::default(), bad)
            .unwrap();
        assert_ne!(lax.exit, ExitClass::Invalid);
        let strict = JobSpec {
            validate: true,
            ..JobSpec::default()
        };
        let checked = LocalService::new().submit(&strict, bad).unwrap();
        assert_eq!(checked.exit, ExitClass::Invalid);
    }

    #[test]
    fn report_record_round_trips() {
        let text = racy_text();
        let mut report = LocalService::new()
            .submit(&JobSpec::default(), &text)
            .expect("infallible");
        report
            .diagnostics
            .push("weird = chars, with | and % and\nnewline".to_owned());
        let record = report.to_record();
        assert!(!record.contains('\n'), "record must be one line: {record}");
        assert_eq!(
            JobReport::from_record(&record),
            Ok::<_, String>(report.clone())
        );

        // Corrupt records fail with a reason, never a panic.
        for bad in [
            "",
            "exit=clean",
            "exit=wat counts=0,0,0,0,0 stats=0,0,0,0,0 races=- diags=-",
            "exit=clean counts=0,0 stats=0,0,0,0,0 races=- diags=-",
            "exit=clean counts=0,0,0,0,0 stats=0,0,0,0,0 races=zz diags=-",
            "exit=clean counts=0,0,0,0,0 stats=0,0,0,0,0 races=- diags=%G",
            "\u{0}\u{1}",
        ] {
            assert!(JobReport::from_record(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lenient_repairs_become_diagnostics() {
        let mut text = racy_text();
        text.push_str("this line is garbage\n");
        let strict = LocalService::new()
            .submit(&JobSpec::default(), &text)
            .unwrap();
        assert_eq!(strict.exit, ExitClass::Invalid);
        let spec = JobSpec {
            lenient: true,
            ..JobSpec::default()
        };
        let report = LocalService::new().submit(&spec, &text).unwrap();
        assert_eq!(report.exit, ExitClass::Races);
        assert!(
            report.diagnostics.iter().any(|d| d.starts_with("repair:")),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "",
            "plain",
            "a b,c|d=e;f%g",
            "caf\u{e9} \u{1F980}",
            "%",
            "%%",
        ] {
            let escaped = escape(s);
            assert!(
                !escaped.contains(' ') && !escaped.contains(','),
                "{escaped}"
            );
            assert_eq!(unescape(&escaped).as_deref(), Ok(s), "{escaped}");
        }
        assert!(unescape("%").is_err());
        assert!(unescape("%zz").is_err());
    }
}
