//! The replay database and the testing campaign driver.
//!
//! "The event sequences generated are stored in a database and used for
//! backtracking and replay" (§5). A [`ReplayDb`] records, for every executed
//! test, the event sequence, the scheduler seed and the decision vector; a
//! stored entry replays to a bit-identical trace via the scripted scheduler.

use droidracer_core::{ItemError, QuarantineCause, Quarantined};
use droidracer_framework::{compile, App, UiEvent};
use droidracer_sim::{run, ScriptedScheduler, SimConfig, SimResult};

use crate::explore::{enumerate_sequences, run_sequence, ExploreError, ExplorerConfig};

/// One recorded test execution.
#[derive(Debug, Clone)]
pub struct TestEntry {
    /// Sequence number within the campaign.
    pub id: usize,
    /// The UI event sequence driven.
    pub events: Vec<UiEvent>,
    /// Scheduler seed used for the original run.
    pub seed: u64,
    /// Recorded decision vector (replays the exact schedule).
    pub decisions: Vec<usize>,
    /// Whether the original run reached quiescence.
    pub completed: bool,
    /// Length of the emitted trace.
    pub trace_len: usize,
}

/// A store of executed tests supporting exact replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayDb {
    entries: Vec<TestEntry>,
}

impl ReplayDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a run.
    pub fn record(&mut self, events: Vec<UiEvent>, seed: u64, result: &SimResult) -> usize {
        let id = self.entries.len();
        self.entries.push(TestEntry {
            id,
            events,
            seed,
            decisions: result.decisions.clone(),
            completed: result.completed,
            trace_len: result.trace.len(),
        });
        id
    }

    /// All entries.
    pub fn entries(&self) -> &[TestEntry] {
        &self.entries
    }

    /// Entry by id.
    pub fn entry(&self, id: usize) -> Option<&TestEntry> {
        self.entries.get(id)
    }

    /// Number of stored tests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays entry `id` against `app`, reproducing the recorded schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] if the app no longer compiles with the
    /// stored events, and `None` if the id is unknown.
    pub fn replay(&self, app: &App, id: usize) -> Option<Result<SimResult, ExploreError>> {
        let entry = self.entry(id)?;
        let compiled = match compile(app, &entry.events) {
            Ok(c) => c,
            Err(e) => return Some(Err(e.into())),
        };
        let result = run(
            &compiled.program,
            &mut ScriptedScheduler::new(entry.decisions.clone()),
            &SimConfig::default(),
        )
        .map_err(ExploreError::from);
        Some(result)
    }
}

/// A finished testing campaign: every enumerated sequence executed once.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The replay database of all executed tests.
    pub db: ReplayDb,
    /// The traces paired with their event sequences, in DFS order.
    pub runs: Vec<(Vec<UiEvent>, SimResult)>,
}

/// Runs a full campaign: enumerate sequences depth-first (bounded by the
/// config) and execute each one.
///
/// # Errors
///
/// Returns the first compile/simulation failure; individual incomplete runs
/// (cut off or blocked) are recorded, not errors.
pub fn run_campaign(app: &App, config: &ExplorerConfig) -> Result<Campaign, ExploreError> {
    run_campaign_parallel(app, config, 1)
}

/// Like [`run_campaign`], executing the sequences on `threads` workers.
///
/// Every sequence runs under the same scheduler seed it gets in the
/// sequential campaign, and the database is recorded in DFS enumeration
/// order after the fan-out joins, so the resulting [`Campaign`] — entry
/// ids, decision vectors, traces — is identical for every thread count.
///
/// # Errors
///
/// Returns the first compile/simulation failure (in enumeration order, not
/// completion order); individual incomplete runs are recorded, not errors.
pub fn run_campaign_parallel(
    app: &App,
    config: &ExplorerConfig,
    threads: usize,
) -> Result<Campaign, ExploreError> {
    run_campaign_profiled(app, config, threads).map(|(campaign, _)| campaign)
}

/// Like [`run_campaign_parallel`], additionally returning the campaign's
/// span tree: a root `explore` span with one `explore[i]` child per
/// enumerated sequence (in DFS enumeration order for every thread count),
/// each carrying `trace_ops` and `completed` counters.
///
/// # Errors
///
/// Returns the first compile/simulation failure (in enumeration order, not
/// completion order); individual incomplete runs are recorded, not errors.
pub fn run_campaign_profiled(
    app: &App,
    config: &ExplorerConfig,
    threads: usize,
) -> Result<(Campaign, droidracer_obs::SpanRecord), ExploreError> {
    let sequences = enumerate_sequences(app, config);
    let (results, span) =
        droidracer_core::par_map_profiled(&sequences, threads, "explore", |events, rec| {
            let result = run_sequence(app, events, config);
            if let Ok(result) = &result {
                rec.counter("trace_ops", result.trace.len() as u64);
                rec.counter("completed", u64::from(result.completed));
            }
            result
        });
    let mut db = ReplayDb::new();
    let mut runs = Vec::new();
    for (events, result) in sequences.into_iter().zip(results) {
        let result = result?;
        db.record(events.clone(), config.seed, &result);
        runs.push((events, result));
    }
    Ok((Campaign { db, runs }, span))
}

/// Fault-isolated campaign: like [`run_campaign_parallel`], but every
/// sequence runs inside a panic boundary
/// ([`droidracer_core::par_try_map`]). A sequence that panics or fails to
/// compile/simulate is reported as a [`Quarantined`] verdict instead of
/// aborting the campaign; the surviving sequences are recorded in DFS
/// enumeration order, bit-identical to a campaign without the faulty
/// sequence.
pub fn run_campaign_isolated(
    app: &App,
    config: &ExplorerConfig,
    threads: usize,
) -> (Campaign, Vec<Quarantined>) {
    let sequences = enumerate_sequences(app, config);
    let results = droidracer_core::par_try_map(&sequences, threads, |events| {
        run_sequence(app, events, config)
    });
    let mut db = ReplayDb::new();
    let mut runs = Vec::new();
    let mut quarantined = Vec::new();
    for (events, result) in sequences.into_iter().zip(results) {
        match result {
            Ok(result) => {
                db.record(events.clone(), config.seed, &result);
                runs.push((events, result));
            }
            Err(err) => {
                let (cause, payload) = match err {
                    ItemError::Panic(msg) => (QuarantineCause::Panic, msg),
                    ItemError::Err(e) => (QuarantineCause::Error, e.to_string()),
                };
                quarantined.push(Quarantined {
                    input: events
                        .iter()
                        .map(|e| e.describe(app))
                        .collect::<Vec<_>>()
                        .join(" "),
                    cause,
                    payload,
                });
            }
        }
    }
    (Campaign { db, runs }, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_framework::{AppBuilder, Stmt};
    use droidracer_trace::validate;

    fn app() -> App {
        let mut b = AppBuilder::new("Db");
        let a = b.activity("Main");
        let v = b.var("o", "C.f");
        b.button(a, "go", vec![Stmt::Write(v)]);
        b.finish()
    }

    #[test]
    fn campaign_runs_every_sequence() {
        let app = app();
        let config = ExplorerConfig {
            max_depth: 2,
            ..ExplorerConfig::default()
        };
        let campaign = run_campaign(&app, &config).expect("campaign runs");
        assert_eq!(campaign.db.len(), campaign.runs.len());
        assert!(!campaign.db.is_empty());
        for (events, result) in &campaign.runs {
            assert_eq!(validate(&result.trace), Ok(()), "sequence {events:?}");
        }
    }

    #[test]
    fn replay_reproduces_exact_trace() {
        let app = app();
        let config = ExplorerConfig {
            max_depth: 1,
            seed: 99,
            ..ExplorerConfig::default()
        };
        let campaign = run_campaign(&app, &config).expect("campaign runs");
        for (id, (_, original)) in campaign.runs.iter().enumerate() {
            let replayed = campaign
                .db
                .replay(&app, id)
                .expect("entry exists")
                .expect("replay runs");
            assert_eq!(replayed.trace.ops(), original.trace.ops(), "entry {id}");
        }
    }

    #[test]
    fn unknown_entry_returns_none() {
        let db = ReplayDb::new();
        assert!(db.replay(&app(), 0).is_none());
        assert!(db.entry(3).is_none());
    }

    #[test]
    fn profiled_campaign_has_stable_span_structure() {
        let app = app();
        let config = ExplorerConfig {
            max_depth: 2,
            ..ExplorerConfig::default()
        };
        let (campaign, base) = run_campaign_profiled(&app, &config, 1).expect("campaign runs");
        assert_eq!(base.name, "explore");
        assert_eq!(base.children.len(), campaign.runs.len());
        assert!(base.children[0]
            .counters
            .iter()
            .any(|(k, _)| k == "trace_ops"));
        for threads in [2, 8] {
            let (c, span) = run_campaign_profiled(&app, &config, threads).expect("campaign runs");
            assert_eq!(c.db.len(), campaign.db.len(), "threads={threads}");
            assert_eq!(span.structure(), base.structure(), "threads={threads}");
        }
    }

    #[test]
    fn isolated_campaign_matches_plain_campaign_when_clean() {
        let app = app();
        let config = ExplorerConfig {
            max_depth: 2,
            ..ExplorerConfig::default()
        };
        let baseline = run_campaign(&app, &config).expect("campaign runs");
        for threads in [1, 4] {
            let (campaign, quarantined) = run_campaign_isolated(&app, &config, threads);
            assert!(quarantined.is_empty(), "{quarantined:?}");
            assert_eq!(campaign.db.len(), baseline.db.len(), "threads={threads}");
            for ((_, a), (_, b)) in campaign.runs.iter().zip(&baseline.runs) {
                assert_eq!(a.trace.ops(), b.trace.ops(), "threads={threads}");
            }
        }
    }

    #[test]
    fn record_captures_metadata() {
        let app = app();
        let config = ExplorerConfig::default();
        let seqs = enumerate_sequences(&app, &config);
        let result = run_sequence(&app, &seqs[0], &config).expect("runs");
        let mut db = ReplayDb::new();
        let id = db.record(seqs[0].clone(), config.seed, &result);
        let entry = db.entry(id).expect("stored");
        assert_eq!(entry.trace_len, result.trace.len());
        assert_eq!(entry.completed, result.completed);
        assert_eq!(entry.events, seqs[0]);
    }
}
