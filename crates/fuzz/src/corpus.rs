//! Coverage accounting and the on-disk regression corpus.
//!
//! Coverage is feature-based: every fuzz iteration is summarized as a set
//! of feature strings (generator constructs used, engine rules that fired,
//! race categories observed). The [`Coverage`] map counts how often each
//! feature has been seen; the driver boosts the generation weight of rarely
//! seen features, steering the generator toward cold engine rules.
//!
//! Failing inputs are shrunk and committed as plain-text traces under
//! `tests/data/fuzz_regressions/`; [`replay_regressions`] re-checks every
//! committed trace against the oracle stack (run by the CI smoke job and
//! the `fuzz_regressions` integration test).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use droidracer_core::RaceCategory;
use droidracer_trace::{from_text, to_text, OpKind, PostKind, Trace};

use crate::gen::{ProgramSpec, SpecAction};
use crate::oracle::{check_trace, Divergence, OracleReport};
use droidracer_core::HbConfig;

/// Feature counters accumulated over a fuzzing session.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    counts: BTreeMap<String, u64>,
    iterations: u64,
}

impl Coverage {
    /// Creates an empty coverage map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one iteration's feature set.
    pub fn record(&mut self, features: &BTreeSet<String>) {
        self.iterations += 1;
        for f in features {
            *self.counts.entry(f.clone()).or_insert(0) += 1;
        }
    }

    /// How often `feature` has been seen.
    pub fn count(&self, feature: &str) -> u64 {
        self.counts.get(feature).copied().unwrap_or(0)
    }

    /// Whether `feature` has been seen in fewer than ~10% of iterations —
    /// the threshold below which the driver boosts its generation weight.
    pub fn is_rare(&self, feature: &str) -> bool {
        self.count(feature) * 10 < self.iterations
    }

    /// Iterations recorded.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// All `(feature, count)` pairs in lexicographic order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Summarizes one iteration as a feature set: generator constructs used by
/// `spec`, observable trace shapes in `original`, engine rules that fired
/// and race categories found by the oracle `report`.
pub fn features_of(
    spec: Option<&ProgramSpec>,
    original: &Trace,
    report: &OracleReport,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();

    if let Some(spec) = spec {
        let actions = spec
            .threads
            .iter()
            .map(|t| &t.body)
            .chain(spec.tasks.iter().map(|t| &t.body))
            .flatten();
        for a in actions {
            let f = match a {
                SpecAction::Read(_) | SpecAction::Write(_) => "gen.access",
                SpecAction::Acquire(_) | SpecAction::Release(_) => "gen.lock",
                SpecAction::Post {
                    kind: PostKind::Plain,
                    ..
                } => "gen.post.plain",
                SpecAction::Post {
                    kind: PostKind::Delayed(_),
                    ..
                } => "gen.post.delayed",
                SpecAction::Post {
                    kind: PostKind::Front,
                    ..
                } => "gen.post.front",
                SpecAction::Enable(_) => "gen.enable",
                SpecAction::Cancel(_) => "gen.cancel",
                SpecAction::AddIdle { .. } => "gen.idle",
                SpecAction::Fork(_) => "gen.fork",
                SpecAction::Join(_) => "gen.join",
            };
            out.insert(f.to_string());
        }
        if spec.threads.iter().filter(|t| t.queue).count() > 1 {
            out.insert("gen.multi_looper".to_string());
        }
        if !spec.injections.is_empty() {
            out.insert("gen.injection".to_string());
        }
        if spec.tasks.iter().any(|t| t.needs_enable) {
            out.insert("gen.enable_gate".to_string());
        }
        for tag in &spec.components {
            out.insert(format!("gen.component.{}", tag.label()));
        }
    }

    for (_, op) in original.iter() {
        let f = match op.kind {
            OpKind::Cancel { .. } => Some("op.cancel"),
            OpKind::Post {
                kind: PostKind::Delayed(_),
                ..
            } => Some("op.post.delayed"),
            OpKind::Post {
                kind: PostKind::Front,
                ..
            } => Some("op.post.front"),
            OpKind::Post { event: Some(_), .. } => Some("op.post.event"),
            _ => None,
        };
        if let Some(f) = f {
            out.insert(f.to_string());
        }
    }
    if report.stripped.len() < original.len() {
        // A cancel actually erased a pending post — the stripping path the
        // static corpus never exercises.
        out.insert("op.cancel.effective".to_string());
    }

    let stats = report.hb.stats();
    for (name, fired) in [
        ("rule.fifo", stats.fifo_fired > 0),
        ("rule.nopre", stats.nopre_fired > 0),
        ("rule.trans_st", stats.trans_st_edges > 0),
        ("rule.trans_mt", stats.trans_mt_edges > 0),
    ] {
        if fired {
            out.insert(name.to_string());
        }
    }

    for (_, cat) in &report.races {
        let f = match cat {
            RaceCategory::Multithreaded => "race.multithreaded",
            RaceCategory::CoEnabled => "race.co_enabled",
            RaceCategory::Delayed => "race.delayed",
            RaceCategory::CrossPosted => "race.cross_posted",
            RaceCategory::Unknown => "race.unknown",
        };
        out.insert(f.to_string());
    }

    out
}

/// Whether `trace` exhibits the *serial-executor ordering* shape: an
/// application dispatcher thread that itself never receives a post
/// delivers two or more tasks to the same non-main queue. The FIFO rule
/// then orders the deliveries on a dedicated serial executor rather than
/// the main looper — an engine path the static catalog never reaches: its
/// cross-queue fan-out always originates from the environment's *binder*
/// threads or from loopers that are themselves posted to, never from a
/// plain application thread.
pub fn serial_executor_ordering(trace: &Trace) -> bool {
    use droidracer_trace::{ThreadId, ThreadKind};
    let mut receivers: BTreeSet<ThreadId> = BTreeSet::new();
    for (_, op) in trace.iter() {
        if let OpKind::Post { target, .. } = op.kind {
            receivers.insert(target);
        }
    }
    let kinds: BTreeMap<ThreadId, ThreadKind> = trace
        .names()
        .threads()
        .map(|(id, d)| (id, d.kind))
        .collect();
    let mut deliveries: BTreeMap<(ThreadId, ThreadId), usize> = BTreeMap::new();
    for (_, op) in trace.iter() {
        if let OpKind::Post { target, .. } = op.kind {
            if receivers.contains(&op.thread)
                || kinds.get(&op.thread) != Some(&ThreadKind::App)
                || kinds.get(&target) == Some(&ThreadKind::Main)
                || target == op.thread
            {
                continue;
            }
            *deliveries.entry((op.thread, target)).or_insert(0) += 1;
        }
    }
    deliveries.values().any(|&n| n >= 2)
}

/// Writes `trace` as a plain-text regression case `<name>.trace` in `dir`,
/// creating the directory if needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_regression(dir: &Path, name: &str, trace: &Trace) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.trace"));
    fs::write(&path, to_text(trace))?;
    Ok(path)
}

/// Loads every `*.trace` file in `dir`, sorted by file name. A missing
/// directory yields an empty corpus.
///
/// # Errors
///
/// Propagates filesystem errors and trace-parse failures (a corrupt
/// committed regression should fail loudly, not be skipped).
pub fn load_regressions(dir: &Path) -> io::Result<Vec<(PathBuf, Trace)>> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "trace"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p)?;
            let trace = from_text(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
            })?;
            Ok((p, trace))
        })
        .collect()
}

/// Re-runs the oracle stack over every committed regression in `dir`,
/// returning the divergences per file (all empty when the corpus is green).
///
/// # Errors
///
/// Propagates [`load_regressions`] failures.
pub fn replay_regressions(
    dir: &Path,
    config: HbConfig,
) -> io::Result<Vec<(PathBuf, Vec<Divergence>)>> {
    Ok(load_regressions(dir)?
        .into_iter()
        .map(|(path, trace)| {
            let report = check_trace(&trace, config, config);
            (path, report.divergences)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn tiny_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("obj", "C.f");
        b.thread_init(t);
        b.write(t, loc);
        b.finish_validated().expect("feasible")
    }

    #[test]
    fn coverage_tracks_rarity() {
        let mut cov = Coverage::new();
        let common: BTreeSet<String> = ["a".to_string()].into_iter().collect();
        let both: BTreeSet<String> = ["a".to_string(), "b".to_string()].into_iter().collect();
        for _ in 0..30 {
            cov.record(&common);
        }
        cov.record(&both);
        assert!(!cov.is_rare("a"));
        assert!(cov.is_rare("b"));
        assert!(cov.is_rare("never-seen"));
        assert_eq!(cov.iterations(), 31);
    }

    #[test]
    fn regressions_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("droidracer-fuzz-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let trace = tiny_trace();
        save_regression(&dir, "tiny", &trace).expect("save");
        let loaded = load_regressions(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, trace);
        let replays = replay_regressions(&dir, HbConfig::new()).expect("replay");
        assert!(replays.iter().all(|(_, d)| d.is_empty()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let dir = std::env::temp_dir().join("droidracer-fuzz-no-such-dir");
        let _ = fs::remove_dir_all(&dir);
        assert!(load_regressions(&dir).expect("empty").is_empty());
    }

    #[test]
    fn features_capture_trace_shapes() {
        let trace = tiny_trace();
        let report = check_trace(&trace, HbConfig::new(), HbConfig::new());
        let features = features_of(None, &trace, &report);
        assert!(!features.contains("op.cancel"));
        assert!(!features.contains("op.cancel.effective"));
    }
}
