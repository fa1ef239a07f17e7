//! Schedule-replay race witnessing.
//!
//! A reported race is only fully trustworthy once a concrete schedule
//! *manifests* it (cf. APEChecker): for every race the engine classifies as
//! *co-enabled* or *delayed* — the single-threaded categories whose accesses
//! could run in either order depending on how the looper dequeues tasks —
//! the witnesser searches for a schedule executing the two accesses in the
//! **opposite** order from the observed run.
//!
//! The search is built on the simulator's decision vectors: replaying a
//! recorded vector through a [`ScriptedScheduler`] reproduces a trace
//! exactly, so permuting a prefix of the vector explores neighbouring
//! schedules. Before searching, the witnesser replays the original vector
//! verbatim and checks the trace is bit-identical (the replay oracle); it
//! then tries targeted single-decision mutations from the back of the
//! vector, then fully random schedules, all seeded from the master RNG.

use droidracer_core::Race;
use droidracer_sim::{run, Program, RandomScheduler, Scheduler, ScriptedScheduler, SimConfig};
use droidracer_trace::{OpKind, Trace};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::oracle::{Divergence, DivergenceKind};

/// Identifies "the same access" across different schedules of one program:
/// the `ordinal`-th operation by `thread` (running `task`, if any) touching
/// `loc` with the same read/write polarity. Names are stable across runs
/// (the simulator derives them from the program), while raw trace indices
/// are schedule-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessKey {
    thread: String,
    task: Option<String>,
    loc: String,
    is_write: bool,
    ordinal: usize,
}

/// Computes the [`AccessKey`] of the access at `index` in `trace`, or
/// `None` when the op is not a read/write.
pub fn access_key(trace: &Trace, index: usize) -> Option<AccessKey> {
    let tidx = trace.index();
    let key_of = |i: usize| -> Option<(String, Option<String>, String, bool)> {
        let op = trace.op(i);
        let (loc, is_write) = match op.kind {
            OpKind::Read { loc } => (loc, false),
            OpKind::Write { loc } => (loc, true),
            _ => return None,
        };
        let names = trace.names();
        Some((
            names.thread_name(op.thread),
            tidx.task_of(i).map(|t| names.task_name(t)),
            names.loc_name(loc),
            is_write,
        ))
    };
    let target = key_of(index)?;
    let ordinal = (0..index)
        .filter(|&i| key_of(i).as_ref() == Some(&target))
        .count();
    let (thread, task, loc, is_write) = target;
    Some(AccessKey {
        thread,
        task,
        loc,
        is_write,
        ordinal,
    })
}

/// Finds the trace index matching `key` in `trace`, if the schedule reached
/// that access at all.
pub fn find_key(trace: &Trace, key: &AccessKey) -> Option<usize> {
    (0..trace.len()).find(|&i| access_key(trace, i).as_ref() == Some(key))
}

/// The outcome of one witnessing attempt.
#[derive(Debug, Clone)]
pub struct WitnessOutcome {
    /// Whether a reordering schedule was found.
    pub witnessed: bool,
    /// Schedules executed during the search.
    pub attempts: usize,
    /// The decision vector of the witnessing run, when found.
    pub script: Option<Vec<usize>>,
}

/// Searches for a schedule of `program` executing the two accesses of
/// `race` (indices into `stripped`, the cancellation-stripped trace of the
/// run recorded by `decisions`) in the opposite order.
///
/// # Errors
///
/// Returns a [`DivergenceKind::Replay`] divergence when replaying the
/// original `decisions` verbatim fails to reproduce `original` — a
/// determinism bug in the simulator, reported before any search happens.
pub fn witness_race(
    program: &Program,
    original: &Trace,
    stripped: &Trace,
    decisions: &[usize],
    race: &Race,
    rng: &mut SmallRng,
    budget: usize,
) -> Result<WitnessOutcome, Divergence> {
    let sim_config = SimConfig::default();

    // Replay oracle: the recorded vector must reproduce the trace exactly.
    let mut replayer = ScriptedScheduler::new(decisions.to_vec());
    let replayed = run(program, &mut replayer, &sim_config).map_err(|e| Divergence {
        kind: DivergenceKind::Replay,
        detail: format!("replay of recorded decisions errored: {e:?}"),
    })?;
    if &replayed.trace != original {
        return Err(Divergence {
            kind: DivergenceKind::Replay,
            detail: format!(
                "replay of recorded decisions produced a different trace \
                 ({} ops vs {})",
                replayed.trace.len(),
                original.len()
            ),
        });
    }

    let (Some(first), Some(second)) = (
        access_key(stripped, race.first),
        access_key(stripped, race.second),
    ) else {
        return Ok(WitnessOutcome {
            witnessed: false,
            attempts: 0,
            script: None,
        });
    };

    let reordered = |trace: &Trace| -> bool {
        let stripped = trace.without_cancelled();
        match (find_key(&stripped, &first), find_key(&stripped, &second)) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    };

    let mut attempts = 0usize;

    // Phase 1: targeted single-decision mutations, back to front. Flipping
    // a late decision perturbs exactly the suffix where the racing pair is
    // scheduled; the clamp in [`ScriptedScheduler`] keeps mutated entries
    // in range and round-robin completes the schedule past the script.
    let positions: Vec<usize> = (0..decisions.len()).rev().collect();
    for &k in positions.iter().take(budget / 2) {
        let mut script: Vec<usize> = decisions[..k].to_vec();
        script.push(decisions[k] + 1 + rng.random_range(0..3));
        let mut sched = ScriptedScheduler::new(script);
        attempts += 1;
        if let Ok(result) = run(program, &mut sched, &sim_config) {
            if reordered(&result.trace) {
                return Ok(confirm(
                    program,
                    &result.decisions,
                    &sim_config,
                    reordered,
                    attempts,
                ));
            }
        }
    }

    // Phase 2: independent random schedules seeded from the master RNG.
    while attempts < budget {
        let seed = rng.next_u64();
        let mut sched = RandomScheduler::from_rng(SmallRng::seed_from_u64(seed));
        attempts += 1;
        if let Ok(result) = run(program, &mut sched, &sim_config) {
            if reordered(&result.trace) {
                return Ok(confirm(
                    program,
                    &result.decisions,
                    &sim_config,
                    reordered,
                    attempts,
                ));
            }
        }
    }

    Ok(WitnessOutcome {
        witnessed: false,
        attempts,
        script: None,
    })
}

/// Replays a found witnessing schedule through a [`ScriptedScheduler`] to
/// confirm the reordering is reproducible from its decision vector alone.
fn confirm(
    program: &Program,
    decisions: &[usize],
    sim_config: &SimConfig,
    reordered: impl Fn(&Trace) -> bool,
    attempts: usize,
) -> WitnessOutcome {
    let mut sched = ScriptedScheduler::new(decisions.to_vec());
    let confirmed = run(program, &mut sched, sim_config)
        .map(|r| reordered(&r.trace))
        .unwrap_or(false);
    WitnessOutcome {
        witnessed: confirmed,
        attempts,
        script: confirmed.then(|| decisions.to_vec()),
    }
}

/// A scheduler adapter that records the choice-set size alongside every
/// decision — kept for schedule-space diagnostics in the CLI's verbose
/// profile output.
#[derive(Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    /// `(available choices, picked index)` per step.
    pub log: Vec<(usize, usize)>,
}

impl<S: Scheduler> RecordingScheduler<S> {
    /// Wraps `inner`, recording every decision it makes.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            log: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn choose(&mut self, choices: &[droidracer_sim::Choice]) -> usize {
        let pick = self.inner.choose(choices);
        self.log.push((choices.len(), pick));
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_core::{detect, HappensBefore, HbConfig};
    use droidracer_sim::{Action, ProgramBuilder, RoundRobinScheduler, ThreadSpec};
    use droidracer_trace::PostKind;

    /// Two tasks posted to the same looper from two different threads —
    /// their accesses are co-enabled, so some schedule runs them in either
    /// order.
    fn co_enabled_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.thread(ThreadSpec::app("main").initial().with_queue());
        let bg = b.thread(ThreadSpec::app("bg").initial());
        let loc = b.loc("obj", "C.x");
        let t1 = b.task("t1", vec![Action::Write(loc)]);
        let t2 = b.task("t2", vec![Action::Write(loc)]);
        b.set_thread_body(
            main,
            vec![Action::Post {
                task: t1,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        b.set_thread_body(
            bg,
            vec![Action::Post {
                task: t2,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        b.finish().expect("valid program")
    }

    #[test]
    fn access_keys_are_stable_across_schedules() {
        let program = co_enabled_program();
        let a = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .unwrap();
        let b = run(
            &program,
            &mut RandomScheduler::new(5),
            &SimConfig::default(),
        )
        .unwrap();
        let idx = (0..a.trace.len())
            .find(|&i| matches!(a.trace.op(i).kind, OpKind::Write { .. }))
            .unwrap();
        let key = access_key(&a.trace, idx).unwrap();
        assert!(find_key(&b.trace, &key).is_some());
    }

    #[test]
    fn co_enabled_race_is_witnessed() {
        let program = co_enabled_program();
        let result = run(
            &program,
            &mut RandomScheduler::new(1),
            &SimConfig::default(),
        )
        .unwrap();
        let stripped = result.trace.without_cancelled();
        let hb = HappensBefore::compute(&stripped, HbConfig::new());
        let races = detect(&stripped, &hb);
        assert!(!races.is_empty(), "the co-enabled program must race");
        let mut rng = SmallRng::seed_from_u64(9);
        let outcome = witness_race(
            &program,
            &result.trace,
            &stripped,
            &result.decisions,
            &races[0],
            &mut rng,
            64,
        )
        .expect("replay must be deterministic");
        assert!(outcome.witnessed, "search must find a reordering schedule");
        assert!(outcome.script.is_some());
    }

    #[test]
    fn recording_scheduler_logs_choice_counts() {
        let program = co_enabled_program();
        let mut sched = RecordingScheduler::new(RoundRobinScheduler::new());
        let result = run(&program, &mut sched, &SimConfig::default()).unwrap();
        assert_eq!(sched.log.len(), result.steps);
        assert!(sched.log.iter().all(|&(n, pick)| pick < n));
    }
}
