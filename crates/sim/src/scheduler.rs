//! Scheduling strategies for the simulator.
//!
//! At every step the runtime enumerates the set of enabled [`Choice`]s in a
//! deterministic order and asks the scheduler to pick one. Recording the
//! picked indices yields a *decision vector* that the
//! [`ScriptedScheduler`] can replay exactly — the mechanism behind the UI
//! Explorer's backtracking and "replay events consistently across testing
//! runs" (§5).

use droidracer_trace::{TaskId, ThreadId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One enabled scheduling alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Start a created thread (emits `threadinit`).
    StartThread(ThreadId),
    /// Execute the next statement of a running thread (or of the task it is
    /// executing).
    Step(ThreadId),
    /// Have the idle looper `thread` dequeue and begin `task`.
    BeginTask {
        /// The looper thread.
        thread: ThreadId,
        /// The eligible task instance.
        task: TaskId,
    },
    /// Have the idle looper perform its next pending environment-event
    /// injection (a UI event firing).
    InjectEvent(ThreadId),
    /// Have the looper run its next registered idle handler (its queue has
    /// drained).
    RunIdle(ThreadId),
}

impl Choice {
    /// The thread this choice advances.
    pub fn thread(&self) -> ThreadId {
        match *self {
            Choice::StartThread(t)
            | Choice::Step(t)
            | Choice::BeginTask { thread: t, .. }
            | Choice::InjectEvent(t)
            | Choice::RunIdle(t) => t,
        }
    }
}

/// Picks among enabled choices.
///
/// Implementations must return an index `< choices.len()`; the runtime
/// guarantees `choices` is non-empty.
pub trait Scheduler {
    /// Chooses the index of the next step.
    fn choose(&mut self, choices: &[Choice]) -> usize;
}

/// Deterministic round-robin over threads: repeatedly advances the next
/// thread (by id) after the previously scheduled one.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    last: Option<ThreadId>,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn choose(&mut self, choices: &[Choice]) -> usize {
        let pick = match self.last {
            None => 0,
            Some(last) => {
                // First choice on a thread strictly greater than `last`,
                // wrapping around.
                choices.iter().position(|c| c.thread() > last).unwrap_or(0)
            }
        };
        self.last = Some(choices[pick].thread());
        pick
    }
}

/// Uniformly random choice from a seeded generator; the same seed always
/// produces the same schedule.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        Self::from_rng(SmallRng::seed_from_u64(seed))
    }

    /// Creates a scheduler from an existing generator, so a harness can
    /// thread one master [`SmallRng`] through every random strategy and
    /// reproduce a whole run byte-identically from a single seed.
    pub fn from_rng(rng: SmallRng) -> Self {
        RandomScheduler { rng }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, choices: &[Choice]) -> usize {
        self.rng.random_range(0..choices.len())
    }
}

/// Randomly schedules while *stalling* one thread: the stalled thread only
/// runs when nothing else can. This is the simulator analogue of parking a
/// thread on a debugger breakpoint — the paper validates multi-threaded and
/// cross-posted races by "stalling certain threads using breakpoints,
/// giving others the opportunity to progress" (§6).
#[derive(Debug, Clone)]
pub struct StallScheduler {
    stalled: ThreadId,
    inner: RandomScheduler,
}

impl StallScheduler {
    /// Creates a scheduler that starves `stalled` whenever possible.
    pub fn new(stalled: ThreadId, seed: u64) -> Self {
        Self::from_rng(stalled, SmallRng::seed_from_u64(seed))
    }

    /// Creates a stalling scheduler from an existing generator (see
    /// [`RandomScheduler::from_rng`]).
    pub fn from_rng(stalled: ThreadId, rng: SmallRng) -> Self {
        StallScheduler {
            stalled,
            inner: RandomScheduler::from_rng(rng),
        }
    }
}

impl Scheduler for StallScheduler {
    fn choose(&mut self, choices: &[Choice]) -> usize {
        let unstalled: Vec<usize> = choices
            .iter()
            .enumerate()
            .filter(|(_, c)| c.thread() != self.stalled)
            .map(|(i, _)| i)
            .collect();
        if unstalled.is_empty() {
            self.inner.choose(choices)
        } else {
            let shadow: Vec<Choice> = unstalled.iter().map(|&i| choices[i]).collect();
            unstalled[self.inner.choose(&shadow)]
        }
    }
}

/// Replays a recorded decision vector, then falls back to round-robin when
/// the script runs out (used for replay and systematic backtracking).
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: Vec<usize>,
    next: usize,
    fallback: RoundRobinScheduler,
}

impl ScriptedScheduler {
    /// Creates a scheduler replaying `script`.
    pub fn new(script: Vec<usize>) -> Self {
        ScriptedScheduler {
            script,
            next: 0,
            fallback: RoundRobinScheduler::new(),
        }
    }

    /// How many scripted decisions have been consumed.
    pub fn consumed(&self) -> usize {
        self.next
    }
}

impl Scheduler for ScriptedScheduler {
    fn choose(&mut self, choices: &[Choice]) -> usize {
        if let Some(&d) = self.script.get(self.next) {
            self.next += 1;
            if d < choices.len() {
                return d;
            }
            // A stale script entry (diverged replay): clamp into range.
            return d % choices.len();
        }
        self.fallback.choose(choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choices(ids: &[u32]) -> Vec<Choice> {
        ids.iter().map(|&i| Choice::Step(ThreadId(i))).collect()
    }

    #[test]
    fn round_robin_rotates_threads() {
        let mut s = RoundRobinScheduler::new();
        let cs = choices(&[0, 1, 2]);
        assert_eq!(s.choose(&cs), 0); // t0
        assert_eq!(s.choose(&cs), 1); // t1
        assert_eq!(s.choose(&cs), 2); // t2
        assert_eq!(s.choose(&cs), 0); // wraps to t0
    }

    #[test]
    fn round_robin_skips_missing_threads() {
        let mut s = RoundRobinScheduler::new();
        assert_eq!(s.choose(&choices(&[0, 2])), 0);
        assert_eq!(s.choose(&choices(&[0, 2])), 1); // t2 (next after t0)
        assert_eq!(s.choose(&choices(&[0, 1])), 0); // wraps
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let cs = choices(&[0, 1, 2, 3]);
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..32).map(|_| s.choose(&cs)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn from_rng_matches_seeded_construction() {
        let cs = choices(&[0, 1, 2, 3]);
        let mut seeded = RandomScheduler::new(99);
        let mut threaded = RandomScheduler::from_rng(SmallRng::seed_from_u64(99));
        for _ in 0..32 {
            assert_eq!(seeded.choose(&cs), threaded.choose(&cs));
        }
    }

    #[test]
    fn random_stays_in_range() {
        let mut s = RandomScheduler::new(42);
        for n in 1..6 {
            let cs = choices(&(0..n).collect::<Vec<_>>());
            for _ in 0..50 {
                assert!(s.choose(&cs) < cs.len());
            }
        }
    }

    #[test]
    fn stall_scheduler_starves_the_stalled_thread() {
        let mut s = StallScheduler::new(ThreadId(1), 3);
        let cs = choices(&[0, 1, 2]);
        for _ in 0..50 {
            let pick = s.choose(&cs);
            assert_ne!(cs[pick].thread(), ThreadId(1));
        }
        // When only the stalled thread can run, it runs.
        let only = choices(&[1]);
        assert_eq!(s.choose(&only), 0);
    }

    #[test]
    fn scripted_replays_then_falls_back() {
        let mut s = ScriptedScheduler::new(vec![2, 0]);
        let cs = choices(&[0, 1, 2]);
        assert_eq!(s.choose(&cs), 2);
        assert_eq!(s.choose(&cs), 0);
        assert_eq!(s.consumed(), 2);
        // fallback: round-robin
        let _ = s.choose(&cs);
    }

    #[test]
    fn scripted_clamps_out_of_range_entries() {
        let mut s = ScriptedScheduler::new(vec![9]);
        let cs = choices(&[0, 1]);
        let pick = s.choose(&cs);
        assert!(pick < 2);
    }

    #[test]
    fn choice_thread_accessor() {
        assert_eq!(Choice::StartThread(ThreadId(3)).thread(), ThreadId(3));
        assert_eq!(
            Choice::BeginTask {
                thread: ThreadId(1),
                task: TaskId(0)
            }
            .thread(),
            ThreadId(1)
        );
        assert_eq!(Choice::InjectEvent(ThreadId(2)).thread(), ThreadId(2));
    }
}
