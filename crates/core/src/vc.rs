//! A vector-clock race detector for the classic multi-threaded model
//! (DJIT⁺-style, in the spirit of FastTrack [PLDI'09], which the paper cites
//! as the state of the art for multi-threaded programs).
//!
//! This detector deliberately understands only threads, fork/join and locks —
//! asynchronous tasks are invisible to it. It serves two purposes:
//!
//! * an independent implementation cross-checking the graph-based
//!   [`HbMode::MultithreadedOnly`](crate::HbMode) baseline: both must flag
//!   exactly the same set of racy memory locations;
//! * a concrete demonstration of the paper's §7 claim that multi-threaded
//!   detectors *miss single-threaded races* entirely.

use std::collections::HashMap;

use droidracer_trace::{LockId, MemLoc, OpKind, ThreadId, Trace};

/// A vector clock mapping thread ids to logical times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorClock {
    times: Vec<u32>,
}

impl VectorClock {
    /// Creates a clock of zeros for `n` threads.
    pub fn new(n: usize) -> Self {
        VectorClock { times: vec![0; n] }
    }

    /// The component for `thread`.
    pub fn get(&self, thread: ThreadId) -> u32 {
        self.times.get(thread.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `thread`.
    pub fn set(&mut self, thread: ThreadId, time: u32) {
        if thread.index() >= self.times.len() {
            self.times.resize(thread.index() + 1, 0);
        }
        self.times[thread.index()] = time;
    }

    /// Increments the component for `thread`.
    pub fn tick(&mut self, thread: ThreadId) {
        let t = self.get(thread) + 1;
        self.set(thread, t);
    }

    /// Pointwise maximum with `other` (the join operation).
    pub fn join(&mut self, other: &VectorClock) {
        if other.times.len() > self.times.len() {
            self.times.resize(other.times.len(), 0);
        }
        for (a, b) in self.times.iter_mut().zip(other.times.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self ⊑ other` pointwise.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.times
            .iter()
            .enumerate()
            .all(|(i, &t)| t <= other.times.get(i).copied().unwrap_or(0))
    }
}

/// A race found by the vector-clock detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcRace {
    /// Trace index of the earlier access.
    pub first: usize,
    /// Trace index of the later access (where the race was flagged).
    pub second: usize,
    /// The racy location.
    pub loc: MemLoc,
}

#[derive(Debug, Default, Clone)]
struct LocState {
    /// Per-thread clock of the last write, plus its op index.
    writes: HashMap<ThreadId, (u32, usize)>,
    /// Per-thread clock of the last read, plus its op index.
    reads: HashMap<ThreadId, (u32, usize)>,
}

/// Runs the multi-threaded vector-clock analysis over `trace`, reporting at
/// most one race per location (the first one flagged).
pub fn detect_multithreaded(trace: &Trace) -> Vec<VcRace> {
    // invariant: an unlimited budget never exhausts.
    detect_multithreaded_budgeted(trace, &crate::Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// Like [`detect_multithreaded`] but under a resource [`crate::Budget`]:
/// the pass polls the deadline every 1024 trace ops and the op cap on every
/// op.
///
/// # Errors
///
/// Returns [`crate::BudgetExhausted`] with `ops_processed` = trace ops
/// consumed when a limit trips.
pub fn detect_multithreaded_budgeted(
    trace: &Trace,
    budget: &crate::Budget,
) -> Result<Vec<VcRace>, crate::BudgetExhausted> {
    let limited = budget.is_limited();
    let n = trace.names().thread_count();
    let mut clocks: HashMap<ThreadId, VectorClock> = HashMap::new();
    let mut lock_clocks: HashMap<LockId, VectorClock> = HashMap::new();
    let mut locs: HashMap<MemLoc, LocState> = HashMap::new();
    let mut flagged: HashMap<MemLoc, VcRace> = HashMap::new();

    let clock_of = |clocks: &mut HashMap<ThreadId, VectorClock>, t: ThreadId| {
        clocks
            .entry(t)
            .or_insert_with(|| {
                let mut c = VectorClock::new(n);
                c.tick(t);
                c
            })
            .clone()
    };

    for (i, op) in trace.iter() {
        if limited {
            if let Some(err) = crate::fasttrack::poll_trace_budget(budget, i) {
                return Err(err);
            }
        }
        let t = op.thread;
        match op.kind {
            OpKind::Fork { child } => {
                let parent = clock_of(&mut clocks, t);
                let child_clock = clocks.entry(child).or_insert_with(|| {
                    let mut c = VectorClock::new(n);
                    c.tick(child);
                    c
                });
                child_clock.join(&parent);
                clocks.get_mut(&t).expect("parent exists").tick(t);
            }
            OpKind::Join { child } => {
                let child_clock = clock_of(&mut clocks, child);
                clock_of(&mut clocks, t);
                clocks.get_mut(&t).expect("self exists").join(&child_clock);
            }
            OpKind::Acquire { lock } => {
                clock_of(&mut clocks, t);
                if let Some(lc) = lock_clocks.get(&lock) {
                    clocks.get_mut(&t).expect("self exists").join(lc);
                }
            }
            OpKind::Release { lock } => {
                let c = clock_of(&mut clocks, t);
                lock_clocks
                    .entry(lock)
                    .or_insert_with(|| VectorClock::new(n))
                    .join(&c);
                clocks.get_mut(&t).expect("self exists").tick(t);
            }
            OpKind::Read { loc } => {
                let c = clock_of(&mut clocks, t);
                let state = locs.entry(loc).or_default();
                for (&u, &(wc, wi)) in &state.writes {
                    if u != t && wc > c.get(u) {
                        flagged.entry(loc).or_insert(VcRace {
                            first: wi,
                            second: i,
                            loc,
                        });
                    }
                }
                state.reads.insert(t, (c.get(t), i));
            }
            OpKind::Write { loc } => {
                let c = clock_of(&mut clocks, t);
                let state = locs.entry(loc).or_default();
                for (&u, &(wc, wi)) in &state.writes {
                    if u != t && wc > c.get(u) {
                        flagged.entry(loc).or_insert(VcRace {
                            first: wi,
                            second: i,
                            loc,
                        });
                    }
                }
                for (&u, &(rc, ri)) in &state.reads {
                    if u != t && rc > c.get(u) {
                        flagged.entry(loc).or_insert(VcRace {
                            first: ri,
                            second: i,
                            loc,
                        });
                    }
                }
                state.writes.insert(t, (c.get(t), i));
            }
            _ => {}
        }
    }
    let mut races: Vec<VcRace> = flagged.into_values().collect();
    races.sort_by_key(|r| (r.loc, r.first, r.second));
    Ok(races)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::HbMode;
    use crate::session::AnalysisBuilder;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    #[test]
    fn clock_join_and_compare() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.set(ThreadId(0), 5);
        b.set(ThreadId(1), 2);
        assert!(!a.le(&b) && !b.le(&a));
        a.join(&b);
        assert!(b.le(&a));
        assert_eq!(a.get(ThreadId(0)), 5);
        assert_eq!(a.get(ThreadId(1)), 2);
        a.tick(ThreadId(2));
        assert_eq!(a.get(ThreadId(2)), 1);
    }

    #[test]
    fn flags_unsynchronized_write_read() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc); // 3
        b.read(main, loc); // 4
        let races = detect_multithreaded(&b.finish());
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].first, races[0].second), (3, 4));
    }

    #[test]
    fn lock_synchronization_suppresses_race() {
        let mut b = TraceBuilder::new();
        let a = b.thread("a", ThreadKind::App, true);
        let c = b.thread("c", ThreadKind::App, true);
        let l = b.lock("m");
        let loc = b.loc("o", "C.f");
        b.thread_init(a);
        b.thread_init(c);
        b.acquire(a, l);
        b.write(a, loc);
        b.release(a, l);
        b.acquire(c, l);
        b.write(c, loc);
        b.release(c, l);
        assert!(detect_multithreaded(&b.finish()).is_empty());
    }

    #[test]
    fn fork_and_join_synchronize() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.write(main, loc);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.thread_exit(bg);
        b.join(main, bg);
        b.read(main, loc);
        assert!(detect_multithreaded(&b.finish()).is_empty());
    }

    #[test]
    fn misses_single_threaded_task_races() {
        // The §7 claim: a single-threaded race between two asynchronous
        // tasks is invisible to a multi-threaded detector.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, true);
        let bg2 = b.thread("bg2", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg1);
        b.thread_init(bg2);
        b.post(bg1, t1, main);
        b.post(bg2, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        let trace = b.finish();
        assert!(detect_multithreaded(&trace).is_empty());
        // …while the paper's relation reports it:
        assert_eq!(
            AnalysisBuilder::new()
                .analyze(&trace)
                .unwrap()
                .races()
                .len(),
            1
        );
    }

    #[test]
    fn agrees_with_graph_based_mt_baseline_on_locations() {
        // Build a mixed trace and compare racy-location sets between the
        // vector-clock detector and the graph-based mt-only mode.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, false);
        let bg2 = b.thread("bg2", ThreadKind::App, false);
        let l = b.lock("m");
        let safe = b.loc("o1", "C.safe");
        let racy = b.loc("o2", "C.racy");
        b.thread_init(main);
        b.write(main, safe);
        b.write(main, racy);
        b.fork(main, bg1);
        b.fork(main, bg2);
        b.thread_init(bg1);
        b.thread_init(bg2);
        b.acquire(bg1, l);
        b.write(bg1, safe);
        b.release(bg1, l);
        b.write(bg1, racy);
        b.acquire(bg2, l);
        b.write(bg2, safe);
        b.release(bg2, l);
        b.write(bg2, racy);
        let trace = b.finish();
        let vc_locs: std::collections::BTreeSet<MemLoc> =
            detect_multithreaded(&trace).iter().map(|r| r.loc).collect();
        let graph_locs: std::collections::BTreeSet<MemLoc> = AnalysisBuilder::new()
            .mode(HbMode::MultithreadedOnly)
            .analyze(&trace)
            .unwrap()
            .races()
            .iter()
            .map(|cr| cr.race.loc)
            .collect();
        assert_eq!(vc_locs, graph_locs);
        assert!(vc_locs.contains(&racy));
        assert!(!vc_locs.contains(&safe));
    }
}
