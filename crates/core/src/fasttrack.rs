//! FastTrack (Flanagan & Freund, PLDI 2009) — the epoch-optimized
//! vector-clock race detector the paper cites as the efficient state of the
//! art for multi-threaded programs (reference 7 of its bibliography).
//!
//! Where [`crate::vc`] keeps full per-thread clock maps per location
//! (DJIT⁺), FastTrack represents the last write — and, in the common case,
//! the last read — as a single *epoch* `c@t`, falling back to a read vector
//! only for concurrent reads. Both detectors see only threads, fork/join
//! and locks; asynchronous dispatch is invisible to them, so both miss
//! every single-threaded race — the §7 claim the ablation demonstrates.
//!
//! The implementation follows the published state machine: same-epoch
//! fast paths, write-epoch checks, read-epoch/read-shared adaptivity.

use std::collections::HashMap;

use droidracer_trace::{LockId, MemLoc, OpKind, ThreadId, Trace};

use crate::robust::{Budget, BudgetExhausted, BudgetReason};
use crate::vc::{VcRace, VectorClock};

/// An epoch `c@t`: clock value `c` of thread `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// The thread component.
    pub thread: ThreadId,
    /// Its clock at the access.
    pub clock: u32,
}

impl Epoch {
    /// The bottom epoch `0@t0` used for never-accessed state.
    pub fn bottom() -> Self {
        Epoch {
            thread: ThreadId(0),
            clock: 0,
        }
    }

    /// `self ⪯ clock`: the epoch happens-before (or equals) the clock.
    pub fn le(&self, clock: &VectorClock) -> bool {
        self.clock <= clock.get(self.thread)
    }
}

/// Last-access state per memory location.
#[derive(Debug, Clone)]
enum ReadState {
    /// A single last read epoch (the common case).
    Epoch(Epoch, usize),
    /// Concurrent reads: full vector plus op index per thread.
    Shared(HashMap<ThreadId, (u32, usize)>),
}

#[derive(Debug, Clone)]
struct LocState {
    write: Epoch,
    write_op: usize,
    read: ReadState,
}

impl LocState {
    fn new() -> Self {
        LocState {
            write: Epoch::bottom(),
            write_op: usize::MAX,
            read: ReadState::Epoch(Epoch::bottom(), usize::MAX),
        }
    }
}

/// Runs the FastTrack analysis over `trace`, reporting at most one race per
/// location (the first one flagged), exactly like [`crate::vc`].
pub fn detect(trace: &Trace) -> Vec<VcRace> {
    // invariant: an unlimited budget never exhausts.
    detect_budgeted(trace, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// Like [`detect`] but under a resource [`Budget`]: the pass polls the
/// deadline every 1024 trace ops and the op cap on every op.
///
/// # Errors
///
/// Returns [`BudgetExhausted`] with `ops_processed` = trace ops consumed
/// when a limit trips.
pub fn detect_budgeted(trace: &Trace, budget: &Budget) -> Result<Vec<VcRace>, BudgetExhausted> {
    let limited = budget.is_limited();
    let n = trace.names().thread_count();
    let mut clocks: HashMap<ThreadId, VectorClock> = HashMap::new();
    let mut lock_clocks: HashMap<LockId, VectorClock> = HashMap::new();
    let mut locs: HashMap<MemLoc, LocState> = HashMap::new();
    let mut flagged: HashMap<MemLoc, VcRace> = HashMap::new();

    fn clock_of(
        clocks: &mut HashMap<ThreadId, VectorClock>,
        n: usize,
        t: ThreadId,
    ) -> &mut VectorClock {
        clocks.entry(t).or_insert_with(|| {
            let mut c = VectorClock::new(n);
            c.tick(t);
            c
        })
    }

    for (i, op) in trace.iter() {
        if limited {
            if let Some(err) = poll_trace_budget(budget, i) {
                return Err(err);
            }
        }
        let t = op.thread;
        match op.kind {
            OpKind::Fork { child } => {
                let parent = clock_of(&mut clocks, n, t).clone();
                clock_of(&mut clocks, n, child).join(&parent);
                clock_of(&mut clocks, n, t).tick(t);
            }
            OpKind::Join { child } => {
                let child_clock = clock_of(&mut clocks, n, child).clone();
                clock_of(&mut clocks, n, t).join(&child_clock);
            }
            OpKind::Acquire { lock } => {
                if let Some(lc) = lock_clocks.get(&lock) {
                    let lc = lc.clone();
                    clock_of(&mut clocks, n, t).join(&lc);
                }
            }
            OpKind::Release { lock } => {
                let c = clock_of(&mut clocks, n, t).clone();
                lock_clocks
                    .entry(lock)
                    .or_insert_with(|| VectorClock::new(n))
                    .join(&c);
                clock_of(&mut clocks, n, t).tick(t);
            }
            OpKind::Read { loc } => {
                let c = clock_of(&mut clocks, n, t).clone();
                let epoch = Epoch {
                    thread: t,
                    clock: c.get(t),
                };
                let state = locs.entry(loc).or_insert_with(LocState::new);
                // [FT READ SAME EPOCH] fast path.
                if let ReadState::Epoch(e, _) = state.read {
                    if e == epoch {
                        continue;
                    }
                }
                // Write-read race check.
                if !state.write.le(&c) {
                    flagged.entry(loc).or_insert(VcRace {
                        first: state.write_op,
                        second: i,
                        loc,
                    });
                }
                match &mut state.read {
                    ReadState::Epoch(e, _) if e.le(&c) => {
                        // [FT READ EXCLUSIVE]: the previous read is ordered
                        // before us; stay in epoch representation.
                        state.read = ReadState::Epoch(epoch, i);
                    }
                    ReadState::Epoch(e, prev_i) => {
                        // [FT READ SHARE]: concurrent reads; inflate.
                        let mut shared = HashMap::new();
                        shared.insert(e.thread, (e.clock, *prev_i));
                        shared.insert(t, (epoch.clock, i));
                        state.read = ReadState::Shared(shared);
                    }
                    ReadState::Shared(shared) => {
                        // [FT READ SHARED].
                        shared.insert(t, (epoch.clock, i));
                    }
                }
            }
            OpKind::Write { loc } => {
                let c = clock_of(&mut clocks, n, t).clone();
                let epoch = Epoch {
                    thread: t,
                    clock: c.get(t),
                };
                let state = locs.entry(loc).or_insert_with(LocState::new);
                // [FT WRITE SAME EPOCH] fast path.
                if state.write == epoch {
                    continue;
                }
                // Write-write race check.
                if !state.write.le(&c) {
                    flagged.entry(loc).or_insert(VcRace {
                        first: state.write_op,
                        second: i,
                        loc,
                    });
                }
                // Read-write race checks.
                match &state.read {
                    ReadState::Epoch(e, prev_i) => {
                        if e.clock > 0 && !e.le(&c) {
                            flagged.entry(loc).or_insert(VcRace {
                                first: *prev_i,
                                second: i,
                                loc,
                            });
                        }
                    }
                    ReadState::Shared(shared) => {
                        for (&u, &(rc, ri)) in shared {
                            if u != t && rc > c.get(u) {
                                flagged.entry(loc).or_insert(VcRace {
                                    first: ri,
                                    second: i,
                                    loc,
                                });
                            }
                        }
                    }
                }
                // [FT WRITE EXCLUSIVE/SHARED]: writes always collapse the
                // read state back to an epoch representation.
                state.write = epoch;
                state.write_op = i;
                state.read = ReadState::Epoch(Epoch::bottom(), usize::MAX);
            }
            _ => {}
        }
    }
    let mut races: Vec<VcRace> = flagged.into_values().collect();
    races.sort_by_key(|r| (r.loc, r.first, r.second));
    Ok(races)
}

/// Shared per-op budget poll for the trace-scanning detectors: the op cap
/// is exact, the deadline is sampled every 1024 ops.
pub(crate) fn poll_trace_budget(budget: &Budget, ops_done: usize) -> Option<BudgetExhausted> {
    let exhausted = |reason| BudgetExhausted {
        reason,
        partial: crate::EngineStats::default(),
        ops_processed: ops_done as u64,
    };
    if let Some(cap) = budget.max_ops {
        if ops_done as u64 >= cap {
            return Some(exhausted(BudgetReason::OpCap));
        }
    }
    if ops_done & 1023 == 0 && budget.deadline_passed() {
        return Some(exhausted(BudgetReason::Deadline));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::detect_multithreaded;
    use droidracer_trace::{ThreadKind, TraceBuilder};
    use std::collections::BTreeSet;

    fn locs(races: &[VcRace]) -> BTreeSet<MemLoc> {
        races.iter().map(|r| r.loc).collect()
    }

    #[test]
    fn epoch_comparison() {
        let mut c = VectorClock::new(2);
        c.set(ThreadId(0), 3);
        assert!(Epoch {
            thread: ThreadId(0),
            clock: 3
        }
        .le(&c));
        assert!(Epoch {
            thread: ThreadId(0),
            clock: 2
        }
        .le(&c));
        assert!(!Epoch {
            thread: ThreadId(0),
            clock: 4
        }
        .le(&c));
        assert!(!Epoch {
            thread: ThreadId(1),
            clock: 1
        }
        .le(&c));
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
        let races = detect(&b.finish());
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].first, races[0].second), (3, 4));
    }

    #[test]
    fn read_share_inflation_catches_later_write() {
        // Two concurrent readers, then an unsynchronized writer: the write
        // races with at least one read in the shared representation.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let r1 = b.thread("r1", ThreadKind::App, false);
        let r2 = b.thread("r2", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.write(main, loc); // initialize before forking: no race yet
        b.fork(main, r1);
        b.fork(main, r2);
        b.thread_init(r1);
        b.thread_init(r2);
        b.read(r1, loc);
        b.read(r2, loc);
        b.write(main, loc); // races with both reads
        let races = detect(&b.finish());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_and_join_synchronization_suppress_races() {
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
        assert!(detect(&b.finish()).is_empty());
    }

    #[test]
    fn same_epoch_fast_path_is_neutral() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        for _ in 0..10 {
            b.write(main, loc);
            b.read(main, loc);
        }
        assert!(detect(&b.finish()).is_empty());
    }

    #[test]
    fn agrees_with_djit_on_random_shapes() {
        // A handful of hand-made mixed traces: FastTrack and the full-VC
        // detector flag the same locations.
        for variant in 0..4 {
            let mut b = TraceBuilder::new();
            let main = b.thread("main", ThreadKind::Main, true);
            let w1 = b.thread("w1", ThreadKind::App, false);
            let w2 = b.thread("w2", ThreadKind::App, false);
            let l = b.lock("m");
            let safe = b.loc("o", "C.safe");
            let racy = b.loc("o", "C.racy");
            b.thread_init(main);
            b.write(main, safe);
            b.write(main, racy);
            b.fork(main, w1);
            b.fork(main, w2);
            b.thread_init(w1);
            b.thread_init(w2);
            if variant % 2 == 0 {
                b.acquire(w1, l);
                b.write(w1, safe);
                b.release(w1, l);
            } else {
                b.read(w1, racy);
            }
            b.write(w2, racy);
            if variant >= 2 {
                b.acquire(w2, l);
                b.read(w2, safe);
                b.release(w2, l);
            }
            b.thread_exit(w1);
            b.join(main, w1);
            b.read(main, safe);
            let trace = b.finish();
            assert_eq!(
                locs(&detect(&trace)),
                locs(&detect_multithreaded(&trace)),
                "variant {variant}"
            );
        }
    }
}
