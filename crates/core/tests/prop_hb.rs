//! Property-based tests of the happens-before engine over random *valid*
//! traces generated directly at the core-language level (independent of the
//! framework model, so loopers, locks, delayed posts and thread structure
//! are exercised in odd combinations the compiler would never emit).

use proptest::prelude::*;
use std::collections::BTreeSet;

use droidracer_core::spec::Spec;
use droidracer_core::{Analysis, AnalysisBuilder, HappensBefore, HbConfig, HbMode, RaceCategory};
use droidracer_trace::{
    validate, MemLoc, PostKind, TaskId, ThreadId, ThreadKind, Trace, TraceBuilder,
};

/// Byte cursor (structured fuzzing).
struct Bytes<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bytes { data, pos: 0 }
    }
    fn next(&mut self) -> u8 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
    fn pick(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.next() as usize % n
        }
    }
    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum ThreadState {
    Created,
    Running,
    Looping,
    InTask(TaskId),
    Exited,
}

/// Generates a feasible trace by maintaining the Figure-5 state and only
/// emitting operations whose antecedents hold.
fn random_valid_trace(bytes: &[u8]) -> Trace {
    let mut c = Bytes::new(bytes);
    let mut b = TraceBuilder::new();

    let n_loopers = 1 + c.pick(2);
    let n_plain = 1 + c.pick(2);
    let mut threads: Vec<(ThreadId, bool, ThreadState)> = Vec::new();
    for i in 0..n_loopers {
        let t = b.thread(
            format!("looper{i}"),
            if i == 0 {
                ThreadKind::Main
            } else {
                ThreadKind::App
            },
            true,
        );
        threads.push((t, true, ThreadState::Created));
    }
    for i in 0..n_plain {
        let t = b.thread(format!("plain{i}"), ThreadKind::App, true);
        threads.push((t, false, ThreadState::Created));
    }
    let locs: Vec<MemLoc> = (0..3).map(|i| b.loc("o", format!("C.f{i}"))).collect();
    let locks = [b.lock("m0"), b.lock("m1")];

    // Per-looper queue: (task, kind). Lock holders: lock -> (thread, depth).
    let mut queues: Vec<Vec<(TaskId, PostKind)>> = vec![Vec::new(); threads.len()];
    let mut lock_holder: [Option<(ThreadId, u32)>; 2] = [None, None];
    let mut task_counter = 0usize;
    let mut enabled_pending: Vec<TaskId> = Vec::new();

    // Bound the run.
    for _ in 0..bytes.len().min(120) {
        if c.done() {
            break;
        }
        let ti = c.pick(threads.len());
        let (tid, has_queue, state) = threads[ti];
        match state {
            ThreadState::Created => {
                b.thread_init(tid);
                if has_queue {
                    b.attach_q(tid);
                    b.loop_on_q(tid);
                    threads[ti].2 = ThreadState::Looping;
                } else {
                    threads[ti].2 = ThreadState::Running;
                }
            }
            ThreadState::Exited => {}
            ThreadState::Looping => {
                // Either begin an eligible task or do nothing this round.
                let queue = &mut queues[ti];
                let mut eligible = None;
                let mut earlier_plain = false;
                let mut min_delay: Option<u64> = None;
                let mut eligibles = Vec::new();
                for (pos, (task, kind)) in queue.iter().enumerate() {
                    let blocked = match kind.delay() {
                        None => earlier_plain,
                        Some(d) => earlier_plain || min_delay.is_some_and(|m| m <= d),
                    };
                    if !blocked {
                        eligibles.push((pos, *task));
                    }
                    match kind.delay() {
                        None => earlier_plain = true,
                        Some(d) => min_delay = Some(min_delay.map_or(d, |m| m.min(d))),
                    }
                }
                if !eligibles.is_empty() {
                    eligible = Some(eligibles[c.pick(eligibles.len())]);
                }
                if let Some((pos, task)) = eligible {
                    queue.remove(pos);
                    b.begin(tid, task);
                    threads[ti].2 = ThreadState::InTask(task);
                }
            }
            ThreadState::Running | ThreadState::InTask(_) => {
                // Emit a random action.
                match c.pick(8) {
                    0 | 1 => {
                        let loc = locs[c.pick(locs.len())];
                        if c.pick(2) == 0 {
                            b.read(tid, loc);
                        } else {
                            b.write(tid, loc);
                        }
                    }
                    2 => {
                        // Acquire a free (or self-held) lock.
                        let li = c.pick(2);
                        match lock_holder[li] {
                            Some((h, d)) if h == tid => {
                                lock_holder[li] = Some((h, d + 1));
                                b.acquire(tid, locks[li]);
                            }
                            None => {
                                lock_holder[li] = Some((tid, 1));
                                b.acquire(tid, locks[li]);
                            }
                            _ => {}
                        }
                    }
                    3 => {
                        // Release a held lock.
                        let li = c.pick(2);
                        if let Some((h, d)) = lock_holder[li] {
                            if h == tid {
                                lock_holder[li] = if d > 1 { Some((h, d - 1)) } else { None };
                                b.release(tid, locks[li]);
                            }
                        }
                    }
                    4 | 5 => {
                        // Post (sometimes enabled first, sometimes delayed).
                        let target = c.pick(threads.len());
                        let (target_id, has_q, tstate) = threads[target];
                        let attached =
                            has_q && !matches!(tstate, ThreadState::Created | ThreadState::Exited);
                        if attached {
                            let kind = match c.pick(5) {
                                0 => PostKind::Delayed(10 * (1 + c.pick(4) as u64)),
                                1 => PostKind::Front,
                                _ => PostKind::Plain,
                            };
                            let task = if !enabled_pending.is_empty() && c.pick(2) == 0 {
                                enabled_pending.remove(0)
                            } else {
                                task_counter += 1;
                                b.task(format!("p{task_counter}"))
                            };
                            b.post_with(tid, task, target_id, kind, None);
                            if matches!(kind, PostKind::Front) {
                                queues[target].insert(0, (task, kind));
                            } else {
                                queues[target].push((task, kind));
                            }
                        }
                    }
                    6 => {
                        // Enable a future task.
                        task_counter += 1;
                        let task = b.task(format!("p{task_counter}"));
                        b.enable(tid, task);
                        enabled_pending.push(task);
                    }
                    7 => {
                        // End the task / exit the thread.
                        match threads[ti].2 {
                            ThreadState::InTask(task) => {
                                // Release any locks we still hold first, to
                                // keep generation simple.
                                for li in 0..2 {
                                    while let Some((h, d)) = lock_holder[li] {
                                        if h != tid {
                                            break;
                                        }
                                        lock_holder[li] =
                                            if d > 1 { Some((h, d - 1)) } else { None };
                                        b.release(tid, locks[li]);
                                    }
                                }
                                b.end(tid, task);
                                threads[ti].2 = ThreadState::Looping;
                            }
                            ThreadState::Running => {
                                for li in 0..2 {
                                    while let Some((h, d)) = lock_holder[li] {
                                        if h != tid {
                                            break;
                                        }
                                        lock_holder[li] =
                                            if d > 1 { Some((h, d - 1)) } else { None };
                                        b.release(tid, locks[li]);
                                    }
                                }
                                b.thread_exit(tid);
                                threads[ti].2 = ThreadState::Exited;
                            }
                            _ => {}
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
    b.finish()
}

fn race_keys(analysis: &Analysis) -> BTreeSet<(MemLoc, RaceCategory)> {
    analysis
        .representatives()
        .iter()
        .map(|cr| (cr.race.loc, cr.category))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generator only emits feasible traces (sanity of everything
    /// below).
    #[test]
    fn generated_traces_validate(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = random_valid_trace(&bytes);
        prop_assert_eq!(validate(&trace), Ok(()), "trace:\n{}", trace);
    }

    /// The engine orders every op pair as the rules as written do, in every
    /// mode, merged and unmerged, and its counters partition its relation.
    #[test]
    fn engine_matches_spec(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = random_valid_trace(&bytes);
        for mode in HbMode::all() {
            let spec = Spec::compute(&trace, mode.rule_set());
            for config in [HbConfig::for_mode(mode), HbConfig::for_mode(mode).without_merging()] {
                let hb = HappensBefore::compute(&trace, config);
                let (count, first) = spec.disagreements(|i, j| hb.ordered(i, j));
                prop_assert_eq!(
                    count, 0,
                    "{:?} / merge={}: first pair {:?}\ntrace:\n{}",
                    mode, config.merge_accesses, first, trace
                );
                let s = hb.stats();
                prop_assert_eq!(s.base_edges + s.derived_edges(), hb.ordered_pairs());
            }
        }
    }

    /// Node merging is lossless on arbitrary feasible traces.
    #[test]
    fn merging_is_lossless(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = random_valid_trace(&bytes);
        let merged = AnalysisBuilder::new().config(HbConfig::new()).analyze(&trace).unwrap();
        let unmerged = AnalysisBuilder::new().config(HbConfig::new().without_merging()).analyze(&trace).unwrap();
        prop_assert_eq!(race_keys(&merged), race_keys(&unmerged));
    }

    /// `≺` is irreflexive w.r.t. trace order: no later op ever
    /// happens-before an earlier one.
    #[test]
    fn respects_trace_order(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = random_valid_trace(&bytes);
        let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
        let n = analysis.trace().len();
        for i in 0..n {
            for j in i + 1..n {
                prop_assert!(!analysis.hb().ordered(j, i), "op {} ≺ op {}", j, i);
            }
        }
    }

    /// TRANS-MT invariant: `a ≺ b ≺ c` with `a`, `c` on different threads
    /// implies `a ≺ c`.
    #[test]
    fn trans_mt_is_closed(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let trace = random_valid_trace(&bytes);
        let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
        let t = analysis.trace();
        let n = t.len();
        for a in 0..n {
            for bb in a + 1..n {
                if !analysis.hb().ordered(a, bb) {
                    continue;
                }
                for cc in bb + 1..n {
                    if analysis.hb().ordered(bb, cc)
                        && t.op(a).thread != t.op(cc).thread
                    {
                        prop_assert!(
                            analysis.hb().ordered(a, cc),
                            "TRANS-MT violated: {} ≺ {} ≺ {} but {} ⊀ {}",
                            a, bb, cc, a, cc
                        );
                    }
                }
            }
        }
    }

    /// TRANS-ST invariant: `a ≺ b ≺ c` all on one thread implies `a ≺ c`
    /// (same-thread orderings live in `≺st`, which is transitively closed).
    #[test]
    fn trans_st_is_closed(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let trace = random_valid_trace(&bytes);
        let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
        let t = analysis.trace();
        let n = t.len();
        for a in 0..n {
            for bb in a + 1..n {
                if t.op(a).thread != t.op(bb).thread || !analysis.hb().ordered(a, bb) {
                    continue;
                }
                for cc in bb + 1..n {
                    if t.op(cc).thread == t.op(a).thread && analysis.hb().ordered(bb, cc) {
                        prop_assert!(
                            analysis.hb().ordered(a, cc),
                            "TRANS-ST violated: {} ≺ {} ≺ {} but {} ⊀ {}",
                            a, bb, cc, a, cc
                        );
                    }
                }
            }
        }
    }

    /// The paper's relation is a restriction of the naive combination:
    /// every ordering it derives, the naive closure derives too — hence
    /// naive races ⊆ full races.
    #[test]
    fn full_orderings_subset_of_naive(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let trace = random_valid_trace(&bytes);
        let full = AnalysisBuilder::new().analyze(&trace).unwrap();
        let naive = AnalysisBuilder::new().mode(HbMode::NaiveCombined).analyze(&trace).unwrap();
        let n = trace.len();
        for i in 0..n {
            for j in i + 1..n {
                if full.hb().ordered(i, j) {
                    prop_assert!(
                        naive.hb().ordered(i, j),
                        "full orders {} ≺ {} but naive does not",
                        i, j
                    );
                }
            }
        }
    }

    /// Analyses are deterministic.
    #[test]
    fn analysis_is_deterministic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = random_valid_trace(&bytes);
        let a = AnalysisBuilder::new().analyze(&trace).unwrap();
        let b = AnalysisBuilder::new().analyze(&trace).unwrap();
        prop_assert_eq!(a.races(), b.races());
        prop_assert_eq!(a.hb().ordered_pairs(), b.hb().ordered_pairs());
    }
}
